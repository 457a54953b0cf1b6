//! The benchmark's own arithmetic: the tail rule, span self time, which
//! requests `req_per_s` counts, and the event sink's counts.

use perfbench::common::{CountingSink, Fnv};
use perfbench::serve_mix::{Req, Tally};
use perfbench::spans::{layer_self_ms, self_times, Span, Tracer};
use perfbench::stats::{median, tail, Latency, TAIL_BEYOND};
use std::io::Write as _;
use std::time::Duration;

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&samples).expect("100 samples have a tail");
    assert_eq!(t.value, 90.0, "ten samples (91..=100) lie beyond 90");
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.samples, 100);
    assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&samples).expect("1000 samples have a tail");
    assert_eq!((t.value, t.percentile, t.samples), (990.0, 99.0, 1000));
}

#[test]
fn tail_needs_more_than_ten_samples() {
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&eleven).expect("eleven samples have a tail");
    assert_eq!(t.value, 1.0);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(tail(&ten).is_none());
    // Too few samples for the rule: the summary falls back to the maximum
    // at percentile 100 and still states the count.
    let lat = Latency::of(&ten).expect("non-empty");
    assert_eq!((lat.tail.value, lat.tail.percentile, lat.tail.samples), (10.0, 100.0, 10));
    assert_eq!(lat.p50, 5.5);
    assert!(lat.describe("job", "ms").contains("(n=10)"));
    assert!(Latency::of(&[]).is_none());
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, op: 1, name, start_ns, end_ns }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = [
        span(0, None, "op.cold_job", 0, 100),
        // Two overlapping children (two threads): their union 10..50 counts once.
        span(1, Some(0), "http.submit", 10, 30),
        span(2, Some(0), "http.status", 20, 50),
        // A child running past its parent's end counts only up to 100.
        span(3, Some(0), "http.report", 90, 120),
        // A grandchild is subtracted from its own parent only.
        span(4, Some(1), "engine.run", 12, 18),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);
    let by_layer = layer_self_ms(&spans);
    for (layer, ns) in [("op", 50.0), ("http", 74.0), ("engine", 6.0)] {
        assert!((by_layer[layer] - ns / 1e6).abs() < 1e-15, "{layer}: {}", by_layer[layer]);
    }
}

#[test]
fn tracer_records_parents_only_when_enabled() {
    let off = Tracer::new(false);
    let got = off.span("op.x", 1, None, |id| {
        assert!(id.is_none());
        off.span("engine.run", 1, id, |_| 7)
    });
    assert_eq!(got, 7);
    assert!(off.spans().is_empty());

    let on = Tracer::new(true);
    on.span("op.x", 3, None, |id| on.span("engine.run", 3, id, |_| ()));
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    let (child, parent) = (&spans[0], &spans[1]);
    assert_eq!(child.parent, Some(parent.id));
    assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    assert_eq!((child.layer(), parent.layer(), child.op), ("engine", "op", 3));
}

#[test]
fn polls_of_unfinished_jobs_do_not_count_toward_req_per_s() {
    let mut t = Tally::default();
    t.record(Req::Submit, true);
    for _ in 0..5 {
        t.record(Req::Status { finished: false }, true);
    }
    t.record(Req::Status { finished: true }, true);
    t.record(Req::Report, true);
    t.record(Req::Healthz, false);
    assert_eq!((t.attempted, t.failed, t.polls), (4, 1, 5));
    assert_eq!(t.per_second(Duration::from_secs(2)), 1.5);

    // A slower job needs more polls; the rate must not rise with it.
    let mut slow = t.clone();
    for _ in 0..50 {
        slow.record(Req::Status { finished: false }, true);
    }
    assert_eq!(slow.per_second(Duration::from_secs(2)), t.per_second(Duration::from_secs(2)));

    // A poll that fails still counts as a failed request.
    slow.record(Req::Status { finished: false }, false);
    assert_eq!((slow.attempted, slow.failed), (5, 2));
}

#[test]
fn sink_counts_do_not_depend_on_how_the_stream_is_split() {
    let stream: &[u8] = b"{\"type\":\"header\",\"spec\":\"BAS-2\"}\n\
{\"type\":\"decision\",\"t\":0}\n\
{\"type\":\"release\",\"t\":0}\n\
{\"type\":\"decision\",\"t\":1}\n\
{\"type\":\"start\",\"note\":\"{\\\"type\\\":\\\"decision\\\"\"}\n\
{\"type\":\"decision\",\"t\":2}\n";
    let count = |chunks: &mut dyn Iterator<Item = &[u8]>| {
        let mut sink = CountingSink::default();
        for chunk in chunks {
            sink.write_all(chunk).expect("the sink never fails");
        }
        (sink.decisions, sink.lines, sink.bytes, sink.hash)
    };
    let whole = count(&mut std::iter::once(stream));
    assert_eq!(whole, (3, 6, stream.len() as u64, Fnv(Fnv::of(stream))));
    // One line per write, as an unbuffered writer hands it over.
    assert_eq!(count(&mut stream.split_inclusive(|&b| b == b'\n')), whole);
    // Fixed-size chunks that cut lines and the tag itself, as a buffered
    // writer hands them over.
    for size in [1, 3, 7, 16, 40] {
        assert_eq!(count(&mut stream.chunks(size)), whole, "chunks of {size}");
    }
}
