//! A minimal, std-only HTTP/1.1 layer: request parsing, response writing
//! and chunked transfer encoding.
//!
//! The daemon speaks just enough HTTP for its own API — one request per
//! connection (`Connection: close`), `Content-Length` bodies on the way in,
//! fixed-length or chunked bodies on the way out. Anything outside that
//! subset is rejected with a 4xx rather than misread.

use std::io::{self, BufRead, Write};

/// Longest accepted request line / header line, bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted on one request.
const MAX_HEADERS: usize = 64;
/// How much of an oversized body we drain before answering 413, so the
/// response reaches clients that only read after writing everything.
const DRAIN_CAP_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, query and body (headers are consumed
/// during parsing; only the ones the server acts on are kept).
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target path, without the query string.
    pub path: String,
    /// The raw query string (after `?`), empty if none was sent.
    pub query: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// A request that could not be parsed, mapped to the HTTP status the
/// server should answer with.
#[derive(Debug)]
pub struct RequestError {
    /// HTTP status code (4xx).
    pub status: u16,
    /// Human-readable reason, returned in the JSON error body.
    pub message: String,
}

impl RequestError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        RequestError { status, message: message.into() }
    }
}

/// Read one line terminated by `\n`, stripping the trailing `\r\n`/`\n`.
/// Returns `None` on a clean EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    use std::io::Read as _;
    let mut buf = Vec::new();
    let mut limited = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 header line"))
}

/// Parse one HTTP/1.x request from `reader`, enforcing `max_body` on the
/// declared `Content-Length`.
///
/// Returns `Ok(None)` if the peer closed the connection without sending
/// anything (a bare connect/disconnect probe, not an error).
pub fn read_request(
    reader: &mut impl BufRead,
    max_body: usize,
) -> Result<Option<Request>, RequestError> {
    let bad = |m: String| RequestError::new(400, m);
    let line = match read_line(reader) {
        Ok(None) => return Ok(None),
        Ok(Some(line)) => line,
        Err(e) => return Err(bad(format!("unreadable request line: {e}"))),
    };
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(bad(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::new(505, format!("unsupported protocol {version:?}")));
    }
    let mut content_length: Option<usize> = None;
    for _ in 0..=MAX_HEADERS {
        let header = match read_line(reader) {
            Ok(Some(h)) => h,
            Ok(None) => return Err(bad("connection closed inside headers".to_string())),
            Err(e) => return Err(bad(format!("unreadable header: {e}"))),
        };
        if header.is_empty() {
            let body = read_body(reader, content_length, max_body)?;
            let (path, query) = match path.split_once('?') {
                Some((p, q)) => (p, q),
                None => (path, ""),
            };
            return Ok(Some(Request {
                method: method.to_string(),
                path: path.to_string(),
                query: query.to_string(),
                body,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {:?}", value.trim())))?;
                content_length = Some(n);
            }
            "transfer-encoding" => {
                // Chunked *request* bodies are out of scope; refusing them
                // loudly beats truncating them silently.
                return Err(RequestError::new(
                    411,
                    "chunked request bodies are not supported; send a Content-Length".to_string(),
                ));
            }
            _ => {}
        }
    }
    Err(bad(format!("more than {MAX_HEADERS} headers")))
}

/// Read the declared body, enforcing the size cap. An over-cap body is
/// drained (bounded) so the 413 response lands before the socket closes.
fn read_body(
    reader: &mut impl BufRead,
    content_length: Option<usize>,
    max_body: usize,
) -> Result<Vec<u8>, RequestError> {
    let Some(len) = content_length else {
        return Ok(Vec::new());
    };
    if len > max_body {
        use std::io::Read as _;
        let mut sink = io::sink();
        let drain = len.min(DRAIN_CAP_BYTES) as u64;
        let _ = io::copy(&mut reader.by_ref().take(drain), &mut sink);
        return Err(RequestError::new(
            413,
            format!("body of {len} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut body = vec![0u8; len];
    std::io::Read::read_exact(reader, &mut body)
        .map_err(|e| RequestError::new(400, format!("short body: {e}")))?;
    Ok(body)
}

/// The standard reason phrase for the status codes this server uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write a complete fixed-length response (status line, headers, body).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
) -> io::Result<()> {
    write!(w, "HTTP/1.1 {status} {}\r\n", reason(status))?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    write!(w, "Content-Length: {}\r\n", body.len())?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"Connection: close\r\n\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// Write the head of a chunked response; the body follows through a
/// [`ChunkedWriter`] over the same stream.
pub fn write_chunked_head(w: &mut impl Write, content_type: &str) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    w.flush()
}

/// A [`Write`] adapter that frames every `write` as one HTTP/1.1 chunk.
///
/// Callers wrap it in a [`std::io::BufWriter`] so many small event lines
/// coalesce into reasonably-sized chunks; [`ChunkedWriter::finish`] emits
/// the terminating zero-length chunk.
///
/// The writer is **poisoned** by its first error: once any inner write or
/// flush fails (a stalled client hitting the socket's write timeout, a
/// disconnect), every later operation fails immediately instead of
/// touching the stream again. A replay into a dead connection therefore
/// pays at most one write timeout, not one per chunk — which keeps
/// graceful drain (which joins connection threads) bounded.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    inner: W,
    dead: bool,
}

fn poisoned() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "chunked stream already failed")
}

impl<W: Write> ChunkedWriter<W> {
    /// Frame writes to `inner` as HTTP chunks.
    pub fn new(inner: W) -> Self {
        ChunkedWriter { inner, dead: false }
    }

    /// Write the terminating chunk and flush, returning the stream.
    pub fn finish(mut self) -> io::Result<W> {
        if self.dead {
            return Err(poisoned());
        }
        self.inner.write_all(b"0\r\n\r\n")?;
        self.inner.flush()?;
        Ok(self.inner)
    }

    fn check<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if result.is_err() {
            self.dead = true;
        }
        result
    }
}

impl<W: Write> Write for ChunkedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(poisoned());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        let header = write!(self.inner, "{:x}\r\n", buf.len());
        self.check(header)?;
        let body = self.inner.write_all(buf);
        self.check(body)?;
        let tail = self.inner.write_all(b"\r\n");
        self.check(tail)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(poisoned());
        }
        let result = self.inner.flush();
        self.check(result)
    }
}

/// Decode a chunked transfer-encoded body (test helper for the black-box
/// suite and any in-process consumer of a streamed endpoint).
pub fn decode_chunked(mut body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let nl = body.windows(2).position(|w| w == b"\r\n").ok_or("missing chunk-size line")?;
        let size_line = std::str::from_utf8(&body[..nl]).map_err(|_| "bad chunk size")?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        body = &body[nl + 2..];
        if size == 0 {
            return Ok(out);
        }
        if body.len() < size + 2 {
            return Err("truncated chunk".to_string());
        }
        out.extend_from_slice(&body[..size]);
        if &body[size..size + 2] != b"\r\n" {
            return Err("chunk missing trailing CRLF".to_string());
        }
        body = &body[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Option<Request>, RequestError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 64)
    }

    #[test]
    fn parses_a_get_and_a_post() {
        let req = parse("GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/v1/healthz"));
        assert!(req.body.is_empty());

        let req =
            parse("POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn empty_connection_is_not_an_error() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn query_string_is_split_off_the_path() {
        let req = parse("GET /v1/jobs/1/events?follow=1 HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.path, "/v1/jobs/1/events");
        assert_eq!(req.query, "follow=1");

        let req = parse("GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.query, "");
    }

    #[test]
    fn malformed_inputs_map_to_4xx() {
        for (raw, status) in [
            ("nonsense\r\n\r\n", 400),
            ("GET\r\n\r\n", 400),
            ("GET /x SPDY/3\r\n\r\n", 505),
            ("GET /x HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nContent-Length: pony\r\n\r\n", 400),
            ("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 411),
            ("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n", 413),
            ("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort", 400),
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status, status, "{raw:?}: {}", e.message);
        }
    }

    #[test]
    fn chunked_writer_round_trips() {
        let mut w = ChunkedWriter::new(Vec::new());
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        let encoded = w.finish().unwrap();
        assert_eq!(encoded, b"6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n");
        assert_eq!(decode_chunked(&encoded).unwrap(), b"hello world");
    }

    #[test]
    fn chunked_writer_poisons_after_first_error() {
        #[derive(Debug)]
        struct Stalled {
            attempts: usize,
        }
        impl Write for Stalled {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.attempts += 1;
                Err(io::Error::new(io::ErrorKind::TimedOut, "stalled client"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut stream = Stalled { attempts: 0 };
        let mut w = ChunkedWriter::new(&mut stream);
        assert_eq!(w.write_all(b"x").unwrap_err().kind(), io::ErrorKind::TimedOut);
        // Every later operation fails without touching the stream again —
        // a stalled client costs one write timeout, not one per chunk.
        assert_eq!(w.write_all(b"y").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.flush().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(w.finish().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(stream.attempts, 1);
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "application/json", b"{}", &[("Retry-After", "1")]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
