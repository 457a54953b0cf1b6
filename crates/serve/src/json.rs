//! JSON scenario submissions.
//!
//! `POST /v1/jobs` accepts scenarios either as TOML (the on-disk format) or
//! as JSON. Rather than grow a second deserializer inside `bas-core`, a JSON
//! body is parsed by the workspace's one JSON parser
//! ([`bas_workload::json`]) and *re-rendered as canonical TOML*, then handed to
//! [`Scenario::from_toml`](bas_core::Scenario::from_toml) like any other
//! submission. Both formats therefore share one validation path and one
//! content digest: `{"kind": "sweep", "trials": 2}` and
//! `kind = "sweep"\ntrials = 2` land on the same cache entry.
//!
//! The accepted shape mirrors the TOML subset: one top-level object of
//! scalars/arrays, plus at most one level of nested objects (e.g.
//! `"platform": {"pes": 4}`), which map onto `[table]` sections.

use bas_core::toml::Value;
use bas_workload::json::{parse, Json};

/// Convert a JSON scenario document into equivalent TOML text, ready for
/// `Scenario::from_toml`. Errors are human-readable and surface in the
/// daemon's 400 responses.
pub fn scenario_toml_from_json(input: &str) -> Result<String, String> {
    let Json::Object(entries) = parse(input)? else {
        return Err("a scenario submission must be a JSON object".to_string());
    };
    let mut flat = String::new();
    let mut sections = String::new();
    for (key, value) in entries {
        check_key(&key)?;
        match value {
            Json::Object(sub) => {
                sections.push_str(&format!("\n[{key}]\n"));
                for (sub_key, sub_value) in sub {
                    check_key(&sub_key)?;
                    let rendered = toml_value(&sub_value)
                        .map_err(|e| format!("key `{key}.{sub_key}`: {e}"))?;
                    sections.push_str(&format!("{sub_key} = {}\n", rendered.render()));
                }
            }
            value => {
                let rendered = toml_value(&value).map_err(|e| format!("key `{key}`: {e}"))?;
                flat.push_str(&format!("{key} = {}\n", rendered.render()));
            }
        }
    }
    Ok(format!("{flat}{sections}"))
}

/// Keys become TOML bare keys verbatim, so they must be bare-key-safe —
/// otherwise a key could smuggle extra `key = value` lines into the
/// rendered document.
fn check_key(key: &str) -> Result<(), String> {
    let bare =
        !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        Ok(())
    } else {
        Err(format!("invalid key {key:?} (bare keys only: [A-Za-z0-9_-]+)"))
    }
}

/// Map a scalar/array JSON value onto the TOML value model.
fn toml_value(value: &Json) -> Result<Value, String> {
    match value {
        Json::Null => Err("null has no TOML equivalent; omit the key instead".to_string()),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(x) => Ok(Value::Float(*x)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Array(items) => {
            let rendered: Result<Vec<Value>, String> = items
                .iter()
                .map(|item| match item {
                    Json::Array(_) | Json::Object(_) => {
                        Err("arrays must contain only scalars".to_string())
                    }
                    item => toml_value(item),
                })
                .collect();
            Ok(Value::Array(rendered?))
        }
        Json::Object(_) => Err("objects nest at most one level deep".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_core::Scenario;

    #[test]
    fn json_and_toml_submissions_share_a_digest() {
        let toml_sc = Scenario::from_toml(
            "kind = \"sweep\"\ntrials = 2\nhorizon = 200.0\nspecs = [\"EDF\", \"BAS-2\"]\n\n[platform]\npes = 2\n",
        )
        .unwrap();
        // Same knobs, different key order, ints where TOML had floats.
        let json = r#"{
            "specs": ["EDF", "BAS-2"],
            "platform": {"pes": 2},
            "kind": "sweep",
            "horizon": 200.0,
            "trials": 2
        }"#;
        let json_sc = Scenario::from_toml(&scenario_toml_from_json(json).unwrap()).unwrap();
        assert_eq!(json_sc, toml_sc);
        assert_eq!(json_sc.digest(), toml_sc.digest());
    }

    #[test]
    fn scalar_values_map_faithfully() {
        let toml = scenario_toml_from_json(
            r#"{"s": "hi \"there\"\n", "i": -42, "x": 2.5, "b": true, "a": [1, 2]}"#,
        )
        .unwrap();
        let doc = bas_core::toml::parse(&toml).unwrap();
        assert_eq!(doc["s"].as_str().unwrap(), "hi \"there\"\n");
        assert_eq!(doc["i"].as_int().unwrap(), -42);
        assert_eq!(doc["x"].as_float().unwrap(), 2.5);
        assert!(doc["b"].as_bool().unwrap());
        assert_eq!(
            doc["a"],
            bas_core::toml::Value::Array(vec![
                bas_core::toml::Value::Int(1),
                bas_core::toml::Value::Int(2),
            ])
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let toml = scenario_toml_from_json(r#"{"name": "café 😀"}"#).unwrap();
        let doc = bas_core::toml::parse(&toml).unwrap();
        assert_eq!(doc["name"].as_str().unwrap(), "café 😀");
    }

    #[test]
    fn bad_documents_are_rejected_with_reasons() {
        for (input, needle) in [
            ("", "unexpected end"),
            ("[1, 2]", "must be a JSON object"),
            ("{\"a\": 1} junk", "trailing garbage"),
            ("{\"a\": }", "unexpected"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": null}", "null"),
            ("{\"a\": [[1]]}", "only scalars"),
            ("{\"a\": {\"b\": {\"c\": 1}}}", "one level"),
            ("{\"a\": \"\\ud800 lonely\"}", "surrogate"),
            ("{\"a\": 1e}", "bad number"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a b\": 1}", "bare keys only"),
            ("{\"x\\ny = 1\\nz\": 1}", "bare keys only"),
        ] {
            let e = scenario_toml_from_json(input).unwrap_err();
            assert!(e.contains(needle), "{input:?} -> {e}");
        }
    }
}
