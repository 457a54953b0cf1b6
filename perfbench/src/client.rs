//! A minimal HTTP/1.1 client for the daemon: one request per connection,
//! which is how `bas serve` serves (it closes each connection after its
//! response).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response, with the body de-chunked.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body (chunked transfer encoding already removed).
    pub body: Vec<u8>,
    /// Time `TcpStream::connect` took, microseconds.
    pub connect_us: f64,
}

impl Response {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send `method path` with `body` to `addr` and read the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<Response, String> {
    let started = Instant::now();
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect {method} {path}: {e}"))?;
    let connect_us = started.elapsed().as_secs_f64() * 1e6;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("send {method} {path}: {e}"))?;
    stream.write_all(body).map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read {method} {path}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response has no header end"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let payload = &raw[split + 4..];
    let chunked = head.lines().any(|l| {
        let l = l.to_ascii_lowercase();
        l.starts_with("transfer-encoding:") && l.contains("chunked")
    });
    let body = if chunked {
        bas_serve::http::decode_chunked(payload).map_err(|e| format!("{method} {path}: {e}"))?
    } else {
        payload.to_vec()
    };
    Ok(Response { status, body, connect_us })
}

/// The value of a top-level `"key": value` field in a flat JSON object the
/// daemon wrote (numbers and strings; strings are returned unquoted).
pub fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let at = text.find(&needle)? + needle.len();
    let rest = &text[at..];
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.split('"').next();
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}
