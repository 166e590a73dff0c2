//! A deliberately small HTTP/1.1 subset over `std::net` — just enough for
//! the daemon's JSON API. No keep-alive, no chunked encoding, no TLS:
//! one request per connection, `Content-Length` bodies only, bounded
//! header and body sizes so a misbehaving client cannot exhaust memory.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Reject request heads larger than this.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Reject request bodies larger than this.
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed request: method, path (query string stripped), body bytes.
#[derive(Debug)]
pub struct Request {
    /// Uppercase HTTP method.
    pub method: String,
    /// Request path without any query string.
    pub path: String,
    /// Raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed; each maps to a 4xx response.
#[derive(Debug)]
pub enum ParseError {
    /// Socket-level failure (including read timeout).
    Io(std::io::Error),
    /// The request line or headers were malformed.
    Malformed(&'static str),
    /// The head or the declared body exceeded its size bound.
    TooLarge(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "request I/O error: {e}"),
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Reads and parses one request from the stream.
///
/// The head is read in chunks of up to 1 KiB until `\r\n\r\n`; body bytes
/// that arrive with it are kept, and only the rest of the body is read
/// after it.
///
/// # Errors
///
/// [`ParseError::Io`] on socket failure, timeout or a truncated body,
/// `Malformed` on a broken request line, a non-UTF-8 head or a duplicate
/// or non-numeric `Content-Length`, and `TooLarge` when a bound is
/// exceeded.
pub fn read_request(stream: &mut impl Read) -> Result<Request, ParseError> {
    let mut buf = Vec::with_capacity(1024);
    let mut scanned = 0;
    let head_len = loop {
        if let Some(at) = buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
            break scanned + at + 4;
        }
        // The terminator may straddle this read and the next.
        scanned = buf.len().saturating_sub(3);
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge("request head"));
        }
        let filled = buf.len();
        buf.resize((filled + 1024).min(MAX_HEAD_BYTES), 0);
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(ParseError::Malformed("connection closed mid-head")),
            Ok(n) => buf.truncate(filled + n),
            Err(e) => return Err(ParseError::Io(e)),
        }
    };
    let head_text = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| ParseError::Malformed("request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ParseError::Malformed("missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_owned();

    let mut content_length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
                if !digits || content_length.is_some() {
                    return Err(ParseError::Malformed("bad or duplicate content-length"));
                }
                // All digits, so a failed parse is an overflow.
                content_length = Some(value.parse().unwrap_or(usize::MAX));
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge("request body"));
    }
    let mut body = buf.split_off(head_len);
    body.truncate(content_length);
    let arrived = body.len();
    body.resize(content_length, 0);
    stream
        .read_exact(&mut body[arrived..])
        .map_err(ParseError::Io)?;
    Ok(Request { method, path, body })
}

/// Writes a complete response (status line, minimal headers, body) and
/// flushes the stream.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", body.as_bytes())
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut &raw[..])
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let req =
            parse(b"POST /jobs?priority=high HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs", "query string is stripped");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(ParseError::Malformed(_))));
        let huge = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::TooLarge(_))
        ));
    }
}
