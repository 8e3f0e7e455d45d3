//! Hand-rolled minimal HTTP/1.1, server side: just enough of RFC 9112 for
//! the JSON API — request-line + headers + `Content-Length` bodies, no
//! chunked transfer, no keep-alive (every response closes the connection).
//! Staying std-only is a workspace ground rule; the subset here is what the
//! CLI client and `curl` both speak.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted header block.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body (verify jobs carry hex-encoded bundles).
pub(crate) const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path component only; any query string is stripped.
    pub path: String,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed; maps to a 4xx.
#[derive(Debug)]
pub(crate) enum ParseError {
    /// The connection closed or failed before a full request arrived.
    ConnectionClosed,
    /// Malformed request line or headers.
    Bad(String),
    /// Body longer than [`MAX_BODY_BYTES`].
    TooLarge,
}

/// Reads one request from `input` (the gateway passes its `TcpStream`).
pub(crate) fn read_request(input: impl Read) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(input);
    let mut head = Vec::new();
    // Read the header block up to the blank line. Each read is capped at
    // what is left of the limit, so a line without `\n` cannot outgrow it.
    loop {
        let mut line = Vec::new();
        let room = (MAX_HEADER_BYTES + 1 - head.len()) as u64;
        (&mut reader)
            .take(room)
            .read_until(b'\n', &mut line)
            .map_err(|_| ParseError::ConnectionClosed)?;
        if line.is_empty() {
            return Err(ParseError::ConnectionClosed);
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEADER_BYTES {
            return Err(ParseError::Bad("header block too large".into()));
        }
        if line == b"\r\n" || line == b"\n" {
            break;
        }
    }
    let head = String::from_utf8(head).map_err(|_| ParseError::Bad("non-utf8 headers".into()))?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(ParseError::ConnectionClosed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("missing request target".into()))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    // Only `Content-Length` is read (the first one wins); every header line
    // must still be `name: value`.
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::Bad(format!("bad header line '{line}'")))?;
        if content_length.is_none() && name.trim().eq_ignore_ascii_case("content-length") {
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad("bad content-length".into()))?;
            content_length = Some(n);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| ParseError::ConnectionClosed)?;
    Ok(Request { method, path, body })
}

/// The reason phrase for the handful of status codes the API uses.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete JSON response and flushes. `extra` headers are emitted
/// verbatim (used for `Retry-After`).
pub(crate) fn write_json_response(
    stream: &mut TcpStream,
    status: u16,
    extra: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra {
        out.push_str(k);
        out.push_str(": ");
        out.push_str(v);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    stream.write_all(out.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Parses a byte string (a literal is an array, not a `Read`).
    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(raw)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /v1/jobs?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(
            parse(b"GET /x SPDY/3\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: x\r\n\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(
                format!(
                    "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes()
            ),
            Err(ParseError::TooLarge)
        ));
        // A body shorter than its Content-Length, and a header block that
        // never ends, are both a closed connection.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"),
            Err(ParseError::ConnectionClosed)
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost: h\r\n"),
            Err(ParseError::ConnectionClosed)
        ));
        // A header line without `\n` stops at the header limit.
        let mut long = b"GET /x HTTP/1.1\r\nx: ".to_vec();
        long.resize(2 * MAX_HEADER_BYTES, b'a');
        assert!(matches!(parse(&long), Err(ParseError::Bad(_))));
    }

    /// A string of `len` characters drawn from `alphabet`.
    fn word(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec(0..alphabet.len(), len)
            .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i] as char).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Request bytes come straight from the network: no input panics
        /// the parser.
        #[test]
        fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse(&raw);
        }

        /// A well-formed request parses back to its method, path and body,
        /// whatever other headers and query string ride along.
        #[test]
        fn well_formed_requests_round_trip(
            method in word(b"GETPOSDLU", 1..8),
            path in word(b"abcxyz019-_./", 0..24),
            query in word(b"abc=&019", 0..12),
            extra in prop::collection::vec(
                (word(b"abcxyz-", 1..10), word(b"abc xyz019;=,", 0..16)),
                0..4,
            ),
            body in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut raw = format!("{method} /{path}?{query} HTTP/1.1\r\n");
            for (name, value) in &extra {
                raw.push_str(&format!("x-{name}: {value}\r\n"));
            }
            raw.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut raw = raw.into_bytes();
            raw.extend_from_slice(&body);
            let req = parse(&raw).map_err(|e| TestCaseError::Fail(format!("{e:?}")))?;
            prop_assert_eq!(req.method, method.to_ascii_uppercase());
            prop_assert_eq!(req.path, format!("/{path}"));
            prop_assert_eq!(req.body, body);
        }
    }
}
