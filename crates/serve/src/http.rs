//! A minimal std-only HTTP/1.1 layer: exactly what the JSON endpoints
//! need — request line, headers, `Content-Length` bodies, keep-alive —
//! and nothing more. Malformed input surfaces as
//! [`DcError`] so the server can answer with a structured 4xx instead
//! of dying.

use dc_core::{DcError, DcResult};
use std::io::{self, BufRead, Read, Write};

/// Largest accepted request line + header block.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// Body as UTF-8, or a 4xx-shaped error.
    pub fn body_str(&self) -> DcResult<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| DcError::invalid("request body is not valid UTF-8"))
    }
}

/// Read one request off a buffered connection; `line` is scratch for the
/// request and header lines, reused across a connection's requests.
/// `Ok(None)` means the client closed cleanly before sending anything
/// (normal keep-alive teardown); errors are protocol violations the
/// caller should answer with `e.http_status()` and then close.
pub fn read_request(
    stream: &mut impl BufRead,
    line: &mut Vec<u8>,
    max_body: usize,
) -> DcResult<Option<Request>> {
    let request_line = match read_line(stream, line) {
        Ok(None) => return Ok(None),
        Ok(Some(l)) => l,
        Err(e) => return Err(DcError::invalid(format!("request line: {e}"))),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| DcError::invalid("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| DcError::invalid("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| DcError::invalid("request line has no HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(DcError::invalid(format!("unsupported version {version}")));
    }
    let path = target.split('?').next().unwrap_or("").to_string();

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    let mut head_bytes = request_line.len();
    loop {
        let header =
            read_line(stream, line).map_err(|e| DcError::invalid(format!("header line: {e}")))?;
        // A blank line ends the head; so does EOF at a line boundary.
        let Some(header) = header.filter(|h| !h.is_empty()) else {
            break;
        };
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(DcError::limit("request headers exceed 8 KiB"));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(DcError::invalid(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| DcError::invalid(format!("bad content-length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > max_body {
        return Err(DcError::limit(format!(
            "request body of {content_length} bytes exceeds the {max_body}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| DcError::invalid(format!("truncated body: {e}")))?;
    Ok(Some(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Read one `\n`-terminated line of at most [`MAX_HEAD_BYTES`] bytes
/// into `line`, replacing its contents, and return it as text with the
/// `\n` or `\r\n` stripped. `None` means EOF before any byte.
fn read_line<'a>(stream: &mut impl BufRead, line: &'a mut Vec<u8>) -> io::Result<Option<&'a str>> {
    let invalid = |msg| io::Error::new(io::ErrorKind::InvalidData, msg);
    line.clear();
    // One byte past the limit is enough to tell "too long" from "fits".
    stream
        .take(MAX_HEAD_BYTES as u64 + 1)
        .read_until(b'\n', line)?;
    if line.len() > MAX_HEAD_BYTES {
        return Err(invalid("line too long"));
    }
    if line.pop() != Some(b'\n') {
        return if line.is_empty() {
            Ok(None)
        } else {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-line"))
        };
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    std::str::from_utf8(line)
        .map(Some)
        .map_err(|_| invalid("non-UTF-8 header"))
}

/// Frame one JSON response (status line, minimal headers, body) into
/// `buf`, replacing its contents; the caller hands `buf` to the socket in
/// one `write_all`, so a response never leaves as several small segments.
pub fn frame_response(buf: &mut Vec<u8>, status: u16, body: &str, keep_alive: bool) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        // No `DcError::http_status` lands here.
        _ => "Unknown",
    };
    let conn = if keep_alive { "keep-alive" } else { "close" };
    buf.clear();
    buf.write_fmt(format_args!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
        body.len()
    ))
    .expect("writing to a Vec<u8> cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str, max_body: usize) -> DcResult<Option<Request>> {
        parse_bytes(raw.as_bytes(), max_body)
    }

    fn parse_bytes(raw: &[u8], max_body: usize) -> DcResult<Option<Request>> {
        read_request(&mut BufReader::new(raw), &mut Vec::new(), max_body)
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let req = parse(
            "POST /v1/t/acme/match?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/t/acme/match");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        let closing = parse("GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n", 1024)
            .unwrap()
            .unwrap();
        assert!(!closing.keep_alive);
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        assert!(parse("", 10).unwrap().is_none(), "clean EOF");
        assert_eq!(
            parse("GARBAGE\r\n\r\n", 10).unwrap_err().kind(),
            "invalid_input"
        );
        assert_eq!(
            parse("GET / SMTP/1.0\r\n\r\n", 10).unwrap_err().kind(),
            "invalid_input"
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", 1024)
                .unwrap_err()
                .kind(),
            "invalid_input"
        );
        assert_eq!(
            parse(
                "POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
                10
            )
            .unwrap_err()
            .kind(),
            "limit"
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 10)
                .unwrap_err()
                .kind(),
            "invalid_input"
        );
    }

    #[test]
    fn response_is_well_formed() {
        let mut buf = b"stale bytes from the previous response".to_vec();
        frame_response(&mut buf, 404, "{\"e\":1}", false);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 7\r\nConnection: close\r\n\r\n{\"e\":1}"
        );
    }

    #[test]
    fn bare_newline_line_endings_parse() {
        let req = parse("POST /x HTTP/1.1\nContent-Length: 2\n\nhi", 16)
            .unwrap()
            .unwrap();
        assert_eq!((req.path.as_str(), req.body.as_slice()), ("/x", &b"hi"[..]));
    }

    #[test]
    fn header_line_at_and_over_the_head_limit() {
        // A raw header line (terminator included) of exactly the limit is
        // read, then refused by the whole-head budget; one byte more is
        // refused by the line reader.
        let header = |raw_len: usize| {
            let value = "v".repeat(raw_len - "X: \r\n".len());
            format!("GET / HTTP/1.1\r\nX: {value}\r\n\r\n")
        };
        let e = parse(&header(MAX_HEAD_BYTES), 0).unwrap_err();
        assert_eq!(
            (e.kind(), e.message()),
            ("limit", "request headers exceed 8 KiB")
        );
        let e = parse(&header(MAX_HEAD_BYTES + 1), 0).unwrap_err();
        assert_eq!(
            (e.kind(), e.message()),
            ("invalid_input", "header line: line too long")
        );
        // The largest head that fits: request line + header == the limit.
        let fits = MAX_HEAD_BYTES - "GET / HTTP/1.1".len() + "\r\n".len();
        assert!(parse(&header(fits), 0).unwrap().is_some());
        assert_eq!(parse(&header(fits + 1), 0).unwrap_err().kind(), "limit");
    }

    #[test]
    fn eof_mid_line_and_non_utf8_are_distinct_errors() {
        let e = parse("GET / HTTP/1.1\r\nHost: h", 0).unwrap_err();
        assert_eq!(
            (e.kind(), e.message()),
            ("invalid_input", "header line: EOF mid-line")
        );
        let e = parse("GET / HT", 0).unwrap_err();
        assert_eq!(e.message(), "request line: EOF mid-line");
        let e = parse_bytes(b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n", 0).unwrap_err();
        assert_eq!(
            (e.kind(), e.message()),
            ("invalid_input", "header line: non-UTF-8 header")
        );
    }

    #[test]
    fn back_to_back_requests_parse_from_where_the_body_ended() {
        let raw = "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n";
        let mut stream = BufReader::new(raw.as_bytes());
        let mut line = Vec::new();
        let first = read_request(&mut stream, &mut line, 16).unwrap().unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"abc"[..])
        );
        let second = read_request(&mut stream, &mut line, 16).unwrap().unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/b")
        );
        assert!(second.body.is_empty());
        assert!(read_request(&mut stream, &mut line, 16).unwrap().is_none());
    }
}
