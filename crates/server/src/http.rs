//! A deliberately small HTTP/1.1 layer: parse one request off a byte
//! stream (request line, headers, fixed-length body) and serialize one
//! response into a single write, with hard limits on head and body size.
//!
//! Connections are persistent. [`read_request`] takes the connection's
//! carry buffer — bytes already pulled off the socket past the previous
//! request — and leaves in it whatever it read past this one, so
//! pipelined requests are answered in order. A request asks for the
//! connection to end with `Connection: close` or by speaking HTTP/1.0
//! ([`Request::close`]); the caller decides the response's `Connection`
//! header and passes it to [`write_response`]. Request bodies are framed
//! by `Content-Length` only: `Transfer-Encoding` is refused, because
//! bytes this layer cannot frame would be parsed as the next request.

use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Maximum bytes accepted for the request line plus headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum bytes accepted for a request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub(crate) method: String,
    /// Request path with the query string stripped (e.g. `/healthz`).
    pub(crate) path: String,
    /// Decoded query parameters, in order of appearance.
    query: Vec<(String, String)>,
    /// Headers with lowercased names, in order of appearance.
    headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub(crate) body: String,
    /// The client wants the connection closed after this response: it
    /// sent `Connection: close` or speaks HTTP/1.0.
    pub(crate) close: bool,
}

impl Request {
    /// The first header with the given lowercase name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter with the given name.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed, mapped to the status the server
/// answers with before closing the connection.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The request violates the grammar or a size limit; respond with
    /// the carried status (400, 413 or 431) and this message. The
    /// stream is no longer framed, so the connection must close.
    Bad {
        /// Response status code.
        status: u16,
        /// Human-readable reason.
        message: String,
    },
    /// The socket failed or the peer vanished mid-request; nothing can
    /// be written back.
    Io,
}

impl HttpError {
    fn bad(status: u16, message: impl Into<String>) -> Self {
        HttpError::Bad {
            status,
            message: message.into(),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(_: io::Error) -> Self {
        HttpError::Io
    }
}

/// Reads and parses one request from `stream`. `carry` holds bytes read
/// past the previous request on this connection and receives whatever
/// is read past this one; after an error its content is unspecified (the
/// connection closes).
pub(crate) fn read_request(
    stream: &mut impl Read,
    carry: &mut Vec<u8>,
) -> Result<Request, HttpError> {
    let mut buf = std::mem::take(carry);
    let head_end = read_head(stream, &mut buf)?;
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::bad(400, "request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::bad(400, "malformed request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(
            400,
            format!("unsupported version {version}"),
        ));
    }
    let method = method.to_ascii_uppercase();
    let mut close = version == "HTTP/1.0";
    let mut content_length = 0;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad(400, format!("malformed header `{line}`")));
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| HttpError::bad(400, "invalid Content-Length"))?;
            }
            "transfer-encoding" => {
                return Err(HttpError::bad(
                    400,
                    "Transfer-Encoding is not supported; send Content-Length",
                ));
            }
            "connection" => {
                close |= value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"));
            }
            _ => {}
        }
        headers.push((name, value.to_string()));
    }
    let (path, query) = split_target(target);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::bad(
            413,
            format!("body exceeds {MAX_BODY_BYTES} bytes"),
        ));
    }

    let body_start = head_end + 4;
    let body_end = body_start + content_length;
    let mut chunk = [0u8; 4096];
    while buf.len() < body_end {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::bad(400, "body shorter than Content-Length"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    *carry = buf.split_off(body_end);
    buf.drain(..body_start);
    let body = String::from_utf8(buf)
        .map_err(|_| HttpError::bad(400, "request body is not valid UTF-8"))?;

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
        close,
    })
}

/// Fills `buf` from `stream` until it holds a complete header block;
/// returns the offset of the blank line (`\r\n\r\n`) that ends it.
fn read_head(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<usize, HttpError> {
    let too_large = || HttpError::bad(431, format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = find_head_end(buf, scanned) {
            return if end > MAX_HEAD_BYTES {
                Err(too_large())
            } else {
                Ok(end)
            };
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(too_large());
        }
        // A terminator can straddle two reads by at most three bytes.
        scanned = buf.len().saturating_sub(3);
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            // The peer left before a full request arrived.
            return Err(HttpError::Io);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Offset of the first `\r\n\r\n` that starts at or after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| from + at)
}

/// Splits a request target into path and parsed query parameters.
/// Parameters are split on `&`/`=` without percent-decoding — the API's
/// parameter values (`format=json|csv`) never need escaping.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (p.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

/// The reason phrase for the statuses this server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        406 => "Not Acceptable",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        507 => "Insufficient Storage",
        _ => "Unknown",
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    /// HTTP status code.
    pub(crate) status: u16,
    /// `Content-Type` of the body.
    content_type: &'static str,
    /// Extra response headers (e.g. the trace-id echo), written after
    /// the fixed head.
    headers: Vec<(&'static str, String)>,
    /// Response body.
    body: String,
}

impl Response {
    /// A 200 response with the given content type.
    pub(crate) fn ok(content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON response with an explicit status.
    pub(crate) fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a response header (builder style). The value must not
    /// contain CR/LF — callers pass only values they produced.
    pub(crate) fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// Serializes `response` onto the stream as one write — head and body
/// in one buffer, so `TCP_NODELAY` sends one segment rather than two.
/// `close` picks the `Connection` header; the caller closes the
/// connection after a `close` response or a failed write.
pub(crate) fn write_response(
    stream: &mut impl Write,
    response: &Response,
    close: bool,
) -> io::Result<()> {
    let mut out = String::with_capacity(256 + response.body.len());
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in &response.headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&response.body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes at most `step` at a time, then reports EOF.
    struct ShortReader<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for ShortReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Parses `raw` as the only bytes a connection ever carries.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut raw.as_bytes(), &mut Vec::new())
    }

    fn expect_bad(raw: &str, want: u16) -> String {
        match parse(raw) {
            Err(HttpError::Bad { status, message }) if status == want => message,
            other => panic!("expected {want}, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse(
            "GET /v1/sales/stats?format=json&verbose HTTP/1.1\r\n\
             Host: localhost\r\nAccept: text/csv\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/sales/stats");
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("verbose"), Some(""));
        assert_eq!(req.header("accept"), Some("text/csv"));
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(req.body.is_empty());
        assert!(!req.close, "HTTP/1.1 is persistent by default");
    }

    #[test]
    fn parses_post_with_body() {
        let body = r#"{"keywords": "columbus"}"#;
        let req = parse(&format!(
            "POST /v1/sales/explore HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ))
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body);
    }

    #[test]
    fn pipelined_requests_parse_in_order_under_short_reads() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /b HTTP/1.1\r\n\r\n\
                     POST /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nok";
        // Steps 1 and 3 split every `\r\n\r\n` across reads; 4096 hands
        // all three requests over at once, so two travel in the carry.
        for step in [1, 3, 7, 4096] {
            let mut reader = ShortReader { data: wire, step };
            let mut carry = Vec::new();
            let got: Vec<(String, String)> = (0..3)
                .map(|_| {
                    let req = read_request(&mut reader, &mut carry).unwrap();
                    (req.path, req.body)
                })
                .collect();
            let want = [("/a", "hello"), ("/b", ""), ("/c", "ok")]
                .map(|(p, b)| (p.to_string(), b.to_string()));
            assert_eq!(got, want, "step {step}");
            assert!(carry.is_empty(), "step {step}");
            assert!(
                matches!(read_request(&mut reader, &mut carry), Err(HttpError::Io)),
                "step {step}: EOF between requests is not a request"
            );
        }
    }

    #[test]
    fn connection_close_and_http_1_0_ask_for_a_close() {
        for (raw, want) in [
            ("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nconnection: TE, Close\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n", false),
            ("GET / HTTP/1.0\r\n\r\n", true),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ] {
            assert_eq!(parse(raw).unwrap().close, want, "{raw}");
        }
    }

    #[test]
    fn rejects_garbage_and_truncated_requests() {
        expect_bad("NONSENSE\r\n\r\n", 400);
        let message = expect_bad("POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort", 400);
        assert!(message.contains("Content-Length"), "{message}");
        expect_bad("GET / SPDY/99\r\n\r\n", 400);
        // A body this layer cannot frame would be read as the next request.
        let message = expect_bad(
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            400,
        );
        assert!(message.contains("Transfer-Encoding"), "{message}");
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nHost: cut"),
            Err(HttpError::Io)
        ));
    }

    #[test]
    fn rejects_oversized_heads_and_bodies() {
        expect_bad(
            &format!(
                "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "x".repeat(MAX_HEAD_BYTES)
            ),
            431,
        );
        // No terminator at all: refused once the limit is passed, not
        // buffered until the peer stops sending.
        expect_bad(&"x".repeat(2 * MAX_HEAD_BYTES), 431);
        expect_bad(
            &format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            ),
            413,
        );
    }

    /// Records each `write` call it receives.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_one_write_with_length_and_connection_header() {
        let response =
            Response::json(404, "{\"error\": {}}").with_header("x-kdap-trace-id", "deadbeef");
        let mut log = WriteLog::default();
        write_response(&mut log, &response, true).unwrap();
        assert_eq!(log.0.len(), 1, "head and body leave in one write");
        let raw = String::from_utf8(log.0.remove(0)).unwrap();
        assert_eq!(
            raw,
            "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
             Content-Length: 13\r\nConnection: close\r\nx-kdap-trace-id: deadbeef\r\n\r\n\
             {\"error\": {}}"
        );

        let mut log = WriteLog::default();
        write_response(&mut log, &response, false).unwrap();
        let kept = String::from_utf8(log.0.remove(0)).unwrap();
        assert_eq!(
            kept,
            raw.replace("Connection: close", "Connection: keep-alive")
        );
    }
}
