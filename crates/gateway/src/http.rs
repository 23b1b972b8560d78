//! A hand-rolled, std-only HTTP/1.1 message layer: bounded request parsing
//! straight from a connection's read buffer, and response rendering to the
//! bytes the reactor queues.
//!
//! The parser is deliberately small — exactly the subset the gateway's JSON
//! API needs — but strict about resource bounds: the request line, each
//! header line, the header count and the body length are all capped by
//! [`Limits`], and every malformed or oversized input maps to a typed
//! [`RequestError`] the server turns into a 4xx/5xx response — never a
//! panic, never unbounded buffering. [`parse_buffered`] reads one request
//! from the front of a byte buffer. A buffer that ends before the request
//! does is [`ParsedRequest::Incomplete`], not an error: the caller reads
//! more bytes and parses again, so a request split at any byte boundary
//! (slow clients, small MTUs) parses identically to one arriving whole, and
//! the `consumed` count of a complete request is where the next pipelined
//! one starts. The parser never sees the socket: a peer that closes with a
//! request half sent is the reactor's to handle.

use std::fmt;

/// Resource bounds applied while parsing one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line, in bytes.
    pub max_request_line: usize,
    /// Longest accepted single header line, in bytes.
    pub max_header_line: usize,
    /// Most headers accepted per request.
    pub max_headers: usize,
    /// Largest accepted body, in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// The target path, up to but excluding any `?`.
    pub path: String,
    /// Decoded `k=v` query pairs in target order (no percent-decoding — the
    /// gateway's API uses none).
    pub query: Vec<(String, String)>,
    /// Lower-cased header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client may reuse the connection (HTTP/1.1 default, or an
    /// explicit `Connection: keep-alive`; `Connection: close` wins).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lower-cased) header, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Every variant maps to an HTTP status
/// via [`RequestError::status`].
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically invalid request (bad request line, header or body
    /// framing) → 400.
    Malformed(String),
    /// Request line or a header line exceeded its byte bound, or too many
    /// headers → 431.
    HeadersTooLarge,
    /// Declared `Content-Length` beyond [`Limits::max_body`] → 413.
    BodyTooLarge {
        /// The configured bound the declaration exceeded.
        limit: usize,
    },
    /// A feature this parser deliberately does not speak (chunked transfer
    /// encoding, unknown HTTP version) → 501.
    Unsupported(String),
}

impl RequestError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::Malformed(_) => 400,
            RequestError::HeadersTooLarge => 431,
            RequestError::BodyTooLarge { .. } => 413,
            RequestError::Unsupported(_) => 501,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            RequestError::HeadersTooLarge => f.write_str("request head exceeds configured bounds"),
            RequestError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte bound")
            }
            RequestError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Outcome of [`parse_buffered`]: either one complete request (and how many
/// buffer bytes it consumed), or a signal that the buffer ends before the
/// request does and more bytes must arrive first.
#[derive(Debug)]
pub enum ParsedRequest {
    /// A complete request parsed from the front of the buffer. `consumed`
    /// bytes belong to it; the caller drains them and may parse again
    /// (pipelining).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer the request occupied.
        consumed: usize,
    },
    /// The buffer holds only a request prefix. Not an error: read more
    /// bytes and retry. (An actual peer close with a non-empty buffer is
    /// the caller's torn-request case — the parser cannot see the socket.)
    Incomplete,
}

/// The `\n`-terminated line of `buf` starting at `*pos`, without the
/// terminator and an optional preceding `\r`; moves `*pos` past the
/// terminator. `Ok(None)` means the buffer ends before the line does.
///
/// A line whose bytes so far exceed `limit + 2` is refused whether or not
/// its `\n` has arrived (the +2 lets a limit-sized line carry its `\r\n`),
/// so the scan never looks further than that; a terminated line longer
/// than `limit` once stripped is refused too.
fn next_line<'b>(
    buf: &'b [u8],
    pos: &mut usize,
    limit: usize,
) -> Result<Option<&'b [u8]>, RequestError> {
    let rest = &buf[*pos..];
    let window = &rest[..rest.len().min(limit.saturating_add(2))];
    let Some(newline) = window.iter().position(|&b| b == b'\n') else {
        return if rest.len() > window.len() {
            Err(RequestError::HeadersTooLarge)
        } else {
            Ok(None)
        };
    };
    *pos += newline + 1;
    let line = &rest[..newline];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    if line.len() > limit {
        return Err(RequestError::HeadersTooLarge);
    }
    Ok(Some(line))
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// An event-driven server accumulates socket bytes into a buffer, calls
/// this on every readable event, and on [`ParsedRequest::Incomplete`]
/// simply waits for more bytes. Re-parsing from the buffer start is
/// O(head), request heads are bounded by [`Limits`], and a body is copied
/// only once all of it has arrived, so the worst-case total cost of a
/// trickled request stays bounded too. Every resource bound applies to the
/// buffered prefix, so an over-limit head or body declaration is refused
/// before the request ever completes.
pub fn parse_buffered(buf: &[u8], limits: &Limits) -> Result<ParsedRequest, RequestError> {
    let mut pos = 0;
    // Tolerate a little leading emptiness (RFC 9112 §2.2 asks servers to
    // ignore at least one stray CRLF between pipelined requests).
    let mut request_line = None;
    for _ in 0..4 {
        match next_line(buf, &mut pos, limits.max_request_line)? {
            None => return Ok(ParsedRequest::Incomplete),
            Some([]) => continue,
            Some(line) => {
                request_line = Some(line);
                break;
            }
        }
    }
    let Some(line) = request_line else {
        return Err(RequestError::Malformed(
            "blank lines where a request line was expected".to_owned(),
        ));
    };
    let line = std::str::from_utf8(line)
        .map_err(|_| RequestError::Malformed("request line is not UTF-8".to_owned()))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "request line is not `METHOD TARGET VERSION`: {line:?}"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed(format!(
            "method is not an uppercase token: {method:?}"
        )));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other if other.starts_with("HTTP/") => {
            return Err(RequestError::Unsupported(format!("version {other}")))
        }
        other => {
            return Err(RequestError::Malformed(format!(
                "not an HTTP version: {other:?}"
            )))
        }
    };
    if !target.starts_with('/') {
        return Err(RequestError::Malformed(format!(
            "target must be origin-form: {target:?}"
        )));
    }
    let (path, query_text) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect();

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let Some(line) = next_line(buf, &mut pos, limits.max_header_line)? else {
            return Ok(ParsedRequest::Incomplete);
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(RequestError::HeadersTooLarge);
        }
        let line = std::str::from_utf8(line)
            .map_err(|_| RequestError::Malformed("header line is not UTF-8".to_owned()))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!(
                "header line without a colon: {line:?}"
            )));
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(RequestError::Malformed(format!(
                "invalid header name: {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut keep_alive = keep_alive_default;
    if let Some(connection) = header_value(&headers, "connection") {
        let tokens: Vec<String> = connection
            .split(',')
            .map(|t| t.trim().to_ascii_lowercase())
            .collect();
        if tokens.iter().any(|t| t == "close") {
            keep_alive = false;
        } else if tokens.iter().any(|t| t == "keep-alive") {
            keep_alive = true;
        }
    }

    if header_value(&headers, "transfer-encoding").is_some() {
        return Err(RequestError::Unsupported(
            "transfer-encoding (use Content-Length)".to_owned(),
        ));
    }
    // Repeated Content-Length headers are rejected outright (even when the
    // values agree): behind a fronting proxy, any disagreement over which
    // declaration frames the body is a request-smuggling desync vector
    // (RFC 9112 §6.3 requires refusing differing values; refusing
    // repetition entirely is the conservative superset).
    let mut content_lengths = headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    let declared_length = content_lengths.next();
    if content_lengths.next().is_some() {
        return Err(RequestError::Malformed(
            "repeated Content-Length headers".to_owned(),
        ));
    }
    let body = match declared_length {
        None => Vec::new(),
        Some(text) => {
            let declared: u64 = text.trim().parse().map_err(|_| {
                RequestError::Malformed(format!("invalid Content-Length: {text:?}"))
            })?;
            if declared > limits.max_body as u64 {
                return Err(RequestError::BodyTooLarge {
                    limit: limits.max_body,
                });
            }
            // `declared` fits in `usize`: it is at most `max_body`.
            let Some(body) = buf[pos..].get(..declared as usize) else {
                return Ok(ParsedRequest::Incomplete);
            };
            pos += body.len();
            body.to_vec()
        }
    };

    Ok(ParsedRequest::Complete {
        request: Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query,
            headers,
            body,
            keep_alive,
        },
        consumed: pos,
    })
}

fn header_value<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// One response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (JSON for the API; the Prometheus
    /// exposition of `/v1/metrics` negotiates plain text).
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// When set, a `Retry-After: <seconds>` header is emitted (quota and
    /// shed 429/503 responses tell clients when to come back).
    pub retry_after: Option<u64>,
    /// Additional response headers (name, value), emitted verbatim after
    /// the framing headers — the gateway uses this to echo `traceparent`
    /// so clients learn the trace id of each submit.
    pub headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
            headers: Vec::new(),
        }
    }

    /// A response with an explicit content type (e.g. the Prometheus text
    /// exposition, `text/plain; version=0.0.4`).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
            headers: Vec::new(),
        }
    }

    /// Attach a `Retry-After` hint (whole seconds, rounded up by callers).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Attach an arbitrary response header. The value must already be a
    /// valid header value (no CR/LF); the gateway only passes values it
    /// rendered itself.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// The reason phrase for the statuses this gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Serializes one response to the bytes that go on the wire (head and body
/// together, so a socket path can put it out in one write). The reactor
/// queues these bytes and drains them as the socket accepts them.
pub fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut message = String::with_capacity(response.body.len() + 128);
    message.push_str(&format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason_phrase(response.status)
    ));
    message.push_str(&format!("Content-Type: {}\r\n", response.content_type));
    message.push_str(&format!("Content-Length: {}\r\n", response.body.len()));
    if let Some(seconds) = response.retry_after {
        message.push_str(&format!("Retry-After: {seconds}\r\n"));
    }
    for (name, value) in &response.headers {
        message.push_str(&format!("{name}: {value}\r\n"));
    }
    if !keep_alive {
        message.push_str("Connection: close\r\n");
    }
    message.push_str("\r\n");
    message.push_str(&response.body);
    message.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Some` for a complete request, `None` for a buffer that ends first.
    fn parse(text: &str) -> Result<Option<Request>, RequestError> {
        parse_buffered(text.as_bytes(), &Limits::default()).map(|parsed| match parsed {
            ParsedRequest::Complete { request, .. } => Some(request),
            ParsedRequest::Incomplete => None,
        })
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_query_and_body() {
        let req = parse("POST /v1/jobs?wait=1&x=y HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query_param("wait"), Some("1"));
        assert_eq!(req.query_param("x"), Some("y"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    /// The parser cannot see a socket close: an empty buffer and a request
    /// cut inside its request line, its headers or its body all wait for
    /// more bytes.
    #[test]
    fn request_prefixes_are_incomplete() {
        for prefix in [
            "",
            "GET /x HT",
            "GET /x HTTP/1.1\r\nHost: y",
            "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc",
        ] {
            assert!(parse(prefix).unwrap().is_none(), "{prefix:?}");
        }
    }

    #[test]
    fn malformed_inputs_map_to_400_shaped_errors() {
        for bad in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x FTP/9\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: y\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status(), 400, "{bad:?} -> {err}");
        }
    }

    #[test]
    fn oversized_inputs_map_to_4xx() {
        let limits = Limits {
            max_request_line: 32,
            max_header_line: 32,
            max_headers: 2,
            max_body: 8,
        };
        let parse = |text: &str| parse_buffered(text.as_bytes(), &limits);
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64));
        assert_eq!(
            parse(&long_target).unwrap_err().status(),
            431,
            "oversized request line"
        );
        let long_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(64));
        assert_eq!(parse(&long_header).unwrap_err().status(), 431);
        assert_eq!(
            parse("GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n")
                .unwrap_err()
                .status(),
            431,
            "too many headers"
        );
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789")
                .unwrap_err()
                .status(),
            413,
            "oversized body is refused from the declaration alone"
        );
    }

    /// Repeated `Content-Length` headers — agreeing or not — are refused:
    /// ambiguity over which declaration frames the body is the classic
    /// request-smuggling desync behind a fronting proxy.
    #[test]
    fn repeated_content_length_headers_are_rejected() {
        for bad in [
            "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello",
            "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status(), 400, "{bad:?} -> {err}");
        }
    }

    #[test]
    fn chunked_transfer_encoding_is_unsupported() {
        let err = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse("GET /x HTTP/1.1\nHost: y\n\n").unwrap().unwrap();
        assert_eq!(req.path, "/x");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn responses_render_with_length_and_close_header() {
        let rendered = render_response(&Response::json(200, "{\"ok\":true}"), false);
        let text = String::from_utf8(rendered).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let rendered = render_response(&Response::json(202, "{}"), true);
        assert!(!String::from_utf8(rendered).unwrap().contains("Connection:"));
    }

    #[test]
    fn extra_headers_render_verbatim() {
        let rendered = render_response(
            &Response::json(202, "{}").with_header(
                "traceparent",
                "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
            ),
            true,
        );
        let text = String::from_utf8(rendered).unwrap();
        assert!(text
            .contains("traceparent: 00-0123456789abcdef0123456789abcdef-0123456789abcdef-01\r\n"));
    }

    #[test]
    fn retry_after_header_renders_when_requested() {
        let rendered = render_response(&Response::json(429, "{}").with_retry_after(3), true);
        let text = String::from_utf8(rendered).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 3\r\n"));
        let plain = render_response(&Response::json(429, "{}"), true);
        assert!(!String::from_utf8(plain).unwrap().contains("Retry-After"));
    }

    /// Every proper prefix of a request is `Incomplete`, never an error,
    /// and the full buffer parses with an exact consumed count — the
    /// invariant the reactor leans on when bytes trickle in.
    #[test]
    fn buffered_parse_is_incomplete_at_every_split_point() {
        let text = "POST /v1/jobs?wait=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let limits = Limits::default();
        for cut in 0..text.len() {
            match parse_buffered(&text.as_bytes()[..cut], &limits) {
                Ok(ParsedRequest::Incomplete) => {}
                other => panic!("prefix of {cut} bytes: expected Incomplete, got {other:?}"),
            }
        }
        match parse_buffered(text.as_bytes(), &limits).unwrap() {
            ParsedRequest::Complete { request, consumed } => {
                assert_eq!(consumed, text.len());
                assert_eq!(request.path, "/v1/jobs");
                assert_eq!(request.body, b"abcd");
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    /// A buffer holding several pipelined requests yields them one at a
    /// time, with `consumed` advancing the drain point exactly.
    #[test]
    fn buffered_parse_walks_pipelined_requests_by_consumed() {
        let text = "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                    GET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
        let limits = Limits::default();
        let mut at = 0;
        let mut requests = Vec::new();
        while at < text.len() {
            match parse_buffered(&text.as_bytes()[at..], &limits).unwrap() {
                ParsedRequest::Complete { request, consumed } => {
                    requests.push(request);
                    at += consumed;
                }
                ParsedRequest::Incomplete => panic!("unexpected Incomplete at {at}"),
            }
        }
        assert_eq!(at, text.len());
        let paths: Vec<&str> = requests.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/a", "/b", "/c"]);
        assert_eq!(requests[1].body, b"hi");
        assert!(!requests[2].keep_alive);
    }

    /// Resource bounds bite on the buffered path even before the request
    /// completes: a too-long head prefix or an over-limit Content-Length
    /// declaration is a hard error, not an Incomplete that grows forever.
    #[test]
    fn buffered_parse_enforces_limits_on_partial_input() {
        let limits = Limits {
            max_request_line: 64,
            max_header_line: 64,
            max_headers: 4,
            max_body: 16,
        };
        let long_line = format!("GET /{} HTTP", "x".repeat(200));
        assert_eq!(
            parse_buffered(long_line.as_bytes(), &limits)
                .unwrap_err()
                .status(),
            431
        );
        let big_body = "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
        assert_eq!(
            parse_buffered(big_body.as_bytes(), &limits)
                .unwrap_err()
                .status(),
            413
        );
        let garbage = "NOT AN HTTP REQUEST LINE\r\n\r\n";
        assert_eq!(
            parse_buffered(garbage.as_bytes(), &limits)
                .unwrap_err()
                .status(),
            400
        );
    }
}
