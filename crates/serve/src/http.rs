//! A hand-rolled HTTP/1.1 subset.
//!
//! The workspace builds fully offline, so — in the `io.rs`/`toml.rs`
//! tradition — this is a small, strict parser over `std::net` rather
//! than a dependency. The accepted subset is exactly what the job
//! server needs: `Content-Length` bodies with a hard size cap, chunked
//! transfer encoding on responses for streaming JSONL, and HTTP/1.1
//! keep-alive with pipelining.
//!
//! [`parse_request`] is the one parser of request bytes: it consumes a
//! byte buffer incrementally (the readiness loop feeds it whatever has
//! arrived and retries on [`ParseStatus::Partial`]). The encoders
//! ([`response_bytes`], [`chunked_head_bytes`], [`chunk_bytes`],
//! [`CHUNKED_TRAILER`]) produce the bytes the loop queues on a
//! connection's write buffer.
//!
//! Anything outside the subset fails loudly with a 4xx so clients
//! never see silent misbehaviour: an over-long request line or header
//! block is `413`, a malformed request line or header is `400`, and a
//! body larger than the server's cap is `413` *before* the server
//! buffers it.

/// Default cap on request bodies (scenario specs are a few KiB; 1 MiB
/// leaves two orders of magnitude of headroom).
pub const DEFAULT_MAX_BODY: usize = 1 << 20;

/// Cap on the request line plus header block.
pub const MAX_HEAD: usize = 16 * 1024;

/// A parse failure that maps onto an HTTP status code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// 400 — the request is malformed.
    BadRequest(String),
    /// 413 — request line, header block, or body exceeds a cap.
    TooLarge(String),
}

impl HttpError {
    /// The status line this error is answered with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::TooLarge(_) => (413, "Payload Too Large"),
        }
    }

    /// Human detail for the error body.
    pub fn detail(&self) -> &str {
        match self {
            HttpError::BadRequest(s) | HttpError::TooLarge(s) => s,
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …) as sent.
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// `key=value` pairs from the query string, in order. No
    /// percent-decoding — the API surface is plain ASCII by design.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client may reuse this connection after the
    /// response: HTTP/1.1 unless `Connection: close`, HTTP/1.0 only
    /// with `Connection: keep-alive`. The server closes the connection
    /// after the response when this is `false`.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header value for `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parsed request line: `(method, path, query, is_http11)`.
type RequestLine = (String, String, Vec<(String, String)>, bool);

fn parse_request_line(request_line: &str) -> Result<RequestLine, HttpError> {
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !method
        .chars()
        .all(|c| c.is_ascii_alphabetic() && c.is_ascii_uppercase())
    {
        return Err(HttpError::BadRequest(format!("bad method {method:?}")));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(format!("bad target {target:?}")));
    }
    let query: Vec<(String, String)> = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok((
        method.to_string(),
        path.to_string(),
        query,
        version == "HTTP/1.1",
    ))
}

fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_string()))
}

/// Validated body length from the header block (`413` beyond the cap,
/// `400` for chunked request bodies — the server never accepts them).
fn body_length(headers: &[(String, String)], max_body: usize) -> Result<usize, HttpError> {
    let content_length: usize = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {max_body}-byte cap"
        )));
    }
    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked request bodies are not supported".into(),
        ));
    }
    Ok(content_length)
}

fn wants_keep_alive(http11: bool, headers: &[(String, String)]) -> bool {
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.as_str());
    match connection {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => http11,
    }
}

/// Outcome of one [`parse_request`] attempt over a byte buffer.
#[derive(Debug)]
pub enum ParseStatus {
    /// A complete request, plus the number of buffer bytes it consumed
    /// (the caller drains them; any remainder is pipelined input for
    /// the next request on the connection).
    Complete(Box<Request>, usize),
    /// The buffer holds a valid prefix; feed more bytes and retry.
    Partial,
}

/// Incrementally parse a request from `buf`: `Partial` until the head
/// and the whole body have arrived. The head is capped at
/// [`MAX_HEAD`] bytes and the body at `max_body`; an over-cap body
/// fails as soon as the head is complete, before the body has arrived,
/// so a `413` goes out without buffering it.
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<ParseStatus, HttpError> {
    // Walk '\n'-terminated head lines until the blank line.
    let mut lines: Vec<&[u8]> = Vec::new();
    let mut pos = 0;
    let head_len = loop {
        let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
            if buf.len() > MAX_HEAD {
                return Err(HttpError::TooLarge("request head too large".into()));
            }
            return Ok(ParseStatus::Partial);
        };
        let mut line = &buf[pos..pos + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        pos += nl + 1;
        if pos > MAX_HEAD {
            return Err(HttpError::TooLarge("request head too large".into()));
        }
        if line.is_empty() {
            break pos;
        }
        lines.push(line);
    };
    let mut lines = lines.into_iter().map(|l| {
        std::str::from_utf8(l)
            .map_err(|_| HttpError::BadRequest("non-UTF-8 in request head".into()))
    });
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request head".into()))??;
    let (method, path, query, http11) = parse_request_line(request_line)?;
    let headers = lines
        .map(|l| parse_header_line(l?))
        .collect::<Result<Vec<_>, _>>()?;
    let content_length = body_length(&headers, max_body)?;
    // Compared as a remainder so a huge `max_body` cannot overflow.
    if buf.len() - head_len < content_length {
        return Ok(ParseStatus::Partial);
    }
    let used = head_len + content_length;
    let body = buf[head_len..used].to_vec();
    let keep_alive = wants_keep_alive(http11, &headers);
    Ok(ParseStatus::Complete(
        Box::new(Request {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
        }),
        used,
    ))
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Encode a complete (non-streaming) response with a `Content-Length`
/// body. The event loop queues these bytes on the connection's write
/// buffer; `keep_alive` decides the `Connection:` header.
pub fn response_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        connection_header(keep_alive),
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Encode the head of a chunked streaming response; follow with
/// [`chunk_bytes`] per chunk and [`CHUNKED_TRAILER`] to terminate.
pub fn chunked_head_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    keep_alive: bool,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        connection_header(keep_alive),
    )
    .into_bytes()
}

/// Encode one chunk (empty data encodes to nothing — an empty chunk
/// would terminate the stream).
pub fn chunk_bytes(data: &[u8]) -> Vec<u8> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

/// The terminating zero chunk of a chunked stream.
pub const CHUNKED_TRAILER: &[u8] = b"0\r\n\r\n";

/// Minimal JSON string escaping for hand-built response bodies (the
/// same subset `bbncg_scenario::sink` emits).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
