//! A minimal HTTP/1.1 layer over `std::net::TcpStream` — hand-rolled in
//! the style of the workspace `shims/` (no registry access), covering
//! exactly what the wire transport needs: request parsing with strict
//! limits, keep-alive + pipelining, `Content-Length` bodies, and a small
//! blocking client used by the conformance tests and the performance
//! ledger's `wire_warm_mix` workload.
//!
//! The parser is deliberately conservative: anything outside the subset
//! (chunked bodies, multiline headers, absolute-form targets) is a typed
//! [`HttpError`] that the server maps onto a 4xx/5xx response — never a
//! panic. Truncated bodies and oversized payloads are first-class cases,
//! exercised by `tests/tests/wire_malformed.rs`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed request head plus its (fully read) body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Origin-form target path, query string stripped.
    pub path: String,
    /// Raw query string (without `?`), empty if absent.
    pub query: String,
    /// Header fields, names lower-cased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Everything except `Closed`/`Io`
/// still leaves the write side usable, so the server can answer with the
/// mapped status before dropping the connection.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or truncated body — maps to 400.
    BadRequest(String),
    /// Declared `Content-Length` exceeds the configured cap — maps
    /// to 413 (the body is *not* read).
    PayloadTooLarge {
        /// Declared body length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The request head grew past the configured cap — maps to 431.
    HeadTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// A body-bearing method arrived without `Content-Length` — maps
    /// to 411 (chunked transfer is outside the supported subset).
    LengthRequired,
    /// The peer closed (or the drain deadline passed) between requests —
    /// not an error, just the end of the connection.
    Closed,
    /// Transport failure mid-request; the connection is unusable.
    Io(io::Error),
}

/// Caps on what a single request may occupy.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A connection with its persistent read buffer: keep-alive requests and
/// pipelined bytes carry over between [`Conn::read_request`] calls.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read from the socket but not yet consumed (pipelining).
    buf: Vec<u8>,
}

impl Conn {
    /// Wrap an accepted stream. `poll` is the read timeout granularity:
    /// blocked reads wake at this cadence so the server loop can observe
    /// its shutdown flag between slices.
    pub fn new(stream: TcpStream, poll: Duration) -> io::Result<Conn> {
        stream.set_read_timeout(Some(poll))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Read one request. `should_abort` is polled between read slices;
    /// when it returns true and no request bytes are pending, the
    /// connection reports [`HttpError::Closed`] so the caller can drain
    /// out. A request already in flight keeps reading — the drain path
    /// bounds that with its own deadline around this call.
    pub fn read_request(
        &mut self,
        limits: &Limits,
        should_abort: &mut dyn FnMut(bool) -> bool,
    ) -> Result<Request, HttpError> {
        // Accumulate the head until the blank line.
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                // The cap applies even when the whole head arrived in
                // one read slice.
                if pos > limits.max_head_bytes {
                    return Err(HttpError::HeadTooLarge {
                        limit: limits.max_head_bytes,
                    });
                }
                break pos;
            }
            if self.buf.len() > limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge {
                    limit: limits.max_head_bytes,
                });
            }
            match self.fill() {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Err(HttpError::Closed)
                    } else {
                        Err(HttpError::BadRequest("truncated request head".to_string()))
                    };
                }
                Ok(_) => continue,
                Err(e) if would_block(&e) => {
                    if should_abort(!self.buf.is_empty()) {
                        return Err(HttpError::Closed);
                    }
                    continue;
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        };
        let head_bytes = self.buf[..head_end].to_vec();
        let body_start = head_end + 4; // past the \r\n\r\n
        let head = String::from_utf8(head_bytes)
            .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_string()))?;
        let mut parsed = parse_head(&head)?;

        // Body: exactly Content-Length bytes (the supported subset; a
        // `Transfer-Encoding` header is out of scope and rejected).
        if parsed.header("transfer-encoding").is_some() {
            return Err(HttpError::BadRequest(
                "chunked transfer encoding is not supported".to_string(),
            ));
        }
        let content_length =
            match parsed.header("content-length") {
                Some(v) => Some(v.trim().parse::<usize>().map_err(|_| {
                    HttpError::BadRequest("unparseable Content-Length".to_string())
                })?),
                None => None,
            };
        let body_len = match (parsed.method.as_str(), content_length) {
            (_, Some(len)) => len,
            ("POST" | "PUT" | "PATCH", None) => return Err(HttpError::LengthRequired),
            (_, None) => 0,
        };
        if body_len > limits.max_body_bytes {
            // Leave the unread body on the socket; the server responds
            // 413 and closes the connection.
            self.buf.drain(..body_start.min(self.buf.len()));
            return Err(HttpError::PayloadTooLarge {
                declared: body_len,
                limit: limits.max_body_bytes,
            });
        }
        while self.buf.len() < body_start + body_len {
            match self.fill() {
                Ok(0) => {
                    return Err(HttpError::BadRequest(format!(
                        "truncated body: Content-Length {body_len}, got {}",
                        self.buf.len().saturating_sub(body_start)
                    )));
                }
                Ok(_) => continue,
                Err(e) if would_block(&e) => {
                    if should_abort(true) {
                        return Err(HttpError::Closed);
                    }
                    continue;
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
        parsed.body = self.buf[body_start..body_start + body_len].to_vec();
        // Keep any pipelined follow-up bytes for the next call.
        self.buf.drain(..body_start + body_len);
        Ok(parsed)
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Write a complete response.
    pub fn write_response(&mut self, resp: &Response) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            resp.status,
            reason_phrase(resp.status),
            resp.body.len()
        );
        for (k, v) in &resp.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str(if resp.close {
            "connection: close\r\n\r\n"
        } else {
            "connection: keep-alive\r\n\r\n"
        });
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&resp.body)?;
        self.stream.flush()
    }
}

/// A response the server is about to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (content-type/length/connection are added by the
    /// writer).
    pub headers: Vec<(String, String)>,
    /// Body bytes (JSON in this transport).
    pub body: Vec<u8>,
    /// Ask the peer to close after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            close: false,
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Mark the connection for closing after this response.
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Result<Request, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".to_string()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(
            "only origin-form request targets are supported".to_string(),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line `{line}`"
            )));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!(
                "malformed header name `{name}`"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match (version, connection.as_deref()) {
        (_, Some("close")) => false,
        ("HTTP/1.0", Some("keep-alive")) => true,
        ("HTTP/1.0", _) => false,
        _ => true,
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
        keep_alive,
    })
}

/// Reason phrases for every status the transport emits (plus the
/// generic fallbacks).
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        402 => "Payment Required",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        520 => "Upstream Response Lost",
        s if s < 400 => "OK",
        s if s < 500 => "Client Error",
        _ => "Server Error",
    }
}

/// A small blocking HTTP/1.1 client over one keep-alive connection —
/// enough for the conformance tests, the ledger's `wire_warm_mix`
/// workload and the `wire_client` example. Not a general client: it expects
/// `Content-Length` responses, as `fedval-serve` always sends.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A client-side view of a response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body parsed as JSON.
    pub fn json(&self) -> Result<crate::json::Json, crate::json::ParseError> {
        let text = String::from_utf8_lossy(&self.body);
        crate::json::parse(&text)
    }
}

impl Client {
    /// Connect to `addr` (e.g. a `SocketAddr` or `"127.0.0.1:8080"`).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issue `method path` with an optional body and read the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.send_raw(&build_request_bytes(method, path, body))?;
        self.read_response()
    }

    /// POST a JSON body to `path`.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// GET `path`.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Write raw bytes on the connection (used by the pipelining and
    /// truncation tests to go off-script).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Half-close the write side (simulates a client dying mid-body).
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    /// Read one response off the connection (supports reading several
    /// pipelined responses back-to-back).
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let body_start = head_end + 4;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line `{status_line}`"),
                )
            })?;
        let mut headers = Vec::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let content_length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < body_start + content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        self.buf.drain(..body_start + content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

/// Serialize a request for [`Client::request`] (public so tests can
/// build pipelined two-request writes from the same bytes).
pub fn build_request_bytes(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
    let body = body.unwrap_or_default();
    let mut out = format!("{method} {path} HTTP/1.1\r\nhost: fedval\r\n");
    if !body.is_empty() || method == "POST" {
        out.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}
