//! The wire server: a `TcpListener` accept loop fronting a
//! [`ValuationServer`], one handler thread per connection, admission
//! control on top of the service's own deadline/budget knobs, and a
//! drain-on-shutdown path that rides the service's typed
//! [`ServerShutdown`](ValuationError::ServerShutdown) error.
//!
//! # Endpoints
//!
//! | method · path | body | response |
//! |---------------|------|----------|
//! | `POST /v1/value` | a [`wire`] valuation request | 200/206 result, or the mapped error status |
//! | `GET /v1/stats` | — | cumulative [`ServiceStats`](fedval_core::service::ServiceStats) |
//! | `GET /v1/healthz` | — | `{"ok": true, "draining": …}` |
//!
//! # Admission control
//!
//! At most [`WireConfig::max_inflight`] valuation requests run at once;
//! request `max_inflight + 1` is rejected *before* it reaches the
//! valuation server with **429** and a `Retry-After` header
//! ([`WireConfig::retry_after_secs`]). Reads are additionally bounded by
//! [`Limits`] (413/431) — saturation never builds an unbounded queue.
//!
//! # Shutdown
//!
//! [`WireServer::begin_shutdown`] (the SIGTERM path in the binary) stops
//! the accept loop and forwards to
//! [`ValuationServer::begin_shutdown`]: in-flight runs abort at their
//! next batch boundary with the typed shutdown error, handlers write the
//! mapped **503** before closing, idle keep-alive connections close at
//! the next poll tick, and a connection mid-upload gets
//! [`WireConfig::drain_grace`] to finish before the socket is dropped.
//! [`WireServer::shutdown`] then joins every thread.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use fedval_core::service::{ValuationError, ValuationServer};
use fedval_core::utility::Utility;

use crate::http::{Conn, HttpError, Limits, Request, Response};
use crate::json::{self, Json, Num};
use crate::wire;

/// Knobs of the wire transport (the valuation-level knobs — deadlines,
/// budgets, stopping rules — travel per request instead).
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Address to bind (`0` port picks a free one; see
    /// [`WireServer::addr`]).
    pub addr: String,
    /// Valuation requests allowed in flight at once; the next one is
    /// rejected with 429 + `Retry-After`.
    pub max_inflight: usize,
    /// Per-request read caps (head → 431, body → 413).
    pub limits: Limits,
    /// Value of the `Retry-After` header on 429 responses.
    pub retry_after_secs: u64,
    /// Cadence at which blocked reads and the accept loop re-check the
    /// shutdown flag.
    pub poll: Duration,
    /// After shutdown begins, how long a connection mid-request may keep
    /// reading before its socket is dropped.
    pub drain_grace: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 64,
            limits: Limits::default(),
            retry_after_secs: 1,
            poll: Duration::from_millis(2),
            drain_grace: Duration::from_secs(5),
        }
    }
}

struct Inner<U: Utility + Send + Sync + 'static> {
    valuation: ValuationServer<U>,
    cfg: WireConfig,
    stop: AtomicBool,
    inflight: AtomicUsize,
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running wire transport over one [`ValuationServer`].
pub struct WireServer<U: Utility + Send + Sync + 'static> {
    inner: Arc<Inner<U>>,
    accept: Option<thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl<U: Utility + Send + Sync + 'static> WireServer<U> {
    /// Bind `cfg.addr` and start serving `valuation` — the accept loop
    /// and every connection run on their own threads; this returns once
    /// the socket is listening.
    pub fn start(valuation: ValuationServer<U>, cfg: WireConfig) -> io::Result<WireServer<U>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            valuation,
            cfg,
            stop: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("fedval-serve-accept".to_string())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(WireServer {
            inner,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The bound address (resolves a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The fronted valuation server — lets an owner mix wire and
    /// in-process traffic against the same instance (the bit-identity
    /// suite compares the two).
    pub fn valuation(&self) -> &ValuationServer<U> {
        &self.inner.valuation
    }

    /// Initiate drain without blocking: stop accepting, abort in-flight
    /// valuations with the typed shutdown error (handlers still write
    /// the mapped 503 before closing). Idempotent; [`shutdown`] completes
    /// the join.
    ///
    /// [`shutdown`]: WireServer::shutdown
    pub fn begin_shutdown(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.valuation.begin_shutdown();
    }

    /// Drain and stop: [`begin_shutdown`], then join the accept loop and
    /// every connection handler. Returns once the port is released and
    /// all threads are gone.
    ///
    /// [`begin_shutdown`]: WireServer::begin_shutdown
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let conns = match self.inner.conns.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for c in conns {
            let _ = c.join();
        }
        // Dropping the last `Inner` handle drops the `ValuationServer`,
        // which joins its dispatcher.
    }
}

impl<U: Utility + Send + Sync + 'static> Drop for WireServer<U> {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
    }
}

fn accept_loop<U: Utility + Send + Sync + 'static>(inner: Arc<Inner<U>>, listener: TcpListener) {
    while !inner.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_inner = Arc::clone(&inner);
                let handle = thread::Builder::new()
                    .name("fedval-serve-conn".to_string())
                    .spawn(move || {
                        let poll = conn_inner.cfg.poll;
                        if let Ok(conn) = Conn::new(stream, poll) {
                            serve_connection(conn_inner, conn);
                        }
                    });
                if let Ok(handle) = handle {
                    if let Ok(mut conns) = inner.conns.lock() {
                        conns.retain(|c| !c.is_finished());
                        conns.push(handle);
                    }
                }
            }
            // Nonblocking accept: nothing pending (or a transient
            // per-connection error) — nap one poll tick and re-check the
            // shutdown flag.
            Err(_) => thread::sleep(inner.cfg.poll),
        }
    }
}

/// Serve one connection until it closes, errors, or the drain ends it.
fn serve_connection<U: Utility + Send + Sync + 'static>(inner: Arc<Inner<U>>, mut conn: Conn) {
    // Set when this handler first observes the stop flag mid-request;
    // the connection may keep reading until the grace runs out.
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // A connection caught mid-upload at shutdown gets cfg.drain_grace
        // of wall time to finish the request before its socket is dropped.
        #[expect(
            clippy::disallowed_methods,
            reason = "the drain grace is transport plumbing and never feeds a value"
        )]
        let mut should_abort = |request_pending: bool| {
            if !inner.stop.load(Ordering::Acquire) {
                return false;
            }
            if !request_pending {
                return true;
            }
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + inner.cfg.drain_grace);
            Instant::now() >= deadline
        };
        let request = conn.read_request(&inner.cfg.limits, &mut should_abort);
        let response = match request {
            Ok(req) => route(&inner, &req),
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return,
            // Framing is untrustworthy after a malformed request: answer
            // with the mapped status, then close.
            Err(HttpError::BadRequest(detail)) => Response::json(
                400,
                wire::wire_error_body(400, "bad_request", detail).encode(),
            )
            .closing(),
            Err(HttpError::LengthRequired) => Response::json(
                411,
                wire::wire_error_body(
                    411,
                    "length_required",
                    "body-bearing request without Content-Length".to_string(),
                )
                .encode(),
            )
            .closing(),
            Err(HttpError::PayloadTooLarge { declared, limit }) => Response::json(
                413,
                wire::wire_error_body(
                    413,
                    "payload_too_large",
                    format!("declared Content-Length {declared} exceeds the {limit}-byte cap"),
                )
                .encode(),
            )
            .closing(),
            Err(HttpError::HeadTooLarge { limit }) => Response::json(
                431,
                wire::wire_error_body(
                    431,
                    "head_too_large",
                    format!("request head exceeds the {limit}-byte cap"),
                )
                .encode(),
            )
            .closing(),
        };
        let close = response.close;
        if conn.write_response(&response).is_err() || close {
            return;
        }
    }
}

fn route<U: Utility + Send + Sync + 'static>(inner: &Inner<U>, req: &Request) -> Response {
    let mut resp = match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/value") => handle_value(inner, req),
        ("GET", "/v1/stats") => {
            let stats = wire::encode_service_stats(&inner.valuation.stats());
            Response::json(200, stats.encode())
        }
        ("GET", "/v1/healthz") => {
            let body = Json::obj([
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(inner.stop.load(Ordering::Acquire))),
                (
                    "inflight",
                    Json::Num(Num::U64(inner.inflight.load(Ordering::Acquire) as u64)),
                ),
            ]);
            Response::json(200, body.encode())
        }
        (method, path @ ("/v1/value" | "/v1/stats" | "/v1/healthz")) => {
            let allow = if path == "/v1/value" { "POST" } else { "GET" };
            Response::json(
                405,
                wire::wire_error_body(
                    405,
                    "method_not_allowed",
                    format!("{method} is not allowed on {path} (allow: {allow})"),
                )
                .encode(),
            )
            .with_header("allow", allow.to_string())
        }
        (_, path) => Response::json(
            404,
            wire::wire_error_body(404, "not_found", format!("no such endpoint: {path}")).encode(),
        ),
    };
    if !req.keep_alive {
        resp = resp.closing();
    }
    resp
}

/// RAII slot of the in-flight gauge: released on every exit path,
/// including a panicking valuation wait.
struct InflightSlot<'a>(&'a AtomicUsize);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_value<U: Utility + Send + Sync + 'static>(inner: &Inner<U>, req: &Request) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            return Response::json(
                400,
                wire::wire_error_body(400, "malformed_json", "body is not UTF-8".to_string())
                    .encode(),
            )
        }
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::json(
                400,
                wire::wire_error_body(400, "malformed_json", e.to_string()).encode(),
            )
        }
    };
    let request = match wire::parse_valuation_request(&doc) {
        Ok(r) => r,
        Err(e) => {
            return Response::json(
                400,
                wire::wire_error_body(400, "bad_request", e.detail).encode(),
            )
        }
    };
    // Admission: claim a slot before touching the valuation server.
    if inner.inflight.fetch_add(1, Ordering::AcqRel) >= inner.cfg.max_inflight {
        inner.inflight.fetch_sub(1, Ordering::AcqRel);
        let (status, kind) = (429, "saturated");
        return Response::json(
            status,
            wire::wire_error_body(
                status,
                kind,
                format!(
                    "{} valuation requests already in flight",
                    inner.cfg.max_inflight
                ),
            )
            .encode(),
        )
        .with_header("retry-after", inner.cfg.retry_after_secs.to_string());
    }
    let slot = InflightSlot(&inner.inflight);
    let result = if inner.stop.load(Ordering::Acquire) {
        // Drain already began: answer with the same typed error the
        // valuation server would produce, without enqueueing.
        Err(ValuationError::ServerShutdown)
    } else {
        inner.valuation.call(request)
    };
    drop(slot);
    let (status, body) = match result {
        Ok(resp) => wire::encode_response(&resp),
        Err(e) => wire::encode_error(&e),
    };
    Response::json(status, body.encode())
}
