//! # kdap-server
//!
//! KDAP as a service: a zero-dependency HTTP/1.1 server on [`std::net`]
//! exposing one or many [`Kdap`] engines (tenants) behind the unified
//! query API of [`kdap_core::api`].
//!
//! The server is a fixed-size worker pool draining an accept queue. A
//! worker owns a connection for as long as the connection lasts: every
//! request on it is parsed by the `http` module, dispatched by `router`,
//! and executed through [`Kdap::run_cancellable`] so per-request
//! governance (deadline, memory budget, client-disconnect cancellation)
//! maps onto typed 408/429/499/507 responses. Per-tenant request
//! counters and latency histograms are served at
//! `GET /v1/{tenant}/stats`.
//!
//! Connections are persistent (HTTP/1.1 keep-alive, pipelining answered
//! in order) but never at another client's expense: while more
//! connections are open than there are workers, every response says
//! `Connection: close` and an idle connection gives its worker up within
//! 50 ms. With more clients than workers the server therefore degrades
//! to one request per connection, served in arrival order. Every
//! endpoint is an idempotent read, so a client whose reused connection
//! was closed under it re-sends on a fresh one.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use kdap_core::Kdap;
//! # use kdap_server::{EngineRegistry, KdapServer, ServerConfig};
//! # fn engine() -> Arc<Kdap> { unimplemented!() }
//! let registry = EngineRegistry::new().with("sales", engine());
//! let server = KdapServer::start(registry, &ServerConfig::default())?;
//! println!("listening on http://{}", server.addr());
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`Kdap`]: kdap_core::Kdap
//! [`Kdap::run_cancellable`]: kdap_core::Kdap::run_cancellable

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod http;
mod monitor;
pub mod registry;
mod router;

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use kdap_core::api::ApiError;
use kdap_obs::JsonLogger;

pub use registry::{EngineRegistry, InflightGuard, TenantEngine};

use crate::http::{HttpError, Response};
use crate::monitor::DisconnectMonitor;

/// How long an idle connection's worker waits for the next request
/// before it checks again whether it is wanted elsewhere.
const IDLE_SLICE: Duration = Duration::from_millis(50);

/// Server deployment knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Interface to bind (default `127.0.0.1`).
    pub listen: String,
    /// Port to bind; `0` picks an ephemeral port (default `8642`).
    pub port: u16,
    /// Worker threads draining the accept queue (default `4`; `0` is
    /// clamped to `1`). A worker serves one connection at a time, so
    /// this is also the number of persistent connections held open.
    pub workers: usize,
    /// Maximum concurrently executing queries per tenant; requests over
    /// the cap receive a typed `429`. `0` admits nothing — useful for
    /// drain testing (default `64`).
    pub max_inflight: usize,
    /// Per-connection socket read timeout, bounding slow or stalled
    /// clients; also how long an idle persistent connection is kept
    /// (default 10 s).
    pub read_timeout: Duration,
    /// Structured access-log destination: `None` disables logging,
    /// `Some("stderr")` writes JSONL to stderr, any other value is
    /// treated as a file path opened in append mode (default `None`).
    pub log: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1".to_string(),
            port: 8642,
            workers: 4,
            max_inflight: 64,
            read_timeout: Duration::from_secs(10),
            log: None,
        }
    }
}

/// Everything the server's threads share: the tenants, the settings the
/// request path reads, and the server-wide counters and flags.
struct ServerState {
    registry: EngineRegistry,
    max_inflight: usize,
    read_timeout: Duration,
    logger: JsonLogger,
    /// When the server started, for `/healthz` uptime.
    started: Instant,
    stop: AtomicBool,
    /// Open connections (accepted, not yet finished) minus workers:
    /// positive exactly when some connection has no worker to serve it.
    /// A hint to the workers; it orders no other data, hence `Relaxed`.
    unserved: AtomicIsize,
    /// Connections handed to a worker so far (statistic, `Relaxed`).
    connections: AtomicU64,
    /// Requests answered or being answered so far (statistic, `Relaxed`).
    requests: AtomicU64,
    monitor: DisconnectMonitor,
}

impl ServerState {
    /// True when a worker should let go of its connection: the server is
    /// stopping, or another connection is waiting for a worker.
    fn worker_wanted(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.unserved.load(Ordering::Relaxed) > 0
    }
}

/// A running server: accept thread, worker pool and disconnect monitor.
/// Dropping the handle leaves the threads running; call
/// [`KdapServer::shutdown`] for an orderly stop.
pub struct KdapServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    monitor_thread: Option<thread::JoinHandle<()>>,
}

impl KdapServer {
    /// Binds the listener and starts the worker pool, then the accept
    /// loop and the disconnect monitor. Returns once the socket is live —
    /// `addr()` is immediately routable (with `port: 0`, it carries the
    /// ephemeral port picked by the OS).
    pub fn start(registry: EngineRegistry, config: &ServerConfig) -> io::Result<KdapServer> {
        let listener = TcpListener::bind((config.listen.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let pool = config.workers.max(1);
        let state = Arc::new(ServerState {
            registry,
            max_inflight: config.max_inflight,
            read_timeout: config.read_timeout,
            logger: JsonLogger::from_spec(config.log.as_deref())?,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            unserved: AtomicIsize::new(-isize::try_from(pool).unwrap_or(isize::MAX)),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            monitor: DisconnectMonitor::default(),
        });

        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        // Every worker is running before the accept loop and the monitor
        // start. A thread takes its heap arena from the allocator as it
        // starts, and glibc gives a new thread the arena of the thread
        // that exited last. `shutdown` joins the workers last, so the
        // workers of a server started after another in the same process
        // take over the arenas the earlier workers filled, instead of
        // racing the accept and monitor threads for them; the process's
        // resident memory then does not depend on which thread started
        // first.
        let started = Arc::new(Barrier::new(pool + 1));
        let workers = (0..pool)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                let started = Arc::clone(&started);
                thread::spawn(move || {
                    started.wait();
                    loop {
                        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                        match next {
                            Ok(stream) => {
                                serve_connection(&state, stream);
                                state.unserved.fetch_sub(1, Ordering::Relaxed);
                            }
                            // Sender dropped: the server is shutting down.
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();
        started.wait();

        let accept_state = Arc::clone(&state);
        let accept_thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_state.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                accept_state.unserved.fetch_add(1, Ordering::Relaxed);
                if tx.send(stream).is_err() {
                    break;
                }
            }
            // tx drops here; idle workers wake and exit.
        });

        let monitor_state = Arc::clone(&state);
        let monitor_thread = thread::spawn(move || monitor_state.monitor.run());

        Ok(KdapServer {
            addr,
            state,
            accept_thread: Some(accept_thread),
            workers,
            monitor_thread: Some(monitor_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains queued connections, and joins every
    /// thread, in the reverse of the order they were started. Requests
    /// already received run to completion — no longer watched for a
    /// client that leaves — and are answered `Connection: close`; idle
    /// persistent connections are closed within 50 ms, whatever
    /// `read_timeout` is.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.monitor.stop();
        if let Some(t) = self.monitor_thread.take() {
            t.join().ok();
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

/// Serves one connection until either side ends it: wait for a request,
/// parse, route, respond, repeat. `carry` holds bytes read past the
/// request being answered — the start of a pipelined next one.
fn serve_connection(state: &ServerState, stream: TcpStream) {
    state.connections.fetch_add(1, Ordering::Relaxed);
    stream.set_nodelay(true).ok();
    // Shared with the disconnect monitor while a query runs.
    let stream = Arc::new(stream);
    let mut carry = Vec::new();
    let mut reused = false;
    loop {
        if carry.is_empty() && !await_request(state, &stream, &mut carry, reused) {
            return;
        }
        reused = true;
        stream.set_read_timeout(Some(state.read_timeout)).ok();
        let (response, asked_close) = match http::read_request(&mut &*stream, &mut carry) {
            Ok(request) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                (router::route(state, &request, &stream), request.close)
            }
            // The stream is no longer framed: answer and close.
            Err(HttpError::Bad { status, message }) => {
                state.requests.fetch_add(1, Ordering::Relaxed);
                let err = ApiError {
                    status,
                    code: "bad_request",
                    message,
                };
                (Response::json(status, err.to_json()), true)
            }
            // The socket died mid-request: nothing to answer.
            Err(HttpError::Io) => return,
        };
        let close = asked_close || state.worker_wanted();
        if http::write_response(&mut &*stream, &response, close).is_err() || close {
            return;
        }
    }
}

/// Waits for the first bytes of the connection's next request and puts
/// them in `carry`. The wait is cut into [`IDLE_SLICE`] read timeouts so
/// that the worker also sees the stop flag and, on a `reused`
/// connection, that another connection has no worker. Returns false when
/// the connection should be closed instead: the peer left (also the
/// probe connection from `shutdown()`), nothing arrived for
/// `read_timeout`, the server is stopping, or another connection needs
/// this worker. A connection that has not been answered yet is never
/// given up for another — its first request may still be in flight.
fn await_request(
    state: &ServerState,
    stream: &TcpStream,
    carry: &mut Vec<u8>,
    reused: bool,
) -> bool {
    let mut stream = stream;
    stream.set_read_timeout(Some(IDLE_SLICE)).ok();
    let idle_since = Instant::now();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => {
                carry.extend_from_slice(&chunk[..n]);
                return true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let give_up = if reused {
                    state.worker_wanted()
                } else {
                    state.stop.load(Ordering::SeqCst)
                };
                if give_up || idle_since.elapsed() >= state.read_timeout {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}
