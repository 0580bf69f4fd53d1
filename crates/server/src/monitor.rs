//! Client-disconnect detection for running queries: one monitor thread
//! per server, not one per query.
//!
//! A worker registers its connection and the query's [`CancelToken`]
//! with [`DisconnectMonitor::watch`] before it runs the query and drops
//! the returned [`Watch`] when the query returns. The monitor thread
//! ([`DisconnectMonitor::run`]) sleeps on a condvar while nothing is
//! registered; otherwise it wakes every [`WATCH_INTERVAL`], takes a
//! non-blocking one-byte `peek` at every registered socket, and trips
//! the token of each one whose peer has gone. Registering and
//! deregistering are a lock, a `Vec` push or remove, and a blocking-mode
//! switch: no thread is spawned or joined and nothing sleeps on the
//! request path. An abandoned query is cancelled within one interval
//! plus the engine's next governance check.
//!
//! The peek needs the socket in non-blocking mode, which is a property
//! of the socket, not of a handle to it. The mode therefore changes only
//! under the monitor's lock, and the monitor peeks only under the same
//! lock: it never peeks at a blocking socket, and the worker never gets
//! a socket back while a peek is in progress on it.
//!
//! What counts as gone: end of stream or a socket error. A client that
//! half-closes (`shutdown(Write)`) after sending its request looks
//! exactly like one that left and is treated as one — its query is
//! cancelled at the next sweep and answered `499`. Bytes waiting in the
//! socket (a pipelined next request) mean the peer is still there.

use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use kdap_core::CancelToken;

/// How often the monitor polls the sockets of running queries.
const WATCH_INTERVAL: Duration = Duration::from_millis(5);

/// The server's disconnect monitor: the registry of running queries'
/// sockets plus the condvar its thread sleeps on.
#[derive(Default)]
pub(crate) struct DisconnectMonitor {
    watched: Mutex<Watched>,
    wake: Condvar,
}

#[derive(Default)]
struct Watched {
    /// Running queries; every stream in here is in non-blocking mode.
    entries: Vec<Entry>,
    next_id: u64,
    /// The monitor thread is waiting without a timeout, so the next
    /// registration must wake it.
    parked: bool,
    stop: bool,
}

struct Entry {
    id: u64,
    stream: Arc<TcpStream>,
    token: CancelToken,
}

impl DisconnectMonitor {
    fn lock(&self) -> MutexGuard<'_, Watched> {
        // Every update leaves `Watched` valid, so a poisoned lock is usable.
        self.watched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The monitor thread's body; returns after [`DisconnectMonitor::stop`].
    pub(crate) fn run(&self) {
        let mut watched = self.lock();
        loop {
            watched = if watched.entries.is_empty() {
                watched.parked = true;
                let mut woken = self
                    .wake
                    .wait_while(watched, |w| w.entries.is_empty() && !w.stop)
                    .unwrap_or_else(|e| e.into_inner());
                woken.parked = false;
                woken
            } else {
                self.wake
                    .wait_timeout(watched, WATCH_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            };
            if watched.stop {
                return;
            }
            watched.entries.retain(|entry| {
                let gone = peer_gone(&entry.stream);
                if gone {
                    entry.token.cancel();
                }
                !gone
            });
        }
    }

    /// Ends [`DisconnectMonitor::run`]. Queries still registered are no
    /// longer watched.
    pub(crate) fn stop(&self) {
        self.lock().stop = true;
        self.wake.notify_all();
    }

    /// Watches `stream` until the returned guard is dropped: `token` is
    /// tripped if the peer goes away in between. The socket is in
    /// non-blocking mode for as long as the guard lives. A socket that
    /// refuses the mode switch is not watched.
    pub(crate) fn watch<'a>(&'a self, stream: &'a Arc<TcpStream>, token: CancelToken) -> Watch<'a> {
        let mut watched = self.lock();
        if stream.set_nonblocking(true).is_err() {
            return Watch {
                monitor: self,
                stream,
                id: None,
            };
        }
        let id = watched.next_id;
        watched.next_id += 1;
        watched.entries.push(Entry {
            id,
            stream: Arc::clone(stream),
            token,
        });
        let parked = watched.parked;
        drop(watched);
        if parked {
            self.wake.notify_one();
        }
        Watch {
            monitor: self,
            stream,
            id: Some(id),
        }
    }

    /// Running queries currently watched.
    #[cfg(test)]
    fn watched(&self) -> usize {
        self.lock().entries.len()
    }
}

/// True when the peer of a non-blocking `stream` has hung up.
fn peer_gone(stream: &TcpStream) -> bool {
    match stream.peek(&mut [0u8; 1]) {
        // End of stream: the client closed (at least) its sending side.
        Ok(0) => true,
        // Pipelined bytes: the peer is still connected.
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    }
}

/// Registration of one running query with the [`DisconnectMonitor`];
/// dropping it ends the watch and returns the socket to blocking mode.
pub(crate) struct Watch<'a> {
    monitor: &'a DisconnectMonitor,
    stream: &'a TcpStream,
    /// `None` when the socket could not be switched to non-blocking
    /// mode and so was never registered.
    id: Option<u64>,
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let mut watched = self.monitor.lock();
        // Absent when the monitor tripped the token and dropped the entry.
        if let Some(at) = watched.entries.iter().position(|e| e.id == id) {
            watched.entries.swap_remove(at);
        }
        // Still under the lock, so no peek is in progress on this socket.
        self.stream.set_nonblocking(false).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener};
    use std::thread;
    use std::time::Instant;

    /// A connected loopback pair: `(client, server side)`.
    fn pair() -> (TcpStream, Arc<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, Arc::new(server))
    }

    /// Runs `body` against a monitor whose thread is live; the thread is
    /// stopped (also when `body` panics) and joined by the scope.
    fn with_monitor(body: impl FnOnce(&DisconnectMonitor)) {
        struct StopOnDrop<'a>(&'a DisconnectMonitor);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.stop();
            }
        }
        let monitor = DisconnectMonitor::default();
        thread::scope(|s| {
            s.spawn(|| monitor.run());
            let _stop = StopOnDrop(&monitor);
            body(&monitor);
        });
    }

    /// Polls `cond` until it holds; panics after two seconds.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn hang_up_and_half_close_trip_the_token() {
        with_monitor(|monitor| {
            for half_close in [false, true] {
                let (client, server) = pair();
                let token = CancelToken::new();
                let watch = monitor.watch(&server, token.clone());
                assert!(!token.is_cancelled());
                if half_close {
                    client.shutdown(Shutdown::Write).unwrap();
                } else {
                    drop(client);
                }
                eventually("the token to trip", || token.is_cancelled());
                // The monitor dropped the entry itself; the guard copes.
                eventually("the entry to go", || monitor.watched() == 0);
                drop(watch);
            }
        });
    }

    #[test]
    fn connected_peers_and_pipelined_bytes_are_not_a_disconnect() {
        with_monitor(|monitor| {
            let (_quiet_client, quiet) = pair();
            let (mut busy_client, busy) = pair();
            busy_client
                .write_all(b"GET /next HTTP/1.1\r\n\r\n")
                .unwrap();
            let (quiet_token, busy_token) = (CancelToken::new(), CancelToken::new());
            let quiet_watch = monitor.watch(&quiet, quiet_token.clone());
            let busy_watch = monitor.watch(&busy, busy_token.clone());

            // A third peer that does leave proves sweeps are happening
            // while the other two stay registered.
            for _ in 0..3 {
                let (gone_client, gone) = pair();
                let gone_token = CancelToken::new();
                let _watch = monitor.watch(&gone, gone_token.clone());
                drop(gone_client);
                eventually("the leaver's token to trip", || gone_token.is_cancelled());
            }
            assert!(!quiet_token.is_cancelled() && !busy_token.is_cancelled());
            assert_eq!(monitor.watched(), 2);

            // Dropping the guards deregisters and restores blocking
            // mode: a read with nothing to read now waits for its
            // timeout instead of failing at once. The kernel counts the
            // timeout in scheduler ticks, so the wait can end up to a
            // tick short of it by `Instant`; a non-blocking read fails
            // within microseconds, so a quarter of it tells the two apart.
            drop((quiet_watch, busy_watch));
            assert_eq!(monitor.watched(), 0);
            let timeout = Duration::from_millis(20);
            quiet.set_read_timeout(Some(timeout)).unwrap();
            let started = Instant::now();
            assert!((&*quiet).read(&mut [0u8; 1]).is_err());
            assert!(
                started.elapsed() >= timeout / 4,
                "socket is still non-blocking"
            );
            // The pipelined bytes were peeked at, never consumed.
            let mut next = [0u8; 9];
            (&*busy).read_exact(&mut next).unwrap();
            assert_eq!(&next, b"GET /next");
        });
    }

    #[test]
    fn monitor_parks_when_idle_and_wakes_for_the_next_query() {
        with_monitor(|monitor| {
            eventually("the idle monitor to park", || monitor.lock().parked);
            let (client, server) = pair();
            let token = CancelToken::new();
            let _watch = monitor.watch(&server, token.clone());
            drop(client);
            eventually("a parked monitor to wake and sweep", || {
                token.is_cancelled()
            });
            eventually("the monitor to park again", || monitor.lock().parked);
        });
    }
}
