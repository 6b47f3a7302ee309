//! The workspace's one TCP server: a blocking thread-per-connection
//! accept loop over any RESP [`Commands`] set.
//!
//! The cluster's chunk service and the Redis front of `redislite` both
//! serve through [`Server`]; each brings only its command set, and every
//! connection runs the one RESP read → decode → run → write loop.
//! Every accepted connection gets one handler thread, matching the
//! `LogStore` writer-thread precedent of plain background threads over
//! an async runtime. The server keeps a shutdown handle (a dup'd fd) per
//! live connection so that [`Server::stop`] can close every one of them;
//! each handler drops its own handle when its connection ends, so fds do
//! not pile up per client ever accepted.

use crate::resp::{self, Commands};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// What a [`Server`] has seen on its wire so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Connections accepted.
    pub connections: u64,
    /// Requests decoded and served.
    pub requests: u64,
}

struct Shared<H: ?Sized> {
    handler: Arc<H>,
    stop: AtomicBool,
    /// Shutdown handles of the live connections, keyed by connection id.
    conns: Mutex<HashMap<u64, TcpStream>>,
    accepted: AtomicU64,
    requests: AtomicU64,
}

/// A running endpoint. Dropping (or [`stop`]ping) it closes the listener
/// and every open connection; in-flight requests on a dying connection
/// surface as I/O errors at the client.
///
/// [`stop`]: Server::stop
pub struct Server<H: Commands + ?Sized> {
    addr: SocketAddr,
    shared: Arc<Shared<H>>,
    accept_thread: Option<JoinHandle<()>>,
}

impl<H: Commands + ?Sized> Server<H> {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve
    /// `handler` until [`stop`](Self::stop)/drop.
    pub fn bind(addr: &str, handler: Arc<H>) -> io::Result<Self> {
        Self::start(TcpListener::bind(addr)?, handler)
    }

    /// Serve `handler` on an already-bound listener.
    pub fn start(listener: TcpListener, handler: Arc<H>) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            handler,
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            accepted: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-server-{}", H::NAME, addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted and requests served since the start.
    pub fn counters(&self) -> WireCounters {
        WireCounters {
            connections: self.shared.accepted.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, close every open connection, and join the accept
    /// loop. Idempotent.
    pub fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection; the loop
        // re-checks the latch first thing.
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.shared.conns.lock().expect("conns lock").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl<H: Commands + ?Sized> Drop for Server<H> {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<H: Commands + ?Sized>(listener: TcpListener, shared: Arc<Shared<H>>) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        // A connection that cannot be shut down from here is not served.
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let id = next_id;
        next_id += 1;
        {
            let mut conns = shared.conns.lock().expect("conns lock");
            // `stop()` sets the latch before it drains `conns`: checked
            // under the lock, a stream that missed the drain sees it, and
            // breaking drops (closes) the stream.
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            conns.insert(id, handle);
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("{}-conn", H::NAME))
            .spawn(move || {
                let _ =
                    resp::serve_connection(&*conn_shared.handler, stream, &conn_shared.requests);
                conn_shared.conns.lock().expect("conns lock").remove(&id);
            });
        if spawned.is_err() {
            shared.conns.lock().expect("conns lock").remove(&id);
        }
    }
    // Handler threads exit on their own when their stream is shut down
    // (stop()) or the peer disconnects.
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Answers nothing: every connection stays open until the peer or
    /// `stop()` ends it.
    struct Hold;

    impl Commands for Hold {
        const NAME: &'static str = "hold";

        fn run(&self, _: Vec<Vec<bytes::Bytes>>, _: &mut Vec<u8>) {}
    }

    #[test]
    fn stop_closes_every_connection_accepted_around_it() {
        for round in 0..100usize {
            let mut server = Server::bind("127.0.0.1:0", Arc::new(Hold)).expect("bind");
            let addr = server.addr();
            let (connected, first_few) = mpsc::channel();
            let client = std::thread::spawn(move || {
                let mut socks = Vec::new();
                // Connect until the listener is gone (or a cap that keeps
                // the handler threads of one round few).
                while socks.len() < 64 {
                    let Ok(sock) = TcpStream::connect(addr) else {
                        break;
                    };
                    socks.push(sock);
                    let _ = connected.send(());
                }
                socks
            });
            // Stop while the client is mid-stream, at a varying point.
            for _ in 0..=round % 8 {
                let _ = first_few.recv();
            }
            server.stop();
            let socks = client.join().expect("client thread");
            for (i, mut sock) in socks.into_iter().enumerate() {
                // The kernel drops a handshake still in flight when the
                // listener closes without telling the client; the byte
                // makes the peer answer such a socket with a reset. A
                // served connection reads it and stays open.
                let _ = sock.write_all(b"?");
                sock.set_read_timeout(Some(Duration::from_secs(1)))
                    .expect("read timeout");
                match sock.read(&mut [0u8; 1]) {
                    Ok(0) => {}
                    Err(e)
                        if !matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    other => panic!("round {round}, socket {i}: still open after stop: {other:?}"),
                }
            }
        }
    }
}
