//! The wire layer, measured from outside: a counting wrapper over the
//! public `Transport` trait, and a loopback TCP front-end that serves each
//! connection with `sicost_server::serve_connection`.
//!
//! The front-end is the benchmark's own (rather than `TcpServer`) only so
//! that a traced run can see into the serving threads: each learns which
//! client connection it serves (the client stamps a per-connection slot
//! with the attempt whose frames it sends, and the serving thread tags its
//! engine spans with that attempt), and its transport records the frame
//! waits inside each transaction.

use crate::record::{self, Layer};
use sicost_server::{serve_connection, Client, ClientError, NetError, TcpTransport, Transport};
use sicost_smallbank::SmallBank;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client-side frame traffic, summed over every pooled connection.
#[derive(Debug, Default)]
pub struct WireCounters {
    frames: AtomicU64,
    bytes: AtomicU64,
    recv_wait_ns: AtomicU64,
}

/// A point-in-time copy of [`WireCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTotals {
    /// Frames sent plus frames received.
    pub frames: u64,
    /// Bytes sent plus received, length prefixes included.
    pub bytes: u64,
    /// Time the client blocked in `recv_frame`.
    pub recv_wait: Duration,
}

impl WireCounters {
    /// Current totals.
    pub fn totals(&self) -> WireTotals {
        WireTotals {
            frames: self.frames.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            recv_wait: Duration::from_nanos(self.recv_wait_ns.load(Ordering::Relaxed)),
        }
    }

    fn add(&self, payload: usize) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(payload as u64 + 4, Ordering::Relaxed);
    }
}

impl WireTotals {
    /// Traffic between two snapshots.
    pub fn since(self, earlier: WireTotals) -> WireTotals {
        WireTotals {
            frames: self.frames - earlier.frames,
            bytes: self.bytes - earlier.bytes,
            recv_wait: self.recv_wait - earlier.recv_wait,
        }
    }
}

/// `TcpTransport` plus frame, byte and receive-wait counting.
pub struct Counting {
    inner: TcpTransport,
    counters: Arc<WireCounters>,
    slot: Arc<AtomicU64>,
}

impl Transport for Counting {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.slot
            .store(record::current_attempt(), Ordering::Release);
        self.counters.add(payload.len());
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let t0 = Instant::now();
        let frame = self.inner.recv_frame()?;
        self.counters
            .recv_wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.add(frame.len());
        Ok(frame)
    }
}

/// The server side of a traced connection: `TcpTransport` recording the
/// time its thread waits for the client's next frame while a transaction
/// is open.
struct FrameWaits(TcpTransport);

impl Transport for FrameWaits {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.0.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        let start = record::now_ns();
        let frame = self.0.recv_frame();
        record::child_span(Layer::FrameWait, start, record::now_ns());
        frame
    }
}

/// Attempt slots by client port, filled by the dialer and awaited by the
/// serving thread of the matching accepted connection.
#[derive(Default)]
struct Slots {
    by_port: Mutex<HashMap<u16, Arc<AtomicU64>>>,
    added: Condvar,
}

impl Slots {
    fn insert(&self, port: u16, slot: Arc<AtomicU64>) {
        self.by_port
            .lock()
            .expect("slot map poisoned")
            .insert(port, slot);
        self.added.notify_all();
    }

    /// The slot the client on `port` registered, waiting briefly for the
    /// dialer, which registers right after its connect returns.
    fn take(&self, port: u16) -> Option<Arc<AtomicU64>> {
        let map = self.by_port.lock().expect("slot map poisoned");
        let (mut map, _) = self
            .added
            .wait_timeout_while(map, Duration::from_secs(5), |m| !m.contains_key(&port))
            .expect("slot map poisoned");
        map.remove(&port)
    }
}

/// A loopback server: an accept thread plus one thread per connection.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    slots: Arc<Slots>,
}

impl Server {
    /// Binds an ephemeral loopback port and starts serving `bank`;
    /// `trace` records the serving threads' frame waits.
    pub fn start(bank: Arc<SmallBank>, trace: bool) -> std::io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let slots = Arc::new(Slots::default());
        let accept = {
            let (shutdown, conns, slots) = (shutdown.clone(), conns.clone(), slots.clone());
            std::thread::Builder::new()
                .name("perfbench-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let (bank, slots) = (bank.clone(), slots.clone());
                        let handle = std::thread::Builder::new()
                            .name("perfbench-conn".into())
                            .spawn(move || {
                                let port = stream.peer_addr().map_or(0, |a| a.port());
                                if let Some(slot) = slots.take(port) {
                                    record::serve_for(slot);
                                }
                                let tcp = TcpTransport::new(stream);
                                // The client hangs up when the run ends; any
                                // other error shows in the client's checks.
                                let _ = if trace {
                                    serve_connection(bank.db(), &mut FrameWaits(tcp))
                                } else {
                                    serve_connection(bank.db(), &mut { tcp })
                                };
                            })
                            .expect("spawn connection thread");
                        conns.lock().expect("conns poisoned").push(handle);
                    }
                })?
        };
        Ok(Server {
            addr,
            shutdown,
            accept,
            conns,
            slots,
        })
    }

    /// A dialer for a client pool: each call opens one counted connection
    /// and completes the protocol handshake.
    pub fn dialer(
        &self,
        counters: Arc<WireCounters>,
    ) -> impl Fn() -> Result<Client<Counting>, ClientError> + Send + Sync + 'static {
        let (addr, slots) = (self.addr, self.slots.clone());
        move || {
            let io = |e: std::io::Error| ClientError::Net(NetError::Io(e.to_string()));
            let stream = TcpStream::connect(addr).map_err(io)?;
            let slot = Arc::new(AtomicU64::new(0));
            slots.insert(stream.local_addr().map_err(io)?.port(), slot.clone());
            Client::connect(Counting {
                inner: TcpTransport::new(stream),
                counters: counters.clone(),
                slot,
            })
        }
    }

    /// Stops accepting and joins every thread. Clients must have hung up.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.accept.join().expect("accept thread panicked");
        let handles = std::mem::take(&mut *self.conns.lock().expect("conns poisoned"));
        for h in handles {
            h.join().expect("connection thread panicked");
        }
    }
}
