//! In-memory records of a run: per-attempt latency samples and trace spans.
//!
//! Every client and server thread appends to a buffer of its own, so
//! recording takes only an uncontended lock and never serialises the
//! threads under test. The buffers are gathered once the run is over.

use sicost_driver::{AttemptObserver, Outcome};
use sicost_engine::{HistoryEvent, HistoryObserver};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::LocalKey;
use std::time::{Duration, Instant};

type Buf<T> = Arc<Mutex<Vec<T>>>;
type Local<T> = RefCell<Option<Buf<T>>>;

/// A set of per-thread append buffers.
struct Buffers<T> {
    all: Mutex<Vec<Buf<T>>>,
}

impl<T> Buffers<T> {
    const fn new() -> Self {
        Self {
            all: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, local: &'static LocalKey<Local<T>>, item: T) {
        local.with(|slot| {
            let mut slot = slot.borrow_mut();
            let buf = slot.get_or_insert_with(|| {
                let buf = Buf::default();
                self.all
                    .lock()
                    .expect("buffer registry poisoned")
                    .push(Arc::clone(&buf));
                buf
            });
            buf.lock().expect("thread buffer poisoned").push(item);
        });
    }

    /// Takes every record appended so far and forgets the buffers of
    /// threads that have exited.
    fn drain(&self) -> Vec<T> {
        let mut all = self.all.lock().expect("buffer registry poisoned");
        let mut out = Vec::new();
        for buf in all.iter() {
            out.append(&mut buf.lock().expect("thread buffer poisoned"));
        }
        all.retain(|buf| Arc::strong_count(buf) > 1);
        out
    }
}

/// One call of a workload's `execute`: the program layer.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into `TxnKind::ALL`.
    pub kind: u8,
    /// How the attempt ended.
    pub outcome: Outcome,
    /// Wall-clock time of the call.
    pub nanos: u64,
    /// When the call returned, in nanoseconds since the trace epoch.
    pub end: u64,
}

/// A traced layer, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The driver's attempt: `attempt_begin` to `attempt_end`.
    Attempt,
    /// The workload's `execute` call.
    Program,
    /// An engine transaction, Begin to Commit or Abort.
    Txn,
    /// Time the transaction blocked acquiring a row or table lock.
    LockWait,
    /// Time the transaction blocked in WAL group commit.
    WalSync,
    /// Time a server thread with a transaction open blocked waiting for
    /// the client's next frame: wire time inside the transaction span.
    FrameWait,
}

/// A timed interval of one attempt. Spans of one attempt share `attempt`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Driver attempt the span belongs to (0 when none was current).
    pub attempt: u64,
    /// Which layer.
    pub layer: Layer,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start: u64,
    /// End, in the same clock.
    pub end: u64,
    /// Records read, for [`Layer::Txn`] spans.
    pub reads: u32,
}

static SAMPLES: Buffers<Sample> = Buffers::new();
static SPANS: Buffers<Span> = Buffers::new();
static NEXT_ATTEMPT: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static SAMPLE_BUF: Local<Sample> = const { RefCell::new(None) };
    static SPAN_BUF: Local<Span> = const { RefCell::new(None) };
    /// The attempt a client thread is running, and when it began.
    static ATTEMPT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// On a server connection thread: the slot its client stamps with the
    /// attempt whose frames it sends.
    static CONN_SLOT: RefCell<Option<Arc<AtomicU64>>> = const { RefCell::new(None) };
    /// The engine transaction open on this thread.
    static TXN: Cell<Option<OpenTxn>> = const { Cell::new(None) };
}

#[derive(Clone, Copy)]
struct OpenTxn {
    start: u64,
    reads: u32,
    attempt: u64,
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Records one program-layer sample.
pub fn sample(sample: Sample) {
    SAMPLES.push(&SAMPLE_BUF, sample);
}

/// Takes every recorded sample.
pub fn drain_samples() -> Vec<Sample> {
    SAMPLES.drain()
}

fn span(attempt: u64, layer: Layer, start: u64, end: u64, reads: u32) {
    SPANS.push(
        &SPAN_BUF,
        Span {
            attempt,
            layer,
            start,
            end,
            reads,
        },
    );
}

/// Records a program span for the attempt current on this thread.
pub fn program_span(start: u64, end: u64) {
    span(current_attempt(), Layer::Program, start, end, 0);
}

/// Takes every recorded span.
pub fn drain_spans() -> Vec<Span> {
    SPANS.drain()
}

/// The attempt this thread's work belongs to: its own on a client
/// thread, the one its client last sent frames for on a server thread.
pub fn current_attempt() -> u64 {
    CONN_SLOT.with(|slot| match &*slot.borrow() {
        Some(slot) => slot.load(Ordering::Acquire),
        None => ATTEMPT.with(|a| a.get().0),
    })
}

/// Marks the calling thread as serving the connection that stamps `slot`.
pub fn serve_for(slot: Arc<AtomicU64>) {
    CONN_SLOT.with(|s| *s.borrow_mut() = Some(slot));
}

/// The driver-side observer: one [`Layer::Attempt`] span per attempt.
pub struct AttemptSpans;

impl AttemptObserver for AttemptSpans {
    fn attempt_begin(&self, _kind: usize, _kind_name: &'static str, _attempt: u32) {
        let id = NEXT_ATTEMPT.fetch_add(1, Ordering::Relaxed);
        ATTEMPT.with(|a| a.set((id, now_ns())));
    }

    fn attempt_end(&self, _outcome: Outcome, _latency: Duration) {
        let (id, start) = ATTEMPT.with(Cell::get);
        span(id, Layer::Attempt, start, now_ns(), 0);
    }
}

/// The engine-side observer: transaction spans and their lock-wait and
/// WAL-sync children, tagged with the attempt they serve.
pub struct EngineSpans;

impl HistoryObserver for EngineSpans {
    fn on_event(&self, event: HistoryEvent) {
        match event {
            HistoryEvent::Begin { .. } => TXN.with(|t| {
                t.set(Some(OpenTxn {
                    start: now_ns(),
                    reads: 0,
                    attempt: current_attempt(),
                }))
            }),
            HistoryEvent::Read { .. } => TXN.with(|t| {
                t.set(t.get().map(|o| OpenTxn {
                    reads: o.reads + 1,
                    ..o
                }))
            }),
            HistoryEvent::Commit { .. } | HistoryEvent::Abort { .. } => {
                if let Some(o) = TXN.with(Cell::take) {
                    span(o.attempt, Layer::Txn, o.start, now_ns(), o.reads);
                }
            }
        }
    }

    fn on_wal_sync(&self, _txn: sicost_common::TxnId, wait: Duration) {
        wait_span(Layer::WalSync, wait);
    }

    fn on_lock_wait(&self, _txn: sicost_common::TxnId, wait: Duration) {
        wait_span(Layer::LockWait, wait);
    }
}

/// Records a wait that has just ended inside the open transaction.
fn wait_span(layer: Layer, wait: Duration) {
    let end = now_ns();
    child_span(layer, end.saturating_sub(wait.as_nanos() as u64), end);
}

/// Records a span inside the engine transaction open on this thread, if
/// there is one.
pub fn child_span(layer: Layer, start: u64, end: u64) {
    if let Some(o) = TXN.with(Cell::get) {
        span(o.attempt, layer, start, end, 0);
    }
}

/// Forwards engine events to several observers sharing the engine's
/// single observer slot.
pub struct Fanout(pub Vec<Arc<dyn HistoryObserver>>);

impl HistoryObserver for Fanout {
    fn on_event(&self, event: HistoryEvent) {
        if let Some((last, rest)) = self.0.split_last() {
            for obs in rest {
                obs.on_event(event.clone());
            }
            last.on_event(event);
        }
    }

    fn on_wal_sync(&self, txn: sicost_common::TxnId, wait: Duration) {
        for obs in &self.0 {
            obs.on_wal_sync(txn, wait);
        }
    }

    fn on_lock_wait(&self, txn: sicost_common::TxnId, wait: Duration) {
        for obs in &self.0 {
            obs.on_lock_wait(txn, wait);
        }
    }
}
