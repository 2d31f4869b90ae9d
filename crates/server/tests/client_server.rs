//! Client/server equivalence and determinism.
//!
//! * The same seeded request stream executed in-process and over the
//!   simulated network must produce identical outcome projections and
//!   identical final balances, under each concurrency-control mode
//!   (BaseSI's first-updater-wins, first-committer-wins, SSI).
//! * A full multi-client client/server SmallBank run under the
//!   simulated network is a pure function of its seed: two same-seed
//!   runs replay byte-identically (same `SimReport`, same outcomes).
//! * The real TCP backend serves the same protocol (loopback smoke).
//! * Each program's wire shape (frames sent, round trips) is pinned, so
//!   a write that waits for its reply instead of riding the commit
//!   flush shows up as an extra round trip.
//! * `run_open` drives the remote workload through a client transport,
//!   with queue delay visible to the `attempt_queued` hook and the
//!   server side rendered as `sicost-trace` JSONL spans.

use sicost_common::sync::{sim_spawn, SimJoinHandle};
use sicost_common::{Money, Xoshiro256};
use sicost_driver::{run_open, AttemptObserver, OpenConfig, Outcome, Workload};
use sicost_engine::{CcMode, Database, EngineConfig, HistoryObserver};
use sicost_server::{
    classify_remote, serve_connection, Client, ClientError, ClientPool, NetError, RemoteBank,
    RemoteWorkload, SimNet, SimNetConfig, SimTransport, TcpServer, TcpTransport, Transport,
};
use sicost_sim::Sim;
use sicost_smallbank::driver_adapter::SmallBankDriver;
use sicost_smallbank::schema::{build_database, customer_name, total_balance, Tables};
use sicost_smallbank::workload::WorkloadParams;
use sicost_smallbank::{SmallBank, SmallBankConfig, SmallBankWorkload, Strategy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

const CUSTOMERS: u64 = 40;

fn sb_config() -> SmallBankConfig {
    SmallBankConfig::small(CUSTOMERS)
}

/// A populated SmallBank database behind an `Arc`, plus its table ids.
fn arc_db(cc: CcMode, observer: Option<Arc<dyn HistoryObserver>>) -> (Arc<Database>, Tables) {
    let (db, tables) = build_database(
        &sb_config(),
        EngineConfig::functional().with_cc(cc),
        observer,
    );
    (Arc::new(db), tables)
}

fn params() -> WorkloadParams {
    WorkloadParams::paper_default().scaled(CUSTOMERS, 10)
}

type ServeHandles = Arc<StdMutex<Vec<SimJoinHandle<()>>>>;

/// A client pool over the simulated network, each client end passed
/// through `wrap`. Each dial spawns a dedicated server task for the new
/// connection; the returned handle list must be joined after the pool
/// is dropped.
fn sim_pool<T: Transport + 'static>(
    db: &Arc<Database>,
    net: &Arc<SimNet>,
    connections: usize,
    wrap: impl Fn(SimTransport) -> T + Send + Sync + 'static,
) -> (ClientPool<T>, ServeHandles) {
    let handles: ServeHandles = Arc::default();
    let pool = {
        let db = Arc::clone(db);
        let net = Arc::clone(net);
        let handles = Arc::clone(&handles);
        ClientPool::new(connections, move || {
            let (client_end, mut server_end) = net.connect();
            let db = Arc::clone(&db);
            let h = sim_spawn("server-conn", move || {
                let _ = serve_connection(&db, &mut server_end);
            });
            handles.lock().expect("handles lock").push(h);
            Client::connect(wrap(client_end))
        })
    };
    (pool, handles)
}

fn join_all(handles: &ServeHandles) {
    let handles = std::mem::take(&mut *handles.lock().expect("handles lock"));
    for h in handles {
        h.join().expect("server task");
    }
}

#[test]
fn in_process_and_simulated_net_runs_are_equivalent() {
    const SEED: u64 = 0x5EA51DE;
    const N: usize = 80;
    for cc in [
        CcMode::SiFirstUpdaterWins,
        CcMode::SiFirstCommitterWins,
        CcMode::Ssi,
    ] {
        // In-process: the sampled stream through the local procedures.
        let local = Arc::new(SmallBank::new(
            &sb_config(),
            EngineConfig::functional().with_cc(cc),
            Strategy::BaseSI,
        ));
        let driver = SmallBankDriver::new(Arc::clone(&local), SmallBankWorkload::new(params()));
        let mut rng = Xoshiro256::seed_from_u64(SEED);
        let local_outcomes: Vec<Outcome> = (0..N)
            .map(|_| {
                let (_, req) = Workload::sample(&driver, &mut rng);
                driver.execute(&req, 1)
            })
            .collect();

        // Over the simulated network against a fresh identical database.
        let ((remote_outcomes, remote_total), _report) = Sim::new(0xC0FFEE).run(|| {
            let (db, tables) = arc_db(cc, None);
            let net = SimNet::new(SimNetConfig::clean(SEED));
            let (pool, handles) = sim_pool(&db, &net, 1, |t| t);
            let remote = RemoteBank::new(pool).expect("handshake");
            let workload = SmallBankWorkload::new(params());
            let mut rng = Xoshiro256::seed_from_u64(SEED);
            let outcomes: Vec<Outcome> = (0..N)
                .map(|_| classify_remote(remote.execute(&workload.sample(&mut rng))))
                .collect();
            drop(remote); // drops the pool → kills the transports
            join_all(&handles);
            (outcomes, total_balance(&db, &tables))
        });

        assert_eq!(
            local_outcomes, remote_outcomes,
            "cc={cc:?}: outcome projections must match request for request"
        );
        assert_eq!(
            local.total_balance(),
            remote_total,
            "cc={cc:?}: both executions must move the same money"
        );
        assert!(
            remote_outcomes.contains(&Outcome::Committed),
            "cc={cc:?}: the run must make progress"
        );
    }
}

/// Fingerprint of one simulated client/server run: everything that must
/// replay byte-identically from the seed.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    outcomes: Vec<Vec<Outcome>>,
    total_cents: i64,
    trace_hash: u64,
    decisions: u64,
    virtual_ns: u128,
}

/// A concurrent run: `clients` tasks, each with its own connection and
/// request stream, against one shared server database.
fn concurrent_sim_run(seed: u64, clients: usize, per_client: usize) -> RunFingerprint {
    let ((outcomes, total_cents), report) = Sim::new(seed).run(|| {
        let (db, tables) = arc_db(CcMode::Ssi, None);
        let net = SimNet::new(SimNetConfig::clean(seed ^ 0xA0));
        let mut workers = Vec::new();
        for c in 0..clients {
            let db = Arc::clone(&db);
            let net = Arc::clone(&net);
            workers.push(sim_spawn(&format!("client-{c}"), move || {
                let (pool, handles) = sim_pool(&db, &net, 1, |t| t);
                let remote = RemoteBank::new(pool).expect("handshake");
                let workload = SmallBankWorkload::new(params());
                let mut rng = Xoshiro256::seed_from_u64(seed ^ ((c as u64) << 32));
                let outcomes: Vec<Outcome> = (0..per_client)
                    .map(|_| classify_remote(remote.execute(&workload.sample(&mut rng))))
                    .collect();
                drop(remote);
                join_all(&handles);
                outcomes
            }));
        }
        let outcomes: Vec<Vec<Outcome>> = workers
            .into_iter()
            .map(|h| h.join().expect("client task"))
            .collect();
        (outcomes, total_balance(&db, &tables).as_cents())
    });
    RunFingerprint {
        outcomes,
        total_cents,
        trace_hash: report.trace_hash,
        decisions: report.decisions,
        virtual_ns: report.virtual_time.as_nanos(),
    }
}

#[test]
fn same_seed_client_server_runs_replay_byte_identically() {
    for seed in [0xD15C0, 42] {
        let a = concurrent_sim_run(seed, 3, 12);
        let b = concurrent_sim_run(seed, 3, 12);
        assert_eq!(
            a, b,
            "seed {seed:#x}: a client/server run must be a pure function of its seed"
        );
        let committed = a
            .outcomes
            .iter()
            .flatten()
            .filter(|o| **o == Outcome::Committed)
            .count();
        assert!(committed > 0, "seed {seed:#x}: the run must make progress");
    }
    // Different seeds must actually diverge somewhere (the fingerprint
    // is not vacuously constant).
    let a = concurrent_sim_run(1, 3, 12);
    let b = concurrent_sim_run(2, 3, 12);
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "schedules must depend on the seed"
    );
}

/// Frames a client sent, and its round trips: each turn from sending
/// to receiving.
#[derive(Default)]
struct WireCount {
    frames: AtomicU64,
    round_trips: AtomicU64,
}

/// A client transport that counts into a shared [`WireCount`].
struct Counted {
    inner: SimTransport,
    count: Arc<WireCount>,
    sent_since_recv: bool,
}

impl Transport for Counted {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.count.frames.fetch_add(1, Ordering::Relaxed);
        self.sent_since_recv = true;
        self.inner.send_frame(payload)
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, NetError> {
        if std::mem::take(&mut self.sent_since_recv) {
            self.count.round_trips.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.recv_frame()
    }
}

#[test]
fn each_program_keeps_its_wire_shape() {
    let (shapes, _report) = Sim::new(0x5A4E).run(|| {
        let (db, _tables) = arc_db(CcMode::SiFirstUpdaterWins, None);
        let net = SimNet::new(SimNetConfig::clean(0x5A4E));
        let count = Arc::new(WireCount::default());
        let (pool, handles) = sim_pool(&db, &net, 1, {
            let count = Arc::clone(&count);
            move |inner| Counted {
                inner,
                count: Arc::clone(&count),
                sent_since_recv: false,
            }
        });
        // The handshake dials the pool's only connection; every program
        // below runs on it warm.
        let remote = RemoteBank::new(pool).expect("handshake");
        let (n1, n2) = (customer_name(1), customer_name(2));
        let v = Money::dollars(1);
        let programs: [(&str, &dyn Fn() -> Outcome); 5] = [
            ("Balance", &|| {
                classify_remote(remote.balance(&n1).map(|_| ()))
            }),
            ("DepositChecking", &|| {
                classify_remote(remote.deposit_checking(&n1, v))
            }),
            ("TransactSaving", &|| {
                classify_remote(remote.transact_saving(&n1, v))
            }),
            ("Amalgamate", &|| {
                classify_remote(remote.amalgamate(&n1, &n2))
            }),
            ("WriteCheck", &|| {
                classify_remote(remote.write_check(&n1, v))
            }),
        ];
        let shapes: Vec<(&str, u64, u64)> = programs
            .into_iter()
            .map(|(name, program)| {
                let frames = count.frames.load(Ordering::Relaxed);
                let round_trips = count.round_trips.load(Ordering::Relaxed);
                assert_eq!(program(), Outcome::Committed, "{name}");
                (
                    name,
                    count.frames.load(Ordering::Relaxed) - frames,
                    count.round_trips.load(Ordering::Relaxed) - round_trips,
                )
            })
            .collect();
        drop(remote);
        join_all(&handles);
        shapes
    });
    // (program, frames sent, round trips). Begin and every read wait for
    // their replies (Begin's is drained before the first read is sent);
    // updates ride the commit's flush.
    assert_eq!(
        shapes,
        [
            ("Balance", 5, 5),
            ("DepositChecking", 5, 4),
            ("TransactSaving", 5, 4),
            ("Amalgamate", 10, 7),
            ("WriteCheck", 6, 5),
        ]
    );
}

fn tcp_dial(addr: std::net::SocketAddr) -> impl Fn() -> Result<Client<TcpTransport>, ClientError> {
    move || {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| ClientError::Net(NetError::Io(e.to_string())))?;
        Client::connect(TcpTransport::new(stream))
    }
}

#[test]
fn tcp_loopback_serves_the_same_procedures() {
    // Base SI: sequential transactions under SSI can trip a false pivot
    // on stale SIREAD marks, which is not what this smoke test is about.
    let (db, tables) = arc_db(CcMode::SiFirstUpdaterWins, None);
    let initial = total_balance(&db, &tables);
    let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0").expect("bind loopback");

    let remote =
        RemoteBank::new(ClientPool::new(2, tcp_dial(server.local_addr()))).expect("handshake");
    let rt = remote.tables();
    assert_eq!(
        [rt.account, rt.saving, rt.checking, rt.conflict],
        [
            tables.account,
            tables.saving,
            tables.checking,
            tables.conflict
        ],
        "catalog ids learned over the wire match the builder's"
    );

    let n = customer_name(3);
    let before = remote.balance(&n).expect("balance");
    remote
        .deposit_checking(&n, Money::dollars(25))
        .expect("deposit");
    assert_eq!(
        remote.balance(&n).expect("balance"),
        before + Money::dollars(25)
    );
    remote
        .amalgamate(&n, &customer_name(4))
        .expect("amalgamate");
    assert_eq!(remote.balance(&n).expect("balance"), Money::ZERO);
    assert_eq!(
        total_balance(&db, &tables),
        initial + Money::dollars(25),
        "the wire moves exactly the money the procedures say"
    );
    drop(remote);
    server.shutdown();
}

/// Counts `attempt_queued` callbacks (queue-delay visibility across the
/// network hop).
#[derive(Default)]
struct QueueDelayProbe {
    queued: AtomicU64,
}

impl AttemptObserver for QueueDelayProbe {
    fn attempt_begin(&self, _kind: usize, _kind_name: &'static str, _attempt: u32) {}
    fn attempt_end(&self, _outcome: Outcome, _latency: Duration) {}
    fn attempt_queued(&self, _kind: usize, _kind_name: &'static str, _queue_delay: Duration) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn run_open_drives_the_remote_workload_over_tcp() {
    let trace = sicost_trace::TraceSink::with_capacity(8192);
    let (db, _tables) = arc_db(
        CcMode::SiFirstUpdaterWins,
        Some(trace.clone() as Arc<dyn HistoryObserver>),
    );
    let server = TcpServer::bind(Arc::clone(&db), "127.0.0.1:0").expect("bind loopback");

    let remote =
        RemoteBank::new(ClientPool::new(4, tcp_dial(server.local_addr()))).expect("handshake");
    let workload = RemoteWorkload::new(remote, SmallBankWorkload::new(params()));

    let probe = Arc::new(QueueDelayProbe::default());
    let cfg = OpenConfig::new(300.0)
        .with_horizon(Duration::from_millis(150))
        .with_workers(3)
        .with_seed(0x0CEA)
        .with_observer(probe.clone());
    let m = run_open(&workload, &cfg);

    assert!(m.commits() > 0, "the open run must commit over the wire");
    assert_eq!(
        probe.queued.load(Ordering::Relaxed),
        m.served(),
        "every served request reports its queue delay across the network hop"
    );
    // The server side of the same run renders as JSONL trace spans.
    assert!(trace.recorded() > 0, "history events must assemble spans");
    let jsonl = trace.to_jsonl();
    assert!(
        jsonl.lines().count() as u64 == trace.recorded(),
        "one JSONL line per span"
    );
    drop(workload);
    server.shutdown();
}
