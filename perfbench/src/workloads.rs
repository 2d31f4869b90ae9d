//! The four workloads: engine configuration, population, and set-up.

use crate::record::{self, EngineSpans, Fanout, Sample};
use crate::wire::{Counting, Server, WireCounters};
use sicost_driver::{Outcome, Workload};
use sicost_engine::{CcMode, CostModel, Database, EngineConfig, HistoryObserver};
use sicost_mvsg::SamplingCertifier;
use sicost_server::{ClientPool, RemoteBank, RemoteWorkload};
use sicost_smallbank::workload::TxnRequest;
use sicost_smallbank::{
    MixWeights, SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy, TxnKind,
    WorkloadParams,
};
use sicost_storage::{PagedConfig, StoragePolicy};
use sicost_wal::WalConfig;
use std::sync::Arc;
use std::time::Instant;

/// Closed-loop client threads, one per core of the 2-vCPU reference host.
pub const CLIENTS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Concurrency control.
    pub cc: CcMode,
    /// Storage backend.
    pub storage: StoragePolicy,
    /// Population and access pattern.
    pub params: WorkloadParams,
    /// Driven over TCP loopback through the wire protocol.
    pub wire: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> [Spec; 4] {
    [
        // §IV-E high contention under SSI: SSI bookkeeping dominates.
        Spec {
            name: "ssi-hotspot",
            cc: CcMode::Ssi,
            storage: StoragePolicy::InMemory,
            params: WorkloadParams::paper_high_contention(),
            wire: false,
        },
        // §IV defaults under FUW: bypasses SSI; locks, commit pipeline,
        // WAL group commit and version install dominate.
        Spec {
            name: "si-uniform",
            cc: CcMode::SiFirstUpdaterWins,
            storage: StoragePolicy::InMemory,
            params: WorkloadParams::paper_default(),
            wire: false,
        },
        // Uniform access over a working set 3x the buffer pool (the three
        // tables the programs touch, 64 hash pages each, against 64
        // frames), zero page latency: a miss costs the program's own
        // decode, evict and write-back work. 512 customers (8 per page)
        // rather than thousands, so that two clients still conflict often
        // enough for `abort_pct` to be measured steadily.
        Spec {
            name: "paged-uniform",
            cc: CcMode::SiFirstUpdaterWins,
            storage: StoragePolicy::Paged(
                PagedConfig::default()
                    .with_pages_per_table(64)
                    .with_pool_pages(64),
            ),
            params: WorkloadParams {
                customers: 512,
                hotspot: 512,
                p_hot: 1.0,
                mix: MixWeights::uniform(),
            },
            wire: false,
        },
        // The si-uniform shape over the wire protocol on TCP loopback, but
        // with a hotspot of 100: at about a tenth of si-uniform's rate, a
        // run would see too few conflicts for `abort_pct` to be steady.
        Spec {
            name: "wire-tcp",
            cc: CcMode::SiFirstUpdaterWins,
            storage: StoragePolicy::InMemory,
            params: WorkloadParams::paper_default().scaled(18_000, 100),
            wire: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The engine-intrinsic mode: `postgres_like()` semantics (FUW,
    /// lock-only `FOR UPDATE`, 16 shards, vacuum every 20 000 commits)
    /// with the simulated CPU and WAL device costs switched off.
    pub fn engine(&self, trace: bool) -> EngineConfig {
        EngineConfig::postgres_like()
            .with_cost(CostModel::zero())
            .with_wal(WalConfig::instant())
            .with_cc(self.cc)
            .with_storage(self.storage)
            .with_trace_timings(trace)
    }

    /// One line describing the mode, for the report header.
    pub fn describe(&self) -> String {
        let e = self.engine(false);
        format!(
            "engine-intrinsic (postgres_like, cost model zero, WAL instant): cc={:?} sfu={:?} \
             shards={} vacuum_every={:?} storage={} customers={} hotspot={} p_hot={} \
             strategy=BaseSI clients={CLIENTS} retries=off transport={}",
            e.cc,
            e.sfu,
            e.shards,
            e.vacuum.every_commits,
            e.storage,
            self.params.customers,
            self.params.hotspot,
            self.params.p_hot,
            if self.wire {
                "tcp-loopback"
            } else {
                "in-process"
            },
        )
    }
}

/// Observers of a traced instance.
pub struct Tracing {
    /// Online MVSG certification (on `ssi-hotspot` only).
    pub certifier: Option<Arc<SamplingCertifier>>,
}

/// The endpoint the closed-loop SmallBank clients send transactions to.
pub enum Target {
    /// The engine in process.
    InProcess(SmallBankDriver),
    /// The engine behind the loopback server.
    Wire {
        /// The client side.
        workload: RemoteWorkload<Counting>,
        /// Client-side frame traffic.
        counters: Arc<WireCounters>,
        /// The server side.
        server: Server,
    },
}

/// A populated database and the target that drives it.
pub struct Instance {
    /// The bank (the server's, on `wire-tcp`).
    pub bank: Arc<SmallBank>,
    /// The endpoint the closed-loop SmallBank clients send transactions to.
    pub target: Target,
    /// Observers attached when traced.
    pub tracing: Option<Tracing>,
}

impl Instance {
    /// Builds and populates the database (plus, on `wire-tcp`, binds the
    /// server, dials both pooled connections and completes the
    /// handshakes). Returns the instance and its set-up time.
    pub fn setup(spec: &Spec, seed: u64, trace: bool) -> (Instance, f64) {
        let t0 = Instant::now();
        let tracing = trace.then(|| Tracing {
            certifier: (spec.cc == CcMode::Ssi).then(SamplingCertifier::with_defaults),
        });
        let observer: Option<Arc<dyn HistoryObserver>> = tracing.as_ref().map(|t| {
            let mut fan: Vec<Arc<dyn HistoryObserver>> = vec![Arc::new(EngineSpans)];
            if let Some(c) = &t.certifier {
                fan.push(c.clone());
            }
            Arc::new(Fanout(fan)) as Arc<dyn HistoryObserver>
        });
        let population = SmallBankConfig {
            seed,
            ..SmallBankConfig::small(spec.params.customers)
        };
        let bank = Arc::new(SmallBank::with_observer(
            &population,
            spec.engine(trace),
            Strategy::BaseSI,
            observer,
        ));
        let requests = SmallBankWorkload::new(spec.params);
        let target = if spec.wire {
            let server = Server::start(bank.clone(), trace).expect("bind loopback server");
            let counters = Arc::new(WireCounters::default());
            let pool = ClientPool::new(CLIENTS, server.dialer(counters.clone()));
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| pool.checkout().expect("dial the loopback server"))
                .collect();
            for c in clients {
                pool.checkin(c);
            }
            let remote = RemoteBank::new(pool).expect("handshake catalog");
            Target::Wire {
                workload: RemoteWorkload::new(remote, requests),
                counters,
                server,
            }
        } else {
            Target::InProcess(SmallBankDriver::new(bank.clone(), requests))
        };
        let secs = t0.elapsed().as_secs_f64();
        (
            Instance {
                bank,
                target,
                tracing,
            },
            secs,
        )
    }

    /// The database under test.
    pub fn db(&self) -> &Database {
        self.bank.db()
    }

    /// Hangs up the clients and stops the server, joining its threads.
    pub fn teardown(self) {
        if let Target::Wire {
            workload, server, ..
        } = self.target
        {
            drop(workload);
            server.stop();
        }
    }
}

/// Wraps a workload so each `execute` call is timed at nanosecond
/// resolution (and, when traced, recorded as a program span).
pub struct Timed<'a, W> {
    /// The wrapped workload.
    pub inner: &'a W,
    /// Record program spans.
    pub trace: bool,
}

impl<W: Workload<Request = TxnRequest>> Workload for Timed<'_, W> {
    type Request = TxnRequest;

    fn kinds(&self) -> Vec<&'static str> {
        self.inner.kinds()
    }

    fn sample(&self, rng: &mut sicost_common::Xoshiro256) -> (usize, TxnRequest) {
        self.inner.sample(rng)
    }

    fn execute(&self, request: &TxnRequest, attempt: u32) -> Outcome {
        let start = record::now_ns();
        let outcome = self.inner.execute(request, attempt);
        let end = record::now_ns();
        let kind = TxnKind::ALL
            .iter()
            .position(|k| *k == request.kind())
            .expect("known kind") as u8;
        record::sample(Sample {
            kind,
            outcome,
            nanos: end - start,
            end,
        });
        if self.trace {
            record::program_span(start, end);
        }
        outcome
    }
}
