//! Per-layer metrics of a traced phase: self times from the spans, and
//! per-commit ratios from the engine, WAL, pool and wire counters.

use crate::phase::Phase;
use crate::record::{Layer, Sample, Span};
use crate::report::{percentile_us, ratio, Report};
use crate::workloads::CLIENTS;
use sicost_common::LockWait;
use sicost_driver::Outcome;
use sicost_smallbank::TxnKind;

/// Span totals over every attempt of a traced run, in nanoseconds.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Attempts with a driver span, a program span and an engine
    /// transaction.
    pub attempts: u64,
    /// Attempts with a driver span that lack either of the others.
    pub incomplete: u64,
    /// Engine transactions.
    pub txns: u64,
    /// WAL group-commit waits.
    pub wal_syncs: u64,
    /// Records read by the engine transactions.
    pub reads: u64,
    /// Driver attempt time.
    pub attempt_ns: u64,
    /// Program (`execute`) time.
    pub program_ns: u64,
    /// Engine transaction time, less the server's frame waits inside it.
    pub engine_ns: u64,
    /// Lock-wait time.
    pub lock_ns: u64,
    /// WAL-sync time.
    pub wal_ns: u64,
    /// Per attempt: program time outside engine work (the rest of the
    /// program, plus on the wire path the client, codec and network).
    pub outside_ns: Vec<u64>,
}

fn overlap(a: &Span, b: &Span) -> u64 {
    a.end.min(b.end).saturating_sub(a.start.max(b.start))
}

impl SelfTimes {
    /// Folds spans (nested attempt ⊇ program ⊇ txn ⊇ {lock wait, WAL
    /// sync, frame wait}, grouped by attempt id) into layer totals,
    /// sorting `spans` by attempt on the way.
    pub fn from_spans(spans: &mut [Span]) -> SelfTimes {
        spans.sort_unstable_by_key(|s| (s.attempt, s.layer, s.start));
        let mut t = SelfTimes::default();
        for group in spans.chunk_by(|a, b| a.attempt == b.attempt) {
            let attempt = &group[0];
            if attempt.attempt == 0 || attempt.layer != Layer::Attempt {
                continue;
            }
            let program = group.iter().find(|s| s.layer == Layer::Program);
            let Some(program) = program.filter(|_| group.iter().any(|s| s.layer == Layer::Txn))
            else {
                t.incomplete += 1;
                continue;
            };
            t.attempts += 1;
            t.attempt_ns += attempt.end - attempt.start;
            t.program_ns += program.end - program.start;
            let mut engine = 0u64;
            for s in group {
                let len = s.end - s.start;
                match s.layer {
                    Layer::Attempt | Layer::Program => {}
                    Layer::Txn => {
                        t.txns += 1;
                        t.reads += u64::from(s.reads);
                        t.engine_ns += len;
                        engine += overlap(s, program);
                    }
                    Layer::LockWait => t.lock_ns += len,
                    Layer::WalSync => {
                        t.wal_syncs += 1;
                        t.wal_ns += len;
                    }
                    Layer::FrameWait => {
                        t.engine_ns = t.engine_ns.saturating_sub(len);
                        engine = engine.saturating_sub(len);
                    }
                }
            }
            t.outside_ns
                .push((program.end - program.start).saturating_sub(engine));
        }
        t
    }

    /// Program time outside engine work, summed.
    pub fn outside_total(&self) -> u64 {
        self.outside_ns.iter().sum()
    }

    /// Engine time outside lock and WAL waits.
    pub fn txn_self_ns(&self) -> u64 {
        self.engine_ns.saturating_sub(self.lock_ns + self.wal_ns)
    }

    /// Prints the per-layer self-time table.
    pub fn print_table(&self, workload: &str, wire: bool) {
        let per = |ns: u64| ratio(ns as f64 / 1e3, self.attempts as f64);
        let share = |ns: u64| ratio(ns as f64 * 100.0, self.attempt_ns as f64);
        let outside = if wire {
            "client, codec and network (outside engine)"
        } else {
            "program (outside engine txn)"
        };
        println!(
            "self time per layer, {workload}, traced run ({} attempts):",
            self.attempts
        );
        println!("  {:<45} {:>12} {:>9}", "layer", "us/attempt", "share");
        for (label, ns) in [
            (
                "driver attempt (outside program)",
                self.attempt_ns.saturating_sub(self.program_ns),
            ),
            (outside, self.outside_total()),
            (
                "engine txn (outside lock and WAL waits)",
                self.txn_self_ns(),
            ),
            ("lock wait", self.lock_ns),
            ("WAL sync", self.wal_ns),
        ] {
            println!("  {label:<45} {:>12.3} {:>8.2}%", per(ns), share(ns));
        }
        println!(
            "  {:<45} {:>12.3} {:>8.2}%",
            "total (driver attempt)",
            per(self.attempt_ns),
            100.0
        );
    }
}

/// One lock class's contention during the phase.
fn lock_class(p: &Phase, class: &str) -> LockWait {
    let find = |m: &sicost_engine::EngineMetrics| {
        m.lock_wait(class)
            .unwrap_or_else(|| panic!("lock class {class} missing"))
            .clone()
    };
    let (before, after) = (find(&p.before.metrics), find(&p.after.metrics));
    LockWait {
        class: class.to_string(),
        acquisitions: after.acquisitions - before.acquisitions,
        contended: after.contended - before.contended,
        wait: after.wait - before.wait,
    }
}

/// Adds the per-kind program metrics (`smallbank.*`) of a phase.
pub fn smallbank(report: &mut Report, samples: &[Sample]) {
    for (i, kind) in TxnKind::ALL.iter().enumerate() {
        let of_kind: Vec<&Sample> = samples.iter().filter(|s| s.kind as usize == i).collect();
        let mut committed: Vec<u64> = of_kind
            .iter()
            .filter(|s| s.outcome == Outcome::Committed)
            .map(|s| s.nanos)
            .collect();
        committed.sort_unstable();
        let aborted = of_kind.iter().filter(|s| is_abort(s.outcome)).count();
        let name = kind.name();
        report.metric(
            &format!("smallbank.{name}.p50_us"),
            percentile_us(&committed, 0.50),
            "us",
        );
        report.metric(
            &format!("smallbank.{name}.p99_us"),
            percentile_us(&committed, 0.99),
            "us",
        );
        report.metric(
            &format!("smallbank.{name}.abort_pct"),
            ratio(aborted as f64 * 100.0, of_kind.len() as f64),
            "%",
        );
    }
    let rollbacks = samples
        .iter()
        .filter(|s| s.outcome == Outcome::ApplicationRollback)
        .count();
    report.metric(
        "smallbank.app_rollback_pct",
        ratio(rollbacks as f64 * 100.0, samples.len() as f64),
        "%",
    );
}

/// True for the outcomes `abort_pct` counts: every attempt that ended in
/// a serialization failure, deadlock, transient fault or unknown fate.
fn is_abort(outcome: Outcome) -> bool {
    matches!(
        outcome,
        Outcome::SerializationFailure
            | Outcome::Deadlock
            | Outcome::TransientFault
            | Outcome::Indeterminate
    )
}

/// Adds the engine, WAL, storage, pool and wire metrics of a traced phase.
pub fn engine(report: &mut Report, p: &Phase, t: &SelfTimes) {
    let measured = p.run.measured;
    let (b, a) = (&p.before.metrics, &p.after.metrics);
    let commits = p.engine_commits() as f64;
    let attempts = p.samples.len() as f64;
    let client_secs = CLIENTS as f64 * measured.as_secs_f64();
    let wait_share = |w: &LockWait| w.wait.as_secs_f64() / client_secs;
    let per_commit = |n: u64| ratio(n as f64, commits);
    let us = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);

    report.metric(
        "driver.self_us_mean",
        us(t.attempt_ns.saturating_sub(t.program_ns), t.attempts),
        "us",
    );
    report.metric("txn.engine_us_mean", us(t.engine_ns, t.txns), "us");
    report.metric("txn.self_us_mean", us(t.txn_self_ns(), t.txns), "us");
    report.metric(
        "txn.reads_per_attempt",
        ratio(t.reads as f64, t.attempts as f64),
        "reads/attempt",
    );
    report.metric(
        "txn.residual_pct",
        ratio(t.outside_total() as f64 * 100.0, t.program_ns as f64),
        "%",
    );

    let entries = lock_class(p, "lock.entries");
    let held = lock_class(p, "lock.held");
    let graph = lock_class(p, "lock.wait_graph");
    report.metric(
        "locks.row_wait_us_per_attempt",
        us(t.lock_ns, t.attempts),
        "us",
    );
    report.metric(
        "locks.entries.contended_pct",
        ratio(
            entries.contended as f64 * 100.0,
            entries.acquisitions as f64,
        ),
        "%",
    );
    report.metric(
        "locks.held.contended_pct",
        ratio(held.contended as f64 * 100.0, held.acquisitions as f64),
        "%",
    );
    report.metric(
        "locks.wait_graph.acq_per_commit",
        per_commit(graph.acquisitions),
        "acq/commit",
    );
    report.metric(
        "locks.deadlock_pct",
        ratio(
            (a.aborts_deadlock - b.aborts_deadlock) as f64 * 100.0,
            attempts,
        ),
        "%",
    );

    let txns = lock_class(p, "ssi.txns");
    let reads = lock_class(p, "ssi.reads");
    report.metric(
        "ssi.txns.acq_per_commit",
        per_commit(txns.acquisitions),
        "acq/commit",
    );
    report.metric("ssi.txns.wait_share", wait_share(&txns), "ratio");
    report.metric(
        "ssi.reads.acq_per_commit",
        per_commit(reads.acquisitions),
        "acq/commit",
    );
    report.metric("ssi.reads.wait_share", wait_share(&reads), "ratio");
    report.metric("ssi.siread_entries", p.gauges.siread_mean, "count");
    report.metric(
        "ssi.pivot_abort_pct",
        ratio((a.aborts_ssi - b.aborts_ssi) as f64 * 100.0, attempts),
        "%",
    );
    report.metric(
        "ssi.txns_reclaimed_per_commit",
        per_commit(a.ssi_txns_reclaimed - b.ssi_txns_reclaimed),
        "count/commit",
    );

    let seq = lock_class(p, "commit.seq");
    let install = lock_class(p, "commit.install");
    let publish = lock_class(p, "commit.publish");
    report.metric("commit.seq.wait_share", wait_share(&seq), "ratio");
    report.metric("commit.install.wait_share", wait_share(&install), "ratio");
    report.metric(
        "commit.install.acq_per_commit",
        per_commit(install.acquisitions),
        "acq/commit",
    );
    report.metric("commit.publish.wait_share", wait_share(&publish), "ratio");
    report.metric(
        "commit.publish_batch_mean",
        ratio(
            (a.publish_batched_commits - b.publish_batched_commits) as f64,
            (a.publish_batches - b.publish_batches) as f64,
        ),
        "commits/batch",
    );

    let (wb, wa) = (&p.before.wal, &p.after.wal);
    report.metric("wal.sync_us_mean", us(t.wal_ns, t.wal_syncs), "us");
    report.metric(
        "wal.batch_mean",
        ratio(
            (wa.records - wb.records) as f64,
            (wa.batches - wb.batches) as f64,
        ),
        "records/batch",
    );
    report.metric(
        "wal.bytes_per_commit",
        per_commit(wa.appended_bytes - wb.appended_bytes),
        "B/commit",
    );

    let vacuum_runs = a.vacuum_runs - b.vacuum_runs;
    let pause = a.vacuum_pause - b.vacuum_pause;
    report.metric(
        "storage.chain_len_max",
        p.gauges.chain_len_max as f64,
        "versions",
    );
    report.metric(
        "storage.versions_pruned_per_commit",
        per_commit(a.versions_pruned - b.versions_pruned),
        "count/commit",
    );
    report.metric("vacuum.runs", vacuum_runs as f64, "count");
    report.metric(
        "vacuum.pause_ms_mean",
        ratio(pause.as_secs_f64() * 1e3, vacuum_runs as f64),
        "ms",
    );
    report.metric(
        "vacuum.pause_share",
        pause.as_secs_f64() / measured.as_secs_f64(),
        "ratio",
    );

    let pool = a.pool.zip(b.pool);
    let pool_delta = |f: fn(&sicost_storage::PoolStats) -> u64| {
        pool.map_or(0, |(after, before)| f(&after) - f(&before))
    };
    let (hits, misses) = (pool_delta(|s| s.hits), pool_delta(|s| s.misses));
    report.metric(
        "pool.hit_pct",
        ratio(hits as f64 * 100.0, (hits + misses) as f64),
        "%",
    );
    report.metric("pool.misses_per_commit", per_commit(misses), "count/commit");
    report.metric(
        "pool.evictions_per_commit",
        per_commit(pool_delta(|s| s.evictions)),
        "count/commit",
    );
    report.metric(
        "pool.writebacks_per_commit",
        per_commit(pool_delta(|s| s.dirty_writebacks)),
        "count/commit",
    );

    report.metric(
        "wire.frames_per_commit",
        per_commit(p.wire.frames),
        "frames/commit",
    );
    report.metric(
        "wire.bytes_per_commit",
        per_commit(p.wire.bytes),
        "B/commit",
    );
    report.metric(
        "wire.recv_wait_us_per_commit",
        ratio(p.wire.recv_wait.as_secs_f64() * 1e6, commits),
        "us",
    );
    let mut outside = t.outside_ns.clone();
    outside.sort_unstable();
    report.metric("wire.overhead_us_p50", percentile_us(&outside, 0.50), "us");
}
