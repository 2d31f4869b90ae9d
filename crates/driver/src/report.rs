//! Rendering experiment results: ASCII tables, CSV, and terminal charts
//! (the bench harnesses print these as their reproduction of the paper's
//! figures).
//!
//! Every diagnostic view implements the [`Report`] trait — a name plus a
//! `render` — so harnesses can collect heterogeneous reports in one
//! `Vec<Box<dyn Report>>` and print them uniformly; a single view prints
//! as e.g. `RetryReport(&metrics).render()`.

use crate::metrics::{OpenMetrics, RunMetrics};
use sicost_common::{LockWait, Summary};

/// A renderable diagnostic view of one run or engine.
pub trait Report {
    /// Short stable identifier (useful as a section heading or filename
    /// stem).
    fn name(&self) -> &'static str;

    /// Renders the view as human-readable text, trailing newline
    /// included. Must be total: empty inputs render as zeros, never NaN
    /// or a panic.
    fn render(&self) -> String;
}

/// [`Report`] over the attempts-vs-goodput profile of one run: per kind,
/// the commit count, every abort class, mean retries per commit,
/// give-ups and mean retry time — the view that separates what clients
/// *submitted* from what the system *got done*.
#[derive(Debug, Clone, Copy)]
pub struct RetryReport<'a>(pub &'a RunMetrics);

/// [`Report`] over the per-kind response-time distribution of one run:
/// commit count and p50/p90/p99/max/mean latency per transaction kind,
/// from the driver's per-kind histograms. Kinds that committed nothing
/// in the window render as zero durations (never NaN — the histogram
/// quantile is zero-safe on empty samples).
#[derive(Debug, Clone, Copy)]
pub struct LatencyReport<'a>(pub &'a RunMetrics);

/// [`Report`] over an engine's per-lock-class contention breakdown: one
/// row per named lock class with acquisition count, how many
/// acquisitions contended, total blocked wall-clock, mean wait per
/// acquisition and the contention ratio — the view that shows *which*
/// serialization point the commit pipeline's wall-clock went to.
#[derive(Debug, Clone, Copy)]
pub struct LockWaitReport<'a>(pub &'a [LockWait]);

/// [`Report`] over an engine's durability/recovery counters:
/// checkpoints taken, WAL bytes reclaimed by truncation, and (for a
/// database built through crash recovery) how many log-suffix bytes
/// replay had to read — the view that shows whether checkpointing is
/// keeping restart cost proportional to the delta rather than the
/// history.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport<'a>(pub &'a sicost_engine::EngineMetrics);

/// [`Report`] over an engine's version-GC and memory-model counters:
/// vacuum runs, versions and SSI bookkeeping records reclaimed, GC pause
/// time, the live max-chain-length / SIREAD gauges the watermark
/// protocol is meant to hold flat, and commit-timestamp publication
/// batching — the view that shows whether sustained load is reaching a
/// memory steady state.
#[derive(Debug, Clone, Copy)]
pub struct VacuumReport<'a>(pub &'a sicost_engine::EngineMetrics);

/// [`Report`] over an open-system run: per kind, what arrived vs what
/// was refused vs what was served, with queue-delay and end-to-end
/// latency quantiles, closing with the goodput-vs-offered-load line.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopReport<'a>(pub &'a OpenMetrics);

impl Report for RetryReport<'_> {
    fn name(&self) -> &'static str {
        "retry"
    }
    fn render(&self) -> String {
        let m = self.0;
        let mut out = format!(
            "{:>12} | {:>9} {:>9} {:>7} {:>7} {:>9} {:>8} {:>8} {:>12}\n",
            "kind",
            "commits",
            "serfail",
            "dlock",
            "faults",
            "rollback",
            "giveups",
            "retries",
            "retry-time"
        );
        out.push_str(&"-".repeat(out.len()));
        out.push('\n');
        for (name, k) in m.kind_names.iter().zip(&m.per_kind) {
            out.push_str(&format!(
                "{:>12} | {:>9} {:>9} {:>7} {:>7} {:>9} {:>8} {:>8.2} {:>10.1?}\n",
                name,
                k.commits,
                k.serialization_failures,
                k.deadlocks,
                k.transient_faults,
                k.app_rollbacks,
                k.give_ups,
                k.retries_per_commit(),
                k.retry_latency.mean(),
            ));
        }
        out.push_str(&format!(
            "goodput {:.1} tps from {} attempts ({} commits, {:.2} retries/commit, {} give-ups)\n",
            m.tps(),
            m.attempts(),
            m.commits(),
            m.retries_per_commit(),
            m.give_ups(),
        ));
        out
    }
}

impl Report for LatencyReport<'_> {
    fn name(&self) -> &'static str {
        "latency"
    }
    fn render(&self) -> String {
        let m = self.0;
        let mut out = format!(
            "{:>12} | {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "kind", "commits", "p50", "p90", "p99", "max", "mean"
        );
        out.push_str(&"-".repeat(out.len()));
        out.push('\n');
        for (name, k) in m.kind_names.iter().zip(&m.per_kind) {
            out.push_str(&format!(
                "{:>12} | {:>9} {:>8.1?} {:>8.1?} {:>8.1?} {:>8.1?} {:>8.1?}\n",
                name,
                k.commits,
                k.latency.quantile(0.50),
                k.latency.quantile(0.90),
                k.latency.quantile(0.99),
                k.latency.max(),
                k.latency.mean(),
            ));
        }
        out.push_str(&format!(
            "overall: {} commits, mean latency {:.1?}\n",
            m.commits(),
            m.mean_latency(),
        ));
        out
    }
}

impl Report for LockWaitReport<'_> {
    fn name(&self) -> &'static str {
        "lock-wait"
    }
    fn render(&self) -> String {
        let classes = self.0;
        let mut out = format!(
            "{:>16} | {:>12} {:>12} {:>12} {:>12} {:>7}\n",
            "lock class", "acquired", "contended", "total-wait", "mean-wait", "ratio"
        );
        out.push_str(&"-".repeat(out.len()));
        out.push('\n');
        for c in classes {
            out.push_str(&format!(
                "{:>16} | {:>12} {:>12} {:>10.1?} {:>10.1?} {:>6.1}%\n",
                c.class,
                c.acquisitions,
                c.contended,
                c.wait,
                c.mean_wait(),
                c.contention_ratio() * 100.0,
            ));
        }
        let total: std::time::Duration = classes.iter().map(|c| c.wait).sum();
        out.push_str(&format!("total blocked wall-clock: {total:.1?}\n"));
        out
    }
}

impl Report for CheckpointReport<'_> {
    fn name(&self) -> &'static str {
        "checkpoint"
    }
    fn render(&self) -> String {
        let m = self.0;
        let mut out = format!("{:>24} | {:>12}\n", "durability counter", "value");
        out.push_str(&"-".repeat(out.len()));
        out.push('\n');
        out.push_str(&format!(
            "{:>24} | {:>12}\n",
            "checkpoints taken", m.checkpoints_taken
        ));
        out.push_str(&format!(
            "{:>24} | {:>12}\n",
            "wal bytes truncated", m.checkpoint_bytes_truncated
        ));
        out.push_str(&format!(
            "{:>24} | {:>12}\n",
            "recovery replay bytes", m.recovery_replay_bytes
        ));
        out
    }
}

impl Report for VacuumReport<'_> {
    fn name(&self) -> &'static str {
        "vacuum"
    }
    fn render(&self) -> String {
        let m = self.0;
        let mut out = format!("{:>26} | {:>12}\n", "gc / memory counter", "value");
        out.push_str(&"-".repeat(out.len()));
        out.push('\n');
        let rows: [(&str, String); 9] = [
            ("vacuum runs", m.vacuum_runs.to_string()),
            ("versions reclaimed", m.versions_pruned.to_string()),
            ("ssi records reclaimed", m.ssi_txns_reclaimed.to_string()),
            ("gc pause total", format!("{:.1?}", m.vacuum_pause)),
            ("gc pause mean", format!("{:.1?}", m.mean_vacuum_pause())),
            ("max chain length", m.max_chain_len.to_string()),
            ("siread entries", m.siread_entries.to_string()),
            ("publish batches", m.publish_batches.to_string()),
            (
                "mean publish batch",
                format!("{:.2}", m.mean_publish_batch()),
            ),
        ];
        for (label, value) in rows {
            out.push_str(&format!("{label:>26} | {value:>12}\n"));
        }
        out
    }
}

impl Report for OpenLoopReport<'_> {
    fn name(&self) -> &'static str {
        "open-loop"
    }
    fn render(&self) -> String {
        let m = self.0;
        let mut out = format!(
            "{:>12} | {:>8} {:>7} {:>7} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "kind",
            "offered",
            "shed",
            "timeout",
            "served",
            "commits",
            "qd-p50",
            "qd-p99",
            "e2e-p50",
            "e2e-p99"
        );
        out.push_str(&"-".repeat(out.len()));
        out.push('\n');
        for (name, k) in m.kind_names.iter().zip(&m.per_kind) {
            out.push_str(&format!(
                "{:>12} | {:>8} {:>7} {:>7} {:>8} {:>8} {:>8.1?} {:>8.1?} {:>8.1?} {:>8.1?}\n",
                name,
                k.offered,
                k.shed,
                k.timed_out,
                k.served(),
                k.commits,
                k.queue_delay.quantile(0.50),
                k.queue_delay.quantile(0.99),
                k.e2e.quantile(0.50),
                k.e2e.quantile(0.99),
            ));
        }
        let e2e = m.e2e();
        out.push_str(&format!(
            "offered {:.1} tps ({}), goodput {:.1} tps: {} offered, {} shed, {} timed out, \
             {} served, {} give-ups, max queue depth {}\n",
            m.offered_tps,
            m.policy,
            m.goodput(),
            m.offered(),
            m.shed(),
            m.timed_out(),
            m.served(),
            m.give_ups(),
            m.max_queue_depth,
        ));
        out.push_str(&format!(
            "e2e latency p50 {:.1?} p95 {:.1?} p99 {:.1?} over {:.1?} horizon + {:.1?} drain\n",
            e2e.quantile(0.50),
            e2e.quantile(0.95),
            e2e.quantile(0.99),
            m.horizon,
            m.elapsed.saturating_sub(m.horizon),
        ));
        out
    }
}

/// One point of a series: x (e.g. MPL) and a summarised y (e.g. TPS).
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// X coordinate.
    pub x: f64,
    /// Summarised Y (mean ± CI).
    pub y: Summary,
}

/// A named series (one line of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (e.g. "MaterializeWT").
    pub label: String,
    /// Points in ascending x.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: Summary) {
        self.points.push(SeriesPoint { x, y });
    }

    /// Peak mean y across points.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.y.mean).fold(0.0, f64::max)
    }

    /// Mean y at the given x, if present.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y.mean)
    }
}

/// Renders series as an aligned table: one row per x, one column per
/// series, cells `mean ±ci`.
pub fn render_table(x_label: &str, series: &[Series]) -> String {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.x))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mut out = String::new();
    out.push_str(&format!("{x_label:>8}"));
    for s in series {
        out.push_str(&format!(" | {:>20}", s.label));
    }
    out.push('\n');
    out.push_str(&"-".repeat(8 + series.len() * 23));
    out.push('\n');
    for &x in &xs {
        out.push_str(&format!("{x:>8.0}"));
        for s in series {
            match s.points.iter().find(|p| (p.x - x).abs() < 1e-9) {
                Some(p) => out.push_str(&format!(" | {:>12.1} ±{:>5.1}", p.y.mean, p.y.ci95)),
                None => out.push_str(&format!(" | {:>20}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders series as CSV: `x,label,mean,ci95,n` rows.
pub fn csv_table(x_label: &str, series: &[Series]) -> String {
    let mut out = format!("{x_label},series,mean,ci95,n\n");
    for s in series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{}\n",
                p.x, s.label, p.y.mean, p.y.ci95, p.y.n
            ));
        }
    }
    out
}

/// A rough terminal line chart (height rows, one glyph per series),
/// enough to eyeball the figure shapes in CI logs.
pub fn ascii_chart(series: &[Series], height: usize) -> String {
    let glyphs = ['*', 'o', '+', 'x', '#', '@', '%', '&', '~'];
    let all_points: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| (p.x, p.y.mean)))
        .collect();
    if all_points.is_empty() || height < 2 {
        return String::from("(no data)\n");
    }
    let x_min = all_points.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = all_points.iter().map(|p| p.0).fold(0.0, f64::max);
    let y_max = all_points.iter().map(|p| p.1).fold(0.0, f64::max).max(1e-9);
    let width = 64usize;
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let g = glyphs[si % glyphs.len()];
        for p in &s.points {
            let xf = if (x_max - x_min).abs() < 1e-9 {
                0.0
            } else {
                (p.x - x_min) / (x_max - x_min)
            };
            let col = ((width - 1) as f64 * xf).round() as usize;
            let row = ((height - 1) as f64 * (1.0 - p.y.mean / y_max)).round() as usize;
            grid[row.min(height - 1)][col] = g;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y_max:>10.0} ┤\n"));
    for row in grid {
        out.push_str("           │");
        out.extend(row);
        out.push('\n');
    }
    out.push_str("           └");
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!("            {x_min:<10.0}{:>54.0}\n", x_max));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "            {} {}\n",
            glyphs[si % glyphs.len()],
            s.label
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sicost_common::OnlineStats;

    fn summary(vals: &[f64]) -> Summary {
        let mut s = OnlineStats::new();
        for &v in vals {
            s.push(v);
        }
        s.summary()
    }

    fn demo_series() -> Vec<Series> {
        let mut a = Series::new("SI");
        a.push(1.0, summary(&[150.0, 160.0]));
        a.push(10.0, summary(&[800.0, 820.0]));
        a.push(30.0, summary(&[1150.0, 1140.0]));
        let mut b = Series::new("MaterializeALL");
        b.push(1.0, summary(&[120.0]));
        b.push(10.0, summary(&[600.0]));
        b.push(30.0, summary(&[850.0]));
        vec![a, b]
    }

    #[test]
    fn table_contains_all_points() {
        let t = render_table("MPL", &demo_series());
        assert!(t.contains("SI"));
        assert!(t.contains("MaterializeALL"));
        assert!(t.contains("1145.0"));
        assert!(t.lines().count() >= 5);
    }

    #[test]
    fn csv_is_machine_readable() {
        let c = csv_table("mpl", &demo_series());
        assert!(c.starts_with("mpl,series,mean,ci95,n\n"));
        assert_eq!(c.lines().count(), 1 + 6);
        assert!(c.contains("30,SI,1145.000"));
    }

    #[test]
    fn chart_renders_glyphs() {
        let chart = ascii_chart(&demo_series(), 10);
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("SI"));
    }

    #[test]
    fn chart_handles_empty() {
        assert_eq!(ascii_chart(&[], 10), "(no data)\n");
    }

    #[test]
    fn retry_report_shows_attempts_and_goodput() {
        use crate::metrics::Outcome;
        use std::time::Duration;
        let mut m = RunMetrics::new(vec!["bal", "amal"], 2);
        let k = &mut m.per_kind[0];
        k.record(Outcome::SerializationFailure, Duration::ZERO);
        k.record(Outcome::SerializationFailure, Duration::ZERO);
        k.record(Outcome::Committed, Duration::from_millis(3));
        k.record_commit_op(3, Duration::from_millis(2));
        m.per_kind[1].record_give_up();
        m.measured = Duration::from_secs(1);
        let r = RetryReport(&m).render();
        assert!(r.contains("bal"), "{r}");
        assert!(r.contains("2.00"), "retries/commit column: {r}");
        assert!(r.contains("goodput 1.0 tps from 3 attempts"), "{r}");
        assert!(r.contains("1 give-ups"), "{r}");
    }

    #[test]
    fn lock_wait_report_shows_classes_and_total() {
        use std::time::Duration;
        let classes = vec![
            LockWait {
                class: "commit.seq".into(),
                acquisitions: 100,
                contended: 25,
                wait: Duration::from_millis(40),
            },
            LockWait {
                class: "commit.install".into(),
                acquisitions: 400,
                contended: 0,
                wait: Duration::ZERO,
            },
        ];
        let r = LockWaitReport(&classes).render();
        assert!(r.contains("commit.seq"), "{r}");
        assert!(r.contains("commit.install"), "{r}");
        assert!(r.contains("25.0%"), "contention ratio column: {r}");
        assert!(r.contains("total blocked wall-clock: 40.0ms"), "{r}");
    }

    #[test]
    fn checkpoint_report_shows_durability_counters() {
        let m = sicost_engine::EngineMetrics {
            checkpoints_taken: 3,
            checkpoint_bytes_truncated: 4096,
            recovery_replay_bytes: 128,
            ..Default::default()
        };
        let r = CheckpointReport(&m).render();
        assert!(r.contains("checkpoints taken"), "{r}");
        assert!(r.contains("4096"), "{r}");
        assert!(r.contains("recovery replay bytes"), "{r}");
        assert!(r.contains("128"), "{r}");
    }

    #[test]
    fn latency_report_shows_percentiles() {
        use crate::metrics::Outcome;
        use std::time::Duration;
        let mut m = RunMetrics::new(vec!["bal"], 1);
        for ms in [1u64, 2, 3, 10] {
            m.per_kind[0].record(Outcome::Committed, Duration::from_millis(ms));
        }
        m.measured = Duration::from_secs(1);
        let r = LatencyReport(&m).render();
        assert!(r.contains("bal"), "{r}");
        assert!(r.contains("p99"), "{r}");
        assert!(r.contains("overall: 4 commits"), "{r}");
    }

    /// Regression: a measurement window in which *every* attempt aborted
    /// (zero commits, zero latency samples, zero retry samples) must
    /// render every report without NaN, inf, or division-by-zero panics.
    #[test]
    fn reports_survive_a_window_with_only_aborted_attempts() {
        use crate::metrics::Outcome;
        use std::time::Duration;
        let mut m = RunMetrics::new(vec!["bal", "wc"], 4);
        // Aborted attempts only; no record_commit_op, no give-up even.
        for _ in 0..7 {
            m.per_kind[0].record(Outcome::SerializationFailure, Duration::ZERO);
        }
        m.per_kind[1].record(Outcome::Deadlock, Duration::ZERO);
        m.per_kind[1].record_give_up();
        m.measured = Duration::from_millis(250);
        assert_eq!(m.commits(), 0);
        assert_eq!(m.tps(), 0.0, "zero commits must yield 0 tps, not NaN");
        assert_eq!(m.retries_per_commit(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        for text in [RetryReport(&m).render(), LatencyReport(&m).render()] {
            assert!(!text.contains("NaN"), "{text}");
            assert!(!text.contains("inf"), "{text}");
        }
        // And the degenerate zero-measured-duration window.
        m.measured = Duration::ZERO;
        let text = RetryReport(&m).render();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        // An all-idle lock-class breakdown (zero acquisitions) likewise.
        let idle = vec![LockWait {
            class: "commit.seq".into(),
            acquisitions: 0,
            contended: 0,
            wait: std::time::Duration::ZERO,
        }];
        let text = LockWaitReport(&idle).render();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn report_trait_unifies_the_views() {
        use crate::metrics::Outcome;
        use std::time::Duration;
        let mut m = RunMetrics::new(vec!["bal"], 1);
        m.per_kind[0].record(Outcome::Committed, Duration::from_millis(1));
        m.measured = Duration::from_secs(1);
        let classes = vec![LockWait {
            class: "commit.seq".into(),
            acquisitions: 1,
            contended: 0,
            wait: Duration::ZERO,
        }];
        let engine = sicost_engine::EngineMetrics::default();
        let open = OpenMetrics::new(vec!["bal"]);
        let reports: Vec<Box<dyn Report + '_>> = vec![
            Box::new(RetryReport(&m)),
            Box::new(LatencyReport(&m)),
            Box::new(LockWaitReport(&classes)),
            Box::new(CheckpointReport(&engine)),
            Box::new(VacuumReport(&engine)),
            Box::new(OpenLoopReport(&open)),
        ];
        let names: Vec<_> = reports.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "retry",
                "latency",
                "lock-wait",
                "checkpoint",
                "vacuum",
                "open-loop"
            ]
        );
        for r in &reports {
            let text = r.render();
            assert!(text.ends_with('\n'), "{}: {text}", r.name());
            assert!(!text.contains("NaN"), "{}: {text}", r.name());
        }
    }

    #[test]
    fn vacuum_report_shows_gc_counters_and_gauges() {
        use std::time::Duration;
        let m = sicost_engine::EngineMetrics {
            vacuum_runs: 4,
            versions_pruned: 1200,
            ssi_txns_reclaimed: 77,
            vacuum_pause: Duration::from_micros(800),
            max_chain_len: 3,
            siread_entries: 42,
            publish_batches: 10,
            publish_batched_commits: 25,
            ..Default::default()
        };
        let r = VacuumReport(&m).render();
        assert!(r.contains("vacuum runs"), "{r}");
        assert!(r.contains("1200"), "{r}");
        assert!(r.contains("ssi records reclaimed"), "{r}");
        assert!(r.contains("gc pause mean"), "{r}");
        assert!(r.contains("200.0µs"), "mean pause = 800µs / 4 runs: {r}");
        assert!(r.contains("max chain length"), "{r}");
        assert!(r.contains("2.50"), "mean publish batch = 25/10: {r}");
        // Zeroed metrics must render totally (no NaN from 0/0 means).
        let empty = VacuumReport(&sicost_engine::EngineMetrics::default()).render();
        assert!(!empty.contains("NaN") && !empty.contains("inf"), "{empty}");
    }

    #[test]
    fn open_loop_report_shows_admission_and_latency_columns() {
        use std::time::Duration;
        let mut m = OpenMetrics::new(vec!["bal"]);
        let k = &mut m.per_kind[0];
        k.offered = 10;
        k.shed = 2;
        k.timed_out = 1;
        k.commits = 7;
        k.record_served(
            Duration::from_millis(2),
            Duration::from_millis(1),
            Duration::from_millis(3),
        );
        m.offered_tps = 100.0;
        m.policy = "drop-on-full";
        m.horizon = Duration::from_millis(100);
        m.elapsed = Duration::from_millis(120);
        m.max_queue_depth = 4;
        let r = OpenLoopReport(&m).render();
        assert!(r.contains("offered"), "{r}");
        assert!(r.contains("drop-on-full"), "{r}");
        assert!(r.contains("2 shed, 1 timed out"), "{r}");
        assert!(r.contains("max queue depth 4"), "{r}");
        assert!(r.contains("e2e latency p50"), "{r}");
    }

    #[test]
    fn series_helpers() {
        let s = &demo_series()[0];
        assert_eq!(s.at(10.0), Some(810.0));
        assert_eq!(s.at(99.0), None);
        assert!((s.peak() - 1145.0).abs() < 1e-9);
    }
}
