//! Workload driver (§IV methodology), closed- and open-system.
//!
//! The closed system reproduces the paper's measurement discipline: a
//! fixed number of client threads (the multiprogramming level, MPL),
//! each running one transaction at a time with no think time; a ramp-up
//! period excluded from measurement; a measurement interval during which
//! every thread counts commits, aborts by reason, and response times;
//! repeats with mean ± 95 % confidence intervals. [`run`] is the single
//! entry point; the attempt observer rides in [`RunConfig`].
//!
//! The open system ([`run_open`]) decouples arrivals from completions: a
//! seeded arrival process ([`ArrivalProcess`]) offers load at a
//! configured rate through an admission controller ([`AdmissionPolicy`])
//! into a bounded worker pool, measuring goodput, shed/timeout counts,
//! and queue-delay/service/end-to-end latency — the regime where
//! overload behaviour (latency divergence vs load shedding) is visible.
//!
//! The driver is engine-agnostic: anything implementing [`Workload`] can
//! be measured. `sicost-smallbank` provides the SmallBank adapter.

#![deny(missing_docs)]

pub mod admission;
pub mod arrival;
pub mod hooks;
pub mod metrics;
pub mod open_runner;
pub mod report;
pub mod retry;
pub mod runner;

pub use admission::{Admission, AdmissionPolicy, AdmissionQueue};
pub use arrival::ArrivalProcess;
pub use hooks::{AttemptObserver, NullAttemptObserver};
pub use metrics::{KindMetrics, OpenKindMetrics, OpenMetrics, Outcome, RunMetrics};
pub use open_runner::{run_open, OpenConfig};
pub use report::{
    ascii_chart, csv_table, render_table, CheckpointReport, LatencyReport, LockWaitReport,
    OpenLoopReport, Report, RetryReport, Series, SeriesPoint, VacuumReport,
};
pub use retry::{RetryDecision, RetryPolicy};
pub use runner::{repeat_summary, run, RunConfig, Workload};
