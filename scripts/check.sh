#!/usr/bin/env bash
# Repository check: format, lint, build, test — what CI would run.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "    rustfmt unavailable; skipped"
fi

echo "==> cargo clippy (workspace, all targets, -D warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "    clippy unavailable; skipped"
fi

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> examples: quickstart (scripted anomaly, end to end) + sdg_analysis (one-call robustness check)"
cargo run --release --quiet --example quickstart
cargo run --release --quiet --example sdg_analysis

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> perfbench self-test (engine-intrinsic benchmark, its own workspace)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> crash-recovery torture harness (seeded crash schedules)"
cargo test -q --test recovery_torture

echo "==> sim-smoke: DST torture + model checker (SICOST_SIM_SCHEDULES widens the sweep)"
cargo test -q --test sim_torture
cargo test -q -p sicost-sim
cargo test -q -p sicost-driver --test run_equivalence

echo "==> server smoke: sim-net fault sweep + client/server equivalence (fixed seeds)"
cargo test -q -p sicost-server --test fault_sweep
cargo test -q -p sicost-server --test client_server

echo "==> robustness smoke: corpus x strategy cross-validation + A13 matrix (trace in target/robustness-trace/)"
cargo test -q -p sicost-workloads
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench --bench robustness

echo "==> recovery smoke bench (writes bench_results/recovery.json)"
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench --bench recovery

echo "==> open-loop smoke bench (writes bench_results/openloop.json)"
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench --bench openloop

echo "==> vacuum long-run smoke bench (GC-on vs GC-off; writes bench_results/vacuum.json + target/vacuum-trace/)"
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench --bench vacuum

echo "==> paged-storage smoke bench (pool pressure sweep; writes bench_results/paged.json + target/paged-trace/)"
SICOST_BENCH_MODE=smoke cargo bench -q -p sicost-bench --bench paged

echo "==> all checks passed"
