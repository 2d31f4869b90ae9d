//! The repository's central claim, tested end-to-end: every configuration
//! that *should* guarantee serializable executions actually does — under
//! real concurrency, certified by the MVSG — and plain SI does not.

use sicost::driver::{run, RetryPolicy, RunConfig};
use sicost::engine::{CcMode, EngineConfig, SfuSemantics};
use sicost::mvsg::{History, Mvsg};
use sicost::smallbank::{
    MixWeights, SmallBank, SmallBankConfig, SmallBankDriver, SmallBankWorkload, Strategy,
    WorkloadParams,
};
use std::sync::Arc;
use std::time::Duration;

/// A short, furiously contended burst: 8 customers, 8 threads.
fn certified_burst(strategy: Strategy, engine: EngineConfig, seed: u64) -> (bool, u64) {
    let params = WorkloadParams {
        customers: 8,
        hotspot: 4,
        p_hot: 0.95,
        mix: MixWeights::uniform(),
    };
    certified_burst_of(params, strategy, engine, seed)
}

/// A burst of `params` over 8 customers, 8 threads.
fn certified_burst_of(
    params: WorkloadParams,
    strategy: Strategy,
    engine: EngineConfig,
    seed: u64,
) -> (bool, u64) {
    let history = History::new();
    let bank = Arc::new(SmallBank::with_observer(
        &SmallBankConfig::small(8),
        engine,
        strategy,
        Some(history.clone() as Arc<dyn sicost::engine::HistoryObserver>),
    ));
    let driver = SmallBankDriver::new(bank, SmallBankWorkload::new(params));
    let metrics = run(
        &driver,
        &RunConfig::new(8)
            .with_ramp_up(Duration::from_millis(10))
            .with_measure(Duration::from_millis(400))
            .with_seed(seed)
            .with_retry(RetryPolicy::disabled()),
    );
    let graph = Mvsg::from_events(&history.events());
    (graph.is_serializable(), metrics.commits())
}

#[test]
fn plain_si_produces_non_serializable_executions() {
    // With this much contention a handful of bursts reliably catches the
    // anomaly; each burst is independently seeded.
    let caught = (0..6).any(|i| {
        let (serializable, commits) =
            certified_burst(Strategy::BaseSI, EngineConfig::functional(), 0xBAD + i);
        assert!(commits > 0);
        !serializable
    });
    assert!(
        caught,
        "plain SI on a hot SmallBank should produce write skew within six bursts"
    );
}

#[test]
fn every_guaranteed_strategy_certifies_on_postgres_semantics() {
    for strategy in [
        Strategy::MaterializeWT,
        Strategy::PromoteWTUpd,
        Strategy::MaterializeBW,
        Strategy::PromoteBWUpd,
        Strategy::MaterializeALL,
        Strategy::PromoteALL,
    ] {
        for seed in [1u64, 2] {
            let (serializable, commits) =
                certified_burst(strategy, EngineConfig::functional(), seed);
            assert!(commits > 0, "{strategy} seed {seed} made no progress");
            assert!(
                serializable,
                "{strategy} (seed {seed}) produced a non-serializable execution"
            );
        }
    }
}

#[test]
fn sfu_strategies_certify_on_commercial_semantics() {
    let commercial = EngineConfig::functional()
        .with_cc(CcMode::SiFirstCommitterWins)
        .with_sfu(SfuSemantics::IdentityWrite);
    for strategy in [Strategy::PromoteWTSfu, Strategy::PromoteBWSfu] {
        for seed in [3u64, 4] {
            let (serializable, commits) = certified_burst(strategy, commercial.clone(), seed);
            assert!(commits > 0);
            assert!(
                serializable,
                "{strategy} must be safe where sfu is a write (seed {seed})"
            );
        }
    }
}

#[test]
fn all_strategies_certify_under_first_committer_wins() {
    // The commercial platform's FCW validation must be just as sound.
    let fcw = EngineConfig::functional().with_cc(CcMode::SiFirstCommitterWins);
    for strategy in [
        Strategy::MaterializeWT,
        Strategy::PromoteWTUpd,
        Strategy::MaterializeALL,
    ] {
        let (serializable, commits) = certified_burst(strategy, fcw.clone(), 9);
        assert!(commits > 0);
        assert!(serializable, "{strategy} under FCW must certify");
    }
}

#[test]
fn ssi_certifies_with_unmodified_programs() {
    let ssi = || EngineConfig::functional().with_cc(CcMode::Ssi);
    for seed in [5u64, 6, 7] {
        let (serializable, commits) = certified_burst(Strategy::BaseSI, ssi(), seed);
        assert!(commits > 0, "SSI must make progress");
        assert!(
            serializable,
            "SSI execution failed certification (seed {seed})"
        );
    }
    // The §IV-E shape (60 % Balance): read-only transactions exercise the
    // rule's read-only branch, which judges them by their snapshot.
    let hotspot = WorkloadParams::paper_high_contention().scaled(8, 4);
    let (serializable, commits) = certified_burst_of(hotspot, Strategy::BaseSI, ssi(), 8);
    assert!(commits > 0, "SSI must make progress on the hotspot shape");
    assert!(
        serializable,
        "SSI failed certification on the hotspot shape"
    );
}

#[test]
fn table_lock_pivot_certifies_serializable() {
    // §II-D's third approach: WriteCheck (the pivot) takes an explicit
    // table-X lock on Saving; with table intent locks enabled this
    // serialises it against every Saving writer, dissolving the
    // dangerous structure without touching the other programs.
    let mut engine = EngineConfig::functional();
    engine.table_intent_locks = true;
    for seed in [11u64, 12] {
        let history = History::new();
        let bank = Arc::new(SmallBank::with_observer(
            &SmallBankConfig::small(8),
            engine.clone(),
            Strategy::BaseSI,
            Some(history.clone() as Arc<dyn sicost::engine::HistoryObserver>),
        ));
        let driver = SmallBankDriver::new(
            bank,
            SmallBankWorkload::new(WorkloadParams {
                customers: 8,
                hotspot: 4,
                p_hot: 0.95,
                mix: MixWeights::uniform(),
            })
            .with_wc_table_lock(),
        );
        let metrics = run(
            &driver,
            &RunConfig::new(8)
                .with_ramp_up(Duration::from_millis(10))
                .with_measure(Duration::from_millis(400))
                .with_seed(seed)
                .with_retry(RetryPolicy::disabled()),
        );
        assert!(metrics.commits() > 0);
        let graph = Mvsg::from_events(&history.events());
        assert!(
            graph.is_serializable(),
            "2PL-pivot execution failed certification (seed {seed})"
        );
    }
}

#[test]
fn s2pl_certifies_with_unmodified_programs() {
    for seed in [8u64, 9] {
        let (serializable, commits) = certified_burst(
            Strategy::BaseSI,
            EngineConfig::functional().with_cc(CcMode::S2pl),
            seed,
        );
        assert!(commits > 0, "S2PL must make progress despite deadlocks");
        assert!(
            serializable,
            "S2PL execution failed certification (seed {seed})"
        );
    }
}
