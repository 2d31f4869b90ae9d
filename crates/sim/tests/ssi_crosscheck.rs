//! Keeps the model-checker's SSI extraction honest: random action
//! sequences are replayed simultaneously against the small model
//! (`sicost_sim::SsiFcwModel`) and the real `sicost_engine::ssi::
//! SsiManager`, asserting that every accept/abort decision agrees.
//!
//! The model abstracts commit to one atomic action, so the engine side
//! here calls `pre_commit` + `finish_commit` back to back (the
//! validation→install window is empty, exactly the abstraction the model
//! documents). First-committer-wins validation lives in the engine's
//! transaction layer, not in `SsiManager`, so the FCW abort branch is
//! mirrored on both sides from the model's version store and the engine
//! manager sees the same `on_abort`. After every step both sides must also
//! hold the same number of SIREAD marks, so a mark rule (such as a write
//! dropping the writer's own mark) applied on one side only diverges at
//! once.

use sicost_common::{TableId, Ts, TxnId, Xoshiro256};
use sicost_engine::ssi::{ReadKey, SsiManager};
use sicost_sim::{Action, Model, Phase, SsiFcwModel, State};
use sicost_storage::Value;

const SEQUENCES: u64 = 400;
const STEPS: usize = 24;

fn read_key(k: u8) -> ReadKey {
    (TableId(0), Value::Int(i64::from(k)))
}

fn model_marks(s: &State) -> usize {
    s.siread.iter().map(Vec::len).sum()
}

/// Applies one model action to the paired engine manager, returning
/// whether the engine accepted it (`true`) or aborted the transaction.
fn drive_engine(mgr: &SsiManager, s: &State, action: Action, ssi_clock: u64) -> bool {
    match action {
        Action::Begin(t) => {
            mgr.begin(TxnId(u64::from(t)), Ts(u64::from(s.clock)));
            true
        }
        Action::Read(t, k) => {
            let snapshot = s.txns[t as usize].snapshot;
            let observed = s.versions[k as usize]
                .iter()
                .rev()
                .find(|(ts, _)| *ts <= snapshot)
                .map(|(ts, _)| *ts)
                .expect("initial version");
            let newer: Vec<TxnId> = s.versions[k as usize]
                .iter()
                .filter(|(ts, w)| *ts > snapshot && *w != sicost_sim::INIT_WRITER)
                .map(|(_, w)| TxnId(u64::from(*w)))
                .collect();
            let _ = observed;
            let ok = mgr
                .on_read(TxnId(u64::from(t)), read_key(k), &newer)
                .is_ok();
            if !ok {
                mgr.on_abort(TxnId(u64::from(t)));
            }
            ok
        }
        Action::Write(t, k) => {
            let ok = mgr.on_write(TxnId(u64::from(t)), &read_key(k)).is_ok();
            if !ok {
                mgr.on_abort(TxnId(u64::from(t)));
            }
            ok
        }
        Action::Commit(t) => {
            let txn = TxnId(u64::from(t));
            let me = &s.txns[t as usize];
            // FCW validation is the transaction layer's job in the engine;
            // mirror the model's check so both sides agree on which commits
            // even reach SSI validation.
            let fcw_conflict = me.writes.iter().any(|&k| {
                s.versions[k as usize]
                    .iter()
                    .any(|(ts, _)| *ts > me.snapshot)
            });
            if fcw_conflict {
                mgr.on_abort(txn);
                return false;
            }
            let write_keys: Vec<ReadKey> = me.writes.iter().map(|&k| read_key(k)).collect();
            match mgr.pre_commit(txn, &write_keys) {
                Ok(()) => {
                    let cts = if write_keys.is_empty() {
                        u64::from(me.snapshot)
                    } else {
                        ssi_clock + 1
                    };
                    mgr.finish_commit(txn, Ts(cts));
                    true
                }
                Err(_) => {
                    mgr.on_abort(txn);
                    false
                }
            }
        }
    }
}

#[test]
fn random_schedules_agree_with_the_real_ssi_manager() {
    let model = SsiFcwModel::small(true);
    let mut disagreements = Vec::new();
    for seed in 0..SEQUENCES {
        let mut rng = Xoshiro256::seed_from_u64(0x55C0 ^ seed);
        let mut state = model.init_states().remove(0);
        let mgr = SsiManager::new();
        let mut trace = Vec::new();
        for _ in 0..STEPS {
            let mut actions = Vec::new();
            model.actions(&state, &mut actions);
            if actions.is_empty() {
                break;
            }
            let action = actions[(rng.next_u64() % actions.len() as u64) as usize];
            // Decide from the engine *before* the model mutates shared
            // state: both sides see the same pre-state.
            let engine_ok = drive_engine(&mgr, &state, action, u64::from(state.clock));
            let next = model
                .next_state(&state, &action)
                .expect("enabled actions always produce a state");
            let model_ok = match action {
                Action::Begin(t) | Action::Read(t, _) | Action::Write(t, _) => {
                    next.txns[t as usize].phase != Phase::Aborted
                }
                Action::Commit(t) => matches!(next.txns[t as usize].phase, Phase::Committed(_)),
            };
            trace.push(action);
            if engine_ok != model_ok {
                disagreements.push(format!(
                    "seed {seed}: {action:?} — engine says {}, model says {} \
                     (trace: {trace:?})\nmodel state: {next:#?}",
                    if engine_ok { "accept" } else { "abort" },
                    if model_ok { "accept" } else { "abort" },
                ));
                break;
            }
            assert_eq!(
                mgr.siread_entries(),
                model_marks(&next),
                "seed {seed}: SIREAD marks after {action:?} (trace: {trace:?})"
            );
            state = next;
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} of {SEQUENCES} sequences diverged from the engine:\n{}",
        disagreements.len(),
        disagreements.join("\n---\n")
    );
}

/// The canonical write-skew schedule decided identically by both sides:
/// crossing reads, both writes, then both commits — the engine must abort
/// at least one transaction exactly where the model does.
#[test]
fn the_write_skew_schedule_agrees_step_by_step() {
    let model = SsiFcwModel {
        txns: 2,
        keys: 2,
        ssi_enabled: true,
    };
    let mgr = SsiManager::new();
    let mut state = model.init_states().remove(0);
    let schedule = [
        Action::Begin(0),
        Action::Begin(1),
        Action::Read(0, 0),
        Action::Read(1, 1),
        Action::Write(0, 1),
        Action::Write(1, 0),
        Action::Commit(0),
        Action::Commit(1),
    ];
    let mut engine_aborts = 0;
    let mut model_aborts = 0;
    for action in schedule {
        // Skip actions whose transaction the model already aborted — the
        // engine-side client would have stopped issuing them too.
        let t = match action {
            Action::Begin(t) | Action::Read(t, _) | Action::Write(t, _) | Action::Commit(t) => t,
        };
        if state.txns[t as usize].phase == Phase::Aborted {
            continue;
        }
        let engine_ok = drive_engine(&mgr, &state, action, u64::from(state.clock));
        let next = model.next_state(&state, &action).unwrap();
        let model_ok = next.txns[t as usize].phase != Phase::Aborted;
        assert_eq!(engine_ok, model_ok, "divergence at {action:?}");
        assert_eq!(
            mgr.siread_entries(),
            model_marks(&next),
            "SIREAD marks after {action:?}"
        );
        engine_aborts += usize::from(!engine_ok);
        model_aborts += usize::from(!model_ok);
        state = next;
    }
    assert_eq!(engine_aborts, model_aborts);
    assert!(
        model_aborts >= 1,
        "SSI must abort at least one side of the skew"
    );
}
