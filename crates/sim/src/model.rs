//! A hand-rolled explicit-state model checker (stateright-style, std
//! only — the workspace builds with zero external crates).
//!
//! A [`Model`] describes a nondeterministic transition system: initial
//! states, enabled actions per state, a (partial) transition function,
//! and a set of named state [`Invariant`]s. [`check_bfs`] explores the
//! reachable state space breadth-first with a seen-set, checking every
//! invariant on every newly discovered state; on violation it rebuilds
//! the shortest action trace from parent pointers.
//!
//! Invariant names here match the TLA+ spec at
//! `specs/ssi/serializable_snapshot_isolation.tla` one-to-one (see
//! [`crate::ssi_model`]).

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::rc::Rc;

/// A named predicate that must hold in every reachable state.
pub struct Invariant<S> {
    /// Invariant name, matching the TLA+ spec (`FirstCommitterWins`,
    /// `SnapshotRead`, `Serializable`, …).
    pub name: &'static str,
    /// Returns `true` when the state satisfies the invariant.
    pub check: fn(&S) -> bool,
}

/// A finite(ly explorable) nondeterministic transition system.
pub trait Model {
    /// State type; hashed/compared for the seen-set.
    type State: Clone + Eq + Hash + Debug;
    /// Action (transition label) type.
    type Action: Clone + Debug;

    /// The initial states.
    fn init_states(&self) -> Vec<Self::State>;
    /// Appends every action enabled in `state` to `out`.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);
    /// The successor of `state` under `action`, or `None` when the action
    /// turns out to be a no-op/disabled.
    fn next_state(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;
    /// The invariants to check in every reachable state.
    fn invariants(&self) -> Vec<Invariant<Self::State>>;
}

/// A counterexample: the shortest action path from an initial state to a
/// state violating an invariant.
#[derive(Debug, Clone)]
pub struct Violation<M: Model> {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// `(action, resulting state)` pairs from an initial state to the
    /// violating state; the first entry's action is `None` (it *is* the
    /// initial state).
    pub trace: Vec<(Option<M::Action>, M::State)>,
}

impl<M: Model> Violation<M> {
    /// The violating (final) state.
    pub fn state(&self) -> &M::State {
        &self.trace.last().expect("trace never empty").1
    }

    /// Human-readable rendering of the counterexample trace.
    pub fn render(&self) -> String {
        let mut out = format!("invariant {} violated; trace:\n", self.invariant);
        for (i, (action, state)) in self.trace.iter().enumerate() {
            match action {
                None => out.push_str(&format!("  {i}. <init> {state:?}\n")),
                Some(a) => out.push_str(&format!("  {i}. {a:?} -> {state:?}\n")),
            }
        }
        out
    }
}

/// Exploration statistics plus the first violation found (if any).
#[derive(Debug)]
pub struct CheckReport<M: Model> {
    /// Unique states discovered (and invariant-checked).
    pub explored: u64,
    /// Transitions generated in total.
    pub transitions: u64,
    /// Transitions pruned because they re-entered an already-seen state.
    pub pruned: u64,
    /// Longest action distance from an initial state among explored
    /// states.
    pub max_depth: usize,
    /// Whether the full reachable space was exhausted (`false` only when
    /// the `max_states` budget stopped exploration early).
    pub complete: bool,
    /// The first (shortest, by BFS order) invariant violation.
    pub violation: Option<Violation<M>>,
}

/// Exhaustive breadth-first exploration of `model`, visiting at most
/// `max_states` unique states (a budget backstop; the small commit-
/// protocol models stay well under it). Each state is held once, shared
/// by the arena and the seen-set.
pub fn check_bfs<M: Model>(model: &M, max_states: u64) -> CheckReport<M> {
    let invariants = model.invariants();
    let mut arena: Vec<Rc<M::State>> = Vec::new();
    let mut parent: Vec<Option<(usize, M::Action)>> = Vec::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut seen: HashMap<Rc<M::State>, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let mut report = CheckReport {
        explored: 0,
        transitions: 0,
        pruned: 0,
        max_depth: 0,
        complete: true,
        violation: None,
    };

    let rebuild = |arena: &Vec<Rc<M::State>>,
                   parent: &Vec<Option<(usize, M::Action)>>,
                   mut id: usize,
                   invariant: &'static str| {
        let mut trace = Vec::new();
        loop {
            match &parent[id] {
                Some((p, a)) => {
                    trace.push((Some(a.clone()), M::State::clone(&arena[id])));
                    id = *p;
                }
                None => {
                    trace.push((None, M::State::clone(&arena[id])));
                    break;
                }
            }
        }
        trace.reverse();
        Violation { invariant, trace }
    };

    let admit = |state: M::State,
                 from: Option<(usize, M::Action)>,
                 arena: &mut Vec<Rc<M::State>>,
                 parent: &mut Vec<Option<(usize, M::Action)>>,
                 depth: &mut Vec<usize>,
                 seen: &mut HashMap<Rc<M::State>, usize>,
                 queue: &mut VecDeque<usize>,
                 report: &mut CheckReport<M>|
     -> Option<usize> {
        if let Some(&_id) = seen.get(&state) {
            report.pruned += 1;
            return None;
        }
        let id = arena.len();
        let d = from.as_ref().map(|(p, _)| depth[*p] + 1).unwrap_or(0);
        let state = Rc::new(state);
        arena.push(Rc::clone(&state));
        parent.push(from);
        depth.push(d);
        seen.insert(state, id);
        queue.push_back(id);
        report.explored += 1;
        report.max_depth = report.max_depth.max(d);
        Some(id)
    };

    for s in model.init_states() {
        if let Some(id) = admit(
            s,
            None,
            &mut arena,
            &mut parent,
            &mut depth,
            &mut seen,
            &mut queue,
            &mut report,
        ) {
            for inv in &invariants {
                if !(inv.check)(&arena[id]) {
                    report.violation = Some(rebuild(&arena, &parent, id, inv.name));
                    return report;
                }
            }
        }
    }

    let mut actions: Vec<M::Action> = Vec::new();
    while let Some(id) = queue.pop_front() {
        if report.explored >= max_states {
            report.complete = false;
            break;
        }
        actions.clear();
        let state = Rc::clone(&arena[id]);
        model.actions(&state, &mut actions);
        for action in actions.drain(..) {
            let Some(next) = model.next_state(&state, &action) else {
                continue;
            };
            report.transitions += 1;
            if let Some(nid) = admit(
                next,
                Some((id, action)),
                &mut arena,
                &mut parent,
                &mut depth,
                &mut seen,
                &mut queue,
                &mut report,
            ) {
                for inv in &invariants {
                    if !(inv.check)(&arena[nid]) {
                        report.violation = Some(rebuild(&arena, &parent, nid, inv.name));
                        return report;
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that may +1 or +2 up to a bound; invariant: never 13.
    struct Collatz13 {
        bound: u8,
    }

    impl Model for Collatz13 {
        type State = u8;
        type Action = u8;

        fn init_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn actions(&self, s: &u8, out: &mut Vec<u8>) {
            if *s < self.bound {
                out.push(1);
                out.push(2);
            }
        }

        fn next_state(&self, s: &u8, a: &u8) -> Option<u8> {
            Some(s + a)
        }

        fn invariants(&self) -> Vec<Invariant<u8>> {
            vec![Invariant {
                name: "Never13",
                check: |s| *s != 13,
            }]
        }
    }

    #[test]
    fn finds_shortest_counterexample() {
        let report = check_bfs(&Collatz13 { bound: 20 }, 10_000);
        let v = report.violation.expect("13 is reachable");
        assert_eq!(v.invariant, "Never13");
        assert_eq!(*v.state(), 13);
        // BFS: shortest path to 13 uses ceil(13/2) = 7 actions.
        assert_eq!(v.trace.len(), 8);
        assert!(!v.render().is_empty());
    }

    #[test]
    fn exhausts_safe_spaces_and_counts() {
        let report = check_bfs(&Collatz13 { bound: 11 }, 10_000);
        assert!(report.violation.is_none(), "cannot pass 11 and land on 13");
        assert!(report.complete);
        // States 0..=12 are reachable (bound stops actions at 11, but 11+2).
        assert_eq!(report.explored, 13);
        assert!(report.pruned > 0, "overlapping +1/+2 paths must be pruned");
        assert!(report.max_depth >= 6);
    }

    #[test]
    fn budget_stops_exploration_incomplete() {
        let report = check_bfs(&Collatz13 { bound: 200 }, 5);
        assert!(!report.complete);
        assert!(report.explored >= 5);
    }
}
