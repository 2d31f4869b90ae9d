//! Analysing *your own* application with the SDG toolkit.
//!
//! Models a doctors-on-call roster (the canonical write-skew example from
//! Cahill et al.): each `TakeBreak(d)` checks that at least two doctors
//! are on call and then sets doctor `d` off call; `Roster()` reads the
//! whole table. Two concurrent `TakeBreak`s can leave zero doctors on
//! call under SI.
//!
//! ```sh
//! cargo run --release --example sdg_analysis
//! ```

use sicost::core::{
    check, minimal_edge_cover, verify_safe, Access, AccessMode, EdgeCost, KeySpec, Program, Sdg,
    SfuTreatment, StrategyPlan, Technique,
};

fn main() {
    // TakeBreak(d): predicate-read of the on-call set, write of one row.
    let take_break = Program::new(
        "TakeBreak",
        ["D"],
        vec![
            Access {
                table: "Doctors".into(),
                key: KeySpec::Predicate("oncall = true".into()),
                mode: AccessMode::Read,
            },
            Access::write("Doctors", "D"),
        ],
    );
    // Roster(): read-only report over the same predicate.
    let roster = Program::new(
        "Roster",
        [],
        vec![Access {
            table: "Doctors".into(),
            key: KeySpec::Predicate("oncall = true".into()),
            mode: AccessMode::Read,
        }],
    );

    let mix = vec![take_break, roster];
    let sdg = Sdg::build(&mix, SfuTreatment::AsLockOnly);
    println!("SDG for the on-call roster application:");
    println!("{}", sdg.to_ascii());
    assert!(!sdg.is_si_serializable(), "two TakeBreaks write-skew");

    // Let the solver choose the cheapest edges to fix. The read-only
    // Roster program is penalised, so the TakeBreak self-edge is picked.
    let solution = minimal_edge_cover(&sdg, EdgeCost::default());
    println!(
        "minimal edge cover ({}, cost {:.0}):",
        if solution.optimal {
            "optimal"
        } else {
            "greedy"
        },
        solution.cost
    );
    let mut picks = Vec::new();
    for &ei in &solution.edges {
        let e = &sdg.edges()[ei];
        let from = &sdg.programs()[e.from].name;
        let to = &sdg.programs()[e.to].name;
        println!("  fix edge {from} --v--> {to}");
        picks.push((from.clone(), to.clone()));
    }

    // The vulnerable read is a predicate read, so promotion is rejected
    // and materialization is required (§II-C) — the toolkit knows:
    let promote = StrategyPlan {
        picks: picks
            .iter()
            .map(|(f, t)| sicost::core::EdgePick {
                from: f.clone(),
                to: t.clone(),
                technique: Technique::PromoteUpdate,
            })
            .collect(),
    };
    match verify_safe(&sdg, &promote, SfuTreatment::AsLockOnly) {
        Err(e) => println!("promotion correctly rejected: {e}"),
        Ok(_) => unreachable!("predicate reads cannot be promoted"),
    }

    let materialize = StrategyPlan {
        picks: picks
            .iter()
            .map(|(f, t)| sicost::core::EdgePick {
                from: f.clone(),
                to: t.clone(),
                technique: Technique::Materialize,
            })
            .collect(),
    };
    let (modified, fixed) = verify_safe(&sdg, &materialize, SfuTreatment::AsLockOnly).unwrap();
    println!("\nafter materialization:");
    println!("{}", fixed.to_ascii());
    assert!(fixed.is_si_serializable());
    println!("modified programs:");
    for p in &modified {
        println!("  {}:", p.name);
        for a in &p.accesses {
            println!("    {a}");
        }
    }

    // Or skip all of the above and let the robustness checker do the
    // whole loop: analyse → choose edges → choose techniques → apply →
    // re-verify.
    println!("\n--- one-call robustness check ---");
    let report = check(
        "on-call",
        &mix,
        SfuTreatment::AsLockOnly,
        EdgeCost::default(),
    );
    print!("{}", report.render());
    assert!(!report.robust());
    let (_, fixed) = verify_safe(&sdg, &report.plan(), SfuTreatment::AsLockOnly).unwrap();
    assert!(fixed.is_si_serializable());
}
