//! Executed footprints against declared ones: each program, run once
//! under each strategy through a recording [`Statements`] fake, must
//! touch exactly the rows `sdg_spec` declares for it once the strategy's
//! plan is applied (`sicost_core::apply`). This checks the executable
//! Table I against the footprints the SDG figures and the robustness
//! checker are built from.

use sicost_common::{Money, TableId};
use sicost_core::{apply, AccessMode, KeySpec, Program, SfuTreatment};
use sicost_engine::TxnError;
use sicost_smallbank::schema::{customer_name, Tables};
use sicost_smallbank::sdg_spec::{plan_for, smallbank_sdg, AMG, BAL, DC, TS, WC};
use sicost_smallbank::{Programs, Statements, Strategy};
use sicost_storage::{Row, Value};
use std::collections::BTreeSet;

const TABLES: Tables = Tables {
    account: TableId(0),
    saving: TableId(1),
    checking: TableId(2),
    conflict: TableId(3),
};
/// `sdg_spec`'s table names, indexed by the ids above.
const TABLE_NAMES: [&str; 4] = ["Account", "Saving", "Checking", "Conflict"];
/// Customer `i + 1` is bound to a program's `i`-th parameter, so N and
/// N1 are customer 1 and N2 is customer 2.
const CUSTOMERS: [i64; 2] = [1, 2];

/// Answers every read with a row (an `Account` row maps a name to its
/// customer id, every other row holds a zero balance) and records each
/// statement as the access it makes.
#[derive(Default)]
struct Recorder {
    log: Vec<(TableId, Value, AccessMode)>,
}

impl Recorder {
    fn record(&mut self, table: TableId, key: &Value, mode: AccessMode) -> Option<Row> {
        self.log.push((table, key.clone(), mode));
        let value = if table == TABLES.account {
            Value::int(CUSTOMERS[bound_index(table, key)])
        } else {
            Value::int(0)
        };
        Some(Row::new(vec![key.clone(), value]))
    }
}

impl Statements for Recorder {
    fn read(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        Ok(self.record(table, key, AccessMode::Read))
    }

    fn read_for_update(&mut self, table: TableId, key: &Value) -> Result<Option<Row>, TxnError> {
        Ok(self.record(table, key, AccessMode::SfuRead))
    }

    fn update(&mut self, table: TableId, key: &Value, _row: Row) -> Result<(), TxnError> {
        self.record(table, key, AccessMode::Write);
        Ok(())
    }
}

/// The index in [`CUSTOMERS`] of the customer a statement's key names:
/// `Account` is keyed by name, the balance and `Conflict` tables by
/// customer id.
fn bound_index(table: TableId, key: &Value) -> usize {
    CUSTOMERS
        .iter()
        .position(|&c| {
            if table == TABLES.account {
                *key == Value::str(customer_name(c as u64))
            } else {
                *key == Value::int(c)
            }
        })
        .unwrap_or_else(|| panic!("key {key:?} names no bound customer"))
}

/// Runs the program `name` once with every parameter bound.
fn run(programs: &Programs, name: &str) -> Recorder {
    let mut tx = Recorder::default();
    let [n1, n2] = CUSTOMERS.map(|c| customer_name(c as u64));
    let v = Money::dollars(1);
    match name {
        BAL => programs.balance(&mut tx, &n1).map(|_| ()),
        WC => programs.write_check(&mut tx, &n1, v),
        TS => programs.transact_saving(&mut tx, &n1, v),
        AMG => programs.amalgamate(&mut tx, &n1, &n2),
        DC => programs.deposit_checking(&mut tx, &n1, v),
        other => panic!("unknown program {other}"),
    }
    .unwrap_or_else(|e| panic!("{name} must complete when every read finds a row: {e}"));
    tx
}

/// (table, parameter) pairs.
type Footprint = BTreeSet<(String, String)>;

fn declared(program: &Program, mode: AccessMode) -> Footprint {
    program
        .accesses
        .iter()
        .filter(|a| a.mode == mode)
        .map(|a| match &a.key {
            KeySpec::Param(p) => (a.table.clone(), p.clone()),
            other => panic!(
                "{}: SmallBank keys rows by parameter, not {other}",
                program.name
            ),
        })
        .collect()
}

fn executed(
    program: &Program,
    log: &[(TableId, Value, AccessMode)],
    mode: AccessMode,
) -> Footprint {
    log.iter()
        .filter(|(_, _, m)| *m == mode)
        .map(|(table, key, _)| {
            (
                TABLE_NAMES[table.0 as usize].to_string(),
                program.params[bound_index(*table, key)].clone(),
            )
        })
        .collect()
}

#[test]
fn executed_footprints_match_the_spec_under_every_strategy() {
    for sfu in [SfuTreatment::AsLockOnly, SfuTreatment::AsWrite] {
        for strategy in Strategy::all() {
            let spec = apply(&smallbank_sdg(sfu), &plan_for(strategy)).expect("plans apply");
            let programs = Programs {
                tables: TABLES,
                mods: strategy.mods(),
            };
            for program in &spec {
                let at = format!("{strategy} {sfu:?} {}", program.name);
                let log = run(&programs, &program.name).log;
                let writes = declared(program, AccessMode::Write);
                assert_eq!(
                    executed(program, &log, AccessMode::Write),
                    writes,
                    "{at}: written rows"
                );
                assert_eq!(
                    executed(program, &log, AccessMode::SfuRead),
                    declared(program, AccessMode::SfuRead),
                    "{at}: FOR UPDATE reads"
                );
                // A plain read is a declared read, or the read half of a
                // declared write to the same row: materialization and
                // identity updates read before they write.
                let reads = declared(program, AccessMode::Read);
                let plain_reads = executed(program, &log, AccessMode::Read);
                for read in &plain_reads {
                    assert!(
                        reads.contains(read) || writes.contains(read),
                        "{at}: undeclared read {read:?}"
                    );
                }
                assert!(reads.is_subset(&plain_reads), "{at}: declared reads");
            }
        }
    }
}
