//! Randomised-property tests over the core data structures and the
//! central theorems of the toolkit, rewritten as seed-driven
//! deterministic loops: each test draws its cases from a fixed-seed
//! [`Xoshiro256`], so failures reproduce exactly and the suite needs no
//! external property-testing crate (the build must work offline — see
//! `DESIGN.md`, dependency policy).

use sicost::common::{Money, Ts, TxnId, Xoshiro256};
use sicost::core::{
    minimal_edge_cover, verify_safe, Access, AccessMode, EdgeCost, EdgePick, KeySpec, Program, Sdg,
    SfuTreatment, StrategyPlan, Technique,
};
use sicost::engine::HistoryEvent;
use sicost::mvsg::Mvsg;
use sicost::storage::{Row, Value, Version, VersionChain};
use sicost::wal::{LogEntry, LogRecord, Lsn};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Version chains behave like a sorted map from timestamp to image.
// ---------------------------------------------------------------------

#[test]
fn version_chain_visibility_matches_model() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0001);
    for _case in 0..200 {
        let n = 1 + rng.next_below(29) as usize;
        let mut chain = VersionChain::new();
        let mut model: Vec<(u64, i64)> = Vec::new();
        let mut ts = 0u64;
        for i in 0..n {
            ts += 1 + rng.next_below(4); // strictly increasing, gapped
            chain.install(Version::data(
                Ts(ts),
                TxnId(i as u64),
                Row::new(vec![Value::int(i as i64)]),
            ));
            model.push((ts, i as i64));
        }
        for _ in 0..20 {
            let probe = rng.next_below(200);
            let expect = model
                .iter()
                .rev()
                .find(|(t, _)| *t <= probe)
                .map(|(_, v)| *v);
            let got = chain
                .visible(Ts(probe))
                .and_then(|v| v.row())
                .map(|r| r.int(0));
            assert_eq!(got, expect, "probe {probe} in case {_case}");
        }
    }
}

#[test]
fn prune_preserves_visibility_at_or_after_horizon() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0002);
    for _case in 0..200 {
        let n = 2 + rng.next_below(28) as usize;
        let mut chain = VersionChain::new();
        let mut ts = 0u64;
        for i in 0..n {
            ts += 1 + rng.next_below(4);
            chain.install(Version::data(
                Ts(ts),
                TxnId(i as u64),
                Row::new(vec![Value::int(i as i64)]),
            ));
        }
        // Horizon anywhere from 0 to past the newest stamp.
        let horizon = (ts as f64 * 1.2 * rng.next_f64()) as u64;
        let before: Vec<_> = (horizon..=ts + 2)
            .map(|p| chain.visible(Ts(p)).map(|v| v.ts))
            .collect();
        chain.prune(Ts(horizon));
        let after: Vec<_> = (horizon..=ts + 2)
            .map(|p| chain.visible(Ts(p)).map(|v| v.ts))
            .collect();
        assert_eq!(before, after, "pruning changed visible history");
    }
}

// ---------------------------------------------------------------------
// Money arithmetic.
// ---------------------------------------------------------------------

#[test]
fn money_add_sub_roundtrip() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0003);
    let bound = 2_000_000_000u64;
    for _ in 0..10_000 {
        let a = rng.next_below(bound) as i64 - 1_000_000_000;
        let b = rng.next_below(bound) as i64 - 1_000_000_000;
        let (x, y) = (Money::cents(a), Money::cents(b));
        assert_eq!((x + y) - y, x);
        assert_eq!(x + y, y + x);
        assert_eq!(-(-x), x);
    }
}

#[test]
fn money_display_shows_cents() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0004);
    for _ in 0..2_000 {
        let a = rng.next_below(2_000_000) as i64 - 1_000_000;
        let s = Money::cents(a).to_string();
        assert!(s.contains('.'), "{s}");
        assert!(s.contains('$'), "{s}");
    }
}

// ---------------------------------------------------------------------
// WAL records: binary encoding round-trips and rejects corruption.
// ---------------------------------------------------------------------

/// Integers at the edges of the zigzag varint encoding.
const EDGE_INTS: [i64; 4] = [i64::MIN, -1, 0, i64::MAX];

fn random_string(rng: &mut Xoshiro256, len: usize) -> Value {
    let s: String = (0..len)
        .map(|_| char::from(b'a' + rng.next_below(26) as u8))
        .collect();
    Value::str(&s)
}

fn random_value(rng: &mut Xoshiro256) -> Value {
    match rng.next_below(6) {
        0 => Value::Null,
        1 => Value::int(rng.next_below(u64::MAX) as i64),
        2 => Value::int(EDGE_INTS[rng.next_below(4) as usize]),
        // One- and two-byte varints of either sign.
        3 => Value::int(rng.next_below(512) as i64 - 256),
        4 => {
            let len = rng.next_below(12) as usize;
            random_string(rng, len)
        }
        // Empty or multi-KB: the string-length varint's extremes.
        _ => {
            let len = if rng.next_bool(0.5) {
                0
            } else {
                1024 + rng.next_below(4096) as usize
            };
            random_string(rng, len)
        }
    }
}

fn random_table(rng: &mut Xoshiro256) -> sicost::common::TableId {
    sicost::common::TableId(match rng.next_below(3) {
        0 => rng.next_below(8),
        // Two- and three-byte varints.
        1 => 128 + rng.next_below(1 << 20),
        _ => rng.next_below(u64::from(u32::MAX) + 1),
    } as u32)
}

fn random_record(rng: &mut Xoshiro256) -> LogRecord {
    let n = if rng.next_bool(0.05) {
        64 + rng.next_below(192)
    } else {
        rng.next_below(5)
    };
    let entries = (0..n)
        .map(|_| {
            let table = random_table(rng);
            let key = random_value(rng);
            let image = if rng.next_bool(0.3) {
                None
            } else {
                let arity = rng.next_below(4) as usize;
                let mut cells: Vec<Value> = (0..arity).map(|_| random_value(rng)).collect();
                // Half the images repeat the key in some cell, as rows
                // that carry their primary key do.
                if arity > 0 && rng.next_bool(0.5) {
                    cells[rng.next_below(arity as u64) as usize] = key.clone();
                }
                Some(Row::new(cells))
            };
            LogEntry { table, key, image }
        })
        .collect();
    LogRecord {
        lsn: Lsn(rng.next_below(u64::MAX)),
        txn: TxnId(rng.next_below(u64::MAX)),
        entries,
    }
}

#[test]
fn wal_record_encoding_round_trips() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0005);
    for case in 0..500 {
        let rec = random_record(&mut rng);
        let bytes = rec.encode();
        let (back, used) =
            LogRecord::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(back, rec, "case {case}");
        assert_eq!(used, bytes.len(), "case {case}");
    }
}

/// Frames `payload` the way the log does.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    sicost::wal::put_frame(&mut out, payload);
    out
}

/// A payload that passes its checksum but holds a varint longer than a
/// `u64`, or one that overflows its field, is malformed — never a panic
/// and never a record.
#[test]
fn over_long_varints_decode_as_malformed() {
    let malformed = |payload: &[u8]| {
        let err = LogRecord::decode(&frame(payload)).unwrap_err();
        assert!(
            matches!(err, sicost::wal::DecodeError::Malformed(_)),
            "{payload:02x?} gave {err:?}"
        );
    };
    // Eleven bytes, every one with the continuation bit.
    malformed(&[0xff; 11]);
    // Ten bytes whose last carries more than bit 63.
    let mut overflow = vec![0xff; 9];
    overflow.push(0x02);
    malformed(&overflow);
    // A continuation bit on the payload's last byte.
    malformed(&[0x01, 0x01, 0x81]);
    // A table id (lsn 1, txn 1, one entry) that does not fit a u32.
    malformed(&[0x01, 0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00]);
    // A well-formed header for comparison decodes: lsn 1, txn 1, no entries.
    assert!(LogRecord::decode(&frame(&[0x01, 0x01, 0x00])).is_ok());
}

/// A log torn at any byte offset scans to exactly the records that lie
/// wholly before the tear, and reports the torn frame's offset.
#[test]
fn scan_log_truncates_a_frame_torn_at_any_offset() {
    // Small records (every cut rescans the log), still with multi-byte
    // varints in each field.
    let records: Vec<LogRecord> = (0..6u64)
        .map(|i| LogRecord {
            lsn: Lsn(126 + i),
            txn: TxnId(1 << (7 * i)),
            entries: (0..i)
                .map(|j| LogEntry {
                    table: sicost::common::TableId(127 + j as u32),
                    key: Value::int(EDGE_INTS[j as usize % 4]),
                    image: (j % 2 == 0).then(|| Row::new(vec![Value::str("torn"), Value::Null])),
                })
                .collect(),
        })
        .collect();
    let mut log = Vec::new();
    let mut ends = Vec::new();
    for r in &records {
        r.encode_into(&mut log);
        ends.push(log.len());
    }
    for cut in 0..=log.len() {
        let scan = sicost::wal::scan_log(&log[..cut]);
        let whole = ends.iter().take_while(|&&end| end <= cut).count();
        assert_eq!(scan.records, records[..whole], "cut at {cut}");
        let start = if whole == 0 { 0 } else { ends[whole - 1] };
        match scan.truncated {
            None => assert_eq!(start, cut, "cut at {cut} inside a frame went unnoticed"),
            Some(t) => {
                assert_eq!(t.offset, start, "cut at {cut}");
                assert!(
                    matches!(
                        t.cause,
                        sicost::wal::DecodeError::TruncatedHeader
                            | sicost::wal::DecodeError::TruncatedPayload
                    ),
                    "cut at {cut}: {:?}",
                    t.cause
                );
            }
        }
    }
}

#[test]
fn wal_record_corruption_never_decodes_to_a_different_record() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0006);
    for case in 0..200 {
        let rec = random_record(&mut rng);
        let clean = rec.encode();
        // Flip one random bit anywhere in the frame.
        let mut dirty = clean.clone();
        let byte = rng.next_below(dirty.len() as u64) as usize;
        let bit = 1u8 << rng.next_below(8);
        dirty[byte] ^= bit;
        match LogRecord::decode(&dirty) {
            Err(_) => {}
            // A flip in the length header can only "succeed" by reading a
            // different span whose checksum still matches — astronomically
            // unlikely; a decoded record equal to the original would mean
            // the flip was silently ignored.
            Ok((back, _)) => assert_ne!(back, rec, "case {case}: flip at {byte} undetected"),
        }
    }
}

// ---------------------------------------------------------------------
// Serial histories are always serializable (MVSG sanity).
// ---------------------------------------------------------------------

#[test]
fn serial_histories_certify() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0007);
    for _case in 0..300 {
        let n_ops = 1 + rng.next_below(79) as usize;
        // Execute transactions strictly one after another over 6 keys.
        let mut latest: HashMap<u64, Ts> = HashMap::new();
        let mut events = Vec::new();
        let mut clock = 0u64;
        for i in 0..n_ops {
            let key = rng.next_below(6);
            let writes = rng.next_bool(0.5);
            let txn = TxnId(i as u64);
            let k = Value::int(key as i64);
            events.push(HistoryEvent::Read {
                txn,
                table: sicost::common::TableId(0),
                key: k.clone(),
                observed: latest.get(&key).copied(),
            });
            let mut writes_v = Vec::new();
            if writes {
                clock += 1;
                latest.insert(key, Ts(clock));
                writes_v.push((sicost::common::TableId(0), k));
            }
            events.push(HistoryEvent::Commit {
                txn,
                commit_ts: Ts(clock),
                writes: writes_v,
            });
        }
        let g = Mvsg::from_events(&events);
        assert!(g.is_serializable(), "a serial history failed certification");
    }
}

// ---------------------------------------------------------------------
// The central theorem machinery: for ANY random program mix,
// materializing every vulnerable edge yields a mix with no dangerous
// structure; and the minimal cover, once applied, does too.
// ---------------------------------------------------------------------

fn random_keyspec(rng: &mut Xoshiro256) -> KeySpec {
    match rng.next_below(3) {
        0 => KeySpec::Param(if rng.next_bool(0.5) { "A" } else { "B" }.into()),
        1 => KeySpec::Const(if rng.next_bool(0.5) { "k1" } else { "k2" }.into()),
        _ => KeySpec::Predicate("pred".into()),
    }
}

fn random_access(rng: &mut Xoshiro256) -> Access {
    let table = ["T0", "T1", "T2"][rng.next_below(3) as usize];
    let mode =
        [AccessMode::Read, AccessMode::Write, AccessMode::SfuRead][rng.next_below(3) as usize];
    Access {
        table: table.into(),
        key: random_keyspec(rng),
        mode,
    }
}

fn random_mix(rng: &mut Xoshiro256) -> Vec<Program> {
    let n_programs = 2 + rng.next_below(2) as usize;
    (0..n_programs)
        .map(|i| {
            let n_accesses = 1 + rng.next_below(4) as usize;
            Program {
                name: format!("P{i}"),
                params: vec!["A".into(), "B".into()],
                accesses: (0..n_accesses).map(|_| random_access(rng)).collect(),
            }
        })
        .collect()
}

#[test]
fn materializing_all_vulnerable_edges_always_makes_mixes_safe() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0008);
    for _case in 0..64 {
        let mix = random_mix(&mut rng);
        for sfu in [SfuTreatment::AsLockOnly, SfuTreatment::AsWrite] {
            let sdg = Sdg::build(&mix, sfu);
            let plan = StrategyPlan::all_vulnerable(&sdg, Technique::Materialize);
            let (_, re) = verify_safe(&sdg, &plan, sfu).expect("materialization always applies");
            assert!(
                re.is_si_serializable(),
                "MaterializeALL left a dangerous structure: {:?}",
                re.dangerous_structures()
            );
        }
    }
}

#[test]
fn minimal_cover_applied_via_materialization_is_safe() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_0009);
    for _case in 0..64 {
        let mix = random_mix(&mut rng);
        let sfu = SfuTreatment::AsLockOnly;
        let sdg = Sdg::build(&mix, sfu);
        let solution = minimal_edge_cover(&sdg, EdgeCost::default());
        let plan = StrategyPlan {
            picks: solution
                .edges
                .iter()
                .map(|&ei| {
                    let e = &sdg.edges()[ei];
                    EdgePick {
                        from: sdg.programs()[e.from].name.clone(),
                        to: sdg.programs()[e.to].name.clone(),
                        technique: Technique::Materialize,
                    }
                })
                .collect(),
        };
        let (_, re) = verify_safe(&sdg, &plan, sfu).expect("cover edges are vulnerable");
        assert!(
            re.is_si_serializable(),
            "cover {:?} did not dissolve all structures",
            solution.edges
        );
    }
}

#[test]
fn safe_mixes_stay_safe_under_materialization() {
    // Monotonicity: adding conflict-table writes never *creates* a
    // dangerous structure in an already-safe mix.
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_000A);
    for _case in 0..64 {
        let mix = random_mix(&mut rng);
        let sfu = SfuTreatment::AsLockOnly;
        let sdg = Sdg::build(&mix, sfu);
        if sdg.is_si_serializable() {
            let plan = StrategyPlan::all_vulnerable(&sdg, Technique::Materialize);
            let (_, re) = verify_safe(&sdg, &plan, sfu).unwrap();
            assert!(re.is_si_serializable());
        }
    }
}

// ---------------------------------------------------------------------
// Engine as a key-value store: single-threaded random workloads match a
// HashMap model exactly.
// ---------------------------------------------------------------------

#[test]
fn engine_matches_model_single_threaded() {
    use sicost::engine::{Database, EngineConfig};
    use sicost::storage::{ColumnDef, ColumnType, TableSchema};
    let mut rng = Xoshiro256::seed_from_u64(0x5EED_000B);
    for _case in 0..32 {
        let db = Database::builder()
            .table(
                TableSchema::new(
                    "T",
                    vec![
                        ColumnDef::new("id", ColumnType::Int),
                        ColumnDef::new("v", ColumnType::Int),
                    ],
                    0,
                    vec![],
                )
                .unwrap(),
            )
            .unwrap()
            .config(EngineConfig::functional())
            .build();
        let tid = db.table_id("T").unwrap();
        let mut model: HashMap<i64, i64> = HashMap::new();
        let n_ops = 1 + rng.next_below(59) as usize;
        for _ in 0..n_ops {
            let key = rng.next_below(20) as i64;
            let val = if rng.next_bool(0.7) {
                Some(rng.next_below(1000) as i64)
            } else {
                None
            };
            let mut tx = db.begin();
            let k = Value::int(key);
            match val {
                Some(v) => {
                    // upsert
                    let row = Row::new(vec![k.clone(), Value::int(v)]);
                    if model.contains_key(&key) {
                        tx.update(tid, &k, row).unwrap();
                    } else {
                        tx.insert(tid, row).unwrap();
                    }
                    model.insert(key, v);
                }
                None => {
                    let deleted = tx.delete(tid, &k).unwrap();
                    assert_eq!(deleted, model.remove(&key).is_some());
                }
            }
            tx.commit().unwrap();
            // Full check against the model.
            let mut check = db.begin();
            for k in 0..20i64 {
                let got = check.read(tid, &Value::int(k)).unwrap().map(|r| r.int(1));
                assert_eq!(got, model.get(&k).copied());
            }
            check.commit().unwrap();
        }
    }
}
