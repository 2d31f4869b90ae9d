//! Log replay: rebuild table state from the redo log.
//!
//! Because the engine only logs *validated* transactions (validation and
//! lock acquisition happen before the WAL write, and installation after),
//! replaying every record in LSN order reconstructs exactly the committed
//! state. Replay assigns fresh, densely increasing commit timestamps — one
//! per record — which preserves per-key version order because the engine
//! holds each row's write lock from the WAL write through installation.
//!
//! Crash recovery is a two-step pipeline: [`scan_log`] decodes the durable
//! byte image, verifying each record's checksum and truncating at the
//! first torn or corrupt frame; [`replay`] then installs the surviving
//! records. [`recover`] composes the two.

use crate::record::{DecodeError, LogRecord};
use sicost_common::Ts;
use sicost_storage::{Catalog, Version};
use std::fmt;

/// Errors during replay.
#[derive(Debug)]
pub enum RecoveryError {
    /// A record referenced a table missing from the catalog.
    UnknownTable(String),
    /// Installation failed (schema or uniqueness violation ⇒ corrupt log).
    Install(String),
    /// The log prefix below this logical byte offset was truncated away
    /// and no usable checkpoint covers it: the history cannot be
    /// reconstructed. Only reachable if the durable manifest area was
    /// destroyed *after* truncation — the protocol never truncates before
    /// the manifest swap is durable.
    MissingPrefix(u64),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::UnknownTable(t) => write!(f, "log references unknown table {t}"),
            RecoveryError::Install(e) => write!(f, "log replay failed to install: {e}"),
            RecoveryError::MissingPrefix(base) => write!(
                f,
                "log prefix below byte {base} was truncated and no usable checkpoint covers it"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Where and why [`scan_log`] stopped before the end of the byte image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// Byte offset of the first unreadable frame; everything at and past
    /// this offset is discarded.
    pub offset: usize,
    /// What failed there.
    pub cause: DecodeError,
}

/// The result of scanning a durable log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanResult {
    /// Records that decoded with valid checksums, in log order.
    pub records: Vec<LogRecord>,
    /// `Some` when the scan stopped early at a torn or corrupt frame.
    pub truncated: Option<Truncation>,
}

/// Decodes a durable log image into records, stopping at the first frame
/// that is torn (truncated) or fails its checksum. Such a tail is the
/// expected remnant of a crash mid-sync; everything before it was written
/// atomically and is safe to replay.
pub fn scan_log(bytes: &[u8]) -> ScanResult {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match LogRecord::decode(&bytes[pos..]) {
            Ok((rec, used)) => {
                records.push(rec);
                pos += used;
            }
            Err(cause) => {
                return ScanResult {
                    records,
                    truncated: Some(Truncation { offset: pos, cause }),
                };
            }
        }
    }
    ScanResult {
        records,
        truncated: None,
    }
}

/// Full crash recovery: scan the durable byte image (truncating any torn
/// tail) and replay the surviving records into `catalog` starting at
/// timestamp `base`. Returns the final timestamp and what the scan found.
pub fn recover(
    bytes: &[u8],
    catalog: &Catalog,
    base: Ts,
) -> Result<(Ts, ScanResult), RecoveryError> {
    let scan = scan_log(bytes);
    let end = replay(&scan.records, catalog, base)?;
    Ok((end, scan))
}

/// Replays `records` (already in LSN order) into `catalog`, starting at
/// timestamp `base`. Returns the final timestamp after replay.
pub fn replay(records: &[LogRecord], catalog: &Catalog, base: Ts) -> Result<Ts, RecoveryError> {
    let mut ts = base;
    for rec in records {
        ts = ts.next();
        for entry in &rec.entries {
            if (entry.table.0 as usize) >= catalog.len() {
                return Err(RecoveryError::UnknownTable(entry.table.to_string()));
            }
            let table = catalog.table(entry.table);
            let version = match &entry.image {
                Some(row) => Version::data(ts, rec.txn, row.clone()),
                None => Version::tombstone(ts, rec.txn),
            };
            table
                .install(&entry.key, version, Ts::ZERO)
                .map_err(|e| RecoveryError::Install(e.to_string()))?;
        }
    }
    Ok(ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogEntry, Lsn};
    use sicost_common::{TableId, TxnId};
    use sicost_storage::{ColumnDef, ColumnType, Row, TableSchema, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
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
        .unwrap();
        c
    }

    fn rec(lsn: u64, txn: u64, key: i64, img: Option<i64>) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            txn: TxnId(txn),
            entries: vec![LogEntry {
                table: TableId(0),
                key: Value::int(key),
                image: img.map(|v| Row::new(vec![Value::int(key), Value::int(v)])),
            }],
        }
    }

    #[test]
    fn replay_rebuilds_updates_and_deletes() {
        let c = catalog();
        let log = vec![
            rec(0, 1, 1, Some(10)),
            rec(1, 2, 2, Some(20)),
            rec(2, 3, 1, Some(11)),
            rec(3, 4, 2, None),
        ];
        let end = replay(&log, &c, Ts::ZERO).unwrap();
        assert_eq!(end, Ts(4));
        let t = c.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(1), end).unwrap().row.unwrap().int(1),
            11
        );
        assert!(t.read_at(&Value::int(2), end).unwrap().row.is_none());
        // Intermediate snapshots are honoured too.
        assert_eq!(
            t.read_at(&Value::int(1), Ts(1))
                .unwrap()
                .row
                .unwrap()
                .int(1),
            10
        );
    }

    #[test]
    fn multi_entry_record_is_atomic() {
        let c = catalog();
        let log = vec![LogRecord {
            lsn: Lsn(0),
            txn: TxnId(1),
            entries: vec![
                LogEntry {
                    table: TableId(0),
                    key: Value::int(1),
                    image: Some(Row::new(vec![Value::int(1), Value::int(5)])),
                },
                LogEntry {
                    table: TableId(0),
                    key: Value::int(2),
                    image: Some(Row::new(vec![Value::int(2), Value::int(6)])),
                },
            ],
        }];
        let end = replay(&log, &c, Ts::ZERO).unwrap();
        let t = c.table(TableId(0));
        // Both effects carry the same timestamp.
        assert_eq!(t.read_at(&Value::int(1), end).unwrap().ts, Ts(1));
        assert_eq!(t.read_at(&Value::int(2), end).unwrap().ts, Ts(1));
    }

    #[test]
    fn unknown_table_is_an_error() {
        let c = catalog();
        let bad = LogRecord {
            lsn: Lsn(0),
            txn: TxnId(1),
            entries: vec![LogEntry {
                table: TableId(9),
                key: Value::int(1),
                image: None,
            }],
        };
        assert!(matches!(
            replay(&[bad], &c, Ts::ZERO),
            Err(RecoveryError::UnknownTable(_))
        ));
    }

    #[test]
    fn replay_continues_from_base_ts() {
        let c = catalog();
        let end = replay(&[rec(0, 1, 1, Some(1))], &c, Ts(100)).unwrap();
        assert_eq!(end, Ts(101));
        let t = c.table(TableId(0));
        assert!(t.read_at(&Value::int(1), Ts(100)).is_none());
        assert!(t.read_at(&Value::int(1), Ts(101)).is_some());
    }

    #[test]
    fn scan_reads_a_clean_image_in_full() {
        let recs = vec![rec(0, 1, 1, Some(10)), rec(1, 2, 2, None)];
        let mut bytes = Vec::new();
        for r in &recs {
            r.encode_into(&mut bytes);
        }
        let scan = scan_log(&bytes);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.truncated, None);
    }

    #[test]
    fn scan_truncates_a_torn_tail() {
        let good = rec(0, 1, 1, Some(10));
        let torn = rec(1, 2, 2, Some(20));
        let mut bytes = good.encode();
        let offset = bytes.len();
        let frame = torn.encode();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        let scan = scan_log(&bytes);
        assert_eq!(scan.records, vec![good]);
        let t = scan.truncated.expect("tail must be reported");
        assert_eq!(t.offset, offset);
        assert!(matches!(
            t.cause,
            DecodeError::TruncatedHeader | DecodeError::TruncatedPayload
        ));
    }

    #[test]
    fn scan_truncates_at_a_corrupt_record_mid_log() {
        let a = rec(0, 1, 1, Some(10));
        let b = rec(1, 2, 2, Some(20));
        let c = rec(2, 3, 3, Some(30));
        let mut bytes = a.encode();
        let b_frame = b.encode();
        let (b_payload, b_len) = crate::record::read_frame(&b_frame).unwrap();
        let corrupt_at = bytes.len() + (b_len - b_payload.len());
        bytes.extend_from_slice(&b_frame);
        c.encode_into(&mut bytes);
        bytes[corrupt_at] ^= 0xff; // flip a payload byte of b
        let scan = scan_log(&bytes);
        // b's corruption also hides c: nothing past the first bad frame is
        // trusted, because frame boundaries after it can't be.
        assert_eq!(scan.records, vec![a]);
        assert_eq!(scan.truncated.unwrap().cause, DecodeError::ChecksumMismatch);
    }

    #[test]
    fn recover_composes_scan_and_replay() {
        let cat = catalog();
        let committed = rec(0, 1, 1, Some(10));
        let mut bytes = committed.encode();
        let torn = rec(1, 2, 2, Some(20)).encode();
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        let (end, scan) = recover(&bytes, &cat, Ts::ZERO).unwrap();
        assert_eq!(end, Ts(1));
        assert!(scan.truncated.is_some());
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(1), end).unwrap().row.unwrap().int(1),
            10
        );
        assert!(t.read_at(&Value::int(2), end).is_none(), "torn txn gone");
    }
}
