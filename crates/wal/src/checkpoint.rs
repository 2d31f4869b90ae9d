//! Checkpoint frames, the swap manifest, and image-level recovery.
//!
//! A checkpoint is a consistent snapshot of every table at a single
//! published commit timestamp `C`, serialized into one FNV-1a-checksummed
//! frame (the same `[len][checksum][payload]` framing as log records, so a
//! torn checkpoint write is detected exactly like a torn log tail). The
//! frame lands in one of two slots; a tiny *manifest* — also framed and
//! checksummed — records which slot is live, the checkpoint timestamp, and
//! the logical WAL byte offset `O` from which replay must resume.
//!
//! Crash ordering is the whole game:
//!
//! 1. write the checkpoint frame into the **inactive** slot — a crash here
//!    tears the new slot but leaves the old slot and manifest intact;
//! 2. atomically swap the manifest (retaining the previous manifest bytes
//!    for fallback) — a crash before the swap recovers from the old
//!    checkpoint, a crash after recovers from the new one, and a torn new
//!    checkpoint can never be referenced because its manifest was never
//!    written;
//! 3. only then truncate the log prefix below `O` — truncation is safe
//!    precisely because the manifest pointing past it is already durable.
//!
//! [`recover_image`] validates manifests current-first with fallback to
//! the previous one, rejecting any candidate whose checkpoint frame is
//! torn, whose slot timestamp disagrees, or whose `O` lies outside the
//! surviving log window.

use crate::record::{
    decode_value, encode_value, fnv1a, get_u32, get_u64, put_u32, put_u64, Cursor, DecodeError,
    FRAME_HEADER,
};
use crate::recovery::{replay, scan_log, RecoveryError, ScanResult};
use sicost_common::{TableId, Ts, TxnId};
use sicost_storage::paged::load_visible_rows;
use sicost_storage::{Catalog, HeapImage, Row, Value, Version};

/// Format version stamped into manifests and full-image checkpoint frames.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Format version of incremental (paged) checkpoint frames: the frame
/// carries only the checkpoint timestamp and flush bookkeeping, because
/// the data itself is the heap's pages — made durable by the dirty-page
/// flush that precedes the frame write.
pub const PAGED_CHECKPOINT_VERSION: u32 = 2;

/// The transaction id stamped on versions installed from a checkpoint
/// frame. Recovery-only; no live transaction can carry it.
pub const CHECKPOINT_TXN: TxnId = TxnId(u64::MAX);

/// The commit timestamp checkpoint rows are installed at during recovery.
/// Replay of the post-checkpoint suffix starts here, so every replayed
/// version lands strictly above the checkpoint image.
pub const CHECKPOINT_BASE_TS: Ts = Ts(1);

/// The durable pointer to the live checkpoint: which slot holds it, the
/// commit timestamp it captures, and the logical WAL offset from which
/// redo must resume. Swapped atomically *after* the checkpoint frame is
/// durable and *before* the log prefix is truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Which of the two checkpoint slots holds the frame (0 or 1).
    pub slot: u8,
    /// The published commit timestamp the checkpoint captures: every
    /// commit with ts ≤ this is inside the frame.
    pub checkpoint_ts: Ts,
    /// Logical WAL byte offset to resume replay from. Every record that
    /// begins below this offset is covered by the checkpoint.
    pub wal_offset: u64,
}

impl Manifest {
    /// Framed, checksummed encoding (what gets swapped into the durable
    /// manifest area).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(21);
        put_u32(&mut payload, CHECKPOINT_VERSION);
        payload.push(self.slot);
        put_u64(&mut payload, self.checkpoint_ts.0);
        put_u64(&mut payload, self.wal_offset);
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut out, payload.len() as u32);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a manifest, verifying frame checksum, version, slot range,
    /// and that no trailing bytes follow (the manifest area is swapped
    /// whole).
    pub fn decode(bytes: &[u8]) -> Result<Manifest, DecodeError> {
        let (payload, used) = checked_frame(bytes)?;
        if used != bytes.len() {
            return Err(DecodeError::Malformed("trailing bytes after manifest"));
        }
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        if cur.u32()? != CHECKPOINT_VERSION {
            return Err(DecodeError::Malformed("unknown manifest version"));
        }
        let slot = cur.u8()?;
        if slot > 1 {
            return Err(DecodeError::Malformed("manifest slot out of range"));
        }
        let checkpoint_ts = Ts(cur.u64()?);
        let wal_offset = cur.u64()?;
        if cur.pos != payload.len() {
            return Err(DecodeError::Malformed("trailing bytes in manifest payload"));
        }
        Ok(Manifest {
            slot,
            checkpoint_ts,
            wal_offset,
        })
    }
}

/// The decoded contents of one checkpoint frame: a consistent snapshot of
/// every table at [`CheckpointImage::ts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointImage {
    /// The commit timestamp the snapshot was taken at.
    pub ts: Ts,
    /// Per-table live rows `(primary key, row)`, sorted by key.
    pub tables: Vec<(TableId, Vec<(Value, Row)>)>,
}

impl CheckpointImage {
    /// Framed, checksummed encoding (what gets written into a slot).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_u32(&mut payload, CHECKPOINT_VERSION);
        put_u64(&mut payload, self.ts.0);
        put_u32(&mut payload, self.tables.len() as u32);
        for (table, rows) in &self.tables {
            put_u32(&mut payload, table.0);
            put_u32(&mut payload, rows.len() as u32);
            for (key, row) in rows {
                encode_value(&mut payload, key);
                put_u32(&mut payload, row.arity() as u32);
                for cell in row.cells() {
                    encode_value(&mut payload, cell);
                }
            }
        }
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut out, payload.len() as u32);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a checkpoint frame, verifying its checksum. A torn slot
    /// (crash mid-write) fails here, which makes recovery skip the
    /// manifest candidate referencing it.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointImage, DecodeError> {
        let (payload, used) = checked_frame(bytes)?;
        if used != bytes.len() {
            return Err(DecodeError::Malformed("trailing bytes after checkpoint"));
        }
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        if cur.u32()? != CHECKPOINT_VERSION {
            return Err(DecodeError::Malformed("unknown checkpoint version"));
        }
        let ts = Ts(cur.u64()?);
        let ntables = cur.u32()? as usize;
        if ntables > payload.len() {
            return Err(DecodeError::Malformed("table count exceeds payload"));
        }
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let table = TableId(cur.u32()?);
            let nrows = cur.u32()? as usize;
            if nrows > payload.len() {
                return Err(DecodeError::Malformed("row count exceeds payload"));
            }
            let mut rows = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                let key = decode_value(&mut cur)?;
                let arity = cur.u32()? as usize;
                if arity > payload.len() {
                    return Err(DecodeError::Malformed("row arity exceeds payload"));
                }
                let mut cells = Vec::with_capacity(arity);
                for _ in 0..arity {
                    cells.push(decode_value(&mut cur)?);
                }
                rows.push((key, Row::new(cells)));
            }
            tables.push((table, rows));
        }
        if cur.pos != payload.len() {
            return Err(DecodeError::Malformed("trailing bytes in checkpoint"));
        }
        Ok(CheckpointImage { ts, tables })
    }
}

/// An incremental checkpoint frame: written after every dirty pooled page
/// has been flushed to the heap, it promises "the heap's pages, read at
/// `ts`, are the checkpoint image". Orders of magnitude smaller than a
/// [`CheckpointImage`] — the A8 harness compares exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedCheckpoint {
    /// The commit timestamp the checkpoint captures.
    pub ts: Ts,
    /// Dirty pages flushed by the checkpoint that wrote this frame.
    pub pages_flushed: u64,
    /// Framed page bytes those flushes wrote.
    pub flushed_bytes: u64,
}

impl PagedCheckpoint {
    /// Framed, checksummed encoding (what gets written into a slot).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(28);
        put_u32(&mut payload, PAGED_CHECKPOINT_VERSION);
        put_u64(&mut payload, self.ts.0);
        put_u64(&mut payload, self.pages_flushed);
        put_u64(&mut payload, self.flushed_bytes);
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut out, payload.len() as u32);
        put_u64(&mut out, fnv1a(&payload));
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a paged checkpoint frame, verifying its checksum.
    pub fn decode(bytes: &[u8]) -> Result<PagedCheckpoint, DecodeError> {
        let (payload, used) = checked_frame(bytes)?;
        if used != bytes.len() {
            return Err(DecodeError::Malformed("trailing bytes after checkpoint"));
        }
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        if cur.u32()? != PAGED_CHECKPOINT_VERSION {
            return Err(DecodeError::Malformed("unknown checkpoint version"));
        }
        let ts = Ts(cur.u64()?);
        let pages_flushed = cur.u64()?;
        let flushed_bytes = cur.u64()?;
        if cur.pos != payload.len() {
            return Err(DecodeError::Malformed(
                "trailing bytes in checkpoint payload",
            ));
        }
        Ok(PagedCheckpoint {
            ts,
            pages_flushed,
            flushed_bytes,
        })
    }
}

/// A decoded checkpoint slot: either backend's frame, dispatched on the
/// version word at the head of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointFrame {
    /// A version-1 full-image frame (resident backend).
    Full(CheckpointImage),
    /// A version-2 incremental frame (paged backend).
    Paged(PagedCheckpoint),
}

impl CheckpointFrame {
    /// Decodes either frame kind, verifying the checksum first so a torn
    /// slot is rejected before the version word is trusted.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointFrame, DecodeError> {
        let (payload, _) = checked_frame(bytes)?;
        if payload.len() < 4 {
            return Err(DecodeError::Malformed("checkpoint payload too short"));
        }
        match get_u32(&payload[0..4]) {
            CHECKPOINT_VERSION => Ok(CheckpointFrame::Full(CheckpointImage::decode(bytes)?)),
            PAGED_CHECKPOINT_VERSION => Ok(CheckpointFrame::Paged(PagedCheckpoint::decode(bytes)?)),
            _ => Err(DecodeError::Malformed("unknown checkpoint version")),
        }
    }

    /// The checkpoint timestamp, whichever the frame kind.
    pub fn ts(&self) -> Ts {
        match self {
            CheckpointFrame::Full(f) => f.ts,
            CheckpointFrame::Paged(p) => p.ts,
        }
    }
}

/// Verifies the `[len][checksum][payload]` frame at the front of `bytes`;
/// returns the payload slice and total bytes consumed.
fn checked_frame(bytes: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    if bytes.len() < FRAME_HEADER {
        return Err(DecodeError::TruncatedHeader);
    }
    let len = get_u32(&bytes[0..4]) as usize;
    let checksum = get_u64(&bytes[4..12]);
    let total = FRAME_HEADER + len;
    if bytes.len() < total {
        return Err(DecodeError::TruncatedPayload);
    }
    let payload = &bytes[FRAME_HEADER..total];
    if fnv1a(payload) != checksum {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok((payload, total))
}

/// Everything the "disk" holds after a crash: the two checkpoint slots,
/// the current and previous manifest bytes, and the surviving log window
/// (`wal` starts at logical byte offset `wal_base`; everything below
/// `wal_base` has been truncated away).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableImage {
    /// Current manifest bytes (empty before the first checkpoint).
    pub manifest: Vec<u8>,
    /// Previous manifest bytes, retained across the swap so a torn
    /// current checkpoint can fall back one generation.
    pub prev_manifest: Vec<u8>,
    /// The two checkpoint slots. Writes alternate; the manifest names the
    /// live one.
    pub slots: [Vec<u8>; 2],
    /// Logical byte offset of the first byte in `wal`.
    pub wal_base: u64,
    /// The surviving log bytes.
    pub wal: Vec<u8>,
    /// The paged heap's durable page bytes (empty on the resident
    /// backend). An incremental checkpoint frame points into this instead
    /// of carrying rows itself.
    pub heap: HeapImage,
}

/// What [`recover_image`] reconstructed and how much work it took.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The last commit timestamp after recovery; the restarted engine's
    /// clock must resume at or above this.
    pub end_ts: Ts,
    /// The manifest the recovery started from, when a usable checkpoint
    /// existed.
    pub checkpoint: Option<Manifest>,
    /// Log records replayed (post-checkpoint suffix only, when a
    /// checkpoint was used).
    pub replayed_records: usize,
    /// Log bytes actually replayed. With a checkpoint this is the suffix
    /// length — strictly less than the full history once anything has
    /// been truncated.
    pub replayed_bytes: u64,
    /// Rows installed from the checkpoint frame.
    pub checkpoint_rows: usize,
    /// The raw scan result for the replayed window (torn-tail reporting).
    pub scan: ScanResult,
}

/// Recovers catalog state from a durable image: pick the newest usable
/// manifest (current first, falling back to the previous one when the
/// current generation is torn, mismatched, or out of window), install its
/// checkpoint rows at [`CHECKPOINT_BASE_TS`], then replay only the log
/// suffix from the manifest's `wal_offset`. With no usable manifest the
/// whole log is replayed — which is only possible while nothing has been
/// truncated ([`RecoveryError::MissingPrefix`] otherwise).
pub fn recover_image(
    image: &DurableImage,
    catalog: &Catalog,
) -> Result<RecoveryOutcome, RecoveryError> {
    let wal_end = image.wal_base + image.wal.len() as u64;
    for manifest_bytes in [&image.manifest, &image.prev_manifest] {
        let Ok(manifest) = Manifest::decode(manifest_bytes) else {
            continue;
        };
        if manifest.wal_offset < image.wal_base || manifest.wal_offset > wal_end {
            // Points outside the surviving window (past EOF, or below the
            // truncation horizon): unusable.
            continue;
        }
        let Ok(frame) = CheckpointFrame::decode(&image.slots[manifest.slot as usize]) else {
            continue; // torn or overwritten slot
        };
        if frame.ts() != manifest.checkpoint_ts {
            continue; // slot belongs to a different checkpoint generation
        }
        let checkpoint_tables = match frame {
            CheckpointFrame::Full(ckpt) => ckpt.tables,
            CheckpointFrame::Paged(_) => {
                // The rows live in the heap's pages: pick each page's best
                // checksum-valid slot and extract what was visible at the
                // checkpoint timestamp. A page damaged beyond what one
                // torn write explains disqualifies this manifest exactly
                // like a torn full-image slot would.
                match load_visible_rows(&image.heap, manifest.checkpoint_ts) {
                    Ok(tables) => tables,
                    Err(_) => continue,
                }
            }
        };
        let mut checkpoint_rows = 0;
        for (table_id, rows) in checkpoint_tables {
            if (table_id.0 as usize) >= catalog.len() {
                return Err(RecoveryError::UnknownTable(table_id.to_string()));
            }
            checkpoint_rows += rows.len();
            let batch = rows
                .into_iter()
                .map(|(key, row)| (key, Version::data(CHECKPOINT_BASE_TS, CHECKPOINT_TXN, row)))
                .collect();
            catalog
                .table(table_id)
                .install_batch(batch)
                .map_err(|e| RecoveryError::Install(e.to_string()))?;
        }
        let suffix = &image.wal[(manifest.wal_offset - image.wal_base) as usize..];
        let scan = scan_log(suffix);
        let end_ts = replay(&scan.records, catalog, CHECKPOINT_BASE_TS)?;
        let replayed_bytes = match scan.truncated {
            Some(t) => t.offset as u64,
            None => suffix.len() as u64,
        };
        return Ok(RecoveryOutcome {
            end_ts,
            checkpoint: Some(manifest),
            replayed_records: scan.records.len(),
            replayed_bytes,
            checkpoint_rows,
            scan,
        });
    }
    if image.wal_base != 0 {
        return Err(RecoveryError::MissingPrefix(image.wal_base));
    }
    let scan = scan_log(&image.wal);
    let end_ts = replay(&scan.records, catalog, Ts::ZERO)?;
    let replayed_bytes = match scan.truncated {
        Some(t) => t.offset as u64,
        None => image.wal.len() as u64,
    };
    Ok(RecoveryOutcome {
        end_ts,
        checkpoint: None,
        replayed_records: scan.records.len(),
        replayed_bytes,
        checkpoint_rows: 0,
        scan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogEntry, LogRecord, Lsn};
    use sicost_storage::{ColumnDef, ColumnType, TableSchema};

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

    fn row(key: i64, v: i64) -> (Value, Row) {
        (
            Value::int(key),
            Row::new(vec![Value::int(key), Value::int(v)]),
        )
    }

    fn rec(lsn: u64, key: i64, v: i64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            txn: TxnId(lsn + 100),
            entries: vec![LogEntry {
                table: TableId(0),
                key: Value::int(key),
                image: Some(Row::new(vec![Value::int(key), Value::int(v)])),
            }],
        }
    }

    fn ckpt(ts: u64, rows: Vec<(Value, Row)>) -> CheckpointImage {
        CheckpointImage {
            ts: Ts(ts),
            tables: vec![(TableId(0), rows)],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            slot: 1,
            checkpoint_ts: Ts(42),
            wal_offset: 12345,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn manifest_rejects_corruption_and_truncation() {
        let m = Manifest {
            slot: 0,
            checkpoint_ts: Ts(7),
            wal_offset: 99,
        };
        let clean = m.encode();
        for cut in 0..clean.len() {
            assert!(Manifest::decode(&clean[..cut]).is_err(), "prefix {cut}");
        }
        for byte in FRAME_HEADER..clean.len() {
            let mut dirty = clean.clone();
            dirty[byte] ^= 0x40;
            assert!(Manifest::decode(&dirty).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn checkpoint_image_round_trips() {
        let img = CheckpointImage {
            ts: Ts(9),
            tables: vec![
                (TableId(0), vec![row(1, 10), row(2, 20)]),
                (
                    TableId(3),
                    vec![(
                        Value::str("k"),
                        Row::new(vec![Value::Null, Value::str("x")]),
                    )],
                ),
                (TableId(7), vec![]),
            ],
        };
        assert_eq!(CheckpointImage::decode(&img.encode()).unwrap(), img);
    }

    #[test]
    fn torn_checkpoint_frame_is_rejected_at_every_cut() {
        let bytes = ckpt(5, vec![row(1, 10), row(2, 20)]).encode();
        for cut in 0..bytes.len() {
            assert!(CheckpointImage::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A fresh database: no manifest, no slots, empty log. Recovery is a
    /// no-op rather than an error.
    #[test]
    fn empty_image_recovers_to_nothing() {
        let cat = catalog();
        let out = recover_image(&DurableImage::default(), &cat).unwrap();
        assert_eq!(out.end_ts, Ts::ZERO);
        assert!(out.checkpoint.is_none());
        assert_eq!(out.replayed_records, 0);
        assert_eq!(out.replayed_bytes, 0);
        assert_eq!(out.checkpoint_rows, 0);
    }

    /// No checkpoint yet: the full log replays, exactly like the pre-
    /// checkpoint recovery path.
    #[test]
    fn no_manifest_full_log_replays_from_zero() {
        let cat = catalog();
        let mut wal = Vec::new();
        rec(0, 1, 10).encode_into(&mut wal);
        rec(1, 2, 20).encode_into(&mut wal);
        let image = DurableImage {
            wal: wal.clone(),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.end_ts, Ts(2));
        assert_eq!(out.replayed_records, 2);
        assert_eq!(out.replayed_bytes, wal.len() as u64);
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(2), Ts(2))
                .unwrap()
                .row
                .unwrap()
                .int(1),
            20
        );
    }

    /// Checkpoint-manifest-only start: the manifest points at the end of
    /// the (empty) surviving log, so the suffix is zero-length and the
    /// checkpoint alone reconstructs the state.
    #[test]
    fn manifest_only_zero_length_suffix() {
        let cat = catalog();
        let img = ckpt(12, vec![row(1, 11), row(2, 22)]);
        let manifest = Manifest {
            slot: 0,
            checkpoint_ts: Ts(12),
            wal_offset: 4096,
        };
        let image = DurableImage {
            manifest: manifest.encode(),
            slots: [img.encode(), Vec::new()],
            wal_base: 4096,
            wal: Vec::new(),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.checkpoint, Some(manifest));
        assert_eq!(out.replayed_records, 0);
        assert_eq!(out.replayed_bytes, 0);
        assert_eq!(out.checkpoint_rows, 2);
        assert_eq!(out.end_ts, CHECKPOINT_BASE_TS);
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(1), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            11
        );
    }

    /// Checkpoint plus suffix: the suffix overwrites checkpointed keys and
    /// adds new ones; only the suffix bytes are replayed.
    #[test]
    fn checkpoint_plus_suffix_replays_only_the_suffix() {
        let cat = catalog();
        let img = ckpt(30, vec![row(1, 10), row(2, 20)]);
        let mut suffix = Vec::new();
        rec(5, 1, 111).encode_into(&mut suffix);
        rec(6, 3, 333).encode_into(&mut suffix);
        let image = DurableImage {
            manifest: Manifest {
                slot: 1,
                checkpoint_ts: Ts(30),
                wal_offset: 1000,
            }
            .encode(),
            slots: [Vec::new(), img.encode()],
            wal_base: 1000,
            wal: suffix.clone(),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.replayed_records, 2);
        assert_eq!(out.replayed_bytes, suffix.len() as u64);
        let t = cat.table(TableId(0));
        let end = out.end_ts;
        assert_eq!(
            t.read_at(&Value::int(1), end).unwrap().row.unwrap().int(1),
            111
        );
        assert_eq!(
            t.read_at(&Value::int(2), end).unwrap().row.unwrap().int(1),
            20
        );
        assert_eq!(
            t.read_at(&Value::int(3), end).unwrap().row.unwrap().int(1),
            333
        );
    }

    /// A restore rebuilds the unique index along with the rows: an
    /// Account-shaped table (unique CustomerId) answers index lookups and
    /// rejects a second owner of a restored value.
    #[test]
    fn restored_unique_index_answers_lookups() {
        let mut cat = Catalog::new();
        cat.create_table(
            TableSchema::new(
                "Account",
                vec![
                    ColumnDef::new("Name", ColumnType::Str),
                    ColumnDef::new("CustomerId", ColumnType::Int),
                ],
                0,
                vec![1],
            )
            .unwrap(),
        )
        .unwrap();
        let name = |i: i64| Value::str(format!("c{i:04}"));
        let rows = (0..300)
            .map(|i| (name(i), Row::new(vec![name(i), Value::int(i)])))
            .collect();
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(7),
                wal_offset: 0,
            }
            .encode(),
            slots: [ckpt(7, rows).encode(), Vec::new()],
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.checkpoint_rows, 300);
        let t = cat.table(TableId(0));
        for i in [0, 1, 150, 299] {
            assert_eq!(
                t.lookup_unique(0, &Value::int(i), out.end_ts),
                Some(name(i))
            );
        }
        assert_eq!(t.lookup_unique(0, &Value::int(300), out.end_ts), None);
        let stolen = Version::data(
            out.end_ts.next(),
            TxnId(1),
            Row::new(vec![name(300), Value::int(150)]),
        );
        assert!(t.install(&name(300), stolen, Ts::ZERO).is_err());
    }

    /// Torn checkpoint frame: the current manifest names a slot whose
    /// frame was half-written; recovery must fall back to the previous
    /// manifest and its intact slot.
    #[test]
    fn torn_checkpoint_falls_back_to_previous_manifest() {
        let cat = catalog();
        let old = ckpt(10, vec![row(1, 1)]);
        let new_frame = ckpt(20, vec![row(1, 2)]).encode();
        let torn: Vec<u8> = new_frame[..new_frame.len() / 2].to_vec();
        let prev = Manifest {
            slot: 0,
            checkpoint_ts: Ts(10),
            wal_offset: 500,
        };
        let mut suffix = Vec::new();
        rec(9, 4, 44).encode_into(&mut suffix);
        let image = DurableImage {
            manifest: Manifest {
                slot: 1,
                checkpoint_ts: Ts(20),
                wal_offset: 800,
            }
            .encode(),
            prev_manifest: prev.encode(),
            slots: [old.encode(), torn],
            wal_base: 500,
            wal: suffix,
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.checkpoint, Some(prev), "must use the previous manifest");
        assert_eq!(out.checkpoint_rows, 1);
        assert_eq!(out.replayed_records, 1);
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(1), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            1
        );
        assert_eq!(
            t.read_at(&Value::int(4), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            44
        );
    }

    /// A slot whose timestamp disagrees with the manifest (stale or
    /// overwritten generation) is as unusable as a torn one.
    #[test]
    fn slot_ts_mismatch_falls_back() {
        let cat = catalog();
        let prev = Manifest {
            slot: 1,
            checkpoint_ts: Ts(5),
            wal_offset: 0,
        };
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(99),
                wal_offset: 0,
            }
            .encode(),
            prev_manifest: prev.encode(),
            slots: [
                ckpt(5, vec![row(1, 1)]).encode(),
                ckpt(5, vec![row(2, 2)]).encode(),
            ],
            wal_base: 0,
            wal: Vec::new(),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.checkpoint, Some(prev));
        let t = cat.table(TableId(0));
        assert!(t.read_at(&Value::int(2), out.end_ts).is_some());
        assert!(t.read_at(&Value::int(1), out.end_ts).is_none());
    }

    /// Manifest pointing past EOF (e.g. the log bytes were lost but the
    /// manifest survived): the candidate is rejected; with no fallback and
    /// an untruncated log, the full log replays.
    #[test]
    fn manifest_past_eof_is_rejected() {
        let cat = catalog();
        let mut wal = Vec::new();
        rec(0, 1, 10).encode_into(&mut wal);
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(50),
                wal_offset: 1_000_000,
            }
            .encode(),
            slots: [ckpt(50, vec![row(9, 9)]).encode(), Vec::new()],
            wal_base: 0,
            wal: wal.clone(),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert!(
            out.checkpoint.is_none(),
            "past-EOF manifest must be skipped"
        );
        assert_eq!(out.replayed_records, 1);
        let t = cat.table(TableId(0));
        assert!(t.read_at(&Value::int(9), out.end_ts).is_none());
    }

    /// Manifest below the truncation horizon with no usable fallback: the
    /// prefix it needs is gone, and recovery must say so rather than
    /// silently replay a partial history.
    #[test]
    fn truncated_prefix_without_checkpoint_is_an_error() {
        let cat = catalog();
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(5),
                wal_offset: 10,
            }
            .encode(),
            slots: [Vec::new(), Vec::new()], // slot torn away entirely
            wal_base: 600,
            wal: Vec::new(),
            ..DurableImage::default()
        };
        match recover_image(&image, &cat) {
            Err(RecoveryError::MissingPrefix(base)) => assert_eq!(base, 600),
            other => panic!("expected MissingPrefix, got {other:?}"),
        }
    }

    /// A torn suffix tail past the checkpoint truncates exactly like the
    /// plain recovery path.
    #[test]
    fn torn_suffix_tail_truncates() {
        let cat = catalog();
        let img = ckpt(3, vec![row(1, 1)]);
        let mut suffix = Vec::new();
        rec(4, 2, 22).encode_into(&mut suffix);
        let good_len = suffix.len();
        let torn = rec(5, 3, 33).encode();
        suffix.extend_from_slice(&torn[..torn.len() - 2]);
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(3),
                wal_offset: 0,
            }
            .encode(),
            slots: [img.encode(), Vec::new()],
            wal_base: 0,
            wal: suffix,
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.replayed_records, 1);
        assert_eq!(out.replayed_bytes, good_len as u64);
        assert!(out.scan.truncated.is_some());
        let t = cat.table(TableId(0));
        assert!(
            t.read_at(&Value::int(3), out.end_ts).is_none(),
            "torn txn gone"
        );
    }

    /// Builds a durable heap holding the given rows (as single-version
    /// chains at the given timestamps) in one table.
    fn heap_with(rows: &[(i64, i64, u64)]) -> HeapImage {
        use sicost_storage::paged::HeapStore;
        let heap = HeapStore::new(std::time::Duration::ZERO, std::time::Duration::ZERO, None);
        let mut cells = sicost_storage::paged::PageCells::new();
        for &(key, v, ts) in rows {
            let mut chain = sicost_storage::VersionChain::new();
            chain.install(Version::data(
                Ts(ts),
                TxnId(ts),
                Row::new(vec![Value::int(key), Value::int(v)]),
            ));
            cells.insert(Value::int(key), chain);
        }
        heap.write_page((0, 0), &cells).unwrap();
        heap.snapshot()
    }

    #[test]
    fn paged_checkpoint_frame_round_trips_and_dispatches() {
        let p = PagedCheckpoint {
            ts: Ts(17),
            pages_flushed: 4,
            flushed_bytes: 1234,
        };
        let bytes = p.encode();
        assert_eq!(PagedCheckpoint::decode(&bytes).unwrap(), p);
        assert_eq!(
            CheckpointFrame::decode(&bytes).unwrap(),
            CheckpointFrame::Paged(p)
        );
        let full = ckpt(9, vec![row(1, 10)]);
        assert_eq!(
            CheckpointFrame::decode(&full.encode()).unwrap(),
            CheckpointFrame::Full(full)
        );
        // A full-image frame is dramatically larger than the paged frame
        // for the same state — the incremental-checkpoint payoff.
        assert!(bytes.len() < ckpt(17, vec![row(1, 10), row(2, 20)]).encode().len());
        for cut in 0..bytes.len() {
            assert!(CheckpointFrame::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A paged checkpoint: the slot holds only the tiny v2 frame, the rows
    /// come out of the heap image at the checkpoint timestamp, and the
    /// suffix replays on top.
    #[test]
    fn paged_checkpoint_recovers_rows_from_heap_plus_suffix() {
        let cat = catalog();
        let frame = PagedCheckpoint {
            ts: Ts(30),
            pages_flushed: 1,
            flushed_bytes: 100,
        };
        let mut suffix = Vec::new();
        rec(5, 1, 111).encode_into(&mut suffix);
        rec(6, 3, 333).encode_into(&mut suffix);
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(30),
                wal_offset: 1000,
            }
            .encode(),
            slots: [frame.encode(), Vec::new()],
            wal_base: 1000,
            wal: suffix,
            // Key 2's version is within the checkpoint; key 9's postdates
            // it (an eviction write-back after the barrier) and must NOT
            // surface from the heap — its commit record is in the suffix
            // window by the barrier invariant (here, absent: it aborted).
            heap: heap_with(&[(1, 10, 3), (2, 20, 7), (9, 99, 31)]),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.checkpoint_rows, 2);
        assert_eq!(out.replayed_records, 2);
        let t = cat.table(TableId(0));
        let end = out.end_ts;
        assert_eq!(
            t.read_at(&Value::int(1), end).unwrap().row.unwrap().int(1),
            111,
            "suffix overwrites the checkpointed image"
        );
        assert_eq!(
            t.read_at(&Value::int(2), end).unwrap().row.unwrap().int(1),
            20
        );
        assert_eq!(
            t.read_at(&Value::int(3), end).unwrap().row.unwrap().int(1),
            333
        );
        assert!(
            t.read_at(&Value::int(9), end).is_none(),
            "post-checkpoint heap version must not resurface"
        );
    }

    /// A torn paged-checkpoint slot falls back to the previous (full)
    /// generation, mixing frame kinds across generations.
    #[test]
    fn torn_paged_frame_falls_back_to_full_image_generation() {
        let cat = catalog();
        let new_frame = PagedCheckpoint {
            ts: Ts(20),
            pages_flushed: 1,
            flushed_bytes: 50,
        }
        .encode();
        let torn = new_frame[..new_frame.len() - 3].to_vec();
        let prev = Manifest {
            slot: 0,
            checkpoint_ts: Ts(10),
            wal_offset: 500,
        };
        let image = DurableImage {
            manifest: Manifest {
                slot: 1,
                checkpoint_ts: Ts(20),
                wal_offset: 800,
            }
            .encode(),
            prev_manifest: prev.encode(),
            slots: [ckpt(10, vec![row(7, 70)]).encode(), torn],
            wal_base: 500,
            wal: Vec::new(),
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert_eq!(out.checkpoint, Some(prev));
        let t = cat.table(TableId(0));
        assert_eq!(
            t.read_at(&Value::int(7), out.end_ts)
                .unwrap()
                .row
                .unwrap()
                .int(1),
            70
        );
    }

    /// A paged manifest whose heap has an unreadable page (both slots
    /// damaged) is rejected like a torn full-image slot.
    #[test]
    fn unreadable_heap_page_disqualifies_the_manifest() {
        let cat = catalog();
        let mut heap = heap_with(&[(1, 10, 3)]);
        // Corrupt both slots of the page beyond single-torn-write damage.
        let slots = heap.pages.get_mut(&(0, 0)).unwrap();
        slots[0] = vec![0xde, 0xad];
        slots[1] = vec![0xbe, 0xef];
        let frame = PagedCheckpoint {
            ts: Ts(5),
            pages_flushed: 1,
            flushed_bytes: 10,
        };
        let mut wal = Vec::new();
        rec(0, 4, 44).encode_into(&mut wal);
        let image = DurableImage {
            manifest: Manifest {
                slot: 0,
                checkpoint_ts: Ts(5),
                wal_offset: 0,
            }
            .encode(),
            slots: [frame.encode(), Vec::new()],
            wal_base: 0,
            wal: wal.clone(),
            heap,
            ..DurableImage::default()
        };
        let out = recover_image(&image, &cat).unwrap();
        assert!(
            out.checkpoint.is_none(),
            "damaged heap page must disqualify"
        );
        assert_eq!(out.replayed_records, 1, "falls through to full-log replay");
    }
}
