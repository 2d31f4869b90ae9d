//! Log records and their durable binary encoding.
//!
//! Each record is framed as `[payload_len: varint][checksum: u64][payload]`,
//! where the length is an unsigned LEB128 varint of at most five bytes
//! (one byte for a payload under 128 bytes) and the checksum is FNV-1a
//! over the payload bytes, little-endian. [`put_frame`] and [`read_frame`]
//! are the one coding of the frame. The frame is what makes recovery
//! crash-hardened: a torn tail — a crash mid-write leaving a byte prefix
//! of the last record — fails either the length bound or the checksum,
//! and [`crate::recovery::scan_log`] truncates the log at the first such
//! failure instead of replaying garbage. A cut inside the length or the
//! checksum decodes as [`DecodeError::TruncatedHeader`], a cut inside the
//! payload as [`DecodeError::TruncatedPayload`], and a length varint of
//! more than five bytes as [`DecodeError::Malformed`].
//!
//! The payload is compact. Every count and id is an unsigned LEB128
//! varint (7 bits per byte, low group first, high bit set on all but the
//! last byte), and integer cells are zigzag-encoded first so small
//! negative numbers stay short:
//!
//! ```text
//! payload = lsn:varint txn:varint n:varint entry*n
//! entry   = table:varint key:value image
//! image   = 0x00                              (delete)
//!         | 0x01 arity:varint value*arity     (after-image)
//!         | 0x02 arity:varint at:varint value*(arity-1)
//!                                             (after-image whose cell `at`
//!                                              is the entry's key)
//! value   = 0x00                              (NULL)
//!         | 0x01 zigzag(i64):varint           (INT)
//!         | 0x02 len:varint utf8-bytes*len    (STR)
//! ```
//!
//! The encoder writes the first cell equal to the key as its index (image
//! tag `0x02`), so a row that repeats its primary key, as every SmallBank
//! row does, does not log it twice; it needs no schema to find that cell.
//! A varint longer than ten bytes, or one whose value does not fit its
//! field, decodes as [`DecodeError::Malformed`]. Checkpoint frames keep a
//! fixed `[len: u32][checksum: u64]` header and encode their cells with
//! the same value encoder. The byte count the log device is charged for
//! is [`LogRecord::size_bytes`], a calibrated cost model that does not
//! follow the encoding.

use sicost_common::{TableId, TxnId};
use sicost_storage::{Row, Value};
use std::fmt;

/// Log sequence number: position of a record in the log. Assigned at
/// enqueue time; per-record, strictly increasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// One redo entry: the after-image of a single record write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Table written.
    pub table: TableId,
    /// Primary key of the record.
    pub key: Value,
    /// New row image, or `None` for a delete.
    pub image: Option<Row>,
}

impl LogEntry {
    /// Modelled on-disk size in bytes: drives the simulated device's
    /// transfer cost, which the paper-calibrated figures depend on. It
    /// models the original fixed-width layout, not the compact encoding.
    pub fn size_bytes(&self) -> usize {
        // Fixed header + key + image cells; a rough but monotone model.
        let key_sz = match &self.key {
            Value::Str(s) => s.len(),
            _ => 8,
        };
        let img_sz = self.image.as_ref().map(|r| r.arity() * 8 + 8).unwrap_or(0);
        24 + key_sz + img_sz
    }
}

/// The redo payload of one committed transaction: all of its after-images,
/// written atomically at commit. Only transactions that actually wrote data
/// produce a record (read-only transactions are invisible to the log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Assigned by the WAL at enqueue.
    pub lsn: Lsn,
    /// The committing transaction.
    pub txn: TxnId,
    /// After-images, in write order.
    pub entries: Vec<LogEntry>,
}

impl LogRecord {
    /// Modelled serialized size in bytes (see [`LogEntry::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        32 + self.entries.iter().map(LogEntry::size_bytes).sum::<usize>()
    }

    /// Appends the framed binary encoding of this record to `out`. Writes
    /// the payload in place behind a reserved header: no intermediate
    /// buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + MAX_FRAME_HEADER, 0);
        put_varint(out, self.lsn.0);
        put_varint(out, self.txn.0);
        put_varint(out, self.entries.len() as u64);
        for e in &self.entries {
            put_varint(out, u64::from(e.table.0));
            encode_value(out, &e.key);
            match &e.image {
                None => out.push(0),
                Some(row) => {
                    let cells = row.cells();
                    let key_at = cells.iter().position(|c| *c == e.key);
                    out.push(if key_at.is_some() { 2 } else { 1 });
                    put_varint(out, cells.len() as u64);
                    if let Some(at) = key_at {
                        put_varint(out, at as u64);
                    }
                    for (i, cell) in cells.iter().enumerate() {
                        if Some(i) != key_at {
                            encode_value(out, cell);
                        }
                    }
                }
            }
        }
        seal_frame(out, start);
    }

    /// The framed binary encoding of this record.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one framed record from the front of `bytes`, verifying its
    /// checksum. On success returns the record and the number of bytes
    /// consumed.
    pub fn decode(bytes: &[u8]) -> Result<(LogRecord, usize), DecodeError> {
        let (payload, total) = read_frame(bytes)?;
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        let lsn = Lsn(cur.varint()?);
        let txn = TxnId(cur.varint()?);
        let n = cur.length()?;
        // An entry is at least 3 bytes (table + value tag + image tag);
        // bound n before allocating so a corrupt count cannot OOM us.
        if n > payload.len() {
            return Err(DecodeError::Malformed("entry count exceeds payload"));
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let table = TableId(cur.varint_u32()?);
            let key = decode_value(&mut cur)?;
            let image = match cur.u8()? {
                0 => None,
                tag @ (1 | 2) => {
                    let arity = cur.length()?;
                    if arity > payload.len() {
                        return Err(DecodeError::Malformed("row arity exceeds payload"));
                    }
                    let key_at = if tag == 2 {
                        let at = cur.length()?;
                        if at >= arity {
                            return Err(DecodeError::Malformed("key cell index exceeds arity"));
                        }
                        Some(at)
                    } else {
                        None
                    };
                    let mut cells = Vec::with_capacity(arity);
                    for i in 0..arity {
                        cells.push(if Some(i) == key_at {
                            key.clone()
                        } else {
                            decode_value(&mut cur)?
                        });
                    }
                    Some(Row::new(cells))
                }
                _ => return Err(DecodeError::Malformed("bad image tag")),
            };
            entries.push(LogEntry { table, key, image });
        }
        if cur.pos != payload.len() {
            return Err(DecodeError::Malformed("trailing bytes in payload"));
        }
        Ok((LogRecord { lsn, txn, entries }, total))
    }
}

/// The longest log frame header: a five-byte length varint and the
/// checksum.
const MAX_FRAME_HEADER: usize = 5 + 8;

/// Appends `payload` to `out` as one log frame,
/// `[len: varint][fnv1a(payload): u64][payload]`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = out.len();
    out.resize(start + MAX_FRAME_HEADER, 0);
    out.extend_from_slice(payload);
    seal_frame(out, start);
}

/// Frames the payload written behind a reserved [`MAX_FRAME_HEADER`] at
/// `start`: appends the header after the payload, copies it to `start`,
/// and slides the payload down behind it. No intermediate buffer.
fn seal_frame(out: &mut Vec<u8>, start: usize) {
    let body = start + MAX_FRAME_HEADER;
    let end = out.len();
    let len = u32::try_from(end - body).expect("a log record payload fits a u32 length");
    let checksum = fnv1a(&out[body..end]);
    put_varint(out, u64::from(len));
    put_u64(out, checksum);
    let header = out.len() - end;
    out.copy_within(end.., start);
    out.copy_within(body..end, start + header);
    out.truncate(start + header + (end - body));
}

/// Reads the log frame at the front of `bytes`, verifying its checksum.
/// Returns the payload and the number of bytes the whole frame takes.
pub fn read_frame(bytes: &[u8]) -> Result<(&[u8], usize), DecodeError> {
    let mut len = 0u64;
    let mut at = 0;
    loop {
        let &b = bytes.get(at).ok_or(DecodeError::TruncatedHeader)?;
        len |= u64::from(b & 0x7f) << (7 * at);
        at += 1;
        if b & 0x80 == 0 {
            break;
        }
        if at == 5 {
            return Err(DecodeError::Malformed(
                "frame length varint over five bytes",
            ));
        }
    }
    let len = usize::try_from(len).map_err(|_| DecodeError::Malformed("frame length"))?;
    let checksum = bytes.get(at..at + 8).ok_or(DecodeError::TruncatedHeader)?;
    let payload_at = at + 8;
    let total = payload_at
        .checked_add(len)
        .ok_or(DecodeError::Malformed("frame length"))?;
    let payload = bytes
        .get(payload_at..total)
        .ok_or(DecodeError::TruncatedPayload)?;
    if fnv1a(payload) != get_u64(checksum) {
        return Err(DecodeError::ChecksumMismatch);
    }
    Ok((payload, total))
}

/// Why a framed record failed to decode. The truncation variants are the
/// expected signature of a torn tail; `ChecksumMismatch` also covers
/// in-place corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a frame header.
    TruncatedHeader,
    /// The header promises more payload bytes than remain.
    TruncatedPayload,
    /// Payload bytes do not match the stored checksum.
    ChecksumMismatch,
    /// Checksum passed but the payload structure is invalid (only possible
    /// with a corrupted writer — the checksum makes random corruption
    /// land in `ChecksumMismatch` instead).
    Malformed(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::TruncatedHeader => write!(f, "truncated frame header"),
            DecodeError::TruncatedPayload => write!(f, "truncated payload"),
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64-bit hash: the per-record checksum (the workspace-wide
/// implementation lives in [`sicost_common::hash`]).
pub use sicost_common::hash::fnv1a;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[0..4].try_into().expect("length checked"))
}

pub(crate) fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[0..8].try_into().expect("length checked"))
}

/// Appends `v` as an unsigned LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag mapping: 0, -1, 1, -2, … → 0, 1, 2, 3, …, so integers near
/// zero of either sign get short varints.
fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

pub(crate) fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_varint(out, zigzag(*i));
        }
        Value::Str(s) => {
            out.push(2);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
}

impl Cursor<'_> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&[u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Malformed("payload underrun"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(get_u32(self.take(4)?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(get_u64(self.take(8)?))
    }

    /// An unsigned LEB128 varint of at most ten bytes.
    pub(crate) fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            // The tenth byte holds bit 63 alone: anything more overflows.
            if shift == 63 && b > 1 {
                return Err(DecodeError::Malformed("over-long varint"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("the tenth byte either ends the varint or is rejected")
    }

    /// A varint that must fit a `u32` field.
    pub(crate) fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::Malformed("varint exceeds u32"))
    }

    /// A varint count or length.
    pub(crate) fn length(&mut self) -> Result<usize, DecodeError> {
        Ok(self.varint_u32()? as usize)
    }
}

pub(crate) fn decode_value(cur: &mut Cursor<'_>) -> Result<Value, DecodeError> {
    match cur.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(unzigzag(cur.varint()?))),
        2 => {
            let len = cur.length()?;
            let bytes = cur.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| DecodeError::Malformed("non-utf8 string"))?;
            Ok(Value::str(s))
        }
        _ => Err(DecodeError::Malformed("bad value tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_monotone_in_payload() {
        let small = LogRecord {
            lsn: Lsn(1),
            txn: TxnId(1),
            entries: vec![LogEntry {
                table: TableId(0),
                key: Value::int(1),
                image: None,
            }],
        };
        let big = LogRecord {
            lsn: Lsn(2),
            txn: TxnId(1),
            entries: vec![
                LogEntry {
                    table: TableId(0),
                    key: Value::str("someone"),
                    image: Some(Row::new(vec![Value::int(1), Value::int(2)])),
                },
                LogEntry {
                    table: TableId(1),
                    key: Value::int(2),
                    image: Some(Row::new(vec![Value::int(1)])),
                },
            ],
        };
        assert!(big.size_bytes() > small.size_bytes());
    }

    #[test]
    fn lsn_orders() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(3).to_string(), "lsn3");
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord {
                lsn: Lsn(1),
                txn: TxnId(9),
                entries: vec![LogEntry {
                    table: TableId(0),
                    key: Value::int(-7),
                    image: None,
                }],
            },
            LogRecord {
                lsn: Lsn(2),
                txn: TxnId(10),
                entries: vec![
                    LogEntry {
                        table: TableId(3),
                        key: Value::str("acct-42"),
                        image: Some(Row::new(vec![
                            Value::int(i64::MIN),
                            Value::Null,
                            Value::str(""),
                        ])),
                    },
                    LogEntry {
                        table: TableId(1),
                        key: Value::Null,
                        image: Some(Row::new(vec![])),
                    },
                ],
            },
            LogRecord {
                lsn: Lsn(3),
                txn: TxnId(11),
                entries: vec![],
            },
            // The key inside the image: as the first cell, as the last
            // cell, twice, and as a NULL key that is the only cell.
            LogRecord {
                lsn: Lsn(4),
                txn: TxnId(12),
                entries: vec![
                    LogEntry {
                        table: TableId(1),
                        key: Value::int(1234),
                        image: Some(Row::new(vec![Value::int(1234), Value::int(-5)])),
                    },
                    LogEntry {
                        table: TableId(2),
                        key: Value::str("acct-7"),
                        image: Some(Row::new(vec![Value::int(7), Value::str("acct-7")])),
                    },
                    LogEntry {
                        table: TableId(0),
                        key: Value::int(3),
                        image: Some(Row::new(vec![Value::int(3), Value::int(9), Value::int(3)])),
                    },
                    LogEntry {
                        table: TableId(0),
                        key: Value::Null,
                        image: Some(Row::new(vec![Value::Null])),
                    },
                ],
            },
        ]
    }

    /// Bytes of the frame header in front of an encoded record.
    fn header_len(frame: &[u8]) -> usize {
        let (payload, total) = read_frame(frame).unwrap();
        total - payload.len()
    }

    #[test]
    fn encode_decode_round_trips() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let (back, used) = LogRecord::decode(&bytes).unwrap();
            assert_eq!(back, rec);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn concatenated_records_decode_in_sequence() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            r.encode_into(&mut buf);
        }
        let mut pos = 0;
        for r in &recs {
            let (back, used) = LogRecord::decode(&buf[pos..]).unwrap();
            assert_eq!(&back, r);
            pos += used;
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn every_byte_prefix_is_rejected_not_misread() {
        // The last record's payload is over 127 bytes, so its length
        // varint takes two bytes and a cut can fall between them.
        let mut recs = sample_records();
        recs.push(LogRecord {
            lsn: Lsn(5),
            txn: TxnId(13),
            entries: vec![LogEntry {
                table: TableId(0),
                key: Value::int(1),
                image: Some(Row::new(vec![Value::str("x".repeat(150))])),
            }],
        });
        for rec in &recs {
            let bytes = rec.encode();
            let header = header_len(&bytes);
            for cut in 0..bytes.len() {
                let err = LogRecord::decode(&bytes[..cut]).unwrap_err();
                let want = if cut < header {
                    DecodeError::TruncatedHeader
                } else {
                    DecodeError::TruncatedPayload
                };
                assert_eq!(err, want, "prefix of {cut} bytes (header {header})");
            }
        }
        assert_eq!(header_len(&recs.last().unwrap().encode()), 2 + 8);
    }

    #[test]
    fn any_single_flipped_payload_bit_fails_the_checksum() {
        for rec in sample_records() {
            let clean = rec.encode();
            for byte in header_len(&clean)..clean.len() {
                let mut dirty = clean.clone();
                dirty[byte] ^= 0x10;
                assert_eq!(
                    LogRecord::decode(&dirty).unwrap_err(),
                    DecodeError::ChecksumMismatch,
                    "flip at byte {byte}"
                );
            }
        }
    }

    #[test]
    fn a_short_payload_takes_a_one_byte_length() {
        let rec = &sample_records()[0];
        let bytes = rec.encode();
        assert_eq!(header_len(&bytes), 1 + 8);
        let mut framed = Vec::new();
        put_frame(&mut framed, &bytes[header_len(&bytes)..]);
        assert_eq!(framed, bytes, "put_frame frames exactly as encode does");
    }

    #[test]
    fn an_over_long_length_varint_is_malformed() {
        let mut bytes = vec![0x80; 5];
        bytes.extend_from_slice(&[0; 16]);
        assert!(matches!(
            read_frame(&bytes).unwrap_err(),
            DecodeError::Malformed(_)
        ));
        // Five bytes is the most a length may take.
        let mut five = vec![0x80, 0x80, 0x80, 0x80, 0x00];
        five.extend_from_slice(&fnv1a(b"").to_le_bytes());
        assert_eq!(read_frame(&five).unwrap(), (&[][..], 13));
    }

    #[test]
    fn a_cell_equal_to_the_key_is_written_as_its_index() {
        let rec = |key: i64| LogRecord {
            lsn: Lsn(1),
            txn: TxnId(1),
            entries: vec![LogEntry {
                table: TableId(2),
                key: Value::int(key),
                image: Some(Row::new(vec![Value::int(1234), Value::int(99)])),
            }],
        };
        // Key 1234 repeats the first cell; key 1235 does not. The cell
        // `0x01 zigzag(1234)` takes three bytes and its index one.
        let keyed = rec(1234).encode();
        let plain = rec(1235).encode();
        assert_eq!(plain.len() - keyed.len(), 2);
        assert_eq!(LogRecord::decode(&keyed).unwrap().0, rec(1234));
        // An index past the row's arity is malformed, not a panic.
        let mut bad = Vec::new();
        put_frame(&mut bad, &[1, 1, 1, 0, 0x01, 0x02, 2, 1, 1]);
        assert_eq!(
            LogRecord::decode(&bad).unwrap_err(),
            DecodeError::Malformed("key cell index exceeds arity")
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
