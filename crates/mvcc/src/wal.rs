//! Byte codecs for durable commit records and checkpoint images
//! (DESIGN.md §14).
//!
//! The `durability` crate frames and stores opaque payloads; *meaning*
//! lives here. Two payload shapes exist:
//!
//! * a **commit record** — `(txn_id, commit_ts, write ops)`, encoded with
//!   the user schema's fixed column widths so replay re-applies exactly
//!   the committed write set;
//! * a **checkpoint image** — the oracle watermark plus the *physical*
//!   table state (the packed row images of every version in rid order,
//!   version chains, per-logical commit stamps), so a restore reproduces
//!   scan order bit-for-bit — plus the tiny **checkpoint ref** that goes
//!   into the log to name the blob.
//!
//! All integers are little-endian. The codecs never panic on garbage:
//! every read is bounds-checked and surfaces [`FabricError::Codec`] —
//! though in practice the WAL frame CRC has already vetted the bytes.

use crate::table::{LogicalId, VersionedTable};
use crate::txn::WriteOp;
use fabric_sim::MemoryHierarchy;
use fabric_types::{FabricError, Result, Schema, Value};
use rowstore::RowId;

/// A decoded commit record.
#[derive(Debug, Clone)]
pub struct CommitImage {
    pub txn_id: u64,
    pub commit_ts: u64,
    pub writes: Vec<WriteOp>,
}

/// A decoded checkpoint image, borrowing its row section from the blob.
#[derive(Debug, Clone)]
pub struct CheckpointImage<'a> {
    /// Oracle watermark at checkpoint time (latest allocated timestamp).
    pub watermark: u64,
    /// The full physical row images (user columns + begin/end ts, packed)
    /// back to back in rid order.
    pub rows: &'a [u8],
    /// Version chains per logical row.
    pub chains: Vec<Vec<RowId>>,
    /// Newest commit timestamp per logical row.
    pub last_commit: Vec<u64>,
}

// ------------------------------------------------------------ primitives

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(FabricError::Codec(format!(
                "record truncated: wanted {n} bytes at {} of {}",
                self.pos,
                self.bytes.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FabricError::Codec(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.pos
            )))
        }
    }
}

fn push_value(out: &mut Vec<u8>, schema: &Schema, col: usize, v: &Value) -> Result<()> {
    let ty = schema.column(col)?.ty;
    let at = out.len();
    out.resize(at + ty.width(), 0);
    v.encode_into(ty, &mut out[at..])
}

fn read_value(r: &mut Reader<'_>, schema: &Schema, col: usize) -> Result<Value> {
    let ty = schema.column(col)?.ty;
    Ok(Value::decode(ty, r.take(ty.width())?))
}

// ---------------------------------------------------------- commit codec

const OP_INSERT: u8 = 0;
const OP_UPDATE: u8 = 1;
const OP_DELETE: u8 = 2;

/// Encode a validated write set as a commit-record payload.
pub fn encode_commit(
    user_schema: &Schema,
    txn_id: u64,
    commit_ts: u64,
    writes: &[WriteOp],
) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(&txn_id.to_le_bytes());
    out.extend_from_slice(&commit_ts.to_le_bytes());
    out.extend_from_slice(&u32::try_from(writes.len()).map_err(len_err)?.to_le_bytes());
    for w in writes {
        match w {
            WriteOp::Insert(values) => {
                if values.len() != user_schema.len() {
                    return Err(FabricError::Codec(format!(
                        "insert has {} values, schema has {}",
                        values.len(),
                        user_schema.len()
                    )));
                }
                out.push(OP_INSERT);
                for (col, v) in values.iter().enumerate() {
                    push_value(&mut out, user_schema, col, v)?;
                }
            }
            WriteOp::Update(logical, updates) => {
                out.push(OP_UPDATE);
                out.extend_from_slice(&(*logical as u64).to_le_bytes());
                out.extend_from_slice(
                    &u32::try_from(updates.len()).map_err(len_err)?.to_le_bytes(),
                );
                for (col, v) in updates {
                    out.extend_from_slice(&u32::try_from(*col).map_err(len_err)?.to_le_bytes());
                    push_value(&mut out, user_schema, *col, v)?;
                }
            }
            WriteOp::Delete(logical) => {
                out.push(OP_DELETE);
                out.extend_from_slice(&(*logical as u64).to_le_bytes());
            }
        }
    }
    Ok(out)
}

/// Decode a commit-record payload.
pub fn decode_commit(user_schema: &Schema, bytes: &[u8]) -> Result<CommitImage> {
    let mut r = Reader::new(bytes);
    let txn_id = r.u64()?;
    let commit_ts = r.u64()?;
    let n = r.u32()? as usize;
    let mut writes = Vec::with_capacity(n);
    for _ in 0..n {
        let op = r.u8()?;
        writes.push(match op {
            OP_INSERT => {
                let mut values = Vec::with_capacity(user_schema.len());
                for col in 0..user_schema.len() {
                    values.push(read_value(&mut r, user_schema, col)?);
                }
                WriteOp::Insert(values)
            }
            OP_UPDATE => {
                let logical = r.u64()? as LogicalId;
                let k = r.u32()? as usize;
                let mut updates = Vec::with_capacity(k);
                for _ in 0..k {
                    let col = r.u32()? as usize;
                    updates.push((col, read_value(&mut r, user_schema, col)?));
                }
                WriteOp::Update(logical, updates)
            }
            OP_DELETE => WriteOp::Delete(r.u64()? as LogicalId),
            other => return Err(FabricError::Codec(format!("unknown write-op tag {other}"))),
        });
    }
    r.done()?;
    Ok(CommitImage {
        txn_id,
        commit_ts,
        writes,
    })
}

// ------------------------------------------------------ checkpoint codec

/// Encode the full physical state of `table` plus the oracle watermark.
/// The row section is the table's packed row images, copied out of the
/// arena in one piece, their text fields canonicalised
/// ([`fabric_types::RowLayout::canonicalize_text`]): byte for byte what
/// decoding every version into `Value`s and re-encoding them would write.
pub fn encode_checkpoint(
    mem: &MemoryHierarchy,
    table: &VersionedTable,
    watermark: u64,
) -> Result<Vec<u8>> {
    let rows = table.physical();
    let layout = rows.layout();
    if layout.row_width() != rows.schema().unpadded_width() {
        return Err(FabricError::Codec(
            "checkpoint rows must be packed row images".into(),
        ));
    }
    let n_rows = rows.len();
    let row_bytes = n_rows * layout.row_width();
    let chains = table.chains();
    let stamps = table.last_commits();
    let mut out = Vec::with_capacity(16 + row_bytes + 12 * chains.len() + 4 * n_rows);
    out.extend_from_slice(&watermark.to_le_bytes());
    out.extend_from_slice(&u32::try_from(n_rows).map_err(len_err)?.to_le_bytes());
    let at = out.len();
    out.extend_from_slice(mem.read_untimed(rows.base(), row_bytes));
    layout.canonicalize_text(&mut out[at..])?;
    out.extend_from_slice(&u32::try_from(chains.len()).map_err(len_err)?.to_le_bytes());
    for (chain, stamp) in chains.iter().zip(stamps) {
        out.extend_from_slice(&stamp.to_le_bytes());
        out.extend_from_slice(&u32::try_from(chain.len()).map_err(len_err)?.to_le_bytes());
        for &rid in chain {
            out.extend_from_slice(&u32::try_from(rid).map_err(len_err)?.to_le_bytes());
        }
    }
    Ok(out)
}

/// Decode a checkpoint image against the *full* physical schema (user
/// columns plus the two timestamp columns). The row images stay in
/// `bytes`.
pub fn decode_checkpoint<'a>(full_schema: &Schema, bytes: &'a [u8]) -> Result<CheckpointImage<'a>> {
    let mut r = Reader::new(bytes);
    let watermark = r.u64()?;
    let n_rows = r.u32()? as usize;
    let row_bytes = n_rows
        .checked_mul(full_schema.unpadded_width())
        .ok_or_else(|| len_err(()))?;
    let rows = r.take(row_bytes)?;
    let n_logical = r.u32()? as usize;
    let mut chains = Vec::with_capacity(n_logical);
    let mut last_commit = Vec::with_capacity(n_logical);
    for _ in 0..n_logical {
        last_commit.push(r.u64()?);
        let len = r.u32()? as usize;
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            chain.push(r.u32()? as RowId);
        }
        chains.push(chain);
    }
    r.done()?;
    Ok(CheckpointImage {
        watermark,
        rows,
        chains,
        last_commit,
    })
}

/// Encode the log-resident pointer to checkpoint blob `id`.
pub fn encode_checkpoint_ref(id: u64, watermark: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&watermark.to_le_bytes());
    out
}

/// Decode a checkpoint ref: `(blob_id, watermark)`.
pub fn decode_checkpoint_ref(bytes: &[u8]) -> Result<(u64, u64)> {
    let mut r = Reader::new(bytes);
    let id = r.u64()?;
    let watermark = r.u64()?;
    r.done()?;
    Ok((id, watermark))
}

fn len_err<E>(_: E) -> FabricError {
    FabricError::Codec("length exceeds u32".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::ColumnType;

    fn user_schema() -> Schema {
        Schema::from_pairs(&[
            ("k", ColumnType::I64),
            ("name", ColumnType::FixedStr(8)),
            ("v", ColumnType::F64),
        ])
    }

    #[test]
    fn commit_roundtrip_preserves_every_op_shape() {
        let s = user_schema();
        let writes = vec![
            WriteOp::Insert(vec![
                Value::I64(7),
                Value::Str("ok".to_string()),
                Value::F64(1.25),
            ]),
            WriteOp::Update(3, vec![(0, Value::I64(9)), (2, Value::F64(-2.5))]),
            WriteOp::Delete(12),
        ];
        let bytes = encode_commit(&s, 42, 17, &writes).unwrap();
        let img = decode_commit(&s, &bytes).unwrap();
        assert_eq!(img.txn_id, 42);
        assert_eq!(img.commit_ts, 17);
        assert_eq!(img.writes.len(), 3);
        match &img.writes[0] {
            WriteOp::Insert(v) => {
                assert_eq!(v[0], Value::I64(7));
                assert_eq!(v[1], Value::Str("ok".to_string()));
                assert_eq!(v[2], Value::F64(1.25));
            }
            other => panic!("expected insert, got {other:?}"),
        }
        match &img.writes[1] {
            WriteOp::Update(l, u) => {
                assert_eq!(*l, 3);
                assert_eq!(u, &[(0, Value::I64(9)), (2, Value::F64(-2.5))]);
            }
            other => panic!("expected update, got {other:?}"),
        }
        assert!(matches!(img.writes[2], WriteOp::Delete(12)));
    }

    #[test]
    fn decoders_reject_garbage_without_panicking() {
        let s = user_schema();
        assert!(decode_commit(&s, &[]).is_err());
        assert!(decode_commit(&s, &[1, 2, 3]).is_err());
        // Valid header, bogus op tag.
        let mut bytes = encode_commit(&s, 1, 1, &[WriteOp::Delete(0)]).unwrap();
        bytes[20] = 77;
        assert!(decode_commit(&s, &bytes).is_err());
        // Trailing junk is an error, not silently ignored.
        let mut bytes = encode_commit(&s, 1, 1, &[]).unwrap();
        bytes.push(0);
        assert!(decode_commit(&s, &bytes).is_err());
        assert!(decode_checkpoint_ref(&[0; 15]).is_err());
        assert!(decode_checkpoint_ref(&[0; 17]).is_err());
    }

    #[test]
    fn checkpoint_roundtrip_restores_an_identical_table() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut t = VersionedTable::create(&mut mem, user_schema(), 256).unwrap();
        let l0 = t
            .apply_insert(
                &mut mem,
                &[Value::I64(1), Value::Str("a".into()), Value::F64(0.5)],
                2,
            )
            .unwrap();
        t.apply_insert(
            &mut mem,
            &[Value::I64(2), Value::Str("b".into()), Value::F64(1.5)],
            3,
        )
        .unwrap();
        t.apply_update(&mut mem, l0, &[(2, Value::F64(9.5))], 5)
            .unwrap();

        let bytes = encode_checkpoint(&mem, &t, 5).unwrap();
        let img = decode_checkpoint(t.physical().schema(), &bytes).unwrap();
        assert_eq!(img.watermark, 5);
        assert_eq!(img.rows.len(), 3 * t.physical().layout().row_width());
        assert_eq!(img.chains, t.chains().to_vec());
        assert_eq!(img.last_commit, t.last_commits().to_vec());

        let r = VersionedTable::restore(
            &mut mem,
            user_schema(),
            256,
            img.rows,
            img.chains,
            img.last_commit,
        )
        .unwrap();
        for ts in [2u64, 3, 5, 9] {
            assert_eq!(
                r.snapshot_rows(&mut mem, ts).unwrap(),
                t.snapshot_rows(&mut mem, ts).unwrap()
            );
        }
    }

    #[test]
    fn checkpoint_ref_roundtrip() {
        let b = encode_checkpoint_ref(9, 1234);
        assert_eq!(decode_checkpoint_ref(&b).unwrap(), (9, 1234));
    }
}
