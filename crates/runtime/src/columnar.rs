//! Dependency-free columnar telemetry export: typed column batches, a
//! length-prefixed on-disk format with a footer index, and the
//! aggregation layer that folds exported columns back into run-level
//! totals.
//!
//! # File format (`.xpc`)
//!
//! ```text
//! offset 0        "XPCOL1\0\0"                      8-byte header magic
//!                 column 0 payload                  rows × 8 bytes, LE
//!                 column 1 payload
//!                 ...
//! footer          ncols: u64
//!                 per column:
//!                   name_len: u64 | name bytes (UTF-8)
//!                   type: u8 (0 = u64, 1 = f64)
//!                   offset: u64 (from file start) | byte_len: u64 | rows: u64
//!                 footer_len: u64                   bytes from `ncols` to here
//!                 "XPCFOOT\0"                       8-byte tail magic
//! ```
//!
//! Everything is little-endian. A reader finds the footer from the *end*
//! of the file (tail magic, then `footer_len`), so any single column can
//! be sliced out by its `(offset, byte_len)` without scanning the other
//! columns' payloads — the parquet idea at wearable scale. Writing is
//! deterministic: equal batches produce byte-identical files, which is
//! what lets CI `cmp` exports across shard counts.
//!
//! # Determinism
//!
//! The executor fills one [`ColumnBatch`] row per barrier round by
//! folding per-node counter deltas in *global node order* (shards are
//! contiguous node ranges, walked in order), so the batch — like the
//! [`crate::RunReport`] it rides beside — is bit-identical for any shard
//! count.

use std::io::Write as _;
use std::path::Path;
use xpro_core::XProError;

/// Header magic of a columnar telemetry file.
const MAGIC: &[u8; 8] = b"XPCOL1\0\0";
/// Tail magic, last 8 bytes of the file.
const TAIL: &[u8; 8] = b"XPCFOOT\0";
/// Smallest footer entry: `name_len`, an empty name, the type tag and
/// `offset`, `byte_len` and `rows`.
const MIN_ENTRY_LEN: usize = 8 + 1 + 8 + 8 + 8;

/// One typed column of values.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// Unsigned 64-bit counters (event/fault counts per row).
    U64(Vec<u64>),
    /// 64-bit floats (times, energies, latency sums).
    F64(Vec<f64>),
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn rows(&self) -> usize {
        match self {
            ColumnData::U64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
        }
    }

    fn type_tag(&self) -> u8 {
        match self {
            ColumnData::U64(_) => 0,
            ColumnData::F64(_) => 1,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rows() * 8);
        match self {
            ColumnData::U64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::F64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    fn from_payload(tag: u8, bytes: &[u8]) -> Result<Self, XProError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(XProError::config(format!(
                "columnar payload length {} is not a multiple of 8",
                bytes.len()
            )));
        }
        let words = bytes.chunks_exact(8).map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            w
        });
        match tag {
            0 => Ok(ColumnData::U64(words.map(u64::from_le_bytes).collect())),
            1 => Ok(ColumnData::F64(words.map(f64::from_le_bytes).collect())),
            t => Err(XProError::config(format!("unknown column type tag {t}"))),
        }
    }
}

/// An ordered set of equal-length named columns — the in-memory form of
/// one exported file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<(String, ColumnData)>,
}

impl ColumnBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ColumnBatch::default()
    }

    /// Appends a named column. Panics (debug) if its length disagrees
    /// with the batch; release builds surface the mismatch at
    /// serialization time instead.
    pub fn push(&mut self, name: impl Into<String>, data: ColumnData) {
        debug_assert!(
            self.columns.is_empty() || self.columns[0].1.rows() == data.rows(),
            "ragged column batch"
        );
        self.columns.push((name.into(), data));
    }

    /// Number of rows (0 when the batch has no columns).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, |(_, c)| c.rows())
    }

    /// Column names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Serializes the batch to the `.xpc` byte format. Deterministic:
    /// equal batches yield byte-identical output.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let mut index: Vec<(u64, u64, u64)> = Vec::with_capacity(self.columns.len());
        for (_, col) in &self.columns {
            let payload = col.payload();
            index.push((out.len() as u64, payload.len() as u64, col.rows() as u64));
            out.extend_from_slice(&payload);
        }
        let footer_start = out.len();
        out.extend_from_slice(&(self.columns.len() as u64).to_le_bytes());
        for ((name, col), (offset, byte_len, rows)) in self.columns.iter().zip(&index) {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(col.type_tag());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&byte_len.to_le_bytes());
            out.extend_from_slice(&rows.to_le_bytes());
        }
        let footer_len = (out.len() - footer_start) as u64;
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(TAIL);
        out
    }

    /// Parses a full batch back from `.xpc` bytes (every column).
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] for wrong magic, a truncated footer
    /// or a malformed column entry.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, XProError> {
        let index = ColumnIndex::parse(bytes)?;
        let mut batch = ColumnBatch::new();
        for entry in &index.entries {
            let data = index.read_entry(bytes, entry)?;
            batch.push(entry.name.clone(), data);
        }
        Ok(batch)
    }

    /// Writes the batch to a file.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Io`] when the file cannot be created or
    /// written.
    pub fn write(&self, path: &Path) -> Result<(), XProError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Reads a batch back from a file.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Io`] on read failure or [`XProError::Config`]
    /// on a malformed file.
    pub fn read(path: &Path) -> Result<Self, XProError> {
        ColumnBatch::from_bytes(&std::fs::read(path)?)
    }
}

/// One footer entry: where a column's payload lives in the file.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnEntry {
    /// Column name.
    pub name: String,
    /// Type tag (0 = u64, 1 = f64).
    pub type_tag: u8,
    /// Payload offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub byte_len: u64,
    /// Row count.
    pub rows: u64,
}

/// The parsed footer index of an `.xpc` file: enough to slice any single
/// column out without touching the others' payload bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnIndex {
    /// Footer entries in file order.
    pub entries: Vec<ColumnEntry>,
}

impl ColumnIndex {
    /// Parses the footer only (header magic, tail magic, index entries).
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] for wrong magic or a truncated or
    /// inconsistent footer.
    pub fn parse(bytes: &[u8]) -> Result<Self, XProError> {
        let bad = |why: &str| XProError::config(format!("malformed columnar file: {why}"));
        if bytes.len() < MAGIC.len() + 8 + TAIL.len() || &bytes[..8] != MAGIC {
            return Err(bad("missing header magic"));
        }
        if &bytes[bytes.len() - 8..] != TAIL {
            return Err(bad("missing tail magic"));
        }
        let len_at = bytes.len() - 16;
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[len_at..len_at + 8]);
        let footer_len = u64::from_le_bytes(w) as usize;
        let footer_start = len_at
            .checked_sub(footer_len)
            .ok_or_else(|| bad("footer length exceeds file"))?;
        let mut cur = footer_start;
        let mut take = |n: usize| -> Result<&[u8], XProError> {
            if n > len_at - cur {
                return Err(bad("truncated footer"));
            }
            let s = &bytes[cur..cur + n];
            cur += n;
            Ok(s)
        };
        let mut word = [0u8; 8];
        word.copy_from_slice(take(8)?);
        let ncols = u64::from_le_bytes(word) as usize;
        // A corrupt count must not size the allocation: the footer holds
        // at most `footer_len / MIN_ENTRY_LEN` entries.
        let mut entries = Vec::with_capacity(ncols.min(footer_len / MIN_ENTRY_LEN));
        for _ in 0..ncols {
            word.copy_from_slice(take(8)?);
            let name_len = u64::from_le_bytes(word) as usize;
            let name = std::str::from_utf8(take(name_len)?)
                .map_err(|_| bad("column name is not UTF-8"))?
                .to_string();
            let type_tag = take(1)?[0];
            word.copy_from_slice(take(8)?);
            let offset = u64::from_le_bytes(word);
            word.copy_from_slice(take(8)?);
            let byte_len = u64::from_le_bytes(word);
            word.copy_from_slice(take(8)?);
            let rows = u64::from_le_bytes(word);
            entries.push(ColumnEntry {
                name,
                type_tag,
                offset,
                byte_len,
                rows,
            });
        }
        if cur != len_at {
            return Err(bad("footer has trailing bytes"));
        }
        Ok(ColumnIndex { entries })
    }

    /// Decodes one indexed column by slicing exactly its payload range —
    /// bytes of other columns are never inspected.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when the entry's range falls outside
    /// the file or the payload is malformed.
    pub fn read_entry(&self, bytes: &[u8], entry: &ColumnEntry) -> Result<ColumnData, XProError> {
        let start = entry.offset as usize;
        let payload = start
            .checked_add(entry.byte_len as usize)
            .and_then(|end| bytes.get(start..end));
        let Some(payload) = payload else {
            return Err(XProError::config(format!(
                "column {:?} range {start}+{} exceeds file of {} bytes",
                entry.name,
                entry.byte_len,
                bytes.len()
            )));
        };
        let data = ColumnData::from_payload(entry.type_tag, payload)?;
        if data.rows() as u64 != entry.rows {
            return Err(XProError::config(format!(
                "column {:?} decodes to {} rows, footer says {}",
                entry.name,
                data.rows(),
                entry.rows
            )));
        }
        Ok(data)
    }

    /// Reads one column by name straight out of the file bytes via the
    /// footer index. `None` when the name is absent.
    ///
    /// # Errors
    ///
    /// Returns [`XProError::Config`] when the indexed range is invalid.
    pub fn read_column(&self, bytes: &[u8], name: &str) -> Result<Option<ColumnData>, XProError> {
        match self.entries.iter().find(|e| e.name == name) {
            Some(e) => self.read_entry(bytes, e).map(Some),
            None => Ok(None),
        }
    }
}

/// Run-level totals folded back out of an exported timestep batch — the
/// aggregation layer that closes the loop between the columnar export
/// and the [`crate::RunReport`] counters it must agree with.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimestepSummary {
    /// Barrier rounds exported (rows).
    pub rows: u64,
    /// Segments offered fleet-wide.
    pub offered: u64,
    /// Segments completed fleet-wide.
    pub completed: u64,
    /// Segments lost fleet-wide, over every loss bucket.
    pub lost: u64,
    /// Sensor energy (compute + radio) fleet-wide, pJ.
    pub energy_pj: f64,
    /// Sum of completed segments' latencies, seconds.
    pub latency_sum_s: f64,
}

/// Folds a timestep batch into run totals.
///
/// # Errors
///
/// Returns [`XProError::Config`] when a required column is missing or
/// has the wrong type.
pub fn summarize_timesteps(batch: &ColumnBatch) -> Result<TimestepSummary, XProError> {
    let u64_col = |name: &str| -> Result<&[u64], XProError> {
        match batch.column(name) {
            Some(ColumnData::U64(v)) => Ok(v),
            Some(ColumnData::F64(_)) => Err(XProError::config(format!(
                "timestep column {name:?} has the wrong type"
            ))),
            None => Err(XProError::config(format!(
                "timestep column {name:?} is missing"
            ))),
        }
    };
    let f64_col = |name: &str| -> Result<&[f64], XProError> {
        match batch.column(name) {
            Some(ColumnData::F64(v)) => Ok(v),
            Some(ColumnData::U64(_)) => Err(XProError::config(format!(
                "timestep column {name:?} has the wrong type"
            ))),
            None => Err(XProError::config(format!(
                "timestep column {name:?} is missing"
            ))),
        }
    };
    let mut s = TimestepSummary {
        rows: batch.rows() as u64,
        ..TimestepSummary::default()
    };
    s.offered = u64_col("offered")?.iter().sum();
    s.completed = u64_col("completed")?.iter().sum();
    for name in [
        "dropped",
        "timed_out",
        "lost_to_crash",
        "shed",
        "overflowed",
        "admission_rejected",
        "quarantined",
    ] {
        s.lost += u64_col(name)?.iter().sum::<u64>();
    }
    s.energy_pj = f64_col("energy_pj")?.iter().sum();
    s.latency_sum_s = f64_col("latency_sum_s")?.iter().sum();
    Ok(s)
}

/// Per-node final statistics of a finished run as a column batch
/// (`nodes.xpc` of a `--export` directory): one row per node, sketch
/// percentiles included.
pub fn node_columns(report: &crate::RunReport) -> ColumnBatch {
    let n = &report.nodes;
    let mut batch = ColumnBatch::new();
    batch.push(
        "node",
        ColumnData::U64(n.iter().map(|r| r.node as u64).collect()),
    );
    batch.push(
        "offered",
        ColumnData::U64(n.iter().map(|r| r.segments_offered).collect()),
    );
    batch.push(
        "completed",
        ColumnData::U64(n.iter().map(|r| r.segments_completed).collect()),
    );
    batch.push(
        "lost",
        ColumnData::U64(n.iter().map(crate::NodeReport::segments_lost).collect()),
    );
    batch.push(
        "retries",
        ColumnData::U64(n.iter().map(|r| r.retries).collect()),
    );
    batch.push(
        "p50_s",
        ColumnData::F64(n.iter().map(|r| r.latency.p50_s).collect()),
    );
    batch.push(
        "p95_s",
        ColumnData::F64(n.iter().map(|r| r.latency.p95_s).collect()),
    );
    batch.push(
        "p99_s",
        ColumnData::F64(n.iter().map(|r| r.latency.p99_s).collect()),
    );
    batch.push(
        "max_s",
        ColumnData::F64(n.iter().map(|r| r.latency.max_s).collect()),
    );
    batch.push(
        "compute_pj",
        ColumnData::F64(n.iter().map(|r| r.compute_pj).collect()),
    );
    batch.push(
        "wireless_pj",
        ColumnData::F64(n.iter().map(|r| r.wireless_pj).collect()),
    );
    batch
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;

    fn sample_batch() -> ColumnBatch {
        let mut b = ColumnBatch::new();
        b.push("t_s", ColumnData::F64(vec![0.0, 0.5, 1.0]));
        b.push("completed", ColumnData::U64(vec![3, 4, 5]));
        b.push("energy_pj", ColumnData::F64(vec![1.5, 2.5, 3.5]));
        b
    }

    #[test]
    fn round_trip_is_identity() {
        let b = sample_batch();
        let bytes = b.to_bytes();
        let back = ColumnBatch::from_bytes(&bytes).unwrap();
        assert_eq!(b, back);
        assert_eq!(bytes, back.to_bytes(), "re-serialization is stable");
    }

    #[test]
    fn footer_index_reads_one_column_without_the_others() {
        let b = sample_batch();
        let mut bytes = b.to_bytes();
        let index = ColumnIndex::parse(&bytes).unwrap();
        // Corrupt every payload byte except the target column's: a
        // footer-driven reader must not care.
        let target = index
            .entries
            .iter()
            .find(|e| e.name == "completed")
            .unwrap();
        let keep = target.offset as usize..(target.offset + target.byte_len) as usize;
        let payload_end = index
            .entries
            .iter()
            .map(|e| (e.offset + e.byte_len) as usize)
            .max()
            .unwrap();
        for (i, b) in bytes
            .iter_mut()
            .enumerate()
            .take(payload_end)
            .skip(MAGIC.len())
        {
            if !keep.contains(&i) {
                *b ^= 0xFF;
            }
        }
        let col = index.read_column(&bytes, "completed").unwrap().unwrap();
        assert_eq!(col, ColumnData::U64(vec![3, 4, 5]));
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(ColumnBatch::from_bytes(b"nope").is_err());
        let mut bytes = sample_batch().to_bytes();
        bytes[0] ^= 1;
        assert!(ColumnBatch::from_bytes(&bytes).is_err());
        let mut truncated = sample_batch().to_bytes();
        truncated.truncate(truncated.len() - 4);
        assert!(ColumnBatch::from_bytes(&truncated).is_err());
    }

    #[test]
    fn oversized_footer_fields_are_errors_not_panics() {
        let mut one = ColumnBatch::new();
        one.push("x", ColumnData::U64(vec![7, 8]));
        let bytes = one.to_bytes();
        // Footer layout of the one column "x": ncols, name_len, name,
        // type tag, offset, byte_len, rows.
        let footer = MAGIC.len() + 16;
        let ncols_at = footer;
        let name_len_at = footer + 8;
        let offset_at = name_len_at + 8 + 1 + 1;
        for at in [ncols_at, name_len_at, offset_at] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(ColumnBatch::from_bytes(&bad).is_err(), "field at {at}");
        }
    }

    #[test]
    fn summary_folds_the_standard_columns() {
        let mut b = ColumnBatch::new();
        b.push("t_s", ColumnData::F64(vec![0.0, 0.5]));
        b.push("offered", ColumnData::U64(vec![10, 12]));
        b.push("completed", ColumnData::U64(vec![8, 11]));
        for name in [
            "dropped",
            "timed_out",
            "lost_to_crash",
            "shed",
            "overflowed",
            "admission_rejected",
            "quarantined",
        ] {
            b.push(name, ColumnData::U64(vec![1, 0]));
        }
        b.push("energy_pj", ColumnData::F64(vec![5.0, 7.0]));
        b.push("latency_sum_s", ColumnData::F64(vec![0.25, 0.5]));
        let s = summarize_timesteps(&b).unwrap();
        assert_eq!(s.rows, 2);
        assert_eq!(s.offered, 22);
        assert_eq!(s.completed, 19);
        assert_eq!(s.lost, 7);
        assert!((s.energy_pj - 12.0).abs() < 1e-12);
        assert!((s.latency_sum_s - 0.75).abs() < 1e-12);
        let missing = ColumnBatch::new();
        assert!(summarize_timesteps(&missing).is_err());
    }
}
