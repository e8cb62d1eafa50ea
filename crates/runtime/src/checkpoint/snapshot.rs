//! The on-disk snapshot format: versioned, crc-checked, fsync'd.
//!
//! One snapshot file is a little-endian binary image of the whole
//! run's claim frontier:
//!
//! ```text
//! magic        8 bytes   "ORCHSNAP"
//! format       u32       1
//! fingerprint  u64       FNV-1a over the plan (op names/tasks/deps) + seed
//! version      u64       monotone snapshot number
//! op_count     u32
//! per op:
//!   task_count u32
//!   bitmap     ⌈n/8⌉ B   completed-task bits, LSB-first
//!   stats      u64+2×f64 OnlineStats (count, mean, M2)
//!   outputs    u64 × |completed|   f64 bits, ascending task index
//! crc32        u32       IEEE, over every preceding byte
//! ```
//!
//! Writes go write-ahead: the encoded image lands in a temp file,
//! `fsync`, then an atomic rename to `ckpt-<version>.bin` (plus a
//! best-effort directory fsync). A torn write therefore leaves either
//! a temp file (ignored by the loader) or a truncated renamed file
//! that fails the crc/length checks — [`load_latest`] walks versions
//! newest-first and falls back to the previous intact snapshot.

use crate::stats::OnlineStats;
use crate::threaded::{build_plan, Plan};
use orchestra_delirium::{DelirGraph, GraphError};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

const MAGIC: &[u8; 8] = b"ORCHSNAP";
const FORMAT: u32 = 1;

/// CRC-32 (IEEE 802.3, reflected). Bitwise rather than table-driven:
/// snapshots are test-scale, so simplicity beats throughput here.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One op's persisted execution state.
pub(crate) struct OpSnapshot {
    /// Per-task completion bit (length = the op's task count).
    pub(crate) completed: Vec<bool>,
    /// Output values, aligned with `completed`; only completed slots
    /// are meaningful (uncompleted slots decode as 0.0).
    pub(crate) outputs: Vec<f64>,
    /// The cost-hint statistics of the completed tasks — merged into
    /// the adaptive chunk policy on resume so TAPER restarts with the
    /// µ/σ it had already learned.
    pub(crate) stats: OnlineStats,
}

/// A parsed, validated snapshot: the claim frontier of one run at one
/// consistent cut.
pub struct Snapshot {
    pub(crate) fingerprint: u64,
    pub(crate) version: u64,
    pub(crate) ops: Vec<OpSnapshot>,
}

impl Snapshot {
    /// The monotone snapshot number (also encoded in the file name).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The plan fingerprint this snapshot belongs to (see
    /// [`plan_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Tasks recorded complete, summed over all ops.
    pub fn completed_tasks(&self) -> usize {
        self.ops.iter().map(|o| o.completed.iter().filter(|&&c| c).count()).sum()
    }

    /// Number of op records in the snapshot.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

/// Captures one op's live execution state for a snapshot. A task
/// counts as complete when it was restored from a previous snapshot
/// (no `restored` mask: nothing was) or its `done` flag is visible — executors store the output cell
/// *before* the `Release` store of the flag, so an `Acquire` read of
/// `true` guarantees `read_output` sees a quiescent final value: the
/// bitmap is a consistent cut, and the copy taken here is
/// the snapshot's own (the arena keeps no history). `read_output` is
/// only invoked for tasks proven complete, which is what makes the
/// arena's raw cell read race-free.
pub(crate) fn op_snapshot(
    costs: &[f64],
    restored: Option<&[bool]>,
    done: &[AtomicBool],
    read_output: impl Fn(usize) -> f64,
) -> OpSnapshot {
    let n = costs.len();
    let mut completed = vec![false; n];
    let mut outputs = vec![0.0f64; n];
    let mut stats = OnlineStats::new();
    for t in 0..n {
        if restored.is_some_and(|r| r[t]) || done[t].load(Ordering::Acquire) {
            completed[t] = true;
            outputs[t] = read_output(t);
            stats.observe(costs[t]);
        }
    }
    OpSnapshot { completed, outputs, stats }
}

/// FNV-1a over the expanded plan (op names, node ids, iterations, task
/// counts, dependency edges) and the cost seed. Two runs with the same
/// fingerprint sample identical per-task costs and build identical op
/// DAGs, so a snapshot from one is a valid resume point for the other.
pub fn plan_fingerprint(plan: &Plan, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(&(plan.ops.len() as u64).to_le_bytes());
    for op in &plan.ops {
        eat(op.name.as_bytes());
        eat(&[0xFF]);
        eat(&(op.node as u64).to_le_bytes());
        eat(&(op.iter as u64).to_le_bytes());
        eat(&(op.tasks as u64).to_le_bytes());
        for &d in &op.deps {
            eat(&(d as u64).to_le_bytes());
        }
    }
    h
}

/// [`plan_fingerprint`] for a graph + options pair: expands the plan
/// the same way the executors do, then fingerprints it.
///
/// # Errors
///
/// Returns the graph's validation error when it is malformed.
pub fn graph_fingerprint(
    g: &DelirGraph,
    opts: &crate::executor::ExecutorOptions,
) -> Result<u64, GraphError> {
    Ok(plan_fingerprint(&build_plan(g, opts)?, opts.seed))
}

fn encode(snap: &Snapshot) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT.to_le_bytes());
    buf.extend_from_slice(&snap.fingerprint.to_le_bytes());
    buf.extend_from_slice(&snap.version.to_le_bytes());
    buf.extend_from_slice(&(snap.ops.len() as u32).to_le_bytes());
    for op in &snap.ops {
        let n = op.completed.len();
        buf.extend_from_slice(&(n as u32).to_le_bytes());
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (t, &done) in op.completed.iter().enumerate() {
            if done {
                bitmap[t / 8] |= 1 << (t % 8);
            }
        }
        buf.extend_from_slice(&bitmap);
        buf.extend_from_slice(&op.stats.count().to_le_bytes());
        buf.extend_from_slice(&op.stats.mean().to_le_bytes());
        buf.extend_from_slice(&op.stats.m2().to_le_bytes());
        for (t, &done) in op.completed.iter().enumerate() {
            if done {
                buf.extend_from_slice(&op.outputs[t].to_bits().to_le_bytes());
            }
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

/// Decodes and validates one snapshot image. `None` on any defect:
/// bad magic, unknown format, truncation, trailing garbage, or crc
/// mismatch — the caller falls back to an older version.
fn decode(bytes: &[u8]) -> Option<Snapshot> {
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 + 4 + 4 {
        return None;
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return None;
    }
    let mut c = Cursor { bytes: body, pos: 0 };
    if c.take(MAGIC.len())? != MAGIC || c.u32()? != FORMAT {
        return None;
    }
    let fingerprint = c.u64()?;
    let version = c.u64()?;
    let op_count = c.u32()? as usize;
    let mut ops = Vec::with_capacity(op_count.min(1 << 16));
    for _ in 0..op_count {
        let n = c.u32()? as usize;
        let bitmap = c.take(n.div_ceil(8))?;
        let completed: Vec<bool> = (0..n).map(|t| bitmap[t / 8] & (1 << (t % 8)) != 0).collect();
        let count = c.u64()?;
        let mean = c.f64()?;
        let m2 = c.f64()?;
        let mut outputs = vec![0.0f64; n];
        for t in 0..n {
            if completed[t] {
                outputs[t] = c.f64()?;
            }
        }
        ops.push(OpSnapshot {
            completed,
            outputs,
            stats: OnlineStats::from_parts(count, mean, m2),
        });
    }
    if c.pos != body.len() {
        return None;
    }
    Some(Snapshot { fingerprint, version, ops })
}

fn file_name(version: u64) -> String {
    format!("ckpt-{version:016x}.bin")
}

fn version_of(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Writes one snapshot write-ahead: encode → temp file → fsync →
/// atomic rename → best-effort directory fsync.
pub(crate) fn write_snapshot(dir: &Path, snap: &Snapshot) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let bytes = encode(snap);
    let tmp = dir.join(format!(".ckpt-{:016x}.tmp", snap.version));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    let path = dir.join(file_name(snap.version));
    fs::rename(&tmp, &path)?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

/// The snapshot versions present in `dir` (by file name, ascending).
/// Presence says nothing about integrity — use [`load_latest`] to get
/// a validated snapshot.
pub fn snapshot_versions(dir: &Path) -> Vec<u64> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut versions: Vec<u64> =
        entries.flatten().filter_map(|e| version_of(e.file_name().to_str()?)).collect();
    versions.sort_unstable();
    versions
}

/// Loads the newest snapshot in `dir` that decodes cleanly (magic,
/// format, length, crc) *and* matches `fingerprint`. Torn, truncated,
/// corrupt, or foreign-plan files are skipped, falling back to the
/// previous version — the torn-write recovery path the chaos suite
/// exercises by truncating the latest file mid-record.
pub fn load_latest(dir: &Path, fingerprint: u64) -> Option<Snapshot> {
    let mut versions = snapshot_versions(dir);
    versions.reverse();
    for v in versions {
        let Ok(bytes) = fs::read(dir.join(file_name(v))) else {
            continue;
        };
        if let Some(snap) = decode(&bytes) {
            if snap.fingerprint == fingerprint {
                return Some(snap);
            }
        }
    }
    None
}

/// Removes the oldest snapshots beyond `keep` (best-effort).
pub(crate) fn prune(dir: &Path, keep: usize) {
    let versions = snapshot_versions(dir);
    if versions.len() <= keep.max(1) {
        return;
    }
    for &v in &versions[..versions.len() - keep.max(1)] {
        let _ = fs::remove_file(dir.join(file_name(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(version: u64, fingerprint: u64) -> Snapshot {
        let mut stats = OnlineStats::new();
        for x in [1.0, 2.0, 4.0] {
            stats.observe(x);
        }
        Snapshot {
            fingerprint,
            version,
            ops: vec![
                OpSnapshot {
                    completed: vec![true, false, true, true, false],
                    outputs: vec![1.5, 0.0, -2.25, 1e-9, 0.0],
                    stats,
                },
                OpSnapshot {
                    completed: vec![false],
                    outputs: vec![0.0],
                    stats: OnlineStats::new(),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample(7, 0xABCD);
        let bytes = encode(&snap);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back.version, 7);
        assert_eq!(back.fingerprint, 0xABCD);
        assert_eq!(back.ops.len(), 2);
        assert_eq!(back.ops[0].completed, snap.ops[0].completed);
        for (a, b) in snap.ops[0].outputs.iter().zip(&back.ops[0].outputs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.ops[0].stats.count(), 3);
        assert!((back.ops[0].stats.mean() - snap.ops[0].stats.mean()).abs() < 1e-12);
        assert!((back.ops[0].stats.m2() - snap.ops[0].stats.m2()).abs() < 1e-12);
        assert_eq!(back.completed_tasks(), 3);
    }

    #[test]
    fn any_truncation_is_rejected() {
        let bytes = encode(&sample(3, 1));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "accepted a {cut}-byte prefix");
        }
        assert!(decode(&bytes).is_some());
    }

    #[test]
    fn bit_flips_are_rejected() {
        let bytes = encode(&sample(3, 1));
        for pos in [0, 9, 20, 29, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_none(), "accepted a flip at byte {pos}");
        }
    }

    #[test]
    fn loader_falls_back_past_torn_latest() {
        let dir = std::env::temp_dir().join(format!(
            "orchestra-snaptest-{}-{:x}",
            std::process::id(),
            0xA1u32
        ));
        let _ = fs::remove_dir_all(&dir);
        write_snapshot(&dir, &sample(1, 9)).unwrap();
        write_snapshot(&dir, &sample(2, 9)).unwrap();
        let latest = dir.join(file_name(2));
        let full = fs::read(&latest).unwrap();
        fs::write(&latest, &full[..full.len() / 2]).unwrap();
        let snap = load_latest(&dir, 9).expect("falls back to version 1");
        assert_eq!(snap.version(), 1);
        // Wrong fingerprint: nothing valid at all.
        assert!(load_latest(&dir, 10).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = std::env::temp_dir().join(format!(
            "orchestra-snaptest-{}-{:x}",
            std::process::id(),
            0xB2u32
        ));
        let _ = fs::remove_dir_all(&dir);
        for v in 1..=5 {
            write_snapshot(&dir, &sample(v, 4)).unwrap();
        }
        prune(&dir, 2);
        assert_eq!(snapshot_versions(&dir), vec![4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
