//! Streaming append path: open segments with periodic manifest
//! checkpoints.
//!
//! [`DiskStore::append`] is batch-shaped — every call seals one or two
//! brand-new segments and pays their `fsync`s plus a manifest commit. A
//! live serve loop ingests *small* batches continuously, so the
//! [`IngestWriter`] amortizes that cost: arriving records are framed
//! into **open** segments (one per [`SegmentKind`](crate::SegmentKind),
//! written by the same streaming segment writer `append` uses, so the
//! bytes are the same) and only a periodic **checkpoint** pays the
//! durability protocol of `DESIGN.md` §6 — the very commit a batch
//! append ends with:
//!
//! ```text
//! write out + fsync(open segments) → fsync(dir) → append manifest entries → fsync(manifest)
//! ```
//!
//! Between checkpoints a staged record sits in the writer's chunk
//! buffer or in the not-yet-synced file; the two are equally
//! uncommitted, so nothing is written per push unless a chunk fills.
//!
//! Everything a checkpoint has committed is exactly as durable as a
//! batch append. Everything after the last checkpoint is *crash-shaped
//! residue*: the open segment files have no manifest entry, so the next
//! [`DiskStore::open`] removes them as orphans — in **both**
//! [`Strict`](crate::RecoveryMode::Strict) and
//! [`Salvage`](crate::RecoveryMode::Salvage) mode, exactly as if a
//! batch append had crashed between the segment write and the manifest
//! commit. Recovery therefore always restores a checkpoint-aligned
//! prefix of the stream, and the durability loss of a crash is bounded
//! by [`CheckpointPolicy::records_per_checkpoint`].
//!
//! The writer takes the [`DiskStore`] by value, so no interleaved batch
//! append can commit a manifest entry out of stream order while
//! segments are open; [`IngestWriter::finish`] checkpoints and hands
//! the store back.

use ev_core::scenario::{EScenario, VScenario};

use crate::codec::Record;
use crate::error::DiskResult;
use crate::manifest::ManifestEntry;
use crate::segment::SegmentFile;
use crate::store::DiskStore;

/// When the writer checkpoints on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint automatically once at least this many records have
    /// accumulated since the last checkpoint. `0` disables automatic
    /// checkpoints (the caller drives [`IngestWriter::checkpoint`]).
    /// This bounds how many records a crash can lose.
    pub records_per_checkpoint: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            records_per_checkpoint: 1024,
        }
    }
}

impl CheckpointPolicy {
    /// A policy that never checkpoints automatically.
    #[must_use]
    pub fn manual() -> Self {
        CheckpointPolicy {
            records_per_checkpoint: 0,
        }
    }
}

/// Receipt of one [`IngestWriter::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAppendReceipt {
    /// Records written by this push.
    pub appended: u64,
    /// Records staged in open segments after this push (zero when the
    /// push triggered an automatic checkpoint).
    pub staged_records: u64,
    /// The manifest entries committed, when this push crossed the
    /// [`CheckpointPolicy`] threshold.
    pub checkpoint: Option<Vec<ManifestEntry>>,
}

/// Streaming writer over a [`DiskStore`]: frames arriving E/V-Scenarios
/// into open segments and commits them with periodic manifest
/// checkpoints. See the [module docs](self) for the durability
/// contract.
///
/// Dropping the writer without [`finish`](IngestWriter::finish) (or a
/// final [`checkpoint`](IngestWriter::checkpoint)) abandons the open
/// segments — deliberately crash-shaped: the next open heals them like
/// any interrupted append.
///
/// ```
/// use ev_core::{EScenario, ZoneAttr, Eid};
/// use ev_core::region::CellId;
/// use ev_core::time::Timestamp;
/// use ev_disk::{CheckpointPolicy, DiskStore, IngestWriter};
///
/// let dir = std::env::temp_dir().join(format!("ev-ingest-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let store = DiskStore::create(&dir).unwrap();
/// let mut writer = IngestWriter::new(store, CheckpointPolicy::manual());
///
/// let mut s = EScenario::new(CellId::new(0), Timestamp::new(5));
/// s.insert(Eid::from_u64(1), ZoneAttr::Inclusive);
/// writer.push(&[s], &[]).unwrap();        // staged, not yet committed
/// assert_eq!(writer.staged_records(), 1);
/// let store = writer.finish().unwrap();   // checkpoint: now durable
/// assert_eq!(store.record_count(ev_disk::SegmentKind::EScenario), 1);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct IngestWriter {
    store: DiskStore,
    open_e: Option<SegmentFile<EScenario>>,
    open_v: Option<SegmentFile<VScenario>>,
    staged: u64,
    policy: CheckpointPolicy,
}

impl IngestWriter {
    /// Wraps `store` for streaming appends under `policy`.
    #[must_use]
    pub fn new(store: DiskStore, policy: CheckpointPolicy) -> Self {
        IngestWriter {
            store,
            open_e: None,
            open_v: None,
            staged: 0,
            policy,
        }
    }

    /// The underlying store (committed segments only; open segments are
    /// not visible until a checkpoint).
    #[must_use]
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// Records staged in open segments since the last checkpoint.
    #[must_use]
    pub fn staged_records(&self) -> u64 {
        self.staged
    }

    /// Frames both batches into their open segments (creating them on
    /// first use) and auto-checkpoints when the policy threshold is
    /// crossed.
    ///
    /// # Errors
    ///
    /// [`DiskError::Io`](crate::DiskError::Io) on write or fsync
    /// failure. The open segments stay uncommitted, so a failed push
    /// never damages committed data.
    pub fn push(
        &mut self,
        e_batch: &[EScenario],
        v_batch: &[VScenario],
    ) -> DiskResult<StreamAppendReceipt> {
        stage(&mut self.store, &mut self.open_e, e_batch)?;
        stage(&mut self.store, &mut self.open_v, v_batch)?;
        let appended = (e_batch.len() + v_batch.len()) as u64;
        self.staged += appended;
        let checkpoint = if self.policy.records_per_checkpoint > 0
            && self.staged >= self.policy.records_per_checkpoint
        {
            Some(self.checkpoint()?)
        } else {
            None
        };
        Ok(StreamAppendReceipt {
            appended,
            staged_records: self.staged,
            checkpoint,
        })
    }

    /// Seals the open segments and commits them to the manifest,
    /// making every record pushed so far durable. Returns the entries
    /// committed (empty when nothing was staged).
    ///
    /// # Errors
    ///
    /// [`DiskError::Io`](crate::DiskError::Io) on write, fsync or
    /// manifest-append failure.
    pub fn checkpoint(&mut self) -> DiskResult<Vec<ManifestEntry>> {
        let mut entries = Vec::new();
        if let Some(open) = self.open_e.take() {
            entries.push(open.seal()?);
        }
        if let Some(open) = self.open_v.take() {
            entries.push(open.seal()?);
        }
        self.store.commit_sealed(&entries)?;
        self.staged = 0;
        Ok(entries)
    }

    /// Final checkpoint, then hands the store back for batch use.
    ///
    /// # Errors
    ///
    /// As [`IngestWriter::checkpoint`].
    pub fn finish(mut self) -> DiskResult<DiskStore> {
        self.checkpoint()?;
        Ok(self.store)
    }
}

/// Frames `batch` into the open segment of its kind, creating the
/// segment file on first use.
fn stage<R: Record>(
    store: &mut DiskStore,
    open: &mut Option<SegmentFile<R>>,
    batch: &[R],
) -> DiskResult<()> {
    if batch.is_empty() {
        return Ok(());
    }
    let segment = match open {
        Some(segment) => segment,
        None => open.insert(store.new_segment()?),
    };
    segment.push(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentKind;
    use ev_core::ids::Eid;
    use ev_core::region::CellId;
    use ev_core::scenario::ZoneAttr;
    use ev_core::time::Timestamp;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ev-disk-ingest-{tag}-{}-{n}", std::process::id()))
    }

    fn e(cell: usize, time: u64, eid: u64) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        s.insert(Eid::from_u64(eid), ZoneAttr::Inclusive);
        s
    }

    #[test]
    fn staged_records_commit_at_checkpoint_and_reload() {
        let dir = temp_dir("commit");
        let store = DiskStore::create(&dir).unwrap();
        let mut writer = IngestWriter::new(store, CheckpointPolicy::manual());
        writer.push(&[e(0, 1, 10)], &[]).unwrap();
        writer.push(&[e(1, 2, 11), e(2, 3, 12)], &[]).unwrap();
        assert_eq!(writer.staged_records(), 3);
        assert_eq!(writer.store().segments().len(), 0, "nothing committed yet");

        let entries = writer.checkpoint().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].records, 3);
        assert_eq!(writer.staged_records(), 0);

        // More pushes open a fresh segment with a fresh sequence.
        writer.push(&[e(3, 4, 13)], &[]).unwrap();
        let store = writer.finish().unwrap();
        assert_eq!(store.segments().len(), 2);

        let estore = DiskStore::open(&dir).unwrap().load_estore().unwrap();
        assert_eq!(estore.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn policy_auto_checkpoints_on_threshold() {
        let dir = temp_dir("auto");
        let store = DiskStore::create(&dir).unwrap();
        let mut writer = IngestWriter::new(
            store,
            CheckpointPolicy {
                records_per_checkpoint: 4,
            },
        );
        let r = writer.push(&[e(0, 1, 1), e(1, 2, 2)], &[]).unwrap();
        assert!(r.checkpoint.is_none());
        let r = writer.push(&[e(2, 3, 3), e(3, 4, 4)], &[]).unwrap();
        let entries = r.checkpoint.expect("threshold crossed");
        assert_eq!(entries.iter().map(|e| e.records).sum::<u64>(), 4);
        assert_eq!(r.staged_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abandoned_open_segments_are_healed_as_orphans() {
        let dir = temp_dir("abandon");
        let store = DiskStore::create(&dir).unwrap();
        let mut writer = IngestWriter::new(store, CheckpointPolicy::manual());
        writer.push(&[e(0, 1, 10)], &[]).unwrap();
        writer.checkpoint().unwrap();
        writer.push(&[e(1, 2, 11)], &[]).unwrap();
        drop(writer); // crash: open segment never committed

        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.recovery().orphan_segments_removed, 1);
        let estore = reopened.load_estore().unwrap();
        assert_eq!(estore.len(), 1, "checkpoint-aligned prefix survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mixed_e_and_v_batches_commit_one_entry_per_kind() {
        let dir = temp_dir("mixed");
        let store = DiskStore::create(&dir).unwrap();
        let mut writer = IngestWriter::new(store, CheckpointPolicy::manual());
        let mut v = ev_core::scenario::VScenario::new(CellId::new(0), Timestamp::new(1));
        v.push(ev_core::scenario::Detection {
            vid: ev_core::Vid::new(7),
            feature: ev_core::feature::FeatureVector::new(vec![0.5, 0.5]).unwrap(),
        });
        writer
            .push(&[e(0, 1, 10)], std::slice::from_ref(&v))
            .unwrap();
        let entries = writer.checkpoint().unwrap();
        assert_eq!(entries.len(), 2);
        let store = writer.finish().unwrap();
        assert_eq!(store.record_count(SegmentKind::EScenario), 1);
        assert_eq!(store.record_count(SegmentKind::VScenario), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One `serve-mixed` ingest window — 600 people on 10 × 10 cells,
    /// 10 ticks, 64-dimensional features: every cell reports once — is
    /// far under the writer's byte grain, so serving never pays a thread
    /// spawn per window (which doubled `serve.ingest_s.p50` when it
    /// did), however wide the host.
    #[test]
    fn a_served_window_is_framed_on_the_caller() {
        use crate::segment::WORKERS_SPAWNED;
        use ev_core::feature::FeatureVector;
        use ev_core::scenario::Detection;

        let feature = FeatureVector::new(vec![0.5; 64]).unwrap();
        let window = |tick: u64| -> (Vec<EScenario>, Vec<VScenario>) {
            (0..100usize)
                .map(|cell| {
                    let mut e = EScenario::new(CellId::new(cell), Timestamp::new(tick));
                    let mut v = VScenario::new(CellId::new(cell), Timestamp::new(tick));
                    for person in 0..6u64 {
                        e.insert(Eid::from_u64(cell as u64 * 6 + person), ZoneAttr::Inclusive);
                        v.push(Detection {
                            vid: ev_core::Vid::new(cell as u64 * 6 + person),
                            feature: feature.clone(),
                        });
                    }
                    (e, v)
                })
                .unzip()
        };

        let dir = temp_dir("window");
        let store = DiskStore::create(&dir).unwrap();
        let mut writer = IngestWriter::new(store, CheckpointPolicy::default());
        WORKERS_SPAWNED.set(0);
        for tick in (0..300).step_by(10) {
            let (e, v) = window(tick);
            writer.push(&e, &v).unwrap();
        }
        let store = writer.finish().unwrap();
        assert_eq!(WORKERS_SPAWNED.get(), 0);
        assert_eq!(store.record_count(SegmentKind::VScenario), 3000);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
