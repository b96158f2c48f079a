//! [`DiskStore`]: a directory of immutable segments plus an append-only
//! manifest, with crash-safe appends and self-healing opens.
//!
//! # Durability protocol
//!
//! An append streams its E and its V batch into one new segment file
//! each, then commits both at once, fsyncing at each arrow:
//!
//! ```text
//! stream segment file(s) → fsync(each segment) → fsync(dir)
//!   → append the manifest entries in one write → fsync(manifest)
//! ```
//!
//! A crash at any point leaves exactly one of two benign shapes:
//! **orphan segments** (files on disk, complete or cut short, with no
//! manifest entry — the append never committed; recovery deletes them)
//! or a **torn manifest tail** (partial final entry — recovery
//! truncates it, keeping the E entry if that one is whole and
//! orphaning the segment whose entry was lost). Neither shape can lose
//! a *committed* append, and neither is reported as corruption.
//!
//! Anything else — a checksum mismatch in the middle of a file, a
//! committed segment whose length disagrees with its manifest entry —
//! cannot be produced by a crashed append and is treated per
//! [`RecoveryMode`]: [`Strict`](RecoveryMode::Strict) refuses to open,
//! [`Salvage`](RecoveryMode::Salvage) keeps every record up to the
//! first bad frame and rewrites the manifest to match.

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ev_core::scenario::{EScenario, ScenarioId, VScenario};
use ev_store::{EScenarioStore, FootageLocation, FootageSource, VideoStore};
use ev_telemetry::{names, Telemetry};
use ev_vision::cost::CostModel;

use crate::codec::{self, Record};
use crate::error::{DiskError, DiskResult, RecoveryError};
use crate::frame::{read_frames, FramedFile, Stop, Walk};
use crate::manifest::{self, ManifestEntry};
use crate::segment::{self, CommittedSegment, SegmentBounds, SegmentFile, SegmentKind};

/// File name of the manifest inside a corpus directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// How strictly an open treats bytes that a crash cannot explain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Heal crash-shaped residue (torn manifest tails, orphan
    /// segments), but refuse to open on true corruption. Committed
    /// segments get a cheap existence/length check; record checksums
    /// are verified lazily at load time. This is the default.
    #[default]
    Strict,
    /// Additionally CRC-scan every committed segment up front and keep
    /// the longest valid prefix of every damaged file, rewriting the
    /// manifest to match. Loses the damaged suffix, never errors on it.
    Salvage,
}

/// What recovery found and repaired while opening a corpus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed manifest entries surviving the open.
    pub manifest_entries_kept: usize,
    /// Bytes cut off a torn or damaged manifest tail.
    pub manifest_bytes_truncated: u64,
    /// Uncommitted segment files deleted.
    pub orphan_segments_removed: usize,
    /// Damaged segments truncated to a valid prefix (salvage only).
    pub segments_salvaged: usize,
    /// Committed records lost to salvage truncation or dropped entries.
    pub records_dropped: u64,
}

impl RecoveryReport {
    /// Whether the open changed anything on disk.
    #[must_use]
    pub fn repaired_anything(&self) -> bool {
        self.manifest_bytes_truncated > 0
            || self.orphan_segments_removed > 0
            || self.segments_salvaged > 0
            || self.records_dropped > 0
    }
}

/// Receipt of one committed append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Entry committed for the E-Scenario batch, if it was non-empty.
    pub e_segment: Option<ManifestEntry>,
    /// Entry committed for the V-Scenario batch, if it was non-empty.
    pub v_segment: Option<ManifestEntry>,
}

/// A persistent EV corpus rooted at one directory.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    entries: Vec<ManifestEntry>,
    next_seq: u64,
    recovery: RecoveryReport,
    telemetry: Telemetry,
}

fn fsync_dir(dir: &Path) -> DiskResult<()> {
    // Directory fsync makes the new directory entry itself durable;
    // without it a crash can lose the file name while keeping the data.
    let d = File::open(dir).map_err(|e| DiskError::io("opening directory", dir, e))?;
    d.sync_all()
        .map_err(|e| DiskError::io("fsyncing directory", dir, e))
}

fn write_durable(path: &Path, bytes: &[u8]) -> DiskResult<()> {
    let mut f = File::create(path).map_err(|e| DiskError::io("creating", path, e))?;
    f.write_all(bytes)
        .map_err(|e| DiskError::io("writing", path, e))?;
    f.sync_all().map_err(|e| DiskError::io("fsyncing", path, e))
}

fn parse_segment_file_name(name: &str) -> Option<u64> {
    // seg-NNNNNN-e.seg / seg-NNNNNN-v.seg
    let rest = name.strip_prefix("seg-")?;
    let rest = rest.strip_suffix(".seg")?;
    let digits = (rest.strip_suffix("-e")).or_else(|| rest.strip_suffix("-v"))?;
    digits.parse().ok()
}

impl DiskStore {
    /// Creates a fresh, empty corpus at `dir` (made if missing).
    ///
    /// # Errors
    ///
    /// [`DiskError::Io`] if the directory cannot be prepared, or if it
    /// already holds a manifest (refusing to clobber an existing
    /// corpus).
    pub fn create(dir: impl Into<PathBuf>) -> DiskResult<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| DiskError::io("creating directory", &dir, e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(DiskError::io(
                "creating manifest",
                &manifest_path,
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "directory already holds a corpus",
                ),
            ));
        }
        write_durable(&manifest_path, &manifest::manifest_header())?;
        fsync_dir(&dir)?;
        Ok(DiskStore {
            dir,
            entries: Vec::new(),
            next_seq: 0,
            recovery: RecoveryReport::default(),
            telemetry: Telemetry::disabled().clone(),
        })
    }

    /// Opens an existing corpus in [`RecoveryMode::Strict`].
    ///
    /// # Errors
    ///
    /// See [`DiskStore::open_with`].
    pub fn open(dir: impl Into<PathBuf>) -> DiskResult<Self> {
        DiskStore::open_with(dir, RecoveryMode::Strict, Telemetry::disabled())
    }

    /// Opens `dir` if it holds a corpus, otherwise creates one.
    ///
    /// # Errors
    ///
    /// As [`DiskStore::create`] / [`DiskStore::open`].
    pub fn open_or_create(dir: impl Into<PathBuf>) -> DiskResult<Self> {
        let dir = dir.into();
        if dir.join(MANIFEST_FILE).exists() {
            DiskStore::open(dir)
        } else {
            DiskStore::create(dir)
        }
    }

    /// Opens an existing corpus, running the recovery state machine of
    /// `DESIGN.md` §6 under `mode` and recording disk telemetry on
    /// `telemetry`.
    ///
    /// # Errors
    ///
    /// [`DiskError::Io`] on filesystem failures (including a missing
    /// manifest), [`DiskError::Corrupt`] on damage that `mode` does not
    /// permit healing.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        mode: RecoveryMode,
        telemetry: &Telemetry,
    ) -> DiskResult<Self> {
        let started = Instant::now();
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_FILE);
        let reading = |e| DiskError::io("reading manifest", &manifest_path, e);
        let file = File::open(&manifest_path).map_err(reading)?;
        let len = file.metadata().map_err(reading)?.len();
        let (mut entries, walk) = manifest::read_manifest(file, len).map_err(reading)?;

        let mut report = RecoveryReport::default();
        let mut manifest_dirty = false;
        match walk.stop {
            Stop::End => {}
            // No trustworthy header: no prefix worth keeping, in either mode.
            Stop::Damaged(damage) if walk.valid_len == 0 => return Err(damage),
            Stop::Damaged(damage) => match mode {
                RecoveryMode::Strict => {
                    let reason = match damage {
                        DiskError::Corrupt { context } => context,
                        other => other.to_string(),
                    };
                    return Err(RecoveryError::ManifestDamaged {
                        reason,
                        entries_kept: entries.len(),
                    }
                    .into());
                }
                RecoveryMode::Salvage => {
                    report.manifest_bytes_truncated += len - walk.valid_len;
                    manifest_dirty = true;
                }
            },
            Stop::Torn => {
                // Crash-shaped tail: truncate in both modes.
                report.manifest_bytes_truncated += len - walk.valid_len;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&manifest_path)
                    .map_err(|e| {
                        DiskError::io("opening manifest for truncate", &manifest_path, e)
                    })?;
                f.set_len(walk.valid_len)
                    .map_err(|e| DiskError::io("truncating manifest", &manifest_path, e))?;
                f.sync_all()
                    .map_err(|e| DiskError::io("fsyncing manifest", &manifest_path, e))?;
            }
        }

        // Validate committed segments against their entries.
        let mut kept = Vec::with_capacity(entries.len());
        for entry in entries.drain(..) {
            let path = dir.join(entry.file_name());
            match mode {
                RecoveryMode::Strict => {
                    let meta = fs::metadata(&path)
                        .map_err(|e| DiskError::io("stating committed segment", &path, e))?;
                    entry.check_file_len(meta.len())?;
                    kept.push(entry);
                }
                RecoveryMode::Salvage => match Self::salvage_segment(&path, entry, &mut report)? {
                    Some(repaired) => {
                        if repaired != entry {
                            manifest_dirty = true;
                        }
                        kept.push(repaired);
                    }
                    None => manifest_dirty = true,
                },
            }
        }

        // Delete uncommitted (orphan) segment files.
        let live: BTreeSet<u64> = kept.iter().map(|e| e.seq).collect();
        let mut max_seq_seen = kept.iter().map(|e| e.seq + 1).max().unwrap_or(0);
        let listing =
            fs::read_dir(&dir).map_err(|e| DiskError::io("listing directory", &dir, e))?;
        for item in listing {
            let item = item.map_err(|e| DiskError::io("listing directory", &dir, e))?;
            let name = item.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(seq) = parse_segment_file_name(name) else {
                continue;
            };
            if !live.contains(&seq) {
                let path = dir.join(name);
                fs::remove_file(&path)
                    .map_err(|e| DiskError::io("removing orphan segment", &path, e))?;
                report.orphan_segments_removed += 1;
                max_seq_seen = max_seq_seen.max(seq + 1);
            }
        }
        if report.orphan_segments_removed > 0 {
            fsync_dir(&dir)?;
        }

        if manifest_dirty {
            Self::rewrite_manifest(&dir, &kept)?;
        }

        report.manifest_entries_kept = kept.len();
        if telemetry.counters_on() {
            let registry = telemetry.registry();
            let truncations = u64::from(report.manifest_bytes_truncated > 0)
                + report.orphan_segments_removed as u64
                + report.segments_salvaged as u64;
            registry
                .counter(names::DISK_RECOVERY_TRUNCATIONS)
                .add(truncations);
            registry
                .gauge(names::DISK_MANIFEST_ENTRIES)
                .set(kept.len() as f64);
            registry
                .gauge(names::DISK_OPEN_SECONDS)
                .set(started.elapsed().as_secs_f64());
        }

        Ok(DiskStore {
            dir,
            entries: kept,
            next_seq: max_seq_seen,
            recovery: report,
            telemetry: telemetry.clone(),
        })
    }

    /// Re-validates one committed segment in salvage mode, streaming it
    /// through the one frame reader. Returns the (possibly truncated)
    /// entry, or `None` when nothing of the segment survives.
    fn salvage_segment(
        path: &Path,
        entry: ManifestEntry,
        report: &mut RecoveryReport,
    ) -> DiskResult<Option<ManifestEntry>> {
        let reading = |e| DiskError::io("reading committed segment", path, e);
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // A committed segment vanished entirely: drop the entry.
                report.records_dropped += entry.records;
                report.segments_salvaged += 1;
                return Ok(None);
            }
            Err(e) => return Err(reading(e)),
        };
        let len = file.metadata().map_err(reading)?.len();
        let (walk, bounds) = match entry.kind {
            SegmentKind::EScenario => valid_prefix::<EScenario>(file, len),
            SegmentKind::VScenario => valid_prefix::<VScenario>(file, len),
        }
        .map_err(reading)?;

        if walk.frames == 0 {
            // An unusable header, or no frame worth keeping behind it.
            report.records_dropped += entry.records;
            report.segments_salvaged += 1;
            fs::remove_file(path)
                .map_err(|e| DiskError::io("removing unsalvageable segment", path, e))?;
            return Ok(None);
        }

        let intact = walk.valid_len == len
            && walk.valid_len == entry.file_len
            && walk.frames == entry.records;
        if intact {
            return Ok(Some(entry));
        }

        report.segments_salvaged += 1;
        report.records_dropped += entry.records.saturating_sub(walk.frames);
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| DiskError::io("opening segment for truncate", path, e))?;
        f.set_len(walk.valid_len)
            .map_err(|e| DiskError::io("truncating segment", path, e))?;
        f.sync_all()
            .map_err(|e| DiskError::io("fsyncing segment", path, e))?;
        Ok(Some(ManifestEntry {
            records: walk.frames,
            bounds,
            file_len: walk.valid_len,
            ..entry
        }))
    }

    /// Atomically replaces the manifest with `entries` (salvage only):
    /// write a sibling temp file, fsync, rename over, fsync the dir.
    fn rewrite_manifest(dir: &Path, entries: &[ManifestEntry]) -> DiskResult<()> {
        let tmp = dir.join("MANIFEST.tmp");
        let mut bytes = manifest::manifest_header();
        for entry in entries {
            bytes.extend_from_slice(&manifest::encode_entry_frame(entry));
        }
        write_durable(&tmp, &bytes)?;
        let final_path = dir.join(MANIFEST_FILE);
        fs::rename(&tmp, &final_path)
            .map_err(|e| DiskError::io("renaming rewritten manifest", &final_path, e))?;
        fsync_dir(dir)
    }

    /// Directs disk telemetry to `telemetry` from now on.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Live manifest entries, in commit order.
    #[must_use]
    pub fn segments(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Total committed records of `kind`.
    #[must_use]
    pub fn record_count(&self, kind: SegmentKind) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.records)
            .sum()
    }

    /// What the open repaired.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Durably appends one batch of E- and/or V-Scenarios, each as one
    /// new immutable segment, committing both with one manifest write.
    ///
    /// Empty slices are skipped; appending two empty batches is a
    /// no-op. Records with the same `(cell, time)` as earlier ones
    /// supersede them at load time (manifest order, later wins).
    ///
    /// # Errors
    ///
    /// [`DiskError::Io`] if any write or fsync fails; the corpus stays
    /// consistent (an interrupted append is healed by the next open).
    pub fn append(
        &mut self,
        e_batch: &[EScenario],
        v_batch: &[VScenario],
    ) -> DiskResult<AppendReceipt> {
        let receipt = AppendReceipt {
            e_segment: self.write_segment(e_batch)?,
            v_segment: self.write_segment(v_batch)?,
        };
        let entries: Vec<ManifestEntry> = [receipt.e_segment, receipt.v_segment]
            .into_iter()
            .flatten()
            .collect();
        self.commit_sealed(&entries)?;
        Ok(receipt)
    }

    /// Streams `batch` into one new segment file and fsyncs it; the
    /// returned entry is not committed yet. `None` for an empty batch.
    fn write_segment<R: Record>(&mut self, batch: &[R]) -> DiskResult<Option<ManifestEntry>> {
        if batch.is_empty() {
            return Ok(None);
        }
        let mut segment = self.new_segment()?;
        segment.push(batch)?;
        segment.seal().map(Some)
    }

    /// Starts a segment file under the next unused sequence number.
    /// The number is spent whatever becomes of the file: if the segment
    /// is never committed, recovery deletes the orphan without reusing
    /// the sequence (see `orphan_segment_is_removed_on_open`).
    pub(crate) fn new_segment<R: Record>(&mut self) -> DiskResult<SegmentFile<R>> {
        let seq = self.next_seq;
        self.next_seq += 1;
        SegmentFile::create(&self.dir, seq)
    }

    /// Commits sealed (written and fsync'd) segments: one directory
    /// fsync makes their names durable, then one manifest append +
    /// fsync commits them all. A crash before the manifest write leaves
    /// every one of them an orphan; a crash inside it leaves a torn
    /// manifest tail, which the next open truncates — keeping a prefix
    /// of `entries` and orphaning the rest.
    pub(crate) fn commit_sealed(&mut self, entries: &[ManifestEntry]) -> DiskResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        fsync_dir(&self.dir)?;
        let manifest_path = self.dir.join(MANIFEST_FILE);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&manifest_path)
            .map_err(|e| DiskError::io("opening manifest for append", &manifest_path, e))?;
        let mut bytes = Vec::new();
        for entry in entries {
            bytes.extend_from_slice(&manifest::encode_entry_frame(entry));
        }
        f.write_all(&bytes)
            .map_err(|e| DiskError::io("appending manifest entries", &manifest_path, e))?;
        f.sync_all()
            .map_err(|e| DiskError::io("fsyncing manifest", &manifest_path, e))?;
        self.entries.extend_from_slice(entries);
        if self.telemetry.counters_on() {
            let registry = self.telemetry.registry();
            registry
                .counter(names::DISK_SEGMENTS_WRITTEN)
                .add(entries.len() as u64);
            registry
                .gauge(names::DISK_MANIFEST_ENTRIES)
                .set(self.entries.len() as f64);
        }
        Ok(())
    }

    /// The committed segments of `kind`, in commit order, as their
    /// readers see them.
    fn committed(&self, kind: SegmentKind) -> impl Iterator<Item = CommittedSegment> + '_ {
        (self.entries.iter())
            .filter(move |e| e.kind == kind)
            .map(|e| CommittedSegment::new(&self.dir, *e, &self.telemetry))
    }

    /// Loads every committed E-Scenario into an in-memory
    /// [`EScenarioStore`], later segments superseding earlier ones on
    /// `(cell, time)` collisions. The E side is loaded eagerly — it *is*
    /// the index the matcher searches — one segment at a time through
    /// the verifying walk, each record decoded as its frame passes.
    ///
    /// # Errors
    ///
    /// [`DiskError`] on read failures or any frame/record that fails
    /// its checksum or codec.
    pub fn load_estore(&self) -> DiskResult<EScenarioStore> {
        let mut span = self.telemetry.span("disk_load_estore", "disk");
        let mut scenarios = Vec::new();
        for segment in self.committed(SegmentKind::EScenario) {
            segment.walk(|_, payload| {
                scenarios.push(codec::decode_escenario(payload)?);
                Ok(())
            })?;
        }
        if self.telemetry.counters_on() {
            let registry = self.telemetry.registry();
            registry
                .counter(names::DISK_RECORDS_READ)
                .add(scenarios.len() as u64);
        }
        span.arg("records", serde_json::Value::Int(scenarios.len() as i128));
        Ok(EScenarioStore::from_scenarios(scenarios))
    }

    /// Indexes every committed V-Scenario into a [`VideoStore`] charging
    /// costs against `cost` — **without decoding any**. The same
    /// verifying walk [`load_estore`](Self::load_estore) makes runs over
    /// every V segment, but a frame that passes is only *located*: its
    /// scenario id is read off the head of the payload and recorded with
    /// the segment, byte offset and length, later commits superseding
    /// earlier ones. The store reads, re-verifies and decodes a frame
    /// when a match extracts that scenario and nobody holds it yet (see
    /// [`VideoStore`]'s "What is resident when"), so what a match holds
    /// in memory is what it selected, not the corpus, and only while it
    /// runs.
    ///
    /// # Errors
    ///
    /// [`DiskError`] on read failures or any frame that fails its
    /// checksum or is too short to name its scenario. A payload the
    /// record codec rejects behind a valid checksum surfaces when it is
    /// extracted, as [`ev_core::Error::FootageUnavailable`].
    pub fn load_video(&self, cost: CostModel) -> DiskResult<VideoStore> {
        let segments = self.committed(SegmentKind::VScenario).count();
        let workers = if segments > 1 {
            segment::host_workers().min(segments)
        } else {
            1
        };
        self.load_video_on(workers, cost)
    }

    /// [`load_video`](Self::load_video) with the verifying walks of the
    /// V segments spread over `workers` threads. Every segment is walked
    /// into a list of its own and the lists are read back in commit
    /// order, so supersession is manifest order and the error reported
    /// is that of the earliest damaged segment — the store and the error
    /// are the sequential walk's at any width.
    fn load_video_on(&self, workers: usize, cost: CostModel) -> DiskResult<VideoStore> {
        let segments: Vec<_> = (self.committed(SegmentKind::VScenario))
            .map(Arc::new)
            .collect();
        let mut span = self.telemetry.span("disk_load_video", "disk");
        span.arg("segments", serde_json::Value::Int(segments.len() as i128));
        span.arg("workers", serde_json::Value::Int(workers as i128));
        let mut located = Vec::new();
        for walked in walk_side_by_side(&segments, workers) {
            located.extend(walked?);
        }
        span.arg("records", serde_json::Value::Int(located.len() as i128));
        Ok(VideoStore::located(located, cost))
    }
}

/// The valid prefix of a segment of `R`s of `len` bytes, ending at the
/// first frame that is torn, damaged or a payload `R`'s codec rejects
/// (everything behind it is untrustworthy), and its records' bounds.
fn valid_prefix<R: Record>(file: File, len: u64) -> std::io::Result<(Walk, SegmentBounds)> {
    let mut bounds = SegmentBounds::empty();
    let walk = read_frames(file, len, FramedFile::Segment(R::KIND), |_, payload| {
        let (time, cell) = R::decode(payload)?.time_cell();
        bounds.absorb(time, cell);
        Ok(())
    })?;
    Ok((walk, bounds))
}

/// Where the V-Scenarios of one segment live, in file order.
type Located = Vec<(ScenarioId, FootageLocation)>;

/// The verifying walk over one V segment, recording each frame that
/// passes under the scenario id read off the head of its payload.
fn locate(segment: &Arc<CommittedSegment>) -> DiskResult<Located> {
    let mut located = Vec::new();
    segment.walk(|offset, payload| {
        let at = FootageLocation {
            source: Arc::clone(segment) as Arc<dyn FootageSource>,
            offset,
            len: u32::try_from(payload.len()).expect("frames are at most 2^28 bytes"),
        };
        located.push((codec::record_id(payload)?, at));
        Ok(())
    })?;
    Ok(located)
}

/// [`locate`] over every segment by `workers` walkers, each taking the
/// next unwalked segment: this thread and `workers - 1` scoped ones —
/// fewer if the OS refuses a thread, the walkers there are sharing the
/// same work. The results come back in the order of `segments`; a
/// panicking walk panics the caller.
fn walk_side_by_side(
    segments: &[Arc<CommittedSegment>],
    workers: usize,
) -> Vec<DiskResult<Located>> {
    let next = AtomicUsize::new(0);
    let walk = || {
        let mut mine = Vec::new();
        // `Relaxed`: the counter hands out indices and publishes
        // nothing; results travel through `join`.
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(segment) = segments.get(i) else {
                return mine;
            };
            mine.push((i, locate(segment)));
        }
    };
    let mut walked: Vec<_> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers)
            .map_while(|_| segment::spawn_worker(scope, walk).ok())
            .collect();
        let mut walked = walk();
        for other in others {
            walked.extend(
                other
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        walked
    });
    walked.sort_by_key(|&(i, _)| i);
    walked.into_iter().map(|(_, located)| located).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::ids::Eid;
    use ev_core::region::CellId;
    use ev_core::scenario::ZoneAttr;
    use ev_core::time::Timestamp;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ev-disk-store-{tag}-{}-{n}", std::process::id()))
    }

    fn e(cell: usize, time: u64, eid: u64) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        s.insert(Eid::from_u64(eid), ZoneAttr::Inclusive);
        s
    }

    #[test]
    fn create_append_reopen_load() {
        let dir = temp_dir("roundtrip");
        let mut store = DiskStore::create(&dir).unwrap();
        store.append(&[e(0, 1, 10), e(1, 2, 11)], &[]).unwrap();
        store.append(&[e(2, 3, 12)], &[]).unwrap();

        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.segments().len(), 2);
        assert!(!reopened.recovery().repaired_anything());
        let estore = reopened.load_estore().unwrap();
        assert_eq!(estore.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_segments_supersede_earlier_on_collision() {
        let dir = temp_dir("supersede");
        let mut store = DiskStore::create(&dir).unwrap();
        store.append(&[e(0, 1, 10)], &[]).unwrap();
        store.append(&[e(0, 1, 99)], &[]).unwrap(); // same (cell, time)
        let estore = DiskStore::open(&dir).unwrap().load_estore().unwrap();
        assert_eq!(estore.len(), 1);
        let only = estore.iter().next().unwrap();
        assert!(only.contains(Eid::from_u64(99)));
        assert!(!only.contains(Eid::from_u64(10)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_segment_is_removed_on_open() {
        let dir = temp_dir("orphan");
        let mut store = DiskStore::create(&dir).unwrap();
        store.append(&[e(0, 1, 10)], &[]).unwrap();
        // Simulate a crash after the segment write but before the
        // manifest append: a fully written, uncommitted segment.
        let orphan = segment::encode_e_segment(&[e(5, 5, 5)]);
        fs::write(dir.join("seg-000007-e.seg"), &orphan.bytes).unwrap();

        let reopened = DiskStore::open(&dir).unwrap();
        assert_eq!(reopened.recovery().orphan_segments_removed, 1);
        assert_eq!(reopened.segments().len(), 1);
        assert!(!dir.join("seg-000007-e.seg").exists());
        // The orphan's sequence number is never reused for a live file.
        assert_eq!(reopened.next_seq, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `seg-é1.seg` is not a segment name, so it is not an orphan either:
    /// both modes open past it and leave it where it is. (The `-e` / `-v`
    /// suffix was once cut two bytes from the end, inside the `é`.)
    #[test]
    fn a_non_ascii_file_name_is_left_alone() {
        let dir = temp_dir("non-ascii");
        let mut store = DiskStore::create(&dir).unwrap();
        store.append(&[e(0, 1, 10)], &[]).unwrap();
        let stray = dir.join("seg-é1.seg");
        fs::write(&stray, b"not a segment").unwrap();
        for mode in [RecoveryMode::Strict, RecoveryMode::Salvage] {
            let reopened = DiskStore::open_with(&dir, mode, Telemetry::disabled()).unwrap();
            assert!(!reopened.recovery().repaired_anything(), "{mode:?}");
            assert_eq!(reopened.load_estore().unwrap().len(), 1, "{mode:?}");
            assert_eq!(fs::read(&stray).unwrap(), b"not a segment", "{mode:?}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A committed segment whose header names the other kind cannot be
    /// read as the segment its entry commits: salvage drops it like any
    /// unusable header, and the corpus reopens strict. (Records without
    /// members decode under either codec; salvage once kept them under
    /// the header's kind, committing a file name that does not exist.)
    #[test]
    fn salvage_drops_a_segment_of_the_other_kind() {
        let dir = temp_dir("other-kind");
        let mut store = DiskStore::create(&dir).unwrap();
        let empty = |cell| EScenario::new(CellId::new(cell), Timestamp::new(1));
        store.append(&[empty(0), empty(1)], &[]).unwrap();
        store.append(&[e(2, 1, 12)], &[]).unwrap();
        let first = dir.join(store.segments()[0].file_name());
        let mut bytes = fs::read(&first).unwrap();
        bytes[6] = crate::format::KIND_V;
        fs::write(&first, bytes).unwrap();

        let err = DiskStore::open(&dir).unwrap().load_estore().unwrap_err();
        assert!(err
            .to_string()
            .contains("expected a EScenario segment, found VScenario"));
        let salvaged =
            DiskStore::open_with(&dir, RecoveryMode::Salvage, Telemetry::disabled()).unwrap();
        let report = salvaged.recovery();
        assert_eq!((report.segments_salvaged, report.records_dropped), (1, 2));
        assert!(!first.exists());
        let reopened = DiskStore::open(&dir).unwrap();
        assert!(!reopened.recovery().repaired_anything());
        assert_eq!(reopened.load_estore().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_create_is_refused() {
        let dir = temp_dir("recreate");
        DiskStore::create(&dir).unwrap();
        assert!(DiskStore::create(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The V-Scenario at `(cell, time)`: `detections` detections of
    /// `dim` components, the first seen as `vid`.
    fn v(cell: usize, time: u64, vid: u64, detections: u64, dim: usize) -> VScenario {
        use ev_core::feature::FeatureVector;
        use ev_core::scenario::Detection;
        let feature = FeatureVector::new(vec![0.25; dim]).unwrap();
        let mut s = VScenario::new(CellId::new(cell), Timestamp::new(time));
        for d in 0..detections {
            s.push(Detection {
                vid: ev_core::Vid::new(vid + d),
                feature: feature.clone(),
            });
        }
        s
    }

    /// `store`'s V side loaded at width `workers`.
    fn load_on(store: &DiskStore, workers: usize) -> DiskResult<VideoStore> {
        store.load_video_on(workers, CostModel::free())
    }

    /// A corpus of four V segments of five small scenarios each.
    fn four_v_segments(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        let mut store = DiskStore::create(&dir).unwrap();
        for batch in 0..4u64 {
            let scenarios: Vec<_> = (0..5).map(|i| v(i, batch, 10 * batch, 3, 4)).collect();
            store.append(&[], &scenarios).unwrap();
        }
        dir
    }

    /// `(id, offset, len)` of every V frame of `store`, per segment in
    /// commit order, as `workers` walkers find them (`1`: the
    /// sequential walk).
    fn index_on(store: &DiskStore, workers: usize) -> Vec<Vec<(ScenarioId, u64, u32)>> {
        let segments: Vec<_> = (store.committed(SegmentKind::VScenario))
            .map(Arc::new)
            .collect();
        let walked = match workers {
            1 => segments.iter().map(locate).collect(),
            _ => walk_side_by_side(&segments, workers),
        };
        let flat = |located: DiskResult<Located>| {
            let located = located.unwrap();
            (located.iter())
                .map(|(id, at)| (*id, at.offset, at.len))
                .collect()
        };
        walked.into_iter().map(flat).collect()
    }

    #[test]
    fn segments_walked_side_by_side_load_the_sequential_store() {
        let dir = four_v_segments("wide");
        let store = DiskStore::open(&dir).unwrap();
        let want = index_on(&store, 1);
        assert_eq!(want.iter().map(Vec::len).sum::<usize>(), 20);
        for workers in [2, 3, 8] {
            assert_eq!(index_on(&store, workers), want, "{workers} workers");
            assert_eq!(load_on(&store, workers).unwrap().len(), 20);
        }
        // A host out of threads: the walkers there are walk everything.
        for started in [0, 1] {
            segment::WORKERS_SPAWNED.set(0);
            segment::REFUSE_SPAWNS_FROM.set(Some(started));
            let walked = index_on(&store, 3);
            segment::REFUSE_SPAWNS_FROM.set(None);
            assert_eq!(segment::WORKERS_SPAWNED.get(), started);
            assert_eq!(walked, want, "{started} of 2 threads started");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_reads_the_same_at_any_width_and_the_earliest_segment_wins() {
        let dir = four_v_segments("damage");
        let store = DiskStore::open(&dir).unwrap();
        let files: Vec<PathBuf> = (store.segments().iter())
            .map(|e| dir.join(e.file_name()))
            .collect();
        let pristine: Vec<Vec<u8>> = files.iter().map(|f| fs::read(f).unwrap()).collect();
        let flipped = |k: usize| {
            let mut bytes = pristine[k].clone();
            bytes[pristine[k].len() / 2] ^= 0x40;
            bytes
        };
        let cut = |k: usize| pristine[k][..pristine[k].len() - 1].to_vec();

        // (what is wrong with which segments, what the error must say)
        type Damage = Vec<(usize, Vec<u8>)>;
        let cases: Vec<(Damage, String)> = vec![
            (vec![(0, flipped(0))], "checksum".into()),
            (vec![(2, flipped(2))], "checksum".into()),
            (vec![(3, cut(3))], store.segments()[3].file_name()),
            (
                vec![(1, cut(1)), (2, flipped(2))],
                store.segments()[1].file_name(),
            ),
            (vec![(1, flipped(1)), (3, cut(3))], "checksum".into()),
            (
                vec![(2, cut(2)), (0, cut(0))],
                store.segments()[0].file_name(),
            ),
        ];
        for (damage, says) in cases {
            for (k, bytes) in &damage {
                fs::write(&files[*k], bytes).unwrap();
            }
            let sequential = load_on(&store, 1).unwrap_err().to_string();
            assert!(sequential.contains(&says), "{sequential:?} names {says:?}");
            for workers in [2, 3, 8] {
                let wide = load_on(&store, workers).unwrap_err().to_string();
                assert_eq!(wide, sequential, "{workers} workers");
            }
            for (k, _) in &damage {
                fs::write(&files[*k], &pristine[*k]).unwrap();
            }
        }
        assert_eq!(load_on(&store, 3).unwrap().len(), 20, "healed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_v_segments_supersede_earlier_at_any_width() {
        let dir = temp_dir("supersede-v");
        let mut store = DiskStore::create(&dir).unwrap();
        store
            .append(&[], &[v(0, 1, 10, 1, 4), v(1, 1, 11, 1, 4)])
            .unwrap();
        store.append(&[], &[v(2, 1, 12, 1, 4)]).unwrap();
        store.append(&[], &[v(0, 1, 99, 1, 4)]).unwrap(); // same (cell, time)
        let store = DiskStore::open(&dir).unwrap();
        let id = v(0, 1, 0, 0, 4).id();
        let loads = [1, 2, 3].map(|workers| load_on(&store, workers).unwrap());
        for video in loads
            .iter()
            .chain([&store.load_video(CostModel::free()).unwrap()])
        {
            assert_eq!(video.len(), 3);
            let seen = video.extract(id).expect("footage");
            assert!(seen.contains(ev_core::Vid::new(99)));
            assert!(!seen.contains(ev_core::Vid::new(10)));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Batches wide enough that `append` frames them on every core it
    /// has, three V segments so `load_video` walks them side by side:
    /// the disk counters are what the inline paths count.
    #[test]
    fn counters_read_the_same_after_a_parallel_append_and_open() {
        use ev_telemetry::TelemetryLevel;
        let dir = temp_dir("counters");
        let written = Telemetry::new(TelemetryLevel::Counters);
        let mut store = DiskStore::create(&dir).unwrap().with_telemetry(&written);
        for batch in 0..3u64 {
            let e_batch: Vec<_> = (0..7)
                .map(|i| e(i, batch, 100 * batch + i as u64))
                .collect();
            let v_batch: Vec<_> = (0..70).map(|i| v(i, batch, 0, 64, 128)).collect();
            let receipt = store.append(&e_batch, &v_batch).unwrap();
            assert!(
                receipt.v_segment.unwrap().file_len > 4 << 20,
                "over the grain"
            );
        }
        let counter = |tel: &Telemetry, name| tel.registry().counter_value(name).unwrap_or(0);
        assert_eq!(counter(&written, names::DISK_SEGMENTS_WRITTEN), 6);

        let len_of = |kind| -> u64 {
            let of_kind = store.segments().iter().filter(|e| e.kind == kind);
            of_kind.map(|e| e.file_len).sum()
        };
        let (e_bytes, v_bytes) = (
            len_of(SegmentKind::EScenario),
            len_of(SegmentKind::VScenario),
        );
        let opened = |load: &dyn Fn(&DiskStore) -> VideoStore| {
            let tel = Telemetry::new(TelemetryLevel::Counters);
            let store = DiskStore::open_with(&dir, RecoveryMode::Strict, &tel).unwrap();
            assert_eq!(store.load_estore().unwrap().len(), 21);
            let video = load(&store);
            assert!(video.extract(v(3, 1, 0, 0, 1).id()).is_some());
            [
                counter(&tel, names::DISK_SEGMENTS_OPENED),
                counter(&tel, names::DISK_BYTES_READ),
                counter(&tel, names::DISK_RECORDS_READ),
            ]
        };
        let one_frame = (20 + 64 * (12 + 128 * 8) + 4) as u64;
        let want = [6, e_bytes + v_bytes + one_frame, 21 + 1];
        assert_eq!(opened(&|s| s.load_video(CostModel::free()).unwrap()), want);
        assert_eq!(opened(&|s| load_on(s, 1).unwrap()), want, "the inline walk");
        assert_eq!(opened(&|s| load_on(s, 3).unwrap()), want, "three walkers");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_load_span_says_how_wide_it_ran() {
        use ev_telemetry::TelemetryLevel;
        let dir = four_v_segments("span");
        let tel = Telemetry::new(TelemetryLevel::Full);
        let store = DiskStore::open_with(&dir, RecoveryMode::Strict, &tel).unwrap();
        load_on(&store, 3).unwrap();
        let events = tel.tracer().events();
        let span = (events.iter())
            .find(|event| event.name == "disk_load_video")
            .expect("the load is a span");
        let arg = |key: &str| {
            let found = span.args.iter().find(|(k, _)| k == key);
            found.map(|(_, value)| value.clone())
        };
        assert_eq!(arg("segments"), Some(serde_json::Value::Int(4)));
        assert_eq!(arg("workers"), Some(serde_json::Value::Int(3)));
        assert_eq!(arg("records"), Some(serde_json::Value::Int(20)));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `dense-query`'s V side — 2 400 scenarios of 64 detections of 128
    /// components, 160 MB in three batches: the files `append` writes
    /// are the sequential encoder's, and the index the side-by-side
    /// walk builds is the sequential walk's. Run in release:
    /// `cargo test --release -p ev-disk -- --ignored`.
    #[test]
    #[ignore = "benchmark scale; run in release (CI step \"Generator differential\")"]
    fn a_dense_query_corpus_is_the_sequential_bytes_and_the_sequential_index() {
        let dir = temp_dir("dense");
        let mut store = DiskStore::create(&dir).unwrap();
        for batch in 0..3usize {
            let scenarios: Vec<_> = (0..800)
                .map(|i| {
                    v(
                        i % 16,
                        (batch * 800 + i) as u64 / 16 * 10,
                        i as u64,
                        64,
                        128,
                    )
                })
                .collect();
            let entry = store.append(&[], &scenarios).unwrap().v_segment.unwrap();
            let sequential = segment::encode_v_segment(&scenarios);
            assert_eq!(entry.records, sequential.records);
            assert_eq!(entry.bounds, sequential.bounds);
            let file = fs::read(dir.join(entry.file_name())).unwrap();
            assert!(
                file == sequential.bytes,
                "batch {batch}: the file is the encoder's"
            );
        }
        let store = DiskStore::open(&dir).unwrap();
        let want = index_on(&store, 1);
        assert_eq!(want.iter().map(Vec::len).sum::<usize>(), 2400);
        for workers in [2, 3, 7] {
            assert_eq!(index_on(&store, workers), want, "{workers} workers");
        }
        assert_eq!(store.load_video(CostModel::free()).unwrap().len(), 2400);
        fs::remove_dir_all(&dir).unwrap();
    }
}
