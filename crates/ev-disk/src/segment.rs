//! Immutable segment files: a header followed by framed, checksummed
//! records.
//!
//! A segment is written once, fsync'd, and never modified (recovery may
//! *truncate* one in salvage mode, nothing else). Layout:
//!
//! ```text
//! magic   [4]  "EVSG"
//! version u16  1
//! kind    u8   0 = E-Scenario records, 1 = V-Scenario records
//! reserved u8  0
//! frames…      len u32 | payload | crc32(payload) u32, one per record
//! ```
//!
//! Record payloads use the [`codec`] layouts. Segments
//! are written by one streaming writer, `SegmentWriter`, that frames a
//! batch in runs of consecutive records — on the caller for a small
//! batch, on every core the process may use for a large one, the same
//! bytes either way, through a bounded set of buffers — and also
//! computes the segment's cell/time bounds, which the manifest stores. A
//! committed segment is read two ways, both through `CommittedSegment`:
//! the verifying load walk over the whole file (which
//! `DiskStore::load_video` runs over several segments side by side), and
//! the read of one V frame that walk located.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use crate::codec::{self, Record};
use crate::error::{DiskError, DiskResult};
use crate::format::{FORMAT_VERSION, FRAME_OVERHEAD, HEADER_LEN, KIND_E, KIND_V, SEGMENT_MAGIC};
use crate::frame::{
    crc_matches, declared_payload_len, next_frame, write_frame, FrameEvent, CRC_MISMATCH,
};
use crate::manifest::ManifestEntry;
use ev_core::scenario::{EScenario, ScenarioId, VScenario};
use ev_store::FootageSource;
use ev_telemetry::{names, Telemetry};

/// Which record codec a segment holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// E-Scenario records.
    EScenario,
    /// V-Scenario records.
    VScenario,
}

impl SegmentKind {
    /// The on-disk kind byte.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            SegmentKind::EScenario => KIND_E,
            SegmentKind::VScenario => KIND_V,
        }
    }

    /// Parses the on-disk kind byte.
    ///
    /// # Errors
    ///
    /// [`DiskError::Corrupt`] on an unknown byte.
    pub fn from_byte(b: u8) -> DiskResult<Self> {
        match b {
            KIND_E => Ok(SegmentKind::EScenario),
            KIND_V => Ok(SegmentKind::VScenario),
            other => Err(DiskError::corrupt(format!(
                "unknown segment kind byte {other:#04x}"
            ))),
        }
    }

    /// Single-letter tag used in segment file names (`e` / `v`).
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            SegmentKind::EScenario => 'e',
            SegmentKind::VScenario => 'v',
        }
    }
}

/// Spatiotemporal bounds of the records inside one segment, tracked by
/// the writer and persisted in the manifest (format v1; no load reads
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentBounds {
    /// Smallest record timestamp (tick).
    pub min_time: u64,
    /// Largest record timestamp (tick).
    pub max_time: u64,
    /// Smallest record cell index.
    pub min_cell: u64,
    /// Largest record cell index.
    pub max_cell: u64,
}

impl SegmentBounds {
    pub(crate) fn empty() -> Self {
        SegmentBounds {
            min_time: u64::MAX,
            max_time: 0,
            min_cell: u64::MAX,
            max_cell: 0,
        }
    }

    pub(crate) fn absorb(&mut self, time: u64, cell: u64) {
        self.min_time = self.min_time.min(time);
        self.max_time = self.max_time.max(time);
        self.min_cell = self.min_cell.min(cell);
        self.max_cell = self.max_cell.max(cell);
    }
}

/// File name of segment `seq` of `kind` (`seg-000042-e.seg`).
pub(crate) fn file_name(seq: u64, kind: SegmentKind) -> String {
    format!("seg-{seq:06}-{}.seg", kind.tag())
}

/// Bytes the streaming writer gathers before handing them to its sink.
/// Large enough that a segment leaves in few writes, small enough that
/// writing one never holds more than a mebibyte of it in memory.
///
/// Public (here, [`RUN_BYTES`] and [`READ_CHUNK`]) only so that the
/// allocation budgets of `tests/codec_properties.rs` are stated in the
/// sizes the writer and the walk really use; nothing can set them.
#[doc(hidden)]
pub const WRITE_CHUNK: usize = 1 << 20;

/// Framed bytes in one **run**: the stretch of consecutive records that
/// is framed in one go, and the unit a framing worker hands to the
/// writer. Small runs pay a channel hand-over each, large ones hold
/// more of the segment in memory and leave the writer idle at the
/// start: three alternating rounds on the 2-core benchmark host,
/// persisting a `dense-query`-shaped corpus (160 MB in three batches,
/// 66 KiB frames; 0.25 s before), read 0.184 s at 64 KiB, 0.175 at
/// 128 KiB, 0.163 at 256 KiB, 0.159 at 512 KiB, 0.168 at 1 MiB.
#[doc(hidden)]
pub const RUN_BYTES: usize = 256 << 10;

/// A batch framing to fewer bytes than this is framed on the caller,
/// whatever the host. Framing runs at about a gigabyte a second, so a
/// thread spawn (tens of microseconds, twice) is noise against 4 MiB and
/// most of the cost of a small batch: with no grain, `serve-mixed`'s
/// 10-tick ingest windows (≈ 0.3 MB of V frames) went from 0.35 to
/// 0.80 ms at the median. Every `DiskStore::append` batch of the
/// benchmark corpora is above it, every served window far below.
const PARALLEL_GRAIN: usize = 4 << 20;

/// Run buffers each framing worker cycles through: one being framed
/// while the other waits for, or is in, the writer's `write_all`.
const BUFFERS_PER_WORKER: usize = 2;

/// Threads the process may run on: the width of every parallel pass over
/// the V bytes. There is no knob; pin the process (`taskset -c 0`) for
/// the inline paths.
pub(crate) fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Starts `work` on a thread of `scope` — every framing and walking
/// worker of this crate starts here. `Builder`, not `scope.spawn`: a
/// thread the OS refuses is an error for the caller to work around (it
/// does the work itself), not a panic half-way through a segment.
pub(crate) fn spawn_worker<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    work: impl FnOnce() -> T + Send + 'scope,
) -> io::Result<std::thread::ScopedJoinHandle<'scope, T>> {
    #[cfg(test)]
    {
        if REFUSE_SPAWNS_FROM
            .get()
            .is_some_and(|n| WORKERS_SPAWNED.get() >= n)
        {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        WORKERS_SPAWNED.set(WORKERS_SPAWNED.get() + 1);
    }
    std::thread::Builder::new().spawn_scoped(scope, work)
}

#[cfg(test)]
thread_local! {
    /// Workers started by pushes and loads made on this thread.
    pub(crate) static WORKERS_SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Fault seam: the OS cannot be made to refuse a thread on demand,
    /// so a test sets the count of [`WORKERS_SPAWNED`] from which
    /// [`spawn_worker`], called on the test's own thread, is refused.
    pub(crate) static REFUSE_SPAWNS_FROM: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Appends the frames of `run` to `out` — the one framing body, run by
/// the caller on the inline path and by every worker on the parallel one.
fn frame_run<R: Record>(run: &[R], out: &mut Vec<u8>) {
    for record in run {
        write_frame(out, |out| record.encode_into(out));
    }
}

/// Cuts `batch` into consecutive runs of at most `run_bytes` framed
/// bytes each — a record that is larger on its own is a run of one —
/// and returns them with the framed length of the whole batch.
fn cut_runs<R: Record>(batch: &[R], run_bytes: usize) -> (Vec<&[R]>, usize) {
    let mut runs = Vec::new();
    let (mut start, mut in_run, mut framed) = (0, 0, 0);
    for (i, record) in batch.iter().enumerate() {
        let frame = record.encoded_len() + FRAME_OVERHEAD;
        if in_run + frame > run_bytes && start < i {
            runs.push(&batch[start..i]);
            (start, in_run) = (i, 0);
        }
        in_run += frame;
        framed += frame;
    }
    if start < batch.len() {
        runs.push(&batch[start..]);
    }
    (runs, framed)
}

/// The one segment-writing path: frames records of one kind and hands
/// the bytes to `sink` in file order, accumulating the record count,
/// bounds and byte length the manifest entry needs.
///
/// A batch is cut into runs of at most [`RUN_BYTES`] framed bytes (one
/// record, if a single record is larger). **Inline** — one worker, or a
/// batch under [`PARALLEL_GRAIN`] — the caller frames each run into the
/// write buffer and hands the buffer to the sink before a run that might
/// not fit in [`WRITE_CHUNK`]: at most one write chunk of the segment is
/// in memory. **In parallel**, scoped workers frame the runs (run `i` on
/// worker `i mod workers`) into [`BUFFERS_PER_WORKER`] recycled buffers
/// each, and the caller writes run 0, 1, 2, … straight to the sink as
/// they arrive, returning each buffer to the worker it came from: at
/// most `2 × workers` run buffers and the (empty) write chunk exist at
/// any point, whatever the size of the batch, and the bytes are the
/// inline path's because the order is the batch's and frames do not
/// depend on their neighbours.
#[derive(Debug)]
pub(crate) struct SegmentWriter<R, W> {
    sink: W,
    buf: Vec<u8>,
    flushed: u64,
    records: u64,
    bounds: SegmentBounds,
    _records: PhantomData<fn(&R)>,
}

impl<R: Record, W: Write> SegmentWriter<R, W> {
    /// A writer whose first bytes out are the segment header.
    pub(crate) fn new(sink: W) -> Self {
        // Reserved once: the inline path never outgrows a write chunk.
        let mut buf = Vec::with_capacity(WRITE_CHUNK);
        buf.extend_from_slice(&SEGMENT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.push(R::KIND.byte());
        buf.push(0);
        SegmentWriter {
            sink,
            buf,
            flushed: 0,
            records: 0,
            bounds: SegmentBounds::empty(),
            _records: PhantomData,
        }
    }

    /// Frames `batch` at the width of the host.
    pub(crate) fn push(&mut self, batch: &[R]) -> io::Result<()> {
        self.push_on(batch, None)
    }

    /// Frames `batch` on at most `workers` threads, `None` being as many
    /// as the host has — asked only for a batch over the grain: finding
    /// out how wide the host is costs a few file reads. The bytes do not
    /// depend on `workers`.
    pub(crate) fn push_on(&mut self, batch: &[R], workers: Option<usize>) -> io::Result<()> {
        for record in batch {
            let (time, cell) = record.time_cell();
            self.bounds.absorb(time, cell);
        }
        self.records += batch.len() as u64;
        let (runs, framed) = cut_runs(batch, RUN_BYTES);
        let workers = if framed < PARALLEL_GRAIN {
            1
        } else {
            workers.unwrap_or_else(host_workers).min(runs.len())
        };
        if workers > 1 {
            return self.write_framed_by(workers, &runs);
        }
        for run in runs {
            if self.buf.len() + RUN_BYTES > WRITE_CHUNK {
                self.flush()?;
            }
            frame_run(run, &mut self.buf);
        }
        Ok(())
    }

    /// The parallel path of [`push_on`](Self::push_on): `workers`
    /// scoped threads frame `runs`, this thread writes them in order.
    ///
    /// A worker that cannot get a buffer back, or cannot hand one over,
    /// stops: that only happens once this thread has given up (a failed
    /// write, or another worker's panic) and dropped its channel ends,
    /// so no failure leaves a thread waiting. Every worker is joined
    /// before this returns, and a worker's panic is re-raised here. A
    /// worker the OS refuses to start is done without: this thread
    /// frames that worker's runs itself, between the writes.
    fn write_framed_by(&mut self, workers: usize, runs: &[&[R]]) -> io::Result<()> {
        // What the inline path has buffered (the header, at least) goes
        // first; from here on runs go straight to the sink.
        self.flush()?;
        std::thread::scope(|scope| {
            let mut lanes = Vec::with_capacity(workers);
            for k in 0..workers {
                let (filled_tx, filled_rx) = mpsc::channel::<Vec<u8>>();
                let (spare_tx, spare_rx) = mpsc::channel::<Vec<u8>>();
                for _ in 0..BUFFERS_PER_WORKER {
                    let _ = spare_tx.send(Vec::with_capacity(RUN_BYTES));
                }
                let framer = spawn_worker(scope, move || {
                    for run in runs.iter().skip(k).step_by(workers) {
                        let Ok(mut buf) = spare_rx.recv() else { return };
                        buf.clear();
                        frame_run(run, &mut buf);
                        if filled_tx.send(buf).is_err() {
                            return;
                        }
                    }
                });
                // Refused: runs `k`, `k + 1`, … `mod workers` have no
                // lane and are framed below, by this thread.
                let Ok(framer) = framer else { break };
                lanes.push((filled_rx, spare_tx, framer));
            }

            let mut written = Ok(());
            for (i, run) in runs.iter().enumerate() {
                written = match lanes.get(i % workers) {
                    Some((filled, spare, _)) => {
                        // A closed channel with runs still owed: the
                        // framer panicked, and the join below says with
                        // what.
                        let Ok(buf) = filled.recv() else { break };
                        let sent = self.sink.write_all(&buf);
                        if sent.is_ok() {
                            self.flushed += buf.len() as u64;
                            let _ = spare.send(buf);
                        }
                        sent
                    }
                    None => {
                        frame_run(run, &mut self.buf);
                        self.flush()
                    }
                };
                if written.is_err() {
                    break;
                }
            }
            for (filled, spare, framer) in lanes {
                // Dropping this thread's ends of its channels releases a
                // framer still waiting for a buffer; then it is joined.
                drop((filled, spare));
                if let Err(panic) = framer.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            written
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf)?;
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Hands the remaining bytes to the sink and returns it with the
    /// manifest entry describing everything written, numbered `seq`.
    pub(crate) fn finish(mut self, seq: u64) -> io::Result<(W, ManifestEntry)> {
        self.flush()?;
        let entry = ManifestEntry {
            seq,
            kind: R::KIND,
            records: self.records,
            bounds: self.bounds,
            file_len: self.flushed,
        };
        Ok((self.sink, entry))
    }
}

/// A segment file being written: a [`SegmentWriter`] over a fresh file,
/// made durable and turned into its manifest entry by
/// [`seal`](SegmentFile::seal). Until that entry is committed the file
/// is an orphan that the next open removes.
#[derive(Debug)]
pub(crate) struct SegmentFile<R> {
    seq: u64,
    path: PathBuf,
    writer: SegmentWriter<R, File>,
}

impl<R: Record> SegmentFile<R> {
    /// Creates segment `seq` in `dir`. Nothing is written until the
    /// first chunk fills or the segment is sealed.
    pub(crate) fn create(dir: &Path, seq: u64) -> DiskResult<Self> {
        let path = dir.join(file_name(seq, R::KIND));
        let file = File::create(&path).map_err(|e| DiskError::io("creating", &path, e))?;
        Ok(SegmentFile {
            seq,
            path,
            writer: SegmentWriter::new(file),
        })
    }

    /// Frames `batch` into the segment — the one door
    /// [`DiskStore::append`](crate::DiskStore::append) and
    /// [`IngestWriter`](crate::IngestWriter) both write through.
    pub(crate) fn push(&mut self, batch: &[R]) -> DiskResult<()> {
        self.writer
            .push(batch)
            .map_err(|e| DiskError::io("writing", &self.path, e))
    }

    /// Writes out what is buffered, fsyncs the file and returns the
    /// manifest entry that commits it.
    pub(crate) fn seal(self) -> DiskResult<ManifestEntry> {
        let SegmentFile { seq, path, writer } = self;
        let (file, entry) = writer
            .finish(seq)
            .map_err(|e| DiskError::io("writing", &path, e))?;
        file.sync_all()
            .map_err(|e| DiskError::io("fsyncing", &path, e))?;
        Ok(entry)
    }
}

/// A whole segment encoded in memory, with the metadata its manifest
/// entry would carry. Tests and tools only: the store streams segments
/// to their files and never holds one whole.
#[derive(Debug)]
pub struct EncodedSegment {
    /// Complete file contents (header + frames).
    pub bytes: Vec<u8>,
    /// Record kind.
    pub kind: SegmentKind,
    /// Number of records framed.
    pub records: u64,
    /// Cell/time bounds over all records.
    pub bounds: SegmentBounds,
}

fn encode_segment<R: Record>(records: &[R]) -> EncodedSegment {
    let mut writer = SegmentWriter::new(Vec::new());
    writer
        .push_on(records, Some(1))
        .expect("writing to a Vec cannot fail");
    let (bytes, entry) = writer.finish(0).expect("writing to a Vec cannot fail");
    EncodedSegment {
        bytes,
        kind: entry.kind,
        records: entry.records,
        bounds: entry.bounds,
    }
}

/// Encodes an E-Scenario batch as one in-memory segment, through the
/// same writer that streams segments to disk (on its inline path).
#[must_use]
pub fn encode_e_segment(scenarios: &[EScenario]) -> EncodedSegment {
    encode_segment(scenarios)
}

/// Encodes a V-Scenario batch as one in-memory segment, through the
/// same writer that streams segments to disk (on its inline path).
#[must_use]
pub fn encode_v_segment(scenarios: &[VScenario]) -> EncodedSegment {
    encode_segment(scenarios)
}

/// Validates a segment header and returns its kind.
///
/// # Errors
///
/// [`DiskError::Corrupt`] on a short file, wrong magic, unknown version
/// or unknown kind byte.
pub fn parse_header(bytes: &[u8]) -> DiskResult<SegmentKind> {
    if bytes.len() < HEADER_LEN {
        return Err(DiskError::corrupt(format!(
            "segment shorter than its {HEADER_LEN}-byte header ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != SEGMENT_MAGIC {
        return Err(DiskError::corrupt("segment magic is not EVSG"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(DiskError::corrupt(format!(
            "unknown segment format version {version}"
        )));
    }
    SegmentKind::from_byte(bytes[6])
}

/// Result of a tolerant scan over a segment's frames.
#[derive(Debug)]
pub struct SegmentScan {
    /// Byte offsets `(payload_start, payload_len)` of every valid frame,
    /// in file order.
    pub payloads: Vec<(usize, usize)>,
    /// The byte length of the valid prefix (header + whole frames).
    pub valid_len: usize,
    /// `Some(reason)` when the scan stopped at a damaged frame that more
    /// data follows (true corruption); `None` when it ended cleanly or
    /// at a crash-shaped torn tail.
    pub damage: Option<&'static str>,
    /// Whether a torn tail was truncated away by the scan.
    pub torn: bool,
}

/// Walks a segment's frames, stopping at the first torn or damaged one.
///
/// # Errors
///
/// [`DiskError::Corrupt`] if the header itself is invalid (there is no
/// usable prefix to salvage).
pub fn scan(bytes: &[u8]) -> DiskResult<(SegmentKind, SegmentScan)> {
    let kind = parse_header(bytes)?;
    let mut payloads = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        match next_frame(bytes, pos) {
            FrameEvent::Frame {
                payload_start,
                payload_len,
                next_pos,
            } => {
                payloads.push((payload_start, payload_len));
                pos = next_pos;
            }
            FrameEvent::End => {
                return Ok((
                    kind,
                    SegmentScan {
                        payloads,
                        valid_len: pos,
                        damage: None,
                        torn: false,
                    },
                ))
            }
            FrameEvent::Torn { at } => {
                return Ok((
                    kind,
                    SegmentScan {
                        payloads,
                        valid_len: at,
                        damage: None,
                        torn: true,
                    },
                ))
            }
            FrameEvent::Damaged { at, reason } => {
                return Ok((
                    kind,
                    SegmentScan {
                        payloads,
                        valid_len: at,
                        damage: Some(reason),
                        torn: false,
                    },
                ))
            }
        }
    }
}

/// Appends every record of a fully valid segment of `R`'s kind to
/// `out`, checking and decoding frame by frame in one pass.
///
/// # Errors
///
/// [`DiskError::Corrupt`] when the segment is of the other kind, has a
/// torn or damaged frame, or a payload fails the record codec.
pub(crate) fn decode_segment<R: Record>(bytes: &[u8], out: &mut Vec<R>) -> DiskResult<()> {
    let kind = parse_header(bytes)?;
    if kind != R::KIND {
        return Err(DiskError::corrupt(format!(
            "expected a {:?} segment, found {kind:?}",
            R::KIND
        )));
    }
    let mut pos = HEADER_LEN;
    loop {
        match next_frame(bytes, pos) {
            FrameEvent::Frame {
                payload_start,
                payload_len,
                next_pos,
            } => {
                out.push(R::decode(
                    &bytes[payload_start..payload_start + payload_len],
                )?);
                pos = next_pos;
            }
            FrameEvent::End => return Ok(()),
            FrameEvent::Torn { .. } => return Err(DiskError::corrupt("segment has a torn tail")),
            FrameEvent::Damaged { reason, .. } => return Err(DiskError::corrupt(reason)),
        }
    }
}

/// Bytes the load walk asks the file for at a time (fewer when the file
/// is smaller). One such buffer per walking thread, so it is kept small:
/// 64 KiB, 256 KiB and 1 MiB walked a `dense-query`-shaped corpus (160 MB,
/// 66 KiB frames) in the same 0.043 s and a `universal-paper`-shaped one
/// (5 KiB frames) in the same 0.005 s on the 2-core benchmark host, and
/// the smallest added least to `peak_rss_mib` on `serve-mixed`.
#[doc(hidden)]
pub const READ_CHUNK: usize = 64 << 10;

/// A committed segment file as its readers see it. The file is opened,
/// and its length checked against the manifest entry, on every read:
/// nothing holds a descriptor between reads, so a served corpus that
/// has checkpointed into hundreds of segments pins none.
#[derive(Debug)]
pub(crate) struct CommittedSegment {
    path: PathBuf,
    entry: ManifestEntry,
    telemetry: Telemetry,
}

impl CommittedSegment {
    pub(crate) fn new(dir: &Path, entry: ManifestEntry, telemetry: &Telemetry) -> Self {
        CommittedSegment {
            path: dir.join(entry.file_name()),
            entry,
            telemetry: telemetry.clone(),
        }
    }

    fn io(&self, source: io::Error) -> DiskError {
        DiskError::io("reading segment", &self.path, source)
    }

    fn open(&self) -> DiskResult<File> {
        let file = File::open(&self.path).map_err(|e| self.io(e))?;
        let actual = file.metadata().map_err(|e| self.io(e))?.len();
        self.entry.check_file_len(actual)?;
        Ok(file)
    }

    /// The load walk: one sequential pass that verifies the whole file
    /// — header and kind, frame lengths chaining exactly to the
    /// committed length, every frame's CRC, the record count against
    /// the manifest — through one reused frame buffer, handing each
    /// payload and its byte offset in the file to `on_frame`. The
    /// streaming twin of [`decode_segment`], with what to do with a
    /// payload left to the caller.
    ///
    /// # Errors
    ///
    /// [`DiskError::Io`] on read failures,
    /// [`RecoveryError::SegmentLengthMismatch`] when the file is not the
    /// length the manifest committed, [`DiskError::Corrupt`] on any
    /// failed check, and whatever `on_frame` returns.
    pub(crate) fn walk(
        &self,
        mut on_frame: impl FnMut(u64, &[u8]) -> DiskResult<()>,
    ) -> DiskResult<()> {
        let file_len = self.entry.file_len;
        // Never more buffer than there are bytes to read.
        let chunk = READ_CHUNK.min(usize::try_from(file_len).unwrap_or(READ_CHUNK));
        let mut reader = BufReader::with_capacity(chunk, self.open()?);

        let mut header = Vec::with_capacity(HEADER_LEN);
        (&mut reader)
            .take(HEADER_LEN as u64)
            .read_to_end(&mut header)
            .map_err(|e| self.io(e))?;
        let kind = parse_header(&header)?;
        if kind != self.entry.kind {
            return Err(DiskError::corrupt(format!(
                "expected a {:?} segment, found {kind:?}",
                self.entry.kind
            )));
        }

        let torn = || DiskError::corrupt("segment has a torn tail");
        let mut frame = Vec::new();
        let mut records = 0u64;
        let mut pos = HEADER_LEN as u64;
        while pos < file_len {
            let remaining = file_len - pos;
            if remaining < 4 {
                return Err(torn());
            }
            let mut prefix = [0u8; 4];
            reader.read_exact(&mut prefix).map_err(|e| self.io(e))?;
            let len = declared_payload_len(prefix, remaining).ok_or_else(torn)?;
            frame.resize(len + 4, 0);
            reader.read_exact(&mut frame).map_err(|e| self.io(e))?;
            let next = pos + (4 + len + 4) as u64;
            if !crc_matches(&frame) {
                // As the in-memory scanner has it: damage in the final
                // frame is a torn tail, damage with more behind it is
                // not.
                return Err(if next == file_len {
                    torn()
                } else {
                    DiskError::corrupt(CRC_MISMATCH)
                });
            }
            on_frame(pos + 4, &frame[..len])?;
            records += 1;
            pos = next;
        }
        if records != self.entry.records {
            return Err(DiskError::corrupt(format!(
                "segment {} holds {records} records, the manifest committed {}",
                self.entry.file_name(),
                self.entry.records
            )));
        }
        if self.telemetry.counters_on() {
            let registry = self.telemetry.registry();
            registry.counter(names::DISK_SEGMENTS_OPENED).inc();
            registry.counter(names::DISK_BYTES_READ).add(file_len);
        }
        Ok(())
    }

    /// Reads the one V frame whose payload the load walk found at
    /// `offset`, verifies its CRC again (the file may have changed
    /// since the walk) and decodes it.
    fn read_frame(&self, offset: u64, len: u32) -> DiskResult<VScenario> {
        let mut file = self.open()?;
        file.seek(SeekFrom::Start(offset)).map_err(|e| self.io(e))?;
        let mut frame = vec![0u8; len as usize + 4];
        file.read_exact(&mut frame).map_err(|e| self.io(e))?;
        if !crc_matches(&frame) {
            return Err(DiskError::corrupt(CRC_MISMATCH));
        }
        let scenario = codec::decode_vscenario(&frame[..len as usize])?;
        if self.telemetry.counters_on() {
            let registry = self.telemetry.registry();
            registry
                .counter(names::DISK_BYTES_READ)
                .add(frame.len() as u64);
            registry.counter(names::DISK_RECORDS_READ).inc();
        }
        Ok(scenario)
    }
}

impl FootageSource for CommittedSegment {
    fn load(&self, id: ScenarioId, offset: u64, len: u32) -> ev_core::Result<VScenario> {
        self.read_frame(offset, len)
            .and_then(|scenario| {
                if scenario.id() == id {
                    return Ok(scenario);
                }
                Err(DiskError::corrupt(format!(
                    "the frame at byte {offset} of {} holds {}, not the {id} indexed there",
                    self.entry.file_name(),
                    scenario.id()
                )))
            })
            .map_err(|e| ev_core::Error::FootageUnavailable {
                scenario: id,
                corrupt: e.is_corruption(),
                reason: e.to_string(),
            })
    }
}

/// Decodes every E-record of a fully valid segment.
///
/// # Errors
///
/// [`DiskError::Corrupt`] when the segment is not an E segment, has a
/// torn or damaged frame, or a payload fails the record codec.
pub fn decode_e_segment(bytes: &[u8]) -> DiskResult<Vec<EScenario>> {
    let mut out = Vec::new();
    decode_segment(bytes, &mut out)?;
    Ok(out)
}

/// Decodes every V-record of a fully valid segment.
///
/// # Errors
///
/// As [`decode_e_segment`], for V segments.
pub fn decode_v_segment(bytes: &[u8]) -> DiskResult<Vec<VScenario>> {
    let mut out = Vec::new();
    decode_segment(bytes, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::feature::FeatureVector;
    use ev_core::ids::{Eid, Vid};
    use ev_core::region::CellId;
    use ev_core::scenario::{Detection, ZoneAttr};
    use ev_core::time::Timestamp;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn scenarios() -> Vec<EScenario> {
        (0..5u64)
            .map(|i| {
                let mut s = EScenario::new(CellId::new(3 + i as usize), Timestamp::new(10 * i));
                s.insert(Eid::from_u64(i), ZoneAttr::Inclusive);
                s.insert(Eid::from_u64(100 + i), ZoneAttr::Vague);
                s
            })
            .collect()
    }

    #[test]
    fn e_segment_round_trips() {
        let original = scenarios();
        let seg = encode_e_segment(&original);
        assert_eq!(seg.records, 5);
        assert_eq!(seg.bounds.min_time, 0);
        assert_eq!(seg.bounds.max_time, 40);
        assert_eq!(seg.bounds.min_cell, 3);
        assert_eq!(seg.bounds.max_cell, 7);
        assert_eq!(decode_e_segment(&seg.bytes).unwrap(), original);
    }

    #[test]
    fn truncated_tail_is_salvageable_prefix() {
        let seg = encode_e_segment(&scenarios());
        for cut in HEADER_LEN..seg.bytes.len() {
            let (_, scan) = scan(&seg.bytes[..cut]).unwrap();
            assert!(scan.valid_len <= cut);
            assert!(scan.damage.is_none(), "truncation is torn, not damaged");
            // Every surviving payload still decodes.
            for &(start, len) in &scan.payloads {
                crate::codec::decode_escenario(&seg.bytes[start..start + len]).unwrap();
            }
        }
    }

    #[test]
    fn header_damage_is_unrecoverable_corruption() {
        let seg = encode_e_segment(&scenarios());
        let mut bad = seg.bytes.clone();
        bad[0] = b'X';
        assert!(scan(&bad).is_err());
        let mut wrong_version = seg.bytes.clone();
        wrong_version[4] = 0xFF;
        assert!(scan(&wrong_version).is_err());
        assert!(decode_e_segment(&seg.bytes[..4]).is_err());
    }

    #[test]
    fn kind_mismatch_is_corruption() {
        let seg = encode_e_segment(&scenarios());
        assert!(decode_v_segment(&seg.bytes).is_err());
    }

    /// The V-Scenario at `(cell i mod 7, tick i)`: `detections`
    /// detections of `dim` components each.
    fn v_scenario(i: usize, detections: usize, dim: usize) -> VScenario {
        let mut v = VScenario::new(CellId::new(i % 7), Timestamp::new(i as u64));
        for d in 0..detections {
            let components = (0..dim).map(|c| ((i + d + c) % 97) as f64 / 97.0);
            v.push(Detection {
                vid: Vid::new(d as u64),
                feature: FeatureVector::new(components).unwrap(),
            });
        }
        v
    }

    fn v_batch(records: usize, detections: usize, dim: usize) -> Vec<VScenario> {
        (0..records)
            .map(|i| v_scenario(i, detections, dim))
            .collect()
    }

    /// A record that is `len` bytes of `0xAB`: a batch of any size for
    /// the price of its bytes, that counts its encodes and can fail one.
    #[derive(Debug)]
    struct Blob {
        len: usize,
        encoded: Arc<AtomicUsize>,
        panics: bool,
    }

    impl Record for Blob {
        const KIND: SegmentKind = SegmentKind::VScenario;

        fn time_cell(&self) -> (u64, u64) {
            (0, 0)
        }

        fn encoded_len(&self) -> usize {
            self.len
        }

        fn encode_into(&self, out: &mut Vec<u8>) {
            assert!(!self.panics, "framer down");
            self.encoded.fetch_add(1, Ordering::SeqCst);
            out.resize(out.len() + self.len, 0xAB);
        }

        fn decode(_: &[u8]) -> DiskResult<Self> {
            Err(DiskError::corrupt("blobs are write-only"))
        }
    }

    /// `count` blobs of `len` bytes sharing one encode counter.
    fn blobs(count: usize, len: usize) -> (Vec<Blob>, Arc<AtomicUsize>) {
        let encoded = Arc::new(AtomicUsize::new(0));
        let batch = (0..count)
            .map(|_| Blob {
                len,
                encoded: Arc::clone(&encoded),
                panics: false,
            })
            .collect();
        (batch, encoded)
    }

    /// The segment `push_on(batch, workers)` writes, and how many
    /// framing threads it started.
    fn pushed_on<R: Record>(batch: &[R], workers: usize) -> (Vec<u8>, ManifestEntry, usize) {
        WORKERS_SPAWNED.set(0);
        let mut writer = SegmentWriter::new(Vec::new());
        writer.push_on(batch, Some(workers)).unwrap();
        let (bytes, entry) = writer.finish(0).unwrap();
        (bytes, entry, WORKERS_SPAWNED.get())
    }

    #[test]
    fn a_batch_under_the_grain_spawns_nothing_at_any_width() {
        let (batch, _) = blobs(63, 64 << 10);
        let (_, framed) = cut_runs(&batch, RUN_BYTES);
        assert!(framed < PARALLEL_GRAIN && framed > PARALLEL_GRAIN - (128 << 10));
        let (inline, ..) = pushed_on(&batch, 1);
        for workers in [2, 3, 8, 64] {
            let (bytes, _, spawned) = pushed_on(&batch, workers);
            assert_eq!(spawned, 0, "{workers} workers");
            assert!(bytes == inline, "{workers} workers: same bytes");
        }
    }

    #[test]
    fn one_worker_spawns_nothing_at_any_size() {
        for count in [1, 64, 200] {
            let (batch, _) = blobs(count, 64 << 10);
            assert_eq!(pushed_on(&batch, 1).2, 0, "{count} blobs");
        }
        // The counter counts: the same batch over the grain at width 2.
        let (batch, _) = blobs(200, 64 << 10);
        assert!(cut_runs(&batch, RUN_BYTES).1 >= PARALLEL_GRAIN);
        assert_eq!(pushed_on(&batch, 2).2, 2);
    }

    #[test]
    fn a_batch_over_the_grain_is_the_inline_bytes_at_1_2_3_and_8_workers() {
        // 72 frames of ≈ 66 KiB, a `dense-query` V frame; and one
        // record larger than a run, which is a run of its own.
        let mut batch = v_batch(72, 64, 128);
        batch.extend(v_batch(1, 400, 128));
        batch.extend(v_batch(5, 3, 8));
        let want = encode_v_segment(&batch);
        assert!(want.bytes.len() >= PARALLEL_GRAIN);
        for workers in [1, 2, 3, 8] {
            let (bytes, entry, spawned) = pushed_on(&batch, workers);
            assert!(bytes == want.bytes, "{workers} workers: same bytes");
            assert_eq!(entry.records, want.records);
            assert_eq!(entry.bounds, want.bounds);
            assert_eq!(entry.file_len, want.bytes.len() as u64);
            assert_eq!(spawned, if workers == 1 { 0 } else { workers });
        }
        assert_eq!(decode_v_segment(&want.bytes).unwrap(), batch);
    }

    /// A host out of threads: the writer frames on the caller what the
    /// refused workers would have — all of it, if none started — and the
    /// file is the one it always writes.
    #[test]
    fn a_refused_framer_is_done_without() {
        let mut batch = v_batch(72, 64, 128);
        batch.extend(v_batch(1, 400, 128));
        let want = encode_v_segment(&batch);
        for started in [0, 1, 2] {
            REFUSE_SPAWNS_FROM.set(Some(started));
            let (bytes, entry, spawned) = pushed_on(&batch, 3);
            REFUSE_SPAWNS_FROM.set(None);
            assert_eq!(spawned, started);
            assert!(bytes == want.bytes, "{started} of 3 framers: same bytes");
            assert_eq!(entry.file_len, want.bytes.len() as u64);
            assert_eq!(entry.records, want.records);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the batch, wherever the runs are cut and however
        /// many framers take them — more than there are runs included —
        /// the file is the inline writer's.
        #[test]
        fn runs_framed_side_by_side_are_the_inline_bytes(
            shapes in prop::collection::vec((0usize..6, 1usize..9), 0..40),
            run_bytes in 1usize..3000,
            workers in 1usize..9,
        ) {
            let batch: Vec<VScenario> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(detections, dim))| v_scenario(i, detections, dim))
                .collect();
            let (runs, framed) = cut_runs(&batch, run_bytes);
            prop_assert_eq!(runs.iter().map(|run| run.len()).sum::<usize>(), batch.len());
            prop_assert!(runs.iter().all(|run| !run.is_empty()));
            let want = encode_v_segment(&batch);
            prop_assert_eq!(framed, want.bytes.len() - HEADER_LEN);

            let mut writer = SegmentWriter::<VScenario, _>::new(Vec::new());
            writer.write_framed_by(workers, &runs).unwrap();
            let (bytes, entry) = writer.finish(0).unwrap();
            prop_assert_eq!(&bytes, &want.bytes);
            prop_assert_eq!(entry.file_len, want.bytes.len() as u64);
        }
    }

    /// A sink that takes `room` bytes and then reports a full disk.
    struct FullAfter {
        room: usize,
        taken: usize,
    }

    impl Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.taken + buf.len() > self.room {
                return Err(io::Error::other("sink full"));
            }
            self.taken += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Runs `push` on a thread of its own and fails if it has not
    /// returned within a minute: a writer and its framers waiting on
    /// each other would otherwise hang the suite.
    fn within_a_minute<T: Send + 'static>(push: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, wait) = mpsc::channel();
        std::thread::spawn(move || done.send(push()));
        wait.recv_timeout(Duration::from_secs(60))
            .expect("the push neither finished nor failed: deadlock on the buffer pool?")
    }

    #[test]
    fn a_sink_failing_mid_segment_is_one_io_error_and_stops_the_framers() {
        for workers in [2, 3, 8] {
            let (error, taken, encoded) = within_a_minute(move || {
                let (batch, encoded) = blobs(400, 64 << 10);
                let sink = FullAfter {
                    room: 1 << 20,
                    taken: 0,
                };
                let mut writer = SegmentWriter::new(sink);
                let error = writer.push_on(&batch, Some(workers)).unwrap_err();
                (error, writer.sink.taken, encoded.load(Ordering::SeqCst))
            });
            assert_eq!(error.to_string(), "sink full", "{workers} workers");
            // The framers were joined before the error came back, and
            // they stopped for want of buffers, not at the end of the
            // batch: what was written plus what the pool can hold.
            let frame = (64 << 10) + FRAME_OVERHEAD;
            let in_pool = workers * BUFFERS_PER_WORKER * (RUN_BYTES / frame);
            assert!(
                encoded <= taken / frame + in_pool,
                "{workers} workers: {encoded} of 400 records framed, {taken} bytes written"
            );
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_failed_write_reaches_the_store_as_disk_error_io() {
        let full = std::fs::OpenOptions::new().write(true).open("/dev/full");
        let Ok(full) = full else { return };
        let (batch, _) = blobs(200, 64 << 10);
        let mut segment = SegmentFile {
            seq: 0,
            path: PathBuf::from("/dev/full"),
            writer: SegmentWriter::new(full),
        };
        let error = within_a_minute(move || segment.push(&batch).unwrap_err());
        assert!(
            matches!(error, DiskError::Io { .. }),
            "expected DiskError::Io, got {error:?}"
        );
    }

    #[test]
    #[should_panic(expected = "framer down")]
    fn a_panicking_framer_panics_the_caller() {
        let (mut batch, _) = blobs(200, 64 << 10);
        batch[101].panics = true;
        let mut writer = SegmentWriter::new(Vec::new());
        let _ = writer.push_on(&batch, Some(3));
    }
}
