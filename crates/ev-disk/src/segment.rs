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
//! are written by one streaming writer that frames records in place
//! into a bounded buffer and also computes the segment's cell/time
//! bounds, which the manifest stores. A committed segment is read two
//! ways, both through `CommittedSegment`: the verifying load walk
//! over the whole file, and the read of one V frame that walk located.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::codec::{self, Record};
use crate::error::{DiskError, DiskResult};
use crate::format::{FORMAT_VERSION, HEADER_LEN, KIND_E, KIND_V, SEGMENT_MAGIC};
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
/// writing one never holds more than about a mebibyte of it in memory.
const WRITE_CHUNK: usize = 1 << 20;

/// The one segment-writing path: frames records of one kind in place
/// into a bounded buffer and hands the buffer to `sink` whenever it
/// has grown past [`WRITE_CHUNK`] (on a frame boundary), accumulating
/// the record count, bounds and byte length the manifest entry needs.
/// At no point does more than one chunk plus one frame of the segment
/// exist in memory.
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
        let mut buf = Vec::new();
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

    /// Frames one record.
    pub(crate) fn push(&mut self, record: &R) -> io::Result<()> {
        let (time, cell) = record.time_cell();
        self.bounds.absorb(time, cell);
        write_frame(&mut self.buf, |out| record.encode_into(out));
        self.records += 1;
        if self.buf.len() >= WRITE_CHUNK {
            self.flush()?;
        }
        Ok(())
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

    /// Frames `batch` into the segment.
    pub(crate) fn push(&mut self, batch: &[R]) -> DiskResult<()> {
        for record in batch {
            self.writer
                .push(record)
                .map_err(|e| DiskError::io("writing", &self.path, e))?;
        }
        Ok(())
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
    for record in records {
        writer.push(record).expect("writing to a Vec cannot fail");
    }
    let (bytes, entry) = writer.finish(0).expect("writing to a Vec cannot fail");
    EncodedSegment {
        bytes,
        kind: entry.kind,
        records: entry.records,
        bounds: entry.bounds,
    }
}

/// Encodes an E-Scenario batch as one in-memory segment, through the
/// same writer that streams segments to disk.
#[must_use]
pub fn encode_e_segment(scenarios: &[EScenario]) -> EncodedSegment {
    encode_segment(scenarios)
}

/// Encodes a V-Scenario batch as one in-memory segment, through the
/// same writer that streams segments to disk.
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
/// is smaller).
const READ_CHUNK: usize = 1 << 20;

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
    use ev_core::ids::Eid;
    use ev_core::region::CellId;
    use ev_core::scenario::ZoneAttr;
    use ev_core::time::Timestamp;

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
}
