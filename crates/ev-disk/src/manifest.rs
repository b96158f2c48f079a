//! The append-only manifest: the single source of truth for which
//! segments are live.
//!
//! The manifest is the only mutable file in a corpus directory, and it
//! is only ever *appended to* (recovery in salvage mode may atomically
//! rewrite it via rename). Layout:
//!
//! ```text
//! magic   [4]  "EVMF"
//! version u16  1
//! reserved u16 0
//! frames…      one 57-byte entry payload per committed segment
//! ```
//!
//! Each entry commits one segment. An append becomes durable in this
//! order: segment bytes → `fsync(segment)` → `fsync(dir)` → manifest
//! entry → `fsync(manifest)`. A crash between those steps leaves either
//! an orphan segment (no entry — deleted on recovery) or a torn
//! manifest tail (truncated on recovery); it can never leave an entry
//! that points at missing or incomplete data.

use std::io::{self, Read};

use crate::codec::ByteReader;
use crate::error::{DiskError, DiskResult, RecoveryError};
use crate::format::{FORMAT_VERSION, HEADER_LEN, MANIFEST_ENTRY_PAYLOAD_LEN, MANIFEST_MAGIC};
use crate::frame::{read_frames, write_frame, FramedFile, Walk};
use crate::segment::{self, SegmentBounds, SegmentKind};

/// One committed segment, as recorded in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Monotonic segment sequence number (also in the file name).
    pub seq: u64,
    /// Record kind of the segment.
    pub kind: SegmentKind,
    /// Number of records the segment holds.
    pub records: u64,
    /// Cell/time bounds over the segment's records.
    pub bounds: SegmentBounds,
    /// Expected byte length of the segment file.
    pub file_len: u64,
}

impl ManifestEntry {
    /// File name of the segment this entry commits
    /// (`seg-000042-e.seg`).
    #[must_use]
    pub fn file_name(&self) -> String {
        segment::file_name(self.seq, self.kind)
    }

    /// Holds the segment file's `actual` length to the committed one.
    /// The manifest is fsynced after the segment, so a mismatch is
    /// post-commit damage, never an interrupted append.
    pub(crate) fn check_file_len(&self, actual: u64) -> DiskResult<()> {
        if actual != self.file_len {
            return Err(RecoveryError::SegmentLengthMismatch {
                segment: self.file_name(),
                committed: self.file_len,
                actual,
            }
            .into());
        }
        Ok(())
    }

    /// Encodes the fixed 57-byte entry payload.
    #[must_use]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(MANIFEST_ENTRY_PAYLOAD_LEN);
        bytes.extend_from_slice(&self.seq.to_le_bytes());
        bytes.push(self.kind.byte());
        for field in [
            self.records,
            self.bounds.min_time,
            self.bounds.max_time,
            self.bounds.min_cell,
            self.bounds.max_cell,
            self.file_len,
        ] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        debug_assert_eq!(bytes.len(), MANIFEST_ENTRY_PAYLOAD_LEN);
        bytes
    }

    /// Decodes one entry payload.
    ///
    /// # Errors
    ///
    /// [`DiskError::Corrupt`] on a wrong payload length or unknown kind.
    pub fn decode(payload: &[u8]) -> DiskResult<Self> {
        if payload.len() != MANIFEST_ENTRY_PAYLOAD_LEN {
            return Err(DiskError::corrupt(format!(
                "manifest entry payload is {} bytes, expected {MANIFEST_ENTRY_PAYLOAD_LEN}",
                payload.len()
            )));
        }
        let mut r = ByteReader::new(payload);
        let seq = r.get_u64("manifest seq")?;
        let kind = SegmentKind::from_byte(r.get_u8("manifest kind")?)?;
        let records = r.get_u64("manifest record count")?;
        let bounds = SegmentBounds {
            min_time: r.get_u64("manifest min_time")?,
            max_time: r.get_u64("manifest max_time")?,
            min_cell: r.get_u64("manifest min_cell")?,
            max_cell: r.get_u64("manifest max_cell")?,
        };
        let file_len = r.get_u64("manifest file_len")?;
        Ok(ManifestEntry {
            seq,
            kind,
            records,
            bounds,
            file_len,
        })
    }
}

/// The 8-byte manifest file header.
#[must_use]
pub fn manifest_header() -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(&MANIFEST_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes
}

/// Encodes one framed manifest entry, ready to append.
#[must_use]
pub fn encode_entry_frame(entry: &ManifestEntry) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, |payload| {
        payload.extend_from_slice(&entry.encode())
    });
    out
}

/// Reads the `len` bytes of a manifest from `source` through the one
/// frame reader: the entries of its valid prefix, in append order, and
/// the walk that found them. A checksum-valid frame holding a malformed
/// entry cannot come from a torn append: it is damage.
///
/// # Errors
///
/// Only `source`'s read errors.
pub(crate) fn read_manifest(source: impl Read, len: u64) -> io::Result<(Vec<ManifestEntry>, Walk)> {
    let mut entries = Vec::new();
    let walk = read_frames(source, len, FramedFile::Manifest, |_, payload| {
        let entry = ManifestEntry::decode(payload)
            .map_err(|e| DiskError::corrupt(format!("undecodable manifest entry: {e}")))?;
        entries.push(entry);
        Ok(())
    })?;
    Ok((entries, walk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Stop;

    fn entry(seq: u64) -> ManifestEntry {
        ManifestEntry {
            seq,
            kind: if seq.is_multiple_of(2) {
                SegmentKind::EScenario
            } else {
                SegmentKind::VScenario
            },
            records: 10 + seq,
            bounds: SegmentBounds {
                min_time: seq,
                max_time: seq + 100,
                min_cell: 0,
                max_cell: 24,
            },
            file_len: 1000 + seq,
        }
    }

    fn manifest_with(n: u64) -> Vec<u8> {
        let mut bytes = manifest_header();
        for seq in 0..n {
            bytes.extend_from_slice(&encode_entry_frame(&entry(seq)));
        }
        bytes
    }

    #[test]
    fn entries_round_trip() {
        let e = entry(42);
        assert_eq!(ManifestEntry::decode(&e.encode()).unwrap(), e);
        assert_eq!(e.encode().len(), MANIFEST_ENTRY_PAYLOAD_LEN);
        assert_eq!(e.file_name(), "seg-000042-e.seg");
        assert_eq!(entry(43).file_name(), "seg-000043-v.seg");
    }

    /// `read_manifest` over bytes held in memory.
    fn scanned(bytes: &[u8]) -> (Vec<ManifestEntry>, Walk) {
        read_manifest(bytes, bytes.len() as u64).expect("reading memory cannot fail")
    }

    #[test]
    fn scan_reads_all_entries() {
        let bytes = manifest_with(4);
        let (entries, walk) = scanned(&bytes);
        assert_eq!(entries.len(), 4);
        assert_eq!(walk.valid_len, bytes.len() as u64);
        assert!(matches!(walk.stop, Stop::End));
        assert_eq!(entries[3], entry(3));
    }

    #[test]
    fn every_truncation_keeps_the_whole_prefix() {
        let bytes = manifest_with(3);
        let frame_len = encode_entry_frame(&entry(0)).len();
        for cut in HEADER_LEN..bytes.len() {
            let (entries, walk) = scanned(&bytes[..cut]);
            let whole = (cut - HEADER_LEN) / frame_len;
            assert_eq!(entries.len(), whole, "cut at {cut}");
            assert_eq!(walk.valid_len, (HEADER_LEN + whole * frame_len) as u64);
            assert!(!matches!(walk.stop, Stop::Damaged(_)));
        }
    }

    #[test]
    fn header_damage_is_an_error() {
        let bytes = manifest_with(1);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let mut ver = bytes.clone();
        ver[4] = 9;
        for (damaged, says) in [
            (
                &bytes[..6],
                "manifest shorter than its 8-byte header (6 bytes)",
            ),
            (&bad[..], "manifest magic is not EVMF"),
            (&ver[..], "unknown manifest format version 9"),
        ] {
            let (entries, walk) = scanned(damaged);
            assert!(entries.is_empty());
            assert_eq!(walk.valid_len, 0, "no prefix behind a bad header");
            assert!(
                matches!(walk.stop, Stop::Damaged(ref e) if e.to_string().ends_with(says)),
                "{says}: {:?}",
                walk.stop
            );
        }
    }

    #[test]
    fn mid_file_flip_is_damage_not_torn() {
        let mut bytes = manifest_with(3);
        // Flip a payload byte of the first entry.
        bytes[HEADER_LEN + 6] ^= 0xFF;
        let (entries, walk) = scanned(&bytes);
        assert!(entries.is_empty());
        assert!(matches!(walk.stop, Stop::Damaged(_)));
        assert_eq!(walk.valid_len, HEADER_LEN as u64);
    }
}
