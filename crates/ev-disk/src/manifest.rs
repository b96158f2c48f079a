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

use crate::codec::ByteReader;
use crate::error::{DiskError, DiskResult, RecoveryError};
use crate::format::{FORMAT_VERSION, HEADER_LEN, MANIFEST_ENTRY_PAYLOAD_LEN, MANIFEST_MAGIC};
use crate::frame::{next_frame, write_frame, FrameEvent};
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
    pub fn encode(&self) -> Vec<u8> {
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

/// Result of scanning a manifest file.
#[derive(Debug)]
pub struct ManifestScan {
    /// Entries of the valid prefix, in append order.
    pub entries: Vec<ManifestEntry>,
    /// Byte length of the valid prefix (header + whole frames).
    pub valid_len: usize,
    /// `Some(reason)` when the scan stopped at mid-file damage rather
    /// than a clean end or a crash-shaped torn tail.
    pub damage: Option<String>,
    /// Whether a torn tail follows the valid prefix.
    pub torn: bool,
}

/// Scans a manifest, collecting the longest valid prefix of entries.
///
/// Torn tails are reported, not errors — they are the expected residue
/// of a crash during an append. A frame that parses but whose payload
/// is not a valid entry is treated like a damaged frame.
///
/// # Errors
///
/// [`DiskError::Corrupt`] if the header itself is invalid: with no
/// trustworthy header there is no prefix worth keeping.
pub fn scan_manifest(bytes: &[u8]) -> DiskResult<ManifestScan> {
    if bytes.len() < HEADER_LEN {
        return Err(DiskError::corrupt(format!(
            "manifest shorter than its {HEADER_LEN}-byte header ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..4] != MANIFEST_MAGIC {
        return Err(DiskError::corrupt("manifest magic is not EVMF"));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(DiskError::corrupt(format!(
            "unknown manifest format version {version}"
        )));
    }
    let mut entries = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        match next_frame(bytes, pos) {
            FrameEvent::Frame {
                payload_start,
                payload_len,
                next_pos,
            } => {
                match ManifestEntry::decode(&bytes[payload_start..payload_start + payload_len]) {
                    Ok(entry) => {
                        entries.push(entry);
                        pos = next_pos;
                    }
                    Err(e) => {
                        // A checksum-valid frame holding a malformed
                        // entry cannot come from a torn append.
                        return Ok(ManifestScan {
                            entries,
                            valid_len: pos,
                            damage: Some(format!("undecodable manifest entry: {e}")),
                            torn: false,
                        });
                    }
                }
            }
            FrameEvent::End => {
                return Ok(ManifestScan {
                    entries,
                    valid_len: pos,
                    damage: None,
                    torn: false,
                })
            }
            FrameEvent::Torn { at } => {
                return Ok(ManifestScan {
                    entries,
                    valid_len: at,
                    damage: None,
                    torn: true,
                })
            }
            FrameEvent::Damaged { at, reason } => {
                return Ok(ManifestScan {
                    entries,
                    valid_len: at,
                    damage: Some(reason.to_string()),
                    torn: false,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn scan_reads_all_entries() {
        let bytes = manifest_with(4);
        let scan = scan_manifest(&bytes).unwrap();
        assert_eq!(scan.entries.len(), 4);
        assert_eq!(scan.valid_len, bytes.len());
        assert!(!scan.torn);
        assert!(scan.damage.is_none());
        assert_eq!(scan.entries[3], entry(3));
    }

    #[test]
    fn every_truncation_keeps_the_whole_prefix() {
        let bytes = manifest_with(3);
        let frame_len = encode_entry_frame(&entry(0)).len();
        for cut in HEADER_LEN..bytes.len() {
            let scan = scan_manifest(&bytes[..cut]).unwrap();
            let whole = (cut - HEADER_LEN) / frame_len;
            assert_eq!(scan.entries.len(), whole, "cut at {cut}");
            assert_eq!(scan.valid_len, HEADER_LEN + whole * frame_len);
            assert!(scan.damage.is_none());
        }
    }

    #[test]
    fn header_damage_is_an_error() {
        let bytes = manifest_with(1);
        assert!(scan_manifest(&bytes[..6]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(scan_manifest(&bad).is_err());
        let mut ver = bytes;
        ver[4] = 9;
        assert!(scan_manifest(&ver).is_err());
    }

    #[test]
    fn mid_file_flip_is_damage_not_torn() {
        let mut bytes = manifest_with(3);
        // Flip a payload byte of the first entry.
        bytes[HEADER_LEN + 6] ^= 0xFF;
        let scan = scan_manifest(&bytes).unwrap();
        assert!(scan.entries.is_empty());
        assert!(scan.damage.is_some());
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, HEADER_LEN);
    }
}
