//! Length-prefixed, CRC-guarded frames — the shared envelope of segment
//! records and manifest entries — and [`read_frames`], the one reader of
//! them.
//!
//! A frame is `len u32 (LE) | payload[len] | crc u32 (LE)` where `crc`
//! is the CRC-32 of the payload only. Zero-length payloads are illegal
//! (no record or manifest entry is empty), which makes a zero-filled
//! tail — the one way a crash can *extend* a file on some filesystems —
//! unambiguously invalid rather than an infinite run of empty frames.
//!
//! [`read_frames`] reads the manifest at open and every committed segment
//! (load walk and salvage), and alone decides where a file stops being
//! valid (`DESIGN.md` §6.5): a frame that cannot be completed before
//! end-of-file is a **torn tail** (crash residue — truncate and
//! continue), a damaged frame *followed by more bytes* is **damage** (a
//! crash cannot rewrite the middle of an append-only file).

use std::io::{self, BufReader, Read};

use crate::crc::crc32;
use crate::error::{DiskError, DiskResult};
use crate::format::{
    FORMAT_VERSION, FRAME_OVERHEAD, HEADER_LEN, MANIFEST_MAGIC, MAX_FRAME_PAYLOAD, SEGMENT_MAGIC,
};
use crate::segment::SegmentKind;

/// How every reader words a frame whose CRC does not match its payload.
pub(crate) const CRC_MISMATCH: &str = "frame checksum mismatch";

/// Bytes [`read_frames`] asks its source for at a time (fewer when the
/// file is smaller); one such buffer per walking thread. 64 KiB, 256 KiB
/// and 1 MiB walked a `dense-query`-shaped corpus (160 MB, 66 KiB frames)
/// in the same 0.043 s and a `universal-paper`-shaped one in the same
/// 0.005 s on the 2-core benchmark host; the smallest added least to
/// `peak_rss_mib` on `serve-mixed`. Public only so that the budgets of
/// `tests/codec_properties.rs` are stated in it; nothing can set it.
#[doc(hidden)]
pub const READ_CHUNK: usize = 64 << 10;

/// Which file a walk reads, and so which header it expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramedFile {
    /// The manifest: magic `EVMF`.
    Manifest,
    /// A segment of this kind: magic `EVSG` and the kind byte.
    Segment(SegmentKind),
}

/// Why a walk stopped where it did.
#[derive(Debug)]
pub enum Stop {
    /// End of input, exactly on a frame boundary.
    End,
    /// The bytes behind the valid prefix cannot hold a complete frame,
    /// or hold exactly one checksum-damaged frame that runs to
    /// end-of-file: the signature of an append interrupted by a crash.
    Torn,
    /// The header is not the one expected (the valid prefix is then
    /// empty), a damaged frame has more bytes behind it — not explicable
    /// by a crashed append —, or the caller refused a payload.
    Damaged(DiskError),
}

/// What [`read_frames`] found.
#[derive(Debug)]
pub struct Walk {
    /// Frames verified and accepted by the caller.
    pub frames: u64,
    /// Length of the valid prefix: the header and the accepted frames;
    /// `0` when the header itself failed.
    pub valid_len: u64,
    /// Why the walk ended there.
    pub stop: Stop,
}

/// Appends one frame to `out`, letting `encode` write the payload in
/// place: the length prefix is reserved, back-patched once the payload
/// is known, and the CRC taken over the bytes just written — no
/// per-record payload buffer exists.
///
/// # Panics
///
/// Panics if `encode` writes nothing or more than
/// [`MAX_FRAME_PAYLOAD`] bytes — both are programming errors, not data
/// conditions (the codec never produces them).
pub fn write_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let payload_start = len_at + 4;
    let payload_len = out.len() - payload_start;
    assert!(
        (1..=MAX_FRAME_PAYLOAD).contains(&payload_len),
        "frame payloads are 1..=MAX_FRAME_PAYLOAD bytes"
    );
    out[len_at..payload_start].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let crc = crc32(&out[payload_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Whether `framed` — a payload followed by its 4-byte CRC, as they
/// sit in a frame — carries the checksum of that payload.
pub(crate) fn crc_matches(framed: &[u8]) -> bool {
    let (payload, stored) = framed.split_at(framed.len() - 4);
    u32::from_le_bytes(stored.try_into().expect("split 4 bytes off")) == crc32(payload)
}

/// Checks the header of `file` — its length, magic, version and, for a
/// segment, kind — for both magics.
fn check_header(header: &[u8], file: FramedFile) -> DiskResult<()> {
    let (what, magic) = match file {
        FramedFile::Manifest => ("manifest", MANIFEST_MAGIC),
        FramedFile::Segment(_) => ("segment", SEGMENT_MAGIC),
    };
    if header.len() < HEADER_LEN {
        return Err(DiskError::corrupt(format!(
            "{what} shorter than its {HEADER_LEN}-byte header ({} bytes)",
            header.len()
        )));
    }
    if header[..4] != magic {
        return Err(DiskError::corrupt(format!(
            "{what} magic is not {}",
            String::from_utf8_lossy(&magic)
        )));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != FORMAT_VERSION {
        return Err(DiskError::corrupt(format!(
            "unknown {what} format version {version}"
        )));
    }
    if let FramedFile::Segment(expected) = file {
        let kind = SegmentKind::from_byte(header[6])?;
        if kind != expected {
            return Err(DiskError::corrupt(format!(
                "expected a {expected:?} segment, found {kind:?}"
            )));
        }
    }
    Ok(())
}

/// Walks the `len` bytes of `file` that `source` yields in one pass,
/// through a read buffer of at most [`READ_CHUNK`] bytes and one reused
/// frame buffer: checks the header, then hands each frame whose CRC
/// matches to `on_frame` with its payload's file offset, until a
/// [`Stop`]. A declared length is bounded by the bytes that remain before
/// anything is read or allocated for it. A payload `on_frame` refuses
/// ends the valid prefix; its error is the [`Stop::Damaged`].
///
/// # Errors
///
/// Only the `source`'s read errors (including one that yields fewer
/// than `len` bytes); everything wrong with the bytes is in the [`Walk`].
pub fn read_frames<R: Read>(
    source: R,
    len: u64,
    file: FramedFile,
    mut on_frame: impl FnMut(u64, &[u8]) -> DiskResult<()>,
) -> io::Result<Walk> {
    // Never more buffer than there are bytes to read.
    let chunk = READ_CHUNK.min(usize::try_from(len).unwrap_or(READ_CHUNK));
    let mut source = BufReader::with_capacity(chunk, source);
    let mut header = [0u8; HEADER_LEN];
    let header = &mut header[..HEADER_LEN.min(chunk)];
    source.read_exact(header)?;
    if let Err(damage) = check_header(header, file) {
        return Ok(Walk {
            frames: 0,
            valid_len: 0,
            stop: Stop::Damaged(damage),
        });
    }

    let mut frame = Vec::new();
    let mut frames = 0;
    let mut pos = HEADER_LEN as u64;
    let stop = loop {
        let remaining = len - pos;
        if remaining == 0 {
            break Stop::End;
        }
        if remaining < 4 {
            break Stop::Torn;
        }
        let mut prefix = [0u8; 4];
        source.read_exact(&mut prefix)?;
        let payload_len = u32::from_le_bytes(prefix) as usize;
        // An impossible length destroys all framing behind it, so there
        // is no way to tell a partially persisted (or zero-extended)
        // tail from deeper damage; treat it as the crash-shaped case.
        if payload_len == 0
            || payload_len > MAX_FRAME_PAYLOAD
            || remaining < (payload_len + FRAME_OVERHEAD) as u64
        {
            break Stop::Torn;
        }
        frame.resize(payload_len + 4, 0);
        source.read_exact(&mut frame)?;
        let next = pos + (payload_len + FRAME_OVERHEAD) as u64;
        if !crc_matches(&frame) {
            // The final frame: a torn write can persist the length and
            // part of the payload, leaving stale bytes under the CRC.
            break if next == len {
                Stop::Torn
            } else {
                Stop::Damaged(DiskError::corrupt(CRC_MISMATCH))
            };
        }
        if let Err(refused) = on_frame(pos + 4, &frame[..payload_len]) {
            break Stop::Damaged(refused);
        }
        frames += 1;
        pos = next;
    };
    Ok(Walk {
        frames,
        valid_len: pos,
        stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::manifest_header;

    const FIRST_END: u64 = (HEADER_LEN + 4 + b"first payload".len() + 4) as u64;

    /// A manifest header and two frames the reader does not interpret.
    fn two_frames() -> Vec<u8> {
        let mut buf = manifest_header();
        write_frame(&mut buf, |out| out.extend_from_slice(b"first payload"));
        write_frame(&mut buf, |out| out.extend_from_slice(b"second"));
        buf
    }

    /// The walk over `bytes`, and the offset and payload of every frame
    /// it handed over.
    fn walked(bytes: &[u8]) -> (Walk, Vec<(u64, Vec<u8>)>) {
        let mut frames = Vec::new();
        let walk = read_frames(
            bytes,
            bytes.len() as u64,
            FramedFile::Manifest,
            |at, payload| {
                frames.push((at, payload.to_vec()));
                Ok(())
            },
        )
        .expect("reading memory cannot fail");
        (walk, frames)
    }

    #[test]
    fn frames_round_trip() {
        let buf = two_frames();
        let (walk, frames) = walked(&buf);
        assert!(matches!(walk.stop, Stop::End));
        assert_eq!((walk.frames, walk.valid_len), (2, buf.len() as u64));
        assert_eq!(
            frames,
            [
                (HEADER_LEN as u64 + 4, b"first payload".to_vec()),
                (FIRST_END + 4, b"second".to_vec()),
            ]
        );
    }

    #[test]
    fn every_truncation_is_torn_at_the_right_boundary() {
        let buf = two_frames();
        for cut in HEADER_LEN..buf.len() {
            let (walk, _) = walked(&buf[..cut]);
            let boundary = if (cut as u64) < FIRST_END {
                HEADER_LEN as u64
            } else {
                FIRST_END
            };
            assert_eq!(walk.valid_len, boundary, "cut at {cut}");
            if cut as u64 == boundary {
                assert!(matches!(walk.stop, Stop::End), "a clean boundary");
            } else {
                assert!(matches!(walk.stop, Stop::Torn), "cut at {cut}");
            }
        }
    }

    #[test]
    fn mid_file_damage_is_corruption_tail_damage_is_torn() {
        let mut buf = two_frames();
        // Flip a payload byte of the *first* frame: damaged, more data behind.
        buf[HEADER_LEN + 5] ^= 0xFF;
        let (walk, _) = walked(&buf);
        assert!(
            matches!(walk.stop, Stop::Damaged(DiskError::Corrupt { ref context }) if context == CRC_MISMATCH)
        );
        assert_eq!((walk.frames, walk.valid_len), (0, HEADER_LEN as u64));
        buf[HEADER_LEN + 5] ^= 0xFF;
        // Flip a payload byte of the *last* frame: torn tail.
        let n = buf.len();
        buf[n - 6] ^= 0xFF;
        let (walk, _) = walked(&buf);
        assert!(matches!(walk.stop, Stop::Torn));
        assert_eq!((walk.frames, walk.valid_len), (1, FIRST_END));
    }

    #[test]
    fn zero_extension_is_torn() {
        let mut buf = two_frames();
        let second_end = buf.len() as u64;
        buf.extend_from_slice(&[0u8; 6]);
        // The zero tail declares a zero-length frame: invalid, torn.
        let (walk, frames) = walked(&buf);
        assert!(matches!(walk.stop, Stop::Torn));
        assert_eq!((walk.frames, walk.valid_len), (2, second_end));
        assert_eq!(frames.len(), 2);
    }

    /// A payload the caller refuses ends the valid prefix in front of
    /// its frame, as damage carrying the caller's reason.
    #[test]
    fn a_refused_payload_ends_the_prefix_as_damage() {
        let buf = two_frames();
        let walk = read_frames(
            &buf[..],
            buf.len() as u64,
            FramedFile::Manifest,
            |_, p| match p {
                b"second" => Err(DiskError::corrupt("no seconds")),
                _ => Ok(()),
            },
        )
        .unwrap();
        assert!(matches!(walk.stop, Stop::Damaged(ref e) if e.to_string().ends_with("no seconds")));
        assert_eq!((walk.frames, walk.valid_len), (1, FIRST_END));
    }
}
