//! Length-prefixed, CRC-guarded frames — the shared envelope of segment
//! records and manifest entries.
//!
//! A frame is `len u32 (LE) | payload[len] | crc u32 (LE)` where `crc`
//! is the CRC-32 of the payload only. Zero-length payloads are illegal
//! (no record or manifest entry is empty), which makes a zero-filled
//! tail — the one way a crash can *extend* a file on some filesystems —
//! unambiguously invalid rather than an infinite run of empty frames.
//!
//! [`next_frame`] classifies what it finds so callers can implement the
//! recovery state machine of `DESIGN.md` §6: a frame that cannot be
//! completed before end-of-file is a **torn tail** (the expected residue
//! of a crash mid-append — truncate and continue), while a damaged frame
//! *followed by more bytes* is **corruption** (a crash cannot rewrite
//! the middle of an append-only file).

use crate::crc::crc32;
use crate::format::MAX_FRAME_PAYLOAD;

/// How every reader words a frame whose CRC does not match its payload.
pub(crate) const CRC_MISMATCH: &str = "frame checksum mismatch";

/// What the parser found at a file position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, checksum-valid frame.
    Frame {
        /// Byte offset of the payload within the scanned slice.
        payload_start: usize,
        /// Payload length in bytes.
        payload_len: usize,
        /// Offset of the byte after the frame's trailing CRC.
        next_pos: usize,
    },
    /// Clean end of input exactly on a frame boundary.
    End,
    /// The bytes from `at` onwards cannot hold a complete frame, or hold
    /// exactly one checksum-damaged frame that runs to end-of-file:
    /// the signature of an append interrupted by a crash.
    Torn {
        /// Offset of the last good frame boundary.
        at: usize,
    },
    /// A damaged frame with more data behind it — not explicable by a
    /// crashed append; the file was corrupted in place.
    Damaged {
        /// Offset of the last good frame boundary.
        at: usize,
        /// Human-readable description of the damage.
        reason: &'static str,
    },
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

/// The payload length a frame's `len` prefix declares, or `None` when
/// no complete frame of that length fits in the `remaining` bytes that
/// run from the prefix's first byte to end-of-file — a torn tail. The
/// in-memory scanner and the streaming load walk both size their next
/// read with this, so a length is bounded by the bytes present before
/// anything is read or allocated for it.
pub(crate) fn declared_payload_len(prefix: [u8; 4], remaining: u64) -> Option<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    // An impossible length destroys all framing behind it, so there is
    // no way to tell a partially persisted (or zero-extended) tail from
    // deeper damage; treat it as the crash-shaped case and end the
    // frame stream here.
    if len == 0 || len > MAX_FRAME_PAYLOAD || remaining < (4 + len + 4) as u64 {
        return None;
    }
    Some(len)
}

/// Whether `framed` — a payload followed by its 4-byte CRC, as they
/// sit in a frame — carries the checksum of that payload.
pub(crate) fn crc_matches(framed: &[u8]) -> bool {
    let (payload, stored) = framed.split_at(framed.len() - 4);
    u32::from_le_bytes(stored.try_into().expect("split 4 bytes off")) == crc32(payload)
}

/// Classifies the bytes at `pos` (a frame boundary) of `bytes`.
#[must_use]
pub fn next_frame(bytes: &[u8], pos: usize) -> FrameEvent {
    let remaining = bytes.len() - pos;
    if remaining == 0 {
        return FrameEvent::End;
    }
    if remaining < 4 {
        return FrameEvent::Torn { at: pos };
    }
    let prefix = bytes[pos..pos + 4].try_into().unwrap();
    let Some(len) = declared_payload_len(prefix, remaining as u64) else {
        return FrameEvent::Torn { at: pos };
    };
    let payload_start = pos + 4;
    let next_pos = payload_start + len + 4;
    if !crc_matches(&bytes[payload_start..next_pos]) {
        return if next_pos == bytes.len() {
            // The final frame: a torn write can persist the length and
            // part of the payload, leaving stale bytes under the CRC.
            FrameEvent::Torn { at: pos }
        } else {
            FrameEvent::Damaged {
                at: pos,
                reason: CRC_MISMATCH,
            }
        };
    }
    FrameEvent::Frame {
        payload_start,
        payload_len: len,
        next_pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_frames() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, |out| out.extend_from_slice(b"first payload"));
        write_frame(&mut buf, |out| out.extend_from_slice(b"second"));
        buf
    }

    #[test]
    fn frames_round_trip() {
        let buf = two_frames();
        let FrameEvent::Frame {
            payload_start,
            payload_len,
            next_pos,
        } = next_frame(&buf, 0)
        else {
            panic!("first frame");
        };
        assert_eq!(
            &buf[payload_start..payload_start + payload_len],
            b"first payload"
        );
        let FrameEvent::Frame { next_pos: end, .. } = next_frame(&buf, next_pos) else {
            panic!("second frame");
        };
        assert_eq!(next_frame(&buf, end), FrameEvent::End);
    }

    #[test]
    fn every_truncation_is_torn_at_the_right_boundary() {
        let buf = two_frames();
        let first_end = 4 + b"first payload".len() + 4;
        for cut in 0..buf.len() {
            if cut == 0 || cut == first_end {
                continue; // clean boundaries: End, not Torn
            }
            let pos = if cut < first_end { 0 } else { first_end };
            assert_eq!(
                next_frame(&buf[..cut], pos),
                FrameEvent::Torn { at: pos },
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn mid_file_damage_is_corruption_tail_damage_is_torn() {
        let mut buf = two_frames();
        let first_end = 4 + b"first payload".len() + 4;
        // Flip a payload byte of the *first* frame: damaged, more data behind.
        buf[5] ^= 0xFF;
        assert!(matches!(
            next_frame(&buf, 0),
            FrameEvent::Damaged { at: 0, .. }
        ));
        buf[5] ^= 0xFF;
        // Flip a payload byte of the *last* frame: torn tail.
        let n = buf.len();
        buf[n - 6] ^= 0xFF;
        assert_eq!(
            next_frame(&buf, first_end),
            FrameEvent::Torn { at: first_end }
        );
    }

    #[test]
    fn zero_extension_is_torn() {
        let mut buf = two_frames();
        let first_end = 4 + b"first payload".len() + 4;
        let second_end = buf.len();
        buf.extend_from_slice(&[0u8; 6]);
        assert_eq!(
            next_frame(&buf, 0),
            FrameEvent::Frame {
                payload_start: 4,
                payload_len: 13,
                next_pos: first_end,
            }
        );
        // The zero tail declares a zero-length frame: invalid, torn.
        assert_eq!(
            next_frame(&buf, second_end),
            FrameEvent::Torn { at: second_end }
        );
    }
}
