//! CRC-32 (IEEE 802.3) over byte slices.
//!
//! The reflected polynomial `0xEDB88320` with initial value and final
//! XOR of `0xFFFF_FFFF` — the same parametrisation as zlib, PNG and
//! Ethernet, so segment files can be checked with any standard CRC-32
//! tool. The lookup tables are computed at compile time; no external
//! crate is involved.
//!
//! [`crc32`] folds sixteen input bytes per step ("slicing-by-16"):
//! table `k` holds the CRC contribution of a byte that still has `k`
//! further bytes to be shifted past, so sixteen independent lookups
//! replace sixteen dependent ones. The values are those of the
//! bytewise algorithm, which the tests keep as the reference.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The byte-indexed lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Bytes folded per step of [`crc32`].
const SLICES: usize = 16;

/// `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
/// bytes: `TABLES[0]` is [`TABLE`], each further table one more shift.
static TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [TABLE; SLICES];
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(SLICES);
    for block in &mut blocks {
        // The running CRC only mixes into the first four bytes; the
        // other twelve are looked up as they are.
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        crc = TABLES[15][(head & 0xFF) as usize]
            ^ TABLES[14][((head >> 8) & 0xFF) as usize]
            ^ TABLES[13][((head >> 16) & 0xFF) as usize]
            ^ TABLES[12][(head >> 24) as usize]
            ^ TABLES[11][block[4] as usize]
            ^ TABLES[10][block[5] as usize]
            ^ TABLES[9][block[6] as usize]
            ^ TABLES[8][block[7] as usize]
            ^ TABLES[7][block[8] as usize]
            ^ TABLES[6][block[9] as usize]
            ^ TABLES[5][block[10] as usize]
            ^ TABLES[4][block[11] as usize]
            ^ TABLES[3][block[12] as usize]
            ^ TABLES[2][block[13] as usize]
            ^ TABLES[1][block[14] as usize]
            ^ TABLES[0][block[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step algorithm [`crc32`] must agree with.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one 16-byte block, with a remainder.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"segment payload");
        let mut flipped = b"segment payload".to_vec();
        for i in 0..flipped.len() * 8 {
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), base, "bit {i} flip must change the CRC");
            flipped[i / 8] ^= 1 << (i % 8);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every length 0..=4096 of random bytes: all block counts and
        /// all remainder lengths agree with the bytewise reference.
        #[test]
        fn matches_the_bytewise_reference_at_every_length(
            bytes in prop::collection::vec(0u8..=255, 4096),
        ) {
            for len in 0..=bytes.len() {
                prop_assert_eq!(crc32(&bytes[..len]), reference(&bytes[..len]), "len {}", len);
            }
        }

        /// Sub-slices starting at every offset mod 16: the block loop
        /// must not depend on where the slice sits in memory.
        #[test]
        fn matches_the_bytewise_reference_on_unaligned_subslices(
            bytes in prop::collection::vec(0u8..=255, 64..1024),
            len in any::<prop::sample::Index>(),
        ) {
            for start in 0..SLICES {
                let rest = &bytes[start..];
                let slice = &rest[..len.index(rest.len() + 1)];
                prop_assert_eq!(crc32(slice), reference(slice), "start {}", start);
            }
        }
    }
}
