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
//! replace sixteen dependent ones. One such chain is still bound by the
//! latency of a lookup feeding the next step's index, so an input of
//! `LANE_THRESHOLD` (1 KiB) or more is cut into **three equal lanes**
//! (a multiple of sixteen bytes each, the remainder left as a tail) that
//! step side by side through the same tables, three independent chains
//! for the processor to overlap.
//!
//! The lanes are put back together exactly. The CRC register is linear
//! over GF(2): the state after bytes `A‖B` from state `s` is the state
//! after `A` from `s`, shifted past `|B|` zero bytes, XOR the state after
//! `B` from zero. Shifting past `n` zero bytes is multiplying by
//! `x^(8n)` modulo the polynomial, which `x8n` assembles from a
//! `const` table of `x^(8·2^k)` — a multiply per set bit of `n`, not a
//! walk over `n` bytes. So the first lane starts from the running state,
//! the other two from zero, and two multiplies fold them into the state
//! the single chain would have reached; the tail continues from there.
//! Nothing is approximated: the values are those of the bytewise
//! algorithm, which the tests keep as the reference at every length
//! around the threshold.

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

/// One slicing-by-16 step: the state after `block`'s sixteen bytes.
#[inline(always)]
fn fold16(crc: u32, block: &[u8]) -> u32 {
    let block: &[u8; SLICES] = block.try_into().expect("a sixteen-byte block");
    // The running CRC only mixes into the first four bytes; the other
    // twelve are looked up as they are.
    let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
    TABLES[15][(head & 0xFF) as usize]
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
        ^ TABLES[0][block[15] as usize]
}

/// The product of `a` and `b` modulo the polynomial, in the reflected
/// bit order the CRC register uses (bit 31 is `x^0`).
const fn multiply(a: u32, mut b: u32) -> u32 {
    // Masks, not branches: the bits of a CRC state are coin flips.
    let mut product = 0;
    let mut k = 0;
    while k < 32 {
        product ^= b & 0u32.wrapping_sub((a >> (31 - k)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        k += 1;
    }
    product
}

/// `X8_POW2[k]` is `x^(8·2^k)` modulo the polynomial: the factor that
/// shifts a CRC state past `2^k` zero bytes. Thirty-two entries cover
/// every length, since squaring thirty-two times is the identity in
/// GF(2^32) and the table would repeat.
const X8_POW2: [u32; 32] = {
    let mut powers = [0u32; 32];
    powers[0] = 1 << (31 - 8);
    let mut k = 1;
    while k < 32 {
        powers[k] = multiply(powers[k - 1], powers[k - 1]);
        k += 1;
    }
    powers
};

/// `x^(8·bytes)` modulo the polynomial, one multiply per set bit.
fn x8n(mut bytes: usize) -> u32 {
    let mut power = 1u32 << 31; // x^0
    let mut k = 0;
    while bytes != 0 {
        if bytes & 1 != 0 {
            power = multiply(power, X8_POW2[k % 32]);
        }
        bytes >>= 1;
        k += 1;
    }
    power
}

/// Inputs at least this long are folded on three lanes. Putting the
/// lanes back together costs three to a dozen [`multiply`]s (≈ 85 ns on
/// the 2-core benchmark host), which one chain at 1.6 GB/s makes up at
/// ≈ 400–500 bytes; measured there, old → lanes: 512 B 1.0–1.2×, 1 KiB
/// 1.4×, 5 KiB (a `universal-paper` V frame) 1.75×, 64 KiB (a
/// `dense-query` V frame) 2.6× — 1.6 → 4.2 GB/s. At 1 KiB every length
/// wins whatever its tail and bit count; E frames and manifest entries
/// stay below it on the single chain.
const LANE_THRESHOLD: usize = 1024;

/// Computes the CRC-32 of `bytes`.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = bytes;
    if bytes.len() >= LANE_THRESHOLD {
        let lane = bytes.len() / 3 / SLICES * SLICES;
        let (first, others) = bytes.split_at(lane);
        let (second, others) = others.split_at(lane);
        let (third, tail) = others.split_at(lane);
        let (mut b, mut c) = (0u32, 0u32);
        for ((x, y), z) in first
            .chunks_exact(SLICES)
            .zip(second.chunks_exact(SLICES))
            .zip(third.chunks_exact(SLICES))
        {
            crc = fold16(crc, x);
            b = fold16(b, y);
            c = fold16(c, z);
        }
        let shift = x8n(lane);
        crc = multiply(multiply(crc, shift) ^ b, shift) ^ c;
        rest = tail;
    }
    let mut blocks = rest.chunks_exact(SLICES);
    for block in &mut blocks {
        crc = fold16(crc, block);
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

    /// Shifting a state past `n` zero bytes one byte at a time.
    fn shifted_bytewise(mut state: u32, n: usize) -> u32 {
        for _ in 0..n {
            state = (state >> 8) ^ TABLE[(state & 0xFF) as usize];
        }
        state
    }

    #[test]
    fn x8n_is_n_single_byte_shifts() {
        assert_eq!(multiply(0xDEAD_BEEF, 1 << 31), 0xDEAD_BEEF, "x^0 is one");
        for (k, &power) in X8_POW2.iter().enumerate().take(17) {
            assert_eq!(power, shifted_bytewise(1 << 31, 1 << k), "table entry {k}");
        }
        for state in [1u32, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678] {
            for n in (0..=300).chain([4095, 4096, 21_845, 70_001]) {
                assert_eq!(
                    multiply(state, x8n(n)),
                    shifted_bytewise(state, n),
                    "state {state:#x} past {n} bytes"
                );
            }
        }
        // Squaring thirty-two times is the identity: the table wraps.
        assert_eq!(multiply(X8_POW2[31], X8_POW2[31]), X8_POW2[0]);
    }

    /// Lengths on both sides of the threshold and up to 200 KiB, lane
    /// lengths that are and are not a multiple of sixteen, tails of
    /// every length, starts at every alignment.
    #[test]
    fn lanes_match_the_bytewise_reference_up_to_200_kib() {
        let mut word = 0x2545_F491u32;
        let bytes: Vec<u8> = (0..(200 << 10) + SLICES)
            .map(|_| {
                word ^= word << 13;
                word ^= word >> 17;
                word ^= word << 5;
                word as u8
            })
            .collect();
        let around = |n: usize| n - 1..=n + 1;
        let lengths = around(LANE_THRESHOLD)
            .chain(around(3 * SLICES * 100))
            .chain(around(200 << 10))
            .chain((LANE_THRESHOLD..=200 << 10).step_by(4999));
        for (i, len) in lengths.enumerate() {
            let start = i % SLICES;
            let slice = &bytes[start..start + len];
            assert_eq!(crc32(slice), reference(slice), "len {len} from {start}");
        }
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
