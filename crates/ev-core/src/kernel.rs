//! Hardware-fast similarity kernel: SoA gallery blocks and batch
//! scoring (DESIGN.md §9).
//!
//! Paper Eq. (1) makes every match decision a stream of
//! candidate-vs-gallery distance evaluations, each one normalized L2.
//! The per-pair [`FeatureVector::distance`] path re-checks dimensions
//! and pointer-chases a `Vec<f64>` per gallery row on every single
//! comparison. This module hoists all of that out of the inner loop:
//!
//! * [`FeatureBlock`] — a gallery packed once into contiguous,
//!   64-byte-aligned structure-of-arrays `f64` lanes, validated once
//!   at build time so a mismatched gallery fails loudly with the
//!   gallery id in the error.
//! * [`Kernel`] — a prepared dimensionality whose one batch method,
//!   [`Kernel::score_max`], scores a candidate against a whole block in
//!   one streaming pass with branch-free, autovectorizer-friendly inner
//!   loops.
//!
//! # Bit-equivalence contract
//!
//! The exact `f64` block path reproduces the scalar per-pair path
//! **bitwise**, not just to a tolerance. The trick is vectorizing
//! *across gallery rows* instead of across dimensions: the block stores
//! rows in lanes of `LANES` (8) and the inner loop walks dimensions in
//! index order, keeping one accumulator per row. Every row's sum is
//! therefore accumulated in exactly the sequential order the scalar
//! `zip(..).sum()` uses — same additions, same order, same rounding,
//! same bits — while the compiler lifts the independent per-row
//! accumulators into SIMD lanes. No `mul_add`/FMA enters the path
//! (fused rounding would change bits).

use crate::error::{Error, Result};
use crate::feature::{FeatureVector, Metric};

/// Gallery rows per `f64` lane group: 8 × 8 bytes = one 64-byte line.
pub(crate) const LANES: usize = 8;

/// One cache-line-sized group of `f64` row values: the components of
/// [`LANES`] consecutive gallery rows at a single dimension index.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Lane64([f64; LANES]);

/// A gallery packed into structure-of-arrays blocks.
///
/// Rows are grouped into chunks of `LANES` (8); within a chunk, the lane
/// at index `chunk * dim + j` holds dimension `j` of all `LANES` rows
/// side by side. A candidate-vs-gallery pass therefore walks each
/// buffer exactly once, front to back, with unit stride — no per-row
/// heap hop, no per-pair dimension check. Rows past `len` in the last
/// chunk are zero padding; their scores are computed and discarded.
///
/// Built once per gallery (the matcher packs it when it extracts the
/// gallery and keeps it instead of the footage); dimension validation
/// happens here, so a gallery whose rows
/// disagree on dimensionality fails **once, loudly, with the gallery id
/// in the error** instead of failing per pair inside the hot loop.
#[derive(Debug, Clone)]
pub struct FeatureBlock {
    dim: usize,
    len: usize,
    /// Exact values, `ceil(len / LANES) * dim` lanes.
    lanes: Vec<Lane64>,
}

impl FeatureBlock {
    /// Packs `rows` into a block, validating that every row agrees on
    /// dimensionality.
    ///
    /// An empty gallery packs into an empty block (`dim() == 0`); the
    /// kernel scores it as membership `0`, like the scalar scan of an
    /// empty scenario.
    ///
    /// # Errors
    ///
    /// Returns [`Error::GalleryDimensionMismatch`] naming `gallery` and
    /// the offending row if any row's dimensionality differs from the
    /// first row's.
    pub fn build<'a, I>(gallery: &str, rows: I) -> Result<FeatureBlock>
    where
        I: IntoIterator<Item = &'a FeatureVector>,
    {
        let rows: Vec<&FeatureVector> = rows.into_iter().collect();
        let Some(first) = rows.first() else {
            return Ok(FeatureBlock {
                dim: 0,
                len: 0,
                lanes: Vec::new(),
            });
        };
        let dim = first.dim();
        for (row, r) in rows.iter().enumerate() {
            if r.dim() != dim {
                return Err(Error::GalleryDimensionMismatch {
                    gallery: gallery.to_string(),
                    expected: dim,
                    found: r.dim(),
                    row,
                });
            }
        }
        let len = rows.len();

        let chunks = len.div_ceil(LANES);
        let mut lanes = vec![Lane64([0.0; LANES]); chunks * dim];
        for (row, r) in rows.iter().enumerate() {
            let (chunk, slot) = (row / LANES, row % LANES);
            for (j, &c) in r.components().iter().enumerate() {
                lanes[chunk * dim + j].0[slot] = c;
            }
        }
        Ok(FeatureBlock { dim, len, lanes })
    }

    /// Dimensionality of every row (`0` for an empty block).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of gallery rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `row`'s components in dimension order: the very `f64`s it
    /// was packed from, so a block stands in for its gallery's features.
    ///
    /// # Panics
    ///
    /// When `row >= self.len()`.
    pub fn row(&self, row: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(row < self.len, "row {row} of a {}-row block", self.len);
        let (chunk, slot) = (row / LANES, row % LANES);
        let lanes = &self.lanes[chunk * self.dim..(chunk + 1) * self.dim];
        lanes.iter().map(move |lane| lane.0[slot])
    }
}

/// A prepared normalized-L2 scoring kernel at one dimensionality.
///
/// Preparation is where per-call validation lives: the batch method
/// checks the candidate and block against the prepared dimensionality
/// **once**, then runs a branch-free inner loop. Comparing a kernel
/// against a block of a different dimensionality is a single
/// [`Error::DimensionMismatch`] for the whole gallery, mirroring the
/// scalar path's per-pair error (which the matcher maps to membership
/// `0` for every pair of the gallery anyway).
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    dim: usize,
}

impl Kernel {
    /// Prepares a kernel at dimensionality `dim`. [`Metric`] has one
    /// value, normalized L2, so the first argument selects nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `dim == 0`.
    pub fn prepare(_metric: Metric, dim: usize) -> Result<Kernel> {
        if dim == 0 {
            return Err(Error::InvalidParameter {
                name: "dim",
                reason: "kernel dimensionality must be at least 1".into(),
            });
        }
        Ok(Kernel { dim })
    }

    /// Membership probability `P = max_row sim(candidate, row)` over the
    /// block, folded from `0.0` exactly like the scalar gallery scan —
    /// bitwise identical to it. An empty block scores `0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the candidate or a
    /// non-empty block disagree with the prepared dimensionality.
    pub fn score_max(&self, candidate: &FeatureVector, block: &FeatureBlock) -> Result<f64> {
        if block.is_empty() {
            return Ok(0.0);
        }
        if candidate.dim() != self.dim {
            return Err(Error::DimensionMismatch {
                left: candidate.dim(),
                right: self.dim,
            });
        }
        if block.dim != self.dim {
            return Err(Error::DimensionMismatch {
                left: self.dim,
                right: block.dim,
            });
        }
        let x = candidate.components();
        let mut best = 0.0f64;
        let mut sims = [0.0; LANES];
        for (chunk, lanes) in block.lanes.chunks_exact(self.dim).enumerate() {
            self.score_chunk(x, lanes, &mut sims);
            let base = chunk * LANES;
            let rows = LANES.min(block.len - base);
            for &s in &sims[..rows] {
                best = best.max(s);
            }
        }
        Ok(best)
    }

    /// Scores one chunk of [`LANES`] rows into `sims`.
    ///
    /// The dimension loop is outer and strictly in index order; the row
    /// loop is inner over a stack array of independent accumulators.
    /// Each row's terms are therefore added in exactly the scalar
    /// sequence (bit-identical sums) while the compiler vectorizes
    /// across the lanes.
    #[inline]
    fn score_chunk(&self, x: &[f64], lanes: &[Lane64], sims: &mut [f64; LANES]) {
        let mut acc = [0.0f64; LANES];
        for (&a, lane) in x.iter().zip(lanes) {
            for (s, &b) in acc.iter_mut().zip(&lane.0) {
                let d = a - b;
                *s += d * d;
            }
        }
        for (out, &sq) in sims.iter_mut().zip(&acc) {
            *out = 1.0 - l2_distance_from_sq(sq, self.dim);
        }
    }
}

/// Finalizes a normalized L2 distance from a squared-difference sum —
/// the single definition shared by the scalar path and the block
/// kernel, so they can never drift.
#[inline]
#[must_use]
pub(crate) fn l2_distance_from_sq(sq: f64, dim: usize) -> f64 {
    (sq.sqrt() / (dim as f64).sqrt()).min(1.0)
}

/// Scalar reference distance over pre-validated equal-length slices —
/// the per-pair path [`FeatureVector::distance`] delegates to after its
/// dimension check. Kept in this module so the formula has exactly one
/// home.
#[must_use]
pub(crate) fn pair_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    l2_distance_from_sq(sq, a.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(v: &[f64]) -> FeatureVector {
        FeatureVector::new(v.to_vec()).unwrap()
    }

    fn block(rows: &[FeatureVector]) -> FeatureBlock {
        FeatureBlock::build("test", rows.iter()).unwrap()
    }

    /// Deterministic pseudo-random rows without pulling `rand` in.
    fn rows(dim: usize, n: usize, seed: u64) -> Vec<FeatureVector> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| fv(&(0..dim).map(|_| next()).collect::<Vec<f64>>()))
            .collect()
    }

    #[test]
    fn block_scores_match_scalar_bitwise() {
        for dim in [1, 2, 7, 8, 9, 64] {
            let gallery = rows(dim, 21, 0xE0 + dim as u64);
            let cand = rows(dim, 1, 99)[0].clone();
            let b = block(&gallery);
            let k = Kernel::prepare(Metric::NormalizedL2, dim).unwrap();
            // Per row: a one-row block scores the row's similarity,
            // folded from 0.0.
            let sims: Vec<f64> = (gallery.iter())
                .map(|row| cand.similarity(row).unwrap())
                .collect();
            for (row, sim) in gallery.iter().zip(&sims) {
                let one = k.score_max(&cand, &block(std::slice::from_ref(row)));
                let want = 0.0f64.max(*sim).to_bits();
                assert_eq!(one.unwrap().to_bits(), want, "dim={dim}");
            }
            let max = k.score_max(&cand, &b).unwrap();
            let scalar_max = sims.iter().fold(0.0f64, |a, &s| a.max(s));
            assert_eq!(scalar_max.to_bits(), max.to_bits());
        }
    }

    #[test]
    fn rows_read_back_the_packed_components() {
        for (dim, n) in [(1, 1), (3, 8), (7, 9), (64, 21)] {
            let gallery = rows(dim, n, 0x70 + dim as u64);
            let b = block(&gallery);
            for (i, r) in gallery.iter().enumerate() {
                let back: Vec<u64> = b.row(i).map(f64::to_bits).collect();
                let want: Vec<u64> = r.components().iter().map(|c| c.to_bits()).collect();
                assert_eq!(back, want, "dim={dim} row={i}");
            }
        }
        let padded = block(&rows(2, 3, 5));
        assert!(std::panic::catch_unwind(|| padded.row(3).count()).is_err());
    }

    #[test]
    fn mismatched_gallery_fails_once_with_the_gallery_id() {
        let err = FeatureBlock::build("cell-17@t3", [&fv(&[0.1, 0.2]), &fv(&[0.3])]).unwrap_err();
        match &err {
            Error::GalleryDimensionMismatch {
                gallery,
                expected,
                found,
                row,
            } => {
                assert_eq!(gallery, "cell-17@t3");
                assert_eq!((*expected, *found, *row), (2, 1, 1));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("cell-17@t3"));
    }

    #[test]
    fn empty_block_scores_zero_membership() {
        let b = FeatureBlock::build("empty", std::iter::empty::<&FeatureVector>()).unwrap();
        assert!(b.is_empty());
        let k = Kernel::prepare(Metric::NormalizedL2, 4).unwrap();
        let cand = fv(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(k.score_max(&cand, &b).unwrap(), 0.0);
    }

    #[test]
    fn dimension_mismatch_is_reported_once_per_gallery() {
        let b = block(&rows(3, 5, 1));
        let k = Kernel::prepare(Metric::NormalizedL2, 4).unwrap();
        let cand = fv(&[0.1, 0.2, 0.3, 0.4]);
        assert!(matches!(
            k.score_max(&cand, &b),
            Err(Error::DimensionMismatch { left: 4, right: 3 })
        ));
        assert!(Kernel::prepare(Metric::NormalizedL2, 0).is_err());
    }
}
