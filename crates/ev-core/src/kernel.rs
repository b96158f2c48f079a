//! Hardware-fast similarity kernel: SoA gallery blocks and batch
//! scoring (DESIGN.md §9).
//!
//! Paper Eq. (1) makes every match decision a stream of
//! candidate-vs-gallery distance evaluations. The per-pair
//! [`FeatureVector::distance`] path re-checks dimensions, re-dispatches
//! on the metric and pointer-chases a `Vec<f64>` per gallery row on
//! every single comparison. This module hoists all of that out of the
//! inner loop:
//!
//! * [`FeatureBlock`] — a gallery packed once into contiguous,
//!   64-byte-aligned structure-of-arrays `f64` lanes, validated once
//!   at build time so a mismatched gallery fails loudly with the
//!   gallery id in the error.
//! * [`Kernel`] — a prepared `(metric, dim)` pair whose batch methods
//!   score a candidate against a whole block in one streaming pass with
//!   branch-free, autovectorizer-friendly inner loops.
//!
//! # Bit-equivalence contract
//!
//! The exact `f64` block path reproduces the scalar per-pair path
//! **bitwise**, not just to a tolerance. The trick is vectorizing
//! *across gallery rows* instead of across dimensions: the block stores
//! rows in lanes of [`LANES`] and the inner loop walks dimensions in
//! index order, keeping one accumulator per row. Every row's sum is
//! therefore accumulated in exactly the sequential order the scalar
//! `zip(..).sum()` uses — same additions, same order, same rounding,
//! same bits — while the compiler lifts the independent per-row
//! accumulators into SIMD lanes. No `mul_add`/FMA enters the path
//! (fused rounding would change bits).

use crate::error::{Error, Result};
use crate::feature::{FeatureVector, Metric};

/// Gallery rows per `f64` lane group: 8 × 8 bytes = one 64-byte line.
pub const LANES: usize = 8;

/// One cache-line-sized group of `f64` row values: the components of
/// [`LANES`] consecutive gallery rows at a single dimension index.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Lane64([f64; LANES]);

/// A gallery packed into structure-of-arrays blocks.
///
/// Rows are grouped into chunks of [`LANES`]; within a chunk, the lane
/// at index `chunk * dim + j` holds dimension `j` of all [`LANES`] rows
/// side by side. A candidate-vs-gallery pass therefore walks each
/// buffer exactly once, front to back, with unit stride — no per-row
/// heap hop, no per-pair dimension check. Rows past `len` in the last
/// chunk are zero padding; their scores are computed and discarded.
///
/// Built once per gallery (the matcher memoizes it per gallery-cache
/// entry); dimension validation happens here, so a gallery whose rows
/// disagree on dimensionality fails **once, loudly, with the gallery id
/// in the error** instead of failing per pair inside the hot loop.
#[derive(Debug, Clone)]
pub struct FeatureBlock {
    dim: usize,
    len: usize,
    /// Exact values, `ceil(len / LANES) * dim` lanes.
    lanes: Vec<Lane64>,
    /// Per-row squared norm (`Σ c²`, accumulated in dimension order —
    /// the same order the scalar cosine path uses), for `Cosine`.
    norms_sq: Vec<f64>,
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
                norms_sq: Vec::new(),
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

        // Dimension-ordered accumulation: bitwise the same squared norm
        // the scalar cosine path computes per pair.
        let norms_sq: Vec<f64> = rows
            .iter()
            .map(|r| r.components().iter().map(|c| c * c).sum())
            .collect();

        Ok(FeatureBlock {
            dim,
            len,
            lanes,
            norms_sq,
        })
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
}

/// A prepared `(metric, dim)` scoring kernel.
///
/// Preparation is where per-call validation lives: every batch method
/// checks the candidate and block against the prepared dimensionality
/// **once**, then runs a branch-free inner loop. Comparing a kernel
/// against a block of a different dimensionality is a single
/// [`Error::DimensionMismatch`] for the whole gallery, mirroring the
/// scalar path's per-pair error (which the matcher maps to membership
/// `0` for every pair of the gallery anyway).
#[derive(Debug, Clone, Copy)]
pub struct Kernel {
    metric: Metric,
    dim: usize,
}

impl Kernel {
    /// Prepares a kernel for `metric` at dimensionality `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `dim == 0`.
    pub fn prepare(metric: Metric, dim: usize) -> Result<Kernel> {
        if dim == 0 {
            return Err(Error::InvalidParameter {
                name: "dim",
                reason: "kernel dimensionality must be at least 1".into(),
            });
        }
        Ok(Kernel { metric, dim })
    }

    /// The prepared metric.
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The prepared dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Checks `candidate` and `block` against the prepared shape; the
    /// single validation point for every batch method.
    fn check(&self, candidate: &FeatureVector, block: &FeatureBlock) -> Result<()> {
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
        Ok(())
    }

    /// Scores `candidate` against every row of `block`, writing paper
    /// Eq. (1) similarities (`1 − dist`) into `out` in row order. Each
    /// value is bitwise identical to
    /// `candidate.similarity(&row, metric)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when the candidate or the
    /// block disagree with the prepared dimensionality, or when
    /// `out.len() != block.len()`. An empty block with an empty `out`
    /// is fine.
    pub fn score_into(
        &self,
        candidate: &FeatureVector,
        block: &FeatureBlock,
        out: &mut [f64],
    ) -> Result<()> {
        if out.len() != block.len {
            return Err(Error::DimensionMismatch {
                left: out.len(),
                right: block.len,
            });
        }
        if block.is_empty() {
            return Ok(());
        }
        self.check(candidate, block)?;
        let x = candidate.components();
        let x_norm_sq = cosine_norm_sq(self.metric, x);
        let mut sims = [0.0; LANES];
        for (chunk, lanes) in block.lanes.chunks_exact(self.dim).enumerate() {
            self.score_chunk(x, x_norm_sq, block, chunk, lanes, &mut sims);
            let base = chunk * LANES;
            let rows = LANES.min(block.len - base);
            out[base..base + rows].copy_from_slice(&sims[..rows]);
        }
        Ok(())
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
        self.check(candidate, block)?;
        let x = candidate.components();
        let x_norm_sq = cosine_norm_sq(self.metric, x);
        let mut best = 0.0f64;
        let mut sims = [0.0; LANES];
        for (chunk, lanes) in block.lanes.chunks_exact(self.dim).enumerate() {
            self.score_chunk(x, x_norm_sq, block, chunk, lanes, &mut sims);
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
    fn score_chunk(
        &self,
        x: &[f64],
        x_norm_sq: f64,
        block: &FeatureBlock,
        chunk: usize,
        lanes: &[Lane64],
        sims: &mut [f64; LANES],
    ) {
        let mut acc = [0.0f64; LANES];
        match self.metric {
            Metric::NormalizedL2 => {
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
            Metric::NormalizedL1 => {
                for (&a, lane) in x.iter().zip(lanes) {
                    for (s, &b) in acc.iter_mut().zip(&lane.0) {
                        *s += (a - b).abs();
                    }
                }
                for (out, &abs) in sims.iter_mut().zip(&acc) {
                    *out = 1.0 - l1_distance_from_abs(abs, self.dim);
                }
            }
            Metric::Cosine => {
                for (&a, lane) in x.iter().zip(lanes) {
                    for (s, &b) in acc.iter_mut().zip(&lane.0) {
                        *s += a * b;
                    }
                }
                let base = chunk * LANES;
                for (r, (out, &dot)) in sims.iter_mut().zip(&acc).enumerate() {
                    let nb_sq = block.norms_sq.get(base + r).copied().unwrap_or(0.0);
                    *out = 1.0 - cosine_distance_from_parts(dot, x_norm_sq, nb_sq);
                }
            }
        }
    }
}

/// Finalizes a normalized L2 distance from a squared-difference sum —
/// the single definition shared by the scalar path, the block kernel
/// and the anytime box bound, so they can never drift.
#[inline]
#[must_use]
pub fn l2_distance_from_sq(sq: f64, dim: usize) -> f64 {
    (sq.sqrt() / (dim as f64).sqrt()).min(1.0)
}

/// Finalizes a normalized L1 distance from an absolute-difference sum.
#[inline]
#[must_use]
pub fn l1_distance_from_abs(abs: f64, dim: usize) -> f64 {
    (abs / dim as f64).min(1.0)
}

/// Finalizes a cosine distance from `Σ a·b`, `Σ a²` and `Σ b²`.
///
/// This is where the zero-norm bugfix lives: the guard is on an
/// **exactly zero squared norm** — only the true zero vector, which has
/// no direction, gets the neutral `0.5`. The old per-pair code compared
/// the *norm* against `f64::EPSILON`, silently snapping tiny-but-valid
/// vectors (norm ≤ ~2.2e-16) to `0.5` as well. A denormal-underflow
/// `0/0` (NaN) also resolves to the neutral value instead of poisoning
/// the clamp.
#[inline]
#[must_use]
pub fn cosine_distance_from_parts(dot: f64, a_norm_sq: f64, b_norm_sq: f64) -> f64 {
    if a_norm_sq == 0.0 || b_norm_sq == 0.0 {
        // A zero vector is equidistant from everything.
        return 0.5;
    }
    let cos = dot / (a_norm_sq.sqrt() * b_norm_sq.sqrt());
    if cos.is_nan() {
        // Both norms underflowed to a zero product: no direction left.
        0.5
    } else {
        ((1.0 - cos) / 2.0).clamp(0.0, 1.0)
    }
}

/// `Σ a²` when `metric` needs it (`Cosine`), else `0.0` — hoisted out
/// of the row loop so the candidate norm is computed once per gallery
/// instead of once per pair.
#[inline]
fn cosine_norm_sq(metric: Metric, x: &[f64]) -> f64 {
    match metric {
        Metric::Cosine => x.iter().map(|a| a * a).sum(),
        _ => 0.0,
    }
}

/// Scalar reference distance over pre-validated equal-length slices —
/// the per-pair path [`FeatureVector::distance`] delegates to after its
/// dimension check. Kept in this module so every metric formula has
/// exactly one home.
#[must_use]
pub fn pair_distance(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let dim = a.len();
    match metric {
        Metric::NormalizedL2 => {
            let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            l2_distance_from_sq(sq, dim)
        }
        Metric::NormalizedL1 => {
            let abs: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
            l1_distance_from_abs(abs, dim)
        }
        Metric::Cosine => {
            let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na_sq: f64 = a.iter().map(|x| x * x).sum();
            let nb_sq: f64 = b.iter().map(|y| y * y).sum();
            cosine_distance_from_parts(dot, na_sq, nb_sq)
        }
    }
}

/// Distance lower bound from a point to an axis-aligned box
/// (`lo`/`hi` per dimension) — the anytime membership upper bound's
/// geometric core. Per dimension the gap is
/// `g = max(0, lo − x, x − hi)`; gaps finalize through the same
/// functions as exact distances, so `box_bound ≤ dist(x, y)` holds
/// **bitwise** for every `y` inside the box (subtraction, `max`,
/// ordered summation, `sqrt` and division are all monotone).
/// `Cosine` has no useful box bound and returns `0.0`.
#[must_use]
pub fn box_bound_distance(metric: Metric, x: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), lo.len());
    debug_assert_eq!(x.len(), hi.len());
    let dim = x.len();
    match metric {
        Metric::NormalizedL2 => {
            let sq: f64 = x
                .iter()
                .zip(lo.iter().zip(hi))
                .map(|(&x, (&l, &h))| {
                    let g = (l - x).max(x - h).max(0.0);
                    g * g
                })
                .sum();
            l2_distance_from_sq(sq, dim)
        }
        Metric::NormalizedL1 => {
            let abs: f64 = x
                .iter()
                .zip(lo.iter().zip(hi))
                .map(|(&x, (&l, &h))| (l - x).max(x - h).max(0.0))
                .sum();
            l1_distance_from_abs(abs, dim)
        }
        Metric::Cosine => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: [Metric; 3] = [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine];

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
            for m in METRICS {
                let k = Kernel::prepare(m, dim).unwrap();
                let mut out = vec![0.0; gallery.len()];
                k.score_into(&cand, &b, &mut out).unwrap();
                for (row, sim) in gallery.iter().zip(&out) {
                    let scalar = cand.similarity(row, m).unwrap();
                    assert_eq!(scalar.to_bits(), sim.to_bits(), "{m:?} dim={dim}");
                }
                let max = k.score_max(&cand, &b).unwrap();
                let scalar_max = out.iter().fold(0.0f64, |a, &s| a.max(s));
                assert_eq!(scalar_max.to_bits(), max.to_bits());
            }
        }
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
        k.score_into(&cand, &b, &mut []).unwrap();
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
        assert!(Kernel::prepare(Metric::Cosine, 0).is_err());
    }

    #[test]
    fn cosine_guard_fires_only_on_the_true_zero_vector() {
        // Tiny but valid: norm far below f64::EPSILON (the old guard's
        // snap threshold), yet a direction exists — similarity to
        // itself must be exactly 1.
        let tiny = FeatureVector::new(vec![1e-30, 0.0]).unwrap();
        assert_eq!(tiny.distance(&tiny, Metric::Cosine).unwrap(), 0.0);
        assert_eq!(tiny.similarity(&tiny, Metric::Cosine).unwrap(), 1.0);
        // The true zero vector still gets the neutral distance.
        let zero = fv(&[0.0, 0.0]);
        assert_eq!(zero.distance(&tiny, Metric::Cosine).unwrap(), 0.5);
        assert_eq!(zero.distance(&zero, Metric::Cosine).unwrap(), 0.5);
        // Denormal underflow (norm² underflows to 0) resolves to the
        // guard, not NaN.
        let denormal = FeatureVector::new(vec![1e-320, 0.0]).unwrap();
        let d = denormal.distance(&denormal, Metric::Cosine).unwrap();
        assert!(!d.is_nan());
    }

    #[test]
    fn box_bound_never_exceeds_any_in_box_distance() {
        let dim = 6;
        let gallery = rows(dim, 30, 21);
        let cand = rows(dim, 1, 22)[0].clone();
        let mut lo = gallery[0].components().to_vec();
        let mut hi = lo.clone();
        for g in &gallery[1..] {
            for ((l, h), &c) in lo.iter_mut().zip(hi.iter_mut()).zip(g.components()) {
                *l = l.min(c);
                *h = h.max(c);
            }
        }
        for m in METRICS {
            let bound = box_bound_distance(m, cand.components(), &lo, &hi);
            for g in &gallery {
                let d = cand.distance(g, m).unwrap();
                assert!(bound <= d, "{m:?}: bound {bound} > dist {d}");
            }
        }
    }
}
