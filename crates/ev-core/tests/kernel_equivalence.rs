//! Property suite for the similarity kernel (DESIGN.md §9): the block
//! path must reproduce the scalar per-pair normalized-L2 path
//! **bitwise** at arbitrary dimensionalities.

use ev_core::feature::{FeatureVector, Metric};
use ev_core::kernel::{FeatureBlock, Kernel};
use proptest::prelude::*;

/// A gallery of `n` rows of dimension `dim`, plus a candidate: random
/// components in `[0, 1]`, with the degenerate all-zero and all-one
/// rows mixed in (they exercise the distance's `min(1.0)` clamp).
fn world(dim: usize, n: usize, raw: &[f64]) -> (Vec<FeatureVector>, FeatureVector) {
    let mut it = raw.iter().copied().cycle();
    let mut rows: Vec<FeatureVector> = (0..n)
        .map(|_| FeatureVector::from_clamped((0..dim).map(|_| it.next().unwrap())))
        .collect();
    rows.push(FeatureVector::from_clamped(vec![0.0; dim]));
    rows.push(FeatureVector::from_clamped(vec![1.0; dim]));
    let cand = FeatureVector::from_clamped((0..dim).map(|_| it.next().unwrap()));
    (rows, cand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Block scores are bitwise the scalar per-pair similarities at
    /// random dims in `1..512`: each row alone in a one-row block, and
    /// the membership fold over the whole block.
    #[test]
    fn block_is_bitwise_equal_to_scalar(
        dim in 1usize..512,
        n in 1usize..24,
        raw in prop::collection::vec(-0.25f64..1.25, 64..256),
    ) {
        let (rows, cand) = world(dim, n, &raw);
        let kernel = Kernel::prepare(Metric::NormalizedL2, dim).expect("dim >= 1");
        let mut sims = Vec::with_capacity(rows.len());
        for row in &rows {
            let scalar = cand.similarity(row).expect("same dim");
            let one = FeatureBlock::build("row", [row]).expect("one row");
            let sim = kernel.score_max(&cand, &one).expect("shapes agree");
            prop_assert_eq!(0.0f64.max(scalar).to_bits(), sim.to_bits());
            sims.push(scalar);
        }
        // The membership fold (max from 0.0) agrees bitwise too.
        let block = FeatureBlock::build("prop", rows.iter()).expect("uniform dims");
        let scalar_max = sims.iter().fold(0.0f64, |a, &s| a.max(s));
        let max = kernel.score_max(&cand, &block).expect("shapes agree");
        prop_assert_eq!(scalar_max.to_bits(), max.to_bits());
    }
}
