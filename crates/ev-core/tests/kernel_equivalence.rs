//! Property suite for the similarity kernel (DESIGN.md §9): the block
//! path must reproduce the scalar per-pair path **bitwise** across all
//! three metrics and arbitrary dimensionalities.

use ev_core::feature::{FeatureVector, Metric};
use ev_core::kernel::{FeatureBlock, Kernel};
use proptest::prelude::*;

const METRICS: [Metric; 3] = [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine];

fn metric_of(pick: u8) -> Metric {
    METRICS[pick as usize % METRICS.len()]
}

/// A gallery of `n` rows of dimension `dim`, plus a candidate: random
/// components in `[0, 1]`, with the degenerate all-zero and all-one
/// rows mixed in (they exercise the cosine zero-norm guard and the
/// `min(1.0)` clamp of the L metrics).
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

    /// Batch block scores are bitwise the scalar per-pair similarities,
    /// for every metric, at random dims in `1..512`.
    #[test]
    fn block_is_bitwise_equal_to_scalar(
        dim in 1usize..512,
        n in 1usize..24,
        raw in prop::collection::vec(-0.25f64..1.25, 64..256),
        pick in any::<u32>(),
    ) {
        let (rows, cand) = world(dim, n, &raw);
        let metric = metric_of(pick as u8);
        let block = FeatureBlock::build("prop", rows.iter()).expect("uniform dims");
        let kernel = Kernel::prepare(metric, dim).expect("dim >= 1");
        let mut sims = vec![0.0; rows.len()];
        kernel.score_into(&cand, &block, &mut sims).expect("shapes agree");
        for (row, sim) in rows.iter().zip(&sims) {
            let scalar = cand.similarity(row, metric).expect("same dim");
            prop_assert_eq!(scalar.to_bits(), sim.to_bits());
        }
        // The membership fold (max from 0.0) agrees bitwise too.
        let scalar_max = sims.iter().fold(0.0f64, |a, &s| a.max(s));
        let max = kernel.score_max(&cand, &block).expect("shapes agree");
        prop_assert_eq!(scalar_max.to_bits(), max.to_bits());
    }
}
