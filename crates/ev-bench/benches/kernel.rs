//! Benchmarks the similarity kernel of `DESIGN.md` §9 — the per-pair
//! scalar reference against the SoA block kernel — and writes the
//! record to `results/BENCH_kernel.json`.
//!
//! Workload: a generated appearance gallery packed once into a
//! [`FeatureBlock`], scanned by a batch of noisy candidate descriptors,
//! at every metric × dimension in the grid. What is timed is the
//! steady-state cost of one candidate-vs-row comparison
//! (`ns/comparison`): total scan time over `candidates × rows`,
//! best-of-`REPS`. The gallery build is paid outside the timed region
//! for the block path — exactly how the matcher amortizes it through
//! the gallery cache — and the scalar path has no build to pay.
//!
//! Before timing, every candidate's block maximum is asserted **bitwise
//! equal** to the scalar fold, so the speedups below are speedups of
//! the same answer, not of a looser one.
//!
//! Acceptance (`ISSUE` / CI): the block kernel must be at least 2×
//! faster than the scalar path per comparison at every dim ≥ 64.
//!
//! `EVM_BENCH_SHORT=1` (set by CI) shrinks reps and the candidate batch
//! so the smoke run stays in CI budget; the JSON is emitted either way.
//!
//! Custom main (no criterion harness): the record must land in JSON.

use ev_core::feature::{FeatureVector, Metric};
use ev_core::kernel::Kernel;
use ev_core::PersonId;
use ev_vision::AppearanceGallery;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

const ROWS: u64 = 512;
const DIMS: [usize; 3] = [16, 64, 256];
const METRICS: [Metric; 3] = [Metric::NormalizedL2, Metric::NormalizedL1, Metric::Cosine];
const SEED: u64 = 42;
/// The CI acceptance bar: block vs scalar per-comparison speedup at
/// every dim ≥ [`GATE_MIN_DIM`].
const GATE_SPEEDUP: f64 = 2.0;
const GATE_MIN_DIM: usize = 64;

#[derive(Debug, Serialize)]
struct Cell {
    metric: String,
    dim: usize,
    rows: u64,
    candidates: usize,
    scalar_ns_per_cmp: f64,
    block_ns_per_cmp: f64,
    /// `scalar / block`; gated at ≥ 2 for dim ≥ 64.
    block_speedup: f64,
    /// Always true — asserted, not sampled — but recorded so the JSON
    /// is self-describing.
    bitwise_equal: bool,
}

#[derive(Debug, Serialize)]
struct Record {
    rows: u64,
    seed: u64,
    reps: usize,
    host_parallelism: usize,
    short_mode: bool,
    gate_speedup: f64,
    gate_min_dim: usize,
    cells: Vec<Cell>,
    note: &'static str,
}

fn timed(f: &mut impl FnMut() -> f64) -> u64 {
    let t = Instant::now();
    let sink = f();
    std::hint::black_box(sink);
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Best-of-`reps` for both paths with the reps **interleaved**
/// (scalar, block, scalar, ...): a noise spike on a busy CI host then
/// lands on both paths equally instead of skewing one side of the
/// speedup ratio.
fn best_of_interleaved(
    reps: usize,
    mut scalar: impl FnMut() -> f64,
    mut block: impl FnMut() -> f64,
) -> (u64, u64) {
    let mut best = (u64::MAX, u64::MAX);
    for _ in 0..reps {
        best.0 = best.0.min(timed(&mut scalar));
        best.1 = best.1.min(timed(&mut block));
    }
    best
}

fn main() {
    let host_parallelism = ev_bench::announce_host_parallelism();
    let short = std::env::var_os("EVM_BENCH_SHORT").is_some();
    // Short mode trims the candidate batch, not the rep count: the gate
    // compares best-of-reps times, and on a busy 1-core CI host
    // best-of-3 is close enough to the 2x bar to flake.
    let (reps, n_candidates) = if short { (5, 24) } else { (7, 48) };

    let mut cells = Vec::new();
    for dim in DIMS {
        let gallery = AppearanceGallery::generate(ROWS, dim, SEED + dim as u64);
        let block = gallery.to_block();
        let truth: Vec<&FeatureVector> = (0..ROWS)
            .map(|p| gallery.feature_of(PersonId::new(p)).expect("in range"))
            .collect();
        // Candidates are noisy observations of real rows, so the scans
        // see realistic near/far score spreads.
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ dim as u64);
        let candidates: Vec<FeatureVector> = (0..n_candidates)
            .map(|i| {
                gallery
                    .observe(PersonId::new(i as u64 * 7 % ROWS), 0.1, &mut rng)
                    .expect("in range")
            })
            .collect();

        for metric in METRICS {
            let kernel = Kernel::prepare(metric, dim).expect("prepare kernel");

            // Bitwise-equivalence check first: the timed paths must
            // return the same bits before their speeds mean anything.
            for cand in &candidates {
                let scalar = truth
                    .iter()
                    .map(|row| cand.similarity(row, metric).expect("uniform dims"))
                    .fold(0.0f64, f64::max);
                let batch = kernel.score_max(cand, &block).expect("block scan");
                assert_eq!(scalar.to_bits(), batch.to_bits(), "{metric:?} dim {dim}");
            }

            let comparisons = (candidates.len() as u64 * ROWS) as f64;
            let (scalar_ns, block_ns) = best_of_interleaved(
                reps,
                || {
                    let mut acc = 0.0;
                    for cand in &candidates {
                        acc += truth
                            .iter()
                            .map(|row| cand.similarity(row, metric).expect("uniform dims"))
                            .fold(0.0f64, f64::max);
                    }
                    acc
                },
                || {
                    let mut acc = 0.0;
                    for cand in &candidates {
                        acc += kernel.score_max(cand, &block).expect("block scan");
                    }
                    acc
                },
            );

            let scalar_per = scalar_ns as f64 / comparisons;
            let block_per = block_ns as f64 / comparisons;
            cells.push(Cell {
                metric: format!("{metric:?}"),
                dim,
                rows: ROWS,
                candidates: candidates.len(),
                scalar_ns_per_cmp: scalar_per,
                block_ns_per_cmp: block_per,
                block_speedup: scalar_per / block_per,
                bitwise_equal: true,
            });
        }
    }

    for c in &cells {
        println!(
            "{:>12} dim {:>3}: scalar {:>7.2} ns/cmp, block {:>6.2} ({:>5.2}x)",
            c.metric, c.dim, c.scalar_ns_per_cmp, c.block_ns_per_cmp, c.block_speedup
        );
    }
    for c in &cells {
        assert!(
            c.dim < GATE_MIN_DIM || c.block_speedup >= GATE_SPEEDUP,
            "{} dim {}: block kernel must be >= {GATE_SPEEDUP}x over scalar (got {:.2}x)",
            c.metric,
            c.dim,
            c.block_speedup
        );
    }

    let record = Record {
        rows: ROWS,
        seed: SEED,
        reps,
        host_parallelism,
        short_mode: short,
        gate_speedup: GATE_SPEEDUP,
        gate_min_dim: GATE_MIN_DIM,
        cells,
        note: "ns per candidate-vs-row comparison, best-of-reps full-gallery scans; \
               block maxima are asserted bitwise equal to the scalar fold before timing",
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(dir.join("BENCH_kernel.json"), json).expect("write BENCH_kernel.json");
}
