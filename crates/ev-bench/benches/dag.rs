//! Benchmarks the stage-DAG scheduler against the barriered engine and
//! writes the record to `results/BENCH_dag.json`.
//!
//! Two curves, mirroring `BENCH_exec`:
//!
//! * **wall** — real elapsed time of [`dag_match`] at 1/2/4 threads on
//!   *this* machine, with a byte-identity assertion across all three
//!   (the report must be a pure function of the inputs, never of the
//!   thread count). `host_parallelism` is printed first so a flat curve
//!   on a single-core host is not misread as a regression.
//! * **virtual** — the deterministic makespan of the `R`-round splitter
//!   shape ([`round_pipeline_shape`]) priced two ways on the same work:
//!   [`DagSpec::virtual_makespan`] lets round *r+1*'s snapshot scan
//!   overlap round *r*'s signature/merge work, while
//!   [`DagSpec::barriered_makespan`] models the classic stage-at-a-time
//!   engine. The ratio is the round-overlap speedup, independent of the
//!   host.
//!
//! Custom main (no criterion harness): the results must land in a JSON
//! record, so we drain [`Criterion::take_results`] ourselves.

use criterion::{BenchResult, Criterion};
use ev_datagen::{sample_targets, DatasetConfig, EvDataset};
use ev_mapreduce::DagConfig;
use ev_matching::dagflow::{dag_match, round_pipeline_shape};
use ev_matching::vfilter::VFilterConfig;
use ev_telemetry::Telemetry;
use serde::Serialize;
use std::path::Path;

/// One exported wall-clock measurement.
#[derive(Debug, Serialize)]
struct Entry {
    id: String,
    per_iter_ns: u64,
    iterations: u64,
}

impl From<BenchResult> for Entry {
    fn from(r: BenchResult) -> Self {
        Entry {
            id: r.id,
            per_iter_ns: u64::try_from(r.per_iter.as_nanos()).unwrap_or(u64::MAX),
            iterations: r.iterations,
        }
    }
}

/// One point of the deterministic virtual-makespan comparison.
#[derive(Debug, Serialize)]
struct OverlapPoint {
    rounds: usize,
    workers: usize,
    barriered_units: u64,
    overlapped_units: u64,
    overlap_speedup: f64,
}

/// The full `BENCH_dag.json` record.
#[derive(Debug, Serialize)]
struct Record {
    population: u64,
    duration: u64,
    targets: usize,
    /// `std::thread::available_parallelism()` on the benchmark host.
    /// Wall-clock scaling is bounded by this number; the overlap model
    /// is not.
    host_parallelism: usize,
    /// threads=1 report compared field-by-field against threads=2 and 4.
    byte_identical: bool,
    /// Round-overlap speedup of the 6-round splitter shape at 4 workers
    /// (barriered / overlapped virtual makespan; must be > 1).
    overlap_speedup_at_4_workers: f64,
    /// Wall-clock speedup of dag_match at 4 threads vs 1 on this host
    /// (≈1.0 when `host_parallelism` is 1).
    wall_speedup_at_4_threads: f64,
    overlap_curve: Vec<OverlapPoint>,
    wall_results: Vec<Entry>,
    note: &'static str,
}

fn per_iter_ns(results: &[Entry], id: &str) -> f64 {
    results
        .iter()
        .find(|e| e.id == id)
        .map(|e| e.per_iter_ns as f64)
        .expect("benchmark id present")
}

/// Representative virtual costs: snapshot scans dominate (they touch
/// every scenario at the timestamp), signature extraction shards four
/// ways, merge is a single cheap reducer.
fn overlap_point(rounds: usize, workers: usize) -> OverlapPoint {
    let dag = round_pipeline_shape(rounds, 32, 2, 4);
    let barriered_units = dag.barriered_makespan(workers);
    let overlapped_units = dag.virtual_makespan(workers);
    OverlapPoint {
        rounds,
        workers,
        barriered_units,
        overlapped_units,
        overlap_speedup: barriered_units as f64 / overlapped_units as f64,
    }
}

fn main() {
    let host_parallelism = ev_bench::announce_host_parallelism();

    let population = 200;
    let duration = 250;
    let n_targets = 40;
    let data = EvDataset::generate(&DatasetConfig {
        population,
        duration,
        ..DatasetConfig::default()
    })
    .expect("valid config");
    let targets = sample_targets(&data, n_targets, 1);
    let vconfig = VFilterConfig::default();
    let telemetry = Telemetry::disabled();

    let run = |threads: usize| {
        data.video.reset_usage();
        dag_match(
            &DagConfig::new(threads),
            &data.estore,
            &data.video,
            &targets,
            9,
            &vconfig,
            telemetry,
        )
        .expect("dag match succeeds")
    };

    // -- thread-count independence (the lineage-determinism invariant) --
    let reference = run(1);
    let byte_identical = [2usize, 4].iter().all(|&threads| {
        let wide = run(threads);
        reference.outcomes == wide.outcomes
            && reference.lists == wide.lists
            && reference.selected_scenarios == wide.selected_scenarios
            && reference.rounds == wide.rounds
    });
    assert!(byte_identical, "threads=2/4 diverged from threads=1");

    // -- wall-clock curve on this host ----------------------------------
    let mut c = Criterion::default();
    let mut group = c.benchmark_group("dag_match_wall");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("threads/{threads}"), |b| {
            b.iter(|| run(threads).outcomes.len());
        });
    }
    group.finish();

    // -- deterministic round-overlap model ------------------------------
    let overlap_curve: Vec<OverlapPoint> = [(2usize, 4usize), (4, 4), (6, 2), (6, 4), (10, 4)]
        .into_iter()
        .map(|(rounds, workers)| overlap_point(rounds, workers))
        .collect();
    let overlap_speedup_at_4_workers = overlap_curve
        .iter()
        .find(|p| p.rounds == 6 && p.workers == 4)
        .map(|p| p.overlap_speedup)
        .expect("6-round 4-worker point present");
    assert!(
        overlap_speedup_at_4_workers > 1.0,
        "round overlap must beat the barriered schedule, got {overlap_speedup_at_4_workers:.2}x"
    );

    let wall_results: Vec<Entry> = c.take_results().into_iter().map(Entry::from).collect();
    let record = Record {
        population,
        duration,
        targets: n_targets,
        host_parallelism,
        byte_identical,
        overlap_speedup_at_4_workers,
        wall_speedup_at_4_threads: per_iter_ns(&wall_results, "dag_match_wall/threads/1")
            / per_iter_ns(&wall_results, "dag_match_wall/threads/4"),
        overlap_curve,
        wall_results,
        note: "wall speedup is bounded by host_parallelism; the overlap curve is the \
               host-independent round-pipelining model (see DESIGN.md §11, EXPERIMENTS.md)",
    };

    for e in &record.wall_results {
        println!(
            "{:<40} {:>12} ns/iter  ({} iters)",
            e.id, e.per_iter_ns, e.iterations
        );
    }
    for p in &record.overlap_curve {
        println!(
            "overlap rounds={:<3} workers={:<2} barriered={:>6} overlapped={:>6} units  speedup {:.2}x",
            p.rounds, p.workers, p.barriered_units, p.overlapped_units, p.overlap_speedup
        );
    }
    println!(
        "byte_identical: {}   overlap speedup @6r/4w: {:.2}x   wall speedup @4: {:.2}x \
         (host has {} core(s))",
        record.byte_identical,
        record.overlap_speedup_at_4_workers,
        record.wall_speedup_at_4_threads,
        record.host_parallelism
    );

    // Anchor to the workspace-root results directory regardless of the
    // CWD cargo picked for the bench binary.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(dir.join("BENCH_dag.json"), json).expect("write BENCH_dag.json");
}
