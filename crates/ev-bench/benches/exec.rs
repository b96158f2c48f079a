//! Records the deterministic virtual-time scaling curve of the
//! MapReduce engine in `results/BENCH_exec.json`.
//!
//! The curve is `JobMetrics::virtual_makespan_units` of one job — the
//! scheduler's `DagSpec::virtual_makespan` of the job's two-stage spec
//! — which models the paper's Figure 9 cluster experiment in virtual
//! time units (one per task): it is independent of the host, and it is
//! where the ≥2× speedup at 4 workers is asserted. Wall-clock scaling
//! of the one real-thread pipeline (`dag_match`) is `benches/dag.rs`'s
//! record.

use ev_mapreduce::{ClusterConfig, Emitter, FaultPlan, MapReduce, Mapper, Reducer};
use serde::Serialize;
use std::path::Path;

/// One point of the deterministic virtual-makespan curve.
#[derive(Debug, Serialize)]
struct VirtualPoint {
    workers: usize,
    makespan_units: u64,
    speedup_vs_1: f64,
}

/// The full `BENCH_exec.json` record.
#[derive(Debug, Serialize)]
struct Record {
    /// `std::thread::available_parallelism()` on the benchmark host
    /// (recorded like every bench header; the virtual curve does not
    /// depend on it).
    host_parallelism: usize,
    /// Deterministic virtual-cluster speedup at 4 workers vs 1
    /// (virtual makespan ratio; the acceptance bar is ≥ 2).
    virtual_speedup_at_4_workers: f64,
    virtual_curve: Vec<VirtualPoint>,
    note: &'static str,
}

// -- the virtual-cluster workload (Figure 9 model) ----------------------

struct Tokenize;
impl Mapper<String> for Tokenize {
    type Key = String;
    type Value = u64;
    fn map(&self, line: &String, out: &mut Emitter<String, u64>) {
        for w in line.split_whitespace() {
            out.emit(w.to_string(), 1);
        }
    }
}

struct Sum;
impl Reducer<String, u64> for Sum {
    type Output = (String, u64);
    fn reduce(&self, key: &String, values: &[u64]) -> Vec<(String, u64)> {
        vec![(key.clone(), values.iter().sum())]
    }
}

fn corpus(lines: usize) -> Vec<String> {
    (0..lines)
        .map(|i| format!("alpha{} beta{} shared", i % 97, i % 31))
        .collect()
}

fn virtual_makespan(workers: usize) -> u64 {
    let cfg = ClusterConfig {
        workers,
        reduce_partitions: 4,
        split_size: 1,
        faults: FaultPlan::default(),
    };
    MapReduce::new(cfg)
        .run(corpus(200), &Tokenize, &Sum)
        .expect("healthy cluster")
        .metrics
        .virtual_makespan_units
}

fn main() {
    let host_parallelism = ev_bench::announce_host_parallelism();

    let m1 = virtual_makespan(1);
    let virtual_curve: Vec<VirtualPoint> = [1usize, 2, 4, 8, 14]
        .into_iter()
        .map(|workers| {
            let makespan_units = virtual_makespan(workers);
            VirtualPoint {
                workers,
                makespan_units,
                speedup_vs_1: m1 as f64 / makespan_units as f64,
            }
        })
        .collect();
    let virtual_speedup_at_4_workers = virtual_curve
        .iter()
        .find(|p| p.workers == 4)
        .map(|p| p.speedup_vs_1)
        .expect("4-worker point present");
    assert!(
        virtual_speedup_at_4_workers >= 2.0,
        "virtual speedup at 4 workers must be >= 2x, got {virtual_speedup_at_4_workers:.2}x"
    );

    let record = Record {
        host_parallelism,
        virtual_speedup_at_4_workers,
        virtual_curve,
        note: "the host-independent Figure 9 cluster model (see EXPERIMENTS.md); \
               real-thread wall scaling is BENCH_dag.json",
    };

    for p in &record.virtual_curve {
        println!(
            "virtual workers={:<3} makespan={:>8} units  speedup {:.2}x",
            p.workers, p.makespan_units, p.speedup_vs_1
        );
    }
    println!(
        "virtual speedup @4: {:.2}x",
        record.virtual_speedup_at_4_workers
    );

    // Anchor to the workspace-root results directory regardless of the
    // CWD cargo picked for the bench binary.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let json = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(dir.join("BENCH_exec.json"), json).expect("write BENCH_exec.json");
}
