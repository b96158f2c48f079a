//! A from-scratch MapReduce engine.
//!
//! The paper parallelizes EV-Matching with MapReduce on a 14-node Spark
//! cluster (paper §V). This workspace has no Spark, so this crate
//! reimplements the programming model the algorithms actually rely on
//! (see DESIGN.md §2): a deterministic, multi-threaded engine with the
//! four classic stages —
//!
//! 1. **split** — the input is chunked into fixed-size splits;
//! 2. **map** — map tasks run in parallel, emitting `(key, value)` pairs
//!    through an [`Emitter`]; the [`Backend`] decides whether "in
//!    parallel" means real work-stealing threads (`ev-exec`) or a
//!    deterministic virtual-time simulation of the cluster;
//! 3. **shuffle** — pairs are hash-partitioned by key, routed to their
//!    reduce partition, sorted and grouped (deterministically, regardless
//!    of task scheduling);
//! 4. **reduce** — reduce tasks aggregate each key's values in parallel.
//!
//! On top of the happy path the engine simulates the failure modes a real
//! cluster master must handle: injected task failures with bounded retry,
//! deterministic stragglers, and **speculative execution** that launches
//! backup attempts for straggling tasks and keeps whichever finishes
//! first. [`JobMetrics`] reports per-stage timings and counters.
//!
//! # Example
//!
//! ```
//! use ev_mapreduce::{ClusterConfig, Emitter, MapReduce, Mapper, Reducer};
//!
//! /// Classic word count.
//! struct Tokenize;
//! impl Mapper<&'static str> for Tokenize {
//!     type Key = String;
//!     type Value = u64;
//!     fn map(&self, line: &&'static str, out: &mut Emitter<String, u64>) {
//!         for w in line.split_whitespace() {
//!             out.emit(w.to_string(), 1);
//!         }
//!     }
//! }
//!
//! struct Sum;
//! impl Reducer<String, u64> for Sum {
//!     type Output = (String, u64);
//!     fn reduce(&self, key: &String, values: &[u64]) -> Vec<(String, u64)> {
//!         vec![(key.clone(), values.iter().sum())]
//!     }
//! }
//!
//! let engine = MapReduce::new(ClusterConfig::default());
//! let result = engine
//!     .run(vec!["a b a", "b c"], &Tokenize, &Sum)
//!     .unwrap();
//! assert_eq!(
//!     result.output,
//!     vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)],
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod config;
pub mod dag;
mod engine;
mod metrics;

pub use api::{Combiner, Emitter, HashPartitioner, Mapper, Partitioner, Reducer};
pub use config::{Backend, ClusterConfig, FaultPlan};
pub use dag::{DagConfig, DagMetrics, DagRun, DagSpec, DepKind, StageDep, StageId, TaskCtx};
pub use engine::{JobError, JobResult, MapReduce};
pub use metrics::JobMetrics;
