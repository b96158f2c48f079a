//! A from-scratch MapReduce engine on one stage-DAG scheduler.
//!
//! The paper parallelizes EV-Matching with MapReduce on a 14-node Spark
//! cluster (paper §V). This workspace has no Spark, so this crate
//! reimplements the programming model the algorithms actually rely on
//! (see DESIGN.md §2 and §7). There is exactly one scheduler,
//! [`DagSpec::run`]: a graph of stages over numbered partitions, run on
//! real `ev-exec` work-stealing threads with partition lineage,
//! injected-fault retry and a host-independent
//! [`virtual_makespan`](DagSpec::virtual_makespan) model. A
//! [`MapReduce`] job is the two-stage case —
//!
//! 1. **split** — the input is chunked into fixed-size splits;
//! 2. **map** — one partition per split runs the [`Mapper`] (and the
//!    optional [`Combiner`]), emitting `(key, value)` pairs through an
//!    [`Emitter`] and pre-bucketing them with the [`Partitioner`];
//! 3. **shuffle** — a [`DepKind::Shuffle`] edge: every reduce partition
//!    merges its bucket from every map partition in map-task order and
//!    groups by key (deterministically, regardless of task scheduling);
//! 4. **reduce** — each partition's [`Reducer`] aggregates its keys.
//!
//! On top of the happy path the scheduler handles the failure mode a
//! real cluster master must: a [`FaultPlan`] injects task failures as
//! real in-worker panics, lost partitions are retried from lineage up
//! to `max_attempts`, and exhaustion is typed
//! ([`JobError::TaskExhausted`] for an injected fault,
//! [`JobError::WorkerPanicked`] for a real panic). [`JobMetrics`]
//! reports per-job counters and timings.
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
pub use config::{ClusterConfig, FaultPlan};
pub use dag::{DagConfig, DagMetrics, DagRun, DagSpec, DepKind, StageDep, StageId, TaskCtx};
pub use engine::{JobError, JobResult, MapReduce};
pub use metrics::JobMetrics;
