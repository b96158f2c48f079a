//! A stage-DAG scheduler with partition lineage — the job API of the
//! parallel pipelines, and the worker pool it runs on.
//!
//! The paper parallelizes EV-Matching on a 14-node Spark cluster (paper
//! §V), and Spark runs a job as a graph of stages. This workspace has
//! no Spark, so this crate reimplements the part of that model the
//! algorithms actually rely on (see DESIGN.md §2 and §7). There is
//! exactly one job API and one scheduler, [`DagSpec`] and
//! [`DagSpec::run`]: a graph of stages over numbered partitions, joined
//! by [`DepKind::Narrow`] or [`DepKind::Shuffle`] edges and run on the
//! real threads of the crate's private FIFO pool (`pool.rs`: one shared
//! queue, scoped workers, per-task panic isolation), with a
//! host-independent [`virtual_makespan`](DagSpec::virtual_makespan)
//! model beside it. Algorithm 3 (`ev_matching::dagflow`) and the
//! parallel EDP baseline (`ev_matching::edp::match_edp_parallel`, one
//! partition per EID) are both one `DagSpec` submission.
//!
//! The [`dag`] module docs carry the lineage and recovery model
//! ([`FaultPlan`], [`JobError`], [`DagMetrics`]) and a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
mod error;
mod fault;
mod pool;

pub use dag::{DagConfig, DagMetrics, DagRun, DagSpec, DepKind, StageDep, StageId, TaskCtx};
pub use error::JobError;
pub use fault::FaultPlan;

// The pool's tests sit at the crate root, where they sat in the crate
// the pool came from, so their ids survive the merge.
#[cfg(test)]
mod tests;
