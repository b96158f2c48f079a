//! A stage-DAG scheduler with partition lineage — the job API of the
//! parallel pipelines.
//!
//! The paper parallelizes EV-Matching on a 14-node Spark cluster (paper
//! §V), and Spark runs a job as a graph of stages. This workspace has
//! no Spark, so this crate reimplements the part of that model the
//! algorithms actually rely on (see DESIGN.md §2 and §7). There is
//! exactly one job API and one scheduler, [`DagSpec`] and
//! [`DagSpec::run`]: a graph of stages over numbered partitions, joined
//! by [`DepKind::Narrow`] or [`DepKind::Shuffle`] edges and run on real
//! `ev-exec` threads, with a host-independent
//! [`virtual_makespan`](DagSpec::virtual_makespan) model beside it.
//! Algorithm 3 (`ev_matching::dagflow`) and the parallel EDP baseline
//! (`ev_matching::edp::match_edp_parallel`, one partition per EID) are
//! both one `DagSpec` submission.
//!
//! On top of the happy path the scheduler handles the failure mode a
//! real cluster master must: a [`FaultPlan`] injects task failures as
//! real in-worker panics, a lost partition is retried from its lineage
//! (its compute closure over inputs that are still cached) up to
//! `max_attempts`, and exhaustion is typed
//! ([`JobError::TaskExhausted`] for an injected fault,
//! [`JobError::WorkerPanicked`] for a real panic). [`DagMetrics`]
//! reports per-run counters.
//!
//! The [`dag`] module docs carry a runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
mod error;
mod fault;

pub use dag::{DagConfig, DagMetrics, DagRun, DagSpec, DepKind, StageDep, StageId, TaskCtx};
pub use error::JobError;
pub use fault::FaultPlan;
