//! The job API of the parallel pipelines: one parallel map,
//! [`par_map`], on scoped worker threads — the workspace's stand-in for
//! the paper's Spark cluster (§V, DESIGN.md §7). The [`dag`] module docs
//! carry the claim, start-gate and stop model ([`JobError`]) and a
//! runnable example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
mod error;

pub use dag::par_map;
pub use error::JobError;

// The worker tests sit at the crate root, where the pool's sat, so
// their ids survive.
#[cfg(test)]
mod tests;
