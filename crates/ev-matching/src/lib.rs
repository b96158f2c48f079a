//! The EV-Matching algorithms (the paper's primary contribution).
//!
//! Given an [`EScenarioStore`](ev_store::EScenarioStore) (cheap electronic
//! snapshots) and a [`VideoStore`](ev_store::VideoStore) (expensive visual
//! footage), this crate matches each requested EID to the VID of the
//! person carrying it:
//!
//! * [`setsplit`] — **EID set splitting** (paper Algorithm 1 and its
//!   vague-zone variant, one loop over one
//!   [`EidCover`](ev_core::partition::EidCover)): refine a cover of the
//!   requested EIDs with E-Scenarios until every EID is alone in a block,
//!   recording the *effective* scenarios. Far fewer V-Scenarios are
//!   touched than matching each EID separately, because one scenario
//!   helps distinguish every EID it contains.
//! * [`practical`] — the entry point of that loop for drifting EIDs
//!   (paper §IV-C2, Theorem 4.3): vague members stay on both sides of a
//!   split and lists use inclusive appearances only.
//! * [`vfilter`] — **VID filtering**: in the V-Scenarios of an EID's
//!   recorded list, score every VID by the probability product of
//!   paper §IV-B2 and pick the majority winner, excluding already-matched
//!   VIDs ("VIDs that have been already matched may help distinguishing
//!   those remain unmatched", §IV-A). Every caller goes through one
//!   context, [`vfilter::VStage`] (footage, configuration, gallery
//!   cache, telemetry handle), and its three methods.
//! * [`anytime`] — **anytime VID filtering**
//!   ([`VStage::filter_partial`](vfilter::VStage::filter_partial)): the
//!   same majority vote over the same candidate model with certified
//!   early termination — cheap similarity bounds settle per-scenario
//!   votes without exact scoring, the scan stops once no unscored
//!   scenario can overturn the leader, and callers get a
//!   [`PartialMatchOutcome`] whose vote-share interval brackets the
//!   exact answer at any stopping point.
//! * [`refine`] — **matching refining** (Algorithm 2): rerun splitting and
//!   filtering for the EIDs whose match was unacceptable, to cope with
//!   missing EIDs/VIDs.
//! * [`edp`] — the **EDP baseline** from Teng et al. \[24\]: per-EID
//!   two-stage E-filtering and V-identification, with the paper's
//!   parallel adaptation (one EID per task, as one stage DAG).
//! * [`dagflow`] — the parallelization (paper §V, Algorithm 3) of both
//!   stages: every splitting round (shuffle by EID, then by membership
//!   signature) plus parallel VID filtering as **one stage-DAG
//!   submission** on the lineage-tracking scheduler in
//!   [`ev_dag::dag`]. Splitting rounds overlap instead of
//!   barriering, a lost worker costs only the partitions it was
//!   computing, and the [`MatchReport`] is byte-identical at every
//!   thread count.
//! * [`incremental`] — partition maintenance over a growing corpus:
//!   feed appended scenarios to the live state of a chronological split
//!   instead of re-splitting.
//! * [`matcher`] — the high-level [`EvMatcher`] API
//!   with elastic matching sizes: single EID, a requested set, or the
//!   universal dataset.
//!
//! # Quick start
//!
//! See `examples/quickstart.rs` at the workspace root for an end-to-end
//! run against a generated dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod anytime;
pub mod dagflow;
pub mod edp;
pub mod incremental;
pub mod matcher;
pub mod practical;
pub mod refine;
pub mod setsplit;
mod types;
pub mod vfilter;

pub use anytime::{AnytimeConfig, PartialMatchOutcome};
pub use matcher::{EvMatcher, MatcherConfig};
pub use types::{MatchOutcome, MatchReport, ScenarioList, StageTimings};
