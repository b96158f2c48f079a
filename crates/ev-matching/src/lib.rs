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
//!   paper §IV-B2 over one similarity, normalized L2 (Eq. 1), and pick
//!   the majority winner, excluding already-matched VIDs ("VIDs that
//!   have been already matched may help distinguishing those remain
//!   unmatched", §IV-A). Every caller goes through one context,
//!   [`vfilter::VStage`] (footage, gallery cache, telemetry handle),
//!   and its two methods; there is no setting to choose.
//! * [`refine`] — **matching refining** (Algorithm 2): rerun splitting and
//!   filtering for the EIDs whose match was unacceptable, to cope with
//!   missing EIDs/VIDs. Its loop is the one set-splitting pipeline, and
//!   [`EvMatcher`] is its one door.
//! * [`edp`] — the **EDP baseline** from Teng et al. \[24\]: per-EID
//!   two-stage E-filtering and V-identification in the paper's parallel
//!   form (one EID per task, as two parallel maps), one function on any
//!   pool — one worker is the sequential run.
//! * [`dagflow`] — the parallelization (paper §V, Algorithm 3): each
//!   wave of the pipeline's walk scored as **one [`ev_dag::par_map`]**
//!   of 4 pinned partitions. The [`MatchReport`] is the sequential
//!   pipeline's at every thread count.
//! * [`matcher`] — the high-level [`EvMatcher`] API
//!   with elastic matching sizes: single EID, a requested set (inline or
//!   on a pool), or the universal dataset.
//!
//! # Quick start
//!
//! See `examples/quickstart.rs` at the workspace root for an end-to-end
//! run against a generated dataset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dagflow;
pub mod edp;
pub mod matcher;
pub mod practical;
pub mod refine;
pub mod setsplit;
mod types;
pub mod vfilter;

pub use matcher::{EvMatcher, MatcherConfig};
pub use types::{MatchOutcome, MatchReport, ScenarioList, StageTimings};
