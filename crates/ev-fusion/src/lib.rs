//! Fused EV queries over matched identities.
//!
//! Matching is the means; *fusion* is the end the paper motivates:
//! "we are further able to fuse these two big and heterogeneous datasets,
//! and retrieve the E and V information for a person at the same time
//! with one single query" (§I).
//!
//! A [`FusedIndex`] is built from a [`MatchReport`](ev_matching::MatchReport)
//! and the two stores. It answers:
//!
//! * [`profile_by_eid`](FusedIndex::profile_by_eid) — one query, both
//!   sides: the electronic trail (every scenario that heard the device)
//!   and the visual sightings (every *processed* scenario that filmed
//!   the person).
//! * [`present_at`](FusedIndex::present_at) — spatiotemporal search:
//!   which fused identities were in a cell set during a time range,
//!   by electronic or visual evidence.
//! * [`encounters`](FusedIndex::encounters) — co-location analysis: who
//!   shared scenarios with a person of interest, how often.
//!
//! The paper's evaluation (§VI) stops at matching, so nothing here maps
//! to a figure; this crate reproduces the *application* layer §I
//! promises on top of the matched identities (see `DESIGN.md` §14,
//! "Beyond the paper"). Its one in-tree reader is `evmatch query`
//! (`--eid` for a profile with its encounters, `--cell` for presence);
//! the `crime_scene` and `universal_labeling` examples build their
//! lookups from the match report without it.
//!
//! Visual evidence only covers footage that has already been extracted
//! (extraction is the expensive operation the matcher minimizes); the
//! index never silently triggers new extraction work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod trail;

pub use index::{Encounter, FusedIdentity, FusedIndex, FusedProfile};
pub use trail::{ETrail, VSighting};
