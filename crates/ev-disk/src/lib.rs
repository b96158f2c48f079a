//! Persistent segmented storage for EV-Matching corpora.
//!
//! The paper's pipelines assume the E-data and the video corpus are
//! simply *there*; a real deployment has to put them somewhere durable.
//! This crate is that somewhere: a directory of immutable,
//! length-prefixed, CRC-32-checksummed **segment** files of E/V-Scenario
//! records, committed by an append-only fsync'd **manifest** that names
//! every live segment together with its record count and cell/time
//! bounds. Opening a corpus replays the manifest and sequential-reads
//! the committed segments once, verifying every frame. The E-Scenarios
//! are decoded into the ordinary in-memory store (they are the index);
//! the V-Scenarios are only *located*, and each is read, re-verified and
//! decoded when a match first extracts it — so everything downstream of
//! [`ev_store::StoreBackend`] is identical between a RAM-built and a
//! disk-loaded corpus, while a disk-loaded one holds in memory only the
//! footage its matches selected.
//!
//! The full byte-level format, the append durability protocol, and the
//! recovery state machine are specified in `DESIGN.md` §6
//! ("Persistence"); [`format`](mod@format) pins the magic numbers that spec quotes.
//! No external dependencies: the codec ([`codec`]), checksum
//! ([`crc`]) and framing ([`frame`]) are hand-rolled and documented
//! byte by byte.
//!
//! # Quick tour
//!
//! ```
//! use ev_core::{EScenario, ZoneAttr, Eid};
//! use ev_core::region::CellId;
//! use ev_core::time::Timestamp;
//! use ev_disk::DiskStore;
//!
//! let dir = std::env::temp_dir().join(format!("ev-disk-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = DiskStore::create(&dir).unwrap();
//!
//! let mut s = EScenario::new(CellId::new(0), Timestamp::new(5));
//! s.insert(Eid::from_u64(1), ZoneAttr::Inclusive);
//! store.append(&[s], &[]).unwrap();           // durable once it returns
//!
//! let reopened = DiskStore::open(&dir).unwrap();   // replay + recover
//! assert_eq!(reopened.load_estore().unwrap().len(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! # Crash safety
//!
//! [`DiskStore::append`] orders its writes so that a crash at any
//! instant leaves only *crash-shaped* residue — an uncommitted orphan
//! segment or a torn manifest tail — which the next
//! [`DiskStore::open`] heals silently. Damage a crash cannot explain
//! (a flipped byte mid-file) is refused in
//! [`RecoveryMode::Strict`] and truncated away in
//! [`RecoveryMode::Salvage`]. The fault-injection suite in
//! `tests/recovery.rs` cuts and corrupts corpora at every byte
//! boundary to hold that line — including damage that arrives after
//! the load, which the first extraction of the damaged footage reports
//! as [`ev_core::Error::FootageUnavailable`] rather than as a scenario
//! nobody was detected in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod crc;
pub mod error;
pub mod format;
pub mod frame;
pub mod ingest;
pub mod manifest;
pub mod segment;
pub mod store;

pub use backend::DiskBackend;
pub use error::{DiskError, DiskResult, RecoveryError};
pub use ingest::{CheckpointPolicy, IngestWriter, StreamAppendReceipt};
pub use manifest::ManifestEntry;
pub use segment::{SegmentBounds, SegmentKind};
pub use store::{AppendReceipt, DiskStore, RecoveryMode, RecoveryReport, MANIFEST_FILE};
