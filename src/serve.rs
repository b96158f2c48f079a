//! The streaming ingest service: a long-running live corpus that
//! accepts new E-captures and V-detections while answering match
//! queries with **bounded staleness**.
//!
//! # Model
//!
//! [`LiveCorpus`] owns two layers, updated strictly in this order:
//!
//! 1. **Durability** — an [`IngestWriter`] appends arriving events to
//!    open `ev-disk` segments. A *checkpoint* seals the open segments
//!    and commits them to the manifest; a crash loses at most the
//!    records staged since the last checkpoint (see `DESIGN.md` §10).
//! 2. **Visibility** — [`apply`](LiveCorpus::apply) first checkpoints
//!    the disk writer, then splices the staged events into the
//!    in-memory [`EScenarioStore`] / [`VideoStore`] and bumps the
//!    **epoch** counter. Data becomes query-visible only *after* it is
//!    durable, so a recovered corpus is never behind what a query ever
//!    observed.
//!
//! # Staleness
//!
//! Queries run against the last applied epoch — a consistent snapshot.
//! Events ingested but not yet applied are *staged*: they are counted
//! by the `evm_serve_staleness_events` gauge and reported in every
//! [`ServeAnswer`], so the staleness of an answer is always explicit
//! and bounded by [`ServeConfig::apply_every`]. A query's report is
//! byte-identical to one computed offline on the stores as of the
//! epoch it names (`tests/serve_snapshot.rs` certifies this).
//!
//! ```
//! use evmatch::prelude::*;
//! use evmatch::serve::{LiveCorpus, ServeConfig};
//!
//! let dir = std::env::temp_dir().join(format!("evm-serve-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let dataset = EvDataset::generate(&DatasetConfig {
//!     population: 40,
//!     duration: 60,
//!     ..DatasetConfig::default()
//! })
//! .unwrap();
//! let targets = sample_targets(&dataset, 6, 42);
//!
//! let mut live = LiveCorpus::open(&dir, ServeConfig::default(), Telemetry::disabled()).unwrap();
//!
//! // Stream the day in, a tick at a time.
//! for tick in 0..60 {
//!     let es: Vec<_> = dataset
//!         .estore
//!         .iter()
//!         .filter(|s| s.time().tick() == tick)
//!         .cloned()
//!         .collect();
//!     let vs: Vec<_> = dataset
//!         .video
//!         .scenarios()
//!         .filter(|s| s.time().tick() == tick)
//!         .cloned()
//!         .collect();
//!     live.ingest(es, vs).unwrap();
//! }
//! live.apply().unwrap();
//!
//! let answer = live.query(&targets).unwrap();
//! assert_eq!(answer.staleness_events, 0);
//! assert!(answer.epoch >= 1);
//! live.finish().unwrap();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

use ev_core::ids::Eid;
use ev_core::scenario::{EScenario, VScenario};
use ev_disk::{CheckpointPolicy, DiskError, DiskStore, IngestWriter, RecoveryMode, MANIFEST_FILE};
use ev_matching::setsplit::{split_ideal, SetSplitConfig, SplitOutput};
use ev_matching::{EvMatcher, MatchReport, MatcherConfig};
use ev_store::{EScenarioStore, VideoStore};
use ev_telemetry::{names, Telemetry};
use ev_vision::cost::CostModel;
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;
use std::time::Instant;

/// Configuration of a [`LiveCorpus`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cost model used when loading / extending the video store.
    /// Defaults to [`CostModel::free()`], like `DatasetConfig`, the CLI
    /// and the benchmark: the simulated vision cost belongs to
    /// `experiments fig8`/`fig9`, which set it explicitly.
    pub cost: CostModel,
    /// Matcher configuration used to answer queries.
    pub matcher: MatcherConfig,
    /// Auto-apply after this many staged events (`0` = manual
    /// [`apply`](LiveCorpus::apply) only). This bounds query staleness:
    /// an answer can lag the ingest front by at most this many events.
    pub apply_every: usize,
    /// Durable-checkpoint threshold forwarded to the disk
    /// [`IngestWriter`] ([`CheckpointPolicy::records_per_checkpoint`];
    /// `0` = checkpoint only on apply). A crash loses at most this many
    /// records.
    pub checkpoint_every: u64,
    /// Recovery mode when opening an existing on-disk corpus.
    pub recovery: RecoveryMode,
    /// Optional watch set: EIDs whose set-splitting lists
    /// [`LiveCorpus::watch_lists`] computes on the applied snapshot.
    /// Empty = no watch lists.
    pub watch: BTreeSet<Eid>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cost: CostModel::free(),
            matcher: MatcherConfig::default(),
            apply_every: 0,
            checkpoint_every: 1024,
            recovery: RecoveryMode::Strict,
            watch: BTreeSet::new(),
        }
    }
}

/// Everything that can go wrong while serving: disk persistence errors
/// and matcher errors.
#[derive(Debug)]
pub enum ServeError {
    /// The durability layer failed (write, fsync, manifest, recovery).
    Disk(DiskError),
    /// The query has no report: footage it selected failed to load
    /// ([`JobError::Input`](ev_dag::JobError::Input)), or
    /// (parallel execution only) the engine rejected it.
    Match(ev_dag::JobError),
}

impl ServeError {
    /// Whether the failure is damaged bytes on disk — found at open or
    /// when a query first read the footage — rather than an
    /// operating-system or engine failure.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        match self {
            ServeError::Disk(e) => e.is_corruption(),
            ServeError::Match(e) => e.is_corruption(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Disk(e) => write!(f, "serve disk error: {e}"),
            ServeError::Match(e) => write!(f, "serve match error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Disk(e) => Some(e),
            ServeError::Match(e) => Some(e),
        }
    }
}

impl From<DiskError> for ServeError {
    fn from(e: DiskError) -> Self {
        ServeError::Disk(e)
    }
}

impl From<ev_dag::JobError> for ServeError {
    fn from(e: ev_dag::JobError) -> Self {
        ServeError::Match(e)
    }
}

/// Serve-layer result alias.
pub type ServeResult<T> = Result<T, ServeError>;

/// A match answer stamped with the snapshot it was computed on.
#[derive(Debug, Clone)]
pub struct ServeAnswer {
    /// The match report, byte-identical to an offline run over the
    /// stores as of `epoch`.
    pub report: MatchReport,
    /// The applied epoch this answer reflects.
    pub epoch: u64,
    /// Events ingested but not yet applied when the query ran — the
    /// answer's staleness bound.
    pub staleness_events: u64,
}

/// Receipt returned by [`LiveCorpus::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Events accepted by this call.
    pub accepted: u64,
    /// Events staged (ingested, not yet applied) after this call.
    pub staged_events: u64,
    /// Whether this call triggered an automatic apply
    /// ([`ServeConfig::apply_every`]).
    pub applied: bool,
}

/// A live, queryable corpus with streaming ingest.
///
/// See the [module docs](self) for the durability / visibility layering
/// and the staleness contract.
pub struct LiveCorpus<'t> {
    writer: IngestWriter,
    estore: EScenarioStore,
    video: VideoStore,
    staged_e: Vec<EScenario>,
    staged_v: Vec<VScenario>,
    epoch: u64,
    telemetry: &'t Telemetry,
    config: ServeConfig,
}

impl fmt::Debug for LiveCorpus<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveCorpus")
            .field("epoch", &self.epoch)
            .field("applied_e", &self.estore.len())
            .field("applied_v", &self.video.len())
            .field("staged_events", &self.staged_events())
            .field("watching", &self.config.watch.len())
            .finish()
    }
}

impl<'t> LiveCorpus<'t> {
    /// Opens (or creates) the on-disk corpus at `dir` as epoch 0: the
    /// E-data is loaded, the V-data verified and indexed (its footage is
    /// read when a query selects it and released when the query ends;
    /// footage ingested live stays resident until the corpus is
    /// reopened). Existing corpora are recovered under
    /// [`ServeConfig::recovery`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Disk`] on filesystem failures or damage the
    /// recovery mode does not permit healing.
    pub fn open(
        dir: impl AsRef<Path>,
        config: ServeConfig,
        telemetry: &'t Telemetry,
    ) -> ServeResult<Self> {
        let dir = dir.as_ref();
        let store = if dir.join(MANIFEST_FILE).exists() {
            DiskStore::open_with(dir, config.recovery, telemetry)?
        } else {
            DiskStore::create(dir)?
        };
        let estore = store.load_estore()?;
        let video = store.load_video(config.cost)?;
        let writer = IngestWriter::new(
            store,
            CheckpointPolicy {
                records_per_checkpoint: config.checkpoint_every,
            },
        );
        Ok(LiveCorpus {
            writer,
            estore,
            video,
            staged_e: Vec::new(),
            staged_v: Vec::new(),
            epoch: 0,
            telemetry,
            config,
        })
    }

    /// The applied epoch (bumped by every [`apply`](Self::apply)).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Events ingested but not yet applied — the current staleness of
    /// any answer returned by [`query`](Self::query).
    #[must_use]
    pub fn staged_events(&self) -> u64 {
        (self.staged_e.len() + self.staged_v.len()) as u64
    }

    /// The applied (query-visible) E-Scenario store.
    #[must_use]
    pub fn estore(&self) -> &EScenarioStore {
        &self.estore
    }

    /// The applied (query-visible) video store.
    #[must_use]
    pub fn video(&self) -> &VideoStore {
        &self.video
    }

    /// The underlying disk store (committed state only).
    #[must_use]
    pub fn disk(&self) -> &DiskStore {
        self.writer.store()
    }

    /// The watch set's Algorithm-1 split of the applied snapshot (the
    /// default [`SetSplitConfig`]'s random-time order), anchored and made unique into full scenario lists (computed on
    /// each call, without telemetry) — `None` when no watch set is
    /// configured.
    #[must_use]
    pub fn watch_lists(&self) -> Option<SplitOutput> {
        let watch = &self.config.watch;
        (!watch.is_empty()).then(|| split_ideal(&self.estore, watch, &SetSplitConfig::default()))
    }

    /// Accepts a batch of arriving events: appends them to the open
    /// disk segments (durability layer) and stages them for the next
    /// [`apply`](Self::apply). Auto-applies when
    /// [`ServeConfig::apply_every`] is crossed.
    ///
    /// Events must not be older than already-applied data; within the
    /// stream, batches at the same tick merge by scenario id exactly
    /// like [`EScenarioStore::ingest`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Disk`] on append or checkpoint failure. Staged
    /// in-memory state is unchanged on error.
    pub fn ingest(
        &mut self,
        e_batch: Vec<EScenario>,
        v_batch: Vec<VScenario>,
    ) -> ServeResult<IngestReceipt> {
        let receipt = self.writer.push(&e_batch, &v_batch)?;
        if receipt.checkpoint.is_some() && self.telemetry.counters_on() {
            self.telemetry
                .registry()
                .counter(names::SERVE_CHECKPOINTS)
                .inc();
        }
        let accepted = receipt.appended;
        self.staged_e.extend(e_batch);
        self.staged_v.extend(v_batch);
        if self.telemetry.counters_on() {
            let reg = self.telemetry.registry();
            reg.counter(names::SERVE_INGEST_EVENTS).add(accepted);
            reg.gauge(names::SERVE_STALENESS_EVENTS)
                .set(self.staged_events() as f64);
        }
        let applied =
            self.config.apply_every > 0 && self.staged_events() >= self.config.apply_every as u64;
        if applied {
            self.apply()?;
        }
        Ok(IngestReceipt {
            accepted,
            staged_events: self.staged_events(),
            applied,
        })
    }

    /// Publishes the staged events: checkpoints the disk writer
    /// (durable first), splices the events into the in-memory stores,
    /// and bumps the epoch.
    ///
    /// A no-op (no epoch bump) when nothing is staged.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disk`] on checkpoint failure; the staged events
    /// remain staged and *not* query-visible.
    pub fn apply(&mut self) -> ServeResult<()> {
        if self.staged_e.is_empty() && self.staged_v.is_empty() {
            return Ok(());
        }
        // Durability before visibility: a crash after this line can
        // only ever replay state that queries were allowed to see.
        let committed = self.writer.checkpoint()?;
        if !committed.is_empty() && self.telemetry.counters_on() {
            self.telemetry
                .registry()
                .counter(names::SERVE_CHECKPOINTS)
                .inc();
        }
        self.estore.ingest(std::mem::take(&mut self.staged_e));
        self.video.ingest(std::mem::take(&mut self.staged_v));
        self.epoch += 1;
        if self.telemetry.counters_on() {
            let reg = self.telemetry.registry();
            reg.gauge(names::SERVE_EPOCH).set(self.epoch as f64);
            reg.gauge(names::SERVE_STALENESS_EVENTS).set(0.0);
        }
        Ok(())
    }

    /// Answers a match query for `targets` on the current applied
    /// snapshot, routed through the full [`EvMatcher`] pipeline
    /// (sequential or on `par_map`'s threads, per
    /// [`ServeConfig::matcher`]). The answer is stamped with the epoch
    /// it reflects and the number of staged (invisible) events.
    ///
    /// # Errors
    ///
    /// [`ServeError::Match`] when footage the query selected fails to
    /// load from the corpus — the answer is never computed without it —
    /// and, in parallel execution only, when the OS refuses a worker
    /// thread or a mapped task panics.
    pub fn query(&self, targets: &BTreeSet<Eid>) -> ServeResult<ServeAnswer> {
        let started = Instant::now();
        let matcher = EvMatcher::new(&self.estore, &self.video, self.config.matcher.clone())
            .with_telemetry(self.telemetry);
        let report = matcher.match_many(targets)?;
        if self.telemetry.counters_on() {
            let reg = self.telemetry.registry();
            reg.counter(names::SERVE_QUERIES).inc();
            reg.histogram(names::SERVE_QUERY_LATENCY_NS)
                .record(started.elapsed().as_nanos() as u64);
        }
        Ok(ServeAnswer {
            report,
            epoch: self.epoch,
            staleness_events: self.staged_events(),
        })
    }

    /// Applies any staged events, then checkpoints and closes the disk
    /// writer, returning the store for batch use.
    ///
    /// # Errors
    ///
    /// As [`apply`](Self::apply).
    pub fn finish(mut self) -> ServeResult<DiskStore> {
        self.apply()?;
        Ok(self.writer.finish()?)
    }
}
