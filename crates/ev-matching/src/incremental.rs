//! Partition maintenance over a growing corpus.
//!
//! Surveillance data never stops arriving. [`IncrementalSplit`] keeps
//! the live state of a chronological Algorithm-1 run (the splitting
//! loop's own state — the EID cover, the recorded splitters, the
//! pre-padding scenario lists — plus the frontier it has walked to) so
//! that freshly ingested scenarios *refine the existing blocks* instead
//! of recomputing the whole split. This is the engine behind the
//! streaming `evmatch serve` mode, which answers its queries with a
//! fresh [`EvMatcher`](crate::matcher::EvMatcher) run on the applied
//! snapshot.
//!
//! # The delta-update rule
//!
//! [`SelectionStrategy::Chronological`] examines scenarios in
//! [`ScenarioId`] order — which is time-major, because `ScenarioId`
//! orders by `(time, cell)`. A streaming ingest only ever appends
//! scenarios with ids strictly greater than everything already stored
//! (that is the contract of `EScenarioStore::ingest`'s splice path), so
//! the scenarios a from-scratch run would examine form a *prefix-stable
//! sequence*: appending a batch extends the sequence at the end and
//! changes nothing before it. Since every per-scenario decision of
//! Algorithm 1 depends only on the state accumulated so far and the
//! scenario's own target intersection, feeding just the new suffix to
//! the same step the batch loop runs ([`IncrementalSplit::absorb`])
//! reproduces the from-scratch run exactly:
//!
//! ```text
//! absorb(S₀); absorb(S₁ \ S₀); …; absorb(Sₙ \ Sₙ₋₁)
//!     ≡ split_ideal(Sₙ)            (chronological strategy)
//! ```
//!
//! The loop's stop conditions are monotone — a fully split partition
//! stays fully split, and the examined-scenario cap only fills up — so
//! a run that stopped early stays stopped, again matching the
//! from-scratch behaviour. The equivalence is proptested in
//! `tests/incremental_split_equivalence.rs` against arbitrary
//! prefix/suffix splits of a generated pool.
//!
//! The **padding passes** (anchors, list extension, uniqueness against
//! the universe) are *not* prefix-stable: they consult the whole store
//! at output time. [`IncrementalSplit`] therefore keeps its scenario
//! lists pre-padding and re-runs those passes against the current store
//! in [`IncrementalSplit::output`] — they are cheap relative to the
//! split itself, and running them late is exactly what the batch
//! pipeline does too.
//!
//! Other selection strategies are **not** delta-safe:
//! [`SelectionStrategy::RandomTime`] reshuffles the timestamp draw when
//! the store grows, and [`SelectionStrategy::GreedyBalanced`] may
//! prefer a new scenario over previously chosen ones. Both would need
//! full recomputation, which is why [`IncrementalSplit::new`] insists
//! on the chronological strategy.

use crate::setsplit::{SelectionStrategy, SetSplitConfig, SplitMode, SplitOutput, SplitState};
use ev_core::ids::Eid;
use ev_core::scenario::{EScenario, ScenarioId};
use ev_store::EScenarioStore;
use ev_telemetry::{names, Telemetry};
use std::collections::BTreeSet;

/// What one [`IncrementalSplit::absorb`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Scenarios examined by this delta (effective or not).
    pub scenarios_absorbed: usize,
    /// Splitters recorded by this delta.
    pub splitters_recorded: usize,
    /// Net partition blocks created by this delta's refinements.
    pub blocks_split: usize,
}

/// Live state of a chronological Algorithm-1 run that new scenarios
/// refine instead of restarting — see the [module docs](self) for the
/// delta-update rule and its equivalence argument.
///
/// ```
/// use ev_matching::incremental::IncrementalSplit;
/// use ev_matching::setsplit::{split_ideal, SelectionStrategy, SetSplitConfig};
/// # use ev_core::{Eid, ZoneAttr};
/// # use ev_core::region::CellId;
/// # use ev_core::scenario::EScenario;
/// # use ev_core::time::Timestamp;
/// # use ev_store::EScenarioStore;
/// # use ev_telemetry::Telemetry;
/// # use std::collections::BTreeSet;
/// # fn scenario(t: u64, c: usize, people: &[u64]) -> EScenario {
/// #     let mut s = EScenario::new(CellId::new(c), Timestamp::new(t));
/// #     for &p in people { s.insert(Eid::from_u64(p), ZoneAttr::Inclusive); }
/// #     s
/// # }
/// let config = SetSplitConfig {
///     strategy: SelectionStrategy::Chronological,
///     ..SetSplitConfig::default()
/// };
/// let targets: BTreeSet<_> = [0u64, 1, 2].map(Eid::from_u64).into();
///
/// // Day 1 comes up short: EIDs 1 and 2 are never separated.
/// let mut store = EScenarioStore::from_scenarios(vec![scenario(0, 0, &[0, 1, 2])]);
/// let mut live = IncrementalSplit::new(&targets, &config);
/// live.absorb(&store, Telemetry::disabled());
/// assert!(!live.is_fully_split());
///
/// // Day 2 streams in; only the new scenarios are examined.
/// let delta = store.ingest(vec![scenario(5, 1, &[1]), scenario(6, 0, &[2])]);
/// assert!(!delta.rebuilt, "appends splice, preserving the contract");
/// let stats = live.absorb(&store, Telemetry::disabled());
/// assert_eq!(stats.scenarios_absorbed, 2);
/// assert!(live.is_fully_split());
///
/// // The refined state equals a from-scratch rebuild, list padding and all.
/// assert_eq!(live.output(&store), split_ideal(&store, &targets, &config));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSplit {
    config: SetSplitConfig,
    /// The splitting loop's state, lists pre-padding: the padding passes
    /// run against the *current* store in [`Self::output`].
    state: SplitState,
    /// The largest scenario id examined so far; the next
    /// [`absorb`](Self::absorb) resumes strictly after it.
    frontier: Option<ScenarioId>,
}

impl IncrementalSplit {
    /// Starts an empty incremental split over `targets`; feed it stores
    /// with [`absorb`](Self::absorb).
    ///
    /// # Panics
    ///
    /// If `config.strategy` is not
    /// [`SelectionStrategy::Chronological`] — the only strategy whose
    /// selection sequence is prefix-stable under appends (see the
    /// [module docs](self)).
    #[must_use]
    pub fn new(targets: &BTreeSet<Eid>, config: &SetSplitConfig) -> Self {
        assert!(
            matches!(config.strategy, SelectionStrategy::Chronological),
            "incremental delta-updates require SelectionStrategy::Chronological"
        );
        IncrementalSplit {
            config: *config,
            state: SplitState::new(targets, SplitMode::Ideal),
            frontier: None,
        }
    }

    /// Whether every target is alone in its block.
    #[must_use]
    pub fn is_fully_split(&self) -> bool {
        self.state.cover.is_fully_split()
    }

    /// Scenarios examined so far (effective or not).
    #[must_use]
    pub fn scenarios_examined(&self) -> usize {
        self.state.examined
    }

    /// Replays Algorithm 1 over the scenarios of `store` beyond the
    /// current frontier, refining existing partition blocks in place.
    ///
    /// The first call (frontier `None`) walks the whole store — that
    /// *is* the from-scratch run. Later calls walk only the appended
    /// suffix. The caller must uphold the splice contract: `store` has
    /// only gained scenarios with ids strictly greater than the
    /// frontier since the last call (`EScenarioStore::ingest` reports
    /// `rebuilt == true` when a batch violated it; rebuild this state
    /// with [`new`](Self::new) + `absorb` in that case).
    ///
    /// Through `tel` the delta's examined/recorded/split counts add to
    /// the `evm_incr_*` counters and the partition-blocks gauge updates.
    pub fn absorb(&mut self, store: &EScenarioStore, tel: &Telemetry) -> DeltaStats {
        let (examined, recorded) = (self.state.examined, self.state.recorded.len());
        let blocks_before = self.state.cover.block_count();
        // `store.iter()` / `iter_after` yield id order = the
        // chronological examination order of `split_ideal`.
        let suffix: Box<dyn Iterator<Item = &EScenario>> = match self.frontier {
            Some(f) => Box::new(store.iter_after(f)),
            None => Box::new(store.iter()),
        };
        for scenario in suffix {
            if self.state.done(&self.config) {
                break;
            }
            self.frontier = Some(scenario.id());
            self.state.examine(scenario);
        }

        let blocks = self.state.cover.block_count();
        let stats = DeltaStats {
            scenarios_absorbed: self.state.examined - examined,
            splitters_recorded: self.state.recorded.len() - recorded,
            blocks_split: blocks - blocks_before,
        };
        if tel.counters_on() {
            let registry = tel.registry();
            registry
                .counter(names::INCR_SCENARIOS_ABSORBED)
                .add(stats.scenarios_absorbed as u64);
            registry
                .counter(names::INCR_SPLITTERS_RECORDED)
                .add(stats.splitters_recorded as u64);
            registry
                .counter(names::INCR_BLOCKS_SPLIT)
                .add(stats.blocks_split as u64);
            registry
                .gauge(names::INCR_PARTITION_BLOCKS)
                .set(blocks as f64);
        }
        stats
    }

    /// Materializes the full [`SplitOutput`] by cloning the core state
    /// and running the padding passes (anchors, minimum list length,
    /// uniqueness against the EID universe) over the *current* store —
    /// producing exactly what `split_ideal` over that store would.
    #[must_use]
    pub fn output(&self, store: &EScenarioStore) -> SplitOutput {
        self.state.clone().into_output(store, &self.config)
    }
}
