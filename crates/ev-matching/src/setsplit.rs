//! EID set splitting (paper Algorithm 1 and its practical vague-zone
//! variant, §IV-B1 and §IV-C2) — one splitting loop for both.
//!
//! Starting from the trivial cover `{Ueid}` ([`EidCover`]), E-Scenarios
//! are examined one at a time in random-time order — pick a random
//! timestamp, process every scenario snapshotted there, repeat with the
//! remaining timestamps, the order of Algorithm 3's preprocess step,
//! drawn from [`SetSplitConfig::seed`] — and applied as splitters;
//! *effective* scenarios (those that change the cover) are recorded, and
//! the EIDs they distinguish are pruned from the blocks still holding a
//! tentative copy. The loop ends when every requested EID is alone in a
//! block or the scenario pool is exhausted.
//!
//! The step, the scenario order and the output are shared by
//! [`split_ideal`] and [`split_practical`](crate::practical::split_practical);
//! the [`SplitMode`] enters at two points.
//! The **ideal** setting reads every member of a scenario as inclusive,
//! whatever its zone attribute, so the cover stays a partition. The
//! **practical** setting keeps vague members on both sides of a split and
//! builds its lists, anchors and uniqueness additions from inclusive
//! appearances only — "we should try to avoid using EV-Scenarios with
//! the target EID in the vague zone to distinguish that EID".
//!
//! The scenario list attached to each EID — the input to VID filtering —
//! is the set of recorded scenarios that *contain* the EID. An EID whose
//! blocks were always carved off by absence can end with an empty list;
//! such EIDs get an *anchor* scenario (the first scenario containing them)
//! so the V stage has footage to look at. The uniqueness pass then extends
//! each list until its co-presence set over the whole EID universe is the
//! EID alone, and the redundancy prune (`prune_redundant`) deletes the
//! entries that no longer narrow any list's set: footage no vote needs.
//! [`SplitOutput::recorded`] keeps every effective splitter; only the
//! lists, and so the footage, shrink. Anchors and the uniqueness pass
//! read the posting lists of the store's inverted index
//! ([`ev_store::ScenarioIndex`]).
//!
//! Algorithm 2's later rounds split with the footage the match has
//! extracted so far: the walk examines those scenarios first (see
//! `scenario_order`), so a splitter the V stage already paid for wins
//! over a fresh one.

use crate::edp::{isolate, CoPresence};
use crate::types::ScenarioList;
use ev_core::ids::Eid;
use ev_core::partition::EidCover;
use ev_core::region::CellId;
use ev_core::scenario::{EScenario, ScenarioId, ZoneAttr};
use ev_store::{EScenarioStore, ScenarioIndex};
use ev_telemetry::{names, Telemetry};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::Range;

/// Which splitting semantics a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitMode {
    /// Ideal-setting partition refinement (Algorithm 1): every member of
    /// a scenario counts as inclusive.
    Ideal,
    /// Practical-setting vague-zone cover refinement (§IV-C2).
    Practical,
}

/// Configuration of a set-splitting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetSplitConfig {
    /// RNG seed of the random-time order's timestamp draws (and of the
    /// uniqueness pass's reuse shuffle).
    pub seed: u64,
}

/// The result of EID set splitting, in either [`SplitMode`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitOutput {
    /// Effective scenarios, in the order they were recorded.
    pub recorded: Vec<ScenarioId>,
    /// Per-EID scenario lists (recorded scenarios containing the EID —
    /// inclusively, in the practical setting — plus an anchor when that
    /// set came out empty, plus what the uniqueness pass added).
    pub lists: BTreeMap<Eid, ScenarioList>,
    /// The final cover (fully split unless the pool ran dry): a
    /// partition in the ideal setting, possibly overlapping where vague
    /// observations left tentative copies in the practical one.
    pub partition: EidCover,
    /// Scenarios examined, effective or not.
    pub scenarios_examined: usize,
}

impl SplitOutput {
    /// Whether every requested EID was distinguished.
    #[must_use]
    pub fn fully_split(&self) -> bool {
        self.partition.is_fully_split()
    }

    /// Every distinct scenario the lists name: the footage the V stage
    /// will have to extract, and the paper's "number of selected
    /// scenarios". A recorded splitter no list names (pruned, or holding
    /// its targets only vaguely) is not extracted and not counted.
    #[must_use]
    pub fn selected(&self) -> BTreeSet<ScenarioId> {
        self.lists.values().flatten().copied().collect()
    }
}

/// The live state of a splitting run and its one step,
/// [`examine`](Self::examine), driven by [`split`].
struct SplitState {
    mode: SplitMode,
    cover: EidCover,
    recorded: Vec<ScenarioId>,
    /// Lists before the output passes: the recorded scenarios
    /// containing each EID.
    lists: BTreeMap<Eid, ScenarioList>,
    examined: usize,
    /// EIDs whose tentative copies have been pruned already.
    pruned: BTreeSet<Eid>,
}

impl SplitState {
    fn new(targets: &BTreeSet<Eid>, mode: SplitMode) -> Self {
        SplitState {
            mode,
            cover: EidCover::new(targets.iter().copied()),
            recorded: Vec::new(),
            lists: targets.iter().map(|&e| (e, Vec::new())).collect(),
            examined: 0,
            pruned: BTreeSet::new(),
        }
    }

    /// The loop's stop condition: the cover is fully split. Monotone: a
    /// fully split cover stays fully split.
    fn done(&self) -> bool {
        self.cover.is_fully_split()
    }

    /// Examines one scenario: splits the cover by its members within the
    /// universe and, when that was effective, records the scenario,
    /// appends it to the lists of the members it holds inclusively and
    /// prunes the EIDs distinguished *at that moment*, in EID order. An
    /// EID that only becomes distinguished through those prunes waits for
    /// the next effective split.
    fn examine(&mut self, scenario: &EScenario) {
        self.examined += 1;
        let ideal = self.mode == SplitMode::Ideal;
        let read = |attr| if ideal { ZoneAttr::Inclusive } else { attr };
        let members = || scenario.iter().map(|(eid, attr)| (eid, read(attr)));
        if !self.cover.split(members()).effective {
            return;
        }
        self.recorded.push(scenario.id());
        for (eid, attr) in members() {
            if attr == ZoneAttr::Inclusive {
                if let Some(list) = self.lists.get_mut(&eid) {
                    list.push(scenario.id());
                }
            }
        }
        let fresh: Vec<Eid> = self
            .cover
            .distinguished()
            .filter(|&eid| self.pruned.insert(eid))
            .collect();
        for eid in fresh {
            self.cover.prune_distinguished(eid);
        }
    }

    /// Runs the output passes (anchors, uniqueness against the EID
    /// universe, then the redundancy prune) over `store` and hands the
    /// state out as a [`SplitOutput`]. Lists are not padded: a short list
    /// whose vote is not confident is extended by Algorithm 2's
    /// E-filtering in the next refinement round, which picks footage that
    /// discriminates.
    fn into_output(self, store: &EScenarioStore, config: &SetSplitConfig) -> SplitOutput {
        let inclusive_only = self.mode == SplitMode::Practical;
        let mut lists = self.lists;
        attach_anchors(store, &mut lists, inclusive_only);
        ensure_unique_against_universe(store, &mut lists, config.seed, inclusive_only);
        prune_redundant(store, &mut lists);
        SplitOutput {
            recorded: self.recorded,
            lists,
            partition: self.cover,
            scenarios_examined: self.examined,
        }
    }
}

/// Runs ideal-setting EID set splitting (Algorithm 1) over `store` for
/// the requested `targets`.
///
/// EIDs in `targets` that never appear in any scenario simply remain
/// grouped (they cannot be distinguished or matched); their lists come out
/// empty.
#[must_use]
pub fn split_ideal(
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &SetSplitConfig,
) -> SplitOutput {
    let (tel, none) = (Telemetry::disabled(), BTreeSet::new());
    split(store, targets, config, SplitMode::Ideal, &none, tel)
}

/// Runs EID set splitting over `store` for `targets` in the given
/// [`SplitMode`], with telemetry: a `setsplit` span, the scenarios
/// examined, the effective (recorded) scenarios and the final block
/// count — the same names in both modes. The walk examines the
/// `extracted` scenarios (footage an earlier round already paid for)
/// before the rest. With a disabled handle and nothing extracted this is
/// exactly [`split_ideal`] / [`split_practical`](crate::practical::split_practical).
#[must_use]
pub(crate) fn split(
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &SetSplitConfig,
    mode: SplitMode,
    extracted: &BTreeSet<ScenarioId>,
    tel: &Telemetry,
) -> SplitOutput {
    let mut span = tel.span("setsplit", "stage");
    let order = scenario_order(store, config.seed, extracted);
    let out = split_in_order(store, targets, config, mode, order);
    record_split(tel, &out);
    span.arg(
        "examined",
        serde::Value::Int(out.scenarios_examined as i128),
    );
    span.arg("recorded", serde::Value::Int(out.recorded.len() as i128));
    out
}

/// The splitting loop over a given scenario `order`: examines scenarios
/// until the cover is fully split or the order runs out, then runs the
/// output passes. [`split`] feeds it the random-time walk; the tests
/// feed hand-built worlds their store order.
pub(crate) fn split_in_order<'a>(
    store: &EScenarioStore,
    targets: &BTreeSet<Eid>,
    config: &SetSplitConfig,
    mode: SplitMode,
    order: impl IntoIterator<Item = &'a EScenario>,
) -> SplitOutput {
    let mut state = SplitState::new(targets, mode);
    for scenario in order {
        if state.done() {
            break;
        }
        state.examine(scenario);
    }
    state.into_output(store, config)
}

/// Counts one finished split round into the splitter's three names.
fn record_split(tel: &Telemetry, out: &SplitOutput) {
    if !tel.counters_on() {
        return;
    }
    let registry = tel.registry();
    let count = |name, n: usize| registry.counter(name).add(n as u64);
    count(names::SETSPLIT_SCENARIOS_EXAMINED, out.scenarios_examined);
    count(names::SETSPLIT_RECORDED, out.recorded.len());
    let blocks = out.partition.block_count();
    registry.gauge(names::SETSPLIT_BLOCKS).set(blocks as f64);
}

/// The random-time order: the timestamps shuffled by `seed`, each
/// visited whole. The `extracted` scenarios come first and then the
/// rest, each group in that order: a splitter already extracted costs
/// the V stage nothing. With nothing extracted (a first round) that is
/// the random-time order itself.
fn scenario_order<'a>(
    store: &'a EScenarioStore,
    seed: u64,
    extracted: &'a BTreeSet<ScenarioId>,
) -> impl Iterator<Item = &'a EScenario> + 'a {
    let mut times: Vec<_> = store.times().collect();
    times.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let from = |t| ScenarioId::new(t, CellId::new(0));
    let reused = times.clone().into_iter().flat_map(move |t| {
        let at_t = extracted
            .range(from(t)..)
            .take_while(move |id| id.time == t);
        at_t.filter_map(|&id| store.get(id))
    });
    let rest = times.into_iter().flat_map(move |t| store.at_time(t));
    reused.chain(rest.filter(move |s| !extracted.contains(&s.id())))
}

/// Ensures each EID's list is *discriminating against the full EID
/// universe*: no other device-carrying person may co-occur in every
/// scenario of the list, otherwise that person's VID is a perfect
/// "shadow" that VID filtering cannot tell from the right one. Set
/// splitting alone only separates the *requested* EIDs from each other;
/// this pass extends lists until the co-presence intersection over
/// **all** EIDs is the singleton `{eid}` — the same guarantee EDP's
/// E-filtering gives — or every candidate has been tried. Pure E-stage
/// work: no footage is touched.
///
/// Two phases. *Reuse:* each EID, in EID order, is offered the
/// scenarios already in someone's list through [`isolate`] (seeded
/// shuffle, keep what shrinks). *Cover:* the EIDs still not unique buy
/// fresh footage together through a [`ShadowCover`]: one scenario that
/// rules out the shadows of several EIDs is bought once. No randomness
/// is drawn there.
///
/// Either way an EID ends with `{eid}` or with the intersection over its
/// list and every candidate: a candidate is only ever passed over when it
/// cannot shrink the set, now or later (sets only shrink).
pub(crate) fn ensure_unique_against_universe(
    store: &EScenarioStore,
    lists: &mut BTreeMap<Eid, ScenarioList>,
    seed: u64,
    inclusive_only: bool,
) {
    let mut selected: Vec<ScenarioId> = lists.values().flatten().copied().collect();
    selected.sort_unstable();
    selected.dedup();
    let index = store.index();
    let mut cover = ShadowCover::default();
    let (mut reusable, mut fresh) = (Vec::new(), Vec::new());
    for (&eid, list) in lists.iter_mut() {
        // Current co-presence intersection over the full universe.
        let mut common = CoPresence::default();
        for scenario in list.iter().filter_map(|&id| store.get(id)) {
            common.narrow(scenario);
        }
        if common.is_unseeded() || common.is_unique() {
            continue; // no usable footage at all, or already unique
        }
        // The candidates, selected or fresh: the scenarios holding `eid`
        // (inclusively, when `inclusive_only`). Both they and `selected`
        // are ascending, and every list entry is selected.
        let hosting = index.zoned_postings(eid);
        let mut rest = selected.as_slice();
        for (id, _) in hosting.filter(|&(_, attr)| !inclusive_only || attr == ZoneAttr::Inclusive) {
            rest = &rest[rest.partition_point(|&s| s < id)..];
            if rest.first() != Some(&id) {
                fresh.push(id);
            } else if !list.contains(&id) {
                reusable.push(id);
            }
        }
        let added = isolate(
            &mut common,
            reusable.drain(..).filter_map(|id| store.get(id)),
            |_| true,
            seed ^ eid.as_u64().wrapping_mul(0x2545f4914f6cdd1d),
        );
        list.extend(added);
        if !common.is_unique() {
            cover.add(index, eid, &common, list, &fresh);
        }
        fresh.clear();
    }
    cover.buy();
}

/// The uniqueness pass's cover: a lazy-greedy weighted set cover over
/// the EIDs [`add`](Self::add)ed (in EID order, each with its list, its
/// co-presence set and its fresh candidates).
///
/// A candidate's gain is the number of *shadows* (co-present EIDs other
/// than the hosted one) it would rule out, summed over the pending EIDs
/// it hosts. [`buy`](Self::buy) takes the scenario with the highest
/// `(gain, smallest id)` and offers it to every pending EID it hosts, in
/// EID order; it is appended wherever it shrinks the set. Gains only fall
/// as sets shrink, so a max-heap whose entries are re-checked on pop
/// (and re-pushed while stale) picks exactly what a full re-scan would.
///
/// Each EID's shadows are bits, one per member of its set when it was
/// added; each candidate is a mask of the shadows it holds too, read off
/// the shadows' postings. A gain is then a popcount over a word or two
/// per hosted EID, and all bits live in arenas. Each EID also keeps the
/// AND of its masks, its *floor*: the set it ends on once every candidate
/// is bought. The cover stops as soon as every EID sits on its floor —
/// no candidate can shrink a set then — instead of draining the heap.
#[derive(Default)]
struct ShadowCover<'l> {
    /// Per pending EID: where its shadow bits start in `live` and
    /// `floor`, and how many words they take.
    pending: Vec<(usize, usize)>,
    lists: Vec<&'l mut ScenarioList>,
    live: Vec<u64>,
    floor: Vec<u64>,
    masks: Vec<u64>,
    /// Per (candidate, EID) pair: the candidate, the pending ordinal
    /// and where its mask starts in `masks`.
    pairs: Vec<(ScenarioId, usize, usize)>,
}

impl<'l> ShadowCover<'l> {
    /// Adds a pending EID: its set `common` (sorted, holding `eid`), its
    /// list and its fresh candidates, ascending.
    fn add(
        &mut self,
        index: &ScenarioIndex,
        eid: Eid,
        common: &CoPresence,
        list: &'l mut ScenarioList,
        fresh: &[ScenarioId],
    ) {
        let shadows = common.members().iter().filter(|&&e| e != eid);
        let count = shadows.clone().count();
        let width = count.div_ceil(64);
        let (ordinal, at, base) = (self.lists.len(), self.live.len(), self.masks.len());
        self.live.resize(at + width, 0);
        for bit in 0..count {
            self.live[at + bit / 64] |= 1 << (bit % 64);
        }
        self.masks.resize(base + fresh.len() * width, 0);
        let keys: Vec<u128> = fresh.iter().map(|&id| order_key(id)).collect();
        for (bit, &shadow) in shadows.enumerate() {
            // Postings are ascending too: one merge walk finds the
            // candidates that hold this shadow.
            let holding = index.postings(shadow);
            let (mut p, mut j) = (0, 0);
            while p < holding.len() && j < keys.len() {
                let (held, key) = (order_key(holding[p]), keys[j]);
                if held == key {
                    self.masks[base + j * width + bit / 64] |= 1 << (bit % 64);
                }
                p += usize::from(held <= key);
                j += usize::from(held >= key);
            }
        }
        let masks = (0..fresh.len()).map(|j| base + j * width);
        let pairs = fresh
            .iter()
            .zip(masks)
            .map(|(&id, mask)| (id, ordinal, mask));
        self.pairs.extend(pairs);
        self.floor.resize(at + width, u64::MAX);
        for mask in self.masks[base..].chunks_exact(width) {
            let floor = self.floor[at..].iter_mut().zip(mask);
            floor.for_each(|(f, m)| *f &= m);
        }
        self.pending.push((at, width));
        self.lists.push(list);
    }

    /// Whether some candidate can still shrink the set of `ordinal`.
    fn above_floor(&self, ordinal: usize) -> bool {
        let (at, width) = self.pending[ordinal];
        let floor = &self.floor[at..at + width];
        self.live[at..at + width]
            .iter()
            .zip(floor)
            .any(|(l, f)| l & !f != 0)
    }

    /// Shadows the mask at `mask` would rule out of pending EID `ordinal`.
    fn ruled_out(&self, ordinal: usize, mask: usize) -> u64 {
        let (at, width) = self.pending[ordinal];
        let held = &self.masks[mask..mask + width];
        let live = self.live[at..at + width].iter().zip(held);
        live.map(|(l, h)| u64::from((l & !h).count_ones())).sum()
    }

    fn gain(&self, group: &Range<usize>) -> u64 {
        self.pairs[group.clone()]
            .iter()
            .map(|&(_, ordinal, mask)| self.ruled_out(ordinal, mask))
            .sum()
    }

    /// Runs the cover and appends what it buys to the lists.
    fn buy(mut self) {
        // Group by candidate, each group in pending (= EID) order.
        self.pairs.sort_unstable();
        let mut groups: Vec<Range<usize>> = Vec::new();
        for (i, &(id, _, _)) in self.pairs.iter().enumerate() {
            match groups.last_mut() {
                Some(range) if self.pairs[range.start].0 == id => range.end = i + 1,
                _ => groups.push(i..i + 1),
            }
        }
        let mut heap: BinaryHeap<(u64, Reverse<ScenarioId>, usize)> = groups
            .iter()
            .enumerate()
            .map(|(g, range)| (self.gain(range), Reverse(self.pairs[range.start].0), g))
            .filter(|&(gain, _, _)| gain > 0)
            .collect();
        let mut left = (0..self.lists.len())
            .filter(|&o| self.above_floor(o))
            .count();
        while left > 0 {
            let Some((stored, Reverse(id), g)) = heap.pop() else {
                break;
            };
            let now = self.gain(&groups[g]);
            if now < stored {
                if now > 0 {
                    heap.push((now, Reverse(id), g));
                }
                continue;
            }
            for i in groups[g].clone() {
                let (_, ordinal, mask) = self.pairs[i];
                if self.ruled_out(ordinal, mask) == 0 {
                    continue; // on its floor, or this scenario holds every shadow
                }
                let (at, width) = self.pending[ordinal];
                let live = self.live[at..at + width].iter_mut();
                live.zip(&self.masks[mask..mask + width])
                    .for_each(|(l, m)| *l &= m);
                left -= usize::from(!self.above_floor(ordinal));
                self.lists[ordinal].push(id);
            }
        }
    }
}

/// A scenario id as one integer that orders as the id does (time, then
/// cell), for branch-free merge walks.
fn order_key(id: ScenarioId) -> u128 {
    (u128::from(id.time.tick()) << 64) | id.cell.index() as u128
}

/// The uniqueness pass as it was before the cover: EIDs in EID order,
/// each offered its candidates through [`isolate`] — the selected ones
/// first, then fresh ones, each group in a seeded random order — with
/// every scenario an EID keeps counting as selected for the EIDs after
/// it. The tests hold the cover to this pass's final co-presence sets.
#[cfg(test)]
pub(crate) fn ensure_unique_per_eid_reference(
    store: &EScenarioStore,
    lists: &mut BTreeMap<Eid, ScenarioList>,
    seed: u64,
    inclusive_only: bool,
) {
    let mut selected: BTreeSet<ScenarioId> = lists.values().flatten().copied().collect();
    for (&eid, list) in lists.iter_mut() {
        let mut common = CoPresence::default();
        for scenario in list.iter().filter_map(|&id| store.get(id)) {
            common.narrow(scenario);
        }
        if common.is_unseeded() || common.is_unique() {
            continue;
        }
        let candidates = store
            .containing(eid)
            .filter(|s| !inclusive_only || s.contains_inclusive(eid))
            .filter(|s| !list.contains(&s.id()));
        let added = isolate(
            &mut common,
            candidates,
            |id| selected.contains(&id),
            seed ^ eid.as_u64().wrapping_mul(0x2545f4914f6cdd1d),
        );
        selected.extend(&added);
        list.extend(added);
    }
}

/// The redundancy prune, run after the uniqueness pass: reverse-delete
/// over the lists. The listed scenarios are walked once, fewest lists
/// naming it first, then by id; a scenario is dropped from every list
/// naming it when each of those lists, without it, is not empty and
/// keeps exactly its co-presence set over the universe. Such an entry
/// narrows no EID's set, so no vote needs its footage.
///
/// A list's set never changes, and a scenario kept stays needed as the
/// lists shrink around it (fewer entries only widen what the others
/// leave), so a second prune drops nothing.
pub(crate) fn prune_redundant(store: &EScenarioStore, lists: &mut BTreeMap<Eid, ScenarioList>) {
    let mut naming: BTreeMap<ScenarioId, Vec<Eid>> = BTreeMap::new();
    for (&eid, list) in lists.iter() {
        for &id in list {
            naming.entry(id).or_default().push(eid);
        }
    }
    // Each listed scenario looked up in the store once.
    let listed: BTreeMap<ScenarioId, &EScenario> = (naming.keys())
        .filter_map(|&id| Some((id, store.get(id)?)))
        .collect();
    let mut order: Vec<(usize, ScenarioId)> =
        naming.iter().map(|(&id, eids)| (eids.len(), id)).collect();
    order.sort_unstable();
    for (_, id) in order {
        let Some(&scenario) = listed.get(&id) else {
            continue;
        };
        let eids = &naming[&id];
        if eids
            .iter()
            .all(|eid| narrows_nothing(&lists[eid], scenario, &listed))
        {
            for eid in eids {
                if let Some(list) = lists.get_mut(eid) {
                    list.retain(|&other| other != id);
                }
            }
        }
    }
}

/// Whether `list` without `scenario` is not empty and has the same
/// co-presence set: every EID in all its other entries is in `scenario`
/// too.
fn narrows_nothing(
    list: &[ScenarioId],
    scenario: &EScenario,
    listed: &BTreeMap<ScenarioId, &EScenario>,
) -> bool {
    let id = scenario.id();
    let mut others = (list.iter())
        .filter(|&&other| other != id)
        .filter_map(|other| listed.get(other));
    let Some(first) = others.next() else {
        return false;
    };
    let rest: Vec<&EScenario> = others.copied().collect();
    first
        .eids()
        .all(|eid| scenario.contains(eid) || rest.iter().any(|s| !s.contains(eid)))
}

/// Gives every empty-listed EID one anchor scenario so VID filtering has
/// footage to inspect: the first scenario in store order containing it
/// or, when `inclusive_only`, the first containing it *inclusively* (vague
/// appearances are not trustworthy footage pointers), falling back to the
/// first appearance if vague ones are all there is.
pub(crate) fn attach_anchors(
    store: &EScenarioStore,
    lists: &mut BTreeMap<Eid, ScenarioList>,
    inclusive_only: bool,
) {
    for (&eid, list) in lists.iter_mut().filter(|(_, l)| l.is_empty()) {
        let mut first = None;
        let confident = store
            .containing(eid)
            .inspect(|s| {
                first.get_or_insert(s.id());
            })
            .find(|s| !inclusive_only || s.contains_inclusive(eid))
            .map(EScenario::id);
        list.extend(confident.or(first));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ev_core::region::CellId;
    use ev_core::time::Timestamp;
    use rand::Rng;

    /// A random E world: `people` persons wander a `cells`-cell corridor
    /// for `times` steps, each scenario holding a random cohort.
    pub(crate) fn random_store(seed: u64, cells: usize, times: u64, people: u64) -> EScenarioStore {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut es = Vec::new();
        for t in 0..times {
            for c in 0..cells {
                let mut e = EScenario::new(CellId::new(c), Timestamp::new(t));
                for p in 0..people {
                    if rng.gen_bool(1.0 / cells as f64) {
                        e.insert(Eid::from_u64(p), ZoneAttr::Inclusive);
                        // The draw the V side of these worlds spent on a
                        // feature, so the seeds name the same E-data as
                        // they did in `tests/index_equivalence.rs`.
                        let _: f64 = rng.gen_range(0.0..0.05);
                    }
                }
                if !e.is_empty() {
                    es.push(e);
                }
            }
        }
        EScenarioStore::from_scenarios(es)
    }

    fn scenario(cell: usize, time: u64, eids: &[u64]) -> EScenario {
        let mut s = EScenario::new(CellId::new(cell), Timestamp::new(time));
        for &e in eids {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        s
    }

    fn targets(raw: impl IntoIterator<Item = u64>) -> BTreeSet<Eid> {
        raw.into_iter().map(Eid::from_u64).collect()
    }

    /// Splits a hand-built world in its store order, (time, cell).
    pub(crate) fn in_store_order(
        store: &EScenarioStore,
        targets: &BTreeSet<Eid>,
        mode: SplitMode,
    ) -> SplitOutput {
        let config = SetSplitConfig::default();
        split_in_order(store, targets, &config, mode, store.iter())
    }

    /// Four EIDs, binary-code scenarios: bit scenarios distinguish all.
    fn binary_store() -> EScenarioStore {
        EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[2, 3]), // high bit
            scenario(1, 1, &[1, 3]), // low bit
            scenario(2, 2, &[0, 1, 2, 3]),
        ])
    }

    #[test]
    fn chronological_split_distinguishes_all() {
        let store = binary_store();
        let out = in_store_order(&store, &targets(0..4), SplitMode::Ideal);
        assert!(out.fully_split());
        assert_eq!(out.recorded.len(), 2, "the all-EIDs scenario is skipped");
        assert_eq!(
            out.scenarios_examined, 2,
            "fully split after two scenarios; the third is never touched"
        );
        // EID 3 appears in both recorded scenarios.
        assert_eq!(out.lists[&Eid::from_u64(3)].len(), 2);
        // EID 0 appears in neither -> it gets an anchor.
        assert_eq!(out.lists[&Eid::from_u64(0)].len(), 1);
        let anchor = out.lists[&Eid::from_u64(0)][0];
        assert_eq!(anchor.cell, CellId::new(2), "only scenario containing 0");
    }

    #[test]
    fn practical_lists_are_not_padded() {
        // (0, 0) alone separates EID 0 from EID 1 and leaves EID 0 alone
        // in the universe, so its list is that one scenario, though EID 0
        // is inclusive in three more.
        let mut vague = scenario(1, 1, &[0]);
        vague.insert(Eid::from_u64(1), ZoneAttr::Vague);
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[0]),
            vague,
            scenario(0, 2, &[0, 1]),
            scenario(0, 3, &[0, 1]),
            scenario(1, 4, &[1]),
        ]);
        let out = in_store_order(&store, &targets(0..2), SplitMode::Practical);
        assert!(out.fully_split());
        let first = ScenarioId::new(Timestamp::new(0), CellId::new(0));
        assert_eq!(out.lists[&Eid::from_u64(0)], vec![first]);
    }

    #[test]
    fn selected_includes_anchors() {
        let store = binary_store();
        let out = split_ideal(&store, &targets(0..4), &SetSplitConfig::default());
        let selected = out.selected();
        for list in out.lists.values() {
            for id in list {
                assert!(selected.contains(id));
            }
        }
        assert!(selected.len() >= out.recorded.len());
    }

    #[test]
    fn random_time_strategy_is_deterministic_per_seed() {
        let store = binary_store();
        let cfg = |seed| SetSplitConfig { seed };
        let a = split_ideal(&store, &targets(0..4), &cfg(1));
        let b = split_ideal(&store, &targets(0..4), &cfg(1));
        assert_eq!(a.recorded, b.recorded);
        assert!(a.fully_split());
    }

    #[test]
    fn unsplittable_universe_stops_gracefully() {
        // EIDs 5 and 6 always co-occur: no scenario can separate them.
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[5, 6]),
            scenario(1, 1, &[5, 6, 7]),
        ]);
        let out = split_ideal(&store, &targets([5, 6, 7]), &SetSplitConfig::default());
        assert!(!out.fully_split());
        assert!(out.partition.is_distinguished(Eid::from_u64(7)));
        assert!(!out.partition.is_distinguished(Eid::from_u64(5)));
    }

    #[test]
    fn eid_absent_from_all_scenarios_keeps_empty_list() {
        let store = binary_store();
        let out = split_ideal(&store, &targets([0, 1, 99]), &SetSplitConfig::default());
        assert!(out.lists[&Eid::from_u64(99)].is_empty(), "no anchor exists");
    }

    #[test]
    fn effectiveness_bound_of_theorem_4_2_holds() {
        // Against any store, the number of recorded scenarios is at most
        // n - 1 for n targets (each effective scenario adds >= 1 block).
        let scenarios: Vec<EScenario> = (0..40)
            .map(|i| {
                scenario(
                    i % 5,
                    i as u64,
                    &[(i as u64) % 7, (i as u64) % 11, (i as u64) % 13],
                )
            })
            .collect();
        let store = EScenarioStore::from_scenarios(scenarios);
        let n = 13;
        let out = split_ideal(&store, &targets(0..n), &SetSplitConfig::default());
        assert!(
            out.recorded.len() < (n as usize),
            "{} recorded for n={n}",
            out.recorded.len()
        );
    }

    #[test]
    fn scenario_reuse_one_scenario_serves_many_eids() {
        // One big scenario containing half the universe serves as one
        // splitter for all 4 of its EIDs at once.
        let store = EScenarioStore::from_scenarios(vec![
            scenario(0, 0, &[0, 1, 2, 3]),
            scenario(1, 1, &[0, 1]),
            scenario(2, 2, &[0, 2]),
            scenario(3, 3, &[4, 5]),
            scenario(4, 4, &[4, 6]),
        ]);
        let out = in_store_order(&store, &targets(0..8), SplitMode::Ideal);
        assert!(out.fully_split());
        // 5 recorded scenarios distinguish 8 EIDs: 0..3 from 4..7, then
        // pairwise.
        assert_eq!(out.recorded.len(), 5);
    }

    #[test]
    fn the_cover_buys_one_scenario_for_two_eids_shadows() {
        // EID 0 is shadowed by 10 and EID 1 by 11. The shared scenario
        // at time 1 rules out both shadows; each EID also has three
        // private scenarios that rule out its own.
        let mut scenarios = vec![
            scenario(0, 0, &[0, 10]),
            scenario(1, 0, &[1, 11]),
            scenario(0, 1, &[0, 1]),
        ];
        for t in 2..5 {
            scenarios.push(scenario(0, t, &[0]));
            scenarios.push(scenario(1, t, &[1]));
        }
        let store = EScenarioStore::from_scenarios(scenarios);
        let id = |cell, time| ScenarioId::new(Timestamp::new(time), CellId::new(cell));
        let lists = || {
            BTreeMap::from([
                (Eid::from_u64(0), vec![id(0, 0)]),
                (Eid::from_u64(1), vec![id(1, 0)]),
            ])
        };
        let bought = |lists: &BTreeMap<Eid, ScenarioList>| -> BTreeSet<ScenarioId> {
            lists.values().map(|list| list[1]).collect()
        };
        for inclusive_only in [false, true] {
            let mut cover = lists();
            ensure_unique_against_universe(&store, &mut cover, 0, inclusive_only);
            assert_eq!(cover[&Eid::from_u64(0)], vec![id(0, 0), id(0, 1)]);
            assert_eq!(cover[&Eid::from_u64(1)], vec![id(1, 0), id(0, 1)]);
        }
        // The per-EID pass draws its picks at random; some seeds buy a
        // private scenario for each EID.
        let two = (0..8).any(|seed| {
            let mut reference = lists();
            ensure_unique_per_eid_reference(&store, &mut reference, seed, true);
            bought(&reference).len() == 2
        });
        assert!(two, "the reference never bought private footage");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::random_store;
    use super::*;
    use ev_core::region::CellId;
    use ev_core::time::Timestamp;
    use proptest::prelude::*;

    /// `random_store` with roughly a third of its appearances vague.
    fn with_vague(store: &EScenarioStore) -> EScenarioStore {
        let scenarios = store.iter().map(|s| {
            let mut s = s.clone();
            let vague: Vec<Eid> = s
                .eids()
                .filter(|e| (e.as_u64() + s.time().tick()) % 3 == 0)
                .collect();
            for eid in vague {
                s.insert(eid, ZoneAttr::Vague);
            }
            s
        });
        EScenarioStore::from_scenarios(scenarios.collect())
    }

    /// Lists of zero to two scenarios holding each EID, drawn by `pick`.
    fn starting_lists(store: &EScenarioStore, eids: u64, pick: u64) -> BTreeMap<Eid, ScenarioList> {
        (0..eids)
            .map(Eid::from_u64)
            .map(|eid| {
                let postings = store.index().postings(eid);
                let len = ((pick >> (eid.as_u64() % 32 * 2)) & 3) as usize % 3;
                let mut list: ScenarioList = (0..len.min(postings.len()))
                    .map(|j| postings[(pick as usize + 7 * j) % postings.len()])
                    .collect();
                list.dedup();
                (eid, list)
            })
            .collect()
    }

    /// The EIDs present in every scenario of `list`.
    fn co_presence(store: &EScenarioStore, list: &[ScenarioId]) -> Vec<Eid> {
        let mut common = CoPresence::default();
        for &id in list {
            common.narrow(store.get(id).unwrap());
        }
        common.members().to_vec()
    }

    /// The cover with the heap replaced by what it stands for: after the
    /// shipped reuse phase, every pick re-scans all fresh candidates for
    /// the highest gain, the smallest id winning ties.
    fn unique_by_rescan(
        store: &EScenarioStore,
        lists: &mut BTreeMap<Eid, ScenarioList>,
        seed: u64,
        inclusive_only: bool,
    ) {
        let selected: BTreeSet<ScenarioId> = lists.values().flatten().copied().collect();
        let hosts = |eid: Eid, s: &EScenario| {
            s.contains(eid) && (!inclusive_only || s.contains_inclusive(eid))
        };
        let mut pending: Vec<(Eid, CoPresence, &mut ScenarioList)> = Vec::new();
        for (&eid, list) in lists.iter_mut() {
            let mut common = CoPresence::default();
            for &id in list.iter() {
                common.narrow(store.get(id).unwrap());
            }
            if common.is_unseeded() || common.is_unique() {
                continue;
            }
            let reusable = store
                .containing(eid)
                .filter(|s| hosts(eid, s) && selected.contains(&s.id()) && !list.contains(&s.id()));
            let seed = seed ^ eid.as_u64().wrapping_mul(0x2545f4914f6cdd1d);
            list.extend(isolate(&mut common, reusable, |_| true, seed));
            pending.push((eid, common, list));
        }
        loop {
            let gain = |s: &EScenario| -> usize {
                let hosted = pending
                    .iter()
                    .filter(|(eid, common, _)| !common.is_unique() && hosts(*eid, s));
                hosted
                    .map(|(_, common, _)| {
                        common.members().iter().filter(|&&e| !s.contains(e)).count()
                    })
                    .sum()
            };
            let fresh = store.iter().filter(|s| !selected.contains(&s.id()));
            let best = fresh
                .map(|s| (gain(s), Reverse(s.id()), s))
                .filter(|&(g, ..)| g > 0)
                .max_by_key(|&(g, id, _)| (g, id));
            let Some((_, _, scenario)) = best else {
                break;
            };
            for (eid, common, list) in &mut pending {
                if !common.is_unique() && hosts(*eid, scenario) && common.narrow(scenario) {
                    list.push(scenario.id());
                }
            }
        }
    }

    /// The split's lists before the prune: the loop, the anchors and the
    /// uniqueness pass, as [`split`] runs them with nothing extracted.
    fn unpruned(
        store: &EScenarioStore,
        targets: &BTreeSet<Eid>,
        seed: u64,
        mode: SplitMode,
    ) -> BTreeMap<Eid, ScenarioList> {
        let none = BTreeSet::new();
        let mut state = SplitState::new(targets, mode);
        for scenario in scenario_order(store, seed, &none) {
            if state.done() {
                break;
            }
            state.examine(scenario);
        }
        let inclusive_only = mode == SplitMode::Practical;
        let mut lists = state.lists;
        attach_anchors(store, &mut lists, inclusive_only);
        ensure_unique_against_universe(store, &mut lists, seed, inclusive_only);
        lists
    }

    proptest! {
        /// The walk visits every scenario once: the `extracted` ones
        /// first, then the rest, each group a timestamp at a time in
        /// the one shuffled order of the store's times that a first
        /// round walks.
        #[test]
        fn the_walk_visits_the_ledger_first_then_the_rest_a_timestamp_at_a_time(
            world_seed in 0u64..40,
            seed in any::<u64>(),
            pick in any::<u64>(),
        ) {
            let store = random_store(world_seed, 3, 10, 14);
            let ids = || store.iter().map(EScenario::id);
            let extracted: BTreeSet<ScenarioId> = ids()
                .filter(|id| pick >> ((id.time.tick() * 3 + id.cell.index() as u64) % 64) & 1 == 1)
                .collect();
            let walk: Vec<ScenarioId> = scenario_order(&store, seed, &extracted).map(EScenario::id).collect();
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, ids().collect::<Vec<_>>());
            let (reused, fresh) = walk.split_at(extracted.len());
            prop_assert!(reused.iter().all(|id| extracted.contains(id)));
            let times = |group: &[ScenarioId]| {
                let mut times: Vec<_> = group.iter().map(|id| id.time).collect();
                times.dedup();
                times
            };
            let none = BTreeSet::new();
            let first_round: Vec<ScenarioId> = scenario_order(&store, seed, &none).map(EScenario::id).collect();
            let order = times(&first_round);
            for group in [reused, fresh] {
                let mut rest = order.iter();
                let in_order = times(group).iter().all(|t| rest.any(|u| u == t));
                prop_assert!(in_order, "a timestamp visited twice or out of order");
            }
        }

        /// For arbitrary scenario pools, the recorded count respects the
        /// Theorem 4.2 upper bound and the partition matches signature
        /// classes over the *recorded* scenarios only.
        #[test]
        fn recorded_scenarios_respect_upper_bound(
            pool in prop::collection::vec(
                prop::collection::btree_set(0u64..12, 0..8),
                1..25,
            ),
        ) {
            let scenarios: Vec<EScenario> = pool
                .iter()
                .enumerate()
                .map(|(i, eids)| {
                    let mut s = EScenario::new(
                        CellId::new(i % 4),
                        Timestamp::new(i as u64),
                    );
                    for &e in eids {
                        s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
                    }
                    s
                })
                .collect();
            let store = EScenarioStore::from_scenarios(scenarios);
            let targets: BTreeSet<Eid> = (0..12).map(Eid::from_u64).collect();
            let out = split_ideal(&store, &targets, &SetSplitConfig::default());
            prop_assert!(out.recorded.len() < targets.len());
            prop_assert!(out.partition.check_invariants());
            // Recorded scenarios reproduce the partition from scratch.
            let mut replay = EidCover::new(targets.iter().copied());
            for id in &out.recorded {
                let members = store.get(*id).unwrap().eids();
                replay.split(members.map(|e| (e, ZoneAttr::Inclusive)));
            }
            prop_assert_eq!(&replay, &out.partition);
        }

        /// The uniqueness cover ends every EID on the co-presence set the
        /// per-EID pass ends it on, appends only scenarios that host the
        /// EID and shrank its set when appended, picks what a full
        /// re-scan picks, and does so the same way twice.
        #[test]
        fn the_uniqueness_cover_ends_where_the_per_eid_pass_does(
            world_seed in 0u64..40,
            pick in any::<u64>(),
            seed in any::<u64>(),
            inclusive_only in any::<bool>(),
        ) {
            let store = with_vague(&random_store(world_seed, 3, 10, 14));
            let start = starting_lists(&store, 14, pick);
            let run = |pass: fn(&EScenarioStore, &mut BTreeMap<Eid, ScenarioList>, u64, bool)| {
                let mut lists = start.clone();
                pass(&store, &mut lists, seed, inclusive_only);
                lists
            };
            let cover = run(ensure_unique_against_universe);
            let reference = run(ensure_unique_per_eid_reference);
            prop_assert_eq!(&cover, &run(ensure_unique_against_universe));
            prop_assert_eq!(&cover, &run(unique_by_rescan));
            for (eid, list) in &cover {
                let before = &start[eid];
                prop_assert_eq!(&list[..before.len()], &before[..]);
                prop_assert_eq!(co_presence(&store, list), co_presence(&store, &reference[eid]));
                let mut common = CoPresence::default();
                for &id in before {
                    common.narrow(store.get(id).unwrap());
                }
                for &id in &list[before.len()..] {
                    let scenario = store.get(id).unwrap();
                    prop_assert!(scenario.contains(*eid));
                    prop_assert!(!inclusive_only || scenario.contains_inclusive(*eid));
                    prop_assert!(common.narrow(scenario), "{} did not shrink {}'s set", id, eid);
                }
            }
        }

        /// The prune keeps every list's co-presence set and leaves no
        /// list that had an entry empty; a scenario it drops is named by
        /// no list after it; a second prune changes nothing; and the
        /// split's lists are the unpruned ones pruned.
        #[test]
        fn the_prune_keeps_every_set_and_drops_whole_scenarios(
            world_seed in 0u64..40,
            seed in any::<u64>(),
            practical in any::<bool>(),
        ) {
            let store = with_vague(&random_store(world_seed, 3, 10, 14));
            let targets: BTreeSet<Eid> = (0..14).map(Eid::from_u64).collect();
            let mode = if practical { SplitMode::Practical } else { SplitMode::Ideal };
            let before = unpruned(&store, &targets, seed, mode);
            let mut lists = before.clone();
            prune_redundant(&store, &mut lists);
            let named: BTreeSet<ScenarioId> = lists.values().flatten().copied().collect();
            for (eid, list) in &lists {
                let had = &before[eid];
                prop_assert_eq!(co_presence(&store, list), co_presence(&store, had));
                prop_assert!(had.is_empty() || !list.is_empty(), "{}'s list emptied", eid);
                for id in had.iter().filter(|id| !list.contains(id)) {
                    prop_assert!(!named.contains(id), "{} dropped from {}'s list only", id, eid);
                }
            }
            let mut again = lists.clone();
            prune_redundant(&store, &mut again);
            prop_assert_eq!(&again, &lists);
            let out = split(&store, &targets, &SetSplitConfig { seed }, mode, &BTreeSet::new(), Telemetry::disabled());
            prop_assert_eq!(&out.lists, &lists);
        }
    }
}
