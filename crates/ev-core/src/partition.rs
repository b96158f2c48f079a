//! Partition refinement over EID universes — the data structure behind EID
//! set splitting (paper §IV-B1, §IV-C2).
//!
//! A group of EIDs that the algorithm cannot yet tell apart is an
//! *undistinguishable EID set*; [`EidCover`] holds the collection of all
//! such sets over one EID universe. One E-Scenario splits every block it
//! confidently discriminates into the EIDs that appear in the scenario and
//! those that do not (`SplitBy` in Algorithm 1). A scenario is
//! **effective** when it actually changes the structure.
//!
//! The ideal Algorithm 1 and the practical vague-zone variant are one
//! refinement. An EID observed in a scenario's *vague* zone is duplicated
//! into *both* children of a split, so blocks may overlap until an
//! all-inclusive path distinguishes the EID, at which point its tentative
//! copies are pruned (mirroring the exclusion step in the proof of
//! Theorem 4.1). A scenario with no vague member splits the cover exactly
//! as it splits a partition, so the ideal setting is the special case in
//! which the blocks stay disjoint ([`EidCover::is_partition`]).
//!
//! EIDs are addressed by dense *ordinals* over the sorted universe, and a
//! reverse map lists the blocks holding each ordinal, so a split visits
//! only the blocks its scenario's inclusive members sit in.

use crate::ids::Eid;
use crate::scenario::ZoneAttr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Outcome of splitting a cover by one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitOutcome {
    /// Whether the scenario changed the structure (i.e. was *effective*
    /// and must be recorded per Algorithm 1).
    pub effective: bool,
    /// How many blocks were divided by this scenario.
    pub blocks_split: usize,
}

/// A cover of an EID universe by undistinguishable sets: a partition in
/// the ideal setting, overlapping where vague-zone observations left an
/// EID on both sides of a split.
///
/// Each copy of an EID carries a confidence flag: a copy is *firm* when
/// every placement along its path was inclusive, *tentative* once any
/// placement was vague. Any singleton block distinguishes its EID (a
/// tentative singleton just means its VID may be missing from some
/// selected V-Scenarios — the refinement loop copes); pruning then deletes
/// the EID's other copies. Two covers are equal when they hold the same
/// universe and the same set of blocks, firmness included.
///
/// # Examples
///
/// ```
/// use ev_core::partition::EidCover;
/// use ev_core::{Eid, ZoneAttr};
///
/// let eids: Vec<Eid> = (0..4).map(Eid::from_u64).collect();
/// let mut cover = EidCover::new(eids.iter().copied());
/// assert_eq!(cover.block_count(), 1);
///
/// // Scenario containing EIDs 0 and 1 splits {0,1,2,3} into {0,1} | {2,3}.
/// let c = eids[..2].iter().map(|&e| (e, ZoneAttr::Inclusive));
/// assert!(cover.split(c).effective);
/// assert_eq!(cover.block_count(), 2);
///
/// // EID 2 is seen inside a cell while 3 drifts along its border: nobody
/// // in {2,3} is confidently absent, so the block stays whole.
/// let c = [(eids[2], ZoneAttr::Inclusive), (eids[3], ZoneAttr::Vague)];
/// assert!(!cover.split(c).effective);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EidCover {
    /// The universe in EID order; an EID's *ordinal* is its index here.
    universe: Vec<Eid>,
    /// Block slots, each `(ordinal, firm)` sorted by ordinal. A split or
    /// pruned block leaves its slot empty; slots are never reused.
    blocks: Vec<Vec<(u32, bool)>>,
    /// Reverse map: ordinal → slots of the blocks holding a copy of it.
    slots_of: Vec<Vec<u32>>,
    /// Running count of ordinals with at least one singleton block.
    distinguished: usize,
}

impl EidCover {
    /// Creates the trivial cover `{U}` with every EID firm. Duplicate EIDs
    /// in the input are collapsed. An empty universe yields zero blocks.
    #[must_use]
    pub fn new(universe: impl IntoIterator<Item = Eid>) -> Self {
        let set: BTreeSet<Eid> = universe.into_iter().collect();
        Self::from_blocks((!set.is_empty()).then_some(set)).expect("one non-empty block")
    }

    /// Reassembles a cover from externally computed disjoint blocks, every
    /// member firm (e.g. the merge step of the parallel set splitting,
    /// paper Algorithm 3).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidParameter`] if any block is empty or
    /// an EID appears in two blocks.
    pub fn from_blocks(blocks: impl IntoIterator<Item = BTreeSet<Eid>>) -> crate::Result<Self> {
        let blocks: Vec<BTreeSet<Eid>> = blocks.into_iter().collect();
        let universe: BTreeSet<Eid> = blocks.iter().flatten().copied().collect();
        assert!(u32::try_from(universe.len()).is_ok(), "32-bit ordinals");
        let mut cover = EidCover {
            slots_of: vec![Vec::new(); universe.len()],
            universe: universe.into_iter().collect(),
            blocks: Vec::new(),
            distinguished: 0,
        };
        for (i, block) in blocks.iter().enumerate() {
            let members: Vec<(u32, bool)> = block
                .iter()
                .map(|&eid| (cover.ordinal(eid).expect("in the union"), true))
                .collect();
            let taken = |&(o, _): &(u32, bool)| !cover.slots_of[o as usize].is_empty();
            if members.is_empty() || members.iter().any(taken) {
                return Err(crate::Error::InvalidParameter {
                    name: "blocks",
                    reason: format!("block {i} is empty or shares an EID with an earlier block"),
                });
            }
            cover.insert_block(members);
        }
        Ok(cover)
    }

    /// Number of EIDs in the universe.
    #[must_use]
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.universe.is_empty()
    }

    /// Number of blocks in the cover.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks().count()
    }

    /// Iterates over the blocks in unspecified order; each block yields
    /// its `(EID, firm)` members in EID order.
    pub fn blocks(
        &self,
    ) -> impl Iterator<Item = impl ExactSizeIterator<Item = (Eid, bool)> + '_> + '_ {
        let live = self.blocks.iter().filter(|b| !b.is_empty());
        live.map(|b| self.members(b))
    }

    /// The blocks holding a copy of `eid` — exactly one while the cover
    /// is a partition, none for an EID outside the universe.
    pub fn blocks_of(
        &self,
        eid: Eid,
    ) -> impl Iterator<Item = impl ExactSizeIterator<Item = (Eid, bool)> + '_> + '_ {
        let slots = self.ordinal(eid).map(|o| &self.slots_of[o as usize]);
        let slots = slots.into_iter().flatten();
        slots.map(|&s| self.members(&self.blocks[s as usize]))
    }

    fn members<'a>(
        &'a self,
        block: &'a [(u32, bool)],
    ) -> impl ExactSizeIterator<Item = (Eid, bool)> + 'a {
        let eid = |&(o, firm): &(u32, bool)| (self.universe[o as usize], firm);
        block.iter().map(eid)
    }

    fn ordinal(&self, eid: Eid) -> Option<u32> {
        self.universe.binary_search(&eid).ok().map(|o| o as u32)
    }

    /// Whether some block is exactly `{o}` — with the given firmness, if
    /// one is asked for.
    fn has_singleton(&self, o: u32, firm: Option<bool>) -> bool {
        self.slots_of[o as usize].iter().any(|&s| {
            matches!(self.blocks[s as usize][..], [(_, f)] if firm.is_none_or(|want| want == f))
        })
    }

    /// Whether the blocks are pairwise disjoint — always, in the ideal
    /// setting; until a scenario with a vague member splits a block, in
    /// the practical one.
    #[must_use]
    pub fn is_partition(&self) -> bool {
        self.slots_of.iter().all(|slots| slots.len() == 1)
    }

    /// Whether `eid` is distinguished: some block is exactly the singleton
    /// `{eid}`, meaning every other EID has been confidently ruled out of
    /// that block's scenario signature.
    ///
    /// A *tentative* singleton still distinguishes the EID — its VID may
    /// simply fail to show up in some of the selected V-Scenarios, which
    /// the matching-refining loop handles (paper §IV-C4).
    #[must_use]
    pub fn is_distinguished(&self, eid: Eid) -> bool {
        self.ordinal(eid)
            .is_some_and(|o| self.has_singleton(o, None))
    }

    /// Whether `eid` is distinguished by a *firm* singleton: every
    /// placement on its path was inclusive, so its VID is expected in every
    /// selected V-Scenario.
    #[must_use]
    pub fn is_firmly_distinguished(&self, eid: Eid) -> bool {
        self.ordinal(eid)
            .is_some_and(|o| self.has_singleton(o, Some(true)))
    }

    /// All currently distinguished EIDs, in EID order.
    pub fn distinguished(&self) -> impl Iterator<Item = Eid> + '_ {
        let alone = |&(o, _): &(usize, &Eid)| self.has_singleton(o as u32, None);
        let ordinals = self.universe.iter().enumerate().filter(alone);
        ordinals.map(|(_, &eid)| eid)
    }

    /// Whether every EID of the universe is distinguished (vacuously true
    /// of an empty universe). `O(1)`: the count is kept as blocks change.
    #[must_use]
    pub fn is_fully_split(&self) -> bool {
        self.distinguished == self.universe.len()
    }

    /// Splits the cover by one scenario's members (paper §IV-C2 and the
    /// splitting rule in Theorem 4.3; with every member inclusive this is
    /// `SplitBy` of Algorithm 1). Members outside the universe are
    /// ignored; an EID listed twice keeps its first attribute.
    ///
    /// * EIDs **inclusive** in the scenario go to the *in* child; the
    ///   placement is firm only if the EID was firm in the block too
    ///   ("inclusive in both the E-Scenario and the original node"),
    ///   tentative otherwise;
    /// * EIDs absent from the scenario keep their firmness in the *out*
    ///   child;
    /// * EIDs **vague** in the scenario are copied into *both* children as
    ///   tentative — electronic drift means they could be on either side.
    ///
    /// A block is only split when the scenario confidently discriminates —
    /// i.e. it has at least one inclusive member and at least one absent
    /// member in the block; otherwise the block is left untouched. Every
    /// such decision is taken on the state before the call, and only the
    /// blocks holding an inclusive member are visited.
    pub fn split(&mut self, scenario: impl IntoIterator<Item = (Eid, ZoneAttr)>) -> SplitOutcome {
        let mut members: Vec<(u32, ZoneAttr)> = scenario
            .into_iter()
            .filter_map(|(eid, attr)| Some((self.ordinal(eid)?, attr)))
            .collect();
        members.sort_by_key(|&(o, _)| o);
        members.dedup_by_key(|&mut (o, _)| o);
        let attr_of = |o: u32| {
            let at = members.binary_search_by_key(&o, |&(m, _)| m);
            at.ok().map(|i| members[i].1)
        };

        let mut splitting: Vec<u32> = members
            .iter()
            .filter(|(_, attr)| *attr == ZoneAttr::Inclusive)
            .flat_map(|&(o, _)| self.slots_of[o as usize].iter().copied())
            .collect();
        splitting.sort_unstable();
        splitting.dedup();
        // An inclusive member is there by construction; the scenario
        // discriminates when some member is confidently absent too.
        splitting.retain(|&s| {
            let block = &self.blocks[s as usize];
            block.iter().any(|&(o, _)| attr_of(o).is_none())
        });

        let parents: Vec<Vec<(u32, bool)>> =
            splitting.iter().map(|&s| self.take_block(s)).collect();
        for parent in &parents {
            let (mut child_in, mut child_out) = (Vec::new(), Vec::new());
            for &(o, firm) in parent {
                match attr_of(o) {
                    Some(ZoneAttr::Inclusive) => child_in.push((o, firm)),
                    Some(ZoneAttr::Vague) => {
                        // Could be on either side of the border.
                        child_in.push((o, false));
                        child_out.push((o, false));
                    }
                    None => child_out.push((o, firm)),
                }
            }
            self.insert_block(child_in);
            self.insert_block(child_out);
        }
        SplitOutcome {
            effective: !parents.is_empty(),
            blocks_split: parents.len(),
        }
    }

    /// Prunes a distinguished EID: removes it from every block except one
    /// singleton (a firm one if available), discarding blocks that empty
    /// out. Mirrors the exclusion-and-merge step in the proof of
    /// Theorem 4.1. Returns `false` when `eid` is not distinguished.
    pub fn prune_distinguished(&mut self, eid: Eid) -> bool {
        let alone = |&o: &u32| self.has_singleton(o, None);
        let Some(o) = self.ordinal(eid).filter(alone) else {
            return false;
        };
        let keeper = [(o, self.has_singleton(o, Some(true)))];
        self.strip(o, |block| block != keeper);
        true
    }

    /// Removes an EID from the cover entirely (accepted-match cleanup in
    /// the refinement loop). The ordinals above it shift down, so this is
    /// linear in the size of the cover.
    pub fn remove(&mut self, eid: Eid) -> bool {
        let Some(o) = self.ordinal(eid) else {
            return false;
        };
        self.strip(o, |_| true);
        self.universe.remove(o as usize);
        self.slots_of.remove(o as usize);
        let above = self.blocks.iter_mut().flatten().filter(|m| m.0 > o);
        above.for_each(|member| member.0 -= 1);
        true
    }

    /// Deletes ordinal `o` from the blocks holding it that `from` selects.
    fn strip(&mut self, o: u32, from: impl Fn(&[(u32, bool)]) -> bool) {
        for slot in self.slots_of[o as usize].clone() {
            if from(&self.blocks[slot as usize]) {
                let mut block = self.take_block(slot);
                block.retain(|&(m, _)| m != o);
                self.insert_block(block);
            }
        }
    }

    /// Vacates `slot`, unhooking its members from the reverse map.
    fn take_block(&mut self, slot: u32) -> Vec<(u32, bool)> {
        let block = std::mem::take(&mut self.blocks[slot as usize]);
        for &(o, _) in &block {
            self.slots_of[o as usize].retain(|&s| s != slot);
        }
        if let [(o, _)] = block[..] {
            self.distinguished -= usize::from(!self.has_singleton(o, None));
        }
        block
    }

    /// Files `block` (sorted by ordinal) under a new slot, unless it is
    /// empty or equal to a block already present. Any equal block shares
    /// its first member, so only that member's holders are compared.
    fn insert_block(&mut self, block: Vec<(u32, bool)>) {
        let Some(&(first, _)) = block.first() else {
            return;
        };
        let holders = &self.slots_of[first as usize];
        if holders.iter().any(|&s| self.blocks[s as usize] == block) {
            return;
        }
        if block.len() == 1 {
            self.distinguished += usize::from(!self.has_singleton(first, None));
        }
        for &(o, _) in &block {
            self.slots_of[o as usize].push(self.blocks.len() as u32);
        }
        self.blocks.push(block);
    }

    /// The blocks in canonical order.
    fn sorted_blocks(&self) -> Vec<&Vec<(u32, bool)>> {
        let mut blocks: Vec<_> = self.blocks.iter().filter(|b| !b.is_empty()).collect();
        blocks.sort_unstable();
        blocks
    }

    /// Verifies the internal invariants: blocks are sorted, pairwise
    /// distinct and drawn from the universe; every EID of the universe is
    /// covered; the reverse map and the distinguished count agree with
    /// the blocks. Intended for tests and debug assertions.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let n = self.universe.len();
        let mut slots_of = vec![Vec::new(); n];
        for (slot, block) in self.blocks.iter().enumerate() {
            let sorted = block.windows(2).all(|w| w[0].0 < w[1].0);
            if !sorted || block.last().is_some_and(|&(o, _)| o as usize >= n) {
                return false;
            }
            for &(o, _) in block {
                slots_of[o as usize].push(slot as u32);
            }
        }
        let alone = (0..n).filter(|&o| self.has_singleton(o as u32, None));
        self.universe.windows(2).all(|w| w[0] < w[1])
            && self.sorted_blocks().windows(2).all(|w| w[0] != w[1])
            && slots_of.iter().all(|slots| !slots.is_empty())
            && self.slots_of == slots_of
            && self.distinguished == alone.count()
    }
}

impl PartialEq for EidCover {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe && self.sorted_blocks() == other.sorted_blocks()
    }
}

/// The walk-every-block cover this module started from, kept verbatim as
/// the differential reference for [`EidCover`]: every split drains every
/// block into two fresh maps and re-sorts the whole block list.
#[cfg(test)]
mod reference {
    use super::SplitOutcome;
    use crate::ids::Eid;
    use crate::scenario::{EScenario, ZoneAttr};
    use std::collections::{BTreeMap, BTreeSet};

    pub struct VagueCover {
        /// Blocks: EID -> firmness (`true` = firm/inclusive path).
        pub blocks: Vec<BTreeMap<Eid, bool>>,
    }

    impl VagueCover {
        /// The trivial cover of a non-empty universe.
        pub fn new(universe: impl IntoIterator<Item = Eid>) -> Self {
            let block = universe.into_iter().map(|e| (e, true)).collect();
            VagueCover {
                blocks: vec![block],
            }
        }

        fn is_distinguished(&self, eid: Eid) -> bool {
            self.blocks
                .iter()
                .any(|b| b.len() == 1 && b.contains_key(&eid))
        }

        fn is_firmly_distinguished(&self, eid: Eid) -> bool {
            self.blocks
                .iter()
                .any(|b| b.len() == 1 && b.get(&eid) == Some(&true))
        }

        pub fn distinguished(&self) -> BTreeSet<Eid> {
            self.blocks
                .iter()
                .filter(|b| b.len() == 1)
                .filter_map(|b| b.keys().next().copied())
                .collect()
        }

        pub fn split_by_scenario(&mut self, scenario: &EScenario) -> SplitOutcome {
            let mut new_blocks: Vec<BTreeMap<Eid, bool>> = Vec::with_capacity(self.blocks.len());
            let mut blocks_split = 0;
            for block in self.blocks.drain(..) {
                let mut child_in: BTreeMap<Eid, bool> = BTreeMap::new();
                let mut child_out: BTreeMap<Eid, bool> = BTreeMap::new();
                let mut only_in = 0usize; // inclusive members (left side only)
                let mut only_out = 0usize; // absent members (right side only)
                for (&eid, &firm) in &block {
                    match scenario.attr(eid) {
                        Some(ZoneAttr::Inclusive) => {
                            child_in.insert(eid, firm);
                            only_in += 1;
                        }
                        Some(ZoneAttr::Vague) => {
                            // Could be on either side of the border.
                            child_in.insert(eid, false);
                            child_out.insert(eid, false);
                        }
                        None => {
                            child_out.insert(eid, firm);
                            only_out += 1;
                        }
                    }
                }
                if only_in > 0 && only_out > 0 {
                    blocks_split += 1;
                    new_blocks.push(child_in);
                    new_blocks.push(child_out);
                } else {
                    new_blocks.push(block);
                }
            }
            // Deduplicate identical blocks (vague duplication can converge).
            new_blocks.sort();
            new_blocks.dedup();
            self.blocks = new_blocks;
            SplitOutcome {
                effective: blocks_split > 0,
                blocks_split,
            }
        }

        pub fn prune_distinguished(&mut self, eid: Eid) -> bool {
            if !self.is_distinguished(eid) {
                return false;
            }
            let keep_firm = self.is_firmly_distinguished(eid);
            let mut kept_singleton = false;
            self.blocks.retain_mut(|b| {
                let is_keeper = b.len() == 1
                    && b.contains_key(&eid)
                    && (!keep_firm || b.get(&eid) == Some(&true));
                if is_keeper {
                    if kept_singleton {
                        return false; // duplicate singleton
                    }
                    kept_singleton = true;
                    return true;
                }
                b.remove(&eid);
                !b.is_empty()
            });
            self.blocks.sort();
            self.blocks.dedup();
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::CellId;
    use crate::scenario::EScenario;
    use crate::time::Timestamp;

    fn eids(raw: impl IntoIterator<Item = u64>) -> BTreeSet<Eid> {
        raw.into_iter().map(Eid::from_u64).collect()
    }

    fn scenario(inclusive: &[u64], vague: &[u64]) -> EScenario {
        let mut s = EScenario::new(CellId::new(0), Timestamp::ZERO);
        for &e in inclusive {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        for &e in vague {
            s.insert(Eid::from_u64(e), ZoneAttr::Vague);
        }
        s
    }

    /// `SplitBy` of Algorithm 1: every listed EID is inclusive.
    fn split_by(c: &mut EidCover, inside: impl IntoIterator<Item = u64>) -> SplitOutcome {
        c.split(eids(inside).into_iter().map(|e| (e, ZoneAttr::Inclusive)))
    }

    /// The EIDs of the one block holding `eid` in a partition.
    fn block_of(c: &EidCover, eid: u64) -> Option<Vec<Eid>> {
        let mut holders = c.blocks_of(Eid::from_u64(eid));
        let block = holders.next()?.map(|(e, _)| e).collect();
        assert!(holders.next().is_none(), "a partition holds one copy");
        Some(block)
    }

    /// How many blocks hold a copy of `eid`, and whether all are tentative.
    fn copies(c: &EidCover, eid: u64) -> (usize, bool) {
        let firm: Vec<bool> = c
            .blocks()
            .flatten()
            .filter(|&(e, _)| e == Eid::from_u64(eid))
            .map(|(_, firm)| firm)
            .collect();
        (firm.len(), firm.iter().all(|f| !f))
    }

    #[test]
    fn trivial_partition_has_one_block() {
        let p = EidCover::new(eids(0..5));
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.universe_len(), 5);
        assert!(!p.is_fully_split());
        assert!(p.is_partition());
        assert!(p.blocks().flatten().all(|(_, firm)| firm));
        assert!(p.check_invariants());
    }

    #[test]
    fn empty_universe_partition() {
        let p = EidCover::new(std::iter::empty());
        assert_eq!(p.block_count(), 0);
        assert!(p.is_empty());
        assert!(p.is_fully_split(), "vacuously fully split");
        assert!(p.check_invariants());
    }

    #[test]
    fn from_blocks_validates_and_reassembles() {
        let p = EidCover::from_blocks(vec![eids([0, 1]), eids([2])]).unwrap();
        assert_eq!(p.block_count(), 2);
        assert_eq!(p.universe_len(), 3);
        assert!(p.is_firmly_distinguished(Eid::from_u64(2)));
        assert!(p.check_invariants());
        assert!(EidCover::from_blocks(vec![eids([])]).is_err());
        assert!(
            EidCover::from_blocks(vec![eids([0, 1]), eids([1])]).is_err(),
            "overlapping blocks rejected"
        );
        let empty = EidCover::from_blocks(Vec::new()).unwrap();
        assert!(empty.is_empty());
        // Equality is over the set of blocks, not the order they came in.
        let mut split = EidCover::new(eids(0..3));
        split_by(&mut split, [2]);
        assert_eq!(split, p);
        assert_ne!(split, EidCover::new(eids(0..3)));
    }

    #[test]
    fn duplicates_in_universe_collapse() {
        let p = EidCover::new([1, 1, 2, 2].into_iter().map(Eid::from_u64));
        assert_eq!(p.universe_len(), 2);
    }

    #[test]
    fn split_divides_block_in_two() {
        let mut p = EidCover::new(eids(0..4));
        let out = split_by(&mut p, [0, 1]);
        assert!(out.effective);
        assert_eq!(out.blocks_split, 1);
        assert_eq!(p.block_count(), 2);
        assert_eq!(block_of(&p, 0), block_of(&p, 1));
        assert_ne!(block_of(&p, 0), block_of(&p, 2));
        assert!(p.check_invariants());
    }

    #[test]
    fn ineffective_scenarios_are_detected() {
        let mut p = EidCover::new(eids(0..4));
        // Contains every EID -> no split.
        assert!(!split_by(&mut p, 0..4).effective);
        // Contains none -> no split.
        assert!(!split_by(&mut p, 10..14).effective);
        assert_eq!(p.block_count(), 1);
        assert!(p.check_invariants());
    }

    #[test]
    fn foreign_eids_in_scenario_are_ignored() {
        let mut p = EidCover::new(eids(0..4));
        let out = split_by(&mut p, [2, 3, 99]);
        assert!(out.effective);
        assert_eq!(p.block_count(), 2);
        assert!(block_of(&p, 99).is_none());
        assert!(p.check_invariants());
    }

    #[test]
    fn one_scenario_can_split_several_blocks() {
        let mut p = EidCover::new(eids(0..8));
        split_by(&mut p, 0..4); // {0..3} | {4..7}
        let out = split_by(&mut p, [0, 1, 4, 5]);
        assert_eq!(out.blocks_split, 2);
        assert_eq!(p.block_count(), 4);
        assert!(p.check_invariants());
    }

    #[test]
    fn full_split_reached_with_log_n_scenarios_in_the_best_case() {
        // Theorem 4.2 lower bound: binary-code scenarios distinguish
        // 8 EIDs with exactly 3 scenarios.
        let mut p = EidCover::new(eids(0..8));
        for bit in 0..3 {
            let c = (0u64..8).filter(|e| (e >> bit) & 1 == 1);
            assert!(split_by(&mut p, c).effective);
        }
        assert!(p.is_fully_split());
        assert_eq!(p.block_count(), 8);
        for e in 0..8 {
            assert!(p.is_distinguished(Eid::from_u64(e)));
        }
    }

    #[test]
    fn upper_bound_each_effective_split_adds_at_least_one_block() {
        // Theorem 4.2 upper bound: n-1 effective scenarios always suffice.
        let mut p = EidCover::new(eids(0..6));
        let mut effective = 0;
        // Singleton scenarios: worst-case one new block per scenario.
        for e in 0..6 {
            if split_by(&mut p, [e]).effective {
                effective += 1;
            }
        }
        assert!(p.is_fully_split());
        assert!(effective <= 5, "n-1 = 5 effective scenarios suffice");
    }

    #[test]
    fn distinguished_iterator_reports_singletons() {
        let mut p = EidCover::new(eids(0..3));
        split_by(&mut p, [0]);
        let d: Vec<Eid> = p.distinguished().collect();
        assert_eq!(d, vec![Eid::from_u64(0)]);
    }

    #[test]
    fn remove_shrinks_universe_and_blocks() {
        let mut p = EidCover::new(eids(0..4));
        split_by(&mut p, [0, 1]);
        assert!(p.remove(Eid::from_u64(0)));
        assert!(!p.remove(Eid::from_u64(0)), "double remove is a no-op");
        assert_eq!(p.universe_len(), 3);
        assert!(p.is_distinguished(Eid::from_u64(1)));
        assert!(p.check_invariants());
        // Removing the last element of a block drops the block.
        assert!(p.remove(Eid::from_u64(1)));
        assert_eq!(p.block_count(), 1);
        assert_eq!(block_of(&p, 3), Some(eids([2, 3]).into_iter().collect()));
        assert!(p.check_invariants());
    }

    #[test]
    fn split_by_scenario_uses_all_eids() {
        let mut p = EidCover::new(eids(0..4));
        let s = scenario(&[0], &[1]);
        // Ideal semantics read every member as inclusive, whatever its
        // zone attribute: {0,1} | {2,3}.
        assert!(
            p.split(s.eids().map(|e| (e, ZoneAttr::Inclusive)))
                .effective
        );
        assert_eq!(block_of(&p, 0), block_of(&p, 1));
        assert!(p.is_partition());
    }

    #[test]
    fn all_inclusive_split_behaves_like_partition() {
        let mut c = EidCover::new(eids(0..4));
        let out = c.split(scenario(&[0, 1], &[]).iter());
        assert!(out.effective);
        assert_eq!(c.block_count(), 2);
        assert!(c.is_partition());
        assert!(c.check_invariants());
    }

    #[test]
    fn vague_eids_are_duplicated_into_both_children() {
        let mut c = EidCover::new(eids(0..4));
        // EID 1 is vague: the split must keep it on both sides, and its
        // copies are tentative.
        c.split(scenario(&[0], &[1]).iter());
        assert_eq!(copies(&c, 1), (2, true));
        assert_eq!(c.blocks_of(Eid::from_u64(1)).count(), 2);
        assert!(!c.is_partition());
        assert!(c.check_invariants());
    }

    #[test]
    fn drifted_eid_resolves_through_later_confident_scenarios() {
        let mut c = EidCover::new(eids(0..3));
        // EID 1 drifts (vague); 0 is confidently in, 2 confidently out.
        c.split(scenario(&[0], &[1]).iter());
        // Blocks: {0 firm, 1 tent} | {1 tent, 2 firm}. Nobody is alone yet.
        assert!(!c.is_distinguished(Eid::from_u64(0)));
        assert!(!c.is_distinguished(Eid::from_u64(1)));
        // A later scenario observes 1 confidently: every copy of 1 follows
        // it into the in-child and the copies deduplicate.
        c.split(scenario(&[1], &[]).iter());
        assert!(c.is_fully_split());
        assert_eq!(copies(&c, 1), (1, true));
        assert!(c.is_distinguished(Eid::from_u64(1)));
        assert!(
            !c.is_firmly_distinguished(Eid::from_u64(1)),
            "1's path went through a vague placement"
        );
        assert!(c.is_firmly_distinguished(Eid::from_u64(0)));
        assert!(c.is_firmly_distinguished(Eid::from_u64(2)));
        assert!(c.check_invariants());
    }

    #[test]
    fn split_without_firm_discrimination_is_ineffective() {
        let mut c = EidCover::new(eids(0..2));
        // Everyone vague: nothing firm on either side -> skip.
        let out = c.split(scenario(&[], &[0, 1]).iter());
        assert!(!out.effective);
        assert_eq!(c.block_count(), 1);
        // Everyone inclusive -> out-child has no firm EID -> skip.
        let out = c.split(scenario(&[0, 1], &[]).iter());
        assert!(!out.effective);
        assert!(c.check_invariants());
    }

    #[test]
    fn prune_removes_tentative_copies() {
        let mut c = EidCover::new(eids(0..3));
        c.split(scenario(&[0], &[2]).iter()); // {0,2?} | {1,2?}
        c.split(scenario(&[2], &[]).iter()); // distinguishes 2
        assert!(c.is_distinguished(Eid::from_u64(2)));
        assert!(c.prune_distinguished(Eid::from_u64(2)));
        // After pruning, 2 appears only in its singleton.
        assert_eq!(copies(&c, 2).0, 1);
        assert!(c.check_invariants());
        let mut fresh = EidCover::new(eids(0..3));
        assert!(
            !fresh.prune_distinguished(Eid::from_u64(0)),
            "nothing distinguished in a fresh cover"
        );
    }

    #[test]
    fn cover_remove_eid() {
        let mut c = EidCover::new(eids(0..3));
        c.split(scenario(&[0], &[1]).iter()); // {0,1?} | {1?,2}
        assert!(c.remove(Eid::from_u64(0)));
        assert!(!c.remove(Eid::from_u64(0)));
        assert_eq!(c.universe_len(), 2);
        assert_eq!(c.block_count(), 2, "{{1?}} | {{1?,2}}");
        assert!(c.is_distinguished(Eid::from_u64(1)));
        assert!(c.check_invariants());
    }

    #[test]
    fn fully_split_cover() {
        let mut c = EidCover::new(eids(0..3));
        c.split(scenario(&[0], &[]).iter());
        c.split(scenario(&[1], &[]).iter());
        assert!(c.is_fully_split());
        assert_eq!(c.distinguished().collect::<BTreeSet<Eid>>(), eids(0..3));
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::VagueCover;
    use super::*;
    use crate::scenario::EScenario;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn arb_universe() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..40, 1..30)
    }

    fn arb_scenarios() -> impl Strategy<Value = Vec<Vec<u64>>> {
        prop::collection::vec(prop::collection::vec(0u64..40, 0..20), 0..20)
    }

    fn arb_vague_scenarios() -> impl Strategy<Value = Vec<(Vec<u64>, Vec<u64>)>> {
        prop::collection::vec(
            (
                prop::collection::vec(0u64..40, 0..10),
                prop::collection::vec(0u64..40, 0..10),
            ),
            0..12,
        )
    }

    fn scenario(inclusive: &[u64], vague: &[u64]) -> EScenario {
        let mut s = EScenario::new(crate::region::CellId::new(0), crate::time::Timestamp::ZERO);
        for &e in inclusive {
            s.insert(Eid::from_u64(e), ZoneAttr::Inclusive);
        }
        for &e in vague {
            // Vague attribution wins on conflict to stress the
            // duplication path.
            s.insert(Eid::from_u64(e), ZoneAttr::Vague);
        }
        s
    }

    fn inclusive(c: &[u64]) -> impl Iterator<Item = (Eid, ZoneAttr)> + '_ {
        c.iter().map(|&e| (Eid::from_u64(e), ZoneAttr::Inclusive))
    }

    /// The blocks as sorted `EID -> firm` maps, the reference's own form.
    fn canonical(cover: &EidCover) -> Vec<BTreeMap<Eid, bool>> {
        let mut blocks: Vec<BTreeMap<Eid, bool>> = cover.blocks().map(Iterator::collect).collect();
        blocks.sort();
        blocks
    }

    proptest! {
        /// Without vague members the cover is a partition, whatever the
        /// scenario sequence.
        #[test]
        fn partition_invariants_hold_under_any_splits(
            universe in arb_universe(),
            scenarios in arb_scenarios(),
        ) {
            let mut p = EidCover::new(universe.iter().copied().map(Eid::from_u64));
            let n = p.universe_len();
            for c in &scenarios {
                let before = p.block_count();
                let out = p.split(inclusive(c));
                prop_assert!(p.check_invariants());
                prop_assert!(p.is_partition());
                prop_assert_eq!(p.universe_len(), n);
                // Effectiveness <=> block count grew.
                prop_assert_eq!(out.effective, p.block_count() > before);
                prop_assert_eq!(p.block_count(), before + out.blocks_split);
            }
            // Block count never exceeds the universe size.
            prop_assert!(p.block_count() <= n.max(1));
        }

        /// Two EIDs end in the same block iff every scenario either
        /// contains both or neither (signature equality) — the
        /// reference-free oracle for ideal semantics.
        #[test]
        fn blocks_equal_signature_classes(
            universe in arb_universe(),
            scenarios in arb_scenarios(),
        ) {
            let eids: BTreeSet<Eid> =
                universe.iter().copied().map(Eid::from_u64).collect();
            let mut p = EidCover::new(eids.iter().copied());
            for c in &scenarios {
                p.split(inclusive(c));
            }
            let block_of = |e: Eid| -> Vec<Eid> {
                p.blocks_of(e).next().expect("covered").map(|(e, _)| e).collect()
            };
            let signature = |e: Eid| -> Vec<bool> {
                scenarios.iter().map(|c| c.contains(&e.as_u64())).collect()
            };
            for &a in &eids {
                for &b in &eids {
                    let same_block = block_of(a) == block_of(b);
                    prop_assert_eq!(same_block, signature(a) == signature(b));
                }
            }
        }

        /// The cover always keeps every EID covered and respects its
        /// invariants under arbitrary inclusive/vague scenario sequences.
        #[test]
        fn cover_invariants_hold(
            universe in arb_universe(),
            scenarios in arb_vague_scenarios(),
        ) {
            let mut cover =
                EidCover::new(universe.iter().copied().map(Eid::from_u64));
            for (inc, vague) in &scenarios {
                cover.split(scenario(inc, vague).iter());
                prop_assert!(cover.check_invariants());
            }
            // Prune every distinguished EID; invariants must survive.
            for eid in cover.distinguished().collect::<Vec<Eid>>() {
                cover.prune_distinguished(eid);
                prop_assert!(cover.check_invariants());
            }
            // Removal closes the ordinal gap it leaves.
            for &e in &universe {
                cover.remove(Eid::from_u64(e));
                prop_assert!(cover.check_invariants());
            }
            prop_assert!(cover.is_empty() && cover.block_count() == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reverse-mapped cover against the walk-every-block
        /// reference, driven the way the splitting loop drives it: split,
        /// then prune the EIDs distinguished at that moment, in EID
        /// order, each once. After every step both agree on
        /// effectiveness, on the distinguished set and on the set of
        /// blocks, firmness included.
        #[test]
        fn split_and_prune_match_the_walk_every_block_reference(
            universe in prop::collection::vec(0u64..40, 1..40),
            scenarios in arb_vague_scenarios(),
        ) {
            let eids: BTreeSet<Eid> =
                universe.iter().copied().map(Eid::from_u64).collect();
            let mut cover = EidCover::new(eids.iter().copied());
            let mut reference = VagueCover::new(eids.iter().copied());
            let mut pruned: BTreeSet<Eid> = BTreeSet::new();
            for (inc, vague) in &scenarios {
                let s = scenario(inc, vague);
                let out = cover.split(s.iter());
                prop_assert_eq!(out, reference.split_by_scenario(&s));
                prop_assert_eq!(canonical(&cover), reference.blocks.clone());
                if !out.effective {
                    continue;
                }
                let fresh: Vec<Eid> = cover.distinguished().collect();
                prop_assert_eq!(&fresh, &reference.distinguished().into_iter().collect::<Vec<_>>());
                for eid in fresh {
                    if pruned.insert(eid) {
                        prop_assert!(cover.prune_distinguished(eid));
                        prop_assert!(reference.prune_distinguished(eid));
                        prop_assert_eq!(canonical(&cover), reference.blocks.clone());
                    }
                }
                prop_assert!(cover.check_invariants());
                prop_assert_eq!(
                    cover.distinguished().collect::<BTreeSet<Eid>>(),
                    reference.distinguished()
                );
                prop_assert_eq!(
                    cover.is_fully_split(),
                    reference.distinguished().len() == eids.len()
                );
            }
        }
    }
}
