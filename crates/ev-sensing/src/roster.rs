//! The EID roster: which person carries which electronic device.
//!
//! The paper's *missing EID* practical issue (§IV-C1) models people who do
//! not carry any electronic device — they appear in V-data but never in
//! E-data. The roster assigns each person either their canonical EID or no
//! EID at all.

use ev_core::ids::{Eid, PersonId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Assignment of electronic identities to a population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EidRoster {
    /// Persons that carry a device, with its EID.
    carriers: BTreeMap<PersonId, Eid>,
    /// Reverse lookup.
    owners: BTreeMap<Eid, PersonId>,
}

impl EidRoster {
    /// Every one of the `population` persons carries a device with their
    /// canonical EID.
    #[must_use]
    pub fn full(population: u64) -> Self {
        let carriers: BTreeMap<PersonId, Eid> = (0..population)
            .map(|i| {
                let p = PersonId::new(i);
                (p, p.canonical_eid())
            })
            .collect();
        let owners = carriers.iter().map(|(&p, &e)| (e, p)).collect();
        EidRoster { carriers, owners }
    }

    /// A roster where a uniformly random fraction `missing_rate` of the
    /// population carries no device (paper Fig. 10 sweeps this from 1 % to
    /// 50 %). Deterministic for a given `seed`.
    ///
    /// `missing_rate` is clamped into `[0, 1]`.
    #[must_use]
    pub fn with_missing(population: u64, missing_rate: f64, seed: u64) -> Self {
        let mut roster = EidRoster::full(population);
        let missing = ((population as f64) * missing_rate.clamp(0.0, 1.0)).round() as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ids: Vec<PersonId> = roster.carriers.keys().copied().collect();
        ids.shuffle(&mut rng);
        for p in ids.into_iter().take(missing) {
            if let Some(eid) = roster.carriers.remove(&p) {
                roster.owners.remove(&eid);
            }
        }
        roster
    }

    /// Number of persons that carry a device.
    #[must_use]
    pub fn carrier_count(&self) -> usize {
        self.carriers.len()
    }

    /// The EID carried by `person`, or `None` if they have no device.
    #[must_use]
    pub(crate) fn eid_of(&self, person: PersonId) -> Option<Eid> {
        self.carriers.get(&person).copied()
    }

    /// The person carrying `eid`, if any.
    #[must_use]
    pub fn owner_of(&self, eid: Eid) -> Option<PersonId> {
        self.owners.get(&eid).copied()
    }

    /// Iterates over `(person, eid)` pairs in person order.
    pub fn iter(&self) -> impl Iterator<Item = (PersonId, Eid)> + '_ {
        self.carriers.iter().map(|(&p, &e)| (p, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_roster_covers_everyone() {
        let r = EidRoster::full(10);
        assert_eq!(r.carrier_count(), 10);
        for i in 0..10 {
            let p = PersonId::new(i);
            let eid = r.eid_of(p).unwrap();
            assert_eq!(eid, p.canonical_eid());
            assert_eq!(r.owner_of(eid), Some(p));
        }
    }

    #[test]
    fn missing_rate_removes_the_right_fraction() {
        let r = EidRoster::with_missing(100, 0.3, 1);
        assert_eq!(r.carrier_count(), 70);
        // Carriers come from the population; the reverse map stays
        // consistent.
        for (p, e) in r.iter() {
            assert!(p.as_u64() < 100, "{p:?} is not one of the 100");
            assert_eq!(r.owner_of(e), Some(p));
        }
    }

    #[test]
    fn missing_rate_boundaries() {
        assert_eq!(EidRoster::with_missing(10, 0.0, 1).carrier_count(), 10);
        assert_eq!(EidRoster::with_missing(10, 1.0, 1).carrier_count(), 0);
        // Out-of-range rates are clamped, not a panic.
        assert_eq!(EidRoster::with_missing(10, 2.0, 1).carrier_count(), 0);
        assert_eq!(EidRoster::with_missing(10, -0.5, 1).carrier_count(), 10);
    }

    #[test]
    fn missing_selection_is_deterministic_per_seed() {
        let a = EidRoster::with_missing(50, 0.2, 9);
        let b = EidRoster::with_missing(50, 0.2, 9);
        let c = EidRoster::with_missing(50, 0.2, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn eids_iterator_matches_carriers() {
        let r = EidRoster::with_missing(20, 0.5, 3);
        let owned = r.iter().filter(|&(p, e)| r.owner_of(e) == Some(p));
        assert_eq!(owned.count(), r.carrier_count());
    }
}
