//! Identity newtypes: electronic identities (EIDs), visual identities
//! (VIDs), and ground-truth person identifiers.
//!
//! The paper's E-data carries *electronic identities* such as WiFi MAC
//! addresses or IMSIs; we model an [`Eid`] as a 48-bit MAC address. *Visual
//! identities* are the handles attached to human figures extracted from
//! video; a [`Vid`] is an opaque index into the visual gallery. The
//! synthetic world additionally knows the ground-truth [`PersonId`] that
//! both identities belong to — algorithms must never look at it except for
//! scoring accuracy.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An electronic identity: a 48-bit WiFi MAC address (the paper also
/// mentions IMSIs; any 48-bit token works).
///
/// `Eid` is a cheap `Copy` newtype ordered by its raw numeric value, so it
/// can serve directly as a map key or a sort key in the MapReduce shuffle.
///
/// # Examples
///
/// ```
/// use ev_core::Eid;
///
/// let eid: Eid = "aa:bb:cc:00:01:02".parse().unwrap();
/// assert_eq!(eid.to_string(), "aa:bb:cc:00:01:02");
/// assert_eq!(Eid::from_u64(0xaabbcc000102), eid);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
#[serde(transparent)]
pub struct Eid(u64);

/// Reads the bare number [`Serialize`] writes through
/// [`Eid::from_u64`], so a value wider than 48 bits is masked like any
/// other: two EIDs that print alike compare equal.
impl Deserialize for Eid {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        u64::from_value(v).map(Eid::from_u64)
    }
}

impl Eid {
    /// Mask of the 48 significant bits of a MAC address.
    const MAC_MASK: u64 = 0xffff_ffff_ffff;

    /// Creates an EID from the low 48 bits of `raw`.
    ///
    /// Bits above the 48th are silently discarded, mirroring how a MAC
    /// address is stored in a `u64`.
    #[must_use]
    pub const fn from_u64(raw: u64) -> Self {
        Eid(raw & Self::MAC_MASK)
    }

    /// Returns the raw 48-bit value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The EID whose [`as_u64`](Self::as_u64) is `raw`, unmasked: the
    /// inverse of `as_u64` for a value read back from packed storage.
    pub(crate) const fn from_raw(raw: u64) -> Self {
        Eid(raw)
    }

    /// Returns the six octets of the MAC address, most significant first.
    #[must_use]
    pub(crate) const fn octets(self) -> [u8; 6] {
        let v = self.0;
        [
            (v >> 40) as u8,
            (v >> 32) as u8,
            (v >> 24) as u8,
            (v >> 16) as u8,
            (v >> 8) as u8,
            v as u8,
        ]
    }
}

impl fmt::Display for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl FromStr for Eid {
    type Err = Error;

    /// Parses a colon- or dash-separated MAC address such as
    /// `"aa:bb:cc:dd:ee:ff"` or `"AA-BB-CC-DD-EE-FF"`.
    fn from_str(s: &str) -> Result<Self> {
        let sep = if s.contains(':') { ':' } else { '-' };
        let mut value: u64 = 0;
        let mut count = 0;
        for part in s.split(sep) {
            if part.len() != 2 {
                return Err(Error::ParseIdentity {
                    input: s.to_owned(),
                    reason: "each octet must be exactly two hex digits",
                });
            }
            let octet = u8::from_str_radix(part, 16).map_err(|_| Error::ParseIdentity {
                input: s.to_owned(),
                reason: "octet is not valid hexadecimal",
            })?;
            value = (value << 8) | u64::from(octet);
            count += 1;
        }
        if count != 6 {
            return Err(Error::ParseIdentity {
                input: s.to_owned(),
                reason: "a MAC address has exactly six octets",
            });
        }
        Ok(Eid(value))
    }
}

impl From<u64> for Eid {
    fn from(raw: u64) -> Self {
        Eid::from_u64(raw)
    }
}

/// A visual identity: the handle of one tracked human figure in the video
/// corpus.
///
/// VIDs are opaque indices; the appearance feature vector behind a VID is
/// owned by the visual substrate (`ev-vision`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Vid(u64);

impl Vid {
    /// Creates a VID from a raw index.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Vid(raw)
    }

    /// Returns the raw index.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Vid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VID#{}", self.0)
    }
}

impl From<u64> for Vid {
    fn from(raw: u64) -> Self {
        Vid(raw)
    }
}

/// Ground-truth person identifier used only by the synthetic world and the
/// accuracy scorer — never by the matching algorithms themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PersonId(u64);

impl PersonId {
    /// Creates a person identifier from a raw index.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        PersonId(raw)
    }

    /// Returns the raw index.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Derives the canonical synthetic EID for this person: a
    /// locally-administered MAC in the `02:xx:...` range.
    ///
    /// The mapping is injective for indices below 2^40, far beyond any
    /// dataset size used here.
    #[must_use]
    pub const fn canonical_eid(self) -> Eid {
        Eid::from_u64(0x02_00_00_00_00_00 | (self.0 & 0xff_ffff_ffff))
    }

    /// Derives the canonical synthetic VID for this person (used as the
    /// ground-truth gallery key; real VIDs are assigned per detection).
    #[must_use]
    pub const fn canonical_vid(self) -> Vid {
        Vid::new(self.0)
    }
}

impl fmt::Display for PersonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u64> for PersonId {
    fn from(raw: u64) -> Self {
        PersonId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eid_roundtrips_through_display_and_parse() {
        let eid = Eid::from_u64(0x0123_4567_89ab);
        let text = eid.to_string();
        assert_eq!(text, "01:23:45:67:89:ab");
        let back: Eid = text.parse().unwrap();
        assert_eq!(back, eid);
    }

    #[test]
    fn eid_parses_dash_separated_and_uppercase() {
        let eid: Eid = "AA-BB-CC-DD-EE-FF".parse().unwrap();
        assert_eq!(eid.as_u64(), 0xaabb_ccdd_eeff);
    }

    #[test]
    fn eid_parse_rejects_malformed_input() {
        assert!("aa:bb:cc:dd:ee".parse::<Eid>().is_err(), "five octets");
        assert!("aa:bb:cc:dd:ee:ff:00".parse::<Eid>().is_err(), "seven");
        assert!("aa:bb:cc:dd:ee:f".parse::<Eid>().is_err(), "short octet");
        assert!("zz:bb:cc:dd:ee:ff".parse::<Eid>().is_err(), "non-hex");
        assert!("".parse::<Eid>().is_err(), "empty");
    }

    #[test]
    fn eid_masks_to_48_bits() {
        let eid = Eid::from_u64(u64::MAX);
        assert_eq!(eid.as_u64(), 0xffff_ffff_ffff);
    }

    #[test]
    fn eid_octets_are_big_endian() {
        let eid = Eid::from_u64(0x0102_0304_0506);
        assert_eq!(eid.octets(), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn canonical_eid_is_locally_administered_and_injective() {
        let a = PersonId::new(17).canonical_eid();
        let b = PersonId::new(18).canonical_eid();
        assert_ne!(a.octets()[0] & 0b10, 0, "locally administered");
        assert_ne!(a, b);
    }

    #[test]
    fn vid_and_person_display() {
        assert_eq!(Vid::new(5).to_string(), "VID#5");
        assert_eq!(PersonId::new(5).to_string(), "P5");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(Eid::from_u64(1) < Eid::from_u64(2));
        assert!(Vid::new(1) < Vid::new(2));
        assert!(PersonId::new(1) < PersonId::new(2));
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        let eid = Eid::from_u64(42);
        let json = serde_json::to_string(&eid).unwrap();
        assert_eq!(json, "42");
        let back: Eid = serde_json::from_str(&json).unwrap();
        assert_eq!(back, eid);
    }

    #[test]
    fn deserialized_eid_is_masked_to_48_bits() {
        let wide = u64::MAX.to_string();
        let back: Eid = serde_json::from_str(&wide).unwrap();
        assert_eq!(back, Eid::from_u64(u64::MAX));
        assert_eq!(back.as_u64(), 0xffff_ffff_ffff);
        // As a map key too.
        let map: std::collections::BTreeMap<Eid, u8> =
            serde_json::from_str(&format!("{{\"{wide}\": 1}}")).unwrap();
        assert_eq!(map.keys().copied().collect::<Vec<_>>(), [back]);
    }
}
