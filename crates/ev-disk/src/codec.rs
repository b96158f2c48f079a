//! The fixed little-endian record codec.
//!
//! Every multi-byte integer is little-endian; floats are stored as the
//! little-endian bytes of their IEEE-754 `to_bits` representation, so a
//! round trip is bit-exact (NaN payloads included). The byte-for-byte
//! layout is specified in `DESIGN.md` §6 and pinned by
//! [`format`](crate::format); this module is the only place that reads
//! or writes record payloads.
//!
//! # Record payloads
//!
//! An **E-record** serialises one [`EScenario`]:
//!
//! ```text
//! time   u64    snapshot tick
//! cell   u64    grid-cell index
//! count  u32    number of (EID, attr) memberships
//! count × { eid u64, attr u8 }      in ascending EID order
//! ```
//!
//! `attr` is `0` for [`ZoneAttr::Inclusive`], `1` for
//! [`ZoneAttr::Vague`]; any other value is corruption.
//!
//! A **V-record** serialises one [`VScenario`]:
//!
//! ```text
//! time   u64    snapshot tick
//! cell   u64    grid-cell index
//! count  u32    number of detections
//! count × { vid u64, dim u32, dim × f64 }   in detection order
//! ```

use crate::error::{DiskError, DiskResult};
use crate::segment::SegmentKind;
use ev_core::feature::FeatureVector;
use ev_core::ids::{Eid, Vid};
use ev_core::region::CellId;
use ev_core::scenario::{Detection, EScenario, ScenarioId, VScenario, ZoneAttr};
use ev_core::time::Timestamp;

/// Reads little-endian primitives from a byte slice, tracking position.
///
/// Every read is bounds-checked against the bytes remaining, and a
/// variable-length run is only ever handed out as a sub-slice of the
/// input — so a length or count prefix can never drive an allocation
/// larger than the input that declared it.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> DiskResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DiskError::corrupt(format!(
                "record truncated: need {n} bytes for {what}, {} left",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> DiskResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> DiskResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> DiskResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn finish(self, what: &'static str) -> DiskResult<()> {
        if self.remaining() != 0 {
            return Err(DiskError::corrupt(format!(
                "{} trailing bytes after {what} payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Bytes of the `time | cell | count` head both payload layouts open
/// with.
const RECORD_HEAD_LEN: usize = 20;

/// Appends one E-Scenario record payload to `out`.
pub fn encode_escenario_into(s: &EScenario, out: &mut Vec<u8>) {
    out.reserve(s.encoded_len());
    out.extend_from_slice(&s.time().tick().to_le_bytes());
    out.extend_from_slice(&(s.cell().index() as u64).to_le_bytes());
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    for (eid, attr) in s.iter() {
        out.extend_from_slice(&eid.as_u64().to_le_bytes());
        out.push(match attr {
            ZoneAttr::Inclusive => 0,
            ZoneAttr::Vague => 1,
        });
    }
}

/// Encodes one E-Scenario into a fresh record payload.
#[must_use]
pub fn encode_escenario(s: &EScenario) -> Vec<u8> {
    let mut out = Vec::new();
    encode_escenario_into(s, &mut out);
    out
}

/// Decodes one E-Scenario record payload.
///
/// # Errors
///
/// [`DiskError::Corrupt`] on a truncated payload, an unknown zone
/// attribute, or trailing garbage after the declared memberships.
pub fn decode_escenario(payload: &[u8]) -> DiskResult<EScenario> {
    let mut r = ByteReader::new(payload);
    let time = Timestamp::new(r.get_u64("e-record time")?);
    let cell = CellId::new(r.get_u64("e-record cell")? as usize);
    let count = r.get_u32("e-record membership count")?;
    let mut s = EScenario::new(cell, time);
    for _ in 0..count {
        let eid = Eid::from_u64(r.get_u64("e-record eid")?);
        let attr = match r.get_u8("e-record zone attr")? {
            0 => ZoneAttr::Inclusive,
            1 => ZoneAttr::Vague,
            other => {
                return Err(DiskError::corrupt(format!(
                    "unknown zone attribute byte {other:#04x}"
                )))
            }
        };
        s.insert(eid, attr);
    }
    r.finish("e-record")?;
    Ok(s)
}

/// The id of the scenario a record payload encodes, without decoding
/// the rest of it: both layouts open with `time | cell`.
///
/// # Errors
///
/// [`DiskError::Corrupt`] on a payload shorter than that head.
pub fn record_id(payload: &[u8]) -> DiskResult<ScenarioId> {
    let mut r = ByteReader::new(payload);
    let time = Timestamp::new(r.get_u64("record time")?);
    let cell = CellId::new(r.get_u64("record cell")? as usize);
    Ok(ScenarioId::new(time, cell))
}

/// Appends one V-Scenario record payload to `out`.
pub fn encode_vscenario_into(s: &VScenario, out: &mut Vec<u8>) {
    out.reserve(s.encoded_len());
    out.extend_from_slice(&s.time().tick().to_le_bytes());
    out.extend_from_slice(&(s.cell().index() as u64).to_le_bytes());
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    for d in s.detections() {
        let components = d.feature.components();
        out.extend_from_slice(&d.vid.as_u64().to_le_bytes());
        out.extend_from_slice(&(components.len() as u32).to_le_bytes());
        // One resize and one pass over fixed-width chunks: the
        // components go out at the rate of a slice copy, not one
        // length-checked append each.
        let start = out.len();
        out.resize(start + components.len() * 8, 0);
        for (bytes, c) in out[start..].chunks_exact_mut(8).zip(components) {
            bytes.copy_from_slice(&c.to_le_bytes());
        }
    }
}

/// Encodes one V-Scenario into a fresh record payload.
#[must_use]
pub fn encode_vscenario(s: &VScenario) -> Vec<u8> {
    let mut out = Vec::new();
    encode_vscenario_into(s, &mut out);
    out
}

/// Decodes one V-Scenario record payload.
///
/// # Errors
///
/// [`DiskError::Corrupt`] on a truncated payload, a feature vector the
/// domain model rejects, or trailing garbage.
pub fn decode_vscenario(payload: &[u8]) -> DiskResult<VScenario> {
    let mut r = ByteReader::new(payload);
    let time = Timestamp::new(r.get_u64("v-record time")?);
    let cell = CellId::new(r.get_u64("v-record cell")? as usize);
    let count = r.get_u32("v-record detection count")?;
    let mut s = VScenario::new(cell, time);
    for _ in 0..count {
        let vid = Vid::new(r.get_u64("v-record vid")?);
        let dim = r.get_u32("v-record feature dim")? as usize;
        // The declared dimension is bounded by the bytes actually
        // present *before* anything is allocated for it.
        let byte_len = dim.checked_mul(8).ok_or_else(|| {
            DiskError::corrupt(format!(
                "feature dimension {dim} overflows the address space"
            ))
        })?;
        let raw = r.take(byte_len, "v-record feature components")?;
        // An exact-size iterator: the components land straight in the
        // feature's shared storage, one allocation per detection.
        let components = raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes")));
        let feature = FeatureVector::new(components)
            .map_err(|e| DiskError::corrupt(format!("invalid stored feature vector: {e}")))?;
        s.push(Detection { vid, feature });
    }
    r.finish("v-record")?;
    Ok(s)
}

/// A scenario type the store persists: which segment kind holds it,
/// the `(time, cell)` key its segment's bounds absorb, and its payload
/// codec. Implemented for [`EScenario`] and [`VScenario`] only, so the
/// segment writer and the load loop exist once, not once per kind.
/// `Sync`, because a batch is framed by several threads at once.
pub(crate) trait Record: Sized + Sync {
    /// The segment kind that holds records of this type.
    const KIND: SegmentKind;

    /// `(tick, cell index)` of this record.
    fn time_cell(&self) -> (u64, u64);

    /// Exactly the bytes [`encode_into`](Record::encode_into) appends.
    fn encoded_len(&self) -> usize;

    /// Appends this record's payload to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes one payload.
    fn decode(payload: &[u8]) -> DiskResult<Self>;
}

impl Record for EScenario {
    const KIND: SegmentKind = SegmentKind::EScenario;

    fn time_cell(&self) -> (u64, u64) {
        (self.time().tick(), self.cell().index() as u64)
    }

    fn encoded_len(&self) -> usize {
        RECORD_HEAD_LEN + self.len() * 9
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_escenario_into(self, out);
    }

    fn decode(payload: &[u8]) -> DiskResult<Self> {
        decode_escenario(payload)
    }
}

impl Record for VScenario {
    const KIND: SegmentKind = SegmentKind::VScenario;

    fn time_cell(&self) -> (u64, u64) {
        (self.time().tick(), self.cell().index() as u64)
    }

    fn encoded_len(&self) -> usize {
        let detections = self.detections().iter();
        RECORD_HEAD_LEN + detections.map(|d| 12 + d.feature.dim() * 8).sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_vscenario_into(self, out);
    }

    fn decode(payload: &[u8]) -> DiskResult<Self> {
        decode_vscenario(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escenario() -> EScenario {
        let mut s = EScenario::new(CellId::new(7), Timestamp::new(42));
        s.insert(Eid::from_u64(0xaabb_cc00_0102), ZoneAttr::Inclusive);
        s.insert(Eid::from_u64(3), ZoneAttr::Vague);
        s
    }

    fn vscenario() -> VScenario {
        let mut s = VScenario::new(CellId::new(7), Timestamp::new(42));
        s.push(Detection {
            vid: Vid::new(9),
            feature: FeatureVector::new(vec![0.25, 0.5, 1.0]).unwrap(),
        });
        s.push(Detection {
            vid: Vid::new(11),
            feature: FeatureVector::new(vec![0.0]).unwrap(),
        });
        s
    }

    #[test]
    fn escenario_round_trips() {
        let s = escenario();
        assert_eq!(decode_escenario(&encode_escenario(&s)).unwrap(), s);
        assert_eq!(s.encoded_len(), encode_escenario(&s).len());
        let empty = EScenario::new(CellId::new(0), Timestamp::new(0));
        assert_eq!(decode_escenario(&encode_escenario(&empty)).unwrap(), empty);
    }

    #[test]
    fn vscenario_round_trips_bit_exact() {
        let s = vscenario();
        assert_eq!(decode_vscenario(&encode_vscenario(&s)).unwrap(), s);
        assert_eq!(s.encoded_len(), encode_vscenario(&s).len());
    }

    /// The V encoder as it was before components went out a slice at a
    /// time: eight bytes appended per component.
    fn encode_vscenario_by_component(s: &VScenario) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&s.time().tick().to_le_bytes());
        out.extend_from_slice(&(s.cell().index() as u64).to_le_bytes());
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        for d in s.detections() {
            out.extend_from_slice(&d.vid.as_u64().to_le_bytes());
            out.extend_from_slice(&(d.feature.dim() as u32).to_le_bytes());
            for c in d.feature.components() {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn v_encode_is_the_per_component_encoder_byte_for_byte() {
        let mut s = vscenario();
        // Every bit pattern a clamped component can carry survives.
        for (i, dim) in [1usize, 7, 8, 64, 129].into_iter().enumerate() {
            let components = (0..dim).map(|c| 1.0 / (1 + c + i) as f64);
            s.push(Detection {
                vid: Vid::new(100 + i as u64),
                feature: FeatureVector::new(components).unwrap(),
            });
        }
        assert_eq!(encode_vscenario(&s), encode_vscenario_by_component(&s));
        // Appending to a buffer that already holds bytes leaves them be.
        let mut out = vec![0xEE; 5];
        encode_vscenario_into(&s, &mut out);
        assert_eq!(out[..5], [0xEE; 5]);
        assert_eq!(out[5..], encode_vscenario_by_component(&s));
    }

    #[test]
    fn record_id_reads_the_shared_head_of_both_layouts() {
        assert_eq!(
            record_id(&encode_escenario(&escenario())).unwrap(),
            escenario().id()
        );
        let bytes = encode_vscenario(&vscenario());
        assert_eq!(record_id(&bytes).unwrap(), vscenario().id());
        assert!(record_id(&bytes[..15]).is_err(), "a cut head is corruption");
    }

    #[test]
    fn e_record_layout_is_the_documented_bytes() {
        let mut s = EScenario::new(CellId::new(2), Timestamp::new(1));
        s.insert(Eid::from_u64(5), ZoneAttr::Vague);
        let bytes = encode_escenario(&s);
        let mut expect = Vec::new();
        expect.extend_from_slice(&1u64.to_le_bytes()); // time
        expect.extend_from_slice(&2u64.to_le_bytes()); // cell
        expect.extend_from_slice(&1u32.to_le_bytes()); // count
        expect.extend_from_slice(&5u64.to_le_bytes()); // eid
        expect.push(1); // vague
        assert_eq!(bytes, expect);
    }

    #[test]
    fn truncation_and_garbage_are_corruption_not_panics() {
        let bytes = encode_escenario(&escenario());
        for cut in 0..bytes.len() {
            assert!(decode_escenario(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_escenario(&padded).is_err(), "trailing byte");
        let mut bad_attr = bytes;
        let last = bad_attr.len() - 1;
        bad_attr[last] = 9;
        assert!(decode_escenario(&bad_attr).is_err(), "unknown attr");
    }

    #[test]
    fn v_record_truncation_is_corruption() {
        let bytes = encode_vscenario(&vscenario());
        for cut in 0..bytes.len() {
            assert!(decode_vscenario(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
