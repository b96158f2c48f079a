//! Error types shared across the EV-Matching workspace.

use std::fmt;

/// A specialized [`Result`](std::result::Result) with [`Error`] as the error
/// type, used throughout the `ev-core` crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while constructing or manipulating core domain values.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A geometric or region parameter was not strictly positive, was NaN,
    /// or otherwise outside its legal domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A point lies outside the surveillance region.
    OutOfRegion {
        /// The x coordinate of the offending point.
        x: f64,
        /// The y coordinate of the offending point.
        y: f64,
    },
    /// A cell identifier does not exist in the region it was used with.
    UnknownCell {
        /// The raw cell index that failed to resolve.
        index: usize,
    },
    /// Two feature vectors of differing dimensionality were compared.
    DimensionMismatch {
        /// Dimensionality of the left operand.
        left: usize,
        /// Dimensionality of the right operand.
        right: usize,
    },
    /// A gallery handed to [`FeatureBlock::build`] holds rows of
    /// differing dimensionality, detected once at block construction
    /// instead of per pair inside the scoring loop.
    ///
    /// [`FeatureBlock::build`]: crate::kernel::FeatureBlock::build
    GalleryDimensionMismatch {
        /// The gallery's identity (e.g. a scenario id), so the failure
        /// names its source.
        gallery: String,
        /// Dimensionality of the gallery's first row.
        expected: usize,
        /// Dimensionality of the offending row.
        found: usize,
        /// Index of the offending row.
        row: usize,
    },
    /// A textual identity (e.g. a MAC address) failed to parse.
    ParseIdentity {
        /// The input that failed to parse.
        input: String,
        /// Why parsing failed.
        reason: &'static str,
    },
    /// An operation on an EID partition referenced an EID that is not a
    /// member of the partition's universe.
    UnknownEid {
        /// The foreign EID.
        eid: crate::ids::Eid,
    },
    /// Footage a video store holds an index entry for could not be
    /// loaded when a match asked for it. A match that meets this has no
    /// report to give: one computed without the footage would be
    /// indistinguishable from "nobody was detected there".
    FootageUnavailable {
        /// The scenario whose footage failed to load.
        scenario: crate::scenario::ScenarioId,
        /// Whether the stored bytes are damaged (checksum, codec or
        /// identity mismatch) rather than unreadable (an I/O failure).
        corrupt: bool,
        /// What the backing store reported.
        reason: String,
    },
}

impl Error {
    /// Whether this error reports damaged stored bytes, as opposed to
    /// bad arguments or an operating-system failure.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::FootageUnavailable { corrupt: true, .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            Error::OutOfRegion { x, y } => {
                write!(f, "point ({x}, {y}) lies outside the surveillance region")
            }
            Error::UnknownCell { index } => write!(f, "cell index {index} does not exist"),
            Error::DimensionMismatch { left, right } => write!(
                f,
                "feature vectors have mismatched dimensions ({left} vs {right})"
            ),
            Error::GalleryDimensionMismatch {
                gallery,
                expected,
                found,
                row,
            } => write!(
                f,
                "gallery {gallery} row {row} has dimension {found}, expected {expected}"
            ),
            Error::ParseIdentity { input, reason } => {
                write!(f, "cannot parse identity from {input:?}: {reason}")
            }
            Error::UnknownEid { eid } => {
                write!(f, "EID {eid} is not part of this partition's universe")
            }
            Error::FootageUnavailable {
                scenario, reason, ..
            } => write!(f, "footage of {scenario} could not be loaded: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

/// An empty `Vec` with room for exactly `len` items. A length that a
/// configuration sets must not abort the process when the allocator
/// refuses it.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] naming `name` (the parameter the
/// length comes from) when the reservation fails.
pub fn reserved<T>(name: &'static str, len: usize) -> Result<Vec<T>> {
    let mut items = Vec::new();
    items
        .try_reserve_exact(len)
        .map_err(|e| Error::InvalidParameter {
            name,
            reason: format!("cannot hold {len} items: {e}"),
        })?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Eid;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::InvalidParameter {
            name: "cell_size",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("cell_size"));
        assert!(e.to_string().contains("must be positive"));

        let e = Error::OutOfRegion { x: -1.0, y: 2.0 };
        assert!(e.to_string().contains("(-1, 2)"));

        let e = Error::DimensionMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains("3 vs 5"));

        let e = Error::UnknownEid {
            eid: Eid::from_u64(9),
        };
        assert!(e.to_string().contains("universe"));

        let e = Error::FootageUnavailable {
            scenario: crate::scenario::ScenarioId::new(
                crate::time::Timestamp::new(4),
                crate::region::CellId::new(2),
            ),
            corrupt: true,
            reason: "frame checksum mismatch".into(),
        };
        assert!(e.to_string().contains("frame checksum mismatch"));
        assert!(e.is_corruption());
        assert!(!Error::UnknownCell { index: 3 }.is_corruption());
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::UnknownCell { index: 3 });
    }

    #[test]
    fn a_refused_reservation_is_an_invalid_parameter() {
        let room = reserved::<u64>("population", 3).unwrap();
        assert!(room.is_empty() && room.capacity() >= 3);
        let refused = reserved::<u64>("population", usize::MAX);
        assert!(
            matches!(
                refused,
                Err(Error::InvalidParameter {
                    name: "population",
                    ..
                })
            ),
            "{refused:?}"
        );
    }

    #[test]
    fn errors_are_comparable_and_clonable() {
        let a = Error::UnknownCell { index: 1 };
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, Error::UnknownCell { index: 2 });
    }
}
