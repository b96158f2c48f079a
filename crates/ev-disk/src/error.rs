//! Error type of the persistent backend.

use std::fmt;
use std::io;
use std::path::Path;

/// Result alias for disk operations.
pub(crate) type DiskResult<T> = Result<T, DiskError>;

/// Damage found while opening or reading a corpus that the requested
/// [`RecoveryMode`](crate::RecoveryMode) refuses to heal.
///
/// Unlike the free-text [`DiskError::Corrupt`] (reserved for malformed
/// bytes with no structure to report), recovery refusals carry the
/// fields a caller needs to decide what to do next — retry under
/// `Salvage`, alert with the exact segment name, or surface how much
/// data survives — without parsing a message string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// The manifest is damaged **mid-file** — not a torn tail (which
    /// heals in every mode) but bytes that cannot be part of any
    /// crash-shaped append. Strict mode refuses; salvage keeps the
    /// committed prefix.
    ManifestDamaged {
        /// What the scanner found (frame CRC mismatch, bad length, ...).
        reason: String,
        /// Committed entries decoded before the damage — what a
        /// `Salvage` reopen would keep.
        entries_kept: usize,
    },
    /// A committed segment's on-disk length disagrees with its manifest
    /// entry. The manifest is fsynced after the segment, so this is
    /// post-commit damage, never an interrupted append.
    SegmentLengthMismatch {
        /// Segment file name (`seg-000001-e.seg`).
        segment: String,
        /// Length the manifest committed, in bytes.
        committed: u64,
        /// Length actually on disk, in bytes.
        actual: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::ManifestDamaged {
                reason,
                entries_kept,
            } => write!(
                f,
                "manifest damaged mid-file ({reason}); reopen with RecoveryMode::Salvage \
                 to keep the {entries_kept} committed entries before the damage"
            ),
            RecoveryError::SegmentLengthMismatch {
                segment,
                committed,
                actual,
            } => write!(
                f,
                "segment {segment} is {actual} bytes, manifest committed {committed}; \
                 reopen with RecoveryMode::Salvage to keep its valid prefix"
            ),
        }
    }
}

/// What went wrong while reading or writing a persistent corpus.
///
/// Corruption is always an `Err`, never a panic: a damaged disk must
/// not take the process down, and the recovery paths in
/// [`DiskStore::open_with`](crate::DiskStore::open_with) rely on being
/// able to inspect the failure.
#[derive(Debug)]
pub enum DiskError {
    /// An operating-system I/O failure, with the operation that hit it.
    Io {
        /// What the store was doing (`"writing segment seg-000001-e.seg"`).
        context: String,
        /// The underlying OS error.
        source: io::Error,
    },
    /// The bytes on disk do not parse as the documented format.
    Corrupt {
        /// What was malformed and where.
        context: String,
    },
    /// Structured damage the active [`RecoveryMode`](crate::RecoveryMode)
    /// refuses to heal; see [`RecoveryError`] for the variants.
    Recovery(RecoveryError),
}

impl DiskError {
    /// A corruption error with the given description.
    #[must_use]
    pub(crate) fn corrupt(context: impl Into<String>) -> Self {
        DiskError::Corrupt {
            context: context.into(),
        }
    }

    /// Wraps an I/O error with the operation and path it interrupted.
    #[must_use]
    pub(crate) fn io(action: &str, path: &Path, source: io::Error) -> Self {
        DiskError::Io {
            context: format!("{action} {}", path.display()),
            source,
        }
    }

    /// Whether this is a corruption (vs. operating-system) failure.
    /// Recovery refusals are corruption: the bytes are damaged, the
    /// mode just declined to heal around them.
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(self, DiskError::Corrupt { .. } | DiskError::Recovery(_))
    }

    /// The structured recovery refusal, if that is what this error is.
    #[must_use]
    pub fn as_recovery(&self) -> Option<&RecoveryError> {
        match self {
            DiskError::Recovery(r) => Some(r),
            _ => None,
        }
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io { context, source } => write!(f, "i/o error {context}: {source}"),
            DiskError::Corrupt { context } => write!(f, "corrupt store: {context}"),
            DiskError::Recovery(r) => write!(f, "corrupt store: {r}"),
        }
    }
}

impl std::error::Error for DiskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DiskError::Io { source, .. } => Some(source),
            DiskError::Corrupt { .. } | DiskError::Recovery(_) => None,
        }
    }
}

impl From<RecoveryError> for DiskError {
    fn from(value: RecoveryError) -> Self {
        DiskError::Recovery(value)
    }
}
