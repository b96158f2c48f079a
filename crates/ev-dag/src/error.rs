//! The error a run can end with.

use std::fmt;

/// Errors a [`par_map`](crate::par_map) can end with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The OS refused a worker thread.
    InvalidConfig(ev_core::Error),
    /// A task panicked. Each task runs once, under its own
    /// `catch_unwind`, and the first panic stops the map.
    WorkerPanicked {
        /// The name of the map the task belonged to.
        stage: &'static str,
        /// The panic payload message.
        message: String,
    },
    /// Data the job's tasks read could not be loaded, so there is no
    /// correct output to give (e.g. footage of a selected V-Scenario
    /// that failed its checksum when a match extracted it).
    Input(ev_core::Error),
}

impl JobError {
    /// Whether the job failed on damaged stored bytes (see
    /// [`ev_core::Error::is_corruption`]).
    #[must_use]
    pub fn is_corruption(&self) -> bool {
        matches!(self, JobError::Input(e) if e.is_corruption())
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidConfig(e) => write!(f, "invalid job configuration: {e}"),
            JobError::WorkerPanicked { stage, message } => {
                write!(f, "{stage} task panicked: {message}")
            }
            JobError::Input(e) => write!(f, "job input could not be loaded: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::InvalidConfig(e) | JobError::Input(e) => Some(e),
            JobError::WorkerPanicked { .. } => None,
        }
    }
}
