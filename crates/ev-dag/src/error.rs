//! The error a run can end with.

use std::fmt;

/// Errors a job can end with.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobError {
    /// The stage graph or the fault plan failed validation.
    InvalidConfig(ev_core::Error),
    /// A task lost its last allowed attempt to an injected
    /// [`FaultPlan`](crate::FaultPlan) fault.
    TaskExhausted {
        /// Which stage the task belonged to.
        stage: &'static str,
        /// Task index within the stage.
        task: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// A task lost its last allowed attempt to a real panic. Panics
    /// are isolated per task attempt and retried like injected faults;
    /// this error means the retry budget ran out on one.
    WorkerPanicked {
        /// Which stage the task belonged to.
        stage: &'static str,
        /// The panic payload message of the final attempt.
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
            JobError::TaskExhausted {
                stage,
                task,
                attempts,
            } => write!(f, "{stage} task {task} failed after {attempts} attempts"),
            JobError::WorkerPanicked { stage, message } => {
                write!(
                    f,
                    "{stage} task panicked on every allowed attempt: {message}"
                )
            }
            JobError::Input(e) => write!(f, "job input could not be loaded: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::InvalidConfig(e) | JobError::Input(e) => Some(e),
            JobError::TaskExhausted { .. } | JobError::WorkerPanicked { .. } => None,
        }
    }
}
