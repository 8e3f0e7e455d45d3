//! Error type for the proving service.

use std::time::Duration;

/// Errors surfaced to job submitters and the CLI front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The job queue is at capacity; the caller should back off and retry.
    Busy {
        /// The configured queue capacity that was exceeded.
        queue_capacity: usize,
    },
    /// The job missed its deadline before (or while) being processed.
    Timeout {
        /// How long the job had been in the system when it was abandoned.
        elapsed: Duration,
    },
    /// Lowering the model to a circuit failed.
    Compile(String),
    /// The static analyzer found advice cells not uniquely determined by
    /// the instance and fixed cells; proving is refused because such a
    /// circuit admits multiple witnesses for the same public statement.
    Underconstrained(String),
    /// Key generation or proof creation failed.
    Prove(String),
    /// A proof failed verification.
    Verify(String),
    /// A prove or verify job referenced a published model commitment that
    /// does not match reality: unknown digest, weights that hash
    /// differently from the published set, a circuit that no longer lines
    /// up with the commitment, or a proof carrying a different commitment
    /// than the one published. Distinct from [`ServiceError::Verify`] so
    /// front ends can report "wrong model" (its own CLI exit code)
    /// instead of a generic "bad proof".
    CommitmentMismatch(String),
    /// The worker processing this job panicked; the service itself keeps
    /// running and the panic payload is reported here.
    WorkerPanicked(String),
    /// The job was cancelled by its submitter (see `JobHandle::cancel` /
    /// `CancelToken`); workers notice the flag between pipeline stages.
    Cancelled,
    /// The service is shutting down and no longer accepts or answers jobs.
    Shutdown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Busy { queue_capacity } => {
                write!(f, "service busy: job queue full ({queue_capacity} queued)")
            }
            ServiceError::Timeout { elapsed } => {
                write!(f, "job deadline exceeded after {elapsed:?}")
            }
            ServiceError::Compile(msg) => write!(f, "compile failed: {msg}"),
            ServiceError::Underconstrained(msg) => {
                write!(f, "refusing to prove: {msg}")
            }
            ServiceError::Prove(msg) => write!(f, "proving failed: {msg}"),
            ServiceError::Verify(msg) => write!(f, "verification failed: {msg}"),
            ServiceError::CommitmentMismatch(msg) => {
                write!(f, "model commitment mismatch: {msg}")
            }
            ServiceError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            ServiceError::Cancelled => write!(f, "job cancelled"),
            ServiceError::Shutdown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}
