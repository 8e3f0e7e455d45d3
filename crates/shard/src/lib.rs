//! zkml-shard: segmented proving over the ZKML compile pipeline.
//!
//! The paper proves one model as one circuit, so the largest provable
//! model is whatever fits in a single `k`. This crate removes that cap by
//! sharding the backend-independent [`zkml::OpSchedule`] at tensor
//! boundaries into `N` sub-schedules (see `zkml::cut_schedule`), compiling each
//! through the unchanged `place()`/`synthesize()` pipeline into its own
//! bounded-`k` sub-circuit, and proving the segments concurrently on the
//! `zkml-par` pool.
//!
//! Soundness of the chain rests on three mechanisms:
//!
//! 1. **Instance chaining** — each segment exposes its boundary tensors as
//!    public instance values (`[boundary-in ++ boundary-out]`); the bundle
//!    verifier checks segment `i`'s outgoing slice equals segment `i+1`'s
//!    incoming slice, so the segments provably compute one composed
//!    function.
//! 2. **Transcript binding** — every segment proof is created with
//!    [`zkml_plonk::create_proof_committed`] over the bundle's *chain digest*
//!    (covering the model hash, backend, every segment's verifying key and
//!    instance column) plus the segment's position, so a proof cannot be
//!    replayed at another position or spliced into another bundle.
//! 3. **Batched settlement** — on KZG, per-segment verification is run with
//!    [`zkml_plonk::verify_proof_committed`] and the pending accumulators
//!    are settled with **one** multi-pairing via [`zkml_pcs::batch_check`]
//!    (the fixed-seed SRS shares one tau across every `k`). IPA verifies
//!    per segment.

mod bundle;
mod prove;
mod verify;

pub use bundle::SegmentedProof;
pub use prove::{
    compile_segments, plan_segments, prove_compiled, synthesize_segments, CompiledSegment,
    FreshKeySource, KeySource, SegmentLayout, SegmentSpec, DEFAULT_SRS_SEED,
};
pub use verify::{verify_bundle, BundleReport};

/// Errors from segmented proving or bundle verification.
#[derive(Debug)]
pub enum ShardError {
    /// Cutting the schedule failed.
    Segment(zkml::SegmentError),
    /// Compiling or proving a segment failed.
    Compile(zkml::ZkmlError),
    /// The bundle is malformed (serialization, counts, lengths).
    Malformed(String),
    /// The bundle failed verification.
    Verify(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Segment(e) => write!(f, "{e}"),
            ShardError::Compile(e) => write!(f, "{e}"),
            ShardError::Malformed(s) => write!(f, "malformed bundle: {s}"),
            ShardError::Verify(s) => write!(f, "bundle verification failed: {s}"),
        }
    }
}
impl std::error::Error for ShardError {}

impl From<zkml::SegmentError> for ShardError {
    fn from(e: zkml::SegmentError) -> Self {
        ShardError::Segment(e)
    }
}
impl From<zkml::ZkmlError> for ShardError {
    fn from(e: zkml::ZkmlError) -> Self {
        ShardError::Compile(e)
    }
}
impl From<zkml_pcs::ReadError> for ShardError {
    fn from(e: zkml_pcs::ReadError) -> Self {
        ShardError::Malformed(e.to_string())
    }
}
