//! A halo2-style Plonkish proving system.
//!
//! Implements the circuit model the ZKML paper compiles to (§3):
//!
//! * a 2D grid with a power-of-two number of rows;
//! * instance / advice / fixed columns, with advice split into two
//!   challenge *phases* (phase-1 columns may depend on transcript
//!   challenges — used by Freivalds-checked matrix multiplication);
//! * custom gates: arbitrary polynomial constraints over the columns of a
//!   row (rotations supported for the multi-row ablation of Table 13);
//! * copy constraints via a chunked PLONK permutation argument;
//! * lookup constraints via the permuted-input (plookup-style) argument;
//! * a vanishing argument with the quotient computed on an extended coset,
//!   opened through either the KZG or IPA commitment backend.
//!
//! The FFT/MSM counts of this prover follow Eq. (1)–(2) of the paper, which
//! is what makes the ZKML cost model (crate `zkml`, module `cost`)
//! transferable.

mod circuit;
mod expression;
pub mod keygen;
mod mock;
mod protocol;
mod prover;
mod serialize;
mod verifier;

pub use circuit::{
    CellRef, ConstraintSystem, Gate, Lookup, Preprocessed, WitnessSource, BLINDING_FACTORS,
};
pub use expression::{Column, Expression, Rotation};
pub use keygen::{
    commit_weights, keygen, keygens, weight_encodings, CommittedWeights, ProvingKey, VerifyingKey,
    WeightCommitment,
};
pub use mock::{MockProver, VerifyFailure};
pub use protocol::opening_plan;
pub use prover::create_proof_committed;
pub use serialize::{read_cs, write_cs};
pub use verifier::{verify_proof, verify_proof_committed};

/// Errors produced by key generation, proving, or verification.
#[derive(Debug)]
pub enum PlonkError {
    /// The circuit or witness is malformed.
    Synthesis(String),
    /// The proof failed verification.
    Verify(String),
    /// Proof bytes could not be parsed.
    Io(zkml_pcs::ReadError),
}

impl std::fmt::Display for PlonkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlonkError::Synthesis(s) => write!(f, "synthesis error: {s}"),
            PlonkError::Verify(s) => write!(f, "verification error: {s}"),
            PlonkError::Io(e) => write!(f, "{e}"),
        }
    }
}
impl std::error::Error for PlonkError {}

impl From<zkml_pcs::ReadError> for PlonkError {
    fn from(e: zkml_pcs::ReadError) -> Self {
        PlonkError::Io(e)
    }
}
