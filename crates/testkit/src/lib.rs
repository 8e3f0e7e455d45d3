//! Soundness test harness for the ZKML gadget library.
//!
//! Built on `zkml_plonk::MockProver`, this crate provides:
//!
//! * `fixtures` — every gadget in the zoo as a standalone circuit case,
//!   plus a deliberately underconstrained toy fixture;
//! * `conformance` — sweeps every case through the mock checker at
//!   multiple column counts (positive testing: valid witnesses satisfy
//!   every constraint);
//! * `mutation` — the adversarial harness: perturbs every assigned cell
//!   and every in-use lookup entry of a satisfied witness and requires the
//!   checker (and, for cheap circuits, the real verifier) to reject
//!   (negative testing: underconstrained cells show up as *survivors*).
//!
//! The actual test suite lives in `tests/soundness.rs` and is wired into
//! `scripts/check.sh` as the `soundness` step.

mod conformance;
mod fixtures;
mod mutation;

pub use conformance::run_conformance;
pub use fixtures::{compile_case, fixture_circuit, toy_case, zoo};
pub use mutation::{cross_check_real_verifier, mutate_compiled};
