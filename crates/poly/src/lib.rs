//! Polynomial arithmetic for the ZKML proving stack.
//!
//! Provides power-of-two [`EvaluationDomain`]s with (coset) NTTs, dense
//! polynomials in coefficient form ([`Coeffs`]), and the Kate division
//! used by the KZG opening procedure.

mod domain;
pub mod fft;
mod poly;

pub use domain::EvaluationDomain;
pub use poly::Coeffs;
