//! BN254 elliptic-curve groups, extension-field tower, optimal ate pairing
//! and Pippenger multi-scalar multiplication — the curve substrate under the
//! KZG and IPA commitment schemes of the ZKML reproduction.
//!
//! Everything is implemented from the curve parameters alone: tower
//! constants (Frobenius coefficients, the twist coefficient) are derived at
//! first use from the two modulus literals in `zkml-ff`, the final
//! exponentiation's addition chain in the BN parameter `x` is checked
//! against the exponent derived from them, and all of it is validated by
//! structural tests (bilinearity, subgroup orders, `psi = [q]`).

mod fq12;
mod fq2;
mod fq6;
mod g1;
mod g2;
pub mod msm;
pub mod pairing;

pub use fq12::Fq12;
pub use g1::{G1Affine, G1Projective};
pub use g2::G2Affine;
pub use msm::{msm, msm_naive};
pub use pairing::{final_exponentiation, multi_miller_loop, pairing, G2Prepared};
