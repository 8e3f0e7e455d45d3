//! Polynomial commitment schemes for the ZKML proving stack.
//!
//! Two backends, mirroring the paper's halo2 configuration:
//!
//! * [`KzgSrs`] — pairing-based, universal trusted setup, constant-size
//!   verification (one batched pairing check), smaller per-point openings.
//! * `IpaParams` — transparent (no trusted setup), logarithmic proofs per
//!   point but `O(n)` group operations to verify.
//!
//! Both are driven through the [`Params`] enum so the Plonkish layer and the
//! ZKML optimizer can switch backends with a configuration flag, exactly as
//! the paper's Tables 6 and 7 do.

mod ipa;
mod kzg;
mod serial;

pub use kzg::{batch_check, KzgSrs};

use ipa::IpaParams;
use kzg::KzgAccumulator;
pub use serial::{ReadError, Reader, Writer};

use rand::RngCore;
use zkml_curves::G1Affine;
use zkml_ff::Fr;
use zkml_poly::{Coeffs, EvaluationDomain};
use zkml_transcript::Transcript;

/// The commitment-scheme backend selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// KZG (pairing-based; trusted setup; O(1) verification).
    Kzg,
    /// Inner-product argument (transparent; O(n) verification).
    Ipa,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Kzg => write!(f, "KZG"),
            Backend::Ipa => write!(f, "IPA"),
        }
    }
}

/// Instantiated commitment parameters for one of the two backends.
// Built once per (backend, k) and shared behind an `Arc`, never moved around
// by value, so the variants' inline sizes (a few `Vec` headers and G2 points)
// are not worth a `Box` in every match.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum Params {
    /// KZG structured reference string.
    Kzg(KzgSrs),
    /// Transparent IPA basis.
    Ipa(IpaParams),
}

impl Params {
    /// Sets up parameters supporting polynomials of length up to `2^k`.
    pub fn setup(backend: Backend, k: u32, rng: &mut impl RngCore) -> Self {
        match backend {
            Backend::Kzg => Params::Kzg(KzgSrs::setup(k, rng)),
            Backend::Ipa => Params::Ipa(IpaParams::setup(k)),
        }
    }

    /// Which backend these parameters instantiate.
    pub fn backend(&self) -> Backend {
        match self {
            Params::Kzg(_) => Backend::Kzg,
            Params::Ipa(_) => Backend::Ipa,
        }
    }

    /// log2 of the maximum polynomial length.
    pub fn k(&self) -> u32 {
        match self {
            Params::Kzg(s) => s.k,
            Params::Ipa(p) => p.k,
        }
    }

    /// Commits to a polynomial in coefficient form.
    pub fn commit(&self, poly: &Coeffs<Fr>) -> G1Affine {
        match self {
            Params::Kzg(s) => s.commit(poly),
            Params::Ipa(p) => p.commit(poly),
        }
    }

    /// Commits to the polynomial that takes `values` over the evaluation
    /// domain of their size — the point [`Params::commit`] gives the
    /// interpolated coefficients.
    ///
    /// A KZG SRS of exactly that size commits through its Lagrange basis, so
    /// the MSM sees the values themselves (small for fixed-point witness
    /// columns) and not their full-width coefficients. IPA's generators have
    /// no structure to derive such a basis from, and a larger SRS has it for
    /// another domain; both interpolate and commit the coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the number of values is not a power of two.
    pub fn commit_lagrange(&self, values: &[Fr]) -> G1Affine {
        match self {
            Params::Kzg(s) if values.len() == s.g1_lagrange.len() => s.commit_lagrange(values),
            _ => {
                assert!(
                    values.len().is_power_of_two(),
                    "evaluations must cover a domain"
                );
                let mut coeffs = values.to_vec();
                EvaluationDomain::new(values.len().trailing_zeros()).ifft(&mut coeffs);
                self.commit(&Coeffs::new(coeffs))
            }
        }
    }

    /// Opens a batch of `(polynomial, point)` queries.
    ///
    /// IPA folds over the full basis, so polynomials are padded to the
    /// parameter size internally by the IPA path.
    pub fn open(&self, transcript: &mut Transcript, queries: &[(&Coeffs<Fr>, Fr)]) -> Vec<u8> {
        match self {
            Params::Kzg(s) => s.open(transcript, queries),
            Params::Ipa(p) => p.open(transcript, queries),
        }
    }

    /// Verifies a batched opening against `(commitment, point, eval)`
    /// claims — the one opening check — deferring the expensive final step
    /// when the backend supports it.
    ///
    /// KZG runs everything up to (not including) the pairing check and
    /// returns [`Verification::Deferred`]; the caller settles one proof with
    /// [`Verification::settle`] or a whole batch with [`batch_check`]. IPA
    /// has no such accumulator and verifies completely.
    pub fn verify_deferred(
        &self,
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> Result<Verification, ReadError> {
        match self {
            Params::Kzg(s) => Ok(Verification::Deferred(
                s.prepare(transcript, queries, proof)?,
            )),
            Params::Ipa(p) => {
                p.verify(transcript, queries, proof)?;
                Ok(Verification::Complete)
            }
        }
    }
}

/// The outcome of [`Params::verify_deferred`]: either the opening is fully
/// verified, or its final pairing check is pending as a `KzgAccumulator`.
#[derive(Clone, Debug)]
#[must_use = "a deferred verification accepts nothing until it is settled"]
pub enum Verification {
    /// The opening verified completely (IPA path).
    Complete,
    /// All transcript and group work is done; the pairing check is pending.
    Deferred(KzgAccumulator),
}

impl Verification {
    /// Settles this verification against the params it came from.
    #[must_use = "`false` is a rejected proof"]
    pub fn settle(&self, params: &Params) -> bool {
        match (self, params) {
            (Verification::Complete, _) => true,
            (Verification::Deferred(acc), Params::Kzg(s)) => acc.check(s),
            // A deferred KZG accumulator cannot be settled by IPA params.
            (Verification::Deferred(_), Params::Ipa(_)) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zkml_ff::{Field, PrimeField};

    /// `commit_lagrange(values)` is the point `commit` gives the interpolated
    /// coefficients, on both backends, whatever the values' widths.
    #[test]
    fn commit_lagrange_matches_commit_of_interpolation() {
        for k in [4u32, 7, 10] {
            let n = 1usize << k;
            let mut rng = StdRng::seed_from_u64(60 + u64::from(k));
            let uniform: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let small: Vec<Fr> = (0..n)
                .map(|_| Fr::from_i64(rng.gen_range(-8191i64..8192)))
                .collect();
            let sparse: Vec<Fr> = (0..n)
                .map(|i| if i % 23 == 0 { small[i] } else { Fr::zero() })
                .collect();
            let zeros = vec![Fr::zero(); n];
            // A witness column: small values with a full-width blinding tail.
            let mut one_wide = small.clone();
            one_wide[n - 1] = uniform[n - 1];
            let mut blinded = small.clone();
            blinded[n - 5..].copy_from_slice(&uniform[n - 5..]);

            let domain = EvaluationDomain::<Fr>::new(k);
            for backend in [Backend::Kzg, Backend::Ipa] {
                let params = Params::setup(backend, k, &mut StdRng::seed_from_u64(1234));
                for (name, values) in [
                    ("uniform", &uniform),
                    ("small signed", &small),
                    ("sparse", &sparse),
                    ("all zero", &zeros),
                    ("one wide among small", &one_wide),
                    ("blinded", &blinded),
                ] {
                    let mut coeffs = values.clone();
                    domain.ifft(&mut coeffs);
                    assert_eq!(
                        params.commit_lagrange(values),
                        params.commit(&Coeffs::new(coeffs)),
                        "{backend} k={k} {name}"
                    );
                }
            }
        }
    }

    /// Params larger than the column fall back to interpolation: the
    /// Lagrange basis is for the SRS's own domain only.
    #[test]
    fn commit_lagrange_under_larger_params_interpolates() {
        let params = Params::setup(Backend::Kzg, 6, &mut StdRng::seed_from_u64(1234));
        let values: Vec<Fr> = (0..16).map(|i| Fr::from_i64(i - 8)).collect();
        let mut coeffs = values.clone();
        EvaluationDomain::<Fr>::new(4).ifft(&mut coeffs);
        assert_eq!(
            params.commit_lagrange(&values),
            params.commit(&Coeffs::new(coeffs))
        );
    }
}
