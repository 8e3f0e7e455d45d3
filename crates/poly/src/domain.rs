//! Power-of-two evaluation domains.

use crate::fft::{build_twiddles, fft_in_place_with, ifft_in_place_with};
use std::sync::{Arc, OnceLock};
use zkml_ff::{batch_invert, FftField};

/// Minimum chunk for parallel coset scaling; each chunk re-seeds with one
/// `pow`, so tiny chunks would spend more on seeding than scaling.
const SCALE_CHUNK_MIN: usize = 1024;

/// Multiplies `a[i] *= g^i` in place, chunked across the pool. Each chunk
/// seeds with `g^start`, so the products match the serial loop bit for bit.
fn scale_by_powers<F: FftField>(a: &mut [F], g: F) {
    zkml_par::par_chunks_mut(a, SCALE_CHUNK_MIN, |_, start, chunk| {
        let mut cur = g.pow(&[start as u64]);
        for v in chunk.iter_mut() {
            *v *= cur;
            cur *= g;
        }
    });
}

/// A multiplicative subgroup of order `2^k`, plus precomputed constants for
/// (coset) FFTs over it.
#[derive(Clone, Debug)]
pub struct EvaluationDomain<F: FftField> {
    /// log2 of the domain size.
    pub k: u32,
    /// Domain size `n = 2^k`.
    pub n: usize,
    /// Primitive `n`-th root of unity.
    pub omega: F,
    /// `omega^{-1}`.
    pub omega_inv: F,
    /// `n^{-1}` as a field element.
    pub n_inv: F,
    /// Coset generator `g` (the field's multiplicative generator).
    pub coset_gen: F,
    /// `g^{-1}`.
    pub coset_gen_inv: F,
    /// Forward twiddle table (`1, ω, …, ω^{n/2-1}`), built on first FFT and
    /// shared by every clone of this domain — all prover phases over the
    /// same domain reuse one table.
    twiddles: Arc<OnceLock<Arc<Vec<F>>>>,
    /// Inverse twiddle table (powers of `ω^{-1}`).
    inv_twiddles: Arc<OnceLock<Arc<Vec<F>>>>,
}

impl<F: FftField> EvaluationDomain<F> {
    /// Creates the domain of size `2^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the field's two-adicity.
    pub fn new(k: u32) -> Self {
        assert!(
            k <= F::TWO_ADICITY,
            "domain size 2^{k} exceeds field 2-adicity {}",
            F::TWO_ADICITY
        );
        let mut omega = F::root_of_unity();
        for _ in 0..(F::TWO_ADICITY - k) {
            omega = omega.square();
        }
        let n = 1usize << k;
        let coset_gen = F::multiplicative_generator();
        Self {
            k,
            n,
            omega,
            omega_inv: omega.invert().expect("omega nonzero"),
            n_inv: F::from_u64(n as u64).invert().expect("n nonzero"),
            coset_gen,
            coset_gen_inv: coset_gen.invert().expect("generator nonzero"),
            twiddles: Arc::new(OnceLock::new()),
            inv_twiddles: Arc::new(OnceLock::new()),
        }
    }

    /// Returns the cached forward twiddle table, building it on first use.
    pub fn twiddles(&self) -> Arc<Vec<F>> {
        self.twiddles
            .get_or_init(|| Arc::new(build_twiddles(self.omega, self.n)))
            .clone()
    }

    /// Returns the cached inverse twiddle table, building it on first use.
    pub(crate) fn inv_twiddles(&self) -> Arc<Vec<F>> {
        self.inv_twiddles
            .get_or_init(|| Arc::new(build_twiddles(self.omega_inv, self.n)))
            .clone()
    }

    /// Returns the domain elements `omega^0, ..., omega^{n-1}`.
    pub fn elements(&self) -> Vec<F> {
        let mut out = vec![F::one(); self.n];
        scale_by_powers(&mut out, self.omega);
        out
    }

    /// Converts coefficients to evaluations over the domain, in place.
    ///
    /// The input is zero-padded (or must already be) to length `n`.
    pub fn fft(&self, a: &mut Vec<F>) {
        assert!(a.len() <= self.n, "too many coefficients for domain");
        a.resize(self.n, F::zero());
        fft_in_place_with(a, self.k, &self.twiddles());
    }

    /// Converts evaluations over the domain back to coefficients, in place.
    pub fn ifft(&self, a: &mut [F]) {
        assert_eq!(a.len(), self.n, "evaluations must cover the domain");
        ifft_in_place_with(a, self.k, &self.inv_twiddles(), self.n_inv);
    }

    /// Evaluates the polynomial over the coset `g * H`, in place.
    pub fn coset_fft(&self, a: &mut Vec<F>) {
        self.shifted_fft(a, self.coset_gen);
    }

    /// Evaluates the polynomial over the coset `shift * H`, in place:
    /// coefficient `t` is scaled by `shift^t`, then transformed.
    pub fn shifted_fft(&self, a: &mut Vec<F>, shift: F) {
        assert!(a.len() <= self.n, "too many coefficients for domain");
        a.resize(self.n, F::zero());
        scale_by_powers(a, shift);
        fft_in_place_with(a, self.k, &self.twiddles());
    }

    /// Interpolates evaluations over the coset `g * H` back to coefficients.
    pub fn coset_ifft(&self, a: &mut [F]) {
        assert_eq!(a.len(), self.n, "evaluations must cover the domain");
        ifft_in_place_with(a, self.k, &self.inv_twiddles(), self.n_inv);
        scale_by_powers(a, self.coset_gen_inv);
    }

    /// Evaluates the vanishing polynomial `X^n - 1` at `x`.
    pub fn evaluate_vanishing(&self, x: F) -> F {
        x.pow(&[self.n as u64]) - F::one()
    }

    /// Returns `x * omega^rotation` (negative rotations use `omega^{-1}`).
    pub fn rotate(&self, x: F, rotation: i32) -> F {
        let w = if rotation >= 0 {
            self.omega.pow(&[rotation as u64])
        } else {
            self.omega_inv.pow(&[(-(rotation as i64)) as u64])
        };
        x * w
    }

    /// Evaluates every Lagrange basis polynomial `l_i` at the point `x`.
    ///
    /// Uses the barycentric formula
    /// `l_i(x) = (omega^i / n) * (x^n - 1) / (x - omega^i)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` lies inside the domain (callers evaluate at random
    /// challenges, which hit the domain with negligible probability).
    pub fn lagrange_evals(&self, x: F) -> Vec<F> {
        let zh = self.evaluate_vanishing(x);
        assert!(!zh.is_zero(), "lagrange_evals: point in domain");
        let mut denoms: Vec<F> = Vec::with_capacity(self.n);
        let mut w = F::one();
        for _ in 0..self.n {
            denoms.push(x - w);
            w *= self.omega;
        }
        batch_invert(&mut denoms);
        let scale = zh * self.n_inv;
        let mut out = Vec::with_capacity(self.n);
        let mut w = F::one();
        for d in denoms {
            out.push(scale * w * d);
            w *= self.omega;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::{Field, Fr, PrimeField};

    #[test]
    fn coset_fft_roundtrip_and_offset() {
        let mut rng = StdRng::seed_from_u64(9);
        let domain = EvaluationDomain::<Fr>::new(5);
        let coeffs: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();

        let mut evals = coeffs.clone();
        domain.coset_fft(&mut evals);
        // Spot-check evaluation at g * omega^3.
        let x = domain.coset_gen * domain.omega.pow(&[3]);
        let mut acc = Fr::zero();
        for c in coeffs.iter().rev() {
            acc = acc * x + *c;
        }
        assert_eq!(evals[3], acc);

        let mut back = evals;
        domain.coset_ifft(&mut back);
        assert_eq!(back, coeffs);
    }

    #[test]
    fn vanishing_is_zero_on_domain_nonzero_on_coset() {
        let domain = EvaluationDomain::<Fr>::new(4);
        for e in domain.elements() {
            assert!(domain.evaluate_vanishing(e).is_zero());
        }
        assert!(!domain.evaluate_vanishing(domain.coset_gen).is_zero());
    }

    #[test]
    fn lagrange_interpolation_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let domain = EvaluationDomain::<Fr>::new(4);
        let evals: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
        let mut coeffs = evals.clone();
        domain.ifft(&mut coeffs);

        let x = Fr::random(&mut rng);
        let mut horner = Fr::zero();
        for c in coeffs.iter().rev() {
            horner = horner * x + *c;
        }
        let ls = domain.lagrange_evals(x);
        let bary: Fr = ls.iter().zip(evals.iter()).map(|(l, e)| *l * *e).sum();
        assert_eq!(bary, horner);
    }

    /// Regression: many pool tasks hitting a *cold* twiddle cache at once.
    /// The `OnceLock` initializer must never schedule pool tasks — the
    /// initializing worker would help-steal a sibling FFT task, re-enter the
    /// same `OnceLock`, and deadlock the whole pool. Exercises the
    /// commit-and-prove shape (fresh domain, immediate parallel column FFTs).
    #[test]
    fn cold_twiddle_cache_survives_concurrent_pool_ffts() {
        let pool = zkml_par::Pool::new(2);
        zkml_par::with_pool(&pool, || {
            for round in 0u64..25 {
                let d = EvaluationDomain::<Fr>::new(10);
                let reference = {
                    // A separate instance: its own cache, so `d` stays cold.
                    let warm = EvaluationDomain::<Fr>::new(10);
                    let mut v: Vec<Fr> = (0..d.n).map(|j| Fr::from(round + j as u64)).collect();
                    warm.fft(&mut v);
                    v
                };
                let cols = zkml_par::par_map(8, |_| {
                    let mut v: Vec<Fr> = (0..d.n).map(|j| Fr::from(round + j as u64)).collect();
                    d.fft(&mut v);
                    v
                });
                for col in cols {
                    assert_eq!(col, reference);
                }
            }
        });
    }

    /// Twiddle caches are shared by clones (one table per domain instance)
    /// but never leak across domains of different sizes.
    #[test]
    fn twiddle_cache_shared_across_clones_and_isolated_across_domains() {
        let d4 = EvaluationDomain::<Fr>::new(4);
        let d5 = EvaluationDomain::<Fr>::new(5);
        let t4 = d4.twiddles();
        // A clone shares the same table allocation; repeated access too.
        assert!(Arc::ptr_eq(&t4, &d4.clone().twiddles()));
        assert!(Arc::ptr_eq(&t4, &d4.twiddles()));
        // Domains of different size have distinct, correctly-sized tables.
        let t5 = d5.twiddles();
        assert_eq!(t4.len(), d4.n / 2);
        assert_eq!(t5.len(), d5.n / 2);
        assert_eq!(t4[1], d4.omega);
        assert_eq!(t5[1], d5.omega);
        assert_ne!(d4.omega, d5.omega);
        // Inverse tables are separate from forward ones.
        assert_eq!(d4.inv_twiddles()[1], d4.omega_inv);
        // Round-trips through both domains stay correct once the caches are
        // warm — no cross-domain contamination.
        let mut rng = StdRng::seed_from_u64(11);
        for d in [&d4, &d5] {
            let coeffs: Vec<Fr> = (0..d.n).map(|_| Fr::random(&mut rng)).collect();
            let mut work = coeffs.clone();
            d.fft(&mut work);
            d.ifft(&mut work);
            assert_eq!(work, coeffs, "k={}", d.k);
        }
    }

    #[test]
    fn rotate_matches_omega_powers() {
        let domain = EvaluationDomain::<Fr>::new(3);
        let x = Fr::from_u64(17);
        assert_eq!(domain.rotate(x, 1), x * domain.omega);
        assert_eq!(domain.rotate(x, -1), x * domain.omega_inv);
        assert_eq!(domain.rotate(x, 0), x);
        assert_eq!(
            domain.rotate(x, -2),
            x * domain.omega_inv * domain.omega_inv
        );
    }
}
