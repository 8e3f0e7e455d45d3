//! KZG polynomial commitments with batched multi-point openings (GWC-style).
//!
//! The structured reference string is generated locally from a random toxic
//! scalar. The paper uses the Perpetual-Powers-of-Tau ceremony transcript
//! (supporting up to `2^28` rows); a locally generated SRS is the identical
//! mathematical object, minus the distributed-ceremony trust story, which is
//! out of scope for a systems reproduction (see DESIGN.md).

use crate::serial::{ReadError, Reader, Writer};
use rand::RngCore;
use zkml_curves::{msm, pairing_check, G1Affine, G1Projective, G2Affine};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_poly::{Coeffs, EvaluationDomain};
use zkml_transcript::Transcript;

/// A KZG structured reference string: `[tau^i] G1` in both bases and
/// `[tau] G2`.
#[derive(Clone)]
pub struct KzgSrs {
    /// log2 of the maximum supported polynomial length.
    pub k: u32,
    /// `[tau^i] G1` for `i < 2^k`.
    pub g1_powers: Vec<G1Affine>,
    /// `[L_i(tau)] G1` for the Lagrange basis `L_i` of the size-`2^k`
    /// evaluation domain: commits a polynomial given by its `2^k`
    /// evaluations to the same point [`KzgSrs::commit`] gives its
    /// coefficients, with the scalars left as small as the values are.
    pub g1_lagrange: Vec<G1Affine>,
    /// `[1] G2`.
    pub g2: G2Affine,
    /// `[tau] G2`.
    pub tau_g2: G2Affine,
}

/// Computes `[s_i] base` for many scalars using 8-bit fixed-base windows.
fn batch_mul_fixed_base(base: &G1Projective, scalars: &[Fr]) -> Vec<G1Affine> {
    // table[w][b] = [b * 256^w] base
    let mut tables: Vec<Vec<G1Projective>> = Vec::with_capacity(32);
    let mut window_base = *base;
    for _ in 0..32 {
        let mut table = Vec::with_capacity(255);
        let mut acc = window_base;
        for _ in 0..255 {
            table.push(acc);
            acc += window_base;
        }
        tables.push(table);
        window_base = acc; // acc = 256 * window_base
    }
    let projective: Vec<G1Projective> = zkml_par::par_map(scalars.len(), |i| {
        let bytes = scalars[i].to_bytes();
        let mut acc = G1Projective::identity();
        for (w, byte) in bytes.iter().enumerate() {
            if *byte != 0 {
                acc += tables[w][*byte as usize - 1];
            }
        }
        acc
    });
    G1Projective::batch_to_affine(&projective)
}

impl KzgSrs {
    /// Generates an SRS of size `2^k` from a random toxic scalar.
    pub fn setup(k: u32, rng: &mut impl RngCore) -> Self {
        let tau = Fr::random(rng);
        let n = 1usize << k;
        let mut scalars = Vec::with_capacity(2 * n);
        let mut cur = Fr::one();
        for _ in 0..n {
            scalars.push(cur);
            cur *= tau;
        }
        // The setup knows tau, so the Lagrange basis is `L_i(tau)` by the
        // barycentric formula (one batch inversion) through the same
        // fixed-base tables — no group FFT.
        scalars.extend(EvaluationDomain::<Fr>::new(k).lagrange_evals(tau));
        let mut g1_powers = batch_mul_fixed_base(&G1Projective::generator(), &scalars);
        let g1_lagrange = g1_powers.split_off(n);
        let tau_g2 = G2Affine::generator().mul_scalar(&tau);
        Self {
            k,
            g1_powers,
            g1_lagrange,
            g2: G2Affine::generator(),
            tau_g2,
        }
    }

    /// Commits to a polynomial in coefficient form.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is longer than the SRS.
    pub fn commit(&self, poly: &Coeffs<Fr>) -> G1Affine {
        assert!(
            poly.len() <= self.g1_powers.len(),
            "polynomial exceeds SRS size"
        );
        msm(&self.g1_powers[..poly.len()], &poly.values).to_affine()
    }

    /// Commits to the polynomial taking `values` over the size-`2^k` domain.
    ///
    /// # Panics
    ///
    /// Panics unless there are exactly `2^k` values.
    pub fn commit_lagrange(&self, values: &[Fr]) -> G1Affine {
        msm(&self.g1_lagrange, values).to_affine()
    }

    /// Opens a batch of `(polynomial, point)` queries.
    ///
    /// Queries are grouped by point; within a group polynomials are combined
    /// with powers of a transcript challenge `gamma`, and one quotient
    /// witness is emitted per distinct point. The claimed evaluations must
    /// already have been absorbed into the transcript by the caller.
    pub fn open(&self, transcript: &mut Transcript, queries: &[(&Coeffs<Fr>, Fr)]) -> Vec<u8> {
        let gamma: Fr = transcript.challenge(b"kzg-gamma");
        let groups = group_points(queries.iter().map(|(_, z)| *z));
        let mut w = Writer::new();
        for (z, idxs) in &groups {
            // F = sum_i gamma^i p_i over this group.
            let max_len = idxs.iter().map(|&i| queries[i].0.len()).max().unwrap_or(0);
            let mut combined = Coeffs::zero(max_len);
            let mut coeff = Fr::one();
            for &i in idxs {
                for (c, p) in combined.values.iter_mut().zip(&queries[i].0.values) {
                    *c += coeff * *p;
                }
                coeff *= gamma;
            }
            let witness = self.commit(&combined.kate_divide(*z));
            transcript.absorb(b"kzg-w", &witness.to_bytes());
            w.g1(&witness);
        }
        w.finish()
    }

    /// Verifies a batched opening produced by [`KzgSrs::open`].
    ///
    /// `queries` supplies `(commitment, point, claimed_eval)` in the same
    /// order the prover used.
    pub fn verify(
        &self,
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> Result<(), ReadError> {
        let acc = self.prepare(transcript, queries, proof)?;
        if acc.check(self) {
            Ok(())
        } else {
            Err(ReadError("KZG pairing check failed"))
        }
    }

    /// Runs everything in [`KzgSrs::verify`] *except* the final pairing
    /// check, returning the pairing inputs as a [`KzgAccumulator`].
    ///
    /// Accumulators from proofs over SRS instances sharing the same toxic
    /// scalar (same `tau_g2`) can be folded with [`batch_check`] so one
    /// multi-pairing settles many proofs — the amortization segmented
    /// proving relies on.
    pub fn prepare(
        &self,
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> Result<KzgAccumulator, ReadError> {
        let gamma: Fr = transcript.challenge(b"kzg-gamma");
        let groups = group_points(queries.iter().map(|(_, z, _)| *z));
        let mut r = Reader::new(proof);
        let mut witnesses = Vec::with_capacity(groups.len());
        for _ in &groups {
            let wit = r.g1()?;
            transcript.absorb(b"kzg-w", &wit.to_bytes());
            witnesses.push(wit);
        }
        if !r.is_exhausted() {
            return Err(ReadError("trailing bytes in KZG proof"));
        }
        let u: Fr = transcript.challenge(b"kzg-u");

        // Accumulate e(sum u^j W_j, [tau]_2) == e(sum u^j (F_j + z_j W_j - v_j G), [1]_2).
        let mut lhs = G1Projective::identity();
        let mut rhs = G1Projective::identity();
        let mut uj = Fr::one();
        for ((z, idxs), wit) in groups.iter().zip(&witnesses) {
            let mut f = G1Projective::identity();
            let mut v = Fr::zero();
            let mut coeff = Fr::one();
            for &i in idxs {
                f += queries[i].0.to_projective().mul_scalar(&coeff);
                v += coeff * queries[i].2;
                coeff *= gamma;
            }
            let wp = wit.to_projective();
            lhs += wp.mul_scalar(&uj);
            rhs +=
                (f + wp.mul_scalar(z) - G1Projective::generator().mul_scalar(&v)).mul_scalar(&uj);
            uj *= u;
        }
        Ok(KzgAccumulator { lhs, rhs })
    }
}

/// The deferred tail of a KZG opening verification: the two G1 points of
/// the final pairing check `e(lhs, [tau]_2) == e(rhs, [1]_2)`.
///
/// Produced by [`KzgSrs::prepare`]; settle a single accumulator with
/// [`KzgAccumulator::check`] or a whole batch with [`batch_check`].
#[derive(Clone, Debug)]
pub struct KzgAccumulator {
    /// Coefficient of `[tau]_2` in the pairing check.
    pub lhs: G1Projective,
    /// Coefficient of `[1]_2` in the pairing check.
    pub rhs: G1Projective,
}

impl KzgAccumulator {
    /// Settles this accumulator alone with one pairing check.
    pub fn check(&self, srs: &KzgSrs) -> bool {
        pairing_check(&[
            (self.lhs.to_affine(), srs.tau_g2),
            (self.rhs.negate().to_affine(), srs.g2),
        ])
    }
}

/// Settles many [`KzgAccumulator`]s with **one** pairing check.
///
/// The accumulators are folded with powers of a Fiat–Shamir challenge
/// derived from every accumulator point, so a prover cannot craft segments
/// whose individual check failures cancel: any invalid accumulator makes
/// the folded check fail except with negligible probability.
///
/// All accumulators must come from SRS instances sharing `srs`'s toxic
/// scalar (this reproduction regenerates the SRS from a fixed seed, so
/// every `k` shares one tau — callers should still guard with
/// [`KzgSrs::tau_g2`] equality when mixing params).
pub fn batch_check(srs: &KzgSrs, accs: &[KzgAccumulator]) -> bool {
    if accs.is_empty() {
        return true;
    }
    let mut transcript = Transcript::new(b"zkml-kzg-batch");
    for acc in accs {
        transcript.absorb(b"acc-lhs", &acc.lhs.to_affine().to_bytes());
        transcript.absorb(b"acc-rhs", &acc.rhs.to_affine().to_bytes());
    }
    let r: Fr = transcript.challenge(b"kzg-batch-r");
    let mut lhs = G1Projective::identity();
    let mut rhs = G1Projective::identity();
    let mut rj = Fr::one();
    for acc in accs {
        lhs += acc.lhs.mul_scalar(&rj);
        rhs += acc.rhs.mul_scalar(&rj);
        rj *= r;
    }
    pairing_check(&[
        (lhs.to_affine(), srs.tau_g2),
        (rhs.negate().to_affine(), srs.g2),
    ])
}

/// Groups query indices by point, preserving first-occurrence order.
pub fn group_points(points: impl Iterator<Item = Fr>) -> Vec<(Fr, Vec<usize>)> {
    let mut groups: Vec<(Fr, Vec<usize>)> = Vec::new();
    for (i, z) in points.enumerate() {
        if let Some((_, idxs)) = groups.iter_mut().find(|(p, _)| *p == z) {
            idxs.push(i);
        } else {
            groups.push((z, vec![i]));
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn srs(k: u32) -> KzgSrs {
        let mut rng = StdRng::seed_from_u64(1234);
        KzgSrs::setup(k, &mut rng)
    }

    #[test]
    fn fixed_base_matches_naive() {
        let mut rng = StdRng::seed_from_u64(50);
        let scalars: Vec<Fr> = (0..20).map(|_| Fr::random(&mut rng)).collect();
        let fast = batch_mul_fixed_base(&G1Projective::generator(), &scalars);
        for (s, f) in scalars.iter().zip(fast.iter()) {
            assert_eq!(G1Projective::generator().mul_scalar(s).to_affine(), *f);
        }
    }

    #[test]
    fn commitment_is_homomorphic() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(51);
        let a = Coeffs::new((0..40).map(|_| Fr::random(&mut rng)).collect());
        let b = Coeffs::new((0..40).map(|_| Fr::random(&mut rng)).collect());
        let sum = &a + &b;
        let ca = s.commit(&a).to_projective();
        let cb = s.commit(&b).to_projective();
        assert_eq!((ca + cb).to_affine(), s.commit(&sum));
    }

    #[test]
    fn single_open_verifies() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(52);
        let p = Coeffs::new((0..33).map(|_| Fr::random(&mut rng)).collect());
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let c = s.commit(&p);

        let mut tp = Transcript::new(b"test");
        tp.absorb_scalar(b"eval", &v);
        let proof = s.open(&mut tp, &[(&p, z)]);

        let mut tv = Transcript::new(b"test");
        tv.absorb_scalar(b"eval", &v);
        assert!(s.verify(&mut tv, &[(c, z, v)], &proof).is_ok());
    }

    #[test]
    fn wrong_eval_rejected() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(53);
        let p = Coeffs::new((0..33).map(|_| Fr::random(&mut rng)).collect());
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let c = s.commit(&p);

        let mut tp = Transcript::new(b"test");
        tp.absorb_scalar(b"eval", &v);
        let proof = s.open(&mut tp, &[(&p, z)]);

        let mut tv = Transcript::new(b"test");
        tv.absorb_scalar(b"eval", &v);
        let bad = v + Fr::one();
        assert!(s.verify(&mut tv, &[(c, z, bad)], &proof).is_err());
    }

    #[test]
    fn multi_poly_multi_point_batch() {
        let s = srs(7);
        let mut rng = StdRng::seed_from_u64(54);
        let polys: Vec<Coeffs<Fr>> = (0..4)
            .map(|_| Coeffs::new((0..100).map(|_| Fr::random(&mut rng)).collect()))
            .collect();
        let z1 = Fr::random(&mut rng);
        let z2 = Fr::random(&mut rng);
        // p0, p1, p2 at z1; p1, p3 at z2.
        let queries: Vec<(usize, Fr)> = vec![(0, z1), (1, z1), (2, z1), (1, z2), (3, z2)];
        let evals: Vec<Fr> = queries
            .iter()
            .map(|(i, z)| polys[*i].evaluate(*z))
            .collect();
        let commits: Vec<G1Affine> = polys.iter().map(|p| s.commit(p)).collect();

        let mut tp = Transcript::new(b"test");
        for e in &evals {
            tp.absorb_scalar(b"eval", e);
        }
        let pq: Vec<(&Coeffs<Fr>, Fr)> = queries.iter().map(|(i, z)| (&polys[*i], *z)).collect();
        let proof = s.open(&mut tp, &pq);

        let mut tv = Transcript::new(b"test");
        for e in &evals {
            tv.absorb_scalar(b"eval", e);
        }
        let vq: Vec<(G1Affine, Fr, Fr)> = queries
            .iter()
            .zip(&evals)
            .map(|((i, z), e)| (commits[*i], *z, *e))
            .collect();
        assert!(s.verify(&mut tv, &vq, &proof).is_ok());

        // Tampering with any single eval must break it.
        let mut tv2 = Transcript::new(b"test");
        for e in &evals {
            tv2.absorb_scalar(b"eval", e);
        }
        let mut vq2 = vq.clone();
        vq2[3].2 += Fr::one();
        assert!(s.verify(&mut tv2, &vq2, &proof).is_err());
    }

    #[test]
    fn batch_check_settles_many_openings_at_once() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(56);
        let mut accs = Vec::new();
        for _ in 0..3 {
            let p = Coeffs::new((0..33).map(|_| Fr::random(&mut rng)).collect());
            let z = Fr::random(&mut rng);
            let v = p.evaluate(z);
            let c = s.commit(&p);
            let mut tp = Transcript::new(b"test");
            tp.absorb_scalar(b"eval", &v);
            let proof = s.open(&mut tp, &[(&p, z)]);
            let mut tv = Transcript::new(b"test");
            tv.absorb_scalar(b"eval", &v);
            accs.push(s.prepare(&mut tv, &[(c, z, v)], &proof).unwrap());
        }
        assert!(batch_check(&s, &accs));
        assert!(batch_check(&s, &[]), "empty batch is vacuously valid");
        // Each accumulator also settles alone.
        for acc in &accs {
            assert!(acc.check(&s));
        }
    }

    #[test]
    fn batch_check_rejects_one_bad_accumulator() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(57);
        let mut accs = Vec::new();
        for i in 0..3 {
            let p = Coeffs::new((0..33).map(|_| Fr::random(&mut rng)).collect());
            let z = Fr::random(&mut rng);
            let v = p.evaluate(z);
            let claimed = if i == 1 { v + Fr::one() } else { v };
            let c = s.commit(&p);
            let mut tp = Transcript::new(b"test");
            tp.absorb_scalar(b"eval", &v);
            let proof = s.open(&mut tp, &[(&p, z)]);
            let mut tv = Transcript::new(b"test");
            tv.absorb_scalar(b"eval", &claimed);
            accs.push(s.prepare(&mut tv, &[(c, z, claimed)], &proof).unwrap());
        }
        assert!(!batch_check(&s, &accs));
    }

    #[test]
    fn batch_check_folds_accumulators_across_srs_sizes() {
        // Same tau at different k (fixed seed), so accumulators from
        // different-size circuits combine into one pairing.
        let mut rng = StdRng::seed_from_u64(1234);
        let tau_srs = KzgSrs::setup(7, &mut rng);
        let small = KzgSrs {
            k: 6,
            g1_powers: tau_srs.g1_powers[..64].to_vec(),
            g1_lagrange: Vec::new(), // only coefficient-form commits below
            g2: tau_srs.g2,
            tau_g2: tau_srs.tau_g2,
        };
        let mut rng = StdRng::seed_from_u64(58);
        let mut accs = Vec::new();
        for s in [&tau_srs, &small] {
            let p = Coeffs::new((0..30).map(|_| Fr::random(&mut rng)).collect());
            let z = Fr::random(&mut rng);
            let v = p.evaluate(z);
            let c = s.commit(&p);
            let mut tp = Transcript::new(b"test");
            tp.absorb_scalar(b"eval", &v);
            let proof = s.open(&mut tp, &[(&p, z)]);
            let mut tv = Transcript::new(b"test");
            tv.absorb_scalar(b"eval", &v);
            accs.push(s.prepare(&mut tv, &[(c, z, v)], &proof).unwrap());
        }
        assert!(batch_check(&tau_srs, &accs));
    }

    #[test]
    fn proof_size_is_one_point_per_distinct_eval_point() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(55);
        let p = Coeffs::new((0..20).map(|_| Fr::random(&mut rng)).collect());
        let z1 = Fr::random(&mut rng);
        let z2 = Fr::random(&mut rng);
        let mut t = Transcript::new(b"test");
        let proof = s.open(&mut t, &[(&p, z1), (&p, z2), (&p, z1)]);
        assert_eq!(proof.len(), 2 * 32);
    }
}
