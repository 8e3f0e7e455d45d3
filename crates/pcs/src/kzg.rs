//! KZG polynomial commitments with batched multi-point openings (GWC-style).
//!
//! The structured reference string is generated locally from a random toxic
//! scalar. The paper uses the Perpetual-Powers-of-Tau ceremony transcript
//! (supporting up to `2^28` rows); a locally generated SRS is the identical
//! mathematical object, minus the distributed-ceremony trust story, which is
//! out of scope for a systems reproduction (see DESIGN.md).
//!
//! Checking an opening costs one MSM and one two-pair multi-pairing:
//! [`KzgSrs::prepare`] folds every query of a proof into the two G1 points
//! of a [`KzgAccumulator`] — one `msm` over the distinct commitments, the
//! per-point witnesses and the generator — and the pairing runs over the
//! Miller-loop lines of `[1]G2` and `[tau]G2`, which [`KzgSrs::setup`]
//! computes once. [`batch_check`] folds many accumulators with one more
//! `msm` per side before the same pairing.

use crate::serial::{ReadError, Reader, Writer};
use rand::RngCore;
use std::collections::HashMap;
use zkml_curves::{
    final_exponentiation, msm, multi_miller_loop, Fq12, G1Affine, G1Projective, G2Affine,
    G2Prepared,
};
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
    /// Miller-loop lines of `g2` and `tau_g2`, computed by
    /// [`KzgSrs::setup`]; every pairing check runs over these.
    g2_lines: G2Prepared,
    tau_g2_lines: G2Prepared,
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
        let g2 = G2Affine::generator();
        let tau_g2 = g2.mul_scalar(&tau);
        Self {
            k,
            g1_powers,
            g1_lagrange,
            g2,
            tau_g2,
            g2_lines: G2Prepared::new(&g2),
            tau_g2_lines: G2Prepared::new(&tau_g2),
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
    pub(crate) fn commit_lagrange(&self, values: &[Fr]) -> G1Affine {
        msm(&self.g1_lagrange, values).to_affine()
    }

    /// Opens a batch of `(polynomial, point)` queries.
    ///
    /// Queries are grouped by point; within a group polynomials are combined
    /// with powers of a transcript challenge `gamma`, and one quotient
    /// witness is emitted per distinct point. The claimed evaluations must
    /// already have been absorbed into the transcript by the caller.
    pub(crate) fn open(
        &self,
        transcript: &mut Transcript,
        queries: &[(&Coeffs<Fr>, Fr)],
    ) -> Vec<u8> {
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

    /// Verifies a batched opening produced by [`KzgSrs::open`] up to, not
    /// including, the final pairing check, returning the pairing inputs as a
    /// [`KzgAccumulator`]; [`KzgAccumulator::check`] settles it.
    ///
    /// `queries` supplies `(commitment, point, claimed_eval)` in the same
    /// order the prover used.
    ///
    /// Accumulators from proofs over SRS instances sharing the same toxic
    /// scalar (same `tau_g2`) can be folded with [`batch_check`] so one
    /// multi-pairing settles many proofs — the amortization segmented
    /// proving relies on.
    pub(crate) fn prepare(
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

        // e(sum u^j W_j, [tau]_2) == e(sum u^j (F_j + z_j W_j - v_j G), [1]_2)
        // with F_j = sum_i gamma^i C_i and v_j = sum_i gamma^i v_i over group
        // j. The right side is one MSM in which a commitment opened at several
        // points is one base carrying its summed coefficient u^j gamma^i.
        let mut bases = Vec::with_capacity(queries.len() + groups.len() + 1);
        let mut scalars = Vec::with_capacity(bases.capacity());
        let mut slot: HashMap<G1Affine, usize> = HashMap::with_capacity(queries.len());
        let mut u_powers = Vec::with_capacity(groups.len());
        let mut v = Fr::zero();
        let mut uj = Fr::one();
        for ((z, idxs), wit) in groups.iter().zip(&witnesses) {
            let mut coeff = uj;
            for &i in idxs {
                let (c, _, eval) = &queries[i];
                v += coeff * *eval;
                if !c.is_identity() {
                    let at = *slot.entry(*c).or_insert_with(|| {
                        bases.push(*c);
                        scalars.push(Fr::zero());
                        bases.len() - 1
                    });
                    scalars[at] += coeff;
                }
                coeff *= gamma;
            }
            bases.push(*wit);
            scalars.push(uj * *z);
            u_powers.push(uj);
            uj *= u;
        }
        bases.push(G1Affine::generator());
        scalars.push(-v);
        Ok(KzgAccumulator {
            lhs: msm(&witnesses, &u_powers),
            rhs: msm(&bases, &scalars),
        })
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
    /// Settles this accumulator alone with one pairing check: one two-pair
    /// Miller loop over the SRS's prepared lines and one final
    /// exponentiation.
    pub(crate) fn check(&self, srs: &KzgSrs) -> bool {
        let points = G1Projective::batch_to_affine(&[self.lhs, self.rhs.negate()]);
        let f = multi_miller_loop(&[(points[0], &srs.tau_g2_lines), (points[1], &srs.g2_lines)]);
        final_exponentiation(&f) == Fq12::one()
    }
}

/// Settles many `KzgAccumulator`s with **one** pairing check.
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
    accs.is_empty() || fold(accs).check(srs)
}

/// Folds accumulators with the powers of a challenge derived from all of
/// them: one MSM per side.
fn fold(accs: &[KzgAccumulator]) -> KzgAccumulator {
    let lhs = G1Projective::batch_to_affine(&accs.iter().map(|a| a.lhs).collect::<Vec<_>>());
    let rhs = G1Projective::batch_to_affine(&accs.iter().map(|a| a.rhs).collect::<Vec<_>>());
    let mut transcript = Transcript::new(b"zkml-kzg-batch");
    for (l, r) in lhs.iter().zip(&rhs) {
        transcript.absorb(b"acc-lhs", &l.to_bytes());
        transcript.absorb(b"acc-rhs", &r.to_bytes());
    }
    let r: Fr = transcript.challenge(b"kzg-batch-r");
    let powers: Vec<Fr> = std::iter::successors(Some(Fr::one()), |rj| Some(*rj * r))
        .take(accs.len())
        .collect();
    KzgAccumulator {
        lhs: msm(&lhs, &powers),
        rhs: msm(&rhs, &powers),
    }
}

/// Groups query indices by point, preserving first-occurrence order.
pub(crate) fn group_points(points: impl Iterator<Item = Fr>) -> Vec<(Fr, Vec<usize>)> {
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

    /// The opening check proofs run: `prepare`, then the pairing.
    fn opens(
        s: &KzgSrs,
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> bool {
        s.prepare(transcript, queries, proof)
            .is_ok_and(|acc| acc.check(s))
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
        assert!(opens(&s, &mut tv, &[(c, z, v)], &proof));
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
        assert!(!opens(&s, &mut tv, &[(c, z, bad)], &proof));
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
        assert!(opens(&s, &mut tv, &vq, &proof));

        // Tampering with any single eval must break it.
        let mut tv2 = Transcript::new(b"test");
        for e in &evals {
            tv2.absorb_scalar(b"eval", e);
        }
        let mut vq2 = vq.clone();
        vq2[3].2 += Fr::one();
        assert!(!opens(&s, &mut tv2, &vq2, &proof));
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
            ..tau_srs.clone()
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

    /// The accumulator as one double-and-add per query and four per point
    /// computed it, on the same transcript schedule.
    fn reference_accumulator(
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> KzgAccumulator {
        let gamma: Fr = transcript.challenge(b"kzg-gamma");
        let groups = group_points(queries.iter().map(|(_, z, _)| *z));
        let mut r = Reader::new(proof);
        let witnesses: Vec<G1Affine> = groups
            .iter()
            .map(|_| {
                let wit = r.g1().unwrap();
                transcript.absorb(b"kzg-w", &wit.to_bytes());
                wit
            })
            .collect();
        let u: Fr = transcript.challenge(b"kzg-u");
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
        KzgAccumulator { lhs, rhs }
    }

    /// A verifier transcript that has absorbed the claimed evaluations.
    fn claims(queries: &[(G1Affine, Fr, Fr)]) -> Transcript {
        let mut t = Transcript::new(b"test");
        for (_, _, e) in queries {
            t.absorb_scalar(b"eval", e);
        }
        t
    }

    /// `prepare`'s single MSM gives the per-query loop's two points, and
    /// the opening still rejects every tampered eval, commitment or witness.
    #[test]
    fn prepare_is_the_per_query_accumulation() {
        use rand::Rng;
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(59);
        let mut polys: Vec<Coeffs<Fr>> = (0..6)
            .map(|_| Coeffs::new((0..40).map(|_| Fr::random(&mut rng)).collect()))
            .collect();
        polys.push(Coeffs::zero(40)); // commits to the identity
        let commits: Vec<G1Affine> = polys.iter().map(|p| s.commit(p)).collect();
        assert!(commits[6].is_identity());
        let pts: Vec<Fr> = (0..6).map(|_| Fr::random(&mut rng)).collect();
        let mut cases: Vec<Vec<(usize, Fr)>> = vec![
            // One group, the identity among its commitments.
            vec![(0, pts[0]), (6, pts[0]), (3, pts[0])],
            // Six groups, one commitment at every point.
            (0..6).flat_map(|j| [(1, pts[j]), (j, pts[j])]).collect(),
        ];
        for _ in 0..3 {
            cases.push(
                (0..12)
                    .map(|_| (rng.gen_range(0..7), pts[rng.gen_range(0..6)]))
                    .collect(),
            );
        }
        let moved = |p: &G1Affine| (p.to_projective() + G1Projective::generator()).to_affine();
        for case in &cases {
            let vq: Vec<(G1Affine, Fr, Fr)> = case
                .iter()
                .map(|(i, z)| (commits[*i], *z, polys[*i].evaluate(*z)))
                .collect();
            let pq: Vec<(&Coeffs<Fr>, Fr)> = case.iter().map(|(i, z)| (&polys[*i], *z)).collect();
            let proof = s.open(&mut claims(&vq), &pq);

            let acc = s.prepare(&mut claims(&vq), &vq, &proof).unwrap();
            let reference = reference_accumulator(&mut claims(&vq), &vq, &proof);
            assert_eq!(acc.lhs, reference.lhs);
            assert_eq!(acc.rhs, reference.rhs);
            assert!(acc.check(&s));

            for i in 0..vq.len() {
                let mut bad = vq.clone();
                bad[i].2 += Fr::one();
                assert!(!opens(&s, &mut claims(&bad), &bad, &proof));
                let mut bad = vq.clone();
                bad[i].0 = moved(&bad[i].0);
                assert!(!opens(&s, &mut claims(&bad), &bad, &proof));
            }
            for at in (0..proof.len()).step_by(32) {
                let mut bad = proof.clone();
                let wit = G1Affine::from_bytes(&proof[at..at + 32].try_into().unwrap()).unwrap();
                bad[at..at + 32].copy_from_slice(&moved(&wit).to_bytes());
                assert!(!opens(&s, &mut claims(&vq), &vq, &bad));
            }
        }
    }

    /// `batch_check`'s folding MSMs agree with folding by double-and-add.
    #[test]
    fn batch_check_fold_matches_scalar_multiplications() {
        let s = srs(6);
        let mut rng = StdRng::seed_from_u64(60);
        let accs: Vec<KzgAccumulator> = (0..5)
            .map(|_| {
                let p = Coeffs::new((0..33).map(|_| Fr::random(&mut rng)).collect());
                let z = Fr::random(&mut rng);
                let vq = [(s.commit(&p), z, p.evaluate(z))];
                let proof = s.open(&mut claims(&vq), &[(&p, z)]);
                s.prepare(&mut claims(&vq), &vq, &proof).unwrap()
            })
            .collect();
        let mut t = Transcript::new(b"zkml-kzg-batch");
        for acc in &accs {
            t.absorb(b"acc-lhs", &acc.lhs.to_affine().to_bytes());
            t.absorb(b"acc-rhs", &acc.rhs.to_affine().to_bytes());
        }
        let r: Fr = t.challenge(b"kzg-batch-r");
        let (mut lhs, mut rhs, mut rj) = (
            G1Projective::identity(),
            G1Projective::identity(),
            Fr::one(),
        );
        for acc in &accs {
            lhs += acc.lhs.mul_scalar(&rj);
            rhs += acc.rhs.mul_scalar(&rj);
            rj *= r;
        }
        let folded = fold(&accs);
        assert_eq!(folded.lhs, lhs);
        assert_eq!(folded.rhs, rhs);
        assert!(batch_check(&s, &accs));
        let mut bad = accs.clone();
        bad[3].rhs += G1Projective::generator();
        assert!(!batch_check(&s, &bad));
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
