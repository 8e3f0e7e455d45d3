//! Inner-product-argument polynomial commitments (transparent setup).
//!
//! Commitments are Pedersen vector commitments over a hashed-to-curve basis;
//! openings are the logarithmic Bulletproofs folding argument. Verification
//! checks each point's argument as one `O(n)` multi-scalar multiplication
//! that must vanish — the combined commitment, the round terms and the
//! folded basis point in one sum, as halo2 does. That MSM is the source of
//! the higher verification times the paper reports for the IPA backend
//! (Table 7) relative to KZG's one MSM over the proof's commitments and two
//! pairings.

use crate::kzg::group_points;
use crate::serial::{ReadError, Reader, Writer};
use zkml_curves::{msm, G1Affine, G1Projective};
use zkml_ff::{Field, Fr};
use zkml_poly::Coeffs;
use zkml_transcript::Transcript;

/// Transparent IPA parameters: a hashed-to-curve basis plus the auxiliary
/// point used to bind claimed inner products.
#[derive(Clone)]
pub struct IpaParams {
    /// log2 of the basis size.
    pub k: u32,
    /// Pedersen basis `G_i` (no discrete-log relations known).
    pub basis: Vec<G1Affine>,
    /// Auxiliary point `U` for the evaluation claim.
    pub u: G1Affine,
}

impl IpaParams {
    /// Derives parameters of size `2^k` deterministically (no trusted setup).
    pub(crate) fn setup(k: u32) -> Self {
        let n = 1usize << k;
        let basis = zkml_par::par_map(n, |i| {
            let mut seed = b"zkml-ipa-basis-".to_vec();
            seed.extend_from_slice(&(i as u64).to_le_bytes());
            G1Affine::hash_to_curve(&seed)
        });
        let u = G1Affine::hash_to_curve(b"zkml-ipa-u");
        Self { k, basis, u }
    }

    /// Commits to a polynomial in coefficient form.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is longer than the basis.
    pub(crate) fn commit(&self, poly: &Coeffs<Fr>) -> G1Affine {
        assert!(poly.len() <= self.basis.len(), "polynomial exceeds basis");
        msm(&self.basis[..poly.len()], &poly.values).to_affine()
    }

    /// Opens a batch of `(polynomial, point)` queries.
    ///
    /// Queries sharing a point are folded with a transcript challenge into a
    /// single polynomial, then one logarithmic argument is run per distinct
    /// point. Claimed evaluations must already be in the transcript.
    pub(crate) fn open(
        &self,
        transcript: &mut Transcript,
        queries: &[(&Coeffs<Fr>, Fr)],
    ) -> Vec<u8> {
        let gamma: Fr = transcript.challenge(b"ipa-gamma");
        let groups = group_points(queries.iter().map(|(_, z)| *z));
        let mut w = Writer::new();
        for (z, idxs) in &groups {
            let mut combined = Coeffs::zero(self.basis.len());
            let mut coeff = Fr::one();
            for &i in idxs {
                for (c, p) in combined.values.iter_mut().zip(&queries[i].0.values) {
                    *c += coeff * *p;
                }
                coeff *= gamma;
            }
            self.open_single(transcript, &combined, *z, &mut w);
        }
        w.finish()
    }

    fn open_single(&self, transcript: &mut Transcript, poly: &Coeffs<Fr>, z: Fr, w: &mut Writer) {
        let n = self.basis.len();
        debug_assert_eq!(poly.len(), n);
        let v = poly.evaluate(z);
        transcript.absorb_scalar(b"ipa-v", &v);
        let xi: Fr = transcript.challenge(b"ipa-xi");
        let u = self.u.to_projective().mul_scalar(&xi).to_affine();

        let mut a = poly.values.clone();
        let mut b = Vec::with_capacity(n);
        let mut cur = Fr::one();
        for _ in 0..n {
            b.push(cur);
            cur *= z;
        }
        let mut g: Vec<G1Affine> = self.basis.clone();

        let mut len = n;
        while len > 1 {
            let half = len / 2;
            let (a_lo, a_hi) = a.split_at(half);
            let (b_lo, b_hi) = b.split_at(half);
            let (g_lo, g_hi) = g.split_at(half);
            let ab_lo: Fr = a_hi.iter().zip(b_lo).map(|(x, y)| *x * *y).sum();
            let ab_hi: Fr = a_lo.iter().zip(b_hi).map(|(x, y)| *x * *y).sum();
            let l = (msm(g_lo, a_hi) + u.to_projective().mul_scalar(&ab_lo)).to_affine();
            let r = (msm(g_hi, a_lo) + u.to_projective().mul_scalar(&ab_hi)).to_affine();
            transcript.absorb(b"ipa-l", &l.to_bytes());
            transcript.absorb(b"ipa-r", &r.to_bytes());
            w.g1(&l);
            w.g1(&r);
            let x: Fr = transcript.challenge(b"ipa-x");
            let x_inv = x.invert().expect("challenge nonzero");

            let mut a2 = Vec::with_capacity(half);
            let mut b2 = Vec::with_capacity(half);
            for i in 0..half {
                a2.push(a_lo[i] + x * a_hi[i]);
                b2.push(b_lo[i] + x_inv * b_hi[i]);
            }
            let g2: Vec<G1Projective> = (0..half)
                .map(|i| g_lo[i].to_projective() + g_hi[i].to_projective().mul_scalar(&x_inv))
                .collect();
            a = a2;
            b = b2;
            g = G1Projective::batch_to_affine(&g2);
            len = half;
        }
        w.scalar(&a[0]);
        transcript.absorb_scalar(b"ipa-a", &a[0]);
    }

    /// Verifies a batched opening produced by [`IpaParams::open`].
    pub(crate) fn verify(
        &self,
        transcript: &mut Transcript,
        queries: &[(G1Affine, Fr, Fr)],
        proof: &[u8],
    ) -> Result<(), ReadError> {
        let gamma: Fr = transcript.challenge(b"ipa-gamma");
        let groups = group_points(queries.iter().map(|(_, z, _)| *z));
        let mut r = Reader::new(proof);
        for (z, idxs) in &groups {
            let mut bases =
                Vec::with_capacity(idxs.len() + 2 * self.k as usize + 1 + self.basis.len());
            let mut scalars = Vec::with_capacity(bases.capacity());
            let mut v = Fr::zero();
            let mut coeff = Fr::one();
            for &i in idxs {
                bases.push(queries[i].0);
                scalars.push(coeff);
                v += coeff * queries[i].2;
                coeff *= gamma;
            }
            self.verify_single(transcript, bases, scalars, *z, v, &mut r)?;
        }
        if !r.is_exhausted() {
            return Err(ReadError("trailing bytes in IPA proof"));
        }
        Ok(())
    }

    /// Checks one point's argument for the commitment `sum scalars_i
    /// bases_i` as a single MSM that must vanish:
    /// `C + xi·v·U + sum_j (x_j L_j + x_j^-1 R_j) - a·G_final - xi·a·b·U`,
    /// with `G_final = sum_i s_i G_i` expanded into the same MSM.
    fn verify_single(
        &self,
        transcript: &mut Transcript,
        mut bases: Vec<G1Affine>,
        mut scalars: Vec<Fr>,
        z: Fr,
        v: Fr,
        r: &mut Reader<'_>,
    ) -> Result<(), ReadError> {
        transcript.absorb_scalar(b"ipa-v", &v);
        let xi: Fr = transcript.challenge(b"ipa-xi");

        let rounds = self.k as usize;
        let mut challenges = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let l = r.g1()?;
            let rr = r.g1()?;
            transcript.absorb(b"ipa-l", &l.to_bytes());
            transcript.absorb(b"ipa-r", &rr.to_bytes());
            let x: Fr = transcript.challenge(b"ipa-x");
            let x_inv = x.invert().expect("challenge nonzero");
            bases.extend([l, rr]);
            scalars.extend([x, x_inv]);
            challenges.push(x_inv);
        }
        let a_final = r.scalar()?;
        transcript.absorb_scalar(b"ipa-a", &a_final);

        // s_i = prod over rounds j of x_j^{-bit(i)}, where round 1 pairs with
        // the top bit of i (the first fold splits lo/hi halves). Building by
        // doubling therefore consumes challenges from the LAST round first.
        let mut s = vec![Fr::one()];
        for x_inv in challenges.iter().rev() {
            let mut next = Vec::with_capacity(s.len() * 2);
            next.extend_from_slice(&s);
            next.extend(s.iter().map(|si| *si * *x_inv));
            s = next;
        }
        // b_final = prod_j (1 + x_j^{-1} z^{2^(k-j)}) by the same folding.
        let mut b_final = Fr::one();
        let mut z_pow = z; // z^(2^0), consumed from the last round backwards
        for x_inv in challenges.iter().rev() {
            b_final *= Fr::one() + *x_inv * z_pow;
            z_pow = z_pow.square();
        }
        bases.extend_from_slice(&self.basis);
        scalars.extend(s.iter().map(|si| -(a_final * *si)));
        bases.push(self.u);
        scalars.push(xi * (v - a_final * b_final));
        if msm(&bases, &scalars).is_identity() {
            Ok(())
        } else {
            Err(ReadError("IPA final check failed"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::PrimeField;

    fn params(k: u32) -> IpaParams {
        IpaParams::setup(k)
    }

    fn pad(mut p: Coeffs<Fr>, n: usize) -> Coeffs<Fr> {
        p.values.resize(n, Fr::zero());
        p
    }

    #[test]
    fn single_open_verifies() {
        let params = params(5);
        let mut rng = StdRng::seed_from_u64(60);
        let p = pad(
            Coeffs::new((0..20).map(|_| Fr::random(&mut rng)).collect()),
            32,
        );
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let c = params.commit(&p);

        let mut tp = Transcript::new(b"test");
        tp.absorb_scalar(b"eval", &v);
        let proof = params.open(&mut tp, &[(&p, z)]);

        let mut tv = Transcript::new(b"test");
        tv.absorb_scalar(b"eval", &v);
        assert!(params.verify(&mut tv, &[(c, z, v)], &proof).is_ok());
    }

    #[test]
    fn wrong_eval_rejected() {
        let params = params(4);
        let mut rng = StdRng::seed_from_u64(61);
        let p = pad(
            Coeffs::new((0..16).map(|_| Fr::random(&mut rng)).collect()),
            16,
        );
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let c = params.commit(&p);

        let mut tp = Transcript::new(b"test");
        tp.absorb_scalar(b"eval", &v);
        let proof = params.open(&mut tp, &[(&p, z)]);

        let mut tv = Transcript::new(b"test");
        tv.absorb_scalar(b"eval", &v);
        assert!(params
            .verify(&mut tv, &[(c, z, v + Fr::one())], &proof)
            .is_err());
    }

    #[test]
    fn multi_poly_multi_point_batch() {
        let params = params(5);
        let mut rng = StdRng::seed_from_u64(62);
        let polys: Vec<Coeffs<Fr>> = (0..3)
            .map(|_| {
                pad(
                    Coeffs::new((0..25).map(|_| Fr::random(&mut rng)).collect()),
                    32,
                )
            })
            .collect();
        let z1 = Fr::random(&mut rng);
        let z2 = Fr::random(&mut rng);
        let queries: Vec<(usize, Fr)> = vec![(0, z1), (1, z1), (2, z2)];
        let evals: Vec<Fr> = queries
            .iter()
            .map(|(i, z)| polys[*i].evaluate(*z))
            .collect();
        let commits: Vec<G1Affine> = polys.iter().map(|p| params.commit(p)).collect();

        let mut tp = Transcript::new(b"test");
        for e in &evals {
            tp.absorb_scalar(b"eval", e);
        }
        let pq: Vec<(&Coeffs<Fr>, Fr)> = queries.iter().map(|(i, z)| (&polys[*i], *z)).collect();
        let proof = params.open(&mut tp, &pq);

        let mut tv = Transcript::new(b"test");
        for e in &evals {
            tv.absorb_scalar(b"eval", e);
        }
        let vq: Vec<(G1Affine, Fr, Fr)> = queries
            .iter()
            .zip(&evals)
            .map(|((i, z), e)| (commits[*i], *z, *e))
            .collect();
        assert!(params.verify(&mut tv, &vq, &proof).is_ok());

        let mut tv2 = Transcript::new(b"test");
        for e in &evals {
            tv2.absorb_scalar(b"eval", e);
        }
        let mut vq2 = vq.clone();
        vq2[0].2 += Fr::one();
        assert!(params.verify(&mut tv2, &vq2, &proof).is_err());
    }

    /// The one-MSM check rejects a change to any claimed eval, any
    /// commitment, any round point `L`/`R` and any `a_final`.
    #[test]
    fn every_tampered_claim_or_proof_element_is_rejected() {
        for k in [4u32, 7] {
            let params = params(k);
            let n = 1usize << k;
            let mut rng = StdRng::seed_from_u64(64 + u64::from(k));
            let polys: Vec<Coeffs<Fr>> = (0..3)
                .map(|_| {
                    pad(
                        Coeffs::new((0..n - 3).map(|_| Fr::random(&mut rng)).collect()),
                        n,
                    )
                })
                .collect();
            let z1 = Fr::random(&mut rng);
            let z2 = Fr::random(&mut rng);
            let queries = [(0, z1), (1, z1), (2, z2), (0, z2)];
            let vq: Vec<(G1Affine, Fr, Fr)> = queries
                .iter()
                .map(|(i, z)| (params.commit(&polys[*i]), *z, polys[*i].evaluate(*z)))
                .collect();
            let claims = |vq: &[(G1Affine, Fr, Fr)]| {
                let mut t = Transcript::new(b"test");
                for (_, _, e) in vq {
                    t.absorb_scalar(b"eval", e);
                }
                t
            };
            let pq: Vec<(&Coeffs<Fr>, Fr)> =
                queries.iter().map(|(i, z)| (&polys[*i], *z)).collect();
            let proof = params.open(&mut claims(&vq), &pq);
            assert!(params.verify(&mut claims(&vq), &vq, &proof).is_ok());

            let moved = |p: &G1Affine| (p.to_projective() + G1Projective::generator()).to_affine();
            for i in 0..vq.len() {
                let mut bad = vq.clone();
                bad[i].2 += Fr::one();
                assert!(params.verify(&mut claims(&bad), &bad, &proof).is_err());
                let mut bad = vq.clone();
                bad[i].0 = moved(&bad[i].0);
                assert!(params.verify(&mut claims(&bad), &bad, &proof).is_err());
            }
            // Per point: k (L, R) pairs, then a_final.
            let per_point = (2 * k as usize + 1) * 32;
            for at in (0..proof.len()).step_by(32) {
                let mut bad = proof.clone();
                let bytes: [u8; 32] = proof[at..at + 32].try_into().unwrap();
                let flipped = if at % per_point == per_point - 32 {
                    (Reader::new(&bytes).scalar().unwrap() + Fr::one()).to_bytes()
                } else {
                    moved(&G1Affine::from_bytes(&bytes).unwrap()).to_bytes()
                };
                bad[at..at + 32].copy_from_slice(&flipped);
                assert!(
                    params.verify(&mut claims(&vq), &vq, &bad).is_err(),
                    "k={k} byte {at}"
                );
            }
        }
    }

    #[test]
    fn proof_is_logarithmic_per_point() {
        let params = params(5);
        let mut rng = StdRng::seed_from_u64(63);
        let p = pad(
            Coeffs::new((0..30).map(|_| Fr::random(&mut rng)).collect()),
            32,
        );
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let mut t = Transcript::new(b"test");
        t.absorb_scalar(b"eval", &v);
        let proof = params.open(&mut t, &[(&p, z)]);
        // 2 * k points + 1 scalar.
        assert_eq!(proof.len(), 2 * 5 * 32 + 32);
    }

    #[test]
    fn setup_is_deterministic() {
        let a = IpaParams::setup(3);
        let b = IpaParams::setup(3);
        assert_eq!(a.basis, b.basis);
        assert_eq!(a.u, b.u);
        // All points distinct (no accidental collisions).
        for i in 0..a.basis.len() {
            for j in i + 1..a.basis.len() {
                assert_ne!(a.basis[i], a.basis[j]);
            }
        }
    }
}
