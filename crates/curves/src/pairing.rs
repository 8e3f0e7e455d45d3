//! The optimal ate pairing on BN254.
//!
//! The lines of a Miller loop depend only on the G2 point, so
//! [`G2Prepared`] runs the loop's point arithmetic once — affine formulas,
//! one `Fq2` inversion per step — and keeps each line as `(λ, λ·x_T − y_T)`.
//! [`multi_miller_loop`] then walks the `6x + 2` loop once for any number of
//! pairs: the accumulator is squared once per step for all of them and each
//! pair's line is multiplied in as a sparse element (three nonzero `Fq2`
//! slots). A KZG SRS prepares its two fixed G2 points at setup, so checking
//! a proof pays no inversion inside the loop; [`pairing`] prepares its G2
//! argument on the fly and runs the same loop.
//!
//! The final exponentiation splits into the easy part `(q^6 − 1)(q^2 + 1)`
//! and the hard part `(q^4 − q^2 + 1)/r`, which is computed exactly as
//! `λ0 + λ1·q + λ2·q^2 + λ3·q^3` with `λ3 = 1`, `λ2 = 6x^2 + 1`,
//! `λ1 = −36x^3 − 18x^2 − 12x + 1`, `λ0 = −36x^3 − 30x^2 − 18x − 2`
//! (Scott et al. 2009): three exponentiations by `x` with cyclotomic
//! squarings, Frobenius maps and a fixed chain of multiplications. The
//! tests check the chain against plain exponentiation by the exponent
//! derived from the modulus literals, so [`pairing`] returns the element
//! the textbook definition gives, not only the same check verdicts.

use crate::fq12::Fq12;
use crate::fq2::Fq2;
use crate::g1::G1Affine;
use crate::g2::G2Affine;
use std::sync::atomic::{AtomicUsize, Ordering};
use zkml_ff::{Fq, PrimeField};

/// BN parameter `x` for BN254.
pub(crate) const BN_X: u64 = 4965661367192848881;

/// Optimal ate loop count `6x + 2` (65 bits).
pub(crate) const ATE_LOOP_COUNT: u128 = 6 * (BN_X as u128) + 2;

/// Bits of [`ATE_LOOP_COUNT`]; the loop runs over all but the top one.
const ATE_BITS: u32 = 128 - ATE_LOOP_COUNT.leading_zeros();

/// A G2 point with the line coefficients of its Miller loop precomputed.
#[derive(Clone, Debug)]
pub struct G2Prepared {
    /// `(λ, λ·x_T − y_T)` for every line in loop order — one per doubling,
    /// one per set bit below the top, two for the Frobenius additions —
    /// and none for the identity.
    lines: Vec<(Fq2, Fq2)>,
}

impl G2Prepared {
    /// Runs the Miller loop's point arithmetic on `q` and keeps its lines.
    pub fn new(q: &G2Affine) -> Self {
        let mut prepared = Self { lines: Vec::new() };
        if q.is_identity() {
            return prepared;
        }
        prepared.lines.reserve(2 * ATE_BITS as usize);
        let three = Fq2::from_base(Fq::from_u64(3));
        let mut t = *q;
        for i in (0..ATE_BITS - 1).rev() {
            let tangent =
                three * t.x.square() * t.y.double().invert().expect("tangent at 2-torsion");
            t = prepared.line(&t, tangent, t.x);
            if (ATE_LOOP_COUNT >> i) & 1 == 1 {
                t = prepared.chord(&t, q);
            }
        }
        // The two additions with the Frobenius images of Q.
        t = prepared.chord(&t, &q.psi());
        prepared.chord(&t, &q.psi().psi().negate());
        prepared
    }

    /// Records the line of slope `lambda` through `t` and returns the
    /// reflection of its third intersection with the curve: `t + r` for the
    /// chord through `r` (`other_x = r.x`), `2t` for the tangent
    /// (`other_x = t.x`).
    fn line(&mut self, t: &G2Affine, lambda: Fq2, other_x: Fq2) -> G2Affine {
        self.lines.push((lambda, lambda * t.x - t.y));
        let x = lambda.square() - t.x - other_x;
        G2Affine {
            x,
            y: lambda * (t.x - x) - t.y,
            infinity: false,
        }
    }

    /// [`G2Prepared::line`] along the chord through `t` and `r`.
    fn chord(&mut self, t: &G2Affine, r: &G2Affine) -> G2Affine {
        let lambda = (t.y - r.y) * (t.x - r.x).invert().expect("chord with equal x");
        self.line(t, lambda, r.x)
    }
}

/// Count of the pairs [`multi_miller_loop`] was given in this process, and
/// of [`final_exponentiation`] calls.
static MILLER_PAIRS: AtomicUsize = AtomicUsize::new(0);
static FINAL_EXPONENTIATIONS: AtomicUsize = AtomicUsize::new(0);

/// Total pairs passed to [`multi_miller_loop`] so far in this process.
pub fn miller_loop_pairs() -> usize {
    MILLER_PAIRS.load(Ordering::Relaxed)
}

/// Total [`final_exponentiation`] calls so far in this process.
pub fn final_exponentiations() -> usize {
    FINAL_EXPONENTIATIONS.load(Ordering::Relaxed)
}

/// Computes `prod_i f_{6x+2, Q_i}(P_i)`, the optimal ate Miller loop with
/// its two Frobenius additions, for all pairs at once. A pair with the
/// identity on either side contributes one.
pub fn multi_miller_loop(terms: &[(G1Affine, &G2Prepared)]) -> Fq12 {
    MILLER_PAIRS.fetch_add(terms.len(), Ordering::Relaxed);
    // For the D-type twist the line through T with slope λ, at P, is
    // `y_P − (λ x_P)·w + (λ x_T − y_T)·v·w`.
    let terms: Vec<&(G1Affine, &G2Prepared)> = terms
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.lines.is_empty())
        .collect();
    let mul_lines = |f: Fq12, line: usize| {
        terms.iter().fold(f, |f, (p, q)| {
            let (lambda, c) = q.lines[line];
            f.mul_by_line(p.y, lambda.scale(-p.x), c)
        })
    };
    let mut f = Fq12::one();
    let mut line = 0;
    for i in (0..ATE_BITS - 1).rev() {
        f = mul_lines(f.square(), line);
        line += 1;
        if (ATE_LOOP_COUNT >> i) & 1 == 1 {
            f = mul_lines(f, line);
            line += 1;
        }
    }
    mul_lines(mul_lines(f, line), line + 1)
}

/// `g^x` for `g` in the cyclotomic subgroup: square-and-multiply over the
/// bits of [`BN_X`] with cyclotomic squarings.
fn exp_by_x(g: &Fq12) -> Fq12 {
    let mut acc = *g;
    for i in (0..64 - BN_X.leading_zeros() - 1).rev() {
        acc = acc.cyclotomic_square();
        if (BN_X >> i) & 1 == 1 {
            acc = acc * *g;
        }
    }
    acc
}

/// The hard part `g^((q^4 - q^2 + 1)/r)` for `g` in the cyclotomic subgroup,
/// as `g^(λ0 + λ1 q + λ2 q^2 + λ3 q^3)` by the vectorial addition chain of
/// Scott et al.: with `y0 = g^(q + q^2 + q^3)`, `y1 = g^-1`,
/// `y2 = g^(x^2 q^2)`, `y3 = g^(-x q)`, `y4 = g^(-x - x^2 q)`,
/// `y5 = g^(-x^2)`, `y6 = g^(-x^3 - x^3 q)`, the result is
/// `y0 · y1^2 · y2^6 · y3^12 · y4^18 · y5^30 · y6^36`. Conjugation is the
/// inverse in the subgroup.
fn hard_part(g: &Fq12) -> Fq12 {
    let gx = exp_by_x(g);
    let gx2 = exp_by_x(&gx);
    let gx3 = exp_by_x(&gx2);
    let gq = g.frobenius();
    let gq2 = gq.frobenius();
    let y0 = gq * gq2 * gq2.frobenius();
    let y1 = g.conjugate();
    let y2 = gx2.frobenius().frobenius();
    let y3 = gx.frobenius().conjugate();
    let y4 = (gx * gx2.frobenius()).conjugate();
    let y5 = gx2.conjugate();
    let y6 = (gx3 * gx3.frobenius()).conjugate();

    let mut t0 = y6.cyclotomic_square() * y4 * y5;
    let mut t1 = y3 * y5 * t0;
    t0 = t0 * y2;
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square();
    t0 = t1 * y1;
    t1 = t1 * y0;
    t0.cyclotomic_square() * t1
}

/// The final exponentiation `f^((q^12 - 1)/r)`.
pub fn final_exponentiation(f: &Fq12) -> Fq12 {
    FINAL_EXPONENTIATIONS.fetch_add(1, Ordering::Relaxed);
    // Easy part: f^((q^6 - 1)(q^2 + 1)), which lands in the cyclotomic
    // subgroup the hard part works in.
    let f_inv = f.invert().expect("Miller value nonzero");
    let g = f.conjugate() * f_inv; // f^(q^6 - 1)
    let g = g.frobenius().frobenius() * g; // ^(q^2 + 1)
    hard_part(&g)
}

/// The optimal ate pairing `e(P, Q)`: the product path ([`multi_miller_loop`]
/// then [`final_exponentiation`]) over one pair.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fq12 {
    final_exponentiation(&multi_miller_loop(&[(*p, &G2Prepared::new(q))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fq6::Fq6;
    use crate::g1::G1Projective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::bigint::BigUint;
    use zkml_ff::{Field, Fr};

    /// The hard-part exponent `(q^4 - q^2 + 1)/r`, derived from the modulus
    /// literals: the oracle the addition chain is checked against.
    fn hard_exponent() -> Vec<u64> {
        let q = BigUint::from_limbs(&Fq::MODULUS);
        let r = BigUint::from_limbs(&Fr::MODULUS);
        let q2 = q.mul(&q);
        let q4 = q2.mul(&q2);
        let numer = q4.sub(&q2).add(&BigUint::one());
        let (h, rem) = numer.div_rem(&r);
        assert!(
            rem.is_zero(),
            "(q^4 - q^2 + 1) must be divisible by r for a BN curve"
        );
        h.limbs().to_vec()
    }

    fn rand_fq12(rng: &mut StdRng) -> Fq12 {
        let mut f2 = || Fq2::new(Fq::random(&mut *rng), Fq::random(&mut *rng));
        Fq12::new(Fq6::new(f2(), f2(), f2()), Fq6::new(f2(), f2(), f2()))
    }

    /// `f^((q^6 - 1)(q^2 + 1))`, the value the hard part receives.
    fn easy_part(f: &Fq12) -> Fq12 {
        let g = f.conjugate() * f.invert().unwrap();
        g.frobenius().frobenius() * g
    }

    /// A short digest of an `Fq12` in canonical coefficient order.
    fn fq12_digest(f: &Fq12) -> String {
        let mut bytes = Vec::new();
        for c6 in [f.c0, f.c1] {
            for c2 in [c6.c0, c6.c1, c6.c2] {
                bytes.extend_from_slice(&c2.c0.to_bytes());
                bytes.extend_from_slice(&c2.c1.to_bytes());
            }
        }
        zkml_transcript::Blake2b::digest(&bytes)[..16]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    #[test]
    fn hard_part_chain_is_the_derived_exponent() {
        let mut rng = StdRng::seed_from_u64(34);
        let exp = hard_exponent();
        for _ in 0..4 {
            let g = easy_part(&rand_fq12(&mut rng));
            assert_eq!(hard_part(&g), g.pow(&exp));
        }
    }

    #[test]
    fn exp_by_x_is_pow_x() {
        let mut rng = StdRng::seed_from_u64(35);
        let g = easy_part(&rand_fq12(&mut rng));
        assert_eq!(exp_by_x(&g), g.pow(&[BN_X]));
    }

    /// The pairing of the generators and of a seeded pair, and the Miller
    /// value of that pair, as the affine per-call loop with dense line
    /// products and the plain hard-part exponentiation computed them.
    #[test]
    fn pairing_values_are_unchanged() {
        let mut rng = StdRng::seed_from_u64(40);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let p = G1Projective::generator().mul_scalar(&a).to_affine();
        let q = G2Affine::generator().mul_scalar(&b);
        let gens = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_eq!(fq12_digest(&gens), "0b5081693ff3b3d0d02c9aedc8017dc1");
        assert_eq!(
            fq12_digest(&pairing(&p, &q)),
            "2f2fc13f71b6b665aee8ae01d96dd8d2"
        );
        assert_eq!(
            fq12_digest(&multi_miller_loop(&[(p, &G2Prepared::new(&q))])),
            "68a5321e4a6ec916d563813b5d9753d2"
        );
    }

    /// One shared loop over prepared points, then one final exponentiation,
    /// is the product of the single pairings — identities included.
    #[test]
    fn multi_miller_loop_is_the_product_of_pairings() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut g1 = || {
            G1Projective::generator()
                .mul_scalar(&Fr::random(&mut rng))
                .to_affine()
        };
        let ps = [g1(), g1(), G1Affine::identity(), g1()];
        let mut rng = StdRng::seed_from_u64(37);
        let qs = [
            G2Affine::generator().mul_scalar(&Fr::random(&mut rng)),
            G2Affine::identity(),
            G2Affine::generator(),
            G2Affine::generator().mul_scalar(&Fr::random(&mut rng)),
        ];
        let prepared: Vec<G2Prepared> = qs.iter().map(G2Prepared::new).collect();
        for n in 1..=4 {
            let terms: Vec<(G1Affine, &G2Prepared)> =
                ps[..n].iter().copied().zip(&prepared[..n]).collect();
            let expected = ps[..n]
                .iter()
                .zip(&qs[..n])
                .fold(Fq12::one(), |acc, (p, q)| acc * pairing(p, q));
            assert_eq!(final_exponentiation(&multi_miller_loop(&terms)), expected);
        }
        assert_eq!(multi_miller_loop(&[]), Fq12::one());
    }

    #[test]
    fn pairing_nondegenerate() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert_ne!(e, Fq12::one());
        // e has order dividing r: e^r == 1.
        assert_eq!(e.pow(&Fr::MODULUS), Fq12::one());
    }

    #[test]
    fn pairing_bilinear_in_g1() {
        let mut rng = StdRng::seed_from_u64(30);
        let a = Fr::random(&mut rng);
        let g1 = G1Projective::generator();
        let g2 = G2Affine::generator();
        let lhs = pairing(&g1.mul_scalar(&a).to_affine(), &g2);
        let rhs = pairing(&g1.to_affine(), &g2).pow(&a.to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bilinear_in_g2() {
        let mut rng = StdRng::seed_from_u64(31);
        let b = Fr::random(&mut rng);
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        let lhs = pairing(&g1, &g2.mul_scalar(&b));
        let rhs = pairing(&g1, &g2).pow(&b.to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_bilinear_both_sides() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let pa = G1Projective::generator().mul_scalar(&a).to_affine();
        let qb = G2Affine::generator().mul_scalar(&b);
        let lhs = pairing(&pa, &qb);
        let rhs =
            pairing(&G1Affine::generator(), &G2Affine::generator()).pow(&(a * b).to_canonical());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn two_pair_check_detects_equality() {
        // e(aG, G2) * e(-G, a G2) == 1.
        let mut rng = StdRng::seed_from_u64(33);
        let a = Fr::random(&mut rng);
        let p1 = G1Projective::generator().mul_scalar(&a).to_affine();
        let neg_g = G1Projective::generator().negate().to_affine();
        let g2 = G2Prepared::new(&G2Affine::generator());
        let check = |q: &G2Affine| {
            let f = multi_miller_loop(&[(p1, &g2), (neg_g, &G2Prepared::new(q))]);
            final_exponentiation(&f) == Fq12::one()
        };
        assert!(check(&G2Affine::generator().mul_scalar(&a)));
        // And a wrong statement fails.
        assert!(!check(&G2Affine::generator().mul_scalar(&(a + Fr::ONE))));
    }

    #[test]
    fn identity_pairs_to_one() {
        assert_eq!(
            pairing(&G1Affine::identity(), &G2Affine::generator()),
            Fq12::one()
        );
        assert_eq!(
            pairing(&G1Affine::generator(), &G2Affine::identity()),
            Fq12::one()
        );
    }
}

#[cfg(test)]
mod perf {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore = "performance probe, run explicitly"]
    fn probe_timings() {
        let (p, q) = (G1Affine::generator(), G2Affine::generator());
        let _ = pairing(&p, &q);
        let time = |name: &str, f: &dyn Fn()| {
            let t = Instant::now();
            for _ in 0..20 {
                f();
            }
            eprintln!("{name}: {:?}", t.elapsed() / 20);
        };
        let prepared = G2Prepared::new(&q);
        let f = multi_miller_loop(&[(p, &prepared)]);
        time("G2Prepared::new", &|| {
            std::hint::black_box(G2Prepared::new(&q));
        });
        time("multi_miller_loop, 2 prepared pairs", &|| {
            std::hint::black_box(multi_miller_loop(&[(p, &prepared), (p, &prepared)]));
        });
        time("final_exponentiation", &|| {
            std::hint::black_box(final_exponentiation(&f));
        });
        time("pairing", &|| {
            std::hint::black_box(pairing(&p, &q));
        });
    }
}
