//! Quadratic extension `Fq12 = Fq6[w] / (w^2 - v)`.

use crate::fq2::Fq2;
use crate::fq6::Fq6;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::OnceLock;
use zkml_ff::bigint::BigUint;
use zkml_ff::{Fq, PrimeField};

/// An element `c0 + c1·w` of `Fq12`, where `w^2 = v`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fq12 {
    /// Constant coefficient.
    pub c0: Fq6,
    /// Coefficient of `w`.
    pub c1: Fq6,
}

/// Frobenius coefficient `gamma = xi^((q-1)/6)`.
fn frobenius_coeff() -> &'static Fq2 {
    static COEFF: OnceLock<Fq2> = OnceLock::new();
    COEFF.get_or_init(|| {
        let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
        let q_minus_1 = BigUint::from_limbs(&Fq::MODULUS).sub(&BigUint::one());
        let (sixth, rem) = q_minus_1.div_rem(&BigUint::from_u64(6));
        assert!(rem.is_zero(), "q - 1 must be divisible by 6");
        xi.pow(sixth.limbs())
    })
}

impl Fq12 {
    /// Creates an element from its two `Fq6` coefficients.
    pub(crate) const fn new(c0: Fq6, c1: Fq6) -> Self {
        Self { c0, c1 }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Self::new(Fq6::one(), Fq6::zero())
    }

    /// Squares this element.
    pub(crate) fn square(&self) -> Self {
        // Complex squaring over Fq6 with w^2 = v.
        let v0 = self.c0 * self.c1;
        let t = self.c1.mul_by_v();
        let c0 = (self.c0 + self.c1) * (self.c0 + t) - v0 - v0.mul_by_v();
        let c1 = v0.double();
        Self::new(c0, c1)
    }

    /// Squares an element of the cyclotomic subgroup (norm 1 over `Fq6`, as
    /// every value is after the easy part of the final exponentiation).
    ///
    /// Granger–Scott: over `Fq4 = Fq2[s]/(s^2 - xi)` with `s = v·w`, the
    /// element is `A + B·w + C·w^2` and its square is `(3A^2 - 2Ā) +
    /// (3s·C^2 + 2B̄)·w + (3B^2 - 2C̄)·w^2`, where the bar negates `s` — three
    /// `Fq4` squarings (six `Fq2` multiplications) against twelve for
    /// [`Fq12::square`]. Wrong outside the subgroup.
    pub(crate) fn cyclotomic_square(&self) -> Self {
        // (a + b·s)^2 = (a^2 + xi·b^2) + 2ab·s.
        let fq4_square = |a: Fq2, b: Fq2| {
            let ab = a * b;
            (
                (a + b) * (b.mul_by_xi() + a) - ab - ab.mul_by_xi(),
                ab.double(),
            )
        };
        // A = c0.c0 + c1.c1·s, B = c1.c0 + c0.c2·s, C = c0.c1 + c1.c2·s.
        let a2 = fq4_square(self.c0.c0, self.c1.c1);
        let b2 = fq4_square(self.c1.c0, self.c0.c2);
        let c2 = fq4_square(self.c0.c1, self.c1.c2);
        // The bar flips the sign of the s-slot, so A' and C' take 3t - 2z in
        // their 1-slot and 3t + 2z in their s-slot; B' = 3s·C^2 + 2B̄ the
        // other way round.
        let minus = |t: Fq2, z: Fq2| (t - z).double() + t;
        let plus = |t: Fq2, z: Fq2| (t + z).double() + t;
        Self::new(
            Fq6::new(
                minus(a2.0, self.c0.c0),
                minus(b2.0, self.c0.c1),
                minus(c2.0, self.c0.c2),
            ),
            Fq6::new(
                plus(c2.1.mul_by_xi(), self.c1.c0),
                plus(a2.1, self.c1.c1),
                plus(b2.1, self.c1.c2),
            ),
        )
    }

    /// Multiplies by the sparse element `a + (b + c·v)·w` with `a` in the
    /// base field — the shape of every Miller-loop line on the D-type twist
    /// — in 6 `Fq` and 10 `Fq2` multiplications (a dense product is 18
    /// `Fq2`).
    pub(crate) fn mul_by_line(&self, a: Fq, b: Fq2, c: Fq2) -> Self {
        let t0 = Fq6::new(
            self.c0.c0.scale(a),
            self.c0.c1.scale(a),
            self.c0.c2.scale(a),
        );
        let t1 = self.c1.mul_by_01(b, c);
        let s = (self.c0 + self.c1).mul_by_01(b + Fq2::from_base(a), c);
        Self::new(t0 + t1.mul_by_v(), s - t0 - t1)
    }

    /// Computes the multiplicative inverse if nonzero.
    pub(crate) fn invert(&self) -> Option<Self> {
        // 1/(c0 + c1 w) = (c0 - c1 w)/(c0^2 - v c1^2)
        let norm = self.c0.square() - self.c1.square().mul_by_v();
        norm.invert()
            .map(|n| Self::new(self.c0 * n, -(self.c1 * n)))
    }

    /// Conjugation `c0 - c1·w`, which equals the `q^6`-power Frobenius.
    pub(crate) fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// Applies the `q`-power Frobenius endomorphism.
    pub(crate) fn frobenius(&self) -> Self {
        let gamma = *frobenius_coeff();
        Self::new(self.c0.frobenius(), self.c1.frobenius().scale(gamma))
    }
}

impl Add for Fq12 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl Sub for Fq12 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl Neg for Fq12 {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
impl Mul for Fq12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba with w^2 = v.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let c0 = v0 + v1.mul_by_v();
        let c1 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - v0 - v1;
        Self::new(c0, c1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::Field;

    impl Fq12 {
        /// Square-and-multiply power by little-endian limbs: the reference
        /// the Frobenius map and the pairing's order are checked against.
        pub(crate) fn pow(&self, exp: &[u64]) -> Self {
            let mut res = Self::one();
            let mut started = false;
            for e in exp.iter().rev() {
                for i in (0..64).rev() {
                    if started {
                        res = res.square();
                    }
                    if (*e >> i) & 1 == 1 {
                        res = res * *self;
                        started = true;
                    }
                }
            }
            res
        }
    }

    fn rand_fq12(rng: &mut StdRng) -> Fq12 {
        let mut f2 = || Fq2::new(Fq::random(rng), Fq::random(rng));
        let c0 = Fq6::new(f2(), f2(), f2());
        let mut f2b = || Fq2::new(Fq::random(rng), Fq::random(rng));
        let c1 = Fq6::new(f2b(), f2b(), f2b());
        Fq12::new(c0, c1)
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fq12::new(Fq6::zero(), Fq6::one());
        let v = Fq12::new(Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero()), Fq6::zero());
        assert_eq!(w * w, v);
    }

    #[test]
    fn field_axioms() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let a = rand_fq12(&mut rng);
            let b = rand_fq12(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            if let Some(inv) = a.invert() {
                assert_eq!(a * inv, Fq12::one());
            }
        }
    }

    #[test]
    fn mul_by_line_matches_dense() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let f = rand_fq12(&mut rng);
            let a = Fq::random(&mut rng);
            let b = Fq2::new(Fq::random(&mut rng), Fq::random(&mut rng));
            let c = Fq2::new(Fq::random(&mut rng), Fq::random(&mut rng));
            let line = Fq12::new(
                Fq6::new(Fq2::from_base(a), Fq2::zero(), Fq2::zero()),
                Fq6::new(b, c, Fq2::zero()),
            );
            assert_eq!(f.mul_by_line(a, b, c), f * line);
        }
    }

    #[test]
    fn cyclotomic_square_matches_square_in_the_subgroup() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            // f^((q^6 - 1)(q^2 + 1)) has norm 1: the final exponentiation's
            // easy part.
            let f = rand_fq12(&mut rng);
            let g = f.conjugate() * f.invert().unwrap();
            let g = g.frobenius().frobenius() * g;
            assert_eq!(g.cyclotomic_square(), g.square());
            assert_eq!(g.cyclotomic_square() * g.conjugate(), g);
        }
        // Outside the subgroup the shortcut does not square.
        let f = rand_fq12(&mut rng);
        assert_ne!(f.cyclotomic_square(), f.square());
    }

    #[test]
    fn frobenius_is_qth_power() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = rand_fq12(&mut rng);
        assert_eq!(a.pow(&Fq::MODULUS), a.frobenius());
    }

    #[test]
    fn conjugate_is_q6_power() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = rand_fq12(&mut rng);
        let mut f = a;
        for _ in 0..6 {
            f = f.frobenius();
        }
        assert_eq!(f, a.conjugate());
    }

    #[test]
    fn pow_add_law() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = rand_fq12(&mut rng);
        assert_eq!(a.pow(&[13]) * a.pow(&[29]), a.pow(&[42]));
    }
}
