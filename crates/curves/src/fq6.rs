//! Cubic extension `Fq6 = Fq2[v] / (v^3 - xi)` with `xi = 9 + u`.

use crate::fq2::Fq2;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::OnceLock;
use zkml_ff::bigint::BigUint;
use zkml_ff::{Fq, PrimeField};

/// An element `c0 + c1·v + c2·v^2` of `Fq6`, where `v^3 = xi`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fq6 {
    /// Constant coefficient.
    pub c0: Fq2,
    /// Coefficient of `v`.
    pub c1: Fq2,
    /// Coefficient of `v^2`.
    pub c2: Fq2,
}

/// Frobenius coefficients `gamma1 = xi^((q-1)/3)` and `gamma2 = xi^((2(q-1))/3)`.
fn frobenius_coeffs() -> &'static (Fq2, Fq2) {
    static COEFFS: OnceLock<(Fq2, Fq2)> = OnceLock::new();
    COEFFS.get_or_init(|| {
        let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
        let q_minus_1 = BigUint::from_limbs(&Fq::MODULUS).sub(&BigUint::one());
        let (third, rem) = q_minus_1.div_rem(&BigUint::from_u64(3));
        assert!(rem.is_zero(), "q - 1 must be divisible by 3");
        let gamma1 = xi.pow(third.limbs());
        (gamma1, gamma1.square())
    })
}

impl Fq6 {
    /// Creates an element from its three `Fq2` coefficients.
    pub(crate) const fn new(c0: Fq2, c1: Fq2, c2: Fq2) -> Self {
        Self { c0, c1, c2 }
    }

    /// The additive identity.
    pub(crate) fn zero() -> Self {
        Self::new(Fq2::zero(), Fq2::zero(), Fq2::zero())
    }

    /// The multiplicative identity.
    pub(crate) fn one() -> Self {
        Self::new(Fq2::one(), Fq2::zero(), Fq2::zero())
    }

    /// Multiplies by `v` (the cubic generator): shifts coefficients and
    /// multiplies the wrapped one by `xi`.
    pub(crate) fn mul_by_v(&self) -> Self {
        Self::new(self.c2.mul_by_xi(), self.c0, self.c1)
    }

    /// Squares this element.
    pub(crate) fn square(&self) -> Self {
        *self * *self
    }

    /// Doubles this element.
    pub(crate) fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double(), self.c2.double())
    }

    /// Multiplies every coefficient by an `Fq2` scalar.
    pub(crate) fn scale(&self, s: Fq2) -> Self {
        Self::new(self.c0 * s, self.c1 * s, self.c2 * s)
    }

    /// Multiplies by the sparse element `b0 + b1·v` (five `Fq2`
    /// multiplications instead of six).
    pub(crate) fn mul_by_01(&self, b0: Fq2, b1: Fq2) -> Self {
        let a_a = self.c0 * b0;
        let b_b = self.c1 * b1;
        let c0 = ((self.c1 + self.c2) * b1 - b_b).mul_by_xi() + a_a;
        let c1 = (self.c0 + self.c1) * (b0 + b1) - a_a - b_b;
        let c2 = (self.c0 + self.c2) * b0 - a_a + b_b;
        Self::new(c0, c1, c2)
    }

    /// Computes the multiplicative inverse if nonzero.
    pub(crate) fn invert(&self) -> Option<Self> {
        // Standard formula via the "adjoint" coefficients.
        let c0 = self.c0.square() - (self.c1 * self.c2).mul_by_xi();
        let c1 = self.c2.square().mul_by_xi() - self.c0 * self.c1;
        let c2 = self.c1.square() - self.c0 * self.c2;
        let t = (self.c2 * c1 + self.c1 * c2).mul_by_xi() + self.c0 * c0;
        t.invert()
            .map(|t_inv| Self::new(c0 * t_inv, c1 * t_inv, c2 * t_inv))
    }

    /// Applies the `q`-power Frobenius endomorphism.
    pub(crate) fn frobenius(&self) -> Self {
        let (gamma1, gamma2) = *frobenius_coeffs();
        Self::new(
            self.c0.conjugate(),
            self.c1.conjugate() * gamma1,
            self.c2.conjugate() * gamma2,
        )
    }
}

impl Add for Fq6 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1, self.c2 + rhs.c2)
    }
}
impl Sub for Fq6 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1, self.c2 - rhs.c2)
    }
}
impl Neg for Fq6 {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1, -self.c2)
    }
}
impl Mul for Fq6 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Toom-style schoolbook with v^3 = xi reduction.
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let v2 = self.c2 * rhs.c2;
        let c0 = ((self.c1 + self.c2) * (rhs.c1 + rhs.c2) - v1 - v2).mul_by_xi() + v0;
        let c1 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - v0 - v1 + v2.mul_by_xi();
        let c2 = (self.c0 + self.c2) * (rhs.c0 + rhs.c2) - v0 - v2 + v1;
        Self::new(c0, c1, c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::Field;

    fn rand_fq6(rng: &mut StdRng) -> Fq6 {
        Fq6::new(
            Fq2::new(Fq::random(rng), Fq::random(rng)),
            Fq2::new(Fq::random(rng), Fq::random(rng)),
            Fq2::new(Fq::random(rng), Fq::random(rng)),
        )
    }

    #[test]
    fn v_cubed_is_xi() {
        let v = Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero());
        let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
        assert_eq!(v * v * v, Fq6::new(xi, Fq2::zero(), Fq2::zero()));
    }

    #[test]
    fn field_axioms() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let a = rand_fq6(&mut rng);
            let b = rand_fq6(&mut rng);
            let c = rand_fq6(&mut rng);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            if let Some(inv) = a.invert() {
                assert_eq!(a * inv, Fq6::one());
            }
        }
    }

    #[test]
    fn mul_by_v_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = Fq6::new(Fq2::zero(), Fq2::one(), Fq2::zero());
        let a = rand_fq6(&mut rng);
        assert_eq!(a.mul_by_v(), a * v);
    }

    #[test]
    fn mul_by_01_matches_dense() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let a = rand_fq6(&mut rng);
            let b = rand_fq6(&mut rng);
            assert_eq!(
                a.mul_by_01(b.c0, b.c1),
                a * Fq6::new(b.c0, b.c1, Fq2::zero())
            );
        }
    }

    #[test]
    fn frobenius_is_qth_power() {
        // a^q computed by repeated squaring must equal the cheap Frobenius.
        let mut rng = StdRng::seed_from_u64(6);
        let a = rand_fq6(&mut rng);
        let mut pow = Fq6::one();
        // Square-and-multiply over the modulus bits.
        for limb in Fq::MODULUS.iter().rev() {
            for i in (0..64).rev() {
                pow = pow * pow;
                if (limb >> i) & 1 == 1 {
                    pow = pow * a;
                }
            }
        }
        assert_eq!(pow, a.frobenius());
    }

    #[test]
    fn frobenius_composes_to_identity_after_six() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = rand_fq6(&mut rng);
        let mut f = a;
        for _ in 0..6 {
            f = f.frobenius();
        }
        assert_eq!(f, a);
    }
}
