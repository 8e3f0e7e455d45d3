//! Quadratic extension `Fq2 = Fq[u] / (u^2 + 1)`.

use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use zkml_ff::{Field, Fq};

/// An element `c0 + c1·u` of `Fq2`, where `u^2 = -1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fq2 {
    /// Real part.
    pub c0: Fq,
    /// Coefficient of `u`.
    pub c1: Fq,
}

impl Fq2 {
    /// Creates an element from its two coefficients.
    pub(crate) const fn new(c0: Fq, c1: Fq) -> Self {
        Self { c0, c1 }
    }

    /// The additive identity.
    pub(crate) fn zero() -> Self {
        Self::new(Fq::ZERO, Fq::ZERO)
    }

    /// The multiplicative identity.
    pub(crate) fn one() -> Self {
        Self::new(Fq::ONE, Fq::ZERO)
    }

    /// Returns true if this is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Embeds an `Fq` element.
    pub(crate) fn from_base(c0: Fq) -> Self {
        Self::new(c0, Fq::ZERO)
    }

    /// Squares this element.
    pub(crate) fn square(&self) -> Self {
        // (c0 + c1 u)^2 = (c0+c1)(c0-c1) + 2 c0 c1 u
        let a = self.c0 + self.c1;
        let b = self.c0 - self.c1;
        let c = self.c0 + self.c0;
        Self::new(a * b, c * self.c1)
    }

    /// Doubles this element.
    pub(crate) fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double())
    }

    /// Multiplies by an `Fq` scalar.
    pub(crate) fn scale(&self, s: Fq) -> Self {
        Self::new(self.c0 * s, self.c1 * s)
    }

    /// Complex conjugation `c0 - c1·u`; this is also the `p`-power Frobenius
    /// (since `p ≡ 3 mod 4`).
    pub(crate) fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// Computes the multiplicative inverse if nonzero.
    pub(crate) fn invert(&self) -> Option<Self> {
        // 1/(c0 + c1 u) = (c0 - c1 u) / (c0^2 + c1^2)
        let norm = self.c0.square() + self.c1.square();
        norm.invert()
            .map(|n| Self::new(self.c0 * n, -(self.c1 * n)))
    }

    /// Raises to a power given as little-endian limbs.
    pub(crate) fn pow(&self, exp: &[u64]) -> Self {
        let mut res = Self::one();
        for e in exp.iter().rev() {
            for i in (0..64).rev() {
                res = res.square();
                if (*e >> i) & 1 == 1 {
                    res *= *self;
                }
            }
        }
        res
    }

    /// Multiplies by the sextic non-residue `xi = 9 + u`.
    pub(crate) fn mul_by_xi(&self) -> Self {
        // (c0 + c1 u)(9 + u) = (9 c0 - c1) + (c0 + 9 c1) u
        let t0 = self.c0.double().double().double() + self.c0; // 9 c0
        let t1 = self.c1.double().double().double() + self.c1; // 9 c1
        Self::new(t0 - self.c1, self.c0 + t1)
    }
}

impl Add for Fq2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl Sub for Fq2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl Mul for Fq2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba: (a0 b0 - a1 b1) + ((a0+a1)(b0+b1) - a0 b0 - a1 b1) u
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let t = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self::new(v0 - v1, t - v0 - v1)
    }
}
impl Neg for Fq2 {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}
impl AddAssign for Fq2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fq2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fq2 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::PrimeField;

    fn rand_fq2(rng: &mut StdRng) -> Fq2 {
        Fq2::new(Fq::random(rng), Fq::random(rng))
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fq2::new(Fq::ZERO, Fq::ONE);
        assert_eq!(u * u, -Fq2::one());
    }

    #[test]
    fn field_axioms() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let a = rand_fq2(&mut rng);
            let b = rand_fq2(&mut rng);
            let c = rand_fq2(&mut rng);
            assert_eq!((a + b) * c, a * c + b * c);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            assert_eq!(a.double(), a + a);
            if !a.is_zero() {
                assert_eq!(a * a.invert().unwrap(), Fq2::one());
            }
        }
    }

    #[test]
    fn conjugate_is_frobenius() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = rand_fq2(&mut rng);
        assert_eq!(a.pow(&Fq::MODULUS), a.conjugate());
    }

    #[test]
    fn mul_by_xi_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(3);
        let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
        for _ in 0..10 {
            let a = rand_fq2(&mut rng);
            assert_eq!(a.mul_by_xi(), a * xi);
        }
    }

    #[test]
    fn xi_is_not_a_cube_or_square() {
        // xi generates the right tower: xi^((q^2-1)/2) != 1 and
        // xi^((q^2-1)/3) != 1 (non-residue for both).
        use zkml_ff::bigint::BigUint;
        let q = BigUint::from_limbs(&Fq::MODULUS);
        let q2m1 = q.mul(&q).sub(&BigUint::one());
        let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
        let (half, r) = q2m1.div_rem(&BigUint::from_u64(2));
        assert!(r.is_zero());
        assert_ne!(xi.pow(half.limbs()), Fq2::one());
        let (third, r) = q2m1.div_rem(&BigUint::from_u64(3));
        assert!(r.is_zero());
        assert_ne!(xi.pow(third.limbs()), Fq2::one());
    }
}
