//! The BN254 G2 group: the prime-order subgroup of `E'(Fq2)` with
//! `E': y^2 = x^3 + b'`, `b' = 3 / xi`, `xi = 9 + u` (D-type sextic twist).

use crate::fq2::Fq2;
use std::sync::OnceLock;
use zkml_ff::bigint::BigUint;
use zkml_ff::{Fq, Fr, PrimeField};

/// A point on the twist `E'(Fq2)` in affine coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct G2Affine {
    /// x-coordinate.
    pub x: Fq2,
    /// y-coordinate.
    pub y: Fq2,
    /// Marker for the point at infinity.
    pub infinity: bool,
}

/// The twist coefficient `b' = 3/(9+u)`.
pub(crate) fn twist_b() -> Fq2 {
    static B: OnceLock<Fq2> = OnceLock::new();
    *B.get_or_init(|| {
        let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
        Fq2::from_base(Fq::from_u64(3)) * xi.invert().expect("xi nonzero")
    })
}

fn fq_from_hex_limbs(limbs: [u64; 4]) -> Fq {
    Fq::from_canonical(limbs).expect("generator coordinate below modulus")
}

impl G2Affine {
    /// The conventional G2 generator (as standardized in EIP-197/arkworks).
    pub fn generator() -> Self {
        static GEN: OnceLock<G2Affine> = OnceLock::new();
        *GEN.get_or_init(|| {
            // x = x_c0 + x_c1 u, y = y_c0 + y_c1 u; little-endian limbs.
            let x = Fq2::new(
                fq_from_hex_limbs([
                    0x46debd5cd992f6ed,
                    0x674322d4f75edadd,
                    0x426a00665e5c4479,
                    0x1800deef121f1e76,
                ]),
                fq_from_hex_limbs([
                    0x97e485b7aef312c2,
                    0xf1aa493335a9e712,
                    0x7260bfb731fb5d25,
                    0x198e9393920d483a,
                ]),
            );
            let y = Fq2::new(
                fq_from_hex_limbs([
                    0x4ce6cc0166fa7daa,
                    0xe3d1e7690c43d37b,
                    0x4aab71808dcb408f,
                    0x12c85ea5db8c6deb,
                ]),
                fq_from_hex_limbs([
                    0x55acdadcd122975b,
                    0xbc4b313370b38ef3,
                    0xec9e99ad690c3395,
                    0x090689d0585ff075,
                ]),
            );
            let g = G2Affine {
                x,
                y,
                infinity: false,
            };
            assert!(
                g.is_on_curve(),
                "G2 generator must satisfy the twist equation"
            );
            g
        })
    }

    /// The point at infinity.
    pub(crate) fn identity() -> Self {
        Self {
            x: Fq2::zero(),
            y: Fq2::zero(),
            infinity: true,
        }
    }

    /// Returns true if the point is the identity.
    pub(crate) fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks the twist equation.
    pub(crate) fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + twist_b()
    }

    /// Negates the point.
    pub(crate) fn negate(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Doubles the point (affine formulas).
    pub(crate) fn double(&self) -> Self {
        if self.infinity || self.y.is_zero() {
            return Self::identity();
        }
        let three = Fq2::from_base(Fq::from_u64(3));
        let two_inv = self.y.double().invert().expect("y nonzero");
        let lambda = three * self.x.square() * two_inv;
        let x3 = lambda.square() - self.x.double();
        let y3 = lambda * (self.x - x3) - self.y;
        Self {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Adds two points (affine formulas).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.infinity {
            return *rhs;
        }
        if rhs.infinity {
            return *self;
        }
        if self.x == rhs.x {
            if self.y == rhs.y {
                return self.double();
            }
            return Self::identity();
        }
        let lambda = (rhs.y - self.y) * (rhs.x - self.x).invert().expect("distinct x");
        let x3 = lambda.square() - self.x - rhs.x;
        let y3 = lambda * (self.x - x3) - self.y;
        Self {
            x: x3,
            y: y3,
            infinity: false,
        }
    }

    /// Scalar multiplication (double-and-add).
    pub fn mul_scalar(&self, scalar: &Fr) -> Self {
        let limbs = scalar.to_canonical();
        let mut acc = Self::identity();
        for limb in limbs.iter().rev() {
            for i in (0..64).rev() {
                acc = acc.double();
                if (limb >> i) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// The untwist-Frobenius-twist endomorphism `psi`.
    ///
    /// `psi(x, y) = (conj(x) * xi^((q-1)/3), conj(y) * xi^((q-1)/2))`.
    /// Satisfies `psi(Q) = [q]Q` on the G2 subgroup.
    pub(crate) fn psi(&self) -> Self {
        static COEFFS: OnceLock<(Fq2, Fq2)> = OnceLock::new();
        let (cx, cy) = *COEFFS.get_or_init(|| {
            let xi = Fq2::new(Fq::from_u64(9), Fq::ONE);
            let q_minus_1 = BigUint::from_limbs(&Fq::MODULUS).sub(&BigUint::one());
            let (third, r3) = q_minus_1.div_rem(&BigUint::from_u64(3));
            assert!(r3.is_zero());
            let half = q_minus_1.shr(1);
            (xi.pow(third.limbs()), xi.pow(half.limbs()))
        });
        if self.infinity {
            return *self;
        }
        Self {
            x: self.x.conjugate() * cx,
            y: self.y.conjugate() * cy,
            infinity: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_on_curve_and_in_subgroup() {
        let g = G2Affine::generator();
        assert!(g.is_on_curve());
        // [r] g == identity.
        let r_minus_1 = -Fr::ONE;
        assert_eq!(g.mul_scalar(&r_minus_1).add(&g), G2Affine::identity());
    }

    #[test]
    fn group_law() {
        let g = G2Affine::generator();
        let g2 = g.double();
        assert!(g2.is_on_curve());
        assert_eq!(g.add(&g), g2);
        assert_eq!(g2.add(&g), g.mul_scalar(&Fr::from_u64(3)));
        assert_eq!(g.add(&g.negate()), G2Affine::identity());
    }

    #[test]
    fn psi_is_multiplication_by_q() {
        // psi(Q) == [q mod r] Q on the subgroup.
        let g = G2Affine::generator();
        let q_mod_r = {
            use zkml_ff::bigint::BigUint;
            let q = BigUint::from_limbs(&Fq::MODULUS);
            let r = BigUint::from_limbs(&Fr::MODULUS);
            let rem = q.rem(&r);
            Fr::from_canonical(rem.to_fixed::<4>()).unwrap()
        };
        assert_eq!(g.psi(), g.mul_scalar(&q_mod_r));
        assert!(g.psi().is_on_curve());
    }
}
