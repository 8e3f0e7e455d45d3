//! The BN254 G1 group: `y^2 = x^3 + 3` over `Fq` (prime order `r`, cofactor 1).

use std::ops::{Add, AddAssign, Mul, Neg, Sub};
use zkml_ff::{batch_invert, Field, Fq, Fr, PrimeField};

/// A point on G1 in affine coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct G1Affine {
    /// x-coordinate.
    pub x: Fq,
    /// y-coordinate.
    pub y: Fq,
    /// Marker for the point at infinity (coordinates are then ignored).
    pub infinity: bool,
}

/// A point on G1 in Jacobian coordinates (`x = X/Z^2`, `y = Y/Z^3`).
#[derive(Clone, Copy, Debug)]
pub struct G1Projective {
    /// Jacobian X.
    pub x: Fq,
    /// Jacobian Y.
    pub y: Fq,
    /// Jacobian Z (zero encodes the identity).
    pub z: Fq,
}

/// The curve coefficient `b = 3`.
pub(crate) fn curve_b() -> Fq {
    Fq::from_u64(3)
}

impl G1Affine {
    /// The conventional generator `(1, 2)`.
    pub fn generator() -> Self {
        Self {
            x: Fq::ONE,
            y: Fq::from_u64(2),
            infinity: false,
        }
    }

    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: Fq::ZERO,
            y: Fq::ZERO,
            infinity: true,
        }
    }

    /// Returns true if the point is the identity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> G1Projective {
        if self.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: self.x,
                y: self.y,
                z: Fq::ONE,
            }
        }
    }

    /// Compressed 32-byte encoding.
    ///
    /// `x` occupies the low 254 bits (little-endian); bit 255 flags the
    /// identity and bit 254 stores the parity of `y`.
    pub fn to_bytes(&self) -> [u8; 32] {
        if self.infinity {
            let mut out = [0u8; 32];
            out[31] = 0x80;
            return out;
        }
        let mut out = self.x.to_bytes();
        if self.y.to_canonical()[0] & 1 == 1 {
            out[31] |= 0x40;
        }
        out
    }

    /// Decodes a compressed encoding, checking the curve equation.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        if bytes[31] & 0x80 != 0 {
            let mut rest = *bytes;
            rest[31] &= 0x7f;
            if rest.iter().any(|&b| b != 0) {
                return None;
            }
            return Some(Self::identity());
        }
        let mut xb = *bytes;
        let parity = (xb[31] & 0x40) != 0;
        xb[31] &= 0x3f;
        let x = Fq::from_bytes(&xb)?;
        let y2 = x.square() * x + curve_b();
        let mut y = y2.sqrt()?;
        if (y.to_canonical()[0] & 1 == 1) != parity {
            y = -y;
        }
        Some(Self {
            x,
            y,
            infinity: false,
        })
    }

    /// Negates the point (reflection across the x-axis).
    pub(crate) fn negate(&self) -> Self {
        if self.infinity {
            *self
        } else {
            Self {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }

    /// Deterministically hashes a seed to a curve point (try-and-increment).
    ///
    /// G1 has cofactor 1, so any on-curve point is in the prime-order group.
    pub fn hash_to_curve(seed: &[u8]) -> Self {
        let mut ctr: u64 = 0;
        loop {
            let mut input = Vec::with_capacity(seed.len() + 8);
            input.extend_from_slice(seed);
            input.extend_from_slice(&ctr.to_le_bytes());
            let h = zkml_transcript::Blake2b::digest(&input);
            let mut lo = [0u64; 4];
            let mut hi = [0u64; 4];
            for i in 0..4 {
                let mut b = [0u8; 8];
                b.copy_from_slice(&h[i * 8..(i + 1) * 8]);
                lo[i] = u64::from_le_bytes(b);
                b.copy_from_slice(&h[32 + i * 8..32 + (i + 1) * 8]);
                hi[i] = u64::from_le_bytes(b);
            }
            let x = Fq::from_u512(lo, hi);
            let y2 = x.square() * x + curve_b();
            if let Some(y) = y2.sqrt() {
                let y = if h[63] & 1 == 1 { -y } else { y };
                return Self {
                    x,
                    y,
                    infinity: false,
                };
            }
            ctr += 1;
        }
    }
}

impl G1Projective {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: Fq::ONE,
            y: Fq::ONE,
            z: Fq::ZERO,
        }
    }

    /// The generator in Jacobian coordinates.
    pub fn generator() -> Self {
        G1Affine::generator().to_projective()
    }

    /// Returns true if the point is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Doubles the point (`a = 0` short-Weierstrass doubling).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        // dbl-2009-l: A = X^2, B = Y^2, C = B^2,
        // D = 2((X+B)^2 - A - C), E = 3A, F = E^2,
        // X3 = F - 2D, Y3 = E(D - X3) - 8C, Z3 = 2YZ.
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a + a + a;
        let f = e.square();
        let x3 = f - d.double();
        let c8 = c.double().double().double();
        let y3 = e * (d - x3) - c8;
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Adds an affine point (mixed addition).
    pub fn add_affine(&self, rhs: &G1Affine) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_projective();
        }
        // madd-2007-bl.
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition.
    pub(crate) fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        // add-2007-bl.
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Negates the point.
    pub fn negate(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Scalar multiplication by an `Fr` element (double-and-add).
    pub fn mul_scalar(&self, scalar: &Fr) -> Self {
        let bits = scalar.to_canonical();
        let mut acc = Self::identity();
        for limb in bits.iter().rev() {
            for i in (0..64).rev() {
                acc = acc.double();
                if (limb >> i) & 1 == 1 {
                    acc = G1Projective::add(&acc, self);
                }
            }
        }
        acc
    }

    /// Converts to affine coordinates (single inversion).
    pub fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        let z_inv = self.z.invert().expect("nonzero z");
        let z2 = z_inv.square();
        G1Affine {
            x: self.x * z2,
            y: self.y * z2 * z_inv,
            infinity: false,
        }
    }

    /// Converts a slice of points to affine with one shared inversion.
    pub fn batch_to_affine(points: &[Self]) -> Vec<G1Affine> {
        let mut zs: Vec<Fq> = points
            .iter()
            .map(|p| if p.is_identity() { Fq::ONE } else { p.z })
            .collect();
        batch_invert(&mut zs);
        points
            .iter()
            .zip(zs)
            .map(|(p, z_inv)| {
                if p.is_identity() {
                    G1Affine::identity()
                } else {
                    let z2 = z_inv.square();
                    G1Affine {
                        x: p.x * z2,
                        y: p.y * z2 * z_inv,
                        infinity: false,
                    }
                }
            })
            .collect()
    }
}

impl PartialEq for G1Projective {
    fn eq(&self, other: &Self) -> bool {
        // Compare in the projective equivalence class.
        if self.is_identity() || other.is_identity() {
            return self.is_identity() == other.is_identity();
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1 && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}
impl Eq for G1Projective {}

impl Add for G1Projective {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs)
    }
}
impl AddAssign for G1Projective {
    fn add_assign(&mut self, rhs: Self) {
        *self = G1Projective::add(self, &rhs);
    }
}
impl Sub for G1Projective {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        G1Projective::add(&self, &rhs.negate())
    }
}
impl Neg for G1Projective {
    type Output = Self;
    fn neg(self) -> Self {
        self.negate()
    }
}
impl Neg for G1Affine {
    type Output = Self;
    fn neg(self) -> Self {
        self.negate()
    }
}
impl Mul<Fr> for G1Projective {
    type Output = Self;
    fn mul(self, rhs: Fr) -> Self {
        self.mul_scalar(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl G1Affine {
        /// Checks the curve equation (identity counts as on-curve).
        fn is_on_curve(&self) -> bool {
            self.infinity || self.y.square() == self.x.square() * self.x + curve_b()
        }
    }

    #[test]
    fn generator_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
    }

    #[test]
    fn group_law_consistency() {
        let g = G1Projective::generator();
        let two_g = g.double();
        assert_eq!(two_g, g + g);
        let three_g = two_g + g;
        assert_eq!(three_g, g.mul_scalar(&Fr::from_u64(3)));
        assert_eq!(g + g.negate(), G1Projective::identity());
        // Mixed addition agrees with general addition.
        let ga = g.to_affine();
        assert_eq!(two_g.add_affine(&ga), three_g);
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = G1Projective::generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        assert_eq!(g.mul_scalar(&a) + g.mul_scalar(&b), g.mul_scalar(&(a + b)));
        assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&(a * b)));
    }

    #[test]
    fn order_annihilates() {
        // r * G = identity; compute via (r-1)*G + G.
        let g = G1Projective::generator();
        let r_minus_1 = -Fr::ONE;
        assert_eq!(g.mul_scalar(&r_minus_1) + g, G1Projective::identity());
    }

    #[test]
    fn compressed_roundtrip() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let p = G1Projective::generator()
                .mul_scalar(&Fr::random(&mut rng))
                .to_affine();
            let bytes = p.to_bytes();
            assert_eq!(G1Affine::from_bytes(&bytes), Some(p));
        }
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_bytes(&id.to_bytes()), Some(id));
    }

    #[test]
    fn invalid_bytes_rejected() {
        // x with no corresponding y (try a few) must fail.
        let mut count = 0;
        for i in 0..20u64 {
            let x = Fq::from_u64(1000 + i);
            let y2 = x.square() * x + curve_b();
            if y2.sqrt().is_none() {
                let mut bytes = x.to_bytes();
                bytes[31] &= 0x3f;
                assert_eq!(G1Affine::from_bytes(&bytes), None);
                count += 1;
            }
        }
        assert!(count > 0);
    }

    #[test]
    fn batch_to_affine_matches() {
        let mut rng = StdRng::seed_from_u64(14);
        let pts: Vec<G1Projective> = (0..9)
            .map(|i| {
                if i == 4 {
                    G1Projective::identity()
                } else {
                    G1Projective::generator().mul_scalar(&Fr::random(&mut rng))
                }
            })
            .collect();
        let affine = G1Projective::batch_to_affine(&pts);
        for (p, a) in pts.iter().zip(affine.iter()) {
            assert_eq!(p.to_affine(), *a);
        }
    }

    #[test]
    fn hash_to_curve_deterministic_and_on_curve() {
        let p1 = G1Affine::hash_to_curve(b"zkml-ipa-basis-0");
        let p2 = G1Affine::hash_to_curve(b"zkml-ipa-basis-0");
        let p3 = G1Affine::hash_to_curve(b"zkml-ipa-basis-1");
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert!(p1.is_on_curve());
        assert!(p3.is_on_curve());
    }
}
