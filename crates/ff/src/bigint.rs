//! Minimal arbitrary-precision unsigned integers.
//!
//! Used for one-time setup computations that need exponents wider than the
//! field modulus (e.g. the final-exponentiation hard part `(p^4 - p^2 + 1)/r`
//! of the BN254 pairing) and as a slow-but-obviously-correct reference in
//! tests. Little-endian `u64` limbs; not performance sensitive.

use crate::arith::{adc, mac, sbb};

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Creates a value from little-endian limbs.
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut v = Self {
            limbs: limbs.to_vec(),
        };
        v.normalize();
        v
    }

    /// Creates a value from a `u64`.
    pub fn from_u64(x: u64) -> Self {
        Self::from_limbs(&[x])
    }

    /// The value zero.
    pub(crate) fn zero() -> Self {
        Self { limbs: vec![] }
    }

    /// The value one.
    pub fn one() -> Self {
        Self { limbs: vec![1] }
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns the little-endian limbs (no trailing zeros).
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits.
    pub(crate) fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (0 = least significant).
    pub(crate) fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Compares two values.
    pub(crate) fn cmp_big(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Computes `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0;
        for i in 0..n {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d, c) = adc(a, b, carry);
            out.push(d);
            carry = c;
        }
        out.push(carry);
        Self::from_limbs(&out)
    }

    /// Computes `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(
            self.cmp_big(other) != std::cmp::Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d, bo) = sbb(self.limbs[i], b, borrow);
            out.push(d);
            borrow = bo;
        }
        debug_assert_eq!(borrow, 0);
        Self::from_limbs(&out)
    }

    /// Computes `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let (d, c) = mac(out[i + j], a, b, carry);
                out[i + j] = d;
                carry = c;
            }
            out[i + other.limbs.len()] = carry;
        }
        Self::from_limbs(&out)
    }

    /// Shifts left by `n` bits.
    pub(crate) fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + limb_shift] |= l << bit_shift;
            if bit_shift != 0 {
                out[i + limb_shift + 1] |= l >> (64 - bit_shift);
            }
        }
        Self::from_limbs(&out)
    }

    /// Shifts right by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 64;
        let mut out = vec![0u64; self.limbs.len() - limb_shift];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift != 0 && i + limb_shift + 1 < self.limbs.len() {
                *o |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
        }
        Self::from_limbs(&out)
    }

    /// Computes `(self / other, self % other)` by binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &Self) -> (Self, Self) {
        assert!(!other.is_zero(), "division by zero");
        if self.cmp_big(other) == std::cmp::Ordering::Less {
            return (Self::zero(), self.clone());
        }
        let bits = self.bits();
        let mut quotient = vec![0u64; self.limbs.len()];
        let mut rem = Self::zero();
        for i in (0..bits).rev() {
            rem = rem.shl(1);
            if self.bit(i) {
                rem = rem.add(&Self::one());
            }
            if rem.cmp_big(other) != std::cmp::Ordering::Less {
                rem = rem.sub(other);
                quotient[i / 64] |= 1 << (i % 64);
            }
        }
        (Self::from_limbs(&quotient), rem)
    }

    /// Computes `self % other`.
    pub fn rem(&self, other: &Self) -> Self {
        self.div_rem(other).1
    }

    /// Copies the low limbs into a fixed-size array (high limbs must be zero).
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `N` limbs.
    pub fn to_fixed<const N: usize>(&self) -> [u64; N] {
        assert!(self.limbs.len() <= N, "BigUint too large for {N} limbs");
        let mut out = [0u64; N];
        out[..self.limbs.len()].copy_from_slice(&self.limbs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arithmetic() {
        let a = BigUint::from_u64(1_000_000_007);
        let b = BigUint::from_u64(998_244_353);
        assert_eq!(a.add(&b), BigUint::from_u64(1_998_244_360));
        assert_eq!(a.sub(&b), BigUint::from_u64(1_755_654));
        let p = a.mul(&b);
        assert_eq!(
            p,
            BigUint::from_limbs(&[(1_000_000_007u128 * 998_244_353u128) as u64, 0])
        );
    }

    #[test]
    fn wide_mul_div_roundtrip() {
        let a = BigUint::from_limbs(&[u64::MAX, u64::MAX, 12345]);
        let b = BigUint::from_limbs(&[0xdeadbeef, 77]);
        let prod = a.mul(&b);
        let (q, r) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let prod1 = prod.add(&BigUint::from_u64(13));
        let (q1, r1) = prod1.div_rem(&b);
        assert_eq!(q1, a);
        assert_eq!(r1, BigUint::from_u64(13));
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(1);
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(a.shl(64).limbs(), &[0, 1]);
        assert_eq!(a.shl(65).limbs(), &[0, 2]);
    }

    #[test]
    fn bits_and_bit() {
        let a = BigUint::from_limbs(&[0, 0b1010]);
        assert_eq!(a.bits(), 64 + 4);
        assert!(a.bit(65));
        assert!(!a.bit(64));
        assert!(a.bit(67));
    }
}
