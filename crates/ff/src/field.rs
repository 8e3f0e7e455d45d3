//! Field traits and the prime-field implementation macro.

use rand::RngCore;
use std::fmt::Debug;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of a finite field.
pub trait Field:
    Copy
    + Clone
    + Debug
    + Default
    + PartialEq
    + Eq
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + Product
{
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Returns true if this is the additive identity.
    fn is_zero(&self) -> bool;
    /// Squares this element.
    fn square(&self) -> Self;
    /// Doubles this element.
    fn double(&self) -> Self;
    /// Computes the multiplicative inverse, if this element is nonzero.
    fn invert(&self) -> Option<Self>;
    /// Raises this element to the power given by little-endian `u64` limbs.
    fn pow(&self, exp: &[u64]) -> Self;
    /// Samples a uniformly random element.
    fn random(rng: &mut impl RngCore) -> Self;
}

/// A prime-order field with canonical integer representation.
pub trait PrimeField: Field + Ord + std::hash::Hash {
    /// The modulus as little-endian limbs.
    const MODULUS: [u64; 4];
    /// Number of bits needed to represent the modulus.
    const NUM_BITS: u32;
    /// A fixed multiplicative generator of the field.
    const GENERATOR_U64: u64;

    /// Converts a `u64` into a field element.
    fn from_u64(v: u64) -> Self;
    /// Converts a `u128` into a field element (reduced mod p).
    fn from_u128(v: u128) -> Self;
    /// Converts a signed integer (negative values map to `p - |v|`).
    fn from_i64(v: i64) -> Self;
    /// Converts a signed 128-bit integer (negative values map to `p - |v|`).
    fn from_i128(v: i128) -> Self;
    /// Returns the canonical (non-Montgomery) little-endian limbs, `< p`.
    fn to_canonical(&self) -> [u64; 4];
    /// Builds an element from canonical limbs; `None` if `>= p`.
    fn from_canonical(limbs: [u64; 4]) -> Option<Self>;
    /// Canonical little-endian byte encoding (32 bytes).
    fn to_bytes(&self) -> [u8; 32];
    /// Decodes a canonical little-endian byte encoding.
    fn from_bytes(bytes: &[u8; 32]) -> Option<Self>;
    /// Reduces a 512-bit little-endian integer (for uniform hashing to field).
    fn from_u512(lo: [u64; 4], hi: [u64; 4]) -> Self;
    /// Interprets the element as a signed integer in `(-p/2, p/2]`.
    ///
    /// Fixed-point tensor values are small in magnitude, so this decodes
    /// them exactly; values with magnitude `>= 2^127` are saturated.
    fn to_signed_i128(&self) -> i128;
}

/// A prime field with a large power-of-two multiplicative subgroup (for FFTs).
pub trait FftField: PrimeField {
    /// `2^TWO_ADICITY` divides `p - 1`.
    const TWO_ADICITY: u32;
    /// A fixed multiplicative generator of the full group.
    fn multiplicative_generator() -> Self;
    /// A primitive `2^TWO_ADICITY`-th root of unity.
    fn root_of_unity() -> Self;
}

/// Inverts a slice of field elements in place using Montgomery's batch trick.
///
/// # Panics
///
/// Panics if any element is zero.
pub fn batch_invert<F: Field>(values: &mut [F]) {
    batch_invert_with_scratch(values, &mut Vec::new());
}

/// [`batch_invert`] with a caller-owned scratch buffer, so hot loops that
/// invert in rounds (the batch-affine MSM scheduler, chunked prover passes)
/// reuse one allocation instead of allocating a prefix-product vector per
/// round. `scratch` is cleared and left empty (capacity retained).
///
/// # Panics
///
/// Panics if any element is zero.
pub fn batch_invert_with_scratch<F: Field>(values: &mut [F], scratch: &mut Vec<F>) {
    if values.is_empty() {
        return;
    }
    scratch.clear();
    scratch.reserve(values.len());
    let mut acc = F::one();
    for v in values.iter() {
        scratch.push(acc);
        acc *= *v;
    }
    let mut inv = acc.invert().expect("batch_invert: zero element");
    for (v, p) in values.iter_mut().zip(scratch.drain(..)).rev() {
        let tmp = inv * *v;
        *v = inv * p;
        inv = tmp;
    }
}

/// Implements a 4-limb Montgomery-form prime field.
///
/// All derived constants (`R`, `R2`, `R3`, `INV`) are computed by `const fn`
/// from the modulus literal alone, eliminating constant-transcription risk.
/// The modulus is declared once, as the `PrimeField::MODULUS` the macro
/// implements, so the invoking module must have `PrimeField` in scope.
macro_rules! impl_prime_field {
    ($vis:vis struct $name:ident, modulus = $modulus:expr, generator = $generator:expr, num_bits = $num_bits:expr, doc = $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, Default)]
        $vis struct $name(pub(crate) [u64; 4]);

        impl $name {
            /// `-p^{-1} mod 2^64`.
            pub(crate) const INV: u64 = $crate::field::mont::compute_inv(Self::MODULUS[0]);
            /// `2^256 mod p` (the Montgomery radix; also `one()`).
            pub(crate) const R: [u64; 4] = $crate::field::mont::compute_pow2_mod(&Self::MODULUS, 256);
            /// `2^512 mod p`.
            pub(crate) const R2: [u64; 4] = $crate::field::mont::compute_pow2_mod(&Self::MODULUS, 512);
            /// `2^768 mod p`.
            pub(crate) const R3: [u64; 4] = $crate::field::mont::compute_pow2_mod(&Self::MODULUS, 768);
            /// `p - 2` (inversion exponent).
            pub(crate) const MODULUS_MINUS_2: [u64; 4] =
                $crate::field::mont::sub_small(&Self::MODULUS, 2);

            /// The zero element (usable in const contexts).
            pub const ZERO: Self = Self([0, 0, 0, 0]);
            /// The one element (usable in const contexts).
            pub const ONE: Self = Self(Self::R);

            #[inline(always)]
            fn add_impl(&self, rhs: &Self) -> Self {
                use $crate::arith::adc;
                let (d0, c) = adc(self.0[0], rhs.0[0], 0);
                let (d1, c) = adc(self.0[1], rhs.0[1], c);
                let (d2, c) = adc(self.0[2], rhs.0[2], c);
                let (d3, _) = adc(self.0[3], rhs.0[3], c);
                Self($crate::field::mont::sub_p_if_ge(&[d0, d1, d2, d3], &Self::MODULUS))
            }

            #[inline(always)]
            fn sub_impl(&self, rhs: &Self) -> Self {
                use $crate::arith::{adc, sbb};
                let (d0, b) = sbb(self.0[0], rhs.0[0], 0);
                let (d1, b) = sbb(self.0[1], rhs.0[1], b);
                let (d2, b) = sbb(self.0[2], rhs.0[2], b);
                let (d3, b) = sbb(self.0[3], rhs.0[3], b);
                // Add p back if the subtraction underflowed.
                let mask = b; // 0 or u64::MAX
                let (d0, c) = adc(d0, Self::MODULUS[0] & mask, 0);
                let (d1, c) = adc(d1, Self::MODULUS[1] & mask, c);
                let (d2, c) = adc(d2, Self::MODULUS[2] & mask, c);
                let (d3, _) = adc(d3, Self::MODULUS[3] & mask, c);
                Self([d0, d1, d2, d3])
            }

            #[inline(always)]
            fn mul_impl(&self, rhs: &Self) -> Self {
                let wide = $crate::field::mont::mul_wide(&self.0, &rhs.0);
                Self($crate::field::mont::mont_reduce(
                    wide,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }

            /// Raises to a power given as little-endian limbs (const-capable).
            pub(crate) fn pow_vartime(&self, exp: &[u64]) -> Self {
                let mut res = Self::ONE;
                for e in exp.iter().rev() {
                    for i in (0..64).rev() {
                        res = res.mul_impl(&res);
                        if (*e >> i) & 1 == 1 {
                            res = res.mul_impl(self);
                        }
                    }
                }
                res
            }
        }

        impl $crate::field::Field for $name {
            #[inline]
            fn zero() -> Self {
                Self::ZERO
            }
            #[inline]
            fn one() -> Self {
                Self::ONE
            }
            #[inline]
            fn is_zero(&self) -> bool {
                self.0 == [0, 0, 0, 0]
            }
            #[inline]
            fn square(&self) -> Self {
                self.mul_impl(self)
            }
            #[inline]
            fn double(&self) -> Self {
                self.add_impl(self)
            }
            fn invert(&self) -> Option<Self> {
                if $crate::field::Field::is_zero(self) {
                    None
                } else {
                    Some(self.pow_vartime(&Self::MODULUS_MINUS_2))
                }
            }
            fn pow(&self, exp: &[u64]) -> Self {
                self.pow_vartime(exp)
            }
            fn random(rng: &mut impl rand::RngCore) -> Self {
                // Rejection sampling over the minimal bit width.
                let top_mask = if $num_bits % 64 == 0 {
                    u64::MAX
                } else {
                    (1u64 << ($num_bits % 64)) - 1
                };
                loop {
                    let mut limbs = [0u64; 4];
                    for l in limbs.iter_mut() {
                        *l = rng.next_u64();
                    }
                    limbs[3] &= top_mask;
                    if $crate::arith::lt(&limbs, &Self::MODULUS) {
                        // Convert to Montgomery form.
                        let wide = $crate::field::mont::mul_wide(&limbs, &Self::R2);
                        return Self($crate::field::mont::mont_reduce(
                            wide,
                            &Self::MODULUS,
                            Self::INV,
                        ));
                    }
                }
            }
        }

        impl $crate::field::PrimeField for $name {
            const MODULUS: [u64; 4] = $modulus;
            const NUM_BITS: u32 = $num_bits;
            const GENERATOR_U64: u64 = $generator;

            fn from_u64(v: u64) -> Self {
                let wide = $crate::field::mont::mul_wide(&[v, 0, 0, 0], &Self::R2);
                Self($crate::field::mont::mont_reduce(
                    wide,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }

            fn from_u128(v: u128) -> Self {
                let limbs = [v as u64, (v >> 64) as u64, 0, 0];
                let wide = $crate::field::mont::mul_wide(&limbs, &Self::R2);
                Self($crate::field::mont::mont_reduce(
                    wide,
                    &Self::MODULUS,
                    Self::INV,
                ))
            }

            fn from_i64(v: i64) -> Self {
                if v >= 0 {
                    Self::from_u64(v as u64)
                } else {
                    -Self::from_u64(v.unsigned_abs())
                }
            }

            fn from_i128(v: i128) -> Self {
                if v >= 0 {
                    Self::from_u128(v as u128)
                } else {
                    -Self::from_u128(v.unsigned_abs())
                }
            }

            fn to_canonical(&self) -> [u64; 4] {
                // Montgomery reduce [a, 0..0] to divide by R.
                let mut wide = [0u64; 8];
                wide[..4].copy_from_slice(&self.0);
                $crate::field::mont::mont_reduce(wide, &Self::MODULUS, Self::INV)
            }

            fn from_canonical(limbs: [u64; 4]) -> Option<Self> {
                if !$crate::arith::lt(&limbs, &Self::MODULUS) {
                    return None;
                }
                let wide = $crate::field::mont::mul_wide(&limbs, &Self::R2);
                Some(Self($crate::field::mont::mont_reduce(
                    wide,
                    &Self::MODULUS,
                    Self::INV,
                )))
            }

            fn to_bytes(&self) -> [u8; 32] {
                let limbs = self.to_canonical();
                let mut out = [0u8; 32];
                for (i, l) in limbs.iter().enumerate() {
                    out[i * 8..(i + 1) * 8].copy_from_slice(&l.to_le_bytes());
                }
                out
            }

            fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
                let mut limbs = [0u64; 4];
                for (i, l) in limbs.iter_mut().enumerate() {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
                    *l = u64::from_le_bytes(b);
                }
                Self::from_canonical(limbs)
            }

            fn from_u512(lo: [u64; 4], hi: [u64; 4]) -> Self {
                // lo*R2/R + hi*R3/R = (lo + hi*2^256)*R mod p.
                let a = $crate::field::mont::mont_reduce(
                    $crate::field::mont::mul_wide(&lo, &Self::R2),
                    &Self::MODULUS,
                    Self::INV,
                );
                let b = $crate::field::mont::mont_reduce(
                    $crate::field::mont::mul_wide(&hi, &Self::R3),
                    &Self::MODULUS,
                    Self::INV,
                );
                Self(a).add_impl(&Self(b))
            }

            fn to_signed_i128(&self) -> i128 {
                let c = self.to_canonical();
                let neg = (-*self).to_canonical();
                let small = |l: &[u64; 4]| l[2] == 0 && l[3] == 0 && l[1] >> 63 == 0;
                if small(&c) {
                    (c[0] as u128 | ((c[1] as u128) << 64)) as i128
                } else if small(&neg) {
                    -((neg[0] as u128 | ((neg[1] as u128) << 64)) as i128)
                } else if $crate::arith::lt(&neg, &c) {
                    i128::MIN
                } else {
                    i128::MAX
                }
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.0 == other.0
            }
        }
        impl Eq for $name {}

        impl std::hash::Hash for $name {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                self.0.hash(state)
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for $name {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                let a = $crate::field::PrimeField::to_canonical(self);
                let b = $crate::field::PrimeField::to_canonical(other);
                for i in (0..4).rev() {
                    match a[i].cmp(&b[i]) {
                        std::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                std::cmp::Ordering::Equal
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let c = $crate::field::PrimeField::to_canonical(self);
                write!(
                    f,
                    "0x{:016x}{:016x}{:016x}{:016x}",
                    c[3], c[2], c[1], c[0]
                )
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Debug::fmt(self, f)
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                self.add_impl(&rhs)
            }
        }
        impl std::ops::Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                self.sub_impl(&rhs)
            }
        }
        impl std::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                self.mul_impl(&rhs)
            }
        }
        impl std::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self::ZERO.sub_impl(&self)
            }
        }
        impl std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = self.add_impl(&rhs);
            }
        }
        impl std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = self.sub_impl(&rhs);
            }
        }
        impl std::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = self.mul_impl(&rhs);
            }
        }
        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }
        impl std::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ONE, |a, b| a * b)
            }
        }
        impl<'a> std::iter::Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + *b)
            }
        }
        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                <Self as $crate::field::PrimeField>::from_u64(v)
            }
        }
    };
}
pub(crate) use impl_prime_field;

/// Const helpers for Montgomery arithmetic, shared by the field macro.
pub(crate) mod mont {
    use crate::arith::{adc, lt, mac, sbb};

    /// Computes `-m0^{-1} mod 2^64` by Newton iteration.
    pub(crate) const fn compute_inv(m0: u64) -> u64 {
        // x_{k+1} = x_k (2 - m0 x_k) doubles correct low bits each step.
        let mut x = 1u64;
        let mut i = 0;
        while i < 6 {
            x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
            i += 1;
        }
        x.wrapping_neg()
    }

    /// Computes `a - small` for a small `u64` subtrahend (no full underflow).
    pub(crate) const fn sub_small(a: &[u64; 4], small: u64) -> [u64; 4] {
        let (d0, b) = sbb(a[0], small, 0);
        let (d1, b) = sbb(a[1], 0, b);
        let (d2, b) = sbb(a[2], 0, b);
        let (d3, _) = sbb(a[3], 0, b);
        [d0, d1, d2, d3]
    }

    /// Subtracts `p` from `v` if `v >= p` (v known `< 2p`, no carry-out).
    pub(crate) const fn sub_p_if_ge(v: &[u64; 4], p: &[u64; 4]) -> [u64; 4] {
        if lt(v, p) {
            *v
        } else {
            let (d0, b) = sbb(v[0], p[0], 0);
            let (d1, b) = sbb(v[1], p[1], b);
            let (d2, b) = sbb(v[2], p[2], b);
            let (d3, _) = sbb(v[3], p[3], b);
            [d0, d1, d2, d3]
        }
    }

    /// Computes `2^bits mod p` by repeated doubling (const-capable).
    pub(crate) const fn compute_pow2_mod(p: &[u64; 4], bits: u32) -> [u64; 4] {
        let mut v = [1u64, 0, 0, 0];
        let mut i = 0;
        while i < bits {
            // Double; p < 2^255 so no overflow of the 256-bit container as
            // long as v < p.
            let (d0, c) = adc(v[0], v[0], 0);
            let (d1, c) = adc(v[1], v[1], c);
            let (d2, c) = adc(v[2], v[2], c);
            let (d3, _) = adc(v[3], v[3], c);
            v = sub_p_if_ge(&[d0, d1, d2, d3], p);
            i += 1;
        }
        v
    }

    /// Full 256x256 -> 512-bit schoolbook multiplication.
    #[inline(always)]
    pub(crate) const fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
        let (t0, carry) = mac(0, a[0], b[0], 0);
        let (t1, carry) = mac(0, a[0], b[1], carry);
        let (t2, carry) = mac(0, a[0], b[2], carry);
        let (t3, t4) = mac(0, a[0], b[3], carry);

        let (t1, carry) = mac(t1, a[1], b[0], 0);
        let (t2, carry) = mac(t2, a[1], b[1], carry);
        let (t3, carry) = mac(t3, a[1], b[2], carry);
        let (t4, t5) = mac(t4, a[1], b[3], carry);

        let (t2, carry) = mac(t2, a[2], b[0], 0);
        let (t3, carry) = mac(t3, a[2], b[1], carry);
        let (t4, carry) = mac(t4, a[2], b[2], carry);
        let (t5, t6) = mac(t5, a[2], b[3], carry);

        let (t3, carry) = mac(t3, a[3], b[0], 0);
        let (t4, carry) = mac(t4, a[3], b[1], carry);
        let (t5, carry) = mac(t5, a[3], b[2], carry);
        let (t6, t7) = mac(t6, a[3], b[3], carry);

        [t0, t1, t2, t3, t4, t5, t6, t7]
    }

    /// Montgomery reduction of a 512-bit value: returns `t / 2^256 mod p`.
    #[inline(always)]
    pub(crate) const fn mont_reduce(t: [u64; 8], m: &[u64; 4], inv: u64) -> [u64; 4] {
        let [r0, r1, r2, r3, r4, r5, r6, r7] = t;

        let k = r0.wrapping_mul(inv);
        let (_, carry) = mac(r0, k, m[0], 0);
        let (r1, carry) = mac(r1, k, m[1], carry);
        let (r2, carry) = mac(r2, k, m[2], carry);
        let (r3, carry) = mac(r3, k, m[3], carry);
        let (r4, carry2) = adc(r4, 0, carry);

        let k = r1.wrapping_mul(inv);
        let (_, carry) = mac(r1, k, m[0], 0);
        let (r2, carry) = mac(r2, k, m[1], carry);
        let (r3, carry) = mac(r3, k, m[2], carry);
        let (r4, carry) = mac(r4, k, m[3], carry);
        let (r5, carry2) = adc(r5, carry2, carry);

        let k = r2.wrapping_mul(inv);
        let (_, carry) = mac(r2, k, m[0], 0);
        let (r3, carry) = mac(r3, k, m[1], carry);
        let (r4, carry) = mac(r4, k, m[2], carry);
        let (r5, carry) = mac(r5, k, m[3], carry);
        let (r6, carry2) = adc(r6, carry2, carry);

        let k = r3.wrapping_mul(inv);
        let (_, carry) = mac(r3, k, m[0], 0);
        let (r4, carry) = mac(r4, k, m[1], carry);
        let (r5, carry) = mac(r5, k, m[2], carry);
        let (r6, carry) = mac(r6, k, m[3], carry);
        let (r7, _) = adc(r7, carry2, carry);

        sub_p_if_ge(&[r4, r5, r6, r7], m)
    }
}
