//! The BN254 scalar field `Fr`.
//!
//! `r = 21888242871839275222246405745257275088548364400416034343698204186575808495617`
//!
//! `r - 1 = 2^28 * t` with `t` odd, so `Fr` supports radix-2 FFTs up to size
//! `2^28` — exactly the ceiling of the Perpetual-Powers-of-Tau trusted setup
//! the paper uses.

use crate::field::impl_prime_field;
use crate::field::{FftField, Field, PrimeField};
use std::sync::OnceLock;

impl_prime_field!(
    pub struct Fr,
    modulus = [
        0x43e1f593f0000001,
        0x2833e84879b97091,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ],
    generator = 5,
    num_bits = 254,
    doc = "An element of the BN254 scalar field `Fr` (Montgomery form)."
);

impl FftField for Fr {
    const TWO_ADICITY: u32 = 28;

    fn multiplicative_generator() -> Self {
        Self::from_u64(Self::GENERATOR_U64)
    }

    fn root_of_unity() -> Self {
        static ROOT: OnceLock<Fr> = OnceLock::new();
        *ROOT.get_or_init(|| {
            // g^((r-1) / 2^28)
            let mut exp = crate::bigint::BigUint::from_limbs(&Fr::MODULUS);
            exp = exp.sub(&crate::bigint::BigUint::one());
            exp = exp.shr(Self::TWO_ADICITY as usize);
            Fr::multiplicative_generator().pow(exp.limbs())
        })
    }
}

impl Fr {
    /// The coset separator `delta = g^(2^TWO_ADICITY)` used by the
    /// permutation argument: the cosets `delta^i * H` for distinct small `i`
    /// are pairwise disjoint for every power-of-two subgroup `H`.
    pub fn delta() -> Self {
        static DELTA: OnceLock<Fr> = OnceLock::new();
        *DELTA.get_or_init(|| {
            let mut exp = crate::bigint::BigUint::one();
            exp = exp.shl(<Fr as FftField>::TWO_ADICITY as usize);
            Fr::multiplicative_generator().pow(exp.limbs())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn r_big() -> BigUint {
        BigUint::from_limbs(&Fr::MODULUS)
    }

    #[test]
    fn constants_are_consistent() {
        // R = 2^256 mod r equals one() by construction.
        assert_eq!(Fr::ONE.to_canonical(), [1, 0, 0, 0]);
        // INV * r[0] == -1 mod 2^64
        assert_eq!(Fr::INV.wrapping_mul(Fr::MODULUS[0]), u64::MAX);
        // R2 round trip: from_u64(1) must be ONE.
        assert_eq!(Fr::from_u64(1), Fr::ONE);
        assert_eq!(Fr::from_u64(0), Fr::ZERO);
    }

    #[test]
    fn small_integer_arithmetic() {
        let a = Fr::from_u64(1234567);
        let b = Fr::from_u64(7654321);
        assert_eq!(a + b, Fr::from_u64(1234567 + 7654321));
        assert_eq!(a * b, Fr::from_u128(1234567u128 * 7654321u128));
        assert_eq!(b - a, Fr::from_u64(7654321 - 1234567));
        assert_eq!(a - b, -(b - a));
        assert_eq!(a.double(), a + a);
        assert_eq!(a.square(), a * a);
    }

    #[test]
    fn signed_roundtrip() {
        for v in [0i64, 1, -1, 12345, -98765, i64::MAX, i64::MIN + 1] {
            assert_eq!(Fr::from_i64(v).to_signed_i128(), v as i128);
        }
        assert_eq!(
            Fr::from_i128(-(1i128 << 100)).to_signed_i128(),
            -(1i128 << 100)
        );
    }

    #[test]
    fn mul_matches_bigint_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        let r = r_big();
        for _ in 0..200 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            let prod = a * b;
            let ref_prod = BigUint::from_limbs(&a.to_canonical())
                .mul(&BigUint::from_limbs(&b.to_canonical()))
                .rem(&r);
            assert_eq!(prod.to_canonical(), ref_prod.to_fixed::<4>());
            let sum = a + b;
            let ref_sum = BigUint::from_limbs(&a.to_canonical())
                .add(&BigUint::from_limbs(&b.to_canonical()))
                .rem(&r);
            assert_eq!(sum.to_canonical(), ref_sum.to_fixed::<4>());
        }
    }

    #[test]
    fn inversion() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(Fr::ZERO.invert(), None);
        for _ in 0..20 {
            let a = Fr::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a * a.invert().unwrap(), Fr::ONE);
        }
    }

    #[test]
    fn batch_inversion_matches_single() {
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<Fr> = (0..33).map(|_| Fr::from_u64(rng.next_u64() | 1)).collect();
        let mut batched = vals.clone();
        crate::field::batch_invert(&mut batched);
        for (v, b) in vals.iter().zip(batched.iter()) {
            assert_eq!(v.invert().unwrap(), *b);
        }
    }

    #[test]
    fn two_adic_root_of_unity() {
        let w = Fr::root_of_unity();
        // w^(2^28) == 1 and w^(2^27) != 1.
        let mut x = w;
        for _ in 0..27 {
            x = x.square();
        }
        assert_ne!(x, Fr::ONE);
        assert_eq!(x.square(), Fr::ONE);
        // In fact w^(2^27) must be -1.
        assert_eq!(x, -Fr::ONE);
    }

    #[test]
    fn delta_has_odd_order_coset() {
        // delta is in the odd-order part: delta^(2^k) never hits 1 for any k
        // unless delta == 1; check delta != 1 and delta^t == 1 where
        // t = (r-1)/2^28.
        let d = Fr::delta();
        assert_ne!(d, Fr::ONE);
        let mut exp = r_big().sub(&BigUint::one());
        exp = exp.shr(28);
        assert_eq!(d.pow(exp.limbs()), Fr::ONE);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let a = Fr::random(&mut rng);
            assert_eq!(Fr::from_bytes(&a.to_bytes()), Some(a));
        }
        // The modulus itself must not decode.
        let mut bytes = [0u8; 32];
        for (i, l) in Fr::MODULUS.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&l.to_le_bytes());
        }
        assert_eq!(Fr::from_bytes(&bytes), None);
    }

    #[test]
    fn from_u512_is_uniform_reduction() {
        // lo + hi*2^256 mod r
        let lo = [5u64, 0, 0, 0];
        let hi = [3u64, 0, 0, 0];
        let expect = BigUint::from_u64(3)
            .shl(256)
            .add(&BigUint::from_u64(5))
            .rem(&r_big());
        assert_eq!(Fr::from_u512(lo, hi).to_canonical(), expect.to_fixed::<4>());
    }

    #[test]
    fn ordering_is_canonical() {
        assert!(Fr::from_u64(3) < Fr::from_u64(5));
        assert!(-Fr::ONE > Fr::from_u64(1_000_000));
    }
}
