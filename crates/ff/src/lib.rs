//! Prime-field arithmetic for the ZKML reproduction.
//!
//! This crate provides the BN254 scalar field [`Fr`] and base field [`Fq`]
//! in 4-limb Montgomery form, a tiny arbitrary-precision integer type for
//! one-time setup math, and the [`Field`]/[`PrimeField`]/[`FftField`] traits
//! the rest of the workspace builds on.
//!
//! All Montgomery constants are derived from the modulus literal by `const fn`
//! (see `field::mont`), so only the two modulus literals are transcribed
//! from the curve specification; everything else is computed and then
//! cross-checked against a big-integer reference implementation in tests.

pub mod arith;
pub mod bigint;
mod field;
mod fq;
mod fr;

pub use field::{batch_invert, batch_invert_with_scratch, FftField, Field, PrimeField};
pub use fq::Fq;
pub use fr::Fr;

#[cfg(test)]
mod proptests {
    use crate::bigint::BigUint;
    use crate::{Field, Fr, PrimeField};
    use proptest::prelude::*;

    fn arb_fr() -> impl Strategy<Value = Fr> {
        any::<[u64; 4]>().prop_map(|l| Fr::from_u512(l, [0, 0, 0, 0]))
    }

    proptest! {
        #[test]
        fn add_commutes(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn mul_commutes(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a * b, b * a);
        }

        #[test]
        fn mul_distributes(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn sub_add_roundtrip(a in arb_fr(), b in arb_fr()) {
            prop_assert_eq!(a - b + b, a);
        }

        #[test]
        fn invert_is_inverse(a in arb_fr()) {
            if !a.is_zero() {
                prop_assert_eq!(a * a.invert().unwrap(), Fr::one());
            }
        }

        #[test]
        fn mul_matches_reference(a in arb_fr(), b in arb_fr()) {
            let r = BigUint::from_limbs(&Fr::MODULUS);
            let expect = BigUint::from_limbs(&a.to_canonical())
                .mul(&BigUint::from_limbs(&b.to_canonical()))
                .rem(&r);
            prop_assert_eq!((a * b).to_canonical(), expect.to_fixed::<4>());
        }

        #[test]
        fn pow_add_law(a in arb_fr(), e1 in 0u64..1000, e2 in 0u64..1000) {
            prop_assert_eq!(a.pow(&[e1]) * a.pow(&[e2]), a.pow(&[e1 + e2]));
        }

        #[test]
        fn bytes_roundtrip(a in arb_fr()) {
            prop_assert_eq!(Fr::from_bytes(&a.to_bytes()), Some(a));
        }
    }
}
