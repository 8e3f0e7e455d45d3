//! The BN254 base field `Fq`.
//!
//! `q = 21888242871839275222246405745257275088696311157297823662689037894645226208583`
//!
//! `q ≡ 3 (mod 4)`, so square roots are computed as `x^((q+1)/4)`.

use crate::field::impl_prime_field;
use crate::field::{Field, PrimeField};
use std::sync::OnceLock;

impl_prime_field!(
    pub struct Fq,
    modulus = [
        0x3c208c16d87cfd47,
        0x97816a916871ca8d,
        0xb85045b68181585d,
        0x30644e72e131a029,
    ],
    generator = 3,
    num_bits = 254,
    doc = "An element of the BN254 base field `Fq` (Montgomery form)."
);

impl Fq {
    /// Computes a square root if one exists (`q ≡ 3 mod 4`).
    pub fn sqrt(&self) -> Option<Self> {
        static EXP: OnceLock<[u64; 4]> = OnceLock::new();
        let exp = EXP.get_or_init(|| {
            // (q + 1) / 4
            crate::bigint::BigUint::from_limbs(&Fq::MODULUS)
                .add(&crate::bigint::BigUint::one())
                .shr(2)
                .to_fixed::<4>()
        });
        let cand = self.pow_vartime(exp);
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn q_is_3_mod_4() {
        assert_eq!(Fq::MODULUS[0] % 4, 3);
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = Fq::random(&mut rng);
            let sq = a.square();
            let root = sq.sqrt().expect("square must have a root");
            assert!(root == a || root == -a);
        }
    }

    #[test]
    fn non_residues_have_no_root() {
        // 3 generates the multiplicative group, so it is a non-residue
        // (since (q-1)/2 is odd times...); verify via Euler's criterion
        // directly instead of assuming.
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen_nonresidue = false;
        for _ in 0..20 {
            let a = Fq::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            let has_root = a.sqrt().is_some();
            if !has_root {
                seen_nonresidue = true;
            }
            // Euler criterion: a^((q-1)/2) == 1 iff QR.
            let exp = crate::bigint::BigUint::from_limbs(&Fq::MODULUS)
                .sub(&crate::bigint::BigUint::one())
                .shr(1);
            let euler = a.pow(exp.limbs());
            assert_eq!(euler == Fq::ONE, has_root);
        }
        assert!(seen_nonresidue, "expected some non-residues in 20 samples");
    }

    #[test]
    fn field_axioms_spot_checks() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let a = Fq::random(&mut rng);
            let b = Fq::random(&mut rng);
            let c = Fq::random(&mut rng);
            assert_eq!((a + b) + c, a + (b + c));
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a + (-a), Fq::ZERO);
        }
    }
}
