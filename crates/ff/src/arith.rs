//! Low-level 64-bit limb arithmetic helpers.
//!
//! These follow the conventions of the `ff`/`bls12_381` crates: carries are
//! plain `u64` values, borrows are encoded in the top bit of the borrow word
//! (so `u64::MAX` means "borrow pending").

/// Computes `a + b + carry`, returning the result and the new carry.
#[inline(always)]
pub(crate) const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let ret = (a as u128) + (b as u128) + (carry as u128);
    (ret as u64, (ret >> 64) as u64)
}

/// Computes `a - (b + borrow)`, returning the result and the new borrow.
///
/// The incoming borrow is interpreted through its top bit, and the outgoing
/// borrow is `u64::MAX` when the subtraction underflowed, `0` otherwise.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let ret = (a as u128).wrapping_sub((b as u128) + ((borrow >> 63) as u128));
    (ret as u64, (ret >> 64) as u64)
}

/// Computes `a + b * c + carry`, returning the result and the new carry.
#[inline(always)]
pub(crate) const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let ret = (a as u128) + ((b as u128) * (c as u128)) + (carry as u128);
    (ret as u64, (ret >> 64) as u64)
}

/// Returns true if `a < b` (little-endian limbs).
pub const fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    let mut i = 3;
    loop {
        if a[i] < b[i] {
            return true;
        }
        if a[i] > b[i] {
            return false;
        }
        if i == 0 {
            return false;
        }
        i -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(adc(1, 2, 3), (6, 0));
    }

    #[test]
    fn sbb_borrows() {
        let (d, b) = sbb(0, 1, 0);
        assert_eq!(d, u64::MAX);
        assert_eq!(b, u64::MAX);
        let (d, b) = sbb(5, 3, 0);
        assert_eq!((d, b), (2, 0));
        // A pending borrow subtracts one more.
        let (d, b) = sbb(5, 3, u64::MAX);
        assert_eq!((d, b), (1, 0));
    }

    #[test]
    fn mac_wide() {
        let (lo, hi) = mac(1, u64::MAX, u64::MAX, 0);
        // (2^64-1)^2 + 1 = 2^128 - 2^65 + 2
        assert_eq!(lo, 2);
        assert_eq!(hi, u64::MAX - 1);
    }
}
