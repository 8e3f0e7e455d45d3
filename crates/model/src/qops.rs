//! Quantized scalar semantics shared by the fixed-point executor, the
//! circuit lookup-table builder, and witness generation.
//!
//! Having a single definition is what guarantees the circuit computes
//! *exactly* what the reference executor computes — the accuracy comparison
//! of Table 8 then measures pure quantization error.

use crate::op::Activation;

pub use zkml_tensor::div_round;

/// Quantized pointwise activation: `round(f(x / SF) * SF)`.
pub fn act_q(act: Activation, x: i64, scale: i64) -> i64 {
    let xf = x as f64 / scale as f64;
    (act.eval(xf as f32) as f64 * scale as f64).round() as i64
}

/// Quantized scaled exponential `round(exp(x/SF) * SF)` (the paper's
/// "scaled exponentiation", §5.1). Inputs are expected to be `<= 0` after
/// the softmax max-shift; large-magnitude negatives saturate to 0.
pub fn exp_q(x: i64, scale: i64) -> i64 {
    let xf = x as f64 / scale as f64;
    ((xf.exp()) * scale as f64).round() as i64
}

/// Quantized reciprocal square root `round(SF / sqrt(x / SF))`, with
/// non-positive inputs clamped to the smallest representable positive value.
pub fn rsqrt_q(x: i64, scale: i64) -> i64 {
    let xf = (x.max(1)) as f64 / scale as f64;
    (scale as f64 / xf.sqrt()).round() as i64
}

/// Quantized square root `round(sqrt(x / SF) * SF)` (non-positive -> 0).
pub fn sqrt_q(x: i64, scale: i64) -> i64 {
    if x <= 0 {
        return 0;
    }
    let xf = x as f64 / scale as f64;
    (xf.sqrt() * scale as f64).round() as i64
}

/// Rounded variable division `round(b * SF / a)` — the scaled-numerator
/// division used by the softmax (§6.1: "we scale the numerator by the scale
/// factor").
pub fn var_div_scaled(b: i64, a: i64, scale: i64) -> i64 {
    assert!(a > 0, "softmax denominator must be positive");
    div_round_i128(b as i128 * scale as i128, a as i128) as i64
}

/// Rounded division on i128 (round-half-up via euclidean floor, matching
/// the in-circuit `DivRound` relation), for scaled numerators.
pub(crate) fn div_round_i128(a: i128, b: i128) -> i128 {
    assert!(b > 0);
    (2 * a + b).div_euclid(2 * b)
}

/// Division by a quantized constant: `round(x / c)` where `c_q = round(c*SF)`.
pub(crate) fn div_const_q(x: i64, c_q: i64, scale: i64) -> i64 {
    assert!(c_q > 0, "divisor must be positive");
    div_round_i128(x as i128 * scale as i128, c_q as i128) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_q_matches_definition() {
        let sf = 256;
        assert_eq!(act_q(Activation::Relu, -100, sf), 0);
        assert_eq!(act_q(Activation::Relu, 300, sf), 300);
    }

    #[test]
    fn exp_q_saturates_for_large_negatives() {
        let sf = 1024;
        assert_eq!(exp_q(-100 * sf, sf), 0);
        assert_eq!(exp_q(0, sf), sf);
    }

    #[test]
    fn rsqrt_of_one_is_one() {
        let sf = 4096;
        assert_eq!(rsqrt_q(sf, sf), sf);
        // rsqrt(4) = 0.5.
        assert_eq!(rsqrt_q(4 * sf, sf), sf / 2);
    }

    #[test]
    fn var_div_scaled_basic() {
        let sf = 256;
        // b/a = 1/2 -> SF/2.
        assert_eq!(var_div_scaled(100, 200, sf), sf / 2);
        assert_eq!(var_div_scaled(200, 200, sf), sf);
    }

    #[test]
    fn div_const_symmetry() {
        let sf = 256;
        let c_q = 2 * sf; // dividing by 2.0
        assert_eq!(div_const_q(100, c_q, sf), 50);
        assert_eq!(div_const_q(-100, c_q, sf), -50);
    }
}
