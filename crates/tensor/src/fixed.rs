//! Fixed-point quantization.
//!
//! ZKML represents every tensor value as a fixed-point integer with a
//! global, compiler-chosen scale factor `SF = 2^scale_bits` (§4.1). The
//! choice of `SF` couples to the circuit: pointwise non-linearities are
//! lookup tables over the input range, so larger scale factors force larger
//! tables and therefore more rows (§5.1) — one of the tradeoffs the
//! optimizer navigates.

use crate::tensor::Tensor;

/// Fixed-point format: values are stored as `round(x * 2^scale_bits)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedPoint {
    /// log2 of the scale factor.
    pub scale_bits: u32,
}

impl FixedPoint {
    /// Creates a format with the given fractional bits.
    pub fn new(scale_bits: u32) -> Self {
        assert!(scale_bits <= 30, "scale factor too large for i64 products");
        Self { scale_bits }
    }

    /// The scale factor `2^scale_bits`.
    pub fn scale(&self) -> i64 {
        1i64 << self.scale_bits
    }

    /// Quantizes a single value (round to nearest, ties away from zero).
    pub fn quantize(&self, x: f32) -> i64 {
        let v = (x as f64) * self.scale() as f64;
        v.round() as i64
    }

    /// Dequantizes a single value.
    pub fn dequantize(&self, q: i64) -> f32 {
        (q as f64 / self.scale() as f64) as f32
    }

    /// Quantizes a tensor.
    pub fn quantize_tensor(&self, t: &Tensor<f32>) -> Tensor<i64> {
        t.map(|x| self.quantize(*x))
    }

    /// Dequantizes a tensor.
    pub fn dequantize_tensor(&self, t: &Tensor<i64>) -> Tensor<f32> {
        t.map(|q| self.dequantize(*q))
    }
}

/// Rounded integer division `round(a / b)` with the paper's `DivRound`
/// gadget semantics: `floor((2a + b) / 2b)` — round-half-up, uniformly for
/// negative numerators (euclidean floor). This is exactly the relation the
/// in-circuit constraint `2a + b = 2b*q + r, r in [0, 2b)` enforces, so the
/// reference executor and the witness agree bit-for-bit.
pub fn div_round(a: i64, b: i64) -> i64 {
    assert!(b > 0, "div_round requires positive divisor");
    (2 * a + b).div_euclid(2 * b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_is_close() {
        let fp = FixedPoint::new(10);
        for x in [-3.25f32, 0.0, 0.001, 1.5, 100.125, -0.4999] {
            let q = fp.quantize(x);
            let back = fp.dequantize(q);
            assert!((back - x).abs() <= 1.0 / fp.scale() as f32, "{x} -> {back}");
        }
    }

    #[test]
    fn div_round_matches_float_half_up() {
        for a in -100i64..=100 {
            for b in [1i64, 2, 3, 7, 16] {
                // Round-half-up: floor(a/b + 1/2).
                let expect = ((a as f64 / b as f64) + 0.5).floor() as i64;
                let got = div_round(a, b);
                assert_eq!(got, expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn rescale_after_product() {
        let fp = FixedPoint::new(8);
        let a = fp.quantize(1.5);
        let b = fp.quantize(2.25);
        // `DivRound(x, SF)` from Table 4 of the paper.
        let prod = div_round(a * b, fp.scale());
        assert!((fp.dequantize(prod) - 3.375).abs() < 0.01);
    }

    #[test]
    fn tensor_quantization() {
        let fp = FixedPoint::new(4);
        let t = Tensor::from_vec(vec![0.5f32, -0.25, 2.0]);
        let q = fp.quantize_tensor(&t);
        assert_eq!(q.data(), &[8, -4, 32]);
        let d = fp.dequantize_tensor(&q);
        assert_eq!(d.data(), &[0.5, -0.25, 2.0]);
    }
}
