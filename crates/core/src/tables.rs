//! Lookup-table construction for pointwise non-linearities and range checks.

use crate::config::NumericConfig;
use zkml_model::{qops, Activation};

/// Identifies a lookup table function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TableFn {
    /// A pointwise activation.
    Act(ActKey),
    /// Scaled exponential (softmax numerator).
    Exp,
    /// Reciprocal square root (layer norm).
    Rsqrt,
    /// Square root.
    Sqrt,
}

impl TableFn {
    /// The ReLU table (the lookup ReLU implementation).
    pub(crate) fn relu() -> Self {
        TableFn::Act(ActKey::of(Activation::Relu))
    }
}

/// Hashable activation key (LeakyRelu's f32 slope is bit-cast).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ActKey(pub &'static str, pub u32);

impl ActKey {
    /// Builds a key from an activation.
    pub fn of(a: Activation) -> Self {
        match a {
            Activation::LeakyRelu(s) => ActKey("leaky_relu", s.to_bits()),
            other => ActKey(other.name_static(), 0),
        }
    }

    /// Recovers the activation.
    pub(crate) fn activation(&self) -> Activation {
        match self.0 {
            "relu" => Activation::Relu,
            "relu6" => Activation::Relu6,
            "leaky_relu" => Activation::LeakyRelu(f32::from_bits(self.1)),
            "elu" => Activation::Elu,
            "sigmoid" => Activation::Sigmoid,
            "tanh" => Activation::Tanh,
            "gelu" => Activation::Gelu,
            "silu" => Activation::Silu,
            other => panic!("unknown activation key {other}"),
        }
    }
}

/// Extension trait providing a `'static` name for activations.
pub(crate) trait ActName {
    /// The static name.
    fn name_static(&self) -> &'static str;
}

impl ActName for Activation {
    fn name_static(&self) -> &'static str {
        self.name()
    }
}

/// Evaluates a table function on a quantized input.
pub(crate) fn table_eval(f: TableFn, x: i64, scale: i64) -> i64 {
    match f {
        TableFn::Act(key) => qops::act_q(key.activation(), x, scale),
        TableFn::Exp => qops::exp_q(x, scale),
        TableFn::Rsqrt => qops::rsqrt_q(x, scale),
        TableFn::Sqrt => qops::sqrt_q(x, scale),
    }
}

/// Generates the (input, output) entries of a non-linearity table.
///
/// The domain is the signed range `[-2^(tb-1), 2^(tb-1))` where
/// `tb = numeric.table_bits()`; this is the coupling between fixed-point
/// precision and grid size described in §5.1.
pub(crate) fn nonlin_entries(f: TableFn, numeric: &NumericConfig) -> Vec<(i64, i64)> {
    let half = 1i64 << (numeric.table_bits() - 1);
    let scale = numeric.scale();
    (-half..half)
        .map(|x| (x, table_eval(f, x, scale)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_table_is_correct() {
        let numeric = NumericConfig {
            scale_bits: 4,
            clip_bits: 2,
        };
        let entries = nonlin_entries(TableFn::Act(ActKey::of(Activation::Relu)), &numeric);
        assert_eq!(entries.len(), 64);
        for (x, y) in entries {
            assert_eq!(y, x.max(0));
        }
    }

    #[test]
    fn exp_table_monotone() {
        let numeric = NumericConfig {
            scale_bits: 6,
            clip_bits: 3,
        };
        let entries = nonlin_entries(TableFn::Exp, &numeric);
        for w in entries.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        // exp(0) = 1.0 = SF.
        let zero = entries.iter().find(|(x, _)| *x == 0).unwrap();
        assert_eq!(zero.1, numeric.scale());
    }

    #[test]
    fn act_key_roundtrip() {
        for a in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::LeakyRelu(0.2),
            Activation::Gelu,
        ] {
            let k = ActKey::of(a);
            assert_eq!(k.activation(), a);
        }
    }
}
