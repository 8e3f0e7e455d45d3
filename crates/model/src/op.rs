//! The operator set.
//!
//! Mirrors the TFLite-level layers ZKML supports (§6, Table 3): shape
//! operations (free in-circuit), arithmetic layers, linear layers,
//! normalization/softmax, and pointwise non-linearities. Linear layers carry
//! an optional fused activation, matching the paper's observation that the
//! fixed-point rescale can be fused with a following non-linearity (§6.2).

/// Pointwise non-linearities (all lookup-table-backed in-circuit except
/// ReLU, which also has a bit-decomposition implementation for the
/// optimizer to choose from).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// min(max(0, x), 6)
    Relu6,
    /// x if x > 0 else alpha * x
    LeakyRelu(f32),
    /// x if x > 0 else exp(x) - 1
    Elu,
    /// 1 / (1 + exp(-x))
    Sigmoid,
    /// tanh(x)
    Tanh,
    /// Gaussian error linear unit (tanh approximation)
    Gelu,
    /// x * sigmoid(x)
    Silu,
}

impl Activation {
    /// Evaluates the activation in f32.
    pub(crate) fn eval(&self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::LeakyRelu(a) => {
                if x > 0.0 {
                    x
                } else {
                    a * x
                }
            }
            Activation::Elu => {
                if x > 0.0 {
                    x
                } else {
                    x.exp() - 1.0
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Gelu => {
                0.5 * x
                    * (1.0
                        + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044715 * x * x * x)).tanh())
            }
            Activation::Silu => x / (1.0 + (-x).exp()),
        }
    }

    /// A stable name (used as the lookup-table key in the compiler).
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Relu6 => "relu6",
            Activation::LeakyRelu(_) => "leaky_relu",
            Activation::Elu => "elu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Gelu => "gelu",
            Activation::Silu => "silu",
        }
    }
}

/// Spatial padding mode for convolutions and pooling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Padding {
    /// Output spatial size = ceil(input / stride); zero-pads symmetrically.
    Same,
    /// No padding.
    Valid,
}

/// A graph operator. One output per node; multi-output ops are expressed as
/// multiple `Slice` nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    // ---- Shape operations (free in-circuit: reference-only) -------------
    /// Reinterprets the shape.
    Reshape { shape: Vec<usize> },
    /// Permutes axes.
    Transpose { perm: Vec<usize> },
    /// Extracts a box `[starts, ends)`.
    Slice {
        starts: Vec<usize>,
        ends: Vec<usize>,
    },
    /// Concatenates all inputs along `axis`.
    Concat { axis: usize },
    /// Zero-pads.
    Pad { pads: Vec<(usize, usize)> },
    /// Removes a unit axis.
    Squeeze { axis: usize },
    /// Inserts a unit axis.
    ExpandDims { axis: usize },
    /// Collapses to `[batch, -1]`.
    Flatten,
    /// Broadcasts to a shape.
    BroadcastTo { shape: Vec<usize> },
    /// Nearest-neighbour 2x spatial upsampling (NHWC); reference-only.
    Upsample2x,

    // ---- Arithmetic layers ----------------------------------------------
    /// Elementwise addition (broadcasting).
    Add,
    /// Elementwise subtraction (broadcasting).
    Sub,
    /// Elementwise multiplication (broadcasting, rescaled).
    Mul,
    /// Division by a compile-time constant.
    DivConst { divisor: f32 },
    /// Elementwise square (rescaled).
    Square,
    /// Elementwise squared difference (broadcasting, rescaled).
    SquaredDifference,
    /// Reduction sum along one axis.
    Sum { axis: usize, keep_dims: bool },
    /// Reduction mean along one axis.
    Mean { axis: usize, keep_dims: bool },

    // ---- Linear layers -----------------------------------------------------
    /// `x @ w + b` with optional fused activation. Inputs: x, w, (b).
    /// x: `[..., K]`, w: `[K, N]`, b: `[N]`.
    FullyConnected { activation: Option<Activation> },
    /// 2D convolution (NHWC, weights [KH, KW, Cin, Cout]). Inputs: x, w, (b).
    Conv2D {
        stride: (usize, usize),
        padding: Padding,
        activation: Option<Activation>,
    },
    /// Depthwise 2D convolution (weights [KH, KW, C, 1]). Inputs: x, w, (b).
    DepthwiseConv2D {
        stride: (usize, usize),
        padding: Padding,
        activation: Option<Activation>,
    },
    /// Batched matrix multiply: [..., M, K] x [..., K, N].
    BatchMatMul,
    /// Average pooling (NHWC).
    AvgPool2D {
        ksize: (usize, usize),
        stride: (usize, usize),
    },
    /// Max pooling (NHWC).
    MaxPool2D {
        ksize: (usize, usize),
        stride: (usize, usize),
    },
    /// Global average pooling over H and W (NHWC).
    GlobalAvgPool,

    // ---- Normalization and softmax ------------------------------------------
    /// Softmax over the last axis (max-shifted, scaled-numerator division).
    Softmax,
    /// Layer normalization over the last axis. Inputs: x, gamma, beta.
    LayerNorm { eps: f32 },
    /// Folded batch normalization: per-channel affine. Inputs: x, scale, offset.
    BatchNorm,

    // ---- Pointwise non-linearities --------------------------------------------
    /// A standalone activation layer.
    Act(Activation),
    /// 1/sqrt(x) (lookup).
    Rsqrt,
    /// sqrt(x) (lookup).
    Sqrt,
    /// exp(x) (lookup).
    Exp,
}

impl Op {
    /// True for operations that are free in-circuit (pure reference
    /// rearrangement, §5.1 of the paper).
    pub(crate) fn is_shape_op(&self) -> bool {
        matches!(
            self,
            Op::Reshape { .. }
                | Op::Transpose { .. }
                | Op::Slice { .. }
                | Op::Concat { .. }
                | Op::Pad { .. }
                | Op::Squeeze { .. }
                | Op::ExpandDims { .. }
                | Op::Flatten
                | Op::BroadcastTo { .. }
                | Op::Upsample2x
        )
    }

    /// A short name for diagnostics and layout tables.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Reshape { .. } => "Reshape",
            Op::Transpose { .. } => "Transpose",
            Op::Slice { .. } => "Slice",
            Op::Concat { .. } => "Concat",
            Op::Pad { .. } => "Pad",
            Op::Squeeze { .. } => "Squeeze",
            Op::ExpandDims { .. } => "ExpandDims",
            Op::Flatten => "Flatten",
            Op::BroadcastTo { .. } => "BroadcastTo",
            Op::Upsample2x => "Upsample2x",
            Op::Add => "Add",
            Op::Sub => "Sub",
            Op::Mul => "Mul",
            Op::DivConst { .. } => "DivConst",
            Op::Square => "Square",
            Op::SquaredDifference => "SquaredDifference",
            Op::Sum { .. } => "Sum",
            Op::Mean { .. } => "Mean",
            Op::FullyConnected { .. } => "FullyConnected",
            Op::Conv2D { .. } => "Conv2D",
            Op::DepthwiseConv2D { .. } => "DepthwiseConv2D",
            Op::BatchMatMul => "BatchMatMul",
            Op::AvgPool2D { .. } => "AvgPool2D",
            Op::MaxPool2D { .. } => "MaxPool2D",
            Op::GlobalAvgPool => "GlobalAvgPool",
            Op::Softmax => "Softmax",
            Op::LayerNorm { .. } => "LayerNorm",
            Op::BatchNorm => "BatchNorm",
            Op::Act(a) => a.name(),
            Op::Rsqrt => "Rsqrt",
            Op::Sqrt => "Sqrt",
            Op::Exp => "Exp",
        }
    }
}

/// Computes conv/pool output spatial size and padding amounts.
pub fn conv_output_dim(
    input: usize,
    k: usize,
    stride: usize,
    padding: Padding,
) -> (usize, usize, usize) {
    match padding {
        Padding::Valid => ((input - k) / stride + 1, 0, 0),
        Padding::Same => {
            let out = input.div_ceil(stride);
            let total_pad = ((out - 1) * stride + k).saturating_sub(input);
            let before = total_pad / 2;
            (out, before, total_pad - before)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_values() {
        assert_eq!(Activation::Relu.eval(-3.0), 0.0);
        assert_eq!(Activation::Relu.eval(2.5), 2.5);
        assert_eq!(Activation::Relu6.eval(9.0), 6.0);
        assert!((Activation::Sigmoid.eval(0.0) - 0.5).abs() < 1e-6);
        assert!(Activation::Tanh.eval(100.0) <= 1.0);
        assert!((Activation::Silu.eval(0.0)).abs() < 1e-6);
        assert!((Activation::Gelu.eval(0.0)).abs() < 1e-6);
        assert!((Activation::LeakyRelu(0.1).eval(-10.0) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn conv_dims() {
        // 8 wide, k=3, stride 1, valid -> 6.
        assert_eq!(conv_output_dim(8, 3, 1, Padding::Valid), (6, 0, 0));
        // same padding keeps size at stride 1.
        let (out, b, a) = conv_output_dim(8, 3, 1, Padding::Same);
        assert_eq!(out, 8);
        assert_eq!(b + a, 2);
        // stride 2 halves (ceil).
        assert_eq!(conv_output_dim(9, 3, 2, Padding::Same).0, 5);
    }

    #[test]
    fn shape_ops_flagged_free() {
        assert!(Op::Flatten.is_shape_op());
        assert!(Op::Upsample2x.is_shape_op());
        assert!(!Op::Add.is_shape_op());
        assert!(!Op::Softmax.is_shape_op());
    }
}
