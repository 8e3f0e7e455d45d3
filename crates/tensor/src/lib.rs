//! n-dimensional tensors and fixed-point quantization.
//!
//! The same generic container backs f32 reference tensors, quantized i64
//! tensors, and (in the `zkml` core crate) tensors of circuit cell
//! references — which is what makes the paper's "shape operations are free"
//! property (§5.1) fall out naturally: shape ops only rearrange references.

mod fixed;
pub mod shape;
mod tensor;

pub use fixed::{div_round, FixedPoint};
pub use tensor::Tensor;
