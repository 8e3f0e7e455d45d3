//! ML graph IR, reference executors, and the evaluation model zoo.
//!
//! The paper's pipeline starts from TFLite files; this crate plays that
//! role with a programmatic graph builder (same operator granularity as the
//! TFLite ops ZKML consumes), an f32 reference executor, and a fixed-point
//! executor whose semantics the circuit compiler reproduces bit-exactly.

mod exec;
mod graph;
mod op;
pub mod qops;
mod serialize;
pub mod stats;
pub mod zoo;

pub use exec::{execute_f32, execute_fixed};
pub use graph::{Graph, GraphBuilder, Node, TensorId, TensorKind};
pub use op::{conv_output_dim, Activation, Op, Padding};
pub use stats::stats;
