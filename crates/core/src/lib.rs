//! ZKML: an optimizing compiler from ML model graphs to halo2-style
//! ZK-SNARK circuits — a from-scratch reproduction of the EuroSys '24 paper.
//!
//! The crate mirrors the paper's two components (§4):
//!
//! * **Gadgets** (`builder`): efficient single-row constraint patterns for
//!   ML operations — packed arithmetic, dot products with two accumulation
//!   strategies, lookup non-linearities, max, rounded variable division,
//!   bit-decomposition ReLU, and Freivalds-checked matrix multiplication
//!   using multi-phase challenges (`freivalds`).
//! * **Optimizer** (`optimizer`): generates logical layouts (gadget
//!   choices), searches each one's column range for the left edges of its
//!   `k` plateaus — the only column counts that can win — placing just
//!   the points that search needs row-exactly, and picks the cheapest
//!   layout under a hardware-calibrated cost model ([`cost`]) following
//!   Eq. (1)–(2) of the paper.
//!
//! Compilation is a three-stage pipeline:
//!
//! 1. **Schedule** (`schedule`, built by [`layers::lower_graph`]): the
//!    model is lowered **once** into an [`OpSchedule`] — the ordered,
//!    backend-independent gadget invocations, with no rows or columns
//!    chosen.
//! 2. **Placement** ([`compiler::place`]): per candidate configuration,
//!    the schedule's distinct op shapes (`shape`) are summed in closed
//!    form — each shape's structure registered once through a
//!    [`CircuitBuilder`], its rows and copies added times its count —
//!    producing a [`LayoutPlan`] (row count, statistics, constraint-system
//!    skeleton) without a witness. The optimizer sweeps plans in parallel.
//! 3. **Synthesis** ([`compiler::synthesize`]): the winning plan's
//!    configuration drives one replay of the ops through the builder's
//!    gadgets that assigns the witness; the result is cross-checked
//!    against the plan. Keys, proofs (KZG or IPA),
//!    and verification hang off the resulting [`CompiledCircuit`].

mod builder;
mod compiler;
mod config;
pub mod cost;
mod freivalds;
pub mod layers;
mod optimizer;
mod schedule;
mod segment;
mod shape;
mod tables;

pub use builder::{AValue, BuildError, CircuitBuilder, Gadget};
pub use compiler::{
    compile, compile_with, place, synthesize, CompiledCircuit, LayoutPlan, ZkmlError,
};
pub use config::{
    CircuitConfig, DotImpl, LayoutChoices, MatmulImpl, NumericConfig, Objective, ReluImpl,
};
pub use cost::HardwareStats;
pub use freivalds::freivalds_matmul;
pub use optimizer::{optimize, optimize_schedule, zero_inputs, OptimizerOptions, OptimizerReport};
pub use schedule::{schedules_built, OpSchedule, ScheduleBuilder};
pub use segment::{cut_schedule, eval_schedule, SegmentError, SegmentPlan};
pub use tables::{ActKey, TableFn};
