//! The backend-independent operation schedule: stage 1 of the compile
//! pipeline.
//!
//! `lower_graph` walks a model **once** and records every gadget invocation
//! as a `SchedOp` over abstract value ids — no rows, columns, or
//! constraint-system structure are chosen here. Because layout-sensitive
//! decisions (dot chunking, pack widths, ReLU/matmul implementation) are
//! made per configuration, one schedule serves every candidate the
//! optimizer sweeps, two ways:
//!
//! * placement reads only the schedule's histogram of op shapes (see
//!   [`crate::shape`]), built once when the schedule is sealed, to produce
//!   a [`crate::compiler::LayoutPlan`] row-exactly;
//! * synthesis *replays* the ops against a [`CircuitBuilder`] by
//!   `run_schedule` (crate-private) to assign the witness.
//!
//! Scheduling has no value-dependent control flow: ops record operand
//! *ids* plus the raw data of `Load`/`Const` ops, and replay recomputes
//! every intermediate value through the gadgets themselves. A schedule
//! built from real inputs therefore yields identical layouts to one built
//! from zeros, while remaining directly synthesizable into a proof.

use crate::builder::{AValue, BuildError, CircuitBuilder, Gadget};
use crate::config::NumericConfig;
use crate::shape::ShapeKey;
use crate::tables::TableFn;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use zkml_tensor::Tensor;

/// An abstract scheduled value: an index into the schedule's value space.
///
/// The id is resolved to a concrete grid cell only when the schedule is
/// replayed against a builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SVal(pub(crate) u32);

/// One recorded gadget invocation.
///
/// Variants are semantic, not physical: `MatMul`, `Relu`, `Arith` and
/// `Dot` each cover every implementation choice in
/// [`crate::config::LayoutChoices`], because all implementations of a
/// gadget produce identical output *values* (only rows/columns differ).
#[derive(Clone, Debug)]
pub(crate) enum SchedOp {
    /// Raw values into home cells (inputs, Freivalds products).
    Load { values: Vec<i64> },
    /// Model weights into home cells of the committed column plane.
    LoadWeights { values: Vec<i64> },
    /// A pinned constant.
    Const { v: i64 },
    /// Dot product with optional accumulator init.
    Dot {
        xs: Vec<u32>,
        ys: Vec<u32>,
        init: Option<u32>,
    },
    /// Tree sum of a value list.
    Sum { xs: Vec<u32> },
    /// Packed binary arithmetic (`AddPack`/`SubPack`/`MulPack`/`SqDiffPack`).
    Arith {
        kind: Gadget,
        pairs: Vec<(u32, u32)>,
    },
    /// Packed squaring.
    Square { xs: Vec<u32> },
    /// Fixed-point rescale (DivRound by the scale factor).
    Rescale { xs: Vec<u32> },
    /// Pointwise non-linearity lookup.
    Nonlin { f: TableFn, xs: Vec<u32> },
    /// ReLU under whichever implementation the config selects.
    Relu { xs: Vec<u32> },
    /// Packed pairwise maximum (one max-tree level).
    MaxPairs { pairs: Vec<(u32, u32)> },
    /// Rounded variable division.
    VarDiv {
        nums: Vec<u32>,
        den: u32,
        den_bound: i64,
    },
    /// Matrix multiply `x (rows x k) @ w (k x t)` at double scale, with an
    /// optional double-scale bias; resolved to Freivalds or direct dots at
    /// replay time.
    MatMul {
        x: Vec<u32>,
        w: Vec<u32>,
        dims: (usize, usize, usize),
        bias2: Option<Vec<u32>>,
    },
}

impl SchedOp {
    /// Number of value ids the op produces.
    pub(crate) fn arity_out(&self) -> usize {
        match self {
            SchedOp::Load { values } | SchedOp::LoadWeights { values } => values.len(),
            SchedOp::Const { .. } | SchedOp::Dot { .. } | SchedOp::Sum { .. } => 1,
            SchedOp::Arith { pairs, .. } | SchedOp::MaxPairs { pairs } => pairs.len(),
            SchedOp::Square { xs }
            | SchedOp::Rescale { xs }
            | SchedOp::Nonlin { xs, .. }
            | SchedOp::Relu { xs } => xs.len(),
            SchedOp::VarDiv { nums, .. } => nums.len(),
            SchedOp::MatMul { dims, .. } => dims.0 * dims.2,
        }
    }
}

/// The ordered gadget invocations for one model at one numeric
/// configuration — stage 1's output, built once; every candidate layout
/// is placed from its shape histogram and the winner synthesized from its
/// ops.
#[derive(Clone, Debug)]
pub struct OpSchedule {
    /// The fixed-point configuration the schedule's constants and
    /// quantized weights were produced under. Placement and synthesis
    /// refuse configurations with a different numeric config.
    pub numeric: NumericConfig,
    pub(crate) ops: Vec<SchedOp>,
    pub(crate) num_vals: usize,
    /// Model outputs: (shape, value ids) per output tensor.
    pub(crate) outputs: Vec<(Vec<usize>, Vec<u32>)>,
    /// Each distinct op shape and how many ops have it, in order of first
    /// occurrence — all that placement reads of the ops.
    pub(crate) shapes: Vec<(ShapeKey, usize)>,
}

impl OpSchedule {
    /// Seals a schedule, building its shape histogram (the only place one
    /// is built: ops never change after this).
    pub(crate) fn new(
        numeric: NumericConfig,
        ops: Vec<SchedOp>,
        num_vals: usize,
        outputs: Vec<(Vec<usize>, Vec<u32>)>,
    ) -> Self {
        let mut index: HashMap<ShapeKey, usize> = HashMap::new();
        let mut shapes: Vec<(ShapeKey, usize)> = Vec::new();
        for op in &ops {
            let key = ShapeKey::of(op);
            let i = *index.entry(key).or_insert_with(|| {
                shapes.push((key, 0));
                shapes.len() - 1
            });
            shapes[i].1 += 1;
        }
        Self {
            numeric,
            ops,
            num_vals,
            outputs,
            shapes,
        }
    }

    /// Number of distinct op shapes: the units a placement is summed over.
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Number of recorded gadget invocations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of compute ops — everything except `Load`/`Const`, which
    /// carry raw data and are rematerialized (not threaded) across segment
    /// boundaries. Segmentation partitions exactly these.
    pub fn num_compute_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|o| {
                !matches!(
                    o,
                    SchedOp::Load { .. } | SchedOp::LoadWeights { .. } | SchedOp::Const { .. }
                )
            })
            .count()
    }

    /// Model outputs as `(shape, value ids)` per output tensor (read-only
    /// view for tests and segmentation tooling).
    pub fn outputs(&self) -> &[(Vec<usize>, Vec<u32>)] {
        &self.outputs
    }
}

/// Process-wide count of schedules built (i.e. `lower_graph` executions).
///
/// Test instrumentation for the pipeline's central invariant: the
/// optimizer lowers a model exactly once regardless of how many candidate
/// layouts it sweeps.
static SCHEDULES_BUILT: AtomicUsize = AtomicUsize::new(0);

/// Reads the schedule-build counter (see `SCHEDULES_BUILT`).
pub fn schedules_built() -> usize {
    SCHEDULES_BUILT.load(Ordering::SeqCst)
}

/// Records one gadget invocation at a time, handing out value ids.
///
/// Mirrors the [`CircuitBuilder`] gadget API shape-for-shape so the graph
/// lowering in [`crate::layers`] reads the same as direct circuit
/// construction, but performs no layout work.
pub struct ScheduleBuilder {
    numeric: NumericConfig,
    ops: Vec<SchedOp>,
    next: u32,
    consts: std::collections::HashMap<i64, SVal>,
}

impl ScheduleBuilder {
    /// Creates an empty schedule under a numeric configuration.
    pub fn new(numeric: NumericConfig) -> Self {
        SCHEDULES_BUILT.fetch_add(1, Ordering::SeqCst);
        Self {
            numeric,
            ops: Vec::new(),
            next: 0,
            consts: std::collections::HashMap::new(),
        }
    }

    /// The fixed-point scale factor.
    pub(crate) fn scale(&self) -> i64 {
        self.numeric.scale()
    }

    fn alloc(&mut self, n: usize) -> Vec<SVal> {
        let start = self.next;
        self.next += n as u32;
        (start..self.next).map(SVal).collect()
    }

    fn push(&mut self, op: SchedOp) -> Vec<SVal> {
        let out = self.alloc(op.arity_out());
        self.ops.push(op);
        out
    }

    /// Loads raw values into home cells.
    pub fn load_values(&mut self, values: &[i64]) -> Vec<SVal> {
        self.push(SchedOp::Load {
            values: values.to_vec(),
        })
    }

    /// Loads model weights into home cells of the committed column plane
    /// (the CP-SNARK weight class — committed once per model, not per
    /// proof).
    pub fn load_weights(&mut self, values: &[i64]) -> Vec<SVal> {
        self.push(SchedOp::LoadWeights {
            values: values.to_vec(),
        })
    }

    /// Returns a pinned constant (deduplicated, like the builder's
    /// constant column).
    pub(crate) fn constant(&mut self, v: i64) -> SVal {
        if let Some(&s) = self.consts.get(&v) {
            return s;
        }
        let s = self.push(SchedOp::Const { v })[0];
        self.consts.insert(v, s);
        s
    }

    /// Dot product `sum x_i y_i (+ init)`.
    pub fn dot(&mut self, xs: &[SVal], ys: &[SVal], init: Option<SVal>) -> SVal {
        assert_eq!(xs.len(), ys.len(), "dot operand length mismatch");
        self.push(SchedOp::Dot {
            xs: ids(xs),
            ys: ids(ys),
            init: init.map(|s| s.0),
        })[0]
    }

    /// Sum of a value list.
    pub fn sum(&mut self, xs: &[SVal]) -> SVal {
        self.push(SchedOp::Sum { xs: ids(xs) })[0]
    }

    /// Packed binary arithmetic over pairs.
    pub fn arith_pack(&mut self, kind: Gadget, pairs: &[(SVal, SVal)]) -> Vec<SVal> {
        self.push(SchedOp::Arith {
            kind,
            pairs: pair_ids(pairs),
        })
    }

    /// Packed squaring.
    pub(crate) fn square_pack(&mut self, xs: &[SVal]) -> Vec<SVal> {
        self.push(SchedOp::Square { xs: ids(xs) })
    }

    /// Rescale double-scale values back to single scale.
    pub fn rescale(&mut self, xs: &[SVal]) -> Vec<SVal> {
        self.push(SchedOp::Rescale { xs: ids(xs) })
    }

    /// Pointwise non-linearity lookup.
    pub(crate) fn nonlin(&mut self, f: TableFn, xs: &[SVal]) -> Vec<SVal> {
        self.push(SchedOp::Nonlin { f, xs: ids(xs) })
    }

    /// ReLU (implementation chosen at replay time).
    pub fn relu(&mut self, xs: &[SVal]) -> Vec<SVal> {
        self.push(SchedOp::Relu { xs: ids(xs) })
    }

    /// Packed pairwise maximum.
    pub(crate) fn max_pairs(&mut self, pairs: &[(SVal, SVal)]) -> Vec<SVal> {
        self.push(SchedOp::MaxPairs {
            pairs: pair_ids(pairs),
        })
    }

    /// Maximum of a list; the tree expansion is configuration-independent,
    /// so it happens at schedule time (mirroring the builder's `max_tree`).
    pub fn max_tree(&mut self, xs: &[SVal]) -> SVal {
        assert!(!xs.is_empty(), "max of nothing");
        let mut level = xs.to_vec();
        while level.len() > 1 {
            let mut pairs = Vec::new();
            let mut carry = None;
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    pairs.push((pair[0], pair[1]));
                } else {
                    carry = Some(pair[0]);
                }
            }
            let mut next = self.max_pairs(&pairs);
            if let Some(c) = carry {
                next.push(c);
            }
            level = next;
        }
        level[0]
    }

    /// Rounded variable division with scaled numerators.
    pub(crate) fn var_div(&mut self, nums: &[SVal], den: SVal, den_bound: i64) -> Vec<SVal> {
        self.push(SchedOp::VarDiv {
            nums: ids(nums),
            den: den.0,
            den_bound,
        })
    }

    /// Matrix multiply producing raw (double-scale) outputs; the
    /// implementation (Freivalds vs. direct) is resolved at replay time.
    pub(crate) fn matmul_raw(
        &mut self,
        x: &[SVal],
        w: &[SVal],
        rows: usize,
        k: usize,
        t: usize,
        bias2: Option<&[SVal]>,
    ) -> Vec<SVal> {
        assert_eq!(x.len(), rows * k, "matmul lhs shape");
        assert_eq!(w.len(), k * t, "matmul rhs shape");
        self.push(SchedOp::MatMul {
            x: ids(x),
            w: ids(w),
            dims: (rows, k, t),
            bias2: bias2.map(ids),
        })
    }

    /// Seals the schedule with the model's output tensors.
    pub fn finish(self, outputs: Vec<(Vec<usize>, Vec<SVal>)>) -> OpSchedule {
        let outputs = outputs
            .into_iter()
            .map(|(shape, vals)| (shape, ids(&vals)))
            .collect();
        OpSchedule::new(self.numeric, self.ops, self.next as usize, outputs)
    }
}

fn ids(xs: &[SVal]) -> Vec<u32> {
    xs.iter().map(|s| s.0).collect()
}

fn pair_ids(pairs: &[(SVal, SVal)]) -> Vec<(u32, u32)> {
    pairs.iter().map(|(a, b)| (a.0, b.0)).collect()
}

/// Stage 3's replay: runs a schedule's ops through a builder's gadgets,
/// returning the output cell tensors.
pub(crate) fn run_schedule(
    bld: &mut CircuitBuilder,
    sched: &OpSchedule,
) -> Result<Vec<Tensor<AValue>>, BuildError> {
    // Each value id resolved to its cell, in id order.
    let mut vals: Vec<AValue> = Vec::with_capacity(sched.num_vals);
    // Operand buffers, reused from op to op.
    let (mut xb, mut yb, mut bb, mut pb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for op in &sched.ops {
        match op {
            SchedOp::Load { values } => vals.extend(bld.load_values(values)),
            SchedOp::LoadWeights { values } => vals.extend(bld.load_weights(values)),
            SchedOp::Const { v } => vals.push(bld.constant(*v)),
            SchedOp::Dot { xs, ys, init } => {
                let x = gather(&vals, &mut xb, xs);
                let y = gather(&vals, &mut yb, ys);
                let r = bld.dot(x, y, init.map(|i| vals[i as usize]))?;
                vals.push(r);
            }
            SchedOp::Sum { xs } => {
                let r = bld.sum(gather(&vals, &mut xb, xs))?;
                vals.push(r);
            }
            SchedOp::Arith { kind, pairs } => {
                let p = gather_pairs(&vals, &mut pb, pairs);
                vals.extend(bld.arith_pack(*kind, p)?);
            }
            SchedOp::Square { xs } => {
                let out = bld.square_pack(gather(&vals, &mut xb, xs))?;
                vals.extend(out);
            }
            SchedOp::Rescale { xs } => {
                let out = bld.rescale(gather(&vals, &mut xb, xs))?;
                vals.extend(out);
            }
            SchedOp::Nonlin { f, xs } => {
                let out = bld.nonlin(*f, gather(&vals, &mut xb, xs))?;
                vals.extend(out);
            }
            SchedOp::Relu { xs } => {
                let out = bld.relu(gather(&vals, &mut xb, xs))?;
                vals.extend(out);
            }
            SchedOp::MaxPairs { pairs } => {
                let out = bld.max_pairs(gather_pairs(&vals, &mut pb, pairs))?;
                vals.extend(out);
            }
            SchedOp::VarDiv {
                nums,
                den,
                den_bound,
            } => {
                let d = vals[*den as usize];
                let out = bld.var_div(gather(&vals, &mut xb, nums), d, *den_bound)?;
                vals.extend(out);
            }
            SchedOp::MatMul { x, w, dims, bias2 } => {
                let xv = gather(&vals, &mut xb, x);
                let wv = gather(&vals, &mut yb, w);
                let bv = bias2.as_ref().map(|b| gather(&vals, &mut bb, b));
                let out = crate::layers::matmul_raw_entry(bld, xv, wv, dims.0, dims.1, dims.2, bv)?;
                vals.extend(out);
            }
        }
    }
    debug_assert_eq!(vals.len(), sched.num_vals, "schedule value count drift");
    Ok(sched
        .outputs
        .iter()
        .map(|(shape, out_ids)| {
            Tensor::new(
                shape.clone(),
                out_ids.iter().map(|i| vals[*i as usize]).collect(),
            )
        })
        .collect())
}

/// Fills `buf` with the values `ids` names and returns it.
fn gather<'a>(vals: &[AValue], buf: &'a mut Vec<AValue>, ids: &[u32]) -> &'a [AValue] {
    buf.clear();
    buf.extend(ids.iter().map(|i| vals[*i as usize]));
    buf
}

/// [`gather`] for operand pairs.
fn gather_pairs<'a>(
    vals: &[AValue],
    buf: &'a mut Vec<(AValue, AValue)>,
    pairs: &[(u32, u32)],
) -> &'a [(AValue, AValue)] {
    buf.clear();
    buf.extend(
        pairs
            .iter()
            .map(|(a, b)| (vals[*a as usize], vals[*b as usize])),
    );
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
        let xs = sb.load_values(&[1, 2, 3]);
        assert_eq!(ids(&xs), vec![0, 1, 2]);
        let c = sb.constant(7);
        assert_eq!(c.0, 3);
        // Constant dedup hands back the same id.
        assert_eq!(sb.constant(7), c);
        let d = sb.dot(&xs, &xs, Some(c));
        assert_eq!(d.0, 4);
        let sched = sb.finish(vec![(vec![1], vec![d])]);
        assert_eq!(sched.num_ops(), 3);
    }

    #[test]
    fn build_counter_increments_once_per_schedule() {
        let before = schedules_built();
        let _ = ScheduleBuilder::new(NumericConfig::default_nano());
        assert!(schedules_built() > before);
    }
}
