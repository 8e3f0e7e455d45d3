//! Schedule segmentation: cutting one [`OpSchedule`] at tensor boundaries
//! into chained sub-schedules for segmented proving.
//!
//! A cut partitions the schedule's compute ops into contiguous index
//! ranges. `Load` and `Const` ops carry raw data rather than depending on
//! earlier values, so they are *rematerialized* into every segment that
//! consumes them instead of being threaded through boundaries — weights
//! loaded up front by `lower_graph` land in the segment that uses them.
//! Every remaining value that crosses a cut becomes a **boundary tensor**:
//! the producing segment exposes it as public output, the consuming segment
//! loads it and exposes it as public input, and the aggregate verifier
//! checks the two instance slices are equal (see `zkml-shard`). Each
//! segment's single instance column is therefore laid out as
//! `[boundary-in values ++ boundary-out values]`, with the last segment
//! exposing the model's original outputs as its tail.
//!
//! Cut points are chosen by [`SegmentPlan::balanced`], a row-weight cost
//! model that balances estimated per-segment proving work so parallel
//! segment proving is not bottlenecked by one oversized segment.

use crate::schedule::{OpSchedule, SchedOp};
use crate::tables::table_eval;
use zkml_model::qops;

/// Errors from schedule segmentation.
#[derive(Debug)]
pub enum SegmentError {
    /// The cut list is not strictly increasing inside `(0, num_ops)`.
    InvalidCuts(String),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::InvalidCuts(s) => write!(f, "invalid segment cuts: {s}"),
        }
    }
}
impl std::error::Error for SegmentError {}

/// Where to cut a schedule: `cuts[i]` is the op index starting segment
/// `i + 1`. An empty cut list means one (monolithic) segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Strictly increasing op indices in `(0, num_ops)`.
    pub cuts: Vec<usize>,
}

impl SegmentPlan {
    /// Number of segments the plan produces.
    pub fn num_segments(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Picks cut points that balance the estimated proving work across
    /// `segments` segments.
    ///
    /// Per-op work is proxied by the row count the op occupies (loads by
    /// element count, packed gadgets by pack count, matmul by its
    /// dot-product volume); cuts land where the weight prefix sum crosses
    /// each `total * s / segments` threshold. When the schedule has fewer
    /// ops than requested segments (or one op dominates), fewer cuts come
    /// back — the plan never produces empty segments.
    pub fn balanced(sched: &OpSchedule, segments: usize) -> SegmentPlan {
        let n_ops = sched.ops.len();
        if segments <= 1 || n_ops < 2 {
            return SegmentPlan { cuts: Vec::new() };
        }
        let weights: Vec<u128> = sched.ops.iter().map(op_weight).collect();
        let total: u128 = weights.iter().sum();
        if total == 0 {
            return SegmentPlan { cuts: Vec::new() };
        }
        let mut cuts = Vec::new();
        let mut acc = 0u128;
        let mut next = 1usize;
        for (i, w) in weights.iter().enumerate() {
            acc += w;
            if next < segments
                && i + 1 < n_ops
                && acc * (segments as u128) >= total * (next as u128)
            {
                cuts.push(i + 1);
                next += 1;
            }
        }
        SegmentPlan { cuts }
    }
}

/// Row-count proxy for one op (the placement cost drivers, not exact rows).
fn op_weight(op: &SchedOp) -> u128 {
    let w = match op {
        SchedOp::Load { values } | SchedOp::LoadWeights { values } => values.len(),
        SchedOp::Const { .. } => 1,
        SchedOp::Dot { xs, .. } | SchedOp::Sum { xs } => xs.len(),
        SchedOp::Arith { pairs, .. } | SchedOp::MaxPairs { pairs } => pairs.len(),
        SchedOp::Square { xs }
        | SchedOp::Rescale { xs }
        | SchedOp::Nonlin { xs, .. }
        | SchedOp::Relu { xs } => xs.len(),
        SchedOp::VarDiv { nums, .. } => nums.len(),
        // Dominated by the rows * t dot products of length k.
        SchedOp::MatMul { dims, .. } => dims.0 * dims.2 * (1 + dims.1),
    };
    w as u128
}

/// One segment of a cut schedule, ready for the standard
/// `place()`/`synthesize()` pipeline.
///
/// The segment's instance column is `[boundary-in ++ tail]` where the tail
/// is the boundary-out values (intermediate segments) or the model's
/// original outputs (last segment). The `*_ids` fields are the *global*
/// value ids of the parent schedule, so callers can assert that segment
/// `i`'s `boundary_out_ids` equal segment `i + 1`'s `boundary_in_ids`.
#[derive(Clone, Debug)]
pub struct SegmentSchedule {
    /// The self-contained sub-schedule (local value-id space).
    pub schedule: OpSchedule,
    /// Global ids of the values entering this segment (empty for the first).
    pub boundary_in_ids: Vec<u32>,
    /// Global ids of the values leaving this segment (empty for the last).
    pub boundary_out_ids: Vec<u32>,
}

impl SegmentSchedule {
    /// Number of boundary values entering the segment — the length of the
    /// instance-column prefix.
    pub fn boundary_in_len(&self) -> usize {
        self.boundary_in_ids.len()
    }
}

/// Evaluates every value of a schedule with the same integer semantics the
/// gadget builders use (overflow panics, like the builders' checked math).
///
/// This is how the cutter learns the concrete boundary values each segment
/// must load: segmentation happens before any circuit exists, so the
/// schedule is executed once here instead of through a builder replay.
pub fn eval_schedule(sched: &OpSchedule) -> Vec<i64> {
    let sf = sched.numeric.scale();
    let mut vals: Vec<i64> = Vec::with_capacity(sched.num_vals);
    for op in &sched.ops {
        match op {
            SchedOp::Load { values } | SchedOp::LoadWeights { values } => {
                vals.extend_from_slice(values)
            }
            SchedOp::Const { v } => vals.push(*v),
            SchedOp::Dot { xs, ys, init } => {
                let mut z = init.map(|i| vals[i as usize]).unwrap_or(0);
                for (x, y) in xs.iter().zip(ys) {
                    z += vals[*x as usize]
                        .checked_mul(vals[*y as usize])
                        .expect("dot overflow");
                }
                vals.push(z);
            }
            SchedOp::Sum { xs } => {
                vals.push(xs.iter().map(|x| vals[*x as usize]).sum());
            }
            SchedOp::Arith { kind, pairs } => {
                use crate::builder::Gadget;
                for (a, b) in pairs {
                    let (a, b) = (vals[*a as usize], vals[*b as usize]);
                    let c = match kind {
                        Gadget::AddPack => a + b,
                        Gadget::SubPack => a - b,
                        Gadget::MulPack => a.checked_mul(b).expect("mul overflow"),
                        Gadget::SqDiffPack => (a - b).checked_mul(a - b).expect("sqdiff overflow"),
                        other => unreachable!("non-arith gadget {other:?} in Arith op"),
                    };
                    vals.push(c);
                }
            }
            SchedOp::Square { xs } => {
                for x in xs {
                    let x = vals[*x as usize];
                    vals.push(x.checked_mul(x).expect("square overflow"));
                }
            }
            SchedOp::Rescale { xs } => {
                for x in xs {
                    vals.push(qops::div_round(vals[*x as usize], sf));
                }
            }
            SchedOp::Nonlin { f, xs } => {
                for x in xs {
                    vals.push(table_eval(*f, vals[*x as usize], sf));
                }
            }
            SchedOp::Relu { xs } => {
                for x in xs {
                    vals.push(vals[*x as usize].max(0));
                }
            }
            SchedOp::MaxPairs { pairs } => {
                for (a, b) in pairs {
                    vals.push(vals[*a as usize].max(vals[*b as usize]));
                }
            }
            SchedOp::VarDiv {
                nums,
                den,
                den_bound: _,
            } => {
                let d = vals[*den as usize];
                for n in nums {
                    vals.push(qops::var_div_scaled(vals[*n as usize], d, sf));
                }
            }
            SchedOp::MatMul { x, w, dims, bias2 } => {
                let (rows, kk, t) = *dims;
                for r in 0..rows {
                    for j in 0..t {
                        let mut z = bias2.as_ref().map(|b| vals[b[j % t] as usize]).unwrap_or(0);
                        for i in 0..kk {
                            z += vals[x[r * kk + i] as usize]
                                .checked_mul(vals[w[i * t + j] as usize])
                                .expect("matmul overflow");
                        }
                        vals.push(z);
                    }
                }
            }
        }
    }
    debug_assert_eq!(vals.len(), sched.num_vals, "eval value count drift");
    vals
}

/// Cuts a schedule into chained segments at the plan's op boundaries.
///
/// Each returned segment is a complete, independently compilable
/// [`OpSchedule`] that loads its boundary-in values first and exposes
/// `[boundary-in ++ boundary-out / model outputs]` as its instance column.
/// Segment `i`'s `boundary_out_ids` always equal segment `i + 1`'s
/// `boundary_in_ids`, and re-running the segments in order reproduces the
/// monolithic schedule's outputs exactly.
pub fn cut_schedule(
    sched: &OpSchedule,
    plan: &SegmentPlan,
) -> Result<Vec<SegmentSchedule>, SegmentError> {
    let n_ops = sched.ops.len();
    let mut prev = 0usize;
    for &c in &plan.cuts {
        if c <= prev || c >= n_ops {
            return Err(SegmentError::InvalidCuts(format!(
                "cut {c} out of range (must be strictly increasing inside 1..{n_ops})"
            )));
        }
        prev = c;
    }
    let nsegs = plan.num_segments();

    // Natural (index-range) segment of each op.
    let mut natural = vec![0usize; n_ops];
    {
        let mut seg = 0usize;
        for (i, nat) in natural.iter_mut().enumerate() {
            while seg < plan.cuts.len() && i >= plan.cuts[seg] {
                seg += 1;
            }
            *nat = seg;
        }
    }

    // Value id -> producing op (ids are allocated densely in op order).
    let mut producer = vec![0usize; sched.num_vals];
    {
        let mut next = 0usize;
        for (i, op) in sched.ops.iter().enumerate() {
            for _ in 0..op.arity_out() {
                producer[next] = i;
                next += 1;
            }
        }
        debug_assert_eq!(next, sched.num_vals);
    }

    // Consumer segments per value (compute ops only; Load/Const read
    // nothing), plus a virtual consumer in the last segment for every
    // model output so outputs flow through to the final instance column.
    let mut last_consumer: Vec<Option<usize>> = vec![None; sched.num_vals];
    for (i, op) in sched.ops.iter().enumerate() {
        let seg = natural[i];
        for v in op_operands(op) {
            let slot = &mut last_consumer[v as usize];
            *slot = Some(slot.map_or(seg, |s| s.max(seg)));
        }
    }
    for (_, ids) in &sched.outputs {
        for v in ids {
            let slot = &mut last_consumer[*v as usize];
            *slot = Some(slot.map_or(nsegs - 1, |s| s.max(nsegs - 1)));
        }
    }

    // Rematerialization targets: Load/Const ops are copied into every
    // segment consuming (or outputting) one of their values; an op nobody
    // reads stays in its natural segment. Compute ops keep their natural
    // segment, so producers always precede consumers.
    let mut consumed_in: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); n_ops];
    for (i, op) in sched.ops.iter().enumerate() {
        let seg = natural[i];
        for v in op_operands(op) {
            consumed_in[producer[v as usize]].insert(seg);
        }
    }
    for (_, ids) in &sched.outputs {
        for v in ids {
            consumed_in[producer[*v as usize]].insert(nsegs - 1);
        }
    }
    let op_segments: Vec<Vec<usize>> = sched
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            if matches!(
                op,
                SchedOp::Load { .. } | SchedOp::LoadWeights { .. } | SchedOp::Const { .. }
            ) {
                if consumed_in[i].is_empty() {
                    vec![natural[i]]
                } else {
                    consumed_in[i].iter().copied().collect()
                }
            } else {
                vec![natural[i]]
            }
        })
        .collect();

    // Boundary sets: a computed value is live at boundary `b` when its
    // producer sits before the cut and some consumer (or the model output)
    // sits at or after it. Rematerialized Load/Const values never cross.
    let vals = eval_schedule(sched);
    let mut live: Vec<Vec<u32>> = vec![Vec::new(); nsegs + 1];
    for v in 0..sched.num_vals {
        let op = producer[v];
        if matches!(
            sched.ops[op],
            SchedOp::Load { .. } | SchedOp::LoadWeights { .. } | SchedOp::Const { .. }
        ) {
            continue;
        }
        let Some(last) = last_consumer[v] else {
            continue;
        };
        let born = natural[op];
        for bucket in live.iter_mut().take(last.min(nsegs - 1) + 1).skip(born + 1) {
            bucket.push(v as u32);
        }
    }

    let mut segments = Vec::with_capacity(nsegs);
    for s in 0..nsegs {
        let in_ids: Vec<u32> = live[s].clone();
        let out_ids: Vec<u32> = if s + 1 < nsegs {
            live[s + 1].clone()
        } else {
            Vec::new()
        };

        let mut local: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut next_local = 0u32;
        let mut ops: Vec<SchedOp> = Vec::new();

        if !in_ids.is_empty() {
            let values: Vec<i64> = in_ids.iter().map(|v| vals[*v as usize]).collect();
            ops.push(SchedOp::Load { values });
            for v in &in_ids {
                local.insert(*v, next_local);
                next_local += 1;
            }
        }

        let mut next_val = 0u32;
        for (i, op) in sched.ops.iter().enumerate() {
            let arity = op.arity_out() as u32;
            if op_segments[i].contains(&s) {
                ops.push(remap_op(op, &local));
                for v in next_val..next_val + arity {
                    local.insert(v, next_local);
                    next_local += 1;
                }
            }
            next_val += arity;
        }

        let lookup = |v: &u32| -> u32 {
            *local
                .get(v)
                .unwrap_or_else(|| panic!("segment {s}: value {v} not available"))
        };
        let mut outputs: Vec<(Vec<usize>, Vec<u32>)> = Vec::new();
        outputs.push((vec![in_ids.len()], in_ids.iter().map(lookup).collect()));
        if s + 1 < nsegs {
            outputs.push((vec![out_ids.len()], out_ids.iter().map(lookup).collect()));
        } else {
            for (shape, ids) in &sched.outputs {
                outputs.push((shape.clone(), ids.iter().map(lookup).collect()));
            }
        }

        segments.push(SegmentSchedule {
            schedule: OpSchedule::new(sched.numeric, ops, next_local as usize, outputs),
            boundary_in_ids: in_ids,
            boundary_out_ids: out_ids,
        });
    }
    Ok(segments)
}

/// Every value id an op reads.
fn op_operands(op: &SchedOp) -> Vec<u32> {
    match op {
        SchedOp::Load { .. } | SchedOp::LoadWeights { .. } | SchedOp::Const { .. } => Vec::new(),
        SchedOp::Dot { xs, ys, init } => {
            let mut v: Vec<u32> = xs.iter().chain(ys).copied().collect();
            v.extend(init.iter());
            v
        }
        SchedOp::Sum { xs }
        | SchedOp::Square { xs }
        | SchedOp::Rescale { xs }
        | SchedOp::Nonlin { xs, .. }
        | SchedOp::Relu { xs } => xs.clone(),
        SchedOp::Arith { pairs, .. } | SchedOp::MaxPairs { pairs } => {
            pairs.iter().flat_map(|(a, b)| [*a, *b]).collect()
        }
        SchedOp::VarDiv { nums, den, .. } => {
            let mut v = nums.clone();
            v.push(*den);
            v
        }
        SchedOp::MatMul { x, w, bias2, .. } => {
            let mut v: Vec<u32> = x.iter().chain(w).copied().collect();
            if let Some(b) = bias2 {
                v.extend(b);
            }
            v
        }
    }
}

/// Clones an op with operand ids translated through `local`.
fn remap_op(op: &SchedOp, local: &std::collections::HashMap<u32, u32>) -> SchedOp {
    let m = |v: &u32| -> u32 {
        *local
            .get(v)
            .unwrap_or_else(|| panic!("operand {v} not available in segment"))
    };
    match op {
        SchedOp::Load { values } => SchedOp::Load {
            values: values.clone(),
        },
        SchedOp::LoadWeights { values } => SchedOp::LoadWeights {
            values: values.clone(),
        },
        SchedOp::Const { v } => SchedOp::Const { v: *v },
        SchedOp::Dot { xs, ys, init } => SchedOp::Dot {
            xs: xs.iter().map(m).collect(),
            ys: ys.iter().map(m).collect(),
            init: init.as_ref().map(m),
        },
        SchedOp::Sum { xs } => SchedOp::Sum {
            xs: xs.iter().map(m).collect(),
        },
        SchedOp::Arith { kind, pairs } => SchedOp::Arith {
            kind: *kind,
            pairs: pairs.iter().map(|(a, b)| (m(a), m(b))).collect(),
        },
        SchedOp::Square { xs } => SchedOp::Square {
            xs: xs.iter().map(m).collect(),
        },
        SchedOp::Rescale { xs } => SchedOp::Rescale {
            xs: xs.iter().map(m).collect(),
        },
        SchedOp::Nonlin { f, xs } => SchedOp::Nonlin {
            f: *f,
            xs: xs.iter().map(m).collect(),
        },
        SchedOp::Relu { xs } => SchedOp::Relu {
            xs: xs.iter().map(m).collect(),
        },
        SchedOp::MaxPairs { pairs } => SchedOp::MaxPairs {
            pairs: pairs.iter().map(|(a, b)| (m(a), m(b))).collect(),
        },
        SchedOp::VarDiv {
            nums,
            den,
            den_bound,
        } => SchedOp::VarDiv {
            nums: nums.iter().map(m).collect(),
            den: m(den),
            den_bound: *den_bound,
        },
        SchedOp::MatMul { x, w, dims, bias2 } => SchedOp::MatMul {
            x: x.iter().map(m).collect(),
            w: w.iter().map(m).collect(),
            dims: *dims,
            bias2: bias2.as_ref().map(|b| b.iter().map(m).collect()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NumericConfig;
    use crate::schedule::ScheduleBuilder;
    use crate::Gadget;

    /// x -> relu -> dot with weights -> rescale, three clear stages.
    fn toy_schedule() -> OpSchedule {
        let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
        let xs = sb.load_values(&[3, -2, 5, 1]);
        let ws = sb.load_values(&[2, 2, 2, 2]);
        let r = sb.relu(&xs);
        let d = sb.dot(&r, &ws, None);
        let s = sb.arith_pack(Gadget::AddPack, &[(d, d)]);
        sb.finish(vec![(vec![1], vec![s[0]])])
    }

    #[test]
    fn eval_matches_gadget_semantics() {
        let sched = toy_schedule();
        let vals = eval_schedule(&sched);
        // relu: [3, 0, 5, 1]; dot with all-2 weights: 18; add: 36.
        assert_eq!(vals[vals.len() - 1], 36);
    }

    #[test]
    fn cut_segments_chain_and_reproduce_outputs() {
        let sched = toy_schedule();
        let vals = eval_schedule(&sched);
        let flat_out: Vec<i64> = sched
            .outputs
            .iter()
            .flat_map(|(_, ids)| ids.iter().map(|i| vals[*i as usize]))
            .collect();

        let plan = SegmentPlan { cuts: vec![3] };
        let segs = cut_schedule(&sched, &plan).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].boundary_in_ids.len(), 0);
        assert_eq!(segs[0].boundary_out_ids, segs[1].boundary_in_ids);
        assert!(!segs[1].boundary_in_ids.is_empty());

        // Each segment evaluates independently; the chained public values
        // line up and the final tail equals the monolithic outputs.
        let v0 = eval_schedule(&segs[0].schedule);
        let v1 = eval_schedule(&segs[1].schedule);
        let tail0: Vec<i64> = segs[0].schedule.outputs[1]
            .1
            .iter()
            .map(|i| v0[*i as usize])
            .collect();
        let head1: Vec<i64> = segs[1].schedule.outputs[0]
            .1
            .iter()
            .map(|i| v1[*i as usize])
            .collect();
        assert_eq!(tail0, head1, "boundary values must chain");
        let final_tail: Vec<i64> = segs[1]
            .schedule
            .outputs
            .iter()
            .skip(1)
            .flat_map(|(_, ids)| ids.iter().map(|i| v1[*i as usize]))
            .collect();
        assert_eq!(final_tail, flat_out);
    }

    #[test]
    fn loads_rematerialize_into_consuming_segment() {
        let sched = toy_schedule();
        let plan = SegmentPlan { cuts: vec![3] };
        let segs = cut_schedule(&sched, &plan).unwrap();
        // The weight load (op 1) is consumed only by the dot in segment 1,
        // so it must not inflate segment 0 or the boundary.
        let weight_like = |s: &SegmentSchedule| {
            s.schedule
                .ops
                .iter()
                .filter(|o| matches!(o, SchedOp::Load { values } if values == &vec![2, 2, 2, 2]))
                .count()
        };
        assert_eq!(weight_like(&segs[0]), 0);
        assert_eq!(weight_like(&segs[1]), 1);
        // Only the 4 relu outputs cross the boundary.
        assert_eq!(segs[0].boundary_out_ids.len(), 4);
    }

    #[test]
    fn balanced_plan_is_valid_and_respects_bounds() {
        let sched = toy_schedule();
        for n in 1..=4 {
            let plan = SegmentPlan::balanced(&sched, n);
            assert!(plan.num_segments() <= n.max(1));
            assert!(cut_schedule(&sched, &plan).is_ok());
        }
        assert_eq!(SegmentPlan::balanced(&sched, 1).cuts.len(), 0);
    }

    #[test]
    fn invalid_cuts_rejected() {
        let sched = toy_schedule();
        for cuts in [vec![0], vec![99], vec![2, 2], vec![3, 1]] {
            assert!(cut_schedule(&sched, &SegmentPlan { cuts }).is_err());
        }
    }
}
