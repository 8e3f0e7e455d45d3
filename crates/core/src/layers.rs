//! Lowering of graph operators onto gadget compositions (§6) — stage 1 of
//! the compile pipeline.
//!
//! [`lower_graph`] walks the model **once** and records every gadget
//! invocation into an [`OpSchedule`]; it never touches a circuit builder.
//! Shape operators never reach the schedule at all: they rearrange value
//! ids, which is the paper's "free" shape-op property. Every arithmetic
//! output value is later produced by the gadgets themselves (during
//! schedule replay) with the same quantized semantics as
//! `zkml_model::execute_fixed`, so the circuit witness and the
//! reference executor agree bit-for-bit (cross-checked in tests).
//!
//! The replay half — resolving implementation choices like Freivalds vs.
//! direct matmul against a concrete [`CircuitBuilder`] — lives in
//! `matmul_raw_entry` and `crate::schedule::run_schedule` (crate-private).

use crate::builder::{AValue, BuildError, CircuitBuilder, Gadget};
use crate::config::{MatmulImpl, NumericConfig};
use crate::freivalds::freivalds_matmul;
use crate::schedule::{OpSchedule, SVal, ScheduleBuilder};
use crate::tables::{ActKey, TableFn};
use zkml_model::{qops, Activation, Graph, Node, Op, Padding, TensorKind};
use zkml_tensor::{FixedPoint, Tensor};

/// Lowers an entire graph into an [`OpSchedule`] — run **once per model**
/// per numeric configuration; the schedule is then replayed per candidate
/// layout by the placer and once more by synthesis.
pub fn lower_graph(g: &Graph, inputs: &[Tensor<i64>], numeric: NumericConfig) -> OpSchedule {
    let fp = FixedPoint::new(numeric.scale_bits);
    let mut sb = ScheduleBuilder::new(numeric);
    let mut tensors: Vec<Option<Tensor<SVal>>> = vec![None; g.tensors.len()];

    // Load inputs.
    assert_eq!(inputs.len(), g.inputs.len(), "input count mismatch");
    for (id, t) in g.inputs.iter().zip(inputs) {
        assert_eq!(g.shape(*id), t.shape(), "input shape mismatch");
        let cells = sb.load_values(t.data());
        tensors[*id] = Some(Tensor::new(t.shape().to_vec(), cells));
    }
    // Load weights (single-scale). Biases are re-quantized at double scale
    // per use site by `load_bias2`, so a weight consumed *only* as the bias
    // input of a linear layer must not be loaded here: the single-scale
    // copy would have no consumer, leaving dead unconstrained cells that
    // the static analyzer rightly flags as underconstrained.
    let mut non_bias_use = vec![false; g.tensors.len()];
    for id in &g.outputs {
        non_bias_use[*id] = true;
    }
    for node in &g.nodes {
        for (i, id) in node.inputs.iter().enumerate() {
            let bias_slot = i == 2
                && matches!(
                    node.op,
                    Op::FullyConnected { .. } | Op::Conv2D { .. } | Op::DepthwiseConv2D { .. }
                );
            if !bias_slot {
                non_bias_use[*id] = true;
            }
        }
    }
    for (id, meta) in g.tensors.iter().enumerate() {
        if meta.kind == TensorKind::Weight && non_bias_use[id] {
            let w = g.weights[id].as_ref().expect("weight values");
            let q = fp.quantize_tensor(w);
            let cells = sb.load_weights(q.data());
            tensors[id] = Some(Tensor::new(q.shape().to_vec(), cells));
        }
    }

    for node in &g.nodes {
        let out = lower_node(&mut sb, g, node, &tensors);
        tensors[node.output] = Some(out);
    }

    let outputs = g
        .outputs
        .iter()
        .map(|id| {
            let t = tensors[*id].clone().expect("output computed");
            (t.shape().to_vec(), t.data().to_vec())
        })
        .collect();
    sb.finish(outputs)
}

/// Loads a bias weight at double scale (`round(b * SF^2)`), for addition to
/// unrescaled accumulators.
fn load_bias2(sb: &mut ScheduleBuilder, g: &Graph, id: zkml_model::TensorId) -> Vec<SVal> {
    let sf = sb.scale() as f64;
    let w = g.weights[id].as_ref().expect("bias weight");
    let vals: Vec<i64> = w
        .data()
        .iter()
        .map(|x| ((*x as f64) * sf * sf).round() as i64)
        .collect();
    sb.load_weights(&vals)
}

fn apply_act(sb: &mut ScheduleBuilder, act: Option<Activation>, xs: &[SVal]) -> Vec<SVal> {
    match act {
        None => xs.to_vec(),
        Some(Activation::Relu) => sb.relu(xs),
        Some(a) => sb.nonlin(TableFn::Act(ActKey::of(a)), xs),
    }
}

/// Mean by rounded division: `round(sum / count)` via the variable-division
/// gadget with constant denominator `count * SF`.
fn mean_of(sb: &mut ScheduleBuilder, xs: &[SVal], count: i64) -> SVal {
    let s = sb.sum(xs);
    let den_v = count * sb.scale();
    let den = sb.constant(den_v);
    sb.var_div(&[s], den, den_v)[0]
}

/// Lowers one node into schedule ops.
pub(crate) fn lower_node(
    sb: &mut ScheduleBuilder,
    g: &Graph,
    node: &Node,
    tensors: &[Option<Tensor<SVal>>],
) -> Tensor<SVal> {
    let input =
        |i: usize| -> &Tensor<SVal> { tensors[node.inputs[i]].as_ref().expect("input lowered") };
    let sf = sb.scale();
    let out_shape = g.shape(node.output).to_vec();

    let result: Tensor<SVal> = match &node.op {
        // ---- free shape ops -------------------------------------------
        Op::Reshape { shape } => input(0).reshape(shape.clone()),
        Op::Transpose { perm } => input(0).transpose(perm),
        Op::Slice { starts, ends } => input(0).slice(starts, ends),
        Op::Concat { axis } => {
            let parts: Vec<&Tensor<SVal>> = node
                .inputs
                .iter()
                .map(|i| tensors[*i].as_ref().expect("lowered"))
                .collect();
            Tensor::concat(&parts, *axis)
        }
        Op::Pad { pads } => {
            let zero = sb.constant(0);
            input(0).pad(pads, zero)
        }
        Op::Squeeze { axis } => input(0).squeeze(*axis),
        Op::ExpandDims { axis } => input(0).expand_dims(*axis),
        Op::Flatten => {
            let t = input(0);
            let n: usize = t.shape()[1..].iter().product();
            t.reshape(vec![t.shape()[0], n])
        }
        Op::BroadcastTo { shape } => input(0).broadcast_to(shape),
        Op::Upsample2x => {
            let x = input(0);
            let (n, h, w, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
            let mut out = Vec::with_capacity(n * 4 * h * w * c);
            for b in 0..n {
                for i in 0..2 * h {
                    for j in 0..2 * w {
                        for ch in 0..c {
                            out.push(*x.get(&[b, i / 2, j / 2, ch]));
                        }
                    }
                }
            }
            Tensor::new(vec![n, 2 * h, 2 * w, c], out)
        }

        // ---- arithmetic -------------------------------------------------
        Op::Add | Op::Sub => {
            let pairs = input(0).zip(input(1), |a, b| (*a, *b));
            let kind = if matches!(node.op, Op::Add) {
                Gadget::AddPack
            } else {
                Gadget::SubPack
            };
            let out = sb.arith_pack(kind, pairs.data());
            Tensor::new(pairs.shape().to_vec(), out)
        }
        Op::Mul => {
            let pairs = input(0).zip(input(1), |a, b| (*a, *b));
            let raw = sb.arith_pack(Gadget::MulPack, pairs.data());
            let out = sb.rescale(&raw);
            Tensor::new(pairs.shape().to_vec(), out)
        }
        Op::SquaredDifference => {
            let pairs = input(0).zip(input(1), |a, b| (*a, *b));
            let raw = sb.arith_pack(Gadget::SqDiffPack, pairs.data());
            let out = sb.rescale(&raw);
            Tensor::new(pairs.shape().to_vec(), out)
        }
        Op::Square => {
            let raw = sb.square_pack(input(0).data());
            let out = sb.rescale(&raw);
            Tensor::new(input(0).shape().to_vec(), out)
        }
        Op::DivConst { divisor } => {
            let c_q = ((*divisor as f64) * sf as f64).round() as i64;
            let den = sb.constant(c_q);
            let out = sb.var_div(input(0).data(), den, c_q);
            Tensor::new(input(0).shape().to_vec(), out)
        }
        Op::Sum { axis, keep_dims } | Op::Mean { axis, keep_dims } => {
            let x = input(0);
            let shape = x.shape().to_vec();
            let mut red_shape = shape.clone();
            red_shape[*axis] = 1;
            let n_out: usize = red_shape.iter().product();
            let mut groups: Vec<Vec<SVal>> = vec![Vec::new(); n_out];
            for off in 0..x.len() {
                let mut idx = zkml_tensor::shape::unflatten_index(&shape, off);
                idx[*axis] = 0;
                groups[zkml_tensor::shape::flatten_index(&red_shape, &idx)].push(x.data()[off]);
            }
            let mean = matches!(node.op, Op::Mean { .. });
            let mut out = Vec::with_capacity(n_out);
            for gvals in &groups {
                let v = if mean {
                    mean_of(sb, gvals, shape[*axis] as i64)
                } else {
                    sb.sum(gvals)
                };
                out.push(v);
            }
            let t = Tensor::new(red_shape, out);
            if *keep_dims {
                t
            } else {
                t.squeeze(*axis)
            }
        }

        // ---- linear layers ---------------------------------------------
        Op::FullyConnected { activation } => {
            let x = input(0);
            let w = input(1);
            let k = w.shape()[0];
            let t = w.shape()[1];
            let rows = x.len() / k;
            let bias2 = node.inputs.get(2).map(|id| load_bias2(sb, g, *id));
            let raw = sb.matmul_raw(x.data(), w.data(), rows, k, t, bias2.as_deref());
            let scaled = sb.rescale(&raw);
            let out = apply_act(sb, *activation, &scaled);
            Tensor::new(out_shape, out)
        }
        Op::Conv2D {
            stride,
            padding,
            activation,
        } => conv2d(sb, g, node, tensors, *stride, *padding, *activation, false),
        Op::DepthwiseConv2D {
            stride,
            padding,
            activation,
        } => conv2d(sb, g, node, tensors, *stride, *padding, *activation, true),
        Op::BatchMatMul => {
            let a = input(0);
            let b = input(1);
            let ar = a.shape().len();
            let (m, k) = (a.shape()[ar - 2], a.shape()[ar - 1]);
            let t = b.shape()[b.shape().len() - 1];
            let batch: usize = a.shape()[..ar - 2].iter().product();
            let mut out = Vec::with_capacity(batch * m * t);
            for bt in 0..batch {
                let ax = a.data()[bt * m * k..(bt + 1) * m * k].to_vec();
                let bx = b.data()[bt * k * t..(bt + 1) * k * t].to_vec();
                let raw = sb.matmul_raw(&ax, &bx, m, k, t, None);
                out.extend(sb.rescale(&raw));
            }
            Tensor::new(out_shape, out)
        }
        Op::AvgPool2D { ksize, stride } | Op::MaxPool2D { ksize, stride } => {
            let x = input(0);
            let (n, h, w, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
            let oh = (h - ksize.0) / stride.0 + 1;
            let ow = (w - ksize.1) / stride.1 + 1;
            let avg = matches!(node.op, Op::AvgPool2D { .. });
            let mut out = Vec::with_capacity(n * oh * ow * c);
            for b in 0..n {
                for oi in 0..oh {
                    for oj in 0..ow {
                        for ch in 0..c {
                            let window: Vec<SVal> = (0..ksize.0)
                                .flat_map(|ki| (0..ksize.1).map(move |kj| (ki, kj)))
                                .map(|(ki, kj)| {
                                    *x.get(&[b, oi * stride.0 + ki, oj * stride.1 + kj, ch])
                                })
                                .collect();
                            let v = if avg {
                                mean_of(sb, &window, (ksize.0 * ksize.1) as i64)
                            } else {
                                sb.max_tree(&window)
                            };
                            out.push(v);
                        }
                    }
                }
            }
            Tensor::new(vec![n, oh, ow, c], out)
        }
        Op::GlobalAvgPool => {
            let x = input(0);
            let (n, h, w, c) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
            let mut out = Vec::with_capacity(n * c);
            for b in 0..n {
                for ch in 0..c {
                    let vals: Vec<SVal> = (0..h)
                        .flat_map(|i| (0..w).map(move |j| (i, j)))
                        .map(|(i, j)| *x.get(&[b, i, j, ch]))
                        .collect();
                    out.push(mean_of(sb, &vals, (h * w) as i64));
                }
            }
            Tensor::new(vec![n, c], out)
        }

        // ---- softmax / normalization -------------------------------------
        Op::Softmax => {
            let x = input(0);
            let d = *x.shape().last().unwrap();
            let mut out = Vec::with_capacity(x.len());
            for row in x.data().chunks(d) {
                let m = sb.max_tree(row);
                let pairs: Vec<(SVal, SVal)> = row.iter().map(|v| (*v, m)).collect();
                let shifted = sb.arith_pack(Gadget::SubPack, &pairs);
                let exps = sb.nonlin(TableFn::Exp, &shifted);
                let total = sb.sum(&exps);
                // Each scaled exp is at most SF (inputs are max-shifted).
                out.extend(sb.var_div(&exps, total, d as i64 * sf));
            }
            Tensor::new(x.shape().to_vec(), out)
        }
        Op::LayerNorm { .. } => {
            let x = input(0);
            let gamma = input(1);
            let beta = input(2);
            let d = *x.shape().last().unwrap();
            let mut out = Vec::with_capacity(x.len());
            for row in x.data().chunks(d) {
                let mean = mean_of(sb, row, d as i64);
                let pairs: Vec<(SVal, SVal)> = row.iter().map(|v| (*v, mean)).collect();
                let sq_raw = sb.arith_pack(Gadget::SqDiffPack, &pairs);
                let sq = sb.rescale(&sq_raw);
                let var = mean_of(sb, &sq, d as i64);
                let r = sb.nonlin(TableFn::Rsqrt, &[var])[0];
                let d_vals = sb.arith_pack(Gadget::SubPack, &pairs);
                let norm_raw: Vec<(SVal, SVal)> = d_vals.iter().map(|v| (*v, r)).collect();
                let norm_raw = sb.arith_pack(Gadget::MulPack, &norm_raw);
                let norm = sb.rescale(&norm_raw);
                let g_pairs: Vec<(SVal, SVal)> = norm
                    .iter()
                    .zip(gamma.data())
                    .map(|(a, b)| (*a, *b))
                    .collect();
                let scaled_raw = sb.arith_pack(Gadget::MulPack, &g_pairs);
                let scaled = sb.rescale(&scaled_raw);
                let b_pairs: Vec<(SVal, SVal)> = scaled
                    .iter()
                    .zip(beta.data())
                    .map(|(a, b)| (*a, *b))
                    .collect();
                out.extend(sb.arith_pack(Gadget::AddPack, &b_pairs));
            }
            Tensor::new(x.shape().to_vec(), out)
        }
        Op::BatchNorm => {
            let x = input(0);
            let scale = input(1);
            let offset = input(2);
            let c = *x.shape().last().unwrap();
            let pairs: Vec<(SVal, SVal)> = x
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, scale.data()[i % c]))
                .collect();
            let raw = sb.arith_pack(Gadget::MulPack, &pairs);
            let scaled = sb.rescale(&raw);
            let o_pairs: Vec<(SVal, SVal)> = scaled
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, offset.data()[i % c]))
                .collect();
            let out = sb.arith_pack(Gadget::AddPack, &o_pairs);
            Tensor::new(x.shape().to_vec(), out)
        }

        // ---- pointwise ----------------------------------------------------
        Op::Act(a) => {
            let out = apply_act(sb, Some(*a), input(0).data());
            Tensor::new(input(0).shape().to_vec(), out)
        }
        Op::Rsqrt => {
            let out = sb.nonlin(TableFn::Rsqrt, input(0).data());
            Tensor::new(input(0).shape().to_vec(), out)
        }
        Op::Sqrt => {
            let out = sb.nonlin(TableFn::Sqrt, input(0).data());
            Tensor::new(input(0).shape().to_vec(), out)
        }
        Op::Exp => {
            let out = sb.nonlin(TableFn::Exp, input(0).data());
            Tensor::new(input(0).shape().to_vec(), out)
        }
    };
    debug_assert_eq!(result.shape(), g.shape(node.output), "{}", node.op.name());
    result
}

/// Convolution via im2col + the configured matmul implementation.
#[allow(clippy::too_many_arguments)]
fn conv2d(
    sb: &mut ScheduleBuilder,
    g: &Graph,
    node: &Node,
    tensors: &[Option<Tensor<SVal>>],
    stride: (usize, usize),
    padding: Padding,
    activation: Option<Activation>,
    depthwise: bool,
) -> Tensor<SVal> {
    let x = tensors[node.inputs[0]].as_ref().expect("input lowered");
    let w = tensors[node.inputs[1]].as_ref().expect("weights lowered");
    let (n, h, wid, cin) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (kh, kw) = (w.shape()[0], w.shape()[1]);
    let cout = if depthwise { cin } else { w.shape()[3] };
    let (oh, ph, _) = zkml_model::conv_output_dim(h, kh, stride.0, padding);
    let (ow, pw, _) = zkml_model::conv_output_dim(wid, kw, stride.1, padding);
    let bias2 = node.inputs.get(2).map(|id| load_bias2(sb, g, *id));
    let zero = sb.constant(0);

    if depthwise {
        // Small per-channel dots; always direct.
        let mut out = Vec::with_capacity(n * oh * ow * cout);
        for b in 0..n {
            for oi in 0..oh {
                for oj in 0..ow {
                    for ch in 0..cout {
                        let mut xs = Vec::with_capacity(kh * kw);
                        let mut ws = Vec::with_capacity(kh * kw);
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let ii = (oi * stride.0 + ki) as isize - ph as isize;
                                let jj = (oj * stride.1 + kj) as isize - pw as isize;
                                let cell =
                                    if ii < 0 || jj < 0 || ii >= h as isize || jj >= wid as isize {
                                        zero
                                    } else {
                                        *x.get(&[b, ii as usize, jj as usize, ch])
                                    };
                                xs.push(cell);
                                ws.push(*w.get(&[ki, kj, ch, 0]));
                            }
                        }
                        let raw = sb.dot(&xs, &ws, bias2.as_ref().map(|bb| bb[ch]));
                        out.push(raw);
                    }
                }
            }
        }
        let scaled = sb.rescale(&out);
        let act = apply_act(sb, activation, &scaled);
        return Tensor::new(vec![n, oh, ow, cout], act);
    }

    // im2col: patches [n*oh*ow, kh*kw*cin], weights [kh*kw*cin, cout].
    let k = kh * kw * cin;
    let rows = n * oh * ow;
    let mut patches = Vec::with_capacity(rows * k);
    for b in 0..n {
        for oi in 0..oh {
            for oj in 0..ow {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let ii = (oi * stride.0 + ki) as isize - ph as isize;
                        let jj = (oj * stride.1 + kj) as isize - pw as isize;
                        for ci in 0..cin {
                            let cell = if ii < 0 || jj < 0 || ii >= h as isize || jj >= wid as isize
                            {
                                zero
                            } else {
                                *x.get(&[b, ii as usize, jj as usize, ci])
                            };
                            patches.push(cell);
                        }
                    }
                }
            }
        }
    }
    // Weight layout [KH, KW, Cin, Cout] is already row-major [k, cout].
    let raw = sb.matmul_raw(&patches, w.data(), rows, k, cout, bias2.as_deref());
    let scaled = sb.rescale(&raw);
    let act = apply_act(sb, activation, &scaled);
    Tensor::new(vec![n, oh, ow, cout], act)
}

/// Replay-side matrix multiply `x (rows x k) @ w (k x t)` producing RAW
/// (double-scale) outputs, honoring the configured implementation. This is
/// the point where a semantic `MatMul` schedule op is resolved against a
/// concrete layout choice.
pub(crate) fn matmul_raw_entry(
    bld: &mut CircuitBuilder,
    x: &[AValue],
    w: &[AValue],
    rows: usize,
    k: usize,
    t: usize,
    bias2: Option<&[AValue]>,
) -> Result<Vec<AValue>, BuildError> {
    match bld.cfg.choices.matmul {
        MatmulImpl::Freivalds => {
            let raw = freivalds_matmul(bld, x, w, rows, k, t)?;
            match bias2 {
                None => Ok(raw),
                Some(b) => {
                    let pairs: Vec<(AValue, AValue)> = raw
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (*r, b[i % t]))
                        .collect();
                    bld.arith_pack(Gadget::AddPack, &pairs)
                }
            }
        }
        MatmulImpl::Direct => {
            // `w` transposed once, so each output's column is a slice.
            let wt: Vec<AValue> = (0..t)
                .flat_map(|j| (0..k).map(move |i| w[i * t + j]))
                .collect();
            let mut out = Vec::with_capacity(rows * t);
            for xr in x.chunks_exact(k) {
                for (j, wc) in wt.chunks_exact(k).enumerate() {
                    out.push(bld.dot(xr, wc, bias2.map(|b| b[j]))?);
                }
            }
            Ok(out)
        }
    }
}

#[allow(unused_imports)]
use qops as _qops_used_in_docs;
