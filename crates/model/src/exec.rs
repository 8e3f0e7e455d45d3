//! Reference executors: float (f32) and fixed-point (i64).
//!
//! The fixed-point executor mirrors the circuit semantics exactly (same
//! rescaling points, same lookup quantization via [`crate::qops`]); the
//! compiler uses its per-node outputs as golden witness values, and Table 8
//! compares its outputs against the f32 executor.

use crate::graph::{Graph, TensorId, TensorKind};
use crate::op::{conv_output_dim, Op, Padding};
use crate::qops;
use zkml_tensor::{FixedPoint, Tensor};

/// Results of running a graph: every tensor's value.
pub struct Execution<T> {
    /// Values indexed by `TensorId`.
    pub values: Vec<Option<Tensor<T>>>,
}

impl<T: Clone> Execution<T> {
    /// The value of a tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor was never computed.
    pub(crate) fn value(&self, id: TensorId) -> &Tensor<T> {
        self.values[id].as_ref().expect("tensor not computed")
    }

    /// The model outputs, in declaration order.
    pub fn outputs(&self, g: &Graph) -> Vec<Tensor<T>> {
        g.outputs.iter().map(|id| self.value(*id).clone()).collect()
    }
}

// ---------------------------------------------------------------------------
// f32 executor
// ---------------------------------------------------------------------------

/// Runs the graph in f32.
///
/// # Panics
///
/// Panics if the number of inputs is wrong or shapes mismatch.
pub fn execute_f32(g: &Graph, inputs: &[Tensor<f32>]) -> Execution<f32> {
    assert_eq!(inputs.len(), g.inputs.len(), "input count mismatch");
    let mut values: Vec<Option<Tensor<f32>>> = g.weights.clone();
    for (id, t) in g.inputs.iter().zip(inputs) {
        assert_eq!(g.shape(*id), t.shape(), "input shape mismatch");
        values[*id] = Some(t.clone());
    }
    for node in &g.nodes {
        let get = |i: usize| values[node.inputs[i]].as_ref().expect("input computed");
        let out = eval_f32(&node.op, &node.inputs, &values, get);
        values[node.output] = Some(out);
    }
    Execution { values }
}

fn eval_f32<'a>(
    op: &Op,
    inputs: &[TensorId],
    values: &'a [Option<Tensor<f32>>],
    get: impl Fn(usize) -> &'a Tensor<f32>,
) -> Tensor<f32> {
    match op {
        Op::Reshape { shape } => get(0).reshape(shape.clone()),
        Op::Transpose { perm } => get(0).transpose(perm),
        Op::Slice { starts, ends } => get(0).slice(starts, ends),
        Op::Concat { axis } => {
            let parts: Vec<&Tensor<f32>> = inputs
                .iter()
                .map(|i| values[*i].as_ref().expect("computed"))
                .collect();
            Tensor::concat(&parts, *axis)
        }
        Op::Pad { pads } => get(0).pad(pads, 0.0),
        Op::Squeeze { axis } => get(0).squeeze(*axis),
        Op::ExpandDims { axis } => get(0).expand_dims(*axis),
        Op::Flatten => {
            let t = get(0);
            let n: usize = t.shape()[1..].iter().product();
            t.reshape(vec![t.shape()[0], n])
        }
        Op::BroadcastTo { shape } => get(0).broadcast_to(shape),
        Op::Upsample2x => upsample2x(get(0)),
        Op::Add => get(0).zip(get(1), |a, b| a + b),
        Op::Sub => get(0).zip(get(1), |a, b| a - b),
        Op::Mul => get(0).zip(get(1), |a, b| a * b),
        Op::SquaredDifference => get(0).zip(get(1), |a, b| (a - b) * (a - b)),
        Op::DivConst { divisor } => get(0).map(|x| x / divisor),
        Op::Square => get(0).map(|x| x * x),
        Op::Sum { axis, keep_dims } => reduce_f32(get(0), *axis, *keep_dims, false),
        Op::Mean { axis, keep_dims } => reduce_f32(get(0), *axis, *keep_dims, true),
        Op::FullyConnected { activation } => {
            let y = matmul_f32(get(0), get(1), inputs.get(2).map(|_| get(2)));
            match activation {
                Some(a) => y.map(|x| a.eval(*x)),
                None => y,
            }
        }
        Op::Conv2D {
            stride,
            padding,
            activation,
        } => {
            let y = conv2d_f32(
                get(0),
                get(1),
                inputs.get(2).map(|_| get(2)),
                *stride,
                *padding,
                false,
            );
            match activation {
                Some(a) => y.map(|x| a.eval(*x)),
                None => y,
            }
        }
        Op::DepthwiseConv2D {
            stride,
            padding,
            activation,
        } => {
            let y = conv2d_f32(
                get(0),
                get(1),
                inputs.get(2).map(|_| get(2)),
                *stride,
                *padding,
                true,
            );
            match activation {
                Some(a) => y.map(|x| a.eval(*x)),
                None => y,
            }
        }
        Op::BatchMatMul => bmm_f32(get(0), get(1)),
        Op::AvgPool2D { ksize, stride } => pool_f32(get(0), *ksize, *stride, true),
        Op::MaxPool2D { ksize, stride } => pool_f32(get(0), *ksize, *stride, false),
        Op::GlobalAvgPool => {
            let x = get(0);
            let (n, h, w, c) = nhwc(x.shape());
            let mut out = vec![0f32; n * c];
            for b in 0..n {
                for ch in 0..c {
                    let mut s = 0f32;
                    for i in 0..h {
                        for j in 0..w {
                            s += *x.get(&[b, i, j, ch]);
                        }
                    }
                    out[b * c + ch] = s / (h * w) as f32;
                }
            }
            Tensor::new(vec![n, c], out)
        }
        Op::Softmax => softmax_f32(get(0)),
        Op::LayerNorm { eps } => layernorm_f32(get(0), get(1), get(2), *eps),
        Op::BatchNorm => {
            let x = get(0);
            let scale = get(1);
            let offset = get(2);
            let c = *x.shape().last().unwrap();
            let mut out = x.data().to_vec();
            for (i, v) in out.iter_mut().enumerate() {
                let ch = i % c;
                *v = *v * scale.data()[ch] + offset.data()[ch];
            }
            Tensor::new(x.shape().to_vec(), out)
        }
        Op::Act(a) => get(0).map(|x| a.eval(*x)),
        Op::Rsqrt => get(0).map(|x| 1.0 / x.max(1e-12).sqrt()),
        Op::Sqrt => get(0).map(|x| x.max(0.0).sqrt()),
        Op::Exp => get(0).map(|x| x.exp()),
    }
}

fn nhwc(s: &[usize]) -> (usize, usize, usize, usize) {
    (s[0], s[1], s[2], s[3])
}

fn upsample2x<T: Clone>(x: &Tensor<T>) -> Tensor<T> {
    let (n, h, w, c) = nhwc(x.shape());
    let mut out = Vec::with_capacity(n * h * 2 * w * 2 * c);
    for b in 0..n {
        for i in 0..2 * h {
            for j in 0..2 * w {
                for ch in 0..c {
                    out.push(x.get(&[b, i / 2, j / 2, ch]).clone());
                }
            }
        }
    }
    Tensor::new(vec![n, 2 * h, 2 * w, c], out)
}

fn reduce_f32(x: &Tensor<f32>, axis: usize, keep: bool, mean: bool) -> Tensor<f32> {
    let shape = x.shape().to_vec();
    let mut out_shape = shape.clone();
    out_shape[axis] = 1;
    let count = shape[axis];
    let n_out: usize = out_shape.iter().product();
    let mut out = vec![0f32; n_out];
    for off in 0..x.len() {
        let idx = zkml_tensor::shape::unflatten_index(&shape, off);
        let mut oidx = idx.clone();
        oidx[axis] = 0;
        out[zkml_tensor::shape::flatten_index(&out_shape, &oidx)] += x.data()[off];
    }
    if mean {
        for v in out.iter_mut() {
            *v /= count as f32;
        }
    }
    let t = Tensor::new(out_shape, out);
    if keep {
        t
    } else {
        t.squeeze(axis)
    }
}

fn matmul_f32(x: &Tensor<f32>, w: &Tensor<f32>, b: Option<&Tensor<f32>>) -> Tensor<f32> {
    let k = w.shape()[0];
    let n = w.shape()[1];
    let rows = x.len() / k;
    let mut out = vec![0f32; rows * n];
    for r in 0..rows {
        for j in 0..n {
            let mut acc = b.map(|bb| bb.data()[j]).unwrap_or(0.0);
            for i in 0..k {
                acc += x.data()[r * k + i] * w.data()[i * n + j];
            }
            out[r * n + j] = acc;
        }
    }
    let mut shape = x.shape().to_vec();
    *shape.last_mut().unwrap() = n;
    Tensor::new(shape, out)
}

fn bmm_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    let ar = a.shape().len();
    let (m, k) = (a.shape()[ar - 2], a.shape()[ar - 1]);
    let n = b.shape()[b.shape().len() - 1];
    let batch: usize = a.shape()[..ar - 2].iter().product();
    let mut out = vec![0f32; batch * m * n];
    for bt in 0..batch {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0f32;
                for l in 0..k {
                    acc += a.data()[bt * m * k + i * k + l] * b.data()[bt * k * n + l * n + j];
                }
                out[bt * m * n + i * n + j] = acc;
            }
        }
    }
    let mut shape = a.shape().to_vec();
    *shape.last_mut().unwrap() = n;
    Tensor::new(shape, out)
}

fn conv2d_f32(
    x: &Tensor<f32>,
    w: &Tensor<f32>,
    b: Option<&Tensor<f32>>,
    stride: (usize, usize),
    padding: Padding,
    depthwise: bool,
) -> Tensor<f32> {
    let (n, h, wid, cin) = nhwc(x.shape());
    let (kh, kw) = (w.shape()[0], w.shape()[1]);
    let cout = if depthwise { cin } else { w.shape()[3] };
    let (oh, ph, _) = conv_output_dim(h, kh, stride.0, padding);
    let (ow, pw, _) = conv_output_dim(wid, kw, stride.1, padding);
    let mut out = vec![0f32; n * oh * ow * cout];
    for bi in 0..n {
        for oi in 0..oh {
            for oj in 0..ow {
                for co in 0..cout {
                    let mut acc = b.map(|bb| bb.data()[co]).unwrap_or(0.0);
                    for ki in 0..kh {
                        for kj in 0..kw {
                            let ii = (oi * stride.0 + ki) as isize - ph as isize;
                            let jj = (oj * stride.1 + kj) as isize - pw as isize;
                            if ii < 0 || jj < 0 || ii >= h as isize || jj >= wid as isize {
                                continue;
                            }
                            if depthwise {
                                acc += x.get(&[bi, ii as usize, jj as usize, co])
                                    * w.get(&[ki, kj, co, 0]);
                            } else {
                                for ci in 0..cin {
                                    acc += x.get(&[bi, ii as usize, jj as usize, ci])
                                        * w.get(&[ki, kj, ci, co]);
                                }
                            }
                        }
                    }
                    out[((bi * oh + oi) * ow + oj) * cout + co] = acc;
                }
            }
        }
    }
    Tensor::new(vec![n, oh, ow, cout], out)
}

fn pool_f32(
    x: &Tensor<f32>,
    ksize: (usize, usize),
    stride: (usize, usize),
    avg: bool,
) -> Tensor<f32> {
    let (n, h, w, c) = nhwc(x.shape());
    let oh = (h - ksize.0) / stride.0 + 1;
    let ow = (w - ksize.1) / stride.1 + 1;
    let mut out = vec![0f32; n * oh * ow * c];
    for b in 0..n {
        for oi in 0..oh {
            for oj in 0..ow {
                for ch in 0..c {
                    let mut acc = if avg { 0f32 } else { f32::NEG_INFINITY };
                    for ki in 0..ksize.0 {
                        for kj in 0..ksize.1 {
                            let v = *x.get(&[b, oi * stride.0 + ki, oj * stride.1 + kj, ch]);
                            if avg {
                                acc += v;
                            } else {
                                acc = acc.max(v);
                            }
                        }
                    }
                    if avg {
                        acc /= (ksize.0 * ksize.1) as f32;
                    }
                    out[((b * oh + oi) * ow + oj) * c + ch] = acc;
                }
            }
        }
    }
    Tensor::new(vec![n, oh, ow, c], out)
}

fn softmax_f32(x: &Tensor<f32>) -> Tensor<f32> {
    let d = *x.shape().last().unwrap();
    let mut out = x.data().to_vec();
    for row in out.chunks_mut(d) {
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Tensor::new(x.shape().to_vec(), out)
}

fn layernorm_f32(
    x: &Tensor<f32>,
    gamma: &Tensor<f32>,
    beta: &Tensor<f32>,
    eps: f32,
) -> Tensor<f32> {
    let d = *x.shape().last().unwrap();
    let mut out = x.data().to_vec();
    for row in out.chunks_mut(d) {
        let mean: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let r = 1.0 / (var + eps).sqrt();
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * r * gamma.data()[j] + beta.data()[j];
        }
    }
    Tensor::new(x.shape().to_vec(), out)
}

// ---------------------------------------------------------------------------
// Fixed-point executor
// ---------------------------------------------------------------------------

/// Runs the graph in fixed point, mirroring the circuit semantics.
///
/// Weights are quantized at `SF`; biases at `SF^2` so they can be added to
/// unrescaled accumulators (as the circuit does).
pub fn execute_fixed(g: &Graph, inputs: &[Tensor<i64>], fp: FixedPoint) -> Execution<i64> {
    assert_eq!(inputs.len(), g.inputs.len(), "input count mismatch");
    let mut values: Vec<Option<Tensor<i64>>> = vec![None; g.tensors.len()];
    for (id, meta) in g.tensors.iter().enumerate() {
        if meta.kind == TensorKind::Weight {
            let w = g.weights[id].as_ref().expect("weight values");
            values[id] = Some(fp.quantize_tensor(w));
        }
    }
    for (id, t) in g.inputs.iter().zip(inputs) {
        assert_eq!(g.shape(*id), t.shape(), "input shape mismatch");
        values[*id] = Some(t.clone());
    }
    for node in &g.nodes {
        let out = eval_fixed(g, node, &values, fp);
        values[node.output] = Some(out);
    }
    Execution { values }
}

/// Evaluates a single node in fixed point (exposed for witness generation).
pub(crate) fn eval_fixed(
    g: &Graph,
    node: &crate::graph::Node,
    values: &[Option<Tensor<i64>>],
    fp: FixedPoint,
) -> Tensor<i64> {
    let sf = fp.scale();
    let get =
        |i: usize| -> &Tensor<i64> { values[node.inputs[i]].as_ref().expect("input computed") };
    // Bias at double scale (added before the rescale).
    let bias2 = |i: usize| -> Option<Tensor<i64>> {
        node.inputs.get(i).map(|id| {
            let w = g.weights[*id].as_ref().expect("bias weight");
            w.map(|x| ((*x as f64) * (sf as f64) * (sf as f64)).round() as i64)
        })
    };
    let rescale = |x: i64| qops::div_round(x, sf);
    match &node.op {
        Op::Reshape { shape } => get(0).reshape(shape.clone()),
        Op::Transpose { perm } => get(0).transpose(perm),
        Op::Slice { starts, ends } => get(0).slice(starts, ends),
        Op::Concat { axis } => {
            let parts: Vec<&Tensor<i64>> = node
                .inputs
                .iter()
                .map(|i| values[*i].as_ref().expect("computed"))
                .collect();
            Tensor::concat(&parts, *axis)
        }
        Op::Pad { pads } => get(0).pad(pads, 0),
        Op::Squeeze { axis } => get(0).squeeze(*axis),
        Op::ExpandDims { axis } => get(0).expand_dims(*axis),
        Op::Flatten => {
            let t = get(0);
            let n: usize = t.shape()[1..].iter().product();
            t.reshape(vec![t.shape()[0], n])
        }
        Op::BroadcastTo { shape } => get(0).broadcast_to(shape),
        Op::Upsample2x => upsample2x(get(0)),
        Op::Add => get(0).zip(get(1), |a, b| a + b),
        Op::Sub => get(0).zip(get(1), |a, b| a - b),
        Op::Mul => get(0).zip(get(1), |a, b| rescale(a * b)),
        Op::SquaredDifference => get(0).zip(get(1), |a, b| rescale((a - b) * (a - b))),
        Op::DivConst { divisor } => {
            let c_q = ((*divisor as f64) * sf as f64).round() as i64;
            get(0).map(|x| qops::div_const_q(*x, c_q, sf))
        }
        Op::Square => get(0).map(|x| rescale(x * x)),
        Op::Sum { axis, keep_dims } => reduce_fixed(get(0), *axis, *keep_dims, false),
        Op::Mean { axis, keep_dims } => reduce_fixed(get(0), *axis, *keep_dims, true),
        Op::FullyConnected { activation } => {
            let y = matmul_fixed(get(0), get(1), bias2(2).as_ref(), sf);
            match activation {
                Some(a) => y.map(|x| qops::act_q(*a, *x, sf)),
                None => y,
            }
        }
        Op::Conv2D {
            stride,
            padding,
            activation,
        } => {
            let y = conv2d_fixed(
                get(0),
                get(1),
                bias2(2).as_ref(),
                *stride,
                *padding,
                false,
                sf,
            );
            match activation {
                Some(a) => y.map(|x| qops::act_q(*a, *x, sf)),
                None => y,
            }
        }
        Op::DepthwiseConv2D {
            stride,
            padding,
            activation,
        } => {
            let y = conv2d_fixed(
                get(0),
                get(1),
                bias2(2).as_ref(),
                *stride,
                *padding,
                true,
                sf,
            );
            match activation {
                Some(a) => y.map(|x| qops::act_q(*a, *x, sf)),
                None => y,
            }
        }
        Op::BatchMatMul => bmm_fixed(get(0), get(1), sf),
        Op::AvgPool2D { ksize, stride } => pool_fixed(get(0), *ksize, *stride, true),
        Op::MaxPool2D { ksize, stride } => pool_fixed(get(0), *ksize, *stride, false),
        Op::GlobalAvgPool => {
            let x = get(0);
            let (n, h, w, c) = nhwc(x.shape());
            let mut out = vec![0i64; n * c];
            for b in 0..n {
                for ch in 0..c {
                    let mut s = 0i64;
                    for i in 0..h {
                        for j in 0..w {
                            s += *x.get(&[b, i, j, ch]);
                        }
                    }
                    out[b * c + ch] = qops::div_round(s, (h * w) as i64);
                }
            }
            Tensor::new(vec![n, c], out)
        }
        Op::Softmax => softmax_fixed(get(0), sf),
        Op::LayerNorm { .. } => layernorm_fixed(get(0), get(1), get(2), sf),
        Op::BatchNorm => {
            let x = get(0);
            let scale = get(1);
            let offset = get(2);
            let c = *x.shape().last().unwrap();
            let data: Vec<i64> = x
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| rescale(v * scale.data()[i % c]) + offset.data()[i % c])
                .collect();
            Tensor::new(x.shape().to_vec(), data)
        }
        Op::Act(a) => get(0).map(|x| qops::act_q(*a, *x, sf)),
        Op::Rsqrt => get(0).map(|x| qops::rsqrt_q(*x, sf)),
        Op::Sqrt => get(0).map(|x| qops::sqrt_q(*x, sf)),
        Op::Exp => get(0).map(|x| qops::exp_q(*x, sf)),
    }
}

fn reduce_fixed(x: &Tensor<i64>, axis: usize, keep: bool, mean: bool) -> Tensor<i64> {
    let shape = x.shape().to_vec();
    let mut out_shape = shape.clone();
    out_shape[axis] = 1;
    let count = shape[axis] as i64;
    let n_out: usize = out_shape.iter().product();
    let mut out = vec![0i64; n_out];
    for off in 0..x.len() {
        let idx = zkml_tensor::shape::unflatten_index(&shape, off);
        let mut oidx = idx.clone();
        oidx[axis] = 0;
        out[zkml_tensor::shape::flatten_index(&out_shape, &oidx)] += x.data()[off];
    }
    if mean {
        for v in out.iter_mut() {
            *v = qops::div_round(*v, count);
        }
    }
    let t = Tensor::new(out_shape, out);
    if keep {
        t
    } else {
        t.squeeze(axis)
    }
}

fn matmul_fixed(
    x: &Tensor<i64>,
    w: &Tensor<i64>,
    b2: Option<&Tensor<i64>>,
    sf: i64,
) -> Tensor<i64> {
    let k = w.shape()[0];
    let n = w.shape()[1];
    let rows = x.len() / k;
    let mut out = vec![0i64; rows * n];
    for r in 0..rows {
        for j in 0..n {
            let mut acc: i64 = b2.map(|bb| bb.data()[j]).unwrap_or(0);
            for i in 0..k {
                acc += x.data()[r * k + i] * w.data()[i * n + j];
            }
            out[r * n + j] = qops::div_round(acc, sf);
        }
    }
    let mut shape = x.shape().to_vec();
    *shape.last_mut().unwrap() = n;
    Tensor::new(shape, out)
}

fn bmm_fixed(a: &Tensor<i64>, b: &Tensor<i64>, sf: i64) -> Tensor<i64> {
    let ar = a.shape().len();
    let (m, k) = (a.shape()[ar - 2], a.shape()[ar - 1]);
    let n = b.shape()[b.shape().len() - 1];
    let batch: usize = a.shape()[..ar - 2].iter().product();
    let mut out = vec![0i64; batch * m * n];
    for bt in 0..batch {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i64;
                for l in 0..k {
                    acc += a.data()[bt * m * k + i * k + l] * b.data()[bt * k * n + l * n + j];
                }
                out[bt * m * n + i * n + j] = qops::div_round(acc, sf);
            }
        }
    }
    let mut shape = a.shape().to_vec();
    *shape.last_mut().unwrap() = n;
    Tensor::new(shape, out)
}

fn conv2d_fixed(
    x: &Tensor<i64>,
    w: &Tensor<i64>,
    b2: Option<&Tensor<i64>>,
    stride: (usize, usize),
    padding: Padding,
    depthwise: bool,
    sf: i64,
) -> Tensor<i64> {
    let (n, h, wid, cin) = nhwc(x.shape());
    let (kh, kw) = (w.shape()[0], w.shape()[1]);
    let cout = if depthwise { cin } else { w.shape()[3] };
    let (oh, ph, _) = conv_output_dim(h, kh, stride.0, padding);
    let (ow, pw, _) = conv_output_dim(wid, kw, stride.1, padding);
    let mut out = vec![0i64; n * oh * ow * cout];
    for bi in 0..n {
        for oi in 0..oh {
            for oj in 0..ow {
                for co in 0..cout {
                    let mut acc: i64 = b2.map(|bb| bb.data()[co]).unwrap_or(0);
                    for ki in 0..kh {
                        for kj in 0..kw {
                            let ii = (oi * stride.0 + ki) as isize - ph as isize;
                            let jj = (oj * stride.1 + kj) as isize - pw as isize;
                            if ii < 0 || jj < 0 || ii >= h as isize || jj >= wid as isize {
                                continue;
                            }
                            if depthwise {
                                acc += x.get(&[bi, ii as usize, jj as usize, co])
                                    * w.get(&[ki, kj, co, 0]);
                            } else {
                                for ci in 0..cin {
                                    acc += x.get(&[bi, ii as usize, jj as usize, ci])
                                        * w.get(&[ki, kj, ci, co]);
                                }
                            }
                        }
                    }
                    out[((bi * oh + oi) * ow + oj) * cout + co] = qops::div_round(acc, sf);
                }
            }
        }
    }
    Tensor::new(vec![n, oh, ow, cout], out)
}

fn pool_fixed(
    x: &Tensor<i64>,
    ksize: (usize, usize),
    stride: (usize, usize),
    avg: bool,
) -> Tensor<i64> {
    let (n, h, w, c) = nhwc(x.shape());
    let oh = (h - ksize.0) / stride.0 + 1;
    let ow = (w - ksize.1) / stride.1 + 1;
    let mut out = vec![0i64; n * oh * ow * c];
    for b in 0..n {
        for oi in 0..oh {
            for oj in 0..ow {
                for ch in 0..c {
                    let mut acc: i64 = if avg { 0 } else { i64::MIN };
                    for ki in 0..ksize.0 {
                        for kj in 0..ksize.1 {
                            let v = *x.get(&[b, oi * stride.0 + ki, oj * stride.1 + kj, ch]);
                            if avg {
                                acc += v;
                            } else {
                                acc = acc.max(v);
                            }
                        }
                    }
                    if avg {
                        acc = qops::div_round(acc, (ksize.0 * ksize.1) as i64);
                    }
                    out[((b * oh + oi) * ow + oj) * c + ch] = acc;
                }
            }
        }
    }
    Tensor::new(vec![n, oh, ow, c], out)
}

/// Fixed-point softmax exactly as the circuit computes it (§6.1): max-shift,
/// scaled-exp lookup, sum, then scaled-numerator rounded variable division.
pub(crate) fn softmax_fixed(x: &Tensor<i64>, sf: i64) -> Tensor<i64> {
    let d = *x.shape().last().unwrap();
    let mut out = x.data().to_vec();
    for row in out.chunks_mut(d) {
        let m = *row.iter().max().expect("nonempty row");
        let exps: Vec<i64> = row.iter().map(|v| qops::exp_q(v - m, sf)).collect();
        let sum: i64 = exps.iter().sum();
        for (v, e) in row.iter_mut().zip(&exps) {
            *v = qops::var_div_scaled(*e, sum.max(1), sf);
        }
    }
    Tensor::new(x.shape().to_vec(), out)
}

/// Fixed-point layer norm as the circuit computes it.
pub(crate) fn layernorm_fixed(
    x: &Tensor<i64>,
    gamma: &Tensor<i64>,
    beta: &Tensor<i64>,
    sf: i64,
) -> Tensor<i64> {
    let d = *x.shape().last().unwrap();
    let mut out = x.data().to_vec();
    for row in out.chunks_mut(d) {
        let mean = qops::div_round(row.iter().sum::<i64>(), d as i64);
        let sq: Vec<i64> = row
            .iter()
            .map(|v| qops::div_round((v - mean) * (v - mean), sf))
            .collect();
        let var = qops::div_round(sq.iter().sum::<i64>(), d as i64);
        let r = qops::rsqrt_q(var, sf);
        for (j, v) in row.iter_mut().enumerate() {
            let norm = qops::div_round((*v - mean) * r, sf);
            *v = qops::div_round(norm * gamma.data()[j], sf) + beta.data()[j];
        }
    }
    Tensor::new(x.shape().to_vec(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::op::Activation;

    #[test]
    fn f32_fc_matches_manual() {
        let mut b = GraphBuilder::new("t", 0);
        let x = b.input(vec![1, 2], "x");
        let w = b.weight_with(Tensor::new(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]), "w");
        let bias = b.weight_with(Tensor::from_vec(vec![0.5, -0.5]), "b");
        let y = b.op(Op::FullyConnected { activation: None }, &[x, w, bias], "fc");
        let g = b.finish(vec![y]);
        let out = execute_f32(&g, &[Tensor::new(vec![1, 2], vec![1.0, 1.0])]);
        // [1,1] @ [[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5].
        assert_eq!(out.value(y).data(), &[4.5, 5.5]);
    }

    #[test]
    fn fixed_tracks_float_for_smooth_ops() {
        let fp = FixedPoint::new(12);
        let mut b = GraphBuilder::new("t", 3);
        let x = b.input(vec![1, 8], "x");
        let w = b.weight(vec![8, 4], "w");
        let bias = b.weight(vec![4], "b");
        let h = b.op(
            Op::FullyConnected {
                activation: Some(Activation::Relu),
            },
            &[x, w, bias],
            "fc1",
        );
        let w2 = b.weight(vec![4, 2], "w2");
        let y = b.op(Op::FullyConnected { activation: None }, &[h, w2], "fc2");
        let s = b.op(Op::Softmax, &[y], "sm");
        let g = b.finish(vec![s]);

        let xf = Tensor::new(vec![1, 8], (0..8).map(|i| (i as f32 - 4.0) / 4.0).collect());
        let xq = fp.quantize_tensor(&xf);
        let ef = execute_f32(&g, &[xf]);
        let eq = execute_fixed(&g, &[xq], fp);
        for (a, b) in ef.value(s).data().iter().zip(eq.value(s).data()) {
            let bq = fp.dequantize(*b);
            assert!((a - bq).abs() < 0.02, "float {a} vs fixed {bq}");
        }
        // Softmax outputs sum to ~SF.
        let total: i64 = eq.value(s).data().iter().sum();
        assert!((total - fp.scale()).abs() <= 2, "sum {total}");
    }

    #[test]
    fn maxpool_and_avgpool() {
        let mut b = GraphBuilder::new("t", 0);
        let x = b.input(vec![1, 2, 2, 1], "x");
        let mp = b.op(
            Op::MaxPool2D {
                ksize: (2, 2),
                stride: (2, 2),
            },
            &[x],
            "mp",
        );
        let g = b.finish(vec![mp]);
        let inp = Tensor::new(vec![1, 2, 2, 1], vec![1i64, 5, 3, 2]);
        let e = execute_fixed(&g, &[inp], FixedPoint::new(8));
        assert_eq!(e.value(mp).data(), &[5]);
    }

    #[test]
    fn conv_same_padding_fixed_vs_float() {
        let fp = FixedPoint::new(12);
        let mut b = GraphBuilder::new("t", 5);
        let x = b.input(vec![1, 5, 5, 2], "x");
        let w = b.weight(vec![3, 3, 2, 3], "w");
        let bias = b.weight(vec![3], "b");
        let y = b.op(
            Op::Conv2D {
                stride: (2, 2),
                padding: Padding::Same,
                activation: Some(Activation::Relu),
            },
            &[x, w, bias],
            "conv",
        );
        let g = b.finish(vec![y]);
        let xf = Tensor::new(
            vec![1, 5, 5, 2],
            (0..50).map(|i| ((i % 7) as f32 - 3.0) / 3.0).collect(),
        );
        let xq = fp.quantize_tensor(&xf);
        let ef = execute_f32(&g, &[xf]);
        let eq = execute_fixed(&g, &[xq], fp);
        assert_eq!(ef.value(y).shape(), &[1, 3, 3, 3]);
        for (a, b) in ef.value(y).data().iter().zip(eq.value(y).data()) {
            assert!((a - fp.dequantize(*b)).abs() < 0.01);
        }
    }

    #[test]
    fn layernorm_fixed_tracks_float() {
        let fp = FixedPoint::new(12);
        let mut b = GraphBuilder::new("t", 9);
        let x = b.input(vec![2, 6], "x");
        let gamma = b.weight_with(Tensor::from_vec(vec![1.0f32; 6]), "g");
        let beta = b.weight_with(Tensor::from_vec(vec![0.0f32; 6]), "b");
        let y = b.op(Op::LayerNorm { eps: 1e-5 }, &[x, gamma, beta], "ln");
        let g = b.finish(vec![y]);
        let xf = Tensor::new(
            vec![2, 6],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -1.0, 0.5, 2.0, -0.5, 1.5, 0.0],
        );
        let xq = fp.quantize_tensor(&xf);
        let ef = execute_f32(&g, &[xf]);
        let eq = execute_fixed(&g, &[xq], fp);
        for (a, b) in ef.value(y).data().iter().zip(eq.value(y).data()) {
            assert!(
                (a - fp.dequantize(*b)).abs() < 0.05,
                "{a} vs {}",
                fp.dequantize(*b)
            );
        }
    }
}
