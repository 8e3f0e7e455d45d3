//! The evaluation model zoo (§9.1, Table 5).
//!
//! Architecture-faithful but dimension-scaled ("nano") versions of the
//! paper's eight models, with seeded synthetic weights. Proving cost depends
//! on the op mix and tensor shapes, not the weight values; scaling the
//! dimensions keeps each model's characteristic mix (conv-heavy VGG,
//! residual ResNet, depthwise MobileNet, attention GPT-2, mask-gated
//! MaskNet, interaction-heavy DLRM, UNet diffusion) while keeping circuits
//! in the 2^10..2^17-row range a single machine can regenerate tables on.

use crate::graph::{Graph, GraphBuilder, TensorId};
use crate::op::{Activation, Op, Padding};

#[allow(clippy::too_many_arguments)]
fn conv(
    b: &mut GraphBuilder,
    x: TensorId,
    cin: usize,
    cout: usize,
    k: usize,
    stride: usize,
    act: Option<Activation>,
    name: &str,
) -> TensorId {
    let w = b.weight(vec![k, k, cin, cout], &format!("{name}.w"));
    let bias = b.weight(vec![cout], &format!("{name}.b"));
    b.op(
        Op::Conv2D {
            stride: (stride, stride),
            padding: Padding::Same,
            activation: act,
        },
        &[x, w, bias],
        name,
    )
}

fn fc(
    b: &mut GraphBuilder,
    x: TensorId,
    din: usize,
    dout: usize,
    act: Option<Activation>,
    name: &str,
) -> TensorId {
    let w = b.weight(vec![din, dout], &format!("{name}.w"));
    let bias = b.weight(vec![dout], &format!("{name}.b"));
    b.op(Op::FullyConnected { activation: act }, &[x, w, bias], name)
}

/// The MNIST CNN (paper model 8): two strided convs plus a classifier head.
pub fn mnist_cnn() -> Graph {
    let mut b = GraphBuilder::new("MNIST", 0xA11CE);
    let x = b.input(vec![1, 14, 14, 1], "image");
    let c1 = conv(&mut b, x, 1, 8, 3, 2, Some(Activation::Relu), "conv1");
    let c2 = conv(&mut b, c1, 8, 16, 3, 2, Some(Activation::Relu), "conv2");
    let f = b.op(Op::Flatten, &[c2], "flatten");
    let out = fc(&mut b, f, 4 * 4 * 16, 10, None, "head");
    b.finish(vec![out])
}

/// VGG-16 on CIFAR-10 (paper model 7): 13 convolutions in five max-pooled
/// blocks plus two fully connected layers, at nano width.
pub fn vgg16() -> Graph {
    let mut b = GraphBuilder::new("VGG16", 0x5EED_0007);
    let x = b.input(vec![1, 16, 16, 3], "image");
    let cfg: &[&[usize]] = &[&[4, 4], &[8, 8], &[8, 8, 8], &[16, 16, 16], &[16, 16, 16]];
    let mut cur = x;
    let mut cin = 3;
    let mut spatial = 16usize;
    for (bi, block) in cfg.iter().enumerate() {
        for (ci, &c) in block.iter().enumerate() {
            cur = conv(
                &mut b,
                cur,
                cin,
                c,
                3,
                1,
                Some(Activation::Relu),
                &format!("b{bi}c{ci}"),
            );
            cin = c;
        }
        // The nano input is 16x16, so the fifth VGG pool would act on a
        // 1x1 map; skip pooling once fully reduced.
        if spatial >= 2 {
            cur = b.op(
                Op::MaxPool2D {
                    ksize: (2, 2),
                    stride: (2, 2),
                },
                &[cur],
                &format!("pool{bi}"),
            );
            spatial /= 2;
        }
    }
    let f = b.op(Op::Flatten, &[cur], "flatten");
    let h = fc(&mut b, f, 16, 32, Some(Activation::Relu), "fc1");
    let out = fc(&mut b, h, 32, 10, None, "fc2");
    b.finish(vec![out])
}

/// Appends a folded batch-norm (per-channel affine) with a damping scale,
/// mirroring how trained BN statistics keep residual activations bounded.
fn bn(b: &mut GraphBuilder, x: TensorId, channels: usize, name: &str) -> TensorId {
    let scale = b.weight_with(
        zkml_tensor::Tensor::from_vec(vec![0.35f32; channels]),
        &format!("{name}.scale"),
    );
    let offset = b.weight_with(
        zkml_tensor::Tensor::from_vec(vec![0.02f32; channels]),
        &format!("{name}.offset"),
    );
    b.op(Op::BatchNorm, &[x, scale, offset], name)
}

/// ResNet-18 on CIFAR-10 (paper model 6): stem plus four stages of two
/// basic residual blocks with folded batch norm, at nano width.
pub fn resnet18() -> Graph {
    let mut b = GraphBuilder::new("ResNet-18", 0x5EED_0006);
    let x = b.input(vec![1, 16, 16, 3], "image");
    let widths = [4usize, 8, 8, 8];
    let mut cur = conv(
        &mut b,
        x,
        3,
        widths[0],
        3,
        1,
        Some(Activation::Relu),
        "stem",
    );
    let mut cin = widths[0];
    for (stage, &w) in widths.iter().enumerate() {
        for blk in 0..2 {
            let stride = if stage > 0 && blk == 0 { 2 } else { 1 };
            let name = format!("s{stage}b{blk}");
            let c1 = conv(
                &mut b,
                cur,
                cin,
                w,
                3,
                stride,
                Some(Activation::Relu),
                &format!("{name}.conv1"),
            );
            let c1 = bn(&mut b, c1, w, &format!("{name}.bn1"));
            let c2 = conv(&mut b, c1, w, w, 3, 1, None, &format!("{name}.conv2"));
            let c2 = bn(&mut b, c2, w, &format!("{name}.bn2"));
            let shortcut = if stride != 1 || cin != w {
                let p = conv(
                    &mut b,
                    cur,
                    cin,
                    w,
                    1,
                    stride,
                    None,
                    &format!("{name}.proj"),
                );
                bn(&mut b, p, w, &format!("{name}.proj.bn"))
            } else {
                cur
            };
            let sum = b.op(Op::Add, &[c2, shortcut], &format!("{name}.add"));
            cur = b.op(Op::Act(Activation::Relu), &[sum], &format!("{name}.relu"));
            cin = w;
        }
    }
    let gap = b.op(Op::GlobalAvgPool, &[cur], "gap");
    let out = fc(&mut b, gap, cin, 10, None, "head");
    b.finish(vec![out])
}

/// MobileNetV2 on ImageNet (paper model 5): stem plus inverted-residual
/// blocks with depthwise convolutions and ReLU6, at nano scale.
pub(crate) fn mobilenet_v2() -> Graph {
    let mut b = GraphBuilder::new("MobileNet", 0x5EED_0005);
    let x = b.input(vec![1, 16, 16, 3], "image");
    let mut cur = conv(&mut b, x, 3, 8, 3, 2, Some(Activation::Relu6), "stem");
    cur = bn(&mut b, cur, 8, "stem.bn");
    let mut cin = 8usize;
    // (expansion, out channels, stride)
    let blocks = [(1usize, 8usize, 1usize), (2, 12, 2), (2, 12, 1), (2, 16, 2)];
    for (i, (t, c, s)) in blocks.iter().enumerate() {
        let name = format!("ir{i}");
        let hidden = cin * t;
        let expanded = if *t != 1 {
            let e = conv(
                &mut b,
                cur,
                cin,
                hidden,
                1,
                1,
                Some(Activation::Relu6),
                &format!("{name}.expand"),
            );
            bn(&mut b, e, hidden, &format!("{name}.expand.bn"))
        } else {
            cur
        };
        let dw_w = b.weight(vec![3, 3, hidden, 1], &format!("{name}.dw.w"));
        let dw_b = b.weight(vec![hidden], &format!("{name}.dw.b"));
        let dw = b.op(
            Op::DepthwiseConv2D {
                stride: (*s, *s),
                padding: Padding::Same,
                activation: Some(Activation::Relu6),
            },
            &[expanded, dw_w, dw_b],
            &format!("{name}.dw"),
        );
        let dw = bn(&mut b, dw, hidden, &format!("{name}.dw.bn"));
        let projected = conv(
            &mut b,
            dw,
            hidden,
            *c,
            1,
            1,
            None,
            &format!("{name}.project"),
        );
        let projected = bn(&mut b, projected, *c, &format!("{name}.project.bn"));
        cur = if *s == 1 && cin == *c {
            b.op(Op::Add, &[projected, cur], &format!("{name}.add"))
        } else {
            projected
        };
        cin = *c;
    }
    cur = conv(
        &mut b,
        cur,
        cin,
        32,
        1,
        1,
        Some(Activation::Relu6),
        "headconv",
    );
    let gap = b.op(Op::GlobalAvgPool, &[cur], "gap");
    let out = fc(&mut b, gap, 32, 16, None, "classifier");
    b.finish(vec![out])
}

/// DLRM (paper model 4): bottom MLP over dense features, pairwise dot
/// interactions with embedded sparse features, top MLP with sigmoid.
///
/// The paper's DLRM gathers rows from embedding tables; embedding gathers
/// with private tables are out of scope (see DESIGN.md), so the embedded
/// sparse features enter as inputs, which exercises the identical
/// interaction + MLP circuit.
pub fn dlrm() -> Graph {
    let mut b = GraphBuilder::new("DLRM", 0x5EED_0004);
    let dense = b.input(vec![1, 16], "dense");
    let emb_dim = 8usize;
    let n_sparse = 6usize;
    let sparse = b.input(vec![1, n_sparse, emb_dim], "sparse_embedded");
    // Bottom MLP: 16 -> 32 -> emb_dim.
    let h = fc(&mut b, dense, 16, 32, Some(Activation::Relu), "bot1");
    let z = fc(&mut b, h, 32, emb_dim, Some(Activation::Relu), "bot2");
    // Interaction: stack dense output with sparse embeddings, Z Z^T.
    let zr = b.op(
        Op::Reshape {
            shape: vec![1, 1, emb_dim],
        },
        &[z],
        "z3d",
    );
    let stack = b.op(Op::Concat { axis: 1 }, &[zr, sparse], "stack");
    let stack_t = b.op(
        Op::Transpose {
            perm: vec![0, 2, 1],
        },
        &[stack],
        "stack_t",
    );
    let inter = b.op(Op::BatchMatMul, &[stack, stack_t], "interact");
    let flat = b.op(Op::Flatten, &[inter], "flat");
    let joined = b.op(Op::Concat { axis: 1 }, &[z, flat], "join");
    let d = emb_dim + (n_sparse + 1) * (n_sparse + 1);
    let t1 = fc(&mut b, joined, d, 32, Some(Activation::Relu), "top1");
    let t2 = fc(&mut b, t1, 32, 16, Some(Activation::Relu), "top2");
    let out = fc(&mut b, t2, 16, 1, Some(Activation::Sigmoid), "top3");
    b.finish(vec![out])
}

/// Twitter's MaskNet recommender (paper model 3): parallel instance-guided
/// mask blocks (two-layer mask MLP, elementwise gating, layer norm) over the
/// feature embedding, followed by a scoring head.
pub fn twitter_masknet() -> Graph {
    let mut b = GraphBuilder::new("Twitter", 0x5EED_0003);
    let d = 32usize;
    let x = b.input(vec![1, d], "features");
    let ln_g = b.weight(vec![d], "ln0.gamma");
    let ln_b = b.weight(vec![d], "ln0.beta");
    let xn = b.op(Op::LayerNorm { eps: 1e-5 }, &[x, ln_g, ln_b], "ln0");
    let mut block_outputs = Vec::new();
    let block_dim = 16usize;
    for blk in 0..2 {
        let name = format!("mask{blk}");
        // Instance-guided mask: d -> 2d -> d on the raw embedding.
        let m1 = fc(
            &mut b,
            x,
            d,
            2 * d,
            Some(Activation::Relu),
            &format!("{name}.agg"),
        );
        let m2 = fc(&mut b, m1, 2 * d, d, None, &format!("{name}.proj"));
        let gated = b.op(Op::Mul, &[xn, m2], &format!("{name}.gate"));
        let hidden = fc(&mut b, gated, d, block_dim, None, &format!("{name}.hidden"));
        let g = b.weight(vec![block_dim], &format!("{name}.ln.gamma"));
        let beta = b.weight(vec![block_dim], &format!("{name}.ln.beta"));
        let normed = b.op(
            Op::LayerNorm { eps: 1e-5 },
            &[hidden, g, beta],
            &format!("{name}.ln"),
        );
        let act = b.op(
            Op::Act(Activation::Relu),
            &[normed],
            &format!("{name}.relu"),
        );
        block_outputs.push(act);
    }
    let cat = b.op(Op::Concat { axis: 1 }, &block_outputs, "concat");
    let h = fc(
        &mut b,
        cat,
        2 * block_dim,
        16,
        Some(Activation::Relu),
        "head1",
    );
    let logit = fc(&mut b, h, 16, 1, None, "head2");
    // Calibration temperature: sharpen the logit before the sigmoid so
    // engagement probabilities separate at fixed-point precision.
    let scaled = b.op(Op::DivConst { divisor: 0.125 }, &[logit], "temperature");
    let out = b.op(Op::Act(Activation::Sigmoid), &[scaled], "probability");
    b.finish(vec![out])
}

/// Distilled GPT-2 (paper model 1): pre-LN transformer blocks with
/// multi-head-style attention (single head at nano scale), GELU MLP, and a
/// language-model head. Token embedding enters as an input (see DESIGN.md).
pub fn gpt2() -> Graph {
    gpt2_config(8, 16, 2, 32)
}

/// GPT-2 with explicit (seq, d_model, layers, vocab) for scaling studies.
pub(crate) fn gpt2_config(seq: usize, d: usize, layers: usize, vocab: usize) -> Graph {
    let mut b = GraphBuilder::new("GPT-2", 0x5EED_0001);
    let x = b.input(vec![1, seq, d], "embedded_tokens");
    let mut cur = x;
    let sqrt_d = (d as f32).sqrt();
    for l in 0..layers {
        let name = format!("blk{l}");
        let g1 = b.weight(vec![d], &format!("{name}.ln1.g"));
        let b1 = b.weight(vec![d], &format!("{name}.ln1.b"));
        let ln1 = b.op(
            Op::LayerNorm { eps: 1e-5 },
            &[cur, g1, b1],
            &format!("{name}.ln1"),
        );
        let q = fc(&mut b, ln1, d, d, None, &format!("{name}.q"));
        let k = fc(&mut b, ln1, d, d, None, &format!("{name}.k"));
        let v = fc(&mut b, ln1, d, d, None, &format!("{name}.v"));
        let kt = b.op(
            Op::Transpose {
                perm: vec![0, 2, 1],
            },
            &[k],
            &format!("{name}.kt"),
        );
        let scores = b.op(Op::BatchMatMul, &[q, kt], &format!("{name}.qk"));
        let scaled = b.op(
            Op::DivConst { divisor: sqrt_d },
            &[scores],
            &format!("{name}.scale"),
        );
        let probs = b.op(Op::Softmax, &[scaled], &format!("{name}.softmax"));
        let ctx = b.op(Op::BatchMatMul, &[probs, v], &format!("{name}.ctx"));
        let attn_out = fc(&mut b, ctx, d, d, None, &format!("{name}.attn_out"));
        let res1 = b.op(Op::Add, &[cur, attn_out], &format!("{name}.res1"));
        let g2 = b.weight(vec![d], &format!("{name}.ln2.g"));
        let b2 = b.weight(vec![d], &format!("{name}.ln2.b"));
        let ln2 = b.op(
            Op::LayerNorm { eps: 1e-5 },
            &[res1, g2, b2],
            &format!("{name}.ln2"),
        );
        let m1 = fc(
            &mut b,
            ln2,
            d,
            4 * d,
            Some(Activation::Gelu),
            &format!("{name}.mlp1"),
        );
        let m2 = fc(&mut b, m1, 4 * d, d, None, &format!("{name}.mlp2"));
        cur = b.op(Op::Add, &[res1, m2], &format!("{name}.res2"));
    }
    let gf = b.weight(vec![d], "lnf.g");
    let bf = b.weight(vec![d], "lnf.b");
    let lnf = b.op(Op::LayerNorm { eps: 1e-5 }, &[cur, gf, bf], "lnf");
    let logits = fc(&mut b, lnf, d, vocab, None, "lm_head");
    b.finish(vec![logits])
}

/// A small latent diffusion denoiser (paper model 2): UNet with SiLU convs,
/// a self-attention middle block, timestep-embedding injection, and skip
/// connections through nearest-neighbour upsampling.
pub(crate) fn diffusion() -> Graph {
    let mut b = GraphBuilder::new("Diffusion", 0x5EED_0002);
    let x = b.input(vec![1, 8, 8, 4], "latent");
    let t_emb = b.input(vec![1, 8], "t_embedding");
    // Down path.
    let d1 = conv(&mut b, x, 4, 8, 3, 1, Some(Activation::Silu), "down1");
    // Inject the timestep embedding as a per-channel bias.
    let t_proj = fc(&mut b, t_emb, 8, 8, Some(Activation::Silu), "t_proj");
    let t_b = b.op(
        Op::Reshape {
            shape: vec![1, 1, 1, 8],
        },
        &[t_proj],
        "t_b",
    );
    let d1t = b.op(Op::Add, &[d1, t_b], "inject_t");
    let d2 = conv(&mut b, d1t, 8, 8, 3, 2, Some(Activation::Silu), "down2");
    // Middle: conv + single-head self-attention over 4x4 tokens.
    let mid1 = conv(&mut b, d2, 8, 8, 3, 1, Some(Activation::Silu), "mid1");
    let tokens = b.op(
        Op::Reshape {
            shape: vec![1, 16, 8],
        },
        &[mid1],
        "tokens",
    );
    let q = fc(&mut b, tokens, 8, 8, None, "attn.q");
    let k = fc(&mut b, tokens, 8, 8, None, "attn.k");
    let v = fc(&mut b, tokens, 8, 8, None, "attn.v");
    let kt = b.op(
        Op::Transpose {
            perm: vec![0, 2, 1],
        },
        &[k],
        "attn.kt",
    );
    let scores = b.op(Op::BatchMatMul, &[q, kt], "attn.qk");
    let scaled = b.op(
        Op::DivConst {
            divisor: (8f32).sqrt(),
        },
        &[scores],
        "attn.scale",
    );
    let probs = b.op(Op::Softmax, &[scaled], "attn.sm");
    let ctx = b.op(Op::BatchMatMul, &[probs, v], "attn.ctx");
    let attn = b.op(
        Op::Reshape {
            shape: vec![1, 4, 4, 8],
        },
        &[ctx],
        "attn.grid",
    );
    let mid2 = b.op(Op::Add, &[mid1, attn], "mid.res");
    // Up path with skip connection.
    let up = b.op(Op::Upsample2x, &[mid2], "up");
    let skip = b.op(Op::Concat { axis: 3 }, &[up, d1t], "skip");
    let u1 = conv(&mut b, skip, 16, 8, 3, 1, Some(Activation::Silu), "up1");
    let out = conv(&mut b, u1, 8, 4, 3, 1, None, "out");
    b.finish(vec![out])
}

/// Looks up a zoo model by name (case-insensitive, common aliases accepted).
///
/// This is the single source of truth for name-to-model resolution; the CLI
/// and the HTTP gateway both route through it.
pub fn by_name(name: &str) -> Option<Graph> {
    Some(match name.to_ascii_lowercase().as_str() {
        "mnist" => mnist_cnn(),
        "vgg16" | "vgg" => vgg16(),
        "resnet18" | "resnet-18" | "resnet" => resnet18(),
        "mobilenet" => mobilenet_v2(),
        "dlrm" => dlrm(),
        "twitter" | "masknet" => twitter_masknet(),
        "gpt2" | "gpt-2" | "gpt" => gpt2(),
        "diffusion" => diffusion(),
        _ => return None,
    })
}

/// All eight evaluation models, in the paper's Table 5 order.
pub fn all_models() -> Vec<Graph> {
    vec![
        gpt2(),
        diffusion(),
        twitter_masknet(),
        dlrm(),
        mobilenet_v2(),
        resnet18(),
        vgg16(),
        mnist_cnn(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_f32, execute_fixed};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use zkml_tensor::{FixedPoint, Tensor};

    fn random_inputs(g: &Graph, seed: u64) -> Vec<Tensor<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        g.inputs
            .iter()
            .map(|id| {
                let shape = g.shape(*id).to_vec();
                let n: usize = shape.iter().product();
                Tensor::new(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            })
            .collect()
    }

    #[test]
    fn all_models_execute_f32() {
        for g in all_models() {
            let inputs = random_inputs(&g, 1);
            let e = execute_f32(&g, &inputs);
            for out in &g.outputs {
                let t = e.value(*out);
                assert!(
                    t.data().iter().all(|v| v.is_finite()),
                    "{}: non-finite output",
                    g.name
                );
            }
        }
    }

    #[test]
    fn all_models_execute_fixed_and_track_float() {
        let fp = FixedPoint::new(14);
        for g in all_models() {
            let inputs = random_inputs(&g, 2);
            let qin: Vec<Tensor<i64>> = inputs.iter().map(|t| fp.quantize_tensor(t)).collect();
            let ef = execute_f32(&g, &inputs);
            let eq = execute_fixed(&g, &qin, fp);
            let mut max_err = 0f32;
            for out in &g.outputs {
                for (a, b) in ef.value(*out).data().iter().zip(eq.value(*out).data()) {
                    max_err = max_err.max((a - fp.dequantize(*b)).abs());
                }
            }
            assert!(
                max_err < 0.25,
                "{}: fixed-point diverged from float by {max_err}",
                g.name
            );
        }
    }

    #[test]
    fn by_name_covers_the_zoo() {
        // Every canonical CLI name resolves, matching all_models() order
        // (the paper's Table 5 order).
        let names = [
            "gpt2",
            "diffusion",
            "twitter",
            "dlrm",
            "mobilenet",
            "resnet18",
            "vgg16",
            "mnist",
        ];
        let from_names: Vec<String> = names
            .iter()
            .map(|n| by_name(n).expect("canonical name").name)
            .collect();
        let from_zoo: Vec<String> = all_models().into_iter().map(|g| g.name).collect();
        assert_eq!(from_names, from_zoo);
        // Display names, aliases, and arbitrary case also resolve.
        for alias in ["ResNet-18", "GPT-2", "vgg", "MASKNET", "Gpt"] {
            assert!(by_name(alias).is_some(), "alias {alias} should resolve");
        }
        assert!(by_name("alexnet").is_none());
    }

    #[test]
    fn model_names_match_paper_order() {
        let names: Vec<String> = all_models().into_iter().map(|g| g.name).collect();
        assert_eq!(
            names,
            vec![
                "GPT-2",
                "Diffusion",
                "Twitter",
                "DLRM",
                "MobileNet",
                "ResNet-18",
                "VGG16",
                "MNIST"
            ]
        );
    }
}
