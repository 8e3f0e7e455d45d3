//! Proving a transformer inference (the paper's headline result, scaled to
//! a nano GPT-2 so it runs in seconds on a laptop).
//!
//! Demonstrates the pieces GPT-class models need beyond CNNs (Table 3):
//! BatchMatMul, Softmax, LayerNorm and GELU — plus the layout optimizer
//! choosing the circuit configuration.
//!
//! ```text
//! cargo run --release --example gpt2_inference
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::OptimizerOptions;
use zkml_pcs::{Backend, Params};
use zkml_tensor::FixedPoint;

fn main() {
    let model = zkml_model::zoo::gpt2();
    println!("model: {} ({} nodes)", model.name, model.nodes.len());
    let stats = zkml_model::stats(&model);
    println!(
        "params: {}, flops: {}",
        zkml_model::stats::human(stats.params),
        zkml_model::stats::human(stats.flops)
    );

    // One inference over an embedded token sequence; the schedule the
    // optimizer lowers is reused for the final synthesis.
    let opts = OptimizerOptions::new(Backend::Kzg, 16);
    let fp = FixedPoint::new(opts.numeric.scale_bits);
    let inputs = {
        let mut rng = StdRng::seed_from_u64(99);
        use rand::Rng;
        model
            .inputs
            .iter()
            .map(|id| {
                let shape = model.shape(*id).to_vec();
                let n: usize = shape.iter().product();
                let vals: Vec<i64> = (0..n)
                    .map(|_| fp.quantize(rng.gen_range(-0.5f32..0.5)))
                    .collect();
                zkml_tensor::Tensor::new(shape, vals)
            })
            .collect::<Vec<_>>()
    };

    // Let the optimizer choose gadgets + layout for this machine.
    let hw = zkml::cost::HardwareStats::cached();
    let report = zkml::optimize(&model, &inputs, &opts, hw).expect("optimize");
    println!(
        "optimizer: {} layouts in {:?}; chose {} columns at 2^{} rows (est. {:.2}s proving)",
        report.evaluated,
        report.elapsed,
        report.best.num_cols,
        report.best_k,
        report.best_cost.proving_s
    );

    let compiled = report.synthesize_best().expect("synthesize");
    let mut rng = StdRng::seed_from_u64(3);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");

    let t = std::time::Instant::now();
    let proof = compiled.prove(&params, &pk, &mut rng).expect("prove");
    println!("proved transformer inference in {:?}", t.elapsed());

    let t = std::time::Instant::now();
    compiled.verify(&params, &pk.vk, &proof).expect("verify");
    println!(
        "verified in {:?} — proof {} bytes, logits for last token: {:?}",
        t.elapsed(),
        proof.len(),
        &compiled.outputs[0]
            .data()
            .iter()
            .rev()
            .take(4)
            .map(|q| fp.dequantize(*q))
            .collect::<Vec<f32>>()
    );
}
