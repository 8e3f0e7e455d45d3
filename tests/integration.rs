//! Workspace-level integration tests: optimizer + compiler + proving system
//! working together across crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::{compile, CircuitConfig, LayoutChoices, Objective, OptimizerOptions};
use zkml_model::{execute_fixed, Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_tensor::{FixedPoint, Tensor};

fn tiny_model() -> zkml_model::Graph {
    let mut b = GraphBuilder::new("integration-mlp", 21);
    let x = b.input(vec![1, 8], "x");
    let w1 = b.weight(vec![8, 16], "w1");
    let b1 = b.weight(vec![16], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![16, 4], "w2");
    let b2 = b.weight(vec![4], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    let s = b.op(Op::Softmax, &[y], "sm");
    b.finish(vec![s])
}

fn quantized_input(fp: FixedPoint) -> Vec<Tensor<i64>> {
    let vals: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) / 5.0).collect();
    vec![fp.quantize_tensor(&Tensor::new(vec![1, 8], vals))]
}

#[test]
fn optimizer_chooses_a_config_that_proves() {
    let g = tiny_model();
    let hw = zkml::cost::HardwareStats::cached();
    let opts = OptimizerOptions::new(Backend::Kzg, 14);
    let fp = FixedPoint::new(opts.numeric.scale_bits);
    let inputs = quantized_input(fp);
    let report = zkml::optimize(&g, &inputs, &opts, hw).expect("optimize");
    assert!(report.evaluated > 0);
    assert!(report.best_k <= 14);

    // The winning plan synthesizes without re-lowering the graph.
    let compiled = report.synthesize_best().expect("synthesize best layout");
    assert_eq!(compiled.k, report.best_k, "planned k must match real k");
    let mut rng = StdRng::seed_from_u64(1);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");
    let proof = compiled.prove(&params, &pk, &mut rng).expect("prove");
    compiled.verify(&params, &pk.vk, &proof).expect("verify");
}

#[test]
fn size_objective_reduces_estimated_proof_size() {
    let g = tiny_model();
    let hw = zkml::cost::HardwareStats::cached();
    let mut opts = OptimizerOptions::new(Backend::Kzg, 14);
    let inputs = zkml::zero_inputs(&g);
    opts.objective = Objective::ProvingTime;
    let time_opt = zkml::optimize(&g, &inputs, &opts, hw).expect("optimize");
    opts.objective = Objective::ProofSize;
    let size_opt = zkml::optimize(&g, &inputs, &opts, hw).expect("optimize");
    assert!(
        size_opt.best_cost.proof_bytes <= time_opt.best_cost.proof_bytes,
        "size-optimized layout must not have a larger estimated proof"
    );
}

#[test]
fn pruning_finds_the_same_plan() {
    // The paper's Table 12 property: pruning changes runtime, not the plan.
    let g = tiny_model();
    let hw = zkml::cost::HardwareStats::cached();
    let mut opts = OptimizerOptions::new(Backend::Kzg, 14);
    let inputs = zkml::zero_inputs(&g);
    opts.prune = true;
    let pruned = zkml::optimize(&g, &inputs, &opts, hw).expect("optimize");
    opts.prune = false;
    let full = zkml::optimize(&g, &inputs, &opts, hw).expect("optimize");
    assert_eq!(pruned.best, full.best);
    assert!(pruned.evaluated <= full.evaluated);
}

#[test]
fn circuit_outputs_match_reference_for_every_zoo_model() {
    // Count-free structural check plus witness agreement, without proving
    // (proving each zoo model is covered by the bench harness).
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    for g in zkml_model::zoo::all_models() {
        let mut rng = StdRng::seed_from_u64(11);
        use rand::Rng;
        let inputs: Vec<Tensor<i64>> = g
            .inputs
            .iter()
            .map(|id| {
                let shape = g.shape(*id).to_vec();
                let n: usize = shape.iter().product();
                Tensor::new(
                    shape,
                    (0..n)
                        .map(|_| fp.quantize(rng.gen_range(-0.8..0.8)))
                        .collect(),
                )
            })
            .collect();
        let compiled = compile(&g, &inputs, cfg)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", g.name));
        let reference = execute_fixed(&g, &inputs, fp).outputs(&g);
        assert_eq!(compiled.outputs, reference, "{} witness mismatch", g.name);
    }
}

#[test]
fn proofs_are_transferable_between_equal_compilations() {
    // Two compilations of the same model+input produce interchangeable
    // verification contexts (circuit structure is deterministic).
    let g = tiny_model();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let inputs = quantized_input(fp);
    let a = compile(&g, &inputs, cfg).unwrap();
    let b = compile(&g, &inputs, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let params = Params::setup(Backend::Kzg, a.k, &mut rng);
    let pk_a = a.keygen(&params).unwrap();
    let pk_b = b.keygen(&params).unwrap();
    assert_eq!(pk_a.vk.digest, pk_b.vk.digest, "keys must be reproducible");
    let proof = a.prove(&params, &pk_a, &mut rng).unwrap();
    // Verify the proof produced under compilation A with B's key.
    b.verify(&params, &pk_b.vk, &proof).unwrap();
}

#[test]
fn ipa_and_kzg_agree_on_the_statement() {
    let g = tiny_model();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let inputs = quantized_input(fp);
    let compiled = compile(&g, &inputs, cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for backend in [Backend::Kzg, Backend::Ipa] {
        let params = Params::setup(backend, compiled.k, &mut rng);
        let pk = compiled.keygen(&params).unwrap();
        let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
        compiled
            .verify(&params, &pk.vk, &proof)
            .unwrap_or_else(|e| panic!("{backend}: {e}"));
    }
}
