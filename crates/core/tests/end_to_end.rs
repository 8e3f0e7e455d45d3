//! End-to-end compiler tests: graph -> circuit -> proof -> verification,
//! plus cross-checks between the circuit witness and the fixed-point
//! reference executor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkml::{compile, CircuitConfig, LayoutChoices, MatmulImpl, ReluImpl};
use zkml_ff::{Field, Fr};
use zkml_model::{execute_fixed, Activation, Graph, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_tensor::{FixedPoint, Tensor};

fn random_inputs(g: &Graph, seed: u64, fp: FixedPoint) -> Vec<Tensor<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    g.inputs
        .iter()
        .map(|id| {
            let shape = g.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            let data: Vec<i64> = (0..n)
                .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                .collect();
            Tensor::new(shape, data)
        })
        .collect()
}

/// A small but representative model: FC + relu + softmax head.
fn small_mlp() -> Graph {
    let mut b = GraphBuilder::new("tiny-mlp", 77);
    let x = b.input(vec![1, 6], "x");
    let w1 = b.weight(vec![6, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 4], "w2");
    let b2 = b.weight(vec![4], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    let s = b.op(Op::Softmax, &[y], "softmax");
    b.finish(vec![s])
}

fn cfg(choices: LayoutChoices) -> CircuitConfig {
    let mut c = CircuitConfig::default_with(choices);
    c.num_cols = 16;
    c
}

#[test]
fn circuit_witness_matches_reference_executor() {
    let g = small_mlp();
    let config = cfg(LayoutChoices::optimized());
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 1, fp);
    let compiled = compile(&g, &inputs, config).unwrap();
    let reference = execute_fixed(&g, &inputs, fp);
    let expect = reference.outputs(&g);
    assert_eq!(compiled.outputs.len(), expect.len());
    for (a, b) in compiled.outputs.iter().zip(&expect) {
        assert_eq!(a, b, "circuit and executor disagree");
    }
}

#[test]
fn all_layout_choices_agree_on_outputs() {
    let g = small_mlp();
    let base_cfg = cfg(LayoutChoices::optimized());
    let fp = FixedPoint::new(base_cfg.numeric.scale_bits);
    let inputs = random_inputs(&g, 2, fp);
    let reference = compile(&g, &inputs, base_cfg).unwrap().outputs;
    for choices in LayoutChoices::candidates() {
        let compiled = match compile(&g, &inputs, cfg(choices)) {
            Ok(c) => c,
            Err(e) => panic!("{choices:?} failed to compile: {e}"),
        };
        assert_eq!(compiled.outputs, reference, "{choices:?} changed semantics");
    }
}

#[test]
fn prove_and_verify_kzg() {
    let g = small_mlp();
    let config = cfg(LayoutChoices::optimized());
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 3, fp);
    let compiled = compile(&g, &inputs, config).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let params = Params::setup(Backend::Kzg, compiled.k.max(13), &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
    compiled.verify(&params, &pk.vk, &proof).unwrap();
    assert!(!proof.is_empty());
}

#[test]
fn prove_and_verify_ipa() {
    let g = small_mlp();
    // Direct matmul for the IPA test (exercise a different config).
    let mut choices = LayoutChoices::optimized();
    choices.matmul = MatmulImpl::Direct;
    let config = cfg(choices);
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 4, fp);
    let compiled = compile(&g, &inputs, config).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let params = Params::setup(Backend::Ipa, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
    compiled.verify(&params, &pk.vk, &proof).unwrap();
}

#[test]
fn freivalds_and_direct_prove_identical_statements() {
    let g = small_mlp();
    let fp = FixedPoint::new(7);
    let inputs = random_inputs(&g, 5, fp);
    let mut rng = StdRng::seed_from_u64(44);
    let params = Params::setup(Backend::Kzg, 13, &mut rng);
    for matmul in [MatmulImpl::Freivalds, MatmulImpl::Direct] {
        let mut choices = LayoutChoices::optimized();
        choices.matmul = matmul;
        let compiled = compile(&g, &inputs, cfg(choices)).unwrap();
        let pk = compiled.keygen(&params).unwrap();
        let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
        compiled
            .verify(&params, &pk.vk, &proof)
            .unwrap_or_else(|e| panic!("{matmul:?}: {e}"));
    }
}

#[test]
fn wrong_output_claim_rejected() {
    let g = small_mlp();
    let config = cfg(LayoutChoices::optimized());
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 6, fp);
    let compiled = compile(&g, &inputs, config).unwrap();
    let mut rng = StdRng::seed_from_u64(45);
    let params = Params::setup(Backend::Kzg, compiled.k.max(13), &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
    // Claiming different public outputs must fail.
    let mut bad_instance = compiled.instance()[0].clone();
    bad_instance[0] += Fr::one();
    assert!(
        zkml_plonk::verify_proof(&params, &pk.vk, &[bad_instance], &proof, &[], None).is_err(),
        "forged output accepted"
    );
}

#[test]
fn relu_bit_decomposition_proves() {
    let mut b = GraphBuilder::new("relu-net", 9);
    let x = b.input(vec![1, 8], "x");
    let y = b.op(Op::Act(Activation::Relu), &[x], "relu");
    let g = b.finish(vec![y]);
    let mut choices = LayoutChoices::optimized();
    choices.relu = ReluImpl::BitDecompose;
    let config = cfg(choices);
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 7, fp);
    let compiled = compile(&g, &inputs, config).unwrap();
    let mut rng = StdRng::seed_from_u64(46);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
    compiled.verify(&params, &pk.vk, &proof).unwrap();
}

#[test]
fn placement_structure_matches_synthesis() {
    let g = small_mlp();
    let config = cfg(LayoutChoices::optimized());
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 8, fp);
    let real = compile(&g, &inputs, config).unwrap();
    // A plan placed from a zero-input schedule must predict the real
    // circuit's structure exactly (layouts are input-independent).
    let sched = zkml::layers::lower_graph(&g, &zkml::zero_inputs(&g), config.numeric);
    let plan = zkml::place(&sched, config).unwrap();
    assert_eq!(real.k, plan.k, "planned k mismatch");
    assert_eq!(real.stats, plan.stats, "planned stats mismatch");
    assert_eq!(real.cs, plan.cs, "planned constraint system mismatch");
    assert_eq!(real.circuit_digest(), plan.digest());
    // And synthesizing the same schedule under the plan round-trips.
    let synth = zkml::synthesize(&sched, &plan).unwrap();
    assert_eq!(synth.k, plan.k);
}

#[test]
fn mnist_cnn_proves_and_verifies() {
    let g = zkml_model::zoo::mnist_cnn();
    let config = cfg(LayoutChoices::optimized());
    let fp = FixedPoint::new(config.numeric.scale_bits);
    let inputs = random_inputs(&g, 9, fp);
    let compiled = compile(&g, &inputs, config).unwrap();
    // Cross-check against the reference executor.
    let reference = execute_fixed(&g, &inputs, fp).outputs(&g);
    assert_eq!(compiled.outputs, reference);
    let mut rng = StdRng::seed_from_u64(47);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
    compiled.verify(&params, &pk.vk, &proof).unwrap();
    eprintln!(
        "MNIST: k={}, rows={}, advice={}, lookups={}, proof={}B",
        compiled.k,
        compiled.stats.rows,
        compiled.stats.num_advice,
        compiled.stats.num_lookups,
        proof.len()
    );
}
