//! Soundness tests for the Freivalds-checked matrix multiplication path:
//! forged outputs on a Freivalds-compiled model must be rejected, and the
//! phase-1 machinery must be exercised (challenge-dependent witness).

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml::{compile, CircuitConfig, LayoutChoices, MatmulImpl};
use zkml_ff::Fr;
use zkml_model::{Activation, GraphBuilder, Op};
use zkml_pcs::{Backend, Params};
use zkml_plonk::verify_proof;
use zkml_tensor::{FixedPoint, Tensor};

fn fc_model() -> zkml_model::Graph {
    let mut gb = GraphBuilder::new("freivalds-forgery", 3);
    let x = gb.input(vec![1, 6], "x");
    let w = gb.weight(vec![6, 6], "w");
    let b = gb.weight(vec![6], "b");
    let y = gb.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w, b],
        "fc",
    );
    gb.finish(vec![y])
}

#[test]
fn forged_output_on_freivalds_model_rejected() {
    let g = fc_model();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    assert!(matches!(cfg.choices.matmul, MatmulImpl::Freivalds));
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let input = fp.quantize_tensor(&Tensor::new(
        vec![1, 6],
        vec![0.3f32, -0.1, 0.8, 0.0, -0.6, 0.4],
    ));
    let compiled = compile(&g, &[input], cfg).unwrap();
    // Phase-1 columns must exist (Freivalds is in use).
    assert!(compiled.cs.num_challenges > 0, "challenge phase expected");
    let mut rng = StdRng::seed_from_u64(9);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).unwrap();
    let proof = compiled.prove(&params, &pk, &mut rng).unwrap();
    compiled.verify(&params, &pk.vk, &proof).unwrap();

    // Forge each of the first few output positions; all must be rejected.
    for i in 0..compiled.instance()[0].len().min(3) {
        let mut forged = compiled.instance()[0].clone();
        forged[i] += Fr::ONE;
        assert!(
            verify_proof(&params, &pk.vk, &[forged], &proof, &[], None).is_err(),
            "forged output {i} accepted"
        );
    }
}

#[test]
fn proofs_differ_per_input_but_share_keys() {
    let g = fc_model();
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let in1 = fp.quantize_tensor(&Tensor::new(vec![1, 6], vec![0.5f32; 6]));
    let in2 = fp.quantize_tensor(&Tensor::new(vec![1, 6], vec![-0.5f32; 6]));
    let c1 = compile(&g, &[in1], cfg).unwrap();
    let c2 = compile(&g, &[in2], cfg).unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let params = Params::setup(Backend::Kzg, c1.k, &mut rng);
    let pk1 = c1.keygen(&params).unwrap();
    let pk2 = c2.keygen(&params).unwrap();
    // Circuit structure is input-independent: same keys.
    assert_eq!(pk1.vk.digest, pk2.vk.digest);
    // Proofs for different inputs verify only against their own outputs.
    let p1 = c1.prove(&params, &pk1, &mut rng).unwrap();
    let p2 = c2.prove(&params, &pk2, &mut rng).unwrap();
    c1.verify(&params, &pk1.vk, &p1).unwrap();
    c2.verify(&params, &pk1.vk, &p2).unwrap();
    assert!(c1.verify(&params, &pk1.vk, &p2).is_err());
    assert!(c2.verify(&params, &pk1.vk, &p1).is_err());
}
