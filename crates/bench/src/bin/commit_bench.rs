//! Measures what the committed-weight column class buys: keygen time and
//! proving-key size are weight-independent (two MNIST weight sets produce
//! byte-identical keys), weight encoding is a one-time publication cost,
//! and proving against a published commitment skips it entirely. Also
//! times checking that proof against the published commitment.
//!
//! Emits a JSON document merged into `BENCH_OPT.json` as the
//! `commit_and_prove` section.

use std::time::Instant;
use zkml::OptimizerOptions;
use zkml_pcs::{Backend, Params};
use zkml_shard::DEFAULT_SRS_SEED as SRS_SEED;

const MAX_K: u32 = 15;

fn main() {
    let hw = zkml::cost::HardwareStats::cached();
    let graph_a = zkml_model::zoo::by_name("mnist").expect("mnist in zoo");
    // The same architecture with every weight perturbed: if keygen read
    // weight values, anything below would differ.
    let mut graph_b = graph_a.clone();
    for slot in graph_b.weights.iter_mut().flatten() {
        for w in slot.data_mut() {
            *w += 0.125;
        }
    }
    assert_eq!(graph_a.arch_hash(), graph_b.arch_hash());
    assert_ne!(graph_a.content_hash(), graph_b.content_hash());

    let opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
    let inputs = zkml::zero_inputs(&graph_a);
    let compile = |g: &zkml_model::Graph| {
        zkml::optimize(g, &inputs, &opts, hw)
            .expect("optimize")
            .synthesize_best()
            .expect("synthesize")
    };
    let a = compile(&graph_a);
    let b = compile(&graph_b);
    assert_eq!(a.circuit_digest(), b.circuit_digest());

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SRS_SEED);
    let params = Params::setup(Backend::Kzg, a.k, &mut rng);

    let t = Instant::now();
    let pk_a = a.keygen(&params).expect("keygen a");
    let keygen_a_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pk_b = b.keygen(&params).expect("keygen b");
    let keygen_b_s = t.elapsed().as_secs_f64();
    let pk_a_bytes = pk_a.to_bytes();
    let pk_b_bytes = pk_b.to_bytes();
    let pk_identical = pk_a_bytes == pk_b_bytes;

    // Publication: the one-time weight encoding + commitment cost.
    let t = Instant::now();
    let (wc, weights) = a.commit_weights(&params).expect("commit weights");
    let commit_s = t.elapsed().as_secs_f64();

    // Proving with the published encodings vs recommitting inline.
    let t = Instant::now();
    let proof = a
        .prove_with_weights(&params, &pk_a, &mut rng, &[], &weights)
        .expect("prove with published weights");
    let prove_published_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _ = a.prove(&params, &pk_a, &mut rng).expect("prove inline");
    let prove_inline_s = t.elapsed().as_secs_f64();

    // Verification against the published commitment: median of 7.
    let mut verify_s: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            zkml_plonk::verify_proof(&params, &pk_a.vk, a.instance(), &proof, &[], Some(&wc))
                .expect("verify published");
            t.elapsed().as_secs_f64()
        })
        .collect();
    verify_s.sort_by(f64::total_cmp);
    let verify_published_s = verify_s[verify_s.len() / 2];

    println!("{{");
    println!("\"bench\": \"commit_and_prove\",");
    println!("\"model\": \"MNIST\",");
    println!("\"k\": {},", a.k);
    println!("\"keygen_weights_a_s\": {keygen_a_s:.6},");
    println!("\"keygen_weights_b_s\": {keygen_b_s:.6},");
    println!("\"pk_bytes\": {},", pk_a_bytes.len());
    println!("\"pk_identical_across_weight_sets\": {pk_identical},");
    println!("\"commit_weights_once_s\": {commit_s:.6},");
    println!("\"prove_published_commitment_s\": {prove_published_s:.6},");
    println!("\"prove_inline_recommit_s\": {prove_inline_s:.6},");
    println!("\"verify_published_s\": {verify_published_s:.6},");
    println!("\"proof_bytes\": {}", proof.len());
    println!("}}");
    assert!(
        pk_identical,
        "proving keys must be byte-identical across weight sets"
    );
    let _ = pk_b_bytes;
}
