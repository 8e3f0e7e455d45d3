//! Regenerates the §9.4 optimizer-savings comparison and emits
//! `BENCH_OPT.json`: what the plan-driven pipeline buys over the old flow.
//!
//! Two numbers per model:
//!
//! - **before**: the pre-refactor sweep emulated faithfully — every
//!   candidate layout is optimized in its own serial `optimize()` call, so
//!   the graph is re-lowered once per candidate and nothing runs in
//!   parallel (pool of 1).
//! - **after**: one `optimize()` call — a single lowering shared by all
//!   candidates, swept in parallel, with column pruning.
//!
//! Plus the sweep's evaluated/pruned counts and predicted-vs-measured
//! proving time for the winning plan (the estimate the sweep ranks on,
//! anchored against a real KZG proof of the synthesized circuit).

use std::time::Instant;
use zkml::{LayoutChoices, OptimizerOptions};
use zkml_par::{with_pool, Pool};
use zkml_pcs::{Backend, Params};
use zkml_shard::DEFAULT_SRS_SEED as SRS_SEED;

const MAX_K: u32 = 15;

struct ModelResult {
    name: String,
    before_s: f64,
    after_s: f64,
    evaluated: usize,
    pruned: usize,
    predicted_prove_s: f64,
    measured_prove_s: f64,
}

fn run_model(g: &zkml_model::Graph, hw: &zkml::cost::HardwareStats) -> ModelResult {
    let inputs = zkml::zero_inputs(g);

    // Before: serial, one lowering per candidate, no column pruning (the
    // old builder could not reuse placements across candidates).
    let t = Instant::now();
    with_pool(&Pool::new(1), || {
        for choices in LayoutChoices::candidates() {
            let mut opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
            opts.candidates = Some(vec![choices]);
            opts.prune = false;
            zkml::optimize(g, &inputs, &opts, hw).expect("optimize candidate");
        }
    });
    let before_s = t.elapsed().as_secs_f64();

    // After: one call, one lowering, parallel pruned sweep.
    let opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
    let t = Instant::now();
    let report = zkml::optimize(g, &inputs, &opts, hw).expect("optimize");
    let after_s = t.elapsed().as_secs_f64();

    // Anchor the estimate: synthesize the winning plan and prove it.
    let compiled = report.synthesize_best().expect("synthesize best");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SRS_SEED);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");
    let t = Instant::now();
    let proof = compiled.prove(&params, &pk, &mut rng).expect("prove");
    let measured_prove_s = t.elapsed().as_secs_f64();
    compiled.verify(&params, &pk.vk, &proof).expect("verify");

    ModelResult {
        name: g.name.clone(),
        before_s,
        after_s,
        evaluated: report.evaluated,
        pruned: report.pruned,
        predicted_prove_s: report.best_cost.proving_s,
        measured_prove_s,
    }
}

fn main() {
    let hw = zkml::cost::HardwareStats::cached();
    let models = [zkml_model::zoo::mnist_cnn(), zkml_model::zoo::dlrm()];
    let mut entries = Vec::new();
    for g in &models {
        let r = run_model(g, hw);
        println!(
            "{}: sweep {:.2}s -> {:.2}s ({:.1}x), {} evaluated / {} pruned, \
             proving predicted {:.2}s measured {:.2}s",
            r.name,
            r.before_s,
            r.after_s,
            r.before_s / r.after_s,
            r.evaluated,
            r.pruned,
            r.predicted_prove_s,
            r.measured_prove_s
        );
        entries.push(format!(
            "  {{\n    \"model\": \"{}\",\n    \"sweep_before_s\": {:.6},\n    \
             \"sweep_after_s\": {:.6},\n    \"speedup\": {:.3},\n    \
             \"candidates_evaluated\": {},\n    \"candidates_pruned\": {},\n    \
             \"predicted_prove_s\": {:.6},\n    \"measured_prove_s\": {:.6}\n  }}",
            r.name,
            r.before_s,
            r.after_s,
            r.before_s / r.after_s,
            r.evaluated,
            r.pruned,
            r.predicted_prove_s,
            r.measured_prove_s
        ));
    }
    let json = format!(
        "{{\n\"bench\": \"opt_savings\",\n\"max_k\": {MAX_K},\n\"models\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_OPT.json", &json).expect("write BENCH_OPT.json");
    println!("wrote BENCH_OPT.json");

    // Keep the paper-table text report alongside the JSON.
    println!("\n{}", zkml_bench::tables::opt_savings());
}
