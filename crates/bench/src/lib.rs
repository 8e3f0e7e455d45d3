//! Shared harness for regenerating the paper's evaluation tables.
//!
//! Each `table*` binary drives this library; `all_tables` runs everything
//! and emits EXPERIMENTS.md-ready output. Absolute numbers are measured on
//! the local machine against nano-scaled models (see DESIGN.md §5); the
//! tables preserve the paper's *shapes* (who wins, rough factors,
//! crossovers), which is what the binaries report alongside the paper's
//! original numbers.

pub mod scaling;
pub mod tables;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use zkml::{compile, CircuitConfig, LayoutChoices, OptimizerOptions};
use zkml_model::Graph;
use zkml_pcs::{Backend, Params};
use zkml_tensor::{FixedPoint, Tensor};

/// Measured end-to-end numbers for one model/backend pair.
#[derive(Clone, Debug)]
pub(crate) struct EndToEnd {
    /// Model name.
    pub model: String,
    /// Grid height.
    pub k: u32,
    /// Proving wall-clock.
    pub prove: Duration,
    /// Verification wall-clock.
    pub verify: Duration,
    /// Proof size in bytes.
    pub proof_bytes: usize,
}

/// Seeded random quantized inputs for a graph.
pub fn random_inputs(g: &Graph, seed: u64, fp: FixedPoint) -> Vec<Tensor<i64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    g.inputs
        .iter()
        .map(|id| {
            let shape = g.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            let data: Vec<i64> = (0..n)
                .map(|_| fp.quantize(rng.gen_range(-1.0f32..1.0)))
                .collect();
            Tensor::new(shape, data)
        })
        .collect()
}

/// Caches per-backend params at the maximum k needed by the harness.
pub(crate) fn shared_params(backend: Backend, k: u32) -> Params {
    let mut rng = StdRng::seed_from_u64(0xD00D);
    Params::setup(backend, k, &mut rng)
}

/// Compiles under `cfg`, proves, verifies, and measures.
///
/// # Panics
///
/// Panics on any compile/prove/verify failure — harness bugs should be loud.
pub(crate) fn measure(
    g: &Graph,
    cfg: CircuitConfig,
    backend: Backend,
    params: &Params,
) -> EndToEnd {
    let fp = FixedPoint::new(cfg.numeric.scale_bits);
    let inputs = random_inputs(g, 0xBEEF, fp);
    let compiled =
        compile(g, &inputs, cfg).unwrap_or_else(|e| panic!("{}: compile failed: {e}", g.name));
    assert!(
        compiled.k <= params.k(),
        "{}: k={} exceeds params k={} — raise the harness SRS size",
        g.name,
        compiled.k,
        params.k()
    );
    let pk = compiled
        .keygen(params)
        .unwrap_or_else(|e| panic!("{}: keygen failed: {e}", g.name));
    let mut rng = StdRng::seed_from_u64(0xFACE);
    let start = Instant::now();
    let proof = compiled
        .prove(params, &pk, &mut rng)
        .unwrap_or_else(|e| panic!("{}: prove failed: {e}", g.name));
    let prove = start.elapsed();
    let start = Instant::now();
    compiled
        .verify(params, &pk.vk, &proof)
        .unwrap_or_else(|e| panic!("{}: verify failed: {e}", g.name));
    let verify = start.elapsed();
    let _ = backend;
    EndToEnd {
        model: g.name.clone(),
        k: compiled.k,
        prove,
        verify,
        proof_bytes: proof.len(),
    }
}

/// Runs the optimizer for a model, caching results per (model, backend)
/// since several tables query the same plans.
pub(crate) fn optimize_for(
    g: &Graph,
    backend: Backend,
    max_k: u32,
) -> (CircuitConfig, zkml::OptimizerReport) {
    use std::collections::HashMap;
    use std::sync::Mutex;
    type PlanCache = HashMap<(String, Backend, u32), CircuitConfig>;
    static CACHE: Mutex<Option<PlanCache>> = Mutex::new(None);
    let key = (g.name.clone(), backend, max_k);
    if let Some(cfg) = CACHE
        .lock()
        .expect("cache lock")
        .get_or_insert_with(HashMap::new)
        .get(&key)
    {
        // Re-derive a minimal report for the cached config.
        let hw = zkml::cost::HardwareStats::cached();
        let mut opts = OptimizerOptions::new(backend, max_k);
        opts.candidates = Some(vec![cfg.choices]);
        opts.n_cols_range = (cfg.num_cols, cfg.num_cols);
        let report = zkml::optimize(g, &zkml::zero_inputs(g), &opts, hw)
            .expect("cached layout became infeasible");
        return (*cfg, report);
    }
    let opts = OptimizerOptions::new(backend, max_k);
    let hw = zkml::cost::HardwareStats::cached();
    let report = zkml::optimize(g, &zkml::zero_inputs(g), &opts, hw)
        .expect("no feasible layout for benchmark model");
    CACHE
        .lock()
        .expect("cache lock")
        .get_or_insert_with(HashMap::new)
        .insert(key, report.best);
    (report.best, report)
}

/// The fixed configuration used by the Table 10 ablation: the default
/// gadget set at a fixed, model-independent column count.
pub(crate) fn fixed_configuration() -> CircuitConfig {
    let mut cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    cfg.num_cols = 40;
    cfg
}

/// Formats a duration like the paper's tables (seconds or milliseconds).
pub(crate) fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.2} ms", s * 1e3)
    }
}

/// Prints a markdown table row.
pub(crate) fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Kendall's rank correlation coefficient (for §9.5).
pub(crate) fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            let s = dx * dy;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let total = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / total
}

/// The nano model zoo in Table 5/6/7 order.
pub(crate) fn zoo() -> Vec<Graph> {
    zkml_model::zoo::all_models()
}

/// A smaller zoo subset for the slowest ablations.
pub(crate) fn small_zoo() -> Vec<Graph> {
    vec![
        zkml_model::zoo::mnist_cnn(),
        zkml_model::zoo::dlrm(),
        zkml_model::zoo::resnet18(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kendall_tau_extremes() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![10.0, 20.0, 30.0, 40.0];
        assert!((kendall_tau(&xs, &ys) - 1.0).abs() < 1e-9);
        let rev: Vec<f64> = ys.iter().rev().copied().collect();
        assert!((kendall_tau(&xs, &rev) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(2450)), "2.45 s");
        assert_eq!(fmt_duration(Duration::from_micros(6690)), "6.69 ms");
    }
}
