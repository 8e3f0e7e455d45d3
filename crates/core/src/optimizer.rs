//! The circuit-layout optimizer (Algorithm 1 of the paper).
//!
//! Runs the three-stage pipeline: the model is lowered to an
//! [`OpSchedule`] **once**, then each logical layout's column range is
//! searched with row-exact [`place`]ments — in parallel over the logical
//! layouts via [`zkml_par::par_map`] — every placed layout is costed with
//! the hardware-calibrated model, and the cheapest [`LayoutPlan`] is kept.
//! The winner is never re-lowered: [`OptimizerReport::synthesize_best`]
//! replays the already-built schedule under the winning plan.
//!
//! # The plateau-edge search
//!
//! For one logical layout, write `k(c)` for the grid height placement
//! needs at `c` columns, with `k(c) = ∞` when the layout cannot be
//! expressed at `c` columns. The search relies on two invariants:
//!
//! 1. `k` never rises as columns are added: `k(c + 1) <= k(c)`.
//! 2. At a fixed `k`, the score (proving time or proof size, KZG or IPA)
//!    never falls as columns are added: every extra column adds FFTs,
//!    MSMs and proof elements and removes none.
//!
//! The column range therefore splits into plateaus of equal `k`, and
//! within a plateau the cheapest point is its left edge. Since ties go to
//! the earliest column, the exhaustive sweep's winner is always a plateau
//! edge, so placing only the points needed to find the edges picks the
//! same plan, `k` and cost. `sweep_candidate` places the widest column
//! count first (if that is over `max_k`, by invariant 1 nothing narrower
//! fits and the layout is dropped), then the narrowest, and then bisects
//! between placed points, skipping every interval whose two ends share a
//! `k` (or are both over `max_k`). This finds the first column count
//! within `max_k` and every plateau edge after it, and places each
//! (layout, column) point at most once. `crates/core/tests/optimizer_props.rs`
//! checks both invariants; were one to fail for some model, the search
//! could miss the cheapest layout, but any plan it returns is still one it
//! placed within `max_k`. `OptimizerOptions::prune = false` places every
//! point (the Table 12 ablation).
//!
//! # Determinism
//!
//! The sweep is bit-identical at any `ZKML_THREADS`. Each logical layout
//! is searched independently (no candidate's search depends on another
//! candidate's results), ties within a layout go to the fewest columns,
//! results are collected in candidate order, and the winner is reduced
//! with a strict less-than in that order — the earliest candidate wins
//! ties, exactly as a serial left-to-right sweep would.

use crate::compiler::{place, synthesize, CompiledCircuit, LayoutPlan, ZkmlError};
use crate::config::{CircuitConfig, LayoutChoices, NumericConfig, Objective};
use crate::cost::{estimate, CostEstimate, HardwareStats};
use crate::layers::lower_graph;
use crate::schedule::OpSchedule;
use std::time::{Duration, Instant};
use zkml_model::Graph;
use zkml_pcs::Backend;
use zkml_tensor::Tensor;

/// Options controlling the search.
#[derive(Clone)]
pub struct OptimizerOptions {
    /// What to minimize.
    pub objective: Objective,
    /// Commitment backend being targeted.
    pub backend: Backend,
    /// Largest `k` the params/SRS support.
    pub max_k: u32,
    /// Inclusive column-count sweep range (`N_min..=N_max`).
    pub n_cols_range: (usize, usize),
    /// Search each layout's column range for its `k`-plateau edges
    /// instead of placing every column count (the Table 12 ablation turns
    /// this off; the winner is the same either way).
    pub prune: bool,
    /// Logical layouts to consider; `None` = the full candidate set.
    pub candidates: Option<Vec<LayoutChoices>>,
    /// Fixed-point configuration.
    pub numeric: NumericConfig,
}

impl OptimizerOptions {
    /// Sensible defaults for a backend.
    pub fn new(backend: Backend, max_k: u32) -> Self {
        Self {
            objective: Objective::ProvingTime,
            backend,
            max_k,
            n_cols_range: (8, 40),
            prune: true,
            candidates: None,
            numeric: NumericConfig::default_nano(),
        }
    }
}

/// One evaluated physical layout.
#[derive(Clone, Debug)]
pub struct EvaluatedLayout {
    /// The configuration.
    pub cfg: CircuitConfig,
    /// Chosen grid height.
    pub k: u32,
    /// Estimated cost.
    pub cost: CostEstimate,
}

/// The optimizer's result.
pub struct OptimizerReport {
    /// The winning configuration.
    pub best: CircuitConfig,
    /// Its grid height.
    pub best_k: u32,
    /// Its estimated cost.
    pub best_cost: CostEstimate,
    /// The winning physical layout, ready for [`synthesize`] — final
    /// compilation reuses it instead of re-lowering the model.
    pub best_plan: LayoutPlan,
    /// The schedule the sweep (and final synthesis) replayed; built by
    /// exactly one `lower_graph` execution.
    pub schedule: OpSchedule,
    /// Number of (layout, column) points placed, including those the
    /// layout could not express.
    pub evaluated: usize,
    /// Number of (layout, column) points never placed; `evaluated +
    /// pruned` is the number of candidates times the column range.
    pub pruned: usize,
    /// Wall-clock optimizer runtime.
    pub elapsed: Duration,
    /// Every placed layout within `max_k`, in candidate order and, within
    /// a candidate, by column count (for cost-model accuracy studies,
    /// §9.5). With `prune` on this holds each plateau edge plus the points
    /// the search placed to find them; with it off, every feasible point.
    pub all: Vec<EvaluatedLayout>,
}

impl OptimizerReport {
    /// Stage 3 for the sweep winner: synthesizes the witness by replaying
    /// the stored schedule under the winning plan. No second lowering and
    /// no re-placement happen; the plan's structure is cross-checked
    /// against what synthesis produces.
    pub fn synthesize_best(&self) -> Result<CompiledCircuit, ZkmlError> {
        synthesize(&self.schedule, &self.best_plan)
    }

    /// Runs the static underconstrained-circuit analyzer over **every**
    /// layout in [`all`](OptimizerReport::all) — not just the winner; set
    /// `prune = false` to cover the whole column range — by re-placing
    /// each evaluated configuration (placement is deterministic, so this
    /// reproduces the exact candidate plan), synthesizing it, and
    /// analyzing the result. Layouts are processed in parallel on the
    /// `zkml-par` pool; results come back in sweep order as
    /// `(configuration, report)` pairs.
    ///
    /// This is the gadget-zoo guarantee extended to the optimizer: a
    /// layout bug that only manifests at one column count or gadget mix
    /// cannot hide in a candidate the cost model happened to reject.
    pub fn analyze_all_layouts(
        &self,
    ) -> Result<Vec<(CircuitConfig, zkml_analyze::AnalysisReport)>, ZkmlError> {
        let results = zkml_par::par_map(self.all.len(), |i| {
            let cfg = self.all[i].cfg;
            let plan = place(&self.schedule, cfg)?;
            Ok((cfg, crate::compiler::analyze_plan(&self.schedule, &plan)?))
        });
        results.into_iter().collect()
    }
}

/// Zero-valued inputs with the graph's declared shapes. Layouts are
/// input-independent, so these are enough for sweeps that never prove.
pub fn zero_inputs(g: &Graph) -> Vec<Tensor<i64>> {
    g.inputs
        .iter()
        .map(|id| Tensor::full(g.shape(*id).to_vec(), 0i64))
        .collect()
}

fn score(objective: Objective, c: &CostEstimate) -> f64 {
    match objective {
        Objective::ProvingTime => c.proving_s,
        Objective::ProofSize => c.proof_bytes as f64,
    }
}

/// Per-candidate sweep result; merged in candidate order by [`optimize`].
#[derive(Default)]
struct CandidateSweep {
    all: Vec<EvaluatedLayout>,
    best: Option<(EvaluatedLayout, LayoutPlan)>,
    evaluated: usize,
    pruned: usize,
}

/// One logical layout's search: what it places under, and what it found.
struct LayoutSearch<'a> {
    sched: &'a OpSchedule,
    choices: LayoutChoices,
    opts: &'a OptimizerOptions,
    hw: &'a HardwareStats,
    out: CandidateSweep,
}

impl LayoutSearch<'_> {
    /// Places one column count, costs it if it fits within `max_k`, and
    /// keeps it if it beats the best so far (ties go to fewer columns, so
    /// the result does not depend on the order points are placed in).
    /// Returns the placed `k`, or `None` if the layout cannot express the
    /// model at this width or needs more than `max_k`.
    fn probe(&mut self, num_cols: usize) -> Option<u32> {
        let cfg = CircuitConfig {
            choices: self.choices,
            num_cols,
            numeric: self.opts.numeric,
        };
        self.out.evaluated += 1;
        let plan = place(self.sched, cfg)
            .ok()
            .filter(|p| p.k <= self.opts.max_k)?;
        let k = plan.k;
        let cost = estimate(&plan.stats, k, self.opts.backend, self.hw);
        let entry = EvaluatedLayout { cfg, k, cost };
        self.out.all.push(entry.clone());
        let objective = self.opts.objective;
        let s = score(objective, &cost);
        let better = self.out.best.as_ref().is_none_or(|(b, _)| {
            let bs = score(objective, &b.cost);
            s < bs || (s == bs && num_cols < b.cfg.num_cols)
        });
        if better {
            self.out.best = Some((entry, plan));
        }
        Some(k)
    }

    /// Places the points strictly between two placed column counts `a < b`
    /// that can hold a plateau edge: none when both ends read the same (by
    /// invariant 1 the interval is then one plateau, or all infeasible),
    /// otherwise the midpoint and then each half.
    fn bisect(&mut self, (a, ka): (usize, Option<u32>), (b, kb): (usize, Option<u32>)) {
        if ka == kb || b - a < 2 {
            return;
        }
        let mid = a + (b - a) / 2;
        let km = self.probe(mid);
        self.bisect((a, ka), (mid, km));
        self.bisect((mid, km), (b, kb));
    }
}

/// Sweeps one logical layout across the column range, independently of
/// every other candidate (the parallel-determinism invariant).
///
/// With `opts.prune` this is the plateau-edge search of the module docs.
/// A point is either infeasible (unexpressible or over `max_k`) or has a
/// `k`; by invariant 1 the feasible points are a suffix of the range with
/// `k` non-increasing along it. So a layout whose widest point is
/// infeasible is dropped after one placement; otherwise the narrowest
/// point is placed too, and `bisect` places points between known ones
/// only while the two ends differ. That finds the first feasible point and
/// every plateau edge after it. By invariant 2 every point left out costs
/// at least as much as the plateau edge to its left, so the winner equals
/// the exhaustive sweep's.
fn sweep_candidate(
    sched: &OpSchedule,
    choices: LayoutChoices,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> CandidateSweep {
    let (lo, hi) = opts.n_cols_range;
    let mut search = LayoutSearch {
        sched,
        choices,
        opts,
        hw,
        out: CandidateSweep::default(),
    };
    if hi < lo {
        return search.out;
    }
    if !opts.prune {
        for c in lo..=hi {
            search.probe(c);
        }
    } else if let k_hi @ Some(_) = search.probe(hi) {
        if lo < hi {
            let k_lo = search.probe(lo);
            search.bisect((lo, k_lo), (hi, k_hi));
        }
    }
    let mut out = search.out;
    out.all.sort_by_key(|e| e.cfg.num_cols);
    out.pruned = hi + 1 - lo - out.evaluated;
    out
}

/// Runs Algorithm 1: lowers the model once, sweeps every candidate layout
/// in parallel, and returns the cheapest plan (or
/// [`ZkmlError::NoFeasibleLayout`] if nothing fits within `max_k`).
///
/// `inputs` are the quantized model inputs; pass [`zero_inputs`] when the
/// winner will not be synthesized. Supplying real inputs lets
/// [`OptimizerReport::synthesize_best`] produce a provable circuit from
/// the same single lowering.
pub fn optimize(
    g: &Graph,
    inputs: &[Tensor<i64>],
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<OptimizerReport, ZkmlError> {
    let sched = lower_graph(g, inputs, opts.numeric);
    optimize_schedule(sched, opts, hw)
}

/// Runs the layout sweep over an already-built schedule.
///
/// Segmented proving cuts one lowering into several sub-schedules and
/// optimizes each independently; this entry skips `lower_graph` so the
/// "lower exactly once" invariant holds across all segments of a model.
pub fn optimize_schedule(
    sched: OpSchedule,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<OptimizerReport, ZkmlError> {
    let start = Instant::now();
    let candidates = opts
        .candidates
        .clone()
        .unwrap_or_else(LayoutChoices::candidates);

    let sweeps = zkml_par::par_map(candidates.len(), |i| {
        sweep_candidate(&sched, candidates[i], opts, hw)
    });

    // Serial-order reduction: strict less-than keeps the earliest
    // candidate on ties, matching a left-to-right serial sweep.
    let mut best: Option<(EvaluatedLayout, LayoutPlan)> = None;
    let mut all = Vec::new();
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    for sweep in sweeps {
        all.extend(sweep.all);
        evaluated += sweep.evaluated;
        pruned += sweep.pruned;
        if let Some((entry, plan)) = sweep.best {
            let better = best
                .as_ref()
                .map(|(b, _)| score(opts.objective, &entry.cost) < score(opts.objective, &b.cost))
                .unwrap_or(true);
            if better {
                best = Some((entry, plan));
            }
        }
    }

    let (best, best_plan) = best.ok_or(ZkmlError::NoFeasibleLayout { max_k: opts.max_k })?;
    Ok(OptimizerReport {
        best: best.cfg,
        best_k: best.k,
        best_cost: best.cost,
        best_plan,
        schedule: sched,
        evaluated,
        pruned,
        elapsed: start.elapsed(),
        all,
    })
}
