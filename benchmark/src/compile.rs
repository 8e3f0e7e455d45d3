//! `zoo-compile`: the compiler alone. Every zoo model goes through
//! `lower_graph` → `optimize` (full sweep, `max_k` 15) → `synthesize_best` →
//! `ensure_determined`; nothing is proved and no socket is opened, so an
//! optimizer or analyzer change shows here and a kernel change must not.

use crate::report::Report;
use crate::stats::{median, summarize};
use crate::trace::{spanned, SpanId, Tracer};
use crate::{synthetic_inputs, Ctx};
use std::time::Instant;
use zkml::{
    optimize_schedule, CompiledCircuit, HardwareStats, OpSchedule, OptimizerOptions,
    OptimizerReport,
};
use zkml_ff::PrimeField;
use zkml_model::Graph;
use zkml_pcs::Backend;
use zkml_tensor::{FixedPoint, Tensor};

/// Largest circuit the sweep may choose (the service's default).
pub const MAX_K: u32 = 15;

/// What compiling one model once took, by stage (ms), and what it chose.
struct ModelPass {
    lower_ms: f64,
    optimize_ms: f64,
    synthesize_ms: f64,
    determined_ms: f64,
    evaluated: usize,
    pruned: usize,
    layout: (u32, usize, usize),
}

impl ModelPass {
    fn total_ms(&self) -> f64 {
        self.lower_ms + self.optimize_ms + self.synthesize_ms + self.determined_ms
    }
}

/// `lower_graph` inside a `core.lower` span; returns the schedule and the ms
/// the call took.
pub fn lower_stage(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    job: u64,
    g: &Graph,
    inputs: &[Tensor<i64>],
    opts: &OptimizerOptions,
) -> (OpSchedule, f64) {
    spanned(tracer, "core.lower", parent, job, |_| {
        zkml::layers::lower_graph(g, inputs, opts.numeric)
    })
}

/// What sweeping, synthesizing and checking one schedule produced and took.
pub struct Swept {
    pub sweep: OptimizerReport,
    pub compiled: CompiledCircuit,
    /// What `ensure_determined` said; the caller decides what a failure is.
    pub determined: Result<(), String>,
    pub optimize_ms: f64,
    pub synthesize_ms: f64,
    pub determined_ms: f64,
}

/// `optimize_schedule` → `synthesize_best` → `ensure_determined`, each in its
/// own span: the compile every job and every zoo model goes through.
pub fn sweep_stages(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    job: u64,
    hw: &HardwareStats,
    sched: OpSchedule,
    opts: &OptimizerOptions,
) -> Result<Swept, String> {
    let (sweep, optimize_ms) = spanned(tracer, "core.optimize", parent, job, |_| {
        optimize_schedule(sched, opts, hw)
    });
    let sweep = sweep.map_err(|e| format!("optimize: {e}"))?;
    let (compiled, synthesize_ms) = spanned(tracer, "core.synthesize", parent, job, |_| {
        sweep.synthesize_best()
    });
    let compiled = compiled.map_err(|e| format!("synthesize: {e}"))?;
    let (determined, determined_ms) =
        spanned(tracer, "analyze.ensure_determined", parent, job, |_| {
            compiled.ensure_determined()
        });
    Ok(Swept {
        sweep,
        compiled,
        determined: determined.map_err(|e| e.to_string()),
        optimize_ms,
        synthesize_ms,
        determined_ms,
    })
}

/// Compiles one model, timing the four public calls. On the first pass the
/// compiled circuit's outputs are also checked against the fixed-point
/// reference executor (an interpreter the compiler does not share code
/// paths with), outside the timed calls.
fn compile_model(
    ctx: &Ctx,
    tracer: Option<&Tracer>,
    g: &Graph,
    inputs: &[Tensor<i64>],
    check_outputs: bool,
    report: &mut Report,
) -> Result<ModelPass, String> {
    let opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
    let (sched, lower_ms) = lower_stage(tracer, None, 0, g, inputs, &opts);
    let Swept {
        sweep,
        compiled,
        determined,
        optimize_ms,
        synthesize_ms,
        determined_ms,
    } = sweep_stages(tracer, None, 0, &ctx.hw, sched, &opts)
        .map_err(|e| format!("{}: {e}", g.name))?;
    report.attempt(
        "compile",
        determined.map_err(|e| format!("{}: {e}", g.name)),
    );
    if check_outputs {
        let fp = FixedPoint::new(opts.numeric.scale_bits);
        let want: Vec<i64> = zkml_model::execute_fixed(g, inputs, fp)
            .outputs(g)
            .iter()
            .flat_map(|t| t.data().to_vec())
            .collect();
        let got: Vec<i64> = compiled.instance()[0]
            .iter()
            .map(|v| v.to_signed_i128() as i64)
            .collect();
        report.attempt(
            "check",
            (got == want).then_some(()).ok_or(format!(
                "{}: circuit outputs differ from the reference executor",
                g.name
            )),
        );
    }
    Ok(ModelPass {
        lower_ms,
        optimize_ms,
        synthesize_ms,
        determined_ms,
        evaluated: sweep.evaluated,
        pruned: sweep.pruned,
        layout: (
            sweep.best_k,
            sweep.best.num_cols,
            sweep.best_plan.stats.rows,
        ),
    })
}

/// One pass over the whole zoo.
struct Pass {
    models: Vec<ModelPass>,
    /// Wall time of the pass, output checks included.
    wall_s: f64,
}

impl Pass {
    /// Time inside the four compiler calls, summed over the models.
    fn compile_s(&self) -> f64 {
        self.models.iter().map(ModelPass::total_ms).sum::<f64>() / 1e3
    }
}

/// Runs whole passes over the zoo until the next one would overrun
/// `seconds` (always at least one).
fn timed_passes(
    ctx: &Ctx,
    tracer: Option<&Tracer>,
    models: &[(Graph, Vec<Tensor<i64>>)],
    seconds: f64,
    report: &mut Report,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes
        .last()
        .is_none_or(|p| start.elapsed().as_secs_f64() + p.wall_s <= seconds)
    {
        let t = Instant::now();
        let first = passes.is_empty() && tracer.is_none();
        let models = models
            .iter()
            .map(|(g, inputs)| compile_model(ctx, tracer, g, inputs, first, report))
            .collect::<Result<Vec<_>, _>>()?;
        passes.push(Pass {
            models,
            wall_s: t.elapsed().as_secs_f64(),
        });
    }
    Ok(passes)
}

/// Sum over the models of a pass, then the median over passes.
fn pass_median(passes: &[Pass], f: impl Fn(&ModelPass) -> f64) -> f64 {
    let sums: Vec<f64> = passes
        .iter()
        .map(|p| p.models.iter().map(&f).sum())
        .collect();
    median(&sums)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up is everything before the first timed pass: graph construction
    // (weights come from fixed seeds), input generation, and one untimed
    // compile of the cheapest model so the first timed pass does not pay for
    // first-touch allocation or lazily built tables. It cannot be repeated
    // in one process, so `setup_s` is a single sample here.
    let setup_start = Instant::now();
    let graphs = zkml_model::zoo::all_models();
    let scale_bits = OptimizerOptions::new(Backend::Kzg, MAX_K)
        .numeric
        .scale_bits;
    let models: Vec<(Graph, Vec<Tensor<i64>>)> = graphs
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let inputs = synthetic_inputs(&g, scale_bits, ctx.seed.wrapping_add(i as u64));
            (g, inputs)
        })
        .collect();
    let (warm_g, warm_in) = models.last().expect("the zoo is not empty");
    compile_model(ctx, None, warm_g, warm_in, false, &mut Report::default())?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let schedules_before = zkml::schedules_built();
    let window = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let window_start = Instant::now();
    let passes = timed_passes(ctx, None, &models, window, report)?;
    let window_s = window_start.elapsed().as_secs_f64();
    let schedules_per_pass = (zkml::schedules_built() - schedules_before) / passes.len();

    let pass_s: Vec<f64> = passes.iter().map(Pass::compile_s).collect();
    let compile = summarize(&pass_s);
    let determined_ms = pass_median(&passes, |m| m.determined_ms);
    let compiled_models = (passes.len() * models.len()) as f64;
    report.line(
        "setup_s",
        setup_s,
        "s",
        "graphs, inputs and one warm-up compile; n=1",
    );
    report.median_line("compile_s", &compile, "s");
    for (i, (g, _)) in models.iter().enumerate() {
        let per_model: Vec<f64> = passes
            .iter()
            .map(|p| p.models[i].total_ms() / 1e3)
            .collect();
        report.median_line(
            &format!("compile_s.{}", g.name),
            &summarize(&per_model),
            "s",
        );
        let (k, cols, rows) = passes[0].models[i].layout;
        ctx.exact_row(
            report,
            &format!("core.layout.{}", g.name),
            format!("k={k} cols={cols} rows={rows}"),
        );
    }
    report.gate("setup_s", setup_s);
    report.gate("request_ms", compile.median * 1e3);
    report.gate("check_ms", determined_ms);
    report.gate("throughput", compiled_models / window_s);

    if ctx.traced {
        let tracer = Tracer::new();
        let pool_before = zkml_par::global().metrics();
        let traced = timed_passes(ctx, Some(&tracer), &models, window, report)?;
        report.pool_delta(&pool_before, &zkml_par::global().metrics());
        let traced_s: Vec<f64> = traced.iter().map(Pass::compile_s).collect();
        report.layer("core.lower_ms", pass_median(&traced, |m| m.lower_ms));
        report.layer("core.optimize_ms", pass_median(&traced, |m| m.optimize_ms));
        report.layer(
            "core.synthesize_ms",
            pass_median(&traced, |m| m.synthesize_ms),
        );
        report.layer(
            "analyze.ensure_determined_ms",
            pass_median(&traced, |m| m.determined_ms),
        );
        report.layer(
            "core.candidates_evaluated",
            pass_median(&traced, |m| m.evaluated as f64),
        );
        report.layer(
            "core.candidates_pruned",
            pass_median(&traced, |m| m.pruned as f64),
        );
        report.layer("core.schedules_built", schedules_per_pass as f64);
        report.layer(
            "core.layout_k",
            pass_median(&traced, |m| f64::from(m.layout.0)),
        );
        report.layer(
            "core.layout_cols",
            pass_median(&traced, |m| m.layout.1 as f64),
        );
        report.layer(
            "core.layout_rows",
            pass_median(&traced, |m| m.layout.2 as f64),
        );
        // The spans have no children, so coverage is the part of the traced
        // passes' wall time the four calls account for.
        let wall_s: f64 = traced.iter().map(|p| p.wall_s).sum();
        report.layer("trace_coverage", traced_s.iter().sum::<f64>() / wall_s);
        report.layer("trace_overhead", median(&traced_s) / compile.median);
        crate::write_trace(ctx, &tracer)?;
    }
    Ok(())
}
