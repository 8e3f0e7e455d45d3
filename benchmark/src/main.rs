//! The repo's gated benchmark: one workload per process, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one. See
//! `benchmark/README.md` for the vocabulary and `BENCHMARK.json` for the
//! gate's contract.
//!
//! ```text
//! zkml-benchmark --workload mnist-serve --seed 7 --seconds 10 --trace 0
//! ```

mod client;
mod compare;
mod compile;
mod prove;
mod report;
mod stats;
mod storm;
mod trace;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use zkml::HardwareStats;
use zkml_model::Graph;
use zkml_tensor::{FixedPoint, Tensor};

/// What every workload gets: its generated-input seed, its measuring
/// window, the pinned cost table and a place to write.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub traced: bool,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out: PathBuf,
    /// The checked-in cost table every layout sweep runs under.
    pub hw: HardwareStats,
    /// `(key, value)` rows of `expected-layouts.txt` for this workload.
    expected: Vec<(String, String)>,
}

/// A scratch path unique to this process.
fn scratch_path(out: &Path, workload: &str, name: &str) -> PathBuf {
    out.join(format!("{workload}-{}-{name}", std::process::id()))
}

impl Ctx {
    /// A scratch path unique to this process.
    pub fn scratch(&self, name: &str) -> PathBuf {
        scratch_path(&self.out, &self.workload, name)
    }

    /// Prints an exact row (a layout, a proof size) and compares it with the
    /// recorded expectation: a difference is flagged as `layout changed` on
    /// that row, so it is never folded into timing noise.
    pub fn exact_row(&self, report: &mut Report, key: &str, value: String) {
        let verdict = match self.expected.iter().find(|(k, _)| k == key) {
            Some((_, want)) if *want == value => String::new(),
            Some((_, want)) => format!("  # layout changed (recorded: {want})"),
            None => "  # no recorded expectation".to_string(),
        };
        report.row(format!("{key} {value}{verdict}"));
    }
}

/// The quantized inputs the proving service derives from a job's seed
/// (`zkml-service` keeps its copy private): uniform in [-1, 1), quantized at
/// the circuit's scale. The benchmark needs them to recompute what a proof's
/// public outputs must be.
pub fn synthetic_inputs(graph: &Graph, scale_bits: u32, seed: u64) -> Vec<Tensor<i64>> {
    let fp = FixedPoint::new(scale_bits);
    let mut rng = StdRng::seed_from_u64(seed);
    graph
        .inputs
        .iter()
        .map(|id| {
            let shape = graph.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            let data = (0..n)
                .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                .collect();
            Tensor::new(shape, data)
        })
        .collect()
}

/// Writes the traced run's spans to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(ctx: &Ctx, tracer: &trace::Tracer) -> Result<(), String> {
    let path = ctx.out.join(format!("trace-{}.json", ctx.workload));
    tracer
        .write_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        dir: PathBuf::from("benchmark"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.traced = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--dir" => args.dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let (head, tail) = line.split_once(" - ")?;
            let mount_point = head.split_whitespace().nth(4)?;
            let fs = tail.split_whitespace().next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_string(), |(_, fs)| fs)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

fn run(args: Args) -> Result<(), String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Pin the prover pool to the host's cores and the optimizer to the
    // checked-in cost table, before any thread or service exists. The table
    // is copied first: `HardwareStats::cached` rewrites a file it cannot
    // load, and that must never be the checked-in one.
    if std::env::var_os("ZKML_THREADS").is_none() {
        std::env::set_var("ZKML_THREADS", parallelism.to_string());
    }
    let out = args.dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let hw_copy = scratch_path(&out, &args.workload, "hw.txt");
    std::fs::copy(args.dir.join("hw-fixture.txt"), &hw_copy)
        .map_err(|e| format!("copy hw-fixture.txt: {e}"))?;
    std::env::set_var("ZKML_HW_CACHE", &hw_copy);
    let hw = HardwareStats::load(&hw_copy).ok_or("hw-fixture.txt does not parse")?;
    if HardwareStats::cached().t_msm != hw.t_msm {
        return Err("the service's cost table is not the pinned one".to_string());
    }
    let layouts = std::fs::read_to_string(args.dir.join("expected-layouts.txt"))
        .map_err(|e| format!("read expected-layouts.txt: {e}"))?;
    let expected = layouts
        .lines()
        .filter_map(|l| {
            l.strip_prefix(args.workload.as_str())?
                .trim()
                .split_once(' ')
        })
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        out,
        hw,
        expected,
    };

    let mut report = Report::default();
    let commit = std::env::var("ZKML_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    report.row(format!(
        "# workload={} seed={} seconds={} trace={} commit={commit}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.traced as u8
    ));
    report.row(format!(
        "# nproc={} available_parallelism={parallelism} ZKML_THREADS={} pool_threads={} journal_fs={}",
        online_cpus(),
        std::env::var("ZKML_THREADS").unwrap_or_default(),
        zkml_par::global().threads(),
        fs_type(&ctx.out),
    ));

    let wall = Instant::now();
    let ran = match ctx.workload.as_str() {
        "mnist-serve" => prove::run(prove::Kind::Serve, &ctx, &mut report),
        "mnist-segmented" => prove::run(prove::Kind::Segmented, &ctx, &mut report),
        "zoo-compile" => compile::run(&ctx, &mut report),
        "submit-storm" => storm::run(&ctx, &mut report),
        other => Err(format!(
            "unknown workload '{other}' (mnist-serve, mnist-segmented, zoo-compile, submit-storm)"
        )),
    };
    let _ = std::fs::remove_file(&hw_copy);
    ran?;

    let rss = peak_rss_mb();
    report.gate_unless_set("peak_rss_mb", rss);
    report.line("peak_rss_mb", rss, "MB", "VmHWM at exit");
    report.line(
        "wall_s",
        wall.elapsed().as_secs_f64(),
        "s",
        "whole workload",
    );
    report.print(ctx.traced);
    Ok(())
}

fn main() -> ExitCode {
    // `--compare <set file> <set file>`: the repeatability harness.
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, first, second] = argv.as_slice() {
        if flag == "--compare" {
            return match compare::compare(
                Path::new("BENCHMARK.json"),
                Path::new(first),
                Path::new(second),
            ) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("zkml-benchmark: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zkml-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
