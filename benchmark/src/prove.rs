//! `mnist-serve` and `mnist-segmented`: one closed-loop client proving MNIST
//! through an in-process journaled gateway with one service worker.
//!
//! * `mnist-serve` publishes the model once (`POST /v1/models`) and submits
//!   prove jobs that reference the published digest — the deployment the
//!   stack was built for, with every layer on the path.
//! * `mnist-segmented` submits the same jobs with `"segments":3`: the
//!   inline-weights path, three concurrent k=10 proofs per job, one bundle
//!   and one batched pairing at verification.
//!
//! The untraced run gives the end-to-end metrics as the client sees them.
//! The traced run replays the same job seeds three ways — over HTTP with
//! client spans, directly through `ProvingService`, and call by call through
//! the library — so each layer's share of a job can be read off.

use crate::client::{Artifacts, Client, Published};
use crate::compile::{lower_stage, sweep_stages, MAX_K};
use crate::report::Report;
use crate::stats::{median, summarize};
use crate::trace::{spanned, SpanId, Tracer};
use crate::{synthetic_inputs, Ctx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zkml::{
    cut_schedule, CompiledCircuit, HardwareStats, LayoutPlan, OpSchedule, OptimizerOptions,
    OptimizerReport, SegmentPlan, ZkmlError,
};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_model::Graph;
use zkml_net::{Gateway, GatewayConfig};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{verify_proof_committed, ProvingKey, VerifyingKey};
use zkml_poly::{Coeffs, EvaluationDomain};
use zkml_service::{decode_public, JobSpec, ProvingService, ServiceConfig};
use zkml_shard::{CompiledSegment, FreshKeySource, KeySource, SegmentSpec, SegmentedProof};
use zkml_tensor::{FixedPoint, Tensor};

/// Which of the two prove workloads runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Serve,
    Segmented,
}

const MODEL: &str = "MNIST";
const SEGMENTS: usize = 3;
/// Gateways started (fresh journal, fresh SRS, fresh key cache) for `setup_s`.
const SETUP_REPS: usize = 3;
/// Client-side verifications timed per downloaded proof or bundle.
const VERIFY_REPS: usize = 5;
/// Jobs replayed directly through the service and through the library in the
/// traced run.
const REPLAYS: usize = 3;
/// Largest |dequantized public output − f32 executor output| accepted. The
/// circuit computes at scale 2^6, so one unit in the last place is 0.0156;
/// the observed worst case over MNIST's two convolutions and head is below a
/// third of this.
const F32_TOLERANCE: f32 = 0.25;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        max_k: MAX_K,
        ..ServiceConfig::default()
    }
}

fn start_gateway(journal: &Path) -> Result<Gateway, String> {
    Gateway::start(GatewayConfig {
        service: service_config(),
        journal: Some(journal.to_path_buf()),
        ..GatewayConfig::default()
    })
    .map_err(|e| format!("start gateway: {e}"))
}

/// A running gateway, the client talking to it, what was published on it,
/// and what the client needs to verify downloads.
struct Session<'a> {
    kind: Kind,
    graph: &'a Graph,
    /// The client's own SRS, regenerated from the public seed.
    keys: &'a FreshKeySource,
    gateway: Gateway,
    journal: PathBuf,
    client: Client,
    published: Option<Published>,
}

/// The job seeds of a run, generated from `--seed`; kept below 2^53 so they
/// survive any JSON number handling on the way.
fn job_seeds(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..256).map(|_| rng.gen_range(0..1u64 << 53)).collect()
}

fn job_body(kind: Kind, seed: u64, published: Option<&Published>) -> String {
    let tail = match (kind, published) {
        (Kind::Serve, Some(p)) => format!("\"model_digest\":\"{}\"", p.digest_hex),
        _ => format!("\"segments\":{SEGMENTS}"),
    };
    format!("{{\"model\":\"{MODEL}\",\"tenant\":\"bench\",\"seed\":{seed},{tail}}}")
}

/// What the proof's public outputs must be for a job seed, from the two
/// reference executors of `zkml-model` (neither is on the proving path).
struct Reference {
    fixed: Vec<i64>,
    float: Vec<f32>,
    fp: FixedPoint,
}

fn reference(graph: &Graph, seed: u64) -> Reference {
    let scale_bits = OptimizerOptions::new(Backend::Kzg, MAX_K)
        .numeric
        .scale_bits;
    let fp = FixedPoint::new(scale_bits);
    let inputs = synthetic_inputs(graph, scale_bits, seed);
    let float_in: Vec<_> = inputs.iter().map(|t| fp.dequantize_tensor(t)).collect();
    fn flat<T: Clone>(outs: Vec<Tensor<T>>) -> Vec<T> {
        outs.iter().flat_map(|t| t.data().to_vec()).collect()
    }
    Reference {
        fixed: flat(zkml_model::execute_fixed(graph, &inputs, fp).outputs(graph)),
        float: flat(zkml_model::execute_f32(graph, &float_in).outputs(graph)),
        fp,
    }
}

/// Checks a proof's public outputs against the references. Both prove
/// workloads must equal the fixed-point executor exactly, which also makes
/// them equal to each other for the same seed.
fn check_outputs(public: &[Fr], want: &Reference) -> Result<(), String> {
    let got: Vec<i64> = public.iter().map(|v| v.to_signed_i128() as i64).collect();
    if got != want.fixed {
        return Err(format!(
            "public outputs {got:?} differ from the fixed-point executor's {:?}",
            want.fixed
        ));
    }
    let worst = got
        .iter()
        .zip(&want.float)
        .map(|(q, f)| (want.fp.dequantize(*q) - f).abs())
        .fold(0f32, f32::max);
    if worst > F32_TOLERANCE {
        return Err(format!(
            "dequantized outputs are {worst} from the f32 executor (tolerance {F32_TOLERANCE})"
        ));
    }
    Ok(())
}

impl Session<'_> {
    /// Client-side verification of downloaded artifacts, as `zkml verify`
    /// does it: a monolithic proof against its vk and the *published*
    /// commitment, a bundle through `zkml_shard::verify_bundle` against the
    /// model's hash. `proof` is `a.proof`, or a tampered copy. Returns the
    /// public outputs.
    fn verify(&self, a: &Artifacts, proof: &[u8]) -> Result<Vec<Fr>, String> {
        if a.bundle {
            let bundle = SegmentedProof::from_bytes(proof).map_err(|e| e.to_string())?;
            if bundle.model_hash != self.graph.content_hash() {
                return Err("bundle is for another model".to_string());
            }
            zkml_shard::verify_bundle(&bundle, |b, k| self.keys.params(b, k))
                .map_err(|e| e.to_string())?;
            return Ok(bundle.public_outputs().to_vec());
        }
        let published = self
            .published
            .as_ref()
            .ok_or("monolithic proof without a published commitment")?;
        if a.model_digest.as_deref() != Some(published.digest_hex.as_str()) {
            return Err("job does not reference the published digest".to_string());
        }
        let vk = VerifyingKey::from_bytes(&a.vk).map_err(|e| format!("vk: {e}"))?;
        let (backend, instance) = decode_public(&a.public).map_err(|e| format!("public: {e}"))?;
        let params = self.keys.params(backend, vk.k);
        let settled = verify_proof_committed(
            &params,
            &vk,
            std::slice::from_ref(&instance),
            proof,
            &[],
            Some(&published.commitment),
        )
        .map_err(|e| e.to_string())?
        .settle(&params);
        settled
            .then_some(instance)
            .ok_or("pairing check failed".to_string())
    }

    /// Generates the client's SRS for every circuit size in the artifacts,
    /// so `verify_ms` times verification and not parameter generation.
    fn warm_client_params(&self, a: &Artifacts) {
        match SegmentedProof::from_bytes(&a.proof) {
            Ok(bundle) if a.bundle => {
                for seg in &bundle.segments {
                    self.keys.params(bundle.backend, seg.k);
                }
            }
            _ => {
                self.keys.params(Backend::Kzg, a.k);
            }
        }
    }

    /// Runs one job over HTTP, downloads, verifies and checks it.
    fn job(
        &self,
        seed: u64,
        phase: &'static str,
        tracer: Option<&Tracer>,
        window: &mut Window,
        report: &mut Report,
    ) {
        let body = job_body(self.kind, seed, self.published.as_ref());
        let (done, _) = spanned(tracer, "bench.http_job", None, seed, |parent| {
            self.client.run_job(&body, tracer, parent, seed)
        });
        let (status, times) = match done {
            Ok(ok) => ok,
            Err(e) => return report.attempt(phase, Err(e)),
        };
        report.attempt(phase, Ok(()));
        window.job_s.push(times.job_ms / 1e3);
        window.post_ms.push(times.post_ms);
        window.get_ms.extend(&times.polls_ms);
        window.download_ms.extend(times.polls_ms.last());
        let artifacts = match Artifacts::from_status(&status) {
            Ok(a) => a,
            Err(e) => return report.attempt("check", Err(e)),
        };
        self.warm_client_params(&artifacts);
        let mut verified = Err("never verified".to_string());
        for _ in 0..VERIFY_REPS {
            let (outcome, ms) = spanned(tracer, "bench.client_verify", None, seed, |_| {
                self.verify(&artifacts, &artifacts.proof)
            });
            window.verify_ms.push(ms);
            verified = outcome;
        }
        let outputs =
            verified.and_then(|public| check_outputs(&public, &reference(self.graph, seed)));
        report.attempt("check", outputs.map_err(|e| format!("seed {seed}: {e}")));
        window.last = Some(artifacts);
    }

    /// Closed loop: the next job is submitted when the previous one has been
    /// downloaded and verified; no job starts after `seconds`.
    fn window(
        &self,
        seeds: &[u64],
        seconds: f64,
        phase: &'static str,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Window {
        let mut window = Window::default();
        let start = Instant::now();
        for seed in seeds {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            self.job(*seed, phase, tracer, &mut window, report);
        }
        window.elapsed_s = start.elapsed().as_secs_f64();
        window
    }

    /// Flips one proof byte — of a seeded segment's proof inside a bundle —
    /// and expects rejection. Only proof bytes: a flipped byte in a bundle's
    /// embedded verifying key can still panic the verifier on the seed
    /// commit (ROADMAP item 3b), and a workload must not crash on its own
    /// inputs.
    fn flipped_byte_rejected(&self, a: &Artifacts, seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flip = |bytes: &mut Vec<u8>| {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 0x01;
            at
        };
        let mut proof = a.proof.clone();
        let at = if a.bundle {
            let mut bundle = SegmentedProof::from_bytes(&proof).map_err(|e| e.to_string())?;
            let seg = seed as usize % bundle.segments.len();
            let at = flip(&mut bundle.segments[seg].proof);
            proof = bundle.to_bytes();
            at
        } else {
            flip(&mut proof)
        };
        match self.verify(a, &proof) {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("proof with byte {at} flipped was accepted")),
        }
    }
}

/// What one window of closed-loop jobs measured at the client.
#[derive(Default)]
struct Window {
    job_s: Vec<f64>,
    post_ms: Vec<f64>,
    get_ms: Vec<f64>,
    /// The terminal GET of each job, which carries the hex artifacts.
    download_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    elapsed_s: f64,
    /// The artifacts of the window's last job.
    last: Option<Artifacts>,
}

/// `Ok` when a counter that must stay at zero did.
fn zero(count: usize, what: &str) -> Result<(), String> {
    (count == 0).then_some(()).ok_or(format!("{count} {what}"))
}

pub fn run(kind: Kind, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let graph = Arc::new(zkml_model::zoo::by_name(MODEL).ok_or("MNIST is not in the zoo")?);
    let seeds = job_seeds(ctx.seed);
    let (setup_seeds, seeds) = seeds.split_at(SETUP_REPS);
    let keys = FreshKeySource::default();
    let tracer = ctx.traced.then(Tracer::new);

    // Set-up: Gateway::start → publish → first job terminal. Every repeat
    // pays for SRS generation, the layout sweep, keygen and the first proof
    // again; the last gateway stays up for the warm phase.
    let mut setup_s = Vec::new();
    let mut setup_keygens = 0;
    let mut live: Option<Session> = None;
    let reps = if ctx.traced { 1 } else { SETUP_REPS };
    for (rep, seed) in setup_seeds.iter().take(reps).enumerate() {
        if let Some(old) = live.take() {
            old.gateway.shutdown();
            let _ = std::fs::remove_file(old.journal);
        }
        let journal = ctx.scratch(&format!("journal-{rep}.jsonl"));
        let keygens_before = zkml_plonk::keygen::keygens();
        let t = Instant::now();
        let gateway = start_gateway(&journal)?;
        let client = Client::new(gateway.local_addr());
        let published = match kind {
            Kind::Serve => Some(client.publish(MODEL)?),
            Kind::Segmented => None,
        };
        let body = job_body(kind, *seed, published.as_ref());
        let first = client.run_job(&body, None, None, *seed);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_keygens = zkml_plonk::keygen::keygens() - keygens_before;
        report.attempt("setup", first.map(|_| ()));
        live = Some(Session {
            kind,
            graph: &graph,
            keys: &keys,
            gateway,
            journal,
            client,
            published,
        });
    }
    let session = live.expect("at least one set-up repeat");

    // Warm phase. The traced run splits the window: one half untraced, one
    // half traced over the same seeds, so the two medians give the tracing
    // overhead.
    let seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let keygens_before = zkml_plonk::keygen::keygens();
    let encodings_before = zkml_plonk::keygen::weight_encodings();
    let pool_before = zkml_par::global().metrics();
    let warm = session.window(seeds, seconds, "warm", None, report);
    let pool_after = zkml_par::global().metrics();
    let warm_keygens = zkml_plonk::keygen::keygens() - keygens_before;
    let warm_encodings = zkml_plonk::keygen::weight_encodings() - encodings_before;
    report.attempt("check", zero(warm_keygens, "keygens in the warm phase"));
    if kind == Kind::Serve {
        report.attempt(
            "check",
            zero(warm_encodings, "weight encodings in the warm phase"),
        );
    }
    let last = warm
        .last
        .as_ref()
        .ok_or("no job completed in the warm phase")?;
    report.attempt("check", session.flipped_byte_rejected(last, ctx.seed));
    let traced_window = tracer
        .as_ref()
        .map(|t| session.window(seeds, seconds, "traced", Some(t), report));

    let Session {
        gateway, journal, ..
    } = session;
    gateway.shutdown();
    report.attempt(
        "check",
        crate::storm::completed_exactly_once(&journal).map(|_| ()),
    );
    let _ = std::fs::remove_file(&journal);

    let setup = summarize(&setup_s);
    let job = summarize(&warm.job_s);
    let verify = summarize(&warm.verify_ms);
    let jobs_per_s = job.n as f64 / warm.elapsed_s;
    report.row(format!(
        "# clients=1 (closed loop, 5 ms poll) service_workers=1 jobs={} window_s={}",
        job.n, warm.elapsed_s
    ));
    report.median_line("setup_s", &setup, "s");
    report.median_line("job_s", &job, "s");
    report.median_line("verify_ms", &verify, "ms");
    report.median_line("submit_p50_ms", &summarize(&warm.post_ms), "ms");
    report.median_line("status_p50_ms", &summarize(&warm.get_ms), "ms");
    report.line(
        "jobs_per_s",
        jobs_per_s,
        "1/s",
        "completed jobs over the time the loop took",
    );
    ctx.exact_row(report, "proof_bytes", format!("{} bytes", last.proof.len()));
    ctx.exact_row(report, "core.layout_k", format!("k={}", last.k));
    report.gate("setup_s", setup.median);
    report.gate("request_ms", job.median * 1e3);
    report.gate("check_ms", verify.median);
    report.gate("throughput", jobs_per_s);

    let (Some(tracer), Some(traced)) = (&tracer, &traced_window) else {
        return Ok(());
    };
    report.layer("plonk.keygens", setup_keygens as f64);
    report.layer("plonk.warm_keygens", warm_keygens as f64);
    report.layer("plonk.warm_weight_encodings", warm_encodings as f64);
    report.layer("plonk.proof_bytes", last.proof.len() as f64);
    report.pool_delta(&pool_before, &pool_after);
    let traced_job_ms = median(&traced.job_s) * 1e3;
    report.layer("trace_overhead", traced_job_ms / (job.median * 1e3));

    let direct_ms = direct_service(kind, &graph, seeds, tracer, report)?;
    let lib = match kind {
        Kind::Serve => library_monolithic(ctx, &graph, seeds, tracer, report)?,
        Kind::Segmented => library_segmented(ctx, &graph, seeds, tracer, report)?,
    };
    report.layer("service.overhead_ms", direct_ms - lib.job_ms);
    report.layer("net.http_overhead_ms", traced_job_ms - direct_ms);
    // The net self time on a job's blocking path: the POST and the terminal
    // GET round trips (admission, parsing and the `submitted` append happen
    // inside the POST) and the dispatcher's `started` and terminal appends.
    crate::storm::net_pieces(ctx, report)?;
    let net_self_ms = median(&traced.post_ms)
        + median(&traced.download_ms)
        + 2.0 * report.layer_value("net.journal_append_us") / 1e3;
    report.line(
        "net.self_ms",
        net_self_ms,
        "ms",
        "POST + terminal GET + 2 journal appends, per job",
    );
    report.line(
        "net.self_share",
        net_self_ms / traced_job_ms,
        "ratio",
        "of the traced job_s",
    );
    report.layer(
        "trace_coverage",
        (lib.self_ms + net_self_ms) / traced_job_ms,
    );
    kernels(lib.k, lib.k_ext, report);
    crate::write_trace(ctx, tracer)
}

/// Replays job seeds directly through a `ProvingService` configured like the
/// gateway's; returns the median submit→verified time in ms.
fn direct_service(
    kind: Kind,
    graph: &Arc<Graph>,
    seeds: &[u64],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<f64, String> {
    let service = ProvingService::start(service_config()).map_err(|e| e.to_string())?;
    let wait = |spec: JobSpec| {
        let done = service
            .submit(spec)
            .and_then(|h| h.wait())
            .map_err(|e| e.to_string());
        // The gateway reports a monolithic job `completed` only once its
        // batched verification settled; the direct time includes it too.
        service.flush_verifications();
        done
    };
    let digest = match kind {
        Kind::Serve => wait(JobSpec::commit_model(Arc::clone(graph), Backend::Kzg))?
            .and_then(|a| a.model_digest),
        Kind::Segmented => None,
    };
    let spec = |seed: u64| match digest {
        Some(d) => JobSpec::prove_committed(Arc::clone(graph), Backend::Kzg, seed, d),
        None => JobSpec::prove_segmented(
            Arc::clone(graph),
            Backend::Kzg,
            seed,
            SegmentSpec::Fixed(SEGMENTS),
        ),
    };
    // One cold job fills the key cache, as the gateway's set-up job did.
    report.attempt("direct", wait(spec(seeds[0] ^ 1)).map(|_| ()));
    let before = service.snapshot();
    let mut ms = Vec::new();
    for seed in &seeds[..REPLAYS] {
        let (done, took) = tracer.span("service.submit_wait", None, *seed, |_| wait(spec(*seed)));
        report.attempt("direct", done.map(|_| ()));
        ms.push(took);
    }
    let after = service.snapshot();
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    report.layer(
        "service.warm_cache_hit_share",
        hits / (hits + misses).max(1.0),
    );
    report.attempt(
        "check",
        (misses == 0.0 && hits > 0.0).then_some(()).ok_or(format!(
            "warm service jobs saw {hits} cache hits and {misses} misses"
        )),
    );
    service.shutdown();
    Ok(median(&ms))
}

/// What the library replay found.
struct LibraryReplay {
    /// Median wall time of one replayed job (ms).
    job_ms: f64,
    /// Median per-job self time summed over the library layers (ms).
    self_ms: f64,
    k: u32,
    k_ext: u32,
}

/// log2 of the extended (quotient) domain a circuit of this degree needs.
fn extended_k(k: u32, degree: usize) -> u32 {
    k + (degree.max(3) - 1).next_power_of_two().trailing_zeros()
}

/// One replayed job's compile, span by span under `root`: lower, then (per
/// schedule the caller cuts from it) sweep, synthesize and analyze.
fn lower_job(
    graph: &Graph,
    seed: u64,
    tracer: &Tracer,
    root: SpanId,
) -> (OpSchedule, OptimizerOptions) {
    let opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
    let inputs = synthetic_inputs(graph, opts.numeric.scale_bits, seed);
    let (sched, _) = lower_stage(Some(tracer), Some(root), seed, graph, &inputs, &opts);
    (sched, opts)
}

fn sweep_job(
    ctx: &Ctx,
    sched: OpSchedule,
    opts: &OptimizerOptions,
    seed: u64,
    tracer: &Tracer,
    root: SpanId,
) -> Result<(OptimizerReport, CompiledCircuit), String> {
    let swept = sweep_stages(Some(tracer), Some(root), seed, &ctx.hw, sched, opts)?;
    swept.determined?;
    Ok((swept.sweep, swept.compiled))
}

/// Records the per-layer medians every library replay shares and returns the
/// median per-job self time over all library layers.
fn library_layers(tracer: &Tracer, roots: &[SpanId], jobs_ms: &[f64], report: &mut Report) -> f64 {
    // The sweep runs once per circuit; a job's share is the sum over its
    // circuits, so per-job sums come from the self-time tree.
    let per_job: Vec<_> = roots.iter().map(|r| tracer.self_ms_by_layer(*r)).collect();
    let layer = |name: &str| {
        median(
            &per_job
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let n = roots.len() as f64;
    let per_job_sum = |span: &str| tracer.durations_ms(span).iter().sum::<f64>() / n;
    report.layer("core.lower_ms", per_job_sum("core.lower"));
    report.layer("core.optimize_ms", per_job_sum("core.optimize"));
    report.layer("core.synthesize_ms", per_job_sum("core.synthesize"));
    report.layer(
        "analyze.ensure_determined_ms",
        per_job_sum("analyze.ensure_determined"),
    );
    report.line(
        "library_job_ms",
        median(jobs_ms),
        "ms",
        "one job replayed call by call",
    );
    let mut total = 0.0;
    for name in ["core", "analyze", "plonk", "shard"] {
        let ms = layer(name);
        report.line(&format!("self_ms.{name}"), ms, "ms", "per replayed job");
        total += ms;
    }
    total
}

/// `cost::estimate` under a table calibrated on this host, over the measured
/// prove time: the cost model's over-prediction (ROADMAP item 1).
fn predicted_over_measured(plans: &[&LayoutPlan], measured_ms: f64, report: &mut Report) {
    let host = HardwareStats::benchmark();
    let predicted_s: f64 = plans
        .iter()
        .map(|p| zkml::cost::estimate(&p.stats, p.k, Backend::Kzg, &host).proving_s)
        .sum();
    report.layer(
        "core.predicted_over_measured",
        predicted_s / (measured_ms / 1e3),
    );
}

fn layout_layers(ctx: &Ctx, plans: &[(String, &LayoutPlan)], report: &mut Report) {
    for (name, p) in plans {
        ctx.exact_row(
            report,
            &format!("core.layout.{name}"),
            format!("k={} cols={} rows={}", p.k, p.cfg.num_cols, p.stats.rows),
        );
    }
    let sum = |f: &dyn Fn(&LayoutPlan) -> f64| plans.iter().map(|(_, p)| f(p)).sum::<f64>();
    report.layer("core.layout_k", sum(&|p| f64::from(p.k)));
    report.layer("core.layout_cols", sum(&|p| p.cfg.num_cols as f64));
    report.layer("core.layout_rows", sum(&|p| p.stats.rows as f64));
}

/// The monolithic job, call by call: lower → sweep → synthesize → analyze →
/// prove against pre-encoded weights → verify. Keys and weights are made
/// once, as the service's cache and registry would.
fn library_monolithic(
    ctx: &Ctx,
    graph: &Graph,
    seeds: &[u64],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<LibraryReplay, String> {
    // Set-up, outside any job: one untraced compile, then the SRS, the
    // proving key and the weight commitment. Keys and commitment depend on
    // the layout and the weights only, so they serve every job seed.
    let opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
    let inputs = synthetic_inputs(graph, opts.numeric.scale_bits, seeds[0]);
    let compiled = zkml::optimize(graph, &inputs, &opts, &ctx.hw)
        .and_then(|sweep| sweep.synthesize_best())
        .map_err(|e| e.to_string())?;
    let params = FreshKeySource::default().params(Backend::Kzg, compiled.k);
    let (pk, _) = tracer.span("plonk.keygen", None, 0, |_| compiled.keygen(&params));
    let pk = pk.map_err(|e| e.to_string())?;
    let (cw, _) = tracer.span("plonk.commit_weights", None, 0, |_| {
        compiled.commit_weights(&params)
    });
    let (wc, weights) = cw.map_err(|e| e.to_string())?;

    let schedules_before = zkml::schedules_built();
    let mut roots = Vec::new();
    let mut jobs_ms = Vec::new();
    let mut last_plan = None;
    let mut counts = (0usize, 0usize);
    for seed in &seeds[..REPLAYS] {
        let (done, ms) = tracer.span("bench.library_job", None, *seed, |root| {
            let (sched, opts) = lower_job(graph, *seed, tracer, root);
            let (sweep, compiled) = sweep_job(ctx, sched, &opts, *seed, tracer, root)?;
            let mut rng = StdRng::seed_from_u64(*seed);
            let (proof, _) = tracer.span("plonk.prove", Some(root), *seed, |_| {
                compiled.prove_with_weights(&params, &pk, &mut rng, &[], &weights)
            });
            let proof = proof.map_err(|e| e.to_string())?;
            let (ok, _) = tracer.span("plonk.verify", Some(root), *seed, |_| {
                compiled.verify_with_commitment(&params, &pk.vk, &proof, &[], &wc)
            });
            ok.map_err(|e| e.to_string())?;
            counts = (sweep.evaluated, sweep.pruned);
            last_plan = Some(sweep.best_plan);
            Ok::<_, String>(root)
        });
        report.attempt("library", done.clone().map(|_| ()));
        roots.push(done?);
        jobs_ms.push(ms);
    }
    let plan = last_plan.expect("REPLAYS > 0");
    let prove_ms = median(&tracer.durations_ms("plonk.prove"));
    report.layer("plonk.prove_ms", prove_ms);
    report.layer(
        "plonk.verify_ms",
        median(&tracer.durations_ms("plonk.verify")),
    );
    report.layer(
        "plonk.keygen_ms",
        tracer.durations_ms("plonk.keygen").iter().sum(),
    );
    report.layer(
        "plonk.commit_weights_ms",
        tracer.durations_ms("plonk.commit_weights").iter().sum(),
    );
    report.layer("core.candidates_evaluated", counts.0 as f64);
    report.layer("core.candidates_pruned", counts.1 as f64);
    report.layer(
        "core.schedules_built",
        ((zkml::schedules_built() - schedules_before) / REPLAYS) as f64,
    );
    layout_layers(ctx, &[(graph.name.clone(), &plan)], report);
    predicted_over_measured(&[&plan], prove_ms, report);
    let self_ms = library_layers(tracer, &roots, &jobs_ms, report);
    Ok(LibraryReplay {
        job_ms: median(&jobs_ms),
        self_ms,
        k: plan.k,
        k_ext: extended_k(plan.k, plan.stats.degree),
    })
}

/// Proving keys made ahead of the replayed jobs, looked up by plan digest —
/// what the service's artifact cache does for segment keys.
struct ReadyKeys {
    params: FreshKeySource,
    keys: Mutex<HashMap<[u8; 32], Arc<ProvingKey>>>,
}

impl KeySource for ReadyKeys {
    fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        self.params.params(backend, k)
    }

    fn proving_key(
        &self,
        _model_hash: [u8; 32],
        _backend: Backend,
        plan: &LayoutPlan,
        compiled: &CompiledCircuit,
        params: &Params,
    ) -> Result<Arc<ProvingKey>, ZkmlError> {
        let mut keys = self.keys.lock().expect("no key holder panics");
        if let Some(pk) = keys.get(&plan.digest()) {
            return Ok(Arc::clone(pk));
        }
        let pk = Arc::new(compiled.keygen(params)?);
        keys.insert(plan.digest(), Arc::clone(&pk));
        Ok(pk)
    }
}

/// The segmented job, call by call: lower → cut → per segment (sweep →
/// synthesize → analyze) → `prove_compiled` (weight commitments and three
/// concurrent proofs) → `verify_bundle` (one batched pairing).
fn library_segmented(
    ctx: &Ctx,
    graph: &Graph,
    seeds: &[u64],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<LibraryReplay, String> {
    let keys = ReadyKeys {
        params: FreshKeySource::default(),
        keys: Mutex::new(HashMap::new()),
    };
    let model_hash = graph.content_hash();
    // Set-up, outside any job: one untraced compile of the segments, then
    // every segment's key, and each segment committed and proved alone.
    let opts = OptimizerOptions::new(Backend::Kzg, MAX_K);
    let inputs = synthetic_inputs(graph, opts.numeric.scale_bits, seeds[0]);
    let sched = zkml::layers::lower_graph(graph, &inputs, opts.numeric);
    let segments =
        zkml_shard::compile_segments(&sched, SegmentSpec::Fixed(SEGMENTS), &opts, &ctx.hw)
            .map_err(|e| e.to_string())?;
    let serial_prove_ms = segment_setup(&keys, model_hash, &segments, tracer)?;

    let schedules_before = zkml::schedules_built();
    let mut roots = Vec::new();
    let mut jobs_ms = Vec::new();
    let mut last_segments: Vec<CompiledSegment> = Vec::new();
    let mut counts = (0usize, 0usize);
    for seed in &seeds[..REPLAYS] {
        let (done, ms) = tracer.span("bench.library_job", None, *seed, |root| {
            let (sched, opts) = lower_job(graph, *seed, tracer, root);
            let (cut, _) = tracer.span("shard.cut", Some(root), *seed, |_| {
                cut_schedule(&sched, &SegmentPlan::balanced(&sched, SEGMENTS))
            });
            let mut segments = Vec::new();
            counts = (0, 0);
            for seg in cut.map_err(|e| e.to_string())? {
                let boundary_in_len = seg.boundary_in_len();
                let (sweep, compiled) = sweep_job(ctx, seg.schedule, &opts, *seed, tracer, root)?;
                counts = (counts.0 + sweep.evaluated, counts.1 + sweep.pruned);
                segments.push(CompiledSegment {
                    plan: sweep.best_plan,
                    compiled,
                    boundary_in_len,
                });
            }
            let (bundle, _) = tracer.span("shard.prove", Some(root), *seed, |_| {
                zkml_shard::prove_compiled(model_hash, &segments, &keys, &opts, *seed)
            });
            let bundle = bundle.map_err(|e| e.to_string())?;
            let (ok, _) = tracer.span("shard.settle", Some(root), *seed, |_| {
                zkml_shard::verify_bundle(&bundle, |b, k| keys.params(b, k))
            });
            ok.map_err(|e| e.to_string())?;
            last_segments = segments;
            Ok::<_, String>(root)
        });
        report.attempt("library", done.clone().map(|_| ()));
        roots.push(done?);
        jobs_ms.push(ms);
    }
    report.layer("shard.cut_ms", median(&tracer.durations_ms("shard.cut")));
    report.layer(
        "shard.prove_ms",
        median(&tracer.durations_ms("shard.prove")),
    );
    report.layer(
        "shard.settle_ms",
        median(&tracer.durations_ms("shard.settle")),
    );
    // Keygen, weight commitment and proving of each segment on its own, one
    // after the other: the work `shard.prove_ms` overlaps on the pool.
    report.layer(
        "plonk.keygen_ms",
        tracer.durations_ms("plonk.keygen").iter().sum(),
    );
    report.layer(
        "plonk.commit_weights_ms",
        tracer.durations_ms("plonk.commit_weights").iter().sum(),
    );
    report.layer("plonk.prove_ms", serial_prove_ms);
    report.layer("core.candidates_evaluated", counts.0 as f64);
    report.layer("core.candidates_pruned", counts.1 as f64);
    report.layer(
        "core.schedules_built",
        ((zkml::schedules_built() - schedules_before) / REPLAYS) as f64,
    );
    let plans: Vec<(String, &LayoutPlan)> = last_segments
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("{}.seg{i}", graph.name), &s.plan))
        .collect();
    layout_layers(ctx, &plans, report);
    let plan_refs: Vec<&LayoutPlan> = last_segments.iter().map(|s| &s.plan).collect();
    predicted_over_measured(&plan_refs, serial_prove_ms, report);
    let self_ms = library_layers(tracer, &roots, &jobs_ms, report);
    let widest = plan_refs
        .iter()
        .max_by_key(|p| p.k)
        .expect("a bundle has segments");
    Ok(LibraryReplay {
        job_ms: median(&jobs_ms),
        self_ms,
        k: widest.k,
        k_ext: extended_k(widest.k, widest.stats.degree),
    })
}

/// Makes every segment's proving key, then commits and proves each segment
/// alone, serially. Returns the summed serial prove time in ms.
fn segment_setup(
    keys: &ReadyKeys,
    model_hash: [u8; 32],
    segments: &[CompiledSegment],
    tracer: &Tracer,
) -> Result<f64, String> {
    let seed = 0;
    let mut prove_ms = 0.0;
    for seg in segments {
        let params = keys.params(Backend::Kzg, seg.compiled.k);
        let (pk, _) = tracer.span("plonk.keygen", None, seed, |_| {
            keys.proving_key(model_hash, Backend::Kzg, &seg.plan, &seg.compiled, &params)
        });
        let pk = pk.map_err(|e| e.to_string())?;
        if !seg.compiled.has_committed() {
            continue;
        }
        let (cw, _) = tracer.span("plonk.commit_weights", None, seed, |_| {
            seg.compiled.commit_weights(&params)
        });
        let (_, weights) = cw.map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (proof, ms) = tracer.span("plonk.prove", None, seed, |_| {
            seg.compiled
                .prove_with_weights(&params, &pk, &mut rng, b"benchmark", &weights)
        });
        proof.map_err(|e| e.to_string())?;
        prove_ms += ms;
    }
    Ok(prove_ms)
}

/// The kernels under the prover at this workload's own sizes: one MSM, FFT,
/// commitment and opening at `2^k`, one FFT at the extended `2^k_ext`, one
/// pairing. Medians of five calls.
fn kernels(k: u32, k_ext: u32, report: &mut Report) {
    fn median_ms(mut f: impl FnMut()) -> f64 {
        let ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&ms)
    }
    let mut rng = StdRng::seed_from_u64(u64::from(k));
    let n = 1usize << k;
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let params = FreshKeySource::default().params(Backend::Kzg, k);
    let Params::Kzg(srs) = params.as_ref() else {
        unreachable!("KZG params were asked for");
    };
    report.layer(
        "curves.msm_ms",
        median_ms(|| {
            std::hint::black_box(zkml_curves::msm(&srs.g1_powers[..n], &scalars));
        }),
    );
    report.layer(
        "curves.pairing_ms",
        median_ms(|| {
            std::hint::black_box(zkml_curves::pairing(&srs.g1_powers[1], &srs.tau_g2));
        }),
    );
    for (name, k) in [("poly.fft_ms", k), ("poly.fft_ext_ms", k_ext)] {
        let domain = EvaluationDomain::<Fr>::new(k);
        let mut vals: Vec<Fr> = (0..domain.n).map(|i| scalars[i % n]).collect();
        report.layer(name, median_ms(|| domain.fft(&mut vals)));
    }
    let poly = Coeffs::new(scalars.clone());
    report.layer(
        "pcs.commit_ms",
        median_ms(|| {
            std::hint::black_box(params.commit(&poly));
        }),
    );
    let z = Fr::from_u64(0x5eed);
    report.layer(
        "pcs.open_ms",
        median_ms(|| {
            let mut transcript = zkml_transcript::Transcript::new(b"benchmark");
            std::hint::black_box(params.open(&mut transcript, &[(&poly, z)]));
        }),
    );
}
