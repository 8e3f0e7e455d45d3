//! The ZKML command-line interface (§8 of the paper): optimize, prove, and
//! verify model inferences — plus a proving-service front-end.
//!
//! ```text
//! zkml models
//! zkml optimize mnist --backend kzg
//! zkml prove mnist --dir /tmp/mnist-proof [--backend kzg] [--seed 7]
//! zkml verify --dir /tmp/mnist-proof
//! zkml serve --http 127.0.0.1:9944 [--journal J] [--tenant-limit T:R:B:Q]
//! zkml submit mnist --http 127.0.0.1:9944 [--tenant T] [--wait] [--dir D]
//! zkml status --http 127.0.0.1:9944 --id 3 [--dir D]
//! zkml cancel --http 127.0.0.1:9944 --id 3
//! ```
//!
//! The serving surface is HTTP (`serve --http`): a std-only HTTP/1.1
//! gateway with a durable job journal, per-tenant admission, and priority
//! lanes (see `zkml-net`). Rejections for backpressure map to HTTP 429 on
//! the wire and exit code 3 in the client.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use zkml::OptimizerOptions;
use zkml_ff::{Fr, PrimeField};
use zkml_model::Graph;
use zkml_net::{
    decode_hex, encode_hex, http_request, AdmissionConfig, Gateway, GatewayConfig, JobDesc, Json,
    JsonObj, TenantPolicy,
};
use zkml_pcs::Backend;
use zkml_plonk::{VerifyingKey, WeightCommitment};
use zkml_service::{
    decode_public, encode_public, ArtifactCache, Pipeline, ServiceConfig, ServiceError, Stage,
};
use zkml_shard::{SegmentSpec, SegmentedProof};

/// A CLI failure: a usage error (exit 2), a runtime error (exit 1), a
/// retryable backpressure rejection — rate limit, quota, queue full —
/// (exit 3, so scripts can distinguish "try again later" from "broken"),
/// or a model-commitment mismatch (exit 4: the proof, weights, or digest
/// don't match the published commitment — retrying won't help, but it is
/// a distinct failure from a malformed proof).
enum CliError {
    Usage,
    Msg(String),
    Backoff(String),
    Commitment(String),
}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError::Msg(s)
    }
}

impl From<ServiceError> for CliError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::CommitmentMismatch(msg) => CliError::Commitment(msg),
            other => CliError::Msg(other.to_string()),
        }
    }
}

fn parse_backend(args: &[String]) -> Backend {
    match flag_value(args, "--backend").as_deref() {
        Some("ipa") => Backend::Ipa,
        _ => Backend::Kzg,
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// All values of a repeatable flag (e.g. `--tenant-limit A:.. --tenant-limit B:..`).
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--segments N|auto`: `None` means monolithic proving.
fn parse_segments(args: &[String]) -> Result<Option<SegmentSpec>, CliError> {
    match flag_value(args, "--segments").as_deref() {
        None => Ok(None),
        Some("auto") => Ok(Some(SegmentSpec::Auto)),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(SegmentSpec::Fixed(n))),
            _ => Err(CliError::Msg(format!(
                "invalid value '{v}' for --segments (expected a count >= 1 or 'auto')"
            ))),
        },
    }
}

/// Parses `--model <digest>`: the 64-hex-char digest of a published model
/// commitment that proving/verification must match exactly.
fn parse_model_digest(args: &[String]) -> Result<Option<[u8; 32]>, CliError> {
    match flag_value(args, "--model") {
        None => Ok(None),
        Some(h) => {
            let bytes =
                decode_hex(&h).map_err(|e| CliError::Msg(format!("bad --model digest: {e}")))?;
            let digest: [u8; 32] = bytes
                .try_into()
                .map_err(|_| CliError::Msg("--model digest must be 32 bytes of hex".to_string()))?;
            Ok(Some(digest))
        }
    }
}

fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, CliError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Msg(format!("invalid value '{v}' for {flag}"))),
    }
}

fn usage() -> &'static str {
    "usage:\n  zkml models\n  zkml export <model> --file <path.zkml>\n  \
     zkml optimize <model|path.zkml> [--backend kzg|ipa] [--max-k K]\n  \
     zkml commit-model <model|path.zkml> --dir <commit-dir> [--backend kzg|ipa] [--max-k K]\n  \
     zkml commit-model <model> --http <addr> [--backend kzg|ipa] [--dir <commit-dir>]\n  \
     zkml prove <model|path.zkml> --dir <out-dir> [--backend kzg|ipa] [--seed N]\n             \
     [--segments N|auto] [--max-k K] [--model <digest>]\n  \
     zkml verify --dir <dir> [--model <digest>]\n  \
     zkml serve --http <addr> [--workers N] [--cache-dir <dir>] [--journal <file>]\n             \
     [--port-file <file>] [--handlers N] [--lane-cap N]\n             \
     [--rate R] [--burst B] [--quota Q] [--tenant-limit NAME:RATE:BURST:QUOTA]...\n             \
     [--deadline-s S]\n  \
     zkml submit <model> --http <addr> [--tenant T] [--priority interactive|batch]\n             \
     [--backend kzg|ipa] [--seed N] [--segments N|auto] [--model <digest>]\n             \
     [--wait] [--timeout-s S] [--dir <out-dir>]\n  \
     zkml status --http <addr> --id <job> [--dir <out-dir>]\n  \
     zkml cancel --http <addr> --id <job>"
}

/// Resolves a model argument: a zoo name or a `.zkml` model file.
fn resolve_model(arg: &str) -> Result<Graph, CliError> {
    if arg.ends_with(".zkml") || Path::new(arg).exists() {
        let bytes =
            std::fs::read(arg).map_err(|e| CliError::Msg(format!("read model {arg}: {e}")))?;
        return Graph::from_bytes(&bytes)
            .map_err(|e| CliError::Msg(format!("parse model {arg}: {e}")));
    }
    zkml_model::zoo::by_name(arg)
        .ok_or_else(|| CliError::Msg(format!("unknown model '{arg}' (try `zkml models`)")))
}

/// Restores default SIGPIPE handling so `zkml models | head` terminates
/// quietly instead of panicking on a broken pipe (Rust ignores SIGPIPE by
/// default, turning it into an io::Error that println! panics on).
#[cfg(unix)]
fn reset_sigpipe() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() -> ExitCode {
    reset_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage) => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
        Err(CliError::Msg(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Backoff(msg)) => {
            eprintln!("rejected (retry later): {msg}");
            ExitCode::from(3)
        }
        Err(CliError::Commitment(msg)) => {
            eprintln!("commitment mismatch: {msg}");
            ExitCode::from(4)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("models") => {
            println!("{:<12} {:>10} {:>12}", "model", "params", "flops");
            for g in zkml_model::zoo::all_models() {
                let s = zkml_model::stats(&g);
                println!(
                    "{:<12} {:>10} {:>12}",
                    g.name,
                    zkml_model::stats::human(s.params),
                    zkml_model::stats::human(s.flops)
                );
            }
            Ok(())
        }
        Some("export") => {
            let name = args.get(1).ok_or(CliError::Usage)?;
            let g = resolve_model(name)?;
            let file = flag_value(args, "--file").ok_or(CliError::Usage)?;
            std::fs::write(&file, g.to_bytes())
                .map_err(|e| CliError::Msg(format!("write {file}: {e}")))?;
            println!("wrote {} ({} nodes) to {file}", g.name, g.nodes.len());
            Ok(())
        }
        Some("optimize") => {
            let name = args.get(1).ok_or(CliError::Usage)?;
            let g = resolve_model(name)?;
            let backend = parse_backend(args);
            let max_k: u32 = parsed_flag(args, "--max-k", 15)?;
            let hw = zkml::cost::HardwareStats::cached();
            let opts = OptimizerOptions::new(backend, max_k);
            let report = zkml::optimize(&g, &zkml::zero_inputs(&g), &opts, hw)
                .map_err(|e| CliError::Msg(format!("optimize {}: {e}", g.name)))?;
            println!(
                "{} ({backend}): {} layouts evaluated ({} pruned) in {:?}",
                g.name, report.evaluated, report.pruned, report.elapsed
            );
            println!(
                "best: 2^{} rows x {} columns, {:?}",
                report.best_k, report.best.num_cols, report.best.choices
            );
            println!(
                "estimated proving {:.2}s (fft {:.2}s, msm {:.2}s, lookup {:.2}s), proof ~{} B",
                report.best_cost.proving_s,
                report.best_cost.fft_s,
                report.best_cost.msm_s,
                report.best_cost.lookup_s,
                report.best_cost.proof_bytes
            );
            Ok(())
        }
        Some("commit-model") if has_flag(args, "--http") => commit_model_http_flow(args),
        Some("commit-model") => {
            let name = args.get(1).ok_or(CliError::Usage)?;
            let g = resolve_model(name)?;
            let dir = flag_value(args, "--dir").ok_or(CliError::Usage)?;
            let backend = parse_backend(args);
            let max_k: u32 = parsed_flag(args, "--max-k", 15)?;
            commit_model_flow(&g, backend, max_k, Path::new(&dir))
        }
        Some("prove") => {
            let name = args.get(1).ok_or(CliError::Usage)?;
            let g = resolve_model(name)?;
            let dir = flag_value(args, "--dir").ok_or(CliError::Usage)?;
            let backend = parse_backend(args);
            let seed: u64 = parsed_flag(args, "--seed", 1)?;
            let max_k: u32 = parsed_flag(args, "--max-k", 15)?;
            let model = parse_model_digest(args)?;
            let segments = parse_segments(args)?;
            if model.is_some() && segments.is_some() {
                return Err(CliError::Msg(
                    "--model is not supported for segmented proves".to_string(),
                ));
            }
            prove_flow(&g, backend, seed, max_k, segments, model, Path::new(&dir))
        }
        Some("verify") => {
            let dir = flag_value(args, "--dir").ok_or(CliError::Usage)?;
            let model = parse_model_digest(args)?;
            verify_flow(Path::new(&dir), model)
        }
        Some("serve") => serve_http_flow(args),
        Some("submit") => submit_http_flow(args),
        Some("status") => status_http_flow(args),
        Some("cancel") => cancel_http_flow(args),
        _ => Err(CliError::Usage),
    }
}

/// The pipeline a served job runs (`zkml_service::Pipeline`), standing
/// alone: an in-memory cache, an empty registry, and no cancellation or
/// deadline between stages.
fn standalone(max_k: u32) -> Pipeline {
    Pipeline::new(ArtifactCache::in_memory(), max_k)
}

fn unchecked(_: Stage) -> Result<(), ServiceError> {
    Ok(())
}

/// What the pipeline checked on the way, by its own counters (the ones
/// `/v1/stats` serves for a server's jobs).
fn print_checks(pipe: &Pipeline) {
    let s = pipe.stats.snapshot();
    println!(
        "analyzer cleared {} circuit(s), verifier accepted {} proof(s)",
        s.determinism_checks, s.proofs_verified
    );
}

fn write_file(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Msg(format!("create {}: {e}", dir.display())))?;
    std::fs::write(dir.join(name), bytes)
        .map_err(|e| CliError::Msg(format!("write {}: {e}", dir.join(name).display())))
}

/// Writes a proof directory `zkml verify --dir` accepts: `bundle.bin` for a
/// segmented proof (it carries its own verifying keys and commitments),
/// otherwise `proof.bin` + `vk.bin` and, for a committed-weight proof,
/// the `commitment.bin` it is unverifiable without; `public.bin` either way.
fn write_proof_dir(
    dir: &Path,
    bundled: bool,
    proof: &[u8],
    vk: &[u8],
    commitment: &[u8],
    public: &[u8],
) -> Result<(), CliError> {
    if bundled {
        write_file(dir, "bundle.bin", proof)?;
    } else {
        write_file(dir, "proof.bin", proof)?;
        write_file(dir, "vk.bin", vk)?;
        if !commitment.is_empty() {
            write_file(dir, "commitment.bin", commitment)?;
        }
    }
    write_file(dir, "public.bin", public)?;
    println!("wrote proof artifacts to {}", dir.display());
    Ok(())
}

/// Writes a published commitment as `<digest>.wc` and prints the digest that
/// `prove --model` / `verify --model` match against.
fn write_commitment(dir: &Path, digest: &str, commitment: &[u8]) -> Result<(), CliError> {
    println!("model digest: {digest}");
    let name = format!("{digest}.wc");
    write_file(dir, &name, commitment)?;
    println!("wrote {}", dir.join(name).display());
    Ok(())
}

/// Standalone commit-model: one publication through the pipeline (compile,
/// determinism gate, keys, commit the weight columns).
fn commit_model_flow(g: &Graph, backend: Backend, max_k: u32, dir: &Path) -> Result<(), CliError> {
    let pipe = standalone(max_k);
    // Circuit layouts depend only on the architecture, not on input values,
    // so the commitment is valid for proofs over any input seed.
    let compiled = pipe.compile(g, backend, 0, None, &unchecked)?;
    let published = pipe.publish(&compiled, &unchecked)?;
    println!(
        "committed the weight columns of {} in {} ms (k={})",
        g.name, published.prove_ms, published.k
    );
    print_checks(&pipe);
    let digest = published.model_digest.map(|d| encode_hex(&d));
    write_commitment(
        dir,
        &digest.unwrap_or_default(),
        &published.weight_commitment,
    )
}

/// Standalone prove: the job a server would run, stage for stage — nothing
/// is written that the analyzer has not cleared and the verifier accepted.
/// Fully deterministic: the SRS comes from the fixed seed and the proof
/// randomness only from `--seed`, so repeated runs (at any thread count)
/// emit identical proofs and bundles. `--model` publishes the weights to
/// this process's own registry first; the prove then runs the rules of any
/// digest-referencing job, so a digest the weights do not hash to is not
/// found there (a commitment mismatch, exit 4).
fn prove_flow(
    g: &Graph,
    backend: Backend,
    seed: u64,
    max_k: u32,
    segments: Option<SegmentSpec>,
    model: Option<[u8; 32]>,
    dir: &Path,
) -> Result<(), CliError> {
    let pipe = standalone(max_k);
    let t = Instant::now();
    let compiled = pipe.compile(g, backend, seed, segments, &unchecked)?;
    println!("compiled and checked {} in {:?}", g.name, t.elapsed());
    if model.is_some() {
        // The prove below then finds the digest in the registry only if
        // these weights hash to it.
        pipe.publish(&compiled, &unchecked)?;
    }
    let a = pipe.prove(&compiled, model, seed, &unchecked)?;
    println!(
        "proved {} segment(s) at k={} in {} ms ({} bytes)",
        a.segments,
        a.k,
        a.prove_ms,
        a.proof.len()
    );
    if let Some(digest) = a.model_digest {
        println!(
            "weights match published model digest {}",
            encode_hex(&digest)
        );
    }
    print_checks(&pipe);
    write_proof_dir(
        dir,
        a.bundle.is_some(),
        &a.proof,
        &a.vk_bytes,
        &a.weight_commitment,
        &encode_public(backend, &a.public),
    )
}

/// The first few public outputs as fixed-point values.
fn print_outputs(public: &[Fr]) {
    let preview: Vec<i128> = public.iter().take(8).map(|v| v.to_signed_i128()).collect();
    println!("public outputs (quantized): {preview:?}");
}

fn verify_flow(dir: &Path, model: Option<[u8; 32]>) -> Result<(), CliError> {
    let load = |name: &str| -> Result<Vec<u8>, CliError> {
        std::fs::read(PathBuf::from(dir).join(name))
            .map_err(|e| CliError::Msg(format!("read {name}: {e}")))
    };
    // Verification compiles nothing, so the pipeline's `max_k` is moot; its
    // registry is empty, so the proof is checked against the commitment it
    // carries, and `--model` names the digest that commitment must have.
    let pipe = standalone(0);
    // A proof directory holds either a segmented bundle or a monolithic
    // proof triple; the bundle carries its own per-segment verifying keys.
    if dir.join("bundle.bin").exists() {
        pipe.commitment_for(None, model, None)?;
        return verify_bundle_flow(&pipe, &load("bundle.bin")?);
    }
    let vk = VerifyingKey::from_bytes(&load("vk.bin")?)
        .map_err(|e| CliError::Msg(format!("parse vk.bin: {e}")))?;
    let (backend, instance) = decode_public(&load("public.bin")?)
        .map_err(|e| CliError::Msg(format!("parse public.bin: {e}")))?;
    let proof = load("proof.bin")?;
    // Committed-weight proofs carry the weight commitment they claim to be
    // proved under.
    let carried = if dir.join("commitment.bin").exists() {
        let wc = WeightCommitment::from_bytes(&load("commitment.bin")?)
            .map_err(|e| CliError::Msg(format!("parse commitment.bin: {e}")))?;
        Some(Ok(wc))
    } else {
        None
    };
    let commitment = pipe.commitment_for(Some(&vk), model, carried)?;
    // The SRS is a public artifact; this reproduction regenerates it from
    // the fixed seed (see DESIGN.md on the trusted-setup substitution).
    let params = pipe.cache.params(backend, vk.k);
    let t = Instant::now();
    let public = std::slice::from_ref(&instance);
    match pipe.verify_proof(&params, &vk, public, &proof, commitment.as_ref()) {
        Ok(()) => {
            println!(
                "proof VERIFIED in {:?} ({} public values, {} byte proof)",
                t.elapsed(),
                instance.len(),
                proof.len()
            );
            if let Some(digest) = model {
                println!(
                    "commitment matches published model digest {}",
                    encode_hex(&digest)
                );
            }
            print_outputs(&instance);
            Ok(())
        }
        Err(ServiceError::Verify(e)) => Err(CliError::Msg(format!("proof REJECTED: {e}"))),
        Err(e) => Err(e.into()),
    }
}

/// Verifies a segmented bundle: boundary-instance chaining, per-segment
/// transcript replay, and one batched KZG multi-pairing across segments.
fn verify_bundle_flow(pipe: &Pipeline, bytes: &[u8]) -> Result<(), CliError> {
    let bundle = SegmentedProof::from_bytes(bytes)
        .map_err(|e| CliError::Msg(format!("parse bundle.bin: {e}")))?;
    let t = Instant::now();
    match pipe.verify_bundle(&bundle) {
        Ok(report) => {
            println!(
                "bundle VERIFIED in {:?} ({} segments, {} KZG openings settled in one pairing, {} bytes)",
                t.elapsed(),
                report.segments,
                report.kzg_batched,
                bytes.len()
            );
            print_outputs(bundle.public_outputs());
            Ok(())
        }
        Err(ServiceError::Verify(e)) => Err(CliError::Msg(format!("bundle REJECTED: {e}"))),
        Err(e) => Err(e.into()),
    }
}

// ---------------------------------------------------------------------------
// HTTP protocol: serve / submit / status / cancel.
// ---------------------------------------------------------------------------

/// Set by SIGINT/SIGTERM; the serve loop polls it and shuts down gracefully
/// (drain the lanes, fsync the journal).
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_shutdown_handler() {
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {}

/// Parses `NAME:RATE:BURST:QUOTA` into a per-tenant policy override.
fn parse_tenant_limit(spec: &str) -> Result<(String, TenantPolicy), CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = || {
        CliError::Msg(format!(
            "bad --tenant-limit '{spec}' (want NAME:RATE:BURST:QUOTA)"
        ))
    };
    if parts.len() != 4 || parts[0].is_empty() {
        return Err(bad());
    }
    let rate: f64 = parts[1].parse().map_err(|_| bad())?;
    let burst: f64 = parts[2].parse().map_err(|_| bad())?;
    let quota: usize = parts[3].parse().map_err(|_| bad())?;
    if rate.is_nan() || burst.is_nan() || rate <= 0.0 || burst < 1.0 {
        return Err(bad());
    }
    Ok((
        parts[0].to_string(),
        TenantPolicy {
            rate_per_s: rate,
            burst,
            max_in_flight: quota,
        },
    ))
}

fn serve_http_flow(args: &[String]) -> Result<(), CliError> {
    let addr = flag_value(args, "--http").ok_or(CliError::Usage)?;
    let deadline_s: u64 = parsed_flag(args, "--deadline-s", 0)?;
    let workers = parsed_flag(args, "--workers", 2usize)?;
    let handler_threads = parsed_flag(args, "--handlers", 4usize)?;
    let service = ServiceConfig {
        workers,
        // A served job waits in its lane and the dispatcher hands one over
        // only while a worker is free; a publication occupies its handler.
        // The queue never holds more than one job per worker and handler.
        queue_capacity: workers + handler_threads,
        default_deadline: (deadline_s > 0).then(|| Duration::from_secs(deadline_s)),
        cache_dir: flag_value(args, "--cache-dir").map(PathBuf::from),
        ..ServiceConfig::default()
    };
    let default_policy = TenantPolicy {
        rate_per_s: parsed_flag(args, "--rate", 50.0f64)?,
        burst: parsed_flag(args, "--burst", 100.0f64)?,
        max_in_flight: parsed_flag(args, "--quota", 32usize)?,
    };
    let overrides = flag_values(args, "--tenant-limit")
        .iter()
        .map(|s| parse_tenant_limit(s))
        .collect::<Result<Vec<_>, _>>()?;
    let admission = AdmissionConfig {
        default_policy,
        overrides,
        lane_capacity: parsed_flag(args, "--lane-cap", 256usize)?,
        ..AdmissionConfig::default()
    };
    let cfg = GatewayConfig {
        addr,
        service,
        admission,
        journal: flag_value(args, "--journal").map(PathBuf::from),
        handler_threads,
    };
    install_shutdown_handler();
    let gateway = Gateway::start(cfg).map_err(|e| CliError::Msg(format!("start gateway: {e}")))?;
    let bound = gateway.local_addr();
    println!("serving http on {bound}");
    // Publish the bound address for scripts that asked for port 0.
    if let Some(port_file) = flag_value(args, "--port-file") {
        std::fs::write(&port_file, format!("{bound}\n"))
            .map_err(|e| CliError::Msg(format!("write {port_file}: {e}")))?;
    }
    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutdown requested; draining");
    let stats = gateway.stats_json();
    gateway.shutdown();
    println!("{stats}");
    Ok(())
}

/// Maps an HTTP error response to a CLI error; 429s become `Backoff`, 422s
/// (a model commitment that does not match) `Commitment`.
fn http_error(resp: &zkml_net::HttpResponse, what: &str) -> CliError {
    let detail = Json::parse(&resp.body)
        .ok()
        .and_then(|v| v.get("error").and_then(|e| e.as_str().map(String::from)))
        .unwrap_or_else(|| resp.body.clone());
    if resp.status == 429 {
        let retry = resp
            .header("retry-after")
            .map(|v| format!(" (retry after {v}s)"))
            .unwrap_or_default();
        CliError::Backoff(format!("{what}: {detail}{retry}"))
    } else if resp.status == 422 {
        CliError::Commitment(detail)
    } else {
        CliError::Msg(format!("{what}: HTTP {}: {detail}", resp.status))
    }
}

/// Writes a completed job's artifacts (fetched as hex over HTTP) into a
/// proof directory that `zkml verify --dir` accepts.
fn write_proof_dir_from_status(dir: &Path, status: &Json) -> Result<(), CliError> {
    let hex_field = |name: &str| -> Result<Vec<u8>, CliError> {
        let h = status
            .get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| CliError::Msg(format!("job status missing {name}")))?;
        decode_hex(h).map_err(|e| CliError::Msg(format!("{name}: {e}")))
    };
    let bundled = status
        .get("bundle")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let (vk, commitment) = if bundled {
        (Vec::new(), Vec::new())
    } else {
        let commitment = match status.get("commitment_hex") {
            Some(_) => hex_field("commitment_hex")?,
            None => Vec::new(),
        };
        (hex_field("vk_hex")?, commitment)
    };
    write_proof_dir(
        dir,
        bundled,
        &hex_field("proof_hex")?,
        &vk,
        &commitment,
        &hex_field("public_hex")?,
    )
}

/// `commit-model --http`: publishes the model's weight commitment on the
/// server's registry and prints the digest that prove/verify submissions
/// reference; `--dir` additionally saves the commitment as `<digest>.wc`.
fn commit_model_http_flow(args: &[String]) -> Result<(), CliError> {
    let model = args
        .get(1)
        .filter(|m| !m.starts_with("--"))
        .ok_or(CliError::Usage)?;
    let addr = flag_value(args, "--http").ok_or(CliError::Usage)?;
    let body = JsonObj::new()
        .str("model", model)
        .str(
            "backend",
            match parse_backend(args) {
                Backend::Kzg => "kzg",
                Backend::Ipa => "ipa",
            },
        )
        .finish();
    let resp = http_request(&addr, "POST", "/v1/models", Some(&body)).map_err(CliError::Msg)?;
    if resp.status != 200 {
        return Err(http_error(&resp, "commit-model"));
    }
    let doc =
        Json::parse(&resp.body).map_err(|e| CliError::Msg(format!("bad response json: {e}")))?;
    let digest = doc
        .get("digest")
        .and_then(Json::as_str)
        .ok_or_else(|| CliError::Msg("response missing digest".to_string()))?
        .to_string();
    println!(
        "published {model} (k={}, cache {})",
        doc.get("k").and_then(Json::as_u64).unwrap_or(0),
        doc.get("cache").and_then(Json::as_str).unwrap_or("?"),
    );
    let Some(dir) = flag_value(args, "--dir") else {
        println!("model digest: {digest}");
        return Ok(());
    };
    let hex = doc
        .get("commitment_hex")
        .and_then(Json::as_str)
        .ok_or_else(|| CliError::Msg("response missing commitment_hex".to_string()))?;
    let bytes = decode_hex(hex).map_err(|e| CliError::Msg(format!("commitment_hex: {e}")))?;
    write_commitment(Path::new(&dir), &digest, &bytes)
}

fn fetch_status(addr: &str, id: u64) -> Result<Json, CliError> {
    let resp = http_request(addr, "GET", &format!("/v1/jobs/{id}"), None).map_err(CliError::Msg)?;
    if resp.status != 200 {
        return Err(http_error(&resp, &format!("job {id}")));
    }
    Json::parse(&resp.body).map_err(|e| CliError::Msg(format!("bad status json: {e}")))
}

/// Polls a job until it reaches a terminal state; returns its final status
/// document. Completed jobs optionally download artifacts into `--dir`.
fn wait_for_job(
    addr: &str,
    id: u64,
    timeout: Duration,
    dir: Option<&Path>,
) -> Result<(), CliError> {
    let start = Instant::now();
    loop {
        let status = fetch_status(addr, id)?;
        let state = status
            .get("status")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        match state.as_str() {
            "completed" => {
                println!(
                    "job {id} completed (k={}, {} segment(s), {} ms)",
                    status.get("k").and_then(Json::as_u64).unwrap_or(0),
                    status.get("segments").and_then(Json::as_u64).unwrap_or(0),
                    status.get("prove_ms").and_then(Json::as_u64).unwrap_or(0),
                );
                if let Some(dir) = dir {
                    write_proof_dir_from_status(dir, &status)?;
                }
                return Ok(());
            }
            "failed" => {
                let err = status
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error");
                return Err(CliError::Msg(format!("job {id} failed: {err}")));
            }
            "cancelled" => return Err(CliError::Msg(format!("job {id} was cancelled"))),
            _ => {}
        }
        if start.elapsed() > timeout {
            return Err(CliError::Msg(format!(
                "timed out after {timeout:?} waiting for job {id} (last state: {state})"
            )));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn submit_http_flow(args: &[String]) -> Result<(), CliError> {
    let model = args
        .get(1)
        .filter(|m| !m.starts_with("--"))
        .ok_or(CliError::Usage)?;
    let addr = flag_value(args, "--http").ok_or(CliError::Usage)?;
    let seed: u64 = parsed_flag(args, "--seed", 1)?;
    let mut body = JsonObj::new();
    if let Some(tenant) = flag_value(args, "--tenant") {
        body = body.str("tenant", &tenant);
    }
    if let Some(priority) = flag_value(args, "--priority") {
        body = body.str("priority", &priority);
    }
    let desc = if model.as_str() == "sleep" {
        // A no-op job, useful for exercising admission without proving.
        JobDesc::Sleep {
            ms: parsed_flag(args, "--sleep-ms", 0)?,
        }
    } else {
        JobDesc::Prove {
            model: model.clone(),
            backend: parse_backend(args),
            seed,
            segments: parse_segments(args)?,
            model_digest: parse_model_digest(args)?,
        }
    };
    let body = desc.write_json(body);
    let resp =
        http_request(&addr, "POST", "/v1/jobs", Some(&body.finish())).map_err(CliError::Msg)?;
    if resp.status != 202 {
        return Err(http_error(&resp, "submit"));
    }
    let accepted =
        Json::parse(&resp.body).map_err(|e| CliError::Msg(format!("bad response json: {e}")))?;
    let id = accepted
        .get("job_id")
        .and_then(Json::as_u64)
        .ok_or_else(|| CliError::Msg("response missing job_id".to_string()))?;
    println!("submitted job {id} ({model}, seed {seed})");
    if has_flag(args, "--wait") {
        let timeout = Duration::from_secs(parsed_flag(args, "--timeout-s", 600u64)?);
        let dir = flag_value(args, "--dir").map(PathBuf::from);
        wait_for_job(&addr, id, timeout, dir.as_deref())?;
    }
    Ok(())
}

fn status_http_flow(args: &[String]) -> Result<(), CliError> {
    let addr = flag_value(args, "--http").ok_or(CliError::Usage)?;
    let id: u64 = flag_value(args, "--id")
        .ok_or(CliError::Usage)?
        .parse()
        .map_err(|_| CliError::Msg("bad --id".to_string()))?;
    let status = fetch_status(&addr, id)?;
    let state = status
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    println!(
        "job {id}: {state} (tenant {}, {} {})",
        status.get("tenant").and_then(Json::as_str).unwrap_or("?"),
        status.get("priority").and_then(Json::as_str).unwrap_or("?"),
        status.get("kind").and_then(Json::as_str).unwrap_or("?"),
    );
    if let Some(err) = status.get("error").and_then(Json::as_str) {
        println!("error: {err}");
    }
    if state == "completed" {
        if let Some(dir) = flag_value(args, "--dir") {
            write_proof_dir_from_status(Path::new(&dir), &status)?;
        }
    }
    if state == "failed" || state == "cancelled" {
        return Err(CliError::Msg(format!("job {id} is {state}")));
    }
    Ok(())
}

fn cancel_http_flow(args: &[String]) -> Result<(), CliError> {
    let addr = flag_value(args, "--http").ok_or(CliError::Usage)?;
    let id: u64 = flag_value(args, "--id")
        .ok_or(CliError::Usage)?
        .parse()
        .map_err(|_| CliError::Msg("bad --id".to_string()))?;
    let resp =
        http_request(&addr, "DELETE", &format!("/v1/jobs/{id}"), None).map_err(CliError::Msg)?;
    if resp.status != 200 && resp.status != 202 {
        return Err(http_error(&resp, &format!("cancel job {id}")));
    }
    let doc =
        Json::parse(&resp.body).map_err(|e| CliError::Msg(format!("bad response json: {e}")))?;
    println!(
        "job {id}: {}",
        doc.get("status").and_then(Json::as_str).unwrap_or("?")
    );
    Ok(())
}
