//! Fast perf-smoke gate for `scripts/check.sh`.
//!
//! Runs the scaling kernels at a small size and fails (exit 1) if any
//! measured ratio regresses past the thresholds stored in
//! `PERF_THRESHOLDS.json` at the repository root (alongside
//! `BENCH_PAR.json`). Seven ratios, one latency and one count are gated:
//!
//! - `min_msm_kernel_ratio`: serial jacobian-bucket MSM time
//!   ([`zkml_bench::scaling::msm_jacobian`]) over serial batch-affine MSM
//!   time — the single-thread kernel win, meaningful on any hardware.
//! - `min_par4_msm_ratio` / `min_par4_fft_ratio`: 1-thread time over
//!   4-thread time for MSM and FFT. On a multi-core host these gate the
//!   parallel speedup; on a single-core host they sit near 1.0 and still
//!   catch catastrophic regressions (oversubscription, pool deadlock,
//!   lost-parallelism bugs that serialize with extra overhead).
//! - `max_small_msm_ratio`: serial MSM time over 13-bit signed scalars (a
//!   third of them zero — the shape of a fixed-point witness column) over
//!   the time over uniform scalars, at `n = 2^10`. The kernel builds only
//!   the windows the widest scalar needs, so this sits near 2/29; it binds
//!   on any core count and is never recorded looser than 0.25.
//! - `max_plateau_msm_ratio`: serial MSM time over a grand-product-shaped
//!   column (one value on 490 of 1 024 rows, five values on 50 rows each,
//!   the rest distinct) over the time over uniform scalars, at `n = 2^10`.
//!   The kernel sums the bases of a repeated scalar once, so this reads
//!   0.32–0.53; without the merge every repeat collides in one bucket of
//!   every window and the column cost 1.6–2.6 uniform MSMs. It binds on any
//!   core count and is never recorded looser than 1.0.
//! - `max_json_parse_growth`: the time `zkml_net::Json::parse` takes over a
//!   1 MiB `{"proof_hex":"…"}` document over its time over a 256 KiB one:
//!   the two parses alternate in one loop and the gate reads the median of
//!   `4 * REPS` per-round ratios, so host drift hits both sides alike. The
//!   parser copies each run of plain string bytes as one slice, so this
//!   reads 4.0–4.7; a parser that re-scans the rest of the input per
//!   character reads about 16 (22.8 s for 1 MB on a 2-vCPU host). It is a ratio of one kernel to itself, so
//!   it binds on any host, and it is never recorded looser than 8.
//! - `max_http_p50_ms`: the median of 200 sequential `GET /v1/healthz`
//!   round trips through `zkml_net::http_request` to an in-process gateway
//!   without a journal, so no disk is on the path. Each handler blocks in
//!   `accept`, so this reads about 0.1–0.3 ms on a 2-vCPU host; an accept
//!   loop that polls every 5 ms reads about 5. The bound is not measured:
//!   it is the single-client target, 1.0 ms, and recording keeps whatever
//!   value the file holds (1.0 when it holds none).
//! - `max_analyze_evals_per_row`: the gate polynomials and lookup input
//!   tuples the static analyzer evaluates on MNIST at the layout the
//!   fixture calibration picks, over all rounds, divided by the circuit's
//!   `2^k` rows. The analyzer skips a constraint on rows where its selector
//!   is zero, so this reads 13.8; evaluating every lookup on every row
//!   reads 25.6. It is a count, so it binds on any host; recording keeps
//!   whatever value the file holds (15.0 when it holds none).
//! - `max_sweep_over_synthesis`: the time of MNIST's full layout sweep
//!   (163 placements under the fixture calibration) over the time of one
//!   synthesis of its winner, the medians of 11 alternating rounds on a
//!   one-thread pool. Placement sums a schedule's distinct op shapes, so
//!   this reads 3.3–3.8 on a 2-vCPU host (about 3.3 ms over 0.9 ms);
//!   replaying every gadget body cell by cell, as placement once did,
//!   read about 33. Both sides run under the same host load, so it binds
//!   on any host; recording keeps whatever value the file holds (12.0
//!   when it holds none).
//!
//! The verifier's work is not timed here: its MSM calls and points,
//! Miller-loop pairs and final exponentiations are counted, and
//! `crates/bench/tests/verifier_work.rs` pins the counts of one proof and of
//! one bundle exactly.
//!
//! Thresholds are hardware-dependent, so the file records the core count
//! they were measured on. If the current machine's core count differs, the
//! parallel gates are skipped with a warning (the kernel gate still runs);
//! re-record with `ZKML_PERF_RECORD=1 cargo run --release -p zkml-bench
//! --bin perf_smoke`, which rewrites the file with freshly measured ratios
//! minus a noise margin.

use std::time::Instant;
use zkml::{optimize_schedule, HardwareStats, OptimizerOptions};
use zkml_bench::scaling::{cores, msm_inputs, msm_jacobian, time_with_pool};
use zkml_curves::msm;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_net::{encode_hex, http_request, Gateway, GatewayConfig, Json, JsonObj};
use zkml_pcs::Backend;
use zkml_poly::EvaluationDomain;

/// Grid size for the smoke kernels: large enough that the batch-affine and
/// parallel paths engage, small enough to finish in seconds.
const SMOKE_K: u32 = 13;
/// Repetitions per timing (median taken) to damp scheduler noise.
const REPS: usize = 5;
/// Fraction of a freshly measured ratio kept when recording thresholds,
/// leaving headroom for run-to-run timing noise.
const RECORD_MARGIN: f64 = 0.6;
/// Size of the small-over-uniform MSM comparison: the MNIST circuit's `k`.
const SMALL_MSM_K: u32 = 10;
/// The loosest `max_small_msm_ratio` ever recorded.
const SMALL_MSM_CEILING: f64 = 0.25;
/// The loosest `max_plateau_msm_ratio` ever recorded: a grand-product
/// column may cost at most one uniform MSM.
const PLATEAU_MSM_CEILING: f64 = 1.0;
/// Sizes of the small and the large document `max_json_parse_growth`
/// compares: four times the bytes.
const JSON_SMALL_BYTES: usize = 256 << 10;
const JSON_LARGE_BYTES: usize = 1 << 20;
/// The loosest `max_json_parse_growth` ever recorded: four times the bytes
/// may cost at most eight times the time.
const JSON_PARSE_GROWTH_CEILING: f64 = 8.0;

/// Sequential round trips `max_http_p50_ms` takes the median of.
const HTTP_ROUND_TRIPS: usize = 200;
/// The `max_http_p50_ms` a first recording writes, in milliseconds.
const HTTP_P50_TARGET_MS: f64 = 1.0;
/// The `max_analyze_evals_per_row` a first recording writes.
const ANALYZE_EVALS_PER_ROW_TARGET: f64 = 15.0;
/// Alternating sweep/synthesis rounds `max_sweep_over_synthesis` takes
/// the medians of.
const SWEEP_ROUNDS: usize = 11;
/// The `max_sweep_over_synthesis` a first recording writes.
const SWEEP_OVER_SYNTHESIS_TARGET: f64 = 12.0;

fn thresholds_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../PERF_THRESHOLDS.json")
}

/// Extracts `"key": <number>` from a flat JSON object without a JSON
/// dependency (the bench crate stays dependency-free).
fn json_number(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = body.find(&pat)? + pat.len();
    let rest = body[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Measured {
    kernel_ratio: f64,
    par4_msm_ratio: f64,
    par4_fft_ratio: f64,
    small_msm_ratio: f64,
    plateau_msm_ratio: f64,
    json_parse_growth: f64,
    http_p50_ms: f64,
    analyze_evals_per_row: f64,
    sweep_over_synthesis: f64,
}

/// A status-shaped document of about `bytes` bytes: one hex-encoded proof.
fn proof_document(bytes: usize) -> String {
    let proof: Vec<u8> = (0..bytes / 2).map(|i| (i * 131 + i / 7) as u8).collect();
    JsonObj::new()
        .str("proof_hex", &encode_hex(&proof))
        .finish()
}

/// A grand-product-shaped column of `2^SMALL_MSM_K` = 1 024 rows: a running
/// product stands still wherever its factor is 1, so one value fills 490
/// rows and five more 50 rows each, scattered; the rest are distinct.
fn plateau_column(rng: &mut rand::rngs::StdRng) -> Vec<Fr> {
    let n = 1usize << SMALL_MSM_K;
    let plateau = Fr::random(&mut *rng);
    let steps: Vec<Fr> = (0..5).map(|_| Fr::random(&mut *rng)).collect();
    let column: Vec<Fr> = (0..n)
        .map(|i| match i {
            0..490 => plateau,
            490..740 => steps[(i - 490) / 50],
            _ => Fr::random(&mut *rng),
        })
        .collect();
    // 389 is odd, so `i * 389 mod 2^10` permutes the rows.
    (0..n).map(|i| column[i * 389 % n]).collect()
}

/// Parses `small` and `large` alternately, one warm-up round and then
/// `rounds` timed ones, and returns the median small and large times in
/// milliseconds and the median over rounds of large time over small time.
/// A round's two parses run back to back, so host drift hits both alike.
fn json_parse_times(rounds: usize, small: &str, large: &str) -> (f64, f64, f64) {
    let time = |doc: &str| {
        let t = Instant::now();
        std::hint::black_box(Json::parse(doc)).expect("the document parses");
        t.elapsed().as_secs_f64() * 1e3
    };
    time(small);
    time(large);
    let (mut smalls, mut larges, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (s, l) = (time(small), time(large));
        smalls.push(s);
        larges.push(l);
        ratios.push(l / s);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(smalls), median(larges), median(ratios))
}

/// The median time of `HTTP_ROUND_TRIPS` sequential `GET /v1/healthz`
/// requests, each on its own connection, to a gateway without a journal.
fn http_p50_ms() -> f64 {
    let gw = Gateway::start(GatewayConfig::default()).expect("start gateway");
    let addr = gw.local_addr().to_string();
    let mut times: Vec<f64> = (0..HTTP_ROUND_TRIPS)
        .map(|_| {
            let t = Instant::now();
            let resp = http_request(&addr, "GET", "/v1/healthz", None).expect("GET /v1/healthz");
            assert_eq!(resp.status, 200, "healthz: {}", resp.body);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    gw.shutdown();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Constraint evaluations per row of one static analysis of MNIST at the
/// layout the fixture calibration picks.
fn analyze_evals_per_row() -> f64 {
    let g = zkml_model::zoo::by_name("mnist").expect("MNIST is in the zoo");
    let opts = OptimizerOptions::new(Backend::Kzg, 15);
    let compiled = zkml::optimize(&g, &zkml::zero_inputs(&g), &opts, &HardwareStats::fixture())
        .and_then(|sweep| sweep.synthesize_best())
        .expect("MNIST compiles");
    let report = compiled.analyze();
    assert!(report.is_clean(), "MNIST: {report}");
    report.evaluations as f64 / (1u64 << compiled.k) as f64
}

/// MNIST's layout sweep time and the time of one synthesis of the sweep's
/// winner (ms), as medians of alternating rounds on a one-thread pool.
fn sweep_and_synthesis_ms() -> (f64, f64) {
    let g = zkml_model::zoo::by_name("mnist").expect("MNIST is in the zoo");
    let opts = OptimizerOptions::new(Backend::Kzg, 15);
    let hw = HardwareStats::fixture();
    let sched = zkml::layers::lower_graph(&g, &zkml::zero_inputs(&g), opts.numeric);
    let (mut sweep_ms, mut synth_ms) = (Vec::new(), Vec::new());
    let elapsed_ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    zkml_par::with_pool(&zkml_par::Pool::new(1), || {
        for _ in 0..SWEEP_ROUNDS {
            let sched = sched.clone();
            let t = Instant::now();
            let sweep = optimize_schedule(sched, &opts, &hw).expect("MNIST sweeps");
            sweep_ms.push(elapsed_ms(t));
            let t = Instant::now();
            std::hint::black_box(sweep.synthesize_best().expect("MNIST synthesizes"));
            synth_ms.push(elapsed_ms(t));
        }
    });
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(sweep_ms), median(synth_ms))
}

fn measure() -> Measured {
    let serial = zkml_par::Pool::new(1);
    let quad = zkml_par::Pool::new(4);

    let (bases, scalars) = msm_inputs(SMOKE_K);
    let (jac_ms, _) = time_with_pool(&serial, REPS, || msm_jacobian(&bases, &scalars));
    let (msm1_ms, _) = time_with_pool(&serial, REPS, || msm(&bases, &scalars));
    let (msm4_ms, _) = time_with_pool(&quad, REPS, || msm(&bases, &scalars));

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(31);
    let (bases10, uniform) = msm_inputs(SMALL_MSM_K);
    let small: Vec<Fr> = (0..bases10.len())
        .map(|i| match i % 3 {
            0 => Fr::zero(),
            _ => Fr::from_i64(rand::Rng::gen_range(
                &mut rng,
                -(1i64 << 13) + 1..1i64 << 13,
            )),
        })
        .collect();
    let plateau = plateau_column(&mut rng);
    let (uniform_ms, _) = time_with_pool(&serial, 4 * REPS, || msm(&bases10, &uniform));
    let (small_ms, _) = time_with_pool(&serial, 4 * REPS, || msm(&bases10, &small));
    let (plateau_ms, _) = time_with_pool(&serial, 4 * REPS, || msm(&bases10, &plateau));

    let domain = EvaluationDomain::<Fr>::new(SMOKE_K + 3);
    let vals: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
    let twiddles = domain.twiddles();
    let run_fft = || {
        let mut v = vals.clone();
        zkml_poly::fft::fft_in_place_with(&mut v, domain.k, &twiddles);
        v
    };
    let (fft1_ms, _) = time_with_pool(&serial, REPS + 4, run_fft);
    let (fft4_ms, _) = time_with_pool(&quad, REPS + 4, run_fft);

    let (small_doc, large_doc) = (
        proof_document(JSON_SMALL_BYTES),
        proof_document(JSON_LARGE_BYTES),
    );
    let (json_small_ms, json_large_ms, json_parse_growth) =
        json_parse_times(4 * REPS, &small_doc, &large_doc);

    let http_p50_ms = http_p50_ms();
    let analyze_evals_per_row = analyze_evals_per_row();
    let (sweep_ms, synth_ms) = sweep_and_synthesis_ms();
    let sweep_over_synthesis = sweep_ms / synth_ms;

    println!(
        "perf-smoke k={SMOKE_K}: msm jacobian {jac_ms:.2} ms, batch-affine {msm1_ms:.2} ms \
         (kernel {:.2}x); msm 4-thread {msm4_ms:.2} ms ({:.2}x); \
         fft 1-thread {fft1_ms:.2} ms, 4-thread {fft4_ms:.2} ms ({:.2}x); \
         msm 2^{SMALL_MSM_K} uniform {uniform_ms:.2} ms, 13-bit signed {small_ms:.2} ms ({:.3}), \
         grand-product column {plateau_ms:.2} ms ({:.3}); \
         json parse 256 KiB {json_small_ms:.3} ms, 1 MiB {json_large_ms:.3} ms \
         ({json_parse_growth:.2}x); http healthz p50 {http_p50_ms:.3} ms \
         ({HTTP_ROUND_TRIPS} round trips); analyzer {analyze_evals_per_row:.2} \
         evaluations per row; MNIST sweep {sweep_ms:.2} ms, synthesis {synth_ms:.2} ms \
         ({sweep_over_synthesis:.2}x)",
        jac_ms / msm1_ms,
        msm1_ms / msm4_ms,
        fft1_ms / fft4_ms,
        small_ms / uniform_ms,
        plateau_ms / uniform_ms,
    );
    Measured {
        kernel_ratio: jac_ms / msm1_ms,
        par4_msm_ratio: msm1_ms / msm4_ms,
        par4_fft_ratio: fft1_ms / fft4_ms,
        small_msm_ratio: small_ms / uniform_ms,
        plateau_msm_ratio: plateau_ms / uniform_ms,
        json_parse_growth,
        http_p50_ms,
        analyze_evals_per_row,
        sweep_over_synthesis,
    }
}

fn record(m: &Measured) {
    let stored = std::fs::read_to_string(thresholds_path()).unwrap_or_default();
    let http_p50_bound = json_number(&stored, "max_http_p50_ms").unwrap_or(HTTP_P50_TARGET_MS);
    let evals_bound =
        json_number(&stored, "max_analyze_evals_per_row").unwrap_or(ANALYZE_EVALS_PER_ROW_TARGET);
    let sweep_bound =
        json_number(&stored, "max_sweep_over_synthesis").unwrap_or(SWEEP_OVER_SYNTHESIS_TARGET);
    let body = format!(
        "{{\n  \"cores\": {},\n  \"k\": {SMOKE_K},\n  \"min_msm_kernel_ratio\": {:.2},\n  \
         \"min_par4_msm_ratio\": {:.2},\n  \"min_par4_fft_ratio\": {:.2},\n  \
         \"max_small_msm_ratio\": {:.2},\n  \"max_plateau_msm_ratio\": {:.2},\n  \
         \"max_json_parse_growth\": {:.2},\n  \"max_http_p50_ms\": {http_p50_bound:.2},\n  \
         \"max_analyze_evals_per_row\": {evals_bound:.2},\n  \
         \"max_sweep_over_synthesis\": {sweep_bound:.2}\n}}\n",
        cores(),
        m.kernel_ratio * RECORD_MARGIN,
        m.par4_msm_ratio * RECORD_MARGIN,
        m.par4_fft_ratio * RECORD_MARGIN,
        (m.small_msm_ratio / RECORD_MARGIN).min(SMALL_MSM_CEILING),
        (m.plateau_msm_ratio / RECORD_MARGIN).min(PLATEAU_MSM_CEILING),
        (m.json_parse_growth / RECORD_MARGIN).min(JSON_PARSE_GROWTH_CEILING),
    );
    std::fs::write(thresholds_path(), &body).expect("write PERF_THRESHOLDS.json");
    println!("recorded thresholds:\n{body}");
}

fn main() {
    let m = measure();
    if std::env::var("ZKML_PERF_RECORD").is_ok_and(|v| v == "1") {
        record(&m);
        return;
    }
    let body = match std::fs::read_to_string(thresholds_path()) {
        Ok(b) => b,
        Err(_) => {
            eprintln!(
                "perf-smoke: no PERF_THRESHOLDS.json; run with ZKML_PERF_RECORD=1 to baseline"
            );
            std::process::exit(1);
        }
    };
    let stored_cores = json_number(&body, "cores").unwrap_or(0.0) as usize;
    let mut failed = false;
    // `min_*` thresholds are floors, `max_*` thresholds are ceilings.
    let mut gate = |name: &str, measured: f64| {
        let Some(limit) = json_number(&body, name) else {
            eprintln!("perf-smoke: threshold '{name}' missing from PERF_THRESHOLDS.json");
            failed = true;
            return;
        };
        let (ok, cmp) = if name.starts_with("max_") {
            (measured <= limit, "<=")
        } else {
            (measured >= limit, ">=")
        };
        if ok {
            println!("perf-smoke ok: {name}: {measured:.3} {cmp} {limit:.2}");
        } else {
            eprintln!("perf-smoke FAIL: {name}: measured {measured:.3} not {cmp} {limit:.2}");
            failed = true;
        }
    };
    gate("min_msm_kernel_ratio", m.kernel_ratio);
    gate("max_small_msm_ratio", m.small_msm_ratio);
    gate("max_plateau_msm_ratio", m.plateau_msm_ratio);
    gate("max_json_parse_growth", m.json_parse_growth);
    gate("max_http_p50_ms", m.http_p50_ms);
    gate("max_analyze_evals_per_row", m.analyze_evals_per_row);
    gate("max_sweep_over_synthesis", m.sweep_over_synthesis);
    if stored_cores == cores() {
        gate("min_par4_msm_ratio", m.par4_msm_ratio);
        gate("min_par4_fft_ratio", m.par4_fft_ratio);
    } else {
        println!(
            "perf-smoke: thresholds recorded on {stored_cores} cores, this machine has {} — \
             skipping parallel-ratio gates (re-record with ZKML_PERF_RECORD=1)",
            cores()
        );
    }
    if failed {
        std::process::exit(1);
    }
}
