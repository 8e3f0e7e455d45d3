//! Fast perf-smoke gate for `scripts/check.sh`.
//!
//! Runs the scaling kernels at a small size and fails (exit 1) if any
//! measured ratio regresses past the thresholds stored in
//! `PERF_THRESHOLDS.json` at the repository root (alongside
//! `BENCH_PAR.json`). Six ratios are gated:
//!
//! - `min_msm_kernel_ratio`: serial jacobian-bucket MSM time over serial
//!   batch-affine MSM time — the single-thread kernel win, meaningful on
//!   any hardware.
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
//! - `max_verify_msm_ratio`: serial time to verify and settle the
//!   `mul_chain` proof at `k = 10` over the serial Jacobian reference MSM
//!   (`msm_jacobian`) at `n = 2^10`, a yardstick no change to `msm` moves.
//!   A KZG check is one MSM over the proof's distinct commitments and one
//!   two-pair Miller loop over prepared G2 lines with the x-chain final
//!   exponentiation, 0.07–0.15 of that MSM (median 0.12 on a 2-vCPU host).
//!   It binds on any core count and is never recorded looser than 0.20,
//!   which a verifier twice as slow exceeds.
//!
//! Thresholds are hardware-dependent, so the file records the core count
//! they were measured on. If the current machine's core count differs, the
//! parallel gates are skipped with a warning (the kernel gate still runs);
//! re-record with `ZKML_PERF_RECORD=1 cargo run --release -p zkml-bench
//! --bin perf_smoke`, which rewrites the file with freshly measured ratios
//! minus a noise margin.

use zkml_bench::scaling::{cores, msm_inputs, mul_chain, time_with_pool};
use zkml_curves::{msm, msm_jacobian};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{create_proof_committed, keygen, verify_proof, CommittedWeights};
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
/// The loosest `max_verify_msm_ratio` ever recorded: under twice the
/// measured median.
const VERIFY_MSM_CEILING: f64 = 0.20;

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
    verify_msm_ratio: f64,
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
    let (jacobian10_ms, _) = time_with_pool(&serial, 4 * REPS, || msm_jacobian(&bases10, &uniform));

    // Keygen and proving run on the default pool; only verification is timed.
    let mut proof_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let chain = mul_chain(SMALL_MSM_K);
    let params = Params::setup(Backend::Kzg, SMALL_MSM_K, &mut proof_rng);
    let pk = keygen(&params, &chain.cs, &chain.pre, SMALL_MSM_K).expect("keygen");
    let proof = create_proof_committed(
        &params,
        &pk,
        &chain.witness,
        &mut proof_rng,
        &[],
        &CommittedWeights::empty(),
    )
    .expect("prove");
    let (verify_ms, _) = time_with_pool(&serial, 4 * REPS, || {
        verify_proof(&params, &pk.vk, &chain.instance, &proof, &[], None).expect("verify")
    });

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

    println!(
        "perf-smoke k={SMOKE_K}: msm jacobian {jac_ms:.2} ms, batch-affine {msm1_ms:.2} ms \
         (kernel {:.2}x); msm 4-thread {msm4_ms:.2} ms ({:.2}x); \
         fft 1-thread {fft1_ms:.2} ms, 4-thread {fft4_ms:.2} ms ({:.2}x); \
         msm 2^{SMALL_MSM_K} uniform {uniform_ms:.2} ms, 13-bit signed {small_ms:.2} ms ({:.3}), \
         grand-product column {plateau_ms:.2} ms ({:.3}), jacobian {jacobian10_ms:.2} ms; \
         verify k={SMALL_MSM_K} {verify_ms:.2} ms ({:.3})",
        jac_ms / msm1_ms,
        msm1_ms / msm4_ms,
        fft1_ms / fft4_ms,
        small_ms / uniform_ms,
        plateau_ms / uniform_ms,
        verify_ms / jacobian10_ms
    );
    Measured {
        kernel_ratio: jac_ms / msm1_ms,
        par4_msm_ratio: msm1_ms / msm4_ms,
        par4_fft_ratio: fft1_ms / fft4_ms,
        small_msm_ratio: small_ms / uniform_ms,
        plateau_msm_ratio: plateau_ms / uniform_ms,
        verify_msm_ratio: verify_ms / jacobian10_ms,
    }
}

fn record(m: &Measured) {
    let body = format!(
        "{{\n  \"cores\": {},\n  \"k\": {SMOKE_K},\n  \"min_msm_kernel_ratio\": {:.2},\n  \
         \"min_par4_msm_ratio\": {:.2},\n  \"min_par4_fft_ratio\": {:.2},\n  \
         \"max_small_msm_ratio\": {:.2},\n  \"max_plateau_msm_ratio\": {:.2},\n  \
         \"max_verify_msm_ratio\": {:.2}\n}}\n",
        cores(),
        m.kernel_ratio * RECORD_MARGIN,
        m.par4_msm_ratio * RECORD_MARGIN,
        m.par4_fft_ratio * RECORD_MARGIN,
        (m.small_msm_ratio / RECORD_MARGIN).min(SMALL_MSM_CEILING),
        (m.plateau_msm_ratio / RECORD_MARGIN).min(PLATEAU_MSM_CEILING),
        (m.verify_msm_ratio / RECORD_MARGIN).min(VERIFY_MSM_CEILING),
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
    gate("max_verify_msm_ratio", m.verify_msm_ratio);
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
