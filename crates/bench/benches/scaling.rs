//! Multi-thread scaling study over the proving kernels: MSM, FFT, the full
//! PLONK prover, and segmented-vs-monolithic model proving, each swept over
//! explicit pools of 1/2/4/8 threads at k in {12, 14, 16, 18}. Results are
//! written to `BENCH_PAR.json` at the repository root — the regression
//! baseline every perf PR must move.
//!
//! Run with `cargo bench -p zkml-bench --bench scaling`.
//!
//! Each sweep uses `zkml_par::Pool::new(t)` directly rather than the
//! `ZKML_THREADS` global, so the thread axis is real even on machines where
//! the default pool is a single thread. Kernel outputs and proof bytes are
//! asserted identical across every pool size as the runs go by, so the
//! study doubles as a determinism check. Wall-clock speedup above 1 thread
//! is only observable when the host actually has spare cores — the `meta`
//! row records `cores` so readers (and the perf-smoke gate) can interpret
//! the parallel rows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use zkml_bench::scaling::{
    cores, msm_inputs, msm_jacobian, mul_chain, time_with_pool, write_bench_par,
};
use zkml_curves::msm;
use zkml_ff::{Field, Fr};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{create_proof_committed, keygen, CommittedWeights, ProvingKey};
use zkml_poly::EvaluationDomain;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const KS: [u32; 4] = [12, 14, 16, 18];

/// Fewer repetitions at the large sizes: a k=18 prove is tens of seconds,
/// and the sweep covers four pool sizes per k.
fn reps_for(k: u32) -> usize {
    match k {
        0..=14 => 3,
        15..=16 => 2,
        _ => 1,
    }
}

fn bench_msm(rows: &mut Vec<String>) {
    for k in KS {
        let (bases, scalars) = msm_inputs(k);
        let reps = reps_for(k);
        // Serial jacobian-bucket baseline: the pre-batch-affine kernel,
        // kept callable exactly so this ratio stays measurable.
        let (jac_ms, jac_out) = time_with_pool(&zkml_par::Pool::new(1), reps, || {
            msm_jacobian(&bases, &scalars)
        });
        rows.push(format!(
            "{{\"bench\":\"msm_jacobian\",\"k\":{k},\"threads\":1,\"ms\":{jac_ms:.3}}}"
        ));
        let expected = jac_out.to_affine();
        let mut serial_ms = f64::NAN;
        for t in THREADS {
            let pool = zkml_par::Pool::new(t);
            let (ms, out) = time_with_pool(&pool, reps, || msm(&bases, &scalars));
            assert_eq!(
                out.to_affine(),
                expected,
                "msm result differs from jacobian baseline at k={k} threads={t}"
            );
            if t == 1 {
                serial_ms = ms;
                println!(
                    "msm k={k}: batch-affine {ms:.2} ms vs jacobian {jac_ms:.2} ms \
                     (kernel speedup {:.2}x)",
                    jac_ms / ms
                );
            } else {
                println!(
                    "msm k={k} threads={t}: {ms:.2} ms (vs 1-thread {:.2}x)",
                    serial_ms / ms
                );
            }
            rows.push(format!(
                "{{\"bench\":\"msm\",\"k\":{k},\"threads\":{t},\"ms\":{ms:.3}}}"
            ));
        }
    }
}

fn bench_fft(rows: &mut Vec<String>) {
    let mut rng = StdRng::seed_from_u64(8);
    for k in KS {
        let domain = EvaluationDomain::<Fr>::new(k);
        let vals: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
        // Warm the twiddle cache outside the timed region; the cached rows
        // measure the steady state every prover phase after the first sees.
        let twiddles = domain.twiddles();
        let reps = reps_for(k) + 2;
        // Uncached baseline: rebuild the twiddle table every call, as the
        // kernel did before the per-domain cache.
        let (uncached_ms, _) = time_with_pool(&zkml_par::Pool::new(1), reps, || {
            let mut v = vals.clone();
            let tw = zkml_poly::fft::build_twiddles(domain.omega, domain.n);
            zkml_poly::fft::fft_in_place_with(&mut v, k, &tw);
            v
        });
        rows.push(format!(
            "{{\"bench\":\"fft_uncached\",\"k\":{k},\"threads\":1,\"ms\":{uncached_ms:.3}}}"
        ));
        let mut expected: Option<Vec<Fr>> = None;
        let mut serial_ms = f64::NAN;
        for t in THREADS {
            let pool = zkml_par::Pool::new(t);
            let (ms, out) = time_with_pool(&pool, reps, || {
                let mut v = vals.clone();
                zkml_poly::fft::fft_in_place_with(&mut v, k, &twiddles);
                v
            });
            match &expected {
                None => expected = Some(out),
                Some(e) => assert_eq!(*e, out, "fft differs at k={k} threads={t}"),
            }
            if t == 1 {
                serial_ms = ms;
                println!(
                    "fft k={k}: cached {ms:.2} ms vs uncached {uncached_ms:.2} ms \
                     ({:.2}x)",
                    uncached_ms / ms
                );
            } else {
                println!(
                    "fft k={k} threads={t}: {ms:.2} ms (vs 1-thread {:.2}x)",
                    serial_ms / ms
                );
            }
            rows.push(format!(
                "{{\"bench\":\"fft\",\"k\":{k},\"threads\":{t},\"ms\":{ms:.3}}}"
            ));
        }
    }
}

fn bench_prove(rows: &mut Vec<String>) {
    let max_k = *KS.iter().max().unwrap();
    let t = Instant::now();
    let mut srs_rng = StdRng::seed_from_u64(999);
    // One SRS at the largest k serves every circuit size.
    let params = Params::setup(Backend::Kzg, max_k, &mut srs_rng);
    println!(
        "prove: SRS setup at k={max_k} took {:.1} s",
        t.elapsed().as_secs_f64()
    );
    for k in KS {
        let c = mul_chain(k);
        let t = Instant::now();
        let pk = keygen(&params, &c.cs, &c.pre, k).expect("keygen");
        println!("prove k={k}: keygen {:.1} s", t.elapsed().as_secs_f64());
        let reps = reps_for(k);
        let mut expected: Option<Vec<u8>> = None;
        let mut serial_ms = f64::NAN;
        for t in THREADS {
            let pool = zkml_par::Pool::new(t);
            let (ms, proof) = time_with_pool(&pool, reps, || {
                let mut rng = StdRng::seed_from_u64(424242);
                create_proof_committed(
                    &params,
                    &pk,
                    &c.witness,
                    &mut rng,
                    &[],
                    &CommittedWeights::empty(),
                )
                .expect("prove")
            });
            match &expected {
                None => expected = Some(proof),
                Some(e) => assert_eq!(
                    *e, proof,
                    "proof bytes differ at k={k} threads={t} — determinism violation"
                ),
            }
            if t == 1 {
                serial_ms = ms;
                println!("prove k={k}: 1-thread {ms:.2} ms");
            } else {
                println!(
                    "prove k={k} threads={t}: {ms:.2} ms (vs 1-thread {:.2}x)",
                    serial_ms / ms
                );
            }
            rows.push(format!(
                "{{\"bench\":\"prove\",\"k\":{k},\"threads\":{t},\"ms\":{ms:.3}}}"
            ));
        }
    }
}

/// A [`zkml_shard::KeySource`] serving pre-generated keys, so segmented
/// proving can be timed without its per-segment keygen — the split that
/// bisects the segmented-vs-monolithic gap.
struct CachedKeys {
    inner: zkml_shard::FreshKeySource,
    pks: std::sync::Mutex<std::collections::HashMap<[u8; 32], Arc<ProvingKey>>>,
}

impl zkml_shard::KeySource for CachedKeys {
    fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        self.inner.params(backend, k)
    }
    fn proving_key(
        &self,
        model_hash: [u8; 32],
        backend: Backend,
        plan: &zkml::LayoutPlan,
        compiled: &zkml::CompiledCircuit,
        params: &Params,
    ) -> Result<Arc<ProvingKey>, zkml::ZkmlError> {
        let digest = plan.digest();
        if let Some(pk) = self.pks.lock().unwrap().get(&digest) {
            return Ok(Arc::clone(pk));
        }
        let pk = self
            .inner
            .proving_key(model_hash, backend, plan, compiled, params)?;
        self.pks.lock().unwrap().insert(digest, Arc::clone(&pk));
        Ok(pk)
    }
}

/// Segmented-vs-monolithic proving latency swept over pool sizes.
///
/// Four timings per thread count bisect where segmented time goes:
/// monolithic keygen and prove separately, segmented with per-segment
/// keygen (`FreshKeySource`, what the standalone CLI pays), and segmented
/// with cached keys (pure proving). The historical ~1.3x segmented
/// slow-down is keygen-dominated: three segments mean three keygens plus
/// ~1.5x the total rows of the monolithic layout (3 x 2^14 vs 2^15).
fn bench_segmented(rows: &mut Vec<String>) {
    use zkml::OptimizerOptions;

    let g = zkml_model::zoo::by_name("MNIST").expect("zoo model");
    let backend = Backend::Kzg;
    let opts = OptimizerOptions::new(backend, 15);
    let hw = zkml::cost::HardwareStats::cached();
    let inputs = zkml::zero_inputs(&g);
    let sched = zkml::layers::lower_graph(&g, &inputs, opts.numeric);

    let report = zkml::optimize_schedule(sched.clone(), &opts, hw).expect("monolithic layout");
    let mono = report.synthesize_best().expect("monolithic synthesis");
    let mut srs_rng = StdRng::seed_from_u64(zkml_shard::DEFAULT_SRS_SEED);
    let params = Params::setup(backend, mono.k, &mut srs_rng);

    let fresh = zkml_shard::FreshKeySource::default();
    let cached = CachedKeys {
        inner: zkml_shard::FreshKeySource::default(),
        pks: std::sync::Mutex::new(std::collections::HashMap::new()),
    };
    let segs = zkml_shard::compile_segments(&sched, zkml_shard::SegmentSpec::Fixed(3), &opts, hw)
        .expect("segment compilation");
    let nsegs = segs.len();
    let seg_ks: Vec<u32> = segs.iter().map(|s| s.compiled.k).collect();
    // Populate the cache (and the fresh source's params memo) once,
    // outside the timed region.
    zkml_shard::prove_compiled(g.content_hash(), &segs, &cached, &opts, 9).expect("cache warmup");

    for threads in THREADS {
        let pool = zkml_par::Pool::new(threads);
        let (keygen_ms, pk) = time_with_pool(&pool, 1, || mono.keygen(&params).expect("keygen"));
        let (prove_ms, _) = time_with_pool(&pool, 1, || {
            let mut rng = StdRng::seed_from_u64(9);
            mono.prove(&params, &pk, &mut rng).expect("prove").len()
        });
        let (seg_fresh_ms, _) = time_with_pool(&pool, 1, || {
            zkml_shard::prove_compiled(g.content_hash(), &segs, &fresh, &opts, 9)
                .expect("segmented prove")
                .segments
                .len()
        });
        let (seg_cached_ms, _) = time_with_pool(&pool, 1, || {
            zkml_shard::prove_compiled(g.content_hash(), &segs, &cached, &opts, 9)
                .expect("segmented prove")
                .segments
                .len()
        });
        println!(
            "segmented_prove MNIST threads={threads}: monolithic(k={}) keygen {keygen_ms:.0} + \
             prove {prove_ms:.0} ms; segmented({nsegs} x k={seg_ks:?}) fresh {seg_fresh_ms:.0} ms, \
             cached-keys {seg_cached_ms:.0} ms",
            mono.k
        );
        rows.push(format!(
            "{{\"bench\":\"segmented_prove\",\"model\":\"MNIST\",\"segments\":{nsegs},\
             \"threads\":{threads},\"monolithic_keygen_ms\":{keygen_ms:.3},\
             \"monolithic_prove_ms\":{prove_ms:.3},\"segmented_fresh_ms\":{seg_fresh_ms:.3},\
             \"segmented_prove_ms\":{seg_cached_ms:.3}}}"
        ));
    }
}

/// `SCALING_SECTIONS=msm,fft,prove,segmented` restricts the run to a
/// subset (the study is long; this lets an interrupted run resume a
/// section at a time). Unset runs everything.
fn enabled(name: &str) -> bool {
    match std::env::var("SCALING_SECTIONS") {
        Ok(s) => s.split(',').any(|x| x.trim() == name),
        Err(_) => true,
    }
}

fn main() {
    let mut rows = vec![format!(
        "{{\"bench\":\"meta\",\"cores\":{},\"threads_swept\":[1,2,4,8],\"ks\":[12,14,16,18]}}",
        cores()
    )];
    type Section = fn(&mut Vec<String>);
    let sections: [(&str, Section); 4] = [
        ("msm", bench_msm),
        ("fft", bench_fft),
        ("prove", bench_prove),
        ("segmented", bench_segmented),
    ];
    let partial = std::env::var("SCALING_SECTIONS").is_ok();
    for (name, run) in sections {
        if enabled(name) {
            run(&mut rows);
            if !partial {
                write_bench_par(&rows);
            }
        }
    }
    if partial {
        // Partial runs print their rows instead of clobbering the full file.
        println!("--- rows (merge into BENCH_PAR.json by hand) ---");
        for r in &rows {
            println!("  {r},");
        }
    } else {
        println!("wrote BENCH_PAR.json ({} rows)", rows.len());
    }
}
