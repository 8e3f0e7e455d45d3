//! Integration tests for the proving service: artifact-cache warm path,
//! queue backpressure, worker panic isolation, and warm restarts from disk.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use zkml::{compile, CircuitConfig, LayoutChoices};
use zkml_model::{Activation, Graph, GraphBuilder, Op};
use zkml_pcs::Backend;
use zkml_service::{
    pk_matches_circuit, ArtifactCache, ArtifactKey, CacheOutcome, CancelToken, JobKind, JobSpec,
    Pipeline, ProvingService, ServiceConfig, ServiceError, Stage,
};
use zkml_tensor::Tensor;

/// A small but representative model: FC + relu + FC head.
fn tiny_mlp() -> Graph {
    let mut b = GraphBuilder::new("svc-mlp", 77);
    let x = b.input(vec![1, 6], "x");
    let w1 = b.weight(vec![6, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 4], "w2");
    let b2 = b.weight(vec![4], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    b.finish(vec![y])
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkml-service-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The acceptance-criteria test: proving the same model twice through the
/// service hits the artifact cache on the second job (no keygen), both
/// proofs pass the worker's verification, and the stats report the cache hit.
#[test]
fn second_job_hits_artifact_cache_and_verifies() {
    let service = ProvingService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let graph = Arc::new(tiny_mlp());

    let first = service
        .submit(JobSpec::prove(graph.clone(), Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .expect("prove jobs produce artifacts");
    assert_eq!(first.cache, CacheOutcome::Miss);
    assert!(!first.proof.is_empty());

    let second = service
        .submit(JobSpec::prove(graph.clone(), Backend::Kzg, 2))
        .unwrap()
        .wait()
        .unwrap()
        .expect("prove jobs produce artifacts");
    assert_eq!(
        second.cache,
        CacheOutcome::MemoryHit,
        "second job must reuse the cached pk"
    );
    assert_eq!(second.k, first.k);
    assert_eq!(second.vk_bytes, first.vk_bytes);
    // Different input seeds -> different witnesses and proofs.
    assert_ne!(second.proof, first.proof);

    // Each worker verified its proof before the job completed.
    let snap = service.snapshot();
    assert_eq!(snap.verify_failures, 0);
    assert_eq!(snap.jobs_submitted, 2);
    assert_eq!(snap.jobs_completed, 2);
    assert_eq!(snap.jobs_failed, 0);
    assert_eq!(snap.cache_misses, 1);
    assert!(snap.cache_hits >= 1, "stats must report the cache hit");
    assert!(snap.cache_hit_rate > 0.0);
    assert_eq!(snap.proofs_verified, 2);
    assert!(snap.prove_p50_ms <= snap.prove_p95_ms);
    assert!(snap.verify_p50_ms <= snap.verify_p95_ms);
}

/// Segmented jobs flow through the service end to end: the artifact is a
/// chained bundle verified inline as one batch, per-segment proving keys
/// shard into the artifact cache (a second job is a pure memory hit), and
/// the stats count every segment proof.
#[test]
fn segmented_job_proves_verifies_and_shards_cache() {
    use zkml_shard::{verify_bundle, FreshKeySource, KeySource, SegmentSpec};

    let service = ProvingService::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let graph = Arc::new(tiny_mlp());

    let first = service
        .submit(JobSpec::prove_segmented(
            graph.clone(),
            Backend::Kzg,
            1,
            SegmentSpec::Fixed(2),
        ))
        .unwrap()
        .wait()
        .unwrap()
        .expect("segmented jobs produce artifacts");
    assert_eq!(first.segments, 2);
    assert_eq!(first.cache, CacheOutcome::Miss);
    let bundle = first.bundle.as_ref().expect("artifacts carry the bundle");
    assert_eq!(bundle.segments.len(), 2);
    assert_eq!(first.proof, bundle.to_bytes());
    assert!(
        first.vk_bytes.is_empty(),
        "per-segment verifying keys live inside the bundle"
    );

    // The bundle re-verifies out-of-band against freshly generated params.
    let keys = FreshKeySource::default();
    let report = verify_bundle(bundle, |b, k| keys.params(b, k)).unwrap();
    assert_eq!(report.segments, 2);
    assert_eq!(report.kzg_batched, 2, "one batched pairing for the chain");

    let second = service
        .submit(JobSpec::prove_segmented(
            graph.clone(),
            Backend::Kzg,
            2,
            SegmentSpec::Fixed(2),
        ))
        .unwrap()
        .wait()
        .unwrap()
        .expect("segmented jobs produce artifacts");
    assert_eq!(
        second.cache,
        CacheOutcome::MemoryHit,
        "every segment pk shard must be reused"
    );
    assert_ne!(
        second.proof, first.proof,
        "different seeds, different proofs"
    );

    let snap = service.snapshot();
    assert_eq!(snap.jobs_completed, 2);
    assert_eq!(snap.proofs_verified, 4, "each segment proof is counted");
    assert_eq!(snap.verify_failures, 0);
    assert!(snap.cache_hits >= 1);
}

/// Two layouts of the same model must never share a cache entry: their
/// circuit digests (and hence artifact keys and spill files) differ even
/// when the model hash and backend agree, and a spilled key that does not
/// match the freshly compiled circuit is deleted and regenerated rather
/// than used. This is the guard against the optimizer's timing-dependent
/// layout choice diverging across runs that share a cache dir.
#[test]
fn mismatched_layout_never_reuses_cached_key() {
    let graph = tiny_mlp();
    let inputs = vec![Tensor::new(vec![1, 6], vec![0i64; 6])];
    let cfg_a = CircuitConfig::default_with(LayoutChoices::optimized());
    let cfg_b = CircuitConfig::default_with(LayoutChoices::prior_work());
    let a = compile(&graph, &inputs, cfg_a).unwrap();
    let b = compile(&graph, &inputs, cfg_b).unwrap();

    // The digest is stable across recompilations of the same layout and
    // distinguishes different layouts.
    let a2 = compile(&graph, &inputs, cfg_a).unwrap();
    assert_eq!(a.circuit_digest(), a2.circuit_digest());
    assert_ne!(a.circuit_digest(), b.circuit_digest());

    let hash = graph.arch_hash();
    let key_a = ArtifactKey::for_circuit(hash, Backend::Kzg, &a);
    let key_b = ArtifactKey::for_circuit(hash, Backend::Kzg, &b);
    assert_ne!(key_a, key_b);
    assert_ne!(
        key_a.file_stem(),
        key_b.file_stem(),
        "layouts must spill to distinct files"
    );

    // Poison the spill directory: another cache instance (another build,
    // another run) leaves layout A's proving key in layout B's file. The
    // validation hook runs on what comes off the disk, rejects it and
    // regenerates.
    let cache_dir = tempdir("stale");
    {
        let foreign = ArtifactCache::with_disk(&cache_dir).unwrap();
        let pk_a = a.keygen(&foreign.params(Backend::Kzg, a.k)).unwrap();
        assert!(pk_matches_circuit(&pk_a, &a));
        assert!(!pk_matches_circuit(&pk_a, &b));
        foreign.insert(key_b, pk_a);
    }
    let cache = ArtifactCache::with_disk(&cache_dir).unwrap();
    let params_b = cache.params(Backend::Kzg, b.k);
    let (pk, outcome) = cache
        .get_or_generate(
            key_b,
            |pk| pk_matches_circuit(pk, &b),
            || b.keygen(&params_b),
        )
        .unwrap();
    assert_eq!(
        outcome,
        CacheOutcome::Miss,
        "a mismatched cached key must fall back to keygen"
    );
    assert!(pk_matches_circuit(&pk, &b));

    // The regenerated key is cached and now hits from memory, where the
    // key's circuit digest is all the validation it needs.
    let (_, outcome) = cache
        .get_or_generate(
            key_b,
            |_| panic!("a key this process generated is not re-validated"),
            || b.keygen(&params_b),
        )
        .unwrap();
    assert_eq!(outcome, CacheOutcome::MemoryHit);

    // It also replaced the stale spill file: a restart loads the right key.
    let restarted = ArtifactCache::with_disk(&cache_dir).unwrap();
    let (pk, outcome) = restarted
        .get_or_generate(
            key_b,
            |pk| pk_matches_circuit(pk, &b),
            || b.keygen(&params_b),
        )
        .unwrap();
    assert_eq!(outcome, CacheOutcome::DiskHit);
    assert!(pk_matches_circuit(&pk, &b));
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The determinism verdict is remembered per (model content, circuit) and
/// only when it is a pass: an underconstrained circuit is analyzed, and
/// fails with `Underconstrained`, every time it is compiled.
#[test]
fn determinism_verdict_memoizes_passes_only() {
    use zkml::ZkmlError;
    let cache = ArtifactCache::in_memory();

    let toy = zkml_testkit::toy_case();
    let free = zkml_testkit::compile_case(&toy, toy.min_cols).unwrap();
    for _ in 0..3 {
        match cache.ensure_determined([7; 32], &free) {
            Err(ZkmlError::Underconstrained { free_cells, .. }) => assert_eq!(free_cells, 2),
            other => panic!(
                "expected Underconstrained, got {:?}",
                other.map_err(|e| e.to_string())
            ),
        }
    }

    let graph = tiny_mlp();
    let inputs = vec![Tensor::new(vec![1, 6], vec![0i64; 6])];
    let cfg = CircuitConfig::default_with(LayoutChoices::optimized());
    let clean = compile(&graph, &inputs, cfg).unwrap();
    let hash = graph.content_hash();
    assert!(cache.ensure_determined(hash, &clean).unwrap(), "analyzed");
    assert!(
        !cache.ensure_determined(hash, &clean).unwrap(),
        "remembered"
    );
    // The verdict belongs to the model's content: other weights, or another
    // layout of the same model, are analyzed on their own.
    assert!(cache.ensure_determined([8; 32], &clean).unwrap());
    let other = compile(
        &graph,
        &inputs,
        CircuitConfig::default_with(LayoutChoices::prior_work()),
    )
    .unwrap();
    assert!(cache.ensure_determined(hash, &other).unwrap());
}

/// What a warm job skips, by the counters an operator reads: jobs of one
/// architecture sweep once; each model content is analyzed once per circuit;
/// another architecture sweeps again.
#[test]
fn warm_jobs_skip_the_sweep_and_the_analyzer() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let prove = |graph: &Arc<Graph>, seed| {
        service
            .submit(JobSpec::prove(graph.clone(), Backend::Kzg, seed))
            .unwrap()
            .wait()
            .unwrap()
            .expect("prove jobs produce artifacts")
    };
    let counters = || {
        let s = service.snapshot();
        (s.layout_sweeps, s.plan_hits, s.determinism_checks)
    };

    let graph = Arc::new(tiny_mlp());
    let first = prove(&graph, 1);
    assert_eq!(counters(), (1, 0, 1));
    for seed in 2..=4 {
        let warm = prove(&graph, seed);
        assert_eq!(warm.cache, CacheOutcome::MemoryHit);
        assert_eq!(warm.vk_bytes, first.vk_bytes);
    }
    assert_eq!(counters(), (1, 3, 1));

    // Same architecture, other weights: the layout and the key are shared,
    // the verdict is not (the analyzer reads the committed values).
    let mut retrained = tiny_mlp();
    let w = retrained
        .weights
        .iter_mut()
        .find_map(|w| w.as_mut())
        .unwrap();
    w.data_mut()[0] += 1.0;
    assert_eq!(retrained.arch_hash(), graph.arch_hash());
    let other_weights = prove(&Arc::new(retrained), 1);
    assert_eq!(other_weights.cache, CacheOutcome::MemoryHit);
    assert_eq!(other_weights.vk_bytes, first.vk_bytes);
    assert_eq!(counters(), (1, 4, 2));

    // Another architecture is a new sweep, a new verdict and a new key.
    let mut b = GraphBuilder::new("svc-mlp-wide", 77);
    let x = b.input(vec![1, 6], "x");
    let w1 = b.weight(vec![6, 5], "w1");
    let b1 = b.weight(vec![5], "b1");
    let y = b.op(Op::FullyConnected { activation: None }, &[x, w1, b1], "fc");
    let other_arch = prove(&Arc::new(b.finish(vec![y])), 1);
    assert_eq!(other_arch.cache, CacheOutcome::Miss);
    assert_eq!(counters(), (2, 4, 3));
    assert_eq!(service.snapshot().verify_failures, 0);
}

/// Segmented jobs take their cut and every segment's plan from the memo
/// from the second job on — for a fixed count and for `auto` — and their
/// bundles still verify out-of-band.
#[test]
fn segmented_jobs_hit_the_layout_memo() {
    use zkml_shard::{verify_bundle, FreshKeySource, KeySource, SegmentSpec};
    let graph = Arc::new(tiny_mlp());
    let keys = FreshKeySource::default();
    for spec in [SegmentSpec::Fixed(3), SegmentSpec::Auto] {
        let service = ProvingService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut segments = 0;
        for seed in 1..=3 {
            let job = service
                .submit(JobSpec::prove_segmented(
                    graph.clone(),
                    Backend::Kzg,
                    seed,
                    spec,
                ))
                .unwrap()
                .wait()
                .unwrap()
                .expect("segmented jobs produce artifacts");
            segments = u64::from(job.segments);
            let bundle = job.bundle.as_ref().expect("artifacts carry the bundle");
            let report = verify_bundle(bundle, |b, k| keys.params(b, k)).unwrap();
            assert_eq!(report.segments as u64, segments, "{spec:?}");
            assert_eq!(job.cache.is_hit(), seed > 1, "{spec:?} seed {seed}");
        }
        let snap = service.snapshot();
        assert_eq!(
            (snap.layout_sweeps, snap.plan_hits, snap.determinism_checks),
            (1, 2, segments),
            "{spec:?}: one sweep, one analysis per segment"
        );
        assert_eq!(snap.verify_failures, 0);
    }
}

/// A service restarted with the same cache directory loads the spilled
/// proving key from disk instead of re-running keygen.
#[test]
fn warm_restart_loads_proving_key_from_disk() {
    let cache_dir = tempdir("warm");
    let graph = Arc::new(tiny_mlp());
    let cfg = || ServiceConfig {
        workers: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServiceConfig::default()
    };

    let service = ProvingService::start(cfg()).unwrap();
    let cold = service
        .submit(JobSpec::prove(graph.clone(), Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss);
    service.shutdown();

    // Fresh process state, same disk cache.
    let service = ProvingService::start(cfg()).unwrap();
    let warm = service
        .submit(JobSpec::prove(graph, Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(
        warm.cache,
        CacheOutcome::DiskHit,
        "restart must start warm from disk"
    );
    assert_eq!(warm.vk_bytes, cold.vk_bytes);
    let snap = service.snapshot();
    assert_eq!(snap.proofs_verified, 1);
    assert_eq!(snap.verify_failures, 0);

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A full queue rejects new submissions with a busy error instead of
/// blocking, and the stats record the rejection.
#[test]
fn full_queue_rejects_with_busy() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    })
    .unwrap();

    // One job occupies the worker, one fills the single queue slot. The
    // sleeps are long enough that both are still around for the third
    // submit, which must bounce.
    let nap = Duration::from_millis(400);
    let h1 = service.submit(JobSpec::new(JobKind::Sleep(nap))).unwrap();
    // Make sure the first job is on the worker (not in the queue slot).
    std::thread::sleep(Duration::from_millis(100));
    let h2 = service.submit(JobSpec::new(JobKind::Sleep(nap))).unwrap();
    match service.submit(JobSpec::new(JobKind::Sleep(nap))) {
        Err(ServiceError::Busy { queue_capacity }) => assert_eq!(queue_capacity, 1),
        Err(other) => panic!("expected Busy, got {other:?}"),
        Ok(_) => panic!("expected Busy, but the queue accepted the job"),
    }

    assert!(h1.wait().unwrap().is_none());
    assert!(h2.wait().unwrap().is_none());
    let snap = service.snapshot();
    assert_eq!(snap.jobs_rejected_busy, 1);
    assert_eq!(snap.jobs_completed, 2);
}

/// A panicking job is isolated: the submitter gets a WorkerPanicked error
/// and the service keeps processing later jobs.
#[test]
fn worker_panic_does_not_crash_service() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();

    let boom = service.submit(JobSpec::new(JobKind::Panic)).unwrap();
    match boom.wait() {
        Err(ServiceError::WorkerPanicked(msg)) => {
            assert!(msg.contains("panic"), "panic message should survive: {msg}")
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // The same worker thread keeps serving jobs afterwards.
    let after = service
        .submit(JobSpec::new(JobKind::Sleep(Duration::from_millis(1))))
        .unwrap();
    assert!(after.wait().unwrap().is_none());

    let snap = service.snapshot();
    assert_eq!(snap.worker_panics, 1);
    assert_eq!(snap.jobs_failed, 1);
    assert_eq!(snap.jobs_completed, 1);
}

/// Expired deadlines fail the job with a timeout error before proving work
/// starts.
#[test]
fn expired_deadline_times_out() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let graph = Arc::new(tiny_mlp());

    let spec = JobSpec::prove(graph, Backend::Kzg, 1).with_deadline(Duration::from_millis(0));
    // Park the worker briefly so the deadline is already gone at pickup.
    let napping = service
        .submit(JobSpec::new(JobKind::Sleep(Duration::from_millis(50))))
        .unwrap();
    let handle = service.submit(spec).unwrap();
    match handle.wait() {
        Err(ServiceError::Timeout { .. }) => {}
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(napping.wait().unwrap().is_none());
    assert_eq!(service.snapshot().jobs_timed_out, 1);
}

/// A model with no feasible layout within the service's `max_k` fails that
/// job with a typed compile error — the worker neither panics nor takes
/// the service down with it.
#[test]
fn infeasible_layout_fails_job_without_crashing_worker() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        max_k: 4, // far too small for any real model
        ..ServiceConfig::default()
    })
    .unwrap();
    let graph = Arc::new(tiny_mlp());

    let handle = service
        .submit(JobSpec::prove(graph, Backend::Kzg, 1))
        .unwrap();
    match handle.wait() {
        Err(ServiceError::Compile(msg)) => assert!(
            msg.contains("no feasible layout"),
            "expected NoFeasibleLayout to surface, got: {msg}"
        ),
        other => panic!("expected Compile error, got {other:?}"),
    }

    // The worker is still healthy and keeps serving jobs.
    let after = service
        .submit(JobSpec::new(JobKind::Sleep(Duration::from_millis(1))))
        .unwrap();
    assert!(after.wait().unwrap().is_none());

    let snap = service.snapshot();
    assert_eq!(snap.worker_panics, 0, "infeasibility must not panic");
    assert_eq!(snap.jobs_failed, 1);
    assert_eq!(snap.jobs_completed, 1);
}

/// A job whose cancel token is set before a worker picks it up is cancelled
/// at the first stage boundary and never proves anything.
#[test]
fn pre_cancelled_job_never_runs() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let cancel = CancelToken::new();
    cancel.cancel();
    let handle = service
        .submit(JobSpec::prove(Arc::new(tiny_mlp()), Backend::Kzg, 1).with_cancel(cancel))
        .unwrap();
    match handle.wait() {
        Err(ServiceError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let snap = service.snapshot();
    assert_eq!(snap.jobs_cancelled, 1);
    assert_eq!(snap.jobs_completed, 0);
    assert_eq!(snap.jobs_failed, 0);
}

/// `JobHandle::cancel` stops a queued job: with a single busy worker, the
/// second job's token is set while it waits, so the worker drops it at the
/// run_job entry check instead of proving. This is the fix for wait_timeout
/// leaving jobs running after the caller gave up on them.
#[test]
fn handle_cancel_stops_queued_job() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    })
    .unwrap();
    let blocker = service
        .submit(JobSpec::new(JobKind::Sleep(Duration::from_millis(300))))
        .unwrap();
    let victim = service
        .submit(JobSpec::prove(Arc::new(tiny_mlp()), Backend::Kzg, 1))
        .unwrap();
    // The caller times out quickly, then cancels instead of leaking the job.
    assert!(victim.wait_timeout(Duration::from_millis(10)).is_none());
    victim.cancel();
    assert!(victim.cancel_token().is_cancelled());
    match victim.wait() {
        Err(ServiceError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    blocker.wait().unwrap();
    let snap = service.snapshot();
    assert_eq!(snap.jobs_cancelled, 1);
    assert_eq!(snap.jobs_completed, 1); // the blocker
}

/// Standalone verify jobs: a valid proof verifies, a corrupted one fails.
#[test]
fn verify_job_accepts_good_and_rejects_bad_proofs() {
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let artifacts = service
        .submit(JobSpec::prove(Arc::new(tiny_mlp()), Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();

    // The model carries weights, so the proof is for a committed-weight
    // circuit: verification needs the commitment the artifacts carry.
    assert!(!artifacts.weight_commitment.is_empty());
    let good = service
        .submit(JobSpec::new(JobKind::Verify {
            backend: artifacts.backend,
            vk: artifacts.vk_bytes.clone(),
            public: artifacts.public.clone(),
            proof: artifacts.proof.clone(),
            model: None,
            weight_commitment: artifacts.weight_commitment.clone(),
        }))
        .unwrap();
    assert!(good.wait().is_ok());

    let mut bad_proof = artifacts.proof.clone();
    bad_proof[0] ^= 1;
    let bad = service
        .submit(JobSpec::new(JobKind::Verify {
            backend: artifacts.backend,
            vk: artifacts.vk_bytes.clone(),
            public: artifacts.public.clone(),
            proof: bad_proof,
            model: None,
            weight_commitment: artifacts.weight_commitment.clone(),
        }))
        .unwrap();
    assert!(bad.wait().is_err());
    let snap = service.snapshot();
    assert_eq!(
        snap.proofs_verified, 2,
        "the worker's own check of the prove job, then the good verify job"
    );
    assert_eq!(snap.verify_failures, 1);
}

/// A verify job for a bundle that also names a model digest or carries a
/// weight commitment is refused: the bundle verifier reads neither, and a
/// `completed` would claim a check that never ran.
#[test]
fn bundle_verify_job_refuses_a_digest_it_cannot_check() {
    use zkml_shard::SegmentSpec;
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let bundle = service
        .submit(JobSpec::prove_segmented(
            Arc::new(tiny_mlp()),
            Backend::Kzg,
            1,
            SegmentSpec::Fixed(2),
        ))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap()
        .proof;
    let verify = |model, weight_commitment| {
        service
            .submit(JobSpec::new(JobKind::Verify {
                backend: Backend::Kzg,
                vk: Vec::new(),
                public: Vec::new(),
                proof: bundle.clone(),
                model,
                weight_commitment,
            }))
            .unwrap()
            .wait()
    };
    assert!(verify(None, Vec::new()).is_ok());
    for (model, carried) in [(Some([0xAB; 32]), Vec::new()), (None, vec![1, 2, 3])] {
        match verify(model, carried) {
            Err(ServiceError::Verify(msg)) => assert!(msg.contains("bundle"), "{msg}"),
            other => panic!("expected the combination to be refused, got {other:?}"),
        }
    }
}

/// Monolithic is the layout with no cuts: cutting a schedule nowhere and
/// synthesizing it under the monolithic sweep's plan reproduces the
/// monolithic circuit, and sweeping the uncut schedule picks that very plan.
#[test]
fn no_cut_layout_reproduces_the_monolithic_circuit() {
    use zkml::{cost::HardwareStats, optimize_schedule, synthesize, OptimizerOptions, SegmentPlan};
    use zkml_shard::{plan_segments, synthesize_segments, SegmentLayout, SegmentSpec};
    let hw = HardwareStats::fixture();
    for name in ["MNIST", "DLRM"] {
        let graph = zkml_model::zoo::by_name(name).unwrap();
        let opts = OptimizerOptions::new(Backend::Kzg, 15);
        let inputs = zkml_service::synthetic_inputs(&graph, opts.numeric.scale_bits, 7);
        let sched = zkml::layers::lower_graph(&graph, &inputs, opts.numeric);
        let best = optimize_schedule(sched.clone(), &opts, &hw)
            .unwrap()
            .best_plan;
        let mono = synthesize(&sched, &best).unwrap();

        let layout = SegmentLayout {
            cut: SegmentPlan { cuts: vec![] },
            plans: vec![best.clone()],
        };
        let segs = synthesize_segments(&sched, &layout).unwrap();
        assert_eq!(segs.len(), 1, "{name}");
        assert_eq!(segs[0].boundary_in_len, 0, "{name}");
        assert_eq!(
            segs[0].compiled.circuit_digest(),
            mono.circuit_digest(),
            "{name}"
        );
        assert_eq!(segs[0].compiled.instance(), mono.instance(), "{name}");

        let swept = plan_segments(&sched, SegmentSpec::Fixed(1), &opts, &hw).unwrap();
        assert!(swept.cut.cuts.is_empty(), "{name}");
        assert_eq!(swept.plans[0].digest(), best.digest(), "{name}");
    }
}

/// One compile serves 1..N circuits: a `Fixed(1)` segmented job compiles to
/// the monolithic circuit, so after a monolithic job of the same model it
/// finds the proving key cached, and its single segment carries the
/// monolithic verifying key. The artifacts keep their shapes: a bare proof
/// for `segments: None`, a bundle for `Fixed(1)`.
#[test]
fn one_segment_job_shares_the_monolithic_key() {
    use zkml_shard::SegmentSpec;
    let service = ProvingService::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let graph = Arc::new(tiny_mlp());
    let mono = service
        .submit(JobSpec::prove(graph.clone(), Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(mono.cache, CacheOutcome::Miss);
    assert!(mono.bundle.is_none());
    assert_eq!(mono.segments, 1);

    let one = service
        .submit(JobSpec::prove_segmented(
            graph,
            Backend::Kzg,
            1,
            SegmentSpec::Fixed(1),
        ))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(one.cache, CacheOutcome::MemoryHit);
    assert!(one.vk_bytes.is_empty());
    let bundle = one.bundle.as_ref().expect("Fixed(1) is still a bundle");
    assert_eq!(bundle.segments.len(), 1);
    assert_eq!(bundle.segments[0].vk_bytes, mono.vk_bytes);
    assert_eq!(bundle.segments[0].boundary_in_len, 0);
    assert_eq!(one.public, mono.public);

    // `PlanKey.segments` tells the two requests apart, so each swept once;
    // the circuit, and with it the verdict and the key, is shared.
    let snap = service.snapshot();
    assert_eq!(
        (snap.layout_sweeps, snap.plan_hits, snap.determinism_checks),
        (2, 0, 1)
    );
    assert_eq!((snap.cache_misses, snap.cache_hits), (1, 1));
    assert_eq!(snap.proofs_verified, 2);
}

/// The pipeline standing alone, as the CLI's `prove` and `commit-model` run
/// it (in-memory cache, empty registry, nothing checked between stages): the
/// analyzer clears every circuit before a key is made, every proof is
/// verified before it is returned, and `--model` is the registry's rule.
#[test]
fn standalone_pipeline_gates_and_verifies() {
    use zkml_shard::SegmentSpec;
    let graph = tiny_mlp();
    let go_on = |_: Stage| Ok(());
    let counters = |pipe: &Pipeline| {
        let s = pipe.stats.snapshot();
        (s.determinism_checks, s.cache_misses, s.proofs_verified)
    };

    let pipe = Pipeline::new(ArtifactCache::in_memory(), 15);
    let compiled = pipe.compile(&graph, Backend::Kzg, 7, None, &go_on).unwrap();
    assert_eq!(counters(&pipe), (1, 0, 0), "gated before any key exists");
    let digest = pipe
        .publish(&compiled, &go_on)
        .unwrap()
        .model_digest
        .unwrap();
    let proved = pipe.prove(&compiled, Some(digest), 7, &go_on).unwrap();
    assert_eq!(counters(&pipe), (1, 1, 1));
    assert_eq!(
        proved.cache,
        CacheOutcome::MemoryHit,
        "publication keyed it"
    );
    // Proof randomness is the caller's argument: same seed, same bytes.
    let again = pipe.prove(&compiled, None, 7, &go_on).unwrap();
    assert_eq!(again.proof, proved.proof);
    assert_ne!(
        pipe.prove(&compiled, None, 8, &go_on).unwrap().proof,
        proved.proof
    );

    // Other weights under the published digest: the registry's values rule.
    let mut retrained = tiny_mlp();
    let w = retrained.weights.iter_mut().flatten().next().unwrap();
    w.data_mut()[0] += 1.0;
    let other = pipe
        .compile(&retrained, Backend::Kzg, 7, None, &go_on)
        .unwrap();
    assert!(matches!(
        pipe.prove(&other, Some(digest), 7, &go_on),
        Err(ServiceError::CommitmentMismatch(_))
    ));

    let pipe = Pipeline::new(ArtifactCache::in_memory(), 15);
    let cut = pipe
        .compile(&graph, Backend::Kzg, 7, Some(SegmentSpec::Fixed(2)), &go_on)
        .unwrap();
    assert_eq!(counters(&pipe), (2, 0, 0));
    assert!(pipe.publish(&cut, &go_on).is_err());
    assert!(pipe.prove(&cut, Some(digest), 7, &go_on).is_err());
    let bundle = pipe.prove(&cut, None, 7, &go_on).unwrap();
    assert_eq!(counters(&pipe), (2, 2, 2));
    assert_eq!(bundle.segments, 2);

    // The caller's check stops a job at the stage it names.
    let stop_at = |at: Stage| {
        move |stage: Stage| {
            if stage == at {
                Err(ServiceError::Cancelled)
            } else {
                Ok(())
            }
        }
    };
    assert_eq!(
        pipe.compile(&graph, Backend::Kzg, 7, None, &stop_at(Stage::Compiled))
            .err(),
        Some(ServiceError::Cancelled)
    );
    for at in [Stage::Keyed, Stage::Proved] {
        let verified = counters(&pipe).2;
        let stopped = pipe.prove(&compiled, None, 7, &stop_at(at));
        assert_eq!(stopped.err(), Some(ServiceError::Cancelled), "{at:?}");
        assert_eq!(counters(&pipe).2, verified, "stopped before verifying");
    }
}
