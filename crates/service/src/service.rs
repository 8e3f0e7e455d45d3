//! The proving service: a bounded job queue feeding a pool of worker
//! threads, with per-job deadlines, panic isolation, and shared access to
//! the artifact cache and model registry.

use crate::cache::{pk_matches_circuit, ArtifactCache, ArtifactKey, CacheOutcome, PlanKey};
use crate::error::ServiceError;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::stats::{ServiceStats, StatsSnapshot};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zkml::{optimizer, OpSchedule, OptimizerOptions, SegmentPlan};
use zkml_ff::Fr;
use zkml_model::Graph;
use zkml_pcs::Backend;
use zkml_shard::{KeySource, SegmentLayout, SegmentSpec, SegmentedProof};
use zkml_tensor::{FixedPoint, Tensor};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServiceError::Busy`].
    pub queue_capacity: usize,
    /// Largest circuit `k` the optimizer may choose.
    pub max_k: u32,
    /// Deadline applied to jobs that do not set their own.
    pub default_deadline: Option<Duration>,
    /// Verify each proof in the worker before the job completes; a rejected
    /// proof fails the job with [`ServiceError::Verify`].
    pub verify_after_prove: bool,
    /// Spill proving keys here so warm restarts skip keygen.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 16,
            max_k: 15,
            default_deadline: None,
            verify_after_prove: true,
            cache_dir: None,
        }
    }
}

/// What a job asks the service to do.
pub enum JobKind {
    /// Optimize, compile, and prove one inference of `graph`.
    Prove {
        /// The model graph.
        graph: Arc<Graph>,
        /// Commitment backend.
        backend: Backend,
        /// Seed for the synthetic quantized inputs and proof randomness.
        seed: u64,
        /// Digest of a *published* model commitment to prove under. When
        /// set, the graph's weights must hash to exactly the published
        /// set (otherwise the job fails with
        /// [`ServiceError::CommitmentMismatch`]) and proving reuses the
        /// registry's pre-encoded weights — no per-proof weight encoding
        /// or commitment work.
        model: Option<[u8; 32]>,
    },
    /// Publish `graph`'s weight commitment: compile it, commit the weight
    /// columns once, warm the (weight-independent) proving key, and
    /// register the commitment so later prove/verify jobs can reference
    /// it by digest. The artifacts carry the serialized commitment and
    /// its digest but no proof.
    CommitModel {
        /// The model graph.
        graph: Arc<Graph>,
        /// Commitment backend.
        backend: Backend,
    },
    /// Optimize, compile, and prove one inference of `graph` as a chain of
    /// segment proofs (see `zkml-shard`): the model is cut at tensor
    /// boundaries, each segment gets its own bounded-`k` circuit and cached
    /// proving key, segments are proved concurrently, and the result is one
    /// [`SegmentedProof`] bundle.
    ProveSegmented {
        /// The model graph.
        graph: Arc<Graph>,
        /// Commitment backend.
        backend: Backend,
        /// Seed for the synthetic quantized inputs and proof randomness.
        seed: u64,
        /// How many segments to cut into.
        segments: SegmentSpec,
    },
    /// Verify an already-produced proof: a monolithic `(vk, public, proof)`
    /// triple when `vk` is non-empty, otherwise `proof` is a serialized
    /// [`SegmentedProof`] bundle (which carries its own verifying keys).
    /// Succeeds with no artifacts; a rejected proof fails the job with
    /// [`ServiceError::Verify`].
    Verify {
        /// Commitment backend the proof targets.
        backend: Backend,
        /// Serialized verifying key; empty for segmented bundles.
        vk: Vec<u8>,
        /// Public values (first instance column).
        public: Vec<Fr>,
        /// Proof bytes, or the serialized bundle when `vk` is empty.
        proof: Vec<u8>,
        /// Digest of the published model commitment to verify against.
        /// Required semantics: when set, the proof is accepted only if it
        /// verifies against exactly that published commitment.
        model: Option<[u8; 32]>,
        /// Serialized [`zkml_plonk::WeightCommitment`] carried alongside
        /// the proof (what the prover claims it proved under); empty when
        /// absent. When `model` is also set, a disagreement between the
        /// two is a [`ServiceError::CommitmentMismatch`] before any
        /// pairing work.
        weight_commitment: Vec<u8>,
    },
    /// Occupy a worker for the given duration (health checks and tests).
    Sleep(Duration),
    /// Panic inside the worker (tests the panic-isolation path).
    Panic,
}

/// A shared cooperative cancellation flag. Cloning shares the flag: the
/// submitter keeps one end (via [`JobHandle::cancel`] or directly) and the
/// worker checks the other between pipeline stages (compile → keygen →
/// prove → verify), so a cancelled job stops at the next stage boundary
/// instead of running to completion after its caller gave up on it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the job's next
    /// stage boundary (a job mid-MSM finishes that stage first).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A job specification: what to do and how long it may take.
pub struct JobSpec {
    /// The work itself.
    pub kind: JobKind,
    /// Deadline measured from submission; `None` uses the service default.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked between pipeline stages. The
    /// submitted job's [`JobHandle`] shares this token.
    pub cancel: CancelToken,
}

impl JobSpec {
    /// A job of the given kind with no deadline of its own.
    pub fn new(kind: JobKind) -> Self {
        Self {
            kind,
            deadline: None,
            cancel: CancelToken::new(),
        }
    }

    /// A proving job for `graph`.
    pub fn prove(graph: Arc<Graph>, backend: Backend, seed: u64) -> Self {
        Self::new(JobKind::Prove {
            graph,
            backend,
            seed,
            model: None,
        })
    }

    /// A proving job for `graph` under the published commitment `model`.
    pub fn prove_committed(
        graph: Arc<Graph>,
        backend: Backend,
        seed: u64,
        model: [u8; 32],
    ) -> Self {
        Self::new(JobKind::Prove {
            graph,
            backend,
            seed,
            model: Some(model),
        })
    }

    /// A commit-model (publication) job for `graph`.
    pub fn commit_model(graph: Arc<Graph>, backend: Backend) -> Self {
        Self::new(JobKind::CommitModel { graph, backend })
    }

    /// A segmented proving job for `graph`.
    pub fn prove_segmented(
        graph: Arc<Graph>,
        backend: Backend,
        seed: u64,
        segments: SegmentSpec,
    ) -> Self {
        Self::new(JobKind::ProveSegmented {
            graph,
            backend,
            seed,
            segments,
        })
    }

    /// Sets a per-job deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Shares an externally held cancellation token (e.g. one kept in a
    /// front-end's job registry so `DELETE /v1/jobs/{id}` can reach it).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// Everything a completed proving job produced.
#[derive(Debug, Clone)]
pub struct ProofArtifacts {
    /// The job's id.
    pub job_id: u64,
    /// Model name (from the graph).
    pub model: String,
    /// Backend the proof targets.
    pub backend: Backend,
    /// Circuit size exponent the optimizer chose.
    pub k: u32,
    /// The proof bytes.
    pub proof: Vec<u8>,
    /// The serialized verifying key.
    pub vk_bytes: Vec<u8>,
    /// Public values (first instance column; for segmented jobs, the
    /// bundle's claimed model outputs).
    pub public: Vec<Fr>,
    /// How the proving key was obtained (for segmented jobs: a hit only if
    /// every segment's key was cached).
    pub cache: CacheOutcome,
    /// Wall-clock proof generation time.
    pub prove_ms: u64,
    /// Number of segment proofs behind `proof` (1 for monolithic jobs).
    pub segments: u32,
    /// The full bundle for segmented jobs (`proof` holds its serialized
    /// form); `None` for monolithic jobs.
    pub bundle: Option<SegmentedProof>,
    /// Serialized [`zkml_plonk::WeightCommitment`] the proof verifies
    /// against (commit-model jobs: the freshly published commitment).
    /// Empty for circuits without committed columns and for segmented
    /// bundles, whose per-segment commitments live inside the bundle.
    pub weight_commitment: Vec<u8>,
    /// The published commitment digest this job referenced or produced.
    pub model_digest: Option<[u8; 32]>,
}

/// Outcome of a job: proof artifacts for proving jobs, `None` for
/// instrumentation jobs, or the error that stopped it.
pub type JobResult = Result<Option<ProofArtifacts>, ServiceError>;

struct Job {
    id: u64,
    spec: JobSpec,
    submitted: Instant,
    reply: Sender<JobResult>,
}

/// A submitted job's receipt; await the result through it.
pub struct JobHandle {
    id: u64,
    rx: Receiver<JobResult>,
    cancel: CancelToken,
}

impl JobHandle {
    /// The job's id (also stamped into its artifacts).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cooperative cancellation of this job. If the job is still
    /// queued it fails with [`ServiceError::Cancelled`] at pickup; if it is
    /// running it stops at the next stage boundary. The usual pairing is
    /// with [`Self::wait_timeout`]: a caller that gives up on a slow job
    /// cancels it so it stops burning a worker.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The job's shared cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Blocks until the job finishes.
    pub fn wait(&self) -> JobResult {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// Blocks up to `timeout`; `None` if the job is still running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(channel::RecvTimeoutError::Timeout) => None,
            Err(channel::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::Shutdown)),
        }
    }
}

struct WorkerCtx {
    cache: ArtifactCache,
    stats: ServiceStats,
    registry: ModelRegistry,
    max_k: u32,
    verify_after_prove: bool,
    proof_entropy: u64,
}

/// Per-process entropy mixed into every proof RNG seed so two service
/// instances given the same request seed do not emit byte-identical
/// blinding factors.
fn process_entropy() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let stack = &nanos as *const u64 as u64; // ASLR-dependent
    nanos ^ stack.rotate_left(32) ^ u64::from(std::process::id()).rotate_left(17)
}

/// The long-lived proving service.
///
/// Dropping the service disconnects the queue and joins every worker;
/// jobs already queued still run to completion first.
pub struct ProvingService {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    ctx: Arc<WorkerCtx>,
    next_id: AtomicU64,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
}

impl ProvingService {
    /// Starts the worker pool. Fails only if the cache spill directory
    /// cannot be created.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        let cache = match &cfg.cache_dir {
            Some(dir) => ArtifactCache::with_disk(dir)?,
            None => ArtifactCache::in_memory(),
        };
        let ctx = Arc::new(WorkerCtx {
            cache,
            stats: ServiceStats::new(),
            registry: ModelRegistry::new(),
            max_k: cfg.max_k,
            verify_after_prove: cfg.verify_after_prove,
            proof_entropy: process_entropy(),
        });
        let (tx, rx) = channel::bounded::<Job>(cfg.queue_capacity);
        // Share the core budget with the intra-proof runtime: each worker
        // drives prover kernels that already fan out across the global
        // zkml-par pool, so spawning more workers than pool threads would
        // oversubscribe cores without adding throughput.
        let worker_count = cfg.workers.max(1).min(zkml_par::global().threads());
        let workers = (0..worker_count)
            .map(|i| {
                let rx = rx.clone();
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("zkml-worker-{i}"))
                    .spawn(move || worker_loop(rx, ctx))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Self {
            tx: Some(tx),
            workers,
            ctx,
            next_id: AtomicU64::new(1),
            queue_capacity: cfg.queue_capacity,
            default_deadline: cfg.default_deadline,
        })
    }

    /// Number of worker threads actually running. May be lower than the
    /// configured count: workers are capped at the global `zkml-par` pool
    /// size so prover-internal parallelism never oversubscribes cores.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits a job. Never blocks: a full queue rejects immediately with
    /// [`ServiceError::Busy`] so callers can apply backpressure upstream.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobHandle, ServiceError> {
        if spec.deadline.is_none() {
            spec.deadline = self.default_deadline;
        }
        let tx = self.tx.as_ref().ok_or(ServiceError::Shutdown)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel::unbounded();
        let cancel = spec.cancel.clone();
        let job = Job {
            id,
            spec,
            submitted: Instant::now(),
            reply: reply_tx,
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.ctx.stats.record_submitted();
                self.ctx.stats.set_queue_depth(tx.len());
                Ok(JobHandle {
                    id,
                    rx: reply_rx,
                    cancel,
                })
            }
            Err(TrySendError::Full(_)) => {
                self.ctx.stats.record_rejected_busy();
                Err(ServiceError::Busy {
                    queue_capacity: self.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Shutdown),
        }
    }

    /// Submits a proving job for a zoo model by name.
    pub fn submit_model(
        &self,
        name: &str,
        backend: Backend,
        seed: u64,
    ) -> Result<JobHandle, ServiceError> {
        let graph = zkml_model::zoo::by_name(name)
            .ok_or_else(|| ServiceError::UnknownModel(name.to_string()))?;
        self.submit(JobSpec::prove(Arc::new(graph), backend, seed))
    }

    /// The live metrics.
    pub fn stats(&self) -> &ServiceStats {
        &self.ctx.stats
    }

    /// A snapshot of the metrics with the queue depth refreshed.
    pub fn snapshot(&self) -> StatsSnapshot {
        if let Some(tx) = &self.tx {
            self.ctx.stats.set_queue_depth(tx.len());
        }
        self.ctx.stats.snapshot()
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.ctx.cache
    }

    /// The registry of published model commitments. Populated by
    /// [`JobKind::CommitModel`] jobs; front ends read it to list models
    /// and resolve digests.
    pub fn registry(&self) -> &ModelRegistry {
        &self.ctx.registry
    }

    /// Number of jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.tx.as_ref().map_or(0, Sender::len)
    }

    /// Does nothing: every proof is verified in the worker before its job
    /// completes. Kept only because the frozen `benchmark/src/prove.rs`
    /// calls it; the next `benchmark` PR removes that call and this method.
    pub fn flush_verifications(&self) {}

    /// Drains the queue and stops the workers. Equivalent to dropping the
    /// service, but explicit at call sites that care about ordering.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.tx = None; // disconnect: workers exit once the queue drains
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ProvingService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn worker_loop(rx: Receiver<Job>, ctx: Arc<WorkerCtx>) {
    while let Ok(job) = rx.recv() {
        ctx.stats.set_queue_depth(rx.len());
        let reply = job.reply.clone();
        // Panic isolation: a panicking job poisons nothing — the worker
        // reports it as a job failure and moves on to the next job.
        let result = match catch_unwind(AssertUnwindSafe(|| run_job(&ctx, &job))) {
            Ok(result) => result,
            Err(payload) => {
                ctx.stats.record_worker_panic();
                Err(ServiceError::WorkerPanicked(panic_message(&payload)))
            }
        };
        match &result {
            Ok(_) => ctx.stats.record_completed(),
            Err(ServiceError::Timeout { .. }) => {
                ctx.stats.record_timed_out();
                ctx.stats.record_failed();
            }
            Err(ServiceError::Cancelled) => ctx.stats.record_cancelled(),
            Err(_) => ctx.stats.record_failed(),
        }
        // The submitter may have dropped its handle; that is not an error.
        let _ = reply.send(result);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn check_deadline(job: &Job) -> Result<(), ServiceError> {
    match job.spec.deadline {
        Some(d) if job.submitted.elapsed() > d => Err(ServiceError::Timeout {
            elapsed: job.submitted.elapsed(),
        }),
        _ => Ok(()),
    }
}

/// The cooperative cancellation point, placed at every stage boundary of
/// the proving pipeline (pickup → compile → keygen → prove → verify).
fn check_cancelled(job: &Job) -> Result<(), ServiceError> {
    if job.spec.cancel.is_cancelled() {
        Err(ServiceError::Cancelled)
    } else {
        Ok(())
    }
}

fn run_job(ctx: &WorkerCtx, job: &Job) -> JobResult {
    check_cancelled(job)?;
    check_deadline(job)?;
    match &job.spec.kind {
        JobKind::Sleep(d) => {
            std::thread::sleep(*d);
            Ok(None)
        }
        JobKind::Panic => panic!("job {} requested a panic", job.id),
        JobKind::Prove {
            graph,
            backend,
            seed,
            model,
        } => prove_job(ctx, job, graph, *backend, *seed, *model).map(Some),
        JobKind::CommitModel { graph, backend } => {
            commit_model_job(ctx, job, graph, *backend).map(Some)
        }
        JobKind::ProveSegmented {
            graph,
            backend,
            seed,
            segments,
        } => prove_segmented_job(ctx, job, graph, *backend, *seed, *segments).map(Some),
        JobKind::Verify {
            backend,
            vk,
            public,
            proof,
            model,
            weight_commitment,
        } => verify_job(ctx, *backend, vk, public, proof, *model, weight_commitment).map(|()| None),
    }
}

/// Resolves the weight commitment a monolithic verify job must check its
/// proof against: the *published* one when a model digest is referenced
/// (with the prover-carried copy cross-checked against it), otherwise the
/// prover-carried commitment alone. Committed circuits with neither are
/// rejected — there is nothing sound to verify against.
fn resolve_commitment(
    ctx: &WorkerCtx,
    vk: &zkml_plonk::VerifyingKey,
    model: Option<[u8; 32]>,
    carried: &[u8],
) -> Result<Option<zkml_plonk::WeightCommitment>, ServiceError> {
    let mismatch = |msg: String| {
        ctx.stats.record_rejected_commitment();
        ServiceError::CommitmentMismatch(msg)
    };
    let carried = if carried.is_empty() {
        None
    } else {
        Some(
            zkml_plonk::WeightCommitment::from_bytes(carried)
                .map_err(|e| mismatch(format!("parse weight commitment: {e}")))?,
        )
    };
    if let Some(digest) = model {
        let entry = ctx
            .registry
            .get(&digest)
            .ok_or_else(|| mismatch(format!("no published model {}", hex32(&digest))))?;
        if let Some(c) = &carried {
            if c.digest != entry.commitment.digest {
                return Err(mismatch(format!(
                    "proof carries commitment {} but model {} was published",
                    hex32(&c.digest),
                    hex32(&entry.commitment.digest),
                )));
            }
        }
        return Ok(Some(entry.commitment.clone()));
    }
    if vk.cs.num_committed > 0 && carried.is_none() {
        return Err(mismatch(
            "proof is for a committed-weight circuit but no model digest or \
             weight commitment was supplied"
                .into(),
        ));
    }
    Ok(carried)
}

/// Runs a standalone verification job: a monolithic triple when `vk` is
/// non-empty, a segmented bundle otherwise. Params come from the shared
/// cache, so repeated verify jobs skip SRS regeneration. Committed-weight
/// proofs verify against the published commitment for `model` (or the
/// prover-carried one when no digest is referenced).
fn verify_job(
    ctx: &WorkerCtx,
    backend: Backend,
    vk: &[u8],
    public: &[Fr],
    proof: &[u8],
    model: Option<[u8; 32]>,
    weight_commitment: &[u8],
) -> Result<(), ServiceError> {
    if vk.is_empty() {
        let bundle = SegmentedProof::from_bytes(proof)
            .map_err(|e| ServiceError::Verify(format!("parse bundle: {e}")))?;
        match zkml_shard::verify_bundle(&bundle, |b, k| ctx.cache.params(b, k)) {
            Ok(report) => {
                ctx.stats.record_verified(report.segments as u64, 0);
                Ok(())
            }
            Err(e) => {
                ctx.stats.record_verified(0, bundle.segments.len() as u64);
                Err(ServiceError::Verify(e.to_string()))
            }
        }
    } else {
        let vk = zkml_plonk::VerifyingKey::from_bytes(vk)
            .map_err(|e| ServiceError::Verify(format!("parse vk: {e}")))?;
        let wc = resolve_commitment(ctx, &vk, model, weight_commitment)?;
        let params = ctx.cache.params(backend, vk.k);
        verify_recorded(ctx, &params, &vk, &[public.to_vec()], proof, wc.as_ref())
    }
}

/// Verifies one monolithic proof to completion and records the outcome in
/// the stats; a rejected proof is a [`ServiceError::Verify`].
fn verify_recorded(
    ctx: &WorkerCtx,
    params: &zkml_pcs::Params,
    vk: &zkml_plonk::VerifyingKey,
    instance: &[Vec<Fr>],
    proof: &[u8],
    wc: Option<&zkml_plonk::WeightCommitment>,
) -> Result<(), ServiceError> {
    let outcome = zkml_plonk::verify_proof_committed(params, vk, instance, proof, &[], wc)
        .map_err(|e| e.to_string())
        .and_then(|v| {
            if v.settle(params) {
                Ok(())
            } else {
                Err("pairing check failed".to_string())
            }
        });
    ctx.stats
        .record_verified(outcome.is_ok() as u64, outcome.is_err() as u64);
    outcome.map_err(ServiceError::Verify)
}

/// Lowercase hex of a 32-byte digest (for error messages).
fn hex32(bytes: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Synthetic quantized inputs for a proving job, derived from the request
/// seed (shared by the monolithic and segmented paths, and by the CLI's
/// standalone `prove` so it proves the statement a served job would).
pub fn synthetic_inputs(graph: &Graph, scale_bits: u32, seed: u64) -> Vec<Tensor<i64>> {
    let fp = FixedPoint::new(scale_bits);
    let mut rng = StdRng::seed_from_u64(seed);
    graph
        .inputs
        .iter()
        .map(|id| {
            let shape = graph.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            Tensor::new(
                shape,
                (0..n)
                    .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                    .collect(),
            )
        })
        .collect()
}

/// Lowers `graph` with the job's synthetic inputs and resolves its layout:
/// the one this process memoized for the architecture, or — first job only —
/// the winner of a full sweep, which is then memoized. `segments` is `None`
/// for a monolithic circuit (a layout with no cuts and one plan).
///
/// Everything a job does after this is per-request work: one `synthesize`
/// per plan, which still cross-checks the plan against the circuit it
/// produced (`PlanMismatch`).
fn lower_and_lay_out(
    ctx: &WorkerCtx,
    graph: &Graph,
    backend: Backend,
    seed: u64,
    segments: Option<SegmentSpec>,
) -> Result<(OptimizerOptions, OpSchedule, Arc<SegmentLayout>), ServiceError> {
    let opts = OptimizerOptions::new(backend, ctx.max_k);
    let inputs = synthetic_inputs(graph, opts.numeric.scale_bits, seed);
    let sched = zkml::layers::lower_graph(graph, &inputs, opts.numeric);
    let key = PlanKey {
        arch_hash: graph.arch_hash(),
        backend,
        max_k: ctx.max_k,
        numeric: opts.numeric,
        segments,
    };
    // An infeasible model (no layout within max_k) fails this job, not the
    // worker, and leaves nothing in the memo.
    let (layout, memo_hit) = ctx.cache.layout_or_sweep(key, || {
        let hw = zkml::cost::HardwareStats::cached();
        match segments {
            Some(spec) => zkml_shard::plan_segments(&sched, spec, &opts, hw)
                .map_err(|e| ServiceError::Compile(e.to_string())),
            None => optimizer::optimize_schedule(sched.clone(), &opts, hw)
                .map(|sweep| SegmentLayout {
                    cut: SegmentPlan { cuts: Vec::new() },
                    plans: vec![sweep.best_plan],
                })
                .map_err(|e| ServiceError::Compile(e.to_string())),
        }
    })?;
    ctx.stats.record_layout(memo_hit);
    Ok((opts, sched, layout))
}

/// Determinism gate: never spend keygen or proving time on a circuit the
/// static analyzer has not cleared in this process. The verdict is a
/// function of the model's content and the layout (see
/// [`ArtifactCache::ensure_determined`]), so a warm job skips the analysis;
/// a failing circuit is analyzed, and fails, on every job.
fn ensure_determined(
    ctx: &WorkerCtx,
    content_hash: [u8; 32],
    compiled: &zkml::CompiledCircuit,
) -> Result<(), zkml::ZkmlError> {
    let analyzed = ctx.cache.ensure_determined(content_hash, compiled);
    if !matches!(analyzed, Ok(false)) {
        ctx.stats.record_determinism_check();
    }
    analyzed.map(|_| ())
}

/// Compiles `graph` (lower → memoized layout → synthesize → determinism
/// gate) and fetches its proving key through the arch-keyed artifact cache.
/// Shared by the prove and commit-model paths so both agree byte-for-byte on
/// the circuit a model compiles to.
fn compile_and_key(
    ctx: &WorkerCtx,
    job: &Job,
    graph: &Graph,
    backend: Backend,
    seed: u64,
) -> Result<
    (
        zkml::CompiledCircuit,
        Arc<zkml_pcs::Params>,
        Arc<zkml_plonk::ProvingKey>,
        CacheOutcome,
    ),
    ServiceError,
> {
    let (_, sched, layout) = lower_and_lay_out(ctx, graph, backend, seed, None)?;
    let plan = &layout.plans[0];
    let compiled =
        zkml::synthesize(&sched, plan).map_err(|e| ServiceError::Compile(e.to_string()))?;
    ensure_determined(ctx, graph.content_hash(), &compiled)
        .map_err(|e| ServiceError::Underconstrained(e.to_string()))?;
    check_cancelled(job)?;
    check_deadline(job)?;

    // Key material, through the artifact cache. The key pins the circuit
    // digest (layout choice + constraint system), not just k, and a key
    // loaded from the disk spill is still validated against the compiled
    // circuit before use: a stale spill file must fall back to keygen, never
    // produce a proof under a mismatched key. The namespace is the
    // *architecture* hash: weights live in committed columns that keygen
    // never reads, so two weight sets of one architecture share a single
    // cached key. The plan's digest is byte-identical to the compiled
    // circuit's.
    let key = ArtifactKey::for_plan(graph.arch_hash(), backend, plan);
    debug_assert_eq!(
        key,
        ArtifactKey::for_circuit(graph.arch_hash(), backend, &compiled)
    );
    let params = ctx.cache.params(backend, compiled.k);
    let (pk, cache_outcome) = ctx.cache.get_or_generate(
        key,
        |pk| pk_matches_circuit(pk, &compiled),
        || {
            compiled
                .keygen(&params)
                .map_err(|e| ServiceError::Prove(e.to_string()))
        },
    )?;
    if cache_outcome.is_hit() {
        ctx.stats.record_cache_hit();
    } else {
        ctx.stats.record_cache_miss();
    }
    check_cancelled(job)?;
    check_deadline(job)?;
    Ok((compiled, params, pk, cache_outcome))
}

/// Publishes `graph`'s weight commitment: compile, warm the proving key,
/// commit the committed-column plane once, and register the result.
fn commit_model_job(
    ctx: &WorkerCtx,
    job: &Job,
    graph: &Graph,
    backend: Backend,
) -> Result<ProofArtifacts, ServiceError> {
    // Publication uses a fixed input seed: layouts (and hence the circuit
    // and commitment) are input-independent, so any seed compiles the same
    // circuit — see the determinism notes in the optimizer. The layout it
    // sweeps is the one every later prove job of this architecture takes
    // from the memo.
    let t = Instant::now();
    let (compiled, params, _pk, cache_outcome) = compile_and_key(ctx, job, graph, backend, 0)?;
    if !compiled.has_committed() {
        return Err(ServiceError::CommitmentMismatch(format!(
            "model '{}' has no weight columns to commit",
            graph.name
        )));
    }
    let (wc, weights) = compiled
        .commit_weights(&params)
        .map_err(|e| ServiceError::Prove(e.to_string()))?;
    let entry = ModelEntry {
        digest: wc.digest,
        model: graph.name.clone(),
        model_hash: graph.content_hash(),
        arch_hash: graph.arch_hash(),
        backend,
        k: compiled.k,
        circuit: compiled.circuit_digest(),
        commitment: wc.clone(),
        values_digest: compiled.committed_values_digest(),
        weights: Arc::new(weights),
    };
    let digest = ctx.registry.publish(entry);
    Ok(ProofArtifacts {
        job_id: job.id,
        model: graph.name.clone(),
        backend,
        k: compiled.k,
        proof: Vec::new(),
        vk_bytes: Vec::new(),
        public: Vec::new(),
        cache: cache_outcome,
        prove_ms: t.elapsed().as_millis() as u64,
        segments: 0,
        bundle: None,
        weight_commitment: wc.to_bytes(),
        model_digest: Some(digest),
    })
}

fn prove_job(
    ctx: &WorkerCtx,
    job: &Job,
    graph: &Graph,
    backend: Backend,
    seed: u64,
    model: Option<[u8; 32]>,
) -> Result<ProofArtifacts, ServiceError> {
    let mismatch = |msg: String| {
        ctx.stats.record_rejected_commitment();
        ServiceError::CommitmentMismatch(msg)
    };
    // Resolve the published commitment *before* compiling, so an unknown
    // digest fails fast.
    let entry = match model {
        Some(digest) => {
            let entry = ctx
                .registry
                .get(&digest)
                .ok_or_else(|| mismatch(format!("no published model {}", hex32(&digest))))?;
            if entry.backend != backend {
                return Err(mismatch(format!(
                    "model {} was published for {:?}, job asks for {:?}",
                    hex32(&digest),
                    entry.backend,
                    backend
                )));
            }
            if entry.arch_hash != graph.arch_hash() {
                return Err(mismatch(format!(
                    "graph architecture does not match published model {}",
                    hex32(&digest)
                )));
            }
            Some(entry)
        }
        None => None,
    };

    let (compiled, params, pk, cache_outcome) = compile_and_key(ctx, job, graph, backend, seed)?;

    // Prove. No deadline check afterwards: a finished proof is returned
    // even if it came in late — the submitter can still discard it.
    //
    // The blinding RNG mixes per-process entropy into the client-supplied
    // seed so proofs are not reproducible from the request alone. Note the
    // vendored `rand` is a non-cryptographic stand-in (see vendor README):
    // proofs from this reproduction should not be relied on for the hiding
    // property regardless.
    let t = Instant::now();
    let mut proof_rng = StdRng::seed_from_u64(seed ^ ctx.proof_entropy ^ 0x9E37_79B9_7F4A_7C15);
    let (proof, wc, wc_bytes) = match &entry {
        Some(entry) => {
            // The committed-weight plane must be byte-identical to what
            // was published: same circuit layout (column alignment) and
            // same weight values. The values check is pure hashing — a
            // tampered weight is caught before any proving work.
            if entry.circuit != compiled.circuit_digest() {
                return Err(mismatch(format!(
                    "compiled circuit diverged from published model {} \
                     (layout drift; republish the commitment)",
                    hex32(&entry.digest)
                )));
            }
            if entry.values_digest != compiled.committed_values_digest() {
                return Err(mismatch(format!(
                    "graph weights do not hash to published model {}",
                    hex32(&entry.digest)
                )));
            }
            // Commit-once/prove-many: reuse the registry's pre-encoded
            // weights — zero weight encodings, zero commitment MSMs here.
            let proof = compiled
                .prove_with_weights(&params, &pk, &mut proof_rng, &[], &entry.weights)
                .map_err(|e| ServiceError::Prove(e.to_string()))?;
            (
                proof,
                Some(entry.commitment.clone()),
                entry.commitment.to_bytes(),
            )
        }
        None if compiled.has_committed() => {
            // No published reference: commit inline for this job and carry
            // the commitment in the artifacts so the proof stays
            // verifiable.
            let (wc, weights) = compiled
                .commit_weights(&params)
                .map_err(|e| ServiceError::Prove(e.to_string()))?;
            let proof = compiled
                .prove_with_weights(&params, &pk, &mut proof_rng, &[], &weights)
                .map_err(|e| ServiceError::Prove(e.to_string()))?;
            let wc_bytes = wc.to_bytes();
            (proof, Some(wc), wc_bytes)
        }
        None => {
            let proof = compiled
                .prove(&params, &pk, &mut proof_rng)
                .map_err(|e| ServiceError::Prove(e.to_string()))?;
            (proof, None, Vec::new())
        }
    };
    let prove_ms = t.elapsed().as_millis() as u64;
    ctx.stats.record_prove_latency_ms(prove_ms);

    check_cancelled(job)?;
    if ctx.verify_after_prove {
        verify_recorded(
            ctx,
            &params,
            &pk.vk,
            compiled.instance(),
            &proof,
            wc.as_ref(),
        )?;
    }

    Ok(ProofArtifacts {
        job_id: job.id,
        model: graph.name.clone(),
        backend,
        k: compiled.k,
        proof,
        vk_bytes: pk.vk.to_bytes(),
        public: compiled.instance().first().cloned().unwrap_or_default(),
        cache: cache_outcome,
        prove_ms,
        segments: 1,
        bundle: None,
        weight_commitment: wc_bytes,
        model_digest: model,
    })
}

/// [`KeySource`] over the service's artifact cache: params are memoized per
/// `(backend, k)` and each segment's proving key is cached under its own
/// [`ArtifactKey`] (model hash + backend + the segment plan's circuit
/// digest), so the pk cache shards naturally across segments and a repeat
/// job skips keygen for every segment.
struct CacheKeySource<'a> {
    ctx: &'a WorkerCtx,
    /// Cache namespace: the graph's *architecture* hash, not the content
    /// hash `prove_compiled` stamps into the bundle — segment proving keys
    /// are weight-independent, so weight sets of one architecture share
    /// every segment's cached key.
    arch_hash: [u8; 32],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl KeySource for CacheKeySource<'_> {
    fn params(&self, backend: Backend, k: u32) -> Arc<zkml_pcs::Params> {
        self.ctx.cache.params(backend, k)
    }

    fn proving_key(
        &self,
        _model_hash: [u8; 32],
        backend: Backend,
        plan: &zkml::LayoutPlan,
        compiled: &zkml::CompiledCircuit,
        params: &zkml_pcs::Params,
    ) -> Result<Arc<zkml_plonk::ProvingKey>, zkml::ZkmlError> {
        let key = ArtifactKey::for_plan(self.arch_hash, backend, plan);
        let (pk, outcome) = self.ctx.cache.get_or_generate(
            key,
            |pk| pk_matches_circuit(pk, compiled),
            || compiled.keygen(params),
        )?;
        if outcome.is_hit() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.ctx.stats.record_cache_hit();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.ctx.stats.record_cache_miss();
        }
        Ok(pk)
    }
}

fn prove_segmented_job(
    ctx: &WorkerCtx,
    job: &Job,
    graph: &Graph,
    backend: Backend,
    seed: u64,
    segments: SegmentSpec,
) -> Result<ProofArtifacts, ServiceError> {
    // One lowering for the whole model; the cutter, the first job's
    // per-segment sweeps and every segment's synthesis replay this schedule.
    let (opts, sched, layout) = lower_and_lay_out(ctx, graph, backend, seed, Some(segments))?;
    let compiled = zkml_shard::synthesize_segments(&sched, &layout)
        .map_err(|e| ServiceError::Compile(e.to_string()))?;
    // Each segment is an independent circuit; all must have passed the
    // static determinism check before any key material is touched.
    let model_hash = graph.content_hash();
    for (i, seg) in compiled.iter().enumerate() {
        ensure_determined(ctx, model_hash, &seg.compiled)
            .map_err(|e| ServiceError::Underconstrained(format!("segment {i}: {e}")))?;
    }
    check_cancelled(job)?;
    check_deadline(job)?;

    let keys = CacheKeySource {
        ctx,
        arch_hash: graph.arch_hash(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    };
    let t = Instant::now();
    let bundle = zkml_shard::prove_compiled(
        model_hash,
        &compiled,
        &keys,
        &opts,
        seed ^ ctx.proof_entropy ^ 0x9E37_79B9_7F4A_7C15,
    )
    .map_err(|e| ServiceError::Prove(e.to_string()))?;
    let prove_ms = t.elapsed().as_millis() as u64;
    ctx.stats.record_prove_latency_ms(prove_ms);

    // The bundle verifier settles all segments with one pairing.
    check_cancelled(job)?;
    if ctx.verify_after_prove {
        match zkml_shard::verify_bundle(&bundle, |b, k| ctx.cache.params(b, k)) {
            Ok(report) => ctx.stats.record_verified(report.segments as u64, 0),
            Err(e) => {
                ctx.stats.record_verified(0, bundle.segments.len() as u64);
                return Err(ServiceError::Verify(e.to_string()));
            }
        }
    }

    let max_k = bundle.segments.iter().map(|s| s.k).max().unwrap_or(0);
    let nsegs = bundle.segments.len() as u32;
    Ok(ProofArtifacts {
        job_id: job.id,
        model: graph.name.clone(),
        backend,
        k: max_k,
        proof: bundle.to_bytes(),
        // Per-segment verifying keys live inside the bundle.
        vk_bytes: Vec::new(),
        public: bundle.public_outputs().to_vec(),
        cache: if keys.misses.load(Ordering::Relaxed) == 0 {
            CacheOutcome::MemoryHit
        } else {
            CacheOutcome::Miss
        },
        prove_ms,
        segments: nsegs,
        bundle: Some(bundle),
        // Per-segment weight commitments live inside the bundle, chained
        // into its digest; there is no single monolithic commitment.
        weight_commitment: Vec::new(),
        model_digest: None,
    })
}
