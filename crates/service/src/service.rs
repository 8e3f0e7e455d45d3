//! The proving service: a bounded job queue feeding a pool of worker
//! threads, with per-job deadlines, cooperative cancellation and panic
//! isolation. The workers run [`crate::pipeline`], what a proving job does
//! stage by stage, and hand each result to its submitter's completion.

use crate::cache::ArtifactCache;
use crate::error::ServiceError;
use crate::pipeline::{Pipeline, ProofArtifacts, Stage};
use crate::registry::ModelRegistry;
use crate::stats::StatsSnapshot;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zkml_ff::Fr;
use zkml_model::Graph;
use zkml_pcs::Backend;
use zkml_shard::SegmentSpec;

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
            cache_dir: None,
        }
    }
}

/// What a job asks the service to do.
#[derive(Clone)]
pub enum JobKind {
    /// Optimize, compile, prove and verify one inference of `graph`.
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
        /// or commitment work. Not supported together with `segments`.
        model: Option<[u8; 32]>,
        /// `None` proves the model as one circuit. Otherwise it is cut at
        /// tensor boundaries (see `zkml-shard`): each segment gets its own
        /// bounded-`k` circuit and cached proving key, segments are proved
        /// concurrently, and the result is one
        /// [`zkml_shard::SegmentedProof`] bundle (`Fixed(1)` included).
        segments: Option<SegmentSpec>,
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
    /// Verify an already-produced proof: a monolithic `(vk, public, proof)`
    /// triple when `vk` is non-empty, otherwise `proof` is a serialized
    /// [`zkml_shard::SegmentedProof`] bundle (which carries its own verifying
    /// keys and weight commitments, so `model` and `weight_commitment` must
    /// be unset).
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
/// submitter keeps one end (via `JobHandle::cancel` or directly) and the
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
    /// submitted job's `JobHandle` shares this token.
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
            segments: None,
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
            segments: None,
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
        Self::new(JobKind::Prove {
            graph,
            backend,
            seed,
            model: None,
            segments: Some(segments),
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

/// Outcome of a job: proof artifacts for proving jobs, `None` for
/// instrumentation jobs, or the error that stopped it.
pub type JobResult = Result<Option<ProofArtifacts>, ServiceError>;

struct Job {
    id: u64,
    spec: JobSpec,
    submitted: Instant,
    /// What is done with the result; the worker that ran the job calls it.
    done: Box<dyn FnOnce(JobResult) + Send>,
}

/// A submitted job's receipt; await the result through it.
pub struct JobHandle {
    rx: Receiver<JobResult>,
    cancel: CancelToken,
}

impl JobHandle {
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
    pipe: Arc<Pipeline>,
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
        let pipe = Arc::new(Pipeline::new(cache, cfg.max_k));
        let proof_entropy = process_entropy();
        let (tx, rx) = channel::bounded::<Job>(cfg.queue_capacity);
        // Share the core budget with the intra-proof runtime: each worker
        // drives prover kernels that already fan out across the global
        // zkml-par pool, so spawning more workers than pool threads would
        // oversubscribe cores without adding throughput.
        let worker_count = cfg.workers.max(1).min(zkml_par::global().threads());
        let workers = (0..worker_count)
            .map(|i| {
                let rx = rx.clone();
                let pipe = Arc::clone(&pipe);
                std::thread::Builder::new()
                    .name(format!("zkml-worker-{i}"))
                    .spawn(move || worker_loop(rx, pipe, proof_entropy))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Self {
            tx: Some(tx),
            workers,
            pipe,
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
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, ServiceError> {
        let (reply, rx) = channel::unbounded();
        let cancel = spec.cancel.clone();
        self.submit_with(spec, move |result| {
            // The submitter may have dropped its handle; that is not an error.
            let _ = reply.send(result);
        })?;
        Ok(JobHandle { rx, cancel })
    }

    /// [`Self::submit`] with the submitter's own completion: the worker that
    /// ran the job calls `done` with the result. Returns the job's id.
    pub fn submit_with(
        &self,
        mut spec: JobSpec,
        done: impl FnOnce(JobResult) + Send + 'static,
    ) -> Result<u64, ServiceError> {
        if spec.deadline.is_none() {
            spec.deadline = self.default_deadline;
        }
        let tx = self.tx.as_ref().ok_or(ServiceError::Shutdown)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            id,
            spec,
            submitted: Instant::now(),
            done: Box::new(done),
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.pipe.stats.record_submitted();
                self.pipe.stats.set_queue_depth(tx.len());
                Ok(id)
            }
            Err(TrySendError::Full(_)) => {
                self.pipe.stats.record_rejected_busy();
                Err(ServiceError::Busy {
                    queue_capacity: self.queue_capacity,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServiceError::Shutdown),
        }
    }

    /// A snapshot of the metrics with the queue depth refreshed.
    pub fn snapshot(&self) -> StatsSnapshot {
        if let Some(tx) = &self.tx {
            self.pipe.stats.set_queue_depth(tx.len());
        }
        self.pipe.stats.snapshot()
    }

    /// The registry of published model commitments. Populated by
    /// [`JobKind::CommitModel`] jobs; front ends read it to list models
    /// and resolve digests.
    pub fn registry(&self) -> &ModelRegistry {
        &self.pipe.registry
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

fn worker_loop(rx: Receiver<Job>, pipe: Arc<Pipeline>, proof_entropy: u64) {
    while let Ok(job) = rx.recv() {
        pipe.stats.set_queue_depth(rx.len());
        // Panic isolation: a panicking job poisons nothing — the worker
        // reports it as a job failure and moves on to the next job.
        let result = match catch_unwind(AssertUnwindSafe(|| run_job(&pipe, proof_entropy, &job))) {
            Ok(result) => result,
            Err(payload) => {
                pipe.stats.record_worker_panic();
                Err(ServiceError::WorkerPanicked(panic_message(&payload)))
            }
        };
        match &result {
            Ok(_) => pipe.stats.record_completed(),
            Err(ServiceError::Timeout { .. }) => {
                pipe.stats.record_timed_out();
                pipe.stats.record_failed();
            }
            Err(ServiceError::Cancelled) => pipe.stats.record_cancelled(),
            Err(_) => pipe.stats.record_failed(),
        }
        (job.done)(result);
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

fn run_job(pipe: &Pipeline, proof_entropy: u64, job: &Job) -> JobResult {
    check_cancelled(job)?;
    check_deadline(job)?;
    // No deadline is checked once a proof exists: a finished proof is
    // returned even if it came in late — the submitter can still discard it.
    let check = |stage: Stage| {
        check_cancelled(job)?;
        if stage == Stage::Proved {
            Ok(())
        } else {
            check_deadline(job)
        }
    };
    match &job.spec.kind {
        JobKind::Sleep(d) => {
            std::thread::sleep(*d);
            Ok(None)
        }
        JobKind::Panic => panic!("job {} requested a panic", job.id),
        JobKind::Verify {
            backend,
            vk,
            public,
            proof,
            model,
            weight_commitment,
        } => pipe
            .verify(*backend, vk, public, proof, *model, weight_commitment)
            .map(|()| None),
        // Publication compiles under a fixed input seed: layouts (and hence
        // the circuit and the commitment) are input-independent, and the
        // layout it sweeps is the one every later prove job of this
        // architecture takes from the memo.
        JobKind::CommitModel { graph, backend } => pipe
            .compile(graph, *backend, 0, None, &check)
            .and_then(|c| pipe.publish(&c, &check))
            .map(Some),
        // The blinding RNG mixes per-process entropy into the client-supplied
        // seed so proofs are not reproducible from the request alone.
        JobKind::Prove {
            graph,
            backend,
            seed,
            model,
            segments,
        } => pipe
            .compile(graph, *backend, *seed, *segments, &check)
            .and_then(|c| {
                let proof_seed = seed ^ proof_entropy ^ 0x9E37_79B9_7F4A_7C15;
                pipe.prove(&c, *model, proof_seed, &check)
            })
            .map(Some),
    }
}
