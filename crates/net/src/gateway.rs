//! The HTTP gateway: a std-only threaded HTTP/1.1 server over the proving
//! service, with no async runtime. A fixed pool of handler threads shares
//! one blocking listener: each handler blocks in `accept`, then reads,
//! routes and answers the connection it got, so nothing between a client's
//! connect and its response waits on a timer.
//!
//! Request path: `POST /v1/jobs` → admission (token bucket, quota, lane
//! bound) → journal `submitted` → priority lane, the only place a job
//! waits. A single dispatcher thread blocks on one event channel: while a
//! worker is free it hands the service the next job by weighted round-robin
//! (journaling `started`), and it appends exactly one terminal record per
//! result a worker reports (a job that completes is a verified one).
//! `GET /v1/jobs/{id}` serves status and (hex-encoded) artifacts,
//! `DELETE /v1/jobs/{id}` cancels cooperatively, `GET /v1/stats` merges the
//! service snapshot with per-tenant admission counters.

use crate::admission::{Admission, AdmissionConfig, Priority, ReleaseOutcome};
use crate::http::{read_request, write_json_response, ParseError, Request};
use crate::journal::{
    digest_field, model_and_backend, replay, tenant_and_priority, JobDesc, Journal, Record,
    ReplayState,
};
use crate::json::{decode_hex, encode_hex, Json, JsonObj};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zkml_pcs::Backend;
use zkml_service::{
    decode_public, encode_public, CancelToken, JobKind, JobResult, JobSpec, ProofArtifacts,
    ProvingService, ServiceConfig, ServiceError,
};

/// Gateway construction parameters.
#[derive(Clone)]
pub struct GatewayConfig {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 binds an ephemeral port;
    /// read it back via [`Gateway::local_addr`]).
    pub addr: String,
    /// The proving-service configuration behind the gateway.
    pub service: ServiceConfig,
    /// Admission policies, lane weights, and lane capacity.
    pub admission: AdmissionConfig,
    /// Journal file; `None` runs without durability (tests, benches).
    pub journal: Option<PathBuf>,
    /// HTTP handler threads.
    pub handler_threads: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            service: ServiceConfig::default(),
            admission: AdmissionConfig::default(),
            journal: None,
            handler_threads: 4,
        }
    }
}

/// A job's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Completed,
    Failed,
    Cancelled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }
}

struct JobEntry {
    tenant: String,
    priority: Priority,
    desc: JobDesc,
    state: JobState,
    cancel: CancelToken,
    /// What the dispatcher hands the service: the description with its model
    /// resolved, or a verify job's payload (not journaled; too large). `None`
    /// once the service has it, and for a job replayed as terminal. Boxed,
    /// like `artifacts`, so that the registry's many finished jobs pay one
    /// pointer for each instead of the largest variant.
    work: Option<Box<JobKind>>,
    artifacts: Option<Box<ProofArtifacts>>,
    error: Option<String>,
    /// True when the job reached `Completed` in this process, so its
    /// artifacts (if any) are actually servable. Jobs replayed from the
    /// journal keep their terminal state but not their bytes.
    result_available: bool,
}

#[derive(Default)]
struct Lanes {
    interactive: VecDeque<u64>,
    batch: VecDeque<u64>,
}

impl Lanes {
    fn lane_mut(&mut self, p: Priority) -> &mut VecDeque<u64> {
        match p {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        }
    }
}

impl JobEntry {
    fn queued(tenant: String, priority: Priority, desc: JobDesc, work: Option<JobKind>) -> Self {
        Self {
            tenant,
            priority,
            desc,
            state: JobState::Queued,
            cancel: CancelToken::new(),
            work: work.map(Box::new),
            artifacts: None,
            error: None,
            result_available: false,
        }
    }
}

/// The service job a description runs, its model resolved by zoo name. A
/// `verify` description has none: its payload is not part of it.
fn resolve(desc: &JobDesc) -> Result<Option<JobKind>, String> {
    Ok(match desc {
        JobDesc::Prove {
            model,
            backend,
            seed,
            segments,
            model_digest,
        } => Some(JobKind::Prove {
            graph: Arc::new(
                zkml_model::zoo::by_name(model).ok_or(format!("unknown model '{model}'"))?,
            ),
            backend: *backend,
            seed: *seed,
            model: *model_digest,
            segments: *segments,
        }),
        JobDesc::Sleep { ms } => Some(JobKind::Sleep(Duration::from_millis(*ms))),
        JobDesc::Verify => None,
    })
}

/// What the dispatcher waits for.
enum Event {
    /// A lane gained a job, a publication left the service, or shutdown began.
    Wake,
    /// A worker finished the job handed over under this gateway id.
    Done(u64, Box<JobResult>),
}

struct Inner {
    service: ProvingService,
    events: Sender<Event>,
    admission: Admission,
    lanes: Mutex<Lanes>,
    registry: Mutex<HashMap<u64, JobEntry>>,
    journal: Option<Journal>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    interactive_weight: usize,
    batch_weight: usize,
    lane_capacity: usize,
    started: Instant,
}

impl Inner {
    fn journal_append(&self, rec: &Record) -> std::io::Result<()> {
        match &self.journal {
            Some(j) => j.append(rec),
            None => Ok(()),
        }
    }

    /// Appends a journal record where failure cannot fail the job anymore
    /// (terminal records); IO errors are reported but not fatal.
    fn journal_note(&self, rec: &Record) {
        if let Err(e) = self.journal_append(rec) {
            eprintln!("journal append failed: {e}");
        }
    }
}

/// The running HTTP gateway. Dropping it performs a graceful shutdown:
/// stop accepting, drain both lanes and all in-flight jobs, fsync the
/// journal.
pub struct Gateway {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    dispatch_thread: Option<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listener, replays the journal, starts the proving service,
    /// the dispatcher, and the handler pool.
    pub fn start(cfg: GatewayConfig) -> std::io::Result<Gateway> {
        let (journal, records) = match &cfg.journal {
            Some(path) => {
                let (j, recs) = Journal::open(path)?;
                (Some(j), recs)
            }
            None => (None, Vec::new()),
        };
        let service = ProvingService::start(cfg.service)?;
        let admission = Admission::new(&cfg.admission);
        let (events, event_rx) = std::sync::mpsc::channel();
        let inner = Arc::new(Inner {
            service,
            events,
            admission,
            lanes: Mutex::new(Lanes::default()),
            registry: Mutex::new(HashMap::new()),
            journal,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            interactive_weight: cfg.admission.interactive_weight.max(1),
            batch_weight: cfg.admission.batch_weight.max(1),
            lane_capacity: cfg.admission.lane_capacity.max(1),
            started: Instant::now(),
        });
        replay_into(&inner, &records);

        let listener = Arc::new(TcpListener::bind(&cfg.addr)?);
        let local_addr = listener.local_addr()?;
        let handler_threads = (0..cfg.handler_threads.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("zkml-http-{i}"))
                    .spawn(move || handler_loop(&listener, &inner))
                    .expect("spawn http handler")
            })
            .collect();
        let dispatch_thread = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("zkml-dispatch".to_string())
                .spawn(move || dispatcher_loop(&inner, &event_rx))
                .expect("spawn dispatcher")
        };
        Ok(Gateway {
            inner,
            local_addr,
            dispatch_thread: Some(dispatch_thread),
            handler_threads,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The merged stats document served at `GET /v1/stats`.
    pub fn stats_json(&self) -> String {
        stats_json(&self.inner)
    }

    /// Graceful shutdown: stop accepting, drain lanes and in-flight jobs,
    /// fsync the journal. Blocks until done; it is what dropping does.
    pub fn shutdown(self) {}
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // One connection per handler wakes whichever are blocked in
        // `accept`; each reads the flag once it has served what it accepted.
        // A connect that times out means the backlog is full, and those
        // pending connections wake the handlers instead. (A listener bound
        // to `0.0.0.0` or `::` is reached through loopback.)
        for _ in &self.handler_threads {
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        }
        for t in self.handler_threads.drain(..) {
            let _ = t.join();
        }
        let _ = self.inner.events.send(Event::Wake);
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
        if let Some(j) = &self.inner.journal {
            let _ = j.sync();
        }
    }
}

/// Rebuilds registry, lanes, and admission state from journal records.
/// Policy: terminal jobs stay terminal (without artifact bytes); jobs that
/// were queued re-enter their lane and re-run; jobs that were in flight
/// when the process died are deterministically failed (the journal gains
/// their terminal record immediately, so a second replay agrees).
fn replay_into(inner: &Arc<Inner>, records: &[crate::journal::Record]) {
    let (jobs, next_id) = replay(records);
    inner.next_id.store(next_id, Ordering::SeqCst);
    let mut registry = inner.registry.lock().unwrap();
    let mut lanes = inner.lanes.lock().unwrap();
    for job in jobs {
        let mut entry = JobEntry::queued(job.tenant.clone(), job.priority, job.desc.clone(), None);
        let fail = |entry: &mut JobEntry, error: String| {
            entry.state = JobState::Failed;
            entry.error = Some(error.clone());
            inner.journal_note(&Record::Failed { job: job.id, error });
        };
        match job.state {
            ReplayState::Completed { .. } => entry.state = JobState::Completed,
            ReplayState::Failed(err) => {
                entry.state = JobState::Failed;
                entry.error = Some(err);
            }
            ReplayState::Cancelled => entry.state = JobState::Cancelled,
            // The crash interrupted this job mid-run. Re-fail it
            // deterministically rather than re-running: its submitter may
            // already be acting on the uncertainty, and a re-run could
            // complete a job the client has given up on.
            ReplayState::InFlight => fail(
                &mut entry,
                "interrupted by server restart while running".to_string(),
            ),
            ReplayState::Queued => match resolve(&job.desc) {
                Ok(Some(work)) => {
                    entry.work = Some(Box::new(work));
                    inner.admission.restore(&job.tenant);
                    lanes.lane_mut(job.priority).push_back(job.id);
                }
                // Verify payloads are not journaled, so a queued verify job
                // cannot be reconstructed.
                Ok(None) => fail(
                    &mut entry,
                    "verify job payload not durable across restart".to_string(),
                ),
                Err(e) => fail(&mut entry, format!("{e} at replay")),
            },
        }
        registry.insert(job.id, entry);
    }
}

/// One handler: block in `accept`, serve the connection, repeat until
/// shutdown. Shutdown's wake-up connection closes without a request, so
/// serving it ends at once. An accept error of one connection (aborted or
/// reset before it was accepted, or an interrupted call) drops only that
/// attempt. Any other (no file descriptor, buffer or memory left) repeats
/// until something is freed, so the handler yields its core before each
/// retry to the threads that can free it.
fn handler_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                use std::io::ErrorKind::{ConnectionAborted, ConnectionReset, Interrupted};
                if !matches!(e.kind(), ConnectionAborted | ConnectionReset | Interrupted) {
                    std::thread::yield_now();
                }
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        handle_connection(inner, &mut stream);
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: &mut TcpStream) {
    let request = match read_request(&mut *stream) {
        Ok(r) => r,
        Err(ParseError::ConnectionClosed) => return,
        Err(ParseError::TooLarge) => {
            let body = JsonObj::new()
                .str("error", "request body too large")
                .finish();
            let _ = write_json_response(stream, 413, &[], &body);
            return;
        }
        Err(ParseError::Bad(msg)) => {
            let body = JsonObj::new().str("error", &msg).finish();
            let _ = write_json_response(stream, 400, &[], &body);
            return;
        }
    };
    let (status, extra, body) = route(inner, &request);
    let extra_refs: Vec<(&str, String)> = extra.iter().map(|(k, v)| (*k, v.clone())).collect();
    let _ = write_json_response(stream, status, &extra_refs, &body);
}

type RouteResult = (u16, Vec<(&'static str, String)>, String);

fn err_body(msg: &str) -> String {
    JsonObj::new().str("error", msg).finish()
}

fn route(inner: &Arc<Inner>, req: &Request) -> RouteResult {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let body = JsonObj::new()
                .bool("ok", true)
                .bool("draining", inner.shutdown.load(Ordering::SeqCst))
                .finish();
            (200, vec![], body)
        }
        ("GET", "/v1/stats") => (200, vec![], stats_json(inner)),
        ("POST", "/v1/jobs") => submit_route(inner, &req.body),
        ("POST", "/v1/models") => commit_model_route(inner, &req.body),
        ("GET", "/v1/models") => list_models_route(inner),
        (_, "/v1/jobs") | (_, "/v1/healthz") | (_, "/v1/stats") | (_, "/v1/models") => {
            (405, vec![], err_body("method not allowed"))
        }
        (method, path) if path.starts_with("/v1/jobs/") => {
            let id = match path["/v1/jobs/".len()..].parse::<u64>() {
                Ok(id) => id,
                Err(_) => return (404, vec![], err_body("no such job")),
            };
            match method {
                "GET" => job_status_route(inner, id),
                "DELETE" => cancel_route(inner, id),
                _ => (405, vec![], err_body("method not allowed")),
            }
        }
        _ => (404, vec![], err_body("not found")),
    }
}

fn stats_json(inner: &Arc<Inner>) -> String {
    let snap = inner.service.snapshot();
    let (ni, nb) = {
        let lanes = inner.lanes.lock().unwrap();
        (lanes.interactive.len() as u64, lanes.batch.len() as u64)
    };
    JsonObj::new()
        .raw("service", &snap.to_json())
        .raw(
            "lanes",
            &JsonObj::new()
                .u64("interactive", ni)
                .u64("batch", nb)
                .finish(),
        )
        .raw("tenants", &inner.admission.tenants_json())
        .u64("uptime_s", inner.started.elapsed().as_secs())
        .bool("draining", inner.shutdown.load(Ordering::SeqCst))
        .finish()
}

/// Parses a request body as JSON.
fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    Json::parse(text).map_err(|e| format!("bad json: {e}"))
}

/// Parses and validates a submission body into a queued job.
fn parse_submission(body: &[u8]) -> Result<JobEntry, String> {
    let v = parse_body(body)?;
    let (tenant, priority) = tenant_and_priority(&v)?;
    let desc = JobDesc::from_json(&v)?;
    let work = match resolve(&desc)? {
        Some(work) => work,
        None => verify_payload(&v)?,
    };
    Ok(JobEntry::queued(tenant, priority, desc, Some(work)))
}

/// Reads a verify job's payload: a monolithic `proof_hex` / `vk_hex` /
/// `public_hex` triple, optionally with the `model_digest` it must verify
/// against and the `commitment_hex` it was proved under, or a `bundle_hex`,
/// which carries its own commitments and takes neither.
fn verify_payload(v: &Json) -> Result<JobKind, String> {
    let hex_field = |name: &str| -> Result<Vec<u8>, String> {
        match v.get(name).and_then(Json::as_str) {
            Some(h) => decode_hex(h).map_err(|e| format!("{name}: {e}")),
            None => Err(format!("verify jobs need \"{name}\"")),
        }
    };
    let model = digest_field(v, "model_digest")?;
    let weight_commitment = match v.get("commitment_hex") {
        Some(_) => hex_field("commitment_hex")?,
        None => Vec::new(),
    };
    if v.get("bundle_hex").is_some() {
        if model.is_some() || !weight_commitment.is_empty() {
            return Err(
                "a bundle carries its own weight commitments; model_digest and \
                 commitment_hex are not supported with bundle_hex"
                    .into(),
            );
        }
        return Ok(JobKind::Verify {
            backend: Backend::Kzg, // the bundle carries its own
            vk: Vec::new(),
            public: Vec::new(),
            proof: hex_field("bundle_hex")?,
            model,
            weight_commitment,
        });
    }
    let proof = hex_field("proof_hex")?;
    let vk = hex_field("vk_hex")?;
    if vk.is_empty() {
        return Err("vk_hex must not be empty".into());
    }
    let (backend, public) =
        decode_public(&hex_field("public_hex")?).map_err(|e| format!("public_hex: {e}"))?;
    Ok(JobKind::Verify {
        backend,
        vk,
        public,
        proof,
        model,
        weight_commitment,
    })
}

fn submit_route(inner: &Arc<Inner>, body: &[u8]) -> RouteResult {
    let entry = match parse_submission(body) {
        Ok(entry) => entry,
        Err(msg) => return (400, vec![], err_body(&msg)),
    };
    let (tenant, priority) = (&entry.tenant, entry.priority);

    // Admission, enqueue and the drain check under the lane lock: the bound
    // and the slot accounting cannot race, and no job enters a drained lane.
    let mut lanes = inner.lanes.lock().unwrap();
    if inner.shutdown.load(Ordering::SeqCst) {
        return (503, vec![], err_body("server is draining"));
    }
    if let Err(e) = inner.admission.admit(tenant) {
        let secs = e.retry_after().as_secs_f64();
        let body = JsonObj::new()
            .str("error", &e.to_string())
            .f64("retry_after_s", secs)
            .finish();
        return (
            429,
            vec![("retry-after", format!("{}", secs.ceil().max(1.0) as u64))],
            body,
        );
    }
    let lane = lanes.lane_mut(priority);
    if lane.len() >= inner.lane_capacity {
        inner.admission.refund_lane_full(tenant);
        let body = JsonObj::new()
            .str(
                "error",
                &format!("queue lane full ({} waiting)", inner.lane_capacity),
            )
            .f64("retry_after_s", 1.0)
            .finish();
        return (429, vec![("retry-after", "1".to_string())], body);
    }

    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    // Write-ahead: the submission is durable before the 202 goes out.
    if let Err(e) = inner.journal_append(&Record::Submitted {
        job: id,
        tenant: tenant.clone(),
        priority,
        desc: entry.desc.clone(),
    }) {
        inner.admission.refund_lane_full(tenant);
        return (500, vec![], err_body(&format!("journal write failed: {e}")));
    }
    inner.registry.lock().unwrap().insert(id, entry);
    lane.push_back(id);
    drop(lanes);
    let _ = inner.events.send(Event::Wake);
    let body = JsonObj::new()
        .u64("job_id", id)
        .str("status", "queued")
        .finish();
    (202, vec![], body)
}

/// `POST /v1/models`: publishes a model's weight commitment. The job runs
/// synchronously through the service (bypassing the lanes — publication is
/// a one-time administrative action, not proving traffic) and the response
/// carries the digest that subsequent prove/verify submissions reference.
fn commit_model_route(inner: &Arc<Inner>, body: &[u8]) -> RouteResult {
    if inner.shutdown.load(Ordering::SeqCst) {
        return (503, vec![], err_body("server is draining"));
    }
    let (model, backend) = match parse_body(body).and_then(|v| model_and_backend(&v)) {
        Ok(parsed) => parsed,
        Err(msg) => return (400, vec![], err_body(&msg)),
    };
    let Some(graph) = zkml_model::zoo::by_name(&model) else {
        return (400, vec![], err_body(&format!("unknown model '{model}'")));
    };
    let handle = match inner
        .service
        .submit(JobSpec::commit_model(Arc::new(graph), backend))
    {
        Ok(h) => h,
        Err(ServiceError::Busy { .. }) => {
            return (
                429,
                vec![("retry-after", "1".to_string())],
                err_body("service queue full"),
            )
        }
        Err(e) => return (500, vec![], err_body(&e.to_string())),
    };
    let published = handle.wait();
    // A job the service refused (`Busy`) because of this publication can go now.
    let _ = inner.events.send(Event::Wake);
    match published {
        Ok(Some(a)) => {
            let digest = a.model_digest.map(|d| encode_hex(&d)).unwrap_or_default();
            let body = JsonObj::new()
                .str("model", &model)
                .str("digest", &digest)
                .str("commitment_hex", &encode_hex(&a.weight_commitment))
                .u64("k", u64::from(a.k))
                .str("cache", &format!("{:?}", a.cache))
                .finish();
            (200, vec![], body)
        }
        Ok(None) => (500, vec![], err_body("commit-model returned no artifacts")),
        Err(ServiceError::CommitmentMismatch(msg)) => (422, vec![], err_body(&msg)),
        Err(e) => (500, vec![], err_body(&e.to_string())),
    }
}

/// `GET /v1/models`: the published model commitments, sorted by digest.
fn list_models_route(inner: &Arc<Inner>) -> RouteResult {
    let mut entries = inner.service.registry().list();
    entries.sort_by_key(|e| e.digest);
    let items: Vec<String> = entries
        .iter()
        .map(|e| {
            JsonObj::new()
                .str("digest", &encode_hex(&e.digest))
                .str("model", &e.model)
                .str("backend", &format!("{:?}", e.backend).to_lowercase())
                .u64("k", u64::from(e.k))
                .finish()
        })
        .collect();
    let body = JsonObj::new()
        .u64("count", items.len() as u64)
        .raw("models", &format!("[{}]", items.join(",")))
        .finish();
    (200, vec![], body)
}

fn job_status_route(inner: &Arc<Inner>, id: u64) -> RouteResult {
    let registry = inner.registry.lock().unwrap();
    let Some(entry) = registry.get(&id) else {
        return (404, vec![], err_body("no such job"));
    };
    let mut obj = JsonObj::new()
        .u64("job_id", id)
        .str("tenant", &entry.tenant)
        .str("priority", entry.priority.as_str())
        .str("kind", entry.desc.kind())
        .str("status", entry.state.as_str())
        .bool("result_available", entry.result_available);
    if let JobDesc::Prove { model, .. } = &entry.desc {
        obj = obj.str("model", model);
    }
    obj = match &entry.error {
        Some(e) => obj.str("error", e),
        None => obj.null("error"),
    };
    if entry.state == JobState::Completed && entry.result_available {
        if let Some(a) = &entry.artifacts {
            obj = obj
                .u64("k", u64::from(a.k))
                .u64("segments", u64::from(a.segments))
                .u64("prove_ms", a.prove_ms)
                .str("cache", &format!("{:?}", a.cache))
                .bool("bundle", a.bundle.is_some())
                .str("proof_hex", &encode_hex(&a.proof))
                .str("vk_hex", &encode_hex(&a.vk_bytes))
                .str(
                    "public_hex",
                    &encode_hex(&encode_public(a.backend, &a.public)),
                );
            if !a.weight_commitment.is_empty() {
                obj = obj.str("commitment_hex", &encode_hex(&a.weight_commitment));
            }
            if let Some(d) = &a.model_digest {
                obj = obj.str("model_digest", &encode_hex(d));
            }
        }
    }
    (200, vec![], obj.finish())
}

fn cancel_route(inner: &Arc<Inner>, id: u64) -> RouteResult {
    // Lock order everywhere: lanes, then registry.
    let mut lanes = inner.lanes.lock().unwrap();
    let mut registry = inner.registry.lock().unwrap();
    let Some(entry) = registry.get_mut(&id) else {
        return (404, vec![], err_body("no such job"));
    };
    if entry.state.terminal() {
        let body = JsonObj::new()
            .u64("job_id", id)
            .str("status", entry.state.as_str())
            .str("error", "job already terminal")
            .finish();
        return (409, vec![], body);
    }
    entry.cancel.cancel();
    if entry.state == JobState::Queued {
        let lane = lanes.lane_mut(entry.priority);
        if let Some(pos) = lane.iter().position(|&j| j == id) {
            // Still in its lane: cancel synchronously.
            lane.remove(pos);
            entry.state = JobState::Cancelled;
            inner.journal_note(&Record::Cancelled { job: id });
            inner
                .admission
                .release(&entry.tenant, ReleaseOutcome::Cancelled);
            let body = JsonObj::new()
                .u64("job_id", id)
                .str("status", "cancelled")
                .finish();
            return (200, vec![], body);
        }
        // Popped by the dispatcher already; the token will stop it at the
        // next stage boundary and the dispatcher writes the terminal state.
    }
    let body = JsonObj::new()
        .u64("job_id", id)
        .str("status", "cancelling")
        .finish();
    (202, vec![], body)
}

/// Picks the next job id by weighted round-robin over the two lanes: the
/// repeating pattern serves `interactive_weight` interactive slots then
/// `batch_weight` batch slots; an empty primary lane yields its slot to the
/// other, so neither lane can starve while work is waiting.
fn pop_weighted(inner: &Inner, cursor: &mut usize) -> Option<u64> {
    let mut lanes = inner.lanes.lock().unwrap();
    let period = inner.interactive_weight + inner.batch_weight;
    let interactive_first = (*cursor % period) < inner.interactive_weight;
    let id = if interactive_first {
        lanes
            .interactive
            .pop_front()
            .or_else(|| lanes.batch.pop_front())
    } else {
        lanes
            .batch
            .pop_front()
            .or_else(|| lanes.interactive.pop_front())
    };
    if id.is_some() {
        *cursor += 1;
    }
    id
}

/// Applies a job's result: first its one terminal journal record, outside the
/// registry lock (no request waits on the fsync), then state and tenant slot.
fn finish(inner: &Inner, id: u64, result: JobResult) {
    let (state, record, outcome) = match &result {
        Ok(artifacts) => {
            let a = artifacts.as_ref();
            let record = Record::Completed {
                job: id,
                k: a.map_or(0, |a| a.k),
                segments: a.map_or(0, |a| a.segments),
                prove_ms: a.map_or(0, |a| a.prove_ms),
            };
            (JobState::Completed, record, ReleaseOutcome::Completed)
        }
        Err(ServiceError::Cancelled) => {
            let record = Record::Cancelled { job: id };
            (JobState::Cancelled, record, ReleaseOutcome::Cancelled)
        }
        Err(e) => {
            let error = e.to_string();
            let record = Record::Failed { job: id, error };
            (JobState::Failed, record, ReleaseOutcome::Failed)
        }
    };
    inner.journal_note(&record);
    let mut registry = inner.registry.lock().unwrap();
    let Some(entry) = registry.get_mut(&id) else {
        return;
    };
    entry.state = state;
    entry.result_available = result.is_ok();
    if let Record::Failed { error, .. } = record {
        entry.error = Some(error);
    }
    entry.artifacts = result.ok().flatten().map(Box::new);
    inner.admission.release(&entry.tenant, outcome);
}

/// The one writer of a job's `started` and terminal records. Feeds the
/// service while a worker is free, so a job waits in its lane (prioritised,
/// cancellable) and not in the service's queue, then blocks on the events.
fn dispatcher_loop(inner: &Arc<Inner>, events: &Receiver<Event>) {
    let workers = inner.service.worker_count();
    // Jobs handed to the service whose `Done` has not arrived.
    let mut handed_over = 0usize;
    let mut cursor = 0usize;
    loop {
        while handed_over < workers {
            let Some(id) = pop_weighted(inner, &mut cursor) else {
                break;
            };
            let queued = inner.registry.lock().unwrap().get(&id).and_then(|entry| {
                Some((entry.priority, entry.cancel.clone(), entry.work.clone()?))
            });
            let Some((priority, cancel, kind)) = queued else {
                continue;
            };
            if cancel.is_cancelled() {
                finish(inner, id, Err(ServiceError::Cancelled));
                continue;
            }
            let events = inner.events.clone();
            let done = move |result| drop(events.send(Event::Done(id, Box::new(result))));
            match inner
                .service
                .submit_with(JobSpec::new(*kind).with_cancel(cancel), done)
            {
                Ok(_) => {
                    // `started` is journaled once the service holds the job:
                    // a crash before the append replays it as queued and
                    // re-runs it, a crash after it deterministically fails it.
                    inner.journal_note(&Record::Started { job: id });
                    if let Some(entry) = inner.registry.lock().unwrap().get_mut(&id) {
                        entry.state = JobState::Running;
                        entry.work = None;
                    }
                    handed_over += 1;
                }
                Err(ServiceError::Busy { .. }) => {
                    // A publication (or a queue smaller than the worker
                    // count) took the room: back to the front of its lane
                    // until the next event, payload in place; the cursor
                    // counts dispatches, not attempts.
                    cursor -= 1;
                    let mut lanes = inner.lanes.lock().unwrap();
                    lanes.lane_mut(priority).push_front(id);
                    break;
                }
                Err(e) => finish(inner, id, Err(e)),
            }
        }
        if handed_over == 0 && inner.shutdown.load(Ordering::SeqCst) {
            let lanes = inner.lanes.lock().unwrap();
            if lanes.interactive.is_empty() && lanes.batch.is_empty() {
                break; // drained
            }
        }
        if let Ok(Event::Done(id, result)) = events.recv() {
            handed_over -= 1;
            finish(inner, id, *result);
        }
    }
}

#[cfg(test)]
mod tests;
