//! zkml-service: a long-lived, multi-tenant proving service over the ZKML
//! compiler.
//!
//! The paper's CLI workflow (§8) pays layout search and key generation on
//! every invocation. This crate amortizes that cost across requests:
//!
//! * an **artifact cache** (`cache`) keyed by `(architecture hash,
//!   backend, circuit digest)` holds SRS and proving/verifying keys behind
//!   `parking_lot::RwLock`s, spills proving keys to disk (via
//!   `zkml_plonk::write_cs`) so a restarted service starts warm, and
//!   validates a key read back from disk against the compiled circuit. It
//!   also memoizes, per process, the layout each architecture's sweep
//!   picked and the circuits the static analyzer cleared, so a warm job
//!   does only per-request work: lower, synthesize, prove;
//! * the **pipeline** (`pipeline`) is the stage order of a proving job —
//!   lower, memoized layout, synthesize, determinism gate, keys, weights,
//!   prove, verify — written once for publications, monolithic and
//!   segmented proves; the workers run it, and so does the standalone CLI;
//! * a **job queue and worker pool** (`service`) on bounded `crossbeam`
//!   channels applies backpressure (reject-with-busy when full), enforces
//!   per-job deadlines, and isolates worker panics from the service;
//! * a **model-commitment registry** (`registry`) holds published weight
//!   commitments: `CommitModel` jobs pay weight encoding and commitment
//!   once, later prove jobs reference the digest and reuse the encodings,
//!   and verify jobs check proofs against the *published* commitment;
//! * a **metrics layer** (`stats`) tracks jobs, queue depth, cache hit
//!   rate, and prove-latency percentiles as a serializable snapshot.
//!
//! Workers verify every proof they produce before the job completes, so
//! artifacts returned by `JobHandle::wait` are verified artifacts. The
//! `zkml` binary in `zkml-net` (`serve` / `submit` subcommands) fronts this
//! library over HTTP.

mod artifact;
mod cache;
mod error;
mod pipeline;
mod registry;
mod service;
mod stats;

pub use artifact::{decode_public, encode_public};
pub use cache::{pk_matches_circuit, ArtifactCache, ArtifactKey, CacheOutcome};
pub use error::ServiceError;
pub use pipeline::{synthetic_inputs, Pipeline, ProofArtifacts, Stage};
pub use service::{CancelToken, JobKind, JobResult, JobSpec, ProvingService, ServiceConfig};
pub use stats::ServiceStats;
