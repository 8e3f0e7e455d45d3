//! zkml-net: an HTTP/JSON front end for the proving service.
//!
//! A std-only threaded HTTP/1.1 server — no async runtime, hand-rolled
//! parsing — and the repo's only serving surface, exposing:
//!
//! * `POST /v1/jobs` — submit a prove / segmented-prove / verify job,
//! * `GET /v1/jobs/{id}` — poll status and fetch hex-encoded artifacts,
//! * `DELETE /v1/jobs/{id}` — cancel (cooperative, stage-boundary),
//! * `GET /v1/stats` — service snapshot plus per-tenant counters,
//! * `GET /v1/healthz` — liveness.
//!
//! Three mechanisms distinguish it from a plain wrapper:
//!
//! * a **durable job journal** (`journal`): every submission, start, and
//!   terminal outcome is a fsync'd JSON line; on startup the journal is
//!   replayed so queued jobs re-run and jobs interrupted mid-flight are
//!   deterministically failed — no job is lost and none completes twice;
//! * **tenant-aware admission** (`admission`): per-tenant token buckets
//!   and in-flight quotas in front of the service's bounded queue, with
//!   rejections mapped to HTTP 429 + `Retry-After`;
//! * **priority lanes** (`gateway`): interactive and batch submissions
//!   queue separately and are drained by weighted round-robin, so bulk
//!   batch work cannot starve interactive callers.

mod admission;
mod client;
mod gateway;
mod http;
mod journal;
mod json;

pub use admission::{Admission, AdmissionConfig, Priority, TenantPolicy};
pub use client::{http_request, HttpResponse};
pub use gateway::{Gateway, GatewayConfig};
pub use journal::{JobDesc, Journal, Record};
pub use json::{decode_hex, encode_hex, Json, JsonObj};
