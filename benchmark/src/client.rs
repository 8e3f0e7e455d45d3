//! The benchmark's HTTP client: one closed-loop caller that submits a job,
//! polls it to a terminal state and downloads the artifacts, the way
//! `zkml submit --wait --dir` does, timing every round trip.

use crate::trace::{spanned, SpanId, Tracer};
use std::time::{Duration, Instant};
use zkml_net::{decode_hex, http_request, Json};
use zkml_plonk::WeightCommitment;

/// Poll period of `GET /v1/jobs/{id}` while a job runs.
const POLL_EVERY: Duration = Duration::from_millis(5);
/// A job that is not terminal after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// A gateway address to talk to.
pub struct Client {
    addr: String,
}

/// A model commitment as published by `POST /v1/models`.
pub struct Published {
    pub digest_hex: String,
    pub commitment: WeightCommitment,
}

/// Client-side timings of one job.
pub struct JobTimes {
    /// `POST /v1/jobs` round trip to the 202.
    pub post_ms: f64,
    /// POST sent → terminal state seen.
    pub job_ms: f64,
    /// Every `GET /v1/jobs/{id}` round trip, the terminal one last.
    pub polls_ms: Vec<f64>,
}

/// The artifacts of a completed prove job, decoded from its status document.
pub struct Artifacts {
    pub k: u32,
    pub bundle: bool,
    pub proof: Vec<u8>,
    pub vk: Vec<u8>,
    pub public: Vec<u8>,
    pub model_digest: Option<String>,
}

impl Client {
    pub fn new(addr: std::net::SocketAddr) -> Self {
        Self {
            addr: addr.to_string(),
        }
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<(u16, Json), String> {
        let resp = http_request(&self.addr, method, path, body)?;
        let json =
            Json::parse(&resp.body).map_err(|e| format!("{method} {path}: bad json: {e}"))?;
        Ok((resp.status, json))
    }

    /// `POST /v1/models`: publishes the model's weight commitment.
    pub fn publish(&self, model: &str) -> Result<Published, String> {
        let body = format!("{{\"model\":\"{model}\"}}");
        let (status, json) = self.request("POST", "/v1/models", Some(&body))?;
        if status != 200 {
            return Err(format!("publish {model}: HTTP {status}"));
        }
        let field = |name: &str| {
            json.get(name)
                .and_then(Json::as_str)
                .ok_or(format!("publish response missing {name}"))
        };
        let commitment = WeightCommitment::from_bytes(&decode_hex(field("commitment_hex")?)?)
            .map_err(|e| format!("published commitment: {e}"))?;
        Ok(Published {
            digest_hex: field("digest")?.to_string(),
            commitment,
        })
    }

    /// `POST /v1/jobs`: returns the job id of the 202.
    pub fn submit(&self, body: &str) -> Result<u64, String> {
        let (status, json) = self.request("POST", "/v1/jobs", Some(body))?;
        if status != 202 {
            return Err(format!("submit: HTTP {status}"));
        }
        json.get("job_id")
            .and_then(Json::as_u64)
            .ok_or("submit response missing job_id".to_string())
    }

    /// `GET /v1/jobs/{id}`: the status document.
    pub fn status(&self, id: u64) -> Result<Json, String> {
        let (status, json) = self.request("GET", &format!("/v1/jobs/{id}"), None)?;
        if status != 200 {
            return Err(format!("status of job {id}: HTTP {status}"));
        }
        Ok(json)
    }

    /// Submits `body`, polls every 5 ms to a terminal state and returns the
    /// final status document (which carries the artifacts) with the timings.
    /// Anything but `completed` is an error.
    pub fn run_job(
        &self,
        body: &str,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
        job: u64,
    ) -> Result<(Json, JobTimes), String> {
        let start = Instant::now();
        let (id, post_ms) = spanned(tracer, "net.http_post", parent, job, |_| self.submit(body));
        let id = id?;
        let mut polls_ms = Vec::new();
        loop {
            let (status, ms) = spanned(tracer, "net.http_get", parent, job, |_| self.status(id));
            let status = status?;
            polls_ms.push(ms);
            match status.get("status").and_then(Json::as_str) {
                Some("completed") => {
                    let job_ms = start.elapsed().as_secs_f64() * 1e3;
                    return Ok((
                        status,
                        JobTimes {
                            post_ms,
                            job_ms,
                            polls_ms,
                        },
                    ));
                }
                Some(state @ ("failed" | "cancelled")) => {
                    let err = status.get("error").and_then(Json::as_str).unwrap_or("");
                    return Err(format!("job {id} {state}: {err}"));
                }
                _ if start.elapsed() > JOB_TIMEOUT => {
                    return Err(format!("job {id} not terminal after {JOB_TIMEOUT:?}"));
                }
                _ => std::thread::sleep(POLL_EVERY),
            }
        }
    }
}

impl Artifacts {
    /// Decodes the hex artifacts of a completed prove job.
    pub fn from_status(status: &Json) -> Result<Self, String> {
        let hex = |name: &str| -> Result<Vec<u8>, String> {
            let h = status
                .get(name)
                .and_then(Json::as_str)
                .ok_or(format!("status missing {name}"))?;
            decode_hex(h).map_err(|e| format!("{name}: {e}"))
        };
        Ok(Self {
            k: status.get("k").and_then(Json::as_u64).unwrap_or(0) as u32,
            bundle: status
                .get("bundle")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            proof: hex("proof_hex")?,
            vk: hex("vk_hex")?,
            public: hex("public_hex")?,
            model_digest: status
                .get("model_digest")
                .and_then(Json::as_str)
                .map(String::from),
        })
    }
}
