//! The durable job journal: an append-only file of JSON-line records that
//! lets a restarted (or crashed) server reconstruct every job's fate.
//!
//! Write-ahead discipline: `submitted` is appended (and fsynced) before the
//! client's 202 is sent, `started` when the proving service has taken the
//! job (offered to it only while a worker is free), and exactly one terminal
//! record (`completed` / `failed` / `cancelled`) after. Replay is therefore
//! simple: a job whose last record is `submitted` was queued but never
//! picked up → re-run it; a job whose last record is `started` was in flight
//! when the process died → fail it deterministically (the submitter can
//! retry); terminal jobs stay terminal. Proof bytes are deliberately not
//! journaled — a replayed job regenerates them from its (model, backend,
//! seed) description.
//!
//! Group commit: an append writes its line under a short lock and takes the
//! line's sequence number, then waits until one `sync_data` covers that
//! number. The first waiter that finds no fsync in flight runs one for every
//! line written so far, outside the lock, while the others wait on a condvar
//! and the next appenders write behind it. Lines land in the file in
//! sequence order, and no append returns before its own line is durable, so
//! replay reads what it always read; concurrent appenders (a handler's
//! `submitted`, the dispatcher's `started` and terminal records) share an
//! fsync instead of queueing behind each other's.
//!
//! A failed fsync or write fails the journal for good: every append it may
//! have covered, and every later one, returns an error. Linux reports a
//! writeback error once per open file and marks the failed pages clean, so
//! a retried fsync can succeed without the lost lines ever reaching disk;
//! no append may take that success for its own.

use crate::admission::Priority;
use crate::json::{decode_hex, encode_hex, escape, Json, JsonObj};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};
use zkml_pcs::Backend;
use zkml_shard::SegmentSpec;

/// A replayable description of what a job does. Verification jobs carry
/// proof payloads too large to journal; they are recorded for bookkeeping
/// but marked non-replayable.
#[derive(Debug, Clone, PartialEq)]
pub enum JobDesc {
    /// Prove one inference of a zoo model (monolithic when `segments` is
    /// `None`, segmented otherwise).
    Prove {
        /// Zoo model name.
        model: String,
        /// Commitment backend.
        backend: Backend,
        /// Input/proof seed.
        seed: u64,
        /// Segmentation request.
        segments: Option<SegmentSpec>,
        /// Published model-commitment digest the prove references, if any.
        /// The commitment registry itself is not durable, so a replayed
        /// digest-referencing job fails deterministically with a
        /// commitment mismatch until the model is republished.
        model_digest: Option<[u8; 32]>,
    },
    /// Occupy a worker (health checks, benches, tests).
    Sleep {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Verify a client-supplied proof. The payload is not journaled, so a
    /// verify job interrupted by a crash is re-failed, never re-run.
    Verify,
}

impl JobDesc {
    /// Short kind tag used on the wire and in the journal.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            JobDesc::Prove {
                segments: Some(_), ..
            } => "prove_segmented",
            JobDesc::Prove { .. } => "prove",
            JobDesc::Sleep { .. } => "sleep",
            JobDesc::Verify => "verify",
        }
    }

    /// Reads a job description from its JSON form — the body of
    /// `POST /v1/jobs` or a `submitted` journal line, which share one
    /// vocabulary and one set of rules. Absent fields take the HTTP defaults:
    /// `kind` is inferred from the presence of `segments`, `backend` is
    /// `kzg`, `seed` is 1, `sleep_ms` is 0 and a `prove_segmented` without
    /// `segments` cuts `auto`. The model name is not resolved here.
    pub fn from_json(v: &Json) -> Result<JobDesc, String> {
        let kind = match v.get("kind") {
            None if v.get("segments").is_some() => "prove_segmented",
            None => "prove",
            Some(k) => k.as_str().ok_or("kind must be a string")?,
        };
        match kind {
            "prove" | "prove_segmented" => {
                let (model, backend) = model_and_backend(v)?;
                let seed = match v.get("seed") {
                    None => 1,
                    Some(s) => s.as_u64().ok_or("seed must be a non-negative integer")?,
                };
                let segments = match v.get("segments") {
                    _ if kind == "prove" => None,
                    None => Some(SegmentSpec::Auto),
                    Some(Json::Str(s)) if s == "auto" => Some(SegmentSpec::Auto),
                    Some(n) => match n.as_u64() {
                        Some(n) if n >= 1 => Some(SegmentSpec::Fixed(n as usize)),
                        _ => return Err("segments must be \"auto\" or a count >= 1".into()),
                    },
                };
                let model_digest = digest_field(v, "model_digest")?;
                if model_digest.is_some() && segments.is_some() {
                    return Err("model_digest is not supported for segmented proves".into());
                }
                Ok(JobDesc::Prove {
                    model,
                    backend,
                    seed,
                    segments,
                    model_digest,
                })
            }
            "sleep" => {
                let ms = match v.get("sleep_ms") {
                    None => 0,
                    Some(s) => s
                        .as_u64()
                        .ok_or("sleep_ms must be a non-negative integer")?,
                };
                if ms > 60_000 {
                    return Err("sleep_ms capped at 60000".into());
                }
                Ok(JobDesc::Sleep { ms })
            }
            "verify" => Ok(JobDesc::Verify),
            other => Err(format!("unknown job kind '{other}'")),
        }
    }

    /// Appends the fields [`JobDesc::from_json`] reads, fully spelled.
    pub fn write_json(&self, obj: JsonObj) -> JsonObj {
        let obj = obj.str("kind", self.kind());
        match self {
            JobDesc::Prove {
                model,
                backend,
                seed,
                segments,
                model_digest,
            } => {
                let obj = obj
                    .str("model", model)
                    .str("backend", backend_str(*backend))
                    .u64("seed", *seed);
                let obj = match segments {
                    Some(SegmentSpec::Auto) => obj.str("segments", "auto"),
                    Some(SegmentSpec::Fixed(n)) => obj.u64("segments", *n as u64),
                    None => obj,
                };
                match model_digest {
                    Some(digest) => obj.str("model_digest", &encode_hex(digest)),
                    None => obj,
                }
            }
            JobDesc::Sleep { ms } => obj.u64("sleep_ms", *ms),
            JobDesc::Verify => obj,
        }
    }
}

/// Reads the `model` name and `backend` (default `kzg`) of a request.
pub(crate) fn model_and_backend(v: &Json) -> Result<(String, Backend), String> {
    let model = v
        .get("model")
        .and_then(Json::as_str)
        .ok_or("a \"model\" is required")?
        .to_string();
    let backend = match v.get("backend").and_then(Json::as_str) {
        None | Some("kzg") => Backend::Kzg,
        Some("ipa") => Backend::Ipa,
        Some(other) => return Err(format!("unknown backend '{other}'")),
    };
    Ok((model, backend))
}

/// Reads an optional 32-byte hex digest field.
pub(crate) fn digest_field(v: &Json, name: &str) -> Result<Option<[u8; 32]>, String> {
    match v.get(name) {
        None => Ok(None),
        Some(d) => {
            let h = d.as_str().ok_or(format!("{name} must be a hex string"))?;
            let bytes = decode_hex(h).map_err(|e| format!("{name}: {e}"))?;
            let digest: [u8; 32] = bytes
                .try_into()
                .map_err(|_| format!("{name} must be 32 bytes"))?;
            Ok(Some(digest))
        }
    }
}

/// Reads who submitted a job and into which lane: `tenant` (default
/// `anonymous`, 1..=64 printable ASCII characters) and `priority` (default
/// `interactive`).
pub(crate) fn tenant_and_priority(v: &Json) -> Result<(String, Priority), String> {
    let tenant = match v.get("tenant") {
        None => "anonymous".to_string(),
        Some(t) => {
            let t = t.as_str().ok_or("tenant must be a string")?;
            if t.is_empty() || t.len() > 64 || !t.chars().all(|c| c.is_ascii_graphic()) {
                return Err("tenant must be 1..=64 printable ascii chars".into());
            }
            t.to_string()
        }
    };
    let priority = match v.get("priority") {
        None => Priority::Interactive,
        Some(p) => p
            .as_str()
            .and_then(Priority::parse)
            .ok_or("priority must be \"interactive\" or \"batch\"")?,
    };
    Ok((tenant, priority))
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was admitted; carries everything needed to re-run it.
    Submitted {
        /// The gateway-assigned job id.
        job: u64,
        /// Submitting tenant.
        tenant: String,
        /// Requested lane.
        priority: Priority,
        /// What the job does.
        desc: JobDesc,
    },
    /// The job entered the proving service.
    Started {
        /// The job id.
        job: u64,
    },
    /// Terminal: the job finished (and, for proofs, verified).
    Completed {
        /// The job id.
        job: u64,
        /// Circuit size exponent (0 for non-proving jobs).
        k: u32,
        /// Segment count (0 for non-proving jobs).
        segments: u32,
        /// Proving wall time (0 for non-proving jobs).
        prove_ms: u64,
    },
    /// Terminal: the job failed.
    Failed {
        /// The job id.
        job: u64,
        /// The failure message.
        error: String,
    },
    /// Terminal: the job was cancelled.
    Cancelled {
        /// The job id.
        job: u64,
    },
}

fn backend_str(b: Backend) -> &'static str {
    match b {
        Backend::Kzg => "kzg",
        Backend::Ipa => "ipa",
    }
}

impl Record {
    /// Renders the record as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Record::Submitted {
                job,
                tenant,
                priority,
                desc,
            } => desc
                .write_json(
                    JsonObj::new()
                        .str("rec", "submitted")
                        .u64("job", *job)
                        .str("tenant", tenant)
                        .str("priority", priority.as_str()),
                )
                .finish(),
            Record::Started { job } => JsonObj::new()
                .str("rec", "started")
                .u64("job", *job)
                .finish(),
            Record::Completed {
                job,
                k,
                segments,
                prove_ms,
            } => JsonObj::new()
                .str("rec", "completed")
                .u64("job", *job)
                .u64("k", u64::from(*k))
                .u64("segments", u64::from(*segments))
                .u64("prove_ms", *prove_ms)
                .finish(),
            Record::Failed { job, error } => JsonObj::new()
                .str("rec", "failed")
                .u64("job", *job)
                .str("error", error)
                .finish(),
            Record::Cancelled { job } => JsonObj::new()
                .str("rec", "cancelled")
                .u64("job", *job)
                .finish(),
        }
    }

    /// Parses one journal line.
    pub fn decode(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let job = v
            .get("job")
            .and_then(Json::as_u64)
            .ok_or("record missing job id")?;
        let rec = v
            .get("rec")
            .and_then(Json::as_str)
            .ok_or("record missing rec tag")?;
        match rec {
            "submitted" => {
                let (tenant, priority) = tenant_and_priority(&v)?;
                Ok(Record::Submitted {
                    job,
                    tenant,
                    priority,
                    desc: JobDesc::from_json(&v)?,
                })
            }
            "started" => Ok(Record::Started { job }),
            "completed" => {
                let count = |name: &str| {
                    v.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("completed record needs an unsigned integer {name}"))
                };
                let small = |name: &str| {
                    u32::try_from(count(name)?)
                        .map_err(|_| format!("completed record {name} exceeds {}", u32::MAX))
                };
                Ok(Record::Completed {
                    job,
                    k: small("k")?,
                    segments: small("segments")?,
                    prove_ms: count("prove_ms")?,
                })
            }
            "failed" => Ok(Record::Failed {
                job,
                error: v
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
            }),
            "cancelled" => Ok(Record::Cancelled { job }),
            other => Err(format!("unknown record '{}'", escape(other))),
        }
    }
}

/// The append side of the journal. Every append returns once an fsync
/// covering its record has finished, so an acknowledged record survives a
/// crash; concurrent appends share that fsync (see the module docs).
pub struct Journal {
    file: File,
    commit: Mutex<Commit>,
    /// Signalled whenever an fsync finishes, successfully or not.
    synced: Condvar,
    /// Runs in place of `sync_data`, so a test can fail an fsync.
    #[cfg(test)]
    fake_sync: Option<fn(&Journal) -> std::io::Result<()>>,
}

/// Group-commit bookkeeping, guarded by `Journal::commit`.
#[derive(Default)]
struct Commit {
    /// Lines written so far; a line's sequence number is this count just
    /// after it was written.
    written: u64,
    /// Every line up to this sequence number is durable.
    durable: u64,
    /// An fsync is running outside the lock.
    syncing: bool,
    /// A write or an fsync failed; no append succeeds from then on.
    failed: bool,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, returning the handle and
    /// every record already present. A torn final line — the signature of a
    /// crash mid-append — is tolerated and dropped; corruption anywhere
    /// else is an error.
    pub fn open(path: &Path) -> std::io::Result<(Journal, Vec<Record>)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut records = Vec::new();
        if path.exists() {
            let reader = BufReader::new(File::open(path)?);
            let lines: Vec<String> = reader.lines().collect::<Result<_, _>>()?;
            let last_nonempty = lines.iter().rposition(|l| !l.trim().is_empty());
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match Record::decode(line) {
                    Ok(rec) => records.push(rec),
                    Err(e) if Some(i) == last_nonempty => {
                        // Torn tail from a crash mid-append; the record was
                        // never acknowledged, so dropping it is safe.
                        eprintln!("journal: dropping torn final record: {e}");
                    }
                    Err(e) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("journal {} line {}: {e}", path.display(), i + 1),
                        ));
                    }
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            Journal {
                file,
                commit: Mutex::default(),
                synced: Condvar::new(),
                #[cfg(test)]
                fake_sync: None,
            },
            records,
        ))
    }

    fn lock(&self) -> MutexGuard<'_, Commit> {
        self.commit
            .lock()
            .expect("no journal appender panics holding the commit lock")
    }

    /// Appends one record durably: writes its line, then returns once a
    /// `sync_data` that began after the write has finished. Fails, and
    /// writes nothing, once the journal has failed (see the module docs).
    pub fn append(&self, record: &Record) -> std::io::Result<()> {
        let mut line = record.encode();
        line.push('\n');
        let mut commit = self.lock();
        if commit.failed {
            return Err(journal_failed());
        }
        if let Err(e) = (&self.file).write_all(line.as_bytes()) {
            // A partial line would tear the journal mid-file.
            commit.failed = true;
            return Err(e);
        }
        commit.written += 1;
        let seq = commit.written;
        while commit.durable < seq {
            if commit.failed {
                return Err(journal_failed());
            }
            if commit.syncing {
                commit = self
                    .synced
                    .wait(commit)
                    .expect("no journal appender panics holding the commit lock");
                continue;
            }
            // No fsync in flight: run one for every line written so far.
            let target = commit.written;
            commit.syncing = true;
            drop(commit);
            let synced = self.sync_data();
            commit = self.lock();
            commit.syncing = false;
            match synced {
                Ok(()) => commit.durable = target,
                // It may have covered any line written before it returned.
                Err(_) => commit.failed = true,
            }
            self.synced.notify_all();
            synced?;
        }
        Ok(())
    }

    fn sync_data(&self) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(fake) = self.fake_sync {
            return fake(self);
        }
        self.file.sync_data()
    }

    /// Forces the journal to disk, metadata included (every append is
    /// already durable; this is the explicit shutdown barrier).
    pub(crate) fn sync(&self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

fn journal_failed() -> std::io::Error {
    std::io::Error::other("journal failed: an earlier write or fsync did not complete")
}

/// A job reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReplayJob {
    /// The job's id (preserved across restarts).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Requested lane.
    pub priority: Priority,
    /// What the job does.
    pub desc: JobDesc,
    /// Where the job stood when the journal ended.
    pub state: ReplayState,
}

/// A job's state at the end of the journal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReplayState {
    /// Submitted but never started: safe to re-run.
    Queued,
    /// Started but no terminal record: the process died with the job in
    /// flight.
    InFlight,
    /// Completed (artifact bytes are not journaled).
    Completed {
        /// Circuit size exponent.
        k: u32,
        /// Segment count.
        segments: u32,
        /// Proving wall time.
        prove_ms: u64,
    },
    /// Failed with the recorded error.
    Failed(String),
    /// Cancelled.
    Cancelled,
}

/// Folds raw records into per-job replay states (in submission order) and
/// the next free job id. Records for unknown job ids (a truncated journal
/// head) are ignored rather than fatal.
pub(crate) fn replay(records: &[Record]) -> (Vec<ReplayJob>, u64) {
    let mut jobs: Vec<ReplayJob> = Vec::new();
    // Job id → position in `jobs` (which keeps submission order).
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut next_id = 1;
    for rec in records {
        match rec {
            Record::Submitted {
                job,
                tenant,
                priority,
                desc,
            } => {
                next_id = next_id.max(job + 1);
                index.entry(*job).or_insert(jobs.len());
                jobs.push(ReplayJob {
                    id: *job,
                    tenant: tenant.clone(),
                    priority: *priority,
                    desc: desc.clone(),
                    state: ReplayState::Queued,
                });
            }
            Record::Started { job } => {
                if let Some(j) = index.get(job).map(|i| &mut jobs[*i]) {
                    if j.state == ReplayState::Queued {
                        j.state = ReplayState::InFlight;
                    }
                }
            }
            Record::Completed {
                job,
                k,
                segments,
                prove_ms,
            } => {
                if let Some(j) = index.get(job).map(|i| &mut jobs[*i]) {
                    j.state = ReplayState::Completed {
                        k: *k,
                        segments: *segments,
                        prove_ms: *prove_ms,
                    };
                }
            }
            Record::Failed { job, error } => {
                if let Some(j) = index.get(job).map(|i| &mut jobs[*i]) {
                    j.state = ReplayState::Failed(error.clone());
                }
            }
            Record::Cancelled { job } => {
                if let Some(j) = index.get(job).map(|i| &mut jobs[*i]) {
                    j.state = ReplayState::Cancelled;
                }
            }
        }
    }
    (jobs, next_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tempfile(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "zkml-journal-test-{tag}-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submitted {
                job: 1,
                tenant: "alice".into(),
                priority: Priority::Interactive,
                desc: JobDesc::Prove {
                    model: "mnist".into(),
                    backend: Backend::Kzg,
                    seed: 7,
                    segments: Some(SegmentSpec::Auto),
                    model_digest: None,
                },
            },
            Record::Submitted {
                job: 2,
                tenant: "bob".into(),
                priority: Priority::Batch,
                desc: JobDesc::Sleep { ms: 5 },
            },
            Record::Started { job: 1 },
            Record::Completed {
                job: 1,
                k: 11,
                segments: 3,
                prove_ms: 1200,
            },
            Record::Submitted {
                job: 3,
                tenant: "alice".into(),
                priority: Priority::Interactive,
                desc: JobDesc::Prove {
                    model: "lenet".into(),
                    backend: Backend::Ipa,
                    seed: 9,
                    segments: None,
                    model_digest: Some([0x5A; 32]),
                },
            },
            Record::Started { job: 3 },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in sample_records() {
            let line = rec.encode();
            assert_eq!(Record::decode(&line).unwrap(), rec, "line: {line}");
        }
    }

    /// Characters that stress the JSON string codec: quotes, backslashes,
    /// control bytes, multi-byte UTF-8 and a supplementary-plane character
    /// (a surrogate pair when escaped), beside plain ASCII.
    const TRICKY: &[char] = &[
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '/', 'e', 'é', '\u{2028}', '😀',
    ];

    fn any_string(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        prop::collection::vec((any::<bool>(), 0..TRICKY.len(), 0x20u8..0x7f), len).prop_map(|cs| {
            cs.into_iter()
                .map(|(tricky, i, b)| if tricky { TRICKY[i] } else { char::from(b) })
                .collect()
        })
    }

    /// A tenant name the gateway accepts: 1..=64 printable ASCII bytes,
    /// `"` and `\\` included.
    fn tenant() -> impl Strategy<Value = String> {
        prop::collection::vec(0x21u8..0x7f, 1..65)
            .prop_map(|bs| bs.into_iter().map(char::from).collect())
    }

    fn job_desc() -> impl Strategy<Value = JobDesc> {
        (
            (0u8..6, any_string(0..12), any::<bool>(), any::<u64>()),
            (1usize..1000, any::<[u8; 32]>(), 0u64..=60_000),
        )
            .prop_map(|((kind, model, ipa, seed), (n, digest, ms))| {
                let backend = if ipa { Backend::Ipa } else { Backend::Kzg };
                let prove = |segments, model_digest| JobDesc::Prove {
                    model: model.clone(),
                    backend,
                    seed,
                    segments,
                    model_digest,
                };
                match kind {
                    0 => prove(None, None),
                    1 => prove(None, Some(digest)),
                    2 => prove(Some(SegmentSpec::Fixed(n)), None),
                    3 => prove(Some(SegmentSpec::Auto), None),
                    4 => JobDesc::Sleep { ms },
                    _ => JobDesc::Verify,
                }
            })
    }

    fn record() -> impl Strategy<Value = Record> {
        (
            (0u8..5, any::<u64>(), tenant(), any::<bool>()),
            job_desc(),
            (any::<u32>(), any::<u32>(), any::<u64>()),
            any_string(0..40),
        )
            .prop_map(
                |((tag, job, tenant, batch), desc, (k, segments, prove_ms), error)| match tag {
                    0 => Record::Submitted {
                        job,
                        tenant,
                        priority: if batch {
                            Priority::Batch
                        } else {
                            Priority::Interactive
                        },
                        desc,
                    },
                    1 => Record::Started { job },
                    2 => Record::Completed {
                        job,
                        k,
                        segments,
                        prove_ms,
                    },
                    3 => Record::Failed { job, error },
                    _ => Record::Cancelled { job },
                },
            )
    }

    /// A count field that is not a count of its type.
    #[derive(Clone, Debug)]
    enum BadCount {
        /// Its type's maximum plus one plus this.
        Above(u64),
        /// Negative, fractional, or not a number.
        Other(String),
        Missing,
    }

    fn bad_count() -> impl Strategy<Value = BadCount> {
        const OTHER: &[&str] = &["1.5", "0.0", "1e3", "\"7\"", "null", "true", "[1]", "{}"];
        (0u8..4, any::<u64>(), 1..=i64::MAX, 0..OTHER.len()).prop_map(
            |(kind, excess, negative, other)| match kind {
                0 => BadCount::Above(excess),
                1 => BadCount::Other(format!("-{negative}")),
                2 => BadCount::Other(OTHER[other].to_string()),
                _ => BadCount::Missing,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every record the gateway can write reads back as itself.
        #[test]
        fn generated_records_round_trip(rec in record()) {
            let line = rec.encode();
            prop_assert!(!line.contains('\n'), "a record must stay on one line: {line}");
            prop_assert_eq!(Record::decode(&line).map_err(|e| format!("{e}: {line}")), Ok(rec));
        }

        /// A `completed` line whose `k`, `segments` or `prove_ms` is missing,
        /// outside its type or not an unsigned integer is refused, never
        /// read as some other number.
        #[test]
        fn completed_counts_out_of_range_or_missing_are_refused(
            job in any::<u64>(),
            counts in (any::<u32>(), any::<u32>(), any::<u64>()),
            field in 0usize..3,
            bad in bad_count(),
        ) {
            let mut values = [
                counts.0.to_string(),
                counts.1.to_string(),
                counts.2.to_string(),
            ];
            let names = ["k", "segments", "prove_ms"];
            let bad = match bad {
                // Above u32 for `k` and `segments`, above u64 for `prove_ms`.
                BadCount::Above(excess) if field < 2 => {
                    Some((u128::from(u32::MAX) + 1 + u128::from(excess)).to_string())
                }
                BadCount::Above(excess) => {
                    Some((u128::from(u64::MAX) + 1 + u128::from(excess)).to_string())
                }
                BadCount::Other(text) => Some(text),
                BadCount::Missing => None,
            };
            let mut line = format!("{{\"rec\":\"completed\",\"job\":{job}");
            for (i, name) in names.iter().enumerate() {
                let value = if i == field { bad.clone() } else { Some(std::mem::take(&mut values[i])) };
                if let Some(value) = value {
                    line.push_str(&format!(",\"{name}\":{value}"));
                }
            }
            line.push('}');
            prop_assert!(Record::decode(&line).is_err(), "accepted: {}", line);
        }

        /// Journal lines are untrusted bytes: no string panics the decoder.
        #[test]
        fn arbitrary_lines_never_panic(line in any_string(0..64)) {
            let _ = Record::decode(&line);
        }

        /// Nor does any cut or one-byte corruption of a valid line.
        #[test]
        fn damaged_lines_never_panic(rec in record(), at in any::<usize>(), b in 0x20u8..0x7f) {
            let line = rec.encode();
            let mut cut = at % (line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            let _ = Record::decode(&line[..cut]);
            let mut damaged = line.clone().into_bytes();
            damaged[at % line.len()] = b;
            let _ = Record::decode(&String::from_utf8_lossy(&damaged));
        }
    }

    #[test]
    fn replay_states() {
        let (jobs, next_id) = replay(&sample_records());
        assert_eq!(next_id, 4);
        assert_eq!(jobs.len(), 3);
        assert_eq!(
            jobs[0].state,
            ReplayState::Completed {
                k: 11,
                segments: 3,
                prove_ms: 1200
            }
        );
        assert_eq!(jobs[1].state, ReplayState::Queued, "never started");
        assert_eq!(jobs[2].state, ReplayState::InFlight, "started, no terminal");
    }

    /// Replay looks a record's job up by id, not by scanning the jobs before
    /// it: a long journal replays in time linear in its length.
    #[test]
    fn replay_of_a_long_journal_is_linear() {
        const JOBS: u64 = 100_000;
        let records: Vec<Record> = (1..=JOBS)
            .flat_map(|job| {
                [
                    Record::Submitted {
                        job,
                        tenant: "t".into(),
                        priority: Priority::Batch,
                        desc: JobDesc::Sleep { ms: 0 },
                    },
                    Record::Started { job },
                    Record::Completed {
                        job,
                        k: 0,
                        segments: 0,
                        prove_ms: 0,
                    },
                ]
            })
            .collect();
        let start = std::time::Instant::now();
        let (jobs, next_id) = replay(&records);
        assert!(start.elapsed().as_secs() < 5, "{:?}", start.elapsed());
        assert_eq!(next_id, JOBS + 1);
        assert_eq!(jobs.len() as u64, JOBS);
        assert!(jobs
            .iter()
            .all(|j| matches!(j.state, ReplayState::Completed { .. })));
    }

    #[test]
    fn journal_survives_reopen_and_torn_tail() {
        let path = tempfile("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (journal, existing) = Journal::open(&path).unwrap();
            assert!(existing.is_empty());
            for rec in sample_records() {
                journal.append(&rec).unwrap();
            }
        }
        // Simulate a crash mid-append: a torn, unparseable final line.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"rec\":\"submitted\",\"job\":4,\"ten")
                .unwrap();
        }
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records, sample_records(), "torn tail dropped, rest intact");
        let _ = std::fs::remove_file(&path);
    }

    /// A `completed` line with an out-of-range count is damage like any
    /// other: dropped as a torn tail, refused anywhere else.
    #[test]
    fn out_of_range_completed_line_is_damage() {
        let path = tempfile("range");
        let bad = r#"{"rec":"completed","job":1,"k":4294967306,"segments":1,"prove_ms":5}"#;
        let good = Record::Started { job: 1 }.encode();
        std::fs::write(&path, format!("{good}\n{bad}\n")).unwrap();
        let (_, records) = Journal::open(&path).unwrap();
        assert_eq!(records, vec![Record::Started { job: 1 }]);
        std::fs::write(&path, format!("{bad}\n{good}\n")).unwrap();
        assert!(Journal::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// Concurrent appends share fsyncs but lose, duplicate and reorder
    /// nothing: after 8 threads × 200 appends released together by a
    /// barrier, a reopen replays all 1 600 records exactly once, each
    /// thread's in the order it appended them.
    #[test]
    fn concurrent_appends_replay_exactly_once_in_order() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 200;
        let path = tempfile("group");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path).unwrap();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (journal, start) = (&journal, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        journal
                            .append(&Record::Started { job: t << 32 | i })
                            .unwrap();
                    }
                });
            }
        });
        drop(journal);
        let (_, records) = Journal::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(records.len() as u64, THREADS * PER_THREAD);
        let mut next = [0u64; THREADS as usize];
        for rec in records {
            let Record::Started { job } = rec else {
                panic!("unexpected record {rec:?}");
            };
            let (t, i) = ((job >> 32) as usize, job & 0xffff_ffff);
            assert_eq!(i, next[t], "thread {t}'s records out of order");
            next[t] += 1;
        }
        assert!(next.iter().all(|&n| n == PER_THREAD));
    }

    /// A failed fsync fails every append whose line it covered, although
    /// none of them ran it but one, and fails every later append without
    /// writing it; an append made durable before the failure stays good.
    #[test]
    fn a_failed_fsync_fails_every_append_it_covered() {
        const THREADS: u64 = 4;
        static FAKE_SYNCS: AtomicUsize = AtomicUsize::new(0);
        /// Fails the first fsync once the first line and all `THREADS`
        /// concurrent lines are written, so it covers every concurrent
        /// append. A later fsync succeeds, as Linux's would after it has
        /// reported the writeback error once.
        fn fail_when_all_written(journal: &Journal) -> std::io::Result<()> {
            if FAKE_SYNCS.fetch_add(1, Ordering::SeqCst) > 0 {
                return journal.file.sync_data();
            }
            while journal.lock().written < 1 + THREADS {
                std::thread::yield_now();
            }
            Err(std::io::Error::other("injected fsync failure"))
        }
        let path = tempfile("failed-sync");
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(&Record::Started { job: 0 }).unwrap();
        journal.fake_sync = Some(fail_when_all_written);
        let start = std::sync::Barrier::new(THREADS as usize);
        let results: Vec<_> = std::thread::scope(|s| {
            let appenders: Vec<_> = (1..=THREADS)
                .map(|job| {
                    let (journal, start) = (&journal, &start);
                    s.spawn(move || {
                        start.wait();
                        journal.append(&Record::Started { job })
                    })
                })
                .collect();
            appenders.into_iter().map(|a| a.join().unwrap()).collect()
        });
        assert_eq!(FAKE_SYNCS.load(Ordering::SeqCst), 1, "nobody retried");
        assert!(results.iter().all(Result::is_err), "{results:?}");
        assert!(journal.append(&Record::Started { job: 99 }).is_err());
        drop(journal);
        let (_, records) = Journal::open(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(records.len() as u64, 1 + THREADS, "nothing written after");
        assert_eq!(records[0], Record::Started { job: 0 });
    }

    #[test]
    fn corruption_mid_journal_is_fatal() {
        let path = tempfile("corrupt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "garbage line\n{\"rec\":\"started\",\"job\":1}\n").unwrap();
        assert!(Journal::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
