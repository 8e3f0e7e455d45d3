//! Service metrics: lock-free counters updated by workers, plus a
//! serializable point-in-time snapshot for operators and the CLI.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared between the service, its workers, and observers.
///
/// Counters are monotonically increasing except `queue_depth`, which is a
/// gauge the service refreshes on submission and completion. Prove and
/// verify latencies are kept in full (one `u64` of milliseconds per proof
/// or bundle) so percentiles are exact rather than estimated; a proving
/// service completes jobs at a rate where this stays small.
#[derive(Default)]
pub struct ServiceStats {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_rejected_busy: AtomicU64,
    jobs_rejected_commitment: AtomicU64,
    jobs_timed_out: AtomicU64,
    jobs_cancelled: AtomicU64,
    worker_panics: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    layout_sweeps: AtomicU64,
    plan_hits: AtomicU64,
    determinism_checks: AtomicU64,
    proofs_verified: AtomicU64,
    verify_failures: AtomicU64,
    queue_depth: AtomicU64,
    prove_latencies_ms: Mutex<Vec<u64>>,
    verify_latencies_ms: Mutex<Vec<u64>>,
}

impl ServiceStats {
    /// Creates zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_failed(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_rejected_busy(&self) {
        self.jobs_rejected_busy.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_rejected_commitment(&self) {
        self.jobs_rejected_commitment
            .fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_timed_out(&self) {
        self.jobs_timed_out.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_layout(&self, memo_hit: bool) {
        let counter = if memo_hit {
            &self.plan_hits
        } else {
            &self.layout_sweeps
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_determinism_check(&self) {
        self.determinism_checks.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_verified(&self, ok: u64, failed: u64) {
        self.proofs_verified.fetch_add(ok, Ordering::Relaxed);
        self.verify_failures.fetch_add(failed, Ordering::Relaxed);
    }
    pub(crate) fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }
    pub(crate) fn record_prove_latency_ms(&self, ms: u64) {
        self.prove_latencies_ms.lock().push(ms);
    }
    pub(crate) fn record_verify_latency_ms(&self, ms: u64) {
        self.verify_latencies_ms.lock().push(ms);
    }

    /// Captures a consistent-enough snapshot of every metric. Individual
    /// counters are read independently (Relaxed), which is the usual
    /// contract for metrics: totals may be skewed by in-flight jobs but
    /// never corrupt.
    pub fn snapshot(&self) -> StatsSnapshot {
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let lat = self.prove_latencies_ms.lock().clone();
        let verify_lat = self.verify_latencies_ms.lock().clone();
        let par = zkml_par::global().metrics();
        StatsSnapshot {
            threads: par.threads as u64,
            par_tasks_executed: par.tasks_executed,
            par_steals: par.steals,
            par_busy_fraction: par.busy_fraction(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected_busy: self.jobs_rejected_busy.load(Ordering::Relaxed),
            jobs_rejected_commitment: self.jobs_rejected_commitment.load(Ordering::Relaxed),
            jobs_timed_out: self.jobs_timed_out.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            layout_sweeps: self.layout_sweeps.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            determinism_checks: self.determinism_checks.load(Ordering::Relaxed),
            proofs_verified: self.proofs_verified.load(Ordering::Relaxed),
            verify_failures: self.verify_failures.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            prove_p50_ms: percentile(&lat, 50),
            prove_p95_ms: percentile(&lat, 95),
            verify_p50_ms: percentile(&verify_lat, 50),
            verify_p95_ms: percentile(&verify_lat, 95),
        }
    }
}

/// Nearest-rank percentile over raw millisecond samples; 0 when empty.
fn percentile(samples: &[u64], pct: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// A point-in-time view of [`ServiceStats`], serializable for operators.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Threads in the shared `zkml-par` pool (the intra-proof parallelism
    /// budget; also caps the number of service workers).
    pub threads: u64,
    /// Tasks executed on the shared pool since startup.
    pub par_tasks_executed: u64,
    /// Successful work steals between pool workers.
    pub par_steals: u64,
    /// Fraction of pool thread-time spent inside tasks (may slightly exceed
    /// 1.0 because blocked callers help execute tasks).
    pub par_busy_fraction: f64,
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs that finished successfully.
    pub jobs_completed: u64,
    /// Jobs that finished with an error (including timeouts and panics).
    pub jobs_failed: u64,
    /// Submissions rejected because the queue was full.
    pub jobs_rejected_busy: u64,
    /// Jobs rejected for referencing a model commitment that did not match
    /// (unknown digest, tampered weights, or a foreign commitment).
    pub jobs_rejected_commitment: u64,
    /// Jobs abandoned for missing their deadline.
    pub jobs_timed_out: u64,
    /// Jobs cancelled by their submitter before finishing.
    pub jobs_cancelled: u64,
    /// Worker panics survived (a subset of `jobs_failed`).
    pub worker_panics: u64,
    /// Artifact-cache hits (memory or disk; keygen skipped).
    pub cache_hits: u64,
    /// Artifact-cache misses (keygen ran).
    pub cache_misses: u64,
    /// `hits / (hits + misses)`, 0 when the cache is untouched.
    pub cache_hit_rate: f64,
    /// Layout sweeps run: jobs whose (architecture, backend, `max_k`,
    /// numerics, segment spec) had no memoized layout in this process.
    pub layout_sweeps: u64,
    /// Jobs that compiled under a memoized layout (no sweep).
    pub plan_hits: u64,
    /// Static-analyzer runs: circuits (one per segment) this process had not
    /// yet cleared for the job's model, including runs that found the
    /// circuit underconstrained.
    pub determinism_checks: u64,
    /// Proofs that passed verification.
    pub proofs_verified: u64,
    /// Proofs that failed verification.
    pub verify_failures: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Median end-to-end prove latency in milliseconds.
    pub prove_p50_ms: u64,
    /// 95th-percentile prove latency in milliseconds.
    pub prove_p95_ms: u64,
    /// Median verification latency in milliseconds: one proof, or one
    /// bundle with its batched pairing, whether verified after proving or
    /// as a verify job.
    pub verify_p50_ms: u64,
    /// 95th-percentile verification latency in milliseconds.
    pub verify_p95_ms: u64,
}

impl StatsSnapshot {
    /// Renders the snapshot as a single JSON object. Hand-rolled (every
    /// field is a number) so the service has no serialization dependency.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"threads\":{},\"par_tasks_executed\":{},\"par_steals\":{},",
                "\"par_busy_fraction\":{:.4},",
                "\"jobs_submitted\":{},\"jobs_completed\":{},\"jobs_failed\":{},",
                "\"jobs_rejected_busy\":{},\"jobs_rejected_commitment\":{},",
                "\"jobs_timed_out\":{},\"jobs_cancelled\":{},",
                "\"worker_panics\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4},",
                "\"layout_sweeps\":{},\"plan_hits\":{},\"determinism_checks\":{},",
                "\"proofs_verified\":{},\"verify_failures\":{},\"queue_depth\":{},",
                "\"prove_p50_ms\":{},\"prove_p95_ms\":{},",
                "\"verify_p50_ms\":{},\"verify_p95_ms\":{}}}"
            ),
            self.threads,
            self.par_tasks_executed,
            self.par_steals,
            self.par_busy_fraction,
            self.jobs_submitted,
            self.jobs_completed,
            self.jobs_failed,
            self.jobs_rejected_busy,
            self.jobs_rejected_commitment,
            self.jobs_timed_out,
            self.jobs_cancelled,
            self.worker_panics,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate,
            self.layout_sweeps,
            self.plan_hits,
            self.determinism_checks,
            self.proofs_verified,
            self.verify_failures,
            self.queue_depth,
            self.prove_p50_ms,
            self.prove_p95_ms,
            self.verify_p50_ms,
            self.verify_p95_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 95), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        // Order-independent.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 95), 95);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let s = ServiceStats::new();
        s.record_submitted();
        s.record_submitted();
        s.record_completed();
        s.record_cache_miss();
        s.record_cache_hit();
        s.record_cache_hit();
        s.record_layout(false);
        s.record_layout(true);
        s.record_layout(true);
        s.record_determinism_check();
        s.record_prove_latency_ms(10);
        s.record_prove_latency_ms(30);
        for ms in [4, 9, 2] {
            s.record_verify_latency_ms(ms);
        }
        s.set_queue_depth(1);
        let snap = s.snapshot();
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.cache_hits, 2);
        assert_eq!(snap.cache_misses, 1);
        assert!((snap.cache_hit_rate - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(
            (snap.layout_sweeps, snap.plan_hits, snap.determinism_checks),
            (1, 2, 1)
        );
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.prove_p50_ms, 10);
        assert_eq!(snap.prove_p95_ms, 30);
        assert_eq!((snap.verify_p50_ms, snap.verify_p95_ms), (4, 9));
    }

    #[test]
    fn json_is_well_formed() {
        let snap = ServiceStats::new().snapshot();
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), 1);
        for key in [
            "threads",
            "par_tasks_executed",
            "par_steals",
            "par_busy_fraction",
            "jobs_submitted",
            "jobs_rejected_commitment",
            "cache_hit_rate",
            "layout_sweeps",
            "plan_hits",
            "determinism_checks",
            "prove_p50_ms",
            "prove_p95_ms",
            "verify_p50_ms",
            "verify_p95_ms",
            "queue_depth",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }

    #[test]
    fn snapshot_reports_pool_threads() {
        let snap = ServiceStats::new().snapshot();
        assert!(snap.threads >= 1);
        assert!(snap.par_busy_fraction >= 0.0);
    }
}
