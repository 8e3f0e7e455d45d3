//! Tenant-aware admission control in front of the proving service's
//! bounded queue: per-tenant token-bucket rate limits, per-tenant in-flight
//! quotas, and two priority lanes (interactive vs batch) drained by
//! weighted round-robin. Rejections here are pure backpressure — the HTTP
//! front end maps them to 429 with a `Retry-After` hint, and the CLI to a
//! distinct "retry later" exit code.

use crate::json::JsonObj;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which lane a job is queued on. Interactive jobs are dequeued with a
/// higher weight than batch jobs, so a batch backlog cannot starve
/// latency-sensitive submitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive lane (default).
    Interactive,
    /// Throughput lane; drained at the lower weight.
    Batch,
}

impl Priority {
    /// Parses the wire name.
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// Per-tenant admission policy.
#[derive(Debug, Clone, Copy)]
pub struct TenantPolicy {
    /// Token-bucket refill rate: sustained submissions per second.
    pub rate_per_s: f64,
    /// Token-bucket capacity: tolerated submission burst.
    pub burst: f64,
    /// Maximum jobs a tenant may have admitted-but-not-terminal at once.
    pub max_in_flight: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            rate_per_s: 50.0,
            burst: 100.0,
            max_in_flight: 32,
        }
    }
}

/// Admission-layer configuration.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Policy applied to tenants without an override.
    pub default_policy: TenantPolicy,
    /// Per-tenant policy overrides, by tenant name.
    pub overrides: Vec<(String, TenantPolicy)>,
    /// Interactive-lane weight in the round-robin dispatch pattern.
    pub interactive_weight: usize,
    /// Batch-lane weight in the round-robin dispatch pattern.
    pub batch_weight: usize,
    /// Bound on each lane; submissions beyond it are rejected busy.
    pub lane_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            default_policy: TenantPolicy::default(),
            overrides: Vec::new(),
            interactive_weight: 3,
            batch_weight: 1,
            lane_capacity: 256,
        }
    }
}

/// Why a submission was not admitted. All variants are retryable
/// backpressure, never a statement about the job itself.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The tenant's token bucket is empty.
    RateLimited {
        /// Time until one token will have refilled.
        retry_after: Duration,
    },
    /// The tenant is at its in-flight quota.
    QuotaExceeded {
        /// Jobs currently in flight for the tenant.
        in_flight: usize,
        /// The configured quota.
        limit: usize,
    },
    /// The target lane is full (server-wide backpressure).
    LaneFull {
        /// The configured per-lane capacity.
        capacity: usize,
    },
}

impl AdmitError {
    /// A conservative retry hint for the `Retry-After` header.
    pub(crate) fn retry_after(&self) -> Duration {
        match self {
            AdmitError::RateLimited { retry_after } => *retry_after,
            // Quota and lane pressure clear when a job finishes; one second
            // is a sane poll interval against a proving service.
            AdmitError::QuotaExceeded { .. } | AdmitError::LaneFull { .. } => {
                Duration::from_secs(1)
            }
        }
    }
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::RateLimited { retry_after } => {
                write!(f, "rate limited (retry in {retry_after:?})")
            }
            AdmitError::QuotaExceeded { in_flight, limit } => {
                write!(f, "in-flight quota exceeded ({in_flight}/{limit})")
            }
            AdmitError::LaneFull { capacity } => {
                write!(f, "queue lane full ({capacity} waiting)")
            }
        }
    }
}

/// How an admitted job left the system (for the per-tenant counters).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReleaseOutcome {
    /// The job completed successfully.
    Completed,
    /// The job failed.
    Failed,
    /// The job was cancelled.
    Cancelled,
}

/// Per-tenant counters surfaced in `/v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TenantCounters {
    /// Submissions seen (admitted + rejected).
    pub submitted: u64,
    /// Submissions admitted into a lane.
    pub admitted: u64,
    /// Rejections by the token bucket.
    pub rejected_rate: u64,
    /// Rejections by the in-flight quota.
    pub rejected_quota: u64,
    /// Rejections because the lane was full.
    pub rejected_busy: u64,
    /// Admitted jobs that completed.
    pub completed: u64,
    /// Admitted jobs that failed.
    pub failed: u64,
    /// Admitted jobs that were cancelled.
    pub cancelled: u64,
    /// Jobs currently admitted but not yet terminal.
    pub in_flight: u64,
}

struct TenantState {
    policy: TenantPolicy,
    tokens: f64,
    refilled: Instant,
    counters: TenantCounters,
}

/// The admission layer: one token bucket + quota + counter block per
/// tenant, created lazily on first submission.
pub struct Admission {
    default_policy: TenantPolicy,
    overrides: Vec<(String, TenantPolicy)>,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl Admission {
    /// Builds the layer from its policy configuration (the lane weights and
    /// capacity in [`AdmissionConfig`] are enforced by the gateway's
    /// dispatcher, not here).
    pub fn new(cfg: &AdmissionConfig) -> Self {
        Self {
            default_policy: cfg.default_policy,
            overrides: cfg.overrides.clone(),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn policy_for(&self, tenant: &str) -> TenantPolicy {
        self.overrides
            .iter()
            .find(|(name, _)| name == tenant)
            .map(|(_, p)| *p)
            .unwrap_or(self.default_policy)
    }

    fn with_state<R>(&self, tenant: &str, f: impl FnOnce(&mut TenantState) -> R) -> R {
        let mut tenants = self.tenants.lock().unwrap();
        let state = tenants.entry(tenant.to_string()).or_insert_with(|| {
            let policy = self.policy_for(tenant);
            TenantState {
                policy,
                tokens: policy.burst,
                refilled: Instant::now(),
                counters: TenantCounters::default(),
            }
        });
        f(state)
    }

    /// Admits one submission for `tenant`: charges a token and claims an
    /// in-flight slot, or rejects with the reason. Quota is checked before
    /// the bucket so a quota-rejected burst does not also drain tokens.
    pub fn admit(&self, tenant: &str) -> Result<(), AdmitError> {
        self.with_state(tenant, |s| {
            s.counters.submitted += 1;
            // Refill the bucket for the elapsed wall time.
            let now = Instant::now();
            let elapsed = now.duration_since(s.refilled).as_secs_f64();
            s.tokens = (s.tokens + elapsed * s.policy.rate_per_s).min(s.policy.burst);
            s.refilled = now;

            if s.counters.in_flight >= s.policy.max_in_flight as u64 {
                s.counters.rejected_quota += 1;
                return Err(AdmitError::QuotaExceeded {
                    in_flight: s.counters.in_flight as usize,
                    limit: s.policy.max_in_flight,
                });
            }
            if s.tokens < 1.0 {
                s.counters.rejected_rate += 1;
                let deficit = 1.0 - s.tokens;
                let retry_after = if s.policy.rate_per_s > 0.0 {
                    Duration::from_secs_f64(deficit / s.policy.rate_per_s)
                } else {
                    Duration::from_secs(60)
                };
                return Err(AdmitError::RateLimited { retry_after });
            }
            s.tokens -= 1.0;
            s.counters.admitted += 1;
            s.counters.in_flight += 1;
            Ok(())
        })
    }

    /// Records a lane-full rejection (the gateway checks lane bounds; the
    /// admitted token and slot are refunded since the job never queued).
    pub(crate) fn refund_lane_full(&self, tenant: &str) {
        self.with_state(tenant, |s| {
            s.counters.admitted = s.counters.admitted.saturating_sub(1);
            s.counters.in_flight = s.counters.in_flight.saturating_sub(1);
            s.counters.rejected_busy += 1;
            s.tokens = (s.tokens + 1.0).min(s.policy.burst);
        });
    }

    /// Releases an admitted job's in-flight slot with its outcome.
    pub(crate) fn release(&self, tenant: &str, outcome: ReleaseOutcome) {
        self.with_state(tenant, |s| {
            s.counters.in_flight = s.counters.in_flight.saturating_sub(1);
            match outcome {
                ReleaseOutcome::Completed => s.counters.completed += 1,
                ReleaseOutcome::Failed => s.counters.failed += 1,
                ReleaseOutcome::Cancelled => s.counters.cancelled += 1,
            }
        });
    }

    /// Re-claims an in-flight slot without charging a token: used when the
    /// journal replays still-queued jobs at startup, so quotas keep holding
    /// across a restart.
    pub(crate) fn restore(&self, tenant: &str) {
        self.with_state(tenant, |s| {
            s.counters.submitted += 1;
            s.counters.admitted += 1;
            s.counters.in_flight += 1;
        });
    }

    /// The per-tenant counters as a JSON object keyed by tenant name,
    /// sorted for deterministic output.
    pub(crate) fn tenants_json(&self) -> String {
        let tenants = self.tenants.lock().unwrap();
        let mut names: Vec<&String> = tenants.keys().collect();
        names.sort();
        let mut obj = JsonObj::new();
        for name in names {
            let c = tenants[name].counters;
            let inner = JsonObj::new()
                .u64("submitted", c.submitted)
                .u64("admitted", c.admitted)
                .u64("rejected_rate", c.rejected_rate)
                .u64("rejected_quota", c.rejected_quota)
                .u64("rejected_busy", c.rejected_busy)
                .u64("completed", c.completed)
                .u64("failed", c.failed)
                .u64("cancelled", c.cancelled)
                .u64("in_flight", c.in_flight)
                .finish();
            obj = obj.raw(name, &inner);
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Admission {
        /// A copy of one tenant's counters.
        fn counters(&self, tenant: &str) -> Option<TenantCounters> {
            self.tenants.lock().unwrap().get(tenant).map(|s| s.counters)
        }
    }

    fn cfg(rate: f64, burst: f64, quota: usize) -> AdmissionConfig {
        AdmissionConfig {
            default_policy: TenantPolicy {
                rate_per_s: rate,
                burst,
                max_in_flight: quota,
            },
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn burst_then_rate_limit() {
        // Effectively no refill during the test.
        let adm = Admission::new(&cfg(0.001, 2.0, 100));
        assert!(adm.admit("a").is_ok());
        assert!(adm.admit("a").is_ok());
        match adm.admit("a") {
            Err(AdmitError::RateLimited { retry_after }) => {
                assert!(retry_after > Duration::from_secs(60))
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        let c = adm.counters("a").unwrap();
        assert_eq!((c.admitted, c.rejected_rate, c.in_flight), (2, 1, 2));
    }

    #[test]
    fn buckets_are_per_tenant() {
        let adm = Admission::new(&cfg(0.001, 1.0, 100));
        assert!(adm.admit("a").is_ok());
        assert!(adm.admit("a").is_err());
        assert!(adm.admit("b").is_ok(), "tenant b has its own bucket");
    }

    #[test]
    fn quota_blocks_before_bucket() {
        let adm = Admission::new(&cfg(1000.0, 1000.0, 2));
        assert!(adm.admit("a").is_ok());
        assert!(adm.admit("a").is_ok());
        match adm.admit("a") {
            Err(AdmitError::QuotaExceeded { in_flight, limit }) => {
                assert_eq!((in_flight, limit), (2, 2))
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Releasing one frees a slot.
        adm.release("a", ReleaseOutcome::Completed);
        assert!(adm.admit("a").is_ok());
        let c = adm.counters("a").unwrap();
        assert_eq!(c.completed, 1);
        assert_eq!(c.rejected_quota, 1);
        assert_eq!(c.in_flight, 2);
    }

    #[test]
    fn override_applies_to_named_tenant() {
        let mut config = cfg(1000.0, 1000.0, 100);
        config.overrides.push((
            "throttled".to_string(),
            TenantPolicy {
                rate_per_s: 0.001,
                burst: 1.0,
                max_in_flight: 100,
            },
        ));
        let adm = Admission::new(&config);
        assert!(adm.admit("throttled").is_ok());
        assert!(adm.admit("throttled").is_err());
        assert!(adm.admit("other").is_ok());
        assert!(adm.admit("other").is_ok());
    }

    #[test]
    fn refund_undoes_admission() {
        let adm = Admission::new(&cfg(0.001, 1.0, 100));
        assert!(adm.admit("a").is_ok());
        adm.refund_lane_full("a");
        // The token came back, so the next submit is admitted again.
        assert!(adm.admit("a").is_ok());
        let c = adm.counters("a").unwrap();
        assert_eq!(c.rejected_busy, 1);
        assert_eq!(c.in_flight, 1);
    }

    #[test]
    fn json_snapshot_is_sorted_and_parseable() {
        let adm = Admission::new(&cfg(1000.0, 1000.0, 100));
        adm.admit("beta").unwrap();
        adm.admit("alpha").unwrap();
        let json = adm.tenants_json();
        let v = crate::json::Json::parse(&json).unwrap();
        match &v {
            crate::json::Json::Obj(fields) => {
                assert_eq!(fields[0].0, "alpha");
                assert_eq!(fields[1].0, "beta");
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(
            v.get("alpha").unwrap().get("in_flight").unwrap().as_u64(),
            Some(1)
        );
    }
}
