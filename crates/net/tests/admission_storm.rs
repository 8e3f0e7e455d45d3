//! Concurrent multi-tenant admission tests: a submit storm against tight
//! rate limits, quota enforcement under concurrency, and priority-lane
//! dequeue ordering observed through the journal.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use zkml_net::{http_request, AdmissionConfig, Gateway, GatewayConfig, Json, Record, TenantPolicy};
use zkml_service::ServiceConfig;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkml-net-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submit(addr: &str, body: &str) -> u16 {
    http_request(addr, "POST", "/v1/jobs", Some(body))
        .expect("post /v1/jobs")
        .status
}

fn tenant_counter(stats: &Json, tenant: &str, field: &str) -> u64 {
    stats
        .get("tenants")
        .and_then(|t| t.get(tenant))
        .and_then(|t| t.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing counter {tenant}.{field}"))
}

/// Sixteen client threads storm two tenants. The burst-limited tenant gets
/// exactly its burst admitted and the rest rate-limited with 429; the
/// unlimited tenant is never rejected; the per-tenant counters balance.
#[test]
fn concurrent_storm_respects_per_tenant_rate_limits() {
    let gw = Gateway::start(GatewayConfig {
        service: ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            ..ServiceConfig::default()
        },
        admission: AdmissionConfig {
            default_policy: TenantPolicy {
                rate_per_s: 10_000.0,
                burst: 10_000.0,
                max_in_flight: 256,
            },
            // Refill is ~0 on test timescales, so admissions == burst.
            overrides: vec![(
                "limited".to_string(),
                TenantPolicy {
                    rate_per_s: 0.001,
                    burst: 5.0,
                    max_in_flight: 64,
                },
            )],
            lane_capacity: 1024,
            ..AdmissionConfig::default()
        },
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gw.local_addr().to_string();

    let threads: Vec<_> = (0..16)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let tenant = if i % 2 == 0 { "limited" } else { "free" };
                let body = format!("{{\"kind\":\"sleep\",\"sleep_ms\":1,\"tenant\":\"{tenant}\"}}");
                let mut codes = Vec::new();
                for _ in 0..4 {
                    codes.push((tenant, submit(&addr, &body)));
                }
                codes
            })
        })
        .collect();
    let results: Vec<(&str, u16)> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();

    let accepted = |t: &str| results.iter().filter(|(n, c)| *n == t && *c == 202).count();
    let rejected = |t: &str| results.iter().filter(|(n, c)| *n == t && *c == 429).count();
    assert_eq!(accepted("limited"), 5, "burst admits exactly burst-many");
    assert_eq!(rejected("limited"), 27);
    assert_eq!(accepted("free"), 32);
    assert_eq!(rejected("free"), 0);

    // Counters balance: submitted == admitted + rejections, and every
    // admitted job eventually completes, draining in_flight to zero.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = Json::parse(&gw.stats_json()).unwrap();
        if tenant_counter(&stats, "limited", "completed") == 5
            && tenant_counter(&stats, "free", "completed") == 32
        {
            assert_eq!(tenant_counter(&stats, "limited", "submitted"), 32);
            assert_eq!(tenant_counter(&stats, "limited", "admitted"), 5);
            assert_eq!(tenant_counter(&stats, "limited", "rejected_rate"), 27);
            assert_eq!(tenant_counter(&stats, "limited", "in_flight"), 0);
            assert_eq!(tenant_counter(&stats, "free", "in_flight"), 0);
            break;
        }
        assert!(Instant::now() < deadline, "jobs never drained: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    gw.shutdown();
}

/// With a quota of 2 in-flight jobs and long-running work, a burst of ten
/// concurrent submissions admits exactly two.
#[test]
fn quota_bounds_concurrent_in_flight_jobs() {
    let gw = Gateway::start(GatewayConfig {
        service: ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
        admission: AdmissionConfig {
            default_policy: TenantPolicy {
                rate_per_s: 10_000.0,
                burst: 10_000.0,
                max_in_flight: 2,
            },
            ..AdmissionConfig::default()
        },
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gw.local_addr().to_string();

    let threads: Vec<_> = (0..10)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                submit(
                    &addr,
                    "{\"kind\":\"sleep\",\"sleep_ms\":3000,\"tenant\":\"q\"}",
                )
            })
        })
        .collect();
    let codes: Vec<u16> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(codes.iter().filter(|c| **c == 202).count(), 2);
    assert_eq!(codes.iter().filter(|c| **c == 429).count(), 8);

    let stats = Json::parse(&gw.stats_json()).unwrap();
    assert_eq!(tenant_counter(&stats, "q", "rejected_quota"), 8);
    assert!(tenant_counter(&stats, "q", "in_flight") <= 2);
    gw.shutdown();
}

/// Priority-lane ordering under the default queue: while the one worker is
/// busy, three batch jobs submitted BEFORE three interactive jobs are
/// dequeued AFTER most of them — the journal's `started` records expose the
/// dispatch order.
#[test]
fn interactive_lane_preempts_earlier_batch_submissions() {
    let dir = tempdir("lanes");
    let journal = dir.join("journal.jsonl");
    let gw = Gateway::start(GatewayConfig {
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        journal: Some(journal.clone()),
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gw.local_addr().to_string();

    // One blocker holds the single worker; whatever is submitted while it
    // runs waits in a lane, never in the service's queue.
    assert_eq!(submit(&addr, "{\"kind\":\"sleep\",\"sleep_ms\":600}"), 202);
    // Batch jobs enter their lane first, then interactive ones.
    for _ in 0..3 {
        assert_eq!(
            submit(
                &addr,
                "{\"kind\":\"sleep\",\"sleep_ms\":5,\"priority\":\"batch\"}"
            ),
            202
        );
    }
    for _ in 0..3 {
        assert_eq!(
            submit(
                &addr,
                "{\"kind\":\"sleep\",\"sleep_ms\":5,\"priority\":\"interactive\"}"
            ),
            202
        );
    }
    gw.shutdown(); // drains everything, then fsyncs the journal

    let text = std::fs::read_to_string(&journal).unwrap();
    let records: Vec<Record> = text.lines().map(|l| Record::decode(l).unwrap()).collect();
    let priority_of = |id: u64| {
        records.iter().find_map(|r| match r {
            Record::Submitted { job, priority, .. } if *job == id => Some(*priority),
            _ => None,
        })
    };
    // Dispatch order of the six lane jobs (ids 2..=7), skipping the blocker.
    let started: Vec<u64> = records
        .iter()
        .filter_map(|r| match r {
            Record::Started { job } if *job >= 2 => Some(*job),
            _ => None,
        })
        .collect();
    assert_eq!(started.len(), 6, "journal: {text}");
    let lanes: Vec<&str> = started
        .iter()
        .map(|id| priority_of(*id).unwrap().as_str())
        .collect();
    // Weighted 3:1 round-robin: interactive jobs overtake the earlier batch
    // submissions instead of queueing behind them (FIFO would give
    // [batch, batch, batch, interactive, interactive, interactive]).
    assert_eq!(lanes[0], "interactive", "dispatch order: {lanes:?}");
    let last_interactive = lanes.iter().rposition(|l| *l == "interactive").unwrap();
    let last_batch = lanes.iter().rposition(|l| *l == "batch").unwrap();
    assert!(
        last_interactive < last_batch,
        "interactive lane should drain before batch finishes: {lanes:?}"
    );

    // Every job was started once and reached exactly one terminal record,
    // after its `started`.
    for id in 1..=7u64 {
        let of_job: Vec<&Record> = records
            .iter()
            .filter(|r| {
                matches!(r,
                    Record::Started { job } | Record::Completed { job, .. }
                    | Record::Failed { job, .. } | Record::Cancelled { job }
                    if *job == id)
            })
            .collect();
        assert!(
            matches!(
                of_job[..],
                [Record::Started { .. }, Record::Completed { .. }]
            ),
            "job {id} in journal: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
