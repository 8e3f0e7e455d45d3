//! End-to-end HTTP API tests over real sockets: submit/status/cancel
//! lifecycle, admission rejections as 429 + Retry-After, and error paths.

use std::time::{Duration, Instant};
use zkml_net::{
    http_request, AdmissionConfig, Gateway, GatewayConfig, HttpResponse, Json, TenantPolicy,
};
use zkml_service::ServiceConfig;

fn start(cfg: GatewayConfig) -> (Gateway, String) {
    let gw = Gateway::start(cfg).expect("start gateway");
    let addr = gw.local_addr().to_string();
    (gw, addr)
}

fn small_service() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServiceConfig::default()
    }
}

fn post_job(addr: &str, body: &str) -> HttpResponse {
    http_request(addr, "POST", "/v1/jobs", Some(body)).expect("post /v1/jobs")
}

fn job_status(addr: &str, id: u64) -> Json {
    let resp = http_request(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(resp.status, 200, "status body: {}", resp.body);
    Json::parse(&resp.body).unwrap()
}

fn wait_terminal(addr: &str, id: u64) -> Json {
    let start = Instant::now();
    loop {
        let doc = job_status(addr, id);
        let state = doc
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if state != "queued" && state != "running" {
            return doc;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "job {id} stuck in {state}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn healthz_stats_and_error_paths() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        ..GatewayConfig::default()
    });

    let health = http_request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let doc = Json::parse(&health.body).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));

    let stats = http_request(&addr, "GET", "/v1/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let doc = Json::parse(&stats.body).unwrap();
    assert!(doc.get("service").is_some());
    assert!(doc.get("tenants").is_some());
    assert!(doc.get("lanes").is_some());

    // Error paths: unknown route, unknown job, bad method, bad bodies.
    let r = http_request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(r.status, 404);
    let r = http_request(&addr, "GET", "/v1/jobs/999", None).unwrap();
    assert_eq!(r.status, 404);
    let r = http_request(&addr, "PUT", "/v1/jobs/1", None).unwrap();
    assert_eq!(r.status, 405);
    let r = http_request(&addr, "DELETE", "/v1/stats", None).unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(post_job(&addr, "not json").status, 400);
    assert_eq!(post_job(&addr, "{\"kind\":\"launch\"}").status, 400);
    assert_eq!(
        post_job(&addr, "{\"kind\":\"prove\",\"model\":\"no-such-model\"}").status,
        400
    );
    assert_eq!(
        post_job(&addr, "{\"kind\":\"sleep\",\"tenant\":\"\"}").status,
        400
    );
    // A bundle carries its own commitments: a verify job that names a digest
    // or a commitment to check it against is refused, not run without them.
    let digest = "5a".repeat(32);
    for extra in [
        format!("\"model_digest\":\"{digest}\""),
        "\"commitment_hex\":\"0102\"".to_string(),
    ] {
        let body = format!("{{\"kind\":\"verify\",\"bundle_hex\":\"00\",{extra}}}");
        assert_eq!(post_job(&addr, &body).status, 400, "{body}");
    }

    gw.shutdown();
}

#[test]
fn sleep_job_lifecycle_and_terminal_cancel_conflicts() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        ..GatewayConfig::default()
    });

    let resp = post_job(
        &addr,
        "{\"kind\":\"sleep\",\"sleep_ms\":20,\"tenant\":\"alice\",\"priority\":\"batch\"}",
    );
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    let id = Json::parse(&resp.body)
        .unwrap()
        .get("job_id")
        .and_then(Json::as_u64)
        .unwrap();

    let doc = wait_terminal(&addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("completed"));
    assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("alice"));
    assert_eq!(doc.get("priority").and_then(Json::as_str), Some("batch"));
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("sleep"));

    // Cancelling a terminal job is a conflict, not a state change.
    let r = http_request(&addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(r.status, 409);
    let doc = job_status(&addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("completed"));

    // Per-tenant counters reflect the completed job.
    let stats = Json::parse(&gw.stats_json()).unwrap();
    let alice = stats.get("tenants").and_then(|t| t.get("alice")).unwrap();
    assert_eq!(alice.get("admitted").and_then(Json::as_u64), Some(1));
    assert_eq!(alice.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(alice.get("in_flight").and_then(Json::as_u64), Some(0));

    gw.shutdown();
}

#[test]
fn queued_job_cancels_synchronously() {
    // One worker, default queue: while a long sleep holds the worker, a
    // second job stays in its gateway lane, where DELETE removes it.
    let (gw, addr) = start(GatewayConfig {
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..GatewayConfig::default()
    });

    assert_eq!(
        post_job(&addr, "{\"kind\":\"sleep\",\"sleep_ms\":400}").status,
        202
    );
    let resp = post_job(&addr, "{\"kind\":\"sleep\",\"sleep_ms\":400}");
    assert_eq!(resp.status, 202);
    let id = Json::parse(&resp.body)
        .unwrap()
        .get("job_id")
        .and_then(Json::as_u64)
        .unwrap();

    let r = http_request(&addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
    // Removed from its lane synchronously: it is behind the first job there
    // or waiting for the worker that job holds.
    assert_eq!(r.status, 200, "body: {}", r.body);
    let doc = job_status(&addr, id);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("cancelled"));

    gw.shutdown();
}

#[test]
fn rate_limit_maps_to_429_with_retry_after() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        admission: AdmissionConfig {
            overrides: vec![(
                "throttled".to_string(),
                TenantPolicy {
                    rate_per_s: 0.001,
                    burst: 1.0,
                    max_in_flight: 8,
                },
            )],
            ..AdmissionConfig::default()
        },
        ..GatewayConfig::default()
    });

    let body = "{\"kind\":\"sleep\",\"sleep_ms\":1,\"tenant\":\"throttled\"}";
    assert_eq!(post_job(&addr, body).status, 202);
    let rejected = post_job(&addr, body);
    assert_eq!(rejected.status, 429, "body: {}", rejected.body);
    let retry: u64 = rejected
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .unwrap();
    assert!(retry >= 1);
    let doc = Json::parse(&rejected.body).unwrap();
    assert!(doc
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("rate limited"));

    // An unthrottled tenant is unaffected.
    assert_eq!(
        post_job(
            &addr,
            "{\"kind\":\"sleep\",\"sleep_ms\":1,\"tenant\":\"free\"}"
        )
        .status,
        202
    );

    let stats = Json::parse(&gw.stats_json()).unwrap();
    let t = stats
        .get("tenants")
        .and_then(|t| t.get("throttled"))
        .unwrap();
    assert_eq!(t.get("rejected_rate").and_then(Json::as_u64), Some(1));

    gw.shutdown();
}

#[test]
fn in_flight_quota_maps_to_429() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        admission: AdmissionConfig {
            default_policy: TenantPolicy {
                rate_per_s: 1000.0,
                burst: 1000.0,
                max_in_flight: 1,
            },
            ..AdmissionConfig::default()
        },
        ..GatewayConfig::default()
    });

    let body = "{\"kind\":\"sleep\",\"sleep_ms\":2000,\"tenant\":\"bob\"}";
    let first = post_job(&addr, body);
    assert_eq!(first.status, 202);
    let rejected = post_job(&addr, body);
    assert_eq!(rejected.status, 429, "body: {}", rejected.body);
    assert!(rejected.header("retry-after").is_some());
    assert!(Json::parse(&rejected.body)
        .unwrap()
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("in-flight"));

    // Cancel the running job to release the slot instead of waiting 2s.
    let id = Json::parse(&first.body)
        .unwrap()
        .get("job_id")
        .and_then(Json::as_u64)
        .unwrap();
    let _ = http_request(&addr, "DELETE", &format!("/v1/jobs/{id}"), None).unwrap();
    let doc = wait_terminal(&addr, id);
    let state = doc.get("status").and_then(Json::as_str).unwrap();
    assert!(
        state == "cancelled" || state == "completed",
        "state {state}"
    );

    gw.shutdown();
}

#[test]
fn submissions_rejected_while_draining() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        ..GatewayConfig::default()
    });
    assert_eq!(
        post_job(&addr, "{\"kind\":\"sleep\",\"sleep_ms\":50}").status,
        202
    );
    // Shutdown drains: the accepted job must finish, and the gateway must
    // come down even though a job was mid-flight when the drain started.
    gw.shutdown();
}

/// A body nested far past any sane document is a 400, not a handler thread
/// that overflows its stack and takes the server down with it.
#[test]
fn deeply_nested_body_is_refused_and_the_server_lives() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        ..GatewayConfig::default()
    });
    let r = post_job(&addr, &"[".repeat(1 << 20));
    assert_eq!(r.status, 400, "body: {}", r.body);
    assert!(r.body.contains("nesting"), "body: {}", r.body);
    let health = http_request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        post_job(&addr, "{\"kind\":\"sleep\",\"sleep_ms\":1}").status,
        202
    );
    gw.shutdown();
}

/// Shutdown right after start returns, whether or not the accept thread,
/// the handlers and the dispatcher had reached their first wait.
#[test]
fn start_then_shutdown_returns() {
    for _ in 0..50 {
        let (gw, _) = start(GatewayConfig::default());
        gw.shutdown();
    }
}

/// A finished proof must not wait on unrelated work: with other jobs in
/// flight for the whole run, a prove job still reaches `completed`, already
/// verified by its worker.
#[test]
fn prove_job_completes_while_other_jobs_are_in_flight() {
    let (gw, addr) = start(GatewayConfig {
        service: small_service(),
        ..GatewayConfig::default()
    });
    let submit = |body: &str| -> u64 {
        let resp = post_job(&addr, body);
        assert_eq!(resp.status, 202, "body: {}", resp.body);
        Json::parse(&resp.body)
            .unwrap()
            .get("job_id")
            .and_then(Json::as_u64)
            .unwrap()
    };
    let in_flight = |id: u64| {
        let doc = job_status(&addr, id);
        matches!(
            doc.get("status").and_then(Json::as_str),
            Some("queued" | "running")
        )
    };

    let prove = submit("{\"kind\":\"prove\",\"model\":\"mnist\",\"seed\":3}");
    // A running sleep job cannot be cancelled, so one long sleep would pin
    // the shutdown below; two short ones, topped up every turn, keep other
    // work in flight exactly as long as the prove job runs.
    let mut sleeps: Vec<u64> = Vec::new();
    let started = Instant::now();
    loop {
        sleeps.retain(|id| in_flight(*id));
        while sleeps.len() < 2 {
            sleeps.push(submit("{\"kind\":\"sleep\",\"sleep_ms\":500}"));
        }
        let doc = job_status(&addr, prove);
        match doc.get("status").and_then(Json::as_str).unwrap() {
            "completed" => break,
            "queued" | "running" => {}
            other => panic!("prove job ended {other}: {doc:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(180),
            "prove job never completed while other jobs were in flight"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        sleeps.iter().any(|id| in_flight(*id)),
        "the prove job must complete while another job is still in flight"
    );

    let stats = http_request(&addr, "GET", "/v1/stats", None).unwrap();
    let service = Json::parse(&stats.body).unwrap();
    let service = service.get("service").unwrap();
    assert_eq!(
        service.get("proofs_verified").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        service.get("verify_failures").and_then(Json::as_u64),
        Some(0)
    );

    gw.shutdown();
}
