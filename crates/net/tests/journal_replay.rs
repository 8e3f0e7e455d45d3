//! Journal recovery tests: a gateway restarted on the journal of a crashed
//! server must lose no job, complete none twice, re-run still-queued work,
//! and deterministically fail work that was mid-flight at the crash.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use zkml_net::{http_request, Gateway, GatewayConfig, Json, Record};
use zkml_service::ServiceConfig;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkml-net-replay-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn status_of(addr: &str, id: u64) -> Json {
    let resp = http_request(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(resp.status, 200, "job {id}: {}", resp.body);
    Json::parse(&resp.body).unwrap()
}

fn state_of(addr: &str, id: u64) -> String {
    status_of(addr, id)
        .get("status")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

fn read_records(path: &PathBuf) -> Vec<Record> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| Record::decode(l).unwrap())
        .collect()
}

/// The journal's shape per job: `started` at most once, then exactly one
/// terminal record.
fn assert_lifecycle(records: &[Record], id: u64) {
    let of_job: Vec<&str> = records
        .iter()
        .filter_map(|r| match r {
            Record::Started { job } if *job == id => Some("started"),
            Record::Completed { job, .. }
            | Record::Failed { job, .. }
            | Record::Cancelled { job }
                if *job == id =>
            {
                Some("terminal")
            }
            _ => None,
        })
        .collect();
    assert!(
        of_job == ["terminal"] || of_job == ["started", "terminal"],
        "job {id}: {of_job:?}"
    );
}

/// Simulated crash: a hand-written journal capturing a server that died with
/// one completed job, one mid-flight, one still queued, and one cancelled.
/// Restart must bring every job to a terminal state exactly once.
#[test]
fn replay_recovers_every_job_exactly_once() {
    let dir = tempdir("crash");
    let journal = dir.join("journal.jsonl");
    // What a crashed server leaves behind (job 3 queued but never started).
    std::fs::write(
        &journal,
        concat!(
            "{\"rec\":\"submitted\",\"job\":1,\"tenant\":\"a\",\"priority\":\"interactive\",\"kind\":\"sleep\",\"sleep_ms\":1}\n",
            "{\"rec\":\"started\",\"job\":1}\n",
            "{\"rec\":\"completed\",\"job\":1,\"k\":0,\"segments\":0,\"prove_ms\":0}\n",
            "{\"rec\":\"submitted\",\"job\":2,\"tenant\":\"a\",\"priority\":\"interactive\",\"kind\":\"sleep\",\"sleep_ms\":60000}\n",
            "{\"rec\":\"started\",\"job\":2}\n",
            "{\"rec\":\"submitted\",\"job\":3,\"tenant\":\"b\",\"priority\":\"batch\",\"kind\":\"sleep\",\"sleep_ms\":5}\n",
            "{\"rec\":\"submitted\",\"job\":4,\"tenant\":\"b\",\"priority\":\"interactive\",\"kind\":\"sleep\",\"sleep_ms\":5}\n",
            "{\"rec\":\"cancelled\",\"job\":4}\n",
        ),
    )
    .unwrap();

    let gw = Gateway::start(GatewayConfig {
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        journal: Some(journal.clone()),
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gw.local_addr().to_string();

    // Completed and cancelled jobs keep their terminal states; the
    // mid-flight job is failed deterministically, not re-run (its 60s sleep
    // would otherwise still be going).
    assert_eq!(state_of(&addr, 1), "completed");
    assert_eq!(state_of(&addr, 2), "failed");
    assert!(status_of(&addr, 2)
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("interrupted by server restart"));
    assert_eq!(state_of(&addr, 4), "cancelled");
    // A replayed completion has no artifact bytes to serve.
    assert_eq!(
        status_of(&addr, 1)
            .get("result_available")
            .and_then(Json::as_bool),
        Some(false)
    );

    // The queued job re-runs to completion.
    let deadline = Instant::now() + Duration::from_secs(20);
    while state_of(&addr, 3) != "completed" {
        assert!(Instant::now() < deadline, "job 3 never re-ran");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Job numbering resumes past the replayed ids.
    let resp = http_request(&addr, "POST", "/v1/jobs", Some("{\"kind\":\"sleep\"}")).unwrap();
    assert_eq!(resp.status, 202);
    let new_id = Json::parse(&resp.body)
        .unwrap()
        .get("job_id")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(new_id, 5);
    gw.shutdown();

    let records = read_records(&journal);
    for id in 1..=5 {
        assert_lifecycle(&records, id);
    }

    // A second restart on the recovered journal changes nothing: every job
    // is already terminal, so no new records appear (idempotent recovery).
    let before = records.len();
    let gw = Gateway::start(GatewayConfig {
        journal: Some(journal.clone()),
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gw.local_addr().to_string();
    assert_eq!(state_of(&addr, 2), "failed");
    assert_eq!(state_of(&addr, 3), "completed");
    gw.shutdown();
    assert_eq!(read_records(&journal).len(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A waiting job waits in its lane under the default queue: it reads
/// `queued`, has no `started` record, cancels synchronously, and a restart
/// re-runs it. The kill is simulated by copying the journal mid-run and
/// restarting from the copy (dropping a gateway drains it).
#[test]
fn waiting_jobs_stay_queued_and_survive_a_restart() {
    let dir = tempdir("live");
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
    // A long job for the one worker, two short ones behind it.
    for ms in [800, 5, 5] {
        let body = format!("{{\"kind\":\"sleep\",\"sleep_ms\":{ms}}}");
        let r = http_request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
        assert_eq!(r.status, 202);
    }
    // The one worker takes job 1; jobs 2 and 3 wait in their lane.
    let deadline = Instant::now() + Duration::from_secs(20);
    while state_of(&addr, 1) != "running" {
        assert!(Instant::now() < deadline, "job 1 never started");
        std::thread::yield_now();
    }
    assert_eq!(state_of(&addr, 2), "queued");
    assert_eq!(state_of(&addr, 3), "queued");
    let r = http_request(&addr, "DELETE", "/v1/jobs/3", None).unwrap();
    assert_eq!(r.status, 200, "a waiting job cancels synchronously");
    // "kill -9": snapshot the journal while job 1 runs and job 2 waits.
    let snapshot = dir.join("snapshot.jsonl");
    std::fs::copy(&journal, &snapshot).unwrap();
    let started = |records: &[Record]| {
        records
            .iter()
            .filter(|r| matches!(r, Record::Started { .. }))
            .count()
    };
    assert_eq!(started(&read_records(&snapshot)), 1, "only job 1 started");
    gw.shutdown();
    let records = read_records(&journal);
    assert_eq!(started(&records), 2, "job 3 never started");
    for id in 1..=3 {
        assert_lifecycle(&records, id);
    }

    let gw = Gateway::start(GatewayConfig {
        journal: Some(snapshot.clone()),
        ..GatewayConfig::default()
    })
    .unwrap();
    let addr = gw.local_addr().to_string();
    // The started job fails, the waiting one re-runs, the cancelled one stays.
    assert_eq!(state_of(&addr, 1), "failed");
    assert!(status_of(&addr, 1)
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("interrupted by server restart"));
    assert_eq!(state_of(&addr, 3), "cancelled");
    let deadline = Instant::now() + Duration::from_secs(20);
    while state_of(&addr, 2) != "completed" {
        assert!(Instant::now() < deadline, "job 2 never re-ran");
        std::thread::sleep(Duration::from_millis(10));
    }
    gw.shutdown();
    let records = read_records(&snapshot);
    for id in 1..=3 {
        assert_lifecycle(&records, id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
