//! Submission-path benchmark for the serving layer: latency and throughput
//! of `POST /v1/jobs` at 1/4/16 concurrent clients against the HTTP gateway
//! (socket round-trip through parsing, admission, journal write-ahead, and
//! lane enqueue).
//!
//! Jobs are zero-length sleeps so the numbers isolate the submission path
//! rather than proving. The rows replace `BENCH_NET.json` at the repo root.
//!
//! ```text
//! cargo run --release -p zkml-bench --bin net_latency
//! ```

use std::path::{Path, PathBuf};
use std::time::Instant;
use zkml_net::{http_request, AdmissionConfig, Gateway, GatewayConfig, TenantPolicy};
use zkml_service::ServiceConfig;

const CLIENTS: [usize; 3] = [1, 4, 16];
const REQUESTS_PER_CLIENT: usize = 200;

struct Row {
    clients: usize,
    total: usize,
    elapsed_s: f64,
    p50_us: u64,
    p95_us: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "{{\"bench\":\"submit\",\"transport\":\"http\",\"clients\":{},\"requests\":{},\
             \"throughput_per_s\":{:.1},\"p50_us\":{},\"p95_us\":{}}}",
            self.clients,
            self.total,
            self.total as f64 / self.elapsed_s,
            self.p50_us,
            self.p95_us
        )
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs `clients` threads, each performing `REQUESTS_PER_CLIENT` submits via
/// `submit_one`, and returns the latency distribution.
fn run_clients<F>(clients: usize, submit_one: F) -> Row
where
    F: Fn() + Sync,
{
    let start = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|s| {
        let submit_one = &submit_one;
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let t = Instant::now();
                        submit_one();
                        lat.push(t.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut sorted = latencies;
    sorted.sort_unstable();
    Row {
        clients,
        total: sorted.len(),
        elapsed_s,
        p50_us: percentile(&sorted, 0.50),
        p95_us: percentile(&sorted, 0.95),
    }
}

/// HTTP submission: full socket round-trip to a 202, through admission and
/// the journal write-ahead.
fn bench_http(clients: usize, addr: &str) -> Row {
    run_clients(clients, || {
        let resp = http_request(
            addr,
            "POST",
            "/v1/jobs",
            Some("{\"kind\":\"sleep\",\"sleep_ms\":0,\"tenant\":\"bench\"}"),
        )
        .expect("submit");
        assert_eq!(resp.status, 202, "unexpected: {}", resp.body);
    })
}

fn main() {
    let dir = std::env::temp_dir().join(format!("zkml-bench-net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut rows = Vec::new();
    for clients in CLIENTS {
        // Fresh gateway per point so the journal and lanes start empty;
        // generous limits keep admission out of the rejection path.
        let gw = Gateway::start(GatewayConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 4096,
                ..ServiceConfig::default()
            },
            admission: AdmissionConfig {
                default_policy: TenantPolicy {
                    rate_per_s: 1e9,
                    burst: 1e9,
                    max_in_flight: 1 << 20,
                },
                lane_capacity: 1 << 20,
                ..AdmissionConfig::default()
            },
            journal: Some(dir.join(format!("journal-{clients}.jsonl"))),
            handler_threads: 16,
            ..GatewayConfig::default()
        })
        .expect("start gateway");
        let addr = gw.local_addr().to_string();
        let row = bench_http(clients, &addr);
        println!(
            "http clients={clients}: {:.0}/s, p50 {} us, p95 {} us",
            row.total as f64 / row.elapsed_s,
            row.p50_us,
            row.p95_us
        );
        rows.push(row);
        gw.shutdown(); // drains the sleep jobs
    }

    let out: PathBuf =
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join("BENCH_NET.json");
    let body = format!(
        "[\n  {}\n]\n",
        rows.iter().map(Row::json).collect::<Vec<_>>().join(",\n  ")
    );
    std::fs::write(&out, body).expect("write BENCH_NET.json");
    println!("wrote {}", out.display());
    let _ = std::fs::remove_dir_all(&dir);
}
