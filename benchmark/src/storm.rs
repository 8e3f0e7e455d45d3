//! `submit-storm`: the gateway alone. Two closed-loop clients alternate an
//! fsynced write (`POST /v1/jobs` with a zero-length sleep job) and a read
//! (`GET /v1/jobs/{id}`) against a journaled gateway with generous admission
//! limits, so `net` does all the work and the prover none.

use crate::client::Client;
use crate::report::Report;
use crate::stats::{median, summarize, tail};
use crate::trace::{spanned, Tracer};
use crate::Ctx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use zkml_net::{
    Admission, AdmissionConfig, Gateway, GatewayConfig, Journal, Json, Record, TenantPolicy,
};
use zkml_service::ServiceConfig;

/// Closed-loop client threads (capped at the host's cores).
const CLIENTS: usize = 2;
/// Tenants the submissions rotate over.
const TENANTS: usize = 4;
/// Gateways started (each on a fresh journal) for `setup_s`.
const SETUP_REPS: usize = 7;
/// Submit/status pairs each client sends before the timed window. A count,
/// not a time: the gateway keeps every job in memory, so memory after the
/// warm-up is comparable between a slow gateway and a fast one, while memory
/// at exit grows with the number of jobs the window let through.
const WARMUP_TURNS: usize = 256;

/// When a client loop stops.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Turns(usize),
}

fn generous() -> AdmissionConfig {
    AdmissionConfig {
        default_policy: TenantPolicy {
            rate_per_s: 1e9,
            burst: 1e9,
            max_in_flight: 1 << 20,
        },
        lane_capacity: 1 << 20,
        ..AdmissionConfig::default()
    }
}

fn start_gateway(journal: &Path) -> Result<Gateway, String> {
    Gateway::start(GatewayConfig {
        service: ServiceConfig {
            workers: 2,
            queue_capacity: 4096,
            ..ServiceConfig::default()
        },
        admission: generous(),
        journal: Some(journal.to_path_buf()),
        ..GatewayConfig::default()
    })
    .map_err(|e| format!("start gateway: {e}"))
}

fn sleep_body(tenant: &str) -> String {
    format!("{{\"kind\":\"sleep\",\"sleep_ms\":0,\"tenant\":\"{tenant}\"}}")
}

/// Latencies (ms) one client saw in one window.
#[derive(Default)]
struct Latencies {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    /// Submissions answered 202.
    admitted: usize,
    failures: Vec<String>,
}

/// One client's closed loop: submit, then read the job back.
fn client_loop(
    client: &Client,
    tenants: &[String],
    order: &[usize],
    until: Until,
    tracer: Option<&Tracer>,
) -> Latencies {
    let mut out = Latencies::default();
    let start = Instant::now();
    let mut turn = 0usize;
    while match until {
        Until::Elapsed(window) => start.elapsed() < window,
        Until::Turns(turns) => turn < turns,
    } {
        let body = sleep_body(&tenants[order[turn % order.len()]]);
        turn += 1;
        let (id, ms) = spanned(tracer, "net.http_post", None, turn as u64, |_| {
            client.submit(&body)
        });
        out.submit_ms.push(ms);
        let id = match id {
            Ok(id) => id,
            Err(e) => {
                out.failures.push(e);
                continue;
            }
        };
        out.admitted += 1;
        let (status, ms) = spanned(tracer, "net.http_get", None, turn as u64, |_| {
            client.status(id)
        });
        out.status_ms.push(ms);
        if let Err(e) = status {
            out.failures.push(e);
        }
    }
    out
}

/// Runs all clients for one window and merges what they saw; returns the
/// window's actual length too.
fn storm_window(
    client: &Client,
    tenants: &[String],
    orders: &[Vec<usize>],
    until: Until,
    tracer: Option<&Tracer>,
) -> (Latencies, f64) {
    let start = Instant::now();
    let per_client: Vec<Latencies> = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| s.spawn(move || client_loop(client, tenants, order, until, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut all = Latencies::default();
    for l in per_client {
        all.submit_ms.extend(l.submit_ms);
        all.status_ms.extend(l.status_ms);
        all.admitted += l.admitted;
        all.failures.extend(l.failures);
    }
    (all, elapsed)
}

/// Re-reads a journal after shutdown: every submitted job must have exactly
/// one terminal record, and it must be `completed`. Returns the job count.
pub fn completed_exactly_once(path: &Path) -> Result<usize, String> {
    let (_, records) = Journal::open(path).map_err(|e| format!("reopen journal: {e}"))?;
    // job → (completed records, other terminal records)
    let mut terminal = std::collections::BTreeMap::<u64, (usize, usize)>::new();
    for rec in &records {
        match rec {
            Record::Submitted { job, .. } => {
                terminal.entry(*job).or_default();
            }
            Record::Completed { job, .. } => terminal.entry(*job).or_default().0 += 1,
            Record::Failed { job, .. } | Record::Cancelled { job } => {
                terminal.entry(*job).or_default().1 += 1
            }
            Record::Started { .. } => {}
        }
    }
    let bad = terminal.values().filter(|t| **t != (1, 0)).count();
    if bad > 0 {
        return Err(format!(
            "{bad} of {} journaled jobs lack exactly one `completed` terminal record",
            terminal.len()
        ));
    }
    Ok(terminal.len())
}

/// `net.journal_append_us`, `net.admit_us`, `net.json_parse_us`: the three
/// pieces of a submit the benchmark can call directly. Returns their sum in
/// ms.
pub fn net_pieces(ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
    let path = ctx.scratch("journal-pieces.jsonl");
    let (journal, _) = Journal::open(&path).map_err(|e| format!("open journal: {e}"))?;
    let appends: Vec<f64> = (0..64u64)
        .map(|job| {
            let t = Instant::now();
            let ok = journal.append(&Record::Started { job });
            (ok, t.elapsed().as_secs_f64() * 1e6)
        })
        .map(|(ok, us)| ok.map(|()| us).map_err(|e| format!("journal append: {e}")))
        .collect::<Result<_, _>>()?;
    drop(journal);
    let _ = std::fs::remove_file(&path);

    const CALLS: u32 = 4096;
    let admission = Admission::new(&generous());
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(admission.admit("bench").is_ok());
    }
    let admit_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS);
    let body = sleep_body("tenant-0000");
    let t = Instant::now();
    for _ in 0..CALLS {
        std::hint::black_box(Json::parse(std::hint::black_box(&body)).is_ok());
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS);

    let append_us = median(&appends);
    report.layer("net.journal_append_us", append_us);
    report.layer("net.admit_us", admit_us);
    report.layer("net.json_parse_us", parse_us);
    Ok((append_us + admit_us + parse_us) / 1e3)
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let tenants: Vec<String> = (0..TENANTS)
        .map(|_| format!("tenant-{:04x}", rng.gen_range(0..0x10000u32)))
        .collect();
    let clients = CLIENTS.min(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let orders: Vec<Vec<usize>> = (0..clients)
        .map(|_| (0..1024).map(|_| rng.gen_range(0..TENANTS)).collect())
        .collect();

    // Set-up: Gateway::start → first job terminal, on a fresh journal each
    // time. The last gateway stays up for the storm.
    let mut setup_s = Vec::new();
    let mut live: Option<(Gateway, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((gw, journal)) = live.take() {
            gw.shutdown();
            let _ = std::fs::remove_file(journal);
        }
        let journal = ctx.scratch(&format!("journal-{rep}.jsonl"));
        let t = Instant::now();
        let gw = start_gateway(&journal)?;
        let first = Client::new(gw.local_addr()).run_job(&sleep_body(&tenants[0]), None, None, 0);
        setup_s.push(t.elapsed().as_secs_f64());
        report.attempt("setup", first.map(|_| ()));
        live = Some((gw, journal));
    }
    let (gw, journal) = live.expect("SETUP_REPS > 0");
    let client = Client::new(gw.local_addr());

    let window = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let window = Until::Elapsed(Duration::from_secs_f64(window));
    let (warm, _) = storm_window(&client, &tenants, &orders, Until::Turns(WARMUP_TURNS), None);
    let rss_after_warmup = crate::peak_rss_mb();
    let pool_before = zkml_par::global().metrics();
    let (seen, elapsed_s) = storm_window(&client, &tenants, &orders, window, None);
    let pool_after = zkml_par::global().metrics();

    let tracer = ctx.traced.then(Tracer::new);
    let traced = tracer
        .as_ref()
        .map(|t| storm_window(&client, &tenants, &orders, window, Some(t)));
    let traced_s = traced.as_ref().map_or(0.0, |(_, s)| *s);
    let traced = traced.map(|(l, _)| l);

    gw.shutdown();
    let journaled = completed_exactly_once(&journal);
    let _ = std::fs::remove_file(&journal);
    let jobs = *journaled.as_ref().unwrap_or(&0);
    report.attempt("check", journaled.map(|_| ()));
    let windows = [
        ("warmup", Some(&warm)),
        ("storm", Some(&seen)),
        ("traced", traced.as_ref()),
    ];
    // The last gateway's journal: its set-up job plus every admitted submit.
    let admitted = 1 + windows
        .iter()
        .flat_map(|(_, l)| *l)
        .map(|l| l.admitted)
        .sum::<usize>();
    report.attempt(
        "check",
        (jobs == admitted).then_some(()).ok_or(format!(
            "journal holds {jobs} jobs, clients saw {admitted} admitted"
        )),
    );
    for (phase, l) in windows {
        if let Some(l) = l {
            report.count(phase, l.submit_ms.len() + l.status_ms.len(), &l.failures);
        }
    }

    let setup = summarize(&setup_s);
    let submit = summarize(&seen.submit_ms);
    let status = summarize(&seen.status_ms);
    let submits_per_s = seen.submit_ms.len() as f64 / elapsed_s;
    report.row(format!(
        "# clients={clients} (closed loop) tenants={} window_s={elapsed_s}",
        tenants.join(",")
    ));
    report.median_line("setup_s", &setup, "s");
    report.median_line("submit_p50_ms", &submit, "ms");
    report.median_line("status_p50_ms", &status, "ms");
    report.line(
        "submits_per_s",
        submits_per_s,
        "1/s",
        "admitted jobs over the timed window",
    );
    report.gate("setup_s", setup.median);
    report.gate("request_ms", submit.median);
    report.gate("check_ms", status.median);
    report.gate("throughput", submits_per_s);
    report.gate("peak_rss_mb", rss_after_warmup);
    report.line(
        "peak_rss_mb.after_warmup",
        rss_after_warmup,
        "MB",
        &format!("VmHWM after {WARMUP_TURNS} submit/status pairs per client; the gated value here"),
    );

    if let (Some(tracer), Some(traced)) = (&tracer, &traced) {
        let pieces_ms = net_pieces(ctx, report)?;
        let traced_p50 = median(&traced.submit_ms);
        // What a submit spends outside the pieces the benchmark can call
        // directly: sockets, thread hand-offs, the accept loop's sleep.
        report.layer("net.http_overhead_ms", traced_p50 - pieces_ms);
        if let Some((pct, ms)) = tail(&traced.submit_ms) {
            report.layer("net.submit_tail_ms", ms);
            report.row(format!(
                "# net.submit_tail_ms is p{pct} of n={}",
                traced.submit_ms.len()
            ));
        }
        report.pool_delta(&pool_before, &pool_after);
        // A POST and a GET are the whole loop; coverage is their share of
        // the clients' wall time.
        let in_requests: f64 = traced.submit_ms.iter().chain(&traced.status_ms).sum();
        report.layer(
            "trace_coverage",
            in_requests / (traced_s * 1e3 * clients as f64),
        );
        report.layer("trace_overhead", traced_p50 / submit.median);
        crate::write_trace(ctx, tracer)?;
    }
    Ok(())
}
