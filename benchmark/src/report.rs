//! What a workload run reports: named metrics, per-phase request counts and
//! failed checks, printed as `name value unit` lines and closed by the one
//! JSON line the gate reads.

use crate::stats::Summary;
use std::collections::BTreeMap;

/// The gated end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports every one of them; what `request_ms` and `check_ms` time is the
/// workload's own (see README.md, "Gated metrics").
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_ms", "ms"),
    ("check_ms", "ms"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order. A
/// workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.lower_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.synthesize_ms", "ms"),
    ("core.candidates_evaluated", "count"),
    ("core.candidates_pruned", "count"),
    ("core.schedules_built", "count"),
    ("core.layout_k", "count"),
    ("core.layout_cols", "count"),
    ("core.layout_rows", "count"),
    ("core.predicted_over_measured", "ratio"),
    ("analyze.ensure_determined_ms", "ms"),
    ("plonk.keygen_ms", "ms"),
    ("plonk.keygens", "count"),
    ("plonk.warm_keygens", "count"),
    ("plonk.commit_weights_ms", "ms"),
    ("plonk.warm_weight_encodings", "count"),
    ("plonk.prove_ms", "ms"),
    ("plonk.verify_ms", "ms"),
    ("plonk.proof_bytes", "bytes"),
    ("curves.msm_ms", "ms"),
    ("curves.pairing_ms", "ms"),
    ("poly.fft_ms", "ms"),
    ("poly.fft_ext_ms", "ms"),
    ("pcs.commit_ms", "ms"),
    ("pcs.open_ms", "ms"),
    ("shard.cut_ms", "ms"),
    ("shard.prove_ms", "ms"),
    ("shard.settle_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.warm_cache_hit_share", "ratio"),
    ("net.http_overhead_ms", "ms"),
    ("net.journal_append_us", "us"),
    ("net.admit_us", "us"),
    ("net.json_parse_us", "us"),
    ("net.submit_tail_ms", "ms"),
    ("par.tasks_executed", "count"),
    ("par.steals", "count"),
    ("par.busy_fraction", "ratio"),
    ("trace_coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Requests (and checks) attempted and failed in one phase of a run.
struct Phase {
    name: &'static str,
    attempted: u64,
    failed: u64,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Report {
    gated: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    phases: Vec<Phase>,
    failures: Vec<String>,
}

impl Report {
    /// Records a gated end-to-end metric (a name from [`END_TO_END`]).
    pub fn gate(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.gated.insert(name, value);
    }

    /// Records a gated metric unless the workload already did.
    pub fn gate_unless_set(&mut self, name: &'static str, value: f64) {
        self.gated.entry(name).or_insert(value);
    }

    /// Records a per-layer metric (a name from [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    /// Records the `par.*` metrics: the pool's counters over a window.
    pub fn pool_delta(&mut self, before: &zkml_par::PoolMetrics, after: &zkml_par::PoolMetrics) {
        let busy = (after.busy_ns - before.busy_ns) as f64;
        let up = (after.uptime_ns - before.uptime_ns) as f64 * after.threads as f64;
        self.layer(
            "par.tasks_executed",
            (after.tasks_executed - before.tasks_executed) as f64,
        );
        self.layer("par.steals", (after.steals - before.steals) as f64);
        self.layer("par.busy_fraction", busy / up);
    }

    /// A per-layer metric already recorded (0 when absent).
    pub fn layer_value(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// Prints-to-be one `name value unit` line under the issue's metric
    /// vocabulary (`job_s`, `verify_ms`, `compile_s`, ...).
    pub fn line(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let sep = if note.is_empty() { "" } else { "  # " };
        self.lines.push(format!("{name} {value} {unit}{sep}{note}"));
    }

    /// A median line with its n/min/max note.
    pub fn median_line(&mut self, name: &str, s: &Summary, unit: &str) {
        self.line(name, s.median, unit, &s.note());
    }

    /// A free-form row (layouts, run metadata).
    pub fn row(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Counts `attempted` operations in `phase`, of which `failures` failed;
    /// each failure is recorded with what went wrong and counts toward
    /// `failed_share`.
    pub fn count(&mut self, phase: &'static str, attempted: usize, failures: &[String]) {
        let idx = match self.phases.iter().position(|p| p.name == phase) {
            Some(i) => i,
            None => {
                self.phases.push(Phase {
                    name: phase,
                    attempted: 0,
                    failed: 0,
                });
                self.phases.len() - 1
            }
        };
        self.phases[idx].attempted += attempted as u64;
        self.phases[idx].failed += failures.len() as u64;
        self.failures
            .extend(failures.iter().map(|what| format!("{phase}: {what}")));
    }

    /// Counts one attempted operation (a request or a check) in `phase`.
    pub fn attempt(&mut self, phase: &'static str, outcome: Result<(), String>) {
        self.count(phase, 1, outcome.err().as_slice());
    }

    /// Operations attempted and failed over all phases.
    pub fn totals(&self) -> (u64, u64) {
        self.phases
            .iter()
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    /// Prints every line, the per-phase counts and `failed_share`, then —
    /// last — the gate's JSON object: the gated metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub fn print(&self, traced: bool) {
        for line in &self.lines {
            println!("{line}");
        }
        let (schema, values) = if traced {
            (PER_LAYER, &self.layers)
        } else {
            (END_TO_END, &self.gated)
        };
        let value = |name: &str| values.get(name).copied().unwrap_or(0.0);
        // Gated metrics carry a `gate.` prefix: `setup_s` and `peak_rss_mb`
        // also appear above, with their sample notes.
        let prefix = if traced { "" } else { "gate." };
        for (name, unit) in schema {
            println!("{prefix}{name} {} {unit}", value(name));
        }
        for p in &self.phases {
            println!(
                "phase.{} attempted={} succeeded={} failed={}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            );
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let (attempted, failed) = self.totals();
        let share = failed as f64 / attempted.max(1) as f64;
        println!("failed_share {share} ratio  # {failed} of {attempted}");
        let metrics: Vec<String> = schema
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    value(name)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            attempted.max(1),
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_net::Json;

    /// `BENCHMARK.json` and the two tables above must name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }
}
