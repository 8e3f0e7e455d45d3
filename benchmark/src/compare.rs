//! The repeatability harness behind `run.sh --repeat 2`: compares the gated
//! metrics of two sets of runs against the bounds in `BENCHMARK.json`.

use std::path::Path;
use zkml_net::Json;

/// A set file holds one line per workload: `<workload> <result json>`.
fn read_set(path: &Path) -> Result<Vec<(String, Json)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (workload, json) = line
                .split_once(' ')
                .ok_or(format!("{}: malformed line", path.display()))?;
            let json = Json::parse(json).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((workload.to_string(), json))
        })
        .collect()
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Prints, for every workload and gated metric, how much worse the second
/// set is than the first, relative to the first, against the metric's bound.
/// Returns whether every difference is within its bound.
pub fn compare(benchmark_json: &Path, first: &Path, second: &Path) -> Result<bool, String> {
    let spec = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("read {}: {e}", benchmark_json.display()))?;
    let spec = Json::parse(&spec).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(gated)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    let (first, second) = (read_set(first)?, read_set(second)?);
    let mut within = true;
    for (workload, a) in &first {
        let b = second
            .iter()
            .find(|(w, _)| w == workload)
            .map(|(_, b)| b)
            .ok_or(format!("second set lacks {workload}"))?;
        for m in gated {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let higher_is_better = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = metric(a, name)
                .zip(metric(b, name))
                .ok_or(format!("{workload} lacks {name}"))?;
            let worse_by = if higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if worse_by.abs() <= bound {
                "ok"
            } else {
                within = false;
                "EXCEEDS BOUND"
            };
            println!(
                "{workload} {name} first={va} second={vb} difference={worse_by} bound={bound} {verdict}"
            );
        }
    }
    Ok(within)
}
