//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each crate's public functions. A span is (name, start, end,
//! parent, job id); names are `<crate>.<call>`, so a layer's self time is
//! the sum over its spans of duration minus the part child spans cover.
//! Spans are kept in memory and written once, when the workload ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// A span's index in the tracer; children name it as their parent.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<SpanId>,
    job: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span holder panics")
    }

    /// Runs `f` inside a span and returns its result and duration in ms.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, f64) {
        let start_us = self.now_us();
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                job,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end_us = self.now_us();
        self.lock()[id].end_us = end_us;
        (out, (end_us - start_us) / 1e3)
    }

    /// Durations (ms) of every span with this name, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect()
    }

    /// Self time (ms) per layer — the `<crate>` prefix of the span name —
    /// summed over the spans below `root` (exclusive).
    pub fn self_ms_by_layer(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut child_ms = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end_us - s.start_us) / 1e3;
            }
        }
        let below_root = |mut i: usize| loop {
            match spans[i].parent {
                Some(p) if p == root => return true,
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if below_root(i) {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *out.entry(layer).or_insert(0.0) += (s.end_us - s.start_us) / 1e3 - child_ms[i];
            }
        }
        out
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.lock();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"job\":{}}}{comma}",
                s.name, s.start_us, s.end_us, s.job
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Times `f`, inside a span when a tracer is present. Untraced runs pass
/// `None` and pay for two `Instant::now` calls only.
pub fn spanned<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    job: u64,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> (R, f64) {
    match tracer {
        Some(t) => t.span(name, parent, job, |id| f(Some(id))),
        None => {
            let start = Instant::now();
            let out = f(None);
            (out, start.elapsed().as_secs_f64() * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let (root, _) = t.span("bench.job", None, 1, |root| {
            t.span("plonk.prove", Some(root), 1, |prove| {
                t.span("curves.msm", Some(prove), 1, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
            root
        });
        let by_layer = t.self_ms_by_layer(root);
        assert!(by_layer["curves"] >= 5.0);
        assert!(by_layer["plonk"] < by_layer["curves"]);
        assert!(!by_layer.contains_key("bench"));
    }
}
