//! The cost model (§7.4, Eq. 1–2) and hardware calibration.
//!
//! Calibration takes several seconds, so [`HardwareStats::cached`]
//! persists the table to disk (see `HardwareStats::save`) and later
//! processes load it instead of re-benchmarking. Set `ZKML_HW_CACHE` to
//! choose the file, or to the empty string to disable persistence.

use crate::builder::LayoutStats;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::Backend;

/// Measured per-operation costs for the proving hardware.
///
/// `BenchmarkOperations(hardware)` from Algorithm 1: produced once per
/// machine and cached; the optimizer consults it for every candidate layout
/// instead of proving anything.
#[derive(Clone, Debug)]
pub struct HardwareStats {
    /// `t_fft[k]` = seconds for one size-`2^k` NTT.
    pub t_fft: Vec<f64>,
    /// `t_msm[k]` = seconds for one size-`2^k` MSM.
    pub t_msm: Vec<f64>,
    /// `t_lookup[k]` = seconds to build one lookup's permuted columns.
    pub t_lookup: Vec<f64>,
    /// Seconds per field multiply-accumulate.
    pub t_field: f64,
}

const MAX_K: usize = 28;

impl HardwareStats {
    /// Measures the machine (a few seconds) and extrapolates to `2^28`.
    pub fn benchmark() -> Self {
        use zkml_poly::EvaluationDomain;
        let mut rng = rand::rngs::mock::StepRng::new(0x1234, 0x9e3779b97f4a7c15);
        // Field op throughput.
        let mut x = Fr::from_u64(3);
        let y = Fr::from_u64(12345);
        let start = Instant::now();
        const FIELD_ITERS: u32 = 1_000_000;
        for _ in 0..FIELD_ITERS {
            x = x * y + y;
        }
        let t_field = start.elapsed().as_secs_f64() / FIELD_ITERS as f64;
        std::hint::black_box(x);

        // FFTs at k = 10..=15, extrapolated by n log n beyond.
        let mut t_fft = vec![0.0f64; MAX_K + 1];
        for k in 10..=15u32 {
            let domain = EvaluationDomain::<Fr>::new(k);
            let mut vals: Vec<Fr> = (0..domain.n).map(|_| Fr::random(&mut rng)).collect();
            let start = Instant::now();
            domain.fft(&mut vals);
            t_fft[k as usize] = start.elapsed().as_secs_f64();
            std::hint::black_box(&vals);
        }
        for k in 0..10usize {
            t_fft[k] = t_fft[10] * (1 << k) as f64 / (1 << 10) as f64;
        }
        for k in 16..=MAX_K {
            // n log n scaling: doubling n slightly more than doubles time.
            t_fft[k] = t_fft[k - 1] * 2.0 * (k as f64) / (k as f64 - 1.0);
        }

        // MSMs at k = 10..=12, extrapolated linearly (Pippenger is ~n/log n
        // but bucket overheads make near-linear a good fit at these sizes).
        let mut t_msm = vec![0.0f64; MAX_K + 1];
        {
            let base = zkml_curves::G1Projective::generator();
            let scalars: Vec<Fr> = (0..(1usize << 12)).map(|_| Fr::random(&mut rng)).collect();
            let points = crate::cost::fixed_base_points(&base, &scalars);
            for k in 10..=12u32 {
                let n = 1usize << k;
                let start = Instant::now();
                let r = zkml_curves::msm(&points[..n], &scalars[..n]);
                t_msm[k as usize] = start.elapsed().as_secs_f64();
                std::hint::black_box(r);
            }
        }
        for k in 0..10usize {
            t_msm[k] = t_msm[10] * (1 << k) as f64 / (1 << 10) as f64;
        }
        for k in 13..=MAX_K {
            t_msm[k] = t_msm[k - 1] * 2.0;
        }

        // Lookup permuted-column construction (sort + multiset match).
        let mut t_lookup = vec![0.0f64; MAX_K + 1];
        for k in 10..=14u32 {
            let n = 1usize << k;
            let vals: Vec<Fr> = (0..n).map(|i| Fr::from_u64((i % 257) as u64)).collect();
            let start = Instant::now();
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            let mut counts = std::collections::BTreeMap::new();
            for v in &sorted {
                *counts.entry(*v).or_insert(0usize) += 1;
            }
            std::hint::black_box(counts.len());
            t_lookup[k as usize] = start.elapsed().as_secs_f64();
        }
        for k in 0..10usize {
            t_lookup[k] = t_lookup[10] * (1 << k) as f64 / (1 << 10) as f64;
        }
        for k in 15..=MAX_K {
            t_lookup[k] = t_lookup[k - 1] * 2.0;
        }

        Self {
            t_fft,
            t_msm,
            t_lookup,
            t_field,
        }
    }

    /// A deterministic calibration table for tests and examples: smooth
    /// synthetic timings with the right growth shape, identical on every
    /// machine and run. Never measured, never persisted.
    pub fn fixture() -> Self {
        Self {
            t_fft: (0..=MAX_K).map(|k| 1e-6 * (1u64 << k) as f64).collect(),
            t_msm: (0..=MAX_K).map(|k| 4e-6 * (1u64 << k) as f64).collect(),
            t_lookup: (0..=MAX_K).map(|k| 5e-7 * (1u64 << k) as f64).collect(),
            t_field: 3e-8,
        }
    }

    /// Serializes the table to a text file, atomically (write to a
    /// temporary sibling, then rename). Floats are stored as `to_bits`
    /// hex so the round-trip is exact.
    pub(crate) fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut body = String::from("zkml-hw-cache-v1\n");
        for row in [&self.t_fft, &self.t_msm, &self.t_lookup] {
            let line: Vec<String> = row
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            body.push_str(&line.join(" "));
            body.push('\n');
        }
        body.push_str(&format!("{:016x}\n", self.t_field.to_bits()));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(body.as_bytes())?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads a table previously written by `save`. Returns
    /// `None` on any anomaly (missing file, wrong header, wrong arity) so
    /// callers fall back to benchmarking.
    pub fn load(path: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "zkml-hw-cache-v1" {
            return None;
        }
        let parse_row = |line: &str| -> Option<Vec<f64>> {
            let vals: Vec<f64> = line
                .split_whitespace()
                .map(|tok| u64::from_str_radix(tok, 16).ok().map(f64::from_bits))
                .collect::<Option<Vec<f64>>>()?;
            (vals.len() == MAX_K + 1).then_some(vals)
        };
        let t_fft = parse_row(lines.next()?)?;
        let t_msm = parse_row(lines.next()?)?;
        let t_lookup = parse_row(lines.next()?)?;
        let t_field = f64::from_bits(u64::from_str_radix(lines.next()?.trim(), 16).ok()?);
        Some(Self {
            t_fft,
            t_msm,
            t_lookup,
            t_field,
        })
    }

    /// The on-disk cache location: `ZKML_HW_CACHE` if set (empty disables
    /// persistence entirely), else a fixed file under the workspace
    /// `target/` directory.
    fn cache_path() -> Option<PathBuf> {
        match std::env::var("ZKML_HW_CACHE") {
            Ok(s) if s.is_empty() => None,
            Ok(s) => Some(PathBuf::from(s)),
            Err(_) => Some(
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/zkml-hw-cache-v1.txt"),
            ),
        }
    }

    /// Returns the cached stats: the disk cache if present, otherwise one
    /// in-process measurement (persisted best-effort for the next
    /// process).
    pub fn cached() -> &'static HardwareStats {
        static STATS: std::sync::OnceLock<HardwareStats> = std::sync::OnceLock::new();
        STATS.get_or_init(|| {
            let path = Self::cache_path();
            if let Some(p) = &path {
                if let Some(stats) = Self::load(p) {
                    return stats;
                }
            }
            let stats = Self::benchmark();
            if let Some(p) = &path {
                let _ = stats.save(p);
            }
            stats
        })
    }
}

/// Generates many multiples of a base point quickly (for MSM calibration).
pub fn fixed_base_points(
    base: &zkml_curves::G1Projective,
    scalars: &[Fr],
) -> Vec<zkml_curves::G1Affine> {
    let proj: Vec<zkml_curves::G1Projective> = scalars
        .iter()
        .enumerate()
        .map(|(i, _)| base.mul_scalar(&Fr::from_u64(2 * i as u64 + 3)))
        .collect();
    zkml_curves::G1Projective::batch_to_affine(&proj)
}

/// A cost estimate for one physical layout.
#[derive(Clone, Copy, Debug)]
pub struct CostEstimate {
    /// Estimated proving time (seconds).
    pub proving_s: f64,
    /// FFT component.
    pub fft_s: f64,
    /// MSM component.
    pub msm_s: f64,
    /// Lookup construction component.
    pub lookup_s: f64,
    /// Residual (quotient evaluation and assorted field work).
    pub residual_s: f64,
    /// Estimated proof size in bytes.
    pub proof_bytes: usize,
}

/// Number of quotient pieces for a degree bound.
pub(crate) fn quotient_pieces(degree: usize) -> usize {
    (degree - 1).next_power_of_two()
}

/// Estimates proving cost for a circuit structure at `2^k` rows (Eq. 1–2).
pub fn estimate(stats: &LayoutStats, k: u32, backend: Backend, hw: &HardwareStats) -> CostEstimate {
    let d = stats.degree.max(3) as f64;
    let n_i = stats.num_instance as f64;
    let n_a = stats.num_advice as f64;
    let n_lk = stats.num_lookups as f64;
    let n_pm = stats.num_perm_columns as f64;

    // Eq. (2): number of base-size FFTs.
    let n_fft = n_i + n_a + n_lk * 3.0 + (n_pm + d - 3.0) / (d - 2.0);
    let n_fft_ext = n_fft + 1.0;
    let k_ext = k as usize
        + (stats.degree.max(3) - 1)
            .next_power_of_two()
            .trailing_zeros() as usize;
    let k_ext = k_ext.min(MAX_K);

    // Eq. (1).
    let fft_s = n_fft * hw.t_fft[k as usize] + n_fft_ext * hw.t_fft[k_ext];

    // MSMs: one per committed polynomial plus the quotient pieces.
    let extra = match backend {
        Backend::Kzg => d - 1.0,
        Backend::Ipa => d,
    };
    let msm_s = (n_fft + extra) * hw.t_msm[k as usize];

    let lookup_s = n_lk * hw.t_lookup[k as usize];

    // Residual: quotient evaluation over the extended domain.
    let residual_s = stats.num_constraints as f64 * (1u64 << k_ext) as f64 * hw.t_field * 4.0
        + n_pm * (1u64 << k) as f64 * hw.t_field;

    // Proof size.
    let z_count = if stats.num_perm_columns == 0 {
        0
    } else {
        stats
            .num_perm_columns
            .div_ceil((stats.degree.max(3) - 2).max(1))
    };
    let commits =
        stats.num_advice + 3 * stats.num_lookups + z_count + quotient_pieces(stats.degree.max(3));
    // Openings: one eval per plan entry; entries approximated from structure
    // (advice + fixed at rot 0, sigmas, 3 per perm-z minus last, 5 per
    // lookup, quotient pieces).
    let evals = stats.num_advice
        + stats.num_fixed
        + stats.num_perm_columns
        + z_count
            .saturating_mul(3)
            .saturating_sub(if z_count > 0 { 1 } else { 0 })
        + 5 * stats.num_lookups
        + quotient_pieces(stats.degree.max(3));
    let opening = match backend {
        Backend::Kzg => 4 * 32,
        Backend::Ipa => 4 * (2 * k as usize * 32 + 32),
    };
    let proof_bytes = 32 * (commits + evals) + opening;

    CostEstimate {
        proving_s: fft_s + msm_s + lookup_s + residual_s,
        fft_s,
        msm_s,
        lookup_s,
        residual_s,
        proof_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_stats() -> LayoutStats {
        LayoutStats {
            rows: 1000,
            num_instance: 1,
            num_advice: 16,
            num_fixed: 12,
            num_lookups: 4,
            num_perm_columns: 18,
            degree: 4,
            num_constraints: 30,
            num_copies: 5000,
            num_committed: 0,
        }
    }

    fn fake_hw() -> HardwareStats {
        HardwareStats::fixture()
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let stats = HardwareStats::fixture();
        let path = std::env::temp_dir().join(format!("zkml-hw-rt-{}.txt", std::process::id()));
        stats.save(&path).unwrap();
        let back = HardwareStats::load(&path).expect("load saved table");
        assert_eq!(stats.t_fft, back.t_fft);
        assert_eq!(stats.t_msm, back.t_msm);
        assert_eq!(stats.t_lookup, back.t_lookup);
        assert_eq!(stats.t_field.to_bits(), back.t_field.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_corrupt_files() {
        let dir = std::env::temp_dir();
        let missing = dir.join(format!("zkml-hw-missing-{}.txt", std::process::id()));
        assert!(HardwareStats::load(&missing).is_none());
        let bad = dir.join(format!("zkml-hw-bad-{}.txt", std::process::id()));
        std::fs::write(&bad, "zkml-hw-cache-v1\n12 34\n").unwrap();
        assert!(HardwareStats::load(&bad).is_none());
        std::fs::write(&bad, "not-a-cache\n").unwrap();
        assert!(HardwareStats::load(&bad).is_none());
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn cost_grows_with_k() {
        let hw = fake_hw();
        let s = toy_stats();
        let c10 = estimate(&s, 10, Backend::Kzg, &hw);
        let c12 = estimate(&s, 12, Backend::Kzg, &hw);
        assert!(c12.proving_s > 2.0 * c10.proving_s);
    }

    #[test]
    fn power_of_two_row_cliff() {
        // The paper: one extra row over a power of two nearly doubles cost.
        let hw = fake_hw();
        let s = toy_stats();
        let at_k = estimate(&s, 11, Backend::Kzg, &hw).proving_s;
        let next_k = estimate(&s, 12, Backend::Kzg, &hw).proving_s;
        assert!(next_k / at_k > 1.8);
    }

    #[test]
    fn lookups_and_columns_increase_cost() {
        let hw = fake_hw();
        let s = toy_stats();
        let mut more_lk = s.clone();
        more_lk.num_lookups += 4;
        assert!(
            estimate(&more_lk, 12, Backend::Kzg, &hw).proving_s
                > estimate(&s, 12, Backend::Kzg, &hw).proving_s
        );
        let mut more_cols = s.clone();
        more_cols.num_advice += 8;
        assert!(
            estimate(&more_cols, 12, Backend::Kzg, &hw).proving_s
                > estimate(&s, 12, Backend::Kzg, &hw).proving_s
        );
    }

    #[test]
    fn ipa_proofs_larger_than_kzg() {
        let hw = fake_hw();
        let s = toy_stats();
        let kzg = estimate(&s, 12, Backend::Kzg, &hw);
        let ipa = estimate(&s, 12, Backend::Ipa, &hw);
        assert!(ipa.proof_bytes > kzg.proof_bytes);
    }
}
