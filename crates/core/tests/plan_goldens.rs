//! Layout-plan goldens: every point of the exhaustive layout sweep (24
//! candidate layouts × columns 8..=40) of the eight zoo models and of the
//! three segments of MNIST's balanced 3-way cut, placed and compared with
//! digests recorded before placement was reimplemented.
//!
//! Each point records either the placement error or the plan's `k`,
//! [`zkml::LayoutPlan::stats`] and [`zkml::LayoutPlan::digest`]; the points
//! of one (schedule, candidate) pair hash to one checked-in digest, so a
//! mismatch names the schedule and layout it happened at. Regenerate with
//! `ZKML_REGEN_GOLDEN=1` only for a deliberate change of circuit layout.
//! Each schedule's count of distinct op shapes — what a placement walks —
//! is pinned too.

use std::fmt::Write as _;
use std::path::PathBuf;
use zkml::{
    cut_schedule, place, zero_inputs, CircuitConfig, LayoutChoices, NumericConfig, OpSchedule,
    SegmentPlan,
};

const COLUMNS: std::ops::RangeInclusive<usize> = 8..=40;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plan_digests.txt")
}

/// The swept schedules: each zoo model, then MNIST's three segments.
fn schedules() -> Vec<(String, OpSchedule)> {
    let numeric = NumericConfig::default_nano();
    let mut out: Vec<(String, OpSchedule)> = zkml_model::zoo::all_models()
        .iter()
        .map(|g| {
            let sched = zkml::layers::lower_graph(g, &zero_inputs(g), numeric);
            (g.name.clone(), sched)
        })
        .collect();
    let mnist = out
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("mnist"))
        .expect("MNIST is in the zoo")
        .1
        .clone();
    let segments = cut_schedule(&mnist, &SegmentPlan::balanced(&mnist, 3)).unwrap();
    assert_eq!(segments.len(), 3, "MNIST's balanced cut has three segments");
    for (i, seg) in segments.into_iter().enumerate() {
        out.push((format!("MNIST-seg{i}"), seg.schedule));
    }
    out
}

/// The digest of one candidate's column sweep over `sched`.
fn sweep_digest(sched: &OpSchedule, choices: LayoutChoices) -> String {
    let mut points = String::new();
    for num_cols in COLUMNS {
        let cfg = CircuitConfig {
            choices,
            num_cols,
            numeric: sched.numeric,
        };
        match place(sched, cfg) {
            Ok(plan) => {
                let digest: String = plan.digest().iter().map(|b| format!("{b:02x}")).collect();
                writeln!(points, "{num_cols} {} {:?} {digest}", plan.k, plan.stats).unwrap();
            }
            Err(e) => writeln!(points, "{num_cols} err {e}").unwrap(),
        }
    }
    let h = zkml_transcript::Blake2b::digest(points.as_bytes());
    h[..8].iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_exhaustive_sweep_point_matches_its_golden_plan() {
    let schedules = schedules();
    let candidates = LayoutChoices::candidates();
    let jobs: Vec<(usize, usize)> = (0..schedules.len())
        .flat_map(|s| (0..candidates.len()).map(move |c| (s, c)))
        .collect();
    let digests = zkml_par::par_map(jobs.len(), |j| {
        let (s, c) = jobs[j];
        sweep_digest(&schedules[s].1, candidates[c])
    });
    let mut actual = String::new();
    for ((s, c), d) in jobs.iter().zip(&digests) {
        writeln!(actual, "{} {c} {d}", schedules[*s].0).unwrap();
    }

    let path = golden_path();
    if std::env::var("ZKML_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {path:?}; generate it with ZKML_REGEN_GOLDEN=1")
    });
    let mismatches: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| {
            let c: usize = e.split(' ').nth(1).unwrap().parse().unwrap();
            format!("{e} (now {a}): {:?}", candidates[c])
        })
        .collect();
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "point set changed"
    );
    assert!(
        mismatches.is_empty(),
        "{} sweep(s) place differently:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// A placement costs one step per distinct op shape, so these counts, not
/// the op counts beside them, bound the optimizer's per-layout work.
#[test]
fn zoo_schedules_have_few_distinct_shapes() {
    let expected = [
        ("GPT-2", 713, 37),
        ("Diffusion", 180, 36),
        ("Twitter", 92, 35),
        ("DLRM", 29, 24),
        ("MobileNet", 1438, 58),
        ("ResNet-18", 223, 42),
        ("VGG16", 940, 40),
        ("MNIST", 16, 16),
        ("MNIST-seg0", 10, 10),
        ("MNIST-seg1", 2, 2),
        ("MNIST-seg2", 6, 6),
    ];
    let actual: Vec<(String, usize, usize)> = schedules()
        .iter()
        .map(|(name, s)| (name.clone(), s.num_ops(), s.num_shapes()))
        .collect();
    let expected: Vec<(String, usize, usize)> = expected
        .iter()
        .map(|(name, ops, shapes)| (name.to_string(), *ops, *shapes))
        .collect();
    assert_eq!(actual, expected, "(schedule, ops, distinct shapes)");
}
