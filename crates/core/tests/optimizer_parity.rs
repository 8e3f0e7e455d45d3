//! Determinism and single-lowering guarantees of the plan-driven optimizer:
//! the parallel plateau-edge search picks the exhaustive sweep's winner,
//! bit-identical at any thread count, for either objective and backend;
//! `lower_graph` runs exactly once per `optimize()`; and the winning plan
//! synthesizes into a circuit that satisfies the constraint checker
//! and a real KZG prove/verify round-trip.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use zkml::cost::HardwareStats;
use zkml::layers::lower_graph;
use zkml::{
    cut_schedule, optimize_schedule, schedules_built, LayoutChoices, Objective, OpSchedule,
    OptimizerOptions, SegmentPlan,
};
use zkml_par::{with_pool, Pool};
use zkml_pcs::{Backend, Params};

/// The global schedule counter is process-wide, so every test that reads it
/// (or that compares sweep outputs across pool sizes) runs under this lock
/// to keep the counter arithmetic and thread-pool overrides race-free.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_zoo() -> Vec<zkml_model::Graph> {
    vec![
        zkml_model::zoo::mnist_cnn(),
        zkml_model::zoo::dlrm(),
        zkml_model::zoo::twitter_masknet(),
    ]
}

fn opts() -> OptimizerOptions {
    OptimizerOptions::new(Backend::Kzg, 15)
}

#[test]
fn lower_graph_runs_exactly_once_per_optimize() {
    let _guard = lock();
    let hw = HardwareStats::fixture();
    for g in small_zoo() {
        let inputs = zkml::zero_inputs(&g);
        let before = schedules_built();
        let report = zkml::optimize(&g, &inputs, &opts(), &hw).expect("optimize");
        assert_eq!(
            schedules_built(),
            before + 1,
            "{}: optimize() must lower the graph exactly once, \
             regardless of how many candidates it sweeps",
            g.name
        );
        assert!(report.evaluated > 1, "sweep should cover many candidates");
        // Synthesizing the winner replays the stored schedule — no second
        // lowering.
        let before = schedules_built();
        let compiled = report.synthesize_best().expect("synthesize");
        assert_eq!(
            schedules_built(),
            before,
            "{}: synthesize_best() must reuse the schedule, not re-lower",
            g.name
        );
        assert_eq!(compiled.k, report.best_k);
    }
}

/// The three small zoo models plus the three segments of MNIST cut by
/// `SegmentPlan::balanced(_, 3)`, as (label, schedule).
fn small_schedules() -> Vec<(String, OpSchedule)> {
    let mut out = Vec::new();
    for g in small_zoo() {
        let inputs = zkml::zero_inputs(&g);
        let sched = lower_graph(&g, &inputs, opts().numeric);
        if g.name == "MNIST" {
            let plan = SegmentPlan::balanced(&sched, 3);
            let segments = cut_schedule(&sched, &plan).expect("cut MNIST");
            for (i, seg) in segments.into_iter().enumerate() {
                out.push((format!("MNIST segment {i}"), seg.schedule));
            }
        }
        out.push((g.name.clone(), sched));
    }
    out
}

#[test]
fn parallel_sweep_matches_serial_exhaustive_sweep() {
    let _guard = lock();
    let hw = HardwareStats::fixture();
    let points = LayoutChoices::candidates().len() * {
        let (lo, hi) = opts().n_cols_range;
        hi + 1 - lo
    };
    for (name, sched) in small_schedules() {
        for (objective, backend) in [
            (Objective::ProvingTime, Backend::Kzg),
            (Objective::ProofSize, Backend::Kzg),
            (Objective::ProvingTime, Backend::Ipa),
        ] {
            let mut searched = OptimizerOptions::new(backend, 15);
            searched.objective = objective;
            let label = format!("{name} ({objective:?}, {backend:?})");
            // Ground truth: serial, exhaustive (no pruning) sweep.
            let mut exhaustive = searched.clone();
            exhaustive.prune = false;
            let serial = with_pool(&Pool::new(1), || {
                optimize_schedule(sched.clone(), &exhaustive, &hw)
            })
            .expect("serial exhaustive optimize");
            assert_eq!((serial.evaluated, serial.pruned), (points, 0), "{label}");
            // The plateau-edge search at 1, 2 and the default thread count
            // must pick the same winner — same config, same k, same cost,
            // same plan bytes — and count every point exactly once.
            for threads in [Some(1usize), Some(2), None] {
                let run = || optimize_schedule(sched.clone(), &searched, &hw);
                let report = match threads {
                    Some(n) => with_pool(&Pool::new(n), run),
                    None => run(),
                }
                .expect("optimize");
                let at = threads.map_or("default".into(), |n| n.to_string());
                assert_eq!(
                    report.best, serial.best,
                    "{label} @ {at} threads: winner config diverged"
                );
                assert_eq!(report.best_k, serial.best_k, "{label} @ {at}");
                assert_eq!(
                    report.best_cost.proving_s.to_bits(),
                    serial.best_cost.proving_s.to_bits(),
                    "{label} @ {at}"
                );
                assert_eq!(
                    report.best_plan.digest(),
                    serial.best_plan.digest(),
                    "{label} @ {at} threads: winning plan bytes diverged"
                );
                assert_eq!(report.evaluated + report.pruned, points, "{label} @ {at}");
                if name == "MNIST" && objective == Objective::ProvingTime && backend == Backend::Kzg
                {
                    // The search's work, pinned: a change to it shows here.
                    assert_eq!(
                        (report.evaluated, report.pruned),
                        (163, 629),
                        "{label} @ {at}"
                    );
                }
            }
        }
    }
}

#[test]
fn winning_plan_synthesizes_and_proves() {
    let _guard = lock();
    let hw = HardwareStats::fixture();
    let g = zkml_model::zoo::mnist_cnn();
    let inputs = zkml::zero_inputs(&g);
    let report = zkml::optimize(&g, &inputs, &opts(), &hw).expect("optimize");
    let compiled = report.synthesize_best().expect("synthesize");
    assert_eq!(compiled.circuit_digest(), report.best_plan.digest());
    // Row-exact constraint check.
    let mock = compiled.mock().expect("mock synthesis");
    mock.verify().expect("mock constraints violated");
    // Real KZG round-trip on the planned circuit.
    let mut rng = StdRng::seed_from_u64(17);
    let params = Params::setup(Backend::Kzg, compiled.k, &mut rng);
    let pk = compiled.keygen(&params).expect("keygen");
    let proof = compiled.prove(&params, &pk, &mut rng).expect("prove");
    compiled.verify(&params, &pk.vk, &proof).expect("verify");
}
