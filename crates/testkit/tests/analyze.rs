//! Static-analyzer enrollment: the whole gadget zoo must prove
//! deterministic, the planted `toy_missing_selector` bug must be flagged
//! with exactly its two known free cells, and every layout the optimizer
//! sweep evaluates for the example models — not just the winner — must
//! analyze clean before anything is proven.

use std::collections::BTreeSet;
use std::time::Instant;
use zkml::{AValue, BuildError, CircuitBuilder, HardwareStats, OptimizerOptions, ZkmlError};
use zkml_analyze::{FreeCell, FreeReason};
use zkml_pcs::Backend;
use zkml_plonk::{Column, Expression, Rotation};
use zkml_testkit::mutate_compiled;
use zkml_testkit::{compile_case, fixture_circuit, toy_case, zoo};

/// Column counts swept for each gadget (matches the soundness harness).
const SIZES: [usize; 3] = [8, 12, 16];

#[test]
fn zoo_analyzes_clean() {
    let cases = zoo();
    assert_eq!(
        cases.len(),
        15,
        "zoo changed size; update the analyzer sweep"
    );
    for case in &cases {
        for &num_cols in &SIZES {
            if num_cols < case.min_cols {
                continue;
            }
            let compiled = compile_case(case, num_cols)
                .unwrap_or_else(|e| panic!("{} @ {num_cols} cols: compile failed: {e}", case.name));
            let report = compiled.analyze();
            assert!(
                report.is_clean(),
                "{} @ {num_cols} cols: analyzer found free cells:\n{report}",
                case.name
            );
            assert!(report.cells_checked > 0, "{}: nothing checked", case.name);
            compiled
                .ensure_determined()
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        }
    }
}

#[test]
fn toy_missing_selector_flagged_with_exactly_two_free_cells() {
    let case = toy_case();
    let compiled = compile_case(&case, 8).expect("toy compiles");
    let report = compiled.analyze();
    // The two summands live in their load_values home cells (grid columns
    // 0 and 1 of row 0) and nothing ever binds them; the output cell is
    // pinned by its copy into the instance column.
    assert_eq!(
        report.free.len(),
        2,
        "expected exactly the two unbound inputs:\n{report}"
    );
    for (free, col) in report.free.iter().zip([0usize, 1]) {
        assert_eq!(free.column, Column::Advice(col));
        assert_eq!(free.row, 0);
        assert_eq!(free.reason, FreeReason::UnboundInput);
        assert_eq!(free.region.as_deref(), Some("inputs"));
    }
    let err = compiled.ensure_determined().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("underconstrained"), "{msg}");
    assert!(msg.contains("2 free cell"), "{msg}");
}

/// The static analyzer (no witness, pure constraint reasoning) and the
/// dynamic mutation sweep (perturb each assigned cell of a satisfied
/// witness and watch the checker) are independent detectors of the same
/// defect, so on the planted fixture they must name the same cells.
#[test]
fn static_and_dynamic_analyses_agree_on_the_toy_fixture() {
    let case = toy_case();
    let compiled = compile_case(&case, 8).expect("toy compiles");

    let static_free: BTreeSet<(Column, usize)> = compiled
        .analyze()
        .free
        .iter()
        .map(|f| (f.column, f.row))
        .collect();

    let mutation = mutate_compiled(case.name, 8, &compiled).expect("baseline satisfied");
    let dynamic_free: BTreeSet<(Column, usize)> = mutation
        .survivor_cells
        .iter()
        .map(|c| (c.column, c.row))
        .collect();

    assert_eq!(
        static_free, dynamic_free,
        "static analyzer and mutation sweep disagree on the free cells"
    );
    assert_eq!(static_free.len(), 2, "fixture has exactly two free cells");
}

/// The tentpole guarantee for models: every candidate layout the
/// optimizer evaluated (all column counts, all gadget mixes) must be
/// fully determined, so a layout bug cannot hide in a candidate the cost
/// model happened to reject. Also enforces the check.sh time budget.
#[test]
fn optimizer_layouts_analyze_clean_for_example_models() {
    let start = Instant::now();
    let hw = HardwareStats::fixture();
    for name in ["mnist", "dlrm"] {
        let g = zkml_model::zoo::by_name(name).expect("model exists");
        let inputs = zkml::zero_inputs(&g);
        let mut opts = OptimizerOptions::new(Backend::Kzg, 14);
        // Keep the sweep representative but bounded: the full candidate
        // set at a narrower column range still crosses every gadget mix.
        // Exhaustive, so every layout in the range is analyzed, not only
        // the plateau edges the search would place.
        opts.n_cols_range = (8, 20);
        opts.prune = false;
        let report = zkml::optimize(&g, &inputs, &opts, &hw).expect("optimizer finds a layout");
        let analyses = report
            .analyze_all_layouts()
            .unwrap_or_else(|e| panic!("{name}: candidate analysis failed: {e}"));
        assert!(!analyses.is_empty(), "{name}: no layouts analyzed");
        for (cfg, analysis) in &analyses {
            assert!(
                analysis.is_clean(),
                "{name}: layout {:?} @ {} cols underconstrained:\n{analysis}",
                cfg.choices,
                cfg.num_cols
            );
        }
        eprintln!(
            "{name}: {} candidate layouts analyzed clean in {:?}",
            analyses.len(),
            start.elapsed()
        );
    }
    assert!(
        start.elapsed().as_secs() < 30,
        "candidate-layout analysis exceeded the 30s budget: {:?}",
        start.elapsed()
    );
}

/// The verdict of every zoo model at its fixture layout, pinned: a change to
/// the engine that is meant to save work only must not move any of these.
#[test]
fn zoo_model_verdicts_are_golden() {
    // (model, cells_checked, inputs_checked, rounds)
    let golden = [
        ("GPT-2", 75840, 3072, 3),
        ("Diffusion", 84000, 2576, 3),
        ("Twitter", 29397, 32, 2),
        ("DLRM", 10050, 64, 2),
        ("MobileNet", 132514, 4176, 3),
        ("ResNet-18", 328853, 9258, 3),
        ("VGG16", 189190, 4506, 3),
        ("MNIST", 27572, 854, 3),
    ];
    let mut got = Vec::new();
    for g in zkml_model::zoo::all_models() {
        let compiled = fixture_circuit(&g);
        let report = compiled.analyze();
        assert!(report.is_clean(), "{}: {report}", g.name);
        // One table per distinct table list, however many lookups share it.
        let mut tables: Vec<&Vec<Expression>> = Vec::new();
        for lk in &compiled.cs.lookups {
            if !tables.contains(&&lk.table) {
                tables.push(&lk.table);
            }
        }
        assert_eq!(report.tables, tables.len(), "{}: tables built", g.name);
        got.push((
            g.name.clone(),
            report.cells_checked,
            report.inputs_checked,
            report.rounds,
        ));
    }
    let got: Vec<(&str, usize, usize, usize)> = got
        .iter()
        .map(|(n, c, i, r)| (n.as_str(), *c, *i, *r))
        .collect();
    assert_eq!(got, golden);
}

/// The planted fixture's free list, every field of every cell.
#[test]
fn toy_free_list_is_golden() {
    let compiled = compile_case(&toy_case(), 8).expect("toy compiles");
    let report = compiled.analyze();
    let cell = |col| FreeCell {
        gadget: None,
        region: Some("inputs".to_string()),
        column: Column::Advice(col),
        row: 0,
        reason: FreeReason::UnboundInput,
    };
    assert_eq!(report.free, vec![cell(0), cell(1)]);
    assert_eq!(
        (report.cells_checked, report.inputs_checked, report.rounds),
        (0, 3, 1)
    );
}

/// The work one analysis of MNIST does, counted: constraints are evaluated
/// only on rows where their selector is on, and the one table its lookups
/// share is built once.
#[test]
fn mnist_analysis_work_is_pinned() {
    let g = zkml_model::zoo::by_name("mnist").expect("model exists");
    let report = fixture_circuit(&g).analyze();
    assert_eq!((report.evaluations, report.tables), (14_124, 1));
}

/// 4 096 loaded values under a gate whose selector is never set: every
/// input is free.
fn dead_selector_wide(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let q = Expression::Fixed(bld.cs.fixed_column(), Rotation::cur());
    let a = |c| Expression::Advice(c, Rotation::cur());
    bld.cs
        .create_gate("dead_add", vec![q * (a(0) + a(1) - a(2))]);
    let values: Vec<i64> = (0..4096).collect();
    let vals = bld.load_values(&values);
    Ok(vec![vals[0]])
}

/// `ensure_determined`'s error becomes a service error message, a journal
/// line and an HTTP body, so it names a bounded number of cells however
/// many are free; `analyze` still lists them all.
#[test]
fn underconstrained_detail_is_bounded() {
    let mut case = toy_case();
    case.name = "dead_selector_wide";
    case.build = dead_selector_wide;
    let compiled = compile_case(&case, 8).expect("compiles");
    let free = compiled.analyze().free.len();
    assert!(free >= 4_000, "{free} free cells");
    let Err(ZkmlError::Underconstrained { free_cells, detail }) = compiled.ensure_determined()
    else {
        panic!("expected an underconstrained circuit");
    };
    assert_eq!(free_cells, free);
    let lines: Vec<&str> = detail.lines().collect();
    assert_eq!(lines.len(), 1 + 16 + 1, "{detail}");
    assert!(
        lines[0].starts_with(&format!("{free} free cell(s)")),
        "{detail}"
    );
    assert_eq!(lines[17], format!("  … and {} more", free - 16));
    assert!(detail.len() < 4096, "{} bytes", detail.len());
}
