//! Static-analyzer enrollment: the whole gadget zoo must prove
//! deterministic, the planted `toy_missing_selector` bug must be flagged
//! with exactly its two known free cells, and every layout the optimizer
//! sweep evaluates for the example models — not just the winner — must
//! analyze clean before anything is proven.

use std::collections::BTreeSet;
use std::time::Instant;
use zkml::{HardwareStats, OptimizerOptions};
use zkml_analyze::FreeReason;
use zkml_pcs::Backend;
use zkml_plonk::Column;
use zkml_testkit::mutate_compiled;
use zkml_testkit::{compile_case, toy_case, zoo};

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
