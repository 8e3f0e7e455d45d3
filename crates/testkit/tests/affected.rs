//! Equivalence of the incremental and exhaustive mock checkers.
//!
//! The mutation harness leans on `MockProver::check_affected` to keep the
//! per-cell sweep subquadratic; that is only sound if, starting from a
//! satisfied witness, a single-cell mutation can never trip a constraint
//! outside the cell's rotation/copy neighbourhood. This suite mutates
//! random cells with random deltas and requires the incremental checker to
//! report *exactly* the failures a full `verify()` finds — same failures,
//! same multiplicities.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkml_ff::{Fr, PrimeField};
use zkml_testkit::{compile_case, toy_case, zoo};

/// Sorted multiset of failure descriptions; `VerifyFailure` carries field
/// values and has no `Ord`, so the canonical form is its Debug rendering.
fn failure_multiset(fails: Vec<zkml_plonk::VerifyFailure>) -> Vec<String> {
    let mut v: Vec<String> = fails.iter().map(|f| format!("{f:?}")).collect();
    v.sort();
    v
}

fn check_case_equivalence(name: &str, num_cols: usize, mutations: usize, seed: u64) {
    let case_list = zoo();
    let compiled = if name == "toy_missing_selector" {
        compile_case(&toy_case(), num_cols).unwrap()
    } else {
        let case = case_list
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("case {name} not in zoo"));
        compile_case(case, num_cols.max(case.min_cols)).unwrap()
    };
    let mut mock = compiled.mock().unwrap();
    assert!(mock.is_satisfied(), "{name}: baseline must be satisfied");

    let cells = compiled.assigned_cells();
    assert!(!cells.is_empty(), "{name}: no assigned cells");
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..mutations {
        let cell = cells[rng.gen_range(0..cells.len())];
        let orig = mock.cell(cell);
        // Random non-zero delta, occasionally huge to cross lookup ranges.
        let delta = if rng.gen_bool(0.2) {
            Fr::from_u64(rng.gen_range(1u64 << 40..1u64 << 60))
        } else {
            Fr::from_u64(rng.gen_range(1..1_000))
        };
        mock.set_cell(cell, orig + delta);

        let incremental = failure_multiset(mock.check_affected(cell));
        let full = failure_multiset(mock.verify().err().unwrap_or_default());
        assert_eq!(
            incremental, full,
            "{name}: check_affected({cell:?}) disagrees with full verify()"
        );

        mock.set_cell(cell, orig);
    }
    assert!(mock.is_satisfied(), "{name}: mutations were not restored");
}

#[test]
fn check_affected_matches_full_verify_under_random_mutations() {
    // One representative per constraint family: plain gates, lookups, bit
    // decomposition, max (range lookups + product gates), multi-phase
    // challenges, and the deliberately underconstrained fixture (where
    // both checkers must agree the mutation is *invisible*).
    for (name, seed) in [
        ("add_pack", 11u64),
        ("relu_lookup", 12),
        ("relu_bit_decompose", 13),
        ("max_tree", 14),
        ("freivalds_matmul", 15),
        ("toy_missing_selector", 16),
    ] {
        check_case_equivalence(name, 8, 25, seed);
    }
}

#[test]
fn check_affected_matches_full_verify_across_column_counts() {
    // Same property at a wider grid, where rotation windows and copy
    // neighbourhoods land on different physical rows.
    for (name, seed) in [("dot_bias_chain", 21u64), ("div_round_rescale", 22)] {
        check_case_equivalence(name, 12, 25, seed);
    }
}
