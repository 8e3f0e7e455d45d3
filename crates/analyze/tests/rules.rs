//! Rule-level tests for the deterministic-cell engine on hand-built
//! constraint systems, independent of the ZKML compiler.

use zkml_analyze::{analyze, AnalysisInput, FreeReason, RegionSpan};
use zkml_ff::{Fr, PrimeField};
use zkml_plonk::{CellRef, Column, ConstraintSystem, Expression, Preprocessed, Rotation};

fn f(v: u64) -> Fr {
    Fr::from_u64(v)
}

fn adv(i: usize) -> Expression {
    Expression::Advice(i, Rotation::cur())
}

fn fx(i: usize) -> Expression {
    Expression::Fixed(i, Rotation::cur())
}

fn cell(col: usize, row: usize) -> CellRef {
    CellRef {
        column: Column::Advice(col),
        row,
    }
}

/// `assigned` defaults to "rows 0..rows of every advice column".
fn run(
    cs: &ConstraintSystem,
    pre: &Preprocessed,
    k: u32,
    rows: usize,
    inputs: &[CellRef],
) -> zkml_analyze::AnalysisReport {
    let assigned: Vec<CellRef> = (0..cs.num_advice)
        .flat_map(|c| (0..rows).map(move |r| cell(c, r)))
        .collect();
    analyze(&AnalysisInput {
        cs,
        pre,
        k,
        assigned: &assigned,
        inputs,
        regions: &[],
    })
}

/// Unique-unknown linear rule: `q * (a0 + a1 - a2) = 0` with a0, a1 as
/// inputs determines a2 on selector rows, and chains across rows through
/// copies.
#[test]
fn linear_chain_determines() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a0 = cs.advice_column(0);
    let a1 = cs.advice_column(0);
    let a2 = cs.advice_column(0);
    for c in [a0, a1, a2] {
        cs.enable_equality(Column::Advice(c));
    }
    cs.create_gate("add", vec![fx(q) * (adv(a0) + adv(a1) - adv(a2))]);
    let k = 4;
    let rows = 3usize;
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ONE; rows]],
        // Row i+1 consumes row i's sum: a0[i+1] = a2[i].
        copies: vec![(cell(a2, 0), cell(a0, 1)), (cell(a2, 1), cell(a0, 2))],
    };
    let inputs = [cell(a0, 0), cell(a1, 0), cell(a1, 1), cell(a1, 2)];
    let report = run(&cs, &pre, k, rows, &inputs);
    assert!(report.is_clean(), "{report}");
}

/// The same circuit with the selector column left all-zero: the gate
/// partially evaluates to a constant everywhere, so the inputs are never
/// bound and the outputs are never determined.
#[test]
fn dead_selector_frees_everything() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a0 = cs.advice_column(0);
    let a1 = cs.advice_column(0);
    let a2 = cs.advice_column(0);
    cs.create_gate("add", vec![fx(q) * (adv(a0) + adv(a1) - adv(a2))]);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ZERO; 1]],
        copies: vec![],
    };
    let inputs = [cell(a0, 0), cell(a1, 0)];
    let report = run(&cs, &pre, 4, 1, &inputs);
    assert_eq!(report.free.len(), 3, "{report}");
    assert!(report
        .free
        .iter()
        .any(|fc| fc.column == Column::Advice(a0) && fc.reason == FreeReason::UnboundInput));
    assert!(report
        .free
        .iter()
        .any(|fc| fc.column == Column::Advice(a2) && fc.reason == FreeReason::NotDetermined));
}

/// Booleanity + bit recomposition: `b*(b-1) = 0` per bit plus
/// `x = Σ 2^i b_i` determines every bit from the input.
#[test]
fn bit_decomposition_determines() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let x = cs.advice_column(0);
    let bits: Vec<usize> = (0..4).map(|_| cs.advice_column(0)).collect();
    let mut polys = Vec::new();
    for &b in &bits {
        polys.push(fx(q) * (adv(b) * (adv(b) - Expression::Constant(Fr::ONE))));
    }
    let mut recompose = -adv(x);
    for (i, &b) in bits.iter().enumerate() {
        recompose = recompose + adv(b) * f(1 << i);
    }
    polys.push(fx(q) * recompose);
    cs.create_gate("bits", polys);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ONE; 1]],
        copies: vec![],
    };
    let inputs = [cell(x, 0)];
    let report = run(&cs, &pre, 4, 1, &inputs);
    assert!(report.is_clean(), "{report}");
}

/// Without the booleanity constraints the recomposition alone leaves the
/// bits free (many decompositions satisfy one linear equation).
#[test]
fn recomposition_without_booleanity_is_flagged() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let x = cs.advice_column(0);
    let bits: Vec<usize> = (0..4).map(|_| cs.advice_column(0)).collect();
    let mut recompose = -adv(x);
    for (i, &b) in bits.iter().enumerate() {
        recompose = recompose + adv(b) * f(1 << i);
    }
    cs.create_gate("bits", vec![fx(q) * recompose]);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ONE; 1]],
        copies: vec![],
    };
    let inputs = [cell(x, 0)];
    let report = run(&cs, &pre, 4, 1, &inputs);
    assert_eq!(report.free.len(), 4, "{report}");
    assert!(report
        .free
        .iter()
        .all(|fc| fc.reason == FreeReason::NotDetermined));
}

/// Root sets are compared as fractions, so scaled factors behave like
/// unit ones: `2b·(3b − 3)` still has the roots {0, 1}, `(2u − 6)(5u − 15)`
/// has the single root 3 and pins `u`, `(2u − 4)(5u − 15)` has two roots
/// outside {0, 1} and leaves `u` free.
#[test]
fn root_sets_with_scaled_factors() {
    let c = Expression::Constant;
    let gate_on = |polys: Vec<Expression>, advice: usize, inputs: &[CellRef]| {
        let mut cs = ConstraintSystem::new();
        let q = cs.fixed_column();
        for _ in 0..advice {
            cs.advice_column(0);
        }
        cs.create_gate("g", polys.into_iter().map(|p| fx(q) * p).collect());
        let pre = Preprocessed {
            committed: Vec::new(),
            fixed: vec![vec![Fr::ONE; 1]],
            copies: vec![],
        };
        run(&cs, &pre, 4, 1, inputs)
    };

    // Advice 0 is x, 1..=3 its bits.
    let mut polys: Vec<Expression> = (1..=3)
        .map(|b| (adv(b) * f(2)) * (adv(b) * f(3) - c(f(3))))
        .collect();
    polys.push(adv(1) + adv(2) * f(2) + adv(3) * f(4) - adv(0));
    let report = gate_on(polys, 4, &[cell(0, 0)]);
    assert!(report.is_clean(), "{report}");

    let single = (adv(0) * f(2) - c(f(6))) * (adv(0) * f(5) - c(f(15)));
    let report = gate_on(vec![single], 1, &[]);
    assert!(report.is_clean(), "{report}");

    let double = (adv(0) * f(2) - c(f(4))) * (adv(0) * f(5) - c(f(15)));
    let report = gate_on(vec![double], 1, &[]);
    assert_eq!(report.free.len(), 1, "{report}");
}

/// A row that depends on a later row is revisited; rows with nothing left
/// to deduce are skipped without changing the verdict or the round count.
/// Row 0 adds an input to row 1's sum, so it resolves one round after row 1.
#[test]
fn backward_dependency_takes_another_round() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a0 = cs.advice_column(0);
    let a1 = cs.advice_column(0);
    let a2 = cs.advice_column(0);
    for col in [a0, a1, a2] {
        cs.enable_equality(Column::Advice(col));
    }
    cs.create_gate("add", vec![fx(q) * (adv(a0) + adv(a1) - adv(a2))]);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ONE; 2]],
        copies: vec![(cell(a2, 1), cell(a0, 0))],
    };
    let inputs = [cell(a1, 0), cell(a0, 1), cell(a1, 1)];
    let report = run(&cs, &pre, 4, 2, &inputs);
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        report.rounds, 3,
        "row 1, then row 0, then a round of nothing"
    );
}

/// Quotient/remainder: `x - d*quot - rem = 0` with `rem` range-checked via
/// a contiguous lookup table determines both unknowns.
#[test]
fn divmod_with_range_lookup_determines() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let table = cs.fixed_column();
    let x = cs.advice_column(0);
    let quot = cs.advice_column(0);
    let rem = cs.advice_column(0);
    let d = f(8);
    cs.create_gate("divmod", vec![fx(q) * (adv(x) - adv(quot) * d - adv(rem))]);
    cs.create_lookup("range", vec![fx(q) * adv(rem)], vec![fx(table)]);
    let k = 4u32;
    let n = 1usize << k;
    let usable = cs.usable_rows(n);
    // Table holds {0..7}; remaining usable rows repeat 0 (contiguous set).
    let table_vals: Vec<Fr> = (0..usable).map(|i| f((i % 8) as u64)).collect();
    let mut sel = vec![Fr::ZERO; usable];
    sel[0] = Fr::ONE;
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![sel, table_vals],
        copies: vec![],
    };
    let inputs = [cell(x, 0)];
    let report = run(&cs, &pre, k, 1, &inputs);
    assert!(report.is_clean(), "{report}");
}

/// Functional lookup: a 2-column fixed table mapping key -> value
/// determines the output cell once the key cell is known.
#[test]
fn functional_lookup_determines() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let tk = cs.fixed_column();
    let tv = cs.fixed_column();
    let x = cs.advice_column(0);
    let y = cs.advice_column(0);
    cs.create_lookup(
        "nonlin",
        vec![fx(q) * adv(x), fx(q) * adv(y)],
        vec![fx(tk), fx(tv)],
    );
    let k = 4u32;
    let n = 1usize << k;
    let usable = cs.usable_rows(n);
    let keys: Vec<Fr> = (0..usable).map(|i| f(i as u64)).collect();
    let vals: Vec<Fr> = (0..usable).map(|i| f((i * i) as u64)).collect();
    let mut sel = vec![Fr::ZERO; usable];
    sel[0] = Fr::ONE;
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![sel, keys, vals],
        copies: vec![],
    };
    let inputs = [cell(x, 0)];
    let report = run(&cs, &pre, k, 1, &inputs);
    assert!(report.is_clean(), "{report}");
}

/// A *non*-functional table (two rows share a key with different values)
/// must NOT determine the output.
#[test]
fn ambiguous_lookup_is_flagged() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let tk = cs.fixed_column();
    let tv = cs.fixed_column();
    let x = cs.advice_column(0);
    let y = cs.advice_column(0);
    cs.create_lookup(
        "multi",
        vec![fx(q) * adv(x), fx(q) * adv(y)],
        vec![fx(tk), fx(tv)],
    );
    let k = 4u32;
    let n = 1usize << k;
    let usable = cs.usable_rows(n);
    // Key 0 maps to both 0 and 1: a cheating prover can pick either.
    let keys = vec![Fr::ZERO; usable];
    let vals: Vec<Fr> = (0..usable).map(|i| f((i % 2) as u64)).collect();
    let mut sel = vec![Fr::ZERO; usable];
    sel[0] = Fr::ONE;
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![sel, keys, vals],
        copies: vec![],
    };
    let inputs = [cell(x, 0)];
    let report = run(&cs, &pre, k, 1, &inputs);
    assert_eq!(report.free.len(), 1, "{report}");
    assert_eq!(report.free[0].column, Column::Advice(y));
    assert_eq!(report.free[0].reason, FreeReason::NotDetermined);
}

/// Max pattern: `(m - a)(m - b) = 0` with both `m - a` and `m - b`
/// range-checked on the row pins `m` to the larger of the two.
#[test]
fn max_pattern_determines() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let table = cs.fixed_column();
    let a = cs.advice_column(0);
    let b = cs.advice_column(0);
    let m = cs.advice_column(0);
    cs.create_gate("max", vec![fx(q) * ((adv(m) - adv(a)) * (adv(m) - adv(b)))]);
    cs.create_lookup("range_a", vec![fx(q) * (adv(m) - adv(a))], vec![fx(table)]);
    cs.create_lookup("range_b", vec![fx(q) * (adv(m) - adv(b))], vec![fx(table)]);
    let k = 4u32;
    let n = 1usize << k;
    let usable = cs.usable_rows(n);
    let table_vals: Vec<Fr> = (0..usable).map(|i| f((i % 8) as u64)).collect();
    let mut sel = vec![Fr::ZERO; usable];
    sel[0] = Fr::ONE;
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![sel, table_vals],
        copies: vec![],
    };
    let inputs = [cell(a, 0), cell(b, 0)];
    let report = run(&cs, &pre, k, 1, &inputs);
    assert!(report.is_clean(), "{report}");
}

/// The classic missing-booleanity bug: `(m - a)(m - b) = 0` with NO range
/// checks leaves m free to be either root — flagged.
#[test]
fn max_without_ranges_is_flagged() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a = cs.advice_column(0);
    let b = cs.advice_column(0);
    let m = cs.advice_column(0);
    cs.create_gate("max", vec![fx(q) * ((adv(m) - adv(a)) * (adv(m) - adv(b)))]);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ONE; 1]],
        copies: vec![],
    };
    let inputs = [cell(a, 0), cell(b, 0)];
    let report = run(&cs, &pre, 4, 1, &inputs);
    assert_eq!(report.free.len(), 1, "{report}");
    assert_eq!(report.free[0].column, Column::Advice(m));
}

/// Cells anchored to instance cells through the permutation are known.
#[test]
fn instance_copies_anchor() {
    let mut cs = ConstraintSystem::new();
    cs.instance_column();
    let a0 = cs.advice_column(0);
    cs.enable_equality(Column::Advice(a0));
    cs.enable_equality(Column::Instance(0));
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![],
        copies: vec![(
            CellRef {
                column: Column::Instance(0),
                row: 0,
            },
            cell(a0, 0),
        )],
    };
    let report = run(&cs, &pre, 4, 1, &[]);
    assert!(report.is_clean(), "{report}");
}

/// Region metadata attributes free cells to the owning gadget.
#[test]
fn free_cells_carry_region_labels() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a0 = cs.advice_column(0);
    let a1 = cs.advice_column(0);
    cs.create_gate("noop", vec![fx(q) * (adv(a0) - adv(a1))]);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ZERO; 1]],
        copies: vec![],
    };
    let assigned = [cell(a0, 0), cell(a1, 0)];
    let regions = [RegionSpan {
        label: "Relu { n: 1 }".into(),
        columns: 0..2,
        rows: 0..1,
    }];
    let report = analyze(&AnalysisInput {
        cs: &cs,
        pre: &pre,
        k: 4,
        assigned: &assigned,
        inputs: &[],
        regions: &regions,
    });
    assert_eq!(report.free.len(), 2);
    for fc in &report.free {
        assert_eq!(fc.region.as_deref(), Some("Relu { n: 1 }"));
        assert_eq!(fc.gadget.as_deref(), Some("Relu { n: 1 }"));
        // Display stays stable for error surfaces.
        let s = fc.to_string();
        assert!(s.contains("row 0"), "{s}");
    }
}
