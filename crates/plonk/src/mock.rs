//! A row-exact mock prover for circuit debugging and soundness testing.
//!
//! [`MockProver`] synthesizes a circuit into in-memory instance / advice /
//! fixed grids and checks every constraint directly — every custom gate at
//! every row, every copy constraint, and every lookup argument — without any
//! commitments or polynomial arithmetic. Failures are reported as structured
//! [`VerifyFailure`] values naming the gate, the row, and the offending cell
//! values, which is what makes underconstrained-gadget hunting tractable
//! (halo2's `MockProver` plays the same role).
//!
//! Semantics relative to the real prover:
//!
//! * Gates are checked on **all** `2^k` rows. The real vanishing argument
//!   also enforces gates on every row of the domain (the quotient division
//!   by `X^n - 1` is exact only if each gate vanishes on all of `H`); on
//!   blinding rows the mock grid holds zero padding where the real prover
//!   holds randomness, so a gate that is not selector-gated off the padding
//!   rows fails here exactly when it would fail (with overwhelming
//!   probability) in the real prover.
//! * Copy constraints are checked pairwise over the usable rows, mirroring
//!   the active range of the permutation grand product.
//! * Lookups are checked as raw tuple membership over the usable rows,
//!   mirroring the permuted-input argument without the `theta` compression.
//! * Challenges are derived from a mock transcript absorbing the instance
//!   and phase-0 advice, so phase-1 witnesses see challenges that change
//!   whenever phase-0 changes (the Fiat–Shamir property gadgets rely on).
//!   They are *frozen* at construction: mutating a cell afterwards models an
//!   adversary tampering with one committed value, not re-running synthesis.

use crate::circuit::{CellRef, ConstraintSystem, Preprocessed, WitnessSource, BLINDING_FACTORS};
use crate::expression::{Column, Expression, Rotation};
use crate::PlonkError;
use std::collections::{HashMap, HashSet};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_transcript::Transcript;

/// One failed constraint, with enough context to locate the bug.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyFailure {
    /// A gate polynomial evaluated to a non-zero value on a row.
    Gate {
        /// Gate name.
        gate: String,
        /// Index of the gate in the constraint system.
        gate_index: usize,
        /// Index of the constraint within the gate.
        constraint_index: usize,
        /// The offending row.
        row: usize,
        /// The non-zero value the constraint evaluated to.
        value: Fr,
        /// Every cell the constraint queried, with its rotation and value.
        cells: Vec<(Column, Rotation, Fr)>,
    },
    /// A lookup input tuple on a row is not present in the table.
    Lookup {
        /// Lookup name.
        lookup: String,
        /// Index of the lookup in the constraint system.
        lookup_index: usize,
        /// The offending row.
        row: usize,
        /// The input tuple that is missing from the table.
        inputs: Vec<Fr>,
    },
    /// Two copy-constrained cells hold different values.
    CopyMismatch {
        /// First cell.
        a: CellRef,
        /// Second cell.
        b: CellRef,
        /// Value of the first cell.
        a_value: Fr,
        /// Value of the second cell.
        b_value: Fr,
    },
    /// A copy constraint references a column without equality enabled, so
    /// the real permutation argument would not enforce it.
    CopyColumnNotEnabled {
        /// The offending cell.
        cell: CellRef,
    },
    /// A copy constraint references a row outside the usable region, where
    /// the real permutation argument is inactive.
    CopyRowOutOfRange {
        /// The offending cell.
        cell: CellRef,
        /// Number of usable rows.
        usable: usize,
    },
}

impl std::fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyFailure::Gate {
                gate,
                gate_index,
                constraint_index,
                row,
                value,
                cells,
            } => {
                write!(
                    f,
                    "gate '{gate}' (index {gate_index}, constraint {constraint_index}) \
                     not satisfied on row {row}: evaluates to {value:?}; cells:"
                )?;
                for (col, rot, v) in cells {
                    write!(f, " {col:?}@{}={v:?}", rot.0)?;
                }
                Ok(())
            }
            VerifyFailure::Lookup {
                lookup,
                lookup_index,
                row,
                inputs,
            } => write!(
                f,
                "lookup '{lookup}' (index {lookup_index}) not satisfied on row {row}: \
                 input tuple {inputs:?} not in table"
            ),
            VerifyFailure::CopyMismatch {
                a,
                b,
                a_value,
                b_value,
            } => write!(
                f,
                "copy constraint violated: {a:?}={a_value:?} but {b:?}={b_value:?}"
            ),
            VerifyFailure::CopyColumnNotEnabled { cell } => write!(
                f,
                "copy constraint on {cell:?}: column does not have equality enabled"
            ),
            VerifyFailure::CopyRowOutOfRange { cell, usable } => write!(
                f,
                "copy constraint on {cell:?}: row outside the {usable} usable rows"
            ),
        }
    }
}

/// A circuit synthesized into concrete grids, ready for row-exact checking.
pub struct MockProver {
    k: u32,
    n: usize,
    usable: usize,
    cs: ConstraintSystem,
    copies: Vec<(CellRef, CellRef)>,
    instance: Vec<Vec<Fr>>,
    advice: Vec<Vec<Fr>>,
    fixed: Vec<Vec<Fr>>,
    committed: Vec<Vec<Fr>>,
    challenges: Vec<Fr>,
    /// Per-lookup set of table tuples (canonical bytes), rows `0..usable`.
    tables: Vec<HashSet<Vec<u8>>>,
    /// True when every lookup table expression queries only fixed columns
    /// (always the case for the ZKML gadget library); lets the incremental
    /// checker reuse cached table sets across advice mutations.
    tables_fixed_only: bool,
    /// Copy constraints indexed by the cells they touch.
    copy_index: HashMap<CellRef, Vec<usize>>,
    /// Largest |rotation| queried by any gate or lookup input.
    max_rotation: usize,
}

impl MockProver {
    /// Synthesizes `witness` against `(cs, pre)` into grids of `2^k` rows.
    ///
    /// Mirrors the real prover's assembly: validates column counts and
    /// usable-row bounds, derives mock challenges from the instance and
    /// phase-0 advice, then fills phase-1 columns.
    pub fn run(
        k: u32,
        cs: &ConstraintSystem,
        pre: &Preprocessed,
        witness: &dyn WitnessSource,
    ) -> Result<Self, PlonkError> {
        let n = 1usize << k;
        if n <= BLINDING_FACTORS + 1 {
            return Err(PlonkError::Synthesis(format!(
                "k = {k} leaves no usable rows"
            )));
        }
        let usable = cs.usable_rows(n);

        if pre.fixed.len() != cs.num_fixed {
            return Err(PlonkError::Synthesis(format!(
                "expected {} fixed columns, got {}",
                cs.num_fixed,
                pre.fixed.len()
            )));
        }
        let mut fixed = pre.fixed.clone();
        for col in fixed.iter_mut() {
            if col.len() > n {
                return Err(PlonkError::Synthesis(
                    "fixed column exceeds 2^k rows".into(),
                ));
            }
            col.resize(n, Fr::zero());
        }

        if pre.committed.len() != cs.num_committed {
            return Err(PlonkError::Synthesis(format!(
                "expected {} committed columns, got {}",
                cs.num_committed,
                pre.committed.len()
            )));
        }
        let mut committed = pre.committed.clone();
        for col in committed.iter_mut() {
            if col.len() > n {
                return Err(PlonkError::Synthesis(
                    "committed column exceeds 2^k rows".into(),
                ));
            }
            col.resize(n, Fr::zero());
        }

        let mut instance = witness.instance();
        if instance.len() != cs.num_instance {
            return Err(PlonkError::Synthesis(format!(
                "expected {} instance columns, got {}",
                cs.num_instance,
                instance.len()
            )));
        }
        let mut transcript = Transcript::new(b"zkml-mock");
        transcript.absorb(b"k", &k.to_le_bytes());
        for col in instance.iter_mut() {
            if col.len() > usable {
                return Err(PlonkError::Synthesis(
                    "instance column exceeds usable rows".into(),
                ));
            }
            col.resize(n, Fr::zero());
            absorb_column(&mut transcript, b"instance", col);
        }

        let mut advice: Vec<Option<Vec<Fr>>> = vec![None; cs.num_advice];
        let mut challenges: Vec<Fr> = Vec::new();
        let phases: &[u8] = if cs.num_challenges > 0 { &[0, 1] } else { &[0] };
        for &phase in phases {
            for (idx, mut vals) in witness.advice(phase, &challenges) {
                if idx >= cs.num_advice || cs.advice_phase[idx] != phase {
                    return Err(PlonkError::Synthesis(format!(
                        "advice column {idx} not in phase {phase}"
                    )));
                }
                if vals.len() > usable {
                    return Err(PlonkError::Synthesis(format!(
                        "advice column {idx} has {} rows, usable is {usable}",
                        vals.len()
                    )));
                }
                vals.resize(n, Fr::zero());
                advice[idx] = Some(vals);
            }
            for (c, slot) in advice.iter().enumerate() {
                if cs.advice_phase[c] != phase {
                    continue;
                }
                let vals = slot.as_ref().ok_or_else(|| {
                    PlonkError::Synthesis(format!("advice column {c} missing in phase {phase}"))
                })?;
                if phase == 0 {
                    absorb_column(&mut transcript, b"advice", vals);
                }
            }
            if phase == 0 {
                for _ in 0..cs.num_challenges {
                    challenges.push(transcript.challenge(b"mock-challenge"));
                }
            }
        }
        let advice: Vec<Vec<Fr>> = advice
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| PlonkError::Synthesis("missing advice column".into()))?;

        let tables_fixed_only = cs.lookups.iter().all(|l| {
            l.table.iter().all(|e| {
                let mut q = Vec::new();
                e.collect_queries(&mut q);
                q.iter().all(|(c, _)| matches!(c, Column::Fixed(_)))
            })
        });
        let mut copy_index: HashMap<CellRef, Vec<usize>> = HashMap::new();
        for (i, (a, b)) in pre.copies.iter().enumerate() {
            copy_index.entry(*a).or_default().push(i);
            copy_index.entry(*b).or_default().push(i);
        }
        let max_rotation = cs
            .queries()
            .iter()
            .map(|(_, r)| r.0.unsigned_abs() as usize)
            .max()
            .unwrap_or(0);

        let mut mock = MockProver {
            k,
            n,
            usable,
            cs: cs.clone(),
            copies: pre.copies.clone(),
            instance,
            advice,
            fixed,
            committed,
            challenges,
            tables: Vec::new(),
            tables_fixed_only,
            copy_index,
            max_rotation,
        };
        mock.rebuild_tables();
        Ok(mock)
    }

    /// The log2 number of rows.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The number of usable (non-blinding) rows.
    pub fn usable_rows(&self) -> usize {
        self.usable
    }

    /// Reads one cell of the grid.
    pub fn cell(&self, cell: CellRef) -> Fr {
        self.column(cell.column)[cell.row]
    }

    /// Overwrites one cell of the grid (for adversarial mutation testing).
    ///
    /// Challenges stay frozen; writes to fixed columns rebuild the cached
    /// lookup-table sets.
    pub fn set_cell(&mut self, cell: CellRef, value: Fr) {
        match cell.column {
            Column::Instance(c) => self.instance[c][cell.row] = value,
            Column::Advice(c) => self.advice[c][cell.row] = value,
            Column::Fixed(c) => {
                self.fixed[c][cell.row] = value;
                self.rebuild_tables();
            }
            Column::Committed(c) => self.committed[c][cell.row] = value,
        }
    }

    fn column(&self, col: Column) -> &Vec<Fr> {
        match col {
            Column::Instance(c) => &self.instance[c],
            Column::Advice(c) => &self.advice[c],
            Column::Fixed(c) => &self.fixed[c],
            Column::Committed(c) => &self.committed[c],
        }
    }

    fn rebuild_tables(&mut self) {
        self.tables = self
            .cs
            .lookups
            .iter()
            .map(|lk| {
                (0..self.usable)
                    .map(|row| self.tuple_bytes(&lk.table, row))
                    .collect()
            })
            .collect();
    }

    /// Evaluates an arbitrary expression against the grids at `row`
    /// (wrapping rotations), using the frozen challenges.
    pub fn eval_expr(&self, e: &Expression, row: usize) -> Fr {
        self.eval(e, row)
    }

    fn eval(&self, e: &Expression, row: usize) -> Fr {
        e.evaluate_on_grid(
            row,
            self.n,
            &self.instance,
            &self.advice,
            &self.fixed,
            &self.challenges,
        )
    }

    fn tuple_bytes(&self, exprs: &[Expression], row: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(exprs.len() * 32);
        for e in exprs {
            bytes.extend_from_slice(&self.eval(e, row).to_bytes());
        }
        bytes
    }

    fn check_gates_at(&self, row: usize, failures: &mut Vec<VerifyFailure>) -> bool {
        let mut ok = true;
        for (gi, gate) in self.cs.gates.iter().enumerate() {
            for (ci, poly) in gate.polys.iter().enumerate() {
                let value = self.eval(poly, row);
                if !value.is_zero() {
                    ok = false;
                    let mut queries = Vec::new();
                    poly.collect_queries(&mut queries);
                    queries.sort_by_key(|(c, r)| (*c, r.0));
                    queries.dedup();
                    let cells = queries
                        .into_iter()
                        .map(|(col, rot)| {
                            let idx = (row as i64 + rot.0 as i64).rem_euclid(self.n as i64);
                            (col, rot, self.column(col)[idx as usize])
                        })
                        .collect();
                    failures.push(VerifyFailure::Gate {
                        gate: gate.name.clone(),
                        gate_index: gi,
                        constraint_index: ci,
                        row,
                        value,
                        cells,
                    });
                }
            }
        }
        ok
    }

    fn check_lookups_at(&self, row: usize, failures: &mut Vec<VerifyFailure>) -> bool {
        let mut ok = true;
        if row >= self.usable {
            return ok;
        }
        for (li, lk) in self.cs.lookups.iter().enumerate() {
            if !self.tables[li].contains(&self.tuple_bytes(&lk.inputs, row)) {
                ok = false;
                failures.push(VerifyFailure::Lookup {
                    lookup: lk.name.clone(),
                    lookup_index: li,
                    row,
                    inputs: lk.inputs.iter().map(|e| self.eval(e, row)).collect(),
                });
            }
        }
        ok
    }

    fn check_copy(&self, idx: usize, failures: &mut Vec<VerifyFailure>) -> bool {
        let (a, b) = self.copies[idx];
        let mut ok = true;
        for cell in [a, b] {
            if !self.cs.permutation_columns.contains(&cell.column) {
                failures.push(VerifyFailure::CopyColumnNotEnabled { cell });
                ok = false;
            }
            if cell.row >= self.usable {
                failures.push(VerifyFailure::CopyRowOutOfRange {
                    cell,
                    usable: self.usable,
                });
                ok = false;
            }
        }
        if !ok {
            return false;
        }
        let (av, bv) = (self.cell(a), self.cell(b));
        if av != bv {
            failures.push(VerifyFailure::CopyMismatch {
                a,
                b,
                a_value: av,
                b_value: bv,
            });
            return false;
        }
        true
    }

    /// Checks every gate on every row, every copy constraint, and every
    /// lookup argument, collecting all failures.
    pub fn verify(&self) -> Result<(), Vec<VerifyFailure>> {
        let mut failures = Vec::new();
        for row in 0..self.n {
            self.check_gates_at(row, &mut failures);
            self.check_lookups_at(row, &mut failures);
        }
        for idx in 0..self.copies.len() {
            self.check_copy(idx, &mut failures);
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }

    /// Like [`verify`](Self::verify) but stops at the first failure.
    pub fn is_satisfied(&self) -> bool {
        let mut sink = Vec::new();
        for row in 0..self.n {
            if !self.check_gates_at(row, &mut sink) || !self.check_lookups_at(row, &mut sink) {
                return false;
            }
        }
        (0..self.copies.len()).all(|idx| self.check_copy(idx, &mut sink))
    }

    /// Checks only the constraints that can observe `cell`: gates and lookup
    /// inputs on rows within rotation range of it, plus copy constraints
    /// touching it. Sound for instance/advice cells when lookup tables query
    /// only fixed columns (the common case); falls back to a full
    /// [`verify`](Self::verify) otherwise. Used by the mutation harness,
    /// where a full sweep per mutation would be quadratic.
    pub fn check_affected(&self, cell: CellRef) -> Vec<VerifyFailure> {
        if matches!(cell.column, Column::Fixed(_)) || !self.tables_fixed_only {
            return self.verify().err().unwrap_or_default();
        }
        let mut failures = Vec::new();
        let r = self.max_rotation as i64;
        for d in -r..=r {
            let row = (cell.row as i64 + d).rem_euclid(self.n as i64) as usize;
            self.check_gates_at(row, &mut failures);
            self.check_lookups_at(row, &mut failures);
        }
        if let Some(indices) = self.copy_index.get(&cell) {
            for &idx in indices {
                self.check_copy(idx, &mut failures);
            }
        }
        failures
    }

    /// Panics with a readable report if any constraint is violated.
    pub fn assert_satisfied(&self) {
        if let Err(failures) = self.verify() {
            let mut msg = format!("MockProver: {} failure(s)\n", failures.len());
            for f in &failures {
                msg.push_str(&format!("  {f}\n"));
            }
            panic!("{msg}");
        }
    }

    /// Snapshots the (possibly mutated) grids as a phase-0 witness source
    /// for cross-checking against the real prover and verifier.
    ///
    /// Returns `None` when the circuit uses challenges: phase-1 values in
    /// the grid are consistent with the frozen *mock* challenges, not the
    /// ones a real transcript would derive.
    pub fn to_witness(&self) -> Option<GridWitness> {
        if self.cs.num_challenges > 0 {
            return None;
        }
        Some(GridWitness {
            instance: self
                .instance
                .iter()
                .map(|c| c[..self.usable].to_vec())
                .collect(),
            advice: self
                .advice
                .iter()
                .map(|c| c[..self.usable].to_vec())
                .collect(),
        })
    }
}

fn absorb_column(t: &mut Transcript, label: &'static [u8], col: &[Fr]) {
    let mut bytes = Vec::with_capacity(col.len() * 32);
    for v in col {
        bytes.extend_from_slice(&v.to_bytes());
    }
    t.absorb(label, &bytes);
}

/// A concrete phase-0 witness captured from a [`MockProver`] grid.
pub struct GridWitness {
    instance: Vec<Vec<Fr>>,
    advice: Vec<Vec<Fr>>,
}

impl WitnessSource for GridWitness {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.instance.clone()
    }
    fn advice(&self, phase: u8, _challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        if phase == 0 {
            self.advice.iter().cloned().enumerate().collect()
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::PrimeField;

    struct VecWitness {
        instance: Vec<Vec<Fr>>,
        advice: Vec<Vec<Fr>>,
    }
    impl WitnessSource for VecWitness {
        fn instance(&self) -> Vec<Vec<Fr>> {
            self.instance.clone()
        }
        fn advice(&self, phase: u8, _challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
            if phase == 0 {
                self.advice.iter().cloned().enumerate().collect()
            } else {
                Vec::new()
            }
        }
    }

    /// q * (a * b - c) with one copy of c into the instance column.
    fn mul_circuit() -> (ConstraintSystem, Preprocessed, VecWitness) {
        let mut cs = ConstraintSystem::new();
        let ic = cs.instance_column();
        let a = cs.advice_column(0);
        let b = cs.advice_column(0);
        let c = cs.advice_column(0);
        let q = cs.fixed_column();
        cs.create_gate(
            "mul",
            vec![
                Expression::Fixed(q, Rotation::cur())
                    * (Expression::Advice(a, Rotation::cur())
                        * Expression::Advice(b, Rotation::cur())
                        - Expression::Advice(c, Rotation::cur())),
            ],
        );
        cs.enable_equality(Column::Advice(c));
        cs.enable_equality(Column::Instance(ic));
        let pre = Preprocessed {
            committed: Vec::new(),
            fixed: vec![vec![Fr::one()]],
            copies: vec![(
                CellRef {
                    column: Column::Advice(c),
                    row: 0,
                },
                CellRef {
                    column: Column::Instance(ic),
                    row: 0,
                },
            )],
        };
        let witness = VecWitness {
            instance: vec![vec![Fr::from_u64(6)]],
            advice: vec![
                vec![Fr::from_u64(2)],
                vec![Fr::from_u64(3)],
                vec![Fr::from_u64(6)],
            ],
        };
        (cs, pre, witness)
    }

    #[test]
    fn satisfied_circuit_passes() {
        let (cs, pre, witness) = mul_circuit();
        let mock = MockProver::run(4, &cs, &pre, &witness).unwrap();
        mock.assert_satisfied();
        assert!(mock.is_satisfied());
    }

    #[test]
    fn gate_failure_names_gate_row_and_cells() {
        let (cs, pre, mut witness) = mul_circuit();
        witness.advice[1][0] = Fr::from_u64(4); // 2 * 4 != 6
        let mock = MockProver::run(4, &cs, &pre, &witness).unwrap();
        let failures = mock.verify().unwrap_err();
        let gate = failures
            .iter()
            .find_map(|f| match f {
                VerifyFailure::Gate {
                    gate, row, cells, ..
                } => Some((gate.clone(), *row, cells.clone())),
                _ => None,
            })
            .expect("expected a gate failure");
        assert_eq!(gate.0, "mul");
        assert_eq!(gate.1, 0);
        assert!(gate
            .2
            .iter()
            .any(|(c, _, v)| *c == Column::Advice(1) && *v == Fr::from_u64(4)));
        let display = format!("{}", failures[0]);
        assert!(display.contains("mul") && display.contains("row 0"));
    }

    #[test]
    fn copy_mismatch_reports_both_values() {
        let (cs, pre, mut witness) = mul_circuit();
        // 2 * 3 = 6 still holds, but the public claim is 7.
        witness.instance[0][0] = Fr::from_u64(7);
        let mock = MockProver::run(4, &cs, &pre, &witness).unwrap();
        let failures = mock.verify().unwrap_err();
        assert!(failures.iter().any(|f| matches!(
            f,
            VerifyFailure::CopyMismatch { a_value, b_value, .. }
                if *a_value == Fr::from_u64(6) && *b_value == Fr::from_u64(7)
        )));
    }

    #[test]
    fn lookup_failure_reports_missing_tuple() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        let t = cs.fixed_column();
        cs.create_lookup(
            "range4",
            vec![Expression::Advice(a, Rotation::cur())],
            vec![Expression::Fixed(t, Rotation::cur())],
        );
        let pre = Preprocessed {
            committed: Vec::new(),
            fixed: vec![(0..4).map(Fr::from_u64).collect()],
            copies: vec![],
        };
        let witness = VecWitness {
            instance: vec![],
            advice: vec![vec![Fr::from_u64(3), Fr::from_u64(9)]],
        };
        let mock = MockProver::run(4, &cs, &pre, &witness).unwrap();
        let failures = mock.verify().unwrap_err();
        assert!(failures.iter().any(|f| matches!(
            f,
            VerifyFailure::Lookup { lookup, row: 1, inputs, .. }
                if lookup == "range4" && inputs[0] == Fr::from_u64(9)
        )));
        // Rows beyond the witness hold the padded zero, which is in-table.
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn check_affected_matches_full_verify() {
        let (cs, pre, witness) = mul_circuit();
        let mut mock = MockProver::run(4, &cs, &pre, &witness).unwrap();
        let cell = CellRef {
            column: Column::Advice(2),
            row: 0,
        };
        assert!(mock.check_affected(cell).is_empty());
        let orig = mock.cell(cell);
        mock.set_cell(cell, orig + Fr::one());
        let local = mock.check_affected(cell);
        let full = mock.verify().unwrap_err();
        assert!(!local.is_empty());
        assert_eq!(local.len(), full.len());
    }

    #[test]
    fn mock_challenges_depend_on_phase0() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        let b = cs.advice_column(1);
        cs.challenge();
        let _ = (a, b);
        let pre = Preprocessed {
            committed: Vec::new(),
            fixed: vec![],
            copies: vec![],
        };
        struct W(u64);
        impl WitnessSource for W {
            fn instance(&self) -> Vec<Vec<Fr>> {
                vec![]
            }
            fn advice(&self, phase: u8, challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
                if phase == 0 {
                    vec![(0, vec![Fr::from_u64(self.0)])]
                } else {
                    vec![(1, vec![challenges[0]])]
                }
            }
        }
        let m1 = MockProver::run(4, &cs, &pre, &W(1)).unwrap();
        let m2 = MockProver::run(4, &cs, &pre, &W(1)).unwrap();
        let m3 = MockProver::run(4, &cs, &pre, &W(2)).unwrap();
        assert_eq!(m1.challenges, m2.challenges);
        assert_ne!(m1.challenges[0], m3.challenges[0]);
    }
}
