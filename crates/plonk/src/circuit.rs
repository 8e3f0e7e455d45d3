//! Circuit structure: constraint system, gates, lookups and assignments.

use crate::expression::{Column, Expression, Rotation};
use zkml_ff::{Field, Fr};

/// Zero-pads a column to `n` rows, allocating exactly `n`: `Vec::resize`
/// alone would double the capacity of a column just short of `n`.
pub(crate) fn pad_rows(values: &mut Vec<Fr>, n: usize) {
    values.reserve_exact(n.saturating_sub(values.len()));
    values.resize(n, Fr::zero());
}

/// A named family of polynomial constraints sharing a selector.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// Human-readable name (for diagnostics).
    pub name: String,
    /// The constraints; each must evaluate to zero on every active row.
    pub polys: Vec<Expression>,
}

/// A lookup argument: on every row, the tuple of input expressions must lie
/// in the table defined by the table expressions.
#[derive(Clone, Debug, PartialEq)]
pub struct Lookup {
    /// Human-readable name.
    pub name: String,
    /// Input expressions (gated so inactive rows produce an in-table default).
    pub inputs: Vec<Expression>,
    /// Table expressions (queries into fixed table columns).
    pub table: Vec<Expression>,
}

impl Lookup {
    /// True when every table expression is built from fixed columns and
    /// constants only, so the table's contents are part of the preprocessed
    /// circuit rather than the witness. All ZKML gadget tables satisfy
    /// this; static analyses rely on it to evaluate tables concretely.
    pub fn table_is_fixed_only(&self) -> bool {
        self.table.iter().all(|e| e.references_only_fixed())
    }
}

/// The static structure of a circuit.
///
/// Derives structural equality so a placement plan's skeleton can be
/// checked cheaply against the constraint system a later synthesis pass
/// reproduces (see the core compiler's plan-consistency invariant).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConstraintSystem {
    /// Number of instance (public-input) columns.
    pub num_instance: usize,
    /// Number of advice (witness) columns.
    pub num_advice: usize,
    /// Challenge phase of each advice column (0 or 1).
    pub advice_phase: Vec<u8>,
    /// Number of fixed columns (selectors, tables, constants).
    pub num_fixed: usize,
    /// Number of committed (weight) columns. Committed columns carry model
    /// parameters published once as a [`crate::keygen::WeightCommitment`];
    /// they are equality-enabled but never queried by gate expressions.
    pub num_committed: usize,
    /// Number of transcript challenges available to phase-1 columns.
    pub num_challenges: usize,
    /// Custom gates.
    pub gates: Vec<Gate>,
    /// Lookup arguments.
    pub lookups: Vec<Lookup>,
    /// Columns participating in the copy-constraint (permutation) argument.
    pub permutation_columns: Vec<Column>,
}

/// Number of trailing rows reserved for blinding (plus one `l_last` row).
pub const BLINDING_FACTORS: usize = 5;

impl ConstraintSystem {
    /// Creates an empty constraint system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an instance column, returning its index.
    pub fn instance_column(&mut self) -> usize {
        self.num_instance += 1;
        self.num_instance - 1
    }

    /// Adds an advice column in the given phase, returning its index.
    pub fn advice_column(&mut self, phase: u8) -> usize {
        assert!(phase <= 1, "only phases 0 and 1 are supported");
        self.num_advice += 1;
        self.advice_phase.push(phase);
        self.num_advice - 1
    }

    /// Adds a fixed column, returning its index.
    pub fn fixed_column(&mut self) -> usize {
        self.num_fixed += 1;
        self.num_fixed - 1
    }

    /// Adds a committed (weight) column, returning its index.
    pub fn committed_column(&mut self) -> usize {
        self.num_committed += 1;
        self.num_committed - 1
    }

    /// Registers a transcript challenge, returning its index.
    pub fn challenge(&mut self) -> usize {
        self.num_challenges += 1;
        self.num_challenges - 1
    }

    /// Adds a gate.
    pub fn create_gate(&mut self, name: impl Into<String>, polys: Vec<Expression>) {
        self.gates.push(Gate {
            name: name.into(),
            polys,
        });
    }

    /// Adds a lookup argument.
    pub fn create_lookup(
        &mut self,
        name: impl Into<String>,
        inputs: Vec<Expression>,
        table: Vec<Expression>,
    ) {
        assert_eq!(inputs.len(), table.len(), "lookup arity mismatch");
        self.lookups.push(Lookup {
            name: name.into(),
            inputs,
            table,
        });
    }

    /// Enables equality (copy constraints) on a column.
    pub fn enable_equality(&mut self, col: Column) {
        if !self.permutation_columns.contains(&col) {
            self.permutation_columns.push(col);
        }
    }

    /// The global constraint degree bound.
    ///
    /// Determined by the gates, the lookup product constraint, and a floor of
    /// 3 so that the permutation argument can use chunks of at least one
    /// column (`chunk = degree - 2`).
    pub fn degree(&self) -> usize {
        let gate_deg = self
            .gates
            .iter()
            .flat_map(|g| g.polys.iter())
            .map(|p| p.degree())
            .max()
            .unwrap_or(0);
        // Lookup product constraint:
        // l_active * (Z(wX)(A'+beta)(S'+gamma) - Z(X)(A+beta)(T+gamma))
        // has degree 2 + max(deg A + 1, deg T + 1, 2).
        let lookup_deg = self
            .lookups
            .iter()
            .map(|l| {
                let in_deg = l.inputs.iter().map(|e| e.degree()).max().unwrap_or(1);
                let t_deg = l.table.iter().map(|e| e.degree()).max().unwrap_or(1);
                2 + (in_deg + 1).max(t_deg + 1).max(2)
            })
            .max()
            .unwrap_or(0);
        gate_deg.max(lookup_deg).max(3)
    }

    /// Permutation chunk size (`degree - 2`).
    pub(crate) fn permutation_chunk(&self) -> usize {
        self.degree() - 2
    }

    /// Number of permutation grand-product polynomials.
    pub fn permutation_z_count(&self) -> usize {
        if self.permutation_columns.is_empty() {
            0
        } else {
            self.permutation_columns
                .len()
                .div_ceil(self.permutation_chunk())
        }
    }

    /// Number of usable (non-blinding) rows for a circuit with `2^k` rows.
    ///
    /// The last usable row is the `l_last` row; active rows (where gates are
    /// enforced) are those strictly before it.
    pub fn usable_rows(&self, n: usize) -> usize {
        assert!(
            n > BLINDING_FACTORS + 1,
            "circuit too small for blinding ({n} rows)"
        );
        n - (BLINDING_FACTORS + 1)
    }

    /// Every `(column, rotation)` query needed for evaluation, deduplicated.
    pub(crate) fn queries(&self) -> Vec<(Column, Rotation)> {
        let mut out = Vec::new();
        for g in &self.gates {
            for p in &g.polys {
                p.collect_queries(&mut out);
            }
        }
        for l in &self.lookups {
            for e in l.inputs.iter().chain(l.table.iter()) {
                e.collect_queries(&mut out);
            }
        }
        // Permutation product constraints query every permutation column at
        // the current rotation.
        for col in &self.permutation_columns {
            out.push((*col, Rotation::cur()));
        }
        // Ensure every committed column appears at least once so it is
        // evaluated and opened (unqueried columns would be unconstrained).
        for c in 0..self.num_advice {
            out.push((Column::Advice(c), Rotation::cur()));
        }
        for c in 0..self.num_fixed {
            out.push((Column::Fixed(c), Rotation::cur()));
        }
        for c in 0..self.num_instance {
            out.push((Column::Instance(c), Rotation::cur()));
        }
        for c in 0..self.num_committed {
            out.push((Column::Committed(c), Rotation::cur()));
        }
        out.sort_by_key(|(c, r)| (*c, r.0));
        out.dedup();
        out
    }

    /// Minimal `k` such that `2^k` rows can hold `rows` assigned rows plus
    /// blinding.
    pub fn min_k(&self, rows: usize) -> u32 {
        let needed = rows + BLINDING_FACTORS + 1;
        needed.next_power_of_two().trailing_zeros().max(3)
    }
}

/// A reference to one cell of the grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// The column.
    pub column: Column,
    /// The absolute row.
    pub row: usize,
}

/// The preprocessed content of a circuit: fixed column values and copy
/// constraints. Produced once at keygen time.
#[derive(Clone, Debug, Default)]
pub struct Preprocessed {
    /// Fixed column values (column-major); padded to the domain at keygen.
    pub fixed: Vec<Vec<Fr>>,
    /// Committed (weight) column values (column-major). Excluded from the
    /// proving/verifying keys: they are committed separately by
    /// `commit_weights` and bound to the circuit via the copy argument.
    pub committed: Vec<Vec<Fr>>,
    /// Copy constraints between cells of permutation-enabled columns.
    pub copies: Vec<(CellRef, CellRef)>,
}

/// A witness source: provides instance and advice values per phase.
pub trait WitnessSource {
    /// Instance column values (column-major).
    fn instance(&self) -> Vec<Vec<Fr>>;
    /// Advice values for all columns of `phase`, as `(column, values)`.
    ///
    /// `challenges` holds all transcript challenges derived so far (empty
    /// for phase 0).
    fn advice(&self, phase: u8, challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::Field;

    #[test]
    fn degree_floor_is_three() {
        let cs = ConstraintSystem::new();
        assert_eq!(cs.degree(), 3);
        assert_eq!(cs.permutation_chunk(), 1);
    }

    #[test]
    fn degree_tracks_gates_and_lookups() {
        let mut cs = ConstraintSystem::new();
        let q = cs.fixed_column();
        let a = cs.advice_column(0);
        let b = cs.advice_column(0);
        let c = cs.advice_column(0);
        // q * (a*b - c): degree 3.
        cs.create_gate(
            "mul",
            vec![
                Expression::Fixed(q, Rotation::cur())
                    * (Expression::Advice(a, Rotation::cur())
                        * Expression::Advice(b, Rotation::cur())
                        - Expression::Advice(c, Rotation::cur())),
            ],
        );
        assert_eq!(cs.degree(), 3);
        // Lookup with degree-2 input raises the bound to 2 + 3 = 5.
        let t = cs.fixed_column();
        cs.create_lookup(
            "lk",
            vec![Expression::Fixed(q, Rotation::cur()) * Expression::Advice(a, Rotation::cur())],
            vec![Expression::Fixed(t, Rotation::cur())],
        );
        assert_eq!(cs.degree(), 5);
        assert_eq!(cs.permutation_chunk(), 3);
    }

    #[test]
    fn permutation_z_count_chunks() {
        let mut cs = ConstraintSystem::new();
        for _ in 0..7 {
            let c = cs.advice_column(0);
            cs.enable_equality(Column::Advice(c));
        }
        // degree 3 -> chunk 1 -> 7 Z polynomials.
        assert_eq!(cs.permutation_z_count(), 7);
    }

    #[test]
    fn queries_deduplicate() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        let q = cs.fixed_column();
        cs.create_gate(
            "g",
            vec![
                Expression::Fixed(q, Rotation::cur())
                    * Expression::Advice(a, Rotation::cur())
                    * Expression::Advice(a, Rotation::cur()),
            ],
        );
        let queries = cs.queries();
        let advice_queries: Vec<_> = queries
            .iter()
            .filter(|(c, _)| matches!(c, Column::Advice(_)))
            .collect();
        assert_eq!(advice_queries.len(), 1);
    }

    #[test]
    fn min_k_accounts_for_blinding() {
        let cs = ConstraintSystem::new();
        // 60 rows + 6 reserved = 66 -> 128 -> k = 7.
        assert_eq!(cs.min_k(60), 7);
        // 58 rows + 6 = 64 -> k = 6.
        assert_eq!(cs.min_k(58), 6);
    }

    #[test]
    fn cellref_equality() {
        let a = CellRef {
            column: Column::Advice(0),
            row: 5,
        };
        let b = CellRef {
            column: Column::Advice(0),
            row: 5,
        };
        assert_eq!(a, b);
        let _ = Fr::zero();
    }
}
