//! Static underconstrained-circuit analysis for ZKML circuits.
//!
//! The mutation sweep in `zkml-testkit` checks soundness *dynamically*: it
//! perturbs witness cells and asserts the mock verifier notices. That only
//! exercises one witness. This crate attacks the same bug class
//! *statically*: it proves (or refutes) that every assigned advice cell is
//! **uniquely determined** by the circuit's public data and its declared
//! input cells, for *all* witnesses — the property whose absence is an
//! underconstrained circuit, the dominant soundness-bug class in
//! hand-rolled Plonkish gadgets.
//!
//! # The determinism contract
//!
//! A compiled ZKML circuit declares a set of *input* cells (the home cells
//! written by `load_values`). The analyzer checks a two-tier contract:
//!
//! 1. every input cell is **bound**: it participates in at least one copy
//!    constraint or one constraint that does not partially evaluate to a
//!    constant (an input no gate ever looks at is free to be anything, so a
//!    prover could cheat on it);
//! 2. every other assigned advice cell is **determined**: starting from
//!    the instance cells, fixed columns, challenges, and input cells as
//!    givens, iterated deduction over the copy constraints, gates, and
//!    lookups pins its value uniquely.
//!
//! # Deduction rules
//!
//! Copy constraints are collapsed into union-find classes up front; a class
//! touching an instance or fixed cell is known. Then, row by row (lookups
//! before gates, repeated to a fixpoint), each constraint is partially
//! evaluated against the fixed columns into a symbolic form and matched
//! against the rules:
//!
//! * **unique-unknown linear**: a linear constraint with exactly one
//!   unknown (concrete nonzero coefficient) determines it;
//! * **functional lookup**: a lookup into a fixed-only table that is a
//!   function from the known input positions to the single unknown
//!   position determines that unknown (the nonlinearity tables of §4.2);
//! * **quotient/remainder**: a linear constraint with two unknowns, one of
//!   them range-checked on the same row, determines both (the `rescale`
//!   and `var_div` gadgets' Euclidean-division shape);
//! * **root sets**: a product of linear factors in one unknown with
//!   concrete roots determines it when the root set is a singleton, and
//!   marks it boolean when the roots are `{0,1}`;
//! * **bit recomposition**: a linear constraint whose unknowns are all
//!   boolean with distinct power-of-two weights determines every bit (the
//!   `relu_bits` decomposition);
//! * **range-checked root pair**: `(u−a)(u−b)=0` with both factors
//!   range-checked on the row determines `u` (the `max` gadget).
//!
//! # Caveats (documented over-/under-approximation)
//!
//! The analysis is a *lint*, deliberately neither sound nor complete in
//! the formal-methods sense — see DESIGN.md §8 for the full discussion:
//! unassigned cells are treated as pinned (the prover writes the default
//! zero), symbolic known coefficients are assumed nonzero where a rule
//! requires it, the quotient/remainder rule does not re-check field-wrap
//! magnitudes, and determination is conditional on satisfiability. It is
//! exact on the ZKML gadget zoo: all zoo gadgets analyze clean and the
//! deliberately broken `toy_missing_selector` fixture is flagged with
//! exactly its two free cells.

mod engine;
mod sym;

use engine::Engine;
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use zkml_plonk::{CellRef, Column, ConstraintSystem, Preprocessed};

/// Why a cell was reported free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FreeReason {
    /// A declared input cell that no copy constraint or non-trivial
    /// constraint ever binds: the prover may substitute any value without
    /// any gate noticing.
    UnboundInput,
    /// An assigned advice cell the deduction rules could not pin down from
    /// the public data and the inputs: at least two witness values satisfy
    /// every constraint.
    NotDetermined,
}

impl fmt::Display for FreeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeReason::UnboundInput => write!(f, "input cell is never constrained"),
            FreeReason::NotDetermined => write!(f, "not determined by inputs"),
        }
    }
}

/// An advice cell the analyzer could not prove determined — the static
/// analogue of a `VerifyFailure`, carrying the same region context the
/// mock prover reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreeCell {
    /// The gadget that allocated the region containing the cell, when the
    /// layout metadata identifies one (e.g. `"Dot { len: 4, .. }"`).
    pub gadget: Option<String>,
    /// The layout region label (`"inputs"`, `"freivalds"`, or the gadget
    /// row's label).
    pub region: Option<String>,
    /// The cell's column.
    pub column: Column,
    /// The cell's absolute row.
    pub row: usize,
    /// Why the cell is free.
    pub reason: FreeReason,
}

impl fmt::Display for FreeCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} @ row {}: {}", self.column, self.row, self.reason)?;
        if let Some(r) = &self.region {
            write!(f, " (region `{r}`")?;
            if let Some(g) = &self.gadget {
                write!(f, ", gadget {g}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A labelled rectangle of the layout, used to attribute free cells back
/// to the gadget that allocated them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionSpan {
    /// Human-readable label (gadget debug string, `"inputs"`, …).
    pub label: String,
    /// Advice-column range the region occupies.
    pub columns: Range<usize>,
    /// Row range the region occupies.
    pub rows: Range<usize>,
}

impl RegionSpan {
    fn contains(&self, column: usize, row: usize) -> bool {
        self.columns.contains(&column) && self.rows.contains(&row)
    }
}

/// Everything the analyzer needs about one compiled circuit.
///
/// `zkml::CompiledCircuit::analyze` assembles this; hand-built circuits
/// (tests, external layouts) can fill it directly. `regions` may be empty
/// — free cells then just lack gadget attribution.
pub struct AnalysisInput<'a> {
    /// The constraint system (gates, lookups, permutation columns).
    pub cs: &'a ConstraintSystem,
    /// Fixed-column assignments and copy constraints. Fixed columns may be
    /// shorter than the domain; the analyzer zero-pads.
    pub pre: &'a Preprocessed,
    /// log2 of the number of rows.
    pub k: u32,
    /// Every advice cell the synthesis assigned, in any order; a cell
    /// listed twice counts once.
    pub assigned: &'a [CellRef],
    /// The declared input home cells (exempt from determinism, still
    /// required to be bound).
    pub inputs: &'a [CellRef],
    /// Layout regions for attribution.
    pub regions: &'a [RegionSpan],
}

/// The analyzer's verdict on one circuit.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Cells that could not be proven determined, sorted by (column, row).
    pub free: Vec<FreeCell>,
    /// Number of non-input assigned advice cells checked.
    pub cells_checked: usize,
    /// Number of declared input cells checked for boundness.
    pub inputs_checked: usize,
    /// Fixpoint rounds the engine ran (the last one makes no progress).
    pub rounds: usize,
    /// Gate polynomials and lookup input tuples evaluated, over all rounds
    /// (a constraint skipped on a row where its selector is zero is not
    /// evaluated).
    pub evaluations: usize,
    /// Lookup tables materialized: one per distinct fixed-only table.
    pub tables: usize,
}

impl AnalysisReport {
    /// True when every cell passed.
    pub fn is_clean(&self) -> bool {
        self.free.is_empty()
    }

    /// One-line human summary.
    pub(crate) fn summary(&self) -> String {
        format!(
            "{} free cell(s) / {} checked ({} inputs), {} round(s)",
            self.free.len(),
            self.cells_checked,
            self.inputs_checked,
            self.rounds
        )
    }

    /// The summary line and the first `max_cells` free cells, then how
    /// many more there are: a rendering whose size does not grow with the
    /// number of free cells ([`Display`](fmt::Display) lists them all).
    pub fn excerpt(&self, max_cells: usize) -> String {
        let mut out = format!("{}\n", self.summary());
        for cell in self.free.iter().take(max_cells) {
            out.push_str(&format!("  {cell}\n"));
        }
        if self.free.len() > max_cells {
            out.push_str(&format!("  … and {} more\n", self.free.len() - max_cells));
        }
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.excerpt(self.free.len()))
    }
}

/// Runs the deterministic-cell analysis over one compiled circuit.
pub fn analyze(input: &AnalysisInput<'_>) -> AnalysisReport {
    let mut eng = Engine::new(input.cs, input.pre, input.k, input.assigned, input.inputs);
    eng.run();

    // The grid's assigned cells come back from the engine in (column, row)
    // order, each once; cells outside the grid (none in a compiled circuit)
    // belong to no class.
    let outside = |c: &&CellRef| matches!(c.column, Column::Advice(_)) && !eng.in_grid(c);
    let stray_inputs: HashSet<CellRef> = input.inputs.iter().filter(outside).copied().collect();
    let mut stray: Vec<CellRef> = input.assigned.iter().filter(outside).copied().collect();
    stray.sort_by_key(|c| (c.column, c.row));
    stray.dedup();
    let stray = stray.into_iter().map(|c| (c, stray_inputs.contains(&c)));

    let mut free = Vec::new();
    let mut cells_checked = 0usize;
    let mut inputs_checked = 0usize;
    for (cell, is_input) in eng.assigned_cells().chain(stray) {
        let Column::Advice(col) = cell.column else {
            continue;
        };
        if is_input {
            inputs_checked += 1;
            let bound =
                eng.class_size(&cell) > 1 || eng.is_anchored(&cell) || eng.has_occurred(&cell);
            if !bound {
                free.push(make_free(input, col, cell.row, FreeReason::UnboundInput));
            }
        } else {
            cells_checked += 1;
            if !eng.cell_known(&cell) {
                free.push(make_free(input, col, cell.row, FreeReason::NotDetermined));
            }
        }
    }
    free.sort_by_key(|f| (f.column, f.row));
    free.dedup();
    AnalysisReport {
        free,
        cells_checked,
        inputs_checked,
        rounds: eng.rounds,
        evaluations: eng.evaluations,
        tables: eng.tables(),
    }
}

fn make_free(input: &AnalysisInput<'_>, col: usize, row: usize, reason: FreeReason) -> FreeCell {
    let span = input.regions.iter().find(|r| r.contains(col, row));
    FreeCell {
        gadget: span
            .filter(|r| r.label != "inputs" && r.label != "freivalds")
            .map(|r| r.label.clone()),
        region: span.map(|r| r.label.clone()),
        column: Column::Advice(col),
        row,
        reason,
    }
}
