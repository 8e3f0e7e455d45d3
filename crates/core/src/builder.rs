//! The circuit builder: gadget registry, row-exact layout, and witness
//! assignment.
//!
//! Synthesis (stage 3) replays an [`crate::schedule::OpSchedule`] (or a
//! hand-written closure in the testkit) over the gadget methods below,
//! which lay out rows, record copies and assign the witness. Placement
//! (stage 2) uses the same builder without calling a gadget: for each
//! distinct op shape it runs the registrations [`crate::shape::shape`]
//! lists through the registry methods here (`selector`, `ensure_phase1`,
//! `ensure_committed`, `require_range`, `constant`) and then advances the
//! row and copy cursors by the shape's counts ([`CircuitBuilder::place_shape`]).
//! Registration writes no values — table and constant contents are written
//! at finalization ([`CircuitBuilder::write_tables`]) — so the constraint
//! system a plan carries is built by the very code synthesis runs.

use crate::config::CircuitConfig;
use crate::shape::{Reg, Shape};
use crate::tables::{nonlin_entries, TableFn};
use std::collections::HashMap;
use zkml_analyze::RegionSpan;
use zkml_ff::{Fr, PrimeField};
use zkml_plonk::{CellRef, Column, ConstraintSystem, Expression, Rotation, BLINDING_FACTORS};

/// A constrained grid cell carrying its quantized witness value.
#[derive(Clone, Copy, Debug)]
pub struct AValue {
    /// The cell.
    pub cell: CellRef,
    /// The fixed-point value.
    pub v: i64,
}

impl AValue {
    /// A stand-in for values whose cells do not matter: placement exposes
    /// as many of these as a schedule has outputs.
    pub(crate) const BLANK: AValue = AValue {
        cell: CellRef {
            column: Column::Advice(0),
            row: 0,
        },
        v: 0,
    };
}

/// Errors during circuit construction.
#[derive(Debug)]
pub enum BuildError {
    /// The configuration cannot express the circuit (e.g. too few columns).
    Layout(String),
    /// A witness value fell outside a lookup-table domain.
    Range(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Layout(s) => write!(f, "layout error: {s}"),
            BuildError::Range(s) => write!(f, "range error: {s}"),
        }
    }
}
impl std::error::Error for BuildError {}

/// The layout error a gadget returns below `min` columns; placement by
/// shape returns the same one.
pub(crate) fn check_cols(n: usize, min: usize, gadget: &str) -> Result<(), BuildError> {
    if n < min {
        return Err(BuildError::Layout(format!(
            "{gadget} needs >= {min} columns"
        )));
    }
    Ok(())
}

/// [`check_cols`] for bit-decomposition ReLU, whose row holds the input,
/// the output and one cell per table bit.
pub(crate) fn check_relu_bits_cols(cfg: &CircuitConfig) -> Result<(), BuildError> {
    let need = cfg.numeric.table_bits() as usize + 2;
    if cfg.num_cols < need {
        return Err(BuildError::Layout(format!(
            "bit-decomposition ReLU needs {need} columns, have {}",
            cfg.num_cols
        )));
    }
    Ok(())
}

/// Gadget identity within the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gadget {
    /// Dot product with bias chaining; `true` = phase-1 plane.
    DotBias(bool),
    /// Dot product without bias.
    DotPlain,
    /// Row sum.
    Sum,
    /// Packed addition triples.
    AddPack,
    /// Packed subtraction triples.
    SubPack,
    /// Packed multiplication triples.
    MulPack,
    /// Packed squaring pairs.
    SquarePack,
    /// Packed squared-difference triples.
    SqDiffPack,
    /// Fixed-point rescale (DivRound by the scale factor).
    DivRound,
    /// Pointwise non-linearity lookup.
    Nonlin(TableFn),
    /// Packed max triples.
    MaxPack,
    /// Rounded variable division (softmax).
    VarDiv,
    /// Bit-decomposition ReLU.
    BitDecomp,
    /// Challenge power chain (phase-1).
    ChalPow,
}

struct TableCols {
    f: TableFn,
    cols: Vec<usize>,
    len: usize,
    /// Default (input, output, ...) tuple guaranteed in-table.
    defaults: Vec<i64>,
}

/// Aggregate structure statistics used by the cost model.
///
/// Derives equality so a [`crate::compiler::LayoutPlan`]'s statistics can
/// be checked against what synthesis actually produced.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Rows consumed (max over planes, tables and constants).
    pub rows: usize,
    /// Instance columns.
    pub num_instance: usize,
    /// Advice columns (both phases).
    pub num_advice: usize,
    /// Fixed columns (selectors, tables, constants).
    pub num_fixed: usize,
    /// Lookup arguments.
    pub num_lookups: usize,
    /// Columns in the permutation argument.
    pub num_perm_columns: usize,
    /// Global constraint degree.
    pub degree: usize,
    /// Total polynomial constraints.
    pub num_constraints: usize,
    /// Copy constraints recorded.
    pub num_copies: usize,
    /// Committed (weight) columns.
    pub num_committed: usize,
}

/// The circuit builder.
pub struct CircuitBuilder {
    /// The configuration being compiled under.
    pub cfg: CircuitConfig,
    /// The constraint system under construction.
    pub cs: ConstraintSystem,
    grid: Vec<usize>,
    p1: Vec<usize>,
    committed: Vec<usize>,
    instance_col: usize,
    const_col: usize,
    row: usize,
    p1_row: usize,
    committed_row: usize,
    advice_vals: Vec<Vec<Fr>>,
    committed_vals: Vec<Vec<Fr>>,
    fixed_vals: Vec<Vec<Fr>>,
    copies: Vec<(CellRef, CellRef)>,
    instance_vals: Vec<Fr>,
    /// Each pinned constant's row in the constant column.
    const_rows: HashMap<i64, usize>,
    selectors: HashMap<Gadget, usize>,
    tables: HashMap<TableFn, usize>,
    table_infos: Vec<TableCols>,
    range_table: Option<usize>,
    range_needed: i64,
    /// Challenge index, once phase-1 machinery is instantiated.
    pub challenge: Option<usize>,
    max_table_len: usize,
    copy_count: usize,
    /// Capacity a value column gets when first written (see `reserve`).
    col_capacity: usize,
    freivalds_jobs: Vec<crate::freivalds::FreivaldsJob>,
    /// Every advice/instance cell written during real synthesis, in write
    /// order — the mutation surface for the adversarial soundness harness.
    assigned: Vec<CellRef>,
    /// Home cells created by [`CircuitBuilder::load_values`] — the circuit
    /// inputs the static analyzer exempts from its determinism requirement
    /// (they are constrained at use sites through copies).
    inputs: Vec<CellRef>,
    /// Labelled layout regions (gadget rows, input rows) for attributing
    /// analyzer findings back to the gadget that allocated the cell.
    regions: Vec<RegionSpan>,
}

impl CircuitBuilder {
    /// Creates a builder: gadget calls lay out rows and assign the
    /// witness and fixed values.
    pub fn new(cfg: CircuitConfig) -> Self {
        let mut cs = ConstraintSystem::new();
        let instance_col = cs.instance_column();
        cs.enable_equality(Column::Instance(instance_col));
        let const_col = cs.fixed_column();
        cs.enable_equality(Column::Fixed(const_col));
        let grid: Vec<usize> = (0..cfg.num_cols)
            .map(|_| {
                let c = cs.advice_column(0);
                cs.enable_equality(Column::Advice(c));
                c
            })
            .collect();
        Self {
            cfg,
            cs,
            grid,
            p1: Vec::new(),
            committed: Vec::new(),
            instance_col,
            const_col,
            row: 0,
            p1_row: 0,
            committed_row: 0,
            advice_vals: Vec::new(),
            committed_vals: Vec::new(),
            fixed_vals: Vec::new(),
            copies: Vec::new(),
            instance_vals: Vec::new(),
            const_rows: HashMap::new(),
            selectors: HashMap::new(),
            tables: HashMap::new(),
            table_infos: Vec::new(),
            range_table: None,
            range_needed: 0,
            challenge: None,
            max_table_len: 0,
            copy_count: 0,
            col_capacity: 0,
            freivalds_jobs: Vec::new(),
            assigned: Vec::new(),
            inputs: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// The fixed-point scale factor.
    pub fn scale(&self) -> i64 {
        self.cfg.numeric.scale()
    }

    /// Registers a requirement that the range table cover `[0, bound)`.
    fn require_range(&mut self, bound: i64) {
        self.range_needed = self.range_needed.max(bound);
    }

    /// Current size of the range table (`[0, next_pow2(needed))`).
    pub(crate) fn range_size(&self) -> usize {
        (self.range_needed.max(2) as usize).next_power_of_two()
    }

    // --- low-level cell plumbing -----------------------------------------

    fn set_advice(&mut self, cs_col: usize, row: usize, v: i64) {
        self.assigned.push(CellRef {
            column: Column::Advice(cs_col),
            row,
        });
        if self.advice_vals.len() <= cs_col {
            self.advice_vals.resize(cs_col + 1, Vec::new());
        }
        let col = &mut self.advice_vals[cs_col];
        if col.capacity() == 0 {
            col.reserve_exact(self.col_capacity);
        }
        if col.len() <= row {
            col.resize(row + 1, Fr::ZERO);
        }
        col[row] = Fr::from_i64(v);
    }

    fn set_fixed(&mut self, cs_col: usize, row: usize, v: i64) {
        if self.fixed_vals.len() <= cs_col {
            self.fixed_vals.resize(cs_col + 1, Vec::new());
        }
        let col = &mut self.fixed_vals[cs_col];
        if col.capacity() == 0 {
            col.reserve_exact(self.col_capacity);
        }
        if col.len() <= row {
            col.resize(row + 1, Fr::ZERO);
        }
        col[row] = Fr::from_i64(v);
    }

    fn copy(&mut self, a: CellRef, b: CellRef) {
        self.copy_count += 1;
        self.copies.push((a, b));
    }

    /// Writes `src` into grid cell (`col_j`, `row`) with a copy constraint.
    fn place(&mut self, col_j: usize, row: usize, src: &AValue) -> CellRef {
        let cell = CellRef {
            column: Column::Advice(self.grid[col_j]),
            row,
        };
        self.set_advice(self.grid[col_j], row, src.v);
        self.copy(src.cell, cell);
        cell
    }

    /// Writes a fresh value into grid cell (`col_j`, `row`).
    fn fresh(&mut self, col_j: usize, row: usize, v: i64) -> AValue {
        let cell = CellRef {
            column: Column::Advice(self.grid[col_j]),
            row,
        };
        self.set_advice(self.grid[col_j], row, v);
        AValue { cell, v }
    }

    /// Records a labelled grid row for analyzer attribution. Rows are
    /// allocated in ascending order, so runs of the same label merge into
    /// one span.
    fn note_region(&mut self, label: &str, row: usize) {
        let columns = self.grid[0]..self.grid[self.grid.len() - 1] + 1;
        if let Some(last) = self.regions.last_mut() {
            if last.rows.end == row && last.label == label && last.columns == columns {
                last.rows.end = row + 1;
                return;
            }
        }
        self.regions.push(RegionSpan {
            label: label.to_string(),
            columns,
            rows: row..row + 1,
        });
    }

    fn alloc_row(&mut self, gadget: Gadget) -> usize {
        let r = self.row;
        self.row += 1;
        let sel = self.selector(gadget);
        self.set_fixed(sel, r, 1);
        self.note_region(&format!("{gadget:?}"), r);
        r
    }

    /// Allocates a constraint-free row (home cells for inputs/weights and
    /// Freivalds product witnesses).
    fn alloc_free_row(&mut self) -> usize {
        let r = self.row;
        self.row += 1;
        self.note_region("inputs", r);
        r
    }

    /// Returns a pinned constant cell (taking the next row of the constant
    /// column on first use; the value is written by `write_tables`).
    pub(crate) fn constant(&mut self, v: i64) -> AValue {
        let next = self.const_rows.len();
        let row = *self.const_rows.entry(v).or_insert(next);
        AValue {
            cell: CellRef {
                column: Column::Fixed(self.const_col),
                row,
            },
            v,
        }
    }

    /// Loads raw values into home cells (no constraints; constrained at use
    /// sites through copies).
    pub fn load_values(&mut self, values: &[i64]) -> Vec<AValue> {
        let n = self.cfg.num_cols;
        let mut out = Vec::with_capacity(values.len());
        for chunk in values.chunks(n) {
            let row = self.alloc_free_row();
            for (j, &v) in chunk.iter().enumerate() {
                let a = self.fresh(j, row, v);
                self.inputs.push(a.cell);
                out.push(a);
            }
        }
        out
    }

    /// Ensures the committed (weight) column plane exists. Created lazily
    /// so weight-free circuits keep `num_committed = 0` and an unchanged
    /// constraint-system digest.
    fn ensure_committed(&mut self) {
        if !self.committed.is_empty() {
            return;
        }
        self.committed = (0..self.cfg.num_cols)
            .map(|_| {
                let c = self.cs.committed_column();
                self.cs.enable_equality(Column::Committed(c));
                c
            })
            .collect();
    }

    fn set_committed(&mut self, cs_col: usize, row: usize, v: i64) {
        if self.committed_vals.len() <= cs_col {
            self.committed_vals.resize(cs_col + 1, Vec::new());
        }
        let col = &mut self.committed_vals[cs_col];
        if col.len() <= row {
            col.resize(row + 1, Fr::ZERO);
        }
        col[row] = Fr::from_i64(v);
    }

    /// Loads model weights into home cells of the *committed* column plane.
    ///
    /// Like [`CircuitBuilder::load_values`] the cells carry no gate
    /// constraints — they are constrained at use sites through copies (the
    /// CP-SNARK link). Unlike advice, committed columns are committed once
    /// per model (`commit_weights`) and bound to the transcript by digest,
    /// so the same published commitment serves every proof.
    pub(crate) fn load_weights(&mut self, values: &[i64]) -> Vec<AValue> {
        self.ensure_committed();
        let n = self.cfg.num_cols;
        let mut out = Vec::with_capacity(values.len());
        for chunk in values.chunks(n) {
            let row = self.committed_row;
            self.committed_row += 1;
            for (j, &v) in chunk.iter().enumerate() {
                let cell = CellRef {
                    column: Column::Committed(self.committed[j]),
                    row,
                };
                self.set_committed(self.committed[j], row, v);
                out.push(AValue { cell, v });
            }
        }
        out
    }

    /// Exposes values as public outputs (instance column).
    pub(crate) fn expose(&mut self, values: &[AValue]) {
        for v in values {
            let row = self.instance_vals.len();
            let inst = CellRef {
                column: Column::Instance(self.instance_col),
                row,
            };
            self.instance_vals.push(Fr::from_i64(v.v));
            self.assigned.push(inst);
            self.copy(v.cell, inst);
        }
    }

    // --- gadget registry ---------------------------------------------------

    fn q(&self, sel: usize) -> Expression {
        Expression::Fixed(sel, Rotation::cur())
    }

    fn a(&self, col_j: usize) -> Expression {
        Expression::Advice(self.grid[col_j], Rotation::cur())
    }

    fn a1(&self, col_j: usize) -> Expression {
        Expression::Advice(self.p1[col_j], Rotation::cur())
    }

    /// Ensures phase-1 columns and the challenge exist (Freivalds).
    pub(crate) fn ensure_phase1(&mut self) {
        if self.challenge.is_some() {
            return;
        }
        self.challenge = Some(self.cs.challenge());
        self.p1 = (0..self.cfg.num_cols)
            .map(|_| {
                let c = self.cs.advice_column(1);
                self.cs.enable_equality(Column::Advice(c));
                c
            })
            .collect();
    }

    /// Creates the range-check table column on first use. Its entries are
    /// written at finalization (`write_range_table`) once all gadget bounds
    /// are known; rows beyond the final size stay zero, which is harmless
    /// because 0 is itself a range member.
    fn ensure_range_table(&mut self) -> usize {
        if let Some(col) = self.range_table {
            return col;
        }
        let col = self.cs.fixed_column();
        self.range_table = Some(col);
        col
    }

    /// Writes what registration left unwritten: the range table entries
    /// `[0, range_size)`, each non-linearity table over its whole domain
    /// (see `nonlin_entries`), and the pinned constants.
    pub(crate) fn write_tables(&mut self) {
        if let Some(col) = self.range_table {
            for i in 0..self.range_size() {
                self.set_fixed(col, i, i as i64);
            }
        }
        for t in 0..self.table_infos.len() {
            let (f, in_col, out_col) = {
                let info = &self.table_infos[t];
                (info.f, info.cols[0], info.cols[1])
            };
            let entries = nonlin_entries(f, &self.cfg.numeric);
            debug_assert_eq!(entries.len(), self.table_infos[t].len, "table length");
            for (i, (x, y)) in entries.into_iter().enumerate() {
                self.set_fixed(in_col, i, x);
                self.set_fixed(out_col, i, y);
            }
        }
        let consts: Vec<(i64, usize)> = self.const_rows.iter().map(|(&v, &r)| (v, r)).collect();
        for (v, row) in consts {
            self.set_fixed(self.const_col, row, v);
        }
    }

    fn ensure_nonlin_table(&mut self, f: TableFn) -> (usize, usize, i64, i64) {
        if let Some(&idx) = self.tables.get(&f) {
            let t = &self.table_infos[idx];
            return (t.cols[0], t.cols[1], t.defaults[0], t.defaults[1]);
        }
        let in_col = self.cs.fixed_column();
        let out_col = self.cs.fixed_column();
        // The table spans the whole domain; `write_tables` fills it.
        let len = 1usize << self.cfg.numeric.table_bits();
        let default = (0, crate::tables::table_eval(f, 0, self.scale()));
        self.max_table_len = self.max_table_len.max(len);
        self.table_infos.push(TableCols {
            f,
            cols: vec![in_col, out_col],
            len,
            defaults: vec![default.0, default.1],
        });
        self.tables.insert(f, self.table_infos.len() - 1);
        (in_col, out_col, default.0, default.1)
    }

    /// Gates an expression toward an in-table default when the selector is
    /// off: `q * (e - d) + d`.
    fn gated(&self, sel: usize, e: Expression, d: i64) -> Expression {
        self.q(sel) * (e - Expression::Constant(Fr::from_i64(d)))
            + Expression::Constant(Fr::from_i64(d))
    }

    /// Returns (creating on demand) the selector column for a gadget,
    /// registering its gate and lookups.
    fn selector(&mut self, g: Gadget) -> usize {
        if let Some(&s) = self.selectors.get(&g) {
            return s;
        }
        let sel = self.cs.fixed_column();
        self.selectors.insert(g, sel);
        let n = self.cfg.num_cols;
        let packs = self.cfg.choices.lookup_packs.min(n / 3).max(1);
        let sf = Fr::from_i64(self.scale());
        match g {
            Gadget::DotBias(p1_plane) => {
                let m = (n - 2) / 2;
                let col = |j: usize| {
                    if p1_plane {
                        self.a1(j)
                    } else {
                        self.a(j)
                    }
                };
                let mut acc = col(n - 1) - col(n - 2); // z - b
                for i in 0..m {
                    acc = acc - col(i) * col(m + i);
                }
                self.cs
                    .create_gate(format!("dot_bias(p1={p1_plane})"), vec![self.q(sel) * acc]);
            }
            Gadget::DotPlain => {
                let m = (n - 1) / 2;
                let mut acc = self.a(n - 1);
                for i in 0..m {
                    acc = acc - self.a(i) * self.a(m + i);
                }
                self.cs.create_gate("dot_plain", vec![self.q(sel) * acc]);
            }
            Gadget::Sum => {
                let mut acc = self.a(n - 1);
                for i in 0..n - 1 {
                    acc = acc - self.a(i);
                }
                self.cs.create_gate("sum", vec![self.q(sel) * acc]);
            }
            Gadget::AddPack | Gadget::SubPack | Gadget::MulPack | Gadget::SqDiffPack => {
                let slots = n / 3;
                let mut polys = Vec::with_capacity(slots);
                for s in 0..slots {
                    let (a, b, c) = (self.a(3 * s), self.a(3 * s + 1), self.a(3 * s + 2));
                    let e = match g {
                        Gadget::AddPack => a + b - c,
                        Gadget::SubPack => a - b - c,
                        Gadget::MulPack => a * b - c,
                        Gadget::SqDiffPack => (a.clone() - b.clone()) * (a - b) - c,
                        _ => unreachable!(),
                    };
                    polys.push(self.q(sel) * e);
                }
                self.cs.create_gate(format!("{g:?}"), polys);
            }
            Gadget::SquarePack => {
                let slots = n / 2;
                let mut polys = Vec::with_capacity(slots);
                for s in 0..slots {
                    let (a, b) = (self.a(2 * s), self.a(2 * s + 1));
                    polys.push(self.q(sel) * (a.clone() * a - b));
                }
                self.cs.create_gate("square", polys);
            }
            Gadget::DivRound => {
                let range = self.ensure_range_table();
                self.require_range(2 * self.scale());
                let two_sf = Fr::from_i64(2 * self.scale());
                let mut polys = Vec::with_capacity(packs);
                for s in 0..packs {
                    let (x, y, r) = (self.a(3 * s), self.a(3 * s + 1), self.a(3 * s + 2));
                    polys.push(
                        self.q(sel)
                            * (x.clone() + x + Expression::Constant(sf)
                                - y * Expression::Constant(two_sf)
                                - r),
                    );
                }
                self.cs.create_gate("div_round", polys);
                for s in 0..packs {
                    let r = self.a(3 * s + 2);
                    let hi = Expression::Constant(Fr::from_i64(2 * self.scale() - 1)) - r.clone();
                    let in_r = self.gated(sel, r, 0);
                    let in_hi = self.gated(sel, hi, 2 * self.scale() - 1);
                    self.cs.create_lookup(
                        format!("div_round_r{s}"),
                        vec![in_r],
                        vec![Expression::Fixed(range, Rotation::cur())],
                    );
                    self.cs.create_lookup(
                        format!("div_round_hi{s}"),
                        vec![in_hi],
                        vec![Expression::Fixed(range, Rotation::cur())],
                    );
                }
            }
            Gadget::Nonlin(f) => {
                let (t_in, t_out, d_in, d_out) = self.ensure_nonlin_table(f);
                for s in 0..self.nonlin_packs() {
                    let x = self.gated(sel, self.a(2 * s), d_in);
                    let y = self.gated(sel, self.a(2 * s + 1), d_out);
                    self.cs.create_lookup(
                        format!("nonlin{f:?}#{s}"),
                        vec![x, y],
                        vec![
                            Expression::Fixed(t_in, Rotation::cur()),
                            Expression::Fixed(t_out, Rotation::cur()),
                        ],
                    );
                }
            }
            Gadget::MaxPack => {
                let range = self.ensure_range_table();
                // Differences of in-domain values fit the value range.
                self.require_range(1 << self.cfg.numeric.table_bits());
                let mut polys = Vec::with_capacity(packs);
                for s in 0..packs {
                    let (a, b, c) = (self.a(3 * s), self.a(3 * s + 1), self.a(3 * s + 2));
                    polys.push(self.q(sel) * (c.clone() - a) * (c - b));
                }
                self.cs.create_gate("max", polys);
                for s in 0..packs {
                    let (a, b, c) = (self.a(3 * s), self.a(3 * s + 1), self.a(3 * s + 2));
                    let ca = self.gated(sel, c.clone() - a, 0);
                    let cb = self.gated(sel, c - b, 0);
                    self.cs.create_lookup(
                        format!("max_ca{s}"),
                        vec![ca],
                        vec![Expression::Fixed(range, Rotation::cur())],
                    );
                    self.cs.create_lookup(
                        format!("max_cb{s}"),
                        vec![cb],
                        vec![Expression::Fixed(range, Rotation::cur())],
                    );
                }
            }
            Gadget::VarDiv => {
                let range = self.ensure_range_table();
                let slots = (n / 4).min(packs).max(1);
                let mut polys = Vec::with_capacity(slots);
                for s in 0..slots {
                    let (nv, a, c, r) = (
                        self.a(4 * s),
                        self.a(4 * s + 1),
                        self.a(4 * s + 2),
                        self.a(4 * s + 3),
                    );
                    // 2*SF*n + a - 2*a*c - r = 0  <=>  c = round(n*SF / a).
                    polys.push(
                        self.q(sel)
                            * (nv * Expression::Constant(sf + sf) + a.clone()
                                - (a * c) * Expression::Constant(Fr::from_u64(2))
                                - r),
                    );
                }
                self.cs.create_gate("var_div", polys);
                for s in 0..slots {
                    let (a, r) = (self.a(4 * s + 1), self.a(4 * s + 3));
                    let in_r = self.gated(sel, r.clone(), 0);
                    // r < 2a  <=>  2a - 1 - r in [0, 2^rb).
                    let hi = a.clone() + a - Expression::Constant(Fr::ONE) - r;
                    // Default when inactive: a = r = 0 -> hi = -1, not in
                    // table; gate the whole expression to 0 instead.
                    let in_hi = self.q(sel) * hi;
                    self.cs.create_lookup(
                        format!("var_div_r{s}"),
                        vec![in_r],
                        vec![Expression::Fixed(range, Rotation::cur())],
                    );
                    self.cs.create_lookup(
                        format!("var_div_hi{s}"),
                        vec![in_hi],
                        vec![Expression::Fixed(range, Rotation::cur())],
                    );
                }
            }
            Gadget::BitDecomp => {
                let tb = self.cfg.numeric.table_bits() as usize;
                let mut polys = Vec::new();
                let x = self.a(0);
                let y = self.a(1);
                // Offset-binary: x + 2^(tb-1) = sum 2^i b_i.
                let mut recompose = x.clone() + Expression::Constant(Fr::from_i64(1 << (tb - 1)));
                for i in 0..tb {
                    let b = self.a(2 + i);
                    polys.push(
                        self.q(sel) * b.clone() * (b.clone() - Expression::Constant(Fr::ONE)),
                    );
                    recompose = recompose - b * Fr::from_u64(1u64 << i);
                }
                polys.push(self.q(sel) * recompose);
                // Top bit = 1 iff x >= 0; y = x * top.
                let top = self.a(2 + tb - 1);
                polys.push(self.q(sel) * (y - x * top));
                self.cs.create_gate("relu_bits", polys);
            }
            Gadget::ChalPow => {
                let chi = Expression::Challenge(self.challenge.expect("phase1 enabled"));
                let mut polys = Vec::with_capacity(n - 1);
                for j in 0..n - 1 {
                    polys.push(self.q(sel) * (self.a1(j + 1) - self.a1(j) * chi.clone()));
                }
                self.cs.create_gate("challenge_powers", polys);
            }
        }
        sel
    }

    /// Lookup packing for nonlinearity rows (2 cells per slot).
    pub(crate) fn nonlin_packs(&self) -> usize {
        self.cfg
            .choices
            .lookup_packs
            .min(self.cfg.num_cols / 2)
            .max(1)
    }

    /// Packing for 3-cell lookup gadgets (DivRound, Max).
    pub(crate) fn pack3(&self) -> usize {
        self.cfg
            .choices
            .lookup_packs
            .min(self.cfg.num_cols / 3)
            .max(1)
    }

    // --- mid-level gadget invocations ------------------------------------

    /// Computes a dot product `sum x_i y_i (+ init)`, returning the result
    /// cell. Handles arbitrary lengths by chunking across rows.
    pub fn dot(
        &mut self,
        xs: &[AValue],
        ys: &[AValue],
        init: Option<AValue>,
    ) -> Result<AValue, BuildError> {
        assert_eq!(xs.len(), ys.len(), "dot operand length mismatch");
        check_cols(self.cfg.num_cols, 5, "dot")?;
        match self.cfg.choices.dot {
            crate::config::DotImpl::BiasChain => self.dot_bias_chain(xs, ys, init),
            crate::config::DotImpl::PartialsThenSum => {
                let partials = self.dot_partials(xs, ys)?;
                let mut all = partials;
                if let Some(b) = init {
                    all.push(b);
                }
                self.sum(&all)
            }
        }
    }

    fn dot_bias_chain(
        &mut self,
        xs: &[AValue],
        ys: &[AValue],
        init: Option<AValue>,
    ) -> Result<AValue, BuildError> {
        let n = self.cfg.num_cols;
        let m = (n - 2) / 2;
        let zero = self.constant(0);
        let mut carry = init.unwrap_or(zero);
        let mut out = carry;
        for (cx, cy) in xs.chunks(m).zip(ys.chunks(m)) {
            let row = self.alloc_row(Gadget::DotBias(false));
            for (i, (x, y)) in cx.iter().zip(cy).enumerate() {
                self.place(i, row, x);
                self.place(m + i, row, y);
            }
            // Unused slots stay zero (0*0 contributes nothing).
            self.place(n - 2, row, &carry);
            let z: i64 = carry.v
                + cx.iter()
                    .zip(cy)
                    .map(|(x, y)| x.v.checked_mul(y.v).expect("dot overflow"))
                    .sum::<i64>();
            out = self.fresh(n - 1, row, z);
            carry = out;
        }
        Ok(out)
    }

    fn dot_partials(&mut self, xs: &[AValue], ys: &[AValue]) -> Result<Vec<AValue>, BuildError> {
        let n = self.cfg.num_cols;
        let m = (n - 1) / 2;
        let mut partials = Vec::new();
        for (cx, cy) in xs.chunks(m).zip(ys.chunks(m)) {
            let row = self.alloc_row(Gadget::DotPlain);
            for (i, (x, y)) in cx.iter().zip(cy).enumerate() {
                self.place(i, row, x);
                self.place(m + i, row, y);
            }
            let z: i64 = cx.iter().zip(cy).map(|(x, y)| x.v * y.v).sum();
            partials.push(self.fresh(n - 1, row, z));
        }
        Ok(partials)
    }

    /// Sums a list of values (tree of sum rows).
    pub fn sum(&mut self, xs: &[AValue]) -> Result<AValue, BuildError> {
        check_cols(self.cfg.num_cols, 3, "sum")?;
        if xs.is_empty() {
            return Ok(self.constant(0));
        }
        if xs.len() == 1 {
            return Ok(xs[0]);
        }
        let n = self.cfg.num_cols;
        let mut level: Vec<AValue> = xs.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(n - 1));
            for chunk in level.chunks(n - 1) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let row = self.alloc_row(Gadget::Sum);
                for (i, x) in chunk.iter().enumerate() {
                    self.place(i, row, x);
                }
                let z: i64 = chunk.iter().map(|x| x.v).sum();
                next.push(self.fresh(n - 1, row, z));
            }
            level = next;
        }
        Ok(level[0])
    }

    /// Packed binary arithmetic over pairs, returning the outputs.
    pub fn arith_pack(
        &mut self,
        kind: Gadget,
        pairs: &[(AValue, AValue)],
    ) -> Result<Vec<AValue>, BuildError> {
        if matches!(self.cfg.choices.arith, crate::config::ArithImpl::ViaDot) {
            return self.arith_via_dot(kind, pairs);
        }
        check_cols(self.cfg.num_cols, 3, "arith pack")?;
        let slots = self.cfg.num_cols / 3;
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(slots) {
            let row = self.alloc_row(kind);
            for (s, (a, b)) in chunk.iter().enumerate() {
                self.place(3 * s, row, a);
                self.place(3 * s + 1, row, b);
                let c = match kind {
                    Gadget::AddPack => a.v + b.v,
                    Gadget::SubPack => a.v - b.v,
                    Gadget::MulPack => a.v * b.v,
                    Gadget::SqDiffPack => (a.v - b.v) * (a.v - b.v),
                    _ => unreachable!("not an arith pack gadget"),
                };
                out.push(self.fresh(3 * s + 2, row, c));
            }
        }
        Ok(out)
    }

    fn arith_via_dot(
        &mut self,
        kind: Gadget,
        pairs: &[(AValue, AValue)],
    ) -> Result<Vec<AValue>, BuildError> {
        let one = self.constant(1);
        let neg_one = self.constant(-1);
        let mut out = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let r = match kind {
                Gadget::AddPack => self.dot(&[*a, *b], &[one, one], None)?,
                Gadget::SubPack => self.dot(&[*a, *b], &[one, neg_one], None)?,
                Gadget::MulPack => self.dot(&[*a], &[*b], None)?,
                Gadget::SqDiffPack => {
                    let d = self.dot(&[*a, *b], &[one, neg_one], None)?;
                    self.dot(&[d], &[d], None)?
                }
                _ => unreachable!("not an arith pack gadget"),
            };
            out.push(r);
        }
        Ok(out)
    }

    /// Packed squaring.
    pub fn square_pack(&mut self, xs: &[AValue]) -> Result<Vec<AValue>, BuildError> {
        if matches!(self.cfg.choices.arith, crate::config::ArithImpl::ViaDot) {
            let pairs: Vec<(AValue, AValue)> = xs.iter().map(|x| (*x, *x)).collect();
            return pairs
                .iter()
                .map(|(a, b)| self.dot(&[*a], &[*b], None))
                .collect();
        }
        let n = self.cfg.num_cols;
        let slots = n / 2;
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(slots) {
            let row = self.alloc_row(Gadget::SquarePack);
            for (s, x) in chunk.iter().enumerate() {
                self.place(2 * s, row, x);
                out.push(self.fresh(2 * s + 1, row, x.v * x.v));
            }
        }
        Ok(out)
    }

    /// Rescales double-scale values back to single scale (`DivRound` by SF).
    pub fn rescale(&mut self, xs: &[AValue]) -> Result<Vec<AValue>, BuildError> {
        let slots = self.pack3();
        let sf = self.scale();
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(slots) {
            let row = self.alloc_row(Gadget::DivRound);
            for (s, x) in chunk.iter().enumerate() {
                self.place(3 * s, row, x);
                let y = zkml_model::qops::div_round(x.v, sf);
                let r = 2 * x.v + sf - 2 * sf * y;
                debug_assert!((0..2 * sf).contains(&r), "divround remainder {r}");
                out.push(self.fresh(3 * s + 1, row, y));
                self.fresh(3 * s + 2, row, r);
            }
            // Unused slots: x=0 -> y=0, r=SF (must satisfy the relation).
            for s in chunk.len()..slots {
                self.fresh(3 * s + 2, row, sf);
            }
        }
        Ok(out)
    }

    /// Applies a lookup non-linearity pointwise.
    pub fn nonlin(&mut self, f: TableFn, xs: &[AValue]) -> Result<Vec<AValue>, BuildError> {
        let slots = self.nonlin_packs();
        let half = 1i64 << (self.cfg.numeric.table_bits() - 1);
        let scale = self.scale();
        let default_out = crate::tables::table_eval(f, 0, scale);
        let mut out = Vec::with_capacity(xs.len());
        for chunk in xs.chunks(slots) {
            let row = self.alloc_row(Gadget::Nonlin(f));
            for (s, x) in chunk.iter().enumerate() {
                if x.v < -half || x.v >= half {
                    return Err(BuildError::Range(format!(
                        "nonlinearity input {} outside table domain [{}, {})",
                        x.v, -half, half
                    )));
                }
                self.place(2 * s, row, x);
                let y = crate::tables::table_eval(f, x.v, scale);
                out.push(self.fresh(2 * s + 1, row, y));
            }
            // Unused slots must hold the default table entry (0, f(0)) —
            // (0, 0) is not in the table for functions with f(0) != 0.
            for s in chunk.len()..slots {
                self.fresh(2 * s + 1, row, default_out);
            }
        }
        Ok(out)
    }

    /// ReLU with the configured implementation.
    pub fn relu(&mut self, xs: &[AValue]) -> Result<Vec<AValue>, BuildError> {
        match self.cfg.choices.relu {
            crate::config::ReluImpl::Lookup => self.nonlin(TableFn::relu(), xs),
            crate::config::ReluImpl::BitDecompose => self.relu_bits(xs),
        }
    }

    fn relu_bits(&mut self, xs: &[AValue]) -> Result<Vec<AValue>, BuildError> {
        check_relu_bits_cols(&self.cfg)?;
        let tb = self.cfg.numeric.table_bits() as usize;
        let half = 1i64 << (tb - 1);
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            if x.v < -half || x.v >= half {
                return Err(BuildError::Range(format!(
                    "ReLU input {} outside {tb}-bit domain",
                    x.v
                )));
            }
            let row = self.alloc_row(Gadget::BitDecomp);
            self.place(0, row, x);
            let y = x.v.max(0);
            out.push(self.fresh(1, row, y));
            let offset = (x.v + half) as u64;
            for i in 0..tb {
                self.fresh(2 + i, row, ((offset >> i) & 1) as i64);
            }
        }
        Ok(out)
    }

    /// Pairwise maximum (packed).
    pub(crate) fn max_pairs(
        &mut self,
        pairs: &[(AValue, AValue)],
    ) -> Result<Vec<AValue>, BuildError> {
        let slots = self.pack3();
        let rb = 1i64 << self.cfg.numeric.table_bits();
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(slots) {
            let row = self.alloc_row(Gadget::MaxPack);
            for (s, (a, b)) in chunk.iter().enumerate() {
                let c = a.v.max(b.v);
                if c - a.v >= rb || c - b.v >= rb {
                    return Err(BuildError::Range(format!(
                        "max difference exceeds range table ({} vs {})",
                        a.v, b.v
                    )));
                }
                self.place(3 * s, row, a);
                self.place(3 * s + 1, row, b);
                out.push(self.fresh(3 * s + 2, row, c));
            }
        }
        Ok(out)
    }

    /// Maximum of a list (tree of pairwise maxes).
    pub fn max_tree(&mut self, xs: &[AValue]) -> Result<AValue, BuildError> {
        assert!(!xs.is_empty(), "max of nothing");
        let mut level = xs.to_vec();
        while level.len() > 1 {
            let mut pairs = Vec::new();
            let mut carry = None;
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    pairs.push((pair[0], pair[1]));
                } else {
                    carry = Some(pair[0]);
                }
            }
            let mut next = self.max_pairs(&pairs)?;
            if let Some(c) = carry {
                next.push(c);
            }
            level = next;
        }
        Ok(level[0])
    }

    /// Rounded variable division with scaled numerators:
    /// `out_i = round(nums_i * SF / den)` (the softmax division, §6.1).
    ///
    /// `den_bound` is a static upper bound on the denominator (known from
    /// tensor shapes), which sizes the range table without reading a value,
    /// so placement sizes it the same way.
    pub fn var_div(
        &mut self,
        nums: &[AValue],
        den: AValue,
        den_bound: i64,
    ) -> Result<Vec<AValue>, BuildError> {
        check_cols(self.cfg.num_cols, 4, "variable division")?;
        let slots = (self.cfg.num_cols / 4)
            .min(self.cfg.choices.lookup_packs)
            .max(1);
        let sf = self.scale();
        self.require_range(2 * den_bound);
        if den.v <= 0 {
            return Err(BuildError::Range(
                "variable division by non-positive".into(),
            ));
        }
        if den.v > den_bound {
            return Err(BuildError::Range(format!(
                "variable divisor {} exceeds static bound {den_bound}",
                den.v
            )));
        }
        let mut out = Vec::with_capacity(nums.len());
        for chunk in nums.chunks(slots) {
            let row = self.alloc_row(Gadget::VarDiv);
            for (s, nv) in chunk.iter().enumerate() {
                self.place(4 * s, row, nv);
                self.place(4 * s + 1, row, &den);
                let c = zkml_model::qops::var_div_scaled(nv.v, den.v, sf);
                let r = 2 * sf * nv.v + den.v - 2 * den.v * c;
                debug_assert!((0..2 * den.v).contains(&r));
                out.push(self.fresh(4 * s + 2, row, c));
                self.fresh(4 * s + 3, row, r);
            }
            // Unused slots must still satisfy the constraint and range
            // checks with the selector on: n=0, a=1, c=0, r=1.
            for s in chunk.len()..slots {
                self.fresh(4 * s + 1, row, 1);
                self.fresh(4 * s + 3, row, 1);
            }
        }
        Ok(out)
    }

    // --- finalization ----------------------------------------------------

    /// Total rows required (grid, phase-1 plane, constants, tables).
    pub(crate) fn rows_used(&self) -> usize {
        let range_rows = if self.range_table.is_some() {
            self.range_size()
        } else {
            0
        };
        // Exposed values copy-constrain rows of the instance column, so
        // the instance length bounds k too. Model outputs are few, but a
        // segment's boundary tensors can dominate a small segment circuit.
        self.row
            .max(self.p1_row)
            .max(self.committed_row)
            .max(self.const_rows.len())
            .max(self.max_table_len)
            .max(range_rows)
            .max(self.instance_vals.len())
    }

    /// Minimal `k` for this circuit.
    pub(crate) fn min_k(&self) -> u32 {
        ((self.rows_used() + BLINDING_FACTORS + 1).next_power_of_two())
            .trailing_zeros()
            .max(3)
    }

    /// Structure statistics for the cost model.
    pub(crate) fn stats(&self) -> LayoutStats {
        LayoutStats {
            rows: self.rows_used(),
            num_instance: self.cs.num_instance,
            num_advice: self.cs.num_advice,
            num_fixed: self.cs.num_fixed,
            num_lookups: self.cs.lookups.len(),
            num_perm_columns: self.cs.permutation_columns.len(),
            degree: self.cs.degree(),
            num_constraints: self.cs.gates.iter().map(|g| g.polys.len()).sum(),
            num_copies: self.copy_count,
            num_committed: self.cs.num_committed,
        }
    }

    /// Places `count` ops of one shape: runs the shape's registrations
    /// through the registry (a repeated shape registers nothing new) and
    /// advances the cursors by `count` times its rows and copies. Writes
    /// no value.
    pub(crate) fn place_shape(&mut self, shape: &Shape, count: usize) {
        for reg in &shape.regs {
            match *reg {
                Reg::Selector(g) => {
                    self.selector(g);
                }
                Reg::Phase1 => self.ensure_phase1(),
                Reg::Committed => self.ensure_committed(),
                Reg::Range(bound) => self.require_range(bound),
            }
        }
        for &v in &shape.consts {
            self.constant(v);
        }
        self.row += count * shape.rows;
        self.p1_row += count * shape.p1_rows;
        self.committed_row += count * shape.committed_rows;
        self.copy_count += count * shape.copies;
    }

    // --- accessors for compiler/freivalds modules --------------------------

    /// Sizes the value columns and the copy list for a circuit whose plan
    /// is known, so synthesis grows none of them: a column or list grown
    /// by doubling leaves every smaller copy behind as a hole in the heap,
    /// and the analyzer, run next, allocates on top of those.
    pub(crate) fn reserve(&mut self, k: u32, stats: &LayoutStats) {
        self.col_capacity = (1usize << k) - BLINDING_FACTORS - 1;
        self.copies.reserve_exact(stats.num_copies);
    }
    pub(crate) fn grid_cols(&self) -> &[usize] {
        &self.grid
    }
    pub(crate) fn p1_cols(&self) -> &[usize] {
        &self.p1
    }
    pub(crate) fn p1_row_cursor(&mut self) -> &mut usize {
        &mut self.p1_row
    }
    pub(crate) fn copy_pub(&mut self, a: CellRef, b: CellRef) {
        self.copy(a, b);
    }
    pub(crate) fn selector_pub(&mut self, g: Gadget) -> usize {
        self.selector(g)
    }
    pub(crate) fn set_fixed_pub(&mut self, col: usize, row: usize, v: i64) {
        self.set_fixed(col, row, v);
    }
    #[allow(clippy::type_complexity)]
    pub(crate) fn take_parts(
        self,
    ) -> (
        ConstraintSystem,
        Vec<Vec<Fr>>,
        Vec<Vec<Fr>>,
        Vec<(CellRef, CellRef)>,
        Vec<Fr>,
        Vec<Vec<Fr>>,
    ) {
        let mut committed_vals = self.committed_vals;
        // Pad the value grid to the full committed plane so the column
        // count always matches `cs.num_committed` even when trailing
        // columns were never written.
        if !self.committed.is_empty() {
            committed_vals.resize(self.committed.len(), Vec::new());
        }
        (
            self.cs,
            self.fixed_vals,
            self.advice_vals,
            self.copies,
            self.instance_vals,
            committed_vals,
        )
    }
    pub(crate) fn take_assigned(&mut self) -> Vec<CellRef> {
        std::mem::take(&mut self.assigned)
    }
    pub(crate) fn take_inputs(&mut self) -> Vec<CellRef> {
        std::mem::take(&mut self.inputs)
    }
    pub(crate) fn take_regions(&mut self) -> Vec<RegionSpan> {
        std::mem::take(&mut self.regions)
    }
    pub(crate) fn push_freivalds_job(&mut self, job: crate::freivalds::FreivaldsJob) {
        self.freivalds_jobs.push(job);
    }
    pub(crate) fn take_freivalds_jobs(&mut self) -> Vec<crate::freivalds::FreivaldsJob> {
        std::mem::take(&mut self.freivalds_jobs)
    }
    pub(crate) fn p1_rows_used(&self) -> usize {
        self.p1_row
    }
    pub(crate) fn num_fixed_cols(&self) -> usize {
        self.cs.num_fixed
    }
    pub(crate) fn table_pad_info(&self) -> Vec<(Vec<usize>, usize, Vec<i64>)> {
        self.table_infos
            .iter()
            .map(|t| (t.cols.clone(), t.len, t.defaults.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CircuitConfig, LayoutChoices};

    fn builder(n_cols: usize) -> CircuitBuilder {
        let mut cfg = CircuitConfig::default_with(LayoutChoices::optimized());
        cfg.num_cols = n_cols;
        CircuitBuilder::new(cfg)
    }

    #[test]
    fn dot_values_accumulate() {
        let mut b = builder(8);
        let xs = b.load_values(&[1, 2, 3, 4, 5, 6, 7]);
        let ys = b.load_values(&[2, 2, 2, 2, 2, 2, 2]);
        let z = b.dot(&xs, &ys, None).unwrap();
        assert_eq!(z.v, 2 * (1 + 2 + 3 + 4 + 5 + 6 + 7));
    }

    #[test]
    fn dot_with_init() {
        let mut b = builder(8);
        let xs = b.load_values(&[3]);
        let ys = b.load_values(&[4]);
        let init = b.load_values(&[100]);
        let z = b.dot(&xs, &ys, Some(init[0])).unwrap();
        assert_eq!(z.v, 112);
    }

    #[test]
    fn sum_tree() {
        let mut b = builder(4);
        let xs = b.load_values(&(1..=10).collect::<Vec<i64>>());
        let s = b.sum(&xs).unwrap();
        assert_eq!(s.v, 55);
    }

    #[test]
    fn rescale_rounds() {
        let mut b = builder(9);
        let sf = b.scale();
        let xs = b.load_values(&[sf * sf, sf * sf / 2, -3 * sf]);
        let ys = b.rescale(&xs).unwrap();
        assert_eq!(ys[0].v, sf);
        assert_eq!(ys[1].v, sf / 2);
        // round(-3*sf / sf)= -3.
        assert_eq!(ys[2].v, -3);
    }

    #[test]
    fn relu_both_impls_agree() {
        for relu in [
            crate::config::ReluImpl::Lookup,
            crate::config::ReluImpl::BitDecompose,
        ] {
            let mut choices = LayoutChoices::optimized();
            choices.relu = relu;
            let mut cfg = CircuitConfig::default_with(choices);
            cfg.num_cols = 16;
            let mut b = CircuitBuilder::new(cfg);
            let xs = b.load_values(&[-5, 0, 7, -128, 127]);
            let ys = b.relu(&xs).unwrap();
            let got: Vec<i64> = ys.iter().map(|y| y.v).collect();
            assert_eq!(got, vec![0, 0, 7, 0, 127], "{relu:?}");
        }
    }

    #[test]
    fn max_tree_finds_max() {
        let mut b = builder(9);
        let xs = b.load_values(&[3, -7, 22, 5, 21, 0, -1]);
        let m = b.max_tree(&xs).unwrap();
        assert_eq!(m.v, 22);
    }

    #[test]
    fn var_div_matches_qops() {
        let mut b = builder(8);
        let sf = b.scale();
        let nums = b.load_values(&[sf / 2, sf, 3]);
        let den = b.load_values(&[2 * sf]);
        let out = b.var_div(&nums, den[0], 2 * sf).unwrap();
        for (x, o) in [sf / 2, sf, 3].iter().zip(&out) {
            assert_eq!(o.v, zkml_model::qops::var_div_scaled(*x, 2 * sf, sf));
        }
    }

    #[test]
    fn arith_via_dot_matches_dedicated() {
        for arith in [
            crate::config::ArithImpl::Dedicated,
            crate::config::ArithImpl::ViaDot,
        ] {
            let mut choices = LayoutChoices::optimized();
            choices.arith = arith;
            let mut cfg = CircuitConfig::default_with(choices);
            cfg.num_cols = 12;
            let mut b = CircuitBuilder::new(cfg);
            let xs = b.load_values(&[5, -3]);
            let ys = b.load_values(&[2, 8]);
            let pairs = vec![(xs[0], ys[0]), (xs[1], ys[1])];
            let add = b.arith_pack(Gadget::AddPack, &pairs).unwrap();
            let mul = b.arith_pack(Gadget::MulPack, &pairs).unwrap();
            assert_eq!((add[0].v, add[1].v), (7, 5), "{arith:?}");
            assert_eq!((mul[0].v, mul[1].v), (10, -24), "{arith:?}");
        }
    }
}
