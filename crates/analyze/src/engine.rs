//! The deterministic-cell fixpoint engine.
//!
//! Walks a circuit's constraint system with a symbolic partial evaluator:
//! fixed columns evaluate to their concrete preprocessed values, instance
//! cells and challenges are symbolic *givens*, and advice cells are
//! unknowns (collapsed into union-find classes by the copy constraints)
//! until a deduction rule pins them down. Rules are applied row by row,
//! lookups before gates, and the whole sweep repeats until a round makes
//! no progress. See the crate docs for the rule set and its caveats.
//!
//! Only work that can change a verdict is done per row:
//!
//! * **Compiled constraints.** [`Engine::new`] turns every gate polynomial
//!   and lookup input into a postfix [`Op`] program once, folding
//!   constant-only subtrees (`x − 0`, `+ 0`, `Neg(Constant)`; no symbolic
//!   cancellation). The sweep runs the programs on a reused value stack
//!   whose forms keep their terms in one [`Terms`] arena, so evaluating a
//!   constraint allocates nothing. Rotations wrap with a mask, and class
//!   roots come from a table built once after the copy unions.
//! * **Inactive rows.** A gate polynomial or a lookup whose inputs are all
//!   gated by one fixed selector (`q·(…)`, `q·(…) + c`) is skipped on rows
//!   where that selector is zero: there it evaluates to a constant, marks
//!   no occurrence and feeds no rule.
//! * **Shared tables.** Lookups with the same table expressions share one
//!   materialized table (rows stored flat) and one functionality memo.
//!
//! None of this changes which rule fires where, so a report is the same as
//! the one a per-node evaluation of every constraint on every row gives.

use crate::sym::{Coeff, Form, Term, Terms, VarId};
use std::collections::{HashMap, HashSet};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_plonk::{CellRef, Column, ConstraintSystem, Expression, Preprocessed};

/// A partially evaluated polynomial.
#[derive(Clone, Copy, Debug)]
enum Val {
    /// A linear combination of symbolic variables.
    Lin(Form),
    /// A product of non-constant linear forms, `factors[at..at + len]`
    /// (kept factored so the booleanity and max-pattern rules can inspect
    /// the factors).
    Prod { at: u32, len: u32 },
    /// Anything else (sums of products, deep products): no deduction, but
    /// the advice occurrences were still recorded during evaluation.
    Mixed,
}

impl Val {
    fn is_const(&self) -> bool {
        matches!(self, Val::Lin(f) if f.is_const())
    }

    fn is_zero(&self) -> bool {
        matches!(self, Val::Lin(f) if f.is_zero())
    }
}

/// Cap on tracked product factors before collapsing to [`Val::Mixed`].
const MAX_FACTORS: usize = 8;

/// One step of a compiled constraint, run on a value stack.
#[derive(Clone, Copy, Debug)]
enum Op {
    Const(Fr),
    Fixed(usize, i32),
    Instance(usize, i32),
    Advice(usize, i32),
    Challenge(usize),
    Neg,
    Scale(Fr),
    Add,
    /// The left factor of a product is on the stack: when it is the zero
    /// constant, skip the next `n` ops (the right factor and its
    /// [`Op::Mul`]) and leave the zero as the product.
    SkipIfZero(u32),
    Mul,
}

/// Emits `e` in postfix order onto `ops`, folding constant-only subtrees.
fn compile(e: &Expression, ops: &mut Vec<Op>) {
    let start = ops.len();
    match e {
        Expression::Constant(c) => ops.push(Op::Const(*c)),
        Expression::Fixed(c, r) => ops.push(Op::Fixed(*c, r.0)),
        Expression::Instance(c, r) => ops.push(Op::Instance(*c, r.0)),
        Expression::Advice(c, r) => ops.push(Op::Advice(*c, r.0)),
        Expression::Challenge(i) => ops.push(Op::Challenge(*i)),
        Expression::Neg(a) => {
            compile(a, ops);
            match single_const(&ops[start..]) {
                Some(c) => ops[start] = Op::Const(-c),
                None => ops.push(Op::Neg),
            }
        }
        Expression::Scaled(a, s) => {
            compile(a, ops);
            match single_const(&ops[start..]) {
                Some(c) => ops[start] = Op::Const(c * *s),
                None => ops.push(Op::Scale(*s)),
            }
        }
        Expression::Sum(a, b) => {
            compile(a, ops);
            let mid = ops.len();
            compile(b, ops);
            match (single_const(&ops[start..mid]), single_const(&ops[mid..])) {
                (Some(x), Some(y)) => {
                    ops.truncate(start);
                    ops.push(Op::Const(x + y));
                }
                (_, Some(y)) if y.is_zero() => ops.truncate(mid),
                (Some(x), _) if x.is_zero() => {
                    ops.remove(start);
                }
                _ => ops.push(Op::Add),
            }
        }
        Expression::Product(a, b) => {
            compile(a, ops);
            let mid = ops.len();
            // A zero left factor short-circuits: the right one never runs.
            if single_const(&ops[start..]).is_some_and(|c| c.is_zero()) {
                return;
            }
            ops.push(Op::SkipIfZero(0));
            compile(b, ops);
            match (
                single_const(&ops[start..mid]),
                single_const(&ops[mid + 1..]),
            ) {
                (Some(x), Some(y)) => {
                    ops.truncate(start);
                    ops.push(Op::Const(x * y));
                }
                _ => {
                    ops.push(Op::Mul);
                    ops[mid] = Op::SkipIfZero((ops.len() - mid - 1) as u32);
                }
            }
        }
    }
}

/// The value of `ops` when they are one constant.
fn single_const(ops: &[Op]) -> Option<Fr> {
    match ops {
        [Op::Const(c)] => Some(*c),
        _ => None,
    }
}

/// The fixed query whose zero makes `e` a constant without touching any
/// other query: `q·(…)` or `(…)·q` at the top, `(q·a)·b` down the left
/// factors, each optionally plus a constant.
fn gating_selector(e: &Expression) -> Option<(usize, i32)> {
    match e {
        Expression::Sum(a, b) => match (a.as_ref(), b.as_ref()) {
            (x, Expression::Constant(_)) | (Expression::Constant(_), x) => gating_selector(x),
            _ => None,
        },
        Expression::Product(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expression::Fixed(c, r), _) | (_, Expression::Fixed(c, r)) => Some((*c, r.0)),
            (Expression::Product(..), _) => left_selector(a),
            _ => None,
        },
        _ => None,
    }
}

/// The fixed query at the bottom of a left-nested product chain.
fn left_selector(e: &Expression) -> Option<(usize, i32)> {
    match e {
        Expression::Fixed(c, r) => Some((*c, r.0)),
        Expression::Product(a, _) => left_selector(a),
        _ => None,
    }
}

/// A compiled gate polynomial.
struct Poly {
    ops: Vec<Op>,
    selector: Option<(usize, i32)>,
}

/// A compiled lookup argument.
struct Lookup {
    inputs: Vec<Vec<Op>>,
    /// The selector gating every input, when they share one.
    selector: Option<(usize, i32)>,
    /// Index into [`Engine::tables`]; `None` when the table references
    /// more than fixed columns and is not materialized.
    table: Option<usize>,
}

/// One materialized lookup table, shared by every lookup with the same
/// table expressions.
struct Table {
    width: usize,
    /// Tuples over the usable rows, row-major.
    rows: Vec<Fr>,
    /// For 1-column tables: the distinct values form `{0..max}`.
    contiguous_range: bool,
    /// `(unknown position, known-position bitmask) -> the table is a
    /// function from the known positions to the unknown one`.
    functional: HashMap<(usize, u64), bool>,
}

/// Per-row facts gathered from this row's lookup arguments before the
/// row's gates are processed.
#[derive(Default)]
struct RowFacts {
    /// Advice classes bounded by a contiguous `{0..max}` range lookup.
    bound: Vec<VarId>,
    /// The exact input forms of those range lookups (for the max rule's
    /// structural match against gate factors): constant and term range.
    range_forms: Vec<(Fr, std::ops::Range<usize>)>,
    range_terms: Vec<Term>,
}

impl RowFacts {
    fn clear(&mut self) {
        self.bound.clear();
        self.range_forms.clear();
        self.range_terms.clear();
    }

    fn has_range_form(&self, c: Fr, terms: &[Term]) -> bool {
        self.range_forms
            .iter()
            .any(|(rc, r)| *rc == c && self.range_terms[r.clone()] == *terms)
    }
}

/// Buffers the row sweep reuses, so a row allocates nothing.
#[derive(Default)]
struct Scratch {
    stack: Vec<Val>,
    terms: Terms,
    factors: Vec<Form>,
    /// A lookup's evaluated inputs.
    vals: Vec<Val>,
    /// The unknown terms of the form a rule is looking at.
    unknowns: Vec<Term>,
    /// The advice classes the row's constraints mention.
    occ: Vec<VarId>,
    facts: RowFacts,
    /// Next opaque known-product variable id.
    next_opaque: u32,
}

impl Scratch {
    fn fresh_opaque(&mut self) -> VarId {
        let v = self.next_opaque;
        self.next_opaque += 1;
        v
    }

    /// Starts one constraint's evaluation.
    fn reset(&mut self) {
        self.terms.clear();
        self.factors.clear();
        self.vals.clear();
    }
}

/// Per-class flags, meaningful at class roots.
const ANCHORED: u8 = 1;
const INPUT: u8 = 1 << 1;
const ASSIGNED: u8 = 1 << 2;
const DETERMINED: u8 = 1 << 3;
const BOOLEAN: u8 = 1 << 4;
const OCCURRED: u8 = 1 << 5;
/// Per-cell flags, at the cell's own node: the cell is assigned, and it is
/// a declared input.
const CELL_ASSIGNED: u8 = 1 << 6;
const CELL_INPUT: u8 = 1 << 7;

pub(crate) struct Engine<'a> {
    pre: &'a Preprocessed,
    n: usize,
    mask: usize,
    usable: usize,
    /// The class root of every cell node: advice `[0, a_nodes)`, then
    /// instance, fixed and committed cells.
    root: Vec<u32>,
    /// Class sizes (meaningful at roots).
    size: Vec<u32>,
    a_nodes: usize,
    inst_base: usize,
    node_count: usize,
    flags: Vec<u8>,
    polys: Vec<Poly>,
    lookups: Vec<Lookup>,
    tables: Vec<Table>,
    first_opaque: u32,
    /// The bit-recomposition rule's last `(base, base⁻¹)`.
    last_inverse: Option<(Fr, Fr)>,
    pub rounds: usize,
    /// Gate polynomials and lookup input tuples evaluated, over all rounds.
    pub evaluations: usize,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        cs: &'a ConstraintSystem,
        pre: &'a Preprocessed,
        k: u32,
        assigned: &[CellRef],
        inputs: &[CellRef],
    ) -> Self {
        let n = 1usize << k;
        let a_nodes = cs.num_advice * n;
        let inst_base = a_nodes;
        let fixed_base = inst_base + cs.num_instance * n;
        let committed_base = fixed_base + cs.num_fixed * n;
        let node_count = committed_base + cs.num_committed * n;
        let node = |cell: &CellRef| -> Option<usize> {
            if cell.row >= n {
                return None;
            }
            let (base, c, count) = match cell.column {
                Column::Advice(c) => (0, c, cs.num_advice),
                Column::Instance(c) => (inst_base, c, cs.num_instance),
                Column::Fixed(c) => (fixed_base, c, cs.num_fixed),
                // Committed (weight) cells are published givens: like fixed
                // cells, any class containing one is anchored/known.
                Column::Committed(c) => (committed_base, c, cs.num_committed),
            };
            (c < count).then(|| base + c * n + cell.row)
        };

        // Copy constraints collapse cells into classes; a class containing
        // any instance or fixed cell is anchored (known).
        let mut parent: Vec<u32> = (0..node_count as u32).collect();
        let mut size = vec![1u32; node_count];
        for (a, b) in &pre.copies {
            if let (Some(na), Some(nb)) = (node(a), node(b)) {
                union(&mut parent, &mut size, na, nb);
            }
        }
        for x in 0..node_count {
            parent[x] = find(&mut parent, x) as u32;
        }
        let root = parent;
        let mut flags = vec![0u8; node_count];
        for (a, b) in &pre.copies {
            for cell in [a, b] {
                if !matches!(cell.column, Column::Advice(_)) {
                    if let Some(x) = node(cell) {
                        flags[root[x] as usize] |= ANCHORED;
                    }
                }
            }
        }
        for cell in assigned {
            if matches!(cell.column, Column::Advice(_)) {
                if let Some(x) = node(cell) {
                    flags[x] |= CELL_ASSIGNED;
                    flags[root[x] as usize] |= ASSIGNED;
                }
            }
        }
        for cell in inputs {
            if let Some(x) = node(cell) {
                if x < a_nodes {
                    flags[x] |= CELL_INPUT;
                }
                flags[root[x] as usize] |= INPUT;
            }
        }

        let mut eng = Engine {
            pre,
            n,
            mask: n - 1,
            usable: cs.usable_rows(n),
            root,
            size,
            a_nodes,
            inst_base,
            node_count,
            flags,
            polys: Vec::new(),
            lookups: Vec::new(),
            tables: Vec::new(),
            first_opaque: (node_count + cs.num_challenges) as u32,
            last_inverse: None,
            rounds: 0,
            evaluations: 0,
        };
        eng.polys = cs
            .gates
            .iter()
            .flat_map(|g| &g.polys)
            .map(|e| Poly {
                ops: compiled(e),
                selector: gating_selector(e),
            })
            .collect();
        for (li, lk) in cs.lookups.iter().enumerate() {
            let table = if !lk.table_is_fixed_only() {
                None
            } else if let Some(j) = (0..li).find(|&j| cs.lookups[j].table == lk.table) {
                eng.lookups[j].table
            } else {
                let t = eng.build_table(&lk.table);
                eng.tables.push(t);
                Some(eng.tables.len() - 1)
            };
            let selector = lk
                .inputs
                .first()
                .and_then(gating_selector)
                .filter(|s| lk.inputs.iter().all(|e| gating_selector(e) == Some(*s)));
            eng.lookups.push(Lookup {
                inputs: lk.inputs.iter().map(compiled).collect(),
                selector,
                table,
            });
        }
        eng
    }

    // ---- classes ---------------------------------------------------------

    /// The union-find node of an advice cell.
    fn node(&self, cell: &CellRef) -> Option<usize> {
        let Column::Advice(c) = cell.column else {
            return None;
        };
        (cell.row < self.n && c < self.a_nodes / self.n).then(|| c * self.n + cell.row)
    }

    pub(crate) fn in_grid(&self, cell: &CellRef) -> bool {
        self.node(cell).is_some()
    }

    /// Every assigned advice cell of the grid, once, in (column, row)
    /// order, and whether it is a declared input.
    pub(crate) fn assigned_cells(&self) -> impl Iterator<Item = (CellRef, bool)> + '_ {
        (0..self.a_nodes)
            .filter(|&x| self.flags[x] & CELL_ASSIGNED != 0)
            .map(|x| {
                let cell = CellRef {
                    column: Column::Advice(x / self.n),
                    row: x % self.n,
                };
                (cell, self.flags[x] & CELL_INPUT != 0)
            })
    }

    fn class_root(&self, cell: &CellRef) -> Option<usize> {
        self.node(cell).map(|x| self.root[x] as usize)
    }

    pub(crate) fn class_size(&self, cell: &CellRef) -> u32 {
        self.class_root(cell).map_or(1, |r| self.size[r])
    }

    pub(crate) fn is_anchored(&self, cell: &CellRef) -> bool {
        self.class_root(cell)
            .is_some_and(|r| self.flags[r] & ANCHORED != 0)
    }

    pub(crate) fn has_occurred(&self, cell: &CellRef) -> bool {
        self.class_root(cell)
            .is_some_and(|r| self.flags[r] & OCCURRED != 0)
    }

    /// Whether a cell's class is known: anchored to public data, an input
    /// class, deduced, or entirely unassigned (prover-default cells).
    pub(crate) fn cell_known(&self, cell: &CellRef) -> bool {
        self.class_root(cell)
            .is_none_or(|r| self.var_known(r as VarId))
    }

    /// Lookup tables materialized.
    pub(crate) fn tables(&self) -> usize {
        self.tables.len()
    }

    fn var_known(&self, var: VarId) -> bool {
        let v = var as usize;
        if v >= self.a_nodes {
            return true; // instance/fixed nodes, challenges, opaques
        }
        let f = self.flags[v];
        f & (ANCHORED | INPUT | DETERMINED) != 0 || f & ASSIGNED == 0
    }

    fn determine(&mut self, var: VarId) -> bool {
        let v = var as usize;
        if v >= self.a_nodes || self.flags[v] & DETERMINED != 0 {
            return false;
        }
        self.flags[v] |= DETERMINED;
        true
    }

    fn is_boolean(&self, var: VarId) -> bool {
        self.flags[var as usize] & BOOLEAN != 0
    }

    // ---- symbolic evaluation -------------------------------------------

    fn at(&self, row: usize, rot: i32) -> usize {
        row.wrapping_add_signed(rot as isize) & self.mask
    }

    /// A fixed cell; columns shorter than the domain read as zero.
    fn fixed(&self, col: usize, idx: usize) -> Fr {
        self.pre
            .fixed
            .get(col)
            .and_then(|c| c.get(idx))
            .copied()
            .unwrap_or(Fr::ZERO)
    }

    fn selector_off(&self, selector: Option<(usize, i32)>, row: usize) -> bool {
        selector.is_some_and(|(col, rot)| self.fixed(col, self.at(row, rot)).is_zero())
    }

    /// Runs one compiled program at `row`; its advice classes go to `s.occ`.
    fn eval(&self, ops: &[Op], row: usize, s: &mut Scratch) -> Val {
        s.stack.clear();
        let mut pc = 0;
        while pc < ops.len() {
            let v = match ops[pc] {
                Op::Const(c) => Val::Lin(s.terms.constant(c)),
                Op::Fixed(c, r) => Val::Lin(s.terms.constant(self.fixed(c, self.at(row, r)))),
                Op::Instance(c, r) => {
                    let root = self.root[self.inst_base + c * self.n + self.at(row, r)];
                    Val::Lin(s.terms.var(root))
                }
                Op::Advice(c, r) => {
                    let root = self.root[c * self.n + self.at(row, r)];
                    s.occ.push(root);
                    Val::Lin(s.terms.var(root))
                }
                Op::Challenge(i) => Val::Lin(s.terms.var((self.node_count + i) as VarId)),
                Op::Neg => {
                    let v = pop(s);
                    neg_val(s, v)
                }
                Op::Scale(k) => {
                    let v = pop(s);
                    scale_val(s, v, k)
                }
                Op::Add => {
                    let b = pop(s);
                    let a = pop(s);
                    add_val(s, a, b)
                }
                Op::SkipIfZero(skip) => {
                    if s.stack.last().is_some_and(Val::is_zero) {
                        pc += skip as usize;
                    }
                    pc += 1;
                    continue;
                }
                Op::Mul => {
                    let b = pop(s);
                    let a = pop(s);
                    self.mul_val(s, a, b)
                }
            };
            s.stack.push(v);
            pc += 1;
        }
        pop(s)
    }

    fn has_unknown(&self, s: &Scratch, f: &Form) -> bool {
        s.terms.of(f).iter().any(|(v, _)| !self.var_known(*v))
    }

    fn mul_val(&self, s: &mut Scratch, a: Val, b: Val) -> Val {
        // Constant factors scale the other side.
        if let Val::Lin(f) = a {
            if f.is_const() {
                return scale_val(s, b, f.c);
            }
        }
        if let Val::Lin(f) = b {
            if f.is_const() {
                return scale_val(s, a, f.c);
            }
        }
        match (a, b) {
            (Val::Lin(fa), Val::Lin(fb)) => {
                match (self.has_unknown(s, &fa), self.has_unknown(s, &fb)) {
                    // known * known: some known value; mint an opaque var.
                    (false, false) => {
                        let v = s.fresh_opaque();
                        Val::Lin(s.terms.var(v))
                    }
                    // known * linear-in-unknowns: still linear, but the
                    // unknown coefficients are no longer concrete.
                    (false, true) => self.mul_known_lin(s, fb),
                    (true, false) => self.mul_known_lin(s, fa),
                    // unknown * unknown: keep factored.
                    (true, true) => push_factors(s, &[], &[fa, fb]),
                }
            }
            (Val::Lin(f), Val::Prod { at, len }) | (Val::Prod { at, len }, Val::Lin(f)) => {
                if len as usize >= MAX_FACTORS {
                    return Val::Mixed;
                }
                push_factors(s, &[(at, len)], &[f])
            }
            (Val::Prod { at: a0, len: l0 }, Val::Prod { at: a1, len: l1 }) => {
                if (l0 + l1) as usize > MAX_FACTORS {
                    return Val::Mixed;
                }
                push_factors(s, &[(a0, l0), (a1, l1)], &[])
            }
            _ => Val::Mixed,
        }
    }

    /// Multiplies a known (non-constant) form into a form with unknowns:
    /// unknown terms keep their variables with symbolic coefficients, and
    /// everything known collapses into one opaque term (the newest var id,
    /// so the terms stay sorted).
    fn mul_known_lin(&self, s: &mut Scratch, u: Form) -> Val {
        let at = s.terms.start();
        let mut garbage = !u.c.is_zero();
        for i in 0..s.terms.of(&u).len() {
            let v = s.terms.of(&u)[i].0;
            if self.var_known(v) {
                garbage = true;
            } else {
                s.terms.push((v, Coeff::Symbolic));
            }
        }
        if garbage {
            let v = s.fresh_opaque();
            s.terms.push((v, Coeff::Concrete(Fr::ONE)));
        }
        Val::Lin(s.terms.finish(Fr::ZERO, at))
    }

    // ---- lookup tables --------------------------------------------------

    fn build_table(&self, table: &[Expression]) -> Table {
        let width = table.len();
        let mut rows = Vec::with_capacity(self.usable * width);
        for row in 0..self.usable {
            for e in table {
                rows.push(e.evaluate(
                    &|c| c,
                    &|_, _| Fr::ZERO,
                    &|_, _| Fr::ZERO,
                    &|c, r| self.fixed(c, self.at(row, r.0)),
                    &|_| Fr::ZERO,
                ));
            }
        }
        let contiguous_range = width == 1 && {
            let distinct: HashSet<Fr> = rows.iter().copied().collect();
            (0..distinct.len() as u64).all(|i| distinct.contains(&Fr::from_u64(i)))
        };
        Table {
            width,
            rows,
            contiguous_range,
            functional: HashMap::new(),
        }
    }

    /// Is table `t` a function from the `known_mask` positions to position
    /// `target`? (Memoized.)
    fn table_functional(&mut self, t: usize, target: usize, known_mask: u64) -> bool {
        let table = &self.tables[t];
        if let Some(&v) = table.functional.get(&(target, known_mask)) {
            return v;
        }
        let key_cols: Vec<usize> = (0..table.width)
            .filter(|i| known_mask & (1 << i) != 0)
            .collect();
        let keys: Vec<Fr> = table
            .rows
            .chunks_exact(table.width)
            .flat_map(|row| key_cols.iter().map(|&i| row[i]))
            .collect();
        let mut map: HashMap<&[Fr], Fr> = HashMap::with_capacity(self.usable);
        let mut ok = true;
        for (r, row) in table.rows.chunks_exact(table.width).enumerate() {
            let key = &keys[r * key_cols.len()..(r + 1) * key_cols.len()];
            match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != row[target] {
                        ok = false;
                        break;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(row[target]);
                }
            }
        }
        self.tables[t].functional.insert((target, known_mask), ok);
        ok
    }

    // ---- deduction rules ------------------------------------------------

    /// Records advice occurrences of a non-trivially-evaluated constraint
    /// (the input-boundness half of the contract).
    fn mark_occurrences(&mut self, val: &Val, occ: &[VarId]) {
        if val.is_const() {
            return;
        }
        for &v in occ {
            if (v as usize) < self.a_nodes {
                self.flags[v as usize] |= OCCURRED;
            }
        }
    }

    /// Fills `s.unknowns` with the unknown terms of `f`.
    fn collect_unknowns(&self, s: &mut Scratch, f: &Form) {
        s.unknowns.clear();
        s.unknowns.extend(
            s.terms
                .of(f)
                .iter()
                .filter(|(v, _)| !self.var_known(*v))
                .copied(),
        );
    }

    /// The single unknown of `f` when it has exactly one, with a concrete
    /// coefficient.
    fn sole_unknown(&self, s: &Scratch, f: &Form) -> Option<VarId> {
        let mut unknowns = s.terms.of(f).iter().filter(|(v, _)| !self.var_known(*v));
        match (unknowns.next(), unknowns.next()) {
            (Some(&(v, Coeff::Concrete(_))), None) => Some(v),
            _ => None,
        }
    }

    /// Applies the linear-deduction rules to one partially evaluated
    /// constraint. Returns true when something new was deduced.
    fn deduce(&mut self, val: &Val, s: &mut Scratch) -> bool {
        match val {
            Val::Lin(f) => self.deduce_linear(f, s),
            Val::Prod { at, len } => self.deduce_product(*at as usize, *len as usize, s),
            Val::Mixed => false,
        }
    }

    fn deduce_linear(&mut self, f: &Form, s: &mut Scratch) -> bool {
        self.collect_unknowns(s, f);
        let unknowns = &s.unknowns;
        match unknowns.len() {
            0 => false,
            // Rule: unique unknown with a concrete nonzero coefficient has
            // exactly one satisfying value.
            1 => match unknowns[0].1 {
                Coeff::Concrete(_) => self.determine(unknowns[0].0),
                Coeff::Symbolic => false,
            },
            _ => {
                // Rule: a sum of boolean unknowns with pairwise-distinct
                // power-of-two coefficients (up to one common scalar) is a
                // binary decomposition — injective on booleans, so every
                // bit is pinned.
                if self.deduce_bit_recomposition(unknowns) {
                    return true;
                }
                // Rule: quotient/remainder pair — two unknowns, one of
                // them range-bounded by this row's lookups with a concrete
                // coefficient. Unique by Euclidean division (assuming the
                // range is small relative to the field; see crate docs).
                if unknowns.len() == 2 {
                    let bound_ok = |(v, c): Term| {
                        s.facts.bound.contains(&v) && matches!(c, Coeff::Concrete(_))
                    };
                    if bound_ok(unknowns[0]) || bound_ok(unknowns[1]) {
                        let a = self.determine(unknowns[0].0);
                        let b = self.determine(unknowns[1].0);
                        return a || b;
                    }
                }
                false
            }
        }
    }

    fn deduce_bit_recomposition(&mut self, unknowns: &[Term]) -> bool {
        if unknowns.len() < 2 {
            return false;
        }
        if !unknowns
            .iter()
            .all(|(v, c)| self.is_boolean(*v) && matches!(c, Coeff::Concrete(_)))
        {
            return false;
        }
        let base = match unknowns[0].1 {
            Coeff::Concrete(c) => c,
            Coeff::Symbolic => return false,
        };
        // Every row of one bit decomposition has the same base, so the last
        // inverse is kept: a field inversion costs hundreds of multiplies.
        let inv = match self.last_inverse {
            Some((b, inv)) if b == base => inv,
            _ => {
                let Some(inv) = base.invert() else {
                    return false;
                };
                self.last_inverse = Some((base, inv));
                inv
            }
        };
        // Exponents seen so far, as a bitset over 0..=200.
        let mut exponents = [0u64; 4];
        for (_, c) in unknowns {
            let Coeff::Concrete(c) = c else { return false };
            let Some(e) = power_of_two_exponent(*c * inv) else {
                return false;
            };
            // Exponents must be distinct and small enough that the sum of
            // weights cannot wrap the field.
            let (word, bit) = (e as usize / 64, 1u64 << (e % 64));
            if e > 200 || exponents[word] & bit != 0 {
                return false;
            }
            exponents[word] |= bit;
        }
        let mut progress = false;
        for (v, _) in unknowns {
            progress |= self.determine(*v);
        }
        progress
    }

    fn deduce_product(&mut self, at: usize, len: usize, s: &Scratch) -> bool {
        let fs = &s.factors[at..at + len];
        // All factors must be linear in the same single unknown.
        let mut common: Option<VarId> = None;
        for f in fs {
            let Some(v) = self.sole_unknown(s, f) else {
                return false;
            };
            match common {
                None => common = Some(v),
                Some(u) if u == v => {}
                Some(_) => return false,
            }
        }
        let Some(u) = common else { return false };

        // Rule (booleanity family): if every factor is `k·u + c` with
        // concrete k, c, the product vanishes exactly on the root set; a
        // root set inside {0,1} makes u boolean, a singleton pins it. The
        // roots `−c/k` are kept as `(c, k)` and compared by cross
        // multiplication: this runs per bit per row of every bit-decomposed
        // value, where a field inversion costs more than the rest of the row.
        let mut roots = [(Fr::ZERO, Fr::ZERO); MAX_FACTORS];
        let mut count = 0;
        let mut concrete = true;
        for f in fs {
            match s.terms.of(f) {
                [(_, Coeff::Concrete(k))] if !k.is_zero() => {
                    if !roots[..count].iter().any(|(c2, k2)| f.c * *k2 == *c2 * *k) {
                        roots[count] = (f.c, *k);
                        count += 1;
                    }
                }
                _ => {
                    concrete = false;
                    break;
                }
            }
        }
        if concrete {
            if count == 1 {
                return self.determine(u);
            }
            // `−c/k` is 0 when `c = 0` and 1 when `c = −k`.
            if roots[..count]
                .iter()
                .all(|(c, k)| c.is_zero() || (*c + *k).is_zero())
            {
                let idx = u as usize;
                if idx < self.a_nodes && !self.is_boolean(u) {
                    self.flags[idx] |= BOOLEAN;
                    return true;
                }
                return false;
            }
        }

        // Rule (max pattern): `(u - a)(u - b) = 0` with both factors
        // range-checked by this row's lookups forces u to the in-range
        // root, i.e. max(a, b) for the ZKML max gadget.
        if fs.len() == 2
            && fs
                .iter()
                .all(|f| s.facts.has_range_form(f.c, s.terms.of(f)))
        {
            return self.determine(u);
        }
        false
    }

    // ---- the sweep ------------------------------------------------------

    fn process_lookups(&mut self, row: usize, s: &mut Scratch) -> bool {
        let mut progress = false;
        for li in 0..self.lookups.len() {
            let lk = &self.lookups[li];
            // Every input is a constant on a row whose selector is off.
            if self.selector_off(lk.selector, row) {
                continue;
            }
            let (table, width) = (lk.table, lk.inputs.len());
            self.evaluations += 1;
            s.reset();
            for i in 0..width {
                let start = s.occ.len();
                let v = self.eval(&self.lookups[li].inputs[i], row, s);
                self.mark_occurrences(&v, &s.occ[start..]);
                s.vals.push(v);
            }
            let Some(t) = table else { continue };
            if width == 1 {
                // Range fact: single input, single unknown, contiguous
                // {0..max} table.
                if self.tables[t].contiguous_range {
                    if let Val::Lin(f) = s.vals[0] {
                        if let Some(v) = self.sole_unknown(s, &f) {
                            let facts = &mut s.facts;
                            facts.bound.push(v);
                            let at = facts.range_terms.len();
                            facts.range_terms.extend_from_slice(s.terms.of(&f));
                            facts.range_forms.push((f.c, at..facts.range_terms.len()));
                        }
                    }
                }
                continue;
            }
            // Functional-lookup rule: all key positions known, exactly one
            // position left with a single concretely-scaled unknown, and
            // the table maps keys to that position functionally.
            if width > 64 {
                continue;
            }
            let mut known_mask = 0u64;
            let mut target: Option<(usize, VarId)> = None;
            let mut eligible = true;
            for (i, v) in s.vals.iter().enumerate() {
                let Val::Lin(f) = v else {
                    eligible = false;
                    break;
                };
                if !self.has_unknown(s, f) {
                    known_mask |= 1 << i;
                } else if let (Some(var), None) = (self.sole_unknown(s, f), target) {
                    target = Some((i, var));
                } else {
                    eligible = false;
                    break;
                }
            }
            if eligible {
                if let Some((pos, var)) = target {
                    if self.table_functional(t, pos, known_mask) {
                        progress |= self.determine(var);
                    }
                }
            }
        }
        progress
    }

    fn process_gates(&mut self, row: usize, s: &mut Scratch) -> bool {
        let mut progress = false;
        for pi in 0..self.polys.len() {
            // A poly whose selector is zero at this row evaluates to a
            // constant.
            if self.selector_off(self.polys[pi].selector, row) {
                continue;
            }
            self.evaluations += 1;
            s.reset();
            let start = s.occ.len();
            let val = self.eval(&self.polys[pi].ops, row, s);
            self.mark_occurrences(&val, &s.occ[start..]);
            progress |= self.deduce(&val, s);
        }
        progress
    }

    /// Runs rounds of the row sweep until a fixpoint. Classes only ever
    /// become known and every rule needs an unknown to act on, so a row
    /// whose constraints mention no unknown class is settled: later rounds
    /// skip it, and deduce exactly what a full sweep would.
    pub(crate) fn run(&mut self) {
        let mut live: Vec<usize> = (0..self.n).collect();
        let mut s = Scratch {
            next_opaque: self.first_opaque,
            ..Scratch::default()
        };
        loop {
            self.rounds += 1;
            let mut progress = false;
            live.retain(|&row| {
                s.facts.clear();
                s.occ.clear();
                if row < self.usable {
                    progress |= self.process_lookups(row, &mut s);
                }
                progress |= self.process_gates(row, &mut s);
                s.occ.iter().any(|v| !self.var_known(*v))
            });
            if !progress {
                break;
            }
        }
    }
}

fn compiled(e: &Expression) -> Vec<Op> {
    let mut ops = Vec::new();
    compile(e, &mut ops);
    ops
}

fn find(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        let gp = parent[parent[x] as usize];
        parent[x] = gp;
        x = gp as usize;
    }
    x
}

fn union(parent: &mut [u32], size: &mut [u32], a: usize, b: usize) {
    let (mut ra, mut rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return;
    }
    if size[ra] < size[rb] {
        std::mem::swap(&mut ra, &mut rb);
    }
    parent[rb] = ra as u32;
    size[ra] += size[rb];
}

fn pop(s: &mut Scratch) -> Val {
    s.stack.pop().expect("a compiled program leaves one value")
}

/// A product of the factor ranges `runs` followed by `extra`, written at
/// the end of the factor arena.
fn push_factors(s: &mut Scratch, runs: &[(u32, u32)], extra: &[Form]) -> Val {
    let at = s.factors.len();
    for &(a, l) in runs {
        s.factors.extend_from_within(a as usize..(a + l) as usize);
    }
    s.factors.extend_from_slice(extra);
    Val::Prod {
        at: at as u32,
        len: (s.factors.len() - at) as u32,
    }
}

fn scale_val(s: &mut Scratch, v: Val, k: Fr) -> Val {
    if k.is_zero() {
        return Val::Lin(s.terms.constant(Fr::ZERO));
    }
    // An active selector is one: nothing to multiply.
    if k == Fr::ONE {
        return v;
    }
    match v {
        Val::Lin(mut f) => {
            s.terms.scale(&mut f, k);
            Val::Lin(f)
        }
        Val::Prod { at, .. } => {
            let mut f = s.factors[at as usize];
            s.terms.scale(&mut f, k);
            s.factors[at as usize] = f;
            v
        }
        Val::Mixed => Val::Mixed,
    }
}

fn neg_val(s: &mut Scratch, v: Val) -> Val {
    match v {
        Val::Lin(mut f) => {
            s.terms.neg(&mut f);
            Val::Lin(f)
        }
        Val::Prod { at, .. } => {
            let mut f = s.factors[at as usize];
            s.terms.neg(&mut f);
            s.factors[at as usize] = f;
            v
        }
        Val::Mixed => Val::Mixed,
    }
}

fn add_val(s: &mut Scratch, a: Val, b: Val) -> Val {
    match (a, b) {
        (Val::Lin(fa), Val::Lin(fb)) => Val::Lin(s.terms.add(&fa, &fb)),
        (Val::Lin(f), other) | (other, Val::Lin(f)) if f.is_zero() => other,
        _ => Val::Mixed,
    }
}

/// If `v` is `2^e` for some exponent, returns `e`.
fn power_of_two_exponent(v: Fr) -> Option<u32> {
    let limbs = v.to_canonical();
    let mut exp = None;
    for (i, limb) in limbs.iter().enumerate() {
        if *limb == 0 {
            continue;
        }
        if exp.is_some() || !limb.is_power_of_two() {
            return None;
        }
        exp = Some(i as u32 * 64 + limb.trailing_zeros());
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_plonk::Rotation;

    fn advice(col: usize, row: usize) -> CellRef {
        CellRef {
            column: Column::Advice(col),
            row,
        }
    }

    /// A zero scalar — `Scaled(a, 0)`, a zero constant factor, or a selector
    /// that is zero where it does not gate the whole constraint — folds the
    /// product to the zero constant. Left as `0·a` it would read as a
    /// constraint with one unknown and "determine" `a`.
    #[test]
    fn zero_scalars_determine_nothing() {
        let mut cs = ConstraintSystem::new();
        let q = cs.fixed_column();
        let (a, b) = (cs.advice_column(0), cs.advice_column(0));
        let k = 4;
        // `q` is zero on every row.
        let pre = Preprocessed {
            fixed: vec![Vec::new()],
            committed: Vec::new(),
            copies: Vec::new(),
        };
        let assigned: Vec<CellRef> = (0..1 << k)
            .flat_map(|r| [advice(a, r), advice(b, r)])
            .collect();
        let mut eng = Engine::new(&cs, &pre, k, &assigned, &[]);
        let mut s = Scratch::default();
        let ea = Expression::Advice(a, Rotation::cur());
        let eb = Expression::Advice(b, Rotation::cur());
        let eq = Expression::Fixed(q, Rotation::cur());

        for e in [
            Expression::Scaled(Box::new(ea.clone()), Fr::ZERO),
            ea.clone() * Expression::Constant(Fr::ZERO),
            ea.clone() * eq.clone(),
        ] {
            s.reset();
            let v = eng.eval(&compiled(&e), 0, &mut s);
            assert!(v.is_zero(), "{e:?} evaluated to {v:?}");
            assert!(!eng.deduce(&v, &mut s), "{e:?} determined a cell");
        }
        assert!(!eng.cell_known(&advice(a, 0)));

        // `a·q + b` with `q = 0` is `b`: it pins `b`, never `a`.
        s.reset();
        let v = eng.eval(&compiled(&(ea.clone() * eq + eb)), 0, &mut s);
        let root_b = eng.class_root(&advice(b, 0)).unwrap() as VarId;
        assert!(
            matches!(v, Val::Lin(f) if f.c.is_zero() && s.terms.of(&f) == [(root_b, Coeff::Concrete(Fr::ONE))]),
            "{v:?}"
        );
        assert!(eng.deduce(&v, &mut s));
        assert!(eng.cell_known(&advice(b, 0)));
        assert!(!eng.cell_known(&advice(a, 0)));

        // A negation or a scaling by −1 keeps the term, so it pins `a`.
        for (row, e) in [
            (1, -ea.clone()),
            (2, Expression::Scaled(Box::new(ea), -Fr::ONE)),
        ] {
            s.reset();
            let v = eng.eval(&compiled(&e), row, &mut s);
            assert!(!v.is_zero(), "{e:?} evaluated to zero");
            assert!(eng.deduce(&v, &mut s), "{e:?} determined nothing");
            assert!(eng.cell_known(&advice(a, row)));
        }
    }

    #[test]
    fn power_of_two_detection() {
        assert_eq!(power_of_two_exponent(Fr::from_u64(1)), Some(0));
        assert_eq!(power_of_two_exponent(Fr::from_u64(64)), Some(6));
        assert_eq!(power_of_two_exponent(Fr::from_u64(3)), None);
        assert_eq!(power_of_two_exponent(Fr::ZERO), None);
        assert_eq!(power_of_two_exponent(Fr::from_u128(1 << 80)), Some(80));
    }

    #[test]
    fn compile_folds_constants_only() {
        let a = Expression::Advice(0, Rotation::cur());
        let q = Expression::Fixed(1, Rotation::cur());
        let zero = || Expression::Constant(Fr::ZERO);
        // `q·(a − 0) + 0` is `q·a`.
        let gated = q.clone() * (a.clone() - zero()) + zero();
        assert!(matches!(
            compiled(&gated)[..],
            [
                Op::Fixed(1, 0),
                Op::SkipIfZero(2),
                Op::Advice(0, 0),
                Op::Mul
            ]
        ));
        // `−3 · 2` is one constant; `a − a` is not cancelled.
        let c = -Expression::Constant(Fr::from_u64(3)) * Expression::Constant(Fr::from_u64(2));
        assert!(matches!(compiled(&c)[..], [Op::Const(x)] if x == -Fr::from_u64(6)));
        assert_eq!(compiled(&(a.clone() - a.clone())).len(), 4);
        // A zero left factor drops the right one.
        assert!(matches!(compiled(&(zero() * a))[..], [Op::Const(x)] if x.is_zero()));
    }

    #[test]
    fn selectors_found_through_constants_and_chains() {
        let a = Expression::Advice(0, Rotation::cur());
        let q = Expression::Fixed(2, Rotation::next());
        let c = Expression::Constant(Fr::ONE);
        assert_eq!(gating_selector(&(q.clone() * a.clone())), Some((2, 1)));
        assert_eq!(gating_selector(&(q.clone() * a.clone() + c)), Some((2, 1)));
        assert_eq!(
            gating_selector(&(q.clone() * a.clone() * a.clone())),
            Some((2, 1))
        );
        assert_eq!(gating_selector(&(a.clone() * a.clone() * q)), Some((2, 1)));
        assert_eq!(gating_selector(&(a.clone() + a)), None);
    }
}
