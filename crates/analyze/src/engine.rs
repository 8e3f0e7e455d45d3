//! The deterministic-cell fixpoint engine.
//!
//! Walks a circuit's constraint system with a symbolic partial evaluator:
//! fixed columns evaluate to their concrete preprocessed values, instance
//! cells and challenges are symbolic *givens*, and advice cells are
//! unknowns (collapsed into union-find classes by the copy constraints)
//! until a deduction rule pins them down. Rules are applied row by row,
//! lookups before gates, and the whole sweep repeats until a round makes
//! no progress. See the crate docs for the rule set and its caveats.

use crate::sym::{Coeff, Form, VarId};
use std::collections::{HashMap, HashSet};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_plonk::{CellRef, Column, ConstraintSystem, Expression, Preprocessed, Rotation};

/// A partially evaluated polynomial.
#[derive(Clone, Debug)]
enum Val {
    /// A linear combination of symbolic variables.
    Lin(Form),
    /// A product of non-constant linear forms (kept factored so the
    /// booleanity and max-pattern rules can inspect the factors).
    Prod(Vec<Form>),
    /// Anything else (sums of products, deep products): no deduction, but
    /// the advice occurrences were still recorded during evaluation.
    Mixed,
}

impl Val {
    fn is_const(&self) -> bool {
        matches!(self, Val::Lin(f) if f.is_const())
    }
}

/// Cap on tracked product factors before collapsing to [`Val::Mixed`].
const MAX_FACTORS: usize = 8;

/// Per-row facts gathered from this row's lookup arguments before the
/// row's gates are processed.
#[derive(Default)]
struct RowFacts {
    /// Advice classes bounded by a contiguous `{0..max}` range lookup.
    bound: HashSet<VarId>,
    /// The exact input forms of those range lookups (for the max rule's
    /// structural match against gate factors).
    range_forms: Vec<Form>,
}

/// Cached per-lookup data: concretely evaluated table rows and
/// functionality verdicts.
struct LookupCache {
    /// Table side references only fixed columns (all ZKML gadget tables).
    fixed_only: bool,
    /// Table tuples over the usable rows, row-major.
    rows: Vec<Vec<Fr>>,
    /// For 1-column tables: the distinct values form `{0..max}`.
    contiguous_range: bool,
    /// `(unknown position, known-position bitmask) -> the table is a
    /// function from the known positions to the unknown one`.
    functional: HashMap<(usize, u64), bool>,
}

pub(crate) struct Engine<'a> {
    cs: &'a ConstraintSystem,
    n: usize,
    usable: usize,
    /// Fixed columns padded to the domain.
    fixed: Vec<Vec<Fr>>,
    /// Union-find over cell nodes: advice `[0, a_nodes)`, then instance,
    /// then fixed cells.
    parent: Vec<u32>,
    size: Vec<u32>,
    a_nodes: usize,
    inst_base: usize,
    fixed_base: usize,
    committed_base: usize,
    node_count: usize,
    /// Per-root flags (meaningful at class roots).
    anchored: Vec<bool>,
    has_input: Vec<bool>,
    has_assigned: Vec<bool>,
    determined: Vec<bool>,
    boolean: Vec<bool>,
    occurred: Vec<bool>,
    /// Next opaque known-product variable id.
    next_opaque: u32,
    lookup_cache: Vec<LookupCache>,
    /// `gate index -> per-poly top-level selector query`, for cheap
    /// inactive-row skipping.
    gate_selectors: Vec<Vec<Option<(usize, Rotation)>>>,
    pub rounds: usize,
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
        let usable = cs.usable_rows(n);
        let mut fixed: Vec<Vec<Fr>> = Vec::with_capacity(cs.num_fixed);
        for c in 0..cs.num_fixed {
            let mut col = pre.fixed.get(c).cloned().unwrap_or_default();
            col.resize(n, Fr::ZERO);
            fixed.push(col);
        }

        let a_nodes = cs.num_advice * n;
        let inst_base = a_nodes;
        let fixed_base = inst_base + cs.num_instance * n;
        let committed_base = fixed_base + cs.num_fixed * n;
        let node_count = committed_base + cs.num_committed * n;
        let mut eng = Engine {
            cs,
            n,
            usable,
            fixed,
            parent: (0..node_count as u32).collect(),
            size: vec![1; node_count],
            a_nodes,
            inst_base,
            fixed_base,
            committed_base,
            node_count,
            anchored: vec![false; node_count],
            has_input: vec![false; node_count],
            has_assigned: vec![false; node_count],
            determined: vec![false; node_count],
            boolean: vec![false; node_count],
            occurred: vec![false; node_count],
            next_opaque: (node_count + cs.num_challenges) as u32,
            lookup_cache: Vec::new(),
            gate_selectors: Vec::new(),
            rounds: 0,
        };

        // Copy constraints collapse cells into classes; a class containing
        // any instance or fixed cell is anchored (known).
        for (a, b) in &pre.copies {
            if let (Some(na), Some(nb)) = (eng.node(a), eng.node(b)) {
                eng.union(na, nb);
            }
        }
        for (a, b) in &pre.copies {
            for cell in [a, b] {
                if !matches!(cell.column, Column::Advice(_)) {
                    if let Some(node) = eng.node(cell) {
                        let r = eng.find(node);
                        eng.anchored[r] = true;
                    }
                }
            }
        }
        for cell in assigned {
            if matches!(cell.column, Column::Advice(_)) {
                if let Some(node) = eng.node(cell) {
                    let r = eng.find(node);
                    eng.has_assigned[r] = true;
                }
            }
        }
        for cell in inputs {
            if let Some(node) = eng.node(cell) {
                let r = eng.find(node);
                eng.has_input[r] = true;
            }
        }

        eng.lookup_cache = (0..cs.lookups.len())
            .map(|i| eng.build_lookup_cache(i))
            .collect();
        eng.gate_selectors = cs
            .gates
            .iter()
            .map(|g| g.polys.iter().map(top_level_selector).collect())
            .collect();
        eng
    }

    // ---- union-find -----------------------------------------------------

    fn node(&self, cell: &CellRef) -> Option<usize> {
        if cell.row >= self.n {
            return None;
        }
        match cell.column {
            Column::Advice(c) => (c < self.cs.num_advice).then(|| c * self.n + cell.row),
            Column::Instance(c) => {
                (c < self.cs.num_instance).then(|| self.inst_base + c * self.n + cell.row)
            }
            Column::Fixed(c) => {
                (c < self.cs.num_fixed).then(|| self.fixed_base + c * self.n + cell.row)
            }
            // Committed (weight) cells are published givens: like fixed
            // cells, any class containing one is anchored/known.
            Column::Committed(c) => {
                (c < self.cs.num_committed).then(|| self.committed_base + c * self.n + cell.row)
            }
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let gp = self.parent[self.parent[x] as usize];
            self.parent[x] = gp;
            x = gp as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
    }

    pub(crate) fn class_root(&mut self, cell: &CellRef) -> Option<usize> {
        self.node(cell).map(|n| self.find(n))
    }

    pub(crate) fn class_size(&mut self, cell: &CellRef) -> u32 {
        match self.class_root(cell) {
            Some(r) => self.size[r],
            None => 1,
        }
    }

    pub(crate) fn is_anchored(&mut self, cell: &CellRef) -> bool {
        self.class_root(cell)
            .map(|r| self.anchored[r])
            .unwrap_or(false)
    }

    pub(crate) fn has_occurred(&mut self, cell: &CellRef) -> bool {
        self.class_root(cell)
            .map(|r| self.occurred[r])
            .unwrap_or(false)
    }

    /// Whether a cell's class is known: anchored to public data, an input
    /// class, deduced, or entirely unassigned (prover-default cells).
    pub(crate) fn cell_known(&mut self, cell: &CellRef) -> bool {
        match self.class_root(cell) {
            Some(r) => self.var_known(r as VarId),
            None => true,
        }
    }

    fn var_known(&self, var: VarId) -> bool {
        let v = var as usize;
        if v >= self.a_nodes {
            return true; // instance/fixed nodes, challenges, opaques
        }
        self.anchored[v] || self.has_input[v] || self.determined[v] || !self.has_assigned[v]
    }

    fn determine(&mut self, var: VarId) -> bool {
        let v = var as usize;
        if v >= self.a_nodes || self.determined[v] {
            return false;
        }
        self.determined[v] = true;
        true
    }

    fn fresh_opaque(&mut self) -> VarId {
        let v = self.next_opaque;
        self.next_opaque += 1;
        v
    }

    // ---- symbolic evaluation -------------------------------------------

    fn wrap(&self, row: usize, rot: Rotation) -> usize {
        (row as i64 + rot.0 as i64).rem_euclid(self.n as i64) as usize
    }

    fn eval(&mut self, e: &Expression, row: usize, occ: &mut Vec<VarId>) -> Val {
        match e {
            Expression::Constant(c) => Val::Lin(Form::constant(*c)),
            Expression::Fixed(c, r) => {
                let idx = self.wrap(row, *r);
                Val::Lin(Form::constant(self.fixed[*c][idx]))
            }
            Expression::Instance(c, r) => {
                let idx = self.wrap(row, *r);
                let root = self.find(self.inst_base + c * self.n + idx) as VarId;
                Val::Lin(Form::var(root))
            }
            Expression::Advice(c, r) => {
                let idx = self.wrap(row, *r);
                let root = self.find(c * self.n + idx) as VarId;
                occ.push(root);
                Val::Lin(Form::var(root))
            }
            Expression::Challenge(i) => Val::Lin(Form::var((self.node_count + i) as VarId)),
            Expression::Neg(e) => {
                let v = self.eval(e, row, occ);
                self.scale_val(v, Fr::ZERO - Fr::ONE)
            }
            Expression::Scaled(e, s) => {
                let v = self.eval(e, row, occ);
                self.scale_val(v, *s)
            }
            Expression::Sum(a, b) => {
                let va = self.eval(a, row, occ);
                let vb = self.eval(b, row, occ);
                add_val(va, vb)
            }
            Expression::Product(a, b) => {
                // Evaluate the cheaper-looking side first so a zero
                // selector short-circuits the other arm entirely.
                let va = self.eval(a, row, occ);
                if matches!(&va, Val::Lin(f) if f.is_zero()) {
                    return Val::Lin(Form::constant(Fr::ZERO));
                }
                let vb = self.eval(b, row, occ);
                self.mul_val(va, vb)
            }
        }
    }

    fn scale_val(&mut self, v: Val, s: Fr) -> Val {
        if s.is_zero() {
            return Val::Lin(Form::constant(Fr::ZERO));
        }
        match v {
            Val::Lin(f) => Val::Lin(f.scale(s)),
            Val::Prod(mut fs) => {
                fs[0] = fs[0].scale(s);
                Val::Prod(fs)
            }
            Val::Mixed => Val::Mixed,
        }
    }

    fn unknown_count(&self, f: &Form) -> usize {
        f.terms.iter().filter(|(v, _)| !self.var_known(*v)).count()
    }

    fn mul_val(&mut self, a: Val, b: Val) -> Val {
        // Constant factors scale the other side.
        if let Val::Lin(f) = &a {
            if f.is_const() {
                let c = f.c;
                return self.scale_val(b, c);
            }
        }
        if let Val::Lin(f) = &b {
            if f.is_const() {
                let c = f.c;
                return self.scale_val(a, c);
            }
        }
        match (a, b) {
            (Val::Lin(fa), Val::Lin(fb)) => {
                let (ua, ub) = (self.unknown_count(&fa), self.unknown_count(&fb));
                match (ua, ub) {
                    // known * known: some known value; mint an opaque var.
                    (0, 0) => Val::Lin(Form::var(self.fresh_opaque())),
                    // known * linear-in-unknowns: still linear, but the
                    // unknown coefficients are no longer concrete.
                    (0, _) => self.mul_known_lin(fb),
                    (_, 0) => self.mul_known_lin(fa),
                    // unknown * unknown: keep factored.
                    _ => Val::Prod(vec![fa, fb]),
                }
            }
            (Val::Lin(f), Val::Prod(mut fs)) | (Val::Prod(mut fs), Val::Lin(f)) => {
                if fs.len() >= MAX_FACTORS {
                    return Val::Mixed;
                }
                fs.push(f);
                Val::Prod(fs)
            }
            (Val::Prod(mut fa), Val::Prod(fb)) => {
                if fa.len() + fb.len() > MAX_FACTORS {
                    return Val::Mixed;
                }
                fa.extend(fb);
                Val::Prod(fa)
            }
            _ => Val::Mixed,
        }
    }

    /// Multiplies a known (non-constant) form into a form with unknowns:
    /// unknown terms keep their variables with symbolic coefficients, and
    /// everything known collapses into one opaque term.
    fn mul_known_lin(&mut self, u: Form) -> Val {
        let mut terms = Vec::with_capacity(u.terms.len() + 1);
        let mut garbage = !u.c.is_zero();
        for (v, _) in &u.terms {
            if self.var_known(*v) {
                garbage = true;
            } else {
                terms.push((*v, Coeff::Symbolic));
            }
        }
        if garbage {
            terms.push((self.fresh_opaque(), Coeff::Concrete(Fr::ONE)));
        }
        terms.sort_by_key(|(v, _)| *v);
        Val::Lin(Form { c: Fr::ZERO, terms })
    }

    // ---- lookup tables --------------------------------------------------

    fn build_lookup_cache(&self, li: usize) -> LookupCache {
        let lk = &self.cs.lookups[li];
        let fixed_only = lk.table_is_fixed_only();
        if !fixed_only {
            return LookupCache {
                fixed_only,
                rows: Vec::new(),
                contiguous_range: false,
                functional: HashMap::new(),
            };
        }
        let rows: Vec<Vec<Fr>> = (0..self.usable)
            .map(|row| {
                lk.table
                    .iter()
                    .map(|e| {
                        e.evaluate(
                            &|c| c,
                            &|_, _| Fr::ZERO,
                            &|_, _| Fr::ZERO,
                            &|c, r| self.fixed[c][self.wrap(row, r)],
                            &|_| Fr::ZERO,
                        )
                    })
                    .collect()
            })
            .collect();
        let contiguous_range = lk.table.len() == 1 && {
            let distinct: HashSet<Fr> = rows.iter().map(|r| r[0]).collect();
            (0..distinct.len() as u64).all(|i| distinct.contains(&Fr::from_u64(i)))
        };
        LookupCache {
            fixed_only,
            rows,
            contiguous_range,
            functional: HashMap::new(),
        }
    }

    /// Is the table of lookup `li` a function from the `known_mask`
    /// positions to position `target`? (Memoized.)
    fn table_functional(&mut self, li: usize, target: usize, known_mask: u64) -> bool {
        if let Some(&v) = self.lookup_cache[li].functional.get(&(target, known_mask)) {
            return v;
        }
        let rows = &self.lookup_cache[li].rows;
        let width = self.cs.lookups[li].table.len();
        let mut map: HashMap<Vec<Fr>, Fr> = HashMap::with_capacity(rows.len());
        let mut ok = true;
        for row in rows {
            let key: Vec<Fr> = (0..width)
                .filter(|i| known_mask & (1 << i) != 0)
                .map(|i| row[i])
                .collect();
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
        self.lookup_cache[li]
            .functional
            .insert((target, known_mask), ok);
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
                self.occurred[v as usize] = true;
            }
        }
    }

    /// Applies the linear-deduction rules to one partially evaluated
    /// constraint. Returns true when something new was deduced.
    fn deduce(&mut self, val: &Val, facts: &RowFacts) -> bool {
        match val {
            Val::Lin(f) => self.deduce_linear(f, facts),
            Val::Prod(fs) => self.deduce_product(fs, facts),
            Val::Mixed => false,
        }
    }

    fn deduce_linear(&mut self, f: &Form, facts: &RowFacts) -> bool {
        let unknowns: Vec<(VarId, Coeff)> = f
            .terms
            .iter()
            .filter(|(v, _)| !self.var_known(*v))
            .copied()
            .collect();
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
                if self.deduce_bit_recomposition(&unknowns) {
                    return true;
                }
                // Rule: quotient/remainder pair — two unknowns, one of
                // them range-bounded by this row's lookups with a concrete
                // coefficient. Unique by Euclidean division (assuming the
                // range is small relative to the field; see crate docs).
                if unknowns.len() == 2 {
                    let bound_ok = |v: VarId, c: Coeff| {
                        facts.bound.contains(&v) && matches!(c, Coeff::Concrete(_))
                    };
                    if bound_ok(unknowns[0].0, unknowns[0].1)
                        || bound_ok(unknowns[1].0, unknowns[1].1)
                    {
                        let a = self.determine(unknowns[0].0);
                        let b = self.determine(unknowns[1].0);
                        return a || b;
                    }
                }
                false
            }
        }
    }

    fn deduce_bit_recomposition(&mut self, unknowns: &[(VarId, Coeff)]) -> bool {
        if unknowns.len() < 2 {
            return false;
        }
        if !unknowns
            .iter()
            .all(|(v, c)| self.boolean[*v as usize] && matches!(c, Coeff::Concrete(_)))
        {
            return false;
        }
        let base = match unknowns[0].1 {
            Coeff::Concrete(c) => c,
            Coeff::Symbolic => return false,
        };
        let Some(inv) = base.invert() else {
            return false;
        };
        let mut exponents = HashSet::new();
        for (_, c) in unknowns {
            let Coeff::Concrete(c) = c else { return false };
            let Some(e) = power_of_two_exponent(*c * inv) else {
                return false;
            };
            // Exponents must be distinct and small enough that the sum of
            // weights cannot wrap the field.
            if e > 200 || !exponents.insert(e) {
                return false;
            }
        }
        let mut progress = false;
        for (v, _) in unknowns {
            progress |= self.determine(*v);
        }
        progress
    }

    fn deduce_product(&mut self, fs: &[Form], facts: &RowFacts) -> bool {
        // All factors must be linear in the same single unknown.
        let mut common: Option<VarId> = None;
        for f in fs {
            let unk: Vec<&(VarId, Coeff)> = f
                .terms
                .iter()
                .filter(|(v, _)| !self.var_known(*v))
                .collect();
            if unk.len() != 1 || !matches!(unk[0].1, Coeff::Concrete(_)) {
                return false;
            }
            match common {
                None => common = Some(unk[0].0),
                Some(u) if u == unk[0].0 => {}
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
        let mut roots: Vec<(Fr, Fr)> = Vec::new();
        let mut concrete = true;
        for f in fs {
            match f.terms.as_slice() {
                [(_, Coeff::Concrete(k))] if !k.is_zero() => {
                    if !roots.iter().any(|(c2, k2)| f.c * *k2 == *c2 * *k) {
                        roots.push((f.c, *k));
                    }
                }
                _ => {
                    concrete = false;
                    break;
                }
            }
        }
        if concrete {
            if roots.len() == 1 {
                return self.determine(u);
            }
            // `−c/k` is 0 when `c = 0` and 1 when `c = −k`.
            if roots
                .iter()
                .all(|(c, k)| c.is_zero() || (*c + *k).is_zero())
            {
                let idx = u as usize;
                if idx < self.a_nodes && !self.boolean[idx] {
                    self.boolean[idx] = true;
                    return true;
                }
                return false;
            }
        }

        // Rule (max pattern): `(u - a)(u - b) = 0` with both factors
        // range-checked by this row's lookups forces u to the in-range
        // root, i.e. max(a, b) for the ZKML max gadget.
        if fs.len() == 2 && fs.iter().all(|f| facts.range_forms.iter().any(|g| g == f)) {
            return self.determine(u);
        }
        false
    }

    // ---- the sweep ------------------------------------------------------

    /// `occ` collects the advice classes the row's constraints mention, for
    /// [`run`](Engine::run)'s settled-row test.
    fn process_lookups(&mut self, row: usize, facts: &mut RowFacts, occ: &mut Vec<VarId>) -> bool {
        let cs = self.cs;
        let mut progress = false;
        for li in 0..cs.lookups.len() {
            let inputs = &cs.lookups[li].inputs;
            let mut vals = Vec::with_capacity(inputs.len());
            for e in inputs {
                let start = occ.len();
                let v = self.eval(e, row, occ);
                self.mark_occurrences(&v, &occ[start..]);
                vals.push(v);
            }
            if !self.lookup_cache[li].fixed_only {
                continue;
            }
            if inputs.len() == 1 {
                // Range fact: single input, single unknown, contiguous
                // {0..max} table.
                if self.lookup_cache[li].contiguous_range {
                    if let Val::Lin(f) = &vals[0] {
                        let unk: Vec<&(VarId, Coeff)> = f
                            .terms
                            .iter()
                            .filter(|(v, _)| !self.var_known(*v))
                            .collect();
                        if unk.len() == 1 && matches!(unk[0].1, Coeff::Concrete(_)) {
                            facts.bound.insert(unk[0].0);
                            facts.range_forms.push(f.clone());
                        }
                    }
                }
                continue;
            }
            // Functional-lookup rule: all key positions known, exactly one
            // position left with a single concretely-scaled unknown, and
            // the table maps keys to that position functionally.
            let mut known_mask = 0u64;
            let mut target: Option<(usize, VarId)> = None;
            let mut eligible = inputs.len() <= 64;
            for (i, v) in vals.iter().enumerate() {
                match v {
                    Val::Lin(f) => {
                        let unk: Vec<&(VarId, Coeff)> = f
                            .terms
                            .iter()
                            .filter(|(v, _)| !self.var_known(*v))
                            .collect();
                        if unk.is_empty() {
                            known_mask |= 1 << i;
                        } else if unk.len() == 1
                            && matches!(unk[0].1, Coeff::Concrete(_))
                            && target.is_none()
                        {
                            target = Some((i, unk[0].0));
                        } else {
                            eligible = false;
                        }
                    }
                    _ => eligible = false,
                }
            }
            if eligible {
                if let Some((pos, var)) = target {
                    if self.table_functional(li, pos, known_mask) {
                        progress |= self.determine(var);
                    }
                }
            }
        }
        progress
    }

    fn process_gates(&mut self, row: usize, facts: &RowFacts, occ: &mut Vec<VarId>) -> bool {
        let cs = self.cs;
        let mut progress = false;
        for (gi, gate) in cs.gates.iter().enumerate() {
            for (pi, poly) in gate.polys.iter().enumerate() {
                // Skip polys whose top-level selector is zero at this row;
                // they evaluate to the zero constant.
                if let Some((col, rot)) = self.gate_selectors[gi][pi] {
                    if self.fixed[col][self.wrap(row, rot)].is_zero() {
                        continue;
                    }
                }
                let start = occ.len();
                let val = self.eval(poly, row, occ);
                self.mark_occurrences(&val, &occ[start..]);
                progress |= self.deduce(&val, facts);
            }
        }
        progress
    }

    /// Runs rounds of the row sweep until a fixpoint. Classes only ever
    /// become known and every rule needs an unknown to act on, so a row
    /// whose constraints mention no unknown class is settled: later rounds
    /// skip it, and deduce exactly what a full sweep would.
    pub(crate) fn run(&mut self) {
        let mut live: Vec<usize> = (0..self.n).collect();
        let mut occ = Vec::new();
        loop {
            self.rounds += 1;
            let mut progress = false;
            live.retain(|&row| {
                let mut facts = RowFacts::default();
                occ.clear();
                if row < self.usable {
                    progress |= self.process_lookups(row, &mut facts, &mut occ);
                }
                progress |= self.process_gates(row, &facts, &mut occ);
                occ.iter().any(|v| !self.var_known(*v))
            });
            if !progress {
                break;
            }
        }
    }
}

/// The `(fixed column, rotation)` of a poly's top-level selector factor,
/// if it has the canonical `q * (...)` shape.
fn top_level_selector(e: &Expression) -> Option<(usize, Rotation)> {
    match e {
        Expression::Product(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expression::Fixed(c, r), _) | (_, Expression::Fixed(c, r)) => Some((*c, *r)),
            _ => None,
        },
        _ => None,
    }
}

fn add_val(a: Val, b: Val) -> Val {
    match (a, b) {
        (Val::Lin(fa), Val::Lin(fb)) => Val::Lin(fa.add(&fb)),
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

    #[test]
    fn power_of_two_detection() {
        assert_eq!(power_of_two_exponent(Fr::from_u64(1)), Some(0));
        assert_eq!(power_of_two_exponent(Fr::from_u64(64)), Some(6));
        assert_eq!(power_of_two_exponent(Fr::from_u64(3)), None);
        assert_eq!(power_of_two_exponent(Fr::ZERO), None);
        assert_eq!(power_of_two_exponent(Fr::from_u128(1 << 80)), Some(80));
    }
}
