//! The argument both sides run: the opening plan and the quotient
//! identities.
//!
//! Prover and verifier must enumerate committed polynomials, evaluation
//! points and claimed evaluations in exactly the same order, and fold the
//! same identities into the quotient in the same order; this module is the
//! single source of truth for both. `Argument` lists the identities as
//! `Term`s and evaluates one against a `Point`: the prover on every point
//! of the extended coset, the verifier once at the challenge `x` over the
//! opened evaluations. The row-side grand products call the same factor
//! functions (`compress`, `Challenges::lookup_factor`,
//! `Argument::permutation_factors`).

use crate::circuit::ConstraintSystem;
use crate::expression::{Column, Expression};
use zkml_ff::{Field, Fr};

/// Identifies a committed polynomial within a proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolyId {
    /// Advice column `i`.
    Advice(usize),
    /// Fixed column `i` (committed in the verifying key).
    Fixed(usize),
    /// Committed (weight) column `i` — committed in a standalone
    /// `WeightCommitment` published outside the verifying key.
    Committed(usize),
    /// Permutation sigma polynomial `i` (committed in the verifying key).
    Sigma(usize),
    /// Permutation grand-product polynomial for chunk `c`.
    PermZ(usize),
    /// Permuted lookup input for lookup `i`.
    LookupA(usize),
    /// Permuted lookup table for lookup `i`.
    LookupS(usize),
    /// Lookup grand-product polynomial for lookup `i`.
    LookupZ(usize),
    /// Quotient piece `j`.
    Quotient(usize),
}

/// One entry of the opening plan: evaluate `poly` at `x * omega^rotation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanEntry {
    /// Which polynomial.
    pub poly: PolyId,
    /// Rotation relative to the evaluation challenge.
    pub rotation: i32,
}

/// Builds the canonical opening plan for a constraint system with `2^k` rows.
///
/// `usable` is the `l_last` row index (`n - BLINDING_FACTORS - 1`); the
/// permutation chunk-linking constraint evaluates the previous chunk's
/// grand product at `omega^usable * x`.
pub fn opening_plan(
    cs: &ConstraintSystem,
    usable: usize,
    quotient_pieces: usize,
) -> Vec<PlanEntry> {
    let mut plan = Vec::new();
    let mut open = |poly, rotation| plan.push(PlanEntry { poly, rotation });
    // 1. Column queries from gates/lookup expressions (instance columns are
    //    evaluated directly by the verifier and never opened).
    for (col, rot) in cs.queries() {
        let poly = match col {
            Column::Advice(i) => PolyId::Advice(i),
            Column::Fixed(i) => PolyId::Fixed(i),
            Column::Committed(i) => PolyId::Committed(i),
            Column::Instance(_) => continue,
        };
        open(poly, rot.0);
    }
    // 2. Permutation openings.
    for i in 0..cs.permutation_columns.len() {
        open(PolyId::Sigma(i), 0);
    }
    let z_count = cs.permutation_z_count();
    for c in 0..z_count {
        open(PolyId::PermZ(c), 0);
        open(PolyId::PermZ(c), 1);
        // The next chunk's linking identity reads this chunk at omega^usable.
        if c + 1 < z_count {
            open(PolyId::PermZ(c), usable as i32);
        }
    }
    // 3. Lookup openings.
    for i in 0..cs.lookups.len() {
        open(PolyId::LookupA(i), 0);
        open(PolyId::LookupA(i), -1);
        open(PolyId::LookupS(i), 0);
        open(PolyId::LookupZ(i), 0);
        open(PolyId::LookupZ(i), 1);
    }
    // 4. Quotient pieces.
    for j in 0..quotient_pieces {
        open(PolyId::Quotient(j), 0);
    }
    plan
}

/// The transcript challenges the identities read.
#[derive(Clone, Copy)]
pub(crate) struct Challenges<'a> {
    /// Phase challenges, read through [`Expression::Challenge`].
    pub(crate) phase: &'a [Fr],
    /// Compresses a lookup's input and table tuples ([`compress`]).
    pub(crate) theta: Fr,
    /// Weighs σ and identity values in the permutation, shifts lookup inputs.
    pub(crate) beta: Fr,
    /// Shifts permutation factors and lookup tables.
    pub(crate) gamma: Fr,
}

impl Challenges<'_> {
    /// One permutation factor `v + β·s + γ`, where `s` is a σ value or an
    /// identity value `δ^j·X`.
    fn permutation_factor(&self, value: Fr, s: Fr) -> Fr {
        value + self.beta * s + self.gamma
    }

    /// One lookup factor `(a + β)·(t + γ)`: of a compressed input and table
    /// row, or of a permuted input and table row.
    pub(crate) fn lookup_factor(&self, input: Fr, table: Fr) -> Fr {
        (input + self.beta) * (table + self.gamma)
    }
}

/// `θ`-compression of a lookup tuple: `Σ_k θ^k · eval(e_k)`, by Horner.
pub(crate) fn compress(exprs: &[Expression], theta: Fr, eval: impl Fn(&Expression) -> Fr) -> Fr {
    exprs
        .iter()
        .rev()
        .fold(Fr::zero(), |acc, e| acc * theta + eval(e))
}

/// `δ^0, …, δ^{count−1}`: permutation column `j`'s identity value on row
/// `i` is `δ^j·ω^i`, so keygen's σ values are these scaled by `ω^i`.
pub(crate) fn delta_powers(count: usize) -> Vec<Fr> {
    std::iter::successors(Some(Fr::one()), |d| Some(*d * Fr::delta()))
        .take(count)
        .collect()
}

/// A Lagrange selector of the domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lagrange {
    /// `l_0`: one on the first row.
    First,
    /// `l_last`: one on the last usable row.
    Last,
    /// `l_active = 1 − l_last − l_blind`: one on the rows before `l_last`.
    Active,
}

/// Where the identities are evaluated: a point of the extended coset for
/// the prover, the challenge `x` for the verifier.
pub(crate) trait Point {
    /// A committed polynomial at `x·ω^rotation`.
    fn poly(&self, id: PolyId, rotation: i32) -> Fr;
    /// Instance column `column` at `x·ω^rotation`.
    fn instance(&self, column: usize, rotation: i32) -> Fr;
    /// A Lagrange selector at `x`.
    fn lagrange(&self, which: Lagrange) -> Fr;
    /// The point `x` itself.
    fn x(&self) -> Fr;

    /// A circuit column at `x·ω^rotation`.
    fn column(&self, column: Column, rotation: i32) -> Fr {
        match column {
            Column::Instance(c) => self.instance(c, rotation),
            Column::Advice(c) => self.poly(PolyId::Advice(c), rotation),
            Column::Fixed(c) => self.poly(PolyId::Fixed(c), rotation),
            Column::Committed(c) => self.poly(PolyId::Committed(c), rotation),
        }
    }
}

/// One quotient identity: a polynomial that vanishes on the domain when the
/// witness satisfies the circuit.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Term<'a> {
    /// A gate polynomial.
    Gate(&'a Expression),
    /// `l_0·(1 − z)`: grand product `z` starts at one.
    Start(PolyId),
    /// `l_last·(z² − z)`: grand product `z` ends at zero or one.
    End(PolyId),
    /// `l_0·(z_c − z_{c−1}(ω^usable·X))`: chunk `c` starts where chunk
    /// `c − 1` ended.
    PermutationLink(usize),
    /// `l_active·(z_c(ωX)·Π(v + β·σ + γ) − z_c(X)·Π(v + β·δ^j·X + γ))` over
    /// the columns of chunk `c`.
    PermutationProduct(usize),
    /// `l_active·(z(ωX)·(a' + β)(s' + γ) − z(X)·(a + β)(t + γ))` for
    /// lookup `i`, with `a`, `t` its `θ`-compressed input and table.
    LookupProduct(usize),
    /// `l_0·(a' − s')` for lookup `i`.
    LookupFirstRow(usize),
    /// `l_active·(a' − s')·(a' − a'(ω⁻¹X))` for lookup `i`.
    LookupOrder(usize),
}

/// The quotient identities of one constraint system, in the order both
/// sides fold them: `combined = combined·y + term`.
pub(crate) struct Argument<'a> {
    cs: &'a ConstraintSystem,
    usable: usize,
    chunk: usize,
    delta_powers: Vec<Fr>,
    terms: Vec<Term<'a>>,
}

impl<'a> Argument<'a> {
    /// Lists the identities of `cs`; `usable` is the `l_last` row index.
    pub(crate) fn new(cs: &'a ConstraintSystem, usable: usize) -> Self {
        let mut terms: Vec<Term<'a>> = cs
            .gates
            .iter()
            .flat_map(|g| g.polys.iter().map(Term::Gate))
            .collect();
        let z_count = cs.permutation_z_count();
        if z_count > 0 {
            terms.push(Term::Start(PolyId::PermZ(0)));
            terms.push(Term::End(PolyId::PermZ(z_count - 1)));
            terms.extend((1..z_count).map(Term::PermutationLink));
            terms.extend((0..z_count).map(Term::PermutationProduct));
        }
        for i in 0..cs.lookups.len() {
            terms.extend([
                Term::Start(PolyId::LookupZ(i)),
                Term::End(PolyId::LookupZ(i)),
                Term::LookupProduct(i),
                Term::LookupFirstRow(i),
                Term::LookupOrder(i),
            ]);
        }
        Argument {
            cs,
            usable,
            chunk: cs.permutation_chunk(),
            delta_powers: delta_powers(cs.permutation_columns.len()),
            terms,
        }
    }

    /// Chunk `c`'s permutation factors at `x`: `(Π(v + β·δ^j·x + γ),
    /// Π(v + β·σ_j + γ))` over its columns, with `value` giving a column's
    /// value and `sigma` permutation column `j`'s σ value.
    pub(crate) fn permutation_factors(
        &self,
        chunk: usize,
        ch: &Challenges,
        x: Fr,
        value: impl Fn(Column) -> Fr,
        sigma: impl Fn(usize) -> Fr,
    ) -> (Fr, Fr) {
        let cols = self.cs.permutation_columns.chunks(self.chunk).nth(chunk);
        let (mut identity, mut permuted) = (Fr::one(), Fr::one());
        for (j, col) in (chunk * self.chunk..).zip(cols.unwrap_or_default()) {
            let v = value(*col);
            identity *= ch.permutation_factor(v, self.delta_powers[j] * x);
            permuted *= ch.permutation_factor(v, sigma(j));
        }
        (identity, permuted)
    }

    /// Evaluates one identity at `p`.
    pub(crate) fn evaluate(&self, term: &Term, p: &impl Point, ch: &Challenges) -> Fr {
        let eval = |e: &Expression| {
            e.evaluate(
                &|c| c,
                &|c, r| p.instance(c, r.0),
                &|c, r| p.poly(PolyId::Advice(c), r.0),
                &|c, r| p.poly(PolyId::Fixed(c), r.0),
                &|c| ch.phase[c],
            )
        };
        let one = Fr::one();
        match *term {
            Term::Gate(e) => eval(e),
            Term::Start(z) => p.lagrange(Lagrange::First) * (one - p.poly(z, 0)),
            Term::End(z) => {
                let z = p.poly(z, 0);
                p.lagrange(Lagrange::Last) * (z.square() - z)
            }
            Term::PermutationLink(c) => {
                p.lagrange(Lagrange::First)
                    * (p.poly(PolyId::PermZ(c), 0)
                        - p.poly(PolyId::PermZ(c - 1), self.usable as i32))
            }
            Term::PermutationProduct(c) => {
                let (identity, permuted) = self.permutation_factors(
                    c,
                    ch,
                    p.x(),
                    |col| p.column(col, 0),
                    |j| p.poly(PolyId::Sigma(j), 0),
                );
                p.lagrange(Lagrange::Active)
                    * (p.poly(PolyId::PermZ(c), 1) * permuted
                        - p.poly(PolyId::PermZ(c), 0) * identity)
            }
            Term::LookupProduct(i) => {
                let lk = &self.cs.lookups[i];
                let a = compress(&lk.inputs, ch.theta, eval);
                let t = compress(&lk.table, ch.theta, eval);
                let permuted =
                    ch.lookup_factor(p.poly(PolyId::LookupA(i), 0), p.poly(PolyId::LookupS(i), 0));
                p.lagrange(Lagrange::Active)
                    * (p.poly(PolyId::LookupZ(i), 1) * permuted
                        - p.poly(PolyId::LookupZ(i), 0) * ch.lookup_factor(a, t))
            }
            Term::LookupFirstRow(i) => {
                p.lagrange(Lagrange::First)
                    * (p.poly(PolyId::LookupA(i), 0) - p.poly(PolyId::LookupS(i), 0))
            }
            Term::LookupOrder(i) => {
                let a = p.poly(PolyId::LookupA(i), 0);
                p.lagrange(Lagrange::Active)
                    * (a - p.poly(PolyId::LookupS(i), 0))
                    * (a - p.poly(PolyId::LookupA(i), -1))
            }
        }
    }

    /// Folds every identity at the points `point(0), point(1), …` into
    /// `out`: `out[i]` is [`Argument::fold`] at `point(i)`. The terms run
    /// over `FOLD_BLOCK` points at a time, so each term streams through the
    /// few columns it reads while the block's rows stay in cache. Folding
    /// all terms at one point before the next reads a row of every column
    /// at once; on ResNet-18 (k = 14) that made the quotient 13–18% slower.
    pub(crate) fn fold_rows<P: Point>(
        &self,
        out: &mut [Fr],
        point: impl Fn(usize) -> P,
        ch: &Challenges,
        y: Fr,
    ) {
        const FOLD_BLOCK: usize = 64;
        for (b, block) in out.chunks_mut(FOLD_BLOCK).enumerate() {
            block.fill(Fr::zero());
            for term in &self.terms {
                for (i, acc) in block.iter_mut().enumerate() {
                    *acc = *acc * y + self.evaluate(term, &point(b * FOLD_BLOCK + i), ch);
                }
            }
        }
    }

    /// Folds every identity at `p`: `combined = combined·y + term`.
    pub(crate) fn fold(&self, p: &impl Point, ch: &Challenges, y: Fr) -> Fr {
        self.terms
            .iter()
            .fold(Fr::zero(), |acc, term| acc * y + self.evaluate(term, p, ch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::{Expression, Rotation};
    use std::cell::RefCell;

    /// A point that records every opened evaluation an identity reads.
    #[derive(Default)]
    struct Recording(RefCell<Vec<PlanEntry>>);

    impl Point for Recording {
        fn poly(&self, poly: PolyId, rotation: i32) -> Fr {
            let entry = PlanEntry { poly, rotation };
            let mut read = self.0.borrow_mut();
            if !read.contains(&entry) {
                read.push(entry);
            }
            Fr::one()
        }
        fn instance(&self, _: usize, _: i32) -> Fr {
            Fr::one()
        }
        fn lagrange(&self, _: Lagrange) -> Fr {
            Fr::one()
        }
        fn x(&self) -> Fr {
            Fr::one()
        }
    }

    /// A gate over phase-0 and phase-1 advice at three rotations, an
    /// instance column and a challenge, of degree `3 + boost`; two lookups
    /// reading neighbouring rows; and `extra` more advice columns, which
    /// join `a`, `b`, the committed column and the instance column in the
    /// permutation.
    fn system(extra: usize, boost: usize) -> ConstraintSystem {
        let mut cs = ConstraintSystem::new();
        let (q, t) = (cs.fixed_column(), cs.fixed_column());
        let (a, b) = (cs.advice_column(0), cs.advice_column(1));
        let w = cs.committed_column();
        let inst = cs.instance_column();
        let chi = cs.challenge();
        let adv = |c, r| Expression::Advice(c, Rotation(r));
        let fixed = |c, r| Expression::Fixed(c, Rotation(r));
        let mut gate = fixed(q, 0)
            * (adv(a, 0) * adv(a, 1) - adv(b, 0) * Expression::Challenge(chi))
            + Expression::Instance(inst, Rotation::prev());
        for _ in 0..boost {
            gate = gate * fixed(q, 0);
        }
        for col in [Column::Advice(a), Column::Advice(b), Column::Committed(w)] {
            cs.enable_equality(col);
        }
        cs.enable_equality(Column::Instance(inst));
        for _ in 0..extra {
            let c = cs.advice_column(0);
            cs.enable_equality(Column::Advice(c));
            gate = gate + adv(c, 0);
        }
        cs.create_gate("g", vec![gate]);
        cs.create_lookup("prev", vec![adv(a, -1)], vec![fixed(t, 0)]);
        cs.create_lookup(
            "pair",
            vec![adv(b, 0), adv(a, 1)],
            vec![fixed(t, 0), fixed(q, 1)],
        );
        cs
    }

    #[test]
    fn opening_plan_is_what_the_identities_read() {
        let usable = 57;
        // (extra columns, degree boost) -> permutation chunks of 4, 2 and 2
        // columns over 4, 5 and 6 equality columns.
        for (extra, boost, chunks) in [(0, 3, 1), (1, 0, 3), (2, 0, 3)] {
            let cs = system(extra, boost);
            assert_eq!(cs.permutation_z_count(), chunks);
            let argument = Argument::new(&cs, usable);
            // One gate, start and end, the links, the products, five per lookup.
            assert_eq!(argument.terms.len(), 1 + 2 + (chunks - 1) + chunks + 2 * 5);
            let point = Recording::default();
            let ch = Challenges {
                phase: &[Fr::one()],
                theta: Fr::one(),
                beta: Fr::one(),
                gamma: Fr::one(),
            };
            argument.fold(&point, &ch, Fr::one());
            let read = point.0.into_inner();
            let plan: Vec<PlanEntry> = opening_plan(&cs, usable, 4)
                .into_iter()
                .filter(|e| !matches!(e.poly, PolyId::Quotient(_)))
                .collect();
            for entry in &read {
                assert!(plan.contains(entry), "{entry:?} is read but never opened");
            }
            for entry in &plan {
                assert!(read.contains(entry), "{entry:?} is opened but never read");
            }
            assert_eq!(read.len(), plan.len(), "the plan opens an evaluation twice");
        }
    }

    #[test]
    fn plan_covers_all_commitments() {
        let mut cs = ConstraintSystem::new();
        let q = cs.fixed_column();
        let a = cs.advice_column(0);
        let b = cs.advice_column(0);
        cs.enable_equality(Column::Advice(a));
        cs.enable_equality(Column::Advice(b));
        cs.create_gate(
            "g",
            vec![
                Expression::Fixed(q, Rotation::cur())
                    * (Expression::Advice(a, Rotation::cur())
                        - Expression::Advice(b, Rotation::cur())),
            ],
        );
        let t = cs.fixed_column();
        cs.create_lookup(
            "lk",
            vec![Expression::Advice(a, Rotation::cur())],
            vec![Expression::Fixed(t, Rotation::cur())],
        );
        let plan = opening_plan(&cs, 57, 4);
        // Every advice column, fixed column, sigma, and quotient appears.
        for i in 0..cs.num_advice {
            assert!(plan.iter().any(|e| e.poly == PolyId::Advice(i)));
        }
        for i in 0..cs.num_fixed {
            assert!(plan.iter().any(|e| e.poly == PolyId::Fixed(i)));
        }
        for i in 0..cs.permutation_columns.len() {
            assert!(plan.iter().any(|e| e.poly == PolyId::Sigma(i)));
        }
        for j in 0..4 {
            assert!(plan.iter().any(|e| e.poly == PolyId::Quotient(j)));
        }
        assert!(plan
            .iter()
            .any(|e| e.poly == PolyId::LookupA(0) && e.rotation == -1));
    }

    #[test]
    fn linking_rotation_only_for_non_last_chunks() {
        let mut cs = ConstraintSystem::new();
        for _ in 0..3 {
            let c = cs.advice_column(0);
            cs.enable_equality(Column::Advice(c));
        }
        // degree 3 -> chunk 1 -> 3 Z polys; chunks 0 and 1 get the usable
        // rotation, chunk 2 does not.
        let plan = opening_plan(&cs, 100, 2);
        let rot_100: Vec<_> = plan
            .iter()
            .filter(|e| e.rotation == 100)
            .map(|e| e.poly)
            .collect();
        assert_eq!(rot_100, vec![PolyId::PermZ(0), PolyId::PermZ(1)]);
    }
}
