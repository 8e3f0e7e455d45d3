//! The symbolic linear forms the analyzer partially evaluates gate
//! polynomials into.
//!
//! A [`Form`] is a linear combination `c + Σ coeff_i · var_i` over symbolic
//! variables. Variables stand for union-find classes of advice cells
//! (unknown until deduced), public givens (instance cells, challenges), or
//! opaque known products minted during partial evaluation. Coefficients are
//! either concrete field elements (safe to solve against) or
//! [`Coeff::Symbolic`] — a value that is *known* to the verifier-side
//! analysis but not a compile-time constant, so it cannot be asserted
//! nonzero and cannot anchor a unique linear solution on its own.
//!
//! A form's terms live in a [`Terms`] arena that one constraint's
//! evaluation fills and the next one clears, so building a form costs no
//! heap allocation once the arena has grown to the largest constraint.

use zkml_ff::{Field, Fr};

/// A symbolic variable id. The engine lays out union-find node ids first
/// (advice, instance, fixed cells), then challenges, then opaque products.
pub(crate) type VarId = u32;

/// A coefficient in a [`Form`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Coeff {
    /// A compile-time field constant (nonzero by representation invariant).
    Concrete(Fr),
    /// Known to the analysis but not constant (e.g. multiplied by another
    /// known-but-symbolic value). Possibly zero at proving time.
    Symbolic,
}

impl Coeff {
    fn add(self, other: Coeff) -> Coeff {
        match (self, other) {
            (Coeff::Concrete(a), Coeff::Concrete(b)) => Coeff::Concrete(a + b),
            _ => Coeff::Symbolic,
        }
    }

    fn is_zero(&self) -> bool {
        matches!(self, Coeff::Concrete(c) if c.is_zero())
    }
}

/// One `coeff · var` term.
pub(crate) type Term = (VarId, Coeff);

/// A symbolic linear combination `c + Σ coeff·var` whose terms are the
/// slice `at..at + len` of a [`Terms`] arena, sorted by var id with zero
/// concrete coefficients dropped (so structural equality is canonical).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Form {
    /// Concrete constant term.
    pub c: Fr,
    at: u32,
    len: u32,
}

impl Form {
    /// True when the form has no variable terms at all.
    pub(crate) fn is_const(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.is_const() && self.c.is_zero()
    }
}

/// The arena the forms of one constraint evaluation keep their terms in.
/// A form owns its slice: every operation either writes a new slice at the
/// end or rewrites its operand's slice in place.
#[derive(Default)]
pub(crate) struct Terms(Vec<Term>);

impl Terms {
    /// Forgets every form built so far.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    pub(crate) fn of(&self, f: &Form) -> &[Term] {
        &self.0[f.at as usize..(f.at + f.len) as usize]
    }

    pub(crate) fn constant(&self, c: Fr) -> Form {
        Form {
            c,
            at: self.0.len() as u32,
            len: 0,
        }
    }

    pub(crate) fn var(&mut self, v: VarId) -> Form {
        self.0.push((v, Coeff::Concrete(Fr::ONE)));
        Form {
            c: Fr::ZERO,
            at: self.0.len() as u32 - 1,
            len: 1,
        }
    }

    /// Starts a form whose terms the caller pushes in var-id order with
    /// [`push`](Terms::push) and closes with [`finish`](Terms::finish).
    pub(crate) fn start(&self) -> u32 {
        self.0.len() as u32
    }

    pub(crate) fn push(&mut self, term: Term) {
        self.0.push(term);
    }

    pub(crate) fn finish(&self, c: Fr, at: u32) -> Form {
        Form {
            c,
            at,
            len: self.0.len() as u32 - at,
        }
    }

    /// `a + b`: merges the two sorted term lists into a new slice,
    /// cancelling concrete zeros.
    pub(crate) fn add(&mut self, a: &Form, b: &Form) -> Form {
        let at = self.start();
        let (mut i, a_end) = (a.at as usize, (a.at + a.len) as usize);
        let (mut j, b_end) = (b.at as usize, (b.at + b.len) as usize);
        while i < a_end && j < b_end {
            let (va, ca) = self.0[i];
            let (vb, cb) = self.0[j];
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => {
                    self.0.push((va, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.0.push((vb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let merged = ca.add(cb);
                    if !merged.is_zero() {
                        self.0.push((va, merged));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        self.0.extend_from_within(i..a_end);
        self.0.extend_from_within(j..b_end);
        self.finish(a.c + b.c, at)
    }

    /// Scales `f` in place by a nonzero concrete scalar. A zero scalar would
    /// leave `Concrete(0)` terms that the unique-unknown rule reads as a
    /// constraint on their variable; callers fold it to the zero constant.
    pub(crate) fn scale(&mut self, f: &mut Form, s: Fr) {
        debug_assert!(!s.is_zero(), "scaling a form by zero");
        f.c *= s;
        for (_, coeff) in &mut self.0[f.at as usize..(f.at + f.len) as usize] {
            if let Coeff::Concrete(k) = coeff {
                *k *= s;
            }
        }
    }

    /// Negates `f` in place.
    pub(crate) fn neg(&mut self, f: &mut Form) {
        f.c = -f.c;
        for (_, coeff) in &mut self.0[f.at as usize..(f.at + f.len) as usize] {
            if let Coeff::Concrete(k) = coeff {
                *k = -*k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::PrimeField;

    fn f(v: u64) -> Fr {
        Fr::from_u64(v)
    }

    fn form(t: &mut Terms, c: Fr, terms: &[Term]) -> Form {
        let at = t.start();
        for term in terms {
            t.push(*term);
        }
        t.finish(c, at)
    }

    #[test]
    fn add_merges_and_cancels() {
        let mut t = Terms::default();
        let a = form(
            &mut t,
            f(1),
            &[(0, Coeff::Concrete(f(2))), (3, Coeff::Concrete(f(5)))],
        );
        let b = form(
            &mut t,
            f(4),
            &[
                (1, Coeff::Concrete(f(7))),
                (3, Coeff::Concrete(Fr::ZERO - f(5))),
            ],
        );
        let s = t.add(&a, &b);
        assert_eq!(s.c, f(5));
        assert_eq!(
            t.of(&s),
            [(0, Coeff::Concrete(f(2))), (1, Coeff::Concrete(f(7)))]
        );
    }

    #[test]
    fn symbolic_absorbs() {
        let mut t = Terms::default();
        let mut a = form(&mut t, Fr::ZERO, &[(2, Coeff::Symbolic)]);
        let b = form(&mut t, Fr::ZERO, &[(2, Coeff::Concrete(f(9)))]);
        let s = t.add(&a, &b);
        // Symbolic + concrete stays symbolic (cannot be proven zero).
        assert_eq!(t.of(&s), [(2, Coeff::Symbolic)]);
        t.scale(&mut a, f(3));
        assert_eq!(t.of(&a), [(2, Coeff::Symbolic)]);
    }

    #[test]
    fn scale_and_neg_rewrite_in_place() {
        let mut t = Terms::default();
        let mut a = t.var(7);
        let b = t.var(7);
        t.scale(&mut a, f(3));
        assert_eq!(t.of(&a), [(7, Coeff::Concrete(f(3)))]);
        t.neg(&mut a);
        assert_eq!(t.of(&a), [(7, Coeff::Concrete(Fr::ZERO - f(3)))]);
        // `b` kept its own slice.
        assert_eq!(t.of(&b), [(7, Coeff::Concrete(Fr::ONE))]);
        // Neither a negation nor a scaling by −1 can make a form zero.
        assert!(!a.is_zero());
        let mut c = t.var(7);
        t.scale(&mut c, Fr::ZERO - Fr::ONE);
        assert!(!c.is_zero());
    }
}
