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

    /// Scales by a nonzero concrete scalar.
    fn scale(self, s: Fr) -> Coeff {
        match self {
            Coeff::Concrete(c) => Coeff::Concrete(c * s),
            Coeff::Symbolic => Coeff::Symbolic,
        }
    }

    fn is_zero(&self) -> bool {
        matches!(self, Coeff::Concrete(c) if c.is_zero())
    }
}

/// A symbolic linear combination: `c + Σ coeff·var`, terms sorted by var id
/// with zero concrete coefficients dropped (so structural equality is
/// canonical).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Form {
    /// Concrete constant term.
    pub c: Fr,
    /// `(var, coeff)` terms, strictly sorted by var id.
    pub terms: Vec<(VarId, Coeff)>,
}

impl Form {
    pub(crate) fn constant(c: Fr) -> Self {
        Form {
            c,
            terms: Vec::new(),
        }
    }

    pub(crate) fn var(v: VarId) -> Self {
        Form {
            c: Fr::ZERO,
            terms: vec![(v, Coeff::Concrete(Fr::ONE))],
        }
    }

    /// True when the form has no variable terms at all.
    pub(crate) fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.is_const() && self.c.is_zero()
    }

    /// Merges two sorted term lists, cancelling concrete zeros.
    pub(crate) fn add(&self, other: &Form) -> Form {
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() && j < other.terms.len() {
            let (va, ca) = self.terms[i];
            let (vb, cb) = other.terms[j];
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => {
                    terms.push((va, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    terms.push((vb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let merged = ca.add(cb);
                    if !merged.is_zero() {
                        terms.push((va, merged));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        terms.extend_from_slice(&self.terms[i..]);
        terms.extend_from_slice(&other.terms[j..]);
        Form {
            c: self.c + other.c,
            terms,
        }
    }

    /// Scales every coefficient by a concrete scalar; zero collapses the
    /// form to the zero constant.
    pub(crate) fn scale(&self, s: Fr) -> Form {
        if s.is_zero() {
            return Form::constant(Fr::ZERO);
        }
        Form {
            c: self.c * s,
            terms: self.terms.iter().map(|(v, c)| (*v, c.scale(s))).collect(),
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

    #[test]
    fn add_merges_and_cancels() {
        let a = Form {
            c: f(1),
            terms: vec![(0, Coeff::Concrete(f(2))), (3, Coeff::Concrete(f(5)))],
        };
        let b = Form {
            c: f(4),
            terms: vec![
                (1, Coeff::Concrete(f(7))),
                (3, Coeff::Concrete(Fr::ZERO - f(5))),
            ],
        };
        let s = a.add(&b);
        assert_eq!(s.c, f(5));
        assert_eq!(
            s.terms,
            vec![(0, Coeff::Concrete(f(2))), (1, Coeff::Concrete(f(7)))]
        );
    }

    #[test]
    fn symbolic_absorbs() {
        let a = Form {
            c: Fr::ZERO,
            terms: vec![(2, Coeff::Symbolic)],
        };
        let b = Form {
            c: Fr::ZERO,
            terms: vec![(2, Coeff::Concrete(f(9)))],
        };
        let s = a.add(&b);
        // Symbolic + concrete stays symbolic (cannot be proven zero).
        assert_eq!(s.terms, vec![(2, Coeff::Symbolic)]);
        assert_eq!(a.scale(f(3)).terms, vec![(2, Coeff::Symbolic)]);
    }

    #[test]
    fn scale_by_zero_is_zero() {
        let a = Form::var(7);
        assert!(a.scale(Fr::ZERO).is_zero());
        assert!(!a.scale(Fr::ZERO - Fr::ONE).is_zero());
    }
}
