//! Columns, rotations, and the polynomial-constraint expression AST.

use zkml_ff::{Field, Fr};

/// A column in the circuit grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Column {
    /// Public-input column.
    Instance(usize),
    /// Private witness column.
    Advice(usize),
    /// Preprocessed column (selectors, lookup tables, constants).
    Fixed(usize),
    /// Committed column: model weights published once as a standalone
    /// polynomial commitment (commit-and-prove, ROADMAP item 4). Committed
    /// columns are never queried by gate expressions; they enter constraints
    /// only through the permutation/copy argument, so one `WeightCommitment`
    /// can serve every proof over the same architecture.
    Committed(usize),
}

/// A relative row offset used when a constraint references adjacent rows.
///
/// ZKML gadgets are single-row (`Rotation(0)`) by design (§4.2 of the paper);
/// non-zero rotations exist for the multi-row ablation (Table 13) and for
/// the permutation/lookup arguments themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rotation(pub i32);

impl Rotation {
    /// The current row.
    pub fn cur() -> Self {
        Rotation(0)
    }
    /// The next row.
    pub fn next() -> Self {
        Rotation(1)
    }
    /// The previous row.
    pub fn prev() -> Self {
        Rotation(-1)
    }
}

/// A polynomial constraint over the circuit columns.
#[derive(Clone, Debug, PartialEq)]
pub enum Expression {
    /// A constant field element.
    Constant(Fr),
    /// A query into an instance column at a rotation.
    Instance(usize, Rotation),
    /// A query into an advice column at a rotation.
    Advice(usize, Rotation),
    /// A query into a fixed column at a rotation.
    Fixed(usize, Rotation),
    /// A multi-phase challenge (available to phase-1 witness and gates).
    Challenge(usize),
    /// Negation.
    Neg(Box<Expression>),
    /// Sum of two expressions.
    Sum(Box<Expression>, Box<Expression>),
    /// Product of two expressions.
    Product(Box<Expression>, Box<Expression>),
    /// An expression multiplied by a constant.
    Scaled(Box<Expression>, Fr),
}

impl Expression {
    /// The degree of the expression, counting each column query as 1.
    pub(crate) fn degree(&self) -> usize {
        match self {
            Expression::Constant(_) | Expression::Challenge(_) => 0,
            Expression::Instance(..) | Expression::Advice(..) | Expression::Fixed(..) => 1,
            Expression::Neg(e) | Expression::Scaled(e, _) => e.degree(),
            Expression::Sum(a, b) => a.degree().max(b.degree()),
            Expression::Product(a, b) => a.degree() + b.degree(),
        }
    }

    /// Evaluates the expression with caller-provided query resolvers.
    pub fn evaluate<T: Field>(
        &self,
        constant: &impl Fn(Fr) -> T,
        instance: &impl Fn(usize, Rotation) -> T,
        advice: &impl Fn(usize, Rotation) -> T,
        fixed: &impl Fn(usize, Rotation) -> T,
        challenge: &impl Fn(usize) -> T,
    ) -> T {
        match self {
            Expression::Constant(c) => constant(*c),
            Expression::Instance(c, r) => instance(*c, *r),
            Expression::Advice(c, r) => advice(*c, *r),
            Expression::Fixed(c, r) => fixed(*c, *r),
            Expression::Challenge(i) => challenge(*i),
            Expression::Neg(e) => {
                let v: T = e.evaluate(constant, instance, advice, fixed, challenge);
                T::zero() - v
            }
            Expression::Sum(a, b) => {
                a.evaluate(constant, instance, advice, fixed, challenge)
                    + b.evaluate(constant, instance, advice, fixed, challenge)
            }
            Expression::Product(a, b) => {
                a.evaluate(constant, instance, advice, fixed, challenge)
                    * b.evaluate(constant, instance, advice, fixed, challenge)
            }
            Expression::Scaled(e, s) => {
                let v: T = e.evaluate(constant, instance, advice, fixed, challenge);
                v * constant(*s)
            }
        }
    }

    /// Evaluates the expression at `row` of concrete column grids, each of
    /// length `n`, wrapping rotations around the domain (matching the
    /// cyclic evaluation domain of the prover).
    pub(crate) fn evaluate_on_grid(
        &self,
        row: usize,
        n: usize,
        instance: &[Vec<Fr>],
        advice: &[Vec<Fr>],
        fixed: &[Vec<Fr>],
        challenges: &[Fr],
    ) -> Fr {
        let at = |col: &Vec<Fr>, rot: Rotation| -> Fr {
            let idx = (row as i64 + rot.0 as i64).rem_euclid(n as i64) as usize;
            col[idx]
        };
        self.evaluate(
            &|c| c,
            &|c, r| at(&instance[c], r),
            &|c, r| at(&advice[c], r),
            &|c, r| at(&fixed[c], r),
            &|c| challenges[c],
        )
    }

    /// True when the expression queries only fixed columns (constants are
    /// allowed; instance, advice and challenges are not) — i.e. it is fully
    /// determined by the preprocessed circuit data.
    pub(crate) fn references_only_fixed(&self) -> bool {
        match self {
            Expression::Constant(_) | Expression::Fixed(..) => true,
            Expression::Instance(..) | Expression::Advice(..) | Expression::Challenge(_) => false,
            Expression::Neg(e) | Expression::Scaled(e, _) => e.references_only_fixed(),
            Expression::Sum(a, b) | Expression::Product(a, b) => {
                a.references_only_fixed() && b.references_only_fixed()
            }
        }
    }

    /// Collects every `(column, rotation)` query in the expression.
    pub(crate) fn collect_queries(&self, out: &mut Vec<(Column, Rotation)>) {
        match self {
            Expression::Constant(_) | Expression::Challenge(_) => {}
            Expression::Instance(c, r) => out.push((Column::Instance(*c), *r)),
            Expression::Advice(c, r) => out.push((Column::Advice(*c), *r)),
            Expression::Fixed(c, r) => out.push((Column::Fixed(*c), *r)),
            Expression::Neg(e) | Expression::Scaled(e, _) => e.collect_queries(out),
            Expression::Sum(a, b) | Expression::Product(a, b) => {
                a.collect_queries(out);
                b.collect_queries(out);
            }
        }
    }
}

impl std::ops::Add for Expression {
    type Output = Expression;
    fn add(self, rhs: Expression) -> Expression {
        Expression::Sum(Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Sub for Expression {
    type Output = Expression;
    fn sub(self, rhs: Expression) -> Expression {
        Expression::Sum(Box::new(self), Box::new(Expression::Neg(Box::new(rhs))))
    }
}
impl std::ops::Mul for Expression {
    type Output = Expression;
    fn mul(self, rhs: Expression) -> Expression {
        Expression::Product(Box::new(self), Box::new(rhs))
    }
}
impl std::ops::Neg for Expression {
    type Output = Expression;
    fn neg(self) -> Expression {
        Expression::Neg(Box::new(self))
    }
}
impl std::ops::Mul<Fr> for Expression {
    type Output = Expression;
    fn mul(self, rhs: Fr) -> Expression {
        Expression::Scaled(Box::new(self), rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkml_ff::PrimeField;

    fn adv(i: usize) -> Expression {
        Expression::Advice(i, Rotation::cur())
    }

    #[test]
    fn degree_computation() {
        let e = adv(0) * adv(1) + adv(2) * Fr::from_u64(7);
        assert_eq!(e.degree(), 2);
        let q = Expression::Fixed(0, Rotation::cur());
        assert_eq!((q * e).degree(), 3);
        assert_eq!(Expression::Constant(Fr::ONE).degree(), 0);
        assert_eq!(Expression::Challenge(0).degree(), 0);
    }

    #[test]
    fn evaluation() {
        // q * (a0 * a1 - a2) with a = [2, 3, 6] and q = 1 evaluates to 0.
        let e = Expression::Fixed(0, Rotation::cur()) * (adv(0) * adv(1) - adv(2));
        let vals = [Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(6)];
        let r: Fr = e.evaluate(
            &|c| c,
            &|_, _| Fr::ZERO,
            &|i, _| vals[i],
            &|_, _| Fr::ONE,
            &|_| Fr::ZERO,
        );
        assert!(r.is_zero());
        // With a2 = 7 it does not.
        let vals = [Fr::from_u64(2), Fr::from_u64(3), Fr::from_u64(7)];
        let r: Fr = e.evaluate(
            &|c| c,
            &|_, _| Fr::ZERO,
            &|i, _| vals[i],
            &|_, _| Fr::ONE,
            &|_| Fr::ZERO,
        );
        assert_eq!(r, -Fr::ONE);
    }

    #[test]
    fn fixed_only_references() {
        let q = Expression::Fixed(0, Rotation::cur());
        assert!(q.clone().references_only_fixed());
        assert!(
            (q.clone() * Fr::from_u64(3) + Expression::Constant(Fr::ONE)).references_only_fixed()
        );
        assert!(!(q.clone() + adv(0)).references_only_fixed());
        assert!(!(q * Expression::Challenge(0)).references_only_fixed());
    }

    #[test]
    fn query_collection() {
        let e = adv(0) * Expression::Fixed(3, Rotation::prev())
            + Expression::Instance(1, Rotation::next());
        let mut q = Vec::new();
        e.collect_queries(&mut q);
        assert_eq!(q.len(), 3);
        assert!(q.contains(&(Column::Fixed(3), Rotation::prev())));
        assert!(q.contains(&(Column::Instance(1), Rotation::next())));
    }
}
