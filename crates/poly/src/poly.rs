//! Dense polynomials in coefficient form.

use std::ops::{Add, Index, IndexMut, Sub};
use zkml_ff::Field;

/// A dense polynomial in coefficient form (`coeffs[i]` multiplies `X^i`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coeffs<F: Field> {
    /// Coefficients, lowest degree first. May contain leading zeros.
    pub values: Vec<F>,
}

impl<F: Field> Coeffs<F> {
    /// Creates a polynomial from coefficients.
    pub fn new(values: Vec<F>) -> Self {
        Self { values }
    }

    /// The zero polynomial padded to `n` coefficients.
    pub fn zero(n: usize) -> Self {
        Self {
            values: vec![F::zero(); n],
        }
    }

    /// Number of stored coefficients (including leading zeros).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no coefficients are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluates at `x` by Horner's rule.
    pub fn evaluate(&self, x: F) -> F {
        let mut acc = F::zero();
        for c in self.values.iter().rev() {
            acc = acc * x + *c;
        }
        acc
    }

    /// Divides by the linear factor `(X - z)`, returning the quotient.
    ///
    /// This is the "Kate division" used to open KZG commitments: if
    /// `p(z) = v`, then `p(X) - v = q(X) (X - z)` exactly. The remainder
    /// (which equals `p(z)`) is discarded.
    pub fn kate_divide(&self, z: F) -> Self {
        if self.values.is_empty() {
            return Self { values: vec![] };
        }
        let mut q = vec![F::zero(); self.values.len() - 1];
        let mut acc = F::zero();
        for i in (1..self.values.len()).rev() {
            acc = self.values[i] + acc * z;
            q[i - 1] = acc;
        }
        Self { values: q }
    }

    /// Naive multiplication (test/reference use only).
    pub fn mul_naive(&self, other: &Self) -> Self {
        if self.values.is_empty() || other.values.is_empty() {
            return Self { values: vec![] };
        }
        let mut out = vec![F::zero(); self.values.len() + other.values.len() - 1];
        for (i, a) in self.values.iter().enumerate() {
            for (j, b) in other.values.iter().enumerate() {
                out[i + j] += *a * *b;
            }
        }
        Self { values: out }
    }
}

impl<F: Field> Add for &Coeffs<F> {
    type Output = Coeffs<F>;
    fn add(self, rhs: Self) -> Coeffs<F> {
        assert_eq!(self.values.len(), rhs.values.len());
        Coeffs {
            values: self
                .values
                .iter()
                .zip(&rhs.values)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl<F: Field> Sub for &Coeffs<F> {
    type Output = Coeffs<F>;
    fn sub(self, rhs: Self) -> Coeffs<F> {
        assert_eq!(self.values.len(), rhs.values.len());
        Coeffs {
            values: self
                .values
                .iter()
                .zip(&rhs.values)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl<F: Field> Index<usize> for Coeffs<F> {
    type Output = F;
    fn index(&self, i: usize) -> &F {
        &self.values[i]
    }
}

impl<F: Field> IndexMut<usize> for Coeffs<F> {
    fn index_mut(&mut self, i: usize) -> &mut F {
        &mut self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::{Fr, PrimeField};

    #[test]
    fn horner_evaluation() {
        // p(x) = 3 + 2x + x^2; p(5) = 3 + 10 + 25 = 38.
        let p = Coeffs::new(vec![Fr::from_u64(3), Fr::from_u64(2), Fr::from_u64(1)]);
        assert_eq!(p.evaluate(Fr::from_u64(5)), Fr::from_u64(38));
    }

    #[test]
    fn kate_division_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = Coeffs::new((0..17).map(|_| Fr::random(&mut rng)).collect());
        let z = Fr::random(&mut rng);
        let v = p.evaluate(z);
        let q = p.kate_divide(z);
        // Check p(X) - v == q(X) * (X - z) at a random point.
        let x = Fr::random(&mut rng);
        assert_eq!(p.evaluate(x) - v, q.evaluate(x) * (x - z));
    }

    #[test]
    fn pointwise_ops() {
        let a = Coeffs::new(vec![Fr::from_u64(1), Fr::from_u64(2)]);
        let b = Coeffs::new(vec![Fr::from_u64(10), Fr::from_u64(20)]);
        assert_eq!((&a + &b).values, vec![Fr::from_u64(11), Fr::from_u64(22)]);
        assert_eq!((&b - &a).values, vec![Fr::from_u64(9), Fr::from_u64(18)]);
    }

    #[test]
    fn mul_naive_degree() {
        let a = Coeffs::new(vec![Fr::from_u64(1), Fr::from_u64(1)]); // 1 + x
        let sq = a.mul_naive(&a); // 1 + 2x + x^2
        assert_eq!(
            sq.values,
            vec![Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(1)]
        );
    }
}
