//! Key generation: preprocessing fixed columns, the permutation, and the
//! Lagrange selector polynomials.

use crate::circuit::{pad_rows, CellRef, ConstraintSystem, Preprocessed};
use crate::expression::Column;
use crate::protocol::delta_powers;
use crate::PlonkError;
use std::sync::atomic::{AtomicUsize, Ordering};
use zkml_curves::G1Affine;
use zkml_ff::{Field, Fr};
use zkml_pcs::Params;
use zkml_poly::{Coeffs, EvaluationDomain};
use zkml_transcript::Blake2b;

/// Count of [`keygen`] invocations in this process, for cache-efficiency
/// assertions (a warm pk cache must show a zero delta).
static KEYGENS: AtomicUsize = AtomicUsize::new(0);

/// Count of [`commit_weights`] invocations in this process: each one
/// interpolates and MSM-commits every weight column, so a service reusing a
/// published commitment must show a zero delta on subsequent proofs.
static WEIGHT_ENCODINGS: AtomicUsize = AtomicUsize::new(0);

/// Total [`keygen`] calls so far in this process.
pub fn keygens() -> usize {
    KEYGENS.load(Ordering::Relaxed)
}

/// Total [`commit_weights`] calls so far in this process.
pub fn weight_encodings() -> usize {
    WEIGHT_ENCODINGS.load(Ordering::Relaxed)
}

/// The verifier's view of a circuit.
#[derive(Clone)]
pub struct VerifyingKey {
    /// log2 of the number of rows.
    pub k: u32,
    /// The constraint system structure.
    pub cs: ConstraintSystem,
    /// Commitments to the fixed columns.
    pub fixed_commitments: Vec<G1Affine>,
    /// Commitments to the permutation sigma polynomials.
    pub sigma_commitments: Vec<G1Affine>,
    /// Digest binding the whole key into transcripts.
    pub digest: [u8; 64],
}

/// Extended-domain context for quotient computation.
///
/// The extended coset `g·⟨ω_ext⟩` of size `n·factor` is the union of the
/// `factor` cosets `g·ω_ext^j·H` of size `n`: extended point `i·factor + j`
/// is point `i` of coset `j`. A rotation by `r` rows stays inside its coset
/// (`i ↦ i + r mod n`) and the vanishing polynomial is one constant on each
/// coset, so the quotient is built one coset at a time. The key's extended
/// tables are coset-major: coset `j` of a column is `[j·n, (j+1)·n)`.
#[derive(Clone)]
pub struct ExtendedDomain {
    /// The base domain (size `n`).
    pub domain: EvaluationDomain<Fr>,
    /// The extended domain (size `n * factor`).
    pub ext: EvaluationDomain<Fr>,
    /// Extension factor (`2^ceil(log2(degree - 1))`).
    pub factor: usize,
    /// Inverses of the vanishing polynomial on each coset.
    pub zh_inv: Vec<Fr>,
    /// Coset `j`'s shift `g·ω_ext^j`: the coset is `shift·H`.
    pub(crate) shifts: Vec<Fr>,
}

impl ExtendedDomain {
    /// Builds the extended domain for degree bound `degree`.
    pub(crate) fn new(k: u32, degree: usize) -> Self {
        let domain = EvaluationDomain::new(k);
        let log_factor = (degree - 1).next_power_of_two().trailing_zeros();
        let ext = EvaluationDomain::<Fr>::new(k + log_factor);
        let factor = 1usize << log_factor;
        let shifts: Vec<Fr> = std::iter::successors(Some(ext.coset_gen), |s| Some(*s * ext.omega))
            .take(factor)
            .collect();
        // Z_H(shift·ω^i) = shift^n·ω^(n·i) − 1 = shift^n − 1 on the whole coset.
        let mut zh_inv: Vec<Fr> = shifts
            .iter()
            .map(|s| s.pow(&[domain.n as u64]) - Fr::one())
            .collect();
        zkml_ff::batch_invert(&mut zh_inv);
        Self {
            domain,
            ext,
            factor,
            zh_inv,
            shifts,
        }
    }

    /// Evaluates a base-domain polynomial (coefficients) on coset `j`: entry
    /// `i` is the polynomial at extended point `i·factor + j`.
    pub(crate) fn coset_evals(&self, coeffs: &[Fr], j: usize) -> Vec<Fr> {
        let mut evals = coeffs.to_vec();
        self.domain.shifted_fft(&mut evals, self.shifts[j]);
        evals
    }

    /// Evaluates a base-domain polynomial on every coset, coset-major.
    fn extend(&self, coeffs: &[Fr]) -> Vec<Fr> {
        let mut out = Vec::with_capacity(self.ext.n);
        for j in 0..self.factor {
            out.extend(self.coset_evals(coeffs, j));
        }
        out
    }

    /// Row `i` of a coset rotated by `rot` rows: the rotation wraps inside
    /// the coset.
    #[inline]
    pub(crate) fn rotated_row(&self, i: usize, rot: i32) -> usize {
        // `n` is a power of two, so masking the wrapped sum reduces it.
        i.wrapping_add_signed(rot as isize) & (self.domain.n - 1)
    }
}

/// The prover's preprocessed data.
pub struct ProvingKey {
    /// The verifying key.
    pub vk: VerifyingKey,
    /// Extended domain context.
    pub domains: ExtendedDomain,
    /// Fixed column values (padded to `n`).
    pub fixed_values: Vec<Vec<Fr>>,
    /// Fixed column polynomials.
    pub fixed_polys: Vec<Coeffs<Fr>>,
    /// Fixed columns on the extended coset, coset-major.
    pub fixed_ext: Vec<Vec<Fr>>,
    /// Permutation sigma values per permutation column.
    pub sigma_values: Vec<Vec<Fr>>,
    /// Sigma polynomials.
    pub sigma_polys: Vec<Coeffs<Fr>>,
    /// Sigma columns on the extended coset, coset-major.
    pub sigma_ext: Vec<Vec<Fr>>,
    /// `l_0` on the extended coset, coset-major.
    pub l0_ext: Vec<Fr>,
    /// `l_last` on the extended coset, coset-major.
    pub l_last_ext: Vec<Fr>,
    /// `l_active = 1 - l_last - l_blind` on the extended coset, coset-major.
    pub l_active_ext: Vec<Fr>,
}

/// The *published* commitment to a model's weight columns: what a verifier
/// needs to check a proof against a specific set of committed weights.
///
/// Computed once per model by [`commit_weights`] and reused across every
/// proof; it is deliberately **not** part of [`VerifyingKey`], so keygen and
/// key size stay independent of the weight values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightCommitment {
    /// log2 of the row count the weight columns were padded to.
    pub k: u32,
    /// One commitment per committed column, in column order.
    pub commitments: Vec<G1Affine>,
    /// Blake2b digest binding `k` and the commitments; this is the model's
    /// published identity, absorbed into every transcript.
    pub digest: [u8; 32],
}

impl WeightCommitment {
    /// Recomputes the digest over `k` and the commitments.
    pub(crate) fn compute_digest(k: u32, commitments: &[G1Affine]) -> [u8; 32] {
        let mut h = Blake2b::new();
        h.update(b"zkml-weight-commitment-v1");
        h.update(&k.to_le_bytes());
        h.update(&(commitments.len() as u64).to_le_bytes());
        for c in commitments {
            h.update(&c.to_bytes());
        }
        let full = h.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&full[..32]);
        out
    }
}

/// The prover's side of a weight commitment: the committed column values,
/// their coefficient forms, and their extended-coset evaluations — everything
/// the prover needs so that proving does **zero** weight interpolation or
/// commitment work per proof.
#[derive(Clone)]
pub struct CommittedWeights {
    /// Committed column values padded to the domain (column-major).
    pub values: Vec<Vec<Fr>>,
    /// Coefficient forms of the committed columns.
    pub polys: Vec<Coeffs<Fr>>,
    /// Committed columns on the extended coset, coset-major.
    pub ext: Vec<Vec<Fr>>,
    /// Copy of the published digest, for transcript absorption.
    pub digest: [u8; 32],
}

impl CommittedWeights {
    /// An empty placeholder for circuits with no committed columns.
    pub fn empty() -> Self {
        CommittedWeights {
            values: Vec::new(),
            polys: Vec::new(),
            ext: Vec::new(),
            digest: [0u8; 32],
        }
    }
}

/// Commits to a circuit's weight columns, producing the published
/// [`WeightCommitment`] and the prover-side [`CommittedWeights`].
///
/// This is the once-per-model cost of the commit-and-prove flow: each column
/// is padded to the domain (zero padding — commitments are deterministic;
/// weight *hiding* is explicitly not a goal, the model is published),
/// interpolated, committed, and extended onto the quotient coset.
pub fn commit_weights(
    params: &Params,
    cs: &ConstraintSystem,
    committed: &[Vec<Fr>],
    k: u32,
) -> Result<(WeightCommitment, CommittedWeights), PlonkError> {
    if k > params.k() {
        return Err(PlonkError::Synthesis(format!(
            "circuit k={k} exceeds params k={}",
            params.k()
        )));
    }
    if committed.len() != cs.num_committed {
        return Err(PlonkError::Synthesis(format!(
            "expected {} committed columns, got {}",
            cs.num_committed,
            committed.len()
        )));
    }
    WEIGHT_ENCODINGS.fetch_add(1, Ordering::Relaxed);
    let domains = ExtendedDomain::new(k, cs.degree());
    let n = domains.domain.n;
    let mut values = Vec::with_capacity(committed.len());
    for col in committed {
        if col.len() > n {
            return Err(PlonkError::Synthesis(format!(
                "committed column has {} rows but n = {n}",
                col.len()
            )));
        }
        let mut v = col.clone();
        pad_rows(&mut v, n);
        values.push(v);
    }
    let (polys, ext) = interpolate_columns(&domains, &values);
    let commitments: Vec<G1Affine> =
        zkml_par::par_map(values.len(), |i| params.commit_lagrange(&values[i]));
    let digest = WeightCommitment::compute_digest(k, &commitments);
    Ok((
        WeightCommitment {
            k,
            commitments,
            digest,
        },
        CommittedWeights {
            values,
            polys,
            ext,
            digest,
        },
    ))
}

/// Interpolates column values into coefficient form and evaluates each
/// polynomial over the extended coset, coset-major.
fn interpolate_columns(
    domains: &ExtendedDomain,
    values: &[Vec<Fr>],
) -> (Vec<Coeffs<Fr>>, Vec<Vec<Fr>>) {
    let polys: Vec<Coeffs<Fr>> = zkml_par::par_map(values.len(), |i| {
        let mut c = values[i].clone();
        domains.domain.ifft(&mut c);
        Coeffs::new(c)
    });
    let ext = zkml_par::par_map(polys.len(), |i| domains.extend(&polys[i].values));
    (polys, ext)
}

/// Computes the `l_0`, `l_last`, and `l_active` selector polynomials on the
/// extended coset, coset-major.
fn lagrange_selectors(
    domains: &ExtendedDomain,
    cs: &ConstraintSystem,
) -> (Vec<Fr>, Vec<Fr>, Vec<Fr>) {
    let n = domains.domain.n;
    let usable = cs.usable_rows(n);
    let indicator = |rows: &dyn Fn(usize) -> bool| -> Vec<Fr> {
        let mut evals: Vec<Fr> = (0..n)
            .map(|i| if rows(i) { Fr::one() } else { Fr::zero() })
            .collect();
        domains.domain.ifft(&mut evals);
        domains.extend(&evals)
    };
    (
        indicator(&|i| i == 0),
        indicator(&|i| i == usable),
        indicator(&|i| i < usable),
    )
}

impl ProvingKey {
    /// Rebuilds a proving key from its persistent core: the verifying key
    /// plus the fixed and sigma column *values*. Everything else in the key
    /// (coefficient forms, coset extensions, Lagrange selectors) is derived
    /// data and is recomputed here, which keeps the serialized form small.
    pub(crate) fn from_parts(
        vk: VerifyingKey,
        fixed_values: Vec<Vec<Fr>>,
        sigma_values: Vec<Vec<Fr>>,
    ) -> Result<ProvingKey, PlonkError> {
        let domains = ExtendedDomain::new(vk.k, vk.cs.degree());
        let n = domains.domain.n;
        if fixed_values.len() != vk.cs.num_fixed {
            return Err(PlonkError::Synthesis(format!(
                "expected {} fixed columns, got {}",
                vk.cs.num_fixed,
                fixed_values.len()
            )));
        }
        if sigma_values.len() != vk.cs.permutation_columns.len() {
            return Err(PlonkError::Synthesis(format!(
                "expected {} sigma columns, got {}",
                vk.cs.permutation_columns.len(),
                sigma_values.len()
            )));
        }
        for col in fixed_values.iter().chain(sigma_values.iter()) {
            if col.len() != n {
                return Err(PlonkError::Synthesis(format!(
                    "column has {} rows but n = {n}",
                    col.len()
                )));
            }
        }
        let (fixed_polys, fixed_ext) = interpolate_columns(&domains, &fixed_values);
        let (sigma_polys, sigma_ext) = interpolate_columns(&domains, &sigma_values);
        let (l0_ext, l_last_ext, l_active_ext) = lagrange_selectors(&domains, &vk.cs);
        Ok(ProvingKey {
            vk,
            domains,
            fixed_values,
            fixed_polys,
            fixed_ext,
            sigma_values,
            sigma_polys,
            sigma_ext,
            l0_ext,
            l_last_ext,
            l_active_ext,
        })
    }
}

/// Builds the permutation mapping from copy constraints using the PLONK
/// cycle-merging construction.
pub(crate) fn build_permutation(
    cs: &ConstraintSystem,
    copies: &[(CellRef, CellRef)],
    n: usize,
) -> Result<Vec<Vec<(usize, usize)>>, PlonkError> {
    let columns = &cs.permutation_columns;
    let col_index = |c: Column| -> Result<usize, PlonkError> {
        columns
            .iter()
            .position(|pc| *pc == c)
            .ok_or_else(|| PlonkError::Synthesis(format!("column {c:?} not equality-enabled")))
    };
    let usable = cs.usable_rows(n);

    // mapping[c][i] = sigma(c, i); starts as the identity.
    let mut mapping: Vec<Vec<(usize, usize)>> = (0..columns.len())
        .map(|c| (0..n).map(|i| (c, i)).collect())
        .collect();
    // aux: cycle representative; sizes: cycle sizes at representatives.
    let mut aux: Vec<Vec<(usize, usize)>> = mapping.clone();
    let mut sizes: Vec<Vec<usize>> = (0..columns.len()).map(|_| vec![1usize; n]).collect();

    for (a, b) in copies {
        if a.row >= usable || b.row >= usable {
            return Err(PlonkError::Synthesis(format!(
                "copy constraint touches non-usable row ({} or {}, usable {})",
                a.row, b.row, usable
            )));
        }
        let ca = col_index(a.column)?;
        let cb = col_index(b.column)?;
        let mut left = (ca, a.row);
        let mut right = (cb, b.row);
        if aux[left.0][left.1] == aux[right.0][right.1] {
            continue; // already in the same cycle
        }
        // Merge the smaller cycle into the larger.
        if sizes[aux[left.0][left.1].0][aux[left.0][left.1].1]
            < sizes[aux[right.0][right.1].0][aux[right.0][right.1].1]
        {
            std::mem::swap(&mut left, &mut right);
        }
        let l_rep = aux[left.0][left.1];
        let r_rep = aux[right.0][right.1];
        sizes[l_rep.0][l_rep.1] += sizes[r_rep.0][r_rep.1];
        // Relabel the right cycle.
        let mut cur = right;
        loop {
            aux[cur.0][cur.1] = l_rep;
            cur = mapping[cur.0][cur.1];
            if cur == right {
                break;
            }
        }
        // Splice the cycles.
        let tmp = mapping[left.0][left.1];
        mapping[left.0][left.1] = mapping[right.0][right.1];
        mapping[right.0][right.1] = tmp;
    }
    Ok(mapping)
}

/// Generates proving and verifying keys.
pub fn keygen(
    params: &Params,
    cs: &ConstraintSystem,
    pre: &Preprocessed,
    k: u32,
) -> Result<ProvingKey, PlonkError> {
    if k > params.k() {
        return Err(PlonkError::Synthesis(format!(
            "circuit k={k} exceeds params k={}",
            params.k()
        )));
    }
    let degree = cs.degree();
    let domains = ExtendedDomain::new(k, degree);
    let n = domains.domain.n;
    if pre.fixed.len() != cs.num_fixed {
        return Err(PlonkError::Synthesis(format!(
            "expected {} fixed columns, got {}",
            cs.num_fixed,
            pre.fixed.len()
        )));
    }
    // Committed (weight) columns are validated for arity but deliberately
    // not processed here: they are committed once per model by
    // [`commit_weights`], keeping keygen cost and key size weight-free.
    if !pre.committed.is_empty() && pre.committed.len() != cs.num_committed {
        return Err(PlonkError::Synthesis(format!(
            "expected {} committed columns, got {}",
            cs.num_committed,
            pre.committed.len()
        )));
    }
    KEYGENS.fetch_add(1, Ordering::Relaxed);

    // Fixed columns.
    let mut fixed_values = Vec::with_capacity(cs.num_fixed);
    for col in &pre.fixed {
        if col.len() > n {
            return Err(PlonkError::Synthesis(format!(
                "fixed column has {} rows but n = {n}",
                col.len()
            )));
        }
        let mut v = col.clone();
        pad_rows(&mut v, n);
        fixed_values.push(v);
    }
    // The fixed-column pipeline and the permutation pipeline are
    // independent; run them as the two arms of a join. Within each arm,
    // interpolation and commitments fan out per column.
    let (fixed_out, sigma_out) = zkml_par::join(
        || {
            let (fixed_polys, fixed_ext) = interpolate_columns(&domains, &fixed_values);
            let fixed_commitments: Vec<G1Affine> = zkml_par::par_map(fixed_values.len(), |i| {
                params.commit_lagrange(&fixed_values[i])
            });
            (fixed_polys, fixed_ext, fixed_commitments)
        },
        || {
            let mapping = build_permutation(cs, &pre.copies, n)?;
            let omega_powers: Vec<Fr> = domains.domain.elements();
            let delta_powers = delta_powers(cs.permutation_columns.len());
            let sigma_values: Vec<Vec<Fr>> = zkml_par::par_map(mapping.len(), |m| {
                mapping[m]
                    .iter()
                    .map(|(c, i)| delta_powers[*c] * omega_powers[*i])
                    .collect()
            });
            let (sigma_polys, sigma_ext) = interpolate_columns(&domains, &sigma_values);
            let sigma_commitments: Vec<G1Affine> = zkml_par::par_map(sigma_values.len(), |i| {
                params.commit_lagrange(&sigma_values[i])
            });
            Ok::<_, PlonkError>((sigma_values, sigma_polys, sigma_ext, sigma_commitments))
        },
    );
    let (fixed_polys, fixed_ext, fixed_commitments) = fixed_out;
    let (sigma_values, sigma_polys, sigma_ext, sigma_commitments) = sigma_out?;

    // Lagrange selectors.
    let (l0_ext, l_last_ext, l_active_ext) = lagrange_selectors(&domains, cs);

    // Key digest.
    let mut hasher = Blake2b::new();
    hasher.update(b"zkml-plonk-vk");
    hasher.update(&k.to_le_bytes());
    hasher.update(&(cs.num_instance as u64).to_le_bytes());
    hasher.update(&(cs.num_advice as u64).to_le_bytes());
    hasher.update(&(cs.num_fixed as u64).to_le_bytes());
    hasher.update(&(cs.num_committed as u64).to_le_bytes());
    hasher.update(&(cs.gates.len() as u64).to_le_bytes());
    hasher.update(&(cs.lookups.len() as u64).to_le_bytes());
    for c in fixed_commitments.iter().chain(sigma_commitments.iter()) {
        hasher.update(&c.to_bytes());
    }
    let digest = hasher.finalize();

    let vk = VerifyingKey {
        k,
        cs: cs.clone(),
        fixed_commitments,
        sigma_commitments,
        digest,
    };

    Ok(ProvingKey {
        vk,
        domains,
        fixed_values,
        fixed_polys,
        fixed_ext,
        sigma_values,
        sigma_polys,
        sigma_ext,
        l0_ext,
        l_last_ext,
        l_active_ext,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::Column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn permutation_identity_without_copies() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        cs.enable_equality(Column::Advice(a));
        let mapping = build_permutation(&cs, &[], 16).unwrap();
        for (i, m) in mapping[0].iter().enumerate() {
            assert_eq!(*m, (0, i));
        }
    }

    #[test]
    fn permutation_cycles_merge() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        let b = cs.advice_column(0);
        cs.enable_equality(Column::Advice(a));
        cs.enable_equality(Column::Advice(b));
        let cell = |c: usize, row: usize| CellRef {
            column: Column::Advice(c),
            row,
        };
        // (a,0) ~ (b,3) ~ (a,5): one 3-cycle.
        let copies = vec![(cell(0, 0), cell(1, 3)), (cell(1, 3), cell(0, 5))];
        let mapping = build_permutation(&cs, &copies, 16).unwrap();
        // Follow the cycle from (0,0): must visit all three cells and return.
        let mut seen = vec![(0usize, 0usize)];
        let mut cur = mapping[0][0];
        while cur != (0, 0) {
            seen.push(cur);
            cur = mapping[cur.0][cur.1];
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0), (0, 5), (1, 3)]);
        // Unrelated cells remain fixed points.
        assert_eq!(mapping[0][1], (0, 1));
    }

    #[test]
    fn duplicate_copy_is_idempotent() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        cs.enable_equality(Column::Advice(a));
        let cell = |row: usize| CellRef {
            column: Column::Advice(0),
            row,
        };
        let copies = vec![(cell(0), cell(1)), (cell(0), cell(1)), (cell(1), cell(0))];
        let mapping = build_permutation(&cs, &copies, 16).unwrap();
        // 2-cycle between rows 0 and 1.
        assert_eq!(mapping[0][0], (0, 1));
        assert_eq!(mapping[0][1], (0, 0));
        let _ = a;
    }

    #[test]
    fn copy_on_blinding_row_rejected() {
        let mut cs = ConstraintSystem::new();
        let a = cs.advice_column(0);
        cs.enable_equality(Column::Advice(a));
        let cell = |row: usize| CellRef {
            column: Column::Advice(0),
            row,
        };
        let copies = vec![(cell(0), cell(15))]; // row 15 of 16 is blinding
        assert!(build_permutation(&cs, &copies, 16).is_err());
    }

    #[test]
    fn extended_domain_vanishing_inverses() {
        let ed = ExtendedDomain::new(4, 5);
        assert_eq!(ed.factor, 4);
        // zh_inv[i mod factor] * Z_H(coset point i) == 1 for a few sample points.
        for i in [0usize, 1, 5, 17] {
            let pt = ed.ext.coset_gen * ed.ext.omega.pow(&[i as u64]);
            let zh = pt.pow(&[ed.domain.n as u64]) - Fr::one();
            assert_eq!(zh * ed.zh_inv[i % ed.factor], Fr::one());
        }
    }

    fn random_coeffs(n: usize, rng: &mut StdRng) -> Vec<Fr> {
        (0..n).map(|_| Fr::random(&mut *rng)).collect()
    }

    /// Horner evaluation of `coeffs` at `x`.
    fn horner(coeffs: &[Fr], x: Fr) -> Fr {
        coeffs.iter().rev().fold(Fr::zero(), |acc, c| acc * x + *c)
    }

    /// Coset `j`'s point `i` is extended point `i·factor + j`: the size-`n`
    /// transform reproduces the size-`n·factor` coset FFT entry for entry.
    #[test]
    fn coset_evals_match_the_extended_coset_fft() {
        let mut rng = StdRng::seed_from_u64(12);
        for k in 3..=6u32 {
            // Degree 3 extends by 2, degree 5 by 4.
            for (degree, factor) in [(3, 2), (5, 4)] {
                let ed = ExtendedDomain::new(k, degree);
                assert_eq!(ed.factor, factor);
                let coeffs = random_coeffs(ed.domain.n, &mut rng);
                let mut whole = coeffs.clone();
                whole.resize(ed.ext.n, Fr::zero());
                ed.ext.coset_fft(&mut whole);
                for j in 0..factor {
                    let coset = ed.coset_evals(&coeffs, j);
                    assert_eq!(coset.len(), ed.domain.n);
                    for (i, v) in coset.iter().enumerate() {
                        assert_eq!(
                            *v,
                            whole[i * factor + j],
                            "k={k} factor={factor} j={j} i={i}"
                        );
                    }
                }
                // The key's layout: coset j is the slice [j·n, (j+1)·n).
                let major = ed.extend(&coeffs);
                for (j, slice) in major.chunks(ed.domain.n).enumerate() {
                    assert_eq!(slice, ed.coset_evals(&coeffs, j).as_slice());
                }
            }
        }
    }

    /// A rotation by `r` rows moves point `x` of a coset to `x·ω^r`, which
    /// is the same coset's row `i + r mod n`.
    #[test]
    fn rotation_wraps_inside_a_coset() {
        let ed = ExtendedDomain::new(3, 3);
        let n = ed.domain.n;
        assert_eq!((n, ed.factor), (8, 2));
        assert_eq!(ed.rotated_row(0, 1), 1);
        assert_eq!(ed.rotated_row(0, -1), 7);
        assert_eq!(ed.rotated_row(7, 1), 0);
        assert_eq!(ed.rotated_row(2, 13), 7);
        let mut rng = StdRng::seed_from_u64(13);
        let coeffs = random_coeffs(n, &mut rng);
        for j in 0..ed.factor {
            let coset = ed.coset_evals(&coeffs, j);
            for i in 0..n {
                let x = ed.shifts[j] * ed.domain.omega.pow(&[i as u64]);
                for rot in [-3, -1, 0, 1, 5, 13] {
                    let want = horner(&coeffs, ed.domain.rotate(x, rot));
                    assert_eq!(coset[ed.rotated_row(i, rot)], want, "j={j} i={i} rot={rot}");
                }
            }
        }
    }
}
