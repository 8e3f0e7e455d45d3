//! Proof creation.

use crate::circuit::{pad_rows, WitnessSource};
use crate::expression::Column;
use crate::keygen::{CommittedWeights, ExtendedDomain, ProvingKey};
use crate::protocol::{compress, opening_plan, Argument, Challenges, Lagrange, Point, PolyId};
use crate::PlonkError;
use rand::RngCore;
use std::collections::BTreeMap;
use zkml_ff::{batch_invert, Field, Fr, PrimeField};
use zkml_pcs::{Params, Writer};
use zkml_poly::Coeffs;
use zkml_transcript::Transcript;

/// Minimum rows per parallel task in the row-indexed loops below.
const ROW_CHUNK: usize = 1024;
/// Minimum rows per parallel task of the quotient fold: each row folds
/// every identity, so far fewer rows than `ROW_CHUNK` fill a task.
const FOLD_ROWS: usize = 64;

/// Fills `out[0] = seed`, `out[i+1] = out[i] * factors[i]` with a parallel
/// chunk-product scan: per-chunk products in parallel, a serial exclusive
/// prefix over the (few) chunk products, then a parallel fill seeded by the
/// prefix. Field multiplication is exact and associative, so the result is
/// bit-identical to the serial running product at any thread count.
fn scan_products(seed: Fr, factors: &[Fr], out: &mut [Fr]) {
    let m = factors.len();
    debug_assert!(out.len() > m);
    out[0] = seed;
    if m == 0 {
        return;
    }
    let nchunks = m.div_ceil(ROW_CHUNK);
    let prods = zkml_par::par_map(nchunks, |c| {
        factors[c * ROW_CHUNK..((c + 1) * ROW_CHUNK).min(m)]
            .iter()
            .fold(Fr::one(), |acc, f| acc * *f)
    });
    let mut prefix = Vec::with_capacity(nchunks);
    let mut acc = seed;
    for p in &prods {
        prefix.push(acc);
        acc *= *p;
    }
    zkml_par::for_each_chunk_exact(&mut out[1..=m], ROW_CHUNK, |c, start, slice| {
        let mut acc = prefix[c];
        for (i, slot) in slice.iter_mut().enumerate() {
            acc *= factors[start + i];
            *slot = acc;
        }
    });
}

/// Overwrites the blinding rows with fresh randomness.
fn blind(rows: &mut [Fr], rng: &mut impl RngCore) {
    for v in rows {
        *v = Fr::random(&mut *rng);
    }
}

/// One coset `g·ω_ext^j·H` of the extended domain: the prover's
/// polynomials evaluated on its `n` points, beside the key's tables for it.
struct Coset<'a> {
    domains: &'a ExtendedDomain,
    fixed: Vec<&'a [Fr]>,
    committed: Vec<&'a [Fr]>,
    sigma: Vec<&'a [Fr]>,
    /// `l_0`, `l_last` and `l_active`, in [`Lagrange`] order.
    lagrange: [&'a [Fr]; 3],
    instance: Vec<Vec<Fr>>,
    advice: Vec<Vec<Fr>>,
    perm_z: Vec<Vec<Fr>>,
    lookup_a: Vec<Vec<Fr>>,
    lookup_s: Vec<Vec<Fr>>,
    lookup_z: Vec<Vec<Fr>>,
    /// The coset points themselves.
    x: Vec<Fr>,
}

impl<'a> Coset<'a> {
    /// Extends `polys` (instance, advice, permutation `z`, lookup a′, s′ and
    /// `z`, in that order) to coset `j`; `omega_powers` are the base
    /// domain's elements.
    fn new(
        pk: &'a ProvingKey,
        weights: &'a CommittedWeights,
        j: usize,
        polys: [&[Coeffs<Fr>]; 6],
        omega_powers: &[Fr],
    ) -> Self {
        let domains = &pk.domains;
        let n = domains.domain.n;
        let key = |table: &'a Vec<Fr>| &table[j * n..(j + 1) * n];
        let columns: Vec<&Coeffs<Fr>> = polys.iter().flat_map(|family| family.iter()).collect();
        let mut evals = zkml_par::par_map(columns.len(), |c| {
            domains.coset_evals(&columns[c].values, j)
        })
        .into_iter();
        let [instance, advice, perm_z, lookup_a, lookup_s, lookup_z] =
            polys.map(|family| evals.by_ref().take(family.len()).collect());
        let shift = domains.shifts[j];
        Coset {
            domains,
            fixed: pk.fixed_ext.iter().map(key).collect(),
            committed: weights.ext.iter().map(key).collect(),
            sigma: pk.sigma_ext.iter().map(key).collect(),
            lagrange: [&pk.l0_ext, &pk.l_last_ext, &pk.l_active_ext].map(key),
            instance,
            advice,
            perm_z,
            lookup_a,
            lookup_s,
            lookup_z,
            x: omega_powers.iter().map(|w| shift * *w).collect(),
        }
    }
}

/// Point `i` of a coset.
impl Point for (&Coset<'_>, usize) {
    fn poly(&self, id: PolyId, rotation: i32) -> Fr {
        let (t, i) = *self;
        let values: &[Fr] = match id {
            PolyId::Advice(c) => &t.advice[c],
            PolyId::Fixed(c) => t.fixed[c],
            PolyId::Committed(c) => t.committed[c],
            PolyId::Sigma(c) => t.sigma[c],
            PolyId::PermZ(c) => &t.perm_z[c],
            PolyId::LookupA(c) => &t.lookup_a[c],
            PolyId::LookupS(c) => &t.lookup_s[c],
            PolyId::LookupZ(c) => &t.lookup_z[c],
            PolyId::Quotient(_) => unreachable!("no identity reads the quotient"),
        };
        values[t.domains.rotated_row(i, rotation)]
    }

    fn instance(&self, column: usize, rotation: i32) -> Fr {
        let (t, i) = *self;
        t.instance[column][t.domains.rotated_row(i, rotation)]
    }

    fn lagrange(&self, which: Lagrange) -> Fr {
        let (t, i) = *self;
        t.lagrange[which as usize][i]
    }

    fn x(&self) -> Fr {
        self.0.x[self.1]
    }
}

/// Creates a proof — the one prover — optionally bound to a context string
/// and to committed (weight) columns.
///
/// `binding` is absorbed into the Fiat–Shamir transcript right after the
/// verifying-key and weight digests, so the proof only verifies against the
/// same bytes (see [`crate::verify_proof_committed`]). Segmented proving uses
/// this to pin each segment proof to its chain digest and position, making
/// segments non-interchangeable across bundles. An empty binding absorbs
/// nothing.
///
/// `weights` is the prover side of a [`crate::keygen::WeightCommitment`]
/// produced once per model by [`crate::keygen::commit_weights`]
/// ([`CommittedWeights::empty`] for a circuit with no committed columns);
/// its digest is absorbed into the transcript right after the verifying-key
/// digest, so the proof verifies only against that exact published
/// commitment. No weight interpolation or commitment work happens here — the
/// per-proof weight cost is a handful of polynomial evaluations.
pub fn create_proof_committed(
    params: &Params,
    pk: &ProvingKey,
    witness: &dyn WitnessSource,
    rng: &mut impl RngCore,
    binding: &[u8],
    weights: &CommittedWeights,
) -> Result<Vec<u8>, PlonkError> {
    let cs = &pk.vk.cs;
    let domain = &pk.domains.domain;
    let n = domain.n;
    let usable = cs.usable_rows(n);
    if weights.values.len() != cs.num_committed {
        return Err(PlonkError::Synthesis(format!(
            "expected {} committed columns, got {}",
            cs.num_committed,
            weights.values.len()
        )));
    }
    for col in &weights.values {
        if col.len() != n {
            return Err(PlonkError::Synthesis(format!(
                "committed column has {} rows but n = {n}",
                col.len()
            )));
        }
    }
    let mut transcript = Transcript::new(b"zkml-plonk");
    transcript.absorb(b"vk", &pk.vk.digest);
    if cs.num_committed > 0 {
        transcript.absorb(b"weights", &weights.digest);
    }
    if !binding.is_empty() {
        transcript.absorb(b"bind", binding);
    }
    let mut proof = Writer::new();

    // --- Instance columns ------------------------------------------------
    let mut instance = witness.instance();
    if instance.len() != cs.num_instance {
        return Err(PlonkError::Synthesis(format!(
            "expected {} instance columns, got {}",
            cs.num_instance,
            instance.len()
        )));
    }
    for col in instance.iter_mut() {
        if col.len() > usable {
            return Err(PlonkError::Synthesis(
                "instance column exceeds usable rows".into(),
            ));
        }
        pad_rows(col, n);
        let mut bytes = Vec::with_capacity(col.len() * 32);
        for v in col.iter() {
            bytes.extend_from_slice(&v.to_bytes());
        }
        transcript.absorb(b"instance", &bytes);
    }
    let interpolate = |values: &[Fr]| {
        let mut coeffs = values.to_vec();
        domain.ifft(&mut coeffs);
        Coeffs::new(coeffs)
    };
    let instance_polys: Vec<Coeffs<Fr>> =
        zkml_par::par_map(instance.len(), |c| interpolate(&instance[c]));

    // --- Advice columns (two phases) --------------------------------------
    let mut advice_values: Vec<Option<Vec<Fr>>> = vec![None; cs.num_advice];
    let mut advice_polys: Vec<Option<Coeffs<Fr>>> = vec![None; cs.num_advice];
    let mut challenges: Vec<Fr> = Vec::new();

    let phases: &[u8] = if cs.num_challenges > 0 { &[0, 1] } else { &[0] };
    for &phase in phases {
        for (idx, mut vals) in witness.advice(phase, &challenges) {
            if idx >= cs.num_advice || cs.advice_phase[idx] != phase {
                return Err(PlonkError::Synthesis(format!(
                    "advice column {idx} not in phase {phase}"
                )));
            }
            if vals.len() > usable {
                return Err(PlonkError::Synthesis(format!(
                    "advice column {idx} has {} rows, usable is {usable}",
                    vals.len()
                )));
            }
            pad_rows(&mut vals, n);
            blind(&mut vals[usable + 1..], rng);
            advice_values[idx] = Some(vals);
        }
        // Commit this phase's columns in column order.
        for c in 0..cs.num_advice {
            if cs.advice_phase[c] != phase {
                continue;
            }
            let vals = advice_values[c].as_ref().ok_or_else(|| {
                PlonkError::Synthesis(format!("advice column {c} missing in phase {phase}"))
            })?;
            // Committed from the values, not the coefficients: phase-0
            // witness values are small fixed-point integers, and the MSM is
            // charged for their width.
            let com = params.commit_lagrange(vals);
            transcript.absorb(b"advice", &com.to_bytes());
            proof.g1(&com);
            advice_polys[c] = Some(interpolate(vals));
        }
        if phase == 0 {
            for _ in 0..cs.num_challenges {
                challenges.push(transcript.challenge(b"phase-challenge"));
            }
        }
    }
    let advice_values: Vec<Vec<Fr>> = advice_values
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| PlonkError::Synthesis("missing advice column".into()))?;
    let advice_polys: Vec<Coeffs<Fr>> = advice_polys
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .expect("advice polys follow values");

    // --- Lookup permuted columns ------------------------------------------
    let theta: Fr = transcript.challenge(b"theta");
    let compress_rows = |exprs, i| {
        compress(exprs, theta, |e| {
            e.evaluate_on_grid(
                i,
                n,
                &instance,
                &advice_values,
                &pk.fixed_values,
                &challenges,
            )
        })
    };

    struct LookupWitness {
        a_compressed: Vec<Fr>,
        t_compressed: Vec<Fr>,
        a_permuted: Vec<Fr>,
        s_permuted: Vec<Fr>,
    }

    let mut lookups = Vec::with_capacity(cs.lookups.len());
    for lk in &cs.lookups {
        let a_compressed: Vec<Fr> = zkml_par::par_map(n, |i| compress_rows(&lk.inputs, i));
        let t_compressed: Vec<Fr> = zkml_par::par_map(n, |i| compress_rows(&lk.table, i));

        // Sort the active-row inputs; lay the table out so each first
        // occurrence matches, filling repeats with leftover table values.
        let mut a_sorted = a_compressed[..usable].to_vec();
        a_sorted.sort_unstable();
        let mut t_counts: BTreeMap<Fr, usize> = BTreeMap::new();
        for t in &t_compressed[..usable] {
            *t_counts.entry(*t).or_insert(0) += 1;
        }
        let mut s_permuted = vec![None; usable];
        for i in 0..usable {
            if i == 0 || a_sorted[i] != a_sorted[i - 1] {
                let cnt = t_counts.get_mut(&a_sorted[i]).ok_or_else(|| {
                    PlonkError::Synthesis(format!(
                        "lookup '{}': input value not present in table",
                        lk.name
                    ))
                })?;
                // Each distinct input takes one copy; the rest are leftovers.
                *cnt -= 1;
                s_permuted[i] = Some(a_sorted[i]);
            }
        }
        let mut leftovers = t_counts
            .into_iter()
            .flat_map(|(v, c)| std::iter::repeat_n(v, c));
        let mut s_permuted: Vec<Fr> = s_permuted
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| leftovers.next().expect("table and input row counts match"))
            })
            .collect();

        pad_rows(&mut a_sorted, n);
        pad_rows(&mut s_permuted, n);
        blind(&mut a_sorted[usable..], rng);
        blind(&mut s_permuted[usable..], rng);
        let a_com = params.commit_lagrange(&a_sorted);
        let s_com = params.commit_lagrange(&s_permuted);
        transcript.absorb(b"lookup-a", &a_com.to_bytes());
        transcript.absorb(b"lookup-s", &s_com.to_bytes());
        proof.g1(&a_com);
        proof.g1(&s_com);
        lookups.push(LookupWitness {
            a_compressed,
            t_compressed,
            a_permuted: a_sorted,
            s_permuted,
        });
    }

    let beta: Fr = transcript.challenge(b"beta");
    let gamma: Fr = transcript.challenge(b"gamma");
    let ch = Challenges {
        phase: &challenges,
        theta,
        beta,
        gamma,
    };
    let argument = Argument::new(cs, usable);

    // --- Permutation grand products ----------------------------------------
    let perm_col_value = |col: Column, i: usize| -> Fr {
        match col {
            Column::Instance(c) => instance[c][i],
            Column::Advice(c) => advice_values[c][i],
            Column::Fixed(c) => pk.fixed_values[c][i],
            Column::Committed(c) => weights.values[c][i],
        }
    };
    let omega_powers = domain.elements();
    let mut perm_z_polys: Vec<Coeffs<Fr>> = Vec::new();
    let mut carry = Fr::one();
    for chunk in 0..cs.permutation_z_count() {
        let nd: Vec<(Fr, Fr)> = zkml_par::par_map(usable, |i| {
            argument.permutation_factors(
                chunk,
                &ch,
                omega_powers[i],
                |col| perm_col_value(col, i),
                |j| pk.sigma_values[j][i],
            )
        });
        let (num, mut den): (Vec<Fr>, Vec<Fr>) = nd.into_iter().unzip();
        // Chunked batch inversion: every element's inverse is exact, so the
        // chunking cannot change any value.
        zkml_par::par_chunks_mut(&mut den, ROW_CHUNK, |_, _, chunk| batch_invert(chunk));
        let factors: Vec<Fr> = zkml_par::par_map(usable, |i| num[i] * den[i]);
        let mut z = vec![Fr::zero(); n];
        scan_products(carry, &factors, &mut z);
        carry = z[usable];
        blind(&mut z[usable + 1..], rng);
        let com = params.commit_lagrange(&z);
        domain.ifft(&mut z);
        transcript.absorb(b"perm-z", &com.to_bytes());
        proof.g1(&com);
        perm_z_polys.push(Coeffs::new(z));
    }
    if carry != Fr::one() {
        return Err(PlonkError::Synthesis(
            "copy constraints unsatisfied (permutation product != 1)".into(),
        ));
    }

    // --- Lookup grand products ---------------------------------------------
    let mut lookup_z_polys: Vec<Coeffs<Fr>> = Vec::new();
    for (lk, w) in cs.lookups.iter().zip(&lookups) {
        let mut den: Vec<Fr> = zkml_par::par_map(usable, |i| {
            ch.lookup_factor(w.a_permuted[i], w.s_permuted[i])
        });
        zkml_par::par_chunks_mut(&mut den, ROW_CHUNK, |_, _, chunk| batch_invert(chunk));
        let factors: Vec<Fr> = zkml_par::par_map(usable, |i| {
            ch.lookup_factor(w.a_compressed[i], w.t_compressed[i]) * den[i]
        });
        let mut z = vec![Fr::zero(); n];
        scan_products(Fr::one(), &factors, &mut z);
        if z[usable] != Fr::one() {
            return Err(PlonkError::Synthesis(format!(
                "lookup '{}' unsatisfied (product != 1)",
                lk.name
            )));
        }
        blind(&mut z[usable + 1..], rng);
        let com = params.commit_lagrange(&z);
        domain.ifft(&mut z);
        transcript.absorb(b"lookup-z", &com.to_bytes());
        proof.g1(&com);
        lookup_z_polys.push(Coeffs::new(z));
    }
    // The row vectors are dead from here on: release them before the
    // quotient's coset extensions, which are the proof's memory peak.
    drop(instance);
    drop(advice_values);
    let (lookup_a_polys, lookup_s_polys): (Vec<Coeffs<Fr>>, Vec<Coeffs<Fr>>) = lookups
        .into_iter()
        .map(|w| (interpolate(&w.a_permuted), interpolate(&w.s_permuted)))
        .unzip();

    let y: Fr = transcript.challenge(b"y");

    // --- Quotient ----------------------------------------------------------
    // One coset of the extended domain at a time: extend every polynomial
    // to the coset's n points, fold the identities there, scatter the folds
    // (divided by the vanishing polynomial, one constant per coset) into
    // `combined`, and drop the coset's tables before the next one.
    let ext = &pk.domains;
    let mut combined = vec![Fr::zero(); ext.ext.n];
    let mut folded = vec![Fr::zero(); n];
    for j in 0..ext.factor {
        let coset = Coset::new(
            pk,
            weights,
            j,
            [
                &instance_polys,
                &advice_polys,
                &perm_z_polys,
                &lookup_a_polys,
                &lookup_s_polys,
                &lookup_z_polys,
            ],
            &omega_powers,
        );
        zkml_par::par_chunks_mut(&mut folded, FOLD_ROWS, |_, start, rows| {
            argument.fold_rows(rows, |i| (&coset, start + i), &ch, y);
        });
        for (i, v) in folded.iter().enumerate() {
            combined[i * ext.factor + j] = *v * ext.zh_inv[j];
        }
    }
    drop(folded);
    ext.ext.coset_ifft(&mut combined);
    let quotient_polys: Vec<Coeffs<Fr>> = combined
        .chunks(n)
        .map(|piece| Coeffs::new(piece.to_vec()))
        .collect();
    drop(combined);
    for piece in &quotient_polys {
        let com = params.commit(piece);
        transcript.absorb(b"quotient", &com.to_bytes());
        proof.g1(&com);
    }

    let x: Fr = transcript.challenge(b"x");

    // --- Evaluations ---------------------------------------------------------
    let plan = opening_plan(cs, usable, ext.factor);
    let poly_for = |id: PolyId| -> &Coeffs<Fr> {
        match id {
            PolyId::Advice(i) => &advice_polys[i],
            PolyId::Fixed(i) => &pk.fixed_polys[i],
            PolyId::Committed(i) => &weights.polys[i],
            PolyId::Sigma(i) => &pk.sigma_polys[i],
            PolyId::PermZ(i) => &perm_z_polys[i],
            PolyId::LookupA(i) => &lookup_a_polys[i],
            PolyId::LookupS(i) => &lookup_s_polys[i],
            PolyId::LookupZ(i) => &lookup_z_polys[i],
            PolyId::Quotient(i) => &quotient_polys[i],
        }
    };
    // Evaluate in parallel (Horner per opening), then absorb serially so the
    // transcript order is unchanged.
    let evals: Vec<(Fr, Fr)> = zkml_par::par_map(plan.len(), |idx| {
        let entry = &plan[idx];
        let point = domain.rotate(x, entry.rotation);
        (point, poly_for(entry.poly).evaluate(point))
    });
    for (_, eval) in &evals {
        transcript.absorb_scalar(b"eval", eval);
        proof.scalar(eval);
    }

    // --- Multi-open -----------------------------------------------------------
    let queries: Vec<(&Coeffs<Fr>, Fr)> = plan
        .iter()
        .zip(&evals)
        .map(|(entry, (point, _))| (poly_for(entry.poly), *point))
        .collect();
    let opening = params.open(&mut transcript, &queries);
    proof.bytes(&opening);

    Ok(proof.finish())
}
