//! Proof creation.

use crate::circuit::WitnessSource;
use crate::expression::{Column, Expression};
use crate::keygen::{CommittedWeights, ProvingKey};
use crate::protocol::{opening_plan, PolyId};
use crate::PlonkError;
use rand::RngCore;
use std::collections::BTreeMap;
use zkml_ff::{batch_invert, Field, Fr, PrimeField};
use zkml_pcs::{Params, Writer};
use zkml_poly::Coeffs;
use zkml_transcript::Transcript;

/// Minimum rows per parallel task in the row-indexed loops below.
const ROW_CHUNK: usize = 1024;

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

/// Evaluates an expression on row `i` against value tables (wrapping rows).
fn eval_on_row(
    e: &Expression,
    i: usize,
    n: usize,
    instance: &[Vec<Fr>],
    advice: &[Vec<Fr>],
    fixed: &[Vec<Fr>],
    challenges: &[Fr],
) -> Fr {
    e.evaluate_on_grid(i, n, instance, advice, fixed, challenges)
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
        col.resize(n, Fr::zero());
        let mut bytes = Vec::with_capacity(col.len() * 32);
        for v in col.iter() {
            bytes.extend_from_slice(&v.to_bytes());
        }
        transcript.absorb(b"instance", &bytes);
    }
    let instance_polys: Vec<Coeffs<Fr>> = zkml_par::par_map(instance.len(), |c| {
        let mut v = instance[c].clone();
        domain.ifft(&mut v);
        Coeffs::new(v)
    });

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
            vals.resize(n, Fr::zero());
            for v in vals[usable + 1..].iter_mut() {
                *v = Fr::random(rng);
            }
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
            let mut coeffs = vals.clone();
            domain.ifft(&mut coeffs);
            let poly = Coeffs::new(coeffs);
            transcript.absorb(b"advice", &com.to_bytes());
            proof.g1(&com);
            advice_polys[c] = Some(poly);
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

    let compress = |exprs: &[Expression], i: usize| -> Fr {
        let mut acc = Fr::zero();
        let mut t = Fr::one();
        for e in exprs {
            acc += t * eval_on_row(
                e,
                i,
                n,
                &instance,
                &advice_values,
                &pk.fixed_values,
                &challenges,
            );
            t *= theta;
        }
        acc
    };

    struct LookupWitness {
        a_compressed: Vec<Fr>,
        t_compressed: Vec<Fr>,
        a_permuted: Vec<Fr>,
        s_permuted: Vec<Fr>,
        a_poly: Coeffs<Fr>,
        s_poly: Coeffs<Fr>,
    }

    let mut lookups = Vec::with_capacity(cs.lookups.len());
    for lk in &cs.lookups {
        let a_compressed: Vec<Fr> = zkml_par::par_map(n, |i| compress(&lk.inputs, i));
        let t_compressed: Vec<Fr> = zkml_par::par_map(n, |i| compress(&lk.table, i));

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
                *cnt -= 1;
                if *cnt == 0 {
                    t_counts.remove(&a_sorted[i]);
                }
                s_permuted[i] = Some(a_sorted[i]);
            }
        }
        let mut leftovers = t_counts
            .into_iter()
            .flat_map(|(v, c)| std::iter::repeat_n(v, c));
        let s_permuted: Vec<Fr> = s_permuted
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| leftovers.next().expect("table and input row counts match"))
            })
            .collect();

        let mut a_full = a_sorted.clone();
        a_full.resize(n, Fr::zero());
        let mut s_full = s_permuted.clone();
        s_full.resize(n, Fr::zero());
        for v in a_full[usable..].iter_mut() {
            *v = Fr::random(rng);
        }
        for v in s_full[usable..].iter_mut() {
            *v = Fr::random(rng);
        }
        let mut a_coeffs = a_full.clone();
        domain.ifft(&mut a_coeffs);
        let a_poly = Coeffs::new(a_coeffs);
        let mut s_coeffs = s_full.clone();
        domain.ifft(&mut s_coeffs);
        let s_poly = Coeffs::new(s_coeffs);
        let a_com = params.commit_lagrange(&a_full);
        let s_com = params.commit_lagrange(&s_full);
        transcript.absorb(b"lookup-a", &a_com.to_bytes());
        transcript.absorb(b"lookup-s", &s_com.to_bytes());
        proof.g1(&a_com);
        proof.g1(&s_com);
        lookups.push(LookupWitness {
            a_compressed,
            t_compressed,
            a_permuted: a_full,
            s_permuted: s_full,
            a_poly,
            s_poly,
        });
    }

    let beta: Fr = transcript.challenge(b"beta");
    let gamma: Fr = transcript.challenge(b"gamma");

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
    let delta = Fr::delta();
    let mut delta_powers = Vec::with_capacity(cs.permutation_columns.len());
    {
        let mut cur = Fr::one();
        for _ in 0..cs.permutation_columns.len() {
            delta_powers.push(cur);
            cur *= delta;
        }
    }
    let chunk_size = cs.permutation_chunk();
    let mut perm_z_values: Vec<Vec<Fr>> = Vec::new();
    let mut perm_z_polys: Vec<Coeffs<Fr>> = Vec::new();
    let mut carry = Fr::one();
    for (chunk_idx, cols) in cs.permutation_columns.chunks(chunk_size).enumerate() {
        let base = chunk_idx * chunk_size;
        // Each row's numerator/denominator multiplies column terms in the
        // same (ascending `j`) order as the serial loop, so the products are
        // bit-identical.
        let mut nd: Vec<(Fr, Fr)> = vec![(Fr::one(), Fr::one()); usable];
        zkml_par::par_for_each_mut(&mut nd, |i, pair| {
            for (j, col) in cols.iter().enumerate() {
                let global = base + j;
                let v = perm_col_value(*col, i);
                pair.0 *= v + beta * delta_powers[global] * omega_powers[i] + gamma;
                pair.1 *= v + beta * pk.sigma_values[global][i] + gamma;
            }
        });
        let (num, mut den): (Vec<Fr>, Vec<Fr>) = nd.into_iter().unzip();
        // Chunked batch inversion: every element's inverse is exact, so the
        // chunking cannot change any value.
        zkml_par::par_chunks_mut(&mut den, ROW_CHUNK, |_, _, chunk| batch_invert(chunk));
        let factors: Vec<Fr> = zkml_par::par_map(usable, |i| num[i] * den[i]);
        let mut z = vec![Fr::zero(); n];
        scan_products(carry, &factors, &mut z);
        carry = z[usable];
        for v in z[usable + 1..].iter_mut() {
            *v = Fr::random(rng);
        }
        perm_z_values.push(z);
    }
    if !cs.permutation_columns.is_empty() && carry != Fr::one() {
        return Err(PlonkError::Synthesis(
            "copy constraints unsatisfied (permutation product != 1)".into(),
        ));
    }
    for mut z in perm_z_values {
        let com = params.commit_lagrange(&z);
        domain.ifft(&mut z);
        transcript.absorb(b"perm-z", &com.to_bytes());
        proof.g1(&com);
        perm_z_polys.push(Coeffs::new(z));
    }

    // --- Lookup grand products ---------------------------------------------
    let mut lookup_z_polys: Vec<Coeffs<Fr>> = Vec::new();
    for (lk, w) in cs.lookups.iter().zip(&lookups) {
        let mut den: Vec<Fr> = zkml_par::par_map(usable, |i| {
            (w.a_permuted[i] + beta) * (w.s_permuted[i] + gamma)
        });
        zkml_par::par_chunks_mut(&mut den, ROW_CHUNK, |_, _, chunk| batch_invert(chunk));
        let factors: Vec<Fr> = zkml_par::par_map(usable, |i| {
            (w.a_compressed[i] + beta) * (w.t_compressed[i] + gamma) * den[i]
        });
        let mut z = vec![Fr::zero(); n];
        scan_products(Fr::one(), &factors, &mut z);
        if z[usable] != Fr::one() {
            return Err(PlonkError::Synthesis(format!(
                "lookup '{}' unsatisfied (product != 1)",
                lk.name
            )));
        }
        for v in z[usable + 1..].iter_mut() {
            *v = Fr::random(rng);
        }
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
    let (lookup_a_polys, lookup_s_polys): (Vec<Coeffs<Fr>>, Vec<Coeffs<Fr>>) =
        lookups.into_iter().map(|w| (w.a_poly, w.s_poly)).unzip();

    let y: Fr = transcript.challenge(b"y");

    // --- Quotient ----------------------------------------------------------
    let ext = &pk.domains;
    let ext_n = ext.ext.n;
    let poly_to_ext = |p: &Coeffs<Fr>| ext.coset_ext(p.values.clone());

    let instance_ext: Vec<Vec<Fr>> =
        zkml_par::par_map(instance_polys.len(), |i| poly_to_ext(&instance_polys[i]));
    let advice_ext: Vec<Vec<Fr>> =
        zkml_par::par_map(advice_polys.len(), |i| poly_to_ext(&advice_polys[i]));
    let perm_z_ext: Vec<Vec<Fr>> =
        zkml_par::par_map(perm_z_polys.len(), |i| poly_to_ext(&perm_z_polys[i]));
    let lookup_a_ext: Vec<Vec<Fr>> =
        zkml_par::par_map(lookup_a_polys.len(), |i| poly_to_ext(&lookup_a_polys[i]));
    let lookup_s_ext: Vec<Vec<Fr>> =
        zkml_par::par_map(lookup_s_polys.len(), |i| poly_to_ext(&lookup_s_polys[i]));
    let lookup_z_ext: Vec<Vec<Fr>> =
        zkml_par::par_map(lookup_z_polys.len(), |i| poly_to_ext(&lookup_z_polys[i]));

    // Compressed lookup input/table on the extended coset.
    let eval_expr_ext = |e: &Expression, i: usize| -> Fr {
        e.evaluate(
            &|c| c,
            &|c, r| instance_ext[c][ext.rotated_index(i, r.0)],
            &|c, r| advice_ext[c][ext.rotated_index(i, r.0)],
            &|c, r| pk.fixed_ext[c][ext.rotated_index(i, r.0)],
            &|c| challenges[c],
        )
    };
    let compress_ext = |exprs: &[Expression], i: usize| -> Fr {
        let mut acc = Fr::zero();
        let mut t = Fr::one();
        for e in exprs {
            acc += t * eval_expr_ext(e, i);
            t *= theta;
        }
        acc
    };

    // Coset point values for the permutation "identity" side.
    let mut coset_points = vec![Fr::zero(); ext_n];
    zkml_par::par_chunks_mut(&mut coset_points, ROW_CHUNK, |_, start, chunk| {
        let mut cur = ext.ext.coset_gen * ext.ext.omega.pow(&[start as u64]);
        for slot in chunk.iter_mut() {
            *slot = cur;
            cur *= ext.ext.omega;
        }
    });

    let mut combined = vec![Fr::zero(); ext_n];
    let add_term = |term: &(dyn Fn(usize) -> Fr + Sync), combined: &mut Vec<Fr>| {
        zkml_par::par_for_each_mut(combined, |i, c| {
            *c = *c * y + term(i);
        });
    };

    // 1. Gates.
    for gate in &cs.gates {
        for poly in &gate.polys {
            add_term(&|i| eval_expr_ext(poly, i), &mut combined);
        }
    }
    // 2. Permutation.
    let z_count = perm_z_ext.len();
    if z_count > 0 {
        add_term(
            &|i| pk.l0_ext[i] * (Fr::one() - perm_z_ext[0][i]),
            &mut combined,
        );
        add_term(
            &|i| {
                let z = perm_z_ext[z_count - 1][i];
                pk.l_last_ext[i] * (z.square() - z)
            },
            &mut combined,
        );
        for c in 1..z_count {
            add_term(
                &|i| {
                    pk.l0_ext[i]
                        * (perm_z_ext[c][i]
                            - perm_z_ext[c - 1][ext.rotated_index(i, usable as i32)])
                },
                &mut combined,
            );
        }
        for (chunk_idx, cols) in cs.permutation_columns.chunks(chunk_size).enumerate() {
            let base = chunk_idx * chunk_size;
            add_term(
                &|i| {
                    let mut left = perm_z_ext[chunk_idx][ext.rotated_index(i, 1)];
                    let mut right = perm_z_ext[chunk_idx][i];
                    for (j, col) in cols.iter().enumerate() {
                        let global = base + j;
                        let v = match col {
                            Column::Instance(c) => instance_ext[*c][i],
                            Column::Advice(c) => advice_ext[*c][i],
                            Column::Fixed(c) => pk.fixed_ext[*c][i],
                            Column::Committed(c) => weights.ext[*c][i],
                        };
                        left *= v + beta * pk.sigma_ext[global][i] + gamma;
                        right *= v + beta * delta_powers[global] * coset_points[i] + gamma;
                    }
                    pk.l_active_ext[i] * (left - right)
                },
                &mut combined,
            );
        }
    }
    // 3. Lookups.
    for (lk_idx, lk) in cs.lookups.iter().enumerate() {
        add_term(
            &|i| pk.l0_ext[i] * (Fr::one() - lookup_z_ext[lk_idx][i]),
            &mut combined,
        );
        add_term(
            &|i| {
                let z = lookup_z_ext[lk_idx][i];
                pk.l_last_ext[i] * (z.square() - z)
            },
            &mut combined,
        );
        add_term(
            &|i| {
                let z_next = lookup_z_ext[lk_idx][ext.rotated_index(i, 1)];
                let z = lookup_z_ext[lk_idx][i];
                let a = compress_ext(&lk.inputs, i);
                let t = compress_ext(&lk.table, i);
                pk.l_active_ext[i]
                    * (z_next
                        * (lookup_a_ext[lk_idx][i] + beta)
                        * (lookup_s_ext[lk_idx][i] + gamma)
                        - z * (a + beta) * (t + gamma))
            },
            &mut combined,
        );
        add_term(
            &|i| pk.l0_ext[i] * (lookup_a_ext[lk_idx][i] - lookup_s_ext[lk_idx][i]),
            &mut combined,
        );
        add_term(
            &|i| {
                let a = lookup_a_ext[lk_idx][i];
                pk.l_active_ext[i]
                    * (a - lookup_s_ext[lk_idx][i])
                    * (a - lookup_a_ext[lk_idx][ext.rotated_index(i, -1)])
            },
            &mut combined,
        );
    }

    // Divide by the vanishing polynomial and interpolate.
    zkml_par::par_chunks_mut(&mut combined, ROW_CHUNK, |_, start, chunk| {
        for (i, c) in chunk.iter_mut().enumerate() {
            *c *= ext.zh_inv[(start + i) % ext.factor];
        }
    });
    ext.ext.coset_ifft(&mut combined);
    let pieces: Vec<Coeffs<Fr>> = combined
        .chunks(n)
        .map(|ch| Coeffs::new(ch.to_vec()))
        .collect();
    debug_assert_eq!(pieces.len(), ext.factor);
    let mut quotient_polys = Vec::with_capacity(pieces.len());
    for piece in pieces {
        let com = params.commit(&piece);
        transcript.absorb(b"quotient", &com.to_bytes());
        proof.g1(&com);
        quotient_polys.push(piece);
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
    let mut eval_points = Vec::with_capacity(plan.len());
    for (point, eval) in &evals {
        transcript.absorb_scalar(b"eval", eval);
        proof.scalar(eval);
        eval_points.push(*point);
    }

    // --- Multi-open -----------------------------------------------------------
    let queries: Vec<(&Coeffs<Fr>, Fr)> = plan
        .iter()
        .zip(&eval_points)
        .map(|(entry, point)| (poly_for(entry.poly), *point))
        .collect();
    let opening = params.open(&mut transcript, &queries);
    proof.bytes(&opening);

    Ok(proof.finish())
}
