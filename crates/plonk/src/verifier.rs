//! Proof verification.

use crate::expression::{Column, Expression, Rotation};
use crate::keygen::{VerifyingKey, WeightCommitment};
use crate::protocol::{opening_plan, PolyId};
use crate::PlonkError;
use zkml_curves::G1Affine;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::{Params, Reader, Verification};
use zkml_poly::{Coeffs, EvaluationDomain};
use zkml_transcript::Transcript;

/// Verifies a proof to completion — the one complete check of a single
/// proof, and the one to call unless the proof is part of a batch.
///
/// Runs [`verify_proof_committed`] with the same `binding` and `weights`
/// and settles its [`Verification`] on `params`; a failed settlement is a
/// [`PlonkError::Verify`]. A circuit with no committed columns passes
/// `None` for `weights` and an unbound proof an empty `binding`.
pub fn verify_proof(
    params: &Params,
    vk: &VerifyingKey,
    instance: &[Vec<Fr>],
    proof: &[u8],
    binding: &[u8],
    weights: Option<&WeightCommitment>,
) -> Result<(), PlonkError> {
    if verify_proof_committed(params, vk, instance, proof, binding, weights)?.settle(params) {
        Ok(())
    } else {
        Err(PlonkError::Verify(
            "opening verification failed: KZG pairing check failed".into(),
        ))
    }
}

/// Verifies a proof up to its backend's final check, which it defers when
/// it can; call this only to settle many proofs together (a segmented
/// bundle), and [`verify_proof`] otherwise.
///
/// Mirrors [`crate::prover::create_proof_committed`]. The digest of the
/// *published* [`WeightCommitment`] (required exactly when the circuit has
/// committed columns) is absorbed right after the verifying-key digest, so a
/// proof created under one weight commitment fails under any other —
/// tampering with a single weight after publication changes the column
/// commitment, the digest, and therefore every Fiat–Shamir challenge. The
/// binding is absorbed next (nothing when empty), so a proof created under
/// one binding fails under any other.
///
/// On the KZG backend the returned [`Verification`] carries the pending
/// pairing inputs; callers batch many of them through
/// [`zkml_pcs::batch_check`] to settle a whole proof bundle with one
/// multi-pairing. IPA verifies completely.
pub fn verify_proof_committed(
    params: &Params,
    vk: &VerifyingKey,
    instance: &[Vec<Fr>],
    proof: &[u8],
    binding: &[u8],
    weights: Option<&WeightCommitment>,
) -> Result<Verification, PlonkError> {
    let cs = &vk.cs;
    // An untrusted key claiming a larger circuit than the params were set
    // up for is rejected before anything is sized by its `2^k`.
    if vk.k > params.k() {
        return Err(PlonkError::Verify(format!(
            "verifying key has k = {} but the params support k <= {}",
            vk.k,
            params.k()
        )));
    }
    let wc = match weights {
        Some(wc) => {
            if wc.k != vk.k {
                return Err(PlonkError::Verify(format!(
                    "weight commitment is for k = {} but circuit has k = {}",
                    wc.k, vk.k
                )));
            }
            if wc.commitments.len() != cs.num_committed {
                return Err(PlonkError::Verify(format!(
                    "weight commitment has {} columns but circuit has {}",
                    wc.commitments.len(),
                    cs.num_committed
                )));
            }
            if wc.digest != WeightCommitment::compute_digest(wc.k, &wc.commitments) {
                return Err(PlonkError::Verify(
                    "weight commitment digest does not match its commitments".into(),
                ));
            }
            Some(wc)
        }
        None if cs.num_committed > 0 => {
            return Err(PlonkError::Verify(
                "circuit has committed columns but no weight commitment was supplied".into(),
            ));
        }
        None => None,
    };
    let domain = EvaluationDomain::<Fr>::new(vk.k);
    let n = domain.n;
    let usable = cs.usable_rows(n);
    let degree = cs.degree();
    let factor = (degree - 1).next_power_of_two();

    if instance.len() != cs.num_instance {
        return Err(PlonkError::Verify(format!(
            "expected {} instance columns, got {}",
            cs.num_instance,
            instance.len()
        )));
    }

    let mut transcript = Transcript::new(b"zkml-plonk");
    transcript.absorb(b"vk", &vk.digest);
    if let Some(wc) = wc {
        transcript.absorb(b"weights", &wc.digest);
    }
    if !binding.is_empty() {
        transcript.absorb(b"bind", binding);
    }
    let mut instance_padded: Vec<Vec<Fr>> = Vec::with_capacity(instance.len());
    for col in instance {
        if col.len() > usable {
            return Err(PlonkError::Verify(
                "instance column exceeds usable rows".into(),
            ));
        }
        let mut v = col.clone();
        v.resize(n, Fr::zero());
        let mut bytes = Vec::with_capacity(v.len() * 32);
        for x in &v {
            bytes.extend_from_slice(&x.to_bytes());
        }
        transcript.absorb(b"instance", &bytes);
        instance_padded.push(v);
    }

    let mut r = Reader::new(proof);

    // --- Commitments, mirroring the prover's transcript schedule ---------
    let mut advice_commitments: Vec<Option<G1Affine>> = vec![None; cs.num_advice];
    let mut challenges: Vec<Fr> = Vec::new();
    let phases: &[u8] = if cs.num_challenges > 0 { &[0, 1] } else { &[0] };
    for &phase in phases {
        for (c, slot) in advice_commitments.iter_mut().enumerate() {
            if cs.advice_phase[c] != phase {
                continue;
            }
            let com = r.g1()?;
            transcript.absorb(b"advice", &com.to_bytes());
            *slot = Some(com);
        }
        if phase == 0 {
            for _ in 0..cs.num_challenges {
                challenges.push(transcript.challenge(b"phase-challenge"));
            }
        }
    }
    let advice_commitments: Vec<G1Affine> = advice_commitments
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .expect("all advice commitments read");

    let theta: Fr = transcript.challenge(b"theta");

    let mut lookup_a = Vec::with_capacity(cs.lookups.len());
    let mut lookup_s = Vec::with_capacity(cs.lookups.len());
    for _ in &cs.lookups {
        let a = r.g1()?;
        let s = r.g1()?;
        transcript.absorb(b"lookup-a", &a.to_bytes());
        transcript.absorb(b"lookup-s", &s.to_bytes());
        lookup_a.push(a);
        lookup_s.push(s);
    }

    let beta: Fr = transcript.challenge(b"beta");
    let gamma: Fr = transcript.challenge(b"gamma");

    let z_count = cs.permutation_z_count();
    let mut perm_z = Vec::with_capacity(z_count);
    for _ in 0..z_count {
        let z = r.g1()?;
        transcript.absorb(b"perm-z", &z.to_bytes());
        perm_z.push(z);
    }
    let mut lookup_z = Vec::with_capacity(cs.lookups.len());
    for _ in &cs.lookups {
        let z = r.g1()?;
        transcript.absorb(b"lookup-z", &z.to_bytes());
        lookup_z.push(z);
    }

    let y: Fr = transcript.challenge(b"y");

    let mut quotient = Vec::with_capacity(factor);
    for _ in 0..factor {
        let q = r.g1()?;
        transcript.absorb(b"quotient", &q.to_bytes());
        quotient.push(q);
    }

    let x: Fr = transcript.challenge(b"x");

    // --- Evaluations -------------------------------------------------------
    let plan = opening_plan(cs, usable, factor);
    let mut evals = Vec::with_capacity(plan.len());
    for _ in &plan {
        let e = r.scalar()?;
        transcript.absorb_scalar(b"eval", &e);
        evals.push(e);
    }

    let find_eval = |id: PolyId, rot: i32| -> Fr {
        plan.iter()
            .zip(&evals)
            .find(|(entry, _)| entry.poly == id && entry.rotation == rot)
            .map(|(_, e)| *e)
            .unwrap_or_else(|| panic!("missing eval for {id:?} rot {rot}"))
    };

    // Instance evaluations are computed directly from the public inputs.
    let instance_polys: Vec<Coeffs<Fr>> = instance_padded
        .iter()
        .map(|v| {
            let mut c = v.clone();
            domain.ifft(&mut c);
            Coeffs::new(c)
        })
        .collect();
    let instance_eval =
        |c: usize, rot: i32| -> Fr { instance_polys[c].evaluate(domain.rotate(x, rot)) };

    let column_eval = |col: Column, rot: Rotation| -> Fr {
        match col {
            Column::Advice(c) => find_eval(PolyId::Advice(c), rot.0),
            Column::Fixed(c) => find_eval(PolyId::Fixed(c), rot.0),
            Column::Committed(c) => find_eval(PolyId::Committed(c), rot.0),
            Column::Instance(c) => instance_eval(c, rot.0),
        }
    };

    let eval_expr = |e: &Expression| -> Fr {
        e.evaluate(
            &|c| c,
            &|c, rot| column_eval(Column::Instance(c), rot),
            &|c, rot| column_eval(Column::Advice(c), rot),
            &|c, rot| column_eval(Column::Fixed(c), rot),
            &|c| challenges[c],
        )
    };
    let compress = |exprs: &[Expression]| -> Fr {
        let mut acc = Fr::zero();
        let mut t = Fr::one();
        for e in exprs {
            acc += t * eval_expr(e);
            t *= theta;
        }
        acc
    };

    // Lagrange selector evaluations at x.
    let lagrange = domain.lagrange_evals(x);
    let l0_x = lagrange[0];
    let l_last_x = lagrange[usable];
    let l_blind_x: Fr = lagrange[usable + 1..].iter().copied().sum();
    let l_active_x = Fr::one() - l_last_x - l_blind_x;

    // --- Recompute the combined constraint value at x ----------------------
    let mut combined = Fr::zero();
    let add_term = |term: Fr, combined: &mut Fr| {
        *combined = *combined * y + term;
    };

    for gate in &cs.gates {
        for poly in &gate.polys {
            add_term(eval_expr(poly), &mut combined);
        }
    }

    if z_count > 0 {
        let delta = Fr::delta();
        let mut delta_powers = Vec::with_capacity(cs.permutation_columns.len());
        let mut cur = Fr::one();
        for _ in 0..cs.permutation_columns.len() {
            delta_powers.push(cur);
            cur *= delta;
        }
        add_term(
            l0_x * (Fr::one() - find_eval(PolyId::PermZ(0), 0)),
            &mut combined,
        );
        let z_last = find_eval(PolyId::PermZ(z_count - 1), 0);
        add_term(l_last_x * (z_last.square() - z_last), &mut combined);
        for c in 1..z_count {
            add_term(
                l0_x * (find_eval(PolyId::PermZ(c), 0)
                    - find_eval(PolyId::PermZ(c - 1), usable as i32)),
                &mut combined,
            );
        }
        let chunk_size = cs.permutation_chunk();
        for (chunk_idx, cols) in cs.permutation_columns.chunks(chunk_size).enumerate() {
            let base = chunk_idx * chunk_size;
            let mut left = find_eval(PolyId::PermZ(chunk_idx), 1);
            let mut right = find_eval(PolyId::PermZ(chunk_idx), 0);
            for (j, col) in cols.iter().enumerate() {
                let global = base + j;
                let v = column_eval(*col, Rotation::cur());
                left *= v + beta * find_eval(PolyId::Sigma(global), 0) + gamma;
                right *= v + beta * delta_powers[global] * x + gamma;
            }
            add_term(l_active_x * (left - right), &mut combined);
        }
    }

    for (lk_idx, lk) in cs.lookups.iter().enumerate() {
        let z = find_eval(PolyId::LookupZ(lk_idx), 0);
        let z_next = find_eval(PolyId::LookupZ(lk_idx), 1);
        let a_perm = find_eval(PolyId::LookupA(lk_idx), 0);
        let a_prev = find_eval(PolyId::LookupA(lk_idx), -1);
        let s_perm = find_eval(PolyId::LookupS(lk_idx), 0);
        add_term(l0_x * (Fr::one() - z), &mut combined);
        add_term(l_last_x * (z.square() - z), &mut combined);
        let a = compress(&lk.inputs);
        let t = compress(&lk.table);
        add_term(
            l_active_x
                * (z_next * (a_perm + beta) * (s_perm + gamma) - z * (a + beta) * (t + gamma)),
            &mut combined,
        );
        add_term(l0_x * (a_perm - s_perm), &mut combined);
        add_term(
            l_active_x * (a_perm - s_perm) * (a_perm - a_prev),
            &mut combined,
        );
    }

    // --- Vanishing check ----------------------------------------------------
    let zh_x = domain.evaluate_vanishing(x);
    let xn = x.pow(&[n as u64]);
    let mut h_x = Fr::zero();
    for j in (0..factor).rev() {
        h_x = h_x * xn + find_eval(PolyId::Quotient(j), 0);
    }
    if combined != zh_x * h_x {
        return Err(PlonkError::Verify(
            "vanishing argument failed: constraints do not hold".into(),
        ));
    }

    // --- Multi-open ----------------------------------------------------------
    let commitment_for = |id: PolyId| -> G1Affine {
        match id {
            PolyId::Advice(i) => advice_commitments[i],
            PolyId::Fixed(i) => vk.fixed_commitments[i],
            PolyId::Committed(i) => {
                wc.expect("committed columns imply a commitment")
                    .commitments[i]
            }
            PolyId::Sigma(i) => vk.sigma_commitments[i],
            PolyId::PermZ(i) => perm_z[i],
            PolyId::LookupA(i) => lookup_a[i],
            PolyId::LookupS(i) => lookup_s[i],
            PolyId::LookupZ(i) => lookup_z[i],
            PolyId::Quotient(i) => quotient[i],
        }
    };
    let queries: Vec<(G1Affine, Fr, Fr)> = plan
        .iter()
        .zip(&evals)
        .map(|(entry, e)| {
            (
                commitment_for(entry.poly),
                domain.rotate(x, entry.rotation),
                *e,
            )
        })
        .collect();
    let opening = r.remaining();
    params
        .verify_deferred(&mut transcript, &queries, opening)
        .map_err(|e| PlonkError::Verify(format!("opening verification failed: {e}")))
}
