//! Proof verification.

use crate::keygen::{VerifyingKey, WeightCommitment};
use crate::protocol::{opening_plan, Argument, Challenges, Lagrange, PlanEntry, Point, PolyId};
use crate::PlonkError;
use zkml_curves::G1Affine;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::{Params, Reader, Verification};
use zkml_poly::EvaluationDomain;
use zkml_transcript::Transcript;

/// The challenge `x`, seen through the proof's opened evaluations.
struct Opened<'a> {
    plan: &'a [PlanEntry],
    evals: &'a [Fr],
    /// The public inputs, unpadded.
    instance: &'a [Vec<Fr>],
    x: Fr,
    /// `L_i(x)` for every row `i`.
    lagrange: Vec<Fr>,
    /// `l_0`, `l_last` and `l_active` at `x`.
    selectors: [Fr; 3],
}

impl Point for Opened<'_> {
    fn poly(&self, id: PolyId, rotation: i32) -> Fr {
        self.plan
            .iter()
            .zip(self.evals)
            .find(|(entry, _)| entry.poly == id && entry.rotation == rotation)
            .map(|(_, e)| *e)
            .unwrap_or_else(|| panic!("the opening plan has no {id:?} at rotation {rotation}"))
    }

    /// `Σ_i v_i·L_i(x·ω^r)`, where `L_i(x·ω^r) = L_{i−r}(x)`.
    fn instance(&self, column: usize, rotation: i32) -> Fr {
        let n = self.lagrange.len() as i64;
        let row = |i: usize| (i as i64 - rotation as i64).rem_euclid(n) as usize;
        let column = self.instance[column].iter().enumerate();
        column.map(|(i, v)| *v * self.lagrange[row(i)]).sum()
    }

    fn lagrange(&self, which: Lagrange) -> Fr {
        self.selectors[which as usize]
    }

    fn x(&self) -> Fr {
        self.x
    }
}

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
    let factor = (cs.degree() - 1).next_power_of_two();

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
    for col in instance {
        if col.len() > usable {
            return Err(PlonkError::Verify(
                "instance column exceeds usable rows".into(),
            ));
        }
        let mut bytes = Vec::with_capacity(n * 32);
        for v in col {
            bytes.extend_from_slice(&v.to_bytes());
        }
        // The prover pads each column with zeros to `n` rows.
        bytes.resize(n * 32, 0);
        transcript.absorb(b"instance", &bytes);
    }

    let mut r = Reader::new(proof);

    // --- Commitments, mirroring the prover's transcript schedule ---------
    let mut read = |transcript: &mut Transcript, label| -> Result<G1Affine, PlonkError> {
        let com = r.g1()?;
        transcript.absorb(label, &com.to_bytes());
        Ok(com)
    };
    let mut advice_commitments: Vec<Option<G1Affine>> = vec![None; cs.num_advice];
    let mut challenges: Vec<Fr> = Vec::new();
    let phases: &[u8] = if cs.num_challenges > 0 { &[0, 1] } else { &[0] };
    for &phase in phases {
        for (c, slot) in advice_commitments.iter_mut().enumerate() {
            if cs.advice_phase[c] == phase {
                *slot = Some(read(&mut transcript, b"advice")?);
            }
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
    let (mut lookup_a, mut lookup_s) = (Vec::new(), Vec::new());
    for _ in &cs.lookups {
        lookup_a.push(read(&mut transcript, b"lookup-a")?);
        lookup_s.push(read(&mut transcript, b"lookup-s")?);
    }

    let beta: Fr = transcript.challenge(b"beta");
    let gamma: Fr = transcript.challenge(b"gamma");
    let mut read_all = |transcript: &mut Transcript, label, count| {
        (0..count)
            .map(|_| read(transcript, label))
            .collect::<Result<Vec<_>, _>>()
    };
    let perm_z = read_all(&mut transcript, b"perm-z", cs.permutation_z_count())?;
    let lookup_z = read_all(&mut transcript, b"lookup-z", cs.lookups.len())?;

    let y: Fr = transcript.challenge(b"y");
    let quotient = read_all(&mut transcript, b"quotient", factor)?;

    let x: Fr = transcript.challenge(b"x");

    // --- Evaluations -------------------------------------------------------
    let plan = opening_plan(cs, usable, factor);
    let mut evals = Vec::with_capacity(plan.len());
    for _ in &plan {
        let e = r.scalar()?;
        transcript.absorb_scalar(b"eval", &e);
        evals.push(e);
    }

    let lagrange = domain.lagrange_evals(x);
    // `l_active = 1 − l_last − l_blind`, and the rows from `l_last` on are
    // the last row and the blinding rows.
    let l_active = Fr::one() - lagrange[usable..].iter().copied().sum::<Fr>();
    let opened = Opened {
        plan: &plan,
        evals: &evals,
        instance,
        x,
        selectors: [lagrange[0], lagrange[usable], l_active],
        lagrange,
    };
    let ch = Challenges {
        phase: &challenges,
        theta,
        beta,
        gamma,
    };
    let combined = Argument::new(cs, usable).fold(&opened, &ch, y);

    // --- Vanishing check ----------------------------------------------------
    let zh_x = domain.evaluate_vanishing(x);
    let xn = x.pow(&[n as u64]);
    let mut h_x = Fr::zero();
    for j in (0..factor).rev() {
        h_x = h_x * xn + opened.poly(PolyId::Quotient(j), 0);
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
