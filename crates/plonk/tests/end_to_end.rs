//! End-to-end prove/verify tests for the Plonkish proving system, covering
//! gates, copy constraints, public inputs, lookups, multi-phase challenges,
//! and both commitment backends.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{
    create_proof_committed, keygen, verify_proof, CellRef, Column, CommittedWeights,
    ConstraintSystem, Expression, Preprocessed, Rotation, WitnessSource,
};

fn params(backend: Backend, k: u32) -> Params {
    let mut rng = StdRng::seed_from_u64(999);
    Params::setup(backend, k, &mut rng)
}

/// A fixed witness provider backed by plain vectors.
struct VecWitness {
    instance: Vec<Vec<Fr>>,
    advice0: Vec<(usize, Vec<Fr>)>,
    #[allow(clippy::type_complexity)]
    advice1: Box<dyn Fn(&[Fr]) -> Vec<(usize, Vec<Fr>)> + Send + Sync>,
}

impl VecWitness {
    fn simple(instance: Vec<Vec<Fr>>, advice0: Vec<(usize, Vec<Fr>)>) -> Self {
        Self {
            instance,
            advice0,
            advice1: Box::new(|_| Vec::new()),
        }
    }
}

impl WitnessSource for VecWitness {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.instance.clone()
    }
    fn advice(&self, phase: u8, challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        if phase == 0 {
            self.advice0.clone()
        } else {
            (self.advice1)(challenges)
        }
    }
}

/// Circuit 1: multiplication chain with copy constraints and a public output.
///
/// Rows hold (a, b, c) with gate q * (a*b - c) = 0. Row i+1's `a` is copied
/// from row i's `c`, and the final product is exposed via the instance
/// column.
fn mul_chain_setup() -> (ConstraintSystem, Preprocessed, VecWitness, Vec<Vec<Fr>>) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a = cs.advice_column(0);
    let b = cs.advice_column(0);
    let c = cs.advice_column(0);
    let inst = cs.instance_column();
    cs.enable_equality(Column::Advice(a));
    cs.enable_equality(Column::Advice(c));
    cs.enable_equality(Column::Instance(inst));
    cs.create_gate(
        "mul",
        vec![
            Expression::Fixed(q, Rotation::cur())
                * (Expression::Advice(a, Rotation::cur()) * Expression::Advice(b, Rotation::cur())
                    - Expression::Advice(c, Rotation::cur())),
        ],
    );

    // Witness: chain of 8 multiplications starting from 3, multiplying by
    // (i + 2) each row.
    let rows = 8usize;
    let mut av = Vec::new();
    let mut bv = Vec::new();
    let mut cv = Vec::new();
    let mut acc = Fr::from_u64(3);
    for i in 0..rows {
        let m = Fr::from_u64(i as u64 + 2);
        av.push(acc);
        bv.push(m);
        acc *= m;
        cv.push(acc);
    }
    let copies: Vec<(CellRef, CellRef)> = (1..rows)
        .map(|i| {
            (
                CellRef {
                    column: Column::Advice(c),
                    row: i - 1,
                },
                CellRef {
                    column: Column::Advice(a),
                    row: i,
                },
            )
        })
        .chain(std::iter::once((
            CellRef {
                column: Column::Advice(c),
                row: rows - 1,
            },
            CellRef {
                column: Column::Instance(inst),
                row: 0,
            },
        )))
        .collect();

    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::one(); rows]],
        copies,
    };
    let instance = vec![vec![acc]];
    let witness = VecWitness::simple(instance.clone(), vec![(a, av), (b, bv), (c, cv)]);
    (cs, pre, witness, instance)
}

#[test]
fn mul_chain_proves_and_verifies_kzg() {
    let (cs, pre, witness, instance) = mul_chain_setup();
    let params = params(Backend::Kzg, 6);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    verify_proof(&params, &pk.vk, &instance, &proof, &[], None).unwrap();
}

#[test]
fn mul_chain_proves_and_verifies_ipa() {
    let (cs, pre, witness, instance) = mul_chain_setup();
    let params = params(Backend::Ipa, 5);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    verify_proof(&params, &pk.vk, &instance, &proof, &[], None).unwrap();
}

#[test]
fn wrong_public_input_rejected() {
    let (cs, pre, witness, instance) = mul_chain_setup();
    let params = params(Backend::Kzg, 6);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    let bad = vec![vec![instance[0][0] + Fr::one()]];
    assert!(verify_proof(&params, &pk.vk, &bad, &proof, &[], None).is_err());
}

#[test]
fn tampered_proof_rejected() {
    let (cs, pre, witness, instance) = mul_chain_setup();
    let params = params(Backend::Kzg, 6);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    // Flip one byte in each third of the proof; all must fail (either parse
    // or verification error).
    for pos in [10, proof.len() / 2, proof.len() - 10] {
        let mut bad = proof.clone();
        bad[pos] ^= 0x01;
        assert!(
            verify_proof(&params, &pk.vk, &instance, &bad, &[], None).is_err(),
            "tampering at {pos} was accepted"
        );
    }
}

#[test]
fn invalid_witness_fails_to_prove() {
    let (cs, pre, mut witness, _) = mul_chain_setup();
    // Break the copy constraint by corrupting c[2].
    witness.advice0[2].1[2] += Fr::one();
    let params = params(Backend::Kzg, 6);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    // The prover detects the unsatisfied permutation.
    assert!(create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty()
    )
    .is_err());
}

/// Circuit 2: lookup-based range check plus a ReLU-style (x, f(x)) table.
fn lookup_setup() -> (ConstraintSystem, Preprocessed, VecWitness) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let t_in = cs.fixed_column();
    let t_out = cs.fixed_column();
    let x = cs.advice_column(0);
    let y = cs.advice_column(0);
    // Table: (v, relu(v)) for v in -8..8 (signed via field negation).
    let mut tin = Vec::new();
    let mut tout = Vec::new();
    for v in -8i64..8 {
        tin.push(Fr::from_i64(v));
        tout.push(Fr::from_i64(v.max(0)));
    }
    // Lookup with the selector-gated default trick: row inactive => (t0_in,
    // t0_out) which is in the table.
    let d_in = tin[0];
    let d_out = tout[0];
    let qe = Expression::Fixed(q, Rotation::cur());
    let input0 = qe.clone() * (Expression::Advice(x, Rotation::cur()) - Expression::Constant(d_in))
        + Expression::Constant(d_in);
    let input1 = qe * (Expression::Advice(y, Rotation::cur()) - Expression::Constant(d_out))
        + Expression::Constant(d_out);
    cs.create_lookup(
        "relu",
        vec![input0, input1],
        vec![
            Expression::Fixed(t_in, Rotation::cur()),
            Expression::Fixed(t_out, Rotation::cur()),
        ],
    );

    // Witness: relu of a few signed values on active rows.
    let xs: Vec<i64> = vec![-5, 3, 0, 7, -1, -8, 6];
    let xv: Vec<Fr> = xs.iter().map(|v| Fr::from_i64(*v)).collect();
    let yv: Vec<Fr> = xs.iter().map(|v| Fr::from_i64((*v).max(0))).collect();
    let rows = xs.len();
    // Fixed columns: q enabled on those rows; the table itself, padded by
    // repeating the last entry across all usable rows at keygen... here the
    // table columns only hold 16 entries; remaining rows are zero, and zero
    // rows give the tuple (0, 0) which IS in the table (relu(0) = 0), so the
    // padding is safe for this test.
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::one(); rows], tin, tout],
        copies: vec![],
    };
    let witness = VecWitness::simple(vec![], vec![(x, xv), (y, yv)]);
    (cs, pre, witness)
}

#[test]
fn lookup_circuit_proves_and_verifies_both_backends() {
    let (cs, pre, witness) = lookup_setup();
    for backend in [Backend::Kzg, Backend::Ipa] {
        let params = params(backend, 7);
        let pk = keygen(&params, &cs, &pre, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let proof = create_proof_committed(
            &params,
            &pk,
            &witness,
            &mut rng,
            &[],
            &CommittedWeights::empty(),
        )
        .unwrap();
        verify_proof(&params, &pk.vk, &[], &proof, &[], None).unwrap_or_else(|e| {
            panic!("lookup circuit failed on {backend}: {e}");
        });
    }
}

#[test]
fn lookup_rejects_out_of_table_witness() {
    let (cs, pre, mut witness) = lookup_setup();
    // Claim relu(-5) = 5 (wrong: should be 0) -> tuple (-5, 5) not in table.
    witness.advice0[1].1[0] = Fr::from_u64(5);
    let params = params(Backend::Kzg, 7);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    assert!(create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty()
    )
    .is_err());
}

/// Circuit 3: multi-phase challenge. Phase-1 column must equal `challenge *
/// phase0_column` on each active row — the primitive behind Freivalds.
#[test]
fn challenge_phase_circuit() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a = cs.advice_column(0);
    let b = cs.advice_column(1);
    let chal = cs.challenge();
    cs.create_gate(
        "b = chi * a",
        vec![
            Expression::Fixed(q, Rotation::cur())
                * (Expression::Advice(b, Rotation::cur())
                    - Expression::Challenge(chal) * Expression::Advice(a, Rotation::cur())),
        ],
    );
    let rows = 5usize;
    let av: Vec<Fr> = (0..rows).map(|i| Fr::from_u64(i as u64 + 1)).collect();
    let av2 = av.clone();
    let witness = VecWitness {
        instance: vec![],
        advice0: vec![(a, av)],
        advice1: Box::new(move |challenges: &[Fr]| {
            let chi = challenges[0];
            vec![(1usize, av2.iter().map(|v| *v * chi).collect())]
        }),
    };
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::one(); rows]],
        copies: vec![],
    };
    let params = params(Backend::Kzg, 6);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    verify_proof(&params, &pk.vk, &[], &proof, &[], None).unwrap();

    // A phase-1 column that ignores the challenge must fail.
    let av3: Vec<Fr> = (0..rows).map(|i| Fr::from_u64(i as u64 + 1)).collect();
    let bad = VecWitness {
        instance: vec![],
        advice0: vec![(a, av3.clone())],
        advice1: Box::new(move |_| vec![(1usize, av3.clone())]),
    };
    let mut rng = StdRng::seed_from_u64(9);
    let result = create_proof_committed(
        &params,
        &pk,
        &bad,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    );
    // The prover does not self-check gates, so it emits a proof; the
    // verifier must reject it.
    if let Ok(p) = result {
        assert!(verify_proof(&params, &pk.vk, &[], &p, &[], None).is_err());
    }
}

/// Multi-row (rotation) gate: running-sum accumulator, the primitive behind
/// the multi-row ablation in Table 13 of the paper.
#[test]
fn multi_row_accumulator_circuit() {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let v = cs.advice_column(0);
    let acc = cs.advice_column(0);
    // q * (acc_next - acc - v) = 0.
    cs.create_gate(
        "running sum",
        vec![
            Expression::Fixed(q, Rotation::cur())
                * (Expression::Advice(acc, Rotation::next())
                    - Expression::Advice(acc, Rotation::cur())
                    - Expression::Advice(v, Rotation::cur())),
        ],
    );
    let rows = 6usize;
    let vals: Vec<Fr> = (0..rows).map(|i| Fr::from_u64(i as u64 * 3 + 1)).collect();
    let mut accs = vec![Fr::zero()];
    for x in &vals {
        let prev = *accs.last().unwrap();
        accs.push(prev + *x);
    }
    // q active on rows 0..rows; acc column has rows+1 values.
    let witness = VecWitness::simple(vec![], vec![(v, vals), (acc, accs)]);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::one(); rows]],
        copies: vec![],
    };
    let params = params(Backend::Kzg, 6);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    verify_proof(&params, &pk.vk, &[], &proof, &[], None).unwrap();
}
