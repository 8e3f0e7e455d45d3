//! Golden-vector regression tests for proof bytes.
//!
//! The whole proving pipeline — seeded SRS, keygen, transcript, seeded
//! prover randomness — is deterministic, so the byte output for a fixed
//! circuit and seed is a stable artifact. These tests pin it against
//! committed fixtures: any change to the transcript layout, commitment
//! serialization, or argument ordering shows up as a fixture diff and must
//! be a conscious decision (regenerate with `ZKML_REGEN_GOLDEN=1`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{
    create_proof_committed, keygen, verify_proof, CellRef, Column, CommittedWeights,
    ConstraintSystem, Expression, Preprocessed, Rotation, WitnessSource,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `ZKML_REGEN_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var("ZKML_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {path:?}; generate it with ZKML_REGEN_GOLDEN=1")
    });
    assert_eq!(
        expected.len(),
        actual.len(),
        "{name}: proof length changed ({} -> {}); regenerate with ZKML_REGEN_GOLDEN=1 \
         if the format change is intentional",
        expected.len(),
        actual.len()
    );
    let first_diff = expected.iter().zip(actual).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "{name}: proof bytes diverge from the golden fixture at offset {first_diff:?}; \
         regenerate with ZKML_REGEN_GOLDEN=1 if the change is intentional"
    );
}

/// Multiplication chain with copy constraints and a public output: rows
/// hold (a, b, c) under gate `q * (a*b - c) = 0`, row i+1's `a` copied
/// from row i's `c`, final product exposed through the instance column.
struct ChainWitness {
    instance: Vec<Vec<Fr>>,
    advice: Vec<(usize, Vec<Fr>)>,
}

impl WitnessSource for ChainWitness {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.instance.clone()
    }
    fn advice(&self, phase: u8, _challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        if phase == 0 {
            self.advice.clone()
        } else {
            Vec::new()
        }
    }
}

fn mul_chain() -> (ConstraintSystem, Preprocessed, ChainWitness, Vec<Vec<Fr>>) {
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

    let rows = 8usize;
    let (mut av, mut bv, mut cv) = (Vec::new(), Vec::new(), Vec::new());
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
    let witness = ChainWitness {
        instance: instance.clone(),
        advice: vec![(a, av), (b, bv), (c, cv)],
    };
    (cs, pre, witness, instance)
}

fn golden_proof(backend: Backend, k: u32) -> Vec<u8> {
    let (cs, pre, witness, instance) = mul_chain();
    let mut srs_rng = StdRng::seed_from_u64(0x601D);
    let params = Params::setup(backend, k, &mut srs_rng);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(0x601D_0001);
    let proof = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    // The fixture must never pin an invalid proof.
    verify_proof(&params, &pk.vk, &instance, &proof, &[], None).unwrap();

    // Determinism precondition: a second run from the same seeds must be
    // byte-identical, otherwise the golden comparison is meaningless.
    let mut rng2 = StdRng::seed_from_u64(0x601D_0001);
    let proof2 = create_proof_committed(
        &params,
        &pk,
        &witness,
        &mut rng2,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    assert_eq!(proof, proof2, "proof generation must be deterministic");
    proof
}

#[test]
fn mul_chain_proof_bytes_match_golden_kzg() {
    assert_golden("mul_chain_kzg.proof", &golden_proof(Backend::Kzg, 6));
}

#[test]
fn mul_chain_proof_bytes_match_golden_ipa() {
    assert_golden("mul_chain_ipa.proof", &golden_proof(Backend::Ipa, 5));
}
