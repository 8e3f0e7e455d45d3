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
    commit_weights, create_proof_committed, keygen, verify_proof, CellRef, Column,
    CommittedWeights, ConstraintSystem, Expression, Preprocessed, Rotation, WitnessSource,
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

fn cell(column: Column, row: usize) -> CellRef {
    CellRef { column, row }
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

/// A circuit that reaches every quotient term: a gate over phase-0
/// columns, a gate reading a phase-1 column through a challenge, five
/// equality columns (advice, instance and committed) in two permutation
/// chunks, and a two-column lookup whose input reads the previous row.
///
/// Rows hold `(a, b, c)` under `q * (a*b - c)` with row i+1's `a` copied
/// from row i's `c` and the last `c` exposed as the instance; `b` is copied
/// from the committed column `w`; `d = a + χ·b` in phase 1; and on rows
/// `1..rows` the lookup checks `(b[i-1], e[i])` against the table of
/// `(v, v²)` for `v < 16`.
struct AllTermsWitness {
    instance: Vec<Vec<Fr>>,
    phase0: Vec<(usize, Vec<Fr>)>,
    a: Vec<Fr>,
    b: Vec<Fr>,
    d: usize,
}

impl WitnessSource for AllTermsWitness {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.instance.clone()
    }
    fn advice(&self, phase: u8, challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        if phase == 0 {
            return self.phase0.clone();
        }
        let chi = challenges[0];
        let d = self
            .a
            .iter()
            .zip(&self.b)
            .map(|(a, b)| *a + chi * *b)
            .collect();
        vec![(self.d, d)]
    }
}

fn all_terms() -> (
    ConstraintSystem,
    Preprocessed,
    AllTermsWitness,
    Vec<Vec<Fr>>,
) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let q_lookup = cs.fixed_column();
    let t_value = cs.fixed_column();
    let t_square = cs.fixed_column();
    let a = cs.advice_column(0);
    let b = cs.advice_column(0);
    let c = cs.advice_column(0);
    let e = cs.advice_column(0);
    let d = cs.advice_column(1);
    let inst = cs.instance_column();
    let w = cs.committed_column();
    let chi = cs.challenge();
    for col in [
        Column::Advice(a),
        Column::Advice(c),
        Column::Instance(inst),
        Column::Committed(w),
        Column::Advice(b),
    ] {
        cs.enable_equality(col);
    }
    let cur = |col| Expression::Advice(col, Rotation::cur());
    let sel = |col| Expression::Fixed(col, Rotation::cur());
    cs.create_gate("mul", vec![sel(q) * (cur(a) * cur(b) - cur(c))]);
    cs.create_gate(
        "phase1",
        vec![sel(q) * (cur(d) - cur(a) - Expression::Challenge(chi) * cur(b))],
    );
    cs.create_lookup(
        "square",
        vec![
            sel(q_lookup) * Expression::Advice(b, Rotation::prev()),
            sel(q_lookup) * cur(e),
        ],
        vec![sel(t_value), sel(t_square)],
    );

    let rows = 8usize;
    let (mut av, mut bv, mut cv, mut ev) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut acc = Fr::from_u64(3);
    for i in 0..rows {
        let m = Fr::from_u64((i as u64 * 7 + 2) % 15 + 1);
        av.push(acc);
        bv.push(m);
        acc *= m;
        cv.push(acc);
        ev.push(if i == 0 {
            Fr::zero()
        } else {
            bv[i - 1].square()
        });
    }
    let mut copies: Vec<(CellRef, CellRef)> = (1..rows)
        .map(|i| (cell(Column::Advice(c), i - 1), cell(Column::Advice(a), i)))
        .collect();
    copies.push((
        cell(Column::Advice(c), rows - 1),
        cell(Column::Instance(inst), 0),
    ));
    copies.extend((0..rows).map(|i| (cell(Column::Committed(w), i), cell(Column::Advice(b), i))));
    let mut fixed = vec![vec![Fr::zero(); rows]; 4];
    fixed[q] = vec![Fr::one(); rows];
    fixed[q_lookup][1..].fill(Fr::one());
    fixed[t_value] = (0..16u64).map(Fr::from_u64).collect();
    fixed[t_square] = (0..16u64).map(|v| Fr::from_u64(v * v)).collect();
    let pre = Preprocessed {
        committed: vec![bv.clone()],
        fixed,
        copies,
    };
    let instance = vec![vec![acc]];
    let witness = AllTermsWitness {
        instance: instance.clone(),
        phase0: vec![(a, av.clone()), (b, bv.clone()), (c, cv), (e, ev)],
        a: av,
        b: bv,
        d,
    };
    (cs, pre, witness, instance)
}

fn all_terms_proof(backend: Backend, k: u32) -> Vec<u8> {
    let (cs, pre, witness, instance) = all_terms();
    assert_eq!(cs.permutation_z_count(), 2, "a chunk link must fire");
    let mut srs_rng = StdRng::seed_from_u64(0xA11);
    let params = Params::setup(backend, k, &mut srs_rng);
    let pk = keygen(&params, &cs, &pre, 5).unwrap();
    let (published, weights) = commit_weights(&params, &cs, &pre.committed, 5).unwrap();
    let prove = || {
        let mut rng = StdRng::seed_from_u64(0xA11_0001);
        create_proof_committed(&params, &pk, &witness, &mut rng, &[], &weights).unwrap()
    };
    let proof = prove();
    verify_proof(&params, &pk.vk, &instance, &proof, &[], Some(&published)).unwrap();
    assert_eq!(proof, prove(), "proof generation must be deterministic");
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

#[test]
fn all_terms_proof_bytes_match_golden_kzg() {
    assert_golden("all_terms_kzg.proof", &all_terms_proof(Backend::Kzg, 6));
}

#[test]
fn all_terms_proof_bytes_match_golden_ipa() {
    assert_golden("all_terms_ipa.proof", &all_terms_proof(Backend::Ipa, 5));
}
