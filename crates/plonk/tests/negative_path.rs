//! Negative-path verifier tests: corrupt each section of a serialized proof
//! and assert both backends reject without panicking; malformed public
//! inputs must also reject cleanly, and so must every single-byte mutation
//! of the serialized verifying key.
//!
//! The proof layout mirrors the transcript schedule (see `prover.rs`):
//! advice commitments | lookup permuted a/s pairs | permutation grand
//! products | lookup grand products | quotient pieces | evaluations |
//! backend-specific opening argument. Section offsets are computed from the
//! constraint system so every section gets hit regardless of circuit size.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml_ff::{Field, Fr, PrimeField};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{
    create_proof_committed, keygen, opening_plan, verify_proof, CellRef, Column, CommittedWeights,
    ConstraintSystem, Expression, Preprocessed, Rotation, VerifyingKey, WitnessSource,
};

struct VecWitness {
    instance: Vec<Vec<Fr>>,
    advice0: Vec<(usize, Vec<Fr>)>,
}

impl WitnessSource for VecWitness {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.instance.clone()
    }
    fn advice(&self, phase: u8, _challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        if phase == 0 {
            self.advice0.clone()
        } else {
            Vec::new()
        }
    }
}

/// Multiplication chain with copy constraints and a public output
/// (exercises the advice, permutation-Z, quotient, eval, and opening
/// sections).
fn mul_chain() -> (ConstraintSystem, Preprocessed, VecWitness, Vec<Vec<Fr>>) {
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
    let witness = VecWitness {
        instance: instance.clone(),
        advice0: vec![(a, av), (b, bv), (c, cv)],
    };
    (cs, pre, witness, instance)
}

/// Range/ReLU lookup circuit (exercises the lookup a/s and lookup-Z
/// sections).
fn lookup_circuit() -> (ConstraintSystem, Preprocessed, VecWitness) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let t_in = cs.fixed_column();
    let t_out = cs.fixed_column();
    let x = cs.advice_column(0);
    let y = cs.advice_column(0);
    let (mut tin, mut tout) = (Vec::new(), Vec::new());
    for v in -8i64..8 {
        tin.push(Fr::from_i64(v));
        tout.push(Fr::from_i64(v.max(0)));
    }
    let (d_in, d_out) = (tin[0], tout[0]);
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
    let xs: Vec<i64> = vec![-5, 3, 0, 7, -1, -8, 6];
    let xv: Vec<Fr> = xs.iter().map(|v| Fr::from_i64(*v)).collect();
    let yv: Vec<Fr> = xs.iter().map(|v| Fr::from_i64((*v).max(0))).collect();
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::one(); xs.len()], tin, tout],
        copies: vec![],
    };
    let witness = VecWitness {
        instance: vec![],
        advice0: vec![(x, xv), (y, yv)],
    };
    (cs, pre, witness)
}

/// Named byte ranges of a serialized proof, derived from the constraint
/// system (32 bytes per commitment/scalar; the opening argument is the
/// backend-specific remainder).
fn sections(cs: &ConstraintSystem, k: u32, proof_len: usize) -> Vec<(&'static str, usize, usize)> {
    let n = 1usize << k;
    let usable = cs.usable_rows(n);
    let factor = (cs.degree() - 1).next_power_of_two();
    let plan = opening_plan(cs, usable, factor);
    let sizes = [
        ("advice commitments", cs.num_advice * 32),
        ("lookup a/s commitments", cs.lookups.len() * 2 * 32),
        ("permutation grand products", cs.permutation_z_count() * 32),
        ("lookup grand products", cs.lookups.len() * 32),
        ("quotient pieces", factor * 32),
        ("evaluations", plan.len() * 32),
    ];
    let mut out = Vec::new();
    let mut pos = 0;
    for (name, len) in sizes {
        out.push((name, pos, pos + len));
        pos += len;
    }
    assert!(
        pos < proof_len,
        "proof too short for the fixed sections ({pos} >= {proof_len})"
    );
    out.push(("opening argument", pos, proof_len));
    out
}

fn prove(
    backend: Backend,
    params_k: u32,
    cs: &ConstraintSystem,
    pre: &Preprocessed,
    witness: &VecWitness,
) -> (Params, zkml_plonk::ProvingKey, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(999);
    let params = Params::setup(backend, params_k, &mut rng);
    let pk = keygen(&params, cs, pre, 5).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let proof = create_proof_committed(
        &params,
        &pk,
        witness,
        &mut rng,
        &[],
        &CommittedWeights::empty(),
    )
    .unwrap();
    (params, pk, proof)
}

fn assert_all_sections_reject(
    backend: Backend,
    params_k: u32,
    cs: &ConstraintSystem,
    pre: &Preprocessed,
    witness: &VecWitness,
    instance: &[Vec<Fr>],
) {
    let (params, pk, proof) = prove(backend, params_k, cs, pre, witness);
    verify_proof(&params, &pk.vk, instance, &proof, &[], None).unwrap();
    for (name, start, end) in sections(cs, 5, proof.len()) {
        if start == end {
            continue;
        }
        // Corrupt a byte in the middle of the section.
        let mut bad = proof.clone();
        let pos = start + (end - start) / 2;
        bad[pos] ^= 0x2a;
        assert!(
            verify_proof(&params, &pk.vk, instance, &bad, &[], None).is_err(),
            "{backend}: corrupting '{name}' (byte {pos}) was accepted"
        );
        // Truncate the proof at the section start: must be a clean read
        // error, not a panic.
        let truncated = proof[..start].to_vec();
        assert!(
            verify_proof(&params, &pk.vk, instance, &truncated, &[], None).is_err(),
            "{backend}: truncation before '{name}' was accepted"
        );
    }
}

#[test]
fn corrupted_sections_rejected_mul_chain_kzg() {
    let (cs, pre, witness, instance) = mul_chain();
    assert_all_sections_reject(Backend::Kzg, 6, &cs, &pre, &witness, &instance);
}

#[test]
fn corrupted_sections_rejected_mul_chain_ipa() {
    let (cs, pre, witness, instance) = mul_chain();
    assert_all_sections_reject(Backend::Ipa, 5, &cs, &pre, &witness, &instance);
}

#[test]
fn corrupted_sections_rejected_lookup_kzg() {
    let (cs, pre, witness) = lookup_circuit();
    assert_all_sections_reject(Backend::Kzg, 7, &cs, &pre, &witness, &[]);
}

#[test]
fn corrupted_sections_rejected_lookup_ipa() {
    let (cs, pre, witness) = lookup_circuit();
    assert_all_sections_reject(Backend::Ipa, 5, &cs, &pre, &witness, &[]);
}

#[test]
fn empty_and_garbage_proofs_rejected() {
    let (cs, pre, witness, instance) = mul_chain();
    let (params, pk, proof) = prove(Backend::Kzg, 6, &cs, &pre, &witness);
    assert!(verify_proof(&params, &pk.vk, &instance, &[], &[], None).is_err());
    assert!(verify_proof(&params, &pk.vk, &instance, &[0u8; 7], &[], None).is_err());
    let garbage: Vec<u8> = (0..proof.len()).map(|i| (i * 37 + 11) as u8).collect();
    assert!(verify_proof(&params, &pk.vk, &instance, &garbage, &[], None).is_err());
}

#[test]
fn malformed_public_instances_rejected() {
    let (cs, pre, witness, instance) = mul_chain();
    let (params, pk, proof) = prove(Backend::Kzg, 6, &cs, &pre, &witness);
    verify_proof(&params, &pk.vk, &instance, &proof, &[], None).unwrap();

    // Wrong public value.
    let wrong = vec![vec![instance[0][0] + Fr::one()]];
    assert!(verify_proof(&params, &pk.vk, &wrong, &proof, &[], None).is_err());

    // Truncated: the instance column missing entirely.
    assert!(verify_proof(&params, &pk.vk, &[], &proof, &[], None).is_err());
    let empty_col: Vec<Vec<Fr>> = vec![vec![]];
    assert!(verify_proof(&params, &pk.vk, &empty_col, &proof, &[], None).is_err());

    // Extra instance column.
    let extra = vec![instance[0].clone(), vec![Fr::one()]];
    assert!(verify_proof(&params, &pk.vk, &extra, &proof, &[], None).is_err());

    // Instance column longer than the usable rows.
    let n = 1usize << 5;
    let overlong = vec![vec![Fr::one(); n]];
    assert!(verify_proof(&params, &pk.vk, &overlong, &proof, &[], None).is_err());
}

/// A verifying key is attacker-controlled bytes (it rides inside bundles and
/// proof directories). Flipping the low and the high bit of every byte must
/// end in a parse error or a rejected proof, never a panic. A mutation that
/// is accepted may only have touched what the verifier never reads: gate and
/// lookup labels, and the unused high bytes of tag and rotation words, all
/// of which re-serialize to the original bytes once the labels are restored.
fn assert_vk_mutations_handled(
    backend: Backend,
    params_k: u32,
    cs: &ConstraintSystem,
    pre: &Preprocessed,
    witness: &VecWitness,
    instance: &[Vec<Fr>],
) {
    let (params, pk, proof) = prove(backend, params_k, cs, pre, witness);
    let bytes = pk.vk.to_bytes();
    for pos in 0..bytes.len() {
        for mask in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[pos] ^= mask;
            let Ok(mut vk) = VerifyingKey::from_bytes(&bad) else {
                continue;
            };
            if verify_proof(&params, &vk, instance, &proof, &[], None).is_err() {
                continue;
            }
            for (g, orig) in vk.cs.gates.iter_mut().zip(&pk.vk.cs.gates) {
                g.name.clone_from(&orig.name);
            }
            for (l, orig) in vk.cs.lookups.iter_mut().zip(&pk.vk.cs.lookups) {
                l.name.clone_from(&orig.name);
            }
            assert_eq!(
                vk.to_bytes(),
                bytes,
                "{backend}: accepted a verifying key mutated at byte {pos} (mask {mask:#04x})"
            );
        }
    }
}

#[test]
fn mutated_verifying_keys_never_panic() {
    let (cs, pre, witness, instance) = mul_chain();
    assert_vk_mutations_handled(Backend::Kzg, 6, &cs, &pre, &witness, &instance);
    assert_vk_mutations_handled(Backend::Ipa, 5, &cs, &pre, &witness, &instance);
    let (cs, pre, witness) = lookup_circuit();
    assert_vk_mutations_handled(Backend::Kzg, 7, &cs, &pre, &witness, &[]);
}
