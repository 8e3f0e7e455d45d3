//! Property tests for serialization: random constraint systems survive
//! `write_cs`/`read_cs`, and verifying/proving keys round-trip through
//! `to_bytes`/`from_bytes` — with a restored proving key still producing
//! proofs the original verifying key accepts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml_ff::{Fr, PrimeField};
use zkml_pcs::{Backend, Params, Reader, Writer};
use zkml_plonk::{
    create_proof_committed, keygen, read_cs, verify_proof, write_cs, CellRef, Column,
    CommittedWeights, ConstraintSystem, Expression, Gate, Lookup, Preprocessed, ProvingKey,
    Rotation, VerifyingKey, WitnessSource,
};

/// Deterministically builds an expression tree from a byte stream, covering
/// every `Expression` variant with bounded depth. Column/challenge indices
/// stay inside the counts `random_cs` declares.
fn build_expr(ops: &mut std::slice::Iter<'_, u8>, depth: usize) -> Expression {
    let Some(&op) = ops.next() else {
        return Expression::Constant(Fr::from_u64(5));
    };
    let idx = (op >> 4) as usize;
    let rot = Rotation((op as i32 % 3) - 1);
    let variant = if depth >= 5 { op % 5 } else { op % 9 };
    match variant {
        0 => Expression::Constant(Fr::from_u64(op as u64)),
        1 => Expression::Instance(idx % 2, rot),
        2 => Expression::Advice(idx % 4, rot),
        3 => Expression::Fixed(idx % 4, rot),
        4 => Expression::Challenge(idx % 2),
        5 => Expression::Neg(Box::new(build_expr(ops, depth + 1))),
        6 => Expression::Sum(
            Box::new(build_expr(ops, depth + 1)),
            Box::new(build_expr(ops, depth + 1)),
        ),
        7 => Expression::Product(
            Box::new(build_expr(ops, depth + 1)),
            Box::new(build_expr(ops, depth + 1)),
        ),
        _ => Expression::Scaled(
            Box::new(build_expr(ops, depth + 1)),
            Fr::from_u64(op as u64 + 1),
        ),
    }
}

/// Builds a constraint system the same way `read_cs` does — by populating
/// the public fields — so arbitrary gate/lookup shapes can be exercised
/// without the builder API's conveniences getting in the way.
fn random_cs(gates: &[Vec<u8>], lookups: &[(Vec<u8>, Vec<u8>)], perm_mask: u8) -> ConstraintSystem {
    let mut cs = ConstraintSystem::new();
    cs.num_instance = 2;
    cs.num_advice = 4;
    cs.num_fixed = 4;
    cs.num_challenges = 2;
    cs.advice_phase = vec![0, 0, 1, 1];
    for (i, ops) in gates.iter().enumerate() {
        cs.gates.push(Gate {
            name: format!("gate{i}"),
            polys: vec![build_expr(&mut ops.iter(), 0)],
        });
    }
    for (i, (inp, tab)) in lookups.iter().enumerate() {
        cs.lookups.push(Lookup {
            name: format!("lookup{i}"),
            inputs: vec![build_expr(&mut inp.iter(), 0)],
            table: vec![build_expr(&mut tab.iter(), 0)],
        });
    }
    for c in 0..4 {
        if perm_mask & (1 << c) != 0 {
            cs.permutation_columns.push(Column::Advice(c));
        }
    }
    if perm_mask & 0x10 != 0 {
        cs.permutation_columns.push(Column::Instance(0));
    }
    cs
}

struct VecWitness {
    instance: Vec<Vec<Fr>>,
    advice: Vec<(usize, Vec<Fr>)>,
}
impl WitnessSource for VecWitness {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.instance.clone()
    }
    fn advice(&self, _phase: u8, _ch: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        self.advice.clone()
    }
}

fn params() -> &'static Params {
    static P: std::sync::OnceLock<Params> = std::sync::OnceLock::new();
    P.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(77);
        Params::setup(Backend::Kzg, 7, &mut rng)
    })
}

/// A multiplication-chain circuit: out_i = a_i * v_i, copied forward, with
/// the final value public. Small enough to keygen and prove per test case.
fn mul_chain(coeffs: &[u64]) -> (ConstraintSystem, Preprocessed, VecWitness, Fr) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a = cs.advice_column(0);
    let v = cs.advice_column(0);
    let out = cs.advice_column(0);
    let inst = cs.instance_column();
    cs.enable_equality(Column::Advice(v));
    cs.enable_equality(Column::Advice(out));
    cs.enable_equality(Column::Instance(inst));
    cs.create_gate(
        "mul",
        vec![
            Expression::Fixed(q, Rotation::cur())
                * (Expression::Advice(out, Rotation::cur())
                    - Expression::Advice(a, Rotation::cur())
                        * Expression::Advice(v, Rotation::cur())),
        ],
    );
    let mut av = Vec::new();
    let mut vv = Vec::new();
    let mut ov = Vec::new();
    let mut copies = Vec::new();
    let mut cur = Fr::from_u64(2);
    for (i, c) in coeffs.iter().enumerate() {
        av.push(Fr::from_u64(*c));
        vv.push(cur);
        cur *= Fr::from_u64(*c);
        ov.push(cur);
        if i > 0 {
            copies.push((
                CellRef {
                    column: Column::Advice(out),
                    row: i - 1,
                },
                CellRef {
                    column: Column::Advice(v),
                    row: i,
                },
            ));
        }
    }
    copies.push((
        CellRef {
            column: Column::Advice(out),
            row: coeffs.len() - 1,
        },
        CellRef {
            column: Column::Instance(inst),
            row: 0,
        },
    ));
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::ONE; coeffs.len()]],
        copies,
    };
    let witness = VecWitness {
        instance: vec![vec![cur]],
        advice: vec![(a, av), (v, vv), (out, ov)],
    };
    (cs, pre, witness, cur)
}

fn assert_cs_eq(a: &ConstraintSystem, b: &ConstraintSystem) {
    assert_eq!(a.num_instance, b.num_instance);
    assert_eq!(a.num_advice, b.num_advice);
    assert_eq!(a.num_fixed, b.num_fixed);
    assert_eq!(a.num_challenges, b.num_challenges);
    assert_eq!(a.advice_phase, b.advice_phase);
    assert_eq!(a.gates.len(), b.gates.len());
    for (ga, gb) in a.gates.iter().zip(&b.gates) {
        assert_eq!(ga.name, gb.name);
        assert_eq!(ga.polys, gb.polys);
    }
    assert_eq!(a.lookups.len(), b.lookups.len());
    for (la, lb) in a.lookups.iter().zip(&b.lookups) {
        assert_eq!(la.name, lb.name);
        assert_eq!(la.inputs, lb.inputs);
        assert_eq!(la.table, lb.table);
    }
    assert_eq!(a.permutation_columns, b.permutation_columns);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_cs_roundtrips(
        gates in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..24), 0..4),
        lookup_in in prop::collection::vec(any::<u8>(), 1..12),
        lookup_tab in prop::collection::vec(any::<u8>(), 1..12),
        perm_mask in 0u8..32,
    ) {
        let lookups = [(lookup_in, lookup_tab)];
        let cs = random_cs(&gates, &lookups, perm_mask);
        let mut w = Writer::new();
        write_cs(&mut w, &cs);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let back = read_cs(&mut r).unwrap();
        prop_assert!(r.is_exhausted());
        assert_cs_eq(&cs, &back);
        // The encoding itself is canonical: re-serializing is byte-identical.
        let mut w2 = Writer::new();
        write_cs(&mut w2, &back);
        prop_assert_eq!(w2.finish(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn vk_bytes_roundtrip(coeffs in prop::collection::vec(1u64..1000, 1..40)) {
        let (cs, pre, _witness, _result) = mul_chain(&coeffs);
        let pk = keygen(params(), &cs, &pre, 7).unwrap();
        let bytes = pk.vk.to_bytes();
        let back = VerifyingKey::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.k, pk.vk.k);
        prop_assert_eq!(&back.digest[..], &pk.vk.digest[..]);
        prop_assert_eq!(&back.fixed_commitments, &pk.vk.fixed_commitments);
        prop_assert_eq!(&back.sigma_commitments, &pk.vk.sigma_commitments);
        assert_cs_eq(&back.cs, &pk.vk.cs);
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn pk_bytes_roundtrip_and_restored_key_proves(
        coeffs in prop::collection::vec(1u64..1000, 2..20),
    ) {
        let (cs, pre, witness, result) = mul_chain(&coeffs);
        let pk = keygen(params(), &cs, &pre, 7).unwrap();
        let bytes = pk.to_bytes();
        let restored = ProvingKey::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&restored.vk.digest[..], &pk.vk.digest[..]);
        prop_assert_eq!(&restored.fixed_values, &pk.fixed_values);
        prop_assert_eq!(&restored.sigma_values, &pk.sigma_values);
        // The recomputed derived tables match the originals exactly.
        prop_assert_eq!(&restored.fixed_ext, &pk.fixed_ext);
        prop_assert_eq!(&restored.sigma_ext, &pk.sigma_ext);
        prop_assert_eq!(&restored.l0_ext, &pk.l0_ext);
        // A proof from the restored key verifies under the *original* vk.
        let mut rng = StdRng::seed_from_u64(coeffs.len() as u64);
        let proof = create_proof_committed(params(), &restored, &witness, &mut rng, &[], &CommittedWeights::empty()).unwrap();
        verify_proof(params(), &pk.vk, &[vec![result]], &proof, &[], None).unwrap();
        prop_assert!(
            verify_proof(params(), &pk.vk, &[vec![result + Fr::ONE]], &proof, &[], None).is_err()
        );
    }
}

#[test]
fn truncated_pk_rejected() {
    let (cs, pre, _witness, _result) = mul_chain(&[3, 5, 7]);
    let pk = keygen(params(), &cs, &pre, 7).unwrap();
    let bytes = pk.to_bytes();
    for cut in [1usize, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            ProvingKey::from_bytes(&bytes[..cut]).is_err(),
            "accepted truncation at {cut}"
        );
    }
    let mut trailing = bytes;
    trailing.push(0);
    assert!(ProvingKey::from_bytes(&trailing).is_err());
}
