//! Property tests for the proving system: random multiplication-chain
//! circuits prove and verify; random corruptions are rejected.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml_ff::{Fr, PrimeField};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{
    create_proof_committed, keygen, verify_proof, CellRef, Column, CommittedWeights,
    ConstraintSystem, Expression, Preprocessed, Rotation, WitnessSource,
};

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

/// Builds an affine-chain circuit: v_{i+1} = a_i * v_i + b_i with the final
/// value public, for arbitrary coefficient vectors.
fn affine_chain(
    coeffs: &[(u64, u64)],
    start: u64,
) -> (ConstraintSystem, Preprocessed, VecWitness, Fr) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let a = cs.advice_column(0);
    let b = cs.advice_column(0);
    let v = cs.advice_column(0);
    let out = cs.advice_column(0);
    let inst = cs.instance_column();
    cs.enable_equality(Column::Advice(v));
    cs.enable_equality(Column::Advice(out));
    cs.enable_equality(Column::Instance(inst));
    cs.create_gate(
        "affine",
        vec![
            Expression::Fixed(q, Rotation::cur())
                * (Expression::Advice(out, Rotation::cur())
                    - Expression::Advice(a, Rotation::cur())
                        * Expression::Advice(v, Rotation::cur())
                    - Expression::Advice(b, Rotation::cur())),
        ],
    );
    let mut av = Vec::new();
    let mut bv = Vec::new();
    let mut vv = Vec::new();
    let mut ov = Vec::new();
    let mut copies = Vec::new();
    let mut cur = Fr::from_u64(start);
    for (i, (ca, cb)) in coeffs.iter().enumerate() {
        av.push(Fr::from_u64(*ca));
        bv.push(Fr::from_u64(*cb));
        vv.push(cur);
        cur = Fr::from_u64(*ca) * cur + Fr::from_u64(*cb);
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
        advice: vec![(a, av), (b, bv), (v, vv), (out, ov)],
    };
    (cs, pre, witness, cur)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_affine_chains_prove_and_verify(
        coeffs in prop::collection::vec((1u64..1000, 0u64..1000), 1..50),
        start in 0u64..100,
    ) {
        let (cs, pre, witness, result) = affine_chain(&coeffs, start);
        let pk = keygen(params(), &cs, &pre, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(coeffs.len() as u64);
        let proof = create_proof_committed(params(), &pk, &witness, &mut rng, &[], &CommittedWeights::empty()).unwrap();
        verify_proof(params(), &pk.vk, &[vec![result]], &proof, &[], None).unwrap();
        // The wrong result must be rejected.
        prop_assert!(
            verify_proof(params(), &pk.vk, &[vec![result + Fr::ONE]], &proof, &[], None).is_err()
        );
    }

    #[test]
    fn random_byte_corruptions_rejected(
        coeffs in prop::collection::vec((1u64..50, 0u64..50), 2..10),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let (cs, pre, witness, result) = affine_chain(&coeffs, 3);
        let pk = keygen(params(), &cs, &pre, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let proof = create_proof_committed(params(), &pk, &witness, &mut rng, &[], &CommittedWeights::empty()).unwrap();
        let mut bad = proof.clone();
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert!(
            verify_proof(params(), &pk.vk, &[vec![result]], &bad, &[], None).is_err(),
            "corruption at byte {pos} bit {bit} accepted"
        );
    }
}
