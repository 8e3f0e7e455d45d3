//! Shared harness for the multi-thread scaling study.
//!
//! Used by the `scaling` bench target (which regenerates `BENCH_PAR.json`)
//! and by the `perf_smoke` binary (the fast CI gate in `scripts/check.sh`).
//! All measurements run on *explicit* `zkml_par::Pool`s — the old runner
//! inherited the global pool, whose size comes from `ZKML_THREADS` /
//! `nproc`, so on a single-core container every recorded row was
//! `threads: 1` and the sweep never actually swept.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use zkml_curves::{G1Affine, G1Projective};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_plonk::{
    CellRef, Column, ConstraintSystem, Expression, Preprocessed, Rotation, WitnessSource,
};

/// MSM inputs of size `2^k`: a small pool of distinct points, cycled (cheap
/// to set up, same MSM cost), with *uniform* scalars. Uniformity matters:
/// digit statistics (bucket occupancy, collision rate) drive both kernels'
/// costs, and sequential/mock scalars skew them badly.
pub fn msm_inputs(k: u32) -> (Vec<G1Affine>, Vec<Fr>) {
    let mut rng = StdRng::seed_from_u64(7777);
    let n = 1usize << k;
    let g = G1Projective::generator();
    let uniq: Vec<G1Affine> = (0..64)
        .map(|_| g.mul_scalar(&Fr::random(&mut rng)).to_affine())
        .collect();
    let bases: Vec<G1Affine> = (0..n).map(|i| uniq[i % 64]).collect();
    let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    (bases, scalars)
}

/// The unsigned-window, Jacobian-bucket Pippenger kernel that `msm`'s
/// batch-affine one replaced: the yardstick of the scaling study's
/// `msm_jacobian` rows and of `perf_smoke`'s `min_msm_kernel_ratio`. Its
/// windows run in parallel on the current pool.
pub fn msm_jacobian(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len(), "msm length mismatch");
    let c = match bases.len() {
        0..=63 => 3,
        64..=127 => 4,
        128..=1023 => 7,
        1024..=8191 => 10,
        8192..=65535 => 12,
        65536..=524287 => 14,
        _ => 16,
    };
    let repr: Vec<[u64; 4]> = scalars.iter().map(|s| s.to_canonical()).collect();
    // The `c`-bit digit of a canonical scalar starting at `bit` (< 254).
    let digit = |s: &[u64; 4], bit: usize| {
        let (limb, shift) = (bit / 64, bit % 64);
        let mut v = s[limb] >> shift;
        if shift + c > 64 && limb + 1 < 4 {
            v |= s[limb + 1] << (64 - shift);
        }
        (v as usize) & ((1 << c) - 1)
    };
    let window_sums = zkml_par::par_map(254usize.div_ceil(c), |w| {
        let mut buckets = vec![G1Projective::identity(); (1 << c) - 1];
        for (base, s) in bases.iter().zip(&repr) {
            let d = digit(s, w * c);
            if d != 0 && !base.is_identity() {
                buckets[d - 1] = buckets[d - 1].add_affine(base);
            }
        }
        let (mut running, mut acc) = (G1Projective::identity(), G1Projective::identity());
        for b in buckets.iter().rev() {
            running += *b;
            acc += running;
        }
        acc
    });
    window_sums
        .iter()
        .rev()
        .fold(G1Projective::identity(), |acc, ws| {
            (0..c).fold(acc, |acc, _| acc.double()) + *ws
        })
}

/// Times `f` under `pool`: one warmup, then the median of `reps` runs, in
/// milliseconds, along with the last result (for cross-pool identity
/// checks without an extra run).
pub fn time_with_pool<R>(pool: &zkml_par::Pool, reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    zkml_par::with_pool(pool, || {
        std::hint::black_box(f());
        for _ in 0..reps {
            let t = Instant::now();
            let out = std::hint::black_box(f());
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(out);
        }
    });
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (samples[samples.len() / 2], last.expect("reps >= 1"))
}

/// A fixed witness provider backed by plain vectors (phase 0 only).
pub struct VecWitness {
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

/// A synthetic full-prover workload at `2^k` rows.
pub struct ChainCircuit {
    pub cs: ConstraintSystem,
    pub pre: Preprocessed,
    pub witness: VecWitness,
    pub instance: Vec<Vec<Fr>>,
}

/// Builds a multiplication-chain circuit filling every usable row of a
/// `2^k` grid: three advice columns under `q * (a*b - c) = 0`, row `i+1`'s
/// `a` copied from row `i`'s `c`, and the final product exposed through the
/// instance column. This exercises every prover phase at full width —
/// column iFFTs and commitments, the permutation grand product over four
/// equality-enabled columns, the quotient pass, and the multi-open.
pub fn mul_chain(k: u32) -> ChainCircuit {
    let n = 1usize << k;
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

    let rows = cs.usable_rows(n);
    let mut av = Vec::with_capacity(rows);
    let mut bv = Vec::with_capacity(rows);
    let mut cv = Vec::with_capacity(rows);
    let mut acc = Fr::from_u64(3);
    for i in 0..rows {
        let m = Fr::from_u64((i % 251) as u64 + 2);
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
    ChainCircuit {
        cs,
        pre,
        witness,
        instance,
    }
}

/// Number of hardware cores visible to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

/// Writes `rows` (JSON objects, one per line) to `BENCH_PAR.json` at the
/// repository root.
pub fn write_bench_par(rows: &[String]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PAR.json");
    let body = format!("[\n  {}\n]\n", rows.join(",\n  "));
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: could not write BENCH_PAR.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_pcs::{Backend, Params};
    use zkml_plonk::{create_proof_committed, keygen, verify_proof, CommittedWeights};

    /// The yardstick sums what `msm` sums, from few points to many.
    #[test]
    fn jacobian_yardstick_is_the_msm() {
        for k in [4u32, 10] {
            let (bases, scalars) = msm_inputs(k);
            let want = zkml_curves::msm(&bases, &scalars);
            assert_eq!(msm_jacobian(&bases, &scalars), want, "k={k}");
        }
    }

    /// The synthetic scaling circuit proves and verifies at a small k.
    #[test]
    fn mul_chain_roundtrip() {
        let k = 6u32;
        let mut rng = StdRng::seed_from_u64(5);
        let params = Params::setup(Backend::Kzg, k, &mut rng);
        let c = mul_chain(k);
        let pk = keygen(&params, &c.cs, &c.pre, k).expect("keygen");
        let proof = create_proof_committed(
            &params,
            &pk,
            &c.witness,
            &mut rng,
            &[],
            &CommittedWeights::empty(),
        )
        .expect("prove");
        verify_proof(&params, &pk.vk, &c.instance, &proof, &[], None).expect("verify");
    }
}
