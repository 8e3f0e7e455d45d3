//! The prover's peak live heap, counted by the global allocator.
//!
//! The quotient is built one coset of the extended domain at a time, so a
//! proof holds each of its polynomials at `n` points twice (coefficients,
//! and one coset's evaluations) and only `combined` at `n·factor`. This
//! binary counts every allocation, proves one fixed circuit, and pins the
//! high-water mark of the heap the prover adds on top of what was live
//! before it started (key, parameters, witness). A prover that extends its
//! polynomials to the whole `n·factor` coset at once needs about
//! `5·columns·n` field elements here and fails the bound.
//!
//! It is its own test binary because the counter is process-wide.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use zkml_ff::{Field, Fr};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{
    create_proof_committed, keygen, verify_proof, Column, CommittedWeights, ConstraintSystem,
    Expression, Preprocessed, Rotation, WitnessSource,
};

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(&self, bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const K: u32 = 10;
/// Pairs `(x, y)` of advice columns under `q·(x⁴ − y)`; every advice column
/// is equality-enabled, so the permutation adds `2·PAIRS / 3` grand products.
const PAIRS: usize = 12;

struct Witness {
    instance: Vec<Vec<Fr>>,
    advice: Vec<(usize, Vec<Fr>)>,
}

impl WitnessSource for Witness {
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

/// A degree-5 circuit (extension factor 4) of `2·PAIRS` advice columns.
fn fourth_powers(rows: usize) -> (ConstraintSystem, Preprocessed, Witness) {
    let mut cs = ConstraintSystem::new();
    let q = cs.fixed_column();
    let mut advice = Vec::new();
    let mut polys = Vec::new();
    for p in 0..PAIRS {
        let (x, y) = (cs.advice_column(0), cs.advice_column(0));
        cs.enable_equality(Column::Advice(x));
        cs.enable_equality(Column::Advice(y));
        let xe = Expression::Advice(x, Rotation::cur());
        polys.push(
            Expression::Fixed(q, Rotation::cur())
                * (xe.clone() * xe.clone() * xe.clone() * xe
                    - Expression::Advice(y, Rotation::cur())),
        );
        let xs: Vec<Fr> = (0..rows)
            .map(|i| Fr::from((p * rows + i) as u64 + 1))
            .collect();
        let ys = xs.iter().map(|v| v.square().square()).collect();
        advice.push((x, xs));
        advice.push((y, ys));
    }
    cs.create_gate("fourth", polys);
    let pre = Preprocessed {
        committed: Vec::new(),
        fixed: vec![vec![Fr::one(); rows]],
        copies: Vec::new(),
    };
    (
        cs,
        pre,
        Witness {
            instance: Vec::new(),
            advice,
        },
    )
}

#[test]
fn quotient_holds_one_coset_at_a_time() {
    let pool = zkml_par::Pool::new(2);
    let n = 1usize << K;
    let (cs, pre, witness) = fourth_powers(n - 16);
    let params = Params::setup(Backend::Kzg, K, &mut StdRng::seed_from_u64(1));
    let pk = keygen(&params, &cs, &pre, K).unwrap();
    assert_eq!(pk.domains.factor, 4);
    let columns = 2 * PAIRS + cs.permutation_z_count();

    let proof = zkml_par::with_pool(&pool, || {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let proof = create_proof_committed(
            &params,
            &pk,
            &witness,
            &mut StdRng::seed_from_u64(2),
            &[],
            &CommittedWeights::empty(),
        )
        .unwrap();
        let peak = PEAK.load(Ordering::Relaxed) - before;
        let elements = peak / std::mem::size_of::<Fr>();
        // Each polynomial twice at n (coefficients and one coset), and 24·n
        // for `combined`, the quotient pieces and the commitment scratch.
        let bound = (2 * columns + 24) * n;
        println!("prover peak {elements} field elements ({columns} columns, bound {bound})");
        assert!(
            elements <= bound,
            "the prover's peak live heap is {elements} field elements, over the bound \
             (2·{columns} + 24)·{n} = {bound}"
        );
        proof
    });
    verify_proof(&params, &pk.vk, &[], &proof, &[], None).unwrap();
}
