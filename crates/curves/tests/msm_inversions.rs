//! The MSM's process-wide work counters: window groups share their batch
//! inversions, so a uniform MSM pays a few dozen, not one set per window;
//! equal scalars share one base, so a grand-product column pays no collision
//! fallback. Its own binary, and the tests take one lock, so no concurrent
//! MSM moves a counter between the reads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use zkml_curves::msm::{batch_inversions, fallback_additions};
use zkml_curves::{msm, msm_naive, G1Affine, G1Projective};
use zkml_ff::{Field, Fr, PrimeField};
use zkml_par::{with_pool, Pool};

/// Held by every test while it reads the counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn random_bases(n: usize, rng: &mut StdRng) -> Vec<G1Affine> {
    let g = G1Projective::generator();
    (0..n)
        .map(|_| g.mul_scalar(&Fr::random(&mut *rng)).to_affine())
        .collect()
}

fn uniform(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
    let bases = random_bases(n, rng);
    let scalars = (0..n).map(|_| Fr::random(&mut *rng)).collect();
    (bases, scalars)
}

/// Batch inversions and fallback additions of one MSM on a pool of
/// `threads`, with its result.
fn counted(threads: usize, bases: &[G1Affine], scalars: &[Fr]) -> (usize, usize, G1Projective) {
    with_pool(&Pool::new(threads), || {
        let (inv, fell) = (batch_inversions(), fallback_additions());
        let sum = msm(bases, scalars);
        (batch_inversions() - inv, fallback_additions() - fell, sum)
    })
}

#[test]
fn window_groups_share_batch_inversions() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(32);
    // One scheduler round and one reduction step per window each used to
    // pay an inversion: 719 at 2^10, about 1 000 at 123 points.
    for (n, ceiling) in [(1usize << 10, 64), (123, 32)] {
        let (bases, scalars) = uniform(n, &mut rng);
        let (serial, _, _) = counted(1, &bases, &scalars);
        assert!(
            serial <= ceiling,
            "n={n}: {serial} inversions, ceiling {ceiling}"
        );
        let (two, _, _) = counted(2, &bases, &scalars);
        assert!(
            two <= 2 * serial,
            "n={n}: {two} inversions on 2 threads, {serial} serial"
        );
    }
}

/// A running product stands still wherever its factor is 1: one value on
/// 490 of 1 024 rows, five values on 50 rows each, the rest distinct. Each
/// repeat used to land in the same bucket of every window and reach the
/// Jacobian fallback; merged, the column pays none and stays under the
/// uniform MSM's inversion ceiling.
#[test]
fn grand_product_column_pays_no_fallback() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(33);
    let n = 1 << 10;
    let bases = random_bases(n, &mut rng);
    let plateau = Fr::random(&mut rng);
    let steps: Vec<Fr> = (0..5).map(|_| Fr::random(&mut rng)).collect();
    let mut column: Vec<Fr> = (0..n)
        .map(|i| match i {
            0..490 => plateau,
            490..740 => steps[(i - 490) / 50],
            _ => Fr::random(&mut rng),
        })
        .collect();
    // Scatter the runs over the rows (389 is odd, so this permutes 0..2^10).
    column = (0..n).map(|i| column[i * 389 % n]).collect();
    let want = msm_naive(&bases, &column);
    for threads in [1, 2] {
        let (inversions, fallback, got) = counted(threads, &bases, &column);
        assert_eq!(got, want, "threads={threads}");
        assert_eq!(fallback, 0, "threads={threads}: fallback additions");
        assert!(
            inversions <= 64,
            "threads={threads}: {inversions} inversions, ceiling 64"
        );
    }
}

/// Distinct scalars that share one window's digit cannot be merged: that
/// window's collisions outlast the scheduler's rounds and still reach the
/// fallback, which keeps the path tested.
#[test]
fn shared_digit_still_reaches_the_fallback() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(34);
    let n = 600;
    let bases = random_bases(n, &mut rng);
    // Unsigned 8-bit digits below 2^8 make every window of c = 9 see exactly
    // the digit written; window 2 sees 7 on every point.
    let c = 9;
    let scalars: Vec<Fr> = (0..n)
        .map(|_| {
            let mut acc = Fr::zero();
            for w in (0..240 / c).rev() {
                let d = if w == 2 {
                    7
                } else {
                    rand::RngCore::next_u64(&mut rng) % (1 << (c - 1))
                };
                acc = acc * Fr::from_u64(1 << c) + Fr::from_u64(d);
            }
            acc
        })
        .collect();
    let (_, fallback, got) = counted(1, &bases, &scalars);
    assert_eq!(got, msm_naive(&bases, &scalars));
    assert!(fallback > 0, "the shared digit must reach the fallback");
}
