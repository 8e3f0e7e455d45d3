//! The MSM's window groups share their batch inversions: a uniform MSM pays
//! a few dozen, not one set per window. One test in its own binary, so no
//! concurrent MSM moves the process-wide counter between the reads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use zkml_curves::msm::batch_inversions;
use zkml_curves::{msm, G1Affine, G1Projective};
use zkml_ff::{Field, Fr};
use zkml_par::{with_pool, Pool};

fn uniform(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
    let g = G1Projective::generator();
    let bases = (0..n)
        .map(|_| g.mul_scalar(&Fr::random(&mut *rng)).to_affine())
        .collect();
    let scalars = (0..n).map(|_| Fr::random(&mut *rng)).collect();
    (bases, scalars)
}

/// Batch inversions one MSM performs on a pool of `threads`.
fn inversions(threads: usize, bases: &[G1Affine], scalars: &[Fr]) -> usize {
    with_pool(&Pool::new(threads), || {
        let before = batch_inversions();
        std::hint::black_box(msm(bases, scalars));
        batch_inversions() - before
    })
}

#[test]
fn window_groups_share_batch_inversions() {
    let mut rng = StdRng::seed_from_u64(32);
    // One scheduler round and one reduction step per window each used to
    // pay an inversion: 719 at 2^10, about 1 000 at 123 points.
    for (n, ceiling) in [(1usize << 10, 64), (123, 32)] {
        let (bases, scalars) = uniform(n, &mut rng);
        let serial = inversions(1, &bases, &scalars);
        assert!(
            serial <= ceiling,
            "n={n}: {serial} inversions, ceiling {ceiling}"
        );
        let two = inversions(2, &bases, &scalars);
        assert!(
            two <= 2 * serial,
            "n={n}: {two} inversions on 2 threads, {serial} serial"
        );
    }
}
