//! In-place radix-2 decimation-in-time NTT with cached twiddle tables.
//!
//! The twiddle table (`1, ω, ω², …, ω^{n/2-1}`) is built once per domain via
//! [`build_twiddles`] and shared across every call through
//! [`fft_in_place_with`]; smaller stages stride through the same table, so
//! no call recomputes powers.
//!
//! Butterfly stages run in parallel on the `zkml-par` pool with fixed chunk
//! boundaries; every path computes the same exact field values regardless of
//! which thread runs it, so results are bit-identical at any thread count.

use zkml_ff::FftField;

/// Minimum transform size worth scheduling on the pool; below this the
/// butterflies are cheaper than task dispatch.
const PAR_FFT_MIN: usize = 4096;

/// Minimum elements per parallel chunk inside a stage.
const PAR_CHUNK_MIN: usize = 1024;

/// Reverses the low `bits` bits of `n`.
#[inline]
pub(crate) fn bitreverse(n: usize, bits: u32) -> usize {
    n.reverse_bits() >> (usize::BITS - bits)
}

/// Builds the twiddle table `1, ω, ω², …, ω^{n/2-1}` for a size-`n`
/// transform. Domains cache this and pass it to [`fft_in_place_with`].
///
/// This runs inside the domains' `OnceLock` twiddle-cache initializers, so it
/// must stay strictly serial: scheduling pool tasks from a `get_or_init`
/// closure lets the initializing thread help-steal a sibling task that hits
/// the same cold cache and re-enter the `OnceLock`, which deadlocks the pool.
/// The build is a one-time per-domain cost; caching, not parallelism, is
/// what makes it cheap.
pub fn build_twiddles<F: FftField>(omega: F, n: usize) -> Vec<F> {
    let mut tw = Vec::with_capacity(n / 2);
    let mut acc = F::one();
    for _ in 0..n / 2 {
        tw.push(acc);
        acc *= omega;
    }
    tw
}

/// One butterfly over paired `lo`/`hi` halves of a block, using twiddles
/// `twiddles[(offset + i) * stride]`.
#[inline]
fn butterfly<F: FftField>(
    lo: &mut [F],
    hi: &mut [F],
    twiddles: &[F],
    offset: usize,
    stride: usize,
) {
    for i in 0..lo.len() {
        let t = hi[i] * twiddles[(offset + i) * stride];
        let u = lo[i];
        lo[i] = u + t;
        hi[i] = u - t;
    }
}

/// Serial radix-2 core.
fn radix2_serial<F: FftField>(a: &mut [F], k: u32, twiddles: &[F]) {
    let n = a.len();
    if n == 1 {
        return;
    }
    for i in 0..n {
        let ri = bitreverse(i, k);
        if i < ri {
            a.swap(i, ri);
        }
    }
    let half = n / 2;
    let mut m = 1;
    while m < n {
        let stride = half / m;
        for start in (0..n).step_by(2 * m) {
            let (lo, hi) = a[start..start + 2 * m].split_at_mut(m);
            butterfly(lo, hi, twiddles, 0, stride);
        }
        m *= 2;
    }
}

/// Parallel radix-2 path (stage-level parallelism).
fn radix2_parallel<F: FftField>(a: &mut [F], k: u32, twiddles: &[F]) {
    let n = a.len();
    for i in 0..n {
        let ri = bitreverse(i, k);
        if i < ri {
            a.swap(i, ri);
        }
    }
    let half = n / 2;
    let mut m = 1;
    while m < n {
        let stride = half / m;
        if m <= n / 4 {
            // Many independent blocks: one task per group of blocks.
            let blocks: Vec<&mut [F]> = a.chunks_mut(2 * m).collect();
            let blocks_per_task = (PAR_CHUNK_MIN / (2 * m)).max(1);
            let mut grouped: Vec<Vec<&mut [F]>> = Vec::new();
            let mut iter = blocks.into_iter();
            loop {
                let group: Vec<&mut [F]> = iter.by_ref().take(blocks_per_task).collect();
                if group.is_empty() {
                    break;
                }
                grouped.push(group);
            }
            zkml_par::par_for_each_mut(&mut grouped, |_, group| {
                for block in group.iter_mut() {
                    let (lo, hi) = block.split_at_mut(m);
                    butterfly(lo, hi, twiddles, 0, stride);
                }
            });
        } else {
            // Few wide blocks (final stages): split each block's halves into
            // paired chunks and process the pairs in parallel.
            let mut pairs: Vec<(usize, &mut [F], &mut [F])> = Vec::new();
            for block in a.chunks_mut(2 * m) {
                let (lo, hi) = block.split_at_mut(m);
                for (off, (lc, hc)) in lo
                    .chunks_mut(PAR_CHUNK_MIN)
                    .zip(hi.chunks_mut(PAR_CHUNK_MIN))
                    .enumerate()
                {
                    pairs.push((off * PAR_CHUNK_MIN, lc, hc));
                }
            }
            zkml_par::par_for_each_mut(&mut pairs, |_, (offset, lc, hc)| {
                butterfly(lc, hc, twiddles, *offset, stride);
            });
        }
        m *= 2;
    }
}

/// Performs an in-place FFT of `a` (length `2^k`) using a precomputed
/// twiddle table from [`build_twiddles`].
///
/// # Panics
///
/// Panics if `a.len() != 2^k` or the table does not cover half the domain.
pub fn fft_in_place_with<F: FftField>(a: &mut [F], k: u32, twiddles: &[F]) {
    let n = a.len();
    assert_eq!(n, 1 << k, "fft length must equal 2^k");
    if n == 1 {
        return;
    }
    assert_eq!(
        twiddles.len(),
        n / 2,
        "twiddle table must cover half the domain"
    );
    if n >= PAR_FFT_MIN && zkml_par::current_threads() > 1 {
        radix2_parallel(a, k, twiddles);
    } else {
        radix2_serial(a, k, twiddles);
    }
}

/// Scales every element by `n_inv`, chunked across the pool.
fn scale_all<F: FftField>(a: &mut [F], n_inv: F) {
    if a.len() >= PAR_FFT_MIN && zkml_par::current_threads() > 1 {
        zkml_par::par_chunks_mut(a, PAR_CHUNK_MIN, |_, _, chunk| {
            for v in chunk.iter_mut() {
                *v *= n_inv;
            }
        });
    } else {
        for v in a.iter_mut() {
            *v *= n_inv;
        }
    }
}

/// Performs an in-place inverse FFT (includes the `1/n` scaling) using a
/// precomputed table of `omega_inv` powers.
pub(crate) fn ifft_in_place_with<F: FftField>(a: &mut [F], k: u32, inv_twiddles: &[F], n_inv: F) {
    fft_in_place_with(a, k, inv_twiddles);
    scale_all(a, n_inv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::{FftField, Field, Fr, PrimeField};

    fn omega_for(k: u32) -> Fr {
        let mut w = Fr::root_of_unity();
        for _ in 0..(Fr::TWO_ADICITY - k) {
            w = w.square();
        }
        w
    }

    fn fft(a: &mut [Fr], omega: Fr, k: u32) {
        fft_in_place_with(a, k, &build_twiddles(omega, a.len()));
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in 0..7u32 {
            let n = 1usize << k;
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let omega = omega_for(k);
            let mut evals = coeffs.clone();
            fft(&mut evals, omega, k);
            for (i, e) in evals.iter().enumerate() {
                // Naive evaluation at omega^i.
                let x = omega.pow(&[i as u64]);
                let mut acc = Fr::zero();
                for c in coeffs.iter().rev() {
                    acc = acc * x + *c;
                }
                assert_eq!(*e, acc, "k={k} i={i}");
            }
        }
    }

    /// Includes k=16, the extended-domain size of the largest zoo circuits.
    #[test]
    fn fft_ifft_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        for k in (0..10u32).chain([16]) {
            let n = 1usize << k;
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let omega = omega_for(k);
            let itw = build_twiddles(omega.invert().unwrap(), n);
            let n_inv = Fr::from_u64(n as u64).invert().unwrap();
            let mut work = coeffs.clone();
            fft(&mut work, omega, k);
            ifft_in_place_with(&mut work, k, &itw, n_inv);
            assert_eq!(work, coeffs, "k={k}");
        }
    }

    /// Large-enough transforms take the parallel path; the result must be
    /// bit-identical to the serial pool at every stage shape.
    #[test]
    fn parallel_path_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(3);
        for k in [12u32, 13, 16] {
            let n = 1usize << k;
            let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            let omega = omega_for(k);

            let serial = zkml_par::with_pool(&zkml_par::Pool::new(1), || {
                let mut v = coeffs.clone();
                fft(&mut v, omega, k);
                v
            });
            for threads in [2usize, 4] {
                let pool = zkml_par::Pool::new(threads);
                let par = zkml_par::with_pool(&pool, || {
                    let mut v = coeffs.clone();
                    fft(&mut v, omega, k);
                    v
                });
                assert_eq!(serial, par, "k={k} threads={threads}");
            }
        }
    }
}
