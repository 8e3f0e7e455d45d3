//! Multi-scalar multiplication via Pippenger's bucket method.
//!
//! The default kernel ([`msm`]) uses **signed-digit windows** — digits in
//! `[-(2^(c-1) - 1), 2^(c-1)]`, which halve the bucket count relative to the
//! unsigned method because `-d * P = d * (-P)` and negating an affine point
//! is free — and accumulates buckets with **batch-affine additions**: a
//! scheduler collects independent bucket additions into rounds and resolves
//! each round with one Montgomery batch inversion, so an addition costs ~6
//! field multiplications instead of a full Jacobian mixed addition (~13). A
//! point whose bucket is already scheduled in the current round is deferred
//! to the next round; pathological streams that keep colliding (e.g. every
//! point in one bucket of a window) fall back to Jacobian accumulation after
//! `MAX_SCHED_ROUNDS` rounds, bounding the worst case at the old kernel's
//! cost.
//!
//! The kernel is **width-aware**. Each scalar is first normalised to the
//! smaller of `s` and `p − s` (a negative one adds the negated base, through
//! the same sign flag negative digits use), and only the windows the widest
//! normalised scalar needs are built — a column of 13-bit fixed-point values
//! costs 2 windows at `c = 9`, not 29. A few much wider outliers among small
//! scalars (a witness column's random blinding rows) are summed on their own
//! so they do not force every window back in (`bulk_width`). Uniform
//! scalars normalise to 253 bits and take exactly the windows they always
//! did.
//!
//! Windows run in **groups that share their inversions**: the windows are
//! split into contiguous groups, one per zkml-par pool thread but none over
//! `GROUP_BUCKETS` buckets, and a group runs one scheduler over the
//! concatenated buckets of its windows and reduces them in lockstep, so each
//! scheduler round and each reduction step pays one batch inversion for the
//! whole group instead of one per window. A uniform 2^10 MSM pays about 30
//! inversions instead of 719; at large `n` one window fills its batches
//! alone and is a group of its own. Groups run in parallel on the pool. The
//! split depends on the thread count, but every group's sums are exact
//! group elements, so the result — and therefore every commitment and proof
//! byte downstream — is identical at any thread count.
//!
//! **Equal scalars share one base.** Before any window is built, equal
//! magnitudes are grouped: the bases of a magnitude that repeats are summed
//! once with Jacobian additions (a scalar normalised from `p − s` adds the
//! negated base) and one batch conversion to affine, and the windows run
//! over the distinct magnitudes only — `Σ sᵢ·Gᵢ = Σ_s s·(Σ_{sᵢ=s} Gᵢ)` is the
//! same group element. A grand product stands still on every row whose
//! factor is 1, so its column repeats one value on hundreds of rows;
//! unmerged, every repeat lands in the same bucket of every window, runs the
//! scheduler through all `MAX_SCHED_ROUNDS` and ends in the Jacobian
//! fallback. Without repeats the step is one sort of `(low limb, index)`
//! pairs. What still reaches the fallback is a stream of distinct scalars
//! that share one window's digit ([`fallback_additions`] counts it).
//!
//! The previous unsigned Jacobian kernel lives on in the bench crate
//! (`zkml_bench::scaling::msm_jacobian`) as the yardstick of the scaling
//! study and `perf_smoke`; the tests here compare against [`msm_naive`].

use crate::g1::{G1Affine, G1Projective};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use zkml_ff::arith::{lt, sbb};
use zkml_ff::{batch_invert_with_scratch, Field, Fq, Fr, PrimeField};
use zkml_par as par;

/// Points below which the bucket method loses to the naive sum: with `n`
/// points Pippenger still touches `254/c` windows of buckets each, so for
/// tiny inputs the setup dwarfs the saved additions. Since the windows share
/// their batch inversions the bucket method wins from 16 points on (see the
/// `probe_window_bits` perf test).
const NAIVE_CUTOFF: usize = 16;

/// Batch-affine additions resolved per batch inversion. Large enough to
/// amortize the single field inversion (~1 inversion ≈ 250 muls) to noise,
/// small enough that the entry buffer stays cache-resident.
const BATCH_ADDS: usize = 2048;

/// Bucket budget of one window group: the windows of a group share one
/// scheduler, so each round and each reduction step pays one batch
/// inversion for all of them, and this caps the group's bucket array so it
/// stays cache-resident. A window with at least this many buckets fills its
/// batches alone and is a group of its own.
const GROUP_BUCKETS: usize = 8192;

/// Count of the kernel's batch inversions in this process: scheduler rounds
/// plus reduction steps, the per-round cost window groups share.
static BATCH_INVERSIONS: AtomicUsize = AtomicUsize::new(0);

/// Total batch inversions [`msm`] has performed so far in this process.
pub fn batch_inversions() -> usize {
    BATCH_INVERSIONS.load(Ordering::Relaxed)
}

/// Count of [`msm`] calls in this process, and of the points they summed.
static MSM_CALLS: AtomicUsize = AtomicUsize::new(0);
static MSM_POINTS: AtomicUsize = AtomicUsize::new(0);

/// Total [`msm`] calls so far in this process.
pub fn msm_calls() -> usize {
    MSM_CALLS.load(Ordering::Relaxed)
}

/// Total points passed to [`msm`] so far in this process.
pub fn msm_points() -> usize {
    MSM_POINTS.load(Ordering::Relaxed)
}

/// Count of the scheduler entries this process absorbed with Jacobian
/// additions after `MAX_SCHED_ROUNDS` deferral rounds.
static FALLBACK_ADDITIONS: AtomicUsize = AtomicUsize::new(0);

/// Total entries [`msm`]'s collision fallback has absorbed so far in this
/// process.
pub fn fallback_additions() -> usize {
    FALLBACK_ADDITIONS.load(Ordering::Relaxed)
}

/// Scheduler rounds before heavily-colliding leftovers fall back to Jacobian
/// accumulation. Random inputs clear their collisions in 2–3 rounds; only
/// adversarial streams (thousands of hits on one bucket) reach the cap.
const MAX_SCHED_ROUNDS: usize = 16;

/// Selects the bucket window width for an MSM of `n` points.
///
/// Tuned against the batch-affine kernel (see the `probe_window_bits` perf
/// test): signed digits halve the bucket count and batch-affine additions
/// make per-point work cheap relative to the `2^(c-1)` bucket reduction, so
/// the optimum sits near `log2(n) - 1`, one to two bits wider than the old
/// Jacobian-tuned table.
fn window_bits(n: usize) -> usize {
    match n {
        0..=127 => 4,
        128..=255 => 6,
        256..=511 => 8,
        512..=2047 => 9,
        2048..=8191 => 11,
        8192..=32767 => 12,
        32768..=131071 => 14,
        131072..=524287 => 15,
        _ => 16,
    }
}

/// Extracts the unsigned `c`-bit digit of `scalar` starting at `bit`
/// (windows past the top of the scalar read as zero).
fn digit(scalar: &[u64; 4], bit: usize, c: usize) -> usize {
    let limb = bit / 64;
    if limb >= 4 {
        return 0;
    }
    let shift = bit % 64;
    let mut v = scalar[limb] >> shift;
    if shift + c > 64 && limb + 1 < 4 {
        v |= scalar[limb + 1] << (64 - shift);
    }
    (v as usize) & ((1 << c) - 1)
}

/// The smaller of `s` and `p − s` as canonical limbs, and whether it is the
/// negation. Magnitudes are at most `(p − 1) / 2`, so below `2^253`.
fn signed_magnitude(s: &Fr) -> ([u64; 4], bool) {
    let repr = s.to_canonical();
    // p − s limb by limb; s < p, so the last borrow is zero.
    let mut neg = [0u64; 4];
    let mut borrow = 0;
    for i in 0..4 {
        (neg[i], borrow) = sbb(Fr::MODULUS[i], repr[i], borrow);
    }
    if lt(&neg, &repr) {
        (neg, true)
    } else {
        (repr, false)
    }
}

/// Number of significant bits of a 256-bit magnitude.
fn bit_len(m: &[u64; 4]) -> usize {
    (0..4)
        .rev()
        .find(|&i| m[i] != 0)
        .map_or(0, |i| 64 * (i + 1) - m[i].leading_zeros() as usize)
}

/// Largest share of the scalars (one in this many) that may be set aside as
/// outliers when the rest are much narrower.
const OUTLIER_SHARE: usize = 32;

/// Picks the bit width the windows cover from the histogram of magnitude
/// widths: the widest scalar's, unless at most `n / OUTLIER_SHARE` scalars
/// are wider than all the rest and leaving them out at least halves the
/// window count — then the width of the rest, and the outliers are summed
/// separately. Returns the width and the number of outliers.
///
/// The halving condition keeps the split out of the way where it cannot pay:
/// uniform scalars have a third of their mass in the top bit and never split.
fn bulk_width(hist: &[usize; 254], n: usize, c: usize) -> (usize, usize) {
    let widest = hist.iter().rposition(|&h| h != 0).unwrap_or(0);
    let mut bits = widest;
    let mut wide = 0;
    while bits > 0 && (wide + hist[bits]) * OUTLIER_SHARE <= n {
        wide += hist[bits];
        bits -= 1;
    }
    if 2 * num_windows(bits, c) <= num_windows(widest, c) {
        (bits, wide)
    } else {
        (widest, 0)
    }
}

/// Number of signed `c`-bit windows covering magnitudes of at most `bits`
/// bits. The final carry folds into the top window: `bits / c + 1` windows
/// leave the top one `bits % c <= c - 1` significant bits, so its digit plus
/// the carry never exceeds `2^(c-1)` and no extra window is needed. At the
/// normalised maximum of 253 bits this is `ceil(254 / c)` for every `c`.
fn num_windows(bits: usize, c: usize) -> usize {
    bits / c + 1
}

/// Writes the signed-digit decomposition of one magnitude into `out` (length
/// `num_windows(bits, c)` for a magnitude of at most `bits` bits): digits are
/// in `[-(2^(c-1) - 1), 2^(c-1)]` and satisfy
/// `sum_w out[w] * 2^(w*c) == magnitude`. All windows but the last are signed;
/// the last absorbs the carry unsigned (see [`num_windows`]).
fn decompose_signed(repr: &[u64; 4], c: usize, out: &mut [i32]) {
    let half = 1i64 << (c - 1);
    let full = 1i64 << c;
    let mut carry = 0i64;
    let last = out.len() - 1;
    for (w, slot) in out.iter_mut().enumerate().take(last) {
        let raw = digit(repr, w * c, c) as i64 + carry;
        let d = if raw > half {
            carry = 1;
            raw - full
        } else {
            carry = 0;
            raw
        };
        *slot = d as i32;
    }
    let top = digit(repr, last * c, c) as i64 + carry;
    debug_assert!(top <= half, "top digit {top} exceeds bucket range");
    out[last] = top as i32;
}

/// Sign flag packed into a scheduler entry's base-index word: set means the
/// addend is the negated base (the digit was negative).
const SIGN_BIT: u32 = 1 << 31;

/// Materializes the addend a packed entry refers to.
#[inline]
fn addend(bases: &[G1Affine], code: u32) -> G1Affine {
    let base = bases[(code & !SIGN_BIT) as usize];
    if code & SIGN_BIT != 0 {
        base.negate()
    } else {
        base
    }
}

/// Batch-affine bucket accumulator of one window group.
///
/// Scheduled additions are stored as packed `(bucket, base index | sign)`
/// pairs — 8 bytes instead of two point copies — and resolved by reading the
/// bucket and base arrays directly: within one batch a bucket appears at
/// most once, so its value at resolve time is its value at schedule time.
struct Scheduler {
    /// Bucket values; `infinity` marks an empty bucket.
    buckets: Vec<G1Affine>,
    /// Round stamp per bucket: `busy[b] == round` means bucket `b` already
    /// has a pending addition in the current round.
    busy: Vec<u32>,
    round: u32,
    entries: Vec<(u32, u32)>,
    /// Entries whose bucket was busy; re-queued next round.
    deferred: Vec<(u32, u32)>,
    /// Denominators for the round's batch inversion.
    dens: Vec<Fq>,
    /// Prefix-product scratch reused across inversions.
    scratch: Vec<Fq>,
}

impl Scheduler {
    fn new(nbuckets: usize) -> Self {
        Self {
            buckets: vec![G1Affine::identity(); nbuckets],
            busy: vec![0; nbuckets],
            round: 1,
            entries: Vec::with_capacity(BATCH_ADDS),
            deferred: Vec::new(),
            dens: Vec::with_capacity(BATCH_ADDS),
            scratch: Vec::with_capacity(BATCH_ADDS),
        }
    }

    /// Adds the packed entry `code` into bucket `b`: direct fill if the
    /// bucket is empty, a scheduled batch addition if it is occupied and
    /// free this round, deferred otherwise.
    #[inline]
    fn push(&mut self, b: u32, code: u32, bases: &[G1Affine]) {
        if self.busy[b as usize] == self.round {
            self.deferred.push((b, code));
            return;
        }
        if self.buckets[b as usize].infinity {
            // Direct fill needs no field math; the bucket stays schedulable
            // this round (resolution reads the filled value).
            self.buckets[b as usize] = addend(bases, code);
        } else {
            self.busy[b as usize] = self.round;
            self.entries.push((b, code));
            if self.entries.len() >= BATCH_ADDS {
                self.flush(bases);
            }
        }
    }

    /// Resolves all pending additions with one batch inversion and starts a
    /// new round.
    fn flush(&mut self, bases: &[G1Affine]) {
        if self.entries.is_empty() {
            self.round += 1;
            return;
        }
        self.dens.clear();
        for &(b, code) in &self.entries {
            let cur = &self.buckets[b as usize];
            let base = &bases[(code & !SIGN_BIT) as usize];
            let den = if cur.x != base.x {
                base.x - cur.x
            } else {
                let add_y = if code & SIGN_BIT != 0 {
                    -base.y
                } else {
                    base.y
                };
                if cur.y == add_y {
                    // Doubling: divide by 2y (never zero — G1 has odd prime
                    // order, so no affine point has y = 0).
                    cur.y.double()
                } else {
                    // P + (-P): the result is the identity; keep the batch
                    // inversion free of zeros with a placeholder.
                    Fq::ONE
                }
            };
            self.dens.push(den);
        }
        batch_invert_with_scratch(&mut self.dens, &mut self.scratch);
        BATCH_INVERSIONS.fetch_add(1, Ordering::Relaxed);
        for (&(b, code), den_inv) in self.entries.iter().zip(self.dens.iter()) {
            let out = &mut self.buckets[b as usize];
            let base = &bases[(code & !SIGN_BIT) as usize];
            let add_y = if code & SIGN_BIT != 0 {
                -base.y
            } else {
                base.y
            };
            if out.x != base.x {
                let lambda = (add_y - out.y) * *den_inv;
                let x3 = lambda.square() - out.x - base.x;
                out.y = lambda * (out.x - x3) - out.y;
                out.x = x3;
            } else if out.y == add_y {
                let xx = out.x.square();
                let lambda = (xx + xx + xx) * *den_inv;
                let x3 = lambda.square() - out.x.double();
                out.y = lambda * (out.x - x3) - out.y;
                out.x = x3;
            } else {
                *out = G1Affine::identity();
            }
        }
        self.entries.clear();
        self.round += 1;
    }
}

/// Denominator of the general affine addition `a + b`: the value whose
/// inverse the resolved formulas need, or a placeholder `1` when no division
/// happens (identity operand or exact cancellation).
#[inline]
fn affine_den(a: &G1Affine, b: &G1Affine) -> Fq {
    if a.infinity || b.infinity {
        return Fq::ONE;
    }
    if a.x != b.x {
        return b.x - a.x;
    }
    if a.y == b.y {
        // Doubling: 2y, never zero on an odd-prime-order curve.
        return a.y.double();
    }
    Fq::ONE
}

/// Resolves the general affine addition `a + b` given the batch-inverted
/// denominator from [`affine_den`].
#[inline]
fn affine_add_resolved(a: &G1Affine, b: &G1Affine, inv: &Fq) -> G1Affine {
    if b.infinity {
        return *a;
    }
    if a.infinity {
        return *b;
    }
    if a.x != b.x {
        let lambda = (b.y - a.y) * *inv;
        let x3 = lambda.square() - a.x - b.x;
        G1Affine {
            x: x3,
            y: lambda * (a.x - x3) - a.y,
            infinity: false,
        }
    } else if a.y == b.y {
        let xx = a.x.square();
        let lambda = (xx + xx + xx) * *inv;
        let x3 = lambda.square() - a.x.double();
        G1Affine {
            x: x3,
            y: lambda * (a.x - x3) - a.y,
            infinity: false,
        }
    } else {
        G1Affine::identity()
    }
}

/// Batch-affine running-sum reduction of several windows at once: for each
/// bucket array `b` of `windows` (all of one length `m`),
/// `sum_j (j+1) * b[j]`.
///
/// Each window's buckets split into `K` interleaved chains — chain `g` owns
/// buckets `{g, g+K, g+2K, ...}` so each step reads one contiguous row — and
/// every step advances all chains of all windows by one plain-sum and one
/// weighted-sum affine addition: `2K` independent additions per window, all
/// sharing a single batch inversion, versus one Jacobian mixed plus one full
/// addition per bucket serially. With `W_g` / `P_g` the per-chain weighted /
/// plain sums, the identity `sum_j (j+1) B_j = K * sum_g W_g + sum_g (g+1) P_g`
/// recombines each window's chains with ~3K Jacobian operations.
fn reduce_buckets(
    windows: &[&[G1Affine]],
    dens: &mut Vec<Fq>,
    scratch: &mut Vec<Fq>,
) -> Vec<G1Projective> {
    let m = windows[0].len();
    let k = (m / 16).clamp(8, 256).min(m);
    debug_assert_eq!(m % k, 0, "chain count must divide the bucket count");
    let chains = windows.len() * k;
    let mut w = vec![G1Affine::identity(); chains];
    let mut p = vec![G1Affine::identity(); chains];
    for u in (0..m / k).rev() {
        let rows = || windows.iter().flat_map(|b| &b[u * k..(u + 1) * k]);
        dens.clear();
        dens.extend(w.iter().zip(&p).map(|(wg, pg)| affine_den(wg, pg)));
        dens.extend(p.iter().zip(rows()).map(|(pg, bg)| affine_den(pg, bg)));
        batch_invert_with_scratch(dens, scratch);
        BATCH_INVERSIONS.fetch_add(1, Ordering::Relaxed);
        // W before P: the weighted chain must read this step's pre-update
        // plain sum (W += P_old; P += B), which is what makes
        // W_g + P_g = sum_u (u+1) B_{uK+g} hold.
        for ((wg, pg), inv) in w.iter_mut().zip(&p).zip(&dens[..chains]) {
            *wg = affine_add_resolved(wg, pg, inv);
        }
        for ((pg, bg), inv) in p.iter_mut().zip(rows()).zip(&dens[chains..]) {
            *pg = affine_add_resolved(pg, bg, inv);
        }
    }
    w.chunks_exact(k)
        .zip(p.chunks_exact(k))
        .map(|(w, p)| {
            let mut s1 = G1Projective::identity();
            for wg in w {
                s1 = s1.add_affine(wg);
            }
            let mut run = G1Projective::identity();
            let mut s2 = G1Projective::identity();
            for pg in p.iter().rev() {
                run = run.add_affine(pg);
                s2 += run;
            }
            for _ in 0..k.trailing_zeros() {
                s1 = s1.double();
            }
            s1 + s2
        })
        .collect()
}

/// Splits the batch windows `0..nwin` into contiguous groups of sizes that
/// differ by at most one: one group per pool thread, or the next multiple of
/// the thread count where a group would otherwise hold over `GROUP_BUCKETS`
/// buckets — at large `n` one window fills a batch on its own and is its own
/// group. The split depends only on `(nwin, c, threads)`, and any split
/// gives the same sum.
fn window_groups(nwin: usize, c: usize, threads: usize) -> Vec<Range<usize>> {
    let per_group = (GROUP_BUCKETS >> (c - 1)).max(1);
    let count = (nwin.div_ceil(per_group).div_ceil(threads) * threads).min(nwin);
    (0..count)
        .map(|g| g * nwin / count..(g + 1) * nwin / count)
        .collect()
}

/// Accumulates the windows `ws` in one batch-affine scheduler over their
/// concatenated buckets (window `ws.start + j` owns buckets
/// `j * 2^(c-1) ..`), so every round pays one batch inversion for all of
/// them, then reduces their buckets in lockstep. Returns one sum per window.
/// `digits` is the scalar-major digit table: window `w`'s digit for point
/// `i` is `digits[i * nwin + w]`.
fn group_sums(
    bases: &[G1Affine],
    digits: &[i32],
    ws: Range<usize>,
    nwin: usize,
    c: usize,
) -> Vec<G1Projective> {
    let m = 1usize << (c - 1);
    let mut sched = Scheduler::new(ws.len() * m);
    for (i, (base, row)) in bases.iter().zip(digits.chunks_exact(nwin)).enumerate() {
        if base.infinity {
            continue;
        }
        for (j, &d) in row[ws.clone()].iter().enumerate() {
            if d == 0 {
                continue;
            }
            let b = (j * m) as u32 + d.unsigned_abs() - 1;
            let code = i as u32 | if d < 0 { SIGN_BIT } else { 0 };
            sched.push(b, code, bases);
        }
    }
    sched.flush(bases);
    let mut rounds = 0;
    while !sched.deferred.is_empty() && rounds < MAX_SCHED_ROUNDS {
        rounds += 1;
        let queue = std::mem::take(&mut sched.deferred);
        for (b, code) in queue {
            sched.push(b, code, bases);
        }
        sched.flush(bases);
    }
    // Collision fallback: anything still deferred after the round cap is a
    // degenerate stream hammering few buckets — absorb it with plain
    // Jacobian mixed additions, and note which windows it touched.
    let mut jac: Vec<G1Projective> = Vec::new();
    let mut fell_back = vec![false; ws.len()];
    if !sched.deferred.is_empty() {
        FALLBACK_ADDITIONS.fetch_add(sched.deferred.len(), Ordering::Relaxed);
        jac = vec![G1Projective::identity(); ws.len() * m];
        for (b, code) in sched.deferred.drain(..) {
            jac[b as usize] = jac[b as usize].add_affine(&addend(bases, code));
            fell_back[b as usize / m] = true;
        }
    }

    // Running-sum trick: sum_j (j+1) * bucket_j. Windows without fallback
    // share the batch-affine chain reduction; small bucket sets and windows
    // that needed the fallback merge both bucket sets serially.
    let batched = |j: usize| m >= 128 && !fell_back[j];
    let buckets: Vec<&[G1Affine]> = sched.buckets.chunks_exact(m).collect();
    let rows: Vec<&[G1Affine]> = (0..ws.len())
        .filter(|&j| batched(j))
        .map(|j| buckets[j])
        .collect();
    let mut reduced = if rows.is_empty() {
        Vec::new()
    } else {
        reduce_buckets(&rows, &mut sched.dens, &mut sched.scratch)
    }
    .into_iter();
    (0..ws.len())
        .map(|j| {
            if batched(j) {
                return reduced.next().expect("one reduced sum per batched window");
            }
            let jac = jac.get(j * m..(j + 1) * m).unwrap_or(&[]);
            let mut running = G1Projective::identity();
            let mut acc = G1Projective::identity();
            for b in (0..m).rev() {
                running = running.add_affine(&buckets[j][b]);
                if let Some(p) = jac.get(b) {
                    if !p.is_identity() {
                        running += *p;
                    }
                }
                acc += running;
            }
            acc
        })
        .collect()
}

/// Accumulates the top (carry-fold) window with plain Jacobian buckets.
///
/// The top window's digits span only `topbits` significant bits plus the
/// carry, so for large inputs its few buckets collide on nearly every point
/// and the batch-affine scheduler degrades into deferral churn; the classic
/// Jacobian walk has no collision concept and is faster there.
fn window_sum_top(
    bases: &[G1Affine],
    digits: &[i32],
    w: usize,
    nwin: usize,
    topbits: usize,
) -> G1Projective {
    // Magnitudes lie in [0, 2^topbits], so 2^topbits buckets indexed by
    // |d| - 1; the sign is the scalar's (a negated scalar negates the base).
    let nbuckets = 1usize << topbits;
    let mut buckets = vec![G1Projective::identity(); nbuckets];
    for (base, d) in bases.iter().zip(digits[w..].iter().step_by(nwin)) {
        let d = *d;
        if d == 0 || base.infinity {
            continue;
        }
        let b = d.unsigned_abs() as usize - 1;
        let addend = if d < 0 { base.negate() } else { *base };
        buckets[b] = buckets[b].add_affine(&addend);
    }
    let mut running = G1Projective::identity();
    let mut acc = G1Projective::identity();
    for b in buckets.iter().rev() {
        running += *b;
        acc += running;
    }
    acc
}

/// Sums every window of an `n`-point digit table: the carry-fold top window
/// of a large MSM on its own Jacobian task, the rest in window groups that
/// share their batch inversions, all tasks on the zkml-par pool. `topbits`
/// is the number of magnitude bits the top window holds. Returns the window
/// sums in window order.
fn window_sums(
    bases: &[G1Affine],
    digits: &[i32],
    nwin: usize,
    c: usize,
    topbits: usize,
) -> Vec<G1Projective> {
    // Route the top window to the Jacobian walk once the expected hits per
    // top bucket (n / 2^topbits) would drown a scheduler in deferral rounds.
    let top_jacobian = bases.len() >= (8usize << topbits);
    let nbatch = nwin - usize::from(top_jacobian);
    let groups = window_groups(nbatch, c, par::current_threads());
    let sums: Vec<Vec<G1Projective>> =
        par::par_map(groups.len() + usize::from(top_jacobian), |t| {
            match groups.get(t) {
                Some(ws) => group_sums(bases, digits, ws.clone(), nwin, c),
                None => vec![window_sum_top(bases, digits, nwin - 1, nwin, topbits)],
            }
        });
    sums.into_iter().flatten().collect()
}

/// Computes `sum_i scalars[i] * bases[i]` with signed-digit windows and
/// batch-affine bucket accumulation; window groups are processed in
/// parallel, equal scalars share one summed base, and only as many windows
/// as the distinct signed magnitudes need are built.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn msm(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len(), "msm length mismatch");
    let n = bases.len();
    MSM_CALLS.fetch_add(1, Ordering::Relaxed);
    MSM_POINTS.fetch_add(n, Ordering::Relaxed);
    if n == 0 {
        return G1Projective::identity();
    }
    if n < NAIVE_CUTOFF {
        return msm_naive(bases, scalars);
    }
    assert!(
        n < (1 << 31),
        "msm: scheduler entries pack the index in 31 bits"
    );
    let mut mags = vec![([0u64; 4], false); n];
    par::par_chunks_mut(&mut mags, 1024, |_, start, chunk| {
        for (m, s) in chunk.iter_mut().zip(&scalars[start..]) {
            *m = signed_magnitude(s);
        }
    });
    match merge_equal(bases, &mags) {
        Some((bases, mags)) => msm_signed(&bases, mags),
        None => msm_signed(bases, mags),
    }
}

/// A scalar as its signed magnitude: the smaller of `s` and `p − s`, and
/// whether it is the negation (see [`signed_magnitude`]).
type Signed = ([u64; 4], bool);

/// Sums the bases of every repeated magnitude once, so the windows see each
/// distinct magnitude once: `sum_i s_i * G_i = sum_s s * (sum_{s_i = s} ±G_i)`,
/// where a scalar normalised from `p − s` adds its negated base. Returns the
/// distinct entries in index order — a repeated magnitude at its first
/// index, positive, on its summed base — without zero scalars, identity
/// bases or sums that cancel to the identity; `None` when no magnitude
/// repeats, and the caller keeps its input.
///
/// Grouping sorts `(low limb, index)` pairs and confirms equality on the
/// full limbs, so a uniform MSM pays one sort of `n` small pairs.
fn merge_equal(bases: &[G1Affine], mags: &[Signed]) -> Option<(Vec<G1Affine>, Vec<Signed>)> {
    let mut keys: Vec<(u64, u32)> = (0..bases.len())
        .filter(|&i| !bases[i].infinity && mags[i].0 != [0; 4])
        .map(|i| (mags[i].0[0], i as u32))
        .collect();
    let full = |k: &(u64, u32)| mags[k.1 as usize].0;
    // The full limbs are read only where the low limbs tie.
    keys.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| full(a).cmp(&full(b)))
            .then(a.1.cmp(&b.1))
    });
    // One run per repeated magnitude, lowest index first.
    let runs: Vec<&[(u64, u32)]> = keys
        .chunk_by(|a, b| a.0 == b.0 && full(a) == full(b))
        .filter(|run| run.len() > 1)
        .collect();
    if runs.is_empty() {
        return None;
    }

    let sums: Vec<G1Projective> = par::par_map(runs.len(), |r| {
        runs[r]
            .iter()
            .fold(G1Projective::identity(), |acc, &(_, i)| {
                let sign = if mags[i as usize].1 { SIGN_BIT } else { 0 };
                acc.add_affine(&addend(bases, i | sign))
            })
    });
    // Each index keeps its own entry, its run's sum (first index) or none.
    let mut kept: Vec<Option<(G1Affine, Signed)>> = vec![None; bases.len()];
    for &(_, i) in &keys {
        kept[i as usize] = Some((bases[i as usize], mags[i as usize]));
    }
    for (run, sum) in runs.iter().zip(G1Projective::batch_to_affine(&sums)) {
        for &(_, i) in *run {
            kept[i as usize] = None;
        }
        let first = run[0].1 as usize;
        if !sum.infinity {
            kept[first] = Some((sum, (mags[first].0, false)));
        }
    }
    Some(kept.into_iter().flatten().unzip())
}

/// [`msm`] over signed magnitudes: builds the windows the magnitudes need,
/// sums the few wide outliers apart, and falls back to the naive sum below
/// `NAIVE_CUTOFF` entries.
fn msm_signed(bases: &[G1Affine], mags: Vec<Signed>) -> G1Projective {
    let n = bases.len();
    if n < NAIVE_CUTOFF {
        return naive_signed(bases, &mags);
    }
    let c = window_bits(n);
    let mut hist = [0usize; 254];
    for (m, _) in &mags {
        hist[bit_len(m)] += 1;
    }
    let (bits, wide) = bulk_width(&hist, n, c);

    // The outliers' sum first, so the magnitudes can go before the windows
    // are accumulated.
    let outliers = if wide > 0 {
        let (wide_bases, wide_mags): (Vec<G1Affine>, Vec<Signed>) = (0..n)
            .filter(|&i| bit_len(&mags[i].0) > bits)
            .map(|i| (bases[i], mags[i]))
            .unzip();
        msm_signed(&wide_bases, wide_mags)
    } else {
        G1Projective::identity()
    };
    if bits == 0 {
        return outliers;
    }

    let nwin = num_windows(bits, c);
    // Scalar-major signed-digit table: digits[i * nwin + w]. Decomposition
    // parallelizes over disjoint per-scalar rows; a window group reads its
    // columns of each row contiguously. An outlier's row stays zero.
    let mut digits = vec![0i32; n * nwin];
    par::for_each_chunk_exact(&mut digits, 1024 * nwin, |_, start, rows| {
        let first = start / nwin;
        for (row, (m, neg)) in rows.chunks_exact_mut(nwin).zip(&mags[first..]) {
            if bit_len(m) > bits {
                continue;
            }
            decompose_signed(m, c, row);
            if *neg {
                row.iter_mut().for_each(|d| *d = -*d);
            }
        }
    });
    drop(mags);

    let topbits = bits - (nwin - 1) * c;
    // Combine: acc = sum_w 2^(w*c) * window_sums[w].
    let mut acc = G1Projective::identity();
    for ws in window_sums(bases, &digits, nwin, c, topbits).iter().rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        acc += *ws;
    }
    acc + outliers
}

/// Naive MSM (reference for tests, and the kernel for tiny inputs): a
/// bit-serial double-and-add over the scalars' signed magnitudes.
pub fn msm_naive(bases: &[G1Affine], scalars: &[Fr]) -> G1Projective {
    assert_eq!(bases.len(), scalars.len());
    let mags: Vec<Signed> = scalars.iter().map(signed_magnitude).collect();
    naive_signed(bases, &mags)
}

/// Bit-serial double-and-add over signed magnitudes with the doublings
/// shared by all points, so each extra point costs only its additions: the
/// kernel for fewer than `NAIVE_CUTOFF` entries, before or after equal
/// scalars are merged, and for the few wide outliers [`msm`] sets aside.
fn naive_signed(bases: &[G1Affine], mags: &[Signed]) -> G1Projective {
    let top = mags.iter().map(|(m, _)| bit_len(m)).max().unwrap_or(0);
    let mut acc = G1Projective::identity();
    for bit in (0..top).rev() {
        acc = acc.double();
        for (base, (m, neg)) in bases.iter().zip(mags) {
            if (m[bit / 64] >> (bit % 64)) & 1 == 1 {
                acc = acc.add_affine(&if *neg { base.negate() } else { *base });
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zkml_ff::Field;

    fn random_points(n: usize, rng: &mut StdRng) -> (Vec<G1Affine>, Vec<Fr>) {
        let g = G1Projective::generator();
        let pts: Vec<G1Affine> = (0..n)
            .map(|_| g.mul_scalar(&Fr::random(rng)).to_affine())
            .collect();
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
        (pts, scalars)
    }

    #[test]
    fn matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(40);
        for n in [1usize, 2, 3, 17, 64, 130] {
            let (pts, scalars) = random_points(n, &mut rng);
            assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars), "n={n}");
        }
    }

    #[test]
    fn handles_zero_scalars_and_identity_points() {
        let mut rng = StdRng::seed_from_u64(41);
        let (mut pts, mut scalars) = random_points(10, &mut rng);
        scalars[3] = Fr::zero();
        pts[7] = G1Affine::identity();
        assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars));
    }

    /// Adversarial inputs above the naive cutoff: zero scalars, identity
    /// points, tiny scalars (digit 1 in window 0 only), and scalar pairs
    /// `s, -s` on the same base (forces the `P + (-P)` cancellation branch).
    #[test]
    fn adversarial_inputs_match_naive() {
        let mut rng = StdRng::seed_from_u64(45);
        let (mut pts, mut scalars) = random_points(96, &mut rng);
        scalars[0] = Fr::zero();
        scalars[1] = Fr::one();
        scalars[2] = Fr::from_u64(2);
        pts[3] = G1Affine::identity();
        // Same base with s and -s: bucket hits that cancel exactly.
        pts[10] = pts[11];
        scalars[11] = -scalars[10];
        // Same base with equal scalars: forces the in-batch doubling branch.
        pts[20] = pts[21];
        scalars[21] = scalars[20];
        assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars));
    }

    /// Every point with the same base and scalar: the merge sums the bases
    /// into one entry before any window is built (without it every point
    /// would land in the same bucket of every window and reach the Jacobian
    /// fallback) — the result must still be exact.
    #[test]
    fn all_same_base_and_scalar_collision_storm() {
        let mut rng = StdRng::seed_from_u64(46);
        let base = G1Projective::generator()
            .mul_scalar(&Fr::random(&mut rng))
            .to_affine();
        let s = Fr::random(&mut rng);
        let n = 200;
        let pts = vec![base; n];
        let scalars = vec![s; n];
        assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars));
        // And all-same-base with distinct scalars (colliding buckets only
        // sometimes).
        let scalars2: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(msm(&pts, &scalars2), msm_naive(&pts, &scalars2));
    }

    /// `msm` on 1-, 2- and 3-thread pools equals the naive sum.
    fn assert_pools_match_naive(pts: &[G1Affine], scalars: &[Fr], what: &str) {
        let want = msm_naive(pts, scalars);
        for threads in [1, 2, 3] {
            let got = zkml_par::with_pool(&zkml_par::Pool::new(threads), || msm(pts, scalars));
            assert_eq!(got, want, "{what}, threads={threads}");
        }
    }

    /// The edge cases of merging equal magnitudes: opposite signs, bases
    /// that cancel, identity bases, zeros and wide outliers beside the
    /// repeats, a merge that leaves the naive sum, and magnitudes that share
    /// their low limb only.
    #[test]
    fn equal_scalars_merge_matches_naive() {
        let mut rng = StdRng::seed_from_u64(54);
        let n = 300;
        let (pts, uniform) = random_points(n, &mut rng);
        let s = uniform[0];

        // One magnitude, both signs: s on even rows, p − s on odd ones.
        let signs: Vec<Fr> = (0..n).map(|i| if i % 2 == 0 { s } else { -s }).collect();
        assert_pools_match_naive(&pts, &signs, "s and p - s");

        // Each repeated magnitude's bases cancel (G beside −G, and G under
        // s beside G under p − s); a hundred distinct rows keep the sum away
        // from the identity.
        let mut cancel_pts = pts.clone();
        let mut cancel: Vec<Fr> = uniform.clone();
        for i in (0..200).step_by(2) {
            cancel[i] = uniform[1 + i % 16];
            if i % 4 == 0 {
                cancel_pts[i + 1] = pts[i].negate();
                cancel[i + 1] = cancel[i];
            } else {
                cancel_pts[i + 1] = pts[i];
                cancel[i + 1] = -cancel[i];
            }
        }
        assert_pools_match_naive(&cancel_pts, &cancel, "cancelling bases");
        assert_pools_match_naive(&cancel_pts[..200], &cancel[..200], "all cancel");
        assert_eq!(
            msm(&cancel_pts[..200], &cancel[..200]),
            G1Projective::identity()
        );

        // Repeats on identity bases: every other base is the identity.
        let holes: Vec<G1Affine> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    G1Affine::identity()
                } else {
                    pts[i]
                }
            })
            .collect();
        assert_pools_match_naive(&holes, &signs, "identity bases");
        assert_pools_match_naive(&holes, &vec![s; n], "identity bases, one scalar");

        // Small values, most of them twice (rows 2k and 2k + 1 share ±k), a
        // third zero, and full-width outliers, one of them twice: the merged
        // list still splits its outliers off.
        let mut small: Vec<Fr> = (0..n)
            .map(|i| match (i % 3, i % 5) {
                (0, _) => Fr::zero(),
                (_, 0) => -Fr::from_u64(i as u64 / 2),
                _ => Fr::from_u64(i as u64 / 2),
            })
            .collect();
        for i in [5, 77, 150, 151] {
            small[i] = uniform[i];
        }
        small[151] = small[150];
        let mut hist = [0usize; 254];
        let mut distinct: Vec<[u64; 4]> = small
            .iter()
            .map(|v| signed_magnitude(v).0)
            .filter(|m| *m != [0; 4])
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        for m in &distinct {
            hist[bit_len(m)] += 1;
        }
        assert_eq!(
            bulk_width(&hist, distinct.len(), window_bits(distinct.len())),
            (8, 3),
            "the outliers must split off the merged list"
        );
        assert_pools_match_naive(&pts, &small, "zeros and outliers");

        // Five distinct scalars on 300 rows: the merge leaves the naive sum.
        let few: Vec<Fr> = (0..n).map(|i| uniform[i % 5]).collect();
        assert_pools_match_naive(&pts, &few, "below the naive cutoff");
        let few_signed: Vec<Fr> = (0..n)
            .map(|i| if i % 3 == 0 { -few[i] } else { few[i] })
            .collect();
        assert_pools_match_naive(&pts, &few_signed, "below the naive cutoff, signed");

        // Equal low limbs, different magnitudes: a + 2^64 b for three b.
        let two64 = Fr::from_u64(1 << 32) * Fr::from_u64(1 << 32);
        let low = Fr::from_u64(0x1234_5678_9abc_def0);
        let shared: Vec<Fr> = (0..n)
            .map(|i| match i % 4 {
                3 => uniform[i],
                b => low + two64 * Fr::from_u64(b as u64 + 1),
            })
            .collect();
        assert_pools_match_naive(&pts, &shared, "shared low limb");
    }

    #[test]
    fn empty_is_identity() {
        assert_eq!(msm(&[], &[]), G1Projective::identity());
    }

    /// Regression for the tiny-input heuristic: around the naive/bucket
    /// crossover both paths must agree, including exactly at the cutoff.
    #[test]
    fn crossover_sizes_match_naive() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [
            NAIVE_CUTOFF - 2,
            NAIVE_CUTOFF - 1,
            NAIVE_CUTOFF,
            NAIVE_CUTOFF + 1,
            2 * NAIVE_CUTOFF,
        ] {
            let (pts, scalars) = random_points(n, &mut rng);
            assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars), "n={n}");
        }
    }

    /// Crossover table: at every window-width boundary of the tuned
    /// heuristic, the batch-affine kernel (which switches `c` there) must
    /// agree with the naive sum, and the width table must be
    /// monotone non-decreasing in `n`.
    #[test]
    fn window_width_boundaries_match_naive() {
        let mut rng = StdRng::seed_from_u64(47);
        // Boundaries of window_bits(); +/-1 around each (capped for test
        // runtime — the larger boundaries exercise identical code paths).
        for boundary in [128usize, 256, 512, 2048] {
            for n in [boundary - 1, boundary, boundary + 1] {
                let (pts, scalars) = random_points(n, &mut rng);
                assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars), "n={n}");
            }
        }
        let mut prev = 0;
        for n in [
            1usize,
            127,
            128,
            255,
            256,
            511,
            512,
            2047,
            2048,
            8191,
            8192,
            32767,
            32768,
            131071,
            131072,
            524287,
            524288,
            1 << 20,
        ] {
            let c = window_bits(n);
            assert!(c >= prev, "window_bits not monotone at n={n}");
            assert!((1..=16).contains(&c), "window_bits out of range at n={n}");
            prev = c;
        }
    }

    /// `(p - 1) / 2`, the largest magnitude sign normalisation produces.
    fn half_p() -> Fr {
        -Fr::one() * Fr::from_u64(2).invert().unwrap()
    }

    /// Signed-digit decomposition round-trip over the window count each
    /// magnitude's own width asks for: `sum_w d_w * 2^(w*c)` (negated for a
    /// negated scalar) equals the scalar, every digit is in
    /// `[-(2^(c-1) - 1), 2^(c-1)]`, and the final carry vanishes.
    #[test]
    fn signed_digit_roundtrip() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut cases: Vec<Fr> = (0..40).map(|_| Fr::random(&mut rng)).collect();
        cases.extend([
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            Fr::from_u64(u64::MAX),
            half_p(),
            half_p() + Fr::one(),
        ]);
        // Magnitudes that fill their top window exactly (all-ones, so every
        // window carries).
        cases.extend((1..=64).map(|b| Fr::from_u64(u64::MAX >> (64 - b))));
        for c in [4usize, 8, 11, 13, 16] {
            let half = 1i64 << (c - 1);
            for s in &cases {
                let (mag, neg) = signed_magnitude(s);
                assert!(bit_len(&mag) <= 253);
                let mut digits = vec![0i32; num_windows(bit_len(&mag), c)];
                decompose_signed(&mag, c, &mut digits);
                // Reconstruct sum_w d_w * 2^(w*c) in the field.
                let two_c = Fr::from_u64(1u64 << c);
                let mut acc = Fr::zero();
                for &d in digits.iter().rev() {
                    acc = acc * two_c + Fr::from_i64(d as i64);
                }
                assert_eq!(if neg { -acc } else { acc }, *s, "c={c}");
                for &d in &digits {
                    assert!((d as i64) <= half && (d as i64) > -half, "c={c} d={d}");
                }
            }
        }
    }

    #[test]
    fn sign_normalisation_picks_the_smaller_magnitude() {
        assert_eq!(signed_magnitude(&Fr::zero()), ([0; 4], false));
        assert_eq!(signed_magnitude(&Fr::one()), ([1, 0, 0, 0], false));
        assert_eq!(signed_magnitude(&-Fr::one()), ([1, 0, 0, 0], true));
        // (p - 1) / 2 stays; (p + 1) / 2 = -(p - 1) / 2 flips to it.
        let (m, neg) = signed_magnitude(&half_p());
        assert!(!neg);
        assert_eq!(signed_magnitude(&(half_p() + Fr::one())), (m, true));
        assert_eq!(bit_len(&m), 253);
        assert_eq!(bit_len(&[0; 4]), 0);
        assert_eq!(bit_len(&[0, 1, 0, 0]), 65);
    }

    #[test]
    fn windows_follow_the_widest_scalar_and_outliers_split_off() {
        let mut hist = [0usize; 254];
        hist[13] = 1000;
        hist[0] = 24;
        assert_eq!(bulk_width(&hist, 1024, 9), (13, 0));
        assert_eq!(num_windows(13, 9), 2);
        // Five blinding rows among 13-bit values are set aside.
        hist[0] = 19;
        hist[253] = 3;
        hist[250] = 2;
        assert_eq!(bulk_width(&hist, 1024, 9), (13, 5));
        // Too many wide scalars for the outlier budget: every window is built.
        hist[253] = 40;
        assert_eq!(bulk_width(&hist, 1061, 9), (253, 0));
        // A split that does not halve the window count is not taken.
        let mut hist = [0usize; 254];
        hist[200] = 1020;
        hist[253] = 4;
        assert_eq!(bulk_width(&hist, 1024, 9), (253, 0));
        // At the normalised maximum the count is what 254-bit scalars took.
        for c in 4..=16 {
            assert_eq!(num_windows(253, c), 254usize.div_ceil(c), "c={c}");
        }
    }

    /// Scalars around the sign-normalisation edges, on every base at once
    /// and mixed: `±1`, `(p−1)/2`, `(p+1)/2`, `p−1`.
    #[test]
    fn edge_scalars_match_naive() {
        let mut rng = StdRng::seed_from_u64(49);
        let (pts, _) = random_points(160, &mut rng);
        let edges = [
            Fr::one(),
            -Fr::one(),
            half_p(),
            half_p() + Fr::one(),
            -Fr::one() - Fr::one(),
        ];
        for e in edges {
            let scalars = vec![e; pts.len()];
            assert_eq!(msm(&pts, &scalars), msm_naive(&pts, &scalars));
        }
        let mixed: Vec<Fr> = (0..pts.len()).map(|i| edges[i % edges.len()]).collect();
        assert_eq!(msm(&pts, &mixed), msm_naive(&pts, &mixed));
    }

    /// Small fixed-point-like scalars (the shape of witness columns) at
    /// every `window_bits` boundary, for widths around one and two windows:
    /// non-negative, signed, all negative, sparse, all zero, and with a few
    /// full-width outliers (blinding rows) — below and above the outlier
    /// budget.
    #[test]
    fn small_scalars_match_naive_at_every_width_boundary() {
        let mut rng = StdRng::seed_from_u64(50);
        for n in [33usize, 127, 128, 511, 512, 2047, 2048] {
            let (pts, uniform) = random_points(n, &mut rng);
            let c = window_bits(n);
            for bits in [1usize, c - 1, c, c + 1, 2 * c, 2 * c + 1, 13] {
                let small: Vec<Fr> = (0..n)
                    .map(|_| Fr::from_u64(rand::RngCore::next_u64(&mut rng) >> (64 - bits)))
                    .collect();
                let signed: Vec<Fr> = small
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if i % 3 == 0 { -*s } else { *s })
                    .collect();
                let negative: Vec<Fr> = small.iter().map(|s| -*s).collect();
                let sparse: Vec<Fr> = signed
                    .iter()
                    .enumerate()
                    .map(|(i, s)| if i % 25 == 0 { *s } else { Fr::zero() })
                    .collect();
                let mut few_wide = signed.clone();
                few_wide[n - 1] = uniform[n - 1];
                few_wide[n / 2] = uniform[n / 2];
                let mut many_wide = signed.clone();
                for i in (0..n).step_by(8) {
                    many_wide[i] = uniform[i];
                }
                for (name, scalars) in [
                    ("small", &small),
                    ("signed", &signed),
                    ("negative", &negative),
                    ("sparse", &sparse),
                    ("few wide", &few_wide),
                    ("many wide", &many_wide),
                ] {
                    assert_eq!(
                        msm(&pts, scalars),
                        msm_naive(&pts, scalars),
                        "n={n} bits={bits} {name}"
                    );
                }
            }
            let zeros = vec![Fr::zero(); n];
            assert_eq!(msm(&pts, &zeros), G1Projective::identity(), "n={n}");
            let mut only_wide = zeros;
            only_wide[1] = uniform[1];
            assert_eq!(msm(&pts, &only_wide), msm_naive(&pts, &only_wide));
        }
    }

    /// The parallel bucket path is bit-identical at any thread count, for
    /// uniform scalars and for small ones with outliers.
    #[test]
    fn msm_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(43);
        let (pts, uniform) = random_points(300, &mut rng);
        let mut small: Vec<Fr> = (0..300).map(|i| Fr::from_i64(i as i64 % 97 - 48)).collect();
        small[299] = uniform[299];
        for scalars in [&uniform, &small] {
            let serial = zkml_par::with_pool(&zkml_par::Pool::new(1), || msm(&pts, scalars));
            let two = zkml_par::with_pool(&zkml_par::Pool::new(2), || msm(&pts, scalars));
            let default = msm(&pts, scalars);
            assert_eq!(serial.to_affine().to_bytes(), two.to_affine().to_bytes());
            assert_eq!(
                serial.to_affine().to_bytes(),
                default.to_affine().to_bytes()
            );
        }
    }

    /// The window-group split changes with the pool size (3 threads splits
    /// unevenly), the sum does not: byte-identical on 1, 2 and 3 threads and
    /// equal to the naive sum, at a size where groups are capped
    /// by their bucket budget and at one below 128 points.
    #[test]
    fn window_groups_identical_across_pools() {
        let mut rng = StdRng::seed_from_u64(51);
        for n in [1usize << 10, 123] {
            let (pts, scalars) = random_points(n, &mut rng);
            let want = msm_naive(&pts, &scalars).to_affine().to_bytes();
            for threads in [1, 2, 3] {
                let got =
                    zkml_par::with_pool(&zkml_par::Pool::new(threads), || msm(&pts, &scalars));
                assert_eq!(got.to_affine().to_bytes(), want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn window_groups_partition_the_windows() {
        for (nwin, c, threads) in [
            (28, 9, 1),
            (28, 9, 2),
            (28, 9, 3),
            (63, 4, 2),
            (18, 14, 1),
            (23, 11, 2),
        ] {
            let groups = window_groups(nwin, c, threads);
            assert_eq!(groups.first().map(|g| g.start), Some(0));
            assert_eq!(groups.last().map(|g| g.end), Some(nwin));
            assert!(groups.windows(2).all(|g| g[0].end == g[1].start));
            let budget = (GROUP_BUCKETS >> (c - 1)).max(1);
            assert!(groups.iter().all(|g| !g.is_empty() && g.len() <= budget));
            assert!(groups.len() >= threads.min(nwin));
            assert!(groups.len().is_multiple_of(threads) || groups.len() == nwin);
        }
        assert!(window_groups(0, 9, 2).is_empty());
        // One window already fills a batch: each is a group of its own.
        assert_eq!(window_groups(18, 14, 1).len(), 18);
        // Three capped groups would leave one of two threads idle a third
        // of the time; four keep both busy.
        assert_eq!(window_groups(23, 11, 2).len(), 4);
    }

    /// One window of a group has every digit in the same bucket, so its
    /// collisions outlast the round cap and reach the Jacobian fallback and
    /// the serial reduction, while its neighbours in the same scheduler
    /// clear in a few rounds and take the shared batch reduction.
    #[test]
    fn one_colliding_window_in_a_group() {
        let mut rng = StdRng::seed_from_u64(52);
        let n = 600;
        let c = window_bits(n);
        assert!(
            1 << (c - 1) >= 128,
            "neighbours must take the batch reduction"
        );
        let (pts, _) = random_points(n, &mut rng);
        // Unsigned digits below 2^(c-1) decompose without carries, so each
        // window sees exactly the digit written here; window 2 sees 7 on
        // every point.
        let windows = 240 / c;
        let scalars: Vec<Fr> = (0..n)
            .map(|_| {
                let mut acc = Fr::zero();
                for w in (0..windows).rev() {
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
        assert_pools_match_naive(&pts, &scalars, "window 2 collides");
    }

    /// A 13-bit column with a few full-width outliers (blinding rows): one
    /// batch window in a group of its own, the Jacobian top window beside
    /// it, and the outliers summed apart.
    #[test]
    fn narrow_column_with_outliers_takes_one_group_and_the_top_window() {
        let mut rng = StdRng::seed_from_u64(53);
        let n = 1 << 10;
        let (pts, uniform) = random_points(n, &mut rng);
        let mut scalars: Vec<Fr> = (0..n)
            .map(|_| {
                Fr::from_i64((rand::RngCore::next_u64(&mut rng) % (1 << 14)) as i64 - (1 << 13))
            })
            .collect();
        for i in [0, 300, 777, n - 1] {
            scalars[i] = uniform[i];
        }
        let c = window_bits(n);
        assert_eq!(num_windows(13, c), 2);
        assert!(
            n >= 8 << (13 - c),
            "the top window must take the Jacobian walk"
        );
        let want = msm_naive(&pts, &scalars);
        for threads in [1, 2] {
            let got = zkml_par::with_pool(&zkml_par::Pool::new(threads), || msm(&pts, &scalars));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    /// Batch-affine vs naive on a mid-size random input.
    #[test]
    fn kernels_agree_random_midsize() {
        let mut rng = StdRng::seed_from_u64(44);
        for n in [200usize, 600, 1500] {
            let (pts, scalars) = random_points(n, &mut rng);
            let fast = msm(&pts, &scalars);
            assert_eq!(fast, msm_naive(&pts, &scalars), "n={n}");
        }
    }

    #[test]
    fn digit_extraction_spans_limbs() {
        let s = [u64::MAX, 0b1011, 0, 0];
        // 12-bit digit starting at bit 60: low 4 bits are the top of limb 0
        // (all ones), next 8 bits from limb 1 (0b1011).
        assert_eq!(digit(&s, 60, 12), 0b1011_1111);
        // Windows entirely past the scalar read as zero.
        assert_eq!(digit(&s, 256, 12), 0);
        assert_eq!(digit(&s, 300, 8), 0);
    }
}

#[cfg(test)]
mod perf {
    use super::*;
    use std::time::Instant;
    use zkml_ff::Field;

    fn inputs(n: usize) -> (Vec<G1Affine>, Vec<Fr>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7777);
        let g = G1Projective::generator();
        let uniq: Vec<G1Affine> = (0..64)
            .map(|_| g.mul_scalar(&Fr::random(&mut rng)).to_affine())
            .collect();
        let bases: Vec<G1Affine> = (0..n).map(|i| uniq[i % 64]).collect();
        // Scalars must be uniform — digit statistics (bucket occupancy,
        // collision rate) drive the window-width tuning.
        let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
        (bases, scalars)
    }

    #[test]
    #[ignore = "performance probe, run explicitly"]
    fn probe_msm() {
        for k in [14u32, 16] {
            let n = 1usize << k;
            let (bases, scalars) = inputs(n);
            let t = Instant::now();
            let r = msm(&bases, &scalars);
            eprintln!(
                "msm 2^{k} batch-affine: {:?} ({})",
                t.elapsed(),
                r.is_identity()
            );
        }
    }

    /// Median wall time of `reps` runs of `f`.
    fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> std::time::Duration {
        let mut times: Vec<_> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed()
            })
            .collect();
        times.sort();
        times[reps / 2]
    }

    /// Sweeps window widths per size, at 1 and 2 threads, to re-fit the
    /// `window_bits` table; below 128 points it also times the naive sum
    /// that `NAIVE_CUTOFF` picks.
    #[test]
    #[ignore = "performance probe, run explicitly"]
    fn probe_window_bits() {
        for threads in [1usize, 2] {
            let pool = zkml_par::Pool::new(threads);
            for n in [
                8usize,
                12,
                16,
                24,
                32,
                64,
                128,
                256,
                384,
                512,
                1 << 10,
                1 << 12,
                1 << 14,
                1 << 16,
            ] {
                let (bases, scalars) = inputs(n);
                let reps = ((1usize << 18) / n).clamp(5, 200);
                let lg = n.ilog2() as usize;
                eprint!("threads={threads} n={n} (c={}):", window_bits(n));
                if n < 128 {
                    let t = median_time(reps, || msm_naive(&bases, &scalars));
                    eprint!("  naive: {t:?}");
                }
                for c in lg.saturating_sub(3).max(3)..=(lg + 2).min(16) {
                    let nwin = num_windows(253, c);
                    let mut digits = vec![0i32; n * nwin];
                    for (i, row) in digits.chunks_exact_mut(nwin).enumerate() {
                        let (mag, neg) = signed_magnitude(&scalars[i]);
                        decompose_signed(&mag, c, row);
                        if neg {
                            row.iter_mut().for_each(|d| *d = -*d);
                        }
                    }
                    let topbits = 253 - (nwin - 1) * c;
                    let t = zkml_par::with_pool(&pool, || {
                        median_time(reps, || window_sums(&bases, &digits, nwin, c, topbits))
                    });
                    eprint!("  c={c}: {t:?}");
                }
                eprintln!();
            }
        }
    }
}
