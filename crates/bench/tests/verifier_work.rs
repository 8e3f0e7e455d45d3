//! The verifier's work, counted: the MSM calls and points, Miller-loop
//! pairs and final exponentiations of checking one KZG proof and of settling
//! one segmented bundle are pinned exactly. Counts do not drift with the
//! host, so a verifier that does more work fails here however fast it runs.
//! The counters are process-wide: this file is its own test binary and its
//! tests take one lock, so no other MSM or pairing moves them between reads.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Mutex;
use zkml_bench::scaling::mul_chain;
use zkml_curves::msm::{msm_calls, msm_points};
use zkml_curves::pairing::{final_exponentiations, miller_loop_pairs};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{create_proof_committed, keygen, verify_proof, CommittedWeights};
use zkml_shard::{verify_bundle, FreshKeySource, KeySource, SegmentedProof};

/// Held by every test while it reads the counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// `(msm calls, msm points, Miller-loop pairs, final exponentiations)` that
/// `f` performs.
fn work(f: impl FnOnce()) -> (usize, usize, usize, usize) {
    let read = || {
        (
            msm_calls(),
            msm_points(),
            miller_loop_pairs(),
            final_exponentiations(),
        )
    };
    let before = read();
    f();
    let after = read();
    (
        after.0 - before.0,
        after.1 - before.1,
        after.2 - before.2,
        after.3 - before.3,
    )
}

/// One MSM per side of the KZG accumulator — over the opening witnesses, and
/// over every distinct commitment, witness and the generator: 19 points in
/// all — then one two-pair Miller loop and one final exponentiation.
#[test]
fn kzg_verify_of_mul_chain_does_pinned_work() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let k = 10;
    let mut rng = StdRng::seed_from_u64(5);
    let chain = mul_chain(k);
    let params = Params::setup(Backend::Kzg, k, &mut rng);
    let pk = keygen(&params, &chain.cs, &chain.pre, k).expect("keygen");
    let weights = CommittedWeights::empty();
    let proof = create_proof_committed(&params, &pk, &chain.witness, &mut rng, &[], &weights)
        .expect("prove");
    let counted =
        work(|| verify_proof(&params, &pk.vk, &chain.instance, &proof, &[], None).expect("verify"));
    assert_eq!(counted, (2, 19, 2, 1));
}

/// A bundle of two segment proofs settles in one two-pair Miller loop: each
/// segment's accumulator costs its two MSMs, folding the two accumulators
/// two more, and the fold is checked once.
#[test]
fn toy_bundle_settles_in_one_miller_loop() {
    let _lock = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../shard/tests/golden/toy_bundle.zksb");
    let bytes = std::fs::read(&path).expect("the shard crate's golden bundle");
    let bundle = SegmentedProof::from_bytes(&bytes).expect("golden bundle parses");
    let keys = FreshKeySource::default();
    let verify = || {
        verify_bundle(&bundle, |b, k| keys.params(b, k)).expect("golden bundle verifies");
    };
    // The first check sets the params up; the second counts the check alone.
    verify();
    assert_eq!(work(verify), (6, 100, 2, 1));
}
