//! Golden-vector regression test for the ZKSB bundle encoding.
//!
//! A segmented proof's serialized form covers the container layout
//! (magic, counts, length prefixes), every segment's verifying key and
//! instance encoding, and the per-segment proof bytes — all deterministic
//! under seeded SRS and prover randomness. Pinning the bytes catches any
//! accidental format drift: stored bundles must keep verifying across
//! releases, so an encoding change has to be deliberate (regenerate with
//! `ZKML_REGEN_GOLDEN=1`).

use std::path::PathBuf;
use zkml::{Gadget, HardwareStats, NumericConfig, OpSchedule, OptimizerOptions, ScheduleBuilder};
use zkml_pcs::Backend;
use zkml_shard::{
    compile_segments, prove_compiled, verify_bundle, FreshKeySource, KeySource, SegmentSpec,
    SegmentedProof,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_golden(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    if std::env::var("ZKML_REGEN_GOLDEN").ok().as_deref() == Some("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|_| {
        panic!("missing golden fixture {path:?}; generate it with ZKML_REGEN_GOLDEN=1")
    });
    assert_eq!(
        expected.len(),
        actual.len(),
        "{name}: bundle length changed ({} -> {}); regenerate with ZKML_REGEN_GOLDEN=1 \
         if the format change is intentional",
        expected.len(),
        actual.len()
    );
    let first_diff = expected.iter().zip(actual).position(|(a, b)| a != b);
    assert_eq!(
        first_diff, None,
        "{name}: bundle bytes diverge from the golden fixture at offset {first_diff:?}; \
         regenerate with ZKML_REGEN_GOLDEN=1 if the change is intentional"
    );
}

/// relu -> elementwise mul + dot -> sum; cuts into two segments with the
/// relu outputs as the boundary tensor.
fn toy_schedule() -> OpSchedule {
    let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
    let xs = sb.load_values(&[3, -2, 5, 1, -4, 7, 2, -1]);
    let ws = sb.load_values(&[2; 8]);
    let r = sb.relu(&xs);
    let pairs: Vec<_> = r.iter().zip(&ws).map(|(a, b)| (*a, *b)).collect();
    let m = sb.arith_pack(Gadget::MulPack, &pairs);
    let d = sb.dot(&r, &ws, None);
    let s = sb.sum(&[m[0], m[1], d]);
    sb.finish(vec![(vec![1], vec![s])])
}

fn golden_bundle() -> SegmentedProof {
    let opts = OptimizerOptions::new(Backend::Kzg, 12);
    let hw = HardwareStats::fixture();
    let keys = FreshKeySource::default();
    let segs = compile_segments(&toy_schedule(), SegmentSpec::Fixed(2), &opts, &hw).unwrap();
    assert_eq!(segs.len(), 2, "toy schedule should cut in two");
    let bundle = prove_compiled([0x5Eu8; 32], &segs, &keys, &opts, 42).unwrap();
    verify_bundle(&bundle, |b, k| keys.params(b, k)).expect("fixture bundle must verify");
    bundle
}

#[test]
fn zksb_bundle_bytes_match_golden() {
    let bundle = golden_bundle();
    let bytes = bundle.to_bytes();

    // Determinism precondition for a byte-level fixture: proving the same
    // segments again must reproduce the bundle exactly.
    let bytes2 = golden_bundle().to_bytes();
    assert_eq!(bytes, bytes2, "segmented proving must be deterministic");

    assert_golden("toy_bundle.zksb", &bytes);

    // The committed encoding must stay self-describing: a round-trip
    // through from_bytes yields a bundle that still batch-verifies.
    let restored = SegmentedProof::from_bytes(&bytes).expect("golden bundle parses");
    let keys = FreshKeySource::default();
    verify_bundle(&restored, |b, k| keys.params(b, k)).expect("restored bundle verifies");
}

/// A bundle carries its segments' verifying keys, so they are attacker
/// bytes. The chain digest covers them, hence flipping the low or the high
/// bit of any byte of either embedded key must end in `Err` — a parse
/// error or rejected proofs — and never in a panic.
#[test]
fn mutated_embedded_verifying_keys_rejected_without_panic() {
    let bytes = std::fs::read(fixture_path("toy_bundle.zksb")).expect("golden fixture exists");
    let bundle = SegmentedProof::from_bytes(&bytes).expect("golden bundle parses");
    let keys = FreshKeySource::default();
    for seg in 0..bundle.segments.len() {
        for pos in 0..bundle.segments[seg].vk_bytes.len() {
            for mask in [0x01u8, 0x80] {
                let mut bad = bundle.clone();
                bad.segments[seg].vk_bytes[pos] ^= mask;
                assert!(
                    verify_bundle(&bad, |b, k| keys.params(b, k)).is_err(),
                    "segment {seg}: accepted a verifying key mutated at byte {pos} \
                     (mask {mask:#04x})"
                );
            }
        }
    }
}
