//! Commit-and-prove through the service: publish a model's weight
//! commitment once, prove many times against the published digest, share
//! one cached proving key across weight sets of the same architecture, and
//! reject tampered weights with the typed commitment-mismatch error.

use std::sync::Arc;
use zkml_model::{Activation, Graph, GraphBuilder, Op};
use zkml_pcs::Backend;
use zkml_service::{CacheOutcome, JobKind, JobSpec, ProvingService, ServiceConfig, ServiceError};

/// A small committed-weight model; `seed` varies the weight values but not
/// the architecture.
fn mlp(seed: u64) -> Graph {
    let mut b = GraphBuilder::new("commit-mlp", seed);
    let x = b.input(vec![1, 6], "x");
    let w1 = b.weight(vec![6, 8], "w1");
    let b1 = b.weight(vec![8], "b1");
    let h = b.op(
        Op::FullyConnected {
            activation: Some(Activation::Relu),
        },
        &[x, w1, b1],
        "fc1",
    );
    let w2 = b.weight(vec![8, 4], "w2");
    let b2 = b.weight(vec![4], "b2");
    let y = b.op(Op::FullyConnected { activation: None }, &[h, w2, b2], "fc2");
    b.finish(vec![y])
}

fn start(workers: usize) -> ProvingService {
    ProvingService::start(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    })
    .unwrap()
}

/// Publication is the one-time cost point: `commit_model` compiles, runs
/// keygen, and encodes the weights once; every subsequent prove against
/// the digest reuses both the cached proving key and the registry's
/// pre-encoded weights, and its proof verifies against the *published*
/// commitment.
#[test]
fn publish_then_prove_against_digest() {
    let service = start(2);
    let graph = Arc::new(mlp(77));

    let published = service
        .submit(JobSpec::commit_model(graph.clone(), Backend::Kzg))
        .unwrap()
        .wait()
        .unwrap()
        .expect("commit-model produces artifacts");
    let digest = published
        .model_digest
        .expect("publication returns a digest");
    assert!(published.proof.is_empty(), "publication is not a proof");
    assert!(!published.weight_commitment.is_empty());
    assert!(service.registry().get(&digest).is_some());
    assert_eq!(service.registry().len(), 1);

    for seed in [1, 2] {
        let artifacts = service
            .submit(JobSpec::prove_committed(
                graph.clone(),
                Backend::Kzg,
                seed,
                digest,
            ))
            .unwrap()
            .wait()
            .unwrap()
            .expect("prove jobs produce artifacts");
        assert_eq!(
            artifacts.cache,
            CacheOutcome::MemoryHit,
            "publication warmed the proving key; proves must not re-keygen"
        );
        assert_eq!(artifacts.model_digest, Some(digest));
        assert_eq!(
            artifacts.weight_commitment, published.weight_commitment,
            "proofs carry the published commitment verbatim"
        );
    }

    let snap = service.snapshot();
    assert_eq!(snap.proofs_verified, 2);
    assert_eq!(snap.verify_failures, 0);
    assert_eq!(snap.jobs_rejected_commitment, 0);
}

/// The artifact cache keys proving keys on the *architecture* hash, so two
/// models differing only in weight values share one cached pk — keygen runs
/// once and both proofs still verify (each against its own commitment).
#[test]
fn same_architecture_shares_cached_proving_key() {
    let a = mlp(77);
    let b = mlp(99);
    assert_eq!(a.arch_hash(), b.arch_hash());
    assert_ne!(a.content_hash(), b.content_hash());

    let service = start(1);
    let first = service
        .submit(JobSpec::prove(Arc::new(a), Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(first.cache, CacheOutcome::Miss);
    let second = service
        .submit(JobSpec::prove(Arc::new(b), Backend::Kzg, 1))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    assert_eq!(
        second.cache,
        CacheOutcome::MemoryHit,
        "different weights over one architecture must share the cached pk"
    );
    assert_ne!(
        second.weight_commitment, first.weight_commitment,
        "distinct weight sets commit to distinct values"
    );

    let snap = service.snapshot();
    assert_eq!(snap.proofs_verified, 2);
    assert_eq!(snap.verify_failures, 0);
    assert_eq!(snap.cache_misses, 1, "exactly one keygen for both models");
}

/// Soundness at the job boundary: a weight flipped after publication, an
/// unknown digest, and a verify against the wrong published model are all
/// rejected with the typed mismatch error and counted in the stats.
#[test]
fn tampered_weights_and_wrong_digests_are_rejected() {
    let service = start(1);
    let graph = Arc::new(mlp(77));
    let published = service
        .submit(JobSpec::commit_model(graph.clone(), Backend::Kzg))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    let digest = published.model_digest.unwrap();

    // Flip one weight after publication: same architecture, same circuit
    // layout, but the committed values no longer hash to the digest.
    let mut tampered = (*graph).clone();
    let slot = tampered
        .weights
        .iter_mut()
        .flatten()
        .next()
        .expect("model has weights");
    slot.data_mut()[0] += 1.0;
    let err = service
        .submit(JobSpec::prove_committed(
            Arc::new(tampered),
            Backend::Kzg,
            1,
            digest,
        ))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(
        matches!(err, ServiceError::CommitmentMismatch(_)),
        "tampered weights must raise the typed mismatch, got: {err}"
    );

    // A digest nothing was published under.
    let err = service
        .submit(JobSpec::prove_committed(
            graph.clone(),
            Backend::Kzg,
            1,
            [0xAB; 32],
        ))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServiceError::CommitmentMismatch(_)));

    // An honest proof presented with a corrupted carried commitment.
    let artifacts = service
        .submit(JobSpec::prove_committed(
            graph.clone(),
            Backend::Kzg,
            1,
            digest,
        ))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    let mut corrupted = artifacts.weight_commitment.clone();
    *corrupted.last_mut().unwrap() ^= 1;
    let err = service
        .submit(JobSpec::new(JobKind::Verify {
            backend: artifacts.backend,
            vk: artifacts.vk_bytes.clone(),
            public: artifacts.public.clone(),
            proof: artifacts.proof.clone(),
            model: None,
            weight_commitment: corrupted,
        }))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServiceError::CommitmentMismatch(_)));

    // The same honest proof accepts against the published digest...
    service
        .submit(JobSpec::new(JobKind::Verify {
            backend: artifacts.backend,
            vk: artifacts.vk_bytes.clone(),
            public: artifacts.public.clone(),
            proof: artifacts.proof.clone(),
            model: Some(digest),
            weight_commitment: artifacts.weight_commitment.clone(),
        }))
        .unwrap()
        .wait()
        .unwrap();
    // ...and is rejected against a digest it was not proved under.
    let err = service
        .submit(JobSpec::new(JobKind::Verify {
            backend: artifacts.backend,
            vk: artifacts.vk_bytes.clone(),
            public: artifacts.public.clone(),
            proof: artifacts.proof.clone(),
            model: Some([0xCD; 32]),
            weight_commitment: Vec::new(),
        }))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServiceError::CommitmentMismatch(_)));

    let snap = service.snapshot();
    assert!(
        snap.jobs_rejected_commitment >= 4,
        "every mismatch path must count, got {}",
        snap.jobs_rejected_commitment
    );
}

/// The commitment rule needs no registry: a service that never saw the
/// publication (a restart, another process) verifies a proof against the
/// commitment it carries when that commitment's digest is the named model's,
/// and refuses a carried commitment under another digest, or a digest with
/// nothing carried, as a commitment mismatch.
#[test]
fn a_carried_commitment_verifies_without_the_registry() {
    let publisher = start(1);
    let graph = Arc::new(mlp(77));
    let digest = publisher
        .submit(JobSpec::commit_model(graph.clone(), Backend::Kzg))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap()
        .model_digest
        .unwrap();
    let other = publisher
        .submit(JobSpec::commit_model(Arc::new(mlp(99)), Backend::Kzg))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap()
        .model_digest
        .unwrap();
    assert_ne!(digest, other);
    let artifacts = publisher
        .submit(JobSpec::prove_committed(graph, Backend::Kzg, 1, digest))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();

    let fresh = start(1);
    assert_eq!(fresh.registry().len(), 0);
    let verify = |model: [u8; 32], weight_commitment: Vec<u8>| {
        fresh
            .submit(JobSpec::new(JobKind::Verify {
                backend: artifacts.backend,
                vk: artifacts.vk_bytes.clone(),
                public: artifacts.public.clone(),
                proof: artifacts.proof.clone(),
                model: Some(model),
                weight_commitment,
            }))
            .unwrap()
            .wait()
    };
    verify(digest, artifacts.weight_commitment.clone())
        .expect("a carried commitment hashing to the named digest is that commitment");
    for (model, carried) in [
        (other, artifacts.weight_commitment.clone()),
        (digest, Vec::new()),
    ] {
        match verify(model, carried) {
            Err(ServiceError::CommitmentMismatch(_)) => {}
            other => panic!("expected a commitment mismatch, got {other:?}"),
        }
    }
    let snap = fresh.snapshot();
    assert_eq!(
        (snap.proofs_verified, snap.jobs_rejected_commitment),
        (1, 2)
    );
}

/// The CI regression for weight-independent proving costs: after one
/// publication, proving twice against the digest performs ZERO keygens and
/// ZERO weight encodings — both were paid at publication. Ignored by
/// default because it reads process-global counters; `scripts/check.sh`
/// runs it alone (`--ignored --test-threads=1`).
#[test]
#[ignore]
fn commit_once_prove_twice_zero_keygen_zero_reencode() {
    let service = start(1);
    let graph = Arc::new(mlp(77));
    let published = service
        .submit(JobSpec::commit_model(graph.clone(), Backend::Kzg))
        .unwrap()
        .wait()
        .unwrap()
        .unwrap();
    let digest = published.model_digest.unwrap();

    let keygens_before = zkml_plonk::keygens();
    let encodings_before = zkml_plonk::weight_encodings();
    for seed in [1, 2] {
        service
            .submit(JobSpec::prove_committed(
                graph.clone(),
                Backend::Kzg,
                seed,
                digest,
            ))
            .unwrap()
            .wait()
            .unwrap()
            .unwrap();
    }
    assert_eq!(
        zkml_plonk::keygens() - keygens_before,
        0,
        "proving against a published digest must not run keygen"
    );
    assert_eq!(
        zkml_plonk::weight_encodings() - encodings_before,
        0,
        "proving against a published digest must not re-encode weights"
    );
    let snap = service.snapshot();
    assert_eq!(snap.proofs_verified, 2);
    assert_eq!(snap.verify_failures, 0);
}
