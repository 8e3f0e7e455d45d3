//! The model-commitment registry: published weight commitments, keyed by
//! their digest.
//!
//! The commit-and-prove flow splits a model into two halves with different
//! lifetimes. The *architecture* (ops, shapes, wiring) determines the
//! circuit and its proving key; the *weights* live in committed columns
//! whose KZG commitments are computed once, published here, and absorbed
//! into every proof transcript. A prove job that references a published
//! digest reuses the registry's pre-encoded [`CommittedWeights`] — zero
//! weight re-encoding per proof — and a verify job checks the proof
//! against the *published* commitment, so a prover cannot silently swap
//! weights after publication.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use zkml_pcs::Backend;
use zkml_plonk::{CommittedWeights, WeightCommitment};

/// One published model: the weight commitment plus everything needed to
/// check later prove/verify jobs against it and to prove without
/// re-encoding.
pub struct ModelEntry {
    /// The commitment digest — the model's published identity. Equal to
    /// `commitment.digest`; jobs reference models by this value.
    pub digest: [u8; 32],
    /// Human-readable model name (from the graph).
    pub model: String,
    /// Full content hash of the published graph (weights included).
    pub model_hash: [u8; 32],
    /// Architecture hash of the published graph (weights excluded) — the
    /// cache key namespace its proving key lives under.
    pub arch_hash: [u8; 32],
    /// Backend the commitment was computed for.
    pub backend: Backend,
    /// Circuit size exponent the optimizer chose at publication.
    pub k: u32,
    /// Digest of the weight-free circuit the model compiled to. A prove
    /// job referencing this model must compile to the same circuit, or
    /// the published commitment would not line up column-for-column.
    pub circuit: [u8; 32],
    /// The published commitment (absorbed into every transcript).
    pub commitment: WeightCommitment,
    /// Digest over the raw committed-column values, for a cheap (hash
    /// only, no MSM) weight-tamper check before proving starts.
    pub values_digest: [u8; 32],
    /// Prover-side encodings: committed columns interpolated and extended
    /// once at publication, shared by every proof of this model.
    pub weights: Arc<CommittedWeights>,
}

/// Thread-safe registry of published models, shared by the service's
/// workers and any front end.
#[derive(Default)]
pub struct ModelRegistry {
    entries: RwLock<HashMap<[u8; 32], Arc<ModelEntry>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publishes a model, returning its digest. Republishing the same
    /// commitment is idempotent (the digest is content-derived).
    pub(crate) fn publish(&self, entry: ModelEntry) -> [u8; 32] {
        let digest = entry.digest;
        self.entries
            .write()
            .unwrap()
            .insert(digest, Arc::new(entry));
        digest
    }

    /// Looks up a published model by digest.
    pub fn get(&self, digest: &[u8; 32]) -> Option<Arc<ModelEntry>> {
        self.entries.read().unwrap().get(digest).cloned()
    }

    /// Every published model, in unspecified order.
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        self.entries.read().unwrap().values().cloned().collect()
    }

    /// Number of published models.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// Whether no models have been published.
    pub fn is_empty(&self) -> bool {
        self.entries.read().unwrap().is_empty()
    }
}
