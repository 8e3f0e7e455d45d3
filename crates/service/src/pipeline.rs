//! The stage order of a proving job and the checks between its stages:
//!
//! ```text
//! lower → memoized layout → synthesize → determinism gate      compile
//!   → keys → weights → prove → verify → artifacts              prove
//!   → keys → commit weights → register                         publish
//! ```
//!
//! Publication, monolithic proves and segmented proves are the same job up
//! to the last stage — a monolithic circuit is the layout with no cuts — so
//! there is one [`Pipeline::compile`] for 1..N circuits, and the service's
//! workers and the standalone CLI both run these functions. What differs
//! between the two callers is an argument: the proof randomness (a served
//! proof must not be reproducible from its request, a CLI proof is
//! byte-deterministic in `--seed`) and the [`Check`] run between stages
//! (cancellation and deadline in a worker, nothing in the CLI).

use crate::cache::{hex, pk_matches_circuit, ArtifactCache, ArtifactKey, CacheOutcome, PlanKey};
use crate::error::ServiceError;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::stats::ServiceStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zkml::OptimizerOptions;
use zkml_ff::Fr;
use zkml_model::Graph;
use zkml_pcs::{Backend, Params, ReadError};
use zkml_plonk::{CommittedWeights, ProvingKey, VerifyingKey, WeightCommitment};
use zkml_shard::{CompiledSegment, KeySource, SegmentSpec, SegmentedProof};
use zkml_tensor::{FixedPoint, Tensor};

/// Where a job stands when it asks its caller whether to go on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Every circuit is synthesized and cleared by the analyzer.
    Compiled,
    /// Key material is in hand; proving is next.
    Keyed,
    /// The proof exists; verifying it is next.
    Proved,
}

/// The caller's between-stage check: an error stops the job there.
pub(crate) type Check<'a> = &'a dyn Fn(Stage) -> Result<(), ServiceError>;

/// Everything a completed proving job produced.
#[derive(Debug, Clone)]
pub struct ProofArtifacts {
    /// Model name (from the graph).
    pub model: String,
    /// Backend the proof targets.
    pub backend: Backend,
    /// Circuit size exponent the optimizer chose (segmented: the largest).
    pub k: u32,
    /// The proof bytes (segmented: the serialized bundle).
    pub proof: Vec<u8>,
    /// The serialized verifying key; empty for segmented jobs, whose
    /// per-segment keys live inside the bundle.
    pub vk_bytes: Vec<u8>,
    /// Public values (first instance column; for segmented jobs, the
    /// bundle's claimed model outputs).
    pub public: Vec<Fr>,
    /// How the proving key was obtained (for segmented jobs: a hit only if
    /// every segment's key was cached).
    pub cache: CacheOutcome,
    /// Wall-clock proof generation time.
    pub prove_ms: u64,
    /// Number of segment proofs behind `proof` (1 for monolithic jobs, 0
    /// for publications).
    pub segments: u32,
    /// The full bundle for segmented jobs (`proof` holds its serialized
    /// form); `None` for monolithic jobs.
    pub bundle: Option<SegmentedProof>,
    /// Serialized [`WeightCommitment`] the proof verifies against
    /// (publications: the freshly published commitment). Empty for circuits
    /// without committed columns and for segmented bundles, whose
    /// per-segment commitments live inside the bundle, chained into its
    /// digest.
    pub weight_commitment: Vec<u8>,
    /// The published commitment digest this job referenced or produced.
    pub model_digest: Option<[u8; 32]>,
}

/// Synthetic quantized inputs for a proving job, derived from the request
/// seed.
pub fn synthetic_inputs(graph: &Graph, scale_bits: u32, seed: u64) -> Vec<Tensor<i64>> {
    let fp = FixedPoint::new(scale_bits);
    let mut rng = StdRng::seed_from_u64(seed);
    graph
        .inputs
        .iter()
        .map(|id| {
            let shape = graph.shape(*id).to_vec();
            let n: usize = shape.iter().product();
            Tensor::new(
                shape,
                (0..n)
                    .map(|_| fp.quantize(rng.gen_range(-1.0..1.0)))
                    .collect(),
            )
        })
        .collect()
}

/// What the stages run over: a service's shared state minus its queue.
pub struct Pipeline {
    /// Proving keys, SRS, layout and verdict memos.
    pub cache: ArtifactCache,
    /// Published model commitments.
    pub registry: ModelRegistry,
    /// Counters the stages update.
    pub stats: ServiceStats,
    /// Largest circuit `k` the optimizer may choose.
    pub max_k: u32,
}

/// A model compiled for one request: its circuits (one for a monolithic
/// job, one per segment otherwise), synthesized with the request's witness
/// and cleared by the analyzer.
pub struct Compiled<'a> {
    graph: &'a Graph,
    opts: OptimizerOptions,
    segments: Option<SegmentSpec>,
    circuits: Vec<CompiledSegment>,
}

impl Compiled<'_> {
    /// Artifacts naming this compilation, with nothing proved yet.
    fn artifacts(&self) -> ProofArtifacts {
        ProofArtifacts {
            model: self.graph.name.clone(),
            backend: self.opts.backend,
            k: self
                .circuits
                .iter()
                .map(|c| c.compiled.k)
                .max()
                .unwrap_or(0),
            proof: Vec::new(),
            vk_bytes: Vec::new(),
            public: Vec::new(),
            cache: CacheOutcome::Miss,
            prove_ms: 0,
            segments: self.circuits.len() as u32,
            bundle: None,
            weight_commitment: Vec::new(),
            model_digest: None,
        }
    }
}

/// The [`KeySource`] over the artifact cache: `prove_compiled` fetches every
/// segment's key through [`Pipeline::proving_key`], so the pk cache shards
/// naturally across segments and a repeat job skips keygen for each of them.
struct CacheKeySource<'a> {
    pipe: &'a Pipeline,
    arch_hash: [u8; 32],
    misses: AtomicU64,
}

impl KeySource for CacheKeySource<'_> {
    fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        self.pipe.cache.params(backend, k)
    }

    fn proving_key(
        &self,
        _model_hash: [u8; 32],
        backend: Backend,
        plan: &zkml::LayoutPlan,
        compiled: &zkml::CompiledCircuit,
        params: &Params,
    ) -> Result<Arc<ProvingKey>, zkml::ZkmlError> {
        let (pk, outcome) =
            self.pipe
                .proving_key(self.arch_hash, backend, plan, compiled, params)?;
        if !outcome.is_hit() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        Ok(pk)
    }
}

impl Pipeline {
    /// Stages over `cache` with an empty registry and zeroed stats.
    pub fn new(cache: ArtifactCache, max_k: u32) -> Self {
        Self {
            cache,
            registry: ModelRegistry::new(),
            stats: ServiceStats::new(),
            max_k,
        }
    }

    /// One circuit's proving key, through the artifact cache.
    ///
    /// The cache key pins the circuit digest (layout choice + constraint
    /// system; the plan's digest is byte-identical to the compiled
    /// circuit's), not just `k`, and a key loaded from the disk spill is
    /// still validated against the compiled circuit before use: a stale spill
    /// file must fall back to keygen, never produce a proof under a
    /// mismatched key. The namespace is the graph's *architecture* hash, not
    /// the content hash `prove_compiled` stamps into a bundle: weights live
    /// in committed columns that keygen never reads, so weight sets of one
    /// architecture share every cached key.
    fn proving_key(
        &self,
        arch_hash: [u8; 32],
        backend: Backend,
        plan: &zkml::LayoutPlan,
        compiled: &zkml::CompiledCircuit,
        params: &Params,
    ) -> Result<(Arc<ProvingKey>, CacheOutcome), zkml::ZkmlError> {
        let key = ArtifactKey::for_plan(arch_hash, backend, plan);
        debug_assert_eq!(key, ArtifactKey::for_circuit(arch_hash, backend, compiled));
        let (pk, outcome) = self.cache.get_or_generate(
            key,
            |pk| pk_matches_circuit(pk, compiled),
            || compiled.keygen(params),
        )?;
        if outcome.is_hit() {
            self.stats.record_cache_hit();
        } else {
            self.stats.record_cache_miss();
        }
        Ok((pk, outcome))
    }

    /// Params and proving key of a monolithic compilation's one circuit.
    fn keys(
        &self,
        c: &Compiled,
    ) -> Result<(Arc<Params>, Arc<ProvingKey>, CacheOutcome), ServiceError> {
        let (backend, seg) = (c.opts.backend, &c.circuits[0]);
        let params = self.cache.params(backend, seg.compiled.k);
        let (pk, outcome) = self
            .proving_key(
                c.graph.arch_hash(),
                backend,
                &seg.plan,
                &seg.compiled,
                &params,
            )
            .map_err(|e| ServiceError::Prove(e.to_string()))?;
        Ok((params, pk, outcome))
    }

    fn mismatch(&self, msg: String) -> ServiceError {
        self.stats.record_rejected_commitment();
        ServiceError::CommitmentMismatch(msg)
    }

    /// Lower → memoized layout → synthesize → determinism gate.
    ///
    /// The layout is the one this process memoized for the architecture, or
    /// — first job only — the winner of a full sweep, which is then memoized;
    /// `segments` is `None` for a monolithic circuit (the layout with no cuts
    /// and one plan). Everything after the memo is per-request work: one
    /// `synthesize` per plan, which still cross-checks the plan against the
    /// circuit it produced (`PlanMismatch`). No keygen or proving time is
    /// ever spent on a circuit the static analyzer has not cleared in this
    /// process; the verdict is a function of the model's content and the
    /// layout (see [`ArtifactCache::ensure_determined`]), so a warm job
    /// skips the analysis, and a failing circuit is analyzed, and fails, on
    /// every job.
    pub fn compile<'a>(
        &self,
        graph: &'a Graph,
        backend: Backend,
        seed: u64,
        segments: Option<SegmentSpec>,
        check: Check,
    ) -> Result<Compiled<'a>, ServiceError> {
        let compile_err = |e: zkml_shard::ShardError| ServiceError::Compile(e.to_string());
        let opts = OptimizerOptions::new(backend, self.max_k);
        let inputs = synthetic_inputs(graph, opts.numeric.scale_bits, seed);
        // One lowering for the whole model; the cutter, the first job's
        // sweeps and every circuit's synthesis replay this schedule.
        let sched = zkml::layers::lower_graph(graph, &inputs, opts.numeric);
        let key = PlanKey {
            arch_hash: graph.arch_hash(),
            backend,
            max_k: self.max_k,
            numeric: opts.numeric,
            segments,
        };
        // An infeasible model (no layout within max_k) fails this job, not
        // its caller, and leaves nothing in the memo.
        let (layout, memo_hit) = self.cache.layout_or_sweep(key, || {
            let spec = segments.unwrap_or(SegmentSpec::Fixed(1));
            zkml_shard::plan_segments(&sched, spec, &opts, zkml::cost::HardwareStats::cached())
                .map_err(compile_err)
        })?;
        self.stats.record_layout(memo_hit);
        let circuits = zkml_shard::synthesize_segments(&sched, &layout).map_err(compile_err)?;

        let content_hash = graph.content_hash();
        for (i, c) in circuits.iter().enumerate() {
            let analyzed = self.cache.ensure_determined(content_hash, &c.compiled);
            if !matches!(analyzed, Ok(false)) {
                self.stats.record_determinism_check();
            }
            analyzed.map_err(|e| {
                ServiceError::Underconstrained(match segments {
                    Some(_) => format!("segment {i}: {e}"),
                    None => e.to_string(),
                })
            })?;
        }
        check(Stage::Compiled)?;
        Ok(Compiled {
            graph,
            opts,
            segments,
            circuits,
        })
    }

    /// Keys → commit weights → register: publishes the model's weight
    /// commitment so later prove and verify jobs can reference it by digest,
    /// and warms the (weight-independent) proving key. Takes a monolithic
    /// compilation of any input seed: layouts, and hence the circuit and the
    /// commitment, are input-independent. The artifacts carry the serialized
    /// commitment and its digest but no proof.
    pub fn publish(&self, c: &Compiled, check: Check) -> Result<ProofArtifacts, ServiceError> {
        let t = Instant::now();
        if c.segments.is_some() {
            return Err(ServiceError::Compile(
                "publication takes a monolithic compilation".into(),
            ));
        }
        let circuit = &c.circuits[0].compiled;
        if !circuit.has_committed() {
            return Err(ServiceError::CommitmentMismatch(format!(
                "model '{}' has no weight columns to commit",
                c.graph.name
            )));
        }
        let (params, _pk, cache) = self.keys(c)?;
        check(Stage::Keyed)?;
        let (wc, weights) = circuit
            .commit_weights(&params)
            .map_err(|e| ServiceError::Prove(e.to_string()))?;
        let digest = self.registry.publish(ModelEntry {
            digest: wc.digest,
            model: c.graph.name.clone(),
            model_hash: c.graph.content_hash(),
            arch_hash: c.graph.arch_hash(),
            backend: c.opts.backend,
            k: circuit.k,
            circuit: circuit.circuit_digest(),
            commitment: wc.clone(),
            values_digest: circuit.committed_values_digest(),
            weights: Arc::new(weights),
        });
        Ok(ProofArtifacts {
            cache,
            prove_ms: t.elapsed().as_millis() as u64,
            segments: 0,
            weight_commitment: wc.to_bytes(),
            model_digest: Some(digest),
            ..c.artifacts()
        })
    }

    /// The registry entry a monolithic prove under `digest` must match: same
    /// backend, architecture, circuit (column alignment) and weight values.
    /// The values check is pure hashing — a tampered weight is caught before
    /// any key or proving work.
    fn published(&self, digest: [u8; 32], c: &Compiled) -> Result<Arc<ModelEntry>, ServiceError> {
        let circuit = &c.circuits[0].compiled;
        let name = hex(&digest);
        let entry = self
            .registry
            .get(&digest)
            .ok_or_else(|| self.mismatch(format!("no published model {name}")))?;
        let problem = if entry.backend != c.opts.backend {
            format!(
                "model {name} was published for {:?}, job asks for {:?}",
                entry.backend, c.opts.backend
            )
        } else if entry.arch_hash != c.graph.arch_hash() {
            format!("graph architecture does not match published model {name}")
        } else if entry.circuit != circuit.circuit_digest() {
            format!(
                "compiled circuit diverged from published model {name} \
                 (layout drift; republish the commitment)"
            )
        } else if entry.values_digest != circuit.committed_values_digest() {
            format!("graph weights do not hash to published model {name}")
        } else {
            return Ok(entry);
        };
        Err(self.mismatch(problem))
    }

    /// Keys → weights → prove → verify → artifacts.
    ///
    /// A monolithic compilation yields one unbound proof, under the
    /// registry's pre-encoded weights when `model` names a published
    /// commitment (commit-once/prove-many: zero weight encodings, zero
    /// commitment MSMs here) and under an inline commitment otherwise; either
    /// way the commitment rides in the artifacts, because a committed proof
    /// is unverifiable without it. A segmented compilation yields a
    /// [`SegmentedProof`] bundle. Nothing is returned that did not verify.
    ///
    /// `proof_seed` seeds the blinding randomness. Note the vendored `rand`
    /// is a non-cryptographic stand-in (see vendor README): proofs from this
    /// reproduction should not be relied on for the hiding property.
    pub fn prove(
        &self,
        c: &Compiled,
        model: Option<[u8; 32]>,
        proof_seed: u64,
        check: Check,
    ) -> Result<ProofArtifacts, ServiceError> {
        let prove_err = |e: zkml::ZkmlError| ServiceError::Prove(e.to_string());
        if c.segments.is_none() {
            let circuit = &c.circuits[0].compiled;
            let entry = model.map(|d| self.published(d, c)).transpose()?;
            let (params, pk, cache) = self.keys(c)?;
            check(Stage::Keyed)?;

            let t = Instant::now();
            let (inline, empty);
            let (wc, weights) = match &entry {
                Some(entry) => (Some(&entry.commitment), &*entry.weights),
                None if circuit.has_committed() => {
                    inline = circuit.commit_weights(&params).map_err(prove_err)?;
                    (Some(&inline.0), &inline.1)
                }
                None => {
                    empty = CommittedWeights::empty();
                    (None, &empty)
                }
            };
            let mut rng = StdRng::seed_from_u64(proof_seed);
            let proof = circuit
                .prove_with_weights(&params, &pk, &mut rng, &[], weights)
                .map_err(prove_err)?;
            let prove_ms = t.elapsed().as_millis() as u64;
            self.stats.record_prove_latency_ms(prove_ms);

            check(Stage::Proved)?;
            self.verify_proof(&params, &pk.vk, circuit.instance(), &proof, wc)?;
            Ok(ProofArtifacts {
                proof,
                vk_bytes: pk.vk.to_bytes(),
                public: circuit.instance().first().cloned().unwrap_or_default(),
                cache,
                prove_ms,
                weight_commitment: wc.map(WeightCommitment::to_bytes).unwrap_or_default(),
                model_digest: model,
                ..c.artifacts()
            })
        } else {
            if model.is_some() {
                return Err(ServiceError::Prove(
                    "a published model digest is not supported for segmented proves".into(),
                ));
            }
            // `prove_compiled` fetches every segment's key and commits its
            // weights inline, concurrently, before proving.
            let keys = CacheKeySource {
                pipe: self,
                arch_hash: c.graph.arch_hash(),
                misses: AtomicU64::new(0),
            };
            let t = Instant::now();
            let bundle = zkml_shard::prove_compiled(
                c.graph.content_hash(),
                &c.circuits,
                &keys,
                &c.opts,
                proof_seed,
            )
            .map_err(|e| ServiceError::Prove(e.to_string()))?;
            let prove_ms = t.elapsed().as_millis() as u64;
            self.stats.record_prove_latency_ms(prove_ms);

            check(Stage::Proved)?;
            self.verify_bundle(&bundle)?;
            Ok(ProofArtifacts {
                proof: bundle.to_bytes(),
                public: bundle.public_outputs().to_vec(),
                cache: if keys.misses.load(Ordering::Relaxed) == 0 {
                    CacheOutcome::MemoryHit
                } else {
                    CacheOutcome::Miss
                },
                prove_ms,
                bundle: Some(bundle),
                ..c.artifacts()
            })
        }
    }

    /// Verifies one monolithic proof to completion with
    /// [`zkml_plonk::verify_proof`] and records the outcome and its latency
    /// in the stats; a rejected proof is a [`ServiceError::Verify`].
    pub fn verify_proof(
        &self,
        params: &Params,
        vk: &VerifyingKey,
        instance: &[Vec<Fr>],
        proof: &[u8],
        wc: Option<&WeightCommitment>,
    ) -> Result<(), ServiceError> {
        let t = Instant::now();
        let outcome = zkml_plonk::verify_proof(params, vk, instance, proof, &[], wc);
        self.stats
            .record_verify_latency_ms(t.elapsed().as_millis() as u64);
        self.stats
            .record_verified(outcome.is_ok() as u64, outcome.is_err() as u64);
        outcome.map_err(|e| ServiceError::Verify(e.to_string()))
    }

    /// Verifies a bundle — all segments settled with one pairing — and
    /// records every segment proof and the bundle's latency in the stats.
    pub fn verify_bundle(
        &self,
        bundle: &SegmentedProof,
    ) -> Result<zkml_shard::BundleReport, ServiceError> {
        let t = Instant::now();
        let outcome = zkml_shard::verify_bundle(bundle, |b, k| self.cache.params(b, k));
        self.stats
            .record_verify_latency_ms(t.elapsed().as_millis() as u64);
        match &outcome {
            Ok(report) => self.stats.record_verified(report.segments as u64, 0),
            Err(_) => self.stats.record_verified(0, bundle.segments.len() as u64),
        }
        outcome.map_err(|e| ServiceError::Verify(e.to_string()))
    }

    /// The weight commitment a proof is checked against: the one rule, over
    /// parsed inputs, that the verify job and `zkml verify` both run.
    ///
    /// `vk` is `None` for a segmented bundle, which carries its own keys and
    /// commitments and so refuses a model digest and a carried commitment
    /// alike ([`ServiceError::Verify`]), readable or not. For a monolithic
    /// proof:
    ///
    /// - a carried commitment is used, and when `model` is given its digest
    ///   must equal it. [`WeightCommitment::from_bytes`] recomputes the
    ///   digest, so a carried commitment whose digest is the named one *is*
    ///   that published commitment, and it verifies without the registry
    ///   that published it (a restarted server's, or none at all);
    /// - with nothing carried, `model` is looked up in the registry;
    /// - with neither, a circuit with committed columns has nothing sound to
    ///   be checked against.
    ///
    /// Those refusals, and an unreadable carried commitment, are a
    /// [`ServiceError::CommitmentMismatch`].
    pub fn commitment_for(
        &self,
        vk: Option<&VerifyingKey>,
        model: Option<[u8; 32]>,
        carried: Option<Result<WeightCommitment, ReadError>>,
    ) -> Result<Option<WeightCommitment>, ServiceError> {
        let Some(vk) = vk else {
            if model.is_some() || carried.is_some() {
                return Err(ServiceError::Verify(
                    "a bundle carries its own weight commitments; a model digest or \
                     commitment cannot be checked against it"
                        .into(),
                ));
            }
            return Ok(None);
        };
        let carried = carried
            .transpose()
            .map_err(|e| self.mismatch(format!("parse weight commitment: {e}")))?;
        match (carried, model) {
            (Some(wc), Some(digest)) if wc.digest != digest => Err(self.mismatch(format!(
                "proof carries commitment {}, not the published {}",
                hex(&wc.digest),
                hex(&digest)
            ))),
            (Some(wc), _) => Ok(Some(wc)),
            (None, Some(digest)) => match self.registry.get(&digest) {
                Some(entry) => Ok(Some(entry.commitment.clone())),
                None => Err(self.mismatch(format!(
                    "no published model {} and the proof carries no weight commitment",
                    hex(&digest)
                ))),
            },
            (None, None) if vk.cs.num_committed > 0 => Err(self.mismatch(
                "proof is for a committed-weight circuit but no model digest or \
                 weight commitment was supplied"
                    .into(),
            )),
            (None, None) => Ok(None),
        }
    }

    /// Verifies an already-produced proof: a monolithic `(vk, public,
    /// proof)` triple when `vk` is non-empty, otherwise `proof` is a
    /// serialized [`SegmentedProof`] bundle. The weight commitment is the one
    /// [`Pipeline::commitment_for`] picks from `model` and the `carried`
    /// serialized commitment (empty: none).
    pub(crate) fn verify(
        &self,
        backend: Backend,
        vk: &[u8],
        public: &[Fr],
        proof: &[u8],
        model: Option<[u8; 32]>,
        carried: &[u8],
    ) -> Result<(), ServiceError> {
        let carried = (!carried.is_empty()).then(|| WeightCommitment::from_bytes(carried));
        if vk.is_empty() {
            self.commitment_for(None, model, carried)?;
            let bundle = SegmentedProof::from_bytes(proof)
                .map_err(|e| ServiceError::Verify(format!("parse bundle: {e}")))?;
            return self.verify_bundle(&bundle).map(|_| ());
        }
        let vk = VerifyingKey::from_bytes(vk)
            .map_err(|e| ServiceError::Verify(format!("parse vk: {e}")))?;
        let wc = self.commitment_for(Some(&vk), model, carried)?;
        let params = self.cache.params(backend, vk.k);
        self.verify_proof(&params, &vk, &[public.to_vec()], proof, wc.as_ref())
    }
}
