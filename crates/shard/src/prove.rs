//! Segment compilation and parallel bound proving.
//!
//! [`compile_segments`] cuts one lowered [`OpSchedule`] into segments and
//! runs each through the unchanged optimize → place → synthesize pipeline;
//! [`prove_compiled`] then derives the bundle's chain digest from the
//! segment metadata and proves every segment concurrently on the
//! `zkml-par` pool, each proof transcript-bound to its position in the
//! chain. [`prove_segmented`] is the one-call composition.

use crate::bundle::{segment_binding, SegmentProof, SegmentedProof};
use crate::ShardError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use zkml::{
    cut_schedule, optimize_schedule, CompiledCircuit, HardwareStats, LayoutPlan, OpSchedule,
    OptimizerOptions, SegmentPlan, ZkmlError,
};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{CommittedWeights, ProvingKey, WeightCommitment};

/// Seed for regenerating the deterministic SRS when no external params
/// source is supplied. Matches `zkml_service::SRS_SEED` (this crate sits
/// below the service and cannot import it), so standalone bundles verify
/// against service-generated params and vice versa.
pub const DEFAULT_SRS_SEED: u64 = 0x5151;

/// How many segments to cut a model into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentSpec {
    /// Cut into (at most) this many balanced segments. `Fixed(1)` proves
    /// monolithically through the segmented path.
    Fixed(usize),
    /// Start monolithic and double the segment count until every segment's
    /// layout sweep fits within the optimizer's `max_k`.
    Auto,
}

/// Where segment proving gets its commitment params and proving keys.
///
/// Segments are independent circuits, so each wants its own `(k, params,
/// proving key)`; this trait lets the proving service route the lookups
/// through its `ArtifactCache` (in `zkml-service`, per-segment
/// `ArtifactKey::for_plan`, so the pk cache shards naturally) while
/// standalone callers use [`FreshKeySource`].
pub trait KeySource: Sync {
    /// Commitment parameters supporting `2^k` rows for `backend`.
    fn params(&self, backend: Backend, k: u32) -> Arc<Params>;

    /// The proving key for one compiled segment of the model hashing to
    /// `model_hash`. `plan` is the layout plan the segment was synthesized
    /// from (its digest keys caches before witnesses exist); `compiled` is
    /// the synthesized segment for keygen or cache validation.
    fn proving_key(
        &self,
        model_hash: [u8; 32],
        backend: Backend,
        plan: &LayoutPlan,
        compiled: &CompiledCircuit,
        params: &Params,
    ) -> Result<Arc<ProvingKey>, ZkmlError>;
}

/// A [`KeySource`] with no cache behind it: params are regenerated from a
/// fixed seed (memoized per `(backend, k)` within this source) and keygen
/// runs per segment.
pub struct FreshKeySource {
    /// Seed for [`Params::setup`]'s deterministic rng.
    pub srs_seed: u64,
    memo: Mutex<HashMap<(Backend, u32), Arc<Params>>>,
}

impl FreshKeySource {
    /// A source regenerating params from `srs_seed`.
    pub fn new(srs_seed: u64) -> Self {
        Self {
            srs_seed,
            memo: Mutex::new(HashMap::new()),
        }
    }
}

impl Default for FreshKeySource {
    fn default() -> Self {
        Self::new(DEFAULT_SRS_SEED)
    }
}

impl KeySource for FreshKeySource {
    fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        if let Some(p) = self.memo.lock().unwrap().get(&(backend, k)) {
            return Arc::clone(p);
        }
        let mut rng = StdRng::seed_from_u64(self.srs_seed);
        let fresh = Arc::new(Params::setup(backend, k, &mut rng));
        Arc::clone(
            self.memo
                .lock()
                .unwrap()
                .entry((backend, k))
                .or_insert(fresh),
        )
    }

    fn proving_key(
        &self,
        _model_hash: [u8; 32],
        _backend: Backend,
        _plan: &LayoutPlan,
        compiled: &CompiledCircuit,
        params: &Params,
    ) -> Result<Arc<ProvingKey>, ZkmlError> {
        Ok(Arc::new(compiled.keygen(params)?))
    }
}

/// One segment compiled and ready to prove.
pub struct CompiledSegment {
    /// The layout plan the segment's sweep picked (keys artifact caches).
    pub plan: LayoutPlan,
    /// The synthesized segment circuit with its witness.
    pub compiled: CompiledCircuit,
    /// Length of the boundary-in prefix of the segment's instance column.
    pub boundary_in_len: usize,
}

fn compile_plan(
    sched: &OpSchedule,
    plan: &SegmentPlan,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<Vec<CompiledSegment>, ShardError> {
    let segs = cut_schedule(sched, plan)?;
    let mut out = Vec::with_capacity(segs.len());
    // Segments run serially here: each layout sweep is already parallel
    // over candidates internally (and deterministic at any thread count).
    for seg in segs {
        let boundary_in_len = seg.boundary_in_len();
        let report = optimize_schedule(seg.schedule, opts, hw)?;
        let compiled = report.synthesize_best()?;
        out.push(CompiledSegment {
            plan: report.best_plan.clone(),
            compiled,
            boundary_in_len,
        });
    }
    Ok(out)
}

/// Maximum segment count [`SegmentSpec::Auto`] will try before giving up.
const AUTO_MAX_SEGMENTS: usize = 64;

/// Cuts a lowered schedule per `spec` and compiles every segment through
/// the optimize → place → synthesize pipeline.
///
/// With [`SegmentSpec::Auto`], the segment count doubles from 1 until
/// every segment's sweep finds a layout within `opts.max_k` — so a model
/// too large to prove monolithically at `max_k` compiles as the smallest
/// power-of-two number of segments that fits.
pub fn compile_segments(
    sched: &OpSchedule,
    spec: SegmentSpec,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<Vec<CompiledSegment>, ShardError> {
    match spec {
        SegmentSpec::Fixed(n) => {
            if n == 0 {
                return Err(ShardError::Malformed("segment count must be >= 1".into()));
            }
            compile_plan(sched, &SegmentPlan::balanced(sched, n), opts, hw)
        }
        SegmentSpec::Auto => {
            let mut n = 1usize;
            let mut last_segments = 0usize;
            loop {
                let plan = SegmentPlan::balanced(sched, n);
                let produced = plan.num_segments();
                if produced == last_segments {
                    // The schedule cannot be cut any finer; surface the
                    // infeasibility instead of looping.
                    return compile_plan(sched, &plan, opts, hw);
                }
                last_segments = produced;
                match compile_plan(sched, &plan, opts, hw) {
                    Err(ShardError::Compile(ZkmlError::NoFeasibleLayout { .. }))
                        if n < AUTO_MAX_SEGMENTS =>
                    {
                        n *= 2;
                    }
                    other => return other,
                }
            }
        }
    }
}

/// Deterministic per-segment proof seed: a fixed-point mix of the caller's
/// seed and the segment index, so bundles are bit-identical across runs
/// and thread counts for a given seed.
fn segment_seed(seed: u64, index: usize) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)
}

/// Proves compiled segments concurrently and assembles the bundle.
///
/// Key material is fetched (or generated) per segment in parallel first;
/// the chain digest is then derived from the complete metadata, and every
/// segment is proved on the `zkml-par` pool with its proof bound to
/// `(chain digest, position)`. Proof randomness derives only from `seed`
/// and the segment index, so the bundle is deterministic.
pub fn prove_compiled(
    model_hash: [u8; 32],
    segments: &[CompiledSegment],
    keys: &dyn KeySource,
    opts: &OptimizerOptions,
    seed: u64,
) -> Result<SegmentedProof, ShardError> {
    if segments.is_empty() {
        return Err(ShardError::Malformed("no segments to prove".into()));
    }
    let backend = opts.backend;

    type KeyMaterial = Result<
        (
            Arc<Params>,
            Arc<ProvingKey>,
            Option<(WeightCommitment, CommittedWeights)>,
        ),
        ZkmlError,
    >;
    let keyed: Vec<KeyMaterial> = zkml_par::par_map(segments.len(), |i| {
        let seg = &segments[i];
        let params = keys.params(backend, seg.compiled.k);
        let pk = keys.proving_key(model_hash, backend, &seg.plan, &seg.compiled, &params)?;
        // Weight-bearing segments commit their committed-column plane once
        // here; the commitment rides in the bundle (chain-digested) and
        // the encodings feed the bound proof below.
        let weights = if seg.compiled.has_committed() {
            Some(seg.compiled.commit_weights(&params)?)
        } else {
            None
        };
        Ok((params, pk, weights))
    });
    let mut material = Vec::with_capacity(segments.len());
    for r in keyed {
        material.push(r?);
    }

    let mut bundle = SegmentedProof {
        model_hash,
        backend,
        segments: segments
            .iter()
            .zip(&material)
            .map(|(seg, (_, pk, weights))| SegmentProof {
                k: seg.compiled.k,
                vk_bytes: pk.vk.to_bytes(),
                boundary_in_len: seg.boundary_in_len as u32,
                instance: seg.compiled.instance()[0].clone(),
                weight_commitment: weights
                    .as_ref()
                    .map(|(wc, _)| wc.to_bytes())
                    .unwrap_or_default(),
                proof: Vec::new(),
            })
            .collect(),
    };
    let chain = bundle.chain_digest();
    let nsegs = segments.len();

    let proofs: Vec<Result<Vec<u8>, ZkmlError>> = zkml_par::par_map(nsegs, |i| {
        let (params, pk, weights) = &material[i];
        let mut rng = StdRng::seed_from_u64(segment_seed(seed, i));
        let binding = segment_binding(&chain, i, nsegs);
        let empty = CommittedWeights::empty();
        let cw = weights.as_ref().map_or(&empty, |(_, cw)| cw);
        segments[i]
            .compiled
            .prove_with_weights(params, pk, &mut rng, &binding, cw)
    });
    for (slot, proof) in bundle.segments.iter_mut().zip(proofs) {
        slot.proof = proof?;
    }
    Ok(bundle)
}

/// One-call segmented proving: cut, compile, and prove a lowered schedule.
pub fn prove_segmented(
    sched: &OpSchedule,
    spec: SegmentSpec,
    model_hash: [u8; 32],
    keys: &dyn KeySource,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
    seed: u64,
) -> Result<SegmentedProof, ShardError> {
    let segments = compile_segments(sched, spec, opts, hw)?;
    prove_compiled(model_hash, &segments, keys, opts, seed)
}
