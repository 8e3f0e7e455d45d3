//! Segment compilation and parallel bound proving.
//!
//! [`plan_segments`] decides where one lowered [`OpSchedule`] is cut and
//! sweeps each segment for its layout — a decision that depends on the
//! architecture alone, so callers serving many requests keep the resulting
//! [`SegmentLayout`]; [`synthesize_segments`] cuts a schedule under a layout
//! and synthesizes every segment's witness. [`compile_segments`] is the two
//! in a row. [`prove_compiled`] then derives the bundle's chain digest from
//! the segment metadata and proves every segment concurrently on the
//! `zkml-par` pool, each proof transcript-bound to its position in the
//! chain.

use crate::bundle::{segment_binding, SegmentProof, SegmentedProof};
use crate::ShardError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use zkml::{
    cut_schedule, optimize_schedule, synthesize, CompiledCircuit, HardwareStats, LayoutPlan,
    OpSchedule, OptimizerOptions, SegmentPlan, ZkmlError,
};
use zkml_pcs::{Backend, Params};
use zkml_plonk::{CommittedWeights, ProvingKey, WeightCommitment};

/// Seed for regenerating the deterministic SRS (see DESIGN.md on the
/// trusted-setup substitution). Every params source in the workspace — this
/// crate's [`FreshKeySource`], the service's artifact cache — uses it, so a
/// proof made by one process verifies in any other.
pub const DEFAULT_SRS_SEED: u64 = 0x5151;

/// How many segments to cut a model into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

/// A [`KeySource`] with no cache behind it: params are regenerated from
/// [`DEFAULT_SRS_SEED`] (memoized per `(backend, k)` within this source) and
/// keygen runs per segment.
#[derive(Default)]
pub struct FreshKeySource {
    memo: Mutex<HashMap<(Backend, u32), Arc<Params>>>,
}

impl KeySource for FreshKeySource {
    fn params(&self, backend: Backend, k: u32) -> Arc<Params> {
        if let Some(p) = self.memo.lock().unwrap().get(&(backend, k)) {
            return Arc::clone(p);
        }
        let mut rng = StdRng::seed_from_u64(DEFAULT_SRS_SEED);
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

/// The layout decision for a model: where its schedule is cut and the plan
/// each segment's sweep picked. A function of the architecture, the
/// optimizer options and the cost table only — the request's inputs (and the
/// weight values) reach neither the cut nor placement — so one layout serves
/// every job of a model. A monolithic circuit is the layout with no cuts
/// and one plan.
#[derive(Clone, Debug)]
pub struct SegmentLayout {
    /// The resolved cut ([`SegmentSpec::Auto`] already doubled out).
    pub cut: SegmentPlan,
    /// One plan per segment, in chain order.
    pub plans: Vec<LayoutPlan>,
}

/// Sweeps every segment of `sched` under `cut` for its cheapest plan.
fn sweep_cut(
    sched: &OpSchedule,
    cut: SegmentPlan,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<SegmentLayout, ShardError> {
    // Segments run serially here: each layout sweep is already parallel
    // over candidates internally (and deterministic at any thread count).
    let plans = cut_schedule(sched, &cut)?
        .into_iter()
        .map(|seg| Ok(optimize_schedule(seg.schedule, opts, hw)?.best_plan))
        .collect::<Result<_, ShardError>>()?;
    Ok(SegmentLayout { cut, plans })
}

/// Maximum segment count [`SegmentSpec::Auto`] will try before giving up.
const AUTO_MAX_SEGMENTS: usize = 64;

/// Resolves `spec` to a cut of `sched` and sweeps every segment's layout.
///
/// With [`SegmentSpec::Auto`], the segment count doubles from 1 until
/// every segment's sweep finds a layout within `opts.max_k` — so a model
/// too large to prove monolithically at `max_k` is planned as the smallest
/// power-of-two number of segments that fits.
pub fn plan_segments(
    sched: &OpSchedule,
    spec: SegmentSpec,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<SegmentLayout, ShardError> {
    match spec {
        SegmentSpec::Fixed(n) => {
            if n == 0 {
                return Err(ShardError::Malformed("segment count must be >= 1".into()));
            }
            sweep_cut(sched, SegmentPlan::balanced(sched, n), opts, hw)
        }
        SegmentSpec::Auto => {
            let mut n = 1usize;
            let mut last_segments = 0usize;
            loop {
                let cut = SegmentPlan::balanced(sched, n);
                let produced = cut.num_segments();
                if produced == last_segments {
                    // The schedule cannot be cut any finer; surface the
                    // infeasibility instead of looping.
                    return sweep_cut(sched, cut, opts, hw);
                }
                last_segments = produced;
                match sweep_cut(sched, cut, opts, hw) {
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

/// Cuts `sched` under `layout` and synthesizes each segment's witness under
/// its plan. Synthesis cross-checks every plan against the circuit it
/// produced, so a layout kept from another schedule of the same model
/// either reproduces exactly or fails with [`ZkmlError::PlanMismatch`].
pub fn synthesize_segments(
    sched: &OpSchedule,
    layout: &SegmentLayout,
) -> Result<Vec<CompiledSegment>, ShardError> {
    let segs = cut_schedule(sched, &layout.cut)?;
    if segs.len() != layout.plans.len() {
        return Err(ShardError::Compile(ZkmlError::PlanMismatch(format!(
            "layout has {} plans but the cut produced {} segments",
            layout.plans.len(),
            segs.len()
        ))));
    }
    segs.iter()
        .zip(&layout.plans)
        .map(|(seg, plan)| {
            Ok(CompiledSegment {
                plan: plan.clone(),
                compiled: synthesize(&seg.schedule, plan)?,
                boundary_in_len: seg.boundary_in_len(),
            })
        })
        .collect()
}

/// Cuts a lowered schedule per `spec` and compiles every segment through
/// the optimize → place → synthesize pipeline: [`plan_segments`] followed
/// by [`synthesize_segments`].
pub fn compile_segments(
    sched: &OpSchedule,
    spec: SegmentSpec,
    opts: &OptimizerOptions,
    hw: &HardwareStats,
) -> Result<Vec<CompiledSegment>, ShardError> {
    synthesize_segments(sched, &plan_segments(sched, spec, opts, hw)?)
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
