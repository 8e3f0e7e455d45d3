//! Stages 2 and 3 of the compile pipeline, plus keygen/prove/verify.
//!
//! Stage 2 — **placement** ([`place`]) — sums an
//! [`crate::schedule::OpSchedule`]'s distinct op shapes (see
//! [`crate::shape`]) into a [`LayoutPlan`]: the row count, layout
//! statistics, and constraint-system skeleton of one candidate
//! configuration, with no witness attached. Its cost grows with the
//! number of distinct shapes, not of cells. Plans are what the optimizer
//! sweeps and compares.
//!
//! Stage 3 — **synthesis** ([`synthesize`]) — replays the schedule's ops
//! through the builder's gadgets to assign the witness and cross-checks
//! that it reproduced exactly the structure the plan promised (same `k`,
//! statistics, and constraint system), so a stale, mismatched or
//! mis-shaped plan surfaces as [`ZkmlError::PlanMismatch`] instead of an
//! unsound circuit. [`compile`] is lower → place → synthesize under one
//! configuration; [`compile_with`] synthesizes a gadget closure once, with
//! no schedule to place.

use crate::builder::{AValue, BuildError, CircuitBuilder, LayoutStats};
use crate::config::CircuitConfig;
use crate::freivalds::{fill_jobs, FreivaldsJob};
use crate::schedule::{run_schedule, OpSchedule};
use crate::shape::shape;
use rand::RngCore;
use zkml_analyze::{AnalysisInput, AnalysisReport, RegionSpan};
use zkml_ff::Fr;
use zkml_model::Graph;
use zkml_pcs::Params;
use zkml_plonk::{
    commit_weights, create_proof_committed, keygen, verify_proof, CommittedWeights,
    ConstraintSystem, PlonkError, Preprocessed, ProvingKey, VerifyingKey, WeightCommitment,
    WitnessSource, BLINDING_FACTORS,
};
use zkml_tensor::Tensor;

/// Errors from compilation, planning, or proving.
#[derive(Debug)]
pub enum ZkmlError {
    /// Circuit construction failed.
    Build(BuildError),
    /// Proving-system failure.
    Plonk(PlonkError),
    /// The optimizer found no layout that fits within the row budget.
    NoFeasibleLayout {
        /// The largest `k` the sweep was allowed to consider.
        max_k: u32,
    },
    /// Synthesis produced a different circuit than the supplied plan.
    PlanMismatch(String),
    /// The static analyzer found advice cells not uniquely determined by
    /// the circuit inputs (see [`CompiledCircuit::ensure_determined`]).
    Underconstrained {
        /// How many free cells were reported.
        free_cells: usize,
        /// The analyzer's rendered report.
        detail: String,
    },
}

impl std::fmt::Display for ZkmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZkmlError::Build(e) => write!(f, "{e}"),
            ZkmlError::Plonk(e) => write!(f, "{e}"),
            ZkmlError::NoFeasibleLayout { max_k } => {
                write!(f, "no feasible layout found within max_k = {max_k}")
            }
            ZkmlError::PlanMismatch(s) => write!(f, "plan mismatch: {s}"),
            ZkmlError::Underconstrained { free_cells, detail } => {
                write!(
                    f,
                    "underconstrained circuit ({free_cells} free cells): {detail}"
                )
            }
        }
    }
}
impl std::error::Error for ZkmlError {}
impl From<BuildError> for ZkmlError {
    fn from(e: BuildError) -> Self {
        ZkmlError::Build(e)
    }
}
impl From<PlonkError> for ZkmlError {
    fn from(e: PlonkError) -> Self {
        ZkmlError::Plonk(e)
    }
}

/// Stage 2's output: the complete physical layout of one candidate
/// configuration, without a witness.
///
/// A plan is cheap to hold (the constraint system plus a handful of
/// numbers) and is the unit the optimizer ranks, caches, and finally
/// hands to [`synthesize`]. Its [`digest`](LayoutPlan::digest) is
/// byte-identical to [`CompiledCircuit::circuit_digest`] for the circuit
/// synthesis will produce, so artifact caches can be keyed before any
/// witness exists.
#[derive(Clone, Debug)]
pub struct LayoutPlan {
    /// The configuration the plan was placed under.
    pub cfg: CircuitConfig,
    /// Rows: log2 of the grid height.
    pub k: u32,
    /// Structure statistics (for the cost model and reports).
    pub stats: LayoutStats,
    /// The constraint-system skeleton synthesis must reproduce.
    pub cs: ConstraintSystem,
}

impl LayoutPlan {
    /// Digest pinning the exact circuit identity this plan describes.
    ///
    /// Byte-identical to [`CompiledCircuit::circuit_digest`] of the
    /// synthesized circuit; anything caching proving keys can key on the
    /// plan alone.
    pub fn digest(&self) -> [u8; 32] {
        identity_digest(&self.cfg, self.k, &self.cs)
    }
}

/// Shared digest over (configuration, k, constraint system) — the circuit
/// identity. Used by both [`LayoutPlan::digest`] and
/// [`CompiledCircuit::circuit_digest`] so the two always agree.
fn identity_digest(cfg: &CircuitConfig, k: u32, cs: &ConstraintSystem) -> [u8; 32] {
    let mut w = zkml_pcs::Writer::new();
    w.u32(k);
    let c = &cfg.choices;
    for v in [
        c.relu as u64,
        c.matmul as u64,
        c.dot as u64,
        c.arith as u64,
        c.lookup_packs as u64,
        cfg.num_cols as u64,
        cfg.numeric.scale_bits as u64,
        cfg.numeric.clip_bits as u64,
    ] {
        w.u64(v);
    }
    zkml_plonk::write_cs(&mut w, cs);
    let mut h = zkml_transcript::Blake2b::new();
    h.update(b"zkml-circuit-digest-v1");
    h.update(&w.finish());
    let digest = h.finalize();
    let mut out = [0u8; 32];
    out.copy_from_slice(&digest[..32]);
    out
}

/// A compiled circuit with its witness, ready for keygen/prove/verify.
pub struct CompiledCircuit {
    /// The configuration it was compiled under.
    pub cfg: CircuitConfig,
    /// Rows: log2 of the grid height.
    pub k: u32,
    /// Structure statistics (for the cost model and reports).
    pub stats: LayoutStats,
    /// The constraint system.
    pub cs: ConstraintSystem,
    /// Fixed columns and copy constraints.
    pub pre: Preprocessed,
    /// Quantized model outputs (the public values).
    pub outputs: Vec<Tensor<i64>>,
    instance: Vec<Vec<Fr>>,
    advice0: Vec<(usize, Vec<Fr>)>,
    p1_cols: Vec<usize>,
    p1_rows: usize,
    jobs: Vec<FreivaldsJob>,
    assigned: Vec<zkml_plonk::CellRef>,
    inputs: Vec<zkml_plonk::CellRef>,
    regions: Vec<RegionSpan>,
}

struct ZkmlWitness<'a> {
    c: &'a CompiledCircuit,
}

impl WitnessSource for ZkmlWitness<'_> {
    fn instance(&self) -> Vec<Vec<Fr>> {
        self.c.instance.clone()
    }
    fn advice(&self, phase: u8, challenges: &[Fr]) -> Vec<(usize, Vec<Fr>)> {
        if phase == 0 {
            self.c.advice0.clone()
        } else {
            fill_jobs(&self.c.jobs, &self.c.p1_cols, challenges, self.c.p1_rows)
        }
    }
}

fn check_numeric(sched: &OpSchedule, cfg: &CircuitConfig) -> Result<(), ZkmlError> {
    if sched.numeric != cfg.numeric {
        return Err(ZkmlError::PlanMismatch(format!(
            "schedule numeric config {:?} != circuit config {:?}",
            sched.numeric, cfg.numeric
        )));
    }
    Ok(())
}

/// Stage 2: places a schedule under one candidate configuration, producing
/// its [`LayoutPlan`] row-exactly without assigning a witness
/// (GeneratePhysicalLayout, §7.3).
///
/// One builder takes the schedule's distinct op shapes in first-occurrence
/// order: each shape's registrations run through the builder's registry
/// (so the constraint system is built by synthesis's own code, in
/// synthesis's order — a repeated shape registers nothing) and its rows
/// and copies are added times its count. An op that cannot be laid out at
/// this configuration fails with the error its gadget returns.
pub fn place(sched: &OpSchedule, cfg: CircuitConfig) -> Result<LayoutPlan, ZkmlError> {
    check_numeric(sched, &cfg)?;
    let mut bld = CircuitBuilder::new(cfg);
    for (key, count) in &sched.shapes {
        bld.place_shape(&shape(key, &cfg)?, *count);
    }
    let outputs: usize = sched.outputs.iter().map(|(_, ids)| ids.len()).sum();
    bld.expose(&vec![AValue::BLANK; outputs]);
    let k = bld.min_k();
    let stats = bld.stats();
    let (cs, ..) = bld.take_parts();
    Ok(LayoutPlan { cfg, k, stats, cs })
}

/// Stage 3: synthesizes the witness for a schedule under a chosen plan.
///
/// The schedule is replayed exactly once through the builder; the
/// resulting structure is checked against the plan and any drift is a
/// [`ZkmlError::PlanMismatch`].
pub fn synthesize(sched: &OpSchedule, plan: &LayoutPlan) -> Result<CompiledCircuit, ZkmlError> {
    check_numeric(sched, &plan.cfg)?;
    let mut bld = CircuitBuilder::new(plan.cfg);
    bld.reserve(plan.k, &plan.stats);
    let outs = run_schedule(&mut bld, sched)?;
    let c = finalize(bld, outs)?;
    if c.k != plan.k {
        return Err(ZkmlError::PlanMismatch(format!(
            "planned k = {} but synthesis needed k = {}",
            plan.k, c.k
        )));
    }
    if c.stats != plan.stats {
        return Err(ZkmlError::PlanMismatch(format!(
            "planned stats {:?} != synthesized stats {:?}",
            plan.stats, c.stats
        )));
    }
    if c.cs != plan.cs {
        return Err(ZkmlError::PlanMismatch(
            "synthesized constraint system differs from plan".into(),
        ));
    }
    Ok(c)
}

/// Compiles a graph (with quantized inputs) straight through under `cfg`:
/// lower, [`place`], [`synthesize`] — the optimizer's path minus the sweep,
/// so the circuit passes the same plan cross-check.
pub fn compile(
    graph: &Graph,
    inputs: &[Tensor<i64>],
    cfg: CircuitConfig,
) -> Result<CompiledCircuit, ZkmlError> {
    let sched = crate::layers::lower_graph(graph, inputs, cfg.numeric);
    synthesize(&sched, &place(&sched, cfg)?)
}

/// Compiles a hand-written synthesis closure instead of a model graph.
///
/// The closure builds any circuit it likes against the gadget API and
/// returns the values to expose as public outputs. This is how the testkit
/// drives individual gadgets through the mock checker without constructing
/// a model around each one. With no schedule there are no op shapes to
/// place, so the closure is synthesized once and the circuit's `k`,
/// statistics and constraint system are read off the result.
pub fn compile_with<F>(cfg: CircuitConfig, synthesize: F) -> Result<CompiledCircuit, ZkmlError>
where
    F: Fn(&mut CircuitBuilder) -> Result<Vec<AValue>, BuildError>,
{
    let mut bld = CircuitBuilder::new(cfg);
    let vals = synthesize(&mut bld)?;
    finalize(bld, vec![Tensor::new(vec![vals.len()], vals)])
}

/// Shared back half of synthesis: expose outputs, pad tables, and pack the
/// builder state into a [`CompiledCircuit`].
fn finalize(
    mut bld: CircuitBuilder,
    outs: Vec<Tensor<AValue>>,
) -> Result<CompiledCircuit, ZkmlError> {
    let cfg = bld.cfg;
    let flat: Vec<AValue> = outs.iter().flat_map(|t| t.data().iter().copied()).collect();
    bld.expose(&flat);

    let k = bld.min_k();
    let usable = (1usize << k) - BLINDING_FACTORS - 1;
    let stats = bld.stats();
    let outputs: Vec<Tensor<i64>> = outs.iter().map(|t| t.map(|a| a.v)).collect();

    // Pad lookup-table columns to the usable height with valid entries so
    // the padding rows do not weaken the table (see builder docs).
    bld.write_tables();
    let pads = bld.table_pad_info();
    for (cols, len, defaults) in &pads {
        for (col, default) in cols.iter().zip(defaults) {
            for row in *len..usable {
                bld.set_fixed_pub(*col, row, *default);
            }
        }
    }

    let p1_rows = bld.p1_rows_used();
    // The cell lists below live as long as the circuit and were grown by
    // doubling; dropping their spare capacity keeps up to half of each
    // out of the process's peak (`ensure_determined` runs on top of them).
    let mut assigned = bld.take_assigned();
    assigned.shrink_to_fit();
    let inputs = bld.take_inputs();
    let mut regions = bld.take_regions();
    let mut jobs = bld.take_freivalds_jobs();
    for job in &mut jobs {
        job.cells.shrink_to_fit();
    }
    let grid: Vec<usize> = bld.grid_cols().to_vec();
    let p1_cols: Vec<usize> = bld.p1_cols().to_vec();
    if let (Some(first), Some(last)) = (p1_cols.first(), p1_cols.last()) {
        if p1_rows > 0 {
            regions.push(RegionSpan {
                label: "freivalds".to_string(),
                columns: *first..*last + 1,
                rows: 0..p1_rows,
            });
        }
    }
    let num_fixed = bld.num_fixed_cols();
    let (cs, mut fixed_vals, advice_vals, copies, instance_vals, committed_vals) = bld.take_parts();

    fixed_vals.resize(num_fixed, Vec::new());
    let pre = Preprocessed {
        fixed: fixed_vals,
        copies,
        committed: committed_vals,
    };
    let advice0: Vec<(usize, Vec<Fr>)> = grid
        .iter()
        .map(|c| (*c, advice_vals.get(*c).cloned().unwrap_or_default()))
        .collect();

    Ok(CompiledCircuit {
        cfg,
        k,
        stats,
        cs,
        pre,
        outputs,
        instance: vec![instance_vals],
        advice0,
        p1_cols,
        p1_rows,
        jobs,
        assigned,
        inputs,
        regions,
    })
}

/// How many free cells [`CompiledCircuit::ensure_determined`]'s error
/// names before it only counts the rest.
const UNDERCONSTRAINED_DETAIL_CELLS: usize = 16;

/// Synthesizes a schedule under a plan and runs the static analyzer over
/// the result — the optimizer-sweep entry point for checking that a
/// *candidate* layout (not just the winner) is fully constrained.
pub(crate) fn analyze_plan(
    sched: &OpSchedule,
    plan: &LayoutPlan,
) -> Result<AnalysisReport, ZkmlError> {
    Ok(synthesize(sched, plan)?.analyze())
}

impl CompiledCircuit {
    /// A digest pinning this compilation's exact circuit identity: the
    /// configuration (gadget choices, column count, numerics), the row
    /// count, and the serialized constraint system.
    ///
    /// The optimizer picks the configuration using machine- and
    /// run-dependent timing measurements, so two compilations of the same
    /// model can legitimately produce different circuits that share a `k`.
    /// Anything caching keys derived from a compiled circuit must key on
    /// this digest (in addition to the model hash), not on `k` alone.
    /// Byte-identical to [`LayoutPlan::digest`] for the plan this circuit
    /// was synthesized from.
    pub fn circuit_digest(&self) -> [u8; 32] {
        identity_digest(&self.cfg, self.k, &self.cs)
    }

    /// Whether this circuit carries committed (weight) columns.
    pub fn has_committed(&self) -> bool {
        self.cs.num_committed > 0
    }

    /// A digest over the raw committed-column (weight) values — pure
    /// hashing, no MSM. Comparing this against the digest recorded when a
    /// model's [`WeightCommitment`] was published detects a weight swap
    /// before any proving work starts.
    pub fn committed_values_digest(&self) -> [u8; 32] {
        use zkml_ff::PrimeField;
        let mut h = zkml_transcript::Blake2b::new();
        h.update(b"zkml-committed-values-v1");
        h.update(&(self.pre.committed.len() as u64).to_le_bytes());
        for col in &self.pre.committed {
            h.update(&(col.len() as u64).to_le_bytes());
            for v in col {
                h.update(&v.to_bytes());
            }
        }
        let digest = h.finalize();
        let mut out = [0u8; 32];
        out.copy_from_slice(&digest[..32]);
        out
    }

    /// Generates proving and verifying keys.
    ///
    /// For committed circuits the keys cover only the weight-free
    /// structure — the same pk serves every model sharing the
    /// architecture; weights are bound per proof through the
    /// [`WeightCommitment`].
    pub fn keygen(&self, params: &Params) -> Result<ProvingKey, ZkmlError> {
        Ok(keygen(params, &self.cs, &self.pre, self.k)?)
    }

    /// Commits this circuit's weight (committed-column) values: one KZG
    /// commitment per committed column plus the binding digest, and the
    /// prover-side encodings reusable across proofs.
    pub fn commit_weights(
        &self,
        params: &Params,
    ) -> Result<(WeightCommitment, CommittedWeights), ZkmlError> {
        Ok(commit_weights(
            params,
            &self.cs,
            &self.pre.committed,
            self.k,
        )?)
    }

    /// Produces a proof for this circuit's witness. Committed circuits
    /// encode and commit their weights inline; callers proving repeatedly
    /// under one published commitment should use
    /// [`CompiledCircuit::prove_with_weights`] instead.
    pub fn prove(
        &self,
        params: &Params,
        pk: &ProvingKey,
        rng: &mut impl RngCore,
    ) -> Result<Vec<u8>, ZkmlError> {
        let weights = if self.has_committed() {
            self.commit_weights(params)?.1
        } else {
            CommittedWeights::empty()
        };
        self.prove_with_weights(params, pk, rng, &[], &weights)
    }

    /// Produces a proof bound to a context string, reusing pre-encoded
    /// committed weights (the commit-once/prove-many path: no weight
    /// re-encoding, no keygen). Segmented proving binds each segment proof
    /// to the bundle's chain digest and position; a circuit with no
    /// committed columns passes [`CommittedWeights::empty`].
    pub fn prove_with_weights(
        &self,
        params: &Params,
        pk: &ProvingKey,
        rng: &mut impl RngCore,
        binding: &[u8],
        weights: &CommittedWeights,
    ) -> Result<Vec<u8>, ZkmlError> {
        let witness = ZkmlWitness { c: self };
        Ok(create_proof_committed(
            params, pk, &witness, rng, binding, weights,
        )?)
    }

    /// Verifies a proof against this circuit's public outputs. Committed
    /// circuits recompute the weight commitment from the compiled values;
    /// verifying against an externally *published* commitment is
    /// [`CompiledCircuit::verify_with_commitment`].
    pub fn verify(
        &self,
        params: &Params,
        vk: &VerifyingKey,
        proof: &[u8],
    ) -> Result<(), ZkmlError> {
        let wc = if self.has_committed() {
            Some(self.commit_weights(params)?.0)
        } else {
            None
        };
        Ok(verify_proof(
            params,
            vk,
            &self.instance,
            proof,
            &[],
            wc.as_ref(),
        )?)
    }

    /// Verifies a proof against a published [`WeightCommitment`]: the
    /// proof is valid only for the exact weights behind that commitment.
    pub fn verify_with_commitment(
        &self,
        params: &Params,
        vk: &VerifyingKey,
        proof: &[u8],
        binding: &[u8],
        wc: &WeightCommitment,
    ) -> Result<(), ZkmlError> {
        Ok(verify_proof(
            params,
            vk,
            &self.instance,
            proof,
            binding,
            Some(wc),
        )?)
    }

    /// The public-input columns (model outputs as field elements).
    pub fn instance(&self) -> &[Vec<Fr>] {
        &self.instance
    }

    /// Synthesizes this circuit's witness into a [`zkml_plonk::MockProver`]
    /// for row-exact constraint checking (no commitments, no keys).
    pub fn mock(&self) -> Result<zkml_plonk::MockProver, ZkmlError> {
        let witness = ZkmlWitness { c: self };
        Ok(zkml_plonk::MockProver::run(
            self.k, &self.cs, &self.pre, &witness,
        )?)
    }

    /// Runs the static underconstrained-circuit analyzer over this
    /// circuit: proves every assigned advice cell is uniquely determined
    /// by the instance/fixed data and the declared input cells, or reports
    /// the cells that are not (see `zkml-analyze` for the rule set).
    pub fn analyze(&self) -> AnalysisReport {
        let assigned = self.unsorted_assigned_cells();
        zkml_analyze::analyze(&AnalysisInput {
            cs: &self.cs,
            pre: &self.pre,
            k: self.k,
            assigned: &assigned,
            inputs: &self.inputs,
            regions: &self.regions,
        })
    }

    /// Fails with [`ZkmlError::Underconstrained`] unless
    /// [`analyze`](CompiledCircuit::analyze) comes back clean. The service
    /// runs this before proving so a layout bug surfaces as a typed
    /// compile error instead of an unsound proof. The error's detail names
    /// the first 16 free cells and counts the rest, so its size does not
    /// grow with the circuit; `analyze` lists them all.
    pub fn ensure_determined(&self) -> Result<(), ZkmlError> {
        let report = self.analyze();
        if report.is_clean() {
            Ok(())
        } else {
            Err(ZkmlError::Underconstrained {
                free_cells: report.free.len(),
                detail: report.excerpt(UNDERCONSTRAINED_DETAIL_CELLS),
            })
        }
    }

    /// Every witness cell assigned during synthesis: the phase-0 cells the
    /// builder wrote (advice home/gadget cells plus exposed instance cells)
    /// and the phase-1 cells the Freivalds jobs fill at proving time. This
    /// is the mutation surface for the adversarial soundness harness.
    pub fn assigned_cells(&self) -> Vec<zkml_plonk::CellRef> {
        let mut out = self.unsorted_assigned_cells();
        out.sort_by_key(|c| (c.column, c.row));
        out.dedup();
        out
    }

    /// [`assigned_cells`](CompiledCircuit::assigned_cells) in synthesis
    /// order, possibly with repeats (the analyzer needs neither the order
    /// nor the dedup).
    fn unsorted_assigned_cells(&self) -> Vec<zkml_plonk::CellRef> {
        let jobs = self.jobs.iter().flat_map(|job| &job.cells);
        self.assigned
            .iter()
            .copied()
            .chain(jobs.map(|(col, row, _)| zkml_plonk::CellRef {
                column: zkml_plonk::Column::Advice(*col),
                row: *row,
            }))
            .collect()
    }
}
