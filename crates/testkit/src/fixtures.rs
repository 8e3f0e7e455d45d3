//! The gadget zoo as standalone circuit fixtures.
//!
//! Each [`GadgetCase`] builds a small circuit exercising one gadget (or one
//! layout choice of a gadget) through the public builder API, with input
//! lengths chosen to force multi-row chunking at every swept column count.
//! The conformance runner pushes every case through the mock checker; the
//! mutation harness additionally perturbs every assigned cell.
//!
//! To add vectors for a new gadget: write a `fn(&mut CircuitBuilder) ->
//! Result<Vec<AValue>, BuildError>` that drives it and returns the cells to
//! expose, then register it in [`zoo`] with the layout choices it needs and
//! its minimum column count. The harness does the rest.

use zkml::{
    compile_with, AValue, BuildError, CircuitBuilder, CircuitConfig, CompiledCircuit, DotImpl,
    Gadget, LayoutChoices, NumericConfig, ReluImpl, ZkmlError,
};
use zkml::{ActKey, HardwareStats, OptimizerOptions, TableFn};
use zkml_model::{Activation, Graph};
use zkml_pcs::Backend;
use zkml_plonk::{Expression, Rotation};

/// One gadget fixture.
pub struct GadgetCase {
    /// Display name.
    pub name: &'static str,
    /// Minimum grid columns the gadget needs.
    pub min_cols: usize,
    /// Layout choices to compile under.
    pub choices: LayoutChoices,
    /// Whether the case registers a transcript challenge (phase-1 machinery),
    /// which rules out real-prover cross-checks from a mutated grid.
    pub uses_challenges: bool,
    /// The synthesis function: builds the gadget, returns cells to expose.
    pub build: fn(&mut CircuitBuilder) -> Result<Vec<AValue>, BuildError>,
}

/// Small numerics (scale 2^4, table domain 2^8) so lookup tables stay a few
/// hundred rows and the mutation sweep is fast.
fn numeric() -> NumericConfig {
    NumericConfig {
        scale_bits: 4,
        clip_bits: 4,
    }
}

/// Compiles a case at the given column count.
pub fn compile_case(case: &GadgetCase, num_cols: usize) -> Result<CompiledCircuit, ZkmlError> {
    let cfg = CircuitConfig {
        choices: case.choices,
        num_cols,
        numeric: numeric(),
    };
    compile_with(cfg, case.build)
}

/// A zoo model compiled at the layout the optimizer picks under the fixture
/// calibration (KZG, `k ≤ 15`): the layout the `zoo-compile` benchmark
/// checks. Panics when the model does not compile.
pub fn fixture_circuit(g: &Graph) -> CompiledCircuit {
    let opts = OptimizerOptions::new(Backend::Kzg, 15);
    zkml::optimize(g, &zkml::zero_inputs(g), &opts, &HardwareStats::fixture())
        .and_then(|sweep| sweep.synthesize_best())
        .unwrap_or_else(|e| panic!("{}: {e}", g.name))
}

fn dot_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let xs = bld.load_values(&[1, -2, 3, 4, -5, 6, 7, 8, -9, 10, 11]);
    let ys = bld.load_values(&[2, 3, -4, 5, 6, -7, 8, 9, 10, -11, 12]);
    let init = bld.load_values(&[5]);
    let with_bias = bld.dot(&xs, &ys, Some(init[0]))?;
    let plain = bld.dot(&xs[..4], &ys[..4], None)?;
    Ok(vec![with_bias, plain])
}

fn sum_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let xs = bld.load_values(&[1, -2, 3, 4, -5, 6, 7, 8, -9, 10, 11, 12, 13]);
    let s = bld.sum(&xs)?;
    Ok(vec![s])
}

fn arith_case(bld: &mut CircuitBuilder, kind: Gadget) -> Result<Vec<AValue>, BuildError> {
    let a = bld.load_values(&[1, -2, 3, 4, -5, 6, 7]);
    let b = bld.load_values(&[2, 3, -4, 5, 6, -7, 8]);
    let pairs: Vec<(AValue, AValue)> = a.iter().copied().zip(b.iter().copied()).collect();
    bld.arith_pack(kind, &pairs)
}

fn add_pack_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    arith_case(bld, Gadget::AddPack)
}
fn sub_pack_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    arith_case(bld, Gadget::SubPack)
}
fn mul_pack_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    arith_case(bld, Gadget::MulPack)
}
fn sqdiff_pack_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    arith_case(bld, Gadget::SqDiffPack)
}

fn square_pack_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let xs = bld.load_values(&[1, -2, 3, 4, -5, 6, 7, 8, -9]);
    bld.square_pack(&xs)
}

fn rescale_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    // Double-scale inputs (scale factor 16): mixed signs and a zero.
    let xs = bld.load_values(&[512, -384, 70, 16, 0, -1, 1000]);
    bld.rescale(&xs)
}

fn relu_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    // Table domain is [-128, 128).
    let xs = bld.load_values(&[-100, -1, 0, 1, 5, 100, 127, -128, 64]);
    bld.relu(&xs)
}

fn sigmoid_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let xs = bld.load_values(&[-64, -16, 0, 16, 64, 127, -128]);
    bld.nonlin(TableFn::Act(ActKey::of(Activation::Sigmoid)), &xs)
}

fn max_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let xs = bld.load_values(&[3, -2, 7, 1, 9, 0, 4]);
    let m = bld.max_tree(&xs)?;
    Ok(vec![m])
}

fn var_div_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let nums = bld.load_values(&[32, -16, 48, 5, 100]);
    let den = bld.load_values(&[7]);
    bld.var_div(&nums, den[0], 10)
}

fn freivalds_case(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    // 2x3 * 3x2 product, witnessed in phase 0 and checked by the phase-1
    // random-projection chains.
    let a = bld.load_values(&[1, -2, 3, 4, 5, -6]);
    let b = bld.load_values(&[7, 8, -9, 10, 11, 12]);
    zkml::freivalds_matmul(bld, &a, &b, 2, 3, 2)
}

/// A deliberately underconstrained gadget, committed as a fixture so the
/// mutation harness demonstrably catches this bug class.
///
/// It models the classic "forgot to turn the selector on" mistake: the
/// addition gate exists, but its selector column is never assigned, so no
/// row activates it. The witness satisfies every constraint (there are
/// none on the input cells), yet mutating either input cell must go
/// undetected — a *surviving mutation* — because only the output cell is
/// pinned by the copy into the instance column.
pub(crate) fn toy_missing_selector(bld: &mut CircuitBuilder) -> Result<Vec<AValue>, BuildError> {
    let sel = bld.cs.fixed_column();
    // Grid advice columns are allocated first by the builder, so advice
    // columns 0..2 are the first three grid columns.
    let q = Expression::Fixed(sel, Rotation::cur());
    let a0 = Expression::Advice(0, Rotation::cur());
    let a1 = Expression::Advice(1, Rotation::cur());
    let a2 = Expression::Advice(2, Rotation::cur());
    bld.cs.create_gate("toy_add", vec![q * (a0 + a1 - a2)]);
    let vals = bld.load_values(&[2, 3, 5]);
    Ok(vec![vals[2]])
}

/// The toy fixture as a `GadgetCase`.
pub fn toy_case() -> GadgetCase {
    GadgetCase {
        name: "toy_missing_selector",
        min_cols: 8,
        choices: LayoutChoices::optimized(),
        uses_challenges: false,
        build: toy_missing_selector,
    }
}

/// Every gadget in the zoo, across the layout choices that change its
/// circuit shape.
pub fn zoo() -> Vec<GadgetCase> {
    let opt = LayoutChoices::optimized();
    let partials = LayoutChoices {
        dot: DotImpl::PartialsThenSum,
        ..opt
    };
    let bits = LayoutChoices {
        relu: ReluImpl::BitDecompose,
        ..opt
    };
    vec![
        GadgetCase {
            name: "dot_bias_chain",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: dot_case,
        },
        GadgetCase {
            name: "dot_partials_then_sum",
            min_cols: 8,
            choices: partials,
            uses_challenges: false,
            build: dot_case,
        },
        GadgetCase {
            name: "sum_tree",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: sum_case,
        },
        GadgetCase {
            name: "add_pack",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: add_pack_case,
        },
        GadgetCase {
            name: "sub_pack",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: sub_pack_case,
        },
        GadgetCase {
            name: "mul_pack",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: mul_pack_case,
        },
        GadgetCase {
            name: "sqdiff_pack",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: sqdiff_pack_case,
        },
        GadgetCase {
            name: "square_pack",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: square_pack_case,
        },
        GadgetCase {
            name: "div_round_rescale",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: rescale_case,
        },
        GadgetCase {
            name: "relu_lookup",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: relu_case,
        },
        GadgetCase {
            name: "nonlin_sigmoid",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: sigmoid_case,
        },
        GadgetCase {
            name: "relu_bit_decompose",
            // Needs table_bits + 2 columns (offset-binary decomposition).
            min_cols: 10,
            choices: bits,
            uses_challenges: false,
            build: relu_case,
        },
        GadgetCase {
            name: "max_tree",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: max_case,
        },
        GadgetCase {
            name: "var_div",
            min_cols: 8,
            choices: opt,
            uses_challenges: false,
            build: var_div_case,
        },
        GadgetCase {
            name: "freivalds_matmul",
            min_cols: 8,
            choices: opt,
            uses_challenges: true,
            build: freivalds_case,
        },
    ]
}
