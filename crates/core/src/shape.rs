//! Placement by op shape: stage 2's closed-form layout of one op.
//!
//! A gadget's rows, copies and structure depend on how many operands it
//! gets, never on which cells or values they are. So an op reduces to a
//! [`ShapeKey`] — its kind plus operand counts and the few parameters the
//! layout reads — and [`shape`] gives, for one configuration, what the
//! gadget would lay out: row and copy counts, the constants it pins, and
//! the ordered structure registrations it makes (selectors with their
//! gates, lookups and tables; the phase-1 and committed planes; range
//! bounds). Each [`crate::schedule::OpSchedule`] carries the histogram of
//! its shapes in first-occurrence order, and [`crate::compiler::place`]
//! runs each distinct shape's registrations once and adds its counts
//! times its multiplicity, so a placement costs O(distinct shapes), not
//! O(cells).
//!
//! The functions below mirror the gadget methods of
//! [`crate::builder::CircuitBuilder`] one for one, and compose where the
//! gadgets compose (a `PartialsThenSum` dot is dot rows plus a sum tree;
//! `ViaDot` arithmetic is dots; a direct matmul is `s·t` dots). Synthesis
//! cross-checks every plan (`ZkmlError::PlanMismatch`), and the unit test
//! below compares the two for every op kind, layout and width.

use crate::builder::{check_cols, check_relu_bits_cols, BuildError, Gadget};
use crate::config::{ArithImpl, CircuitConfig, DotImpl, MatmulImpl, ReluImpl};
use crate::schedule::SchedOp;
use crate::tables::TableFn;
use Reg::Selector;

/// What an op's layout depends on: its kind, operand counts and the
/// parameters a gadget reads at layout time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum ShapeKey {
    Load(usize),
    LoadWeights(usize),
    Const(i64),
    Dot {
        len: usize,
        init: bool,
    },
    Sum(usize),
    Arith {
        kind: Gadget,
        len: usize,
    },
    Square(usize),
    Rescale(usize),
    Nonlin {
        f: TableFn,
        len: usize,
    },
    Relu(usize),
    MaxPairs(usize),
    VarDiv {
        len: usize,
        den_bound: i64,
    },
    MatMul {
        dims: (usize, usize, usize),
        bias: bool,
    },
}

impl ShapeKey {
    pub(crate) fn of(op: &SchedOp) -> Self {
        match op {
            SchedOp::Load { values } => ShapeKey::Load(values.len()),
            SchedOp::LoadWeights { values } => ShapeKey::LoadWeights(values.len()),
            SchedOp::Const { v } => ShapeKey::Const(*v),
            SchedOp::Dot { xs, init, .. } => ShapeKey::Dot {
                len: xs.len(),
                init: init.is_some(),
            },
            SchedOp::Sum { xs } => ShapeKey::Sum(xs.len()),
            SchedOp::Arith { kind, pairs } => ShapeKey::Arith {
                kind: *kind,
                len: pairs.len(),
            },
            SchedOp::Square { xs } => ShapeKey::Square(xs.len()),
            SchedOp::Rescale { xs } => ShapeKey::Rescale(xs.len()),
            SchedOp::Nonlin { f, xs } => ShapeKey::Nonlin {
                f: *f,
                len: xs.len(),
            },
            SchedOp::Relu { xs } => ShapeKey::Relu(xs.len()),
            SchedOp::MaxPairs { pairs } => ShapeKey::MaxPairs(pairs.len()),
            SchedOp::VarDiv {
                nums, den_bound, ..
            } => ShapeKey::VarDiv {
                len: nums.len(),
                den_bound: *den_bound,
            },
            SchedOp::MatMul { dims, bias2, .. } => ShapeKey::MatMul {
                dims: *dims,
                bias: bias2.is_some(),
            },
        }
    }
}

/// One structure registration, run through the builder method of the
/// same name (each is idempotent, so a repeat registers nothing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reg {
    /// `selector`: the gadget's selector column, gate, lookups and tables.
    Selector(Gadget),
    /// `ensure_phase1`: the challenge and the phase-1 column plane.
    Phase1,
    /// `ensure_committed`: the committed (weight) column plane.
    Committed,
    /// `require_range`: the range table must cover `[0, bound)`.
    Range(i64),
}

/// What one op lays out under one configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Shape {
    /// Grid rows (phase 0).
    pub(crate) rows: usize,
    /// Phase-1 rows.
    pub(crate) p1_rows: usize,
    /// Committed-plane rows.
    pub(crate) committed_rows: usize,
    /// Copy constraints.
    pub(crate) copies: usize,
    /// Constants pinned, each once.
    pub(crate) consts: Vec<i64>,
    /// Registrations, in the order the gadget makes them, each once.
    pub(crate) regs: Vec<Reg>,
}

impl Shape {
    fn reg(&mut self, r: Reg) {
        if !self.regs.contains(&r) {
            self.regs.push(r);
        }
    }

    fn constant(&mut self, v: i64) {
        if !self.consts.contains(&v) {
            self.consts.push(v);
        }
    }

    /// `rows` grid rows under `g`'s selector (registered by the first).
    fn gadget_rows(&mut self, g: Gadget, rows: usize, copies: usize) {
        if rows > 0 {
            self.reg(Selector(g));
        }
        self.rows += rows;
        self.copies += copies;
    }

    /// `times` runs of the layout `body` builds. With `times` 0 the gadget
    /// is never called, so nothing registers and nothing fails.
    fn repeat(
        &mut self,
        times: usize,
        body: impl FnOnce(&mut Shape) -> Result<(), BuildError>,
    ) -> Result<(), BuildError> {
        if times == 0 {
            return Ok(());
        }
        let mut one = Shape::default();
        body(&mut one)?;
        self.rows += times * one.rows;
        self.p1_rows += times * one.p1_rows;
        self.committed_rows += times * one.committed_rows;
        self.copies += times * one.copies;
        for v in one.consts {
            self.constant(v);
        }
        for r in one.regs {
            self.reg(r);
        }
        Ok(())
    }
}

/// The layout of one op of shape `key` under `cfg`, or the
/// [`BuildError::Layout`] its gadget returns.
pub(crate) fn shape(key: &ShapeKey, cfg: &CircuitConfig) -> Result<Shape, BuildError> {
    let mut s = Shape::default();
    let n = cfg.num_cols;
    let packs = cfg.choices.lookup_packs;
    let pack3 = packs.min(n / 3).max(1);
    match *key {
        ShapeKey::Load(len) => s.rows = len.div_ceil(n),
        ShapeKey::LoadWeights(len) => {
            s.reg(Reg::Committed);
            s.committed_rows = len.div_ceil(n);
        }
        ShapeKey::Const(v) => s.constant(v),
        ShapeKey::Dot { len, init } => dot(&mut s, cfg, len, init)?,
        ShapeKey::Sum(len) => sum(&mut s, cfg, len)?,
        ShapeKey::Arith { kind, len } => arith(&mut s, cfg, kind, len)?,
        ShapeKey::Square(len) => match cfg.choices.arith {
            ArithImpl::ViaDot => s.repeat(len, |b| dot(b, cfg, 1, false))?,
            ArithImpl::Dedicated => s.gadget_rows(Gadget::SquarePack, len.div_ceil(n / 2), len),
        },
        ShapeKey::Rescale(len) => s.gadget_rows(Gadget::DivRound, len.div_ceil(pack3), len),
        ShapeKey::Nonlin { f, len } => nonlin(&mut s, cfg, f, len),
        ShapeKey::Relu(len) => match cfg.choices.relu {
            ReluImpl::Lookup => nonlin(&mut s, cfg, TableFn::relu(), len),
            ReluImpl::BitDecompose => {
                check_relu_bits_cols(cfg)?;
                s.gadget_rows(Gadget::BitDecomp, len, len);
            }
        },
        ShapeKey::MaxPairs(len) => s.gadget_rows(Gadget::MaxPack, len.div_ceil(pack3), 2 * len),
        ShapeKey::VarDiv { len, den_bound } => {
            check_cols(n, 4, "variable division")?;
            s.reg(Reg::Range(2 * den_bound));
            let slots = (n / 4).min(packs).max(1);
            s.gadget_rows(Gadget::VarDiv, len.div_ceil(slots), 2 * len);
        }
        ShapeKey::MatMul { dims, bias } => match cfg.choices.matmul {
            MatmulImpl::Freivalds => freivalds(&mut s, cfg, dims, bias)?,
            MatmulImpl::Direct => {
                let (rows, k, t) = dims;
                s.repeat(rows * t, |b| dot(b, cfg, k, bias))?;
            }
        },
    }
    Ok(s)
}

/// `CircuitBuilder::dot`.
fn dot(s: &mut Shape, cfg: &CircuitConfig, len: usize, init: bool) -> Result<(), BuildError> {
    let n = cfg.num_cols;
    check_cols(n, 5, "dot")?;
    match cfg.choices.dot {
        DotImpl::BiasChain => {
            s.constant(0);
            let rows = len.div_ceil((n - 2) / 2);
            // Two operands per term and the carried bias per row.
            s.gadget_rows(Gadget::DotBias(false), rows, 2 * len + rows);
            Ok(())
        }
        DotImpl::PartialsThenSum => {
            let rows = len.div_ceil((n - 1) / 2);
            s.gadget_rows(Gadget::DotPlain, rows, 2 * len);
            sum(s, cfg, rows + usize::from(init))
        }
    }
}

/// `CircuitBuilder::sum`: a tree of rows summing `n - 1` values each; a
/// lone value left over at the end of a level passes up unsummed.
fn sum(s: &mut Shape, cfg: &CircuitConfig, len: usize) -> Result<(), BuildError> {
    let n = cfg.num_cols;
    check_cols(n, 3, "sum")?;
    if len == 0 {
        s.constant(0);
        return Ok(());
    }
    let width = n - 1;
    let (mut rows, mut copies, mut level) = (0, 0, len);
    while level > 1 {
        let rem = level % width;
        rows += level / width + usize::from(rem >= 2);
        copies += level - usize::from(rem == 1);
        level = level.div_ceil(width);
    }
    s.gadget_rows(Gadget::Sum, rows, copies);
    Ok(())
}

/// `CircuitBuilder::arith_pack`.
fn arith(s: &mut Shape, cfg: &CircuitConfig, kind: Gadget, len: usize) -> Result<(), BuildError> {
    match cfg.choices.arith {
        ArithImpl::ViaDot => {
            s.constant(1);
            s.constant(-1);
            // The dot lengths one pair takes.
            let dots: &[usize] = match kind {
                Gadget::AddPack | Gadget::SubPack => &[2],
                Gadget::MulPack => &[1],
                Gadget::SqDiffPack => &[2, 1],
                _ => unreachable!("not an arith pack gadget"),
            };
            s.repeat(len, |b| {
                dots.iter().try_for_each(|&l| dot(b, cfg, l, false))
            })?;
        }
        ArithImpl::Dedicated => {
            check_cols(cfg.num_cols, 3, "arith pack")?;
            s.gadget_rows(kind, len.div_ceil(cfg.num_cols / 3), 2 * len);
        }
    }
    Ok(())
}

/// `CircuitBuilder::nonlin`.
fn nonlin(s: &mut Shape, cfg: &CircuitConfig, f: TableFn, len: usize) {
    let slots = cfg.choices.lookup_packs.min(cfg.num_cols / 2).max(1);
    s.gadget_rows(Gadget::Nonlin(f), len.div_ceil(slots), len);
}

/// `freivalds_matmul`, plus the bias addition `matmul_raw_entry` appends.
fn freivalds(
    s: &mut Shape,
    cfg: &CircuitConfig,
    (rows, k, t): (usize, usize, usize),
    bias: bool,
) -> Result<(), BuildError> {
    let n = cfg.num_cols;
    check_cols(n, 5, "freivalds")?;
    s.reg(Reg::Phase1);
    // The product's home cells.
    s.rows += (rows * t).div_ceil(n);
    // Challenge powers: one chain row per `n - 1` powers, each copying its
    // carry in.
    s.constant(1);
    let power_rows = t.div_ceil(n - 1);
    if power_rows > 0 {
        s.reg(Selector(Gadget::ChalPow));
    }
    s.p1_rows += power_rows;
    s.copies += power_rows;
    s.constant(0);
    // Bias-chained phase-1 dots: `u_i = B_i · r` (k of length t), then per
    // row of A `C_i · r` (length t) and `A_i · u` (length k), tied by a copy.
    let m = (n - 2) / 2;
    let p1_dot = |s: &mut Shape, len: usize, times: usize| {
        let dot_rows = len.div_ceil(m);
        if times > 0 && dot_rows > 0 {
            s.reg(Selector(Gadget::DotBias(true)));
        }
        s.p1_rows += times * dot_rows;
        s.copies += times * (2 * len + dot_rows);
    };
    p1_dot(s, t, k);
    p1_dot(s, t, rows);
    p1_dot(s, k, rows);
    s.copies += rows;
    if bias {
        arith(s, cfg, Gadget::AddPack, rows * t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::builder::{AValue, Gadget};
    use crate::compiler::{compile_with, place};
    use crate::config::{ArithImpl, CircuitConfig, LayoutChoices, NumericConfig};
    use crate::schedule::{run_schedule, OpSchedule, SVal, ScheduleBuilder};
    use crate::tables::TableFn;

    /// The op kinds the property covers, one schedule each.
    const KINDS: [&str; 18] = [
        "load",
        "load_weights",
        "const",
        "dot",
        "dot_init",
        "sum",
        "add",
        "sub",
        "mul",
        "sqdiff",
        "square",
        "rescale",
        "nonlin",
        "relu",
        "max",
        "var_div",
        "matmul",
        "matmul_bias",
    ];

    /// A schedule of one op of `kind` over `len` operands (zeros; a
    /// divisor of 1), after the loads of its operands.
    fn one_op(kind: &str, len: usize) -> OpSchedule {
        let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
        let load = |sb: &mut ScheduleBuilder, n: usize| sb.load_values(&vec![0; n]);
        let pairs = |xs: &[SVal], ys: &[SVal]| -> Vec<(SVal, SVal)> {
            xs.iter().copied().zip(ys.iter().copied()).collect()
        };
        let out: Vec<SVal> = match kind {
            "load" => load(&mut sb, len),
            "load_weights" => sb.load_weights(&vec![3; len]),
            "const" => vec![sb.constant(len as i64 - 7)],
            "dot" | "dot_init" => {
                let (x, y) = (load(&mut sb, len), load(&mut sb, len));
                let init = (kind == "dot_init").then(|| load(&mut sb, 1)[0]);
                vec![sb.dot(&x, &y, init)]
            }
            "sum" => {
                let x = load(&mut sb, len);
                vec![sb.sum(&x)]
            }
            "add" | "sub" | "mul" | "sqdiff" => {
                let g = match kind {
                    "add" => Gadget::AddPack,
                    "sub" => Gadget::SubPack,
                    "mul" => Gadget::MulPack,
                    _ => Gadget::SqDiffPack,
                };
                let (x, y) = (load(&mut sb, len), load(&mut sb, len));
                sb.arith_pack(g, &pairs(&x, &y))
            }
            "square" => {
                let x = load(&mut sb, len);
                sb.square_pack(&x)
            }
            "rescale" => {
                let x = load(&mut sb, len);
                sb.rescale(&x)
            }
            "nonlin" => {
                let x = load(&mut sb, len);
                sb.nonlin(TableFn::Exp, &x)
            }
            "relu" => {
                let x = load(&mut sb, len);
                sb.relu(&x)
            }
            "max" => {
                let (x, y) = (load(&mut sb, len), load(&mut sb, len));
                sb.max_pairs(&pairs(&x, &y))
            }
            "var_div" => {
                let x = load(&mut sb, len);
                let den = sb.load_values(&[1])[0];
                sb.var_div(&x, den, 8 * (len as i64 + 1))
            }
            "matmul" | "matmul_bias" => {
                // (rows, k, t) sweep the phase-1 dot and power-row widths.
                let (rows, k, t) = (1 + len % 2, 1 + len / 2, 1 + len / 3);
                let (x, w) = (load(&mut sb, rows * k), load(&mut sb, k * t));
                let bias = (kind == "matmul_bias").then(|| load(&mut sb, t));
                sb.matmul_raw(&x, &w, rows, k, t, bias.as_deref())
            }
            other => unreachable!("kind {other}"),
        };
        sb.finish(vec![(vec![out.len()], out)])
    }

    /// Placement and one synthesis of `sched` agree: both fail with the
    /// same error, or both give the same `k`, statistics and constraint
    /// system.
    fn check(sched: &OpSchedule, cfg: CircuitConfig, what: &str) {
        let placed = place(sched, cfg);
        let synthesized = compile_with(cfg, |b| {
            let outs = run_schedule(b, sched)?;
            Ok(outs
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect::<Vec<AValue>>())
        });
        match (placed, synthesized) {
            (Ok(plan), Ok(c)) => {
                assert_eq!(plan.k, c.k, "{what}: k");
                assert_eq!(plan.stats, c.stats, "{what}: stats");
                assert!(plan.cs == c.cs, "{what}: constraint system");
            }
            (Err(p), Err(s)) => assert_eq!(p.to_string(), s.to_string(), "{what}: error"),
            (p, s) => panic!(
                "{what}: placement {:?} but synthesis {:?}",
                p.map(|plan| plan.k),
                s.map(|c| c.k)
            ),
        }
    }

    /// Every op kind, under the 24 candidate layouts and each of them with
    /// `ArithImpl::ViaDot`, at 3..=40 columns: lengths 0, 1, `3·columns`
    /// and one drawn from `2..3·columns` per case.
    #[test]
    fn shape_placement_matches_synthesis() {
        let mut layouts = LayoutChoices::candidates();
        let via_dot: Vec<LayoutChoices> = layouts
            .iter()
            .map(|c| LayoutChoices {
                arith: ArithImpl::ViaDot,
                ..*c
            })
            .collect();
        layouts.extend(via_dot);
        let mut state = 0x5eed_u64;
        let mut draw = |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize % bound
        };
        for kind in KINDS {
            for num_cols in 3..=40 {
                let top = 3 * num_cols;
                for choices in &layouts {
                    let cfg = CircuitConfig {
                        choices: *choices,
                        num_cols,
                        numeric: NumericConfig::default_nano(),
                    };
                    for len in [0, 1, top, 2 + draw(top - 2)] {
                        let what = format!("{kind} x{len} at {num_cols} columns, {choices:?}");
                        check(&one_op(kind, len), cfg, &what);
                    }
                }
            }
        }
    }
}
