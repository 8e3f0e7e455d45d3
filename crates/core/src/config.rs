//! Compilation configuration: logical layout choices (gadget selection) and
//! physical layout parameters (column count), per §7 of the paper.

/// How ReLU is implemented in-circuit (§3, "Representing computations").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReluImpl {
    /// `(x, relu(x))` pairs checked against a lookup table.
    Lookup,
    /// Offset-binary bit decomposition with a sign-select product — the
    /// representation prior work uses (and the Table 9/11 baseline).
    BitDecompose,
}

/// How linear layers (matmul / conv im2col) are implemented (§6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatmulImpl {
    /// In-circuit dot products for every output element: `O(n^3)` cells.
    Direct,
    /// Freivalds' verification: the product is witnessed in phase 0 and
    /// checked against a phase-1 random projection: `O(n^2)` cells.
    Freivalds,
}

/// How long dot products accumulate across rows (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DotImpl {
    /// Dot-product-with-bias rows chained through the bias cell.
    BiasChain,
    /// Plain dot-product rows plus a separate sum row for the partials.
    PartialsThenSum,
}

/// How elementwise arithmetic (add/mul/square/...) is implemented.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArithImpl {
    /// Dedicated packed gadgets (one constraint per packed slot).
    Dedicated,
    /// Reuse the dot-product constraint (fewer gate kinds, many more rows) —
    /// the "fixed set of gadgets" ablation of Table 11.
    ViaDot,
}

/// A logical circuit layout: which gadget implementation every layer uses.
///
/// Following the paper's pruning heuristic (§7.2), one choice applies to
/// every layer of a given kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayoutChoices {
    /// ReLU implementation.
    pub relu: ReluImpl,
    /// Linear-layer implementation.
    pub matmul: MatmulImpl,
    /// Dot-product accumulation style.
    pub dot: DotImpl,
    /// Elementwise arithmetic implementation.
    pub arith: ArithImpl,
    /// Lookup packing: parallel lookup arguments per row for pointwise
    /// non-linearities and range checks (more packs = fewer rows, more
    /// committed columns — the tradeoff in the paper's §3 toy example).
    pub lookup_packs: usize,
}

impl LayoutChoices {
    /// The default (fully optimized) gadget set.
    pub fn optimized() -> Self {
        Self {
            relu: ReluImpl::Lookup,
            matmul: MatmulImpl::Freivalds,
            dot: DotImpl::BiasChain,
            arith: ArithImpl::Dedicated,
            lookup_packs: 2,
        }
    }

    /// The prior-work-style gadget set (Tables 9 and 11): bit-decomposed
    /// ReLU, direct matrix multiplication, no dedicated arithmetic gadgets.
    pub fn prior_work() -> Self {
        Self {
            relu: ReluImpl::BitDecompose,
            matmul: MatmulImpl::Direct,
            dot: DotImpl::PartialsThenSum,
            arith: ArithImpl::ViaDot,
            lookup_packs: 1,
        }
    }

    /// Enumerates candidate logical layouts (GenerateLogicalLayouts, §7.2).
    pub fn candidates() -> Vec<Self> {
        let mut out = Vec::new();
        for relu in [ReluImpl::Lookup, ReluImpl::BitDecompose] {
            for matmul in [MatmulImpl::Freivalds, MatmulImpl::Direct] {
                for dot in [DotImpl::BiasChain, DotImpl::PartialsThenSum] {
                    for packs in [1usize, 2, 4] {
                        out.push(Self {
                            relu,
                            matmul,
                            dot,
                            arith: ArithImpl::Dedicated,
                            lookup_packs: packs,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Fixed-point numeric configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NumericConfig {
    /// log2 of the fixed-point scale factor.
    pub scale_bits: u32,
    /// Extra bits of headroom above the scale for activation magnitudes;
    /// non-linearity tables span `[-2^(scale_bits+clip_bits-1),
    /// 2^(scale_bits+clip_bits-1))`.
    pub clip_bits: u32,
}

impl NumericConfig {
    /// Default numeric configuration for the nano model zoo: scale factor
    /// 2^6 with activation headroom up to |x| < 32.0 (table domain 2^12).
    ///
    /// This is the §5.1 coupling in action: more fractional bits would mean
    /// larger non-linearity tables and therefore more rows.
    pub fn default_nano() -> Self {
        Self {
            scale_bits: 6,
            clip_bits: 6,
        }
    }

    /// Total bits of the non-linearity table domain.
    pub fn table_bits(&self) -> u32 {
        self.scale_bits + self.clip_bits
    }

    /// The fixed-point scale factor.
    pub(crate) fn scale(&self) -> i64 {
        1 << self.scale_bits
    }
}

/// A full compilation configuration: logical choices plus the physical
/// column count and numerics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CircuitConfig {
    /// Gadget choices.
    pub choices: LayoutChoices,
    /// Number of grid (advice) columns.
    pub num_cols: usize,
    /// Fixed-point parameters.
    pub numeric: NumericConfig,
}

impl CircuitConfig {
    /// A reasonable default physical configuration.
    pub fn default_with(choices: LayoutChoices) -> Self {
        Self {
            choices,
            num_cols: 16,
            numeric: NumericConfig::default_nano(),
        }
    }
}

/// What the optimizer minimizes (§9.4, Table 14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Minimize estimated proving time.
    ProvingTime,
    /// Minimize proof size.
    ProofSize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_space_size() {
        // 2 relu x 2 matmul x 2 dot x 3 packs = 24.
        assert_eq!(LayoutChoices::candidates().len(), 24);
    }

    #[test]
    fn presets_differ() {
        assert_ne!(LayoutChoices::optimized(), LayoutChoices::prior_work());
    }

    #[test]
    fn numeric_table_bits() {
        let n = NumericConfig {
            scale_bits: 7,
            clip_bits: 5,
        };
        assert_eq!(n.table_bits(), 12);
        assert_eq!(n.scale(), 128);
    }
}
