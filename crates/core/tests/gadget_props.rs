//! Property tests: gadget value semantics match the quantized reference
//! operations for arbitrary in-range inputs, under every layout choice.

use proptest::prelude::*;
use zkml::{CircuitBuilder, CircuitConfig, Gadget, LayoutChoices};
use zkml_model::qops;

fn builder(packs: usize) -> CircuitBuilder {
    let mut choices = LayoutChoices::optimized();
    choices.lookup_packs = packs;
    let mut cfg = CircuitConfig::default_with(choices);
    cfg.num_cols = 14;
    CircuitBuilder::new(cfg)
}

// Inputs stay inside the non-linearity table domain (2^11 at the default
// numeric config).
fn in_domain() -> impl Strategy<Value = i64> {
    -2000i64..2000
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_matches_integer_dot(xs in prop::collection::vec(in_domain(), 1..40),
                               packs in 1usize..4) {
        let mut b = builder(packs);
        let ys: Vec<i64> = xs.iter().map(|x| (x * 3) % 100).collect();
        let xc = b.load_values(&xs);
        let yc = b.load_values(&ys);
        let z = b.dot(&xc, &yc, None).unwrap();
        let expect: i64 = xs.iter().zip(&ys).map(|(a, c)| a * c).sum();
        prop_assert_eq!(z.v, expect);
    }

    #[test]
    fn sum_matches(xs in prop::collection::vec(in_domain(), 1..60)) {
        let mut b = builder(2);
        let xc = b.load_values(&xs);
        let s = b.sum(&xc).unwrap();
        prop_assert_eq!(s.v, xs.iter().sum::<i64>());
    }

    #[test]
    fn rescale_matches_div_round(xs in prop::collection::vec(-200_000i64..200_000, 1..20)) {
        let mut b = builder(2);
        let sf = b.scale();
        let xc = b.load_values(&xs);
        let ys = b.rescale(&xc).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert_eq!(y.v, qops::div_round(*x, sf));
        }
    }

    #[test]
    fn max_tree_matches(xs in prop::collection::vec(in_domain(), 1..30)) {
        let mut b = builder(2);
        let xc = b.load_values(&xs);
        let m = b.max_tree(&xc).unwrap();
        prop_assert_eq!(m.v, *xs.iter().max().unwrap());
    }

    #[test]
    fn var_div_matches(nums in prop::collection::vec(0i64..1000, 1..12),
                       den in 1i64..1500) {
        let mut b = builder(2);
        let sf = b.scale();
        let nc = b.load_values(&nums);
        let dc = b.load_values(&[den]);
        let out = b.var_div(&nc, dc[0], 1500).unwrap();
        for (n, o) in nums.iter().zip(&out) {
            prop_assert_eq!(o.v, qops::var_div_scaled(*n, den, sf));
        }
    }

    #[test]
    fn relu_impls_agree(xs in prop::collection::vec(in_domain(), 1..30)) {
        let run = |relu: zkml::ReluImpl, xs: &[i64]| -> Vec<i64> {
            let mut choices = LayoutChoices::optimized();
            choices.relu = relu;
            let mut cfg = CircuitConfig::default_with(choices);
            cfg.num_cols = 16;
            let mut b = CircuitBuilder::new(cfg);
            let xc = b.load_values(xs);
            b.relu(&xc).unwrap().iter().map(|v| v.v).collect()
        };
        let lookup = run(zkml::ReluImpl::Lookup, &xs);
        let bits = run(zkml::ReluImpl::BitDecompose, &xs);
        prop_assert_eq!(&lookup, &bits);
        for (x, y) in xs.iter().zip(&lookup) {
            prop_assert_eq!(*y, (*x).max(0));
        }
    }

    #[test]
    fn arith_packs_match(pairs in prop::collection::vec((in_domain(), in_domain()), 1..20)) {
        let mut b = builder(2);
        let pcs: Vec<(zkml::AValue, zkml::AValue)> = pairs
            .iter()
            .map(|(x, y)| {
                let c = b.load_values(&[*x, *y]);
                (c[0], c[1])
            })
            .collect();
        let add = b.arith_pack(Gadget::AddPack, &pcs).unwrap();
        let sub = b.arith_pack(Gadget::SubPack, &pcs).unwrap();
        let mul = b.arith_pack(Gadget::MulPack, &pcs).unwrap();
        for (i, (x, y)) in pairs.iter().enumerate() {
            prop_assert_eq!(add[i].v, x + y);
            prop_assert_eq!(sub[i].v, x - y);
            prop_assert_eq!(mul[i].v, x * y);
        }
    }
}
