//! Properties of the layout optimizer: the chosen plan is never worse than
//! any plan it evaluated, pruning preserves the winner, and placement's
//! structural predictions match real synthesis for arbitrary models.

use proptest::prelude::*;
use zkml::{compile, place, CircuitConfig, LayoutChoices, OptimizerOptions};
use zkml_model::{Activation, Graph, GraphBuilder, Op};
use zkml_pcs::Backend;

/// A random small MLP: depth and widths drawn by proptest.
fn random_mlp(widths: &[usize], with_softmax: bool) -> Graph {
    let mut b = GraphBuilder::new("prop-mlp", widths.iter().sum::<usize>() as u64);
    let mut cur = b.input(vec![1, widths[0]], "x");
    let mut d = widths[0];
    for (i, &w) in widths[1..].iter().enumerate() {
        let wt = b.weight(vec![d, w], &format!("w{i}"));
        let bias = b.weight(vec![w], &format!("b{i}"));
        cur = b.op(
            Op::FullyConnected {
                activation: Some(Activation::Relu),
            },
            &[cur, wt, bias],
            &format!("fc{i}"),
        );
        d = w;
    }
    if with_softmax {
        cur = b.op(Op::Softmax, &[cur], "sm");
    }
    b.finish(vec![cur])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn best_is_minimal_over_evaluated(
        widths in prop::collection::vec(2usize..12, 2..4),
        softmax in any::<bool>(),
    ) {
        let g = random_mlp(&widths, softmax);
        let hw = zkml::cost::HardwareStats::fixture();
        let mut opts = OptimizerOptions::new(Backend::Kzg, 14);
        opts.prune = false;
        opts.n_cols_range = (8, 20);
        let inputs = zkml::zero_inputs(&g);
        let report = zkml::optimize(&g, &inputs, &opts, &hw).unwrap();
        for e in &report.all {
            prop_assert!(
                report.best_cost.proving_s <= e.cost.proving_s + 1e-12,
                "beaten by {:?}", e.cfg
            );
        }
    }

    #[test]
    fn placement_matches_real_synthesis(
        widths in prop::collection::vec(2usize..10, 2..4),
        ncols in 8usize..24,
    ) {
        let g = random_mlp(&widths, false);
        let mut cfg = CircuitConfig::default_with(LayoutChoices::optimized());
        cfg.num_cols = ncols;
        let inputs = zkml::zero_inputs(&g);
        let sched = zkml::layers::lower_graph(&g, &inputs, cfg.numeric);
        let plan = place(&sched, cfg).unwrap();
        let real = compile(&g, &inputs, cfg).unwrap();
        prop_assert_eq!(plan.k, real.k);
        prop_assert_eq!(&plan.stats, &real.stats);
        prop_assert_eq!(&plan.cs, &real.cs);
        // And the plan's digest already identifies the synthesized circuit.
        prop_assert_eq!(plan.digest(), real.circuit_digest());
    }

    #[test]
    fn more_columns_never_increase_rows(
        widths in prop::collection::vec(3usize..10, 2..4),
        softmax in any::<bool>(),
    ) {
        // The two invariants the optimizer's plateau-edge search relies
        // on, for every candidate layout at every width of the default
        // column range: once a layout is expressible it stays expressible
        // with more columns, `k` never rises, and at a fixed `k` no score
        // (proving time or proof size, KZG or IPA) falls. Underneath
        // them, the row count never rises with more columns either.
        let g = random_mlp(&widths, softmax);
        let inputs = zkml::zero_inputs(&g);
        let sched = zkml::layers::lower_graph(&g, &inputs, zkml::NumericConfig::default_nano());
        let hw = zkml::cost::HardwareStats::fixture();
        let (lo, hi) = OptimizerOptions::new(Backend::Kzg, 15).n_cols_range;
        for choices in LayoutChoices::candidates() {
            let mut prev: Option<(u32, usize, Vec<f64>)> = None;
            for ncols in lo..=hi {
                let mut cfg = CircuitConfig::default_with(choices);
                cfg.num_cols = ncols;
                let plan = match place(&sched, cfg) {
                    Ok(plan) => plan,
                    Err(e) => {
                        prop_assert!(
                            prev.is_none(),
                            "{choices:?}: expressible at fewer columns than {ncols}: {e}"
                        );
                        continue;
                    }
                };
                let scores: Vec<f64> = [Backend::Kzg, Backend::Ipa]
                    .into_iter()
                    .flat_map(|backend| {
                        let c = zkml::cost::estimate(&plan.stats, plan.k, backend, &hw);
                        [c.proving_s, c.proof_bytes as f64]
                    })
                    .collect();
                if let Some((k, rows, prev_scores)) = &prev {
                    prop_assert!(
                        plan.stats.rows <= *rows,
                        "{choices:?}: rows grew from {rows} to {} at {ncols} columns",
                        plan.stats.rows
                    );
                    prop_assert!(
                        plan.k <= *k,
                        "{choices:?}: k grew from {k} to {} at {ncols} columns", plan.k
                    );
                    if plan.k == *k {
                        for (now, before) in scores.iter().zip(prev_scores) {
                            prop_assert!(
                                now >= before,
                                "{choices:?}: a score fell from {before} to {now} at {ncols} columns"
                            );
                        }
                    }
                }
                prev = Some((plan.k, plan.stats.rows, scores));
            }
        }
    }
}
