//! Property tests for schedule segmentation: over randomized schedules and
//! segment counts, the balanced cutter must always produce a true
//! partition of the compute ops, the boundary tensors of adjacent segments
//! must chain exactly (same global ids, same evaluated values), and
//! planning must be fully deterministic — the same schedule always yields
//! byte-identical cuts.

use proptest::prelude::*;
use zkml::OpSchedule;
use zkml::{cut_schedule, eval_schedule, Gadget, NumericConfig, ScheduleBuilder, SegmentPlan};

/// Opcode stream interpreted by [`build_schedule`]; magnitudes stay far
/// from i64 overflow because every multiplicative op is rescale-contracted
/// (mirroring how `lower_graph` emits them).
fn build_schedule(loads: &[i64], opcodes: &[u8]) -> OpSchedule {
    let mut sb = ScheduleBuilder::new(NumericConfig::default_nano());
    let initial = sb.load_values(loads);
    let mut pool = initial.clone();
    for &code in opcodes {
        let take = ((code as usize >> 3) % pool.len()).max(1);
        let window: Vec<_> = pool[pool.len() - take..].to_vec();
        match code % 6 {
            0 => pool.extend(sb.relu(&window)),
            1 => {
                let pairs: Vec<_> = window.iter().map(|v| (*v, initial[0])).collect();
                pool.extend(sb.arith_pack(Gadget::AddPack, &pairs));
            }
            2 => {
                let pairs: Vec<_> = window.iter().map(|v| (*v, initial[0])).collect();
                pool.extend(sb.arith_pack(Gadget::SubPack, &pairs));
            }
            3 => pool.push(sb.sum(&window)),
            4 => {
                // Dot against the (small) initial loads, then rescale, so
                // magnitudes grow at most geometrically with a tiny base.
                let ys: Vec<_> = window.iter().map(|_| initial[0]).collect();
                let d = sb.dot(&window, &ys, None);
                pool.extend(sb.rescale(&[d]));
            }
            _ => pool.push(sb.max_tree(&window)),
        }
        // Bound the live set so `take` windows stay small.
        if pool.len() > 24 {
            let excess = pool.len() - 24;
            pool.drain(..excess);
        }
    }
    let out = *pool.last().unwrap();
    sb.finish(vec![(vec![1], vec![out])])
}

fn loads_strategy() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-8i64..8, 2..10)
}

fn opcodes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cuts are strictly increasing inside `(0, num_ops)`, so the
    /// natural index ranges tile the op list; consequently every compute
    /// op lands in exactly one segment (loads/consts may rematerialize).
    #[test]
    fn balanced_partitions_cover_every_compute_op_exactly_once(
        loads in loads_strategy(),
        opcodes in opcodes_strategy(),
        nsegs in 1usize..6,
    ) {
        let sched = build_schedule(&loads, &opcodes);
        let plan = SegmentPlan::balanced(&sched, nsegs);
        prop_assert!(plan.num_segments() <= nsegs.max(1));
        let mut prev = 0usize;
        for &c in &plan.cuts {
            prop_assert!(c > prev, "cuts must be strictly increasing: {:?}", plan.cuts);
            prop_assert!(c < sched.num_ops(), "cut {c} outside the schedule");
            prev = c;
        }
        let segs = cut_schedule(&sched, &plan).unwrap();
        prop_assert_eq!(segs.len(), plan.num_segments());
        let per_segment: usize = segs.iter().map(|s| s.schedule.num_compute_ops()).sum();
        let monolithic = sched.num_compute_ops();
        prop_assert_eq!(per_segment, monolithic, "compute ops must partition");
    }

    /// Adjacent segments agree on their shared boundary: same global value
    /// ids, and — when each segment is evaluated independently — the same
    /// concrete values in the producing segment's instance tail as in the
    /// consuming segment's instance head. The last segment's tail must
    /// reproduce the monolithic outputs.
    #[test]
    fn segment_boundaries_chain(
        loads in loads_strategy(),
        opcodes in opcodes_strategy(),
        nsegs in 2usize..6,
    ) {
        let sched = build_schedule(&loads, &opcodes);
        let plan = SegmentPlan::balanced(&sched, nsegs);
        let segs = cut_schedule(&sched, &plan).unwrap();
        let evals: Vec<Vec<i64>> = segs.iter().map(|s| eval_schedule(&s.schedule)).collect();
        for i in 0..segs.len() - 1 {
            prop_assert_eq!(
                &segs[i].boundary_out_ids, &segs[i + 1].boundary_in_ids,
                "segment {} boundary ids do not chain", i
            );
            let tail: Vec<i64> = segs[i].schedule.outputs()[1]
                .1
                .iter()
                .map(|v| evals[i][*v as usize])
                .collect();
            let head: Vec<i64> = segs[i + 1].schedule.outputs()[0]
                .1
                .iter()
                .map(|v| evals[i + 1][*v as usize])
                .collect();
            prop_assert_eq!(tail, head, "segment {} boundary values do not chain", i);
        }
        let mono = eval_schedule(&sched);
        let expect: Vec<i64> = sched
            .outputs()
            .iter()
            .flat_map(|(_, ids)| ids.iter().map(|v| mono[*v as usize]))
            .collect();
        let last = segs.len() - 1;
        let got: Vec<i64> = segs[last].schedule.outputs()[1..]
            .iter()
            .flat_map(|(_, ids)| ids.iter().map(|v| evals[last][*v as usize]))
            .collect();
        prop_assert_eq!(got, expect, "final segment must reproduce model outputs");
    }

    /// Planning is a pure function of the schedule: rebuilding the same
    /// schedule and re-planning yields byte-identical cuts (and identical
    /// segment schedules), which the artifact cache and the bundle format
    /// both rely on.
    #[test]
    fn replanning_is_byte_stable(
        loads in loads_strategy(),
        opcodes in opcodes_strategy(),
        nsegs in 1usize..6,
    ) {
        let a = build_schedule(&loads, &opcodes);
        let b = build_schedule(&loads, &opcodes);
        let plan_a = SegmentPlan::balanced(&a, nsegs);
        let plan_b = SegmentPlan::balanced(&b, nsegs);
        prop_assert_eq!(&plan_a, &plan_b);
        let segs_a = cut_schedule(&a, &plan_a).unwrap();
        let segs_b = cut_schedule(&b, &plan_b).unwrap();
        prop_assert_eq!(segs_a.len(), segs_b.len());
        for (sa, sb_) in segs_a.iter().zip(&segs_b) {
            prop_assert_eq!(format!("{:?}", sa.schedule), format!("{:?}", sb_.schedule));
            prop_assert_eq!(&sa.boundary_in_ids, &sb_.boundary_in_ids);
            prop_assert_eq!(&sa.boundary_out_ids, &sb_.boundary_out_ids);
        }
    }
}
