//! Unit tests for the streaming runtime. The heavyweight differential
//! suite (stream == eager bit-for-bit with identical per-item metrics,
//! across apps and policies) lives in the workspace's
//! `tests/stream_vs_eager.rs`; these cover the graph mechanics.

use super::*;
use scl_core::prelude::*;
use scl_machine::{CostModel, Topology};

fn unit_machine(n: usize) -> Machine {
    Machine::new(Topology::FullyConnected { procs: n }, CostModel::unit())
}

fn arr(k: i64) -> ParArray<i64> {
    ParArray::from_parts((k..k + 4).collect())
}

/// map → rotate → map: one farm, one barrier, one trailing farm.
fn mixed_plan() -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(|x: &i64| x * 3)
        .then(Skel::rotate(1))
        .then(Skel::map_costed(|x: &i64| (x + 1, Work::flops(1))))
}

fn eager_outputs(n: i64) -> Vec<Vec<i64>> {
    let plan = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    (0..n)
        .map(|k| {
            scl.reset();
            plan.run(&mut scl, arr(k)).to_vec()
        })
        .collect()
}

#[test]
fn push_drain_matches_eager_in_order() {
    for exec in [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(3),
        ExecPolicy::cost_driven(),
    ] {
        let mut s = StreamExec::new(
            mixed_plan(),
            StreamPolicy::new(unit_machine(4)).with_exec(exec),
        );
        for k in 0..40 {
            s.push(arr(k)).unwrap();
        }
        let out = s.drain();
        let got: Vec<Vec<i64>> = out.iter().map(|a| a.to_vec()).collect();
        assert_eq!(got, eager_outputs(40), "{exec:?}");
    }
}

#[test]
fn run_stream_iterates_in_order() {
    let s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    let got: Vec<Vec<i64>> = s
        .run_stream((0..100).map(arr))
        .map(|a| a.to_vec())
        .collect();
    assert_eq!(got, eager_outputs(100));
}

#[test]
fn per_item_reports_match_eager() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..10 {
        s.push(arr(k)).unwrap();
    }
    let streamed = s.drain_with_reports();

    let plan = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    for (k, (out, report)) in streamed.into_iter().enumerate() {
        scl.reset();
        let eager = plan.run(&mut scl, arr(k as i64));
        assert_eq!(out, eager, "item {k}");
        assert_eq!(report, scl.machine.report(), "item {k}");
    }
}

#[test]
fn sequential_policy_runs_inline_with_no_farms() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Sequential),
    );
    assert_eq!(s.farm_stages(), 0);
    s.push(arr(0)).unwrap();
    // inline service is synchronous: the item is already done
    assert_eq!(s.in_flight(), 0);
    assert_eq!(s.drain().len(), 1);
    // the inline segments still show up in the stage stats
    let stats = s.stage_stats();
    assert!(stats.iter().any(|st| st.label == "map"), "{stats:?}");
    assert!(stats.iter().any(|st| st.label == "rotate"), "{stats:?}");
}

#[test]
fn threaded_policy_builds_farms_at_segment_boundaries() {
    let s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    // map | rotate | map_costed → two farms split by one barrier
    assert_eq!(s.farm_stages(), 2);
    let stats = s.stage_stats();
    let labels: Vec<&str> = stats.iter().map(|st| st.label.as_str()).collect();
    assert_eq!(labels, vec!["map", "rotate", "map_costed"]);
    assert!(stats[0].farm && !stats[1].farm && stats[2].farm);
    assert_eq!(stats[0].max_width, 4);
}

#[test]
fn unfusable_plans_fall_back_to_eager_mode() {
    let plan = Skel::map(|x: &i64| x + 1).then(Skel::from_fn(|scl: &mut Scl, a: ParArray<i64>| {
        scl.rotate(1, &a)
    }));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    assert_eq!(s.farm_stages(), 0);
    assert!(s.stage_stats().is_empty());
    for k in 0..5 {
        s.push(arr(k)).unwrap();
    }
    let out = s.drain();
    assert_eq!(out[0].to_vec(), vec![2, 3, 4, 1]);
    assert_eq!(out.len(), 5);
}

#[test]
fn push_rejects_oversized_items() {
    let mut s = StreamExec::new(
        Skel::map(|x: &i64| *x),
        StreamPolicy::new(unit_machine(2)).with_exec(ExecPolicy::Threads(2)),
    );
    let err = s.push(arr(0)).unwrap_err(); // 4 parts on a 2-proc machine
    assert_eq!(
        err,
        scl_core::SclError::MachineTooSmall {
            needed: 4,
            procs: 2
        }
    );
    // the rejected item never entered the graph
    assert_eq!(s.in_flight(), 0);

    // the eager fallback honours the same entry contract (Err, not a
    // panic inside the eager skeleton layer)
    let unfusable =
        Skel::map(|x: &i64| *x).then(Skel::from_fn(|_scl: &mut Scl, a: ParArray<i64>| a));
    let mut s = StreamExec::new(unfusable, StreamPolicy::new(unit_machine(2)));
    assert_eq!(s.farm_stages(), 0);
    let err = s.push(arr(0)).unwrap_err();
    assert_eq!(
        err,
        scl_core::SclError::MachineTooSmall {
            needed: 4,
            procs: 2
        }
    );
}

#[test]
fn worker_panic_reraises_labelled_at_completion() {
    let plan = Skel::map(|x: &i64| if *x == 42 { panic!("boom") } else { *x });
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    s.push(ParArray::from_parts(vec![40i64, 41, 42, 43]))
        .unwrap();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.drain();
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("labelled panic");
    assert!(msg.contains("fused stage `map`"), "{msg}");
    assert!(msg.contains("boom"), "{msg}");
}

#[test]
fn poisoned_item_still_lets_the_rest_of_the_stream_drain() {
    // item 2 panics in a farmed stage; the panic must surface once, with
    // the in-flight gauge kept consistent so the healthy items remain
    // collectable afterwards (a regression here hangs this test forever)
    let plan = Skel::map(|x: &i64| if *x == 2 { panic!("poison") } else { *x });
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(1)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..6 {
        s.push(ParArray::from_parts(vec![k])).unwrap();
    }
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.drain();
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("labelled panic");
    assert!(msg.contains("poison"), "{msg}");
    // every item (including the poisoned one) is accounted; what the
    // unwound drain dropped is gone, but nothing hangs
    let _rest = s.drain();
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn barrier_panic_poisons_the_item_with_its_label() {
    let plan = Skel::map(|x: &i64| x + 1).then(Skel::barrier(
        "trap",
        |_scl: &mut Scl, a: ParArray<i64>| {
            if *a.part(0) == 3 {
                panic!("barrier blew up");
            }
            a
        },
    ));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..6 {
        s.push(arr(k)).unwrap(); // k=2 maps to 3 at the barrier
    }
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.drain();
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("labelled panic");
    assert!(msg.contains("stream barrier `trap` panicked"), "{msg}");
    assert!(msg.contains("barrier blew up"), "{msg}");
    // the stream survives the barrier panic too
    let _rest = s.drain();
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn backpressure_bounds_in_flight_items() {
    let capacity = 4;
    let width = 2;
    let plan = Skel::map(|x: &i64| x + 1)
        .then(Skel::rotate(1))
        .then(Skel::map(|x: &i64| x * 2))
        .then(Skel::rotate(-1))
        .then(Skel::map(|x: &i64| x - 3));
    let s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Threads(width))
            .with_capacity(capacity),
    );
    let n_farms = s.farm_stages();
    assert_eq!(n_farms, 3);
    let mut iter = s.run_stream((0..2000).map(arr));
    let mut count = 0usize;
    let mut peak = 0u64;
    while iter.next().is_some() {
        count += 1;
        peak = peak.max(iter.executor().peak_in_flight());
    }
    assert_eq!(count, 2000);
    // per farm: in-queue + replicas + out-queue + reorder (≤ width +
    // capacity) + the hop's park slot; plus the entry slot. All bounds are
    // O(capacity × stages) — nothing scales with the 2000-item stream.
    let per_farm = (3 * capacity + 2 * width + 1) as u64;
    let bound = per_farm * n_farms as u64 + 2;
    assert!(
        peak <= bound,
        "peak in-flight {peak} exceeded the capacity bound {bound}"
    );
    assert!(peak >= 2, "pipeline never overlapped items");
}

#[test]
fn capacity_below_width_splits_into_one_item_lanes() {
    // capacity 2 over 4 replicas: every lane holds max(1, 2 / 4) = 1 item
    let (capacity, width) = (2, 4);
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Threads(width))
            .with_capacity(capacity)
            .with_adaptive(false),
    );
    let n_farms = s.farm_stages();
    assert_eq!(n_farms, 2);
    for k in 0..300 {
        s.push(arr(k)).unwrap();
    }
    let streamed = s.drain_with_reports();
    assert_eq!(streamed.len(), 300);

    let plan = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    for (k, (out, report)) in streamed.into_iter().enumerate() {
        scl.reset();
        let eager = plan.run(&mut scl, arr(k as i64));
        assert_eq!(out, eager, "item {k}");
        assert_eq!(report, scl.machine.report(), "item {k}");
    }
    // the backpressure test's per-farm bound with capacity replaced by
    // max(capacity, width): O(max(capacity, width) × stages)
    let per_farm = (3 * capacity.max(width) + 2 * width + 1) as u64;
    let bound = per_farm * n_farms as u64 + 2;
    let peak = s.peak_in_flight();
    assert!(
        peak <= bound,
        "peak in-flight {peak} exceeded the bound {bound}"
    );
}

#[test]
fn ring_links_poison_stress_resolves_each_failure_exactly_once() {
    // companion to the 200k two-thread soak in `scl-exec::spsc`: the same
    // lock-free rings, now carrying poisoned envelopes mid-stream. Dozens
    // of stage panics scattered through a long stream over the farms'
    // private rings must each resolve exactly once at the pop side
    // as a typed error — never a lost item, never a double report, and
    // never a stranded pump or private lane (a regression here hangs this
    // test or miscounts the outcomes).
    const N: i64 = 5_000;
    let poisoned = |k: i64| (k..k + 4).any(|x| x % 499 == 13);
    let plan = || {
        Skel::map(|x: &i64| {
            if *x % 499 == 13 {
                panic!("poison {x}");
            }
            x * 3
        })
        .then(Skel::rotate(1))
        .then(Skel::map_costed(|x: &i64| (x + 1, Work::flops(1))))
    };
    // full-width non-adaptive farms: every replica's lane pair in use
    let mut s = StreamExec::new(
        plan(),
        StreamPolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Threads(4))
            .with_adaptive(false),
    );
    for k in 0..N {
        s.push(arr(k)).unwrap();
    }
    let outcomes = s.drain_outcomes();
    assert_eq!(
        outcomes.len() as i64,
        N,
        "every item accounted exactly once"
    );
    assert_eq!(s.in_flight(), 0);

    let solo = plan();
    let mut scl = Scl::new(unit_machine(4));
    let mut failures = 0usize;
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let k = k as i64;
        match outcome {
            Err(e) => {
                assert!(poisoned(k), "item {k} failed but carries no poison: {e}");
                assert!(
                    matches!(&e, scl_core::RequestError::StagePanic { stage, .. } if stage == "map"),
                    "item {k}: {e}"
                );
                assert!(e.to_string().contains("poison"), "item {k}: {e}");
                failures += 1;
            }
            Ok((out, report)) => {
                assert!(!poisoned(k), "item {k} should have failed");
                scl.reset();
                let expect = solo.run(&mut scl, arr(k));
                assert_eq!(out, expect, "item {k}");
                assert_eq!(report, scl.machine.report(), "item {k} report");
            }
        }
    }
    assert!(
        failures >= 30,
        "the stream actually got poisoned: {failures}"
    );

    // the graph is still serviceable: no lane or pump was stranded
    for k in 0..20 {
        s.push(arr(N + 600 + k)).unwrap();
    }
    for (i, outcome) in s.drain_outcomes().into_iter().enumerate() {
        let k = N + 600 + i as i64;
        let (out, _) = outcome.unwrap_or_else(|e| panic!("item {k} after the storm: {e}"));
        scl.reset();
        assert_eq!(out, solo.run(&mut scl, arr(k)), "item {k} after the storm");
    }
}

#[test]
fn autonomic_controller_widens_under_load_and_narrows_when_idle() {
    // one heavy farmable stage; small tick so the controller acts often
    let plan = Skel::map(|x: &u64| {
        let mut acc = *x;
        for i in 0..60_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        acc
    });
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(2))
            .with_exec(ExecPolicy::Threads(4))
            .with_capacity(4)
            .with_tick_items(8),
    );
    assert_eq!(s.stage_stats()[0].width, 1, "adaptive farms start narrow");
    for k in 0..400u64 {
        s.push(ParArray::from_parts(vec![k, k + 1])).unwrap();
        if s.stage_stats()[0].width > 1 {
            break; // widened — that's what we came to see
        }
    }
    let widened = s.stage_stats()[0].width;
    let _ = s.drain();
    assert!(
        widened > 1,
        "controller never widened a backlogged stage: {:?}",
        s.stage_stats()
    );

    // drained and idle: subsequent light traffic lets it narrow again
    for k in 0..200u64 {
        s.push(ParArray::from_parts(vec![k, k])).unwrap();
        let _ = s.drain(); // keep the queue empty ...
        std::thread::sleep(Duration::from_millis(1)); // ... and utilisation low
        if s.stage_stats()[0].width == 1 {
            break;
        }
    }
    assert_eq!(
        s.stage_stats()[0].width,
        1,
        "controller never narrowed an idle stage: {:?}",
        s.stage_stats()
    );
}

#[test]
fn cost_driven_calibration_keeps_tiny_streams_narrow() {
    // AP1000 cost model: coordination dwarfs a 4×i64 item, so the model
    // should cap every farm at one replica
    let plan = Skel::map(|x: &i64| x + 1).then(Skel::rotate(1));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(Machine::ap1000(4)).with_exec(ExecPolicy::cost_driven()),
    );
    for k in 0..10 {
        s.push(arr(k)).unwrap();
    }
    let _ = s.drain();
    if s.farm_stages() > 0 {
        for st in s.stage_stats().iter().filter(|st| st.farm) {
            assert_eq!(st.max_width, 1, "{st:?}");
        }
    }
}

#[test]
fn vec_boundary_plans_stream_host_data() {
    // partition → balance → gather: Vec<T> in, Vec<T> out, barriers only
    let plan = Skel::partition(Pattern::Block(4))
        .then(Skel::balance())
        .then(Skel::gather());
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(Machine::ap1000(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..20i64 {
        s.push((k..k + 13).collect::<Vec<i64>>()).unwrap();
    }
    let out = s.drain();
    for (k, v) in out.into_iter().enumerate() {
        let k = k as i64;
        assert_eq!(v, (k..k + 13).collect::<Vec<i64>>());
    }
}

#[test]
fn throughput_and_gauges_track_the_run() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    assert_eq!(s.throughput().items, 0);
    for k in 0..30 {
        s.push(arr(k)).unwrap();
    }
    let _ = s.drain();
    let t = s.throughput();
    assert_eq!(t.items, 30);
    assert!(t.secs > 0.0);
    assert!(t.items_per_sec() > 0.0);
    assert!(s.peak_in_flight() >= 1);
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn external_width_cap_clamps_farms_and_composes_with_policy() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Threads(4))
            .with_adaptive(false),
    );
    assert_eq!(s.width_cap(), usize::MAX);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!((st.width, st.max_width), (4, 4));
    }

    // a shard scheduler narrows this graph's share to 2 threads
    s.set_width_cap(2);
    assert_eq!(s.width_cap(), 2);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!((st.width, st.max_width), (2, 2), "{st:?}");
    }
    // the capped graph still serves correctly
    for k in 0..20 {
        s.push(arr(k)).unwrap();
    }
    let got: Vec<Vec<i64>> = s.drain().iter().map(|a| a.to_vec()).collect();
    assert_eq!(got, eager_outputs(20));

    // widening past the policy ceiling restores it, never exceeds it
    s.set_width_cap(16);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!(st.max_width, 4, "{st:?}");
    }
    // a zero cap clamps to one replica instead of wedging the graph
    s.set_width_cap(0);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!(st.max_width, 1, "{st:?}");
    }
}

#[test]
fn width_cap_respects_adaptive_control() {
    // adaptive farms start at width 1; an external cap must not force
    // replicas active, only bound the controller's headroom
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    s.set_width_cap(3);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!((st.width, st.max_width), (1, 3), "{st:?}");
    }
}

#[test]
fn fused_charging_matches_run_fused_reports() {
    // two fused compute stages around a barrier: under fused charging the
    // per-item reports must equal solo `run_fused` calls (one summed
    // "fused" event per part per segment), not solo eager runs
    let plan = || {
        Skel::map_costed(|x: &i64| (x + 1, Work::flops(2)))
            .then(Skel::imap_costed(|i, x: &i64| {
                (x * 3, Work::cmps(i as u64 + 1))
            }))
            .then(Skel::rotate(1))
            .then(Skel::map_costed(|x: &i64| (x - 5, Work::moves(1))))
    };
    for exec in [ExecPolicy::Sequential, ExecPolicy::Threads(3)] {
        let mut s = StreamExec::new(
            plan(),
            StreamPolicy::new(unit_machine(4))
                .with_exec(exec)
                .with_fused_charging(true),
        );
        for k in 0..12 {
            s.push(arr(k)).unwrap();
        }
        let streamed = s.drain_with_reports();
        assert_eq!(streamed.len(), 12);

        let solo = plan();
        let mut scl = Scl::new(unit_machine(4));
        for (k, (out, report)) in streamed.into_iter().enumerate() {
            scl.reset();
            let expect = scl.run_fused(&solo, arr(k as i64)).unwrap();
            assert_eq!(out, expect, "item {k} ({exec:?})");
            assert_eq!(report, scl.machine.report(), "item {k} ({exec:?})");
        }
    }
}

#[test]
fn stateful_barriers_see_items_in_stream_order() {
    // a barrier that folds a running count into each item: only correct
    // if the pump feeds it in stream order
    let plan = Skel::map(|x: &i64| x * 10).then(Skel::barrier("count", {
        let mut count = 0i64;
        move |_scl: &mut Scl, a: ParArray<i64>| {
            count += 1;
            a.map_parts(|x| x + count)
        }
    }));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    for k in 0..50 {
        s.push(arr(k)).unwrap();
    }
    let out = s.drain();
    for (i, a) in out.iter().enumerate() {
        let k = i as i64;
        let expect: Vec<i64> = (k..k + 4).map(|x| x * 10 + k + 1).collect();
        assert_eq!(a.to_vec(), expect, "item {i}");
    }
}
