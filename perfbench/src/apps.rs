//! The `apps_batch` workload: rounds of the paper's data-parallel apps on
//! eight simulated processors, in process, under the cost-driven policy.
//!
//! One round runs the merge-sort DAG, PSRS and Jacobi plans through
//! `Scl::run_fused`, then the flattened hyperquicksort of Table 1.

use std::time::{Duration, Instant};

use scl_apps::jacobi::JacobiState;
use scl_apps::msort::Run;
use scl_apps::seqkit::{merge_sorted, seq_quicksort};
use scl_apps::{hyperquicksort_flat, jacobi_plan, jacobi_seq, msort_plan, psrs_plan, JacobiResult};
use scl_core::{block_ranges, ParArray, Scl, Skel};
use scl_exec::{host_threads, ExecPolicy};
use scl_testkit::Rng;

use crate::report::{allocations, count_allocations, metric, peak_rss_mb, Outcome};
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Simulated processors.
const PROCS: usize = 8;
/// Hypercube dimension of the hyperquicksort (`2^DIM == PROCS`).
const DIM: u32 = 3;
/// Keys per sort.
const KEYS: usize = 1 << 18;
/// Jacobi field length.
const FIELD: usize = 1 << 16;
/// Jacobi sweeps per round (the tolerance is zero, so every sweep runs).
const SWEEPS: usize = 40;
/// Segments of an untraced run, each on fresh contexts; `setup_s` is the
/// median of their set-ups.
const SEGMENTS: usize = 8;

/// The run's seeded inputs and their expected answers.
struct Inputs {
    keys: Vec<i64>,
    key_parts: Vec<Vec<i64>>,
    sorted: Vec<i64>,
    field: Vec<f64>,
    field_parts: Vec<Vec<f64>>,
    starts: Vec<usize>,
    jacobi: JacobiResult,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::seed_from_u64(seed);
        let keys: Vec<i64> = rng.vec_of(KEYS, |r| r.range_i64(-1_000_000_000, 1_000_000_000));
        let field: Vec<f64> = rng.vec_of(FIELD, |r| r.range_f64(0.0, 100.0));
        let key_parts = block_ranges(KEYS, PROCS)
            .into_iter()
            .map(|r| keys[r].to_vec())
            .collect();
        let ranges = block_ranges(FIELD, PROCS);
        let field_parts = ranges.iter().map(|r| field[r.clone()].to_vec()).collect();
        let starts = ranges.iter().map(|r| r.start).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let jacobi = jacobi_seq(&field, 0.0, SWEEPS);
        Inputs {
            keys,
            key_parts,
            sorted,
            field,
            field_parts,
            starts,
            jacobi,
        }
    }
}

/// One round's inputs, copied before the clock starts.
struct RoundInputs {
    msort: Run,
    psrs: Run,
    jacobi: JacobiState,
}

impl RoundInputs {
    fn of(inputs: &Inputs) -> RoundInputs {
        RoundInputs {
            msort: ParArray::from_parts(inputs.key_parts.clone()),
            psrs: ParArray::from_parts(inputs.key_parts.clone()),
            jacobi: (
                ParArray::from_parts(inputs.field_parts.clone()),
                0,
                f64::INFINITY,
            ),
        }
    }
}

/// Simulated-machine totals of one round, summed over the four apps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MachineTotals {
    messages: u64,
    bytes: u64,
    makespan_s: f64,
}

/// Contexts and plans for one execution policy.
struct Apps {
    ctx: [Scl; 4],
    msort: Skel<'static, Run, Run>,
    psrs: Skel<'static, Run, Run>,
    jacobi: Skel<'static, JacobiState, JacobiState>,
}

/// The outputs of one round.
struct RoundOut {
    msort: Vec<i64>,
    psrs: Vec<i64>,
    jacobi: JacobiState,
    hqs: Vec<i64>,
    totals: MachineTotals,
}

impl Apps {
    fn new(policy: ExecPolicy, inputs: &Inputs) -> Apps {
        Apps {
            ctx: std::array::from_fn(|_| Scl::ap1000(PROCS).with_policy(policy)),
            msort: msort_plan(PROCS),
            psrs: psrs_plan(PROCS),
            jacobi: jacobi_plan(FIELD, inputs.starts.clone(), 0.0, SWEEPS),
        }
    }

    /// Run one round, recording a span per app when tracing.
    fn round(
        &mut self,
        inputs: &Inputs,
        ri: RoundInputs,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<RoundOut, String> {
        for scl in &mut self.ctx {
            scl.reset();
        }
        let [c_msort, c_psrs, c_jacobi, c_hqs] = &mut self.ctx;
        let root = tracer.begin("apps.round", op);
        let s = tracer.begin("core.fused", op);
        let msort = c_msort
            .run_fused(&self.msort, ri.msort)
            .map_err(|e| format!("msort: {e}"))?;
        tracer.end(s);
        let s = tracer.begin("core.fused", op);
        let psrs = c_psrs
            .run_fused(&self.psrs, ri.psrs)
            .map_err(|e| format!("psrs: {e}"))?;
        tracer.end(s);
        let s = tracer.begin("core.fused", op);
        let jacobi = c_jacobi
            .run_fused(&self.jacobi, ri.jacobi)
            .map_err(|e| format!("jacobi: {e}"))?;
        tracer.end(s);
        let s = tracer.begin("apps.hyperquicksort", op);
        let hqs = hyperquicksort_flat(c_hqs, &inputs.keys, DIM);
        tracer.end(s);
        tracer.end(root);

        let reports: Vec<_> = self.ctx.iter().map(|c| c.machine.report()).collect();
        let totals = MachineTotals {
            messages: reports.iter().map(|r| r.metrics.messages).sum(),
            bytes: reports.iter().map(|r| r.metrics.bytes).sum(),
            makespan_s: reports.iter().map(|r| r.makespan.as_secs()).sum(),
        };
        Ok(RoundOut {
            msort: msort.into_parts().concat(),
            psrs: psrs.into_parts().concat(),
            jacobi,
            hqs,
            totals,
        })
    }
}

/// Check a round against `sort_unstable` and, bitwise, `jacobi_seq`.
fn check(inputs: &Inputs, out: &RoundOut) -> Result<(), String> {
    for (name, got) in [
        ("msort", &out.msort),
        ("psrs", &out.psrs),
        ("hyperquicksort", &out.hqs),
    ] {
        if got != &inputs.sorted {
            return Err(format!("{name} output differs from sort_unstable"));
        }
    }
    let (u, iters, residual) = &out.jacobi;
    let want = &inputs.jacobi;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let u: Vec<f64> = u.parts().concat();
    if bits(&u) != bits(&want.u)
        || *iters != want.iterations
        || residual.to_bits() != want.residual.to_bits()
    {
        return Err("jacobi differs bitwise from jacobi_seq".to_string());
    }
    Ok(())
}

/// Time rounds back to back until `budget` has passed (at least `min`
/// rounds), checking every one; allocations are counted during the
/// rounds when `tracer` is on. Returns round times in ms.
fn timed_rounds(
    apps: &mut Apps,
    inputs: &Inputs,
    reference: MachineTotals,
    budget: Duration,
    min: usize,
    tracer: &mut Tracer,
    o: &mut Outcome,
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || start.elapsed() < budget {
        let op = o.attempted;
        let ri = RoundInputs::of(inputs);
        count_allocations(tracer.is_on());
        let t = Instant::now();
        let result = apps.round(inputs, ri, tracer, op);
        times.push(t.elapsed().as_secs_f64() * 1e3);
        count_allocations(false);
        o.attempted += 1;
        let verdict = result.and_then(|out| {
            check(inputs, &out)?;
            if out.totals != reference {
                return Err(format!(
                    "machine totals {:?} differ from the warm-up round's {reference:?}",
                    out.totals
                ));
            }
            Ok(())
        });
        if let Err(e) = verdict {
            o.failed += 1;
            o.problem(e);
        }
    }
    times
}

/// Create the contexts and plans and run one warm-up round. Returns the
/// apps, the warm-up round's machine totals and the time taken.
fn setup(policy: ExecPolicy, inputs: &Inputs) -> Result<(Apps, MachineTotals, Duration), String> {
    let ri = RoundInputs::of(inputs);
    let t = Instant::now();
    let mut apps = Apps::new(policy, inputs);
    let out = apps.round(inputs, ri, &mut Tracer::new(false), 0)?;
    let dt = t.elapsed();
    check(inputs, &out)?;
    Ok((apps, out.totals, dt))
}

/// The sequential kernels alone on the same parts: local quicksorts and a
/// merge tree for each of the three sorts, and the sequential Jacobi.
fn kernels(inputs: &Inputs) -> Duration {
    let mut copies: Vec<Vec<Vec<i64>>> = (0..3).map(|_| inputs.key_parts.clone()).collect();
    let t = Instant::now();
    for parts in &mut copies {
        for p in parts.iter_mut() {
            std::hint::black_box(seq_quicksort(p));
        }
        let mut runs = std::mem::take(parts);
        while runs.len() > 1 {
            runs = runs
                .chunks(2)
                .map(|pair| match pair {
                    [a, b] => merge_sorted(a, b).0,
                    [a] => a.clone(),
                    _ => unreachable!("chunks of two"),
                })
                .collect();
        }
        std::hint::black_box(runs);
    }
    std::hint::black_box(jacobi_seq(&inputs.field, 0.0, SWEEPS));
    t.elapsed()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let policy = ExecPolicy::cost_driven();
    let inputs = Inputs::generate(seed);
    o.info("exec_policy", format!("{policy:?}"));
    o.info("procs", PROCS);
    o.info("keys", KEYS);
    o.info("jacobi_field", FIELD);
    o.info("jacobi_sweeps", SWEEPS);

    let secs = Duration::from_secs_f64;
    let mut off = Tracer::new(false);
    // an untraced run is a series of segments, each on fresh contexts
    // (and so fresh worker pools); a traced run is one segment
    let segments = if traced { 1 } else { SEGMENTS };
    let mut setup_times = Vec::with_capacity(segments);
    let mut reference = None;
    let mut times = Vec::new();
    let mut live = None;
    for _ in 0..segments {
        let (mut apps, totals, dt) = match setup(policy, &inputs) {
            Ok(s) => s,
            Err(e) => {
                o.problem(format!("set-up: {e}"));
                return o;
            }
        };
        setup_times.push(dt.as_secs_f64());
        let reference = *reference.get_or_insert(totals);
        if totals != reference {
            o.problem(format!(
                "machine totals {totals:?} differ between set-ups ({reference:?})"
            ));
        }
        if !traced {
            let budget = secs(seconds / segments as f64);
            times.extend(timed_rounds(
                &mut apps, &inputs, reference, budget, 3, &mut off, &mut o,
            ));
        }
        live = Some(apps);
    }
    o.info("segments", segments);
    o.info("setup_samples", setup_times.len());

    if !traced {
        let lat = Summary::of(&times);
        o.info("round_samples", lat.n);
        o.info("p99_ms", lat.p99);
        if let Some((p, v)) = lat.tail {
            o.info("tail_percentile", p);
            o.info("tail_ms", v);
        }
        let ok_rate = (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64;
        let busy_s: f64 = times.iter().sum::<f64>() / 1e3;
        o.metrics = vec![
            metric("p50_ms", lat.p50, "ms", lat.n),
            metric("p90_ms", lat.p90, "ms", lat.n),
            metric("ops_per_s", times.len() as f64 / busy_s, "1/s", lat.n),
            metric("ok_rate", ok_rate, "ratio", o.attempted as usize),
            metric("setup_s", median(&setup_times), "s", setup_times.len()),
            metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB", 1),
        ];
        return o;
    }
    let mut apps = live.expect("one segment ran");
    let reference = reference.expect("one segment ran");

    // ---- traced run ----
    // A: untraced rounds, the base of the tracing overhead
    let plain = timed_rounds(
        &mut apps,
        &inputs,
        reference,
        secs(seconds * 0.25),
        10,
        &mut off,
        &mut o,
    );
    // B: traced rounds, counting allocations around each round
    let mut tracer = Tracer::new(true);
    let (a0, b0) = allocations();
    let traced_times = timed_rounds(
        &mut apps,
        &inputs,
        reference,
        secs(seconds * 0.25),
        10,
        &mut tracer,
        &mut o,
    );
    let (a1, b1) = allocations();
    let (allocs, bytes) = (a1 - a0, b1 - b0);
    // C: the same round under Sequential, the workload policy and
    // Threads(nproc), interleaved so drift hits all three alike
    let nproc = host_threads();
    let mut seq = setup(ExecPolicy::Sequential, &inputs).map(|s| s.0);
    let mut threads = setup(ExecPolicy::Threads(nproc), &inputs).map(|s| s.0);
    let (mut t_seq, mut t_cost, mut t_thr) = (Vec::new(), Vec::new(), Vec::new());
    if let (Ok(seq), Ok(threads)) = (&mut seq, &mut threads) {
        let start = Instant::now();
        while t_seq.len() < 5 || start.elapsed() < secs(seconds * 0.35) {
            for (a, t) in [
                (&mut *seq, &mut t_seq),
                (&mut apps, &mut t_cost),
                (&mut *threads, &mut t_thr),
            ] {
                let one = timed_rounds(a, &inputs, reference, Duration::ZERO, 1, &mut off, &mut o);
                t.extend(one);
            }
        }
    } else {
        o.problem("set-up of the comparison policies failed");
    }
    // D: the kernel floor
    let mut kernel_times = Vec::new();
    let start = Instant::now();
    while kernel_times.len() < 5 || start.elapsed() < secs(seconds * 0.15) {
        kernel_times.push(kernels(&inputs).as_secs_f64() * 1e3);
    }

    if let Err(e) = tracer.validate() {
        o.problem(format!("trace rejected: {e}"));
    }
    let round_in_spans = median(
        &tracer
            .durations("apps.round")
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let traced_p50 = median(&traced_times);
    if round_in_spans > traced_p50 {
        o.problem(format!(
            "trace rejected: spans cover {round_in_spans:.3} ms of a {traced_p50:.3} ms round"
        ));
    }
    if let Err(e) = tracer.write_out("apps_batch") {
        o.problem(e);
    }

    let rounds = traced_times.len();
    let round_ms = median(&plain);
    let kernel_ms = median(&kernel_times);
    let fused_ms = tracer
        .self_by_name()
        .get("core.fused")
        .map_or(0.0, |&(_, t)| t as f64 / 1e6 / rounds as f64);
    o.info("nproc", nproc);
    o.info("spans", tracer.spans().len());
    o.info(
        "hyperquicksort_ms",
        tracer.mean_self_us("apps.hyperquicksort") / 1e3,
    );
    o.info("round_seq_ms", median(&t_seq));
    o.info("round_threads_ms", median(&t_thr));
    o.info("round_cost_ms", median(&t_cost));
    o.metrics = vec![
        metric("core.fused_ms", fused_ms, "ms", rounds),
        metric(
            "core.skeleton_overhead_ms",
            round_ms - kernel_ms,
            "ms",
            plain.len(),
        ),
        metric("apps.kernel_ms", kernel_ms, "ms", kernel_times.len()),
        metric("apps.round_ms", round_ms, "ms", plain.len()),
        metric(
            "exec.parallel_speedup",
            median(&t_seq) / median(&t_cost),
            "ratio",
            t_cost.len(),
        ),
        metric(
            "exec.cost_vs_threads",
            median(&t_cost) / median(&t_thr),
            "ratio",
            t_cost.len(),
        ),
        metric("machine.messages", reference.messages as f64, "count", 0),
        metric("machine.bytes", reference.bytes as f64, "bytes", 0),
        metric("machine.makespan_s", reference.makespan_s, "s", 0),
        metric(
            "alloc.count_per_op",
            allocs as f64 / rounds as f64,
            "count",
            rounds,
        ),
        metric(
            "alloc.bytes_per_op",
            bytes as f64 / rounds as f64,
            "bytes",
            rounds,
        ),
        metric(
            "trace.overhead_ratio",
            traced_p50 / median(&plain),
            "ratio",
            rounds,
        ),
    ];
    o
}
