//! End-to-end and per-layer benchmark of the scl-rs stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_hot|wire_churn|apps_batch --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints provenance and sample counts as JSON on earlier lines and, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits nonzero when any output misses its oracle.

mod apps;
mod gen;
mod idle;
mod oracle;
mod report;
mod stats;
mod trace;
mod wire;

use report::{info_line, result_line, GatedAlloc, Metric, Outcome};

#[global_allocator]
static ALLOC: GatedAlloc = GatedAlloc;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A workload that
/// does not exercise a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.frame_codec_us", "us"),
    ("net.unattributed_us", "us"),
    ("net.queue_depth", "count"),
    ("net.shed", "1/op"),
    ("net.rejected", "1/op"),
    ("net.errors", "1/op"),
    ("transform.parse_us", "us"),
    ("transform.optimize_us", "us"),
    ("transform.rewrites_per_plan", "count"),
    ("core.from_expr_us", "us"),
    ("core.fingerprint_us", "us"),
    ("core.fused_ms", "ms"),
    ("core.skeleton_overhead_ms", "ms"),
    ("serve.submit_hit_us", "us"),
    ("serve.submit_miss_us", "us"),
    ("serve.step_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.batch_size", "count"),
    ("serve.evictions_per_req", "1/op"),
    ("stream.build_ms", "ms"),
    ("stream.teardown_ms", "ms"),
    ("stream.push_us", "us"),
    ("stream.drain_us", "us"),
    ("stream.stage_service_us", "us"),
    ("exec.parallel_speedup", "ratio"),
    ("exec.cost_vs_threads", "ratio"),
    ("apps.kernel_ms", "ms"),
    ("apps.round_ms", "ms"),
    ("machine.messages", "count"),
    ("machine.bytes", "bytes"),
    ("machine.makespan_s", "s"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("gen.late_p90_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Put the metrics in the declared order, filling layers the workload
/// does not exercise with 0, and reject any the lists do not declare.
fn conform(o: &mut Outcome, declared: &[(&'static str, &'static str)]) {
    let mut out = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match o.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => out.push(m.clone()),
            Some(m) => o.problem(format!("{name} measured in {} not {unit}", m.unit)),
            None => out.push(report::metric(name, 0.0, unit, 0)),
        }
    }
    let undeclared: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| !declared.iter().any(|(n, _)| *n == m.name))
        .map(|m| format!("undeclared metric {}", m.name))
        .chain(
            out.iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| format!("{} is not finite", m.name)),
        )
        .collect();
    for p in undeclared {
        o.problem(p);
    }
    out.retain(|m| m.value.is_finite());
    o.metrics = out;
}

fn main() {
    let pinned = report::pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload wire_hot|wire_churn|apps_batch --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let hold = idle::IdleHold::start(scl_exec::host_threads());
    let mut o = match args.workload.as_str() {
        "wire_hot" => wire::run(gen::Mix::Hot, args.seed, args.seconds, args.trace),
        "wire_churn" => wire::run(gen::Mix::Churn, args.seed, args.seconds, args.trace),
        "apps_batch" => apps::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let idle_spinners = hold.running();
    drop(hold);
    conform(&mut o, if args.trace { PER_LAYER } else { END_TO_END });

    let mut provenance = Outcome::default();
    provenance.info("workload", &args.workload);
    provenance.info("seed", args.seed);
    provenance.info("seconds", args.seconds);
    provenance.info("trace", u8::from(args.trace));
    provenance.info("error_rate", o.failed as f64 / o.attempted.max(1) as f64);
    provenance.info("nproc", scl_exec::host_threads());
    provenance.info("idle_spinners", idle_spinners);
    provenance.info("mmap_threshold_pinned", pinned);
    provenance.info("rustc", env!("PERFBENCH_RUSTC"));
    provenance.info(
        "commit",
        option_env!("PERFBENCH_COMMIT").unwrap_or("unknown"),
    );
    provenance.info.append(&mut o.info);
    println!("{}", info_line(&provenance));
    for Metric {
        name,
        value,
        unit,
        samples,
    } in &o.metrics
    {
        println!("{name} = {value} {unit} (samples: {samples})");
    }
    println!("{}", result_line(&o));
    if !o.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in the repository's `BENCHMARK.json` agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
