//! The wire workloads: a loopback `NetServer` driven by two client
//! connections, first open-loop at a fixed rate, then closed-loop.
//!
//! A traced run adds three things: client-side spans and allocation
//! counting over the second half of the open-loop phase, an in-process
//! replay of those requests through the calls the server's service thread
//! makes, and a replay of them through bare `StreamExec` graphs.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use scl_core::{FrameHeader, ParArray, Skel};
use scl_exec::ExecPolicy;
use scl_net::frame::plan_handle;
use scl_net::{Mode, NetClient, NetConfig, NetServer, Reply, Request, TenantSpec};
use scl_serve::{Serve, ServePolicy, TenantId};
use scl_stream::{StreamExec, StreamPolicy};

use crate::gen::{generate, Mix, Req, WireInputs, TENANTS};
use crate::oracle::{registry, wire_machine, Oracle};
use crate::report::{allocations, count_allocations, metric, peak_rss_mb, Outcome};
use crate::stats::{median, windowed_quantile, windows, Summary};
use crate::trace::Tracer;

/// Segments of an untraced run. Each runs on a fresh server, so a run
/// averages over as many thread placements; `setup_s` is the median of
/// two set-ups per segment.
const SEGMENTS: u64 = 8;
/// Open-loop time at the start of each segment whose requests are sent
/// and checked but not counted in the latency figures.
const WARMUP_S: f64 = 0.25;
/// Share of the run spent in the open-loop phase; the rest is closed-loop.
const OPEN_SHARE: f64 = 0.6;
/// Width of the windows latency quantiles are taken over; the reported
/// figure is their median.
const LATENCY_WINDOW_S: f64 = 0.5;
/// Width of the windows closed-loop throughput is counted over.
const RATE_WINDOW_S: f64 = 0.25;
/// Plan-cache capacity of the server (the `NetConfig` default).
const PLAN_CACHE_CAP: usize = 32;

/// Offered open-loop rate over both connections, requests per second.
pub fn offered_rate(mix: Mix) -> f64 {
    match mix {
        Mix::Hot => 2000.0,
        Mix::Churn => 800.0,
    }
}

fn mode(mix: Mix) -> Mode {
    match mix {
        Mix::Hot => Mode::Plain,
        Mix::Churn => Mode::Optimized,
    }
}

fn server_config() -> NetConfig {
    NetConfig {
        procs: crate::gen::PARTS,
        tenants: (0..TENANTS)
            .map(|t| TenantSpec::new(&format!("t{t}")))
            .collect(),
        ..NetConfig::default()
    }
}

/// One open-loop request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub slot: u64,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

impl Sample {
    /// Latency counted from when the request was due, so a stall delays
    /// every request queued behind it.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    pub fn lateness(&self) -> Duration {
        self.sent - self.due
    }
}

/// Send `reqs` on schedule: slot `s` is due `s / rate` seconds after
/// `t0`. A connection has one request in flight, so a slow reply makes
/// the next send late; its latency still counts from its due time.
pub fn open_loop(
    t0: Instant,
    rate: f64,
    reqs: &[(u64, Req)],
    mut call: impl FnMut(u64, Req) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(reqs.len());
    for &(slot, req) in reqs {
        let due = t0 + Duration::from_secs_f64(slot as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = call(slot, req);
        out.push(Sample {
            slot,
            due,
            sent,
            done: Instant::now(),
            ok,
        });
    }
    out
}

/// Send the cycle back to back from `start` until `until`; returns each
/// completion's time in seconds after `start`, and how many failed.
fn closed_loop(
    start: Instant,
    until: Instant,
    reqs: &[Req],
    mut call: impl FnMut(Req) -> bool,
) -> (Vec<f64>, u64) {
    let (mut done, mut failed) = (Vec::new(), 0u64);
    for req in reqs.iter().cycle() {
        if Instant::now() >= until {
            break;
        }
        if !call(*req) {
            failed += 1;
        }
        done.push((Instant::now() - start).as_secs_f64());
    }
    (done, failed)
}

/// Submit one request by handle and check the reply.
fn submit(
    client: &mut NetClient,
    inputs: &WireInputs,
    oracle: &Oracle,
    handles: &[u64],
    req: Req,
) -> Result<(), String> {
    let tenant = inputs.plans[req.plan].tenant;
    let r = client
        .submit_handle(tenant, handles[req.plan], &inputs.payloads[req.payload])
        .map_err(|e| format!("request {req:?} failed: {e}"))?;
    oracle.check(req, &r.output, &r.report)
}

struct Live {
    server: NetServer,
    clients: Vec<NetClient>,
    handles: Vec<u64>,
}

impl Live {
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Bind the server, open the connections and register every plan by
/// source (its first compile). Returns the live set-up and its duration.
fn setup(inputs: &WireInputs, oracle: &Oracle, mode: Mode) -> Result<(Live, Duration), String> {
    let t = Instant::now();
    let server = NetServer::start(server_config()).map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::with_capacity(TENANTS);
    for _ in 0..TENANTS {
        clients.push(NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let mut handles = vec![0u64; inputs.plans.len()];
    for (conn, client) in clients.iter_mut().enumerate() {
        for req in inputs.setup_requests(conn) {
            let p = &inputs.plans[req.plan];
            let r = client
                .submit_source(
                    p.tenant,
                    mode,
                    &p.source,
                    &p.key,
                    &inputs.payloads[req.payload],
                )
                .map_err(|e| format!("set-up submission of `{}` failed: {e}", p.source))?;
            oracle.check(req, &r.output, &r.report)?;
            handles[req.plan] = r.handle;
        }
    }
    let dt = t.elapsed();
    Ok((
        Live {
            server,
            clients,
            handles,
        },
        dt,
    ))
}

/// Sum of every `"key": <integer>` in a stats document.
fn json_sum(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    json.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

/// Everything one connection's generator thread brings back.
#[derive(Default)]
struct ConnLog {
    samples: Vec<Sample>,
    depths: Vec<f64>,
    errors: Vec<String>,
}

/// What one segment of a run measured.
struct Segment {
    /// When the segment's first open-loop slot was due.
    t0: Instant,
    /// Slot of the segment's first open-loop request.
    first: u64,
    samples: Vec<Sample>,
    /// Queue depth seen at each traced send.
    depths: Vec<f64>,
    /// `(allocations, bytes)` counted over the traced sends.
    allocs: (u64, u64),
    /// Closed-loop completion times, seconds after the phase began.
    completions: Vec<f64>,
    closed_failed: u64,
    errors: Vec<String>,
    stats_before: String,
    stats_after: String,
}

/// Run one segment on a fresh server: set up twice (the first set-up is
/// torn down again; both are timed), send the open-loop slots in
/// `slots`, then run the closed loop for `closed_secs`. Sends from slot
/// `split` on are traced.
#[allow(clippy::too_many_arguments)]
fn segment(
    inputs: &WireInputs,
    oracle: &Oracle,
    mode: Mode,
    rate: f64,
    slots: std::ops::Range<u64>,
    split: u64,
    closed_secs: f64,
    setup_times: &mut Vec<f64>,
) -> Result<Segment, String> {
    let (first_setup, dt) = setup(inputs, oracle, mode)?;
    setup_times.push(dt.as_secs_f64());
    first_setup.stop();
    let (live, dt) = setup(inputs, oracle, mode)?;
    setup_times.push(dt.as_secs_f64());
    let Live {
        server,
        mut clients,
        handles,
    } = live;
    let stats_before = server.stats_json();

    // ---- open loop ----
    let t0 = Instant::now() + Duration::from_millis(20);
    let first = slots.start;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let reqs: Vec<(u64, Req)> = inputs.open[conn]
                    .iter()
                    .filter(|(slot, _)| slots.contains(slot))
                    .map(|&(slot, req)| (slot - first, req))
                    .collect();
                let (handles, server) = (&handles, &server);
                s.spawn(move || {
                    let mut log = ConnLog::default();
                    log.samples = open_loop(t0, rate, &reqs, |rel, req| {
                        if rel + first >= split {
                            count_allocations(true);
                            log.depths.push(server.queue_depth() as f64);
                        }
                        submit(client, inputs, oracle, handles, req)
                            .map_err(|e| log.errors.push(e))
                            .is_ok()
                    });
                    for sample in &mut log.samples {
                        sample.slot += first;
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generator thread"))
            .collect()
    });
    count_allocations(false);
    let allocs = allocations();

    // ---- closed loop ----
    let t_closed = Instant::now();
    let until = t_closed + Duration::from_secs_f64(closed_secs);
    let closed: Vec<(Vec<f64>, u64, Vec<String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let handles = &handles;
                s.spawn(move || {
                    let mut errors = Vec::new();
                    let (done, failed) =
                        closed_loop(t_closed, until, &inputs.closed[conn], |req| {
                            submit(client, inputs, oracle, handles, req)
                                .map_err(|e| errors.push(e))
                                .is_ok()
                        });
                    (done, failed, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("generator thread"))
            .collect()
    });
    let stats_after = server.stats_json();
    Live {
        server,
        clients,
        handles,
    }
    .stop();

    let mut seg = Segment {
        t0,
        first,
        samples: Vec::new(),
        depths: Vec::new(),
        allocs,
        completions: Vec::new(),
        closed_failed: 0,
        errors: Vec::new(),
        stats_before,
        stats_after,
    };
    for log in logs {
        seg.samples.extend(log.samples);
        seg.depths.extend(log.depths);
        seg.errors.extend(log.errors);
    }
    for (done, failed, errors) in closed {
        seg.completions.extend(done);
        seg.closed_failed += failed;
        seg.errors.extend(errors);
    }
    Ok(seg)
}

pub fn run(mix: Mix, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let mode = mode(mix);
    let rate = offered_rate(mix);
    let open_secs = seconds * OPEN_SHARE;
    let closed_secs = seconds - open_secs;
    let slots = (rate * open_secs).round() as u64;
    // a traced run is one segment whose second open-loop half is traced
    let (segments, split) = if traced {
        (1, slots / 2)
    } else {
        (SEGMENTS, slots)
    };
    let per_segment = slots / segments;
    let warm_slots = (rate * WARMUP_S).round() as u64;

    let t_inputs = Instant::now();
    let inputs = generate(mix, seed, slots);
    let all_reqs = (0..TENANTS)
        .flat_map(|c| inputs.setup_requests(c))
        .chain(inputs.open.iter().flatten().map(|(_, r)| *r))
        .chain(inputs.closed.iter().flatten().copied());
    let oracle = match Oracle::build(&inputs, mode, all_reqs) {
        Ok(oracle) => oracle,
        Err(e) => {
            o.problem(format!("oracle: {e}"));
            return o;
        }
    };
    o.info("inputs_and_oracle_s", t_inputs.elapsed().as_secs_f64());

    let mut setup_times = Vec::new();
    let mut segs = Vec::with_capacity(segments as usize);
    for k in 0..segments {
        let range = k * per_segment..(k + 1) * per_segment;
        let closed = closed_secs / segments as f64;
        match segment(
            &inputs,
            &oracle,
            mode,
            rate,
            range,
            split,
            closed,
            &mut setup_times,
        ) {
            Ok(seg) => segs.push(seg),
            Err(e) => {
                o.problem(e);
                return o;
            }
        }
    }

    // ---- end-to-end figures ----
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let samples: Vec<Sample> = segs
        .iter()
        .flat_map(|g| g.samples.iter().copied())
        .collect();
    let closed_done: u64 = segs.iter().map(|g| g.completions.len() as u64).sum();
    for e in segs.iter().flat_map(|g| g.errors.iter()) {
        o.problem(e.clone());
    }
    o.attempted = samples.len() as u64 + closed_done;
    o.failed = samples.iter().filter(|s| !s.ok).count() as u64
        + segs.iter().map(|g| g.closed_failed).sum::<u64>();

    // latency by the window each request was due in, per segment, past
    // each segment's warm-up
    let mut lat_windows = Vec::new();
    let mut untraced = Vec::new();
    let mut rate_windows = Vec::new();
    for g in &segs {
        let measured: Vec<(f64, f64)> = g
            .samples
            .iter()
            .filter(|s| s.slot < split && s.slot - g.first >= warm_slots)
            .map(|s| ((s.due - g.t0).as_secs_f64() - WARMUP_S, ms(s.latency())))
            .collect();
        let span = (split.min(g.first + per_segment) - g.first).saturating_sub(warm_slots);
        lat_windows.extend(windows(&measured, LATENCY_WINDOW_S, span as f64 / rate));
        untraced.extend(measured.iter().map(|m| m.1));
        let done: Vec<(f64, f64)> = g.completions.iter().map(|&t| (t, 1.0)).collect();
        rate_windows.extend(windows(&done, RATE_WINDOW_S, closed_secs / segments as f64));
    }
    let lat = Summary::of(&untraced);
    let (p50, p90) = (
        windowed_quantile(&lat_windows, 0.5),
        windowed_quantile(&lat_windows, 0.9),
    );
    let late = Summary::of(&samples.iter().map(|s| ms(s.lateness())).collect::<Vec<_>>());
    let call = Summary::of(
        &samples
            .iter()
            .map(|s| ms(s.done - s.sent))
            .collect::<Vec<_>>(),
    );
    let ok_rate = (o.attempted - o.failed) as f64 / o.attempted.max(1) as f64;
    let ops_per_s = median(
        &rate_windows
            .iter()
            .map(|w| w.len() as f64 / RATE_WINDOW_S)
            .collect::<Vec<_>>(),
    );

    o.info("mode", format!("{mode:?}"));
    o.info("exec_policy", format!("{:?}", ExecPolicy::auto()));
    o.info("offered_rate_per_s", rate);
    o.info("segments", segments);
    o.info("open_loop_s", open_secs);
    o.info("closed_loop_s", closed_secs);
    o.info("connections", TENANTS);
    o.info("plans", inputs.plans.len());
    o.info("request_digest", format!("{:016x}", inputs.digest()));
    o.info("latency_samples", lat.n);
    o.info("latency_windows", lat_windows.len());
    o.info("pooled_p50_ms", lat.p50);
    o.info("pooled_p90_ms", lat.p90);
    o.info("p99_ms", lat.p99);
    if let Some((p, v)) = lat.tail {
        o.info("tail_percentile", p);
        o.info("tail_ms", v);
    }
    o.info("call_p50_ms", call.p50);
    o.info("call_p90_ms", call.p90);
    o.info("closed_loop_ops", closed_done);
    o.info("rate_windows", rate_windows.len());
    o.info("gen.late_p50_ms", late.p50);
    o.info("gen.late_p90_ms", late.p90);
    o.info("setup_samples", setup_times.len());

    if !traced {
        o.metrics = vec![
            metric("p50_ms", p50, "ms", lat.n),
            metric("p90_ms", p90, "ms", lat.n),
            metric("ops_per_s", ops_per_s, "1/s", closed_done as usize),
            metric("ok_rate", ok_rate, "ratio", o.attempted as usize),
            metric("setup_s", median(&setup_times), "s", setup_times.len()),
            metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB", 1),
        ];
        return o;
    }

    // ---- per-layer figures (traced run) ----
    let traced_samples: Vec<&Sample> = samples.iter().filter(|s| s.slot >= split).collect();
    let n_traced = traced_samples.len().max(1);
    let traced_lat = Summary::of(
        &traced_samples
            .iter()
            .map(|s| ms(s.latency()))
            .collect::<Vec<_>>(),
    );
    let mut tracer = Tracer::new(true);
    for s in &traced_samples {
        tracer.record("client.call", s.slot, s.sent, s.done);
    }
    let client_call_us = median(
        &traced_samples
            .iter()
            .map(|s| (s.done - s.sent).as_secs_f64() * 1e6)
            .collect::<Vec<_>>(),
    );
    let mut replay_reqs: Vec<(u64, Req)> = inputs
        .open
        .iter()
        .flatten()
        .filter(|(slot, _)| *slot >= split)
        .copied()
        .collect();
    replay_reqs.sort_by_key(|(slot, _)| *slot);

    let (served, rewrites) =
        replay_service(&inputs, &oracle, mode, &replay_reqs, &mut tracer, &mut o);
    let compiles = tracer.durations("transform.optimize").len();
    let stage_service_us = replay_stream(&inputs, mode, &replay_reqs, &mut tracer);

    if let Err(e) = tracer.validate() {
        o.problem(format!("trace rejected: {e}"));
    }
    let in_process_us = median(
        &tracer
            .durations("service.request")
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    if in_process_us > client_call_us {
        o.problem(format!(
            "trace rejected: in-process self times ({in_process_us:.1} us) exceed the client's latency ({client_call_us:.1} us)"
        ));
    }
    let workload = match mix {
        Mix::Hot => "wire_hot",
        Mix::Churn => "wire_churn",
    };
    if let Err(e) = tracer.write_out(workload) {
        o.problem(e);
    }

    let seg = &segs[0];
    let delta =
        |k: &str| json_sum(&seg.stats_after, k).saturating_sub(json_sum(&seg.stats_before, k));
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
    let requests = (hits + misses).max(1) as f64;
    let attempts = o.attempted.max(1) as f64;
    let per_req_codec = tracer
        .self_by_name()
        .get("net.frame_codec")
        .map_or(0.0, |&(_, t)| t as f64 / 1e3 / served.max(1) as f64);
    let depth_samples = &seg.depths;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    o.info("spans", tracer.spans().len());
    o.info("replayed_requests", served);
    o.info("client_call_p50_us", client_call_us);
    o.info("in_process_p50_us", in_process_us);
    o.metrics = vec![
        metric("net.frame_codec_us", per_req_codec, "us", served),
        metric(
            "net.unattributed_us",
            client_call_us - in_process_us,
            "us",
            served,
        ),
        metric(
            "net.queue_depth",
            mean(depth_samples),
            "count",
            depth_samples.len(),
        ),
        metric("net.shed", delta("shed") as f64 / attempts, "1/op", 0),
        metric(
            "net.rejected",
            delta("rejected") as f64 / attempts,
            "1/op",
            0,
        ),
        metric("net.errors", delta("errors") as f64 / attempts, "1/op", 0),
        metric(
            "transform.parse_us",
            tracer.mean_self_us("transform.parse"),
            "us",
            served,
        ),
        metric(
            "transform.optimize_us",
            tracer.mean_self_us("transform.optimize"),
            "us",
            compiles,
        ),
        metric(
            "transform.rewrites_per_plan",
            rewrites as f64 / compiles.max(1) as f64,
            "count",
            compiles,
        ),
        metric(
            "core.from_expr_us",
            tracer.mean_self_us("core.from_expr"),
            "us",
            served,
        ),
        metric(
            "core.fingerprint_us",
            tracer.mean_self_us("core.fingerprint"),
            "us",
            served,
        ),
        metric(
            "serve.submit_hit_us",
            tracer.mean_self_us("serve.submit_hit"),
            "us",
            tracer.durations("serve.submit_hit").len(),
        ),
        metric(
            "serve.submit_miss_us",
            tracer.mean_self_us("serve.submit_miss"),
            "us",
            tracer.durations("serve.submit_miss").len(),
        ),
        metric(
            "serve.step_us",
            tracer.mean_self_us("serve.step"),
            "us",
            tracer.durations("serve.step").len(),
        ),
        metric(
            "serve.hit_ratio",
            hits as f64 / requests,
            "ratio",
            requests as usize,
        ),
        metric("serve.hits", hits as f64, "count", 0),
        metric("serve.misses", misses as f64, "count", 0),
        metric(
            "serve.batch_size",
            requests / delta("batches").max(1) as f64,
            "count",
            delta("batches") as usize,
        ),
        metric(
            "serve.evictions_per_req",
            delta("evictions") as f64 / requests,
            "1/op",
            requests as usize,
        ),
        metric(
            "stream.build_ms",
            tracer.mean_self_us("stream.build") / 1e3,
            "ms",
            tracer.durations("stream.build").len(),
        ),
        metric(
            "stream.teardown_ms",
            tracer.mean_self_us("stream.teardown") / 1e3,
            "ms",
            tracer.durations("stream.teardown").len(),
        ),
        metric(
            "stream.push_us",
            tracer.mean_self_us("stream.push"),
            "us",
            served,
        ),
        metric(
            "stream.drain_us",
            tracer.mean_self_us("stream.drain"),
            "us",
            served,
        ),
        metric("stream.stage_service_us", stage_service_us, "us", served),
        metric(
            "alloc.count_per_op",
            seg.allocs.0 as f64 / n_traced as f64,
            "count",
            n_traced,
        ),
        metric(
            "alloc.bytes_per_op",
            seg.allocs.1 as f64 / n_traced as f64,
            "bytes",
            n_traced,
        ),
        metric(
            "trace.overhead_ratio",
            traced_lat.p50 / lat.p50,
            "ratio",
            traced_lat.n,
        ),
        metric("gen.late_p90_ms", late.p90, "ms", late.n),
    ];
    o
}

/// Replay requests in process through the calls the server's service
/// thread makes for each: request decode, parse, raise, submit, service
/// steps, reply encode (and the client's matching encode and decode).
/// Returns how many requests were served and the rewrites the optimizer
/// applied over all misses.
fn replay_service(
    inputs: &WireInputs,
    oracle: &Oracle,
    mode: Mode,
    reqs: &[(u64, Req)],
    tracer: &mut Tracer,
    o: &mut Outcome,
) -> (usize, usize) {
    let reg = registry();
    let cfg = server_config();
    let policy = ServePolicy::new(wire_machine())
        .with_exec(cfg.exec)
        .with_batch_window(cfg.batch_window)
        .with_plan_cache_cap(cfg.plan_cache_cap);
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(policy);
    let ids: Vec<TenantId> = cfg
        .tenants
        .iter()
        .map(|t| srv.add_tenant(&t.name))
        .collect();
    let mut sources: HashMap<u64, (Mode, String, String)> = HashMap::new();

    let submit = |srv: &mut Serve<ParArray<i64>, ParArray<i64>>,
                  tenant: TenantId,
                  key: &str,
                  plan: Skel<'static, ParArray<i64>, ParArray<i64>>,
                  input: ParArray<i64>| match mode {
        Mode::Plain => srv.submit_keyed_deadline(tenant, key, plan, input, None),
        Mode::Optimized => srv.submit_optimized_deadline(tenant, key, &plan, reg, input, None),
    };
    let raise = |source: &str| -> Skel<'static, ParArray<i64>, ParArray<i64>> {
        let expr = scl_transform::parse(source).expect("checked by the oracle");
        Skel::from_expr(&expr, reg).expect("checked by the oracle")
    };

    // set-up, untraced: register every plan by source, as the clients did
    for (conn, &id) in ids.iter().enumerate() {
        for req in inputs.setup_requests(conn) {
            let p = &inputs.plans[req.plan];
            let input = ParArray::from_parts(inputs.payloads[req.payload].clone());
            let ticket =
                submit(&mut srv, id, &p.key, raise(&p.source), input).expect("set-up submission");
            srv.run_until_idle();
            let _ = srv.outcome(ticket);
            sources.insert(
                plan_handle(mode, &p.key, &p.source),
                (mode, p.key.clone(), p.source.clone()),
            );
        }
    }

    let (mut served, mut rewrites) = (0, 0);
    for &(slot, req) in reqs {
        let p = &inputs.plans[req.plan];
        let payload = &inputs.payloads[req.payload];
        let handle = plan_handle(mode, &p.key, &p.source);

        // probes beside the request path, on the same op id
        let plan = raise(&p.source);
        let s = tracer.begin("core.fingerprint", slot);
        std::hint::black_box(plan.fingerprint());
        tracer.end(s);

        let root = tracer.begin("service.request", slot);
        let s = tracer.begin("net.frame_codec", slot);
        let frame = Request::SubmitHandle {
            tenant: p.tenant,
            handle,
            deadline_ms: 0,
            payload: payload.clone(),
        }
        .encode();
        let decoded = decode_request(&frame);
        tracer.end(s);
        let Some(Request::SubmitHandle {
            tenant,
            handle,
            payload,
            ..
        }) = decoded
        else {
            tracer.end(root);
            o.problem("request frame did not round-trip");
            continue;
        };
        let (_, key, source) = sources.get(&handle).cloned().expect("registered in set-up");
        let s = tracer.begin("transform.parse", slot);
        let expr = scl_transform::parse(&source).expect("checked by the oracle");
        tracer.end(s);
        let s = tracer.begin("core.from_expr", slot);
        let plan: Skel<'static, ParArray<i64>, ParArray<i64>> =
            Skel::from_expr(&expr, reg).expect("checked by the oracle");
        tracer.end(s);
        let input = ParArray::from_parts(payload);
        let hits = srv.stats().cache_hits;
        let s = tracer.begin("serve.submit", slot);
        let ticket = submit(&mut srv, ids[tenant as usize], &key, plan, input);
        let hit = srv.stats().cache_hits > hits;
        tracer.end_as(
            s,
            Some(if hit {
                "serve.submit_hit"
            } else {
                "serve.submit_miss"
            }),
        );
        while srv.pending_requests() > 0 {
            let s = tracer.begin("serve.step", slot);
            srv.step();
            tracer.end(s);
        }
        let outcome = ticket.ok().and_then(|t| srv.outcome(t));
        let s = tracer.begin("net.frame_codec", slot);
        let reply = match outcome {
            Some(Ok((out, report))) => Reply::Result {
                handle,
                payload: out.parts().to_vec(),
                report,
            }
            .encode(),
            _ => Vec::new(),
        };
        let decoded = decode_reply(&reply);
        tracer.end(s);
        tracer.end(root);

        match decoded {
            Some(Reply::Result {
                payload, report, ..
            }) => {
                if let Err(e) = oracle.check(req, &payload, &report) {
                    o.problem(format!("in-process replay: {e}"));
                }
            }
            _ => o.problem(format!("in-process replay of {req:?} failed")),
        }
        if mode == Mode::Optimized && !hit {
            // what the miss paid for lowering and rewriting
            let plan = raise(&p.source);
            let s = tracer.begin("transform.optimize", slot);
            if let Some(e) = plan.lower(reg) {
                rewrites += std::hint::black_box(scl_transform::optimize(e, reg))
                    .1
                    .len();
            }
            tracer.end(s);
        }
        served += 1;
    }
    (served, rewrites)
}

fn split_frame(frame: &[u8]) -> Option<(u8, &[u8])> {
    let header: &[u8; scl_core::wire::HEADER_LEN] =
        frame.get(..scl_core::wire::HEADER_LEN)?.try_into().ok()?;
    let h = FrameHeader::decode(header).ok()?;
    Some((h.kind, &frame[scl_core::wire::HEADER_LEN..]))
}

fn decode_request(frame: &[u8]) -> Option<Request> {
    let (kind, body) = split_frame(frame)?;
    Request::decode(kind, body).ok()
}

fn decode_reply(frame: &[u8]) -> Option<Reply> {
    let (kind, body) = split_frame(frame)?;
    Reply::decode(kind, body).ok()
}

/// Replay requests through bare `StreamExec` graphs, kept in an LRU of the
/// server's plan-cache capacity: build on a miss, tear down the evicted
/// graph, push and drain every request. Returns the farm stages' mean
/// per-item service time in microseconds.
fn replay_stream(inputs: &WireInputs, mode: Mode, reqs: &[(u64, Req)], tracer: &mut Tracer) -> f64 {
    type Exec = StreamExec<ParArray<i64>, ParArray<i64>>;
    let reg = registry();
    let optimized = mode == Mode::Optimized;
    let policy = || {
        StreamPolicy::new(wire_machine())
            .with_exec(ExecPolicy::auto())
            .with_fused_charging(optimized)
    };
    let compile = |source: &str| -> Skel<'static, ParArray<i64>, ParArray<i64>> {
        let expr = scl_transform::parse(source).expect("checked by the oracle");
        let expr = if optimized {
            scl_transform::optimize(expr, reg).0
        } else {
            expr
        };
        Skel::from_expr(&expr, reg).expect("checked by the oracle")
    };
    let mut busy = (0.0f64, 0u64); // (service seconds, items) over farm stages
    let mut account = |exec: &Exec| {
        for st in exec.stage_stats().into_iter().filter(|s| s.farm) {
            busy.0 += st.mean_service_secs * st.items as f64;
            busy.1 += st.items;
        }
    };
    let mut live: BTreeMap<usize, (Exec, usize)> = BTreeMap::new();
    for (tick, &(slot, req)) in reqs.iter().enumerate() {
        let root = tracer.begin("stream.request", slot);
        if let Entry::Vacant(slot_for_plan) = live.entry(req.plan) {
            let plan = compile(&inputs.plans[req.plan].source);
            let s = tracer.begin("stream.build", slot);
            let exec = Exec::new(plan, policy());
            tracer.end(s);
            slot_for_plan.insert((exec, tick));
            if live.len() > PLAN_CACHE_CAP {
                let victim = live
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| *k)
                    .expect("cache is over capacity");
                let (exec, _) = live.remove(&victim).expect("listed above");
                account(&exec);
                let s = tracer.begin("stream.teardown", slot);
                drop(exec);
                tracer.end(s);
            }
        }
        let (exec, used) = live.get_mut(&req.plan).expect("built above");
        *used = tick;
        let input = ParArray::from_parts(inputs.payloads[req.payload].clone());
        let s = tracer.begin("stream.push", slot);
        exec.push(input).expect("payload fits the machine");
        tracer.end(s);
        let s = tracer.begin("stream.drain", slot);
        std::hint::black_box(exec.drain_outcomes());
        tracer.end(s);
        tracer.end(root);
    }
    for (_, (exec, _)) in std::mem::take(&mut live) {
        account(&exec);
    }
    if busy.1 == 0 {
        0.0
    } else {
        busy.0 / busy.1 as f64 * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_a_stall_against_later_requests() {
        // 200 requests/s, one connection; the server stalls 60 ms on the
        // fifth request. The requests due during the stall are sent late,
        // and their latency from the due time shows it.
        let reqs: Vec<(u64, Req)> = (0..24)
            .map(|s| {
                (
                    s,
                    Req {
                        plan: 0,
                        payload: 0,
                    },
                )
            })
            .collect();
        let t0 = Instant::now();
        let samples = open_loop(t0, 200.0, &reqs, |slot, _| {
            if slot == 4 {
                std::thread::sleep(Duration::from_millis(60));
            }
            true
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        assert!(ms(samples[4].latency()) >= 60.0);
        // slot 5 was due 5 ms after slot 4 but could only go out after
        // the stall: at least 55 ms of lateness, all of it latency
        assert!(ms(samples[5].lateness()) >= 50.0, "{:?}", samples[5]);
        assert!(ms(samples[5].latency()) >= 50.0);
        // a closed-loop view (send to reply) would have hidden it
        assert!(ms(samples[5].done - samples[5].sent) < 20.0);
        // the schedule recovers once the backlog clears (slot 23 is due
        // 115 ms in, after the stall's backlog has gone out)
        assert!(ms(samples[23].latency()) < 20.0);
    }

    #[test]
    fn stats_sums_add_every_tenant() {
        let json = "{\"serve\": {\"cache_hits\": 7}, \"tenants\": [{\"shed\": 2}, {\"shed\": 3}]}";
        assert_eq!(json_sum(json, "cache_hits"), 7);
        assert_eq!(json_sum(json, "shed"), 5);
        assert_eq!(json_sum(json, "errors"), 0);
    }
}
