#![warn(missing_docs)]
//! # scl-stream — a streaming skeleton runtime
//!
//! Everything else in the workspace executes **one input through one plan
//! and returns**: [`Skel::run`] eagerly, `Scl::run_fused`
//! partition-resident. But the paper's pipeline and farm skeletons are
//! fundamentally *stream* operators — FastFlow-style runtimes deploy them
//! as persistent graphs of stages over bounded queues, and behavioural
//! skeletons add autonomic adaptation of the parallelism degree. This
//! crate brings both to the reproduction: it **compiles a `Skel<A, B>`
//! plan into a persistent operator graph** and serves an unbounded stream
//! of inputs through it.
//!
//! ## The operator graph
//!
//! [`Skel::into_stream_ops`] decomposes a fusable plan into maximal fused
//! compute segments separated by barriers, and [`StreamExec::new`] turns
//! that list into a graph:
//!
//! * each **segment** becomes a long-lived **farm stage**: `N` replica
//!   workers on a persistent `scl-exec` pool, each with a private input
//!   and output ring. Segments are pure and part-local (`Fn + Send + Sync`),
//!   so replicas process *different stream items* concurrently; a reorder
//!   buffer restores stream order on collection (emitter / N replicas /
//!   **order-preserving** collector);
//! * each **barrier** (communication skeletons, scans, repartitioning,
//!   `iter_until` loops — anything stateful or whole-configuration)
//!   becomes a **stage boundary** executed serially, in stream order, on
//!   the pumping thread;
//! * stages are linked by **bounded lock-free SPSC rings**
//!   ([`scl_exec::ring`]), FastFlow-style: the pumping thread owns one
//!   ring into and one ring out of each replica and routes round-robin
//!   over the replicas the width gate admits. Each lane holds
//!   `max(1, capacity / width)` items, so backpressure propagates all the
//!   way to [`StreamExec::push`] and in-flight memory stays
//!   **O(max(capacity, width) × stages)** regardless of stream length.
//!
//! Plans with a stage that has no fused form fall back to per-item eager
//! execution (same answers, no pipeline overlap).
//!
//! ## Per-item charging
//!
//! Every stream item carries its **own** simulated-machine context,
//! cloned from the template in [`StreamPolicy`]: segment stages charge it
//! per part per stage exactly as the eager layer would
//! ([`SegmentOp::apply`]), and barriers run the very same closures the
//! eager path runs. Collecting [`StreamExec::run_stream`] over N inputs
//! therefore equals N eager [`Skel::run`] calls bit-for-bit, with
//! identical per-item [`MachineReport`]s (under `MeasureMode::None` /
//! costed stages — wall-clock measured charges are inherently
//! non-deterministic). The differential suite `tests/stream_vs_eager.rs`
//! holds this under sequential, threaded, and cost-driven policies.
//!
//! ## Autonomic degree control
//!
//! Each farm stage carries a width gate (`active` replicas out of
//! `max_width` spawned). A lightweight controller samples every stage's
//! queue depth and service time each *tick* (every
//! [`StreamPolicy::with_tick_items`] completions) and widens a backlogged
//! stage / narrows an underutilised one, within bounds derived from the
//! [`ExecPolicy`] thread cap and — under `ExecPolicy::CostDriven` — the
//! machine's `CostModel::fused_decision`. The pump routes nothing to
//! replicas beyond the gate, which drain their rings and park, so
//! adaptation never spawns or joins threads.
//!
//! ## Serving integration
//!
//! Two hooks exist for a layer above (the `scl-serve` multi-tenant
//! service) that manages *many* graphs against one host:
//!
//! * **External width control** — [`StreamExec::set_width_cap`] clamps
//!   every farm at a share of a host-wide thread budget
//!   ([`scl_exec::ThreadBudget`]). The cap composes with the
//!   policy/cost-model ceiling and with the autonomic controller (which
//!   keeps adapting *within* it); replicas beyond the cap get no new
//!   items and park in their rings, so a scheduler can re-shard capacity between tenants
//!   every round without spawning or joining threads.
//! * **Fused-style charging** — [`StreamPolicy::with_fused_charging`]
//!   makes segments charge one summed `"fused"` compute event per part
//!   ([`SegmentOp::apply_summed`]) instead of replaying eager per-stage
//!   charges, so per-item reports equal solo
//!   [`Scl::run_fused`](scl_core::Scl::run_fused) /
//!   [`Scl::run_optimized`](scl_core::Scl::run_optimized) calls — what a
//!   service needs when it compiles *optimized* plans into its cache.
//!
//! ```
//! use scl_core::prelude::*;
//! use scl_stream::{StreamExec, StreamPolicy};
//!
//! // square then rotate: one farm stage, one barrier boundary
//! let plan = Skel::map(|x: &i64| x * x).then(Skel::rotate(1));
//! let policy = StreamPolicy::new(Machine::ap1000(4)).with_exec(ExecPolicy::Threads(2));
//! let exec = StreamExec::new(plan, policy);
//!
//! let inputs = (0..100).map(|k| ParArray::from_parts(vec![k, k + 1, k + 2, k + 3]));
//! let outputs: Vec<_> = exec.run_stream(inputs).collect();
//! assert_eq!(outputs.len(), 100);
//! assert_eq!(outputs[0].to_vec(), vec![1, 4, 9, 0]); // squared, rotated by 1
//! ```
//!
//! [`Skel::run`]: scl_core::Skel::run
//! [`Skel::into_stream_ops`]: scl_core::Skel::into_stream_ops
//! [`SegmentOp::apply`]: scl_core::SegmentOp::apply
//! [`SegmentOp::apply_summed`]: scl_core::SegmentOp::apply_summed

use scl_core::{panic_message, ErasedArr, FusePort, RequestError, Scl, SclError, Skel};
use scl_exec::ExecPolicy;
use scl_machine::{Machine, MachineReport, Throughput};
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

mod graph;

use graph::Graph;

/// How a [`StreamExec`] serves a plan: the machine template each item's
/// context is cloned from, the execution policy bounding farm widths, the
/// channel capacity (backpressure bound), and the autonomic controller's
/// settings.
pub struct StreamPolicy {
    machine: Machine,
    exec: ExecPolicy,
    capacity: usize,
    tick_items: u64,
    adaptive: bool,
    fused_charging: bool,
}

impl StreamPolicy {
    /// Defaults: [`ExecPolicy::auto`] farm widths, capacity-8 channels,
    /// adaptive width control ticking every 32 completions, eager-style
    /// per-stage charging.
    pub fn new(machine: Machine) -> StreamPolicy {
        StreamPolicy {
            machine,
            exec: ExecPolicy::auto(),
            capacity: 8,
            tick_items: 32,
            adaptive: true,
            fused_charging: false,
        }
    }

    /// Set the execution policy. `Sequential` (or a 1-thread cap) runs the
    /// whole graph inline on the pumping thread — zero worker threads,
    /// fully deterministic scheduling; `Threads(t)` caps every farm at `t`
    /// replicas; `CostDriven` additionally lets the machine's cost model
    /// refine each stage's ceiling from the first item's payload.
    pub fn with_exec(mut self, exec: ExecPolicy) -> StreamPolicy {
        self.exec = exec;
        self
    }

    /// Set the per-link capacity (≥ 1): the backpressure bound. A farm of
    /// width `w` splits it into `w` lanes of `max(1, capacity / w)` items
    /// each way. Peak in-flight items are O(max(capacity, w) × stages).
    pub fn with_capacity(mut self, capacity: usize) -> StreamPolicy {
        self.capacity = capacity.max(1);
        self
    }

    /// Set how many completions pass between autonomic controller ticks.
    pub fn with_tick_items(mut self, tick_items: u64) -> StreamPolicy {
        self.tick_items = tick_items.max(1);
        self
    }

    /// Enable/disable autonomic width control. Disabled, every farm runs
    /// at its maximum width from the start.
    pub fn with_adaptive(mut self, adaptive: bool) -> StreamPolicy {
        self.adaptive = adaptive;
        self
    }

    /// Charge fused compute segments **fused-style** — one summed
    /// `"fused"` compute event per part per segment
    /// ([`SegmentOp::apply_summed`](scl_core::SegmentOp::apply_summed)) —
    /// instead of replaying the eager per-stage charges. Same work totals
    /// and makespan; choose this when per-item reports must agree with
    /// solo [`Scl::run_fused`](scl_core::Scl::run_fused) /
    /// [`Scl::run_optimized`](scl_core::Scl::run_optimized) calls rather
    /// than solo eager runs, as `scl-serve` does for its optimized
    /// submissions.
    pub fn with_fused_charging(mut self, fused_charging: bool) -> StreamPolicy {
        self.fused_charging = fused_charging;
        self
    }
}

/// One stream item in flight: its position in the stream, its private
/// simulated-machine context, an optional absolute deadline, and its
/// payload — or the typed [`RequestError`] that poisoned it (resolved on
/// the caller when the item completes).
struct Envelope {
    seq: u64,
    scl: Scl,
    /// Absolute deadline: once passed, every remaining stage
    /// short-circuits the item as [`RequestError::DeadlineExceeded`]
    /// instead of occupying a replica.
    deadline: Option<Instant>,
    payload: Result<ErasedArr, RequestError>,
}

/// What one stream item resolved to: its output and per-item machine
/// report, or the typed reason it failed.
pub type StreamOutcome<B> = Result<(B, MachineReport), RequestError>;

/// Per-farm counters the replicas update and the controller samples.
#[derive(Default)]
struct FarmStats {
    busy_nanos: AtomicU64,
    items: AtomicU64,
}

/// A snapshot of one graph stage, from [`StreamExec::stage_stats`].
#[derive(Debug, Clone)]
pub struct StageStat {
    /// Stage label: segment stage names joined with `+`, or the barrier
    /// chain's names.
    pub label: String,
    /// True for a farm (segment) stage, false for a barrier boundary.
    pub farm: bool,
    /// Currently active replicas (1 for barriers and inline stages).
    pub width: usize,
    /// Replica ceiling (spawned workers).
    pub max_width: usize,
    /// Input-queue depth right now (0 for barriers).
    pub queue_depth: usize,
    /// Items this stage has processed.
    pub items: u64,
    /// Mean per-item service time observed on this stage, in seconds.
    pub mean_service_secs: f64,
}

#[allow(clippy::large_enum_variant)] // one Mode per StreamExec, not per item
enum Mode<A, B> {
    /// Unfusable plan: per-item eager execution on the pumping thread.
    Eager(Skel<'static, A, B>),
    /// The persistent operator graph.
    Graph(Graph),
}

/// A running streaming service for one plan — see the [crate docs](self).
///
/// Feed it with [`StreamExec::push`] / collect with [`StreamExec::pop`] or
/// [`StreamExec::drain`], or hand it an iterator with
/// [`StreamExec::run_stream`]. Outputs always come back in input order.
pub struct StreamExec<A: FusePort, B: FusePort> {
    mode: Mode<A, B>,
    machine: Machine,
    exec: ExecPolicy,
    tick_items: u64,
    adaptive: bool,
    next_seq: u64,
    completed: u64,
    first_item: bool,
    started: Option<Instant>,
    peak_in_flight: u64,
    last_tick: u64,
    /// Completed items in stream order: each slot is the item's output
    /// and report, or the typed error that poisoned it. The legacy pop
    /// APIs re-raise errors as panics; the `*_outcome` APIs hand them out
    /// as values.
    done: VecDeque<StreamOutcome<B>>,
}

/// Pause between fruitless pump rounds while blocked in `push`/`pop`.
const IDLE_BACKOFF: Duration = Duration::from_micros(50);

impl<A, B> StreamExec<A, B>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
{
    /// Compile `plan` into a persistent operator graph served under
    /// `policy`. Unfusable plans fall back to per-item eager execution
    /// (same answers, no overlap). Farm workers spawn here and live until
    /// the `StreamExec` drops.
    pub fn new(plan: Skel<'static, A, B>, policy: StreamPolicy) -> StreamExec<A, B> {
        let StreamPolicy {
            machine,
            exec,
            capacity,
            tick_items,
            adaptive,
            fused_charging,
        } = policy;
        let mode = match plan.into_stream_ops() {
            Err(plan) => Mode::Eager(plan),
            Ok(ops) => Mode::Graph(Graph::build(ops, capacity, exec, adaptive, fused_charging)),
        };
        StreamExec {
            mode,
            machine,
            exec,
            tick_items,
            adaptive,
            next_seq: 0,
            completed: 0,
            first_item: true,
            started: None,
            peak_in_flight: 0,
            last_tick: 0,
            done: VecDeque::new(),
        }
    }

    /// Items accepted but not yet completed — the graph's memory
    /// pressure. Capped by the link capacities, never by the stream
    /// length.
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.completed
    }

    /// High-water mark of [`StreamExec::in_flight`] over the whole run —
    /// the gauge the backpressure tests assert on.
    pub fn peak_in_flight(&self) -> u64 {
        self.peak_in_flight
    }

    /// Completed items over elapsed host time since the first push.
    pub fn throughput(&self) -> Throughput {
        Throughput {
            items: self.completed,
            secs: self.started.map_or(0.0, |t| t.elapsed().as_secs_f64()),
        }
    }

    /// Number of farm stages in the graph (0 for eager fallback and for
    /// inline/sequential service).
    pub fn farm_stages(&self) -> usize {
        match &self.mode {
            Mode::Eager(_) => 0,
            Mode::Graph(g) => g.farms.len(),
        }
    }

    /// A snapshot of every graph stage, in pipeline order.
    pub fn stage_stats(&self) -> Vec<StageStat> {
        match &self.mode {
            Mode::Eager(_) => Vec::new(),
            Mode::Graph(g) => g.stage_stats(),
        }
    }

    /// Clamp every farm stage at `cap` active replicas (≥ 1) — the
    /// external width control a shard scheduler drives when this graph's
    /// share of a host-wide thread budget changes
    /// ([`scl_exec::ThreadBudget`]). Composes with the policy/cost-model
    /// ceiling (the effective ceiling is the minimum); widening again
    /// restores headroom without forcing replicas active. Replicas beyond
    /// the cap get no new items and park in their rings — no threads
    /// spawn or join. A
    /// no-op for eager-fallback executors (no farms to cap).
    pub fn set_width_cap(&mut self, cap: usize) {
        if let Mode::Graph(g) = &mut self.mode {
            g.set_width_cap(cap);
        }
    }

    /// The external width cap last set with [`StreamExec::set_width_cap`]
    /// (`usize::MAX` when unset or serving eagerly).
    pub fn width_cap(&self) -> usize {
        match &self.mode {
            Mode::Eager(_) => usize::MAX,
            Mode::Graph(g) => g.width_cap(),
        }
    }

    /// Feed one item into the graph, blocking (and pumping the graph)
    /// while the entry channel is full — this is where backpressure
    /// reaches the producer. Fails fast with
    /// [`SclError::MachineTooSmall`] when the item spans more parts than
    /// the machine template has processors.
    pub fn push(&mut self, item: A) -> Result<(), SclError> {
        self.push_deadline(item, None)
    }

    /// [`StreamExec::push`] with an absolute deadline attached to the
    /// item. Once the deadline passes, every stage the item has not yet
    /// reached short-circuits it as [`RequestError::DeadlineExceeded`]
    /// instead of running — the item still completes (in stream order) so
    /// the caller gets a typed failure, but it stops occupying replicas.
    /// `None` streams the item with no deadline, exactly like `push`.
    pub fn push_deadline(&mut self, item: A, deadline: Option<Instant>) -> Result<(), SclError> {
        self.started.get_or_insert_with(Instant::now);
        match &mut self.mode {
            Mode::Eager(plan) => {
                // same entry contract as the graph path: reject oversized
                // items as an Err, not a panic inside the eager layer
                if item.parts_len() > self.machine.nprocs() {
                    return Err(SclError::MachineTooSmall {
                        needed: item.parts_len(),
                        procs: self.machine.nprocs(),
                    });
                }
                self.next_seq += 1;
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    self.done.push_back(Err(RequestError::DeadlineExceeded));
                } else {
                    let mut scl = Scl::new(self.machine.clone()).with_policy(self.exec);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        plan.run(&mut scl, item)
                    }))
                    .map(|out| (out, scl.machine.report()))
                    .map_err(|p| RequestError::Panicked {
                        message: panic_message(&*p).to_string(),
                    });
                    self.done.push_back(outcome);
                }
                self.completed += 1;
                self.peak_in_flight = self.peak_in_flight.max(1);
                Ok(())
            }
            Mode::Graph(_) => {
                let env = self.make_env(item, deadline)?;
                let Mode::Graph(g) = &mut self.mode else {
                    unreachable!()
                };
                if std::mem::take(&mut self.first_item) {
                    g.calibrate(&env, &self.machine);
                }
                g.offer(env);
                self.peak_in_flight = self.peak_in_flight.max(self.in_flight());
                self.service();
                // wait until the graph swallowed the item off the ingress
                // slot — that is the push-side backpressure point
                loop {
                    let Mode::Graph(g) = &mut self.mode else {
                        unreachable!()
                    };
                    if g.ingress.is_none() {
                        return Ok(());
                    }
                    std::thread::sleep(IDLE_BACKOFF);
                    self.service();
                }
            }
        }
    }

    /// Next completed item in stream order — output and report, or the
    /// typed [`RequestError`] that poisoned it — without blocking. `None`
    /// when nothing is ready. This is the non-unwinding collection API a
    /// serving layer uses: failure arrives as a value, never a panic.
    pub fn try_pop_outcome(&mut self) -> Option<StreamOutcome<B>> {
        if self.done.is_empty() {
            self.service();
        }
        self.done.pop_front()
    }

    /// Next completed item in stream order as a value, pumping the graph
    /// until one is ready. `None` only when nothing is in flight.
    pub fn pop_outcome(&mut self) -> Option<StreamOutcome<B>> {
        loop {
            if let Some(out) = self.try_pop_outcome() {
                return Some(out);
            }
            if self.in_flight() == 0 {
                return None;
            }
            std::thread::sleep(IDLE_BACKOFF);
        }
    }

    /// Complete everything in flight and return it as values, in stream
    /// order: one [`StreamOutcome`] per item, failures included.
    pub fn drain_outcomes(&mut self) -> Vec<StreamOutcome<B>> {
        let mut out = Vec::new();
        while let Some(x) = self.pop_outcome() {
            out.push(x);
        }
        out
    }

    /// Next completed output in stream order, with the item's simulated
    /// machine report, without blocking. `None` when nothing is ready.
    ///
    /// A poisoned item re-raises its panic here (not in [`StreamExec::push`],
    /// which only ever reports backpressure): the panic fires on the
    /// collecting thread when the failed item's turn in stream order
    /// comes up, rendered from its typed [`RequestError`]. A caller that
    /// catches it can keep popping — the in-flight gauge stayed
    /// consistent, so the rest of the stream drains normally. Collect
    /// with [`StreamExec::try_pop_outcome`] instead to receive the error
    /// as a value.
    pub fn try_pop_with_report(&mut self) -> Option<(B, MachineReport)> {
        match self.try_pop_outcome()? {
            Ok(out) => Some(out),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`StreamExec::try_pop_with_report`] discarding the report.
    pub fn try_pop(&mut self) -> Option<B> {
        self.try_pop_with_report().map(|(b, _)| b)
    }

    /// Next completed output in stream order, pumping the graph until one
    /// is ready. `None` only when nothing is in flight.
    pub fn pop_with_report(&mut self) -> Option<(B, MachineReport)> {
        loop {
            if let Some(out) = self.try_pop_with_report() {
                return Some(out);
            }
            if self.in_flight() == 0 {
                return None;
            }
            std::thread::sleep(IDLE_BACKOFF);
        }
    }

    /// [`StreamExec::pop_with_report`] discarding the report.
    pub fn pop(&mut self) -> Option<B> {
        self.pop_with_report().map(|(b, _)| b)
    }

    /// Complete everything in flight and return it, in stream order, with
    /// per-item machine reports.
    pub fn drain_with_reports(&mut self) -> Vec<(B, MachineReport)> {
        let mut out = Vec::new();
        while let Some(x) = self.pop_with_report() {
            out.push(x);
        }
        out
    }

    /// Complete everything in flight and return it, in stream order.
    pub fn drain(&mut self) -> Vec<B> {
        self.drain_with_reports()
            .into_iter()
            .map(|(b, _)| b)
            .collect()
    }

    /// Serve a whole input stream: a pull-based adaptor that pushes from
    /// `input` as the consumer pulls, keeping the graph full (and the
    /// memory bounded) without ever buffering the stream. Outputs come
    /// back in input order.
    pub fn run_stream<I>(self, input: I) -> StreamIter<A, B, I::IntoIter>
    where
        I: IntoIterator<Item = A>,
    {
        StreamIter {
            exec: self,
            input: input.into_iter(),
            exhausted: false,
        }
    }

    // ---- internals ---------------------------------------------------------

    /// Wrap an input into an envelope with its own fresh machine context.
    /// Per-item contexts run host-sequential — the stream's parallelism
    /// comes from the graph's farm replicas and pipeline overlap, not
    /// from intra-item thread fan-out.
    fn make_env(&mut self, item: A, deadline: Option<Instant>) -> Result<Envelope, SclError> {
        if item.parts_len() > self.machine.nprocs() {
            return Err(SclError::MachineTooSmall {
                needed: item.parts_len(),
                procs: self.machine.nprocs(),
            });
        }
        let scl = Scl::new(self.machine.clone());
        let seq = self.next_seq;
        self.next_seq += 1;
        // an already-expired item never touches a stage: it enters the
        // graph pre-poisoned and flows straight through to completion
        let payload = if deadline.is_some_and(|d| Instant::now() >= d) {
            Err(RequestError::DeadlineExceeded)
        } else {
            Ok(item.erase())
        };
        Ok(Envelope {
            seq,
            scl,
            deadline,
            payload,
        })
    }

    /// One service round: pump the graph, harvest completions into
    /// `done`, run the autonomic controller when a tick has elapsed.
    ///
    /// A poisoned item is fully accounted here (so the in-flight gauge
    /// stays consistent) and its typed error takes the item's slot in the
    /// `done` queue; the legacy pop side re-raises it, the outcome APIs
    /// hand it out as a value. Keeping the re-raise out of the service
    /// round means `push` can never blow up under a producer's feet just
    /// because the ring links completed a doomed item early.
    fn service(&mut self) {
        let Mode::Graph(g) = &mut self.mode else {
            return;
        };
        g.pump();
        let mut finished = Vec::new();
        while let Some(env) = g.completed.pop_front() {
            finished.push(env);
        }
        for env in finished {
            self.completed += 1;
            let outcome = env
                .payload
                .map(|val| (B::restore(val), env.scl.machine.report()));
            self.done.push_back(outcome);
        }
        if self.adaptive && self.completed - self.last_tick >= self.tick_items {
            self.last_tick = self.completed;
            if let Mode::Graph(g) = &mut self.mode {
                g.tick_controller();
            }
        }
    }
}

/// The pull-based stream adaptor returned by [`StreamExec::run_stream`].
pub struct StreamIter<A: FusePort, B: FusePort, I> {
    exec: StreamExec<A, B>,
    input: I,
    exhausted: bool,
}

impl<A, B, I> StreamIter<A, B, I>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
{
    /// The underlying executor, e.g. to read gauges mid-stream.
    pub fn executor(&self) -> &StreamExec<A, B> {
        &self.exec
    }

    /// Stop streaming and recover the executor (remaining in-flight items
    /// can still be drained from it).
    pub fn into_executor(self) -> StreamExec<A, B> {
        self.exec
    }
}

impl<A, B, I> Iterator for StreamIter<A, B, I>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
    I: Iterator<Item = A>,
{
    type Item = B;

    fn next(&mut self) -> Option<B> {
        loop {
            if let Some(b) = self.exec.try_pop() {
                return Some(b);
            }
            if self.exhausted {
                return self.exec.pop();
            }
            match self.input.next() {
                Some(item) => self
                    .exec
                    .push(item)
                    .unwrap_or_else(|e| panic!("stream input rejected: {e}")),
                None => self.exhausted = true,
            }
        }
    }
}

#[cfg(test)]
mod tests;
