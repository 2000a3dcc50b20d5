//! The persistent operator graph behind [`StreamExec`](crate::StreamExec):
//! farm stages (segment replicas over private SPSC rings) linked by pump-side
//! hops (barrier chains), plus the pump loop and the autonomic width
//! controller.
//!
//! Threading model: farm replicas are the only worker threads; everything
//! else — barrier execution, reordering, relaying between stages,
//! completion — happens on the *pumping* thread (whoever calls
//! `push`/`pop`/`drain`). That keeps the stateful pieces (`FnMut` barrier
//! closures, possibly `Rc`-shared with the plan's eager path) on a single
//! thread with no synchronisation, while the pure segments overlap across
//! items.

use crate::{Envelope, FarmStats, StageStat};
use scl_core::{panic_message, BarrierOp, BranchOp, ErasedArr, PlanOp, RequestError, SegmentOp};
use scl_exec::{ring, ExecPolicy, SpscReceiver, SpscSender, ThreadPool, TryRecv};
use scl_machine::Machine;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// An operator the pump executes inline while relaying an item across a
/// stage boundary.
enum PumpOp {
    /// A fusion barrier: stateful, runs in stream order.
    Barrier(BarrierOp<'static>),
    /// A fused segment under a 1-thread policy: the whole graph degrades
    /// to synchronous inline execution with zero worker threads.
    Inline(Arc<SegmentOp<'static>>),
    /// A plan-DAG branch whose shape resists the pipelined split
    /// (choice arms, arms with internal barriers): the pump runs the
    /// whole branch inline — split/decide, arm chains, join — exactly as
    /// [`BranchOp::try_apply`] defines it.
    Branch(Box<BranchOp<'static>>),
}

impl PumpOp {
    fn label(&self) -> String {
        match self {
            PumpOp::Barrier(b) => b.label().to_string(),
            PumpOp::Inline(seg) => seg.label(),
            PumpOp::Branch(b) => b.display_label(),
        }
    }
}

/// Pump-thread service counters for one hop operator (no atomics needed:
/// only the pump touches them).
#[derive(Default)]
struct OpStat {
    items: u64,
    busy_nanos: u64,
}

/// The relay between two farm stages (or stream entry/exit): the barrier
/// chain applied while an item crosses — each operator with its own
/// service counters — plus a one-item park slot for when the downstream
/// queue is momentarily full.
#[derive(Default)]
struct Hop {
    ops: Vec<(PumpOp, OpStat)>,
    pending: Option<Envelope>,
}

impl Hop {
    fn new() -> Hop {
        Hop::default()
    }

    fn push_op(&mut self, op: PumpOp) {
        self.ops.push((op, OpStat::default()));
    }
}

/// One farm stage: a fused compute segment replicated across workers,
/// with the pump-side reorder buffer that restores stream order.
///
/// Links are FastFlow's emitter → worker → collector over plain SPSC
/// rings: replica `r` owns the receiving end of `in_txs[r]` and the
/// sending end of `out_rxs[r]`, so its `recv → process → send` loop takes
/// no lock. The pump holds the other ends and routes round-robin over the
/// first `active` lanes: a narrowed-off replica just stops receiving new
/// items, drains its own ring, and parks in `recv` for free.
pub(crate) struct Farm {
    label: String,
    seg: Arc<SegmentOp<'static>>,
    /// Replica `r` → pump. Declared before `in_txs` so a dropping farm
    /// closes the outputs first: a replica then fails its next send and
    /// exits instead of draining its whole input ring.
    out_rxs: Vec<SpscReceiver<Envelope>>,
    /// Pump → replica `r`.
    in_txs: Vec<SpscSender<Envelope>>,
    /// The replicas' lane ends, moved out by [`Farm::spawn`].
    worker_links: Vec<(SpscReceiver<Envelope>, SpscSender<Envelope>)>,
    /// Lane the pump's round-robin tries first.
    cursor: usize,
    /// Items one lane holds: `max(1, capacity / spawned)`.
    lane_cap: usize,
    /// Cap on admitted-minus-released stream positions; see
    /// [`Graph::accept`].
    window: u64,
    /// Replicas currently routed to (the autonomic width gate). Only the
    /// pumping thread reads or writes it.
    active: usize,
    /// Current ceiling for `active` (≤ `spawned`): the policy/cost-model
    /// ceiling clamped by the graph's external width cap.
    max_width: usize,
    /// The policy-side ceiling alone (exec policy cap, possibly lowered by
    /// the cost model at calibration) — kept so an external cap change can
    /// recompute `max_width` without re-calibrating.
    policy_cap: usize,
    /// Workers actually spawned — the hard ceiling.
    spawned: usize,
    stats: Arc<FarmStats>,
    /// Completed-but-out-of-order items, keyed by stream position.
    reorder: BTreeMap<u64, Envelope>,
    /// Next stream position to release downstream.
    expect: u64,
    // controller sampling state
    last_busy: u64,
    last_tick: Instant,
}

impl Farm {
    fn new(
        seg: Arc<SegmentOp<'static>>,
        capacity: usize,
        width_cap: usize,
        adaptive: bool,
    ) -> Farm {
        let lane_cap = (capacity / width_cap).max(1);
        let (in_txs, in_rxs): (Vec<_>, Vec<_>) = (0..width_cap).map(|_| ring(lane_cap)).unzip();
        let (out_txs, out_rxs): (Vec<_>, Vec<_>) = (0..width_cap).map(|_| ring(lane_cap)).unzip();
        Farm {
            label: seg.label(),
            seg,
            out_rxs,
            in_txs,
            worker_links: in_rxs.into_iter().zip(out_txs).collect(),
            cursor: 0,
            lane_cap,
            // static buffer space: in + out + one item in hand per replica
            window: (2 * capacity + width_cap) as u64,
            active: if adaptive { 1 } else { width_cap },
            max_width: width_cap,
            policy_cap: width_cap,
            spawned: width_cap,
            stats: Arc::new(FarmStats::default()),
            reorder: BTreeMap::new(),
            expect: 0,
            last_busy: 0,
            last_tick: Instant::now(),
        }
    }

    /// Spawn this farm's replicas: each claims envelopes off its input
    /// ring, runs the segment against the item's own machine context
    /// (charging it eager-style), and emits downstream — blocking there
    /// when full, so backpressure reaches the replicas too. A panicking
    /// stage poisons the envelope with a typed [`RequestError`] instead of
    /// killing the worker; an item whose deadline already passed
    /// short-circuits as [`RequestError::DeadlineExceeded`] without
    /// occupying the replica. A replica exits once its input closes and
    /// drains, or its output closes under it (the graph is dropping).
    fn spawn(&mut self, pool: &ThreadPool, summed: bool) {
        let seg = Arc::clone(&self.seg);
        let stats = Arc::clone(&self.stats);
        let process = Arc::new(move |env: Envelope| -> Envelope {
            let t0 = Instant::now();
            let Envelope {
                seq,
                mut scl,
                deadline,
                payload,
            } = env;
            let payload = match payload {
                Ok(_) if deadline.is_some_and(|d| Instant::now() >= d) => {
                    Err(RequestError::DeadlineExceeded)
                }
                Ok(val) => {
                    if summed {
                        seg.try_apply_summed(&mut scl, val)
                    } else {
                        seg.try_apply(&mut scl, val)
                    }
                }
                poisoned => poisoned,
            };
            stats
                .busy_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            stats.items.fetch_add(1, Ordering::Relaxed);
            Envelope {
                seq,
                scl,
                deadline,
                payload,
            }
        });
        // handles dropped: replicas never panic (they poison instead),
        // and the pool joins the threads on shutdown
        for (rx, tx) in std::mem::take(&mut self.worker_links) {
            let process = Arc::clone(&process);
            drop(pool.submit(move || {
                while let Some(env) = rx.recv() {
                    if tx.send(process(env)).is_err() {
                        break;
                    }
                }
            }));
        }
    }

    /// Items queued toward the replicas right now (racy gauge).
    fn in_depth(&self) -> usize {
        self.in_txs.iter().map(SpscSender::len).sum()
    }

    /// Input capacity the pump can currently route into: only the
    /// admitted lanes count. The controller's widen threshold is relative
    /// to this, so a narrow farm still detects backlog when its few
    /// admitted lanes fill up.
    fn in_routable_capacity(&self) -> usize {
        self.lane_cap * self.active.min(self.spawned)
    }

    /// Round-robin `env` over the first `active` lanes, starting at the
    /// cursor. `Err` hands it back when every admitted lane is full (or
    /// closed).
    #[allow(clippy::result_large_err)] // Err hands the envelope back, by design
    fn route(&mut self, mut env: Envelope) -> Result<(), Envelope> {
        let n = self.active.clamp(1, self.spawned);
        for i in 0..n {
            let lane = (self.cursor + i) % n;
            match self.in_txs[lane].try_send(env) {
                Ok(()) => {
                    self.cursor = (lane + 1) % n;
                    return Ok(());
                }
                Err(back) => env = back,
            }
        }
        Err(env)
    }
}

/// The compiled graph; see the [module docs](self).
pub(crate) struct Graph {
    pub(crate) farms: Vec<Farm>,
    /// `farms.len() + 1` hops: hop `h` relays into farm `h`, the last hop
    /// relays into `completed`.
    hops: Vec<Hop>,
    /// The one-item entry slot `push` fills; the pump moves it into hop 0.
    pub(crate) ingress: Option<Envelope>,
    /// Finished envelopes in stream order, harvested by the executor.
    pub(crate) completed: VecDeque<Envelope>,
    capacity: usize,
    /// Per-farm replica cap from the [`ExecPolicy`].
    exec_cap: usize,
    /// External width cap ([`Graph::set_width_cap`]) clamping every farm's
    /// ceiling — `usize::MAX` when nothing outside the graph constrains it.
    extern_cap: usize,
    /// Whether calibration consults the cost model.
    cost_driven: bool,
    /// Whether segments charge fused-style (one summed event per part)
    /// instead of replaying eager per-stage charges.
    summed_charging: bool,
    adaptive: bool,
    /// The persistent worker pool, held for its drop (which joins the
    /// replica threads); `None` when the graph has no farms. Declared
    /// after `farms`: fields drop in order, so every farm's rings close
    /// first (waking parked replicas, dropping in-flight envelopes) and
    /// the workers the pool joins are guaranteed to exit.
    _pool: Option<ThreadPool>,
}

impl Graph {
    /// Compile an operator list into a live graph. A 1-thread policy
    /// inlines every segment on the pump (zero worker threads); otherwise
    /// each segment becomes a farm capped at the policy's thread count.
    pub(crate) fn build(
        ops: Vec<PlanOp<'static>>,
        capacity: usize,
        exec: ExecPolicy,
        adaptive: bool,
        summed_charging: bool,
    ) -> Graph {
        let exec_cap = match exec {
            ExecPolicy::Sequential => 1,
            ExecPolicy::Threads(t) | ExecPolicy::CostDriven { threads: t } => t.max(1),
        };
        let inline = exec_cap <= 1;
        let mut hops = vec![Hop::new()];
        let mut farms: Vec<Farm> = Vec::new();
        for op in ops {
            match op {
                PlanOp::Barrier(b) => hops
                    .last_mut()
                    .expect("hops start non-empty")
                    .push_op(PumpOp::Barrier(b)),
                PlanOp::Segment(seg) => {
                    let seg = Arc::new(seg);
                    if inline {
                        hops.last_mut()
                            .expect("hops start non-empty")
                            .push_op(PumpOp::Inline(seg));
                    } else {
                        farms.push(Farm::new(seg, capacity, exec_cap, adaptive));
                        hops.push(Hop::new());
                    }
                }
                // A branch with two pure segment arms decomposes into the
                // pipelined form — enter (split + park right), left farm,
                // swap (unpark right, park left's result), right farm,
                // exit (unpark + join) — so both arms become real farm
                // stages that overlap across stream items. Anything else
                // (choice, arms with barriers) runs inline on the pump.
                PlanOp::Branch(b) => match b.into_pipelined() {
                    Ok(p) if !inline => {
                        hops.last_mut()
                            .expect("hops start non-empty")
                            .push_op(PumpOp::Barrier(p.enter));
                        farms.push(Farm::new(Arc::new(p.left), capacity, exec_cap, adaptive));
                        hops.push(Hop::new());
                        hops.last_mut()
                            .expect("hops grow with farms")
                            .push_op(PumpOp::Barrier(p.swap));
                        farms.push(Farm::new(Arc::new(p.right), capacity, exec_cap, adaptive));
                        hops.push(Hop::new());
                        hops.last_mut()
                            .expect("hops grow with farms")
                            .push_op(PumpOp::Barrier(p.exit));
                    }
                    Ok(p) => {
                        // 1-thread policy: same op order, all on the pump
                        let hop = hops.last_mut().expect("hops start non-empty");
                        hop.push_op(PumpOp::Barrier(p.enter));
                        hop.push_op(PumpOp::Inline(Arc::new(p.left)));
                        hop.push_op(PumpOp::Barrier(p.swap));
                        hop.push_op(PumpOp::Inline(Arc::new(p.right)));
                        hop.push_op(PumpOp::Barrier(p.exit));
                    }
                    Err(b) => hops
                        .last_mut()
                        .expect("hops start non-empty")
                        .push_op(PumpOp::Branch(Box::new(b))),
                },
            }
        }
        let pool = if farms.is_empty() {
            None
        } else {
            let pool = ThreadPool::new(farms.iter().map(|f| f.spawned).sum());
            for farm in &mut farms {
                farm.spawn(&pool, summed_charging);
            }
            Some(pool)
        };
        Graph {
            farms,
            hops,
            ingress: None,
            completed: VecDeque::new(),
            capacity,
            exec_cap,
            extern_cap: usize::MAX,
            cost_driven: matches!(exec, ExecPolicy::CostDriven { .. }),
            summed_charging,
            adaptive,
            _pool: pool,
        }
    }

    /// Clamp every farm's width ceiling at `cap` active replicas (≥ 1) —
    /// the external control a shard scheduler drives when this graph's
    /// share of a host-wide thread budget changes. The cap composes with
    /// the policy/cost-model ceiling (the effective ceiling is the
    /// minimum) and survives re-calibration; widening restores headroom
    /// for the autonomic controller rather than forcing replicas active.
    pub(crate) fn set_width_cap(&mut self, cap: usize) {
        self.extern_cap = cap.max(1);
        for farm in &mut self.farms {
            let eff = farm.policy_cap.min(self.extern_cap).clamp(1, farm.spawned);
            farm.max_width = eff;
            let want = if self.adaptive {
                farm.active.min(eff)
            } else {
                eff
            };
            farm.active = want.max(1);
        }
    }

    /// The external width cap last set (`usize::MAX` when unset).
    pub(crate) fn width_cap(&self) -> usize {
        self.extern_cap
    }

    /// Refine each farm's width ceiling from the first item's payload:
    /// under a cost-driven policy, ask the machine's cost model whether
    /// farming a window of `capacity` items of this size across threads is
    /// worth the coordination at all, exactly as fused execution gates a
    /// segment ([`CostModel::fused_decision`]). Non-cost-driven policies
    /// keep the policy cap.
    ///
    /// [`CostModel::fused_decision`]: scl_machine::CostModel::fused_decision
    pub(crate) fn calibrate(&mut self, env: &Envelope, machine: &Machine) {
        if !self.cost_driven {
            return;
        }
        let item_bytes = item_bytes(env.payload.as_ref().ok());
        for farm in &mut self.farms {
            let d = machine.model().fused_decision(
                self.capacity.max(2),
                farm.seg.len(),
                item_bytes.max(1),
                self.exec_cap,
            );
            farm.policy_cap = d.threads.clamp(1, farm.spawned);
            let cap = farm.policy_cap.min(self.extern_cap).clamp(1, farm.spawned);
            farm.max_width = cap;
            let want = if self.adaptive {
                farm.active.min(cap)
            } else {
                cap
            };
            farm.active = want.max(1);
        }
    }

    /// Place one envelope on the entry slot (the caller has verified it
    /// is free).
    pub(crate) fn offer(&mut self, env: Envelope) {
        debug_assert!(self.ingress.is_none(), "ingress slot already occupied");
        self.ingress = Some(env);
    }

    /// One pump pass: walk the hops downstream-first (so freed capacity
    /// propagates upstream within a single pass), relaying every item
    /// that can move — out of reorder buffers in stream order, through
    /// the hop's barrier chain, into the next farm's queue or the
    /// completion list. Never blocks.
    pub(crate) fn pump(&mut self) {
        let n = self.farms.len();
        for h in (0..=n).rev() {
            loop {
                // a parked item goes first — order would break otherwise
                if let Some(env) = self.hops[h].pending.take() {
                    if let Err(env) = self.accept(h, env) {
                        self.hops[h].pending = Some(env);
                        break; // downstream still full: hop is stuck
                    }
                }
                let Some(env) = self.source_next(h) else {
                    break;
                };
                let env = self.apply_hop(h, env);
                if let Err(env) = self.accept(h, env) {
                    self.hops[h].pending = Some(env);
                    break;
                }
            }
        }
    }

    /// The next in-order envelope available to hop `h`: the entry slot
    /// for hop 0, the upstream farm's reorder buffer otherwise.
    fn source_next(&mut self, h: usize) -> Option<Envelope> {
        if h == 0 {
            return self.ingress.take();
        }
        let farm = &mut self.farms[h - 1];
        // drain whatever the replicas have finished into the reorder
        // buffer; release only the next item in stream order
        for out_rx in &farm.out_rxs {
            while let TryRecv::Item(env) = out_rx.try_recv() {
                farm.reorder.insert(env.seq, env);
            }
        }
        match farm.reorder.remove(&farm.expect) {
            Some(env) => {
                farm.expect += 1;
                Some(env)
            }
            None => None,
        }
    }

    /// Run hop `h`'s operator chain on one envelope. Barriers and inline
    /// segments both charge the item's own machine context; a failing
    /// barrier or panicking inline stage poisons the envelope with a
    /// typed [`RequestError`] (resolved at the collection side), and an
    /// expired deadline short-circuits the remaining operators.
    fn apply_hop(&mut self, h: usize, mut env: Envelope) -> Envelope {
        let summed = self.summed_charging;
        let hop = &mut self.hops[h];
        for (op, stat) in &mut hop.ops {
            if env.payload.is_err() {
                break; // poisoned: carry the error through untouched
            }
            if env.deadline.is_some_and(|d| Instant::now() >= d) {
                env.payload = Err(RequestError::DeadlineExceeded);
                break;
            }
            let Ok(val) = std::mem::replace(&mut env.payload, Err(RequestError::DeadlineExceeded))
            else {
                unreachable!("checked non-err above")
            };
            let t0 = Instant::now();
            env.payload = match op {
                PumpOp::Barrier(b) => {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| b.apply(&mut env.scl, val)))
                    {
                        Ok(Ok(v)) => Ok(v),
                        Ok(Err(e)) => Err(RequestError::BarrierFailed {
                            stage: b.label().to_string(),
                            error: e,
                        }),
                        Err(p) => Err(RequestError::BarrierPanic {
                            stage: b.label().to_string(),
                            message: panic_message(&*p).to_string(),
                        }),
                    }
                }
                PumpOp::Inline(seg) => {
                    if summed {
                        seg.try_apply_summed(&mut env.scl, val)
                    } else {
                        seg.try_apply(&mut env.scl, val)
                    }
                }
                PumpOp::Branch(b) => {
                    // compute stages inside the arms already resolve their
                    // own panics to typed errors; the catch here is the
                    // net for split/decide/join closures
                    match std::panic::catch_unwind(AssertUnwindSafe(|| {
                        b.try_apply(&mut env.scl, val, summed)
                    })) {
                        Ok(res) => res,
                        Err(p) => Err(RequestError::BarrierPanic {
                            stage: b.label().to_string(),
                            message: panic_message(&*p).to_string(),
                        }),
                    }
                }
            };
            stat.items += 1;
            stat.busy_nanos += t0.elapsed().as_nanos() as u64;
        }
        env
    }

    /// Hand an envelope to hop `h`'s target: farm `h`'s queue, or the
    /// completion list after the last hop. `Err` hands it back when the
    /// queue is full.
    #[allow(clippy::result_large_err)] // Err hands the envelope back, by design
    fn accept(&mut self, h: usize, env: Envelope) -> Result<(), Envelope> {
        if h < self.farms.len() {
            let farm = &mut self.farms[h];
            // Occupancy window: private lanes can park an item deep in
            // one busy lane while the others race ahead into the reorder
            // buffer — and on through it, admitting ever more pushes.
            // Capping admitted-minus-released at the farm's static buffer
            // space keeps the reorder buffer — and the whole stream's
            // in-flight gauge — bounded by O(max(capacity, width)).
            if env.seq - farm.expect >= farm.window {
                return Err(env);
            }
            farm.route(env)
        } else {
            self.completed.push_back(env);
            Ok(())
        }
    }

    /// One autonomic tick: sample every farm's queue depth and service
    /// utilisation since the last tick; widen a backlogged stage (depth ≥
    /// ¾ capacity) by one replica up to its ceiling, narrow a starved one
    /// (empty queue, active replicas under 25 % busy) down to one. Width
    /// changes only flip the atomic gate — no threads spawn or join.
    pub(crate) fn tick_controller(&mut self) {
        let now = Instant::now();
        for farm in &mut self.farms {
            let dt = now.duration_since(farm.last_tick).as_nanos() as u64;
            if dt == 0 {
                continue;
            }
            let busy = farm.stats.busy_nanos.load(Ordering::Relaxed);
            let dbusy = busy.saturating_sub(farm.last_busy);
            farm.last_busy = busy;
            farm.last_tick = now;
            let active = farm.active;
            let cap = farm.max_width;
            let depth = farm.in_depth();
            let util = dbusy as f64 / (dt as f64 * active.max(1) as f64);
            if depth * 4 >= farm.in_routable_capacity() * 3 && active < cap {
                farm.active = active + 1;
            } else if depth == 0 && util < 0.25 && active > 1 {
                farm.active = active - 1;
            }
        }
    }

    /// Snapshot every stage in pipeline order (hop operators interleaved
    /// with farms).
    pub(crate) fn stage_stats(&self) -> Vec<StageStat> {
        let mut out = Vec::new();
        for (h, hop) in self.hops.iter().enumerate() {
            for (op, stat) in &hop.ops {
                out.push(StageStat {
                    label: op.label(),
                    farm: false,
                    width: 1,
                    max_width: 1,
                    queue_depth: 0,
                    items: stat.items,
                    mean_service_secs: mean_secs(stat.busy_nanos, stat.items),
                });
            }
            if let Some(farm) = self.farms.get(h) {
                let items = farm.stats.items.load(Ordering::Relaxed);
                out.push(StageStat {
                    label: farm.label.clone(),
                    farm: true,
                    width: farm.active,
                    max_width: farm.max_width,
                    queue_depth: farm.in_depth(),
                    items,
                    mean_service_secs: mean_secs(
                        farm.stats.busy_nanos.load(Ordering::Relaxed),
                        items,
                    ),
                });
            }
        }
        out
    }
}

/// Static payload estimate of one stream item, for calibration.
fn item_bytes(val: Option<&ErasedArr>) -> usize {
    val.map_or(0, |v| v.parts() * v.elem_bytes())
}

fn mean_secs(busy_nanos: u64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        busy_nanos as f64 / items as f64 / 1e9
    }
}
