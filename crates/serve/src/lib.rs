#![deny(missing_docs)]
//! # scl-serve — a multi-tenant plan service
//!
//! Everything below this crate executes **one caller's** plan: eagerly
//! ([`Skel::run`]), fused ([`Scl::run_fused`]), optimised
//! ([`Scl::run_optimized`]), or over a stream
//! ([`StreamExec`]). A serving system faces the
//! opposite shape: **many independent clients** submitting **many
//! different plans** concurrently against **one** shared machine budget.
//! Paying plan compilation (optimise → fuse → build a persistent operator
//! graph, spawning its farm workers) per request would dwarf the work of
//! most requests, and letting every client fan out as if it owned the
//! host would oversubscribe it — the behavioural-skeleton literature
//! frames this as autonomic management of multiple non-functional
//! concerns; here the concerns are compilation cost, host-thread
//! capacity, and per-client accounting, managed *across tenants* rather
//! than within one graph.
//!
//! [`Serve`] is that front-end. Three mechanisms carry it:
//!
//! * **A plan cache.** Submissions are keyed by the plan's structural
//!   fingerprint ([`Skel::fingerprint`], optionally salted per caller via
//!   [`Serve::submit_keyed`]). The first submission of a distinct plan
//!   compiles it — for optimized submissions
//!   ([`Serve::submit_optimized`]) this includes lowering to the IR and
//!   applying the paper's §4 rewrite laws — into a persistent
//!   [`StreamExec`] operator graph; every later
//!   structurally-equal submission reuses the compiled graph, paying only
//!   the hash. Entries are evicted least-recently-used beyond
//!   [`ServePolicy::with_plan_cache_cap`].
//!
//! * **A shard scheduler.** One host-wide
//!   [`ThreadBudget`] is partitioned across the
//!   *active* tenants in weighted fair shares (largest-remainder
//!   apportionment over [`Serve::add_tenant_weighted`] weights),
//!   recomputed every service round as tenants arrive and finish. A
//!   batch's share is claimed as a [`BudgetLease`](scl_exec::BudgetLease)
//!   and handed to the graph through its external width cap
//!   ([`StreamExec::set_width_cap`](scl_stream::StreamExec::set_width_cap)),
//!   so farm replicas beyond the share park on their gates — adaptation
//!   without spawning or joining a single thread.
//!
//! * **Request batching.** Same-plan requests waiting at the start of a
//!   service round are coalesced — up to
//!   [`ServePolicy::with_batch_window`] of them — into one stream push,
//!   so consecutive requests overlap inside the graph's farm stages and
//!   fused segments amortise their dispatch across the batch.
//!
//! What is deliberately **not** shared is accounting: every request runs
//! against its own simulated-machine context and completes with its own
//! [`MachineReport`], bit-for-bit equal to a solo [`Skel::run`] (or, for
//! optimized submissions, [`Scl::run_optimized`]) of the same plan on the
//! same input — the workspace's `tests/serve_vs_solo.rs` differential
//! suite holds this under sequential, threaded, and cost-driven policies.
//!
//! ## Example
//!
//! ```
//! use scl_core::prelude::*;
//! use scl_serve::{Serve, ServePolicy};
//!
//! let policy = ServePolicy::new(Machine::ap1000(4))
//!     .with_exec(ExecPolicy::Threads(2))
//!     .with_batch_window(8);
//! let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(policy);
//!
//! let alice = srv.add_tenant("alice");
//! let bob = srv.add_tenant_weighted("bob", 3); // 3x alice's share
//!
//! // both tenants submit the same (structurally equal) plan: one compile
//! let plan = || Skel::map(|x: &i64| x * 2).then(Skel::rotate(1));
//! let t1 = srv.submit(alice, plan(), ParArray::from_parts(vec![1, 2, 3, 4])).unwrap();
//! let t2 = srv.submit(bob, plan(), ParArray::from_parts(vec![5, 6, 7, 8])).unwrap();
//!
//! srv.run_until_idle();
//! let (out, report) = srv.take(t1).unwrap();
//! assert_eq!(out.to_vec(), vec![4, 6, 8, 2]);
//! assert_eq!(report.procs, 4); // alice's own accounting, untouched by bob
//! assert!(srv.take(t2).is_some());
//! assert_eq!(srv.stats().cache_misses, 1);
//! assert_eq!(srv.stats().cache_hits, 1);
//! ```
//!
//! ## Threading model
//!
//! `Serve` is single-threaded at the front: submissions enqueue, and
//! [`Serve::step`] / [`Serve::run_until_idle`] pump the compiled graphs
//! on the calling thread (exactly like driving a `StreamExec` directly).
//! All parallelism lives *inside* the cached graphs — their persistent
//! farm replicas — bounded collectively by the thread budget. That keeps
//! the stateful pieces (plan closures, per-entry queues) free of locks
//! while the shared budget stays honest.
//!
//! [`Skel::run`]: scl_core::Skel::run
//! [`Skel::fingerprint`]: scl_core::Skel::fingerprint
//! [`Scl::run_fused`]: scl_core::Scl::run_fused
//! [`Scl::run_optimized`]: scl_core::Scl::run_optimized

use scl_core::{panic_message, FusePort, PlanFingerprint, RequestError, Scl, SclError, Skel};
use scl_exec::{ExecPolicy, ThreadBudget};
use scl_machine::{Machine, MachineReport};
use scl_stream::{StreamExec, StreamPolicy};
use scl_transform::{optimize, Registry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

mod scheduler;

pub use scheduler::fair_shares;

/// What one request resolved to: its output and private machine report,
/// or the typed reason it failed. Failure is a value here — a crashing
/// plan fails its own tickets and nothing else.
pub type RequestOutcome<B> = Result<(B, MachineReport), RequestError>;

/// How a [`Serve`] front-end runs: the machine template every request's
/// context is cloned from, the execution policy compiled graphs serve
/// under, and the serving knobs (thread budget, batch window, plan-cache
/// capacity, channel capacity, adaptive width control).
pub struct ServePolicy {
    machine: Machine,
    exec: ExecPolicy,
    threads: Option<usize>,
    batch_window: usize,
    plan_cache_cap: usize,
    capacity: usize,
    adaptive: bool,
    quarantine_after: u32,
}

impl ServePolicy {
    /// Defaults: [`ExecPolicy::auto`] execution, a thread budget matching
    /// the policy, batch window 16, plan cache capacity 32, capacity-8
    /// channels, adaptive width control on, quarantine after 3
    /// consecutive crashed batches.
    pub fn new(machine: Machine) -> ServePolicy {
        ServePolicy {
            machine,
            exec: ExecPolicy::auto(),
            threads: None,
            batch_window: 16,
            plan_cache_cap: 32,
            capacity: 8,
            adaptive: true,
            quarantine_after: 3,
        }
    }

    /// Set the execution policy compiled graphs serve under (farm width
    /// ceilings, cost-model consultation) — see
    /// [`StreamPolicy::with_exec`](scl_stream::StreamPolicy::with_exec).
    pub fn with_exec(mut self, exec: ExecPolicy) -> ServePolicy {
        self.exec = exec;
        self
    }

    /// Set the host-wide thread budget shared by **all** tenants (≥ 1).
    /// Defaults to the execution policy's thread count. The shard
    /// scheduler splits this budget into weighted fair shares each round.
    pub fn with_threads(mut self, threads: usize) -> ServePolicy {
        self.threads = Some(threads.max(1));
        self
    }

    /// Set the batch window (≥ 1): how many same-plan requests a service
    /// round coalesces into one stream push. Larger windows amortise
    /// dispatch across more requests at the price of per-round latency.
    pub fn with_batch_window(mut self, window: usize) -> ServePolicy {
        self.batch_window = window.max(1);
        self
    }

    /// Set the plan-cache capacity: compiled graphs kept resident.
    /// Beyond it, the least-recently-used idle entry is evicted (its farm
    /// workers join). `0` disables retention **across service rounds** —
    /// the benchmark's "cold" baseline: every round recompiles, though
    /// same-plan submissions queued within one round still share that
    /// round's compile (they are one batch; eviction happens at the end
    /// of [`Serve::step`], never under a waiting queue).
    pub fn with_plan_cache_cap(mut self, cap: usize) -> ServePolicy {
        self.plan_cache_cap = cap;
        self
    }

    /// Set the per-graph channel capacity (backpressure bound) — see
    /// [`StreamPolicy::with_capacity`](scl_stream::StreamPolicy::with_capacity).
    pub fn with_capacity(mut self, capacity: usize) -> ServePolicy {
        self.capacity = capacity.max(1);
        self
    }

    /// Enable/disable each graph's autonomic width controller (see
    /// [`StreamPolicy::with_adaptive`](scl_stream::StreamPolicy::with_adaptive)).
    /// Either way the shard scheduler's per-round cap bounds the width.
    pub fn with_adaptive(mut self, adaptive: bool) -> ServePolicy {
        self.adaptive = adaptive;
        self
    }

    /// Set how many **consecutive** crashed batches (≥ 1) a cached plan
    /// survives before it is quarantined: further submissions of the
    /// plan resolve immediately to [`RequestError::Quarantined`] without
    /// compiling or running anything. A fully successful batch resets the
    /// count; evicting the entry (LRU or the memory actuator) pardons the
    /// plan — the next submission recompiles from scratch.
    pub fn with_quarantine_after(mut self, crashes: u32) -> ServePolicy {
        self.quarantine_after = crashes.max(1);
        self
    }

    /// The effective thread budget: the explicit setting, else the
    /// execution policy's thread count.
    fn budget_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| self.exec.effective_threads(usize::MAX))
    }

    fn stream_policy(&self, fused_charging: bool) -> StreamPolicy {
        StreamPolicy::new(self.machine.clone())
            .with_exec(self.exec)
            .with_capacity(self.capacity)
            .with_adaptive(self.adaptive)
            .with_fused_charging(fused_charging)
    }
}

/// A registered client of the service; see [`Serve::add_tenant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub(crate) usize);

/// A pending request's claim check; redeem with [`Serve::take`] after
/// service rounds have run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Serving counters, from [`Serve::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted (including uncacheable ones).
    pub requests: u64,
    /// Requests completed and delivered to the done-pile.
    pub completed: u64,
    /// Submissions that reused a cached compiled graph.
    pub cache_hits: u64,
    /// Submissions that compiled a new graph.
    pub cache_misses: u64,
    /// Compiled graphs evicted (least-recently-used beyond the cap).
    pub evictions: u64,
    /// Service-round batches pushed through graphs.
    pub batches: u64,
    /// Uncacheable submissions served immediately through the eager /
    /// fallback path (unfusable plans, non-lowerable optimized plans).
    pub eager_runs: u64,
    /// Requests resolved with a typed [`RequestError`] (any kind): their
    /// tickets are ready with an `Err` outcome, collectable through
    /// [`Serve::outcome`]. Supersets [`ServeStats::panics`] and
    /// [`ServeStats::deadline_expired`].
    pub failed: u64,
    /// Requests failed because their plan crashed (stage/barrier panics,
    /// barrier errors, eager panics) — including requests queued behind a
    /// crashed batch for the same plan.
    pub panics: u64,
    /// Requests failed because their deadline passed before completion.
    pub deadline_expired: u64,
    /// Graphs rebuilt from a resubmitted plan after a crash tore the
    /// previous graph down.
    pub rebuilds: u64,
    /// Cached plans quarantined after reaching the consecutive-crash
    /// limit ([`ServePolicy::with_quarantine_after`]).
    pub quarantines: u64,
}

struct Tenant {
    name: String,
    weight: u32,
    /// Requests accepted but not yet completed.
    pending: usize,
    served: u64,
    /// Requests resolved with a typed error — the crash/expiry sensor an
    /// autonomic manager reads per tenant.
    failed: u64,
}

/// One pending request: its claim check, owner, input, and optional
/// absolute deadline.
struct Request<A> {
    ticket: Ticket,
    tenant: TenantId,
    input: A,
    deadline: Option<Instant>,
}

/// A cached plan: the persistent graph (`None` after a crash tore it
/// down, until the next submission rebuilds it), its waiting queue, and
/// its supervision state.
struct Entry<A: FusePort, B: FusePort> {
    exec: Option<StreamExec<A, B>>,
    queue: VecDeque<Request<A>>,
    /// Submission-counter stamp of the last use, for LRU eviction.
    last_used: u64,
    /// Consecutive crashed batches; reset by a fully successful batch.
    crashes: u32,
    /// Once true, submissions of this plan fail fast as
    /// [`RequestError::Quarantined`] until the entry is evicted.
    quarantined: bool,
}

/// The multi-tenant plan service; see the [crate docs](self).
///
/// Typed over one request signature `A → B` (the shapes
/// [`FusePort`] admits: `ParArray<T>`, conforming pairs, host `Vec<T>`,
/// iteration states); tenants may still serve arbitrarily many *different
/// plans* of that signature, each cached under its own fingerprint.
pub struct Serve<A: FusePort + Send + 'static, B: FusePort + 'static> {
    policy: ServePolicy,
    budget: Arc<ThreadBudget>,
    tenants: Vec<Tenant>,
    /// The plan cache. A `BTreeMap` so service rounds visit entries in a
    /// deterministic (fingerprint) order.
    cache: BTreeMap<PlanFingerprint, Entry<A, B>>,
    done: HashMap<Ticket, RequestOutcome<B>>,
    next_ticket: u64,
    /// Monotone submission counter, stamping cache entries for LRU.
    clock: u64,
    /// Manager-imposed ceiling on every batch's farm width (`usize::MAX`
    /// when unset); see [`Serve::set_width_cap`].
    width_cap: usize,
    stats: ServeStats,
}

impl<A, B> Serve<A, B>
where
    A: FusePort + Send + 'static,
    B: FusePort + 'static,
{
    /// A service with no tenants and an empty cache.
    pub fn new(policy: ServePolicy) -> Serve<A, B> {
        let budget = ThreadBudget::new(policy.budget_threads());
        Serve {
            policy,
            budget,
            tenants: Vec::new(),
            cache: BTreeMap::new(),
            done: HashMap::new(),
            next_ticket: 0,
            clock: 0,
            width_cap: usize::MAX,
            stats: ServeStats::default(),
        }
    }

    /// Register a tenant with weight 1.
    pub fn add_tenant(&mut self, name: &str) -> TenantId {
        self.add_tenant_weighted(name, 1)
    }

    /// Register a tenant with an explicit fair-share weight (≥ 1): a
    /// weight-3 tenant receives three times the thread share of a
    /// weight-1 tenant whenever both are active.
    pub fn add_tenant_weighted(&mut self, name: &str, weight: u32) -> TenantId {
        let id = TenantId(self.tenants.len());
        self.tenants.push(Tenant {
            name: name.to_string(),
            weight: weight.max(1),
            pending: 0,
            served: 0,
            failed: 0,
        });
        id
    }

    /// A registered tenant's name.
    pub fn tenant_name(&self, t: TenantId) -> &str {
        &self.tenants[t.0].name
    }

    /// Requests accepted for `t` but not yet completed.
    pub fn tenant_pending(&self, t: TenantId) -> usize {
        self.tenants[t.0].pending
    }

    /// Requests completed for `t` over the service's lifetime.
    pub fn tenant_served(&self, t: TenantId) -> u64 {
        self.tenants[t.0].served
    }

    /// Requests resolved with a typed error for `t` over the service's
    /// lifetime — plan crashes, deadline expiries, quarantine rejections.
    /// The per-tenant crash sensor an autonomic manager de-weights on.
    pub fn tenant_failed(&self, t: TenantId) -> u64 {
        self.tenants[t.0].failed
    }

    /// The serving counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Compiled graphs currently resident in the plan cache (live graphs
    /// only: entries torn down by a crash hold no graph until rebuilt).
    pub fn cached_plans(&self) -> usize {
        self.cache.values().filter(|e| e.exec.is_some()).count()
    }

    /// Cached plans currently quarantined (rejecting submissions until
    /// evicted).
    pub fn quarantined_plans(&self) -> usize {
        self.cache.values().filter(|e| e.quarantined).count()
    }

    /// Requests waiting in plan queues (excludes completed ones).
    pub fn pending_requests(&self) -> usize {
        self.cache.values().map(|e| e.queue.len()).sum()
    }

    /// The host-wide thread budget the shard scheduler partitions.
    pub fn thread_budget(&self) -> &Arc<ThreadBudget> {
        &self.budget
    }

    // ---- autonomic-manager hooks -------------------------------------------
    //
    // The knobs an external controller (the `scl-net` MAPE manager, or any
    // operator loop) turns at runtime. Every one of them changes *how* the
    // service runs, never *what* it answers: the differential suites pin
    // results and per-request reports as invariant under batch window,
    // weight, width-cap, and cache-cap changes.

    /// The current batch window (same-plan requests coalesced per round).
    pub fn batch_window(&self) -> usize {
        self.policy.batch_window
    }

    /// Retune the batch window (≥ 1) at runtime. Narrower windows trade
    /// dispatch amortisation for per-round latency — the knob a latency
    /// manager shrinks when a tenant's p99 drifts over its SLO, and
    /// re-widens once the SLO holds again.
    pub fn set_batch_window(&mut self, window: usize) {
        self.policy.batch_window = window.max(1);
    }

    /// A tenant's current fair-share weight.
    pub fn tenant_weight(&self, t: TenantId) -> u32 {
        self.tenants[t.0].weight
    }

    /// Reweight a tenant (≥ 1) at runtime. Takes effect from the next
    /// service round's share computation — the actuator a manager uses to
    /// arbitrate thread capacity between tenants' throughput contracts.
    pub fn set_tenant_weight(&mut self, t: TenantId, weight: u32) {
        self.tenants[t.0].weight = weight.max(1);
    }

    /// The manager-imposed width ceiling (`usize::MAX` when unset).
    pub fn width_cap(&self) -> usize {
        self.width_cap
    }

    /// Cap every batch's farm width at `cap` active replicas (≥ 1),
    /// composing with the per-round budget grant (the effective width is
    /// the minimum of the two). A claim never asks the budget for more
    /// than the cap, so the withheld threads stay claimable by other
    /// consumers of the shared budget. `usize::MAX` removes the cap.
    pub fn set_width_cap(&mut self, cap: usize) {
        self.width_cap = cap.max(1);
    }

    /// The plan-cache capacity currently in force.
    pub fn plan_cache_cap(&self) -> usize {
        self.policy.plan_cache_cap
    }

    /// Retarget the plan-cache capacity at runtime and evict down to it
    /// immediately (LRU-idle first; entries with waiting requests are
    /// never evicted, so the effective size may temporarily exceed a
    /// shrunken cap until their queues drain). Evictions count in
    /// [`ServeStats::evictions`] — the memory-pressure actuator.
    pub fn set_plan_cache_cap(&mut self, cap: usize) {
        self.policy.plan_cache_cap = cap;
        self.evict_to_cap();
    }

    /// Evict up to `n` least-recently-used **idle** compiled graphs right
    /// now, regardless of the cap — the one-shot memory-pressure actuator
    /// (the cap stays as configured). Returns how many were evicted;
    /// each counts in [`ServeStats::evictions`].
    pub fn evict_idle(&mut self, n: usize) -> usize {
        let mut evicted = 0;
        while evicted < n {
            let victim = self
                .cache
                .iter()
                .filter(|(_, e)| e.queue.is_empty())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp);
            match victim {
                Some(fp) => {
                    self.cache.remove(&fp);
                    self.stats.evictions += 1;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// The current weighted fair shares over **active** tenants (those
    /// with pending requests): what the next service round will hand each
    /// tenant's batches. Empty when nothing is pending.
    pub fn shares(&self) -> Vec<(TenantId, usize)> {
        let active: Vec<(TenantId, u32)> = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.pending > 0)
            .map(|(i, t)| (TenantId(i), t.weight))
            .collect();
        fair_shares(self.budget.total(), &active)
    }

    /// Submit a request: run `plan` over `input` on behalf of `tenant`.
    /// Structurally equal plans (see
    /// [`PlanFingerprint`] for the contract)
    /// share one compiled graph; semantically different plans with the
    /// same structure must go through [`Serve::submit_keyed`] instead.
    ///
    /// Fails fast with [`SclError::MachineTooSmall`] when the input spans
    /// more parts than the machine template has processors — the same
    /// entry contract as the streaming layer.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        plan: Skel<'static, A, B>,
        input: A,
    ) -> Result<Ticket, SclError> {
        self.submit_keyed(tenant, "", plan, input)
    }

    /// [`Serve::submit`] with a caller-chosen cache `key` folded into the
    /// fingerprint ([`PlanFingerprint::with_salt`]) — how clients keep
    /// structurally identical but semantically different plans apart
    /// (e.g. a plan name plus its parameters, the prepared-statement
    /// idiom).
    ///
    /// [`PlanFingerprint::with_salt`]: scl_core::PlanFingerprint::with_salt
    pub fn submit_keyed(
        &mut self,
        tenant: TenantId,
        key: &str,
        plan: Skel<'static, A, B>,
        input: A,
    ) -> Result<Ticket, SclError> {
        self.submit_keyed_deadline(tenant, key, plan, input, None)
    }

    /// [`Serve::submit_keyed`] with an absolute deadline attached to the
    /// request. Once the deadline passes, the request short-circuits to
    /// [`RequestError::DeadlineExceeded`] wherever it happens to be —
    /// still queued, mid-batch, or between farm stages — instead of
    /// occupying replicas. `None` means no deadline.
    pub fn submit_keyed_deadline(
        &mut self,
        tenant: TenantId,
        key: &str,
        plan: Skel<'static, A, B>,
        input: A,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SclError> {
        let input = self.check_input(input)?;
        match plan.fingerprint() {
            None => {
                // unfusable: nothing to compile, nothing to cache — serve
                // immediately through the eager layer, exactly as the
                // streaming runtime's eager fallback would
                Ok(self.eager_run(tenant, input, deadline, |scl, input| plan.run(scl, input)))
            }
            Some(fp) => {
                let fp = salt_key(fp, "plain", key);
                let ticket = self.mint_ticket(tenant);
                self.enqueue(fp, ticket, tenant, input, deadline, || {
                    (plan, /* fused_charging = */ false)
                });
                Ok(ticket)
            }
        }
    }

    /// One service round, in two phases so different plans' farm work
    /// genuinely overlaps:
    ///
    /// 1. **Push.** For every cached plan with waiting requests: coalesce
    ///    up to the batch window of them, claim the batch's thread share
    ///    from the budget as a [`BudgetLease`](scl_exec::BudgetLease)
    ///    (the share: the sum of the batch's distinct tenants' fair
    ///    shares), cap the graph's width at the grant, and push the whole
    ///    batch. From here each graph's farm replicas process their items
    ///    on worker threads concurrently with every other graph's — the
    ///    per-graph caps are what keep the *sum* of active replicas
    ///    within the budget while they overlap.
    /// 2. **Drain.** Collect each graph's outputs in turn, pairing every
    ///    request with its own private [`MachineReport`], and release the
    ///    leases.
    ///
    /// Budget honesty is best-effort at the edge: the budget is shared
    /// (see [`Serve::thread_budget`]), and when another consumer holds
    /// all capacity `try_claim` grants nothing — the batch then still
    /// runs at width 1 rather than stalling the round (admission over
    /// strict capacity, the same trade the scheduler's one-thread floor
    /// makes). Returns how many requests completed.
    ///
    /// This method **never unwinds on a plan failure**: a crashing plan
    /// resolves its own tickets to `Err` outcomes (collect them with
    /// [`Serve::outcome`]), the round stays consistent, and the other
    /// plans' results deliver normally. The crashed plan's graph is torn
    /// down — requests still queued behind the batch fail with the same
    /// error — and the next submission of the plan rebuilds it from
    /// scratch, until [`ServePolicy::with_quarantine_after`] consecutive
    /// crashes quarantine it. Requests whose deadline passed while queued
    /// are shed here first, before any batch is formed.
    pub fn step(&mut self) -> usize {
        self.expire_queued();
        let shares: HashMap<TenantId, usize> = self.shares().into_iter().collect();
        let window = self.policy.batch_window;
        let fps: Vec<PlanFingerprint> = self
            .cache
            .iter()
            .filter(|(_, e)| !e.queue.is_empty())
            .map(|(fp, _)| *fp)
            .collect();

        // phase 1: claim shares and push every plan's batch
        struct InFlight {
            fp: PlanFingerprint,
            tickets: Vec<(Ticket, TenantId)>,
            lease: Option<scl_exec::BudgetLease>,
        }
        let mut in_flight: Vec<InFlight> = Vec::with_capacity(fps.len());
        for fp in fps {
            let entry = self.cache.get_mut(&fp).expect("listed above");
            let batch: Vec<Request<A>> =
                entry.queue.drain(..window.min(entry.queue.len())).collect();
            // the batch's share: the sum of its distinct tenants' shares,
            // clamped to the whole budget
            let mut want = 0usize;
            let mut seen: Vec<TenantId> = Vec::new();
            for r in &batch {
                if !seen.contains(&r.tenant) {
                    seen.push(r.tenant);
                    want += shares.get(&r.tenant).copied().unwrap_or(1);
                }
            }
            let want = want.clamp(1, self.budget.total()).min(self.width_cap);
            let lease = self.budget.try_claim(want, 1);
            let granted = lease.as_ref().map_or(1, |l| l.granted());
            let exec = entry
                .exec
                .as_mut()
                .expect("a queued entry always has a live graph");
            exec.set_width_cap(granted.min(self.width_cap));

            let tickets: Vec<(Ticket, TenantId)> =
                batch.iter().map(|r| (r.ticket, r.tenant)).collect();
            // push never unwinds on a plan failure: a crashing stage (or
            // an inline graph executing inside push) poisons the item's
            // envelope, resolved at drain as a typed error
            for r in batch {
                exec.push_deadline(r.input, r.deadline)
                    .expect("submit validated the input against this machine");
            }
            in_flight.push(InFlight { fp, tickets, lease });
        }

        // phase 2: drain each graph (their farm replicas have been
        // working concurrently since the pushes) and deliver outcomes —
        // healthy results and typed failures alike, one per ticket
        let mut completed = 0usize;
        for InFlight { fp, tickets, lease } in in_flight {
            let outcomes = {
                let entry = self.cache.get_mut(&fp).expect("still resident");
                entry
                    .exec
                    .as_mut()
                    .expect("graph stays live until this drain settles")
                    .drain_outcomes()
            };
            drop(lease);
            assert_eq!(
                outcomes.len(),
                tickets.len(),
                "service invariant: one outcome per pushed request"
            );
            // the first fault (not deadline expiry) in the batch decides
            // the plan's supervision: tear down and count a crash
            let mut fault: Option<RequestError> = None;
            for ((ticket, tenant), outcome) in tickets.into_iter().zip(outcomes) {
                match outcome {
                    Ok((out, report)) => {
                        self.finish(ticket, tenant, out, report);
                        completed += 1;
                    }
                    Err(err) => {
                        if fault.is_none() && err.is_fault() {
                            fault = Some(err.clone());
                        }
                        self.fail(ticket, tenant, err);
                    }
                }
            }
            self.stats.batches += 1;
            match fault {
                Some(err) => self.crash_entry(fp, err),
                None => {
                    if let Some(entry) = self.cache.get_mut(&fp) {
                        entry.crashes = 0;
                    }
                }
            }
        }
        self.evict_to_cap();
        completed
    }

    /// Shed queued requests whose deadline already passed — before any
    /// batch forms, so dead work never claims budget or a batch slot.
    fn expire_queued(&mut self) {
        let mut expired: Vec<(Ticket, TenantId)> = Vec::new();
        let mut now = None;
        for entry in self.cache.values_mut() {
            if entry.queue.iter().all(|r| r.deadline.is_none()) {
                continue; // the common (deadline-free) case: no clock read
            }
            let now = *now.get_or_insert_with(Instant::now);
            let mut kept = VecDeque::with_capacity(entry.queue.len());
            for r in entry.queue.drain(..) {
                if r.deadline.is_some_and(|d| now >= d) {
                    expired.push((r.ticket, r.tenant));
                } else {
                    kept.push_back(r);
                }
            }
            entry.queue = kept;
        }
        for (ticket, tenant) in expired {
            self.fail(ticket, tenant, RequestError::DeadlineExceeded);
        }
    }

    /// Supervise a crashed plan: tear the graph down (its farm workers
    /// join; the next submission rebuilds from the plan), fail every
    /// request still queued behind the crashed batch with the same typed
    /// error, bump the consecutive-crash count, and quarantine the plan
    /// once it reaches the limit.
    fn crash_entry(&mut self, fp: PlanFingerprint, err: RequestError) {
        let Some(entry) = self.cache.get_mut(&fp) else {
            return;
        };
        entry.exec = None; // teardown: StreamExec drop joins its workers
        entry.crashes += 1;
        if !entry.quarantined && entry.crashes >= self.policy.quarantine_after {
            entry.quarantined = true;
            self.stats.quarantines += 1;
        }
        let queued: Vec<(Ticket, TenantId)> = entry
            .queue
            .drain(..)
            .map(|r| (r.ticket, r.tenant))
            .collect();
        for (ticket, tenant) in queued {
            self.fail(ticket, tenant, err.clone());
        }
    }

    /// Run service rounds until no request is waiting. (Completed results
    /// stay in the done-pile until [`Serve::take`]n.)
    pub fn run_until_idle(&mut self) {
        while self.pending_requests() > 0 {
            self.step();
        }
    }

    /// Redeem a ticket: the request's output and its own machine report.
    /// `None` until the request's service round has run (drive with
    /// [`Serve::step`] / [`Serve::run_until_idle`]).
    ///
    /// # Panics
    ///
    /// Re-raises the request's failure if it resolved to a typed error —
    /// the untyped convenience for callers that only submit healthy
    /// plans. Collect with [`Serve::outcome`] to receive failures as
    /// values instead.
    pub fn take(&mut self, ticket: Ticket) -> Option<(B, MachineReport)> {
        match self.outcome(ticket)? {
            Ok(out) => Some(out),
            Err(e) => panic!("request failed: {e}"),
        }
    }

    /// Redeem a ticket as a value: the request's output and report, or
    /// the typed [`RequestError`] it failed with. `None` until the
    /// request's service round has run. This is the collection API a
    /// service front door uses — failure never unwinds through it.
    pub fn outcome(&mut self, ticket: Ticket) -> Option<RequestOutcome<B>> {
        self.done.remove(&ticket)
    }

    /// Whether a ticket is resolved — to a result or a typed failure —
    /// and ready to collect with [`Serve::outcome`] / [`Serve::take`].
    pub fn is_ready(&self, ticket: Ticket) -> bool {
        self.done.contains_key(&ticket)
    }

    // ---- internals ---------------------------------------------------------

    /// Validate an input against the machine template — a borrowed parts
    /// count ([`FusePort::parts_len`]), no erasure on the admission path.
    fn check_input(&self, input: A) -> Result<A, SclError> {
        if input.parts_len() > self.policy.machine.nprocs() {
            return Err(SclError::MachineTooSmall {
                needed: input.parts_len(),
                procs: self.policy.machine.nprocs(),
            });
        }
        Ok(input)
    }

    /// Serve one request immediately through the eager layer — the
    /// fallback for plans with nothing to compile (unfusable, or
    /// non-lowerable in optimized mode). The run claims its width from
    /// the shared budget ([`Serve::eager_budgeted`]) and resolves the
    /// ticket before returning. A panicking plan resolves its ticket to
    /// a typed `Err` outcome instead of unwinding — the same
    /// failure-as-a-value contract as [`Serve::step`] — and an
    /// already-expired deadline short-circuits without running at all.
    fn eager_run(
        &mut self,
        tenant: TenantId,
        input: A,
        deadline: Option<Instant>,
        run: impl FnOnce(&mut Scl, A) -> B,
    ) -> Ticket {
        let ticket = self.mint_ticket(tenant);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.fail(ticket, tenant, RequestError::DeadlineExceeded);
            return ticket;
        }
        let (exec, lease) = self.eager_budgeted();
        let mut scl = Scl::new(self.policy.machine.clone()).with_policy(exec);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut scl, input)));
        drop(lease);
        match result {
            Ok(out) => {
                self.finish(ticket, tenant, out, scl.machine.report());
                self.stats.eager_runs += 1;
            }
            Err(payload) => {
                let err = RequestError::Panicked {
                    message: panic_message(&*payload).to_string(),
                };
                self.fail(ticket, tenant, err);
            }
        }
        ticket
    }

    /// The execution policy (and its budget lease) for an immediate eager
    /// run: claim up to the policy's thread count from the shared budget
    /// and run at the grant, so fallback requests stay inside the same
    /// host-wide cap the compiled graphs honour. With nothing claimable
    /// the run degrades to one thread — results and reports are
    /// policy-independent (the differential suites pin this), only host
    /// wall time changes.
    fn eager_budgeted(&self) -> (ExecPolicy, Option<scl_exec::BudgetLease>) {
        let want = self.policy.exec.effective_threads(usize::MAX);
        if want <= 1 {
            return (self.policy.exec, None);
        }
        let lease = self.budget.try_claim(want, 1);
        let granted = lease.as_ref().map_or(1, |l| l.granted());
        let exec = match self.policy.exec {
            ExecPolicy::Sequential => ExecPolicy::Sequential,
            ExecPolicy::Threads(_) => ExecPolicy::Threads(granted),
            ExecPolicy::CostDriven { .. } => ExecPolicy::CostDriven { threads: granted },
        };
        (exec, lease)
    }

    fn mint_ticket(&mut self, tenant: TenantId) -> Ticket {
        assert!(tenant.0 < self.tenants.len(), "unregistered tenant");
        let t = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.stats.requests += 1;
        self.tenants[tenant.0].pending += 1;
        t
    }

    fn finish(&mut self, ticket: Ticket, tenant: TenantId, out: B, report: MachineReport) {
        self.done.insert(ticket, Ok((out, report)));
        self.stats.completed += 1;
        let t = &mut self.tenants[tenant.0];
        t.pending -= 1;
        t.served += 1;
    }

    /// Resolve a ticket to a typed failure: the outcome lands in the
    /// done-pile (ready, collectable via [`Serve::outcome`]) and the
    /// accounting settles — per-kind counters included.
    fn fail(&mut self, ticket: Ticket, tenant: TenantId, err: RequestError) {
        match &err {
            RequestError::DeadlineExceeded => self.stats.deadline_expired += 1,
            e if e.is_fault() => self.stats.panics += 1,
            _ => {}
        }
        self.stats.failed += 1;
        let t = &mut self.tenants[tenant.0];
        t.pending -= 1;
        t.failed += 1;
        self.done.insert(ticket, Err(err));
    }

    /// Queue a request under `fp`, compiling the graph on a cache miss —
    /// or recompiling it when a crash tore the cached graph down
    /// (`build` yields the plan and its charging mode only then). A
    /// quarantined plan fails the request immediately instead.
    fn enqueue(
        &mut self,
        fp: PlanFingerprint,
        ticket: Ticket,
        tenant: TenantId,
        input: A,
        deadline: Option<Instant>,
        build: impl FnOnce() -> (Skel<'static, A, B>, bool),
    ) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.cache.get_mut(&fp) {
            entry.last_used = clock;
            if entry.quarantined {
                let crashes = entry.crashes;
                self.fail(ticket, tenant, RequestError::Quarantined { crashes });
                return;
            }
            self.stats.cache_hits += 1;
            if entry.exec.is_none() {
                // supervision's recovery half: the previous graph crashed
                // and was torn down; rebuild it from this submission's
                // (structurally equal) plan
                let (plan, fused_charging) = build();
                entry.exec = Some(StreamExec::new(
                    plan,
                    self.policy.stream_policy(fused_charging),
                ));
                self.stats.rebuilds += 1;
            }
            entry.queue.push_back(Request {
                ticket,
                tenant,
                input,
                deadline,
            });
            return;
        }
        self.stats.cache_misses += 1;
        let (plan, fused_charging) = build();
        let mut queue = VecDeque::new();
        queue.push_back(Request {
            ticket,
            tenant,
            input,
            deadline,
        });
        self.cache.insert(
            fp,
            Entry {
                exec: Some(StreamExec::new(
                    plan,
                    self.policy.stream_policy(fused_charging),
                )),
                queue,
                last_used: clock,
                crashes: 0,
                quarantined: false,
            },
        );
    }

    /// Drop least-recently-used idle entries until the cache fits its
    /// cap. Entries with waiting requests are never evicted.
    fn evict_to_cap(&mut self) {
        while self.cache.len() > self.policy.plan_cache_cap {
            let victim = self
                .cache
                .iter()
                .filter(|(_, e)| e.queue.is_empty())
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| *fp);
            match victim {
                Some(fp) => {
                    self.cache.remove(&fp); // StreamExec drop joins its workers
                    self.stats.evictions += 1;
                }
                None => break, // everything resident is still in use
            }
        }
    }
}

/// Optimized submissions for the symbolic `i64` fragment.
impl Serve<scl_core::ParArray<i64>, scl_core::ParArray<i64>> {
    /// Submit a request served **optimize-then-execute**, the cached twin
    /// of [`Scl::run_optimized`]: on the first submission of a distinct
    /// plan the service lowers it, applies the §4 rewrite laws
    /// ([`optimize`]), raises the optimised program
    /// ([`Skel::from_expr`]) and compiles *that* into the cached graph
    /// (with fused-style charging, so reports match solo
    /// `run_optimized`); later structurally-equal submissions skip
    /// straight past lower/optimise/raise/compile to the cached graph.
    ///
    /// Plans outside the lowerable fragment take `run_optimized`'s own
    /// fallback — an immediate eager run — and are not cached. The
    /// borrowed `plan` is only read; `reg` must outlive the service's
    /// worker threads, hence `'static` (lowerable-fragment registries are
    /// cheap to build once and leak, see the serving example).
    ///
    /// [`Scl::run_optimized`]: scl_core::Scl::run_optimized
    /// [`Skel::from_expr`]: scl_core::Skel::from_expr
    pub fn submit_optimized(
        &mut self,
        tenant: TenantId,
        key: &str,
        plan: &Skel<'_, scl_core::ParArray<i64>, scl_core::ParArray<i64>>,
        reg: &'static Registry,
        input: scl_core::ParArray<i64>,
    ) -> Result<Ticket, SclError> {
        self.submit_optimized_deadline(tenant, key, plan, reg, input, None)
    }

    /// [`Serve::submit_optimized`] with an absolute deadline attached —
    /// the same propagation contract as
    /// [`Serve::submit_keyed_deadline`].
    pub fn submit_optimized_deadline(
        &mut self,
        tenant: TenantId,
        key: &str,
        plan: &Skel<'_, scl_core::ParArray<i64>, scl_core::ParArray<i64>>,
        reg: &'static Registry,
        input: scl_core::ParArray<i64>,
        deadline: Option<Instant>,
    ) -> Result<Ticket, SclError> {
        let input = self.check_input(input)?;
        let eager_fallback = |srv: &mut Self, input| {
            // outside the fusable/lowerable fragment: `run_optimized`
            // falls back to an eager run, and so does the service
            srv.eager_run(tenant, input, deadline, |scl, input| plan.run(scl, input))
        };
        let Some(fp) = plan.fingerprint() else {
            return Ok(eager_fallback(self, input));
        };
        let fp = salt_key(fp, "optimized", key);
        // a cache hit pays only the fingerprint: lowering (an O(plan) IR
        // clone plus symbol validation) is deferred to the miss path —
        // the hit's structurally-equal predecessor already lowered. An
        // entry whose graph a crash tore down is *not* a ready hit: it
        // needs this submission's plan to rebuild, so it takes the
        // lowering path below (quarantined entries never build at all).
        let hit_ready = self
            .cache
            .get(&fp)
            .is_some_and(|e| e.exec.is_some() || e.quarantined);
        if hit_ready {
            let ticket = self.mint_ticket(tenant);
            self.enqueue(fp, ticket, tenant, input, deadline, || {
                unreachable!("live or quarantined entry checked above; enqueue never builds here")
            });
            return Ok(ticket);
        }
        match plan.lower(reg) {
            Some(expr) => {
                let ticket = self.mint_ticket(tenant);
                self.enqueue(fp, ticket, tenant, input, deadline, move || {
                    let (opt, _log) = optimize(expr, reg);
                    let raised = Skel::from_expr(&opt, reg)
                        .expect("optimize preserves the array→array shape");
                    (raised, /* fused_charging = */ true)
                });
                Ok(ticket)
            }
            None => Ok(eager_fallback(self, input)),
        }
    }
}

/// Salt a fingerprint with the submission mode and the caller's cache
/// key, so plain and optimized graphs of one plan never collide and
/// caller keys stay namespaced.
fn salt_key(fp: PlanFingerprint, mode: &str, key: &str) -> PlanFingerprint {
    let fp = fp.with_salt(mode);
    if key.is_empty() {
        fp
    } else {
        fp.with_salt(key)
    }
}

#[cfg(test)]
mod tests;
