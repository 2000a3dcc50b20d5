#![warn(missing_docs)]
//! # scl-exec — execution substrate for SCL skeletons
//!
//! The paper's skeletons were "implemented in a problem independent manner"
//! as templates over Fortran + MPI. In this reproduction the equivalent
//! substrate is this crate: a small, from-scratch threaded runtime (no
//! `rayon`) that the skeleton layer uses to apply sequential base-language
//! fragments to the partitions of a distributed array — really in parallel
//! when the host has cores to spare, or sequentially for deterministic
//! debugging.
//!
//! Three building blocks are provided:
//!
//! * [`par_map`] / [`par_map_indexed`] — scoped, self-scheduling parallel map
//!   over a slice, preserving output order and propagating worker panics.
//!   This is the *eager* path: every skeleton invocation spawns (and joins)
//!   its own scoped workers.
//! * [`ThreadPool`] — a persistent pool for `'static` jobs with joinable
//!   [`JobHandle`]s.
//! * [`par_pipeline`] — the *fused* path: carry a batch of items through a
//!   whole per-item stage chain on a persistent [`ThreadPool`], so a run of
//!   fused plan stages costs one dispatch instead of one thread-spawn per
//!   skeleton, and each partition stays resident on one worker with no
//!   materialised intermediates between stages.
//! * [`par_permute`] / [`par_concat`] / [`par_scatter`] — the *zero-copy
//!   communication* path: move cells along a routing table, move-concatenate
//!   parts, and move-split a vector into contiguous ranges, all on the
//!   persistent pool with no clones. These back the owned communication
//!   skeletons (`total_exchange` bucket transpose, `gather` concat,
//!   `partition` scatter) when the cost model says the payload justifies
//!   fanning out.
//!
//! For *streaming* execution (the `scl-stream` crate) this crate ships
//! one transport: a cache-padded, lock-free SPSC ring ([`ring`],
//! [`spsc`]) with spin-then-park waiting. A farm gives each replica a
//! private ring in and a private ring out, so every link has exactly one
//! producer and one consumer and the replica loop takes no lock.
//! [`StealRange`] ([`deque`]) holds the per-worker stealing deques under
//! [`par_pipeline`]'s dispatch.
//!
//! When several such runtimes share one process — a multi-tenant plan
//! service running many graphs against one machine — [`ThreadBudget`]
//! accounts for the host-wide thread capacity: consumers claim
//! [`BudgetLease`]s and cap their farm widths at the grant, keeping the
//! sum of *active* replicas across all tenants within the host budget
//! whenever capacity is claimable. The budget accounts rather than
//! enforces: a consumer that chooses to run after an empty grant (as a
//! serving layer may, preferring admission over stalling) does so at
//! minimum width, outside the accounted total.
//!
//! An [`ExecPolicy`] selects between sequential, threaded, and
//! cost-model-driven execution and is threaded through `scl-core`'s context
//! type. Host parallelism is queried once per process ([`host_threads`]) —
//! never per call. [`ExecPolicy::from_env`] reads the `SCL_EXEC_POLICY`
//! pin the CI matrix sets, erroring (never silently falling back) on
//! unrecognised values.

mod backoff;
pub mod budget;
pub mod deque;
pub mod policy;
pub mod pool;
pub mod scope;
pub mod spsc;

pub use budget::{BudgetLease, ThreadBudget};
pub use deque::StealRange;
pub use policy::{host_threads, ExecPolicy, POLICY_ENV_VAR};
pub use pool::{JobHandle, ThreadPool};
pub use scope::{
    par_concat, par_for_each, par_map, par_map_indexed, par_permute, par_pipeline, par_scatter,
};
pub use spsc::{ring, SpscReceiver, SpscSender, TryRecv};
