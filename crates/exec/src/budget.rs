//! A shared host-thread budget with leased capacity.
//!
//! Persistent runtimes that coexist in one process — several streaming
//! operator graphs, a multi-tenant plan service sharding one machine
//! across clients — all want host threads, and the host has a fixed
//! number. [`ThreadBudget`] is the hand-off point: one shared counter of
//! total capacity from which each consumer **claims a lease**
//! ([`ThreadBudget::try_claim`]) and to which the lease returns its
//! capacity on drop. Nothing here spawns or parks threads; the budget only
//! *accounts* — enforcement is the consumer's business (a streaming graph
//! caps its farm widths at its lease, a scheduler recomputes shares
//! from `total` and `in_use`).
//!
//! Claims are best-effort and non-blocking: a claim asks for a preferred
//! width and a minimum, and receives whatever slice of the remaining
//! budget fits (or `None` when even the minimum does not). That favours
//! admission over fairness — fair *shares* are a policy the caller
//! computes (see `scl-serve`'s shard scheduler); the budget just keeps the
//! process-wide total honest.
//!
//! The total itself is mutable at runtime ([`ThreadBudget::resize`]): an
//! autonomic manager narrowing a service's host footprint shrinks the
//! budget, and the contraction takes effect *as leases return* — capacity
//! already out on leases is never revoked (replicas already working
//! would otherwise be cut off mid-item). While `in_use > total` the budget
//! is **over-committed**: `available()` reads 0, every claim is refused,
//! and the overshoot drains as leases drop. The introspection gauges —
//! [`ThreadBudget::outstanding`], [`ThreadBudget::peak_in_use`],
//! [`ThreadBudget::is_overcommitted`] — exist so a manager can observe
//! that contention instead of guessing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared pool of host-thread capacity; see the [module docs](self).
#[derive(Debug)]
pub struct ThreadBudget {
    total: AtomicUsize,
    used: AtomicUsize,
    /// Live leases (claimed, not yet dropped).
    leases: AtomicUsize,
    /// High-water mark of `used` since construction.
    peak: AtomicUsize,
}

impl ThreadBudget {
    /// A budget of `total` threads (at least 1), ready to share.
    pub fn new(total: usize) -> Arc<ThreadBudget> {
        Arc::new(ThreadBudget {
            total: AtomicUsize::new(total.max(1)),
            used: AtomicUsize::new(0),
            leases: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    /// Current total capacity (see [`ThreadBudget::resize`]).
    pub fn total(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Capacity currently out on leases.
    pub fn in_use(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Capacity not yet leased (0 while over-committed after a shrink).
    pub fn available(&self) -> usize {
        self.total().saturating_sub(self.in_use())
    }

    /// Live leases right now — claims that have not yet dropped.
    pub fn outstanding(&self) -> usize {
        self.leases.load(Ordering::Relaxed)
    }

    /// High-water mark of [`ThreadBudget::in_use`] since construction —
    /// how hard the budget has ever been pressed, for managers deciding
    /// whether contention is real or historical.
    pub fn peak_in_use(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Whether leased capacity currently exceeds the total — only
    /// possible after [`ThreadBudget::resize`] shrank the budget below
    /// what was already out on leases.
    pub fn is_overcommitted(&self) -> bool {
        self.in_use() > self.total()
    }

    /// Retarget the total capacity (clamped to at least 1). Growing takes
    /// effect immediately. Shrinking **never revokes** capacity already
    /// out on leases: outstanding leases stay valid and return their full
    /// grant on drop; until enough have returned, the budget reads
    /// over-committed ([`ThreadBudget::is_overcommitted`]), `available()`
    /// is 0, and claims are refused. Returns the previous total.
    pub fn resize(&self, new_total: usize) -> usize {
        self.total.swap(new_total.max(1), Ordering::AcqRel)
    }

    /// Claim between `min` and `want` threads (both at least 1; `want` is
    /// raised to `min` if below it): the lease receives `want` when it
    /// fits, otherwise whatever remains if that still covers `min`, and
    /// `None` when even `min` is unavailable. Never blocks.
    pub fn try_claim(self: &Arc<ThreadBudget>, want: usize, min: usize) -> Option<BudgetLease> {
        let min = min.max(1);
        let want = want.max(min);
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let avail = self.total().saturating_sub(cur);
            let grant = want.min(avail);
            if grant < min {
                return None;
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + grant,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.leases.fetch_add(1, Ordering::Relaxed);
                    self.peak.fetch_max(cur + grant, Ordering::Relaxed);
                    return Some(BudgetLease {
                        granted: grant,
                        budget: Arc::clone(self),
                    });
                }
                Err(observed) => cur = observed,
            }
        }
    }
}

/// A slice of a [`ThreadBudget`], returned to the budget on drop.
#[derive(Debug)]
pub struct BudgetLease {
    granted: usize,
    budget: Arc<ThreadBudget>,
}

impl BudgetLease {
    /// How many threads this lease holds.
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// Shrink the lease to `keep` threads (no-op if already at or below),
    /// returning the difference to the budget immediately — how a consumer
    /// hands capacity back mid-flight when a scheduler narrows its share.
    pub fn shrink_to(&mut self, keep: usize) {
        let keep = keep.max(1).min(self.granted);
        let give_back = self.granted - keep;
        if give_back > 0 {
            self.granted = keep;
            self.budget.used.fetch_sub(give_back, Ordering::AcqRel);
        }
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        self.budget.used.fetch_sub(self.granted, Ordering::AcqRel);
        self.budget.leases.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_grant_within_the_total() {
        let b = ThreadBudget::new(4);
        assert_eq!((b.total(), b.in_use(), b.available()), (4, 0, 4));
        let l1 = b.try_claim(3, 1).unwrap();
        assert_eq!(l1.granted(), 3);
        // 1 left: a want of 3 degrades to the remainder when min allows
        let l2 = b.try_claim(3, 1).unwrap();
        assert_eq!(l2.granted(), 1);
        assert_eq!(b.available(), 0);
        // nothing left: even min=1 is refused
        assert!(b.try_claim(1, 1).is_none());
        drop(l1);
        assert_eq!(b.available(), 3);
        drop(l2);
        assert_eq!(b.available(), 4);
    }

    #[test]
    fn min_is_respected() {
        let b = ThreadBudget::new(4);
        let _l = b.try_claim(3, 3).unwrap();
        // 1 remaining < min 2: refused rather than degraded
        assert!(b.try_claim(4, 2).is_none());
        // want below min is raised to min
        let l = b.try_claim(0, 1).unwrap();
        assert_eq!(l.granted(), 1);
    }

    #[test]
    fn total_is_at_least_one() {
        let b = ThreadBudget::new(0);
        assert_eq!(b.total(), 1);
        assert!(b.try_claim(1, 1).is_some() || b.available() == 0);
    }

    #[test]
    fn shrink_returns_capacity_early() {
        let b = ThreadBudget::new(8);
        let mut l = b.try_claim(6, 1).unwrap();
        l.shrink_to(2);
        assert_eq!(l.granted(), 2);
        assert_eq!(b.available(), 6);
        // shrinking below 1 clamps, growing is not a thing
        l.shrink_to(0);
        assert_eq!(l.granted(), 1);
        l.shrink_to(5);
        assert_eq!(l.granted(), 1);
        drop(l);
        assert_eq!(b.available(), 8);
    }

    #[test]
    fn lease_and_peak_gauges_track_claims() {
        let b = ThreadBudget::new(6);
        assert_eq!((b.outstanding(), b.peak_in_use()), (0, 0));
        let l1 = b.try_claim(4, 1).unwrap();
        let l2 = b.try_claim(4, 1).unwrap();
        assert_eq!(b.outstanding(), 2);
        assert_eq!(b.peak_in_use(), 6);
        drop(l1);
        drop(l2);
        assert_eq!(b.outstanding(), 0);
        assert_eq!(b.in_use(), 0);
        // the peak is a high-water mark, not a gauge
        assert_eq!(b.peak_in_use(), 6);
    }

    // ---- regression: resize/shrink below outstanding leases ---------------
    //
    // Pinned behaviour: shrinking the total below what is already leased
    // must (a) never revoke or corrupt live leases, (b) refuse all new
    // claims while over-committed, (c) drain back to consistency as the
    // old leases drop — with no underflow on the used counter.

    #[test]
    fn shrink_below_outstanding_leases_never_revokes_or_underflows() {
        let b = ThreadBudget::new(8);
        let l1 = b.try_claim(5, 1).unwrap();
        let l2 = b.try_claim(3, 1).unwrap();
        assert_eq!(b.in_use(), 8);

        // shrink to 2 while 8 are out on leases
        assert_eq!(b.resize(2), 8);
        assert_eq!(b.total(), 2);
        assert!(b.is_overcommitted());
        assert_eq!(b.available(), 0, "no capacity while over-committed");
        assert!(b.try_claim(1, 1).is_none(), "claims refused");
        // the live leases still hold their full grants
        assert_eq!((l1.granted(), l2.granted()), (5, 3));

        // first lease returns: still over-committed (3 > 2)
        drop(l1);
        assert_eq!(b.in_use(), 3);
        assert!(b.is_overcommitted());
        assert!(b.try_claim(1, 1).is_none());

        // second returns: consistent again, capacity is the new total
        drop(l2);
        assert_eq!(b.in_use(), 0, "no underflow after draining");
        assert!(!b.is_overcommitted());
        assert_eq!(b.available(), 2);
        let l = b.try_claim(4, 1).unwrap();
        assert_eq!(l.granted(), 2, "grants respect the shrunken total");
    }

    #[test]
    fn lease_shrink_to_interacts_safely_with_budget_resize() {
        let b = ThreadBudget::new(8);
        let mut l = b.try_claim(6, 1).unwrap();
        b.resize(3); // over-committed: 6 > 3
        assert!(b.is_overcommitted());
        // handing capacity back mid-flight relieves the overshoot
        l.shrink_to(2);
        assert_eq!(b.in_use(), 2);
        assert!(!b.is_overcommitted());
        assert_eq!(b.available(), 1);
        drop(l);
        assert_eq!(b.in_use(), 0);
        assert_eq!(b.available(), 3);
    }

    #[test]
    fn grow_takes_effect_immediately() {
        let b = ThreadBudget::new(2);
        let _l = b.try_claim(2, 1).unwrap();
        assert!(b.try_claim(1, 1).is_none());
        b.resize(6);
        let l2 = b.try_claim(8, 1).unwrap();
        assert_eq!(l2.granted(), 4, "grown headroom is claimable at once");
    }

    #[test]
    fn resize_churn_under_concurrency_stays_consistent() {
        let b = ThreadBudget::new(7);
        let joins: Vec<_> = (0..6)
            .map(|i| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for k in 0..200 {
                        if i == 0 {
                            // one thread churns the total between 2 and 9
                            b.resize(2 + (k % 8));
                        } else if let Some(lease) = b.try_claim(3, 1) {
                            assert!(lease.granted() >= 1 && lease.granted() <= 3);
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(b.in_use(), 0, "all leases returned, no underflow");
        assert_eq!(b.outstanding(), 0);
    }

    #[test]
    fn concurrent_claims_never_oversubscribe() {
        let b = ThreadBudget::new(7);
        let peak = Arc::new(AtomicUsize::new(0));
        let joins: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Some(lease) = b.try_claim(3, 1) {
                            peak.fetch_max(b.in_use(), Ordering::Relaxed);
                            assert!(lease.granted() >= 1 && lease.granted() <= 3);
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert!(peak.load(Ordering::Relaxed) <= 7, "budget oversubscribed");
        assert_eq!(b.in_use(), 0, "all leases returned");
        let hw = b.peak_in_use();
        assert!((1..=7).contains(&hw), "high-water mark in bounds: {hw}");
    }
}
