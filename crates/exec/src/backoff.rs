//! Spin-then-park backoff: the waiting discipline of the SPSC ring.
//!
//! A lock-free ring has no condvar to sleep on, so a blocked side must
//! decide how to wait. The classic ladder (FastFlow, crossbeam) is
//!
//! 1. **spin** a few exponentially growing rounds of [`std::hint::spin_loop`]
//!    — the other side is usually mid-operation and the wait is tens of
//!    nanoseconds; never spin on a 1-core host (the other side *cannot* be
//!    running — see [`host_threads`]);
//! 2. **yield** the timeslice a few times — cheap on an oversubscribed
//!    host, and on one core it is exactly what hands the CPU to the peer;
//! 3. **park** the thread ([`std::thread::park_timeout`]) after registering
//!    in a `ParkSlot` so the peer's next operation wakes it. The timeout
//!    is a pure safety net — the wake protocol below is lossless — so it
//!    can be long without costing latency.
//!
//! The park/wake protocol is the standard Dekker-style handshake: the
//! waiter publishes `waiting = true` (a sequentially consistent store),
//! re-checks the queue condition, and only then parks; the waker makes the
//! condition true, issues a `fence(SeqCst)`, and reads `waiting`. The
//! two SeqCst points guarantee at least one side sees the other, so a wake
//! is never lost.

use crate::host_threads;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Duration;

/// Exponential-spin rounds before yielding (skipped entirely on one core).
const SPIN_LIMIT: u32 = 6;
/// Yield rounds after spinning, before the caller should park.
const YIELD_LIMIT: u32 = 4;

/// The spin-then-yield ladder; see the [module docs](self).
///
/// Call [`Backoff::snooze`] once per failed attempt: it burns an
/// exponentially growing spin (or yields), and returns `true` once the
/// caller should stop burning CPU and park on its `ParkSlot`.
#[derive(Debug)]
pub(crate) struct Backoff {
    step: u32,
    spin_limit: u32,
}

impl Backoff {
    /// A fresh ladder, sized to the host: multi-core hosts spin first,
    /// a 1-core host goes straight to yielding.
    pub(crate) fn new() -> Backoff {
        Backoff {
            step: 0,
            spin_limit: if host_threads() > 1 { SPIN_LIMIT } else { 0 },
        }
    }

    /// Back to the bottom of the ladder (call after real progress).
    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }

    /// One failed attempt: spin or yield, returning `true` when the ladder
    /// is exhausted and the caller should park instead.
    pub(crate) fn snooze(&mut self) -> bool {
        if self.step < self.spin_limit {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
            self.step += 1;
            false
        } else if self.step < self.spin_limit + YIELD_LIMIT {
            std::thread::yield_now();
            self.step += 1;
            false
        } else {
            true
        }
    }
}

/// One side's parking place on a lock-free queue: a published `waiting`
/// flag plus the parked thread's handle. The mutex is slow-path only —
/// the hot path reads `waiting` (a plain load behind a SeqCst fence) and
/// touches nothing else.
#[derive(Default, Debug)]
pub(crate) struct ParkSlot {
    waiting: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

/// Safety-net park bound: with the lossless wake protocol this never
/// matters for liveness, it only caps the damage of a future bug.
pub(crate) const PARK_SAFETY: Duration = Duration::from_millis(100);

impl ParkSlot {
    /// Publish intent to park. The caller MUST re-check its wait condition
    /// after this (the SeqCst store orders the re-check after the
    /// publication) and skip [`ParkSlot::park`] if the condition cleared.
    pub(crate) fn prepare(&self) {
        *self.thread.lock().expect("poisoned park slot") = Some(std::thread::current());
        self.waiting.store(true, Ordering::SeqCst);
    }

    /// Park for at most `timeout` (spurious wakes are fine — callers loop).
    pub(crate) fn park(&self, timeout: Duration) {
        std::thread::park_timeout(timeout);
    }

    /// Withdraw the parked state (call after waking, before retrying).
    pub(crate) fn clear(&self) {
        self.waiting.store(false, Ordering::SeqCst);
    }

    /// Hot-path probe: is anyone (possibly about to be) parked here?
    /// Callers must order this load after their condition-making store
    /// with a `fence(SeqCst)`.
    pub(crate) fn is_waiting(&self) -> bool {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Wake the parked thread, if any. Cheap when nobody waits (the caller
    /// gates on [`ParkSlot::is_waiting`]).
    pub(crate) fn wake(&self) {
        if self.waiting.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("poisoned park slot").take() {
                t.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ladder_eventually_asks_for_park() {
        let mut b = Backoff::new();
        let mut steps = 0;
        while !b.snooze() {
            steps += 1;
            assert!(steps < 64, "ladder never exhausted");
        }
        b.reset();
        assert!(!b.snooze(), "reset restarts the ladder");
    }

    #[test]
    fn park_slot_wakes_a_parked_thread() {
        let slot = Arc::new(ParkSlot::default());
        let s2 = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || {
            s2.prepare();
            s2.park(Duration::from_secs(10));
            s2.clear();
        });
        // spin until the flag is published, then wake
        while !slot.is_waiting() {
            std::thread::yield_now();
        }
        slot.wake();
        waiter.join().unwrap(); // returns promptly, not after 10s
    }

    #[test]
    fn wake_without_waiter_is_a_noop() {
        let slot = ParkSlot::default();
        slot.wake();
        assert!(!slot.is_waiting());
    }
}
