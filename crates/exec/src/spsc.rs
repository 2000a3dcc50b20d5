//! A cache-padded, lock-free single-producer / single-consumer ring buffer
//! — the FastFlow-style link under every farm: the pump owns one sender
//! and one receiver per replica, each replica owns the other two ends.
//!
//! A farm lane has exactly one producer and one consumer, so the ring
//! needs no lock and no CAS, only two monotone indices and a fixed slot
//! array:
//!
//! * the **producer** owns `tail`: it writes the slot, then publishes with
//!   a `Release` store; its view of `head` is a cached copy, refreshed
//!   (one `Acquire` load) only when the ring *looks* full;
//! * the **consumer** owns `head`: it reads the slot after an `Acquire`
//!   load of `tail` observed the publication, then frees the slot with a
//!   `Release` store of `head + 1`; its view of `tail` is likewise cached;
//! * `head` and `tail` live on **separate cache lines**
//!   (`CachePadded`) so the two sides never false-share;
//! * indices grow monotonically and wrap modulo a power-of-two slot count
//!   (occupancy is bounded by the *requested* capacity, which need not be
//!   a power of two).
//!
//! Blocking sends/receives use spin-then-park backoff (a `Backoff` ladder
//! plus a Dekker-style park handshake, documented in `backoff.rs`): the
//! empty↔non-empty and full↔non-full transitions wake the parked peer,
//! so idle links cost nothing.
//!
//! Each end is `Send` but deliberately **not** `Clone` and not `Sync`:
//! the type system enforces the single-producer/single-consumer contract.
//! Dropping either end closes the ring: the consumer drains what was
//! published, then observes disconnection; the producer's sends fail.

use crate::backoff::{Backoff, ParkSlot, PARK_SAFETY};
use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Outcome of a non-blocking receive.
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecv<T> {
    /// An item was dequeued.
    Item(T),
    /// The ring is currently empty but open.
    Empty,
    /// The ring is closed and fully drained.
    Closed,
}

/// Pads-and-aligns to a 64-byte cache line so `head` and `tail` (and the
/// slot array) never share one — the producer's publishing store must not
/// invalidate the consumer's index line and vice versa.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Inner<T> {
    /// Slot array; length is `cap.next_power_of_two()`, indexed by
    /// `position & mask`. A slot is owned by the producer from
    /// `tail.store` − 1 back to `head`, by the consumer otherwise.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Requested capacity: occupancy never exceeds it.
    cap: usize,
    /// Next position to read. Written only by the consumer (`Release`),
    /// read by the producer (`Acquire`) to learn about freed slots.
    head: CachePadded<AtomicUsize>,
    /// Next position to write. Written only by the producer (`Release` —
    /// this is the publication of the slot contents), read by the
    /// consumer (`Acquire`).
    tail: CachePadded<AtomicUsize>,
    /// Close bit (either end). `SeqCst` so a close is never ordered after
    /// the wakes it must precede.
    closed: AtomicBool,
    /// Where a full-ring producer parks; woken by the consumer's pops.
    prod_park: ParkSlot,
    /// Where an empty-ring consumer parks; woken by the producer's pushes.
    cons_park: ParkSlot,
}

// SAFETY: the split into one sender and one receiver (each !Sync, neither
// Clone) guarantees at most one thread touches each index; slot accesses
// are handed over by the Release/Acquire index protocol documented above.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both ends are gone: drop whatever was published but not consumed.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut pos = head;
        while pos != tail {
            // SAFETY: positions `head..tail` were written and published by
            // the producer and never read by the consumer (a read advances
            // `head` past the slot), so each holds an initialised item that
            // nobody else will drop; `&mut self` means both ends are gone.
            unsafe { (*self.buf[pos & self.mask].get()).assume_init_drop() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// The producing end of an SPSC ring; see the [module docs](self).
pub struct SpscSender<T> {
    inner: Arc<Inner<T>>,
    /// Mirror of `inner.tail` (only we write it — no atomic load needed).
    tail: Cell<usize>,
    /// Cached consumer index; refreshed only when the ring looks full.
    head_cache: Cell<usize>,
}

/// The consuming end of an SPSC ring; see the [module docs](self).
pub struct SpscReceiver<T> {
    inner: Arc<Inner<T>>,
    /// Mirror of `inner.head` (only we write it).
    head: Cell<usize>,
    /// Cached producer index; refreshed only when the ring looks empty.
    tail_cache: Cell<usize>,
}

// SAFETY: each end may migrate between threads (sequentially — the Cells
// travel with it); it just can't be *shared*, which !Sync already forbids.
unsafe impl<T: Send> Send for SpscSender<T> {}
unsafe impl<T: Send> Send for SpscReceiver<T> {}

/// A fresh SPSC ring holding at most `cap` items (at least 1).
pub fn ring<T: Send>(cap: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let cap = cap.max(1);
    let slots = cap.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..slots)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        buf,
        mask: slots - 1,
        cap,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        prod_park: ParkSlot::default(),
        cons_park: ParkSlot::default(),
    });
    (
        SpscSender {
            inner: Arc::clone(&inner),
            tail: Cell::new(0),
            head_cache: Cell::new(0),
        },
        SpscReceiver {
            inner,
            head: Cell::new(0),
            tail_cache: Cell::new(0),
        },
    )
}

/// Why a non-blocking ring push failed.
enum PushErr<T> {
    Full(T),
    Closed(T),
}

impl<T: Send> SpscSender<T> {
    /// The capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }

    /// Current occupancy (racy gauge).
    pub fn len(&self) -> usize {
        len_of(&self.inner)
    }

    /// True when the gauge reads zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once either end closed (or dropped).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Close the ring: the consumer drains what is published, then
    /// observes disconnection; a parked peer is woken.
    pub fn close(&self) {
        close_inner(&self.inner);
    }

    fn push(&self, item: T) -> Result<(), PushErr<T>> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(PushErr::Closed(item));
        }
        let tail = self.tail.get();
        if tail.wrapping_sub(self.head_cache.get()) >= self.inner.cap {
            // looks full: refresh the cached consumer index
            self.head_cache
                .set(self.inner.head.0.load(Ordering::Acquire));
            if tail.wrapping_sub(self.head_cache.get()) >= self.inner.cap {
                return Err(PushErr::Full(item));
            }
        }
        // SAFETY: slot `tail` is producer-owned until the Release store
        // below publishes it; only this (single) producer writes tail.
        unsafe { (*self.inner.buf[tail & self.inner.mask].get()).write(item) };
        self.tail.set(tail.wrapping_add(1));
        self.inner
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        // StoreLoad point of the wake handshake: the publication above
        // must be globally visible before we probe the consumer's flag.
        fence(Ordering::SeqCst);
        if self.inner.cons_park.is_waiting() {
            self.inner.cons_park.wake();
        }
        Ok(())
    }

    /// Enqueue without blocking. `Err(item)` when full or closed.
    pub fn try_send(&self, item: T) -> Result<(), T> {
        self.push(item).map_err(|e| match e {
            PushErr::Full(x) | PushErr::Closed(x) => x,
        })
    }

    /// Enqueue, blocking (spin-then-park) while the ring is full.
    /// `Err(item)` if the ring closed.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut item = item;
        let mut backoff = Backoff::new();
        loop {
            match self.push(item) {
                Ok(()) => return Ok(()),
                Err(PushErr::Closed(x)) => return Err(x),
                Err(PushErr::Full(x)) => item = x,
            }
            if backoff.snooze() {
                let park = &self.inner.prod_park;
                park.prepare();
                // re-check under the published flag: a pop (or close)
                // after `prepare` is guaranteed to see it and wake us
                let head = self.inner.head.0.load(Ordering::SeqCst);
                self.head_cache.set(head);
                let full = self.tail.get().wrapping_sub(head) >= self.inner.cap;
                if full && !self.inner.closed.load(Ordering::SeqCst) {
                    park.park(PARK_SAFETY);
                }
                park.clear();
                backoff.reset();
            }
        }
    }
}

impl<T: Send> SpscReceiver<T> {
    /// The capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.inner.cap
    }

    /// Current occupancy (racy gauge).
    pub fn len(&self) -> usize {
        len_of(&self.inner)
    }

    /// True when the gauge reads zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once either end closed (or dropped).
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    /// Close the ring: a blocked producer fails with its item handed back.
    pub fn close(&self) {
        close_inner(&self.inner);
    }

    /// Dequeue without blocking.
    pub fn try_recv(&self) -> TryRecv<T> {
        let head = self.head.get();
        if self.tail_cache.get() == head {
            // looks empty: refresh the cached producer index
            let tail = self.inner.tail.0.load(Ordering::Acquire);
            self.tail_cache.set(tail);
            if tail == head {
                if !self.inner.closed.load(Ordering::SeqCst) {
                    return TryRecv::Empty;
                }
                // closed: one final reload so a close that raced a last
                // publication never swallows the item
                let tail = self.inner.tail.0.load(Ordering::Acquire);
                self.tail_cache.set(tail);
                if tail == head {
                    return TryRecv::Closed;
                }
            }
        }
        // SAFETY: the Acquire load of `tail` observed the publication of
        // slot `head`; only this (single) consumer advances head.
        let item = unsafe { (*self.inner.buf[head & self.inner.mask].get()).assume_init_read() };
        self.head.set(head.wrapping_add(1));
        self.inner
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        // StoreLoad point of the wake handshake (mirror of the push side).
        fence(Ordering::SeqCst);
        if self.inner.prod_park.is_waiting() {
            self.inner.prod_park.wake();
        }
        TryRecv::Item(item)
    }

    /// Dequeue, blocking (spin-then-park) while the ring is open and
    /// empty. `None` once the ring is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                TryRecv::Item(x) => return Some(x),
                TryRecv::Closed => return None,
                TryRecv::Empty => {}
            }
            if backoff.snooze() {
                self.park_empty();
                backoff.reset();
            }
        }
    }

    /// Park until the producer publishes or closes.
    fn park_empty(&self) {
        let park = &self.inner.cons_park;
        park.prepare();
        // re-check under the published flag: a push (or close) after
        // `prepare` is guaranteed to see it and wake us
        let tail = self.inner.tail.0.load(Ordering::SeqCst);
        self.tail_cache.set(tail);
        if tail == self.head.get() && !self.inner.closed.load(Ordering::SeqCst) {
            park.park(PARK_SAFETY);
        }
        park.clear();
    }
}

fn len_of<T>(inner: &Inner<T>) -> usize {
    let tail = inner.tail.0.load(Ordering::Acquire);
    let head = inner.head.0.load(Ordering::Acquire);
    tail.wrapping_sub(head).min(inner.cap)
}

fn close_inner<T>(inner: &Inner<T>) {
    inner.closed.store(true, Ordering::SeqCst);
    inner.prod_park.wake();
    inner.cons_park.wake();
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        close_inner(&self.inner);
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        close_inner(&self.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = ring::<u64>(4);
        assert_eq!(tx.capacity(), 4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.try_recv(), TryRecv::Item(1));
        assert_eq!(rx.try_recv(), TryRecv::Item(2));
        assert_eq!(rx.try_recv(), TryRecv::Empty);
    }

    #[test]
    fn capacity_is_the_requested_one_not_the_power_of_two() {
        let (tx, rx) = ring::<u8>(3); // slots rounded to 4, occupancy capped at 3
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        tx.try_send(3).unwrap();
        assert_eq!(tx.try_send(4), Err(4));
        assert_eq!(rx.try_recv(), TryRecv::Item(1));
        tx.try_send(4).unwrap();
    }

    #[test]
    fn close_drains_then_disconnects() {
        let (tx, rx) = ring::<&str>(4);
        tx.try_send("a").unwrap();
        tx.close();
        assert!(rx.is_closed());
        assert_eq!(tx.try_send("b"), Err("b"));
        assert_eq!(rx.try_recv(), TryRecv::Item("a"));
        assert_eq!(rx.try_recv(), TryRecv::Closed);
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropping_sender_closes_after_drain() {
        let (tx, rx) = ring::<u32>(4);
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropping_receiver_fails_blocked_sender() {
        let (tx, rx) = ring::<u32>(1);
        tx.try_send(0).unwrap();
        let sender = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(5));
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(1));
    }

    #[test]
    fn unconsumed_items_drop_exactly_once() {
        // heap payloads: a double-drop or leak aborts under the counting
        // allocator long before an assert would fire
        let (tx, rx) = ring::<String>(8);
        for i in 0..5 {
            tx.try_send(format!("item-{i}")).unwrap();
        }
        assert_eq!(rx.try_recv(), TryRecv::Item("item-0".to_string()));
        drop(rx);
        drop(tx); // 4 published-but-unconsumed strings drop with the ring
    }

    /// The two-thread soak: every item delivered
    /// exactly once, in order, across a ring much smaller than the
    /// stream, with both blocking paths (full producer, empty consumer)
    /// exercised continuously.
    #[test]
    fn two_thread_soak_delivers_everything_in_order() {
        const N: u64 = 200_000;
        let (tx, rx) = ring::<u64>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(i).expect("receiver alive");
            }
            // tx drops here: closes the ring
        });
        let mut expect = 0u64;
        while let Some(x) = rx.recv() {
            assert_eq!(x, expect, "out-of-order or duplicated delivery");
            expect += 1;
        }
        assert_eq!(expect, N, "lost items");
        producer.join().unwrap();
    }
}
