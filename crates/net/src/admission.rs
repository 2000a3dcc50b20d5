//! Depth-capped admission with load shedding, plus per-tenant token buckets.
//!
//! Connection reader threads push decoded submissions here; the single
//! service thread pops them in batches. The queue is deliberately the
//! *only* place requests wait unboundedly long under overload, and it is
//! bounded — beyond the cap the configured [`ShedPolicy`] decides who
//! pays: the newest request (reject-new: predictable, favours work
//! already queued) or the oldest (shed-oldest: favours fresh work, keeps
//! queueing delay bounded; the victim still receives a typed `Shed`
//! error, never a hang).

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::frame::Mode;

/// Who is refused when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Evict the oldest queued request (it gets a typed `Shed` error) and
    /// admit the newcomer. Bounds queueing delay under sustained
    /// overload.
    ShedOldest,
    /// Refuse the newcomer with `QueueFull`; queued work is never
    /// disturbed.
    RejectNew,
}

/// The work carried by an admitted submission.
#[derive(Debug, Clone)]
pub enum JobBody {
    /// Plan source to parse and compile server-side.
    Source {
        /// Plain or optimize-then-execute.
        mode: Mode,
        /// Plan text in the `scl-transform` grammar.
        source: String,
        /// Caller cache key.
        key: String,
        /// One `i64` per partition.
        payload: Vec<i64>,
    },
    /// A handle naming a previously registered (mode, key, source).
    Handle {
        /// The handle from an earlier result.
        handle: u64,
        /// One `i64` per partition.
        payload: Vec<i64>,
    },
}

/// One admitted request: who sent it, what to run, where the encoded
/// reply frame goes, and when it entered the queue (the latency clock).
#[derive(Debug)]
pub struct Job {
    /// Index into the server's tenant table.
    pub tenant: u32,
    /// What to run.
    pub body: JobBody,
    /// Channel back to the owning connection's reader thread, which is
    /// blocked waiting for exactly one encoded reply frame.
    pub reply: mpsc::Sender<Vec<u8>>,
    /// When the request was admitted — end-to-end service latency is
    /// measured from here.
    pub enqueued: Instant,
    /// Absolute deadline (from the wire `deadline_ms`); expired jobs are
    /// shed from a full queue before any live work pays.
    pub deadline: Option<Instant>,
}

/// A request evicted by [`Admission::push`] to make room. `expired`
/// distinguishes dead-on-arrival work (answer `DeadlineExceeded`) from
/// live work shed under overload (answer `Shed`).
#[derive(Debug)]
pub struct Victim {
    /// The evicted request; its reader thread still waits on `reply`.
    pub job: Job,
    /// Whether the victim was past its deadline (shed preferentially).
    pub expired: bool,
}

/// Why a push was refused outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Queue at capacity under [`ShedPolicy::RejectNew`].
    QueueFull,
    /// The server is draining; no new work is admitted.
    Draining,
}

struct Q {
    jobs: VecDeque<Job>,
    draining: bool,
}

/// The bounded, sheddable admission queue shared by all connection
/// threads (producers) and the service thread (consumer).
pub struct Admission {
    inner: Mutex<Q>,
    ready: Condvar,
    capacity: usize,
    policy: ShedPolicy,
}

impl Admission {
    /// A queue holding at most `capacity` requests (clamped to ≥ 1),
    /// shedding per `policy` beyond that.
    pub fn new(capacity: usize, policy: ShedPolicy) -> Admission {
        Admission {
            inner: Mutex::new(Q {
                jobs: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            policy,
        }
    }

    /// Admit `job`. `Ok(None)` means queued within bounds; `Ok(Some(v))`
    /// means the queue was full and `v` was evicted to make room — the
    /// caller must answer it (its connection thread is blocked on that
    /// reply). A full queue sheds already-dead work first: a queued
    /// request past its deadline can never produce a useful reply, so it
    /// pays before any live request does, under **either** policy.
    pub fn push(&self, job: Job) -> Result<Option<Victim>, AdmitError> {
        let mut q = self.inner.lock().unwrap();
        if q.draining {
            return Err(AdmitError::Draining);
        }
        let victim = if q.jobs.len() >= self.capacity {
            let now = Instant::now();
            if let Some(i) = q
                .jobs
                .iter()
                .position(|j| j.deadline.is_some_and(|d| now >= d))
            {
                q.jobs.remove(i).map(|job| Victim { job, expired: true })
            } else {
                match self.policy {
                    ShedPolicy::RejectNew => return Err(AdmitError::QueueFull),
                    ShedPolicy::ShedOldest => q.jobs.pop_front().map(|job| Victim {
                        job,
                        expired: false,
                    }),
                }
            }
        } else {
            None
        };
        q.jobs.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(victim)
    }

    /// Pop up to `max` jobs, waiting up to `wait` for the first one.
    /// Returns an empty batch on timeout (the service thread uses the
    /// idle beat for its manager tick).
    pub fn pop_batch(&self, max: usize, wait: Duration) -> Vec<Job> {
        let mut q = self.inner.lock().unwrap();
        if q.jobs.is_empty() {
            let (guard, _timeout) = self.ready.wait_timeout(q, wait).unwrap();
            q = guard;
        }
        let take = q.jobs.len().min(max.max(1));
        q.jobs.drain(..take).collect()
    }

    /// Stop admitting: every later [`Admission::push`] fails with
    /// [`AdmitError::Draining`]. Already-queued jobs stay queued.
    pub fn drain(&self) {
        self.inner.lock().unwrap().draining = true;
        self.ready.notify_all();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// Requests currently waiting.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }
}

/// A classic token bucket: `rate` tokens/second refill up to `burst`;
/// each admitted request takes one token. `rate == 0` disables limiting.
#[derive(Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second, holding at most
    /// `burst` (clamped to ≥ 1 when limiting is on). Starts full.
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        let burst = if rate > 0.0 { burst.max(1.0) } else { burst };
        TokenBucket {
            rate: rate.max(0.0),
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// Take one token at `now`; `false` means rate-limited.
    pub fn try_take(&mut self, now: Instant) -> bool {
        if self.rate == 0.0 {
            return true;
        }
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// After a failed [`TokenBucket::try_take`]: how long until the
    /// bucket refills enough to admit one request. [`Duration::ZERO`]
    /// when unlimited or a token is already available.
    pub fn retry_after(&self) -> Duration {
        if self.rate == 0.0 || self.tokens >= 1.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64((1.0 - self.tokens) / self.rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: u32) -> (Job, mpsc::Receiver<Vec<u8>>) {
        job_deadline(tenant, None)
    }

    fn job_deadline(tenant: u32, deadline: Option<Instant>) -> (Job, mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                tenant,
                body: JobBody::Handle {
                    handle: 0,
                    payload: vec![1],
                },
                reply: tx,
                enqueued: Instant::now(),
                deadline,
            },
            rx,
        )
    }

    #[test]
    fn reject_new_refuses_at_capacity() {
        let q = Admission::new(2, ShedPolicy::RejectNew);
        let (a, _ra) = job(0);
        let (b, _rb) = job(1);
        let (c, _rc) = job(2);
        assert!(matches!(q.push(a), Ok(None)));
        assert!(matches!(q.push(b), Ok(None)));
        assert_eq!(q.push(c).unwrap_err(), AdmitError::QueueFull);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn shed_oldest_evicts_the_head_and_admits_the_newcomer() {
        let q = Admission::new(2, ShedPolicy::ShedOldest);
        let (a, _ra) = job(0);
        let (b, _rb) = job(1);
        let (c, _rc) = job(2);
        q.push(a).unwrap();
        q.push(b).unwrap();
        let victim = q.push(c).unwrap().expect("oldest is shed");
        assert_eq!(victim.job.tenant, 0, "FIFO head pays");
        assert!(!victim.expired, "live work shed under overload");
        let batch = q.pop_batch(10, Duration::from_millis(1));
        let tenants: Vec<u32> = batch.iter().map(|j| j.tenant).collect();
        assert_eq!(tenants, vec![1, 2]);
    }

    #[test]
    fn draining_refuses_new_work_but_keeps_the_backlog() {
        let q = Admission::new(4, ShedPolicy::RejectNew);
        let (a, _ra) = job(0);
        q.push(a).unwrap();
        q.drain();
        let (b, _rb) = job(1);
        assert_eq!(q.push(b).unwrap_err(), AdmitError::Draining);
        assert_eq!(q.depth(), 1, "queued work survives the drain cut");
    }

    #[test]
    fn full_queue_sheds_expired_work_before_live_work() {
        let past = Some(Instant::now() - Duration::from_millis(1));
        // reject-new: normally refuses the newcomer, but dead work pays
        // first when any queued request is past its deadline
        let q = Admission::new(2, ShedPolicy::RejectNew);
        let (a, _ra) = job(0);
        let (b, _rb) = job_deadline(1, past);
        let (c, _rc) = job(2);
        q.push(a).unwrap();
        q.push(b).unwrap();
        let v = q.push(c).unwrap().expect("expired job shed, newcomer in");
        assert_eq!(v.job.tenant, 1);
        assert!(v.expired);
        let tenants: Vec<u32> = q
            .pop_batch(10, Duration::from_millis(1))
            .iter()
            .map(|j| j.tenant)
            .collect();
        assert_eq!(tenants, vec![0, 2], "live work undisturbed");

        // shed-oldest: the expired job pays even when it isn't the head
        let q = Admission::new(2, ShedPolicy::ShedOldest);
        let (a, _ra) = job(0);
        let (b, _rb) = job_deadline(1, past);
        let (c, _rc) = job(2);
        q.push(a).unwrap();
        q.push(b).unwrap();
        let v = q.push(c).unwrap().unwrap();
        assert_eq!(v.job.tenant, 1, "dead mid-queue job before the live head");
        assert!(v.expired);
    }

    #[test]
    fn retry_after_reflects_the_refill_rate() {
        let mut tb = TokenBucket::new(10.0, 1.0);
        let t0 = Instant::now();
        assert!(tb.try_take(t0));
        assert_eq!(
            tb.retry_after(),
            Duration::from_millis(100),
            "1 token at 10/s"
        );
        assert!(!tb.try_take(t0));
        assert!(tb.retry_after() > Duration::ZERO);
        // unlimited buckets never ask the client to wait
        let open = TokenBucket::new(0.0, 0.0);
        assert_eq!(open.retry_after(), Duration::ZERO);
    }

    #[test]
    fn token_bucket_limits_then_refills() {
        let mut tb = TokenBucket::new(10.0, 2.0);
        let t0 = Instant::now();
        assert!(tb.try_take(t0));
        assert!(tb.try_take(t0));
        assert!(!tb.try_take(t0), "burst spent");
        // 100ms at 10/s refills one token
        assert!(tb.try_take(t0 + Duration::from_millis(150)));
        assert!(!tb.try_take(t0 + Duration::from_millis(151)));
        // rate 0 disables limiting entirely
        let mut open = TokenBucket::new(0.0, 0.0);
        for _ in 0..100 {
            assert!(open.try_take(Instant::now()));
        }
    }
}
