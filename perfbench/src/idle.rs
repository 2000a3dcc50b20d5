//! Keeps every host CPU out of its idle state while a run measures.
//!
//! On a virtual machine a halted vCPU can take milliseconds to wake, and
//! that hypervisor noise swamps sub-millisecond request latencies, which
//! hand each request across several threads. One spinning thread per CPU
//! under the `SCHED_IDLE` policy keeps the vCPUs running without taking
//! time from any other thread: the kernel runs a `SCHED_IDLE` thread only
//! when nothing else on that CPU is runnable. Where the policy cannot be
//! set, no spinner runs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// Move the calling thread to `SCHED_IDLE`; false when the kernel refuses.
fn demote_self() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` is the C library function of that name;
    // pid 0 names the calling thread, and `param` is an initialised
    // `struct sched_param` that outlives the call, which only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The spinners; dropping the hold stops and joins them.
pub struct IdleHold {
    stop: Arc<AtomicBool>,
    running: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleHold {
    /// Start one spinner per CPU.
    pub fn start(cpus: usize) -> IdleHold {
        let stop = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(0));
        let threads = (0..cpus)
            .filter_map(|_| {
                let (stop, running) = (Arc::clone(&stop), Arc::clone(&running));
                std::thread::Builder::new()
                    .name("perfbench-idle".to_string())
                    .spawn(move || {
                        if !demote_self() {
                            return; // never spin at normal priority
                        }
                        running.fetch_add(1, Ordering::SeqCst);
                        // yield at once to any thread that yields to us, so a
                        // spin-then-yield wait elsewhere gets its CPU back
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                    })
                    .ok()
            })
            .collect();
        IdleHold {
            stop,
            running,
            threads,
        }
    }

    /// Spinners that reached `SCHED_IDLE` and are spinning.
    pub fn running(&self) -> usize {
        self.running.load(Ordering::SeqCst)
    }
}

impl Drop for IdleHold {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
