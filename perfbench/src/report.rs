//! Result assembly: metrics, provenance, the final JSON line, and the
//! process-level measurements (peak RSS, gated allocation counting).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use scl_testkit::alloc::CountingAlloc;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 for a count or a single measurement).
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What one run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Provenance and informational figures, printed before the result.
    pub info: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failure or rejected check, in order.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        let p = p.into();
        if self.problems.len() < 20 {
            eprintln!("perfbench: {p}");
        }
        self.problems.push(p);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Provenance and informational figures as one JSON object.
pub fn info_line(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` from `<malloc.h>`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin the C allocator's mmap threshold at 1 MiB. Left adaptive, glibc
/// raises the threshold after the first large free and from then on keeps
/// large blocks in per-thread heaps, so the peak RSS of a run depends on
/// which thread freed what first: on `apps_batch` it spread by a quarter
/// between runs. Pinned, every block of 1 MiB or more is mapped and
/// unmapped on its own and the peak tracks live memory, for a few percent
/// of round time. Call before any other thread starts.
pub fn pin_mmap_threshold() -> bool {
    // SAFETY: `mallopt` is the C library function of that name; it takes
    // two plain integers, and is called here before any other thread of
    // this process exists, so no allocation races the change.
    unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) == 1 }
}

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Count allocations from now on (traced phases only).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted so far.
pub fn allocations() -> (u64, u64) {
    (
        scl_testkit::alloc::allocations(),
        scl_testkit::alloc::allocated_bytes(),
    )
}

/// The system allocator, counting through [`CountingAlloc`] while
/// [`count_allocations`] is on. Both paths allocate from [`System`], so a
/// block may be freed on either.
pub struct GatedAlloc;

// SAFETY: every call forwards its arguments unchanged to `System`, either
// directly or through `CountingAlloc`, which itself forwards to `System`
// after bumping its counters; so each block is allocated, resized and
// freed by the same underlying allocator with the caller's layout.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAlloc.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics.push(metric("p50_ms", 0.25, "ms", 3));
        let line = result_line(&o);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        o.problem("mismatch");
        assert!(result_line(&o).starts_with("{\"correct\": false"));
    }

    #[test]
    fn quoting_escapes_json_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
