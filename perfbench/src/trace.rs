//! In-memory span recording around calls into the layers under test.
//!
//! Spans are recorded by the benchmark itself, around each public call
//! it makes into a crate; nothing inside the program is instrumented. A
//! span's self time is its duration minus the part of it that its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

/// A single-threaded span recorder. When disabled every call is a no-op.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Close the innermost open span.
    pub fn end(&mut self, open: Open) {
        self.end_as(open, None);
    }

    /// Close the innermost open span, renaming it when the call's outcome
    /// decides the name (a cache hit or miss).
    pub fn end_as(&mut self, open: Open, name: Option<&'static str>) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("end without an open span");
        assert_eq!(id, open.0, "spans must close innermost first");
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        if let Some(n) = name {
            span.name = n;
        }
    }

    /// Record a complete span measured elsewhere (a client call timed on
    /// another thread), as a root.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            start: at(start),
            end: at(end),
            parent: None,
            op,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: the length of the union of its children's intervals.
    fn child_cover(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        kids.into_iter()
            .map(|mut iv| {
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                covered
            })
            .collect()
    }

    /// Reject a trace whose children fall outside, or cover more than,
    /// their parent.
    pub fn validate(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans left open", self.stack.len()));
        }
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end || s.op != parent.op {
                    return Err(format!(
                        "span `{}` of op {} escapes its parent `{}`",
                        s.name, s.op, parent.name
                    ));
                }
            }
        }
        for (s, cover) in self.spans.iter().zip(self.child_cover()) {
            if cover > s.dur() {
                return Err(format!(
                    "children of `{}` (op {}) cover {cover} ns of its {} ns",
                    s.name,
                    s.op,
                    s.dur()
                ));
            }
        }
        Ok(())
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.child_cover())
            .map(|(s, cover)| s.dur().saturating_sub(cover))
            .collect()
    }

    /// Per span name: `(count, total self time in ns)`.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += t;
        }
        out
    }

    /// Durations, in nanoseconds, of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Mean self time, in microseconds, of the spans with this name (0
    /// when there are none).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_by_name().get(name) {
            Some(&(n, total)) if n > 0 => total as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Write every span as tab-separated text to
    /// `perfbench/out/spans-<workload>.tsv`, replacing the last traced
    /// run's file for that workload.
    pub fn write_out(&self, workload: &str) -> Result<(), String> {
        let path = format!("perfbench/out/spans-{workload}.tsv");
        self.write_tsv(std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{t}",
                s.name, s.op, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    fn tracer_of(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer_of(vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
        ]);
        t.validate().unwrap();
        // children cover [10,50) and [60,70): 50 ns of the root's 100
        assert_eq!(t.self_times(), vec![50, 20, 30, 10]);
    }

    #[test]
    fn escaping_children_are_rejected() {
        let t = tracer_of(vec![
            span("root", 0, 100, None),
            span("a", 90, 120, Some(0)),
        ]);
        assert!(t.validate().is_err());
    }

    #[test]
    fn nested_begin_end_records_parents() {
        let mut t = Tracer::new(true);
        let r = t.begin("root", 7);
        let c = t.begin("child", 7);
        t.end_as(c, Some("renamed"));
        t.end(r);
        t.validate().unwrap();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].name, "renamed");
        assert!(t.self_times()[0] <= t.spans()[0].dur());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let r = t.begin("root", 0);
        t.end(r);
        assert!(t.spans().is_empty());
    }
}
