//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Kept in memory while the clients run and written out once at
//! the end, so recording costs a clock read and a push per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent == 0` marks a root (one job's whole
/// submit → result time); spans of one job share `job`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    /// Time `f` as a span named `name` under `parent` (0 for a root);
    /// `f` receives the new span's id to parent its own children.
    pub fn span<R>(
        &self,
        job: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            job,
            name,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line, tagged with `run`.
    pub fn write_jsonl(&self, out: &mut impl Write, run: &str) -> std::io::Result<()> {
        for s in self.spans() {
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Run `f` as a span when tracing, plainly otherwise — the untraced path
/// pays nothing.
pub fn traced<R>(
    log: Option<&SpanLog>,
    job: u64,
    parent: u64,
    name: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    match log {
        Some(log) => log.span(job, parent, name, f),
        None => f(0),
    }
}

/// Per span name: count, total duration and total self time (duration
/// minus the part of its interval its children cover), in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `span`.
fn covered_ns(intervals: &mut [(u64, u64)], span: &Span) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        let hi = hi.min(span.end_ns);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "job", 0, 100),
            span(2, 1, "submit", 10, 30),
            // Overlapping children count once.
            span(3, 1, "wait", 20, 60),
            span(4, 3, "inner", 25, 35),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], (1, 100, 100 - 50));
        assert_eq!(t["wait"], (1, 40, 30));
        assert_eq!(t["submit"], (1, 20, 20));
    }

    #[test]
    fn traced_records_only_when_on() {
        let log = SpanLog::default();
        let v = traced(Some(&log), 7, 0, "root", |id| {
            traced(Some(&log), 7, id, "child", |_| 5)
        });
        assert_eq!(v, 5);
        assert_eq!(traced(None, 7, 0, "off", |id| id), 0);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root.id);
        assert!(child.start_ns >= root.start_ns && child.end_ns <= root.end_ns);
    }
}
