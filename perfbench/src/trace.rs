//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The benchmark's client is one thread, so spans nest strictly: a span's
//! parent is the span open when it started, and its children never
//! overlap one another. A layer's self time is its span's duration minus
//! the durations of its children. Spans stay in memory and are written
//! out once, when the run ends. With tracing off, [`Tracer::span`] is a
//! plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, such as `engine.seal`.
    pub name: &'static str,
    /// Seconds from the tracer's origin.
    pub start: f64,
    /// Seconds from the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The arrival or query index the call served, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

/// An in-memory span recorder for one client thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: open.last().copied(),
                request,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.borrow_mut()[id].end = end;
        self.open.borrow_mut().pop();
        out
    }

    /// Count, total and self time per span name, ordered by name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter().filter(|s| s.end.is_finite()) {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in spans.iter().zip(&child_s) {
            if !s.end.is_finite() {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.secs();
            t.self_s += s.secs() - children;
        }
        out
    }

    /// Writes every span as one tab-separated line,
    /// `id parent request name start_us end_us`; returns how many.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_us\tend_us")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.borrow().iter().enumerate() {
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{:.1}\t{:.1}",
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
                s.name,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        out.flush()?;
        Ok(self.spans.borrow().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let t = Tracer::new(true);
        t.span("outer", Some(7), || {
            busy(4);
            t.span("inner", Some(7), || busy(6));
            t.span("inner", Some(7), || busy(6));
        });
        let times = t.layer_times();
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        assert!((outer.total_s - outer.self_s - inner.total_s).abs() < 1e-9);
        assert!(inner.self_s == inner.total_s);
        assert!(outer.self_s >= 0.004);
        let spans = t.spans.borrow();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
    }

    #[test]
    fn off_records_nothing_and_still_returns() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, || 5), 5);
        assert!(t.spans.borrow().is_empty());
        assert!(t.layer_times().is_empty());
    }
}
