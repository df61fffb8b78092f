//! A small in-memory span recorder for the traced run.
//!
//! Each span has a name (`<layer>.<operation>`), a start and an end
//! (nanoseconds since the recorder was created), the index of the span
//! that caused it, and the id of the operation it belongs to: a root
//! span opens a new operation and its children inherit the id. Spans
//! stay in memory until the run ends and are then written out as JSON
//! lines. With tracing off, [`Tracer::span`] only calls its closure.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Root spans belong to the `bench` layer: their self time is
//! the benchmark's own glue, so the named layers' share of the root
//! time is `1 - bench self time / root time`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The module the span's time is charged to: the name up to its
    /// first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: Cell::new(on),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    /// Is the recorder collecting spans right now?
    pub fn on(&self) -> bool {
        self.on.get()
    }

    /// Pause or resume recording (a traced run measures some of its
    /// work units untraced, to report the tracing overhead).
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&self, name: &'static str, start_ns: u64, parent: Option<usize>) -> usize {
        let mut spans = self.spans.borrow_mut();
        let op = match parent {
            Some(p) => spans[p].op,
            None => {
                let op = self.next_op.get();
                self.next_op.set(op + 1);
                op
            }
        };
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        spans.len() - 1
    }

    /// Run `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = self.open(name, self.ns(Instant::now()), parent);
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.ns(Instant::now());
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Record a span from timestamps taken elsewhere (for example by
    /// another thread), as a child of `parent` or of the innermost open
    /// span. Returns its index, for use as a later span's parent.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on() {
            return None;
        }
        let parent = parent.or_else(|| self.stack.borrow().last().copied());
        let idx = self.open(name, self.ns(start), parent);
        self.spans.borrow_mut()[idx].end_ns = self.ns(end).max(self.ns(start));
        Some(idx)
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Per span name: total duration, total self time and every
    /// duration, in seconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            let d = s.duration_ns() as f64 / 1e9;
            e.total_s += d;
            e.self_s += s.duration_ns().saturating_sub(child_ns[i]) as f64 / 1e9;
            e.durations_s.push(d);
        }
        out
    }

    /// Self time per layer, and the share of all root-span time that
    /// layers other than `bench` account for.
    pub fn layer_self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = self.spans.borrow();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut root_s = 0.0;
        for (name, st) in self.by_name() {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += st.self_s;
        }
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            root_s += s.duration_ns() as f64 / 1e9;
        }
        let glue = layers.get("bench").copied().unwrap_or(0.0);
        let coverage = if root_s > 0.0 {
            1.0 - glue / root_s
        } else {
            0.0
        };
        (layers, coverage)
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub total_s: f64,
    pub self_s: f64,
    pub durations_s: Vec<f64>,
}

impl NameStats {
    pub fn mean_s(&self) -> f64 {
        if self.durations_s.is_empty() {
            0.0
        } else {
            self.total_s / self.durations_s.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("bench.work", || {
            t.span("engine.a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("engine.b", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let names = t.by_name();
        let root = &names["bench.work"];
        assert!(root.self_s < root.total_s);
        let (layers, coverage) = t.layer_self_times();
        assert!(layers["engine"] > 0.009);
        assert!(coverage > 0.5 && coverage <= 1.0);
        let spans = t.spans.borrow();
        assert!(spans.iter().all(|s| s.op == 0));
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("bench.work", || 7), 7);
        assert_eq!(t.len(), 0);
    }
}
