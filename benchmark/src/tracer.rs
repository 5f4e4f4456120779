//! The benchmark's own span buffer, in host time.
//!
//! Spans are recorded from outside the engine, around the calls into
//! each layer: one root span per operation with one child per layer
//! call. Everything stays in memory until the run ends. Per span name
//! the tracer keeps the total time, the self time (a root's duration
//! minus the part its children cover) and every duration, so medians
//! come from the spans themselves; the first `cap` spans are also kept
//! whole and exported as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Up to two counters sampled at a span's end (`""` = unused slot).
pub type Args = [(&'static str, u64); 2];
pub const NO_ARGS: Args = [("", 0), ("", 0)];

/// One recorded span. `parent` indexes [`Tracer::spans`]; spans of one
/// operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
    pub args: Args,
}

/// Everything recorded under one span name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration, in nanoseconds.
    pub samples: Vec<u64>,
}

/// A root span that is still open.
pub struct Root {
    name: &'static str,
    start_ns: u64,
    op: u64,
    slot: Option<u32>,
    child_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    layers: BTreeMap<&'static str, Layer>,
    next_op: u64,
}

impl Tracer {
    /// A tracer that keeps the first `cap` spans for export.
    pub fn new(cap: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            layers: BTreeMap::new(),
            next_op: 0,
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.at(Instant::now())
    }

    fn keep(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() < self.cap {
            self.spans.push(span);
            Some(self.spans.len() as u32 - 1)
        } else {
            self.dropped += 1;
            None
        }
    }

    /// Open the root span of the next operation, now.
    pub fn begin(&mut self, name: &'static str) -> Root {
        self.begin_at(name, self.now_ns())
    }

    /// Open the root span of an operation that started at `start_ns`.
    pub fn begin_at(&mut self, name: &'static str, start_ns: u64) -> Root {
        let op = self.next_op;
        self.next_op += 1;
        let slot = self.keep(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
            args: NO_ARGS,
        });
        Root {
            name,
            start_ns,
            op,
            slot,
            child_ns: 0,
        }
    }

    /// Record a finished layer call `[start_ns, end_ns]` under `root`.
    pub fn child(
        &mut self,
        root: &mut Root,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Args,
    ) {
        let dur = end_ns.saturating_sub(start_ns);
        root.child_ns += dur;
        let layer = self.layers.entry(name).or_default();
        layer.total_ns += dur;
        layer.self_ns += dur;
        layer.samples.push(dur);
        if root.slot.is_some() {
            self.keep(Span {
                name,
                start_ns,
                end_ns,
                parent: root.slot,
                op: root.op,
                args,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Time `f` as a layer call under `root`.
    pub fn time<R>(&mut self, root: &mut Root, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.child(root, name, start, end, NO_ARGS);
        out
    }

    /// Close `root` now.
    pub fn end(&mut self, root: Root) {
        let end_ns = self.now_ns();
        let dur = end_ns.saturating_sub(root.start_ns);
        let layer = self.layers.entry(root.name).or_default();
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(root.child_ns);
        layer.samples.push(dur);
        if let Some(slot) = root.slot {
            self.spans[slot as usize].end_ns = end_ns;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the export buffer (still counted in the
    /// per-name totals).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, Layer> {
        &self.layers
    }

    /// Median duration of the spans named `name`, in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| {
            crate::stats::quantile(&mut l.samples.clone(), 0.5) as f64 / 1e3
        })
    }

    /// The kept spans as Chrome trace-event JSON (`B`/`E` pairs on one
    /// track, timestamps in microseconds), which Perfetto and
    /// `chrome://tracing` open and `fabric_obs::validate_chrome_trace`
    /// accepts.
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        fn event(out: &mut String, s: &Span, ph: char, ts_ns: u64) {
            if !out.ends_with('[') {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":1",
                s.name,
                ts_ns / 1000,
                ts_ns % 1000
            );
            if ph == 'E' {
                let _ = write!(out, ",\"args\":{{\"op\":{}", s.op);
                for (k, v) in s.args.iter().filter(|(k, _)| !k.is_empty()) {
                    let _ = write!(out, ",\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
        let mut out = String::with_capacity(self.spans.len() * 200 + 256);
        out.push_str("{\"traceEvents\":[");
        // Spans are stored in begin order with parents first, so a stack
        // of open spans turns them into properly nested B/E pairs.
        let mut open: Vec<u32> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            while open.last().is_some_and(|&top| Some(top) != s.parent) {
                let top = &self.spans[open.pop().expect("checked non-empty") as usize];
                event(&mut out, top, 'E', top.end_ns);
            }
            event(&mut out, s, 'B', s.start_ns);
            open.push(i as u32);
        }
        while let Some(top) = open.pop() {
            let top = &self.spans[top as usize];
            event(&mut out, top, 'E', top.end_ns);
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host\",\"dropped\":{}}}}}\n",
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_root_minus_children() {
        let mut t = Tracer::new(16);
        let mut root = t.begin("op");
        t.child(&mut root, "a", 10, 40, NO_ARGS);
        t.child(&mut root, "b", 40, 50, [("rows", 3), ("", 0)]);
        t.end(root);
        let op = &t.layers()["op"];
        assert_eq!(op.self_ns, op.total_ns - 40);
        assert_eq!(t.layers()["a"].self_ns, 30);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.p50_us("a"), 0.03);
    }

    #[test]
    fn export_nests_and_respects_the_cap() {
        let mut t = Tracer::new(3);
        for _ in 0..2 {
            let mut root = t.begin("op");
            t.time(&mut root, "a", || ());
            t.time(&mut root, "b", || ());
            t.end(root);
        }
        // Second op did not fit: counted, not exported.
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.layers()["a"].samples.len(), 2);
        let json = t.to_chrome_json("w", 1);
        let summary = fabric_sim::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((summary.begins, summary.ends), (3, 3));
        assert_eq!(summary.dropped, 3);
    }
}
