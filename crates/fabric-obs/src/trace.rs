//! Cycle-domain structured trace events and the bounded ring buffer that
//! records them.
//!
//! Events are stamped with the simulated cycle clock (never wall time), so
//! a trace is a pure function of the workload, the platform configuration,
//! and the fault seed — two runs with the same inputs export byte-identical
//! JSON. The buffer is bounded and allocation-free after construction:
//! overflow overwrites the oldest event and counts the drop, it never
//! reallocates (hot engine loops must not see allocator jitter).

use crate::Cycles;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum key/value args carried inline by one event. Extra args passed
/// to [`TraceEvent::new`] are truncated (events are fixed-size on purpose:
/// the ring buffer never allocates per event).
pub const MAX_ARGS: usize = 6;

/// Event category: one Perfetto track per category, so a trace separates
/// CPU-side query work from device-side machinery at a glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// SQL front end and plan execution (`query::exec`).
    Query,
    /// Relational Memory device machinery (`relmem`).
    Rm,
    /// CPU-side memory hierarchy (`fabric-sim`).
    Mem,
    /// Relational storage / SSD page I/O (`relstore`).
    Store,
    /// Fault injection and recovery events.
    Fault,
}

impl Category {
    /// Stable name used as the Chrome `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            Category::Query => "query",
            Category::Rm => "rm",
            Category::Mem => "mem",
            Category::Store => "store",
            Category::Fault => "fault",
        }
    }

    /// Track id the category renders on (Chrome `tid`).
    pub fn track(self) -> u32 {
        match self {
            Category::Query => 1,
            Category::Rm => 2,
            Category::Mem => 3,
            Category::Store => 4,
            Category::Fault => 5,
        }
    }
}

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instant event (`"i"`).
    Instant,
}

impl Phase {
    /// The Chrome `ph` code.
    pub fn code(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
        }
    }
}

/// One trace event: fixed-size, `Copy`, cycle-stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the event occurred.
    pub ts: Cycles,
    pub name: &'static str,
    pub cat: Category,
    pub ph: Phase,
    args: [(&'static str, u64); MAX_ARGS],
    n_args: u8,
}

impl TraceEvent {
    /// Build an event; at most [`MAX_ARGS`] args are kept.
    pub fn new(
        ph: Phase,
        ts: Cycles,
        name: &'static str,
        cat: Category,
        args: &[(&'static str, u64)],
    ) -> Self {
        let mut inline = [("", 0u64); MAX_ARGS];
        let n = args.len().min(MAX_ARGS);
        inline[..n].copy_from_slice(&args[..n]);
        TraceEvent {
            ts,
            name,
            cat,
            ph,
            args: inline,
            n_args: n as u8,
        }
    }

    /// The event's key/value args.
    pub fn args(&self) -> &[(&'static str, u64)] {
        &self.args[..self.n_args as usize]
    }
}

/// Bounded ring of [`TraceEvent`]s.
///
/// Capacity is fixed at construction; the backing storage is allocated
/// once and never grows. When full, a push overwrites the oldest event
/// and increments [`TraceBuffer::dropped`] — the trace keeps its most
/// recent window, and the drop count makes truncation visible instead of
/// silent.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Record an event; overwrites the oldest when full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The fixed capacity (never changes after construction).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten by ring wrap-around since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events[self.head..]
            .iter()
            .chain(self.events[..self.head].iter())
    }

    /// Export as Chrome trace-event JSON (object format), loadable in
    /// Perfetto / `chrome://tracing`.
    ///
    /// Timestamps are raw simulated cycles (the `ts` unit reads as
    /// microseconds in the viewer; `otherData.clock` names the real unit).
    /// Output is byte-deterministic: same events in, same string out.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim-cycles\",");
        let _ignored = write!(out, "\"dropped\":{}}},\"traceEvents\":[", self.dropped);
        for (i, ev) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                crate::json::escaped(ev.name),
                ev.cat.name(),
                ev.ph.code(),
                ev.ts,
                ev.cat.track(),
            );
            if ev.ph == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if !ev.args().is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in ev.args().iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ignored = write!(out, "\"{}\":{}", crate::json::escaped(k), v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Collapsed-stack ("folded") text that flamegraph.pl and speedscope
    /// ingest directly: one `"<stack> <cycles>"` line per distinct stack,
    /// sorted by stack. A stack is `fabric;<cat>:<name>;…`, the open spans
    /// outermost first under a constant `fabric` root.
    ///
    /// The fold is exact: the cycles between consecutive events go to the
    /// stack open between them, so the lines sum to the latest timestamp
    /// minus the first. Timestamps need not be monotonic (forked cores
    /// each carry their own clock; device spans are reported in the past),
    /// so a frontier only moves forward: an event at or behind it adds no
    /// cycles but still changes the stack. An end event closes the most
    /// recent open frame with its category and name, which need not be the
    /// top when forked cores interleave.
    pub fn to_folded(&self) -> String {
        let mut cycles: BTreeMap<String, Cycles> = BTreeMap::new();
        let mut stack: Vec<(Category, &'static str)> = Vec::new();
        let mut frontier: Option<Cycles> = None;
        for ev in self.iter() {
            let from = frontier.unwrap_or(ev.ts);
            if ev.ts > from {
                let mut key = String::from("fabric");
                for (cat, name) in &stack {
                    let _ignored = write!(key, ";{}:{name}", cat.name());
                }
                *cycles.entry(key).or_insert(0) += ev.ts - from;
            }
            frontier = Some(from.max(ev.ts));
            match ev.ph {
                Phase::Begin => stack.push((ev.cat, ev.name)),
                Phase::End => {
                    if let Some(i) = stack.iter().rposition(|&f| f == (ev.cat, ev.name)) {
                        stack.remove(i);
                    }
                }
                Phase::Instant => {}
            }
        }
        let mut out = String::with_capacity(cycles.len() * 48);
        for (stack, n) in &cycles {
            let _ignored = writeln!(out, "{stack} {n}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: Cycles, name: &'static str) -> TraceEvent {
        TraceEvent::new(Phase::Instant, ts, name, Category::Query, &[("n", ts)])
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut b = TraceBuffer::with_capacity(3);
        for t in 0..5 {
            b.push(ev(t, "e"));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 3);
        assert_eq!(b.dropped(), 2);
        let ts: Vec<Cycles> = b.iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn ring_never_reallocates() {
        let mut b = TraceBuffer::with_capacity(4);
        b.push(ev(0, "a"));
        let ptr = b.events.as_ptr();
        let cap = b.events.capacity();
        for t in 1..100 {
            b.push(ev(t, "a"));
        }
        assert_eq!(b.events.as_ptr(), ptr, "backing storage moved");
        assert_eq!(b.events.capacity(), cap, "backing storage grew");
        assert_eq!(b.dropped(), 96);
    }

    #[test]
    fn args_are_truncated_at_max() {
        let args: Vec<(&'static str, u64)> = vec![("a", 1); MAX_ARGS + 3];
        let e = TraceEvent::new(Phase::Begin, 0, "x", Category::Rm, &args);
        assert_eq!(e.args().len(), MAX_ARGS);
    }

    #[test]
    fn chrome_json_is_deterministic_and_parses() {
        let mut b = TraceBuffer::with_capacity(8);
        b.push(TraceEvent::new(Phase::Begin, 10, "q", Category::Query, &[]));
        b.push(TraceEvent::new(
            Phase::End,
            25,
            "q",
            Category::Query,
            &[("rows", 3)],
        ));
        let j1 = b.to_chrome_json();
        let j2 = b.to_chrome_json();
        assert_eq!(j1, j2);
        let summary = crate::json::validate_chrome_trace(&j1).expect("valid chrome trace");
        assert_eq!(summary.events, 2);
        assert_eq!(summary.begins, 1);
        assert_eq!(summary.ends, 1);
    }

    #[test]
    fn instants_carry_scope() {
        let mut b = TraceBuffer::with_capacity(8);
        b.push(TraceEvent::new(
            Phase::Instant,
            5,
            "retry",
            Category::Fault,
            &[("attempt", 2)],
        ));
        let j = b.to_chrome_json();
        assert!(j.contains("\"s\":\"t\""), "{j}");
        crate::json::validate_chrome_trace(&j).expect("valid");
    }

    #[test]
    fn folded_stacks_are_an_exact_fold() {
        use Category::{Mem, Query, Rm};
        let mut b = TraceBuffer::with_capacity(32);
        let mut push = |ph: Phase, ts: Cycles, name: &'static str, cat: Category| {
            b.push(TraceEvent::new(ph, ts, name, cat, &[]));
        };
        push(Phase::Begin, 100, "exec", Query);
        push(Phase::Begin, 110, "scan", Mem);
        push(Phase::Instant, 130, "retry", Query);
        push(Phase::End, 150, "scan", Mem);
        // A device span reported in the past: its edges add no cycles,
        // and the frontier stays at 150.
        push(Phase::Begin, 120, "gather", Rm);
        push(Phase::End, 140, "gather", Rm);
        // Two forked cores, each from the fork at 150 on its own clock;
        // core 0's span ends after core 1's opened, so the end closes a
        // frame below the top.
        push(Phase::Begin, 150, "core", Mem);
        push(Phase::Begin, 150, "probe", Rm);
        push(Phase::End, 180, "core", Mem);
        push(Phase::End, 190, "probe", Rm);
        push(Phase::End, 200, "exec", Query);
        let folded = b.to_folded();
        assert_eq!(
            folded,
            "fabric;query:exec 20\n\
             fabric;query:exec;mem:core;rm:probe 30\n\
             fabric;query:exec;mem:scan 40\n\
             fabric;query:exec;rm:probe 10\n"
        );
        let total: Cycles = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<Cycles>().unwrap())
            .sum();
        assert_eq!(total, 200 - 100, "the fold accounts for every cycle");
        assert_eq!(TraceBuffer::with_capacity(4).to_folded(), "");
    }
}
