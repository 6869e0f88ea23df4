//! The in-memory span recorder of the traced run.
//!
//! Everything here is taken from outside the program: a span is wall time
//! around one public call the harness makes, or a child synthesised from
//! the durations a call returned in its timing struct. Spans stay in
//! memory until the last op has run; [`write_trace`] then dumps them.

use rdbms::Registry;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

pub const NO_PARENT: u32 = u32::MAX;

/// Engine registry counters sampled at the boundaries of every traced op.
pub const TRACKED: [&str; 27] = [
    "exec.parse_ns",
    "exec.plan_ns",
    "exec.exec_ns",
    "exec.plan_cache_hits",
    "exec.plan_cache_misses",
    "exec.plan_replans",
    "engine.statements",
    "exec.tuples_scanned",
    "exec.tuples_fetched",
    "exec.index_probes",
    "exec.join_output",
    "exec.rows_output",
    "exec.batches",
    "exec.join_adaptive_flips",
    "exec.spill_partitions",
    "exec.spill_bytes",
    "exec.sort_runs",
    "buffer.hits",
    "buffer.misses",
    "buffer.evictions",
    "disk.pages_read",
    "disk.pages_written",
    "wal.bytes",
    "wal.records",
    "wal.fsyncs",
    "wal.checkpoints",
    "stats.refreshes",
];

pub type Counters = [u64; TRACKED.len()];

pub fn sample(registry: &Registry) -> Counters {
    TRACKED.map(|name| registry.counter_value(name))
}

pub fn delta(before: &Counters, after: &Counters) -> Counters {
    std::array::from_fn(|i| after[i].saturating_sub(before[i]))
}

/// Position of a tracked counter, for reading a [`Counters`] by name.
pub fn tracked(name: &str) -> usize {
    TRACKED
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a tracked counter"))
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the op this span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the parent span in the same recorder, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client's recorder. It always measures the time spent inside
/// [`Tracer::call`] (that sum is the op's latency, so the harness's own
/// answer checking never counts); it keeps spans only while recording.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Counter deltas of traced ops, by op index.
    pub op_counters: Vec<(u64, Counters)>,
    /// Scalar observations of traced ops that are not intervals (counts
    /// from the returned structs, derived durations): `(op, name, value)`.
    pub notes: Vec<(u64, &'static str, f64)>,
    recording: bool,
    op: u64,
    root: u32,
    last_closed: u32,
    busy: Duration,
    last_call: Duration,
    excluded: Duration,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            op_counters: Vec::new(),
            notes: Vec::new(),
            recording: false,
            op: 0,
            root: NO_PARENT,
            last_closed: NO_PARENT,
            busy: Duration::ZERO,
            last_call: Duration::ZERO,
            excluded: Duration::ZERO,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn begin_op(&mut self, op: u64, record: bool) {
        self.recording = record;
        self.op = op;
        self.busy = Duration::ZERO;
        self.excluded = Duration::ZERO;
        self.root = NO_PARENT;
        self.last_closed = NO_PARENT;
        if record {
            self.root = self.spans.len() as u32;
            let now = self.now_ns();
            self.spans.push(Span {
                name: "op",
                op,
                parent: NO_PARENT,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Close the op and return the time it spent inside the program.
    pub fn end_op(&mut self) -> Duration {
        if self.recording {
            let now = self.now_ns();
            self.spans[self.root as usize].end_ns = now;
            self.recording = false;
        }
        self.busy
    }

    /// Housekeeping the harness did inside the current op that is no part
    /// of the closed loop (rebuilding a database between ops).
    pub fn exclude(&mut self, d: Duration) {
        self.excluded += d;
    }

    pub fn excluded(&self) -> Duration {
        self.excluded
    }

    /// Run one public call of the program, timing it.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.busy += dur;
        self.last_call = dur;
        if self.recording {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.last_closed = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.root,
                start_ns,
                end_ns: start_ns + dur.as_nanos() as u64,
            });
        }
        out
    }

    /// How long the last [`Tracer::call`] took, recording or not.
    pub fn last_call(&self) -> Duration {
        self.last_call
    }

    /// Children of the span the last [`Tracer::call`] closed, synthesised
    /// from the durations that call returned. They are laid end to end
    /// from the parent's start: the structs give lengths, not positions.
    pub fn children(&mut self, parts: &[(&'static str, Duration)]) {
        if !self.recording || self.last_closed == NO_PARENT {
            return;
        }
        let parent = self.last_closed;
        let mut at = self.spans[parent as usize].start_ns;
        for &(name, dur) in parts {
            let end = at + dur.as_nanos() as u64;
            self.spans.push(Span {
                name,
                op: self.op,
                parent,
                start_ns: at,
                end_ns: end,
            });
            at = end;
        }
    }

    /// Attach the registry delta taken around the current op (or around
    /// the one call of it that the registry is valid for).
    pub fn op_delta(&mut self, before: &Counters, after: &Counters) {
        if self.recording {
            self.op_counters.push((self.op, delta(before, after)));
        }
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        if self.recording {
            self.notes.push((self.op, name, value));
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Per span name: how often it ran, its total time and its self time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Write the spans of all clients to `path`. Span rows are
/// `[name, client, op, parent, start_ns, end_ns]` with `name` an index
/// into `names` and `parent` an index into the same client's rows
/// (-1 for an op's root span).
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    clients: &[Tracer],
) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
    for s in clients.iter().flat_map(|t| &t.spans) {
        index.entry(s.name).or_insert_with(|| {
            names.push(s.name);
            names.len() - 1
        });
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    // Streamed by hand, not built as a `Json` value: a run records some
    // hundred thousand spans.
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clients\":{},\"names\":[",
        clients.len()
    )?;
    for (i, n) in names.iter().enumerate() {
        write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
    }
    write!(
        w,
        "],\"span_fields\":[\"name\",\"client\",\"op\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":["
    )?;
    let mut first = true;
    for (c, t) in clients.iter().enumerate() {
        for s in &t.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{}\n[{},{c},{},{parent},{},{}]",
                if first { "" } else { "," },
                index[s.name],
                s.op,
                s.start_ns,
                s.end_ns
            )?;
            first = false;
        }
    }
    write!(w, "\n],\"self_time_ms\":{{")?;
    let all: Vec<Span> = merged(clients);
    for (i, (name, st)) in self_times(&all).iter().enumerate() {
        write!(
            w,
            "{}\"{name}\":{{\"count\":{},\"total\":{},\"self\":{}}}",
            if i > 0 { "," } else { "" },
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        )?;
    }
    write!(w, "}},\"counter_names\":[")?;
    for (i, n) in TRACKED.iter().enumerate() {
        write!(w, "{}\"{n}\"", if i > 0 { "," } else { "" })?;
    }
    // One row per traced op: [client, op, delta of each tracked counter].
    write!(w, "],\"op_counters\":[")?;
    let mut first = true;
    for (c, t) in clients.iter().enumerate() {
        for (op, d) in &t.op_counters {
            write!(w, "{}\n[{c},{op}", if first { "" } else { "," })?;
            for v in d {
                write!(w, ",{v}")?;
            }
            write!(w, "]")?;
            first = false;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

/// All clients' spans in one list, parent indices shifted to match.
pub fn merged(clients: &[Tracer]) -> Vec<Span> {
    let mut out = Vec::new();
    for t in clients {
        let base = out.len() as u32;
        out.extend(t.spans.iter().map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent + base
            },
            ..s.clone()
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("op", NO_PARENT, 0, 100),
            span("compile", 0, 10, 40),
            span("extract", 1, 10, 25),
            span("gen", 1, 25, 30),
            span("execute", 0, 40, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"].self_ns, 100 - 30 - 50);
        assert_eq!(st["compile"].total_ns, 30);
        assert_eq!(st["compile"].self_ns, 30 - 15 - 5);
        assert_eq!(st["execute"].self_ns, 50);
        assert_eq!(st["extract"].self_ns, 15);
        let total_self: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn children_never_drive_self_time_negative() {
        let spans = vec![span("a", NO_PARENT, 0, 10), span("b", 0, 0, 15)];
        assert_eq!(self_times(&spans)["a"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_calls_under_the_op_and_sums_busy_time() {
        let mut t = Tracer::new(Instant::now());
        t.begin_op(7, true);
        let x = t.call("first", || 41 + 1);
        t.children(&[
            ("part_a", Duration::from_nanos(5)),
            ("part_b", Duration::from_nanos(7)),
        ]);
        t.call("second", || ());
        let busy = t.end_op();
        assert_eq!(x, 42);
        assert_eq!(t.spans.len(), 5);
        assert_eq!(t.spans[0].name, "op");
        assert!(t.spans.iter().all(|s| s.op == 7));
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 1);
        assert_eq!(t.spans[3].parent, 1);
        assert_eq!(t.spans[3].start_ns, t.spans[2].end_ns);
        assert_eq!(t.spans[4].parent, 0);
        let calls = t.spans[1].dur_ns() + t.spans[4].dur_ns();
        assert_eq!(busy.as_nanos() as u64, calls);
        assert!(t.spans[0].dur_ns() >= calls);

        // Not recording: calls are still timed, nothing is kept.
        t.begin_op(8, false);
        t.call("third", || ());
        t.children(&[("part", Duration::from_nanos(1))]);
        t.end_op();
        assert_eq!(t.spans.len(), 5);
    }

    #[test]
    fn merged_shifts_parents() {
        let mut a = Tracer::new(Instant::now());
        a.begin_op(0, true);
        a.call("x", || ());
        a.end_op();
        let mut b = Tracer::new(Instant::now());
        b.begin_op(1, true);
        b.call("y", || ());
        b.end_op();
        let all = merged(&[a, b]);
        assert_eq!(all[3].name, "y");
        assert_eq!(all[3].parent, 2);
        assert_eq!(all[2].parent, NO_PARENT);
    }
}
