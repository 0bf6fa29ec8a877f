//! The traced run's instruments, all owned by the benchmark: an
//! in-memory span recorder, a [`Backend`] wrapper that times every call,
//! an event sink that counts port suspensions, and the per-layer
//! aggregation (self time is a span minus its children).
//!
//! Spans are recorded only around calls into the program's public API;
//! nothing is added inside the program.

use crate::alloc;
use moteur::backend::WaitOutcome;
use moteur::{
    Backend, BackendCompletion, BackendJob, EventSink, InvocationId, MoteurError, TraceEvent,
};
use moteur_gridsim::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::DerefMut;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one enactment (or one daemon request) share this id.
    pub trace: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations made while the span was open.
    pub allocs: u64,
}

/// Counts kept at the backend boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackendCounts {
    pub submits: u64,
    pub completions: u64,
    pub timeouts: u64,
    pub cancels: u64,
    pub inflight: u64,
    pub inflight_max: u64,
}

struct Recorder {
    origin: Instant,
    trace: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    backend: BackendCounts,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding anything recorded before.
pub fn begin() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
            backend: BackendCounts::default(),
        });
    });
}

/// Stop recording and hand back the spans and backend counts.
pub fn end() -> (Vec<Span>, BackendCounts) {
    REC.with(|r| {
        let rec = r
            .borrow_mut()
            .take()
            .expect("trace::end without trace::begin");
        (rec.spans, rec.backend)
    })
}

/// Tag the spans recorded from now on with `trace`.
pub fn set_trace(trace: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.trace = trace;
        }
    });
}

/// Run `f` inside a span named `name` (a plain call when not recording).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len() as u32;
        rec.spans.push(Span {
            name,
            trace: rec.trace,
            parent: rec.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let Some(idx) = opened else {
        return f();
    };
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    let a1 = alloc::allocs();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording stays on while a span is open");
        rec.open.pop();
        let origin = rec.origin;
        let s = &mut rec.spans[idx as usize];
        s.start_ns = t0.duration_since(origin).as_nanos() as u64;
        s.end_ns = t1.duration_since(origin).as_nanos() as u64;
        s.allocs = a1 - a0;
    });
    out
}

fn count(f: impl FnOnce(&mut BackendCounts)) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(&mut rec.backend);
        }
    });
}

/// A backend that times and counts every call into the one it wraps
/// (held by reference or in a box).
#[derive(Debug)]
pub struct Timed<B>(pub B);

fn completed() {
    count(|b| {
        b.completions += 1;
        b.inflight = b.inflight.saturating_sub(1);
    });
}

impl<B: DerefMut<Target: Backend>> Backend for Timed<B> {
    fn submit(&mut self, job: BackendJob) -> Result<(), MoteurError> {
        let r = span("backend.submit", || self.0.submit(job));
        if r.is_ok() {
            count(|b| {
                b.submits += 1;
                b.inflight += 1;
                b.inflight_max = b.inflight_max.max(b.inflight);
            });
        }
        r
    }

    fn wait_next(&mut self) -> Option<BackendCompletion> {
        let c = span("backend.wait", || self.0.wait_next());
        if c.is_some() {
            completed();
        }
        c
    }

    fn wait_next_until(&mut self, deadline: SimTime) -> WaitOutcome {
        let o = span("backend.wait", || self.0.wait_next_until(deadline));
        match &o {
            WaitOutcome::Completion(_) => completed(),
            WaitOutcome::TimedOut => count(|b| b.timeouts += 1),
        }
        o
    }

    fn cancel(&mut self, invocation: InvocationId) -> bool {
        let cancelled = span("backend.cancel", || self.0.cancel(invocation));
        if cancelled {
            count(|b| {
                b.cancels += 1;
                b.inflight = b.inflight.saturating_sub(1);
            });
        }
        cancelled
    }

    fn blacklist_ce(&mut self, ce: usize, blocked: bool) {
        self.0.blacklist_ce(ce, blocked);
    }

    fn now(&self) -> SimTime {
        self.0.now()
    }
}

/// Counts `port_suspended` events; attached only in the traced run.
#[derive(Debug, Default)]
pub struct SuspendCounter(pub std::sync::Arc<std::sync::atomic::AtomicU64>);

impl EventSink for SuspendCounter {
    fn record(&mut self, event: &TraceEvent) {
        if matches!(event, TraceEvent::PortSuspended { .. }) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Per span name: calls, inclusive and self nanoseconds, self allocations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

/// Aggregate spans by name; self time and allocations exclude children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let a = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(child_ns[i]);
        a.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
    }
    out
}

/// Write spans as JSON lines, one span per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","trace":{},"parent":{parent},"start_ns":{},"end_ns":{},"allocs":{}}}"#,
            s.name, s.trace, s.start_ns, s.end_ns, s.allocs
        )?;
    }
    out.flush()
}
