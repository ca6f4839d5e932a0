//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the operation it belongs to and the
//! span that caused it. Spans are kept in memory while the run executes
//! and written out once, when it ends. With tracing off, [`Tracer::span`]
//! only calls its closure: no clock reads, no allocation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Operation (closed-loop request) the span belongs to; spans of one
    /// operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of the run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`. The parent is the innermost
    /// open span on this thread (see [`Tracer::adopt`] for worker threads).
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        // ids only label spans; they publish no other data
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied());
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("no span holder panics")
            .push(Span {
                id,
                parent,
                name,
                op,
                start_ns,
                end_ns,
            });
        out
    }

    /// The innermost open span on this thread, to hand to worker threads.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` on a worker thread with `parent` as its open span, so the
    /// spans `f` records link back to the span that fanned the work out.
    pub fn adopt<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let Some(p) = parent.filter(|_| self.enabled) else {
            return f();
        };
        STACK.with(|s| s.borrow_mut().push(p));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("no span holder panics").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("no span holder panics")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// Per-name totals: `(count, total ns, self ns)`. A span's self time is
/// its duration minus the part of its interval that its children cover
/// (children on worker threads may overlap; their union is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = s.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - covered;
    }
    out
}
