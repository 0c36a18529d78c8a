//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each crate's public functions: name, start, end, the span that caused
//! it, and the op it belongs to. They stay in memory until the run ends
//! and are then written out as JSON lines. A disabled tracer records
//! nothing, so the untraced run pays only a branch per span.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Serialize;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.connect`.
    pub name: &'static str,
    /// Unique within the run; never 0.
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// The op (root span id) this span belongs to.
    pub op: u64,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread. Clones share one span store.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    store: Arc<Store>,
}

struct Store {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Identity of an open span, handed to children as their parent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRef {
    id: u64,
    op: u64,
}

/// An open span; records itself when ended or dropped.
pub struct Open<'t> {
    tracer: &'t Tracer,
    name: &'static str,
    at: SpanRef,
    parent: u64,
    start_ns: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`, and does nothing otherwise.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            store: Arc::new(Store {
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.store.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` (`None` starts a new op).
    pub fn open(&self, name: &'static str, parent: Option<SpanRef>) -> Open<'_> {
        if !self.enabled {
            return Open {
                tracer: self,
                name,
                at: SpanRef::default(),
                parent: 0,
                start_ns: 0,
            };
        }
        let id = self.store.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent_id, op) = match parent {
            Some(p) => (p.id, p.op),
            None => (0, id),
        };
        Open {
            tracer: self,
            name,
            at: SpanRef { id, op },
            parent: parent_id,
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, parent: Option<SpanRef>, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, parent);
        let out = f();
        span.end();
        out
    }

    /// Takes every recorded span, ordered by id.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.store.spans.lock().expect("span store lock"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

impl Open<'_> {
    /// This span, as a parent for children.
    #[must_use]
    pub fn at(&self) -> Option<SpanRef> {
        self.tracer.enabled.then_some(self.at)
    }

    /// Ends the span now.
    pub fn end(self) {}
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let span = Span {
            name: self.name,
            id: self.at.id,
            parent: self.parent,
            op: self.at.op,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.store.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the part its children cover),
    /// nanoseconds.
    pub self_ns: u64,
    /// Every duration, nanoseconds, for medians.
    pub durations_ns: Vec<u64>,
}

/// A span's self time: its duration minus the union of its children's
/// intervals, clipped to the span (children may run in parallel).
#[must_use]
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in cover {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

/// Summarises spans by name, with self times.
#[must_use]
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += self_time_ns(s, kids);
        entry.durations_ns.push(s.duration_ns());
    }
    out
}
