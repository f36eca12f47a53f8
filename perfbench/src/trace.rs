//! Benchmark-side spans around the calls into each layer.
//!
//! Spans live in memory and are written out once, when the run ends. A
//! span's layer is its name up to the first `.`. A disabled tracer records
//! nothing, so the end-to-end runs carry no tracing cost.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    /// The solve or job the span belongs to.
    pub request: u64,
}

impl SpanRec {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span; recorded when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    request: u64,
}

impl Span<'_> {
    /// Id to pass as the parent of child spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end_ns = self.tracer.now_ns();
            self.tracer.push(SpanRec {
                id: self.id,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                parent: self.parent,
                request: self.request,
            });
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; `parent` 0 means a root span.
    pub fn span(&self, name: &'static str, request: u64, parent: u64) -> Span<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        Span {
            tracer: self,
            id,
            name,
            start_ns,
            parent: (parent != 0).then_some(parent),
            request,
        }
    }

    /// Record a span whose ends were observed elsewhere (a client callback).
    pub fn record(
        &self,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(SpanRec {
                id,
                name,
                start_ns: self.ns_at(start),
                end_ns: self.ns_at(end),
                parent: (parent != 0).then_some(parent),
                request,
            });
        }
    }

    fn push(&self, rec: SpanRec) {
        self.spans.lock().expect("span buffer poisoned").push(rec);
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its children cover, summed by layer.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let covered = covered_ns(s.start_ns, s.end_ns, kids);
        *out.entry(s.layer()).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (a, b) in clipped {
        let a = a.max(cursor);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
            s.id, s.name, s.start_ns, s.end_ns, s.request
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u64>,
    ) -> SpanRec {
        SpanRec {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, "bench.solve", 0, 100, None),
            rec(2, "engine.run", 10, 70, Some(1)),
            rec(3, "bench.check", 70, 90, Some(1)),
        ];
        let st = self_time_by_layer(&spans);
        // bench: 100 − (60 + 20) own + 20 check; engine: 60.
        assert_eq!(st["bench"], 40);
        assert_eq!(st["engine"], 60);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            rec(1, "server.job", 0, 100, None),
            rec(2, "client.a", 10, 50, Some(1)),
            rec(3, "client.b", 30, 60, Some(1)),
            rec(4, "client.c", 90, 150, Some(1)),
        ];
        let st = self_time_by_layer(&spans);
        // Children cover [10, 60) and [90, 100) of the parent: 60 ns.
        assert_eq!(st["server"], 40);
        assert_eq!(st["client"], 40 + 30 + 60);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            rec(1, "a.root", 0, 100, None),
            rec(2, "b.mid", 0, 100, Some(1)),
            rec(3, "c.leaf", 20, 30, Some(2)),
        ];
        let st = self_time_by_layer(&spans);
        assert_eq!(st["a"], 0);
        assert_eq!(st["b"], 90);
        assert_eq!(st["c"], 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let s = t.span("bench.solve", 1, 0);
            assert_eq!(s.id(), 0);
        }
        t.record("client.accept", 1, 0, Instant::now(), Instant::now());
        assert!(t.take().is_empty());
    }

    #[test]
    fn enabled_tracer_keeps_parent_and_request() {
        let t = Tracer::new(true);
        {
            let root = t.span("bench.solve", 7, 0);
            let _child = t.span("engine.run", 7, root.id());
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "engine.run").unwrap();
        let root = spans.iter().find(|s| s.name == "bench.solve").unwrap();
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.start_ns <= s.end_ns));
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
