//! In-memory span tracer and the per-layer self-time table built from it.
//!
//! The benchmark wraps each call it makes into a `localavg-*` layer in
//! [`Tracer::span`]. With tracing off the wrapper only calls the closure;
//! with tracing on it records `(id, parent, request, name, tag, start,
//! end)` into a vector that is written out once, when the run ends.
//! Spans inside the library are not recorded: the layer names are the
//! names of the public functions the benchmark calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    /// Free-form label, e.g. the algorithm key of an execute span.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a no-op wrapper otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of this thread's open
    /// span.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.tagged(name, "", request, f)
    }

    /// [`Tracer::span`] with a tag (the algorithm key of an execute span).
    pub fn tagged<T>(
        &self,
        name: &'static str,
        tag: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| s.borrow().last().copied());
        STACK.with(|s| s.borrow_mut().push(id));
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            request,
            name,
            tag,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// The innermost open span of this thread, to hand to a worker thread.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Makes `parent` (from [`Tracer::current`] on the spawning thread)
    /// the parent of the spans this worker thread opens inside `f`.
    pub fn adopt<T>(&self, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let saved =
            STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), parent.into_iter().collect()));
        let out = f();
        STACK.with(|s| *s.borrow_mut() = saved);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Moves the recorded spans out, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Seconds one recorded span costs on this thread: the median over 5
/// rounds of 10 000 empty spans on a tracer of its own.
pub fn span_cost_s() -> f64 {
    const SPANS: u32 = 10_000;
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let tr = Tracer::new(true);
            let t = Instant::now();
            for i in 0..SPANS {
                tr.span("calibrate", u64::from(i), || ());
            }
            t.elapsed().as_secs_f64() / f64::from(SPANS)
        })
        .collect();
    crate::common::median(&rounds)
}

/// Self time of every span in seconds: its duration minus the part of
/// its interval that its children cover (children on other threads
/// overlap each other, so the covered part is the union of their
/// intervals, clipped to the parent's).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// The layer a span name belongs to: its first dotted component.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders the spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.name,
            s.tag,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x",
            tag: "",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100, children 10..40 and 30..60 overlap (two
        // threads), grandchild inside the first child.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(2), 20, 25),
        ];
        let t = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(t[0]), 50);
        assert_eq!(ns(t[1]), 25);
        assert_eq!(ns(t[2]), 30);
        assert_eq!(ns(t[3]), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("a", 0, || 7), 7);
        assert!(tr.take().is_empty());
    }

    #[test]
    fn nested_spans_get_parents() {
        let tr = Tracer::new(true);
        tr.span("outer", 1, || tr.span("inner", 1, || ()));
        let spans = tr.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }
}
