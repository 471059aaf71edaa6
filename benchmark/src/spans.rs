//! In-memory spans recorded around calls into the program's layers, their
//! self time, and their export as Chrome trace-event JSON.
//!
//! A span has a name (`layer.call`), a start and an end, the span that
//! caused it, the request it belongs to and the thread it ran on. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's
/// creation; `parent` is 0 for a root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, never 0.
    pub id: u64,
    /// The causing span's id (0 for a root).
    pub parent: u64,
    /// `layer.call`, e.g. `api.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
    /// The request (or round) the span belongs to.
    pub req: u64,
    /// Small per-thread number.
    pub tid: u64,
}

/// Collects spans from any thread. When off, [`Recorder::span`] only
/// runs the closure.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    /// A recorder that keeps spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// to pass to its children (0 when the recorder is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        self.push(Span {
            id,
            parent,
            name,
            start,
            end: self.now(),
            req,
            tid: TID.with(|t| *t),
        });
        out
    }

    /// Record an interval measured elsewhere (such as a queue wait that
    /// starts on one thread and ends on another); returns its id.
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: u64, end: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            start,
            end: end.max(start),
            req,
            tid: TID.with(|t| *t),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far, ordered by start.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut out = self.spans.lock().expect("span buffer poisoned").clone();
        out.sort_by_key(|s| (s.start, s.id));
        out
    }
}

/// Self time of every span, in nanoseconds, grouped by name in order of
/// first appearance: duration minus the union of its children's
/// intervals clipped to it.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, Vec<u64>)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for s in spans {
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|k| {
                k.iter()
                    .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                    .filter(|&(a, b)| b > a)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = s.start;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, v)) => v.push(own),
            None => out.push((s.name, vec![own])),
        }
    }
    out
}

/// Durations in nanoseconds of every span named `name`.
#[must_use]
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// The spans as a Chrome trace-event document: one complete (`X`) event
/// per span, timestamps in microseconds.
#[must_use]
pub fn chrome_json(spans: &[Span], process: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        nupea::jsonl::escape(process)
    ));
    for s in spans {
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            req: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_down_the_tree() {
        // request [0,100] > parse [10,20], submit [20,90];
        // submit > wait [20,40], job [40,85]; job > engine [45,80].
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "api.parse", 10, 20),
            span(3, 1, "batch.submit", 20, 90),
            span(4, 3, "batch.queue_wait", 20, 40),
            span(5, 3, "batch.job", 40, 85),
            span(6, 5, "engine.run", 45, 80),
        ];
        let selfs = self_times(&spans);
        let get = |n: &str| selfs.iter().find(|(k, _)| *k == n).unwrap().1.clone();
        assert_eq!(get("request"), vec![20]);
        assert_eq!(get("api.parse"), vec![10]);
        assert_eq!(get("batch.submit"), vec![5]);
        assert_eq!(get("batch.queue_wait"), vec![20]);
        assert_eq!(get("batch.job"), vec![10]);
        assert_eq!(get("engine.run"), vec![35]);
        // Without overlap, the self times of a tree add up to the root.
        let total: u64 = selfs.iter().flat_map(|(_, v)| v).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        let spans = vec![
            span(1, 0, "a", 0, 100),
            span(2, 1, "b", 10, 60),
            span(3, 1, "c", 40, 80),
        ];
        // Children cover [10,80]: 70 ns, not 50 + 40.
        assert_eq!(self_times(&spans)[0], ("a", vec![30]));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, 0, "a", 10, 20), span(2, 1, "b", 5, 15)];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], ("a", vec![5]));
        assert_eq!(selfs[1], ("b", vec![10]));
    }

    #[test]
    fn recorder_nests_and_exports_a_valid_trace() {
        let rec = Recorder::new(true);
        let out = rec.span("round", 0, 7, |id| {
            rec.span("engine.run", id, 7, |_| 41) + 1
        });
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "round");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let summary = nupea_sim::trace::validate_chrome_trace(&chrome_json(&spans, "t")).unwrap();
        assert_eq!(summary.complete, 2);
        assert_eq!(summary.metadata, 1);

        let off = Recorder::new(false);
        assert_eq!(off.span("x", 0, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
