//! The benchmark's own host-time spans, recorded around its calls into
//! the layers' public functions. Spans are kept in memory and written
//! out as a Chrome trace when the run ends; a layer's self time is its
//! span minus the part of it that child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const NO_PARENT: u32 = 0;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Lane in the trace viewer: 0 is the benchmark's main thread,
    /// 1 is rank 0's thread.
    pub lane: u32,
}

/// Recorder shared by the main thread and rank 0's closure.
pub struct Spans {
    t0: Instant,
    next_id: AtomicU32,
    done: Mutex<Vec<Span>>,
}

/// An open span; closes (and is recorded) when dropped.
pub struct Open<'a> {
    spans: &'a Spans,
    id: u32,
    parent: u32,
    name: &'static str,
    lane: u32,
    start_ns: u64,
}

impl Open<'_> {
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.spans.now_ns(),
            lane: self.lane,
        };
        // A poisoned lock only means another thread panicked while
        // pushing; the vector of finished spans is still valid.
        self.spans
            .done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            next_id: AtomicU32::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` on `lane`.
    pub fn enter(&self, name: &'static str, parent: u32, lane: u32) -> Open<'_> {
        Open {
            spans: self,
            // Relaxed: the id only has to be unique.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            lane,
            start_ns: self.now_ns(),
        }
    }

    /// Every span closed so far, in order of start.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().unwrap_or_else(|e| e.into_inner()).clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Ids of spans whose parent is neither [`NO_PARENT`] nor a recorded span.
pub fn unresolved_parents(spans: &[Span]) -> Vec<u32> {
    let ids: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.id).collect();
    spans
        .iter()
        .filter(|s| s.parent != NO_PARENT && !ids.contains(&s.parent))
        .map(|s| s.id)
        .collect()
}

/// Per span id: its duration minus the part of its interval that its
/// children cover (children may overlap one another and may run on
/// another lane; their union, clipped to the parent, is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns) - covered)
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += selfs[&s.id];
    }
    out
}

/// Sum of the self times of `root` and every span below it, as a share
/// of `root`'s duration: 1.0 when every child lies inside its parent
/// and siblings do not overlap, which is what a well-nested trace gives.
pub fn self_time_coverage(spans: &[Span], root: u32) -> f64 {
    let selfs = self_times(spans);
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_root = |mut id: u32| loop {
        if id == root {
            return true;
        }
        match by_id.get(&id) {
            Some(s) => id = s.parent,
            None => return false,
        }
    };
    let Some(r) = by_id.get(&root) else {
        return 0.0;
    };
    let sum: u64 = spans
        .iter()
        .filter(|s| under_root(s.id))
        .map(|s| selfs[&s.id])
        .sum();
    sum as f64 / (r.end_ns - r.start_ns).max(1) as f64
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, microsecond timestamps, `args` carrying the span's
/// id, parent id and workload.
pub fn to_chrome_json(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (lane, name) in [(0, "benchmark"), (1, "rank 0")] {
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":\"{name}\"}}}},"
        ));
    }
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\"}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                workload
            )
        })
        .collect();
    out.push_str(&events.join(","));
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, NO_PARENT, "run", 0, 100),
            span(2, 1, "rep", 10, 40),
            span(3, 1, "rep", 30, 60), // overlaps span 2 by 10
            span(4, 2, "op", 10, 20),
            span(5, 1, "late", 90, 120), // sticks out: clipped to 90..100
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10));
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10);
        let names = by_name(&spans);
        assert_eq!(names["rep"], (2, 60, 50));
    }

    #[test]
    fn nested_self_times_sum_to_the_root() {
        let spans = [
            span(1, NO_PARENT, "workload", 0, 1_000),
            span(2, 1, "rep", 100, 900),
            span(3, 2, "world.run", 150, 850),
            span(4, 3, "op", 200, 300),
            span(5, 3, "op", 500, 600),
            span(6, 4, "sc.send", 210, 250),
            span(9, NO_PARENT, "other", 0, 50),
        ];
        assert!((self_time_coverage(&spans, 1) - 1.0).abs() < 1e-12);
        assert!((self_time_coverage(&spans, 3) - 1.0).abs() < 1e-12);
        assert_eq!(self_time_coverage(&spans, 77), 0.0);
    }

    #[test]
    fn parents_resolve_or_are_reported() {
        let ok = [span(1, NO_PARENT, "a", 0, 1), span(2, 1, "b", 0, 1)];
        assert!(unresolved_parents(&ok).is_empty());
        let bad = [span(1, NO_PARENT, "a", 0, 1), span(2, 7, "b", 0, 1)];
        assert_eq!(unresolved_parents(&bad), vec![2]);
    }

    #[test]
    fn recorder_nests_and_exports_loadable_json() {
        let rec = Spans::new();
        {
            let run = rec.enter("run", NO_PARENT, 0);
            let rep = rec.enter("rep", run.id(), 0);
            drop(rec.enter("op", rep.id(), 1));
        }
        let spans = rec.finished();
        assert_eq!(spans.len(), 3);
        assert!(unresolved_parents(&spans).is_empty());
        assert_eq!(spans[0].name, "run");
        let json = to_chrome_json(&spans, "pp_small");
        let doc = empi_trace::json::parse(&json).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2 + 3);
        let op = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("op"));
        let args = op.and_then(|e| e.get("args")).unwrap();
        assert_eq!(
            args.get("workload").and_then(|w| w.as_str()),
            Some("pp_small")
        );
        assert_eq!(
            args.get("parent").and_then(|p| p.as_f64()),
            Some(spans[1].id as f64)
        );
    }
}
