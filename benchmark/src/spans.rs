//! In-memory spans recorded by the harness around its calls into each
//! layer. Spans are kept in memory while the traced pass runs and are
//! written out (Chrome trace-event JSON) only when it ends, so recording
//! costs two clock reads and a `Vec` push per span.

use std::time::Instant;

/// One timed interval: a call into a layer, or a group of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`runtime.gather`, `species.speciate`, ...).
    pub name: &'static str,
    /// Start, microseconds since the log was created.
    pub start_us: f64,
    /// End, microseconds since the log was created.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The identifier spans of one generation share.
    pub generation: u64,
}

impl Span {
    /// `end - start`, microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, generation: u64) -> usize {
        let start_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            generation,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) and returns
    /// its duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
        self.spans[id].duration_us() / 1e3
    }

    /// A span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children are merged,
    /// and a child is clipped to its parent).
    pub fn self_time_us(&self, id: usize) -> f64 {
        let parent = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut covered = 0.0;
        let mut cursor = parent.start_us;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        parent.duration_us() - covered
    }

    /// The log as Chrome trace-event JSON (`ph: "X"` complete events on
    /// one track; open it in Perfetto or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"generation\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_us,
                s.duration_us(),
                s.generation,
                s.parent.map_or(-1, |p| p as i64),
                self.self_time_us(i),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, f64, f64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new();
        for &(name, start_us, end_us, parent) in spans {
            log.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                generation: 0,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let log = log_with(&[
            ("gen", 0.0, 100.0, None),
            ("gather", 10.0, 40.0, Some(0)),
            ("speciate", 50.0, 70.0, Some(0)),
        ]);
        assert_eq!(log.self_time_us(0), 50.0);
        assert_eq!(log.self_time_us(1), 30.0, "a leaf is all self time");
    }

    #[test]
    fn self_time_merges_overlap_and_clips_to_parent() {
        let log = log_with(&[
            ("gen", 100.0, 200.0, None),
            ("a", 110.0, 150.0, Some(0)),
            ("b", 140.0, 170.0, Some(0)),
            ("late", 190.0, 250.0, Some(0)),
            ("inside-a", 120.0, 130.0, Some(1)),
        ]);
        // a ∪ b covers 110..170 (60), late is clipped to 190..200 (10);
        // grandchildren do not count against the grandparent.
        assert_eq!(log.self_time_us(0), 30.0);
        assert_eq!(log.self_time_us(1), 30.0);
    }

    #[test]
    fn enter_exit_nests_and_closes_inner_spans() {
        let mut log = SpanLog::new();
        let outer = log.enter("gen", 3);
        let inner = log.enter("gather", 3);
        let _forgotten = log.enter("probe", 3);
        log.exit(inner);
        let sibling = log.enter("speciate", 3);
        log.exit(sibling);
        log.exit(outer);
        let s = &log.spans;
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0), "exit popped the forgotten span too");
        assert!(s
            .iter()
            .all(|x| x.end_us >= x.start_us && x.generation == 3));
        assert!(log.self_time_us(0) <= s[0].duration_us());
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let log = log_with(&[("gen", 0.0, 10.0, None), ("gather", 2.0, 8.0, Some(0))]);
        let json = log.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"parent\":0,\"self_us\":6.000"));
    }
}
