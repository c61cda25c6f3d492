//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The layers themselves are not instrumented (spans inside the engine are a
//! later change): every span here starts and ends in the benchmark's own
//! files. Spans are kept in memory and written once, at exit, as
//! Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// Layer-qualified name (`sim.new`, `campaign.run_point`, ...).
    pub name: String,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// The in-memory span recorder. A disabled recorder does nothing, so the
/// untraced repetitions run the same code without recording.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Creates a recorder.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that is a child of the innermost open one.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        value
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// A span's self time: its duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Self time summed per span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let mut rows: Vec<(String, u64, usize)> = Vec::new();
        for span in &self.spans {
            let own = self.self_ns(span.id);
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => rows.push((span.name.clone(), own, 1)),
            }
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        rows
    }

    /// Serialises the spans as Chrome-trace JSON. Each complete event keeps
    /// `id`, `parent` and `workload` in its `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut s = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \
                 \"workload\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}}}",
                span.name,
                span.name.split('.').next().unwrap_or(""),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.id,
                parent,
                workload,
                span.start_ns,
                span.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut spans = Spans::new(true);
        spans.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let all = spans.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        let inner = all[1].end_ns - all[1].start_ns;
        let outer = all[0].end_ns - all[0].start_ns;
        assert_eq!(spans.self_ns(0), outer - inner);
        assert!(spans.to_chrome_json("w").contains("\"parent\": 0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::off();
        spans.scope("outer", |_| ());
        assert!(spans.all().is_empty());
    }
}
