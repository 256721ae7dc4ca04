//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the program's public functions,
//! from the benchmark's own code: nothing inside the program is
//! instrumented. A disabled tracer runs the same closures and records
//! nothing, so untraced and traced passes execute identical work.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `generator.sweep`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Shared id of the design point or fleet run the call belongs to.
    pub group: u64,
    /// Work items the call covered (segments, sketches, bytes...): the
    /// per-layer metric divides self time by it.
    pub items: u64,
}

/// Aggregated self time of one layer across every recorded span.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    /// Number of spans.
    pub calls: u64,
    /// Sum of the spans' items.
    pub items: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Span recorder; `enabled == false` makes every call a plain closure call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }
}

impl Tracer {
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new span group: later spans share its id (one per design
    /// point or fleet pass).
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` covering `items` work items.
    pub fn span<T>(&mut self, name: &'static str, items: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group: self.group,
            items,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name, in first-seen order. Calls are
    /// sequential, so the time children cover is the sum of their
    /// durations.
    pub fn layer_times(&self) -> Vec<(&'static str, LayerTime)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, LayerTime)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let pos = match out.iter().position(|(n, _)| *n == s.name) {
                Some(p) => p,
                None => {
                    out.push((s.name, LayerTime::default()));
                    out.len() - 1
                }
            };
            let t = &mut out[pos].1;
            t.calls += 1;
            t.items += s.items;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{},\"items\":{}}}",
                s.name, s.start_ns, s.end_ns, s.group, s.items
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.set_enabled(true);
        t.span("outer", 1, |t| {
            t.span("inner", 4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.layer_times();
        let outer = &times[0].1;
        let inner = &times[1].1;
        assert_eq!(times[0].0, "outer");
        assert_eq!(inner.items, 4);
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        assert_eq!(t.span("x", 1, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
