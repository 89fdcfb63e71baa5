//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (nothing inside the crates is instrumented), kept in memory and
//! written out as JSON lines when the run ends. Spans of one client
//! operation carry its request id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dataflasks::types::RequestId;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers (`gateway.submit_get`, `sim.run_for`…).
    pub name: &'static str,
    /// Client operation the span belongs to, if any.
    pub request: Option<RequestId>,
    /// Index + 1 of the enclosing span (0: none).
    pub parent: usize,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Span storage; `None` in untraced runs so call sites cost one branch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self::starting_at(Instant::now())
    }

    /// An empty recorder whose clock counts from `epoch`.
    #[must_use]
    pub fn starting_at(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        request: Option<RequestId>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().map_or(0, |&index| index + 1),
            start_ns,
            end_ns,
        });
    }

    /// Opens a span that later spans nest under; close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.record(name, None, start_ns, start_ns);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost span opened by [`Self::enter`].
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// All recorded spans, in start order of recording.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is the
    /// span's duration minus the part its direct children cover.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent > 0 {
                child_ns[span.parent - 1] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut summary: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            let entry = summary.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        summary
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (index, span) in self.spans.iter().enumerate() {
            let request = span
                .request
                .map_or_else(|| "null".to_string(), |id| format!("\"{id}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                index + 1,
                span.parent,
                span.name,
                request,
                span.start_ns,
                span.end_ns
            );
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Measured cost of recording one span (two clock reads and a push), in
/// nanoseconds: the tracing overhead per span.
#[must_use]
pub fn span_cost_ns() -> f64 {
    const ROUNDS: u64 = 200_000;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let a = tracer.now_ns();
        let b = tracer.now_ns();
        tracer.record("calibrate", None, a, b);
    }
    start.elapsed().as_nanos() as f64 / ROUNDS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::new();
        tracer.spans.push(Span {
            name: "phase",
            request: None,
            parent: 0,
            start_ns: 0,
            end_ns: 100,
        });
        tracer.open.push(0);
        tracer.record("submit", Some(RequestId::new(1, 1)), 10, 30);
        tracer.record("submit", Some(RequestId::new(1, 2)), 40, 50);
        tracer.open.pop();
        let summary = tracer.summary();
        assert_eq!(summary["phase"], (1, 100, 70));
        assert_eq!(summary["submit"], (2, 30, 30));
        assert!(tracer.to_jsonl().contains("\"request\":\"c1#2\""));
    }
}
