//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into each layer
//! (the system under test carries no instrumentation). They stay in memory while the run
//! is timed and are written out as JSON lines afterwards.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; [`NO_PARENT`] marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// The beaconing round, PD pair or churn step the span belongs to.
    pub round: u32,
    /// The AS whose node did the work, 0 when the span is not per-node.
    pub asn: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, round: u32, asn: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
            asn,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name).or_insert(0) += span.duration_ns();
        }
        totals
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"as\":{}}}",
                span.name, span.start_ns, span.end_ns, span.round, span.asn
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut rec = Recorder::new();
        let root = rec.open("root", NO_PARENT, 0, 0);
        let child = rec.open("child", root, 0, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(child);
        rec.close(root);
        assert!(rec.total("child") >= 2_000_000);
        assert!(rec.total("root") >= rec.total("child"));
        assert_eq!(rec.totals()["child"], rec.total("child"));
        assert_eq!(rec.spans()[child as usize].parent, root);
    }
}
