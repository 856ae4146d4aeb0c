//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into the
//! layer crates' public functions; nothing inside the program is
//! instrumented. A span has a name, start, end, parent span and the id of
//! the operation it belongs to. A span's self time is its duration minus
//! the durations of its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans of one traced run. Spans nest by call order: a span begun
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Sets the operation id stamped on the spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `span` (the innermost open span) and returns its duration in
    /// seconds.
    pub fn end(&mut self, span: SpanId) -> f64 {
        let closed = self.open.pop();
        assert_eq!(closed, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_ns = self.now_ns();
        self.duration(span.0)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let value = f();
        let seconds = self.end(id);
        (value, seconds)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn duration(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        span.end_ns.saturating_sub(span.start_ns) as f64 * 1e-9
    }

    /// Self times in seconds of every span named `name`, in recording
    /// order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                child_time[parent] += self.duration(index);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .map(|(index, _)| self.duration(index) - child_time[index])
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error that stopped the write.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::default();
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_s = tracer.end(inner);
        let outer_s = tracer.end(outer);
        let outer_self = tracer.self_times("outer")[0];
        assert!(inner_s >= 0.005);
        assert!((outer_self - (outer_s - inner_s)).abs() < 1e-9);
        assert_eq!(tracer.self_times("inner"), vec![inner_s]);
    }
}
