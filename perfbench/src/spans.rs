//! The benchmark's own span recorder for traced runs.
//!
//! Spans live in memory and are written out as JSON lines at the end.
//! Each has a name, start, end and parent; every span of one report
//! carries that report's trace id. Spans are recorded here, around
//! calls into the program's public functions — the program itself is
//! not instrumented for the benchmark.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub trace_id: u64,
    pub name: &'static str,
    /// Offsets from the recorder's epoch.
    pub start: Duration,
    pub end: Duration,
}

/// An in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span; returns its id for children.
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(SpanRec {
            id,
            parent,
            trace_id,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        trace_id: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let r = f();
        let id = self.record(trace_id, parent, name, start, Instant::now());
        (r, id)
    }

    /// Records a child of `parent` that lasted `len`, laid out from
    /// `start` (for stage durations the program reports itself, such
    /// as [`inca_server::DepotTiming`]).
    pub fn child(
        &mut self,
        trace_id: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        len: Duration,
    ) -> Instant {
        self.record(trace_id, parent, name, start, start + len);
        start + len
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Mean duration of spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0usize), |(sum, n), s| {
                (sum + (s.end - s.start).as_secs_f64(), n + 1)
            });
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64 * 1e6
        }
    }

    /// Total self time (duration minus direct children) per span name,
    /// in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_time.entry(s.parent).or_default() += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let own =
                (s.end - s.start).as_secs_f64() - child_time.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_default() += own;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace_id\":\"{:016x}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.trace_id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new();
        let t0 = Instant::now();
        let parent = rec.record(7, 0, "submit", t0, t0 + Duration::from_micros(100));
        let t = rec.child(7, parent, "depot.insert", t0, Duration::from_micros(30));
        rec.child(7, parent, "depot.archive", t, Duration::from_micros(50));
        let selfs = rec.self_times();
        assert!((selfs["submit"] - 20e-6).abs() < 1e-9);
        assert!((selfs["depot.archive"] - 50e-6).abs() < 1e-9);
        assert!((rec.mean_us("depot.insert") - 30.0).abs() < 1e-6);
        assert!(rec.spans().iter().all(|s| s.trace_id == 7));
    }
}
