//! Spans recorded from the benchmark's own code around each call into a
//! layer. A span has a name, a start, an end and the id of the span that
//! caused it (a window span is the parent of its query spans). Spans stay in
//! memory until the run ends; a layer's number is its self time — the span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

use crate::report::Samples;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans, or — when disabled — only runs the closures, so the same
/// pipeline code measures the cost of tracing itself.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer { enabled, epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        id
    }

    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Renames an open or closed span (a call classified after it returns).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if id != ROOT {
            self.spans[id as usize].name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time per span name: `(calls, total self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Wall durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(Duration::from_nanos(s.end_ns - s.start_ns));
        }
        out
    }

    /// Writes every span as `id name parent start_ns end_ns`, tab-separated.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{id}\t{}\t{parent}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
