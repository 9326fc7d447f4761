//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer was created),
//! the span that caused it, the op id it belongs to, the pattern it ran
//! against, and the bytes and counted transitions it covered. Spans stay
//! in memory; [`Tracer::write_jsonl`] writes them out once, at the end.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;
/// Pattern index of a span that belongs to no single pattern.
pub const ANY: u8 = u8::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
    pub pattern: u8,
    pub bytes: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64, pattern: u8) -> u32 {
        let now = self.ns(Instant::now());
        self.push(name, parent, op, pattern, now, now)
    }

    /// Closes span `id` now, recording the bytes it covered.
    pub fn close(&mut self, id: u32, bytes: u64) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.bytes = bytes;
    }

    /// Attaches a counted quantity (transitions) to span `id`.
    pub fn set_count(&mut self, id: u32, count: u64) {
        self.spans[id as usize].count = count;
    }

    /// Records an already-timed span (`start` plus `dur`), e.g. a phase
    /// time a layer reports about itself.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        pattern: u8,
        start: Instant,
        dur: Duration,
        bytes: u64,
    ) -> u32 {
        let start_ns = self.ns(start);
        let id = self.push(
            name,
            parent,
            op,
            pattern,
            start_ns,
            start_ns + dur.as_nanos() as u64,
        );
        self.spans[id as usize].bytes = bytes;
        id
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        pattern: u8,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            pattern,
            bytes: 0,
            count: 0,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name` (optionally of one pattern).
    pub fn named<'a>(
        &'a self,
        name: &'a str,
        pattern: Option<u8>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && pattern.is_none_or(|p| s.pattern == p))
    }

    /// Writes `header`, then one JSON array per span:
    /// `[id, name, start_ns, end_ns, parent, op, pattern, bytes, count]`
    /// (`parent` is `null` for a root span).
    pub fn write_jsonl(&self, out: &mut impl Write, header: &str) -> io::Result<()> {
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "[{id},\"{}\",{},{},{parent},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, s.op, s.pattern, s.bytes, s.count
            )?;
        }
        out.flush()
    }
}
