//! In-memory spans recorded around calls into each layer.
//!
//! A disabled [`Tracer`] calls the closure and reads no clock, so untraced
//! runs pay nothing. An enabled one records, per span, its wall interval,
//! the process CPU it spent, and the DES counter activity inside it, and
//! keeps everything in memory until [`Tracer::write_jsonl`] at exit.

use parvagpu::des::counters;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub wall_ns: u64,
    /// Process CPU over the span, every thread.
    pub cpu_ns: u64,
    /// DES counter activity recorded inside the span.
    pub des: counters::Snapshot,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: 0,
            wall_ns: 0,
            cpu_ns: 0,
            des: counters::Snapshot::default(),
        });
        self.open.push(idx);
        let des0 = counters::snapshot();
        let cpu0 = crate::sys::process_cpu_ns();
        let start = Instant::now();
        let out = f(self);
        let wall_ns = nanos(start.elapsed());
        let cpu_ns = crate::sys::process_cpu_ns().saturating_sub(cpu0);
        let des = counters::snapshot().delta(&des0);
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = nanos(start.duration_since(self.t0));
        span.wall_ns = wall_ns;
        span.cpu_ns = cpu_ns;
        span.des = des;
        out
    }

    /// Spans named `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Wall times of the spans named `name`, ms.
    #[must_use]
    pub fn wall_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.wall_ns as f64 / 1e6).collect()
    }

    /// Write every span as one JSON line.
    ///
    /// # Errors
    /// The file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"wall_ns\":{},\"cpu_ns\":{},\"des_events\":{},\"des_loop_cpu_ns\":{}}}",
                s.name, s.op, s.start_ns, s.wall_ns, s.cpu_ns, s.des.events, s.des.loop_cpu_nanos
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", 0, |_| 5), 5);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 1, |_| std::hint::black_box(0u64));
        });
        t.span("next", 2, |_| ());
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert!(t.spans[0].wall_ns >= t.spans[1].wall_ns);
        assert_eq!(t.wall_ms("inner").len(), 1);
    }
}
