//! In-memory spans recorded from the benchmark's own code, around its calls
//! into each layer: workload, then trial or search cell, then search stage,
//! then `evaluate` call.  Nothing inside the crates is instrumented; the
//! spans are written out once, when the run ends.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.  Times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub thread: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A small dense id for the calling thread (the first thread to ask is 0).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: Cell<Option<u64>> = const { Cell::new(None) };
    }
    ID.with(|id| {
        id.get().unwrap_or_else(|| {
            let fresh = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(Some(fresh));
            fresh
        })
    })
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only runs
/// its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.  `f` receives
    /// the new span's id (0 when tracing is off) to parent its children,
    /// which may run on other threads.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .push(Span {
                id,
                parent,
                name,
                start,
                end,
                thread: thread_id(),
            });
        out
    }

    /// Every recorded span, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder panicked while holding the span list")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one NDJSON line to `path`, creating its parent
    /// directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start\":{},\"end\":{},\"thread\":{}}}",
                s.id, s.name, s.start, s.end, s.thread
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_across_threads() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| tracer.span("inner", outer, |_| ()));
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_ne!(outer.thread, inner.thread);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, |id| id), None);
        assert!(tracer.spans().is_empty());
    }
}
