//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, span id, parent id, request id)`, taken
//! around a call into one layer. The parent is whatever span is open on
//! the calling thread, so the storage decorator's spans nest under the
//! `core.append_row` or `core.commit` span that caused them. Spans stay
//! in memory and are written out once, at exit. With tracing off
//! `span()` is a flag test and a direct call.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// `(span id, request id)` of the innermost open span on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Turn span recording on or off (process-wide).
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::Relaxed);
}

/// Run `f` inside a span named `name`. `request` ties the span to one
/// request; 0 inherits the enclosing span's request.
pub fn span<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    let t = tracer();
    if !t.on.load(Ordering::Relaxed) {
        return f();
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, outer_request) = CURRENT.with(Cell::get);
    let request = if request == 0 { outer_request } else { request };
    CURRENT.with(|c| c.set((id, request)));
    let start_ns = t.origin.elapsed().as_nanos() as u64;
    let out = f();
    let end_ns = t.origin.elapsed().as_nanos() as u64;
    CURRENT.with(|c| c.set((parent, outer_request)));
    t.spans.lock().expect("span lock").push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent,
        request,
    });
    out
}

/// Every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span lock"))
}

/// Sum of `name` spans' durations, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Self time of the `name` spans, in ns: each span's duration minus the
/// part of its interval that its child spans cover (overlapping children
/// are counted once).
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .sum()
}

/// Write spans as CSV: `name,start_ns,end_ns,span_id,parent_id,request_id`.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name,start_ns,end_ns,span_id,parent_id,request_id")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            s("row", 0, 100, 1, 0),
            s("put", 10, 30, 2, 1),
            s("put", 20, 40, 3, 1),  // overlaps the first child
            s("put", 90, 120, 4, 1), // clipped at the parent's end
            s("row", 200, 250, 5, 0),
        ];
        assert_eq!(self_ns(&spans, "row"), (100 - 30 - 10) + 50);
        assert_eq!(total_ns(&spans, "put"), 20 + 20 + 30);
    }
}
