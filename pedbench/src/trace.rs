//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer's public API in a span
//! (name, start, end, parent, request id). Spans stay in memory until the
//! run ends; then they are aggregated into per-layer self times and
//! written out as Chrome trace-event JSON. With tracing off no span is
//! recorded and the call runs bare.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request the span belongs to: one program pipeline, one execution
    /// job, or one session cycle.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a span hangs: its request and (for nested spans) its parent.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub req: u64,
    pub parent: Option<usize>,
}

impl Ctx {
    pub fn root(req: u64) -> Ctx {
        Ctx { req, parent: None }
    }
}

/// The span recorder. Shared by reference across client threads.
pub struct Tracer {
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` gets the context its own
    /// child spans should use.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(Ctx {
            req: ctx.req,
            parent: Some(id),
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent: ctx.parent,
            req: ctx.req,
        });
        r
    }

    /// Every recorded span, in id (start) order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Optional tracing: `None` runs the closure with no recording.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    ctx: Ctx,
    f: impl FnOnce(Ctx) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, ctx, f),
        None => f(ctx),
    }
}

/// Self time of every span: its duration minus the part its children
/// cover. Children of one parent run one after another on the parent's
/// thread, so their durations never overlap and simply subtract.
pub fn self_times(spans: &[Span]) -> Vec<(usize, u64)> {
    let mut child_ns: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Per request, the summed self time (ms) of spans named `name`; requests
/// without such a span are left out.
pub fn self_ms_by_req(spans: &[Span], name: &str) -> std::collections::BTreeMap<u64, f64> {
    let selfs: std::collections::HashMap<usize, u64> = self_times(spans).into_iter().collect();
    let mut per_req = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_req.entry(s.req).or_default() += selfs[&s.id] as f64 / 1e6;
    }
    per_req
}

/// [`self_ms_by_req`] values in request order.
pub fn self_ms_per_req(spans: &[Span], name: &str) -> Vec<f64> {
    self_ms_by_req(spans, name).into_values().collect()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Write the spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete ("X") event per span, request id as the row.
pub fn write_chrome(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{parent},\"req\":{}}}}}{}",
            s.name,
            s.req,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.req,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        t.span("outer", Ctx::root(7), |c| {
            t.span("inner", c, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.req, 7);
        let selfs: std::collections::HashMap<usize, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&outer.id], outer.dur_ns() - inner.dur_ns());
        assert_eq!(selfs[&inner.id], inner.dur_ns());
    }
}
