//! Host-time spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name (the layer, e.g. `arch.run`), a start and an end on
//! one monotonic clock, the span that caused it and the id of the request
//! or job it belongs to. Spans stay in memory while the benchmark runs and
//! are written out once, at exit. With recording off, [`Spans::span`] is a
//! plain call, so traced and untraced passes do the same work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its parent span (0 = none) and its request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// The enclosing span's id, or 0 at the root.
    pub parent: u64,
    /// The request or job every span of one unit of work shares.
    pub request: u64,
}

impl Ctx {
    /// The root context of request `request`.
    pub fn root(request: u64) -> Self {
        Self { parent: 0, request }
    }
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// The causing span's id, or 0.
    pub parent: u64,
    /// The request or job id.
    pub request: u64,
    /// The layer name.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: each span's duration minus the part of it that
    /// its child spans cover.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean duration per call, in ms (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// The in-memory span recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; with `on == false` every [`span`](Self::span) is a plain
    /// call.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// Runs `f` inside a span named `name` under `ctx`; `f` receives the
    /// context its own child spans should use.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.on {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Ctx { parent: id, request: ctx.request });
        let end_ns = self.now_ns();
        let span = Span { id, parent: ctx.parent, request: ctx.request, name, start_ns, end_ns };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Per-layer totals and self times over every recorded span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.snapshot())
    }

    /// Writes every span as one JSON object per line to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.snapshot() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-layer totals over `spans`. Children of one span never overlap in
/// this benchmark (each unit of work runs on one thread), so a span's self
/// time is its duration minus the summed durations of its children.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// A human-readable self-time table, largest self time first.
pub fn render_self_times(times: &BTreeMap<&'static str, LayerTime>) -> String {
    let mut rows: Vec<_> = times.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let total: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    let mut out = format!(
        "{:<24} {:>7} {:>12} {:>12} {:>7}\n",
        "layer", "calls", "total_ms", "self_ms", "self%"
    );
    for (name, t) in rows {
        let share = if total == 0 { 0.0 } else { t.self_ns as f64 * 100.0 / total as f64 };
        writeln!(
            out,
            "{name:<24} {:>7} {:>12.3} {:>12.3} {share:>6.1}%",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_request_and_link_parents() {
        let spans = Spans::new(true);
        spans.span("outer", Ctx::root(9), |ctx| {
            spans.span("inner", ctx, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let all = spans.snapshot();
        assert_eq!(all.len(), 2);
        let inner = all.iter().find(|s| s.name == "inner").unwrap();
        let outer = all.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(all.iter().all(|s| s.request == 9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn self_time_excludes_children() {
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans =
            [mk(2, 1, "child", 10, 40), mk(3, 1, "child", 50, 60), mk(1, 0, "parent", 0, 100)];
        let t = layer_times(&spans);
        assert_eq!(t["parent"], LayerTime { calls: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(t["child"], LayerTime { calls: 2, total_ns: 40, self_ns: 40 });
        assert_eq!(t["child"].mean_ms(), 20.0 / 1e6);
    }

    #[test]
    fn recording_off_records_nothing() {
        let spans = Spans::off();
        assert_eq!(spans.span("x", Ctx::root(1), |_| 5), 5);
        assert!(spans.snapshot().is_empty());
    }
}
