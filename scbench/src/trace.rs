//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its own calls into each layer (nothing inside the
//! engine is instrumented), kept in a `Vec`, and written out once, at
//! exit, in Chrome-trace format (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Where a span sits relative to the operation's blocking path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// On the path the caller waits for.
    Critical,
    /// Work the engine overlaps with the critical path (background
    /// materialization of flagged nodes); excluded from critical sums.
    Background,
    /// Time the walk spends re-running a step to measure its parts; not
    /// part of the operation being walked.
    Rerun,
    /// A share of its parent's time, measured by a [`Lane::Rerun`] on the
    /// same bytes and placed inside the parent to attribute that time to
    /// a lower layer.
    Attributed,
}

/// Runs `f` inside a critical-lane span when tracing, bare otherwise.
pub fn spanned<T>(
    tr: Option<&mut Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.call(layer, name, f),
        None => f(),
    }
}

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// The repo module the call belongs to (`disk`, `format`, `exec`, …).
    pub layer: &'static str,
    pub name: &'static str,
    /// Benchmark round (or request) the span belongs to.
    pub round: u32,
    pub lane: Lane,
    /// The benchmark thread that recorded the span.
    pub thread: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    round: u32,
}

impl Tracer {
    /// A recorder for benchmark thread `thread`, timing from `origin`
    /// (recorders sharing an origin can be [`Tracer::merge`]d).
    pub fn new(origin: Instant, thread: u32) -> Self {
        Tracer {
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Appends the spans another thread recorded from the same origin.
    pub fn merge(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span that is a child of the innermost open one.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        lane: Lane,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            round: self.round,
            lane,
            thread: self.thread,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Critical-lane shorthand for [`Tracer::span`].
    pub fn call<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(layer, name, Lane::Critical, |_| f())
    }

    /// Records a span timed elsewhere (on another thread) as a child of
    /// the innermost open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        lane: Lane,
        started: Instant,
        ended: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            round: self.round,
            lane,
            thread: self.thread,
            start_us: at(started),
            end_us: at(ended),
        });
    }

    /// Id of the most recently *closed or opened* span (the one a
    /// following [`Tracer::attribute`] refers to).
    pub fn last(&self) -> SpanId {
        self.spans.len() - 1
    }

    /// Records `dur_us` of `parent`'s time as belonging to a lower layer:
    /// a child placed `offset_us` into the parent, clipped to it.
    pub fn attribute(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        offset_us: f64,
        dur_us: f64,
    ) {
        let p = &self.spans[parent];
        let start_us = (p.start_us + offset_us).min(p.end_us);
        let end_us = (start_us + dur_us).min(p.end_us);
        let (round, thread) = (p.round, p.thread);
        self.spans.push(Span {
            parent: Some(parent),
            layer,
            name,
            round,
            lane: Lane::Attributed,
            thread,
            start_us,
            end_us,
        });
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its children cover (overlapping children are not double
    /// counted; children are clipped to the parent).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_us.max(parent.start_us);
                let hi = s.end_us.min(parent.end_us);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.dur_us() - covered
            })
            .collect()
    }

    /// Total self time per layer, microseconds, over spans matching `keep`.
    pub fn layer_self_us(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_times_us()) {
            if keep(s) {
                *out.entry(s.layer).or_insert(0.0) += self_us;
            }
        }
        out
    }

    /// Ids of the spans called `name`, in recording order.
    pub fn named(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Time `id`'s caller waited for the walked operation: the span's
    /// duration minus the walk's own re-runs directly under it. What
    /// remains is the critical children plus the span's self time between
    /// them; background children ran beside those and add nothing.
    pub fn critical_us(&self, id: SpanId) -> f64 {
        let reruns: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.lane == Lane::Rerun)
            .map(Span::dur_us)
            .sum();
        self.spans[id].dur_us() - reruns
    }

    /// Renders the spans as a Chrome-trace JSON document.
    pub fn to_chrome_json(&self) -> String {
        let self_us = self.self_times_us();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            // One row per (thread, lane group): spans on a row nest properly.
            let tid = s.thread * 4
                + match s.lane {
                    Lane::Critical | Lane::Attributed => 1,
                    Lane::Background => 2,
                    Lane::Rerun => 3,
                };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"round\":{},\"lane\":\"{:?}\",\"self_us\":{:.3}}}}}",
                s.layer,
                s.name,
                s.layer,
                s.start_us,
                s.dur_us(),
                tid,
                id,
                parent,
                s.round,
                s.lane,
                self_us[id],
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, layer: &'static str, start_us: f64, end_us: f64) -> Span {
        Span {
            parent,
            layer,
            name: "op",
            round: 0,
            lane: Lane::Critical,
            thread: 0,
            start_us,
            end_us,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let t = tracer(vec![
            span(None, "session", 0.0, 100.0),
            // Two overlapping children cover [10, 50): 40 us, not 50.
            span(Some(0), "disk", 10.0, 40.0),
            span(Some(0), "exec", 30.0, 50.0),
            // A grandchild only reduces its own parent.
            span(Some(1), "format", 15.0, 25.0),
            // A child running past its parent is clipped to it.
            span(Some(0), "disk", 90.0, 130.0),
        ]);
        assert_eq!(t.self_times_us(), vec![50.0, 20.0, 20.0, 10.0, 40.0]);
        let by_layer = t.layer_self_us(|_| true);
        assert_eq!(by_layer["session"], 50.0);
        assert_eq!(by_layer["disk"], 60.0);
        assert_eq!(by_layer["format"], 10.0);
    }

    #[test]
    fn critical_time_excludes_reruns_only() {
        let lane = |lane, start_us, end_us| Span {
            lane,
            ..span(Some(0), "disk", start_us, end_us)
        };
        let t = tracer(vec![
            span(None, "controller", 0.0, 100.0),
            lane(Lane::Critical, 5.0, 30.0),
            // Overlaps the critical path on another thread: the caller
            // does not wait for it, though it runs inside the span.
            lane(Lane::Background, 10.0, 40.0),
            lane(Lane::Rerun, 30.0, 50.0),
            lane(Lane::Attributed, 5.0, 15.0),
        ]);
        // The background span ran on another thread while the caller was
        // busy anyway; only the 20 us of rerun come off.
        assert_eq!(t.critical_us(0), 80.0);
        assert_eq!(t.critical_us(1), 25.0);
    }

    #[test]
    fn nesting_and_attribution_follow_the_call_structure() {
        let mut t = Tracer::new(Instant::now(), 0);
        t.set_round(7);
        t.span("session", "refresh", Lane::Critical, |t| {
            t.call("disk", "read_table", || ());
            let read = t.last();
            t.attribute(read, "format", "decode", 0.0, 1e9);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(1))
        );
        assert!(s.iter().all(|s| s.round == 7));
        // The attributed child is clipped to the span it explains.
        assert_eq!(s[2].lane, Lane::Attributed);
        assert!(s[2].end_us <= s[1].end_us);
        assert!(t.self_times_us()[1].abs() < 1e-9);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"disk.read_table\""));
        assert!(json.contains("\"parent\":1"));
        assert_eq!(t.named("refresh"), vec![0]);

        // Merging keeps each recorder's parent links intact.
        let mut other = Tracer::new(t.origin, 1);
        other.span("bench", "request", Lane::Critical, |o| {
            o.call("server", "call", || ())
        });
        t.merge(other);
        let s = t.spans();
        assert_eq!((s[3].parent, s[4].parent, s[4].thread), (None, Some(3), 1));
    }
}
