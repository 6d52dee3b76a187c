//! In-memory span log for the traced pass. Spans are recorded by the
//! benchmark's own code around calls into the program's public functions
//! (`rep → step → {f2p, p2f, cross}`), kept in memory, and written to
//! `trace_<workload>.jsonl` when the run ends. In-program spans are a later
//! issue; until then self time is what the outside view cannot attribute.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// `None` for a root span.
    pub parent: Option<u32>,
    pub rank: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("rank", Json::Num(self.rank as f64)),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
        ])
    }
}

/// One rank's span log. The step loop and the `TimedBackend` wrapper of the
/// same rank share it; the mutex is never contended (one thread per rank).
#[derive(Clone)]
pub struct SpanLog {
    inner: Arc<Mutex<Inner>>,
    epoch: Instant,
    rank: u32,
}

struct Inner {
    spans: Vec<Span>,
    /// Ids of the spans currently open, innermost last.
    open: Vec<u32>,
    next_id: u32,
}

impl SpanLog {
    /// `epoch` is shared by all ranks of a process so their timestamps line
    /// up in the written trace.
    pub fn new(rank: usize, epoch: Instant) -> Self {
        Self {
            inner: Arc::new(Mutex::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                next_id: 0,
            })),
            epoch,
            rank: rank as u32,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span log poisoned: a rank panicked mid-span")
    }

    /// Open a span as a child of the innermost open one. Takes no
    /// timestamp: the caller brackets the measured call with its own
    /// `Instant`s and hands them to [`Self::end`], so a timed region holds
    /// nothing but the call.
    pub fn begin(&self) -> u32 {
        let mut g = self.lock();
        let id = g.next_id;
        g.next_id += 1;
        g.open.push(id);
        id
    }

    pub fn end(&self, id: u32, name: &'static str, start: Instant, end: Instant) {
        let mut g = self.lock();
        assert_eq!(g.open.pop(), Some(id), "spans must close innermost first");
        let parent = g.open.last().copied();
        let span = Span {
            id,
            parent,
            rank: self.rank,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        g.spans.push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Self time of `span`: its duration minus the part its direct children
/// cover. Children of one rank run one after another on that rank's thread,
/// so they never overlap each other and the cover is their summed duration.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children: u64 = all
        .iter()
        .filter(|c| c.parent == Some(span.id) && c.rank == span.rank)
        .map(Span::dur_ns)
        .sum();
    span.dur_ns().saturating_sub(children)
}

/// Sums over the step spans of all ranks, and over their direct children by
/// name. Transforms of the warm-up steps hang off the rep span, not a step
/// span, and are not counted. By construction
/// `f2p + p2f + cross + self = step`.
#[derive(Debug, Default, PartialEq)]
pub struct StepTotals {
    /// Step spans counted (ranks × timed steps).
    pub steps: u64,
    pub step_ns: u64,
    pub self_ns: u64,
    /// `(total ns, calls)`.
    pub f2p: (u64, u64),
    pub p2f: (u64, u64),
    pub cross: (u64, u64),
}

impl StepTotals {
    pub fn of(spans: &[Span]) -> Self {
        let mut t = Self::default();
        for step in spans.iter().filter(|s| s.name == "step") {
            t.steps += 1;
            t.step_ns += step.dur_ns();
            t.self_ns += self_ns(step, spans);
            for c in spans
                .iter()
                .filter(|c| c.parent == Some(step.id) && c.rank == step.rank)
            {
                let slot = match c.name {
                    "f2p" => &mut t.f2p,
                    "p2f" => &mut t.p2f,
                    "cross" => &mut t.cross,
                    other => panic!("unexpected span `{other}` under a step"),
                };
                slot.0 += c.dur_ns();
                slot.1 += 1;
            }
        }
        t
    }

    /// Inverse of [`Self::to_json`]; a missing field reads 0.
    pub fn from_json(j: &Json) -> Self {
        let n = |key: &str| j.num(key) as u64;
        Self {
            steps: n("steps"),
            step_ns: n("step_ns"),
            self_ns: n("self_ns"),
            f2p: (n("f2p_ns"), n("f2p_calls")),
            p2f: (n("p2f_ns"), n("p2f_calls")),
            cross: (n("cross_ns"), n("cross_calls")),
        }
    }

    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj([
            ("steps", n(self.steps)),
            ("step_ns", n(self.step_ns)),
            ("self_ns", n(self.self_ns)),
            ("f2p_ns", n(self.f2p.0)),
            ("f2p_calls", n(self.f2p.1)),
            ("p2f_ns", n(self.p2f.0)),
            ("p2f_calls", n(self.p2f.1)),
            ("cross_ns", n(self.cross.0)),
            ("cross_calls", n(self.cross.1)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tree_and_self_time() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let log = SpanLog::new(1, epoch);
        let rep = log.begin();
        let step = log.begin();
        let f2p = log.begin();
        log.end(f2p, "f2p", at(10), at(40));
        let cross = log.begin();
        log.end(cross, "cross", at(45), at(50));
        log.end(step, "step", at(5), at(100));
        let step2 = log.begin();
        log.end(step2, "step", at(100), at(120));
        log.end(rep, "rep", at(0), at(130));
        let spans = log.take();
        assert_eq!(spans.len(), 5);

        let by_id = |id| spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(by_id(rep).parent, None);
        assert_eq!(by_id(step).parent, Some(rep));
        assert_eq!(by_id(f2p).parent, Some(step));
        assert_eq!(by_id(cross).parent, Some(step));
        assert!(spans.iter().all(|s| s.rank == 1));

        // step = 95 µs, children 30 + 5 → self 60; leaf self = duration;
        // rep = 130 − (95 + 20).
        assert_eq!(self_ns(by_id(step), &spans), 60_000);
        assert_eq!(self_ns(by_id(f2p), &spans), 30_000);
        assert_eq!(self_ns(by_id(step2), &spans), 20_000);
        assert_eq!(self_ns(by_id(rep), &spans), 15_000);
        // Children plus self give the parent back exactly.
        let kids: u64 = [f2p, cross].iter().map(|&i| by_id(i).dur_ns()).sum();
        assert_eq!(kids + self_ns(by_id(step), &spans), by_id(step).dur_ns());

        let j = by_id(f2p).to_json();
        assert_eq!(j.num("start_ns"), 10_000.0);
        assert_eq!(j.get("name").and_then(Json::as_str), Some("f2p"));
        assert_eq!(by_id(rep).to_json().get("parent"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let epoch = Instant::now();
        let log = SpanLog::new(0, epoch);
        let a = log.begin();
        let _b = log.begin();
        log.end(a, "a", epoch, epoch);
    }

    /// Children + self = step, exactly, over two ranks; warm-up transforms
    /// (parent = rep) stay out.
    #[test]
    fn step_totals_close() {
        let span = |id, parent, rank, name, a, b| Span {
            id,
            parent,
            rank,
            name,
            start_ns: a,
            end_ns: b,
        };
        let spans = vec![
            span(0, None, 0, "rep", 0, 1000),
            span(1, Some(0), 0, "f2p", 0, 50),
            span(2, Some(0), 0, "step", 100, 400),
            span(3, Some(2), 0, "f2p", 110, 200),
            span(4, Some(2), 0, "cross", 200, 210),
            span(5, Some(2), 0, "p2f", 210, 300),
            span(6, Some(2), 0, "f2p", 300, 350),
            span(2, Some(0), 1, "step", 100, 420),
            span(3, Some(2), 1, "f2p", 120, 220),
        ];
        let t = StepTotals::of(&spans);
        assert_eq!(t.steps, 2);
        assert_eq!(t.step_ns, 620);
        assert_eq!(t.f2p, (240, 3));
        assert_eq!(t.p2f, (90, 1));
        assert_eq!(t.cross, (10, 1));
        assert_eq!(t.f2p.0 + t.p2f.0 + t.cross.0 + t.self_ns, t.step_ns);
        assert_eq!(t.to_json().num("f2p_calls"), 3.0);
        assert_eq!(StepTotals::from_json(&t.to_json()), t);
    }
}
