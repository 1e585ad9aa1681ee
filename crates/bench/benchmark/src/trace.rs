//! The benchmark's only clock, and the span recorder of traced runs.
//!
//! Every layer is timed from outside: the benchmark wraps its calls
//! into a crate's public functions in [`span`], and the Desiccant
//! probe (`probe.rs`) wraps the calls the platform makes into its
//! memory manager. Spans stay in memory and are written out once, at
//! exit. With recording off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the first call: the one wall-clock read of
/// the benchmark. No reading ever reaches simulation state.
pub fn now_ns() -> u64 {
    #[allow(clippy::disallowed_methods)]
    // tidy:allow(wall-clock) -- the benchmark measures host time; readings never enter the simulation
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded interval. `rep` is the request id: every span of one
/// timed rep carries that rep's number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording spans of rep `rep` under a root span `name`
/// (`setup` or `rep`).
pub fn begin_root(name: &'static str, rep: u32) {
    REC.with_borrow_mut(|r| {
        r.on = true;
        r.rep = rep;
    });
    open(name);
}

/// Closes the root span and stops recording.
pub fn end_root() {
    close();
    REC.with_borrow_mut(|r| r.on = false);
}

fn open(name: &'static str) {
    let start = now_ns();
    REC.with_borrow_mut(|r| {
        let parent = r.open.last().copied();
        let rep = r.rep;
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            rep,
        });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
    });
}

fn close() {
    let end = now_ns();
    REC.with_borrow_mut(|r| {
        if let Some(idx) = r.open.pop() {
            if let Some(s) = r.spans.get_mut(idx) {
                s.end = end;
            }
        }
    });
}

fn recording() -> bool {
    REC.with_borrow(|r| r.on)
}

/// Runs `f` inside a span named `name` (`<layer>.<operation>`).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !recording() {
        return f();
    }
    open(name);
    let out = f();
    close();
    out
}

/// Adds `n` to the work counter `name` while recording.
pub fn count(name: &'static str, n: u64) {
    REC.with_borrow_mut(|r| {
        if r.on {
            *r.counts.entry(name).or_insert(0) += n;
        }
    });
}

/// Everything recorded so far, leaving the recorder empty.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    REC.with_borrow_mut(|r| {
        r.open.clear();
        (std::mem::take(&mut r.spans), std::mem::take(&mut r.counts))
    })
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children never overlap on this single thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child: Vec<u64> = vec![0; spans.len()];
    for s in spans {
        if let Some(c) = s.parent.and_then(|p| child.get_mut(p)) {
            *c += s.dur();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.dur().saturating_sub(*c))
        .collect()
}

/// Writes `spans` as a JSON document for offline inspection, each with
/// its self time. A root's self time is the part of it no layer span
/// covers: for a `rep` root, the residual.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": [");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"self\": {self_ns}, \"parent\": {parent}, \"rep\": {}}}",
            s.name, s.start, s.end, s.rep
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            rep: 0,
        };
        let spans = [
            s("rep", 0, 100, None),
            s("faas.run_until", 10, 60, Some(0)),
            s("desiccant.select_reclaims", 20, 30, Some(1)),
            s("snapshot.checkpoint", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(spans[2].layer(), "desiccant");
    }

    #[test]
    fn spans_nest_and_are_dropped_when_not_recording() {
        span("faas.submit", || {});
        begin_root("rep", 3);
        span("faas.run_until", || {
            span("desiccant.select_reclaims", || count("desiccant.picked", 2))
        });
        end_root();
        count("desiccant.picked", 5);
        let (spans, counts) = take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["rep", "faas.run_until", "desiccant.select_reclaims"]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end >= s.start));
        assert_eq!(counts.get("desiccant.picked"), Some(&2));
    }
}
