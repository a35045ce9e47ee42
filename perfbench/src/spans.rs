//! Spans recorded from outside the program, around each call into a
//! layer, and the fold that turns them into per-layer self time.
//!
//! The traced replay is single-threaded, so spans nest strictly: a stack
//! of open spans gives every span its parent. Spans stay in memory and are
//! folded once the replay ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `extract.refine`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
}

/// Collects spans for one traced replay.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Open a span named `name` inside the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let start = self.epoch.elapsed();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start, end: start, parent });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let idx = self.open.pop().expect("close matches an open span");
        self.spans[idx].end = self.epoch.elapsed();
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (see [`fold_self_time`]).
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        fold_self_time(&self.spans)
    }
}

/// Fold spans into self time per name: each span's duration minus the
/// durations of its direct children. Children of one parent never overlap
/// (the replay is single-threaded), so this is the part of the span's
/// interval that no child covers.
pub fn fold_self_time(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_time) {
        *out.entry(s.name).or_default() += (s.end - s.start).saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start: Duration::from_millis(start), end: Duration::from_millis(end), parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // pass [0,100) > kernel [10,90) > { saturate [10,30), extract [30,80) > refine [40,70) }
        let spans = vec![
            span("pass", 0, 100, None),
            span("kernel", 10, 90, Some(0)),
            span("egraph.saturate", 10, 30, Some(1)),
            span("extract", 30, 80, Some(1)),
            span("extract.refine", 40, 70, Some(3)),
        ];
        let f = fold_self_time(&spans);
        let ms = |n: &str| f[n].as_millis();
        assert_eq!(ms("pass"), 20);
        assert_eq!(ms("kernel"), 10);
        assert_eq!(ms("egraph.saturate"), 20);
        assert_eq!(ms("extract"), 20);
        assert_eq!(ms("extract.refine"), 30);
        // self times partition the root span
        assert_eq!(f.values().sum::<Duration>(), Duration::from_millis(100));
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = vec![
            span("kernel", 0, 10, None),
            span("ssa.build", 0, 4, Some(0)),
            span("kernel", 10, 30, None),
            span("ssa.build", 12, 15, Some(2)),
        ];
        let f = fold_self_time(&spans);
        assert_eq!(f["ssa.build"], Duration::from_millis(7));
        assert_eq!(f["kernel"], Duration::from_millis(23));
    }

    #[test]
    fn recorder_nests_and_partitions_wall_time() {
        let mut rec = Recorder::default();
        rec.open("outer");
        let v = rec.span("inner", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        rec.close();
        assert_eq!(v, 7);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let outer = &rec.spans()[0];
        let f = rec.self_times();
        assert_eq!(f["outer"] + f["inner"], outer.end - outer.start);
        assert!(f["inner"] >= Duration::from_millis(2));
    }
}
