//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer, kept in memory, and written out when the run ends. Off, a
//! span costs one branch, so the end-to-end run shares the traced run's
//! code.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one op share this.
    pub op: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// All recorders of one run share `origin`, so spans from two
    /// connection threads merge onto one time line.
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end = self.now();
    }

    /// One call into a layer.
    pub fn call<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "finished with a span open");
        self.spans
    }
}

/// Appends `more` (a recorder's own spans, parents indexing into
/// itself) to `all`.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let clipped = (s.start.max(parent.start), s.end.min(parent.end));
            if clipped.0 < clipped.1 {
                children.entry(p).or_default().push(clipped);
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = children
                .get_mut(&(i as u32))
                .map_or(0, |intervals| union_length(intervals));
            s.duration() - covered
        })
        .collect()
}

fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    total
}

/// Total self time and call count per span name, in name order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += own;
        entry.1 += 1;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union covers 10..60.
            span("b", 30, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
            // A grandchild takes nothing from `op` directly.
            span("c", 90, 120, Some(0)),
        ];
        let own = self_times(&spans);
        // op: 100 − (50 from a∪b) − (10 of c inside op) = 40.
        assert_eq!(own, vec![40, 25, 30, 5, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], (40, 1));
        assert_eq!(by_name["a"], (25, 1));
    }

    #[test]
    fn layer_self_times_sum_to_the_op_less_its_own() {
        let mut t = Tracer::new(true, Instant::now());
        t.enter("op", 7);
        t.call("x", 7, || std::hint::black_box(1 + 1));
        t.call("y", 7, || ());
        t.exit();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn off_records_nothing_and_merge_rebases_parents() {
        let mut off = Tracer::new(false, Instant::now());
        off.enter("op", 0);
        assert_eq!(off.call("x", 0, || 5), 5);
        off.exit();
        assert!(off.into_spans().is_empty());

        let mut all = vec![span("first", 0, 1, None)];
        merge(
            &mut all,
            vec![span("op", 0, 9, None), span("x", 1, 2, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
    }
}
