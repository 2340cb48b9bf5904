//! The benchmark's in-memory span recorder: one span around every call
//! the traced pass makes into a layer, flushed to `out/spans.json` when
//! the run ends. Spans inside the crates are a later issue; these are
//! taken from the outside, at the public-function boundary.

use serde::Serialize;
use std::time::Instant;

/// One recorded call: which layer function, when (nanoseconds since
/// the recorder was created), the span that caused it, and the request
/// or sample it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: Option<u64>,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread; nesting follows call order.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of whatever span is
    /// open, and hands back its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover. Children are sequential on one thread, so
/// their durations add.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.nanos());
        }
    }
    own
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 with siblings 10..30 and 40..90; the second has a
        // nested child 50..60.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(50, 60, Some(2)),
        ];
        assert_eq!(self_nanos(&spans), vec![30, 20, 40, 10]);
        // Self times add back to the root's duration.
        assert_eq!(self_nanos(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        let got = rec.span("outer", Some(7), |rec| {
            rec.span("first", Some(7), |_| ());
            rec.span("second", Some(7), |rec| rec.span("inner", None, |_| 42))
        });
        assert_eq!(got, 42);
        let s = rec.spans();
        let parents: Vec<_> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert_eq!(durations(s, "first").len(), 1);
    }
}
