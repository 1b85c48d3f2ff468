//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it.
//! Spans stay in memory while the replay runs and are written out as
//! JSON lines once it ends; self time and coverage are computed from
//! the same records.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One finished (or still open) span. Times are nanoseconds since the
/// tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer call (`check.apply`, …) or `request` for the replay
    /// loop's own per-request work.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
}

/// Records spans when on; costs one branch per call when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle for an entered span (`None` while tracing is off).
#[must_use]
pub struct Entered(Option<u32>);

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.on {
            return Entered(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        self.open.push(idx);
        Entered(Some(idx))
    }

    /// Closes the span `e` (spans close innermost first).
    pub fn exit(&mut self, e: Entered) {
        if let Some(idx) = e.0 {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.spans[idx as usize].end = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let e = self.enter(name);
        let r = f();
        self.exit(e);
        r
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time (duration minus the part covered by child spans), in ns,
/// per span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Durations, in ns, of every span named `name`, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect()
}

/// Total self time per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "request",
                start: 0,
                end: 100,
                parent: ROOT,
            },
            Span {
                name: "check.apply",
                start: 10,
                end: 40,
                parent: 0,
            },
            Span {
                name: "check.report",
                start: 50,
                end: 70,
                parent: 0,
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["request"], 50);
        assert_eq!(durations(&spans, "check.apply"), vec![30.0]);
    }

    #[test]
    fn off_tracer_records_nothing_and_on_tracer_nests() {
        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let outer = on.enter("request");
        on.span("check.apply", || ());
        on.exit(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, 0);
        assert!(on.spans()[0].end >= on.spans()[1].end);
        let mut buf = Vec::new();
        on.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
