//! In-memory spans for the traced run.
//!
//! A span is a named interval around one call into a layer, tagged with
//! the request it served and the span that caused it. Spans stay in
//! memory while the benchmark runs and are written out, one JSON object
//! per line, when it ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `product.read_valid`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub req: u64,
}

/// Records nested spans; `enter`/`exit` must pair up like a stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Whether `enter`, `exit` and `rename` record anything.
    on: bool,
}

impl Tracer {
    /// An empty tracer whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }

    /// A tracer whose `enter`, `exit` and `rename` do nothing: the same
    /// code path with tracing off, to measure what tracing costs.
    pub fn off(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit pairs with enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Renames the innermost open span (a call whose layer is only known
    /// once it returned, e.g. a product read that had to patch).
    pub fn rename(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = *self.open.last().expect("rename inside a span");
        self.spans[id].name = name;
    }

    /// Records an already measured interval (times since the epoch).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, grouped by span name, in µs.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                .collect();
            let own = (s.end_ns - s.start_ns).saturating_sub(covered(s.start_ns, s.end_ns, kids));
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// How much of `[start, end)` the union of `intervals` covers, in ns.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("root", 0, 100, None, 1);
        t.record("a", 10, 30, Some(root), 1);
        // Overlapping children are not double-counted.
        t.record("b", 20, 50, Some(root), 1);
        // A child sticking out of its parent only counts inside it.
        t.record("c", 90, 120, Some(root), 1);
        let st = t.self_times_us();
        assert_eq!(st["root"], vec![(100.0 - 40.0 - 10.0) / 1e3]);
        assert_eq!(st["a"], vec![0.02]);
        assert_eq!(st["c"], vec![0.03]);
    }

    #[test]
    fn enter_exit_nest() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer", 7);
        t.enter("inner", 7);
        t.rename("inner2");
        t.exit();
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].name, "inner2");
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off(Instant::now());
        t.enter("outer", 1);
        t.rename("renamed");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
