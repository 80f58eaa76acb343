//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it and the op it belongs to. Spans
//! are only recorded in the traced run; they stay in memory and are
//! written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// Op id of work that belongs to set-up rather than a timed op.
pub const SETUP_OP: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: u64,
    end: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// Span recorder. Shared by reference with sweep worker threads, so the
/// span list sits behind a mutex.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A finished span as the metric code reads it.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Op the span belongs to.
    pub op: u64,
    /// Wall duration in nanoseconds.
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans.
    pub fn scope<R>(
        &self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name: name.into(),
                start: 0,
                end: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[id].start = start;
        spans[id].end = end;
        out
    }

    /// Every finished span named `name`, in recording order.
    pub fn timings(&self, name: &str) -> Vec<Timing> {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let self_ns = self_times(&spans);
        spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, self_ns)| Timing {
                op: s.op,
                total_ns: s.end - s.start,
                self_ns,
            })
            .collect()
    }

    /// Total duration of the spans named `name` in each timed op (set-up
    /// spans excluded), keyed by op id.
    pub fn per_op_ns(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut by_op = BTreeMap::new();
        for t in self.timings(name) {
            if t.op != SETUP_OP {
                *by_op.entry(t.op).or_default() += t.total_ns;
            }
        }
        by_op
    }

    /// Writes every span as CSV: `id,parent,op,name,start_ns,end_ns,self_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned by a panic");
        let self_ns = self_times(&spans);
        let mut out = String::from("id,parent,op,name,start_ns,end_ns,self_ns\n");
        for (id, (s, self_ns)) in spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let op = if s.op == SETUP_OP {
                "setup".to_string()
            } else {
                s.op.to_string()
            };
            let _ = writeln!(
                out,
                "{id},{parent},{op},{},{},{},{self_ns}",
                s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on parallel workers may overlap).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: String::new(),
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),  // overlaps its sibling
            span(90, 120, Some(0)), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 30, 30]);
    }
}
