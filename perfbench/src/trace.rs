//! In-memory span recorder. Spans are recorded by the benchmark around its
//! calls into each layer's public functions, kept in memory, and written out
//! when the run ends. A disabled tracer records nothing and costs one branch
//! per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `core.step`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
    /// Trial or job the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans of one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (share it between threads so
    /// their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty recording with the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.origin)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for trial/job `id`; spans opened before the
    /// matching [`end`](Self::end) become its children.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, token: Option<usize>) {
        if let Some(index) = token {
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(index), "spans must close innermost first");
            self.spans[index].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name` for trial/job `id`.
    pub fn scope<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let token = self.begin(name, id);
        let result = f(self);
        self.end(token);
        result
    }

    /// Records an already-measured interval (e.g. a wait that began on
    /// another thread) under the currently open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: u64, end: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span with an explicit parent index.
    pub fn record_child(
        &mut self,
        name: &'static str,
        id: u64,
        start: u64,
        end: u64,
        parent: usize,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: Some(parent),
                id,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this recording, re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Writes the spans as NDJSON, one object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start, s.end, s.id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // trial [0,100) > generate [10,40) > inner [15,25); verify [50,60).
        let spans = vec![
            span("trial", 0, 100, None),
            span("generate", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("verify", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("poll", 10, 30, Some(0)),
            span("poll", 20, 40, Some(0)),
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn scopes_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.scope("outer", 7, |t| t.scope("inner", 7, |_| 5));
        assert_eq!(v, 5);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].start <= t.spans()[1].start);
        assert!(t.spans()[1].end <= t.spans()[0].end);
        let own = self_times(t.spans());
        assert_eq!(own[0] + own[1], t.spans()[0].duration());

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.scope("outer", 1, |t| t.scope("inner", 1, |_| 3)), 3);
        assert!(off.record("x", 1, 0, 1).is_none());
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Tracer::new(true, Instant::now());
        a.record("a", 0, 0, 10);
        let mut b = Tracer::new(true, Instant::now());
        let root = b.record("root", 1, 0, 10).unwrap();
        b.record_child("child", 1, 2, 3, root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
