//! In-memory span recorder for the traced runs.
//!
//! A span is one call into a layer: its name, the crossbar layer it
//! belongs to (if any), start and end, the span that caused it and the
//! batch it served. Spans stay in memory while the workload runs and are
//! written out once at exit; per-layer metrics are aggregated from their
//! self times.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer operation, e.g. `encode`.
    pub name: &'static str,
    /// Crossbar layer, 1-based (`0` for spans outside any layer).
    pub layer: usize,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Batch (or plan) the span served.
    pub batch: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    batch: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags spans opened from now on with `batch`.
    pub fn set_batch(&mut self, batch: u64) {
        self.batch = batch;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: usize) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: usize, f: impl FnOnce() -> T) -> T {
        self.begin(name, layer);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per `(name, layer)`, in ns.
    pub fn self_ns_by_key(&self) -> BTreeMap<(&'static str, usize), u64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry((span.name, span.layer)).or_insert(0) += self_ns;
        }
        out
    }

    /// Total (not self) duration summed per `(name, layer)`, in ns.
    pub fn total_ns_by_key(&self) -> BTreeMap<(&'static str, usize), u64> {
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry((span.name, span.layer)).or_insert(0) += span.duration_ns();
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own}, \"parent\": {parent}, \"batch\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.batch
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: 0,
            start_ns,
            end_ns,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // forward [0,100) ⊃ layer [10,60) ⊃ encode [20,30), execute [30,55)
        let spans = vec![
            span("forward", 0, 100, None),
            span("layer", 10, 60, Some(0)),
            span("encode", 20, 30, Some(1)),
            span("execute", 30, 55, Some(1)),
            span("head", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 50 - 35, 10, 25, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 150, Some(0)), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn recorder_links_parents_and_sums_by_key() {
        let mut t = Tracer::default();
        t.set_batch(3);
        t.span("forward", 0, || {});
        t.begin("outer", 0);
        t.span("encode", 2, || std::hint::black_box(0));
        t.span("encode", 2, || std::hint::black_box(0));
        t.end();
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(1));
        assert!(s.iter().all(|x| x.batch == 3 && x.end_ns >= x.start_ns));
        let own = t.self_ns_by_key();
        let total = t.total_ns_by_key();
        assert_eq!(own[&("encode", 2)], total[&("encode", 2)]);
        assert!(own[&("outer", 0)] <= total[&("outer", 0)]);
    }
}
