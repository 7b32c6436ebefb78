//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. A span names its layer and its parent, spans of one
//! request share `req_id`, and everything stays in memory until
//! [`Recorder::write_json`] at the end of the run.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover, so the self times of a request's
//! spans add up to the request span — [`Recorder::unbalanced_roots`]
//! checks that they do.

use crate::metrics::Outcome;
use crate::RunArgs;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;

/// One recorded interval. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Shared by every span of one request (or one solve).
    pub req_id: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            spans: Vec::with_capacity(spans),
        }
    }

    /// Record one span and return its id. A child is clipped to its
    /// parent, so "children never exceed parent" holds by construction;
    /// the parent must have been recorded first.
    pub fn span(
        &mut self,
        parent: Option<u32>,
        req_id: u64,
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let (mut start_ns, mut end_ns) = (start_ns, end_ns.max(start_ns));
        if let Some(p) = parent {
            let p = &self.spans[p as usize];
            start_ns = start_ns.clamp(p.start_ns, p.end_ns);
            end_ns = end_ns.clamp(start_ns, p.end_ns);
        }
        self.spans.push(Span {
            id,
            parent,
            req_id,
            name,
            layer,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by span id: its duration minus
    /// the union of its children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.duration_ns() - covered(kids))
            .collect()
    }

    /// Root spans whose tree's self times do not add up to the root's
    /// duration — zero unless sibling spans overlap, which would count
    /// one interval for two layers.
    pub fn unbalanced_roots(&self) -> usize {
        let self_times = self.self_times();
        let mut sums = vec![0u64; self.spans.len()];
        // Children always follow their parent, so one backward pass
        // folds every subtree into its root.
        for s in self.spans.iter().rev() {
            let total = sums[s.id as usize] + self_times[s.id as usize];
            match s.parent {
                Some(p) => sums[p as usize] += total,
                None => sums[s.id as usize] = total,
            }
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && sums[s.id as usize] != s.duration_ns())
            .count()
    }

    /// Sum of self times per `(layer, name)`, in first-seen order — the
    /// per-layer rows of the trace.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, u64, u64)> {
        let self_times = self.self_times();
        let mut rows: Vec<(&'static str, &'static str, u64, u64)> = Vec::new();
        for s in &self.spans {
            let t = self_times[s.id as usize];
            match rows.iter_mut().find(|r| r.0 == s.layer && r.1 == s.name) {
                Some(r) => {
                    r.2 += t;
                    r.3 += 1;
                }
                None => rows.push((s.layer, s.name, t, 1)),
            }
        }
        rows
    }

    /// End of a traced run: check that every root's rows add up to its
    /// span, write the trace file and say where it is.
    pub fn finish(&self, out: &mut Outcome, args: &RunArgs, every: u64) {
        let unbalanced = self.unbalanced_roots();
        out.check(unbalanced == 0, || {
            format!("{unbalanced} trace roots do not sum to their rows")
        });
        let path = args.trace_path();
        match self.write_json(&path, &args.workload, args.seed, every) {
            Ok(()) => out.notes.push(format!("trace: {}", path.display())),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }

    /// Write the trace as one JSON object. To bound the file, only
    /// requests whose `req_id` is a multiple of `every` are written
    /// (whole requests, never part of one); the header says so.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64, every: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\
             \"spans_recorded\":{},\"written_req_id_multiple_of\":{every},\"rows\":[",
            self.spans.len()
        )?;
        let rows = self.rows();
        for (i, (layer, name, self_ns, count)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"layer\":\"{layer}\",\"name\":\"{name}\",\"self_ns\":{self_ns},\"spans\":{count}}}{comma}"
            )?;
        }
        writeln!(out, "],\"spans\":[")?;
        let mut first = true;
        for s in self.spans.iter().filter(|s| s.req_id % every.max(1) == 0) {
            line.clear();
            if !first {
                line.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                line,
                "{{\"id\":{},\"parent\":{parent},\"req_id\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req_id, s.name, s.layer, s.start_ns, s.end_ns
            )
            .expect("writing to a String");
            out.write_all(line.as_bytes())?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut r = Recorder::default();
        let root = r.span(None, 1, "request", "bench", 100, 1100);
        let lag = r.span(Some(root), 1, "lag", "loadgen", 100, 150);
        let send = r.span(Some(root), 1, "send", "serve.client", 150, 180);
        let server = r.span(Some(root), 1, "server", "serve.server", 200, 900);
        let inject = r.span(Some(server), 1, "inject", "serve.server", 200, 230);
        let t = r.self_times();
        assert_eq!(t[lag as usize], 50);
        assert_eq!(t[send as usize], 30);
        assert_eq!(t[inject as usize], 30);
        assert_eq!(t[server as usize], 670);
        // The remainder is the wire: 1000 − (50 + 30 + 700).
        assert_eq!(t[root as usize], 220);
        assert_eq!(t.iter().sum::<u64>(), 1000, "rows sum to the root span");
        assert_eq!(r.unbalanced_roots(), 0);
    }

    #[test]
    fn children_never_exceed_parent() {
        let mut r = Recorder::default();
        let root = r.span(None, 7, "request", "bench", 1000, 2000);
        // Starts before and ends after the parent: clipped to it.
        let wide = r.span(Some(root), 7, "server", "serve.server", 500, 2500);
        // Entirely after the parent: collapses to an empty span at its end.
        let late = r.span(Some(root), 7, "late", "serve.server", 3000, 3100);
        let s = r.spans();
        assert_eq!(
            (s[wide as usize].start_ns, s[wide as usize].end_ns),
            (1000, 2000)
        );
        assert_eq!(s[late as usize].duration_ns(), 0);
        let t = r.self_times();
        assert_eq!(t[root as usize], 0);
        assert!(t.iter().zip(s).all(|(t, s)| *t <= s.duration_ns()));
    }

    #[test]
    fn overlapping_siblings_are_reported_as_unbalanced() {
        let mut r = Recorder::default();
        let root = r.span(None, 1, "request", "bench", 0, 100);
        r.span(Some(root), 1, "a", "x", 0, 60);
        r.span(Some(root), 1, "b", "y", 40, 100);
        // The parent is fully covered, but 40..60 is counted for both.
        assert_eq!(r.self_times()[root as usize], 0);
        assert_eq!(r.unbalanced_roots(), 1);
        // A second, well-formed root is not affected.
        let ok = r.span(None, 2, "request", "bench", 200, 300);
        r.span(Some(ok), 2, "a", "x", 200, 250);
        assert_eq!(r.unbalanced_roots(), 1);
    }

    #[test]
    fn rows_group_by_layer_and_name() {
        let mut r = Recorder::default();
        for req in 0..3u64 {
            let root = r.span(None, req, "request", "bench", req * 100, req * 100 + 50);
            r.span(
                Some(root),
                req,
                "send",
                "serve.client",
                req * 100,
                req * 100 + 20,
            );
        }
        assert_eq!(
            r.rows(),
            vec![("bench", "request", 90, 3), ("serve.client", "send", 60, 3)]
        );
    }
}
