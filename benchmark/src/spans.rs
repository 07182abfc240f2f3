//! Benchmark-owned trace spans.
//!
//! The traced pass of a workload wraps every call it makes into a layer
//! in a span: name, start, end, the span that caused it, and the id of
//! the op it belongs to. Spans stay in memory until the run ends and are
//! then written to `benchmark/out/trace-<workload>.json`. A span's self
//! time is its duration minus the part of it its children cover.
//!
//! These spans sit *around* the program's public functions; spans inside
//! the program are the program's own `obs::span` rows.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Row {
    name: u16,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of a span set.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotals {
    pub name: &'static str,
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder. One per thread; [`Spans::absorb`] merges
/// them when the threads are done.
pub struct Spans {
    origin: Instant,
    names: Vec<&'static str>,
    rows: Vec<Row>,
}

impl Spans {
    /// A recorder whose clock starts at `origin` (shared by every
    /// recorder of one run, so merged spans sit on one time axis).
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            names: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        let index = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| {
                self.names.push(name);
                self.names.len() - 1
            });
        u16::try_from(index).expect("span names are a small fixed set")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it stays open until [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> SpanId {
        let name = self.name_index(name);
        let now = self.now_ns();
        self.rows.push(Row {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            op,
            start_ns: now,
            end_ns: now,
        });
        u32::try_from(self.rows.len() - 1).expect("fewer than 2^32 spans per run")
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let row = &mut self.rows[id as usize];
        row.end_ns = now;
        now - row.start_ns
    }

    /// Times `f` as one childless span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose ends were read off the clock by the caller
    /// (the serving clients time a request first and file it after).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.open(name, parent, op);
        let row = &mut self.rows[id as usize];
        row.start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        row.end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        id
    }

    /// Moves another recorder's spans into this one.
    pub fn absorb(&mut self, other: Spans) {
        let offset = u32::try_from(self.rows.len()).expect("fewer than 2^32 spans per run");
        let names: Vec<u16> = other.names.iter().map(|n| self.name_index(n)).collect();
        self.rows.extend(other.rows.into_iter().map(|row| Row {
            name: names[row.name as usize],
            parent: if row.parent == NO_PARENT {
                NO_PARENT
            } else {
                row.parent + offset
            },
            ..row
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.rows
            .iter()
            .filter(|row| self.names[row.name as usize] == name)
            .map(|row| row.end_ns - row.start_ns)
            .collect()
    }

    /// Calls, busy time and self time per span name, by name.
    pub fn totals(&self) -> Vec<NameTotals> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for row in &self.rows {
            if row.parent != NO_PARENT {
                let parent = &self.rows[row.parent as usize];
                // Clip to the parent: only the covered part is subtracted.
                let start = row.start_ns.max(parent.start_ns);
                let end = row.end_ns.min(parent.end_ns);
                if end > start {
                    children.entry(row.parent).or_default().push((start, end));
                }
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (index, row) in self.rows.iter().enumerate() {
            let busy = row.end_ns - row.start_ns;
            let covered = children
                .get_mut(&(index as u32))
                .map_or(0, |intervals| union_len(intervals));
            let name = self.names[row.name as usize];
            let entry = by_name.entry(name).or_insert(NameTotals {
                name,
                calls: 0,
                busy_ns: 0,
                self_ns: 0,
            });
            entry.calls += 1;
            entry.busy_ns += busy;
            entry.self_ns += busy - covered;
        }
        by_name.into_values().collect()
    }

    /// Writes the spans to `benchmark/out/trace-<workload>.json` and
    /// prints calls, busy time and self time per span name. A failure
    /// to write is reported but does not fail the run, whose numbers
    /// are already measured.
    pub fn save_and_print(&self, workload: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        match self.write_json(&path, workload) {
            Ok(()) => println!("trace: {} spans in {}", self.len(), path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
        println!(
            "{:<28} {:>9} {:>12} {:>12}",
            "span", "calls", "busy_ms", "self_ms"
        );
        for t in self.totals() {
            println!(
                "{:<28} {:>9} {:>12.3} {:>12.3}",
                t.name,
                t.calls,
                t.busy_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }

    /// Writes the span set as one JSON document: a name table and one
    /// `[name, start_ns, end_ns, parent, op]` row per span (`parent` is
    /// a row index, `-1` for a root).
    fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"names\":[")?;
        for (i, name) in self.names.iter().enumerate() {
            write!(out, "{}\"{name}\"", if i > 0 { "," } else { "" })?;
        }
        write!(out, "],\"spans\":[")?;
        for (i, row) in self.rows.iter().enumerate() {
            let parent = if row.parent == NO_PARENT {
                -1
            } else {
                i64::from(row.parent)
            };
            write!(
                out,
                "{}[{},{},{},{parent},{}]",
                if i > 0 { ",\n" } else { "\n" },
                row.name,
                row.start_ns,
                row.end_ns,
                row.op
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Total length of the union of half-open intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
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

    fn fixed(rows: &[(&'static str, i64, u64, u64)]) -> Spans {
        let mut spans = Spans::new(Instant::now());
        for &(name, parent, start_ns, end_ns) in rows {
            let name = spans.name_index(name);
            spans.rows.push(Row {
                name,
                parent: u32::try_from(parent).unwrap_or(NO_PARENT),
                op: 0,
                start_ns,
                end_ns,
            });
        }
        spans
    }

    fn totals_of(spans: &Spans, name: &str) -> NameTotals {
        spans
            .totals()
            .into_iter()
            .find(|t| t.name == name)
            .expect("name recorded")
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = fixed(&[
            ("op", -1, 0, 100),
            ("sweep", 0, 10, 60),
            ("encode", 0, 70, 90),
            ("run", 1, 20, 30),
        ]);
        assert_eq!(totals_of(&spans, "op").self_ns, 100 - 50 - 20);
        assert_eq!(totals_of(&spans, "sweep").self_ns, 50 - 10);
        assert_eq!(totals_of(&spans, "encode").self_ns, 20);
        assert_eq!(totals_of(&spans, "op").busy_ns, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Two children overlap on [30, 40); one overhangs the parent's end.
        let spans = fixed(&[("op", -1, 0, 100), ("a", 0, 10, 40), ("a", 0, 30, 120)]);
        assert_eq!(totals_of(&spans, "op").self_ns, 10);
        assert_eq!(totals_of(&spans, "a").calls, 2);
    }

    #[test]
    fn absorb_keeps_parent_links_and_names() {
        let mut main = fixed(&[("op", -1, 0, 10)]);
        let other = fixed(&[("request", -1, 0, 50), ("connect", 0, 5, 15)]);
        main.absorb(other);
        assert_eq!(main.len(), 3);
        assert_eq!(totals_of(&main, "request").self_ns, 40);
        assert_eq!(totals_of(&main, "op").self_ns, 10);
    }

    #[test]
    fn open_close_measures_real_time() {
        let mut spans = Spans::new(Instant::now());
        let op = spans.open("op", None, 3);
        spans.leaf("inner", Some(op), 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let took = spans.close(op);
        assert!(took >= 2_000_000);
        assert_eq!(spans.durations_ns("inner").len(), 1);
        assert!(totals_of(&spans, "op").self_ns < took);
    }
}
