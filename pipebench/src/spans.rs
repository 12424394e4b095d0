//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer: its name, the job or request it belongs to, the span that
//! caused it, and its start and end on the run's clock. With tracing
//! off, [`Spans::span`] only calls its closure. The spans stay in
//! memory and are written out once, when the run ends; the per-layer
//! table is derived from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Job or request identifier shared by every span of that op.
    pub id: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
pub struct Spans {
    on: bool,
    epoch: Instant,
    open: Vec<usize>,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans {
            on,
            epoch,
            open: Vec::new(),
            list: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`; spans opened before its
    /// [`Spans::end`] become its children. `None` with tracing off.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.list.len();
        let start_ns = self.now();
        self.list.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span [`Spans::begin`] opened.
    pub fn end(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.open.pop();
            self.list[idx].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Spans) -> R) -> R {
        let idx = self.begin(name, id);
        let r = f(self);
        self.end(idx);
        r
    }

    /// Appends another recorder's spans (a client thread's), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Summed duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Writes one tab-separated line per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tid\tname\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
