//! Spans recorded from outside the program, around its public calls.
//!
//! A [`Tracer`] is either off — [`Tracer::span`] then only runs the
//! closure — or on, in which case every span keeps its name, start, end,
//! parent and op id in memory until [`Tracer::write_jsonl`] writes them
//! out at exit. Self time is a span's duration minus the time its
//! children cover (children never overlap: the program runs at one
//! thread).

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to (one per edit; 0 for batch work).
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new request: spans recorded until the next call share its
    /// op id.
    pub fn begin_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Ends the current request; later spans are batch work (op 0).
    pub fn end_op(&self) {
        self.op.set(0);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (or just runs it when off).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[index].end = end;
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed self time in seconds of every span named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let outer = t.total("outer");
        let own = t.self_time("outer");
        assert!(outer >= 0.025, "{outer}");
        assert!(own < outer - 0.019 && own >= 0.004, "{own} of {outer}");
        assert_eq!(t.len(), 2);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", || 7), 7);
        assert_eq!(off.len(), 0);
    }
}
