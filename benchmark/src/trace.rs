//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer's public functions (layer = crate). Nothing inside the
//! program under test is instrumented; spans are kept in a `Vec` and written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<stage>`, e.g. `core.head`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// The op this span belongs to: spans of one op share it.
    pub op: u64,
}

/// Span recorder. Disabled, every call is a branch and nothing else.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing (untraced runs).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Switch recording on or off (the traced run alternates blocks to
    /// measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag subsequent spans with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Indexed like the span list.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let d = s.end_ns.saturating_sub(s.start_ns);
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(d);
            }
        }
        own
    }

    /// Self times in microseconds grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Whole durations, in microseconds, of the spans named `name`.
    pub fn total_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        )?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                w,
                "\n{{\"i\":{i},\"name\":\"{}\",\"op\":{},\"start\":{},\"end\":{},\"self\":{own},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        tr.scope("a.outer", |tr| {
            spin(200);
            tr.scope("b.inner", |tr| {
                spin(300);
                tr.scope("c.leaf", |_| spin(100));
            });
            tr.scope("b.inner", |_| spin(100));
        });
        assert_eq!(tr.spans.len(), 4);
        let own = tr.self_times_ns();
        let total = tr.spans[0].end_ns - tr.spans[0].start_ns;
        assert_eq!(own.iter().sum::<u64>(), total, "self times tile the root");
        assert!(own[0] >= 200_000 && own[0] < total - 500_000 + 1);
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[2].parent, 1);
        assert_eq!(tr.spans[3].parent, 0);
        assert!(tr.spans.iter().all(|s| s.op == 7));
        let by = tr.self_us_by_name();
        assert_eq!(by["b.inner"].len(), 2);
        let whole = tr.total_us("b.inner");
        assert!(whole[0] >= 400.0 && whole[0] > by["b.inner"][0]);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.scope("x.y", |_| 5), 5);
        assert_eq!(tr.spans.len(), 0);
        tr.set_enabled(true);
        tr.scope("x.y", |_| ());
        assert_eq!(tr.spans.len(), 1);
    }
}
