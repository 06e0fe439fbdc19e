//! The benchmark's own span recorder: the ruler of the traced run. It is
//! deliberately not `rescue-telemetry`, so a rewrite of that crate cannot
//! move what the per-layer numbers are measured with.
//!
//! Spans (name, start, end, parent, op id) are kept in memory and written
//! out when the run ends. A layer's *self time* is its spans' duration
//! minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u64,
}

pub struct Recorder {
    /// Off = every call is a no-op: the control arm that prices tracing.
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Self time and span count of one layer.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub self_ms: f64,
    pub spans: u64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.self_ms / self.spans as f64
        }
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// A leaf span around one call into a layer.
    pub fn timed<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, op);
        let out = f();
        self.close();
        out
    }

    /// Self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ms += (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e6;
            e.spans += 1;
        }
        out
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A closed time budget: named layers plus one named residual equal the
/// façade's wall, all in the same unit per op.
pub struct Budget {
    pub title: String,
    pub unit: &'static str,
    pub facade: f64,
    pub layers: Vec<(String, f64)>,
    pub residual_name: &'static str,
}

impl Budget {
    pub fn attributed(&self) -> f64 {
        self.layers.iter().map(|(_, v)| v).sum()
    }

    pub fn residual(&self) -> f64 {
        self.facade - self.attributed()
    }

    pub fn attributed_share(&self) -> f64 {
        self.attributed() / self.facade
    }

    pub fn render(&self) -> String {
        let mut out = format!("budget: {}\n", self.title);
        let mut line = |name: &str, v: f64| {
            let _ = writeln!(
                out,
                "  {name:<24} {v:>12.4} {} {:>6.1} %",
                self.unit,
                100.0 * v / self.facade
            );
        };
        for (name, v) in &self.layers {
            line(name, *v);
        }
        line(self.residual_name, self.residual());
        line("= facade", self.facade);
        out
    }
}
