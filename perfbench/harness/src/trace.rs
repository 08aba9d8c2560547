//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions; nothing inside the program is
//! instrumented. They stay in memory until the run ends and are then
//! written once, as a Chrome Trace Event file through the same writer
//! the CLI's `--trace-out` uses.

use std::collections::BTreeMap;
use std::time::Instant;

use streamlab::obs::{render_chrome_trace, WallSpan, WallTrace};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1.0e6
    }

    /// Run `f` inside a span named `name`, the child of the innermost
    /// open span. The layer is the name's first dotted component.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration of every span with this name, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1.0e3)
            .sum()
    }

    /// Self time per layer, milliseconds: each span's duration minus the
    /// part its children cover (spans nest strictly on one thread).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_us) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_insert(0.0) += (s.end_us - s.start_us - c) / 1.0e3;
        }
        by_layer
    }

    /// The spans as a Chrome Trace Event document; `id` and `parent`
    /// (1-based, 0 = root) ride in each slice's args.
    pub fn chrome_trace(&self) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| WallSpan {
                lane: 0,
                name: s.name.to_owned(),
                start_us: s.start_us as u64,
                dur_us: (s.end_us - s.start_us) as u64,
                args: vec![
                    ("id".to_owned(), i as u64 + 1),
                    ("parent".to_owned(), s.parent.map_or(0, |p| p as u64 + 1)),
                ],
            })
            .collect();
        let wall = WallTrace {
            lanes: vec![(0, "perfbench".to_owned())],
            spans,
            ..WallTrace::default()
        };
        render_chrome_trace(&[], Some(&wall))
    }
}
