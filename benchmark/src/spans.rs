//! Harness-side tracing: one span around each call into a layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, the span that
//! caused it and the id of the operation it belongs to. Spans stay in
//! memory and are written out when the run ends. A layer's *self time* is
//! its spans' durations minus the part their child spans cover; per-layer
//! metrics are computed from the spans, not beside them.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use blot_json::Json;

use crate::sut::AdviceSteps;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<u32>,
    /// The operation (query, tick, advise round) the span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How much the call handled (bytes, records, tasks: per name), so
    /// that a rate is measured where the work happens; 0 if not counted.
    pub amount: u64,
}

impl Span {
    #[must_use]
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` gets the tracer back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            amount: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        out
    }

    /// A span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, |_| f())
    }

    /// A leaf span that also records how much the call handled.
    pub fn counted<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        amount: impl FnOnce(&T) -> usize,
    ) -> T {
        let id = self.spans.len();
        let out = self.leaf(name, f);
        if let Some(span) = self.spans.get_mut(id) {
            span.amount = amount(&out) as u64;
        }
        out
    }

    /// Adds a root span timed elsewhere (on a caller thread) as the next
    /// operation.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, amount: usize) {
        let epoch = self.epoch;
        let ns = move |t: Instant| {
            u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        let op = self.next_op();
        self.spans.push(Span {
            parent: None,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            amount: amount as u64,
        });
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name`.
    #[must_use]
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Total µs of every span named `name`.
    #[must_use]
    pub fn total_micros(&self, name: &str) -> f64 {
        self.micros(name).iter().sum()
    }

    /// µs per unit of amount over every span named `name`.
    #[must_use]
    pub fn micros_per(&self, name: &str) -> f64 {
        let amount: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.amount)
            .sum();
        crate::util::ratio(self.total_micros(name), amount as f64)
    }

    /// Self time in µs summed per span name.
    #[must_use]
    pub fn self_micros_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::micros).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent.and_then(|p| own.get_mut(p as usize)) {
                *parent -= span.micros();
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Self time in µs summed per layer (the name up to its first dot).
    #[must_use]
    pub fn self_micros_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (name, us) in self.self_micros_by_name() {
            let layer = name.split('.').next().unwrap_or(name);
            *by_layer.entry(layer).or_insert(0.0) += us;
        }
        by_layer
    }

    /// Writes every span as one JSON array.
    ///
    /// # Errors
    ///
    /// The file cannot be written.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                    ("name", Json::Str(s.name.to_owned())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("amount", Json::Num(s.amount as f64)),
                ])
            })
            .collect();
        std::fs::write(path, format!("{}\n", Json::Arr(spans)))
    }
}

impl AdviceSteps for Tracer {
    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.leaf(name, f)
    }
}

/// Runs the steps without recording them.
#[derive(Debug, Default)]
pub struct Untraced;

impl AdviceSteps for Untraced {
    fn step<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("bench.op", |t| {
            t.leaf("storage.get", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.leaf("codec.decode", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let root = t.total_micros("bench.op");
        let by_name = t.self_micros_by_name();
        let sum: f64 = by_name.values().sum();
        assert!((sum - root).abs() < 1.0, "{sum} vs {root}");
        assert!(by_name["storage.get"] >= 2000.0);
        assert!(by_name["bench.op"] < by_name["codec.decode"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 1);
        assert!(t.self_micros_by_layer().contains_key("storage"));
    }
}
