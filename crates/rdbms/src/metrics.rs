//! A small shared metrics layer: named counters, gauges, and summary
//! histograms with hand-rolled JSON export (the workspace deliberately has
//! no serialization dependency).
//!
//! The registry backs the three observability surfaces this testbed
//! reports on: the per-operator EXPLAIN ANALYZE profile, the engine-level
//! buffer/disk/WAL counters ([`crate::Engine::metrics`]), and the
//! Knowledge Manager's per-iteration LFP traces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A summary histogram: count, sum, min, max. Enough to re-derive means
/// and totals offline without committing to a bucket layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A flat, name-ordered collection of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to a counter, creating it at zero first if needed.
    /// A name previously used for another metric kind is overwritten.
    pub fn counter(&mut self, name: &str, delta: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(c)) => *c += delta,
            _ => {
                self.metrics
                    .insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set a gauge to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), Metric::Gauge(value));
    }

    /// Record one observation into a histogram, creating it if needed.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            _ => {
                let mut h = Histogram::default();
                h.observe(value);
                self.metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Current value of a counter (0 when absent or of another kind).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A recorded histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// All metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Export as a JSON object grouped by metric kind:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in &self.metrics {
            match metric {
                Metric::Counter(c) => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "\"{}\":{}", json_escape(name), c);
                }
                Metric::Gauge(g) => {
                    if !gauges.is_empty() {
                        gauges.push(',');
                    }
                    let _ = write!(gauges, "\"{}\":{}", json_escape(name), json_num(*g));
                }
                Metric::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    let _ = write!(
                        histograms,
                        "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
                        json_escape(name),
                        h.count,
                        json_num(h.sum),
                        json_num(h.min),
                        json_num(h.max),
                        json_num(h.mean())
                    );
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }
}

/// Escape a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a float as a JSON number (JSON has no NaN/Infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export() {
        let mut r = Registry::new();
        r.counter("pages_read", 3);
        r.counter("pages_read", 2);
        assert_eq!(r.counter_value("pages_read"), 5);
        let json = r.to_json();
        assert!(json.contains("\"pages_read\":5"), "{json}");
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge("hit_rate", 0.25);
        r.gauge("hit_rate", 0.5);
        assert_eq!(r.gauge_value("hit_rate"), Some(0.5));
        assert!(r.to_json().contains("\"hit_rate\":0.5"));
    }

    #[test]
    fn histograms_track_count_sum_min_max() {
        let mut r = Registry::new();
        r.observe("iter_ms", 4.0);
        r.observe("iter_ms", 2.0);
        r.observe("iter_ms", 6.0);
        let h = r.histogram("iter_ms").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 12.0);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 6.0);
        assert_eq!(h.mean(), 4.0);
        let json = r.to_json();
        assert!(json.contains("\"iter_ms\":{\"count\":3"), "{json}");
    }

    #[test]
    fn json_is_grouped_and_escaped() {
        let mut r = Registry::new();
        r.counter("a\"b", 1);
        let json = r.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\\\""));
        assert!(json.ends_with("\"histograms\":{}}"));
    }

    #[test]
    fn nonfinite_observations_are_ignored() {
        let mut r = Registry::new();
        r.observe("x", f64::NAN);
        r.observe("x", 1.0);
        assert_eq!(r.histogram("x").unwrap().count(), 1);
    }
}
