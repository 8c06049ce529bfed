//! `mpss-metrics`: a live, labeled telemetry registry for long-running
//! processes.
//!
//! The [`RecordingCollector`](crate::RecordingCollector) answers "what did
//! this run do?" *after* the run exits; a daemon that never exits needs
//! scrapeable state instead. [`MetricsHub`] is that state: a registry of
//! **counters**, **gauges**, and **windowed histograms**, each carrying a
//! label set (`{algo="oa", proc="3"}`-style), safe to update from worker
//! threads and to render from a scrape thread concurrently.
//!
//! Design constraints, in the spirit of the rest of this crate:
//!
//! * **Zero dependencies.** Handles are `Arc<AtomicU64>` (counters, and
//!   gauges as f64 bit patterns) or `Arc<Mutex<…>>` (histograms); the text
//!   exposition is hand-rolled like the Chrome trace JSON in the `chrome`
//!   module.
//! * **Bounded memory.** Histograms keep exact lifetime `count`/`sum` and
//!   cumulative bucket counts, plus a fixed-capacity [`RingSampler`] of the
//!   most recent observations for live quantiles — a process that runs for a
//!   year holds exactly as much metric state as one that runs for a second.
//! * **Zero overhead when off.** Nothing here touches the
//!   [`Collector`](crate::Collector) hot path: sessions publish into a hub
//!   only when one is attached, and instrumented code stays generic over
//!   `C: Collector`.
//!
//! The exposition format is the Prometheus text format (version 0.0.4):
//! `# HELP` / `# TYPE` comments, `name{label="value"} 123` samples, and
//! `_bucket`/`_sum`/`_count` series for histograms. [`crate::expo`] parses
//! it back — the round-trip is tested, and `mpss-cli scrape` validates any
//! live endpoint against the parser and the
//! [`names`](crate::names::known_metric) manifest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default histogram bucket upper bounds, in seconds: latency-shaped,
/// spanning 250 µs to 10 s. Callers measuring other units pass their own
/// bounds to [`MetricsHub::histogram_with`].
pub const DEFAULT_BUCKETS: &[f64] = &[
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// Default [`RingSampler`] capacity for windowed quantiles.
pub const DEFAULT_WINDOW: usize = 1024;

/// A fixed-capacity ring buffer of the most recent `f64` samples.
///
/// Pushing beyond capacity overwrites the oldest sample, so memory stays
/// bounded however long the process runs; quantiles are computed over the
/// retained window by the same nearest-rank rule as
/// [`Histogram::quantile`](crate::Histogram::quantile).
#[derive(Clone, Debug)]
pub struct RingSampler {
    buf: Vec<f64>,
    capacity: usize,
    /// Next write position once the buffer has wrapped.
    head: usize,
}

impl RingSampler {
    /// A sampler retaining the latest `capacity` samples (clamped to ≥ 1).
    pub fn new(capacity: usize) -> RingSampler {
        let capacity = capacity.max(1);
        RingSampler {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
        }
    }

    /// Records one sample, evicting the oldest once full. Non-finite values
    /// are dropped, mirroring [`Histogram::record`](crate::Histogram::record).
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(value);
        } else {
            self.buf[self.head] = value;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` before the first (finite) sample.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retention capacity this sampler was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The window's samples, oldest first.
    pub fn samples(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Nearest-rank `q`-quantile (`0 ≤ q ≤ 1`) over the window; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        let mut sorted = self.buf.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `by`.
    pub fn add(&self, by: u64) {
        self.0.fetch_add(by, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits in an atomic).
/// Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Lifetime-exact aggregates plus a bounded window of recent samples.
#[derive(Debug)]
struct WindowState {
    count: u64,
    sum: f64,
    /// Upper bucket bounds (strictly increasing; an implicit `+Inf` bucket
    /// follows). `bucket_counts[i]` counts observations `≤ bounds[i]`
    /// *non*-cumulatively; the final slot is the `+Inf` overflow.
    bounds: Arc<[f64]>,
    bucket_counts: Vec<u64>,
    ring: RingSampler,
}

impl WindowState {
    fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.bucket_counts[slot] += 1;
        self.ring.push(value);
    }
}

/// A histogram with lifetime-cumulative buckets and windowed quantiles.
/// Cloning shares the underlying state.
#[derive(Clone, Debug)]
pub struct WindowHistogram(Arc<Mutex<WindowState>>);

impl WindowHistogram {
    /// Records one observation (non-finite values are dropped).
    pub fn observe(&self, value: f64) {
        self.0.lock().expect("histogram poisoned").observe(value);
    }

    /// Lifetime observation count.
    pub fn count(&self) -> u64 {
        self.0.lock().expect("histogram poisoned").count
    }

    /// Lifetime sum of observations.
    pub fn sum(&self) -> f64 {
        self.0.lock().expect("histogram poisoned").sum
    }

    /// Number of samples currently retained in the window.
    pub fn window_len(&self) -> usize {
        self.0.lock().expect("histogram poisoned").ring.len()
    }

    /// Nearest-rank quantile over the retained window (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.lock().expect("histogram poisoned").ring.quantile(q)
    }
}

/// One metric family's kind, as exposed in `# TYPE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` suffix by convention).
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Cumulative-bucket histogram with windowed quantiles.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

type LabelSet = Vec<(String, String)>;

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<WindowState>>),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    help: String,
    /// Bucket bounds shared by every series of a histogram family (the
    /// exposition format requires family-consistent buckets).
    bounds: Option<Arc<[f64]>>,
    window: usize,
    series: BTreeMap<LabelSet, Series>,
}

/// The shared metrics registry. Cloning is cheap (an `Arc`); all clones see
/// one registry, so a scrape thread renders what worker threads update.
#[derive(Clone, Debug, Default)]
pub struct MetricsHub {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && name != "le"
        && name != "quantile"
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_label_name(k), "invalid label name {k:?}");
            (k.to_string(), v.to_string())
        })
        .collect();
    set.sort();
    assert!(
        set.windows(2).all(|w| w[0].0 != w[1].0),
        "duplicate label name in {labels:?}"
    );
    set
}

/// Escapes a label value for the exposition format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`. This is what keeps distinct label sets distinct on the
/// wire (no crafted value can smuggle a `",other="` separator in).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an exposition value: `+Inf`/`-Inf`/`NaN` spellings, shortest-form
/// floats otherwise.
pub fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out.push('}');
}

/// One row of a [`MetricsHub::snapshot`].
#[derive(Clone, Debug)]
pub struct SnapshotRow {
    /// Family name.
    pub name: String,
    /// The series' sorted label set.
    pub labels: Vec<(String, String)>,
    /// The series' current value.
    pub value: SnapshotValue,
}

/// The value part of a [`SnapshotRow`].
#[derive(Clone, Debug)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram aggregates: lifetime count/sum and windowed quantiles.
    Histogram {
        /// Lifetime observation count.
        count: u64,
        /// Lifetime sum.
        sum: f64,
        /// Windowed median.
        p50: f64,
        /// Windowed 90th percentile.
        p90: f64,
        /// Windowed 99th percentile.
        p99: f64,
        /// Samples currently in the window.
        window: usize,
    },
}

impl MetricsHub {
    /// An empty registry.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        window: usize,
        buckets: Option<&[f64]>,
    ) -> Series {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let set = label_set(labels);
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| {
            let bounds: Option<Arc<[f64]>> = (kind == MetricKind::Histogram).then(|| {
                let bounds = buckets.unwrap_or(DEFAULT_BUCKETS);
                assert!(
                    bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
                    "histogram bounds must be finite and strictly increasing"
                );
                bounds.into()
            });
            Family {
                kind,
                help: help.to_string(),
                bounds,
                window,
                series: BTreeMap::new(),
            }
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} already registered as {:?}",
            family.kind
        );
        let series = family.series.entry(set).or_insert_with(|| match kind {
            MetricKind::Counter => Series::Counter(Arc::new(AtomicU64::new(0))),
            MetricKind::Gauge => Series::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))),
            MetricKind::Histogram => {
                let bounds = family.bounds.clone().expect("histogram family has bounds");
                let slots = bounds.len() + 1;
                Series::Histogram(Arc::new(Mutex::new(WindowState {
                    count: 0,
                    sum: 0.0,
                    bounds,
                    bucket_counts: vec![0; slots],
                    ring: RingSampler::new(family.window),
                })))
            }
        });
        match series {
            Series::Counter(c) => Series::Counter(c.clone()),
            Series::Gauge(g) => Series::Gauge(g.clone()),
            Series::Histogram(h) => Series::Histogram(h.clone()),
        }
    }

    /// Registers (or retrieves) the counter `name{labels}`. Re-registering
    /// the same series returns a handle to the same cell.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, 0, None) {
            Series::Counter(c) => Counter(c),
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, MetricKind::Gauge, labels, 0, None) {
            Series::Gauge(g) => Gauge(g),
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) the histogram `name{labels}` with the
    /// default window and bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> WindowHistogram {
        self.histogram_with(name, help, labels, DEFAULT_WINDOW, DEFAULT_BUCKETS)
    }

    /// [`histogram`](MetricsHub::histogram) with an explicit ring-buffer
    /// window capacity and bucket bounds (finite, strictly increasing; the
    /// `+Inf` bucket is implicit). The first registration of a family fixes
    /// its bounds and window; later series reuse them.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        window: usize,
        buckets: &[f64],
    ) -> WindowHistogram {
        match self.register(
            name,
            help,
            MetricKind::Histogram,
            labels,
            window,
            Some(buckets),
        ) {
            Series::Histogram(h) => WindowHistogram(h),
            _ => unreachable!(),
        }
    }

    /// A point-in-time copy of every series, for stdout tables and tests.
    /// Rows come back sorted by family name, then label set.
    pub fn snapshot(&self) -> Vec<SnapshotRow> {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut rows = Vec::new();
        for (name, family) in families.iter() {
            for (labels, series) in &family.series {
                let value = match series {
                    Series::Counter(c) => SnapshotValue::Counter(c.load(Ordering::Relaxed)),
                    Series::Gauge(g) => {
                        SnapshotValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Series::Histogram(h) => {
                        let state = h.lock().expect("histogram poisoned");
                        SnapshotValue::Histogram {
                            count: state.count,
                            sum: state.sum,
                            p50: state.ring.quantile(0.50),
                            p90: state.ring.quantile(0.90),
                            p99: state.ring.quantile(0.99),
                            window: state.ring.len(),
                        }
                    }
                };
                rows.push(SnapshotRow {
                    name: name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        rows
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): families sorted by name, series sorted by label
    /// set, histograms as cumulative `_bucket`/`_sum`/`_count` triples.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", c.load(Ordering::Relaxed));
                    }
                    Series::Gauge(g) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(
                            out,
                            " {}",
                            format_value(f64::from_bits(g.load(Ordering::Relaxed)))
                        );
                    }
                    Series::Histogram(h) => {
                        let state = h.lock().expect("histogram poisoned");
                        let mut cumulative = 0u64;
                        for (i, bound) in state.bounds.iter().enumerate() {
                            cumulative += state.bucket_counts[i];
                            let _ = write!(out, "{name}_bucket");
                            render_labels(
                                &mut out,
                                labels,
                                Some(("le", format_value(*bound).as_str())),
                            );
                            let _ = writeln!(out, " {cumulative}");
                        }
                        let _ = write!(out, "{name}_bucket");
                        render_labels(&mut out, labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, " {}", state.count);
                        let _ = write!(out, "{name}_sum");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", format_value(state.sum));
                        let _ = write!(out, "{name}_count");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", state.count);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let hub = MetricsHub::new();
        let a = hub.counter("mpss_test_total", "test counter", &[("k", "v")]);
        let b = hub.counter("mpss_test_total", "test counter", &[("k", "v")]);
        a.add(2);
        b.inc();
        assert_eq!(a.value(), 3);
        let g = hub.gauge("mpss_test_gauge", "test gauge", &[]);
        g.set(1.5);
        assert_eq!(hub.gauge("mpss_test_gauge", "test gauge", &[]).value(), 1.5);
    }

    #[test]
    fn distinct_label_sets_are_distinct_series() {
        let hub = MetricsHub::new();
        hub.counter("mpss_multi_total", "h", &[("engine", "dinic")])
            .inc();
        hub.counter("mpss_multi_total", "h", &[("engine", "pr")])
            .add(5);
        let rows = hub.snapshot();
        let values: Vec<u64> = rows
            .iter()
            .filter(|r| r.name == "mpss_multi_total")
            .map(|r| match r.value {
                SnapshotValue::Counter(v) => v,
                _ => panic!("counter expected"),
            })
            .collect();
        assert_eq!(values, vec![1, 5]); // sorted by label set: dinic, pr
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_programmer_error() {
        let hub = MetricsHub::new();
        hub.counter("mpss_clash", "as counter", &[]);
        hub.gauge("mpss_clash", "as gauge", &[]);
    }

    #[test]
    fn ring_sampler_wraps_and_keeps_the_newest() {
        let mut ring = RingSampler::new(4);
        for v in 1..=10 {
            ring.push(v as f64);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.samples(), vec![7.0, 8.0, 9.0, 10.0]);
        assert_eq!(ring.quantile(0.0), 7.0);
        assert_eq!(ring.quantile(1.0), 10.0);
    }

    #[test]
    fn ring_sampler_empty_window_quantiles_are_zero() {
        let ring = RingSampler::new(8);
        assert!(ring.is_empty());
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(ring.quantile(q), 0.0);
        }
    }

    #[test]
    fn ring_sampler_single_sample_window_is_degenerate() {
        let mut ring = RingSampler::new(8);
        ring.push(3.25);
        for q in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(ring.quantile(q), 3.25);
        }
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn ring_sampler_drops_non_finite_and_clamps_capacity() {
        let mut ring = RingSampler::new(0); // clamps to 1
        ring.push(f64::NAN);
        ring.push(f64::INFINITY);
        assert!(ring.is_empty());
        ring.push(2.0);
        ring.push(4.0); // evicts 2.0 in a capacity-1 window
        assert_eq!(ring.samples(), vec![4.0]);
    }

    #[test]
    fn histogram_buckets_accumulate_while_window_stays_bounded() {
        let hub = MetricsHub::new();
        let h = hub.histogram_with("mpss_lat", "latency", &[], 4, &[1.0, 10.0]);
        for v in [0.5, 0.5, 5.0, 50.0, 2.0, 3.0, 4.0, 6.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.window_len(), 4); // ring holds only the last 4
        let text = hub.render();
        assert!(text.contains("# TYPE mpss_lat histogram"), "{text}");
        assert!(text.contains("mpss_lat_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("mpss_lat_bucket{le=\"10\"} 7"), "{text}");
        assert!(text.contains("mpss_lat_bucket{le=\"+Inf\"} 8"), "{text}");
        assert!(text.contains("mpss_lat_count 8"), "{text}");
        // Windowed quantiles see only the retained suffix [2,3,4,6].
        assert_eq!(h.quantile(0.0), 2.0);
        assert_eq!(h.quantile(1.0), 6.0);
    }

    #[test]
    fn escaping_prevents_label_set_collisions() {
        // Without escaping these two series would render identically.
        let hub = MetricsHub::new();
        hub.counter("mpss_col_total", "h", &[("a", "x\",b=\"y")])
            .inc();
        hub.counter("mpss_col_total", "h", &[("a", "x"), ("b", "y")])
            .add(7);
        let text = hub.render();
        assert!(
            text.contains(r#"mpss_col_total{a="x\",b=\"y"} 1"#),
            "{text}"
        );
        assert!(text.contains(r#"mpss_col_total{a="x",b="y"} 7"#), "{text}");
    }

    #[test]
    fn render_spells_special_values_the_prometheus_way() {
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(0.25), "0.25");
        let hub = MetricsHub::new();
        hub.gauge("mpss_g", "gauge", &[]).set(f64::INFINITY);
        assert!(hub.render().contains("mpss_g +Inf"));
    }

    #[test]
    fn snapshot_reports_windowed_quantiles() {
        let hub = MetricsHub::new();
        let h = hub.histogram("mpss_q", "quantiles", &[]);
        for v in 1..=100 {
            h.observe(v as f64 / 100.0);
        }
        let rows = hub.snapshot();
        let Some(SnapshotValue::Histogram {
            count, p50, p99, ..
        }) = rows
            .iter()
            .find(|r| r.name == "mpss_q")
            .map(|r| r.value.clone())
        else {
            panic!("histogram row missing");
        };
        assert_eq!(count, 100);
        assert!((p50 - 0.5).abs() <= 0.02, "{p50}");
        assert!(p99 >= 0.98, "{p99}");
    }
}
