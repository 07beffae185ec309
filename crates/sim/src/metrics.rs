//! Metric collection: log-bucketed histograms, time series, counters, and a
//! string-keyed [`Recorder`] shared by all actors in an engine.
//!
//! The histogram is a small HDR-style structure: values are bucketed by
//! their power of two with 16 linear sub-buckets per octave, giving a
//! relative quantile error below ~6% across the full `u64` range with a
//! fixed 1 KiB-ish footprint. Exact minimum, maximum, count and sum are
//! kept alongside, so means and extremes are exact.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::SimTime;

const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4;
const NUM_BUCKETS: usize = 64 * SUB_BUCKETS;

/// Log-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
    }

    /// Representative (upper-edge) value of a bucket, used for quantiles.
    fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let octave = (index / SUB_BUCKETS - 1) as u32 + SUB_BITS;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = 1u64 << octave;
        let step = base >> SUB_BITS;
        base + (sub + 1) * step - 1
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`. Exact for min (q=0) and max (q=1).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c as u64;
            if acc >= target {
                return Self::bucket_value(i).min(self.max).max(self.min());
            }
        }
        self.max
    }

    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Histogram({:?})", self.summary())
    }
}

/// Point summary of a histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub mean: f64,
    pub min: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

impl Summary {
    /// Render with nanosecond fields shown as milliseconds.
    pub fn as_millis_string(&self) -> String {
        format!(
            "n={} mean={:.3}ms p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
            self.count,
            self.mean / 1e6,
            self.p50 as f64 / 1e6,
            self.p95 as f64 / 1e6,
            self.p99 as f64 / 1e6,
            self.max as f64 / 1e6,
        )
    }
}

/// A `(time, value)` series, e.g. "reported CPU load over time".
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    #[inline]
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.values().sum::<f64>() / self.points.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.values().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Last value at or before `at`, if any.
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|&(t, _)| t.cmp(&at)) {
            Ok(i) => Some(self.points[i].1),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].1),
        }
    }

    /// Mean absolute difference against a reference series, comparing each of
    /// our points with the reference's most recent value (the "deviation"
    /// metric of the paper's Figure 5).
    pub fn mean_abs_deviation_from(&self, reference: &TimeSeries) -> f64 {
        let mut n = 0u64;
        let mut acc = 0.0;
        for &(t, v) in &self.points {
            if let Some(r) = reference.value_at(t) {
                acc += (v - r).abs();
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            acc / n as f64
        }
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Stable handle to a [`Recorder`] histogram, valid for the recorder that
/// issued it. Hot paths intern their key once and record through the
/// handle, skipping the per-sample key formatting and map lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(u32);

/// Stable handle to a [`Recorder`] time series (see [`HistogramId`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesId(u32);

/// Stable handle to a [`Recorder`] counter (see [`HistogramId`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

/// String-keyed metric registry shared by every actor in an engine run,
/// and by every shard of a sharded run (see [`crate::parallel`]).
///
/// Keys are hierarchical by convention, e.g. `"mon/latency/RdmaSync"` or
/// `"rubis/resp/Browse"`. Metrics live in dense slabs addressed by interned
/// ids; a `BTreeMap` name index keeps key iteration deterministic (sorted)
/// so reports are byte-stable across runs regardless of insertion order.
#[derive(Clone, Default)]
pub struct Recorder {
    histograms: Vec<Histogram>,
    hist_index: BTreeMap<String, u32>,
    series: Vec<TimeSeries>,
    series_index: BTreeMap<String, u32>,
    counters: Vec<Counter>,
    counter_index: BTreeMap<String, u32>,
    /// The running shard, while a sharded run is active.
    shard: Option<u16>,
    /// Per series, the shard that wrote it in the active sharded run.
    series_writer: Vec<Option<u16>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `key`, creating an empty histogram on first use. The returned
    /// id stays valid for the lifetime of this recorder.
    pub fn histogram_id(&mut self, key: &str) -> HistogramId {
        if let Some(&i) = self.hist_index.get(key) {
            return HistogramId(i);
        }
        let i = self.histograms.len() as u32;
        self.histograms.push(Histogram::new());
        self.hist_index.insert(key.to_owned(), i);
        HistogramId(i)
    }

    /// Intern `key`, creating an empty series on first use.
    pub fn series_id(&mut self, key: &str) -> SeriesId {
        if let Some(&i) = self.series_index.get(key) {
            return SeriesId(i);
        }
        let i = self.series.len() as u32;
        self.series.push(TimeSeries::new());
        self.series_index.insert(key.to_owned(), i);
        SeriesId(i)
    }

    /// Intern `key`, creating a zero counter on first use.
    pub fn counter_id(&mut self, key: &str) -> CounterId {
        if let Some(&i) = self.counter_index.get(key) {
            return CounterId(i);
        }
        let i = self.counters.len() as u32;
        self.counters.push(Counter::default());
        self.counter_index.insert(key.to_owned(), i);
        CounterId(i)
    }

    /// Allocation-free access via an interned handle.
    #[inline]
    pub fn histogram_at(&mut self, id: HistogramId) -> &mut Histogram {
        &mut self.histograms[id.0 as usize]
    }

    /// Allocation-free access via an interned handle.
    ///
    /// # Panics
    /// Panics inside a sharded run if two shards write the series.
    #[inline]
    pub fn series_at(&mut self, id: SeriesId) -> &mut TimeSeries {
        if let Some(shard) = self.shard {
            self.claim_series(id.0 as usize, shard);
        }
        &mut self.series[id.0 as usize]
    }

    /// Allocation-free access via an interned handle.
    #[inline]
    pub fn counter_at(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters[id.0 as usize]
    }

    pub fn histogram(&mut self, key: &str) -> &mut Histogram {
        let id = self.histogram_id(key);
        self.histogram_at(id)
    }

    pub fn series(&mut self, key: &str) -> &mut TimeSeries {
        let id = self.series_id(key);
        self.series_at(id)
    }

    pub fn counter(&mut self, key: &str) -> &mut Counter {
        let id = self.counter_id(key);
        self.counter_at(id)
    }

    pub fn get_histogram(&self, key: &str) -> Option<&Histogram> {
        self.hist_index
            .get(key)
            .map(|&i| &self.histograms[i as usize])
    }

    pub fn get_series(&self, key: &str) -> Option<&TimeSeries> {
        self.series_index
            .get(key)
            .map(|&i| &self.series[i as usize])
    }

    pub fn get_counter(&self, key: &str) -> Option<Counter> {
        self.counter_index
            .get(key)
            .map(|&i| self.counters[i as usize])
    }

    pub fn histogram_keys(&self) -> impl Iterator<Item = &str> {
        self.hist_index.keys().map(String::as_str)
    }

    pub fn series_keys(&self) -> impl Iterator<Item = &str> {
        self.series_index.keys().map(String::as_str)
    }

    pub fn counter_keys(&self) -> impl Iterator<Item = &str> {
        self.counter_index.keys().map(String::as_str)
    }

    /// Sharded-run support: charge series writes to `shard` from now on,
    /// or, with `None`, end the run and forget every series' writer.
    pub(crate) fn set_shard(&mut self, shard: Option<u16>) {
        if shard.is_none() {
            self.series_writer.clear();
        }
        self.shard = shard;
    }

    /// Note that `shard` writes series `i` in the running sharded run.
    ///
    /// # Panics
    /// Panics if another shard wrote it earlier in the run: a series is
    /// one actor's ordered record, and shards run their windows one after
    /// the other, so two writers would interleave it out of time order.
    fn claim_series(&mut self, i: usize, shard: u16) {
        if self.series_writer.len() <= i {
            self.series_writer.resize(i + 1, None);
        }
        let writer = *self.series_writer[i].get_or_insert(shard);
        if writer != shard {
            let key = self.series_index.iter().find(|&(_, &j)| j as usize == i);
            let key = key.map_or("?", |(k, _)| k.as_str());
            panic!(
                "series {key} written from two shards ({writer} and {shard}); \
                 series must be single-writer"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_stats() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 50);
        assert!((h.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_accuracy() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000); // 1µs .. 10ms in ns
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.07, "p50={p50}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.07, "p99={p99}");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.count(), 16);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(200);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 300);
        assert!((a.mean() - 200.0).abs() < 1e-9);
        // Merging an empty histogram is a no-op on min/max.
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.min(), 100);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        for exp in 4..50 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << exp) + off * ((1u64 << exp) / 13 + 1);
                let idx = Histogram::bucket_index(v);
                let rep = Histogram::bucket_value(idx);
                let rel = (rep as f64 - v as f64).abs() / v as f64;
                assert!(rel < 0.07, "v={v} rep={rep} rel={rel}");
                assert!(
                    rep >= v,
                    "bucket value must be an upper edge: v={v} rep={rep}"
                );
            }
        }
    }

    #[test]
    fn series_value_at() {
        let mut s = TimeSeries::new();
        s.push(SimTime(100), 1.0);
        s.push(SimTime(200), 2.0);
        s.push(SimTime(300), 3.0);
        assert_eq!(s.value_at(SimTime(50)), None);
        assert_eq!(s.value_at(SimTime(100)), Some(1.0));
        assert_eq!(s.value_at(SimTime(250)), Some(2.0));
        assert_eq!(s.value_at(SimTime(900)), Some(3.0));
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn series_deviation() {
        let mut truth = TimeSeries::new();
        truth.push(SimTime(0), 10.0);
        truth.push(SimTime(1000), 20.0);
        let mut reported = TimeSeries::new();
        reported.push(SimTime(500), 10.0); // truth is 10 -> dev 0
        reported.push(SimTime(1500), 15.0); // truth is 20 -> dev 5
        let dev = reported.mean_abs_deviation_from(&truth);
        assert!((dev - 2.5).abs() < 1e-12);
        // No overlapping reference -> zero.
        let empty = TimeSeries::new();
        assert_eq!(reported.mean_abs_deviation_from(&empty), 0.0);
    }

    #[test]
    fn recorder_namespacing_and_determinism() {
        let mut r = Recorder::new();
        r.histogram("z/last").record(5);
        r.histogram("a/first").record(1);
        r.counter("c").add(3);
        r.series("s").push(SimTime(1), 1.0);
        let keys: Vec<&str> = r.histogram_keys().collect();
        assert_eq!(keys, vec!["a/first", "z/last"]);
        assert_eq!(r.get_counter("c").unwrap().get(), 3);
        assert_eq!(r.get_counter("missing"), None);
        assert!(r.get_histogram("a/first").is_some());
        assert!(r.get_series("s").is_some());
    }

    #[test]
    fn interned_ids_alias_string_keys() {
        let mut r = Recorder::new();
        let h = r.histogram_id("lat");
        assert_eq!(h, r.histogram_id("lat"));
        r.histogram_at(h).record(42);
        r.histogram("lat").record(43);
        assert_eq!(r.get_histogram("lat").unwrap().count(), 2);

        let s = r.series_id("load");
        r.series_at(s).push(SimTime(5), 1.5);
        assert_eq!(r.get_series("load").unwrap().len(), 1);

        let c = r.counter_id("done");
        r.counter_at(c).inc();
        r.counter("done").add(2);
        assert_eq!(r.get_counter("done").unwrap().get(), 3);

        // Ids are dense and distinct per kind.
        assert_ne!(r.histogram_id("other"), h);
    }

    #[test]
    fn summary_formatting() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        let text = s.as_millis_string();
        assert!(text.contains("n=1"));
        assert!(text.contains("mean=1.000ms"));
    }
}
