//! Timed world runs, run fingerprints, and the model-side readings the
//! benchmark reports and checks.

use std::fmt::Write as _;
use std::time::Instant;

use fgmon_balancer::Dispatcher;
use fgmon_cluster::Cluster;
use fgmon_core::{BackendView, MonitorFrontendService};
use fgmon_net::FabricStats;
use fgmon_sim::{Histogram, SimDuration};
use fgmon_types::{NodeId, QueryClass, Scheme, ServiceSlot};

use crate::alloc;
use crate::trace::{self, Profile, Scope};

/// How a world is driven: its virtual length, cut into `segment`-long
/// calls of `run_for` (one thread) or `run_parallel` (more).
#[derive(Clone, Copy)]
pub struct Drive {
    pub length: SimDuration,
    pub segment: SimDuration,
    pub threads: usize,
}

impl Drive {
    pub fn segments(&self) -> u64 {
        self.length.0.div_ceil(self.segment.0)
    }
}

/// One timed run of a freshly built world.
pub struct Run {
    pub cluster: Cluster,
    /// Host seconds spent driving it.
    pub wall_s: f64,
    pub events: u64,
    /// Allocations made, and events processed, in the second half of the
    /// virtual run.
    pub steady_allocs: u64,
    pub steady_events: u64,
    /// Peak live heap while driving, world included.
    pub peak_bytes: usize,
    /// Events per host second of each segment, in order.
    pub segment_rates: Vec<f64>,
    /// Wrapped-handle profile, when the run was traced.
    pub profile: Option<Profile>,
}

impl Run {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    /// Second-half allocations per million second-half events.
    pub fn steady_per_mevent(&self) -> f64 {
        self.steady_allocs as f64 * 1e6 / self.steady_events.max(1) as f64
    }
}

/// Build a world with `build`, then drive it as `drive` says, optionally
/// wrapping its actors for the layer profile.
pub fn run_world(build: impl FnOnce() -> Cluster, drive: Drive, trace: Option<Scope>) -> Run {
    let mut cluster = build();
    if let Some(scope) = trace {
        trace::wrap(&mut cluster, scope);
    }
    let half = SimDuration(drive.length.0 / 2);
    let mut done = SimDuration::ZERO;
    let mut steady_from = None;
    let mut segment_rates = Vec::new();
    alloc::reset_peak();
    let start = Instant::now();
    while done < drive.length {
        let step = SimDuration(drive.segment.0.min(drive.length.0 - done.0));
        let (t, before) = (Instant::now(), cluster.eng.events_processed());
        if drive.threads > 1 {
            cluster.run_parallel(step, drive.threads);
        } else {
            cluster.run_for(step);
        }
        let events = cluster.eng.events_processed() - before;
        segment_rates.push(events as f64 / t.elapsed().as_secs_f64());
        done += step;
        if steady_from.is_none() && done >= half {
            steady_from = Some((alloc::allocations(), cluster.eng.events_processed()));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (allocs_at_half, events_at_half) = steady_from.expect("run reached its half");
    let steady_allocs = alloc::allocations() - allocs_at_half;
    let steady_events = cluster.eng.events_processed() - events_at_half;
    let peak_bytes = alloc::peak_bytes();
    let profile = trace.map(|_| trace::unwrap(&mut cluster));
    let events = cluster.eng.events_processed();
    Run {
        cluster,
        wall_s,
        events,
        steady_allocs,
        steady_events,
        peak_bytes,
        segment_rates,
        profile,
    }
}

/// Host seconds per call of `build`, one sample per batch. A batch makes
/// enough calls to last about 10 ms, so the clock's resolution and a stray
/// interrupt matter little. Each result is dropped outside the timed span
/// before the next call, so every call starts from the same heap state.
pub fn setup_samples<T>(mut build: impl FnMut() -> T, samples: usize) -> Vec<f64> {
    let time_one = |build: &mut dyn FnMut() -> T| {
        let t = Instant::now();
        let built = std::hint::black_box(build());
        let spent = t.elapsed();
        drop(built);
        spent
    };
    time_one(&mut build);
    let once = time_one(&mut build).as_secs_f64();
    let batch = ((10e-3 / once).ceil() as usize).clamp(1, 1_000);
    (0..samples)
        .map(|_| {
            let spent: std::time::Duration = (0..batch).map(|_| time_one(&mut build)).sum();
            spent.as_secs_f64() / batch as f64
        })
        .collect()
}

/// 64-bit FNV-1a, enough to compare run digests.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Event count plus a digest of every recorder histogram and counter and
/// of the fabric counters: equal fingerprints mean equal runs.
pub fn fingerprint(cluster: &Cluster) -> u64 {
    let mut d = Digest::default();
    d.u64(cluster.eng.events_processed());
    let rec = cluster.recorder();
    let mut line = String::new();
    for key in rec.histogram_keys() {
        let h = rec.get_histogram(key).expect("listed key");
        line.clear();
        let _ = write!(line, "{key}={h:?};");
        d.bytes(line.as_bytes());
    }
    for key in rec.counter_keys() {
        let c = rec.get_counter(key).expect("listed key");
        line.clear();
        let _ = write!(line, "{key}={};", c.get());
        d.bytes(line.as_bytes());
    }
    line.clear();
    let _ = write!(line, "{:?}", cluster.fabric_stats());
    d.bytes(line.as_bytes());
    d.value()
}

/// Model-side counters read from a finished world.
#[derive(Clone, Copy, Default)]
pub struct Model {
    /// Requests that reached a dispatcher (forwarded or rejected).
    pub requests: u64,
    /// `lb/rejected`: requests refused by admission control.
    pub rejected: u64,
    pub polls: u64,
    pub timed_out: u64,
    pub denied: u64,
    /// Largest `rdma_pending` table across nodes at the end of the run.
    pub rdma_pending_max: usize,
    pub fabric: FabricStats,
}

impl Model {
    fn add_views(&mut self, views: &[BackendView]) {
        for v in views {
            self.polls += v.polls;
            self.timed_out += v.timed_out;
            self.denied += v.denied;
        }
    }

    pub fn read(cluster: &Cluster) -> Model {
        let mut m = Model {
            rejected: cluster
                .recorder()
                .get_counter("lb/rejected")
                .map_or(0, |c| c.get()),
            fabric: cluster.fabric_stats(),
            ..Model::default()
        };
        for i in 0..cluster.node_count() {
            let node = cluster.node(NodeId(i as u16));
            m.rdma_pending_max = m.rdma_pending_max.max(node.core().rdma_pending.len());
            for s in 0..node.service_count() {
                let slot = ServiceSlot(s as u16);
                if let Some(d) = node.service::<Dispatcher>(slot) {
                    m.requests += d.stats.forwarded + d.stats.rejected;
                    m.add_views(d.monitor.views());
                }
                if let Some(f) = node.service::<MonitorFrontendService>(slot) {
                    m.add_views(f.client.views());
                }
            }
        }
        m
    }

    pub fn absorb(&mut self, o: &Model) {
        self.requests += o.requests;
        self.rejected += o.rejected;
        self.polls += o.polls;
        self.timed_out += o.timed_out;
        self.denied += o.denied;
        self.rdma_pending_max = self.rdma_pending_max.max(o.rdma_pending_max);
        self.fabric.absorb(&o.fabric);
    }

    /// Failed operations: refused requests plus polls that timed out or
    /// were denied.
    pub fn failures(&self) -> u64 {
        self.rejected + self.timed_out + self.denied
    }
}

/// Histograms behind the virtual end-to-end metrics.
#[derive(Clone, Default)]
pub struct Observed {
    /// Client-visible response times, in nanoseconds.
    pub resp: Histogram,
    /// Age of the load information the RDMA-Sync monitor consumed, in
    /// nanoseconds.
    pub staleness: Histogram,
}

pub fn staleness_key() -> String {
    format!("mon/staleness/{}", Scheme::RdmaSync.label())
}

impl Observed {
    /// RUBiS responses pooled over every query class, as
    /// `fgmon_cluster::pooled_responses` pools them.
    pub fn rubis(cluster: &Cluster) -> Observed {
        let rec = cluster.recorder();
        let mut resp = Histogram::new();
        for class in QueryClass::ALL {
            if let Some(h) = rec.get_histogram(&format!("rubis/resp/{}", class.label())) {
                resp.merge(h);
            }
        }
        Observed {
            resp,
            staleness: rec
                .get_histogram(&staleness_key())
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Poll round trips of the chaos world's Socket-Sync monitor, the
    /// client whose requests cross the faulty fabric and the loaded
    /// back-end CPU.
    pub fn socket_polls(cluster: &Cluster) -> Observed {
        let rec = cluster.recorder();
        let key = format!("mon/latency/{}", Scheme::SocketSync.label());
        Observed {
            resp: rec.get_histogram(&key).cloned().unwrap_or_default(),
            staleness: rec
                .get_histogram(&staleness_key())
                .cloned()
                .unwrap_or_default(),
        }
    }

    pub fn absorb(&mut self, o: &Observed) {
        self.resp.merge(&o.resp);
        self.staleness.merge(&o.staleness);
    }
}

/// Quantile `q` of `h`, interpolated by rank inside the log bucket that
/// holds it. `Histogram::quantile` reports the bucket's upper edge, which
/// jumps in ~6% steps and often reads the same for neighbouring seeds;
/// interpolating moves with the data instead.
pub fn quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    // Value of the sample at `r` (1-based). Asking for the middle of the
    // rank keeps `Histogram::quantile`'s ceil off float rounding.
    let at = |r: u64| h.quantile((r as f64 - 0.5) / n as f64);
    let v = at(rank);
    // First and last rank sharing `v`'s bucket.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < v {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > v {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    // Bucket edges: values below 32 are exact; above, each power-of-two
    // octave is cut into 16 equal sub-buckets.
    let (lower, upper) = if v < 32 {
        (v, v)
    } else {
        let step = 1u64 << (63 - v.leading_zeros() - 4);
        let lower = v & !(step - 1);
        (lower, lower + step - 1)
    };
    let (lower, upper) = (lower.max(h.min()) as f64, upper.min(h.max()) as f64);
    let frac = (rank - first) as f64 + 0.5;
    lower + (upper - lower) * frac / (last - first + 1) as f64
}

/// The highest percentile of a ladder that has at least ten samples
/// beyond it, as `(percentile, value)`.
pub fn tail(h: &Histogram) -> (f64, f64) {
    // Percentiles in parts per million.
    const LADDER: [u64; 6] = [999_900, 999_000, 990_000, 950_000, 900_000, 800_000];
    let n = h.count();
    for p in LADDER {
        if n * (1_000_000 - p) >= 10 * 1_000_000 {
            let q = p as f64 / 1e6;
            return (q * 100.0, quantile(h, q));
        }
    }
    (50.0, quantile(h, 0.5))
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
