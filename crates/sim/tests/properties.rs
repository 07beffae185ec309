//! Property-based tests for the simulation engine's data structures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fgmon_sim::{
    Actor, ActorId, Ctx, DetRng, Engine, Histogram, SimDuration, SimTime, TimeSeries, ZipfSampler,
};
use proptest::prelude::*;

/// Test actor for the event-queue ordering property: records every
/// delivery and schedules scripted follow-ups ("late inserts" landing at
/// or after the current instant, the case a timing wheel gets wrong
/// first).
struct QueueProbe {
    trace: Vec<(u64, u32)>,
    /// For each received id: follow-ups to schedule as `(delay, new_id)`.
    followups: Vec<Vec<(u64, u32)>>,
}

impl Actor<u32> for QueueProbe {
    fn handle(&mut self, now: SimTime, msg: u32, ctx: &mut Ctx<'_, u32>) {
        self.trace.push((now.nanos(), msg));
        if let Some(fs) = self.followups.get(msg as usize) {
            for &(delay, new_id) in fs {
                ctx.send_in(SimDuration(delay), ctx.self_id, new_id);
            }
        }
    }
}

/// Run the probe scenario on the engine and return the delivery trace.
fn queue_trace(times: &[u64], followups: &[Vec<(u64, u32)>]) -> Vec<(u64, u32)> {
    let mut eng: Engine<u32> = Engine::new();
    let a: ActorId = eng.add_actor(Box::new(QueueProbe {
        trace: Vec::new(),
        followups: followups.to_vec(),
    }));
    for (id, &t) in times.iter().enumerate() {
        eng.schedule(SimTime(t), a, id as u32);
    }
    eng.run_until(SimTime::MAX);
    let probe: &QueueProbe = eng.actor(a).expect("probe");
    probe.trace.clone()
}

/// The probe scenario's delivery trace in the engine's key order, from a
/// binary heap of `(time, seq, id)`: initial events take lane 0 in
/// scheduling order, and follow-ups take the probe's lane, `1 << 40 | k`,
/// in staging order.
fn model_trace(times: &[u64], followups: &[Vec<(u64, u32)>]) -> Vec<(u64, u32)> {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = times
        .iter()
        .enumerate()
        .map(|(id, &t)| Reverse((t, id as u64, id as u32)))
        .collect();
    let mut staged = 0u64;
    let mut trace = Vec::new();
    while let Some(Reverse((t, _, id))) = heap.pop() {
        trace.push((t, id));
        for &(delay, new_id) in followups.get(id as usize).into_iter().flatten() {
            heap.push(Reverse((t + delay, 1 << 40 | staged, new_id)));
            staged += 1;
        }
    }
    trace
}

proptest! {
    /// Histogram quantiles are bounded by min/max and monotone in q.
    #[test]
    fn histogram_quantile_bounds(values in prop::collection::vec(0u64..u64::MAX / 2, 1..500)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        let mut prev = 0u64;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= min, "q{} = {} < min {}", i, q, min);
            prop_assert!(q <= max, "q{} = {} > max {}", i, q, max);
            prop_assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
    }

    /// Quantile relative error stays within the bucket design bound.
    #[test]
    fn histogram_median_accuracy(values in prop::collection::vec(16u64..1_000_000_000, 50..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = sorted[(sorted.len() - 1) / 2] as f64;
        let approx = h.quantile(0.5) as f64;
        // One bucket of slack on either side (6.25% design bound + rounding).
        prop_assert!(
            (approx - exact).abs() / exact < 0.15,
            "median approx {} vs exact {}",
            approx,
            exact
        );
    }

    /// Merging histograms equals recording the concatenation.
    #[test]
    fn histogram_merge_equivalence(
        a in prop::collection::vec(0u64..1_000_000, 0..100),
        b in prop::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        for &v in &a { ha.record(v); }
        let mut hb = Histogram::new();
        for &v in &b { hb.record(v); }
        let mut merged = Histogram::new();
        for &v in a.iter().chain(&b) { merged.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), merged.count());
        prop_assert_eq!(ha.min(), merged.min());
        prop_assert_eq!(ha.max(), merged.max());
        prop_assert_eq!(ha.quantile(0.5), merged.quantile(0.5));
        prop_assert_eq!(ha.quantile(0.99), merged.quantile(0.99));
    }

    /// round_up_to returns the smallest tick multiple >= t.
    #[test]
    fn round_up_properties(t in 0u64..u64::MAX / 4, tick in 1u64..1_000_000_000) {
        let rounded = SimTime(t).round_up_to(SimDuration(tick));
        prop_assert!(rounded.nanos() >= t);
        prop_assert_eq!(rounded.nanos() % tick, 0);
        prop_assert!(rounded.nanos() - t < tick);
    }

    /// Duration arithmetic saturates instead of wrapping.
    #[test]
    fn duration_saturation(a in 0u64.., b in 0u64..) {
        let sum = SimDuration(a) + SimDuration(b);
        prop_assert_eq!(sum.nanos(), a.saturating_add(b));
        let diff = SimDuration(a) - SimDuration(b);
        prop_assert_eq!(diff.nanos(), a.saturating_sub(b));
    }

    /// Same seed ⇒ identical stream; forks are stable.
    #[test]
    fn rng_determinism(seed in 0u64.., label in "[a-z]{1,12}") {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.range_u64(0, 1 << 40), b.range_u64(0, 1 << 40));
        }
        let mut fa = DetRng::new(seed).fork(&label);
        let mut fb = DetRng::new(seed).fork(&label);
        prop_assert_eq!(fa.f64().to_bits(), fb.f64().to_bits());
    }

    /// Exponential draws are non-negative with the configured mean order.
    #[test]
    fn rng_exp_nonnegative(seed in 0u64.., mean in 0.001f64..1000.0) {
        let mut rng = DetRng::new(seed);
        for _ in 0..32 {
            let x = rng.exp(mean);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    /// Zipf samples stay in range and the pmf is non-increasing in rank.
    #[test]
    fn zipf_properties(n in 1usize..500, alpha in 0.0f64..2.0, seed in 0u64..) {
        let z = ZipfSampler::new(n, alpha);
        let mut rng = DetRng::new(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
        for i in 1..n {
            prop_assert!(
                z.pmf(i - 1) >= z.pmf(i) - 1e-12,
                "pmf must be non-increasing at rank {}",
                i
            );
        }
    }

    /// The engine dequeues in strict (time, seq) order: delivery times
    /// never regress, same-time events keep their scheduling (seq) order,
    /// and the timing wheel's trace is identical to a binary heap's over
    /// the engine's keys — including follow-ups scheduled mid-run at
    /// arbitrary (possibly zero) delays, which land below the wheel's
    /// cursor.
    #[test]
    fn event_queue_dequeues_in_time_seq_order(
        times in prop::collection::vec(0u64..5_000, 1..60),
        raw_followups in prop::collection::vec(
            (0usize..60, 0u64..3_000),
            0..40
        ),
    ) {
        // Each follow-up hangs off one initial event (index wrapped into
        // range) and gets a fresh id above the initial range.
        let mut followups: Vec<Vec<(u64, u32)>> = vec![Vec::new(); times.len()];
        for (k, &(target, delay)) in raw_followups.iter().enumerate() {
            followups[target % times.len()].push((delay, (times.len() + k) as u32));
        }

        let wheel = queue_trace(&times, &followups);
        let heap = model_trace(&times, &followups);

        // Everything scheduled is delivered exactly once.
        prop_assert_eq!(wheel.len(), times.len() + raw_followups.len());

        // Delivery time never regresses.
        for w in wheel.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time regressed: {:?} -> {:?}", w[0], w[1]);
        }

        // Same-time initial events keep scheduling order (seq order):
        // their ids were assigned in schedule order.
        for w in wheel.windows(2) {
            let (ta, ia) = w[0];
            let (tb, ib) = w[1];
            if ta == tb && (ia as usize) < times.len() && (ib as usize) < times.len() {
                prop_assert!(ia < ib, "same-time FIFO violated: {} before {}", ia, ib);
            }
        }

        // The wheel is bitwise order-equivalent to the heap model.
        prop_assert_eq!(wheel, heap);
    }

    /// TimeSeries::value_at returns the latest point at or before t.
    #[test]
    fn series_value_at(points in prop::collection::vec((0u64..1_000_000, -1e6f64..1e6), 1..100)) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut s = TimeSeries::new();
        for &(t, v) in &sorted {
            s.push(SimTime(t), v);
        }
        // Query at every point's timestamp: must return a value from a
        // point with time <= query.
        for &(t, _) in &sorted {
            let got = s.value_at(SimTime(t));
            prop_assert!(got.is_some());
        }
        // Query before the first point: None.
        let first = sorted[0].0;
        if first > 0 {
            prop_assert!(s.value_at(SimTime(first - 1)).is_none());
        }
    }
}
