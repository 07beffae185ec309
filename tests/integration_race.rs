//! Integration: the shadow-state torn-read sanitizer end to end.
//!
//! `torn_read_world` overlaps RDMA-Sync reads of the back-end's exported
//! kernel region with bursty scheduling churn on the back-end, through a
//! congested fabric that stretches every read window. Strict mode must
//! observe tearing; seqlock mode must eliminate it and pay for that in
//! monitoring latency.

use fgmon_cluster::{torn_read_world, TornReadWorld};
use fgmon_sim::SimDuration;
use fgmon_types::RaceMode;

const RUN: SimDuration = SimDuration::from_secs(2);

/// [`torn_read_world`] with the sanitizer pinned to `mode`.
fn pinned(mode: RaceMode, seed: u64) -> TornReadWorld {
    let mut w = torn_read_world(seed);
    w.cluster.set_race_mode(mode);
    w
}

fn run(mode: RaceMode, seed: u64) -> (fgmon_types::RaceReport, f64, u64) {
    let mut w = pinned(mode, seed);
    w.cluster.run_for(RUN);
    let lat = w
        .cluster
        .recorder()
        .get_histogram("mon/latency/RDMA-Sync")
        .expect("RDMA-Sync latency histogram");
    (w.cluster.race_report(), lat.mean(), lat.count())
}

#[test]
fn strict_mode_detects_torn_reads() {
    let (report, _, reads) = run(RaceMode::Strict, 9);
    assert!(reads > 100, "poller must actually poll (got {reads})");
    assert!(report.reads_tracked > 100);
    assert!(report.host_writes > 1_000, "churn must write the region");
    assert!(
        report.torn_total >= 1,
        "overlapping writes must tear at least one read: {report:?}"
    );
    assert_eq!(report.seqlock_retries, 0);
    // Diagnostics carry coherent windows.
    for t in &report.torn {
        assert!(t.read_start < t.read_complete);
        assert!(t.epoch_at_complete > t.epoch_at_start);
        let (first, last) = t.write_span;
        assert!(t.read_start <= first && first <= last && last <= t.read_complete);
    }
}

#[test]
fn seqlock_mode_eliminates_tearing_at_a_latency_cost() {
    let seed = 9;
    let (strict, strict_mean, _) = run(RaceMode::Strict, seed);
    let (seqlock, seqlock_mean, _) = run(RaceMode::Seqlock, seed);

    assert!(strict.torn_total >= 1, "precondition: strict sees tearing");
    assert_eq!(seqlock.torn_total, 0, "seqlock must deliver no torn value");
    assert!(
        seqlock.seqlock_retries >= 1,
        "the same overlaps must trigger retries: {seqlock:?}"
    );
    // Each retry costs a version check plus a full re-read round trip, so
    // the monitoring latency histogram must shift right.
    assert!(
        seqlock_mean > strict_mean,
        "retries must raise mean monitoring latency \
         (strict {strict_mean:.0}ns vs seqlock {seqlock_mean:.0}ns)"
    );
}

#[test]
fn strict_mode_never_perturbs_the_run() {
    // Observation must be free: an Off run and a Strict run of the same
    // seed execute the identical event sequence.
    let events = |mode| {
        let mut w = pinned(mode, 4242);
        w.cluster.run_for(RUN);
        (
            w.cluster.eng.events_processed(),
            w.cluster.fabric_stats().rdma_reads,
        )
    };
    let off = events(RaceMode::Off);
    let strict = events(RaceMode::Strict);
    assert_eq!(off, strict);
}

#[test]
#[should_panic(expected = "before the first event runs")]
fn race_mode_is_fixed_once_an_event_has_run() {
    let mut w = torn_read_world(5);
    w.cluster.run_for(SimDuration::from_millis(1));
    w.cluster.set_race_mode(RaceMode::Strict);
}

#[test]
fn torn_detection_is_deterministic() {
    let (a, mean_a, n_a) = run(RaceMode::Strict, 31);
    let (b, mean_b, n_b) = run(RaceMode::Strict, 31);
    assert_eq!(a, b);
    assert_eq!((mean_a.to_bits(), n_a), (mean_b.to_bits(), n_b));
}
