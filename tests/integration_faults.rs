//! Integration: the fault-injection subsystem.
//!
//! Covers the PR's acceptance criteria: (1) fault-injected runs are fully
//! deterministic per (seed, FaultPlan); (2) under a lossy/congested plan
//! the Socket-Sync scheme's staleness degrades while RDMA-Sync stays
//! flat (ordering assertion — the paper's Figs. 3/8 contrast under
//! injected faults); (3) the dispatcher excludes a crashed back-end from
//! routing and re-admits it after recovery.

use fgmon_balancer::Dispatcher;
use fgmon_cluster::{
    congested_switch, crash_during_burst, fault_compare_world, flaky_rdma_failover,
    gray_failure_world, lossy_fabric, Cluster, FaultCompareWorld, RubisWorld,
};
use fgmon_core::{BackendView, MonitorFrontendService};
use fgmon_net::FabricStats;
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{FaultOp, FaultPlan, NodeId, RaceMode, RetryPolicy, Scheme};

const POLL: SimDuration = SimDuration::from_millis(20);

/// Everything observable about one run, bit-exact.
type Fingerprint = (FabricStats, Vec<u64>, u64);

/// [`observe`] one comparison run: both pollers' staleness and views.
fn fingerprint(mut w: FaultCompareWorld, dur: SimDuration) -> Fingerprint {
    w.cluster.run_for(dur);
    let views = [w.fe_socket, w.fe_rdma].map(|slot| {
        let svc: &MonitorFrontendService = w.cluster.service(w.frontend, slot);
        svc.client.views()[0]
    });
    observe(&w.cluster, &["Socket-Sync", "RDMA-Sync"], &views)
}

/// [`observe`] one RUBiS run, whose poller is the dispatcher's monitor.
fn rubis_fingerprint(mut w: RubisWorld, label: &str, dur: SimDuration) -> Fingerprint {
    w.cluster.run_for(dur);
    let disp: &Dispatcher = w.cluster.service(w.frontend, w.dispatcher_slot);
    observe(&w.cluster, &[label], disp.monitor.views())
}

/// Fabric counters, the labelled staleness histograms, the pollers'
/// per-backend counters, and the event count.
fn observe(cluster: &Cluster, labels: &[&str], views: &[BackendView]) -> Fingerprint {
    let mut metrics = Vec::new();
    for label in labels {
        let h = cluster
            .recorder()
            .get_histogram(&format!("mon/staleness/{label}"))
            .expect("staleness histogram");
        metrics.extend([h.count(), h.mean().to_bits(), h.min(), h.max()]);
    }
    for v in views {
        metrics.extend([
            v.polls,
            v.replies,
            v.timed_out,
            v.retries,
            v.gave_up,
            v.late_ignored,
        ]);
    }
    (
        cluster.fabric_stats(),
        metrics,
        cluster.eng.events_processed(),
    )
}

/// FNV-1a over a fingerprint's `Debug` rendering. The torn-read count is
/// left out: it is the race sanitizer's report, which
/// `FGMON_RACE_CHECK=strict` switches on without perturbing the run.
fn digest(fp: Fingerprint) -> u64 {
    let (mut stats, metrics, events) = fp;
    stats.torn_reads = 0;
    format!("{:?}", (stats, metrics, events))
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// One rule of each of the ten kinds on the two-node comparison world,
/// every window inside the first virtual second.
fn every_kind_plan() -> FaultPlan {
    let ms = |m: u64| SimTime(m * 1_000_000);
    let (fe, be) = (NodeId(0), NodeId(1));
    FaultPlan::new(0x7E4)
        .lossy_link(be, fe, 0.1)
        .congested(ms(100), ms(400), 2.5)
        .crash(be, ms(600), ms(700))
        .nic_stall(be, ms(150), ms(350), SimDuration::from_micros(40))
        .partition(Some(fe), Some(be), ms(450), ms(500))
        .slow_nic(fe, 1.7, ms(200), ms(550))
        .clock_skew(be, -300_000, ms(250), ms(800))
        .duplicated(0.2, SimDuration::from_millis(3), ms(50), ms(900))
        .reordered(
            Some(FaultOp::Socket),
            0.3,
            SimDuration::from_millis(2),
            ms(300),
            ms(750),
        )
        .corrupting(Some(be), 0.15, ms(100), ms(950))
}

/// [`digest`] of each fault scenario, pinned across commits: a change to
/// fate evaluation that is not bitwise neutral moves at least one.
const GOLDEN: [(&str, u64); 6] = [
    ("lossy_fabric", 0x5bad_5c29_0b40_3711),
    ("congested_switch", 0xbc7e_4544_c840_bd09),
    ("crash_during_burst", 0x4e5c_40e7_72f2_00e0),
    ("gray_failure_world", 0xbdf2_d2ea_03f8_d7f5),
    ("flaky_rdma_failover", 0x6731_c234_9e89_9ae5),
    ("every_rule_kind", 0x3f3a_2b45_46d1_a9d1),
];

#[test]
fn fault_fingerprints_match_golden() {
    let ms = |m: u64| SimTime(m * 1_000_000);
    let sec = SimDuration::from_secs(1);
    let retry = RetryPolicy::aggressive(POLL.mul_f64(3.0));
    let got = [
        ("lossy_fabric", fingerprint(lossy_fabric(0.3, POLL, 7), sec)),
        (
            "congested_switch",
            fingerprint(congested_switch(6.0, ms(200), ms(700), POLL, 13), sec),
        ),
        (
            "crash_during_burst",
            rubis_fingerprint(
                crash_during_burst(Scheme::RdmaSync, ms(300), ms(700), 23).world,
                "RDMA-Sync",
                sec,
            ),
        ),
        // These two open their fault windows at 1 s, so they run until
        // every window has closed.
        (
            "gray_failure_world",
            fingerprint(
                gray_failure_world(5, RaceMode::Off),
                SimDuration::from_secs(4),
            ),
        ),
        (
            "flaky_rdma_failover",
            rubis_fingerprint(
                flaky_rdma_failover(Scheme::RdmaSync, 9).world,
                "RDMA-Sync",
                SimDuration::from_millis(4_500),
            ),
        ),
        (
            "every_rule_kind",
            fingerprint(fault_compare_world(every_kind_plan(), retry, POLL, 3), sec),
        ),
    ]
    .map(|(name, fp)| (name, digest(fp)));
    assert_eq!(got, GOLDEN);
}

#[test]
fn fault_injected_run_is_deterministic() {
    let run = || fingerprint(lossy_fabric(0.3, POLL, 7), SimDuration::from_secs(6));
    let a = run();
    let b = run();
    assert!(a.0.fault_dropped > 0, "loss rule never fired: {:?}", a.0);
    assert_eq!(a, b, "same seed + same FaultPlan must be bit-identical");
}

#[test]
fn different_fault_seed_changes_fates() {
    // Same topology and loss probability, different plan seed: the fate
    // sequence (and hence the drop counters) should differ.
    let run = |plan_seed: u64| {
        let plan = FaultPlan::new(plan_seed).lossy_all(0.3);
        let w = fault_compare_world(plan, RetryPolicy::aggressive(POLL.mul_f64(3.0)), POLL, 7);
        fingerprint(w, SimDuration::from_secs(4))
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn lossy_fabric_degrades_socket_not_rdma() {
    let mut w = lossy_fabric(0.35, POLL, 11);
    w.cluster.run_for(SimDuration::from_secs(8));

    let stats = w.cluster.fabric_stats();
    assert!(stats.fault_checks > 0 && stats.fault_dropped > 0);

    let mean = |w: &FaultCompareWorld, label: &str| {
        w.cluster
            .recorder()
            .get_histogram(&format!("mon/staleness/{label}"))
            .expect("staleness histogram")
            .mean()
    };
    let socket = mean(&w, "Socket-Sync");
    let rdma = mean(&w, "RDMA-Sync");
    // The ordering the paper's story predicts: socket monitoring collapses
    // under loss (requests and replies die, polls wait out timeouts),
    // one-sided RDMA reads sail through untouched.
    assert!(
        socket > rdma,
        "expected Socket-Sync staleness ({socket:.0} ns) above RDMA-Sync ({rdma:.0} ns)"
    );

    // Loss only touches the socket path, so only the socket poller should
    // observe timeouts.
    let view = |w: &FaultCompareWorld, slot| {
        let svc: &MonitorFrontendService = w.cluster.service(w.frontend, slot);
        svc.client.views()[0]
    };
    assert!(
        view(&w, w.fe_socket).timed_out > 0,
        "socket poller never timed out"
    );
    assert_eq!(
        view(&w, w.fe_rdma).timed_out,
        0,
        "RDMA poller should not time out"
    );
}

#[test]
fn congested_switch_inflates_latency_and_keeps_ordering() {
    let mut w = congested_switch(
        6.0,
        SimTime(2_000_000_000),
        SimTime(6_000_000_000),
        POLL,
        13,
    );
    w.cluster.run_for(SimDuration::from_secs(8));
    let stats = w.cluster.fabric_stats();
    assert!(
        stats.fault_delayed > 0,
        "congestion window never delayed a frame"
    );
    let mean = |label: &str| {
        w.cluster
            .recorder()
            .get_histogram(&format!("mon/staleness/{label}"))
            .expect("staleness histogram")
            .mean()
    };
    assert!(mean("Socket-Sync") > mean("RDMA-Sync"));
}

#[test]
fn dispatcher_excludes_crashed_backend_and_readmits() {
    let crash_from = SimTime(2_000_000_000);
    let crash_until = SimTime(5_000_000_000);
    let mut cw = crash_during_burst(Scheme::RdmaSync, crash_from, crash_until, 23);
    let victim_idx = 0usize; // first back-end by construction

    // Phase 1: healthy cluster up to the crash.
    cw.world.cluster.run_for(SimDuration::from_secs(2));
    let s0 = {
        let d: &Dispatcher = cw
            .world
            .cluster
            .service(cw.world.frontend, cw.world.dispatcher_slot);
        d.stats.per_backend.clone()
    };
    assert!(
        s0[victim_idx] > 0,
        "victim should serve traffic before the crash"
    );

    // Phase 2: run deep into the crash window.
    cw.world.cluster.run_for(SimDuration::from_millis(2_800));
    let (s1, excl_mid, unreachable_mid) = {
        let d: &Dispatcher = cw
            .world
            .cluster
            .service(cw.world.frontend, cw.world.dispatcher_slot);
        (
            d.stats.per_backend.clone(),
            d.stats.degraded_exclusions,
            d.monitor
                .view_of(cw.victim)
                .expect("victim view")
                .unreachable,
        )
    };
    assert!(
        unreachable_mid,
        "monitor should mark the dark back-end unreachable"
    );
    assert!(excl_mid > 0, "dispatcher never excluded the dead back-end");
    let victim_delta: u64 = s1[victim_idx] - s0[victim_idx];
    let total_delta: u64 = s1.iter().sum::<u64>() - s0.iter().sum::<u64>();
    // Fair share would be 1/4; only the short pre-detection tail may leak.
    assert!(
        victim_delta * 10 < total_delta,
        "dead back-end kept receiving traffic: {victim_delta}/{total_delta}"
    );

    // Phase 3: run well past recovery.
    cw.world.cluster.run_for(SimDuration::from_millis(4_200));
    let d: &Dispatcher = cw
        .world
        .cluster
        .service(cw.world.frontend, cw.world.dispatcher_slot);
    assert!(
        !d.monitor
            .view_of(cw.victim)
            .expect("victim view")
            .unreachable,
        "a reply after recovery must re-admit the back-end"
    );
    let s2 = &d.stats.per_backend;
    assert!(
        s2[victim_idx] > s1[victim_idx],
        "recovered back-end should rejoin the routing rotation"
    );
}

#[test]
fn fabric_stats_reset_scopes_counters_to_a_segment() {
    // A reused world measured across two segments: without the reset the
    // second segment's counters would still contain the first's.
    let plan = FaultPlan::new(11).lossy_all(0.05);
    let mut w = fault_compare_world(plan, RetryPolicy::OFF, POLL, 11);

    w.cluster.run_for(SimDuration::from_secs(2));
    let first = w.cluster.fabric_stats();
    assert!(first.rdma_reads > 0 && first.fault_checks > 0);

    w.cluster.reset_fabric_stats();
    assert_eq!(w.cluster.fabric_stats(), FabricStats::default());

    w.cluster.run_for(SimDuration::from_secs(2));
    let second = w.cluster.fabric_stats();
    assert!(second.rdma_reads > 0, "second segment must be measured");
    assert!(
        second.rdma_reads < first.rdma_reads * 2,
        "second segment must not re-count the first: {second:?} vs {first:?}"
    );
    // The fault plan kept running across the reset.
    assert!(second.fault_checks > 0);
}

/// A rule naming a node the cluster lacks is rejected when the cluster is
/// built, naming the rule and the node. Without the check a crash rule
/// indexed past the node table, and any other rule never fired.
#[test]
#[should_panic(expected = "crash rule 0: names node9, but the cluster has 2 nodes")]
fn crash_rule_on_a_missing_node_is_rejected() {
    let plan = FaultPlan::new(1).crash(NodeId(9), SimTime(0), SimTime(1_000_000));
    fault_compare_world(plan, RetryPolicy::OFF, POLL, 7);
}

#[test]
#[should_panic(expected = "slow-nic rule 1: names node9, but the cluster has 2 nodes")]
fn slow_nic_rule_on_a_missing_node_is_rejected() {
    let plan =
        FaultPlan::new(1)
            .lossy_all(0.1)
            .slow_nic(NodeId(9), 4.0, SimTime::ZERO, SimTime::MAX);
    fault_compare_world(plan, RetryPolicy::OFF, POLL, 7);
}
