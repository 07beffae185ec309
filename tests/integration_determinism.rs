//! Integration: a (seed, config) pair fully determines every output.

use fgmon_balancer::Dispatcher;
use fgmon_cluster::{
    crash_restart_recovery, fault_compare_world, micro_latency, rubis_world, Cluster, RubisWorldCfg,
};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{ChannelHealthStats, FaultPlan, OsConfig, RaceMode, RetryPolicy, Scheme};
use fgmon_workload::RubisClient;

fn fingerprint(seed: u64) -> (u64, u64, Vec<u64>, u64) {
    let cfg = RubisWorldCfg {
        backends: 4,
        rubis_sessions: 24,
        think_mean: SimDuration::from_millis(150),
        zipf: Some((0.5, 12)),
        seed,
        ..Default::default()
    };
    let mut w = rubis_world(&cfg);
    w.cluster.run_for(SimDuration::from_secs(8));
    let client: &RubisClient = w.cluster.service(w.client_node, w.rubis_client_slot);
    let disp: &Dispatcher = w.cluster.service(w.frontend, w.dispatcher_slot);
    (
        client.completed,
        disp.stats.forwarded,
        disp.stats.per_backend.clone(),
        w.cluster.eng.events_processed(),
    )
}

#[test]
fn same_seed_identical_runs() {
    assert_eq!(fingerprint(101), fingerprint(101));
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(101);
    let b = fingerprint(102);
    // Event counts or routing shares will differ with overwhelming
    // probability under different stochastic workloads.
    assert_ne!(a, b);
}

#[test]
fn micro_world_bitwise_deterministic() {
    let run = || {
        let mut w = micro_latency(
            Scheme::SocketAsync,
            16,
            true,
            SimDuration::from_millis(20),
            OsConfig::default(),
            77,
        );
        w.cluster.run_for(SimDuration::from_secs(4));
        let h = w
            .cluster
            .recorder()
            .get_histogram("mon/latency/Socket-Async")
            .expect("hist");
        (
            h.count(),
            h.mean().to_bits(),
            h.max(),
            w.cluster.eng.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn race_sanitizer_runs_are_bitwise_identical() {
    // Faulty fabric + strict race checking, twice with the same seed: the
    // fabric counters AND the full race report (every torn-read
    // diagnostic, timestamp, and epoch) must match exactly.
    let run = |seed| {
        let plan = FaultPlan::new(seed ^ 0xD15C)
            .congested(SimTime::ZERO, SimTime::MAX, 16.0)
            .lossy_all(0.02);
        let mut w = fault_compare_world(
            plan,
            RetryPolicy::aggressive(SimDuration::from_millis(30)),
            SimDuration::from_millis(5),
            seed,
        );
        w.cluster.set_race_mode(RaceMode::Strict);
        w.cluster.run_for(SimDuration::from_secs(3));
        (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            w.cluster.eng.events_processed(),
        )
    };
    let (stats_a, race_a, ev_a) = run(7);
    let (stats_b, race_b, ev_b) = run(7);
    assert_eq!(stats_a, stats_b);
    assert_eq!(race_a, race_b);
    assert_eq!(ev_a, ev_b);
    assert_eq!(race_a.mode, RaceMode::Strict);
    assert!(race_a.reads_tracked > 0, "the RDMA poller must be tracked");
}

#[test]
fn crash_restart_health_stats_bitwise_deterministic() {
    // The self-healing machinery (breaker trips, fallback polls, fence
    // rejections, re-pins) is driven entirely by the seeded simulation:
    // two runs of the crash-restart scenario with the same seed must
    // produce bit-identical per-backend health counters and consume the
    // exact same number of events.
    let run = |seed| {
        let w = crash_restart_recovery(Scheme::RdmaSync, seed);
        let mut world = w.world;
        world.cluster.run_for(SimDuration::from_secs(9));
        let disp: &Dispatcher = world.cluster.service(world.frontend, world.dispatcher_slot);
        let per: Vec<ChannelHealthStats> = (0..disp.monitor.backend_count())
            .map(|i| *disp.monitor.health_of(i))
            .collect();
        let gens: Vec<Option<u32>> = (0..disp.monitor.backend_count())
            .map(|i| disp.monitor.generation_of(i))
            .collect();
        (
            per,
            gens,
            disp.monitor.health_total(),
            world.cluster.eng.events_processed(),
        )
    };
    let a = run(33);
    let b = run(33);
    assert_eq!(a, b, "crash-restart health stats must be bitwise stable");
    assert!(
        a.2.any_activity(),
        "the scenario must actually exercise the health machinery"
    );
}

/// [`fnv1a`] of the heap-ordered run of the adversarial fault world
/// (congestion, loss and retries, strict race checking) for seeds 11, 29
/// and 4242, recorded while the reference binary heap and the timing wheel
/// could still be swapped inside one built world and agreed bitwise.
const HEAP_GOLDEN: [(u64, u64); 3] = [
    (11, 0xf03c_c975_587b_5202),
    (29, 0x40e9_e69d_448b_2d7e),
    (4242, 0x8b69_cc73_a9f8_083a),
];

#[test]
fn timing_wheel_is_golden_equivalent_to_heap() {
    // The timing wheel replaced the binary heap as the engine's event
    // queue. The *entire observable output* of a run — fabric frame
    // counters, the strict race report, event count, and every
    // monitoring histogram — must stay bitwise what the heap produced,
    // on a world where any ordering divergence compounds instantly.
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed ^ 0xD15C)
            .congested(SimTime::ZERO, SimTime::MAX, 16.0)
            .lossy_all(0.02);
        let mut w = fault_compare_world(
            plan,
            RetryPolicy::aggressive(SimDuration::from_millis(30)),
            SimDuration::from_millis(5),
            seed,
        );
        w.cluster.set_race_mode(RaceMode::Strict);
        w.cluster.run_for(SimDuration::from_secs(3));
        let hists: Vec<(String, u64, u64, u64)> = w
            .cluster
            .recorder()
            .histogram_keys()
            .map(|k| {
                let h = w.cluster.recorder().get_histogram(k).expect("listed key");
                (k.to_string(), h.count(), h.mean().to_bits(), h.max())
            })
            .collect();
        let events = w.cluster.eng.events_processed();
        assert!(events > 1_000, "world must actually run (seed {seed})");
        let fp = (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            events,
            hists,
        );
        (seed, fnv1a(&format!("{fp:?}")))
    };
    assert_eq!(HEAP_GOLDEN.map(|(seed, _)| run(seed)), HEAP_GOLDEN);
}

#[test]
fn recorder_keys_are_stable_ordered() {
    let keys = |seed| {
        let cfg = RubisWorldCfg {
            backends: 2,
            rubis_sessions: 8,
            seed,
            ..Default::default()
        };
        let mut w = rubis_world(&cfg);
        w.cluster.run_for(SimDuration::from_secs(3));
        w.cluster
            .recorder()
            .histogram_keys()
            .map(String::from)
            .collect::<Vec<_>>()
    };
    let a = keys(1);
    let b = keys(1);
    assert_eq!(a, b);
    let mut sorted = a.clone();
    sorted.sort();
    assert_eq!(a, sorted, "BTreeMap keys must iterate sorted");
}

/// The per-tenant fabric ledger is part of the determinism fingerprint:
/// identical seeds give byte-identical `TenantStats`, different seeds
/// drift, and a tenant-free run keeps every non-infra row zeroed.
#[test]
fn tenant_ledger_is_seed_determined() {
    use fgmon_cluster::noisy_neighbor;
    use fgmon_types::{QosPolicy, TenantStats};
    let run = |seed| {
        let mut w = noisy_neighbor(QosPolicy::None, true, seed);
        w.cluster.set_race_mode(RaceMode::Off);
        w.cluster.run_for(SimDuration::from_secs(1));
        (
            w.cluster.fabric_stats().tenants,
            w.cluster.eng.events_processed(),
        )
    };
    let (a, ev_a) = run(11);
    let (b, ev_b) = run(11);
    assert_eq!(a, b);
    assert_eq!(ev_a, ev_b);
    assert!(a[1].posted > 0, "the hostile tenant must post");
    let (c, _) = run(12);
    assert_ne!(a, c, "different seeds should drift the ledger");

    // Tenant-free worlds never touch non-infra rows.
    let mut w = micro_latency(
        Scheme::RdmaSync,
        4,
        true,
        SimDuration::from_millis(1),
        OsConfig::default(),
        99,
    );
    w.cluster.run_for(SimDuration::from_secs(1));
    let t = w.cluster.fabric_stats().tenants;
    for row in &t[1..] {
        assert_eq!(row, &TenantStats::default());
    }
}

/// FNV-1a over everything one run records: the event count, every
/// recorder histogram and counter, and the fabric counters. The
/// torn-read count is left out: it is the race sanitizer's report, which
/// `FGMON_RACE_CHECK=strict` switches on without perturbing the run.
fn world_digest(mut cluster: Cluster, dur: SimDuration) -> u64 {
    use std::fmt::Write as _;
    cluster.run_for(dur);
    let rec = cluster.recorder();
    let mut s = format!("events={};", cluster.eng.events_processed());
    for k in rec.histogram_keys() {
        let h = rec.get_histogram(k).expect("listed key");
        write!(s, "{k}={h:?};").unwrap();
    }
    for k in rec.counter_keys() {
        let c = rec.get_counter(k).expect("listed key").get();
        write!(s, "{k}={c};").unwrap();
    }
    let mut stats = cluster.fabric_stats();
    stats.torn_reads = 0;
    write!(s, "{stats:?}").unwrap();
    fnv1a(&s)
}

/// FNV-1a over a rendering's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`world_digest`] of one run of every world family, pinned across
/// commits: a change to how a world is wired that is not bitwise neutral
/// moves at least one.
const GOLDEN_WORLDS: [(&str, u64); 13] = [
    ("micro_latency", 0x8fe7_9435_ae08_0388),
    ("float_granularity", 0x8a73_4308_3bf9_683d),
    ("accuracy_world", 0xfd66_e9ed_192c_0376),
    ("rubis_world", 0xd563_5f99_c36c_5651),
    ("ganglia_world/RdmaSync", 0xe81b_c1fd_27a2_b136),
    ("ganglia_world/SocketAsync", 0x9da1_220b_a3c1_5d5c),
    ("big_cluster", 0x7b59_2df1_c273_3a99),
    ("torn_read_world", 0xcd29_d8ae_f262_8922),
    ("noisy_neighbor", 0xacdf_d9c2_8813_b481),
    ("noisy_rubis", 0xc099_dab5_f448_0348),
    ("rdma_lock_crash", 0xa79f_303f_b717_2c25),
    ("chaos_world", 0xaa83_3327_e37e_4328),
    ("crash_restart_recovery", 0xa0cd_3939_aa80_803c),
];

#[test]
fn scenario_worlds_match_golden() {
    use fgmon_cluster::{
        accuracy_world, big_cluster, chaos_world, float_granularity, ganglia_world, noisy_neighbor,
        noisy_rubis, rdma_lock_crash, torn_read_world, NOISY_RATE_LIMIT,
    };
    use fgmon_types::NodeId;
    use fgmon_workload::RampStep;
    let ms = SimDuration::from_millis;
    let at = |m: u64| SimTime(m * 1_000_000);
    let ganglia_base = RubisWorldCfg {
        scheme: Scheme::ERdmaSync,
        backends: 3,
        rubis_sessions: 24,
        granularity: ms(20),
        seed: 8,
        ..Default::default()
    };
    let mut torn = torn_read_world(42).cluster;
    torn.set_race_mode(RaceMode::Seqlock);
    let chaos_plan = FaultPlan::new(0xC4A0)
        .lossy_all(0.05)
        .crash(NodeId(1), at(300), at(600));
    let got = [
        (
            "micro_latency",
            world_digest(
                micro_latency(
                    Scheme::SocketSync,
                    16,
                    true,
                    ms(20),
                    OsConfig::default(),
                    11,
                )
                .cluster,
                ms(1_000),
            ),
        ),
        (
            "float_granularity",
            world_digest(
                float_granularity(Scheme::RdmaAsync, ms(4), 3).cluster,
                ms(1_000),
            ),
        ),
        (
            "accuracy_world",
            world_digest(
                accuracy_world(
                    ms(20),
                    vec![RampStep {
                        at: SimTime::ZERO,
                        hogs: 4,
                    }],
                    16,
                    true,
                    true,
                    5,
                )
                .cluster,
                ms(300),
            ),
        ),
        (
            "rubis_world",
            world_digest(
                rubis_world(&RubisWorldCfg {
                    scheme: Scheme::RdmaWritePush,
                    backends: 4,
                    rubis_sessions: 24,
                    zipf: Some((0.5, 8)),
                    granularity: ms(10),
                    background_hogs: 1,
                    seed: 6,
                    ..Default::default()
                })
                .cluster,
                ms(1_000),
            ),
        ),
        (
            "ganglia_world/RdmaSync",
            world_digest(
                ganglia_world(&ganglia_base, Scheme::RdmaSync, ms(10))
                    .rubis
                    .cluster,
                ms(1_500),
            ),
        ),
        (
            "ganglia_world/SocketAsync",
            world_digest(
                ganglia_world(&ganglia_base, Scheme::SocketAsync, ms(10))
                    .rubis
                    .cluster,
                ms(1_500),
            ),
        ),
        (
            "big_cluster",
            world_digest(big_cluster(16, 1).cluster, ms(500)),
        ),
        ("torn_read_world", world_digest(torn, ms(1_000))),
        (
            "noisy_neighbor",
            world_digest(noisy_neighbor(NOISY_RATE_LIMIT, true, 3).cluster, ms(300)),
        ),
        (
            "noisy_rubis",
            world_digest(
                noisy_rubis(Scheme::RdmaSync, NOISY_RATE_LIMIT, true, 3).cluster,
                ms(300),
            ),
        ),
        (
            "rdma_lock_crash",
            world_digest(rdma_lock_crash(5).cluster, ms(2_000)),
        ),
        (
            "chaos_world",
            world_digest(chaos_world(chaos_plan, 4, RaceMode::Off).cluster, ms(1_000)),
        ),
        (
            "crash_restart_recovery",
            world_digest(
                crash_restart_recovery(Scheme::RdmaSync, 42).world.cluster,
                ms(5_500),
            ),
        ),
    ];
    assert_eq!(got, GOLDEN_WORLDS);
}
