//! Integration: multi-tenant NIC contention and tenant QoS.
//!
//! A hostile co-tenant floods the fabric with one-sided reads and bursty
//! chatter, thrashing the shared NIC's QP cache. The two-sided socket
//! scheme — whose monitoring accuracy depends on request/response timing
//! on the host CPU — loses *accuracy*; the one-sided RDMA scheme keeps
//! its accuracy but loses *freshness* (its completions queue behind the
//! flood). Tenant QoS restores them: a per-tenant token-bucket rate
//! limit starves the flood at its source NIC (restoring both schemes),
//! while a prioritized monitoring QP class exempts only the
//! infrastructure tenant's completions (restoring RDMA freshness but not
//! the socket scheme's CPU-side accuracy).
//!
//! The same fabric hosts the RDMA-CAS distributed lock service as a
//! contending tenant; its crash-recovery run asserts the epoch-fencing
//! invariants end-to-end. Everything here must be bitwise deterministic,
//! including under `FGMON_RACE_CHECK=strict` (the scenario constructors
//! honor the env var).

use fgmon_cluster::{
    noisy_neighbor_raced, rdma_lock_crash, rdma_lock_world, Cluster, NoisyWorld, NOISY_RATE_LIMIT,
};
use fgmon_core::{mean_deviation, scheme_quality, AccuracyMetric};
use fgmon_sim::SimDuration;
use fgmon_types::{QosPolicy, RaceMode, Scheme, TenantStats};
use fgmon_workload::{LockClient, LockHost};

const RUN: SimDuration = SimDuration(2_000_000_000);
const SEEDS: [u64; 3] = [11, 29, 4242];

/// Everything a tenancy assertion needs from one noisy-world run:
/// per-scheme accuracy (mean |reported − ground-truth| CPU utilization),
/// per-scheme mean staleness, and the per-tenant fabric counters.
struct Probe {
    sdev: f64,
    rdev: f64,
    sstale: f64,
    rstale: f64,
    tenants: Vec<TenantStats>,
}

fn probe(qos: QosPolicy, hostile: bool, seed: u64) -> Probe {
    let w: NoisyWorld = noisy_neighbor_raced(qos, hostile, seed, RaceMode::from_env());
    probe_world(w)
}

fn probe_world(mut w: NoisyWorld) -> Probe {
    w.cluster.run_for(RUN);
    let rec = w.cluster.recorder();
    Probe {
        sdev: mean_deviation(rec, Scheme::SocketSync, w.backend, AccuracyMetric::CpuUtil)
            .expect("socket series"),
        rdev: mean_deviation(rec, Scheme::RdmaSync, w.backend, AccuracyMetric::CpuUtil)
            .expect("rdma series"),
        sstale: scheme_quality(rec, Scheme::SocketSync)
            .expect("socket hist")
            .staleness_mean_ms,
        rstale: scheme_quality(rec, Scheme::RdmaSync)
            .expect("rdma hist")
            .staleness_mean_ms,
        tenants: w.cluster.fabric_stats().tenants.to_vec(),
    }
}

/// The hostile tenant's flood must visibly hurt both schemes — accuracy
/// for the socket scheme, freshness for RDMA — and the damage must land
/// harder on the socket scheme's accuracy than on RDMA's.
#[test]
fn hostile_tenant_degrades_socket_scheme_more_than_rdma() {
    for seed in SEEDS {
        let quiet = probe(QosPolicy::None, false, seed);
        let noisy = probe(QosPolicy::None, true, seed);

        // Socket accuracy collapses (≥2× worse absolute deviation)...
        assert!(
            noisy.sdev > 2.0 * quiet.sdev,
            "seed {seed}: socket accuracy not degraded: {} vs quiet {}",
            noisy.sdev,
            quiet.sdev
        );
        // ...while the one-sided scheme's accuracy is unharmed, leaving
        // the socket scheme an order of magnitude worse than RDMA.
        assert!(
            noisy.rdev < 1.5 * quiet.rdev,
            "seed {seed}: rdma accuracy should survive contention: {} vs quiet {}",
            noisy.rdev,
            quiet.rdev
        );
        assert!(
            noisy.sdev > 10.0 * noisy.rdev,
            "seed {seed}: under attack socket must trail rdma: {} vs {}",
            noisy.sdev,
            noisy.rdev
        );

        // Freshness: RDMA completions queue behind the flood (≥2×
        // staleness); socket round-trips shift too, less dramatically.
        assert!(
            noisy.rstale > 2.0 * quiet.rstale,
            "seed {seed}: rdma staleness not degraded: {} vs {}",
            noisy.rstale,
            quiet.rstale
        );
        assert!(
            noisy.sstale > 1.02 * quiet.sstale,
            "seed {seed}: socket staleness not degraded: {} vs {}",
            noisy.sstale,
            quiet.sstale
        );

        // The per-tenant ledger must attribute the damage: the hostile
        // tenant posted and thrashed heavily, and collateral thrash
        // landed on the infrastructure tenant.
        let (infra, hostile) = (&noisy.tenants[0], &noisy.tenants[1]);
        assert!(hostile.posted > 100_000, "flood posted {}", hostile.posted);
        assert!(
            hostile.thrashed > 50_000,
            "flood thrash {}",
            hostile.thrashed
        );
        assert!(
            infra.thrashed > 500,
            "collateral thrash on monitoring {}",
            infra.thrashed
        );
        assert!(
            infra.contention_dropped > 0,
            "collateral shed on monitoring"
        );
        // And the quiet run's ledger shows no second tenant at all.
        assert_eq!(quiet.tenants[1], TenantStats::default());
        assert_eq!(quiet.tenants[0].thrashed, 0);
    }
}

/// Per-tenant token-bucket rate limiting starves the flood at its source
/// NIC: both schemes return to (near-)quiet accuracy and freshness, and
/// nobody thrashes the QP cache anymore.
#[test]
fn rate_limit_qos_restores_both_schemes() {
    let seed = SEEDS[0];
    let quiet = probe(QosPolicy::None, false, seed);
    let noisy = probe(QosPolicy::None, true, seed);
    let rlim = probe(NOISY_RATE_LIMIT, true, seed);

    assert!(
        rlim.sdev < 0.65 * noisy.sdev,
        "socket accuracy not restored: {} vs hostile {}",
        rlim.sdev,
        noisy.sdev
    );
    assert!(
        rlim.rstale < 0.5 * noisy.rstale,
        "rdma freshness not restored: {} vs hostile {}",
        rlim.rstale,
        noisy.rstale
    );
    assert!(
        rlim.sstale < 1.05 * quiet.sstale,
        "socket freshness not restored: {} vs quiet {}",
        rlim.sstale,
        quiet.sstale
    );
    assert!(
        rlim.rdev < 1.2 * quiet.rdev,
        "rdma accuracy drifted under QoS: {} vs quiet {}",
        rlim.rdev,
        quiet.rdev
    );

    // The ledger shows the mechanism: the flood is dropped at its source
    // (rate_limited), so no tenant pays thrash or shed penalties.
    let (infra, hostile) = (&rlim.tenants[0], &rlim.tenants[1]);
    assert!(
        hostile.rate_limited > 100_000,
        "flood not rate limited: {}",
        hostile.rate_limited
    );
    assert_eq!(infra.thrashed + hostile.thrashed, 0, "thrash survived QoS");
    assert_eq!(infra.contention_dropped, 0, "monitoring still shed");
}

/// The prioritized monitoring QP class exempts only the infrastructure
/// tenant's completions from contention: RDMA freshness returns to quiet
/// levels, but the socket scheme's CPU-timing accuracy loss — which no
/// NIC-side priority can undo — persists.
#[test]
fn priority_qp_restores_monitoring_class_only() {
    let seed = SEEDS[0];
    let quiet = probe(QosPolicy::None, false, seed);
    let noisy = probe(QosPolicy::None, true, seed);
    let prio = probe(QosPolicy::PriorityQp, true, seed);

    assert!(
        prio.rstale < 0.5 * noisy.rstale,
        "rdma freshness not restored: {} vs hostile {}",
        prio.rstale,
        noisy.rstale
    );
    assert!(
        prio.rstale < 1.1 * quiet.rstale,
        "rdma staleness should be quiet-level: {} vs {}",
        prio.rstale,
        quiet.rstale
    );
    assert!(
        prio.sdev > 0.8 * noisy.sdev,
        "socket accuracy should remain degraded: {} vs hostile {}",
        prio.sdev,
        noisy.sdev
    );

    // Mechanism: the infra tenant's completions dodge thrash and shed
    // entirely; the hostile tenant keeps paying.
    let (infra, hostile) = (&prio.tenants[0], &prio.tenants[1]);
    assert_eq!(infra.thrashed, 0, "priority class still thrashed");
    assert_eq!(infra.contention_dropped, 0, "priority class still shed");
    assert!(hostile.thrashed > 50_000, "flood should keep thrashing");
}

/// Flattened histogram rows, the determinism fingerprint idiom shared
/// with the parallel-equivalence suite.
fn histograms(c: &Cluster) -> Vec<(String, u64, u64, u64)> {
    c.recorder()
        .histogram_keys()
        .map(|k| {
            let h = c.recorder().get_histogram(k).expect("listed key");
            (k.to_string(), h.count(), h.mean().to_bits(), h.max())
        })
        .collect()
}

/// Same seed, strict race checking, twice: fabric counters (including
/// the per-tenant ledger), histograms, race diagnostics, and the event
/// count must match bit for bit.
#[test]
fn noisy_world_is_bitwise_deterministic_under_strict_race() {
    let run = |seed| {
        let mut w = noisy_neighbor_raced(QosPolicy::None, true, seed, RaceMode::Strict);
        w.cluster.run_for(SimDuration(1_000_000_000));
        let hist = histograms(&w.cluster);
        (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            w.cluster.eng.events_processed(),
            hist,
        )
    };
    let (stats_a, race_a, ev_a, hist_a) = run(29);
    let (stats_b, race_b, ev_b, hist_b) = run(29);
    assert_eq!(stats_a, stats_b);
    assert_eq!(stats_a.tenants, stats_b.tenants);
    assert_eq!(race_a, race_b);
    assert_eq!(ev_a, ev_b);
    assert_eq!(hist_a, hist_b);
    assert!(
        stats_a.tenants[1].thrashed > 0,
        "fingerprint must cover a thrashing tenant"
    );
}

/// The dispatcher keeps serving under a hostile co-tenant, but the
/// monitoring feed it routes on goes stale; QoS brings the freshness
/// back (rate limiting for everyone, the priority QP class for the
/// monitoring tenant specifically).
#[test]
fn dispatcher_rides_out_hostile_tenant_with_qos() {
    use fgmon_balancer::Dispatcher;
    use fgmon_cluster::noisy_rubis;
    let seed = SEEDS[0];
    let run = |scheme, qos, hostile| {
        let mut w = noisy_rubis(scheme, qos, hostile, seed);
        w.cluster.run_for(SimDuration(1_500_000_000));
        let d: &Dispatcher = w.cluster.service(w.frontend, w.dispatcher_slot);
        let stale = w
            .cluster
            .recorder()
            .get_histogram(&format!("mon/staleness/{}", scheme.label()))
            .map(|h| h.mean() / 1e6)
            .expect("staleness histogram");
        let tenants = w.cluster.fabric_stats().tenants;
        (d.stats.completed, stale, tenants)
    };

    let (qc, qs, _) = run(Scheme::RdmaSync, QosPolicy::None, false);
    let (nc, ns, nt) = run(Scheme::RdmaSync, QosPolicy::None, true);
    let (rc, rs, rt) = run(Scheme::RdmaSync, NOISY_RATE_LIMIT, true);
    let (_, ps, _) = run(Scheme::RdmaSync, QosPolicy::PriorityQp, true);

    // The monitoring feed behind the dispatcher degrades ≥2× and both
    // QoS policies bring it back to quiet levels.
    assert!(qs < 0.020, "quiet rdma staleness {qs}");
    assert!(ns > 2.0 * qs, "hostile staleness {ns} vs quiet {qs}");
    assert!(rs < 1.1 * qs, "rate limit did not restore freshness: {rs}");
    assert!(ps < 1.1 * qs, "priority qp did not restore freshness: {ps}");

    // Service stays up throughout (closed-loop sessions keep completing).
    for (tag, completed) in [("quiet", qc), ("noisy", nc), ("rlim", rc)] {
        assert!(completed > 40, "{tag}: dispatcher starved: {completed}");
    }

    // Ledger: the flood thrashes in the unprotected run and is cut off
    // at the source under rate limiting.
    assert!(nt[1].thrashed > 10_000, "flood thrash {}", nt[1].thrashed);
    assert!(rt[1].rate_limited > 10_000, "flood not limited");
    assert_eq!(rt[0].thrashed + rt[1].thrashed, 0);

    // The socket-scheme dispatcher also keeps serving under attack.
    let (sc, ss, _) = run(Scheme::SocketSync, QosPolicy::None, true);
    assert!(sc > 40, "socket dispatcher starved: {sc}");
    assert!((0.04..0.09).contains(&ss), "socket staleness band: {ss}");
}

/// A post the hostile node's NIC refuses leaves nothing behind: no
/// `rdma_pending` row waits for a completion that can never come, and
/// every completion the fabric delivered to the flood found its row —
/// so the NIC's bucket marks exactly the frames it refuses.
#[test]
fn refused_posts_leave_no_pending_rows() {
    use fgmon_cluster::noisy_rubis;
    use fgmon_types::{NodeId, ServiceSlot};
    use fgmon_workload::RdmaFlood;
    for seed in SEEDS {
        let mut w = noisy_rubis(Scheme::RdmaSync, NOISY_RATE_LIMIT, true, seed);
        w.cluster.run_for(RUN);
        // The hostile node is added last; the flood is its first service.
        let hostile = NodeId(w.cluster.node_count() as u16 - 1);
        let pending = w.cluster.node(hostile).core().rdma_pending.len();
        assert!(pending <= 64, "seed {seed}: {pending} rows left pending");
        let flood: &RdmaFlood = w.cluster.service(hostile, ServiceSlot(0));
        let tenants = w.cluster.fabric_stats().tenants;
        assert!(
            tenants[1].rate_limited > 10_000,
            "seed {seed}: flood not limited"
        );
        assert_eq!(flood.completions, tenants[1].completions, "seed {seed}");
    }
}

/// Crash-recovery on the RDMA-CAS lock service: the lease manager fences
/// the dead holder exactly once, the victim recovers (via a fenced
/// release or by observing its skipped ticket), mutual exclusion never
/// breaks, and throughput resumes for everyone.
#[test]
fn rdma_lock_crash_recovery_is_epoch_fenced() {
    const LOCK_RUN: SimDuration = SimDuration(5_000_000_000);
    for seed in SEEDS {
        let mut w = rdma_lock_crash(seed);
        w.cluster.run_for(LOCK_RUN);
        let host: &LockHost = w.cluster.service(w.host, w.host_slot);
        assert!(host.fences >= 1, "seed {seed}: lease manager never fenced");
        let victim = w.victim.expect("crash run has a victim");
        for (i, (&n, &slot)) in w.clients.iter().zip(&w.client_slots).enumerate() {
            let c: &LockClient = w.cluster.service(n, slot);
            assert_eq!(
                c.exclusion_violations, 0,
                "seed {seed} client{i}: mutual exclusion broken"
            );
            assert!(
                c.acquisitions > 20,
                "seed {seed} client{i}: starved ({} acquisitions)",
                c.acquisitions
            );
            if n == victim {
                // The victim either held at the crash (its stale release
                // is fenced) or was waiting (its ticket got skipped) —
                // both recovery paths must have fired at least once.
                assert!(
                    c.release_fenced + c.grant_skipped >= 1,
                    "seed {seed}: victim never exercised a fenced path"
                );
            }
        }
    }

    // A pristine run never fences and never exercises recovery paths.
    let mut w = rdma_lock_world(4, 1, None, SEEDS[0]);
    w.cluster.run_for(LOCK_RUN);
    let host: &LockHost = w.cluster.service(w.host, w.host_slot);
    assert_eq!(host.fences, 0, "pristine run fenced");
    for (&n, &slot) in w.clients.iter().zip(&w.client_slots) {
        let c: &LockClient = w.cluster.service(n, slot);
        assert_eq!(c.release_fenced + c.grant_skipped, 0);
        assert_eq!(c.exclusion_violations, 0);
    }
}

/// The lock world, strict race checking, twice: identical down to every
/// client counter and fabric byte.
#[test]
fn lock_world_is_bitwise_deterministic_under_strict_race() {
    use fgmon_cluster::rdma_lock_world_raced;
    use fgmon_sim::SimTime;
    let run = |seed| {
        let crash = Some((SimTime(1_000_000_000), SimTime(1_600_000_000)));
        let mut w = rdma_lock_world_raced(4, 1, crash, seed, RaceMode::Strict);
        w.cluster.run_for(SimDuration(3_000_000_000));
        let counters: Vec<(u64, u64, u64, u64)> = w
            .clients
            .iter()
            .zip(&w.client_slots)
            .map(|(&n, &slot)| {
                let c: &LockClient = w.cluster.service(n, slot);
                (c.acquisitions, c.releases, c.release_fenced, c.cas_retries)
            })
            .collect();
        (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            w.cluster.eng.events_processed(),
            counters,
        )
    };
    let (stats_a, race_a, ev_a, cnt_a) = run(11);
    let (stats_b, race_b, ev_b, cnt_b) = run(11);
    assert_eq!(stats_a, stats_b);
    assert_eq!(race_a, race_b);
    assert_eq!(ev_a, ev_b);
    assert_eq!(cnt_a, cnt_b);
    assert!(cnt_a.iter().any(|c| c.0 > 0), "nobody acquired");
}
