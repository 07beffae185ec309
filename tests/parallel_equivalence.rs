//! Integration: the sharded parallel executor — global lookahead
//! windows over `Cluster::run_parallel`'s contiguous node blocks — is
//! *bitwise identical* to the sequential engine. Every observable output —
//! fabric frame counters, the strict race report (each torn-read
//! diagnostic, timestamp, and epoch), monitoring histograms, every time
//! series point, channel-health counters, and the event count — must
//! match exactly for any shard count, on both a fault-injected world and
//! the failover world.

use fgmon_balancer::Dispatcher;
use fgmon_cluster::{big_cluster, fault_compare_world, flaky_rdma_failover, Cluster};
use fgmon_net::FabricStats;
use fgmon_sim::{Actor, Ctx, SimDuration, SimTime};
use fgmon_types::{ChannelHealthStats, FaultPlan, Msg, RaceMode, RaceReport, RetryPolicy, Scheme};

const SEEDS: [u64; 3] = [11, 29, 4242];
// Includes a prime shard count (blocks of uneven size) and more shards
// than some worlds have busy nodes (degenerate near-empty shards).
const SHARDS: [usize; 4] = [2, 3, 4, 8];

type HistRow = (String, u64, u64, u64);
/// A series' key and every point's time and value bits.
type SeriesRow = (String, Vec<(u64, u64)>);
type Metrics = (Vec<HistRow>, Vec<SeriesRow>);

/// Every histogram's count, mean and max, and every series point.
fn metrics(cluster: &Cluster) -> Metrics {
    let r = cluster.recorder();
    let hists = r
        .histogram_keys()
        .map(|k| {
            let h = r.get_histogram(k).expect("listed key");
            (k.to_string(), h.count(), h.mean().to_bits(), h.max())
        })
        .collect();
    let series = r
        .series_keys()
        .map(|k| {
            let points = r.get_series(k).expect("listed key").points();
            let points = points.iter().map(|&(t, v)| (t.nanos(), v.to_bits()));
            (k.to_string(), points.collect())
        })
        .collect();
    (hists, series)
}

fn run(cluster: &mut Cluster, dur: SimDuration, shards: usize) {
    if shards <= 1 {
        cluster.run_for(dur);
    } else {
        cluster.run_parallel(dur, shards);
    }
}

#[test]
fn fault_world_is_bitwise_identical_across_thread_counts() {
    type Fp = (FabricStats, RaceReport, u64, Metrics);
    let fingerprint = |seed: u64, shards: usize| -> Fp {
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
        run(&mut w.cluster, SimDuration::from_secs(3), shards);
        (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            w.cluster.eng.events_processed(),
            metrics(&w.cluster),
        )
    };
    for seed in SEEDS {
        let sequential = fingerprint(seed, 1);
        assert!(
            sequential.2 > 1_000,
            "world must actually run (seed {seed})"
        );
        assert!(
            sequential.1.reads_tracked > 0,
            "the RDMA poller must be race-tracked (seed {seed})"
        );
        for shards in SHARDS {
            let parallel = fingerprint(seed, shards);
            assert_eq!(
                sequential, parallel,
                "parallel run diverged (seed {seed}, shards {shards})"
            );
        }
    }
}

#[test]
fn failover_world_preserves_channel_health_bitwise() {
    type Fp = (
        FabricStats,
        u64,
        Vec<ChannelHealthStats>,
        Vec<Option<u32>>,
        ChannelHealthStats,
        Metrics,
    );
    let fingerprint = |seed: u64, shards: usize| -> Fp {
        let mut w = flaky_rdma_failover(Scheme::RdmaSync, seed).world;
        run(&mut w.cluster, SimDuration::from_secs(6), shards);
        let disp: &Dispatcher = w.cluster.service(w.frontend, w.dispatcher_slot);
        let per: Vec<ChannelHealthStats> = (0..disp.monitor.backend_count())
            .map(|i| *disp.monitor.health_of(i))
            .collect();
        let gens: Vec<Option<u32>> = (0..disp.monitor.backend_count())
            .map(|i| disp.monitor.generation_of(i))
            .collect();
        let total = disp.monitor.health_total();
        (
            w.cluster.fabric_stats(),
            w.cluster.eng.events_processed(),
            per,
            gens,
            total,
            metrics(&w.cluster),
        )
    };
    for seed in SEEDS {
        let sequential = fingerprint(seed, 1);
        assert!(
            sequential.4.any_activity(),
            "the failover machinery must actually trip (seed {seed})"
        );
        for shards in SHARDS {
            let parallel = fingerprint(seed, shards);
            assert_eq!(
                sequential, parallel,
                "failover run diverged (seed {seed}, shards {shards})"
            );
        }
    }
}

#[test]
fn big_cluster_with_batched_doorbells_is_bitwise_identical() {
    type Fp = (FabricStats, u64, Metrics);
    let fingerprint = |shards: usize| -> Fp {
        let mut w = big_cluster(16, 7);
        run(&mut w.cluster, SimDuration::from_millis(600), shards);
        (
            w.cluster.fabric_stats(),
            w.cluster.eng.events_processed(),
            metrics(&w.cluster),
        )
    };
    let sequential = fingerprint(1);
    assert!(
        sequential.0.rdma_batch_posts > 0,
        "the dispatcher must coalesce its poll round into doorbell batches"
    );
    assert!(
        sequential.0.rdma_batched_reads >= 2 * sequential.0.rdma_batch_posts,
        "each batch must carry multiple reads"
    );
    for shards in [2, 3, 4, 8] {
        let parallel = fingerprint(shards);
        assert_eq!(
            sequential, parallel,
            "big-cluster run diverged (shards {shards})"
        );
    }
}

/// Forwards every event to the actor it wraps, as a harness that times
/// or traces the fabric's handler does.
struct PassThrough(Box<dyn Actor<Msg>>);

impl Actor<Msg> for PassThrough {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.0.handle(now, msg, ctx);
    }
}

#[test]
fn wrapped_fabric_runs_sharded_like_the_bare_one() {
    type Fp = (u64, Metrics);
    let fingerprint = |wrap: bool, shards: usize| -> Fp {
        let mut w = big_cluster(16, 7);
        if wrap {
            let fabric = w.cluster.fabric;
            let bare = w.cluster.eng.take_actor(fabric).expect("fabric installed");
            w.cluster.eng.install(fabric, Box::new(PassThrough(bare)));
        }
        run(&mut w.cluster, SimDuration::from_millis(600), shards);
        (w.cluster.eng.events_processed(), metrics(&w.cluster))
    };
    let bare = fingerprint(false, 1);
    assert!(bare.0 > 1_000, "the world must actually run");
    assert_eq!(
        bare,
        fingerprint(true, 2),
        "a sharded run over a wrapped fabric diverged from the bare sequential run"
    );
}

#[test]
fn noisy_neighbor_world_is_bitwise_identical_across_thread_counts() {
    use fgmon_cluster::NOISY_RATE_LIMIT;
    use fgmon_types::QosPolicy;
    type Fp = (FabricStats, RaceReport, u64, Metrics);
    // Several segments, so every rejoin must hand the next segment the
    // per-node NIC state (rate-limit buckets, QP-cache pressure) a
    // sequential run would have: one boundary falls mid-way through a
    // 1 ms limiter/contention window, one exactly on a flood tick.
    const SEGMENTS: [SimDuration; 3] = [
        SimDuration(250_500_000),
        SimDuration(249_500_000),
        SimDuration(500_000_000),
    ];
    let fingerprint = |qos: QosPolicy, seed: u64, shards: usize| -> Fp {
        let mut w = fgmon_cluster::noisy_neighbor(qos, true, seed);
        w.cluster.set_race_mode(RaceMode::Strict);
        for segment in SEGMENTS {
            run(&mut w.cluster, segment, shards);
        }
        (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            w.cluster.eng.events_processed(),
            metrics(&w.cluster),
        )
    };
    for qos in [QosPolicy::None, NOISY_RATE_LIMIT, QosPolicy::PriorityQp] {
        for seed in SEEDS {
            let sequential = fingerprint(qos, seed, 1);
            let (_, series) = &sequential.3;
            let gt: Vec<&SeriesRow> = series
                .iter()
                .filter(|(k, _)| k.starts_with("gt/"))
                .collect();
            assert!(
                !gt.is_empty() && gt.iter().all(|(_, points)| !points.is_empty()),
                "the ground-truth probe must record series points (seed {seed})"
            );
            let hostile = sequential.0.tenants[1];
            if qos == NOISY_RATE_LIMIT {
                assert!(
                    hostile.rate_limited > 0,
                    "the limiter must refuse hostile posts (seed {seed})"
                );
            } else {
                assert!(
                    hostile.thrashed > 0,
                    "the hostile tenant must thrash the shared NIC ({qos:?}, seed {seed})"
                );
            }
            for shards in SHARDS {
                let parallel = fingerprint(qos, seed, shards);
                assert_eq!(
                    sequential, parallel,
                    "noisy-neighbor run diverged ({qos:?}, seed {seed}, shards {shards})"
                );
            }
        }
    }
}

#[test]
fn gray_failure_world_is_bitwise_identical_across_thread_counts() {
    type Fp = (FabricStats, RaceReport, u64, Metrics);
    let fingerprint = |seed: u64, shards: usize| -> Fp {
        let mut w = fgmon_cluster::gray_failure_world(seed);
        w.cluster.set_race_mode(RaceMode::Strict);
        run(&mut w.cluster, SimDuration::from_secs(5), shards);
        (
            w.cluster.fabric_stats(),
            w.cluster.race_report(),
            w.cluster.eng.events_processed(),
            metrics(&w.cluster),
        )
    };
    for seed in SEEDS {
        let sequential = fingerprint(seed, 1);
        assert!(
            sequential.0.fault_partitioned > 0,
            "the partial partition must drop frames (seed {seed})"
        );
        assert!(
            sequential.0.fault_skewed > 0,
            "clock skew must rewrite reported timestamps (seed {seed})"
        );
        assert!(
            sequential.0.fault_delayed > 0,
            "the slow NIC must inflate latency (seed {seed})"
        );
        for shards in SHARDS {
            let parallel = fingerprint(seed, shards);
            assert_eq!(
                sequential, parallel,
                "gray-failure run diverged (seed {seed}, shards {shards})"
            );
        }
    }
}

#[test]
fn rdma_lock_world_is_bitwise_identical_across_thread_counts() {
    use fgmon_sim::SimTime;
    use fgmon_workload::LockClient;
    type Fp = (
        FabricStats,
        RaceReport,
        u64,
        Vec<(u64, u64, u64, u64)>,
        Metrics,
    );
    let fingerprint = |seed: u64, shards: usize| -> Fp {
        let crash = Some((SimTime(1_000_000_000), SimTime(1_600_000_000)));
        let mut w = fgmon_cluster::rdma_lock_world(4, 1, crash, seed);
        w.cluster.set_race_mode(RaceMode::Strict);
        run(&mut w.cluster, SimDuration::from_secs(3), shards);
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
            metrics(&w.cluster),
        )
    };
    for seed in SEEDS {
        let sequential = fingerprint(seed, 1);
        assert!(
            sequential.3.iter().map(|c| c.0).sum::<u64>() > 0,
            "lock clients must make progress (seed {seed})"
        );
        for shards in SHARDS {
            let parallel = fingerprint(seed, shards);
            assert_eq!(
                sequential, parallel,
                "lock-world run diverged (seed {seed}, shards {shards})"
            );
        }
    }
}
