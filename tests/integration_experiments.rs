//! Integration: accuracy (Fig. 5), interrupt detail (Fig. 6), Ganglia
//! disturbance (Fig. 8) and fine-vs-coarse throughput (Fig. 9) shapes.

use fgmon_balancer::Dispatcher;
use fgmon_cluster::{accuracy_world, ganglia_world, rubis_world, RubisWorldCfg};
use fgmon_core::{mean_deviation, mean_reported, AccuracyMetric};
use fgmon_ganglia::GmetricPublisher;
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{FaultPlan, NodeId, Scheme, ServiceSlot};
use fgmon_workload::{RampStep, RubisClient};

fn ramp() -> Vec<RampStep> {
    // Load climbs 0 → 24 threads then falls back, over 10s.
    let mut steps = Vec::new();
    for i in 0..=12u32 {
        steps.push(RampStep {
            at: SimTime(i as u64 * 800_000_000),
            hogs: if i <= 6 { i * 4 } else { (12 - i) * 4 },
        });
    }
    steps
}

#[test]
fn fig5_shape_rdma_sync_is_most_accurate() {
    let mut w = accuracy_world(SimDuration::from_millis(50), ramp(), 24, false, false, 21);
    w.cluster.run_for(SimDuration::from_secs(10));
    let rec = w.cluster.recorder();
    let node = w.backend;

    let dev = |scheme: Scheme, metric: AccuracyMetric| {
        mean_deviation(rec, scheme, node, metric).expect("series recorded")
    };

    // Fig. 5a: thread-count deviation. RDMA-Sync reports essentially no
    // deviation; the socket schemes deviate visibly under load.
    let rdma_sync = dev(Scheme::RdmaSync, AccuracyMetric::NThreads);
    let sock_async = dev(Scheme::SocketAsync, AccuracyMetric::NThreads);
    let sock_sync = dev(Scheme::SocketSync, AccuracyMetric::NThreads);
    let rdma_async = dev(Scheme::RdmaAsync, AccuracyMetric::NThreads);
    assert!(rdma_sync < 0.6, "RDMA-Sync nthreads deviation {rdma_sync}");
    assert!(
        sock_async > rdma_sync * 2.0,
        "Socket-Async {sock_async} vs RDMA-Sync {rdma_sync}"
    );
    assert!(
        sock_sync > rdma_sync,
        "Socket-Sync {sock_sync} vs RDMA-Sync {rdma_sync}"
    );
    assert!(
        rdma_async > rdma_sync,
        "RDMA-Async {rdma_async} vs RDMA-Sync {rdma_sync}"
    );

    // Fig. 5b: CPU-load deviation. CPU fluctuates faster than the thread
    // count, so even RDMA-Async deviates; RDMA-Sync stays best.
    let rs = dev(Scheme::RdmaSync, AccuracyMetric::CpuUtil);
    let ra = dev(Scheme::RdmaAsync, AccuracyMetric::CpuUtil);
    let sa = dev(Scheme::SocketAsync, AccuracyMetric::CpuUtil);
    assert!(rs <= ra, "cpu dev: RDMA-Sync {rs} vs RDMA-Async {ra}");
    assert!(rs <= sa, "cpu dev: RDMA-Sync {rs} vs Socket-Async {sa}");
}

#[test]
fn fig6_shape_rdma_sync_sees_more_pending_interrupts() {
    let mut w = accuracy_world(
        SimDuration::from_millis(10),
        vec![RampStep {
            at: SimTime::ZERO,
            hogs: 8,
        }],
        0,    // no request traffic; interrupts are the signal here
        true, // irq chatter
        true, // kernel module exposes irq_stat to user-space schemes
        33,
    );
    w.cluster.run_for(SimDuration::from_secs(10));
    let rec = w.cluster.recorder();
    let node = w.backend;

    // The paper's wording: user-space schemes "report less and
    // infrequent interrupts". The *frequency* of nonzero sightings is the
    // systematic discriminator (user-space samplers run after their own
    // CPU drained its backlog); single-run means are noisy.
    let sighting_rate = |scheme: Scheme| {
        let series = rec
            .get_series(&format!("mon/{}/{node}/pending_irqs", scheme.label()))
            .expect("series recorded");
        series.values().filter(|&v| v > 0.0).count() as f64 / series.len().max(1) as f64
    };
    let rdma_rate = sighting_rate(Scheme::RdmaSync);
    for scheme in [Scheme::SocketAsync, Scheme::SocketSync, Scheme::RdmaAsync] {
        let rate = sighting_rate(scheme);
        assert!(
            rdma_rate > rate,
            "{scheme} sighting rate {rate:.4}, RDMA-Sync {rdma_rate:.4}"
        );
    }
    assert!(rdma_rate > 0.02, "RDMA-Sync sighting rate {rdma_rate}");
    // Means stay within the same order of magnitude of the best user-space
    // scheme (loose: extreme-value noise).
    let rdma_mean =
        mean_reported(rec, Scheme::RdmaSync, node, AccuracyMetric::PendingIrqs).expect("series");
    let user_best = [Scheme::SocketAsync, Scheme::SocketSync, Scheme::RdmaAsync]
        .iter()
        .map(|&s| mean_reported(rec, s, node, AccuracyMetric::PendingIrqs).expect("series"))
        .fold(0.0f64, f64::max);
    assert!(
        rdma_mean > user_best * 0.5,
        "RDMA-Sync mean {rdma_mean} vs best user-space {user_best}"
    );

    // Per-CPU detail: the second CPU services more interrupts (IRQ
    // affinity bias), visible through RDMA-Sync.
    let cpu0 = rec
        .get_series(&format!("mon/RDMA-Sync/{node}/pending_irqs_cpu0"))
        .expect("cpu0 series")
        .mean();
    let cpu1 = rec
        .get_series(&format!("mon/RDMA-Sync/{node}/pending_irqs_cpu1"))
        .expect("cpu1 series")
        .mean();
    assert!(
        cpu1 > cpu0,
        "second CPU should see more interrupts: cpu0 {cpu0} cpu1 {cpu1}"
    );
}

#[test]
fn fig8_shape_fine_gmetric_over_sockets_disturbs_rubis() {
    // A loaded cluster near the saturation tip: stealing back-end CPU for
    // fine-grained socket monitoring visibly inflates RUBiS response
    // times; the one-sided schemes leave the application untouched.
    let base = RubisWorldCfg {
        scheme: Scheme::ERdmaSync,
        backends: 4,
        rubis_sessions: 208,
        think_mean: SimDuration::from_millis(100),
        ..Default::default()
    };
    let mean_resp = |gmetric_scheme: Scheme, g_ms: u64| {
        let mut w = ganglia_world(&base, gmetric_scheme, SimDuration::from_millis(g_ms));
        w.rubis.cluster.run_for(SimDuration::from_secs(12));
        let rec = w.rubis.cluster.recorder();
        let mut pooled = fgmon_sim::Histogram::new();
        for class in fgmon_types::QueryClass::ALL {
            if let Some(h) = rec.get_histogram(&format!("rubis/resp/{}", class.label())) {
                pooled.merge(h);
            }
        }
        assert!(pooled.count() > 1_000);
        pooled.mean() / 1e6
    };

    let sock_fine = mean_resp(Scheme::SocketSync, 1);
    let rdma_fine = mean_resp(Scheme::RdmaSync, 1);
    assert!(
        sock_fine > rdma_fine * 1.2,
        "1ms gmetric: socket {sock_fine}ms vs rdma {rdma_fine}ms mean response"
    );

    // At coarse gmetric granularity the socket scheme is harmless too.
    let sock_coarse = mean_resp(Scheme::SocketSync, 1024);
    assert!(
        sock_fine > sock_coarse * 1.2,
        "socket fine {sock_fine}ms vs coarse {sock_coarse}ms"
    );

    // RDMA capture at 1 ms costs the application nothing relative to its
    // own coarse setting.
    let rdma_coarse = mean_resp(Scheme::RdmaSync, 1024);
    assert!(
        rdma_fine < rdma_coarse * 1.15,
        "rdma fine {rdma_fine}ms vs coarse {rdma_coarse}ms"
    );
}

#[test]
fn fig8_publisher_feeds_ganglia() {
    let base = RubisWorldCfg {
        scheme: Scheme::ERdmaSync,
        backends: 2,
        rubis_sessions: 8,
        ..Default::default()
    };
    let mut w = ganglia_world(&base, Scheme::RdmaSync, SimDuration::from_millis(64));
    w.rubis.cluster.run_for(SimDuration::from_secs(5));
    let frontend = w.rubis.frontend;
    let publisher: &GmetricPublisher = w.rubis.cluster.service(frontend, w.publisher_slot);
    // Captures run at 64 ms; publishes enter the Ganglia channel at 1 Hz.
    assert!(
        publisher.published >= 8,
        "published {}",
        publisher.published
    );
    assert!(
        publisher.client.views()[0].replies > 50,
        "captures {}",
        publisher.client.views()[0].replies
    );
    // gmonds heard both their own heartbeats and the gmetric stream.
    let be = w.rubis.backends[0];
    let gmond: &fgmon_ganglia::Gmond = w.rubis.cluster.service(be, fgmon_types::ServiceSlot(3));
    assert!(gmond.samples_heard > 10, "heard {}", gmond.samples_heard);
}

#[test]
fn fig9_shape_fine_grained_rdma_beats_coarse_and_fine_sockets() {
    let throughput = |scheme: Scheme, g_ms: u64| {
        let cfg = RubisWorldCfg {
            scheme,
            backends: 8,
            rubis_sessions: 192,
            think_mean: SimDuration::from_millis(30),
            zipf: Some((0.5, 96)),
            granularity: SimDuration::from_millis(g_ms),
            seed: 5,
            ..Default::default()
        };
        let mut w = rubis_world(&cfg);
        w.cluster.run_for(SimDuration::from_secs(12));
        let rubis: &RubisClient = w.cluster.service(w.client_node, w.rubis_client_slot);
        let zipf: &fgmon_workload::ZipfClient = w
            .cluster
            .service(w.client_node, w.zipf_client_slot.expect("zipf"));
        rubis.completed + zipf.completed
    };

    // Fine-grained RDMA-Sync strongly beats coarse-grained RDMA-Sync (the
    // paper's ~25% improvement band).
    let rdma_fine = throughput(Scheme::RdmaSync, 64);
    let rdma_coarse = throughput(Scheme::RdmaSync, 4096);
    assert!(
        rdma_fine as f64 > rdma_coarse as f64 * 1.2,
        "fine {rdma_fine} vs coarse {rdma_coarse}"
    );

    // At 64 ms, RDMA-Sync admits more requests than Socket-Async (our
    // margin is smaller than the paper's 25% — see EXPERIMENTS.md).
    let sock_fine = throughput(Scheme::SocketAsync, 64);
    assert!(
        rdma_fine as f64 > sock_fine as f64 * 1.02,
        "rdma {rdma_fine} vs socket {sock_fine}"
    );
}

#[test]
fn ganglia_world_honors_its_whole_base_config() {
    // The Ganglia testbed is the RUBiS world plus gmetric and gmond: a
    // Zipf service, a crash plan, and per-back-end write-push regions in
    // the base config must all reach the cluster it builds.
    let ms = |m: u64| SimTime(m * 1_000_000);
    let base = RubisWorldCfg {
        scheme: Scheme::RdmaWritePush,
        backends: 3,
        zipf: Some((0.5, 8)),
        faults: FaultPlan::new(7).crash(NodeId(2), ms(200), ms(400)),
        ..Default::default()
    };
    let mut w = ganglia_world(&base, Scheme::RdmaSync, SimDuration::from_millis(16));
    w.rubis.cluster.run_for(SimDuration::from_secs(1));
    let rubis = &w.rubis;
    assert_eq!(rubis.zipf_client_slot, Some(ServiceSlot(1)));
    assert!(rubis.cluster.fabric_stats().fault_checks > 0);
    let disp: &Dispatcher = rubis.cluster.service(rubis.frontend, rubis.dispatcher_slot);
    // Each back-end pushes into its own front-end buffer, so the
    // dispatcher hears from all three.
    let views: Vec<(u64, bool)> = disp
        .monitor
        .views()
        .iter()
        .map(|v| (v.replies, v.latest.is_some()))
        .collect();
    assert!(
        views.iter().all(|&(replies, seen)| replies > 0 && seen),
        "per-back-end (replies, has record): {views:?}"
    );
}
