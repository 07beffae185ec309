//! Noisy neighbor: a hostile co-tenant floods the shared NIC and the
//! monitoring pipeline pays for it — the socket scheme with its
//! accuracy, the one-sided RDMA scheme with its freshness. Tenant QoS
//! restores them: a per-tenant token-bucket rate limit starves the flood
//! at its source, a prioritized monitoring QP class shields only the
//! infrastructure tenant's completions.
//!
//! ```text
//! cargo run --release --example noisy_neighbor
//! ```

use fgmon_cluster::{noisy_neighbor, NoisyWorld, NOISY_RATE_LIMIT};
use fgmon_core::{mean_deviation, scheme_quality, AccuracyMetric};
use fgmon_sim::SimDuration;
use fgmon_types::{QosPolicy, RaceMode, Scheme};

struct Row {
    sdev: f64,
    rdev: f64,
    sstale: f64,
    rstale: f64,
    thrashed: u64,
    limited: u64,
}

fn run(qos: QosPolicy, hostile: bool) -> Row {
    let mut w: NoisyWorld = noisy_neighbor(qos, hostile, 11);
    w.cluster.set_race_mode(RaceMode::Off);
    w.cluster.run_for(SimDuration::from_secs(2));
    let rec = w.cluster.recorder();
    let tenants = w.cluster.fabric_stats().tenants;
    Row {
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
        thrashed: tenants.iter().map(|t| t.thrashed).sum(),
        limited: tenants.iter().map(|t| t.rate_limited).sum(),
    }
}

fn main() {
    println!("Monitoring under a hostile co-tenant (seed 11, 2 s simulated)");
    println!();
    println!(
        "{:<22} {:>11} {:>11} {:>11} {:>11} {:>10} {:>10}",
        "config", "sock dev", "rdma dev", "sock stale", "rdma stale", "thrashed", "limited"
    );
    let configs: [(&str, QosPolicy, bool); 4] = [
        ("quiet", QosPolicy::None, false),
        ("hostile, no QoS", QosPolicy::None, true),
        ("hostile + rate limit", NOISY_RATE_LIMIT, true),
        ("hostile + priority QP", QosPolicy::PriorityQp, true),
    ];
    for (label, qos, hostile) in configs {
        let r = run(qos, hostile);
        println!(
            "{label:<22} {:>11.5} {:>11.5} {:>9.3}ms {:>9.3}ms {:>10} {:>10}",
            r.sdev, r.rdev, r.sstale, r.rstale, r.thrashed, r.limited
        );
    }
    println!();
    println!("The flood wrecks socket-scheme accuracy (dev ~4x quiet) and RDMA");
    println!("freshness (~3x staleness). Rate limiting restores both by cutting");
    println!("the flood at its source NIC; the priority QP class restores the");
    println!("monitoring tenant's freshness but cannot undo the CPU-timing");
    println!("distortion behind the socket scheme's accuracy loss.");
}
