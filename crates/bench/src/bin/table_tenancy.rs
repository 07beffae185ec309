//! Tenancy table: monitoring accuracy and freshness versus hostile
//! co-tenant load, with and without tenant QoS. Regenerates the
//! accuracy-vs-hostile-load table in EXPERIMENTS.md.

use fgmon_bench::HarnessOpts;
use fgmon_cluster::{noisy_neighbor, sweep_parallel, Table, NOISY_RATE_LIMIT};
use fgmon_core::{mean_deviation, scheme_quality, AccuracyMetric};
use fgmon_sim::SimDuration;
use fgmon_types::{QosPolicy, RaceMode, Scheme};

fn main() {
    let opts = HarnessOpts::parse(5);
    let configs: Vec<(&str, QosPolicy, bool)> = if opts.quick {
        vec![
            ("quiet", QosPolicy::None, false),
            ("hostile", QosPolicy::None, true),
        ]
    } else {
        vec![
            ("quiet", QosPolicy::None, false),
            ("hostile", QosPolicy::None, true),
            ("rate-limit", NOISY_RATE_LIMIT, true),
            ("priority-qp", QosPolicy::PriorityQp, true),
        ]
    };

    let results = sweep_parallel(configs, |&(label, qos, hostile)| {
        let mut w = noisy_neighbor(qos, hostile, opts.seed);
        w.cluster.set_race_mode(RaceMode::Off);
        w.cluster.run_for(SimDuration::from_secs(opts.seconds));
        let rec = w.cluster.recorder();
        let sdev = mean_deviation(rec, Scheme::SocketSync, w.backend, AccuracyMetric::CpuUtil)
            .unwrap_or(f64::NAN);
        let rdev = mean_deviation(rec, Scheme::RdmaSync, w.backend, AccuracyMetric::CpuUtil)
            .unwrap_or(f64::NAN);
        let sstale = scheme_quality(rec, Scheme::SocketSync)
            .map(|q| q.staleness_mean_ms)
            .unwrap_or(f64::NAN);
        let rstale = scheme_quality(rec, Scheme::RdmaSync)
            .map(|q| q.staleness_mean_ms)
            .unwrap_or(f64::NAN);
        let t = w.cluster.fabric_stats().tenants;
        let thrashed: u64 = t.iter().map(|x| x.thrashed).sum();
        let shed: u64 = t.iter().map(|x| x.contention_dropped).sum();
        let limited: u64 = t.iter().map(|x| x.rate_limited).sum();
        (label, sdev, rdev, sstale, rstale, thrashed, shed, limited)
    });

    let mut table = Table::new(vec![
        "config",
        "socket CPU dev",
        "rdma CPU dev",
        "socket stale (ms)",
        "rdma stale (ms)",
        "thrashed",
        "shed",
        "rate-limited",
    ]);
    for (label, sdev, rdev, sstale, rstale, thrashed, shed, limited) in results {
        table.row(vec![
            label.to_string(),
            format!("{sdev:.5}"),
            format!("{rdev:.5}"),
            format!("{sstale:.3}"),
            format!("{rstale:.3}"),
            thrashed.to_string(),
            shed.to_string(),
            limited.to_string(),
        ]);
    }
    if opts.csv {
        print!("{}", table.to_csv());
    } else {
        println!("Monitoring accuracy/freshness vs hostile co-tenant load");
        println!(
            "(noisy-neighbor world, seed {}, {} s)",
            opts.seed, opts.seconds
        );
        println!();
        print!("{}", table.render());
    }
}
