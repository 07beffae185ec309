//! `fgbench` — the simulator's end-to-end benchmark and outside-in layer
//! profile. See `README.md` beside this package for the workloads, the
//! metrics and the layer-to-metric map.
//!
//! ```text
//! fgbench --workload <rubis_rdma|big_cluster_2t|chaos_sweep|noisy_tenant>
//!         --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--tiny` shrinks
//! every workload for the smoke test.

mod alloc;
mod measure;
mod trace;

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use fgmon_chaos::{run_schedule, search, PlannerConfig, RunConfig, SchedulePlanner, SearchConfig};
use fgmon_cluster::{
    big_cluster, chaos_world, noisy_rubis, pooled_responses, rubis_world, Cluster, RubisWorldCfg,
    NOISY_RATE_LIMIT,
};
use fgmon_sim::SimDuration;
use fgmon_types::Scheme;

use measure::{
    fingerprint, median, quantile, run_world, setup_samples, tail, Digest, Drive, Model, Observed,
    Run,
};
use trace::{Profile, Scope, NET_KINDS, NODE_KINDS, SERVICES};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Environment variables that would silently change a workload
/// (`rubis_world` and `noisy_rubis` inherit `RaceMode::from_env()`) or
/// the allocator behaviour of the process.
const FORBIDDEN_ENV: [&str; 2] = ["FGMON_RACE_CHECK", "PERFBENCH_TRACE_ALLOCS"];

/// Threads of the sharded workloads.
const THREADS: usize = 2;
/// Batches of world builds timed for `setup_s`.
const SETUP_SAMPLES: usize = 25;
/// Schedules whose set-up `chaos_sweep` times.
const SETUP_SCHEDULES: u64 = 64;
/// Timed runs a workload makes at least, however long they take.
const MIN_RUNS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    RubisRdma,
    BigCluster2t,
    ChaosSweep,
    NoisyTenant,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("rubis_rdma", Workload::RubisRdma),
    ("big_cluster_2t", Workload::BigCluster2t),
    ("chaos_sweep", Workload::ChaosSweep),
    ("noisy_tenant", Workload::NoisyTenant),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| n == name)
                        .ok_or(format!("unknown workload {name}"))?
                        .1,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one benchmark run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

/// Host seconds per timed run, repeated until the time budget is spent.
struct Budget {
    start: Instant,
    seconds: f64,
    runs: usize,
}

impl Budget {
    fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            runs: 0,
        }
    }

    /// Whether to make another timed run.
    fn another(&mut self) -> bool {
        let go = self.runs < MIN_RUNS || self.start.elapsed().as_secs_f64() < self.seconds;
        self.runs += usize::from(go);
        go
    }
}

/// Per-layer inputs common to every workload.
#[derive(Default)]
struct Layers {
    /// Summed profile of the traced runs and how many there were (a chaos
    /// "run" is one schedule).
    profile: Profile,
    traced_runs: u64,
    self_ns_per_event: f64,
    steady_per_mevent: f64,
    busy_share: f64,
    segment_ms: f64,
    model: Model,
    overhead: f64,
    /// Worlds the model counters were summed over (a chaos sweep runs one
    /// per schedule); counters are reported per world.
    worlds: u64,
    seq_leg_ms: f64,
    sharded_leg_ms: f64,
    invariant_checks: f64,
}

fn per_event(t: &trace::Tally) -> f64 {
    if t.events == 0 {
        0.0
    } else {
        t.ns as f64 / t.events as f64
    }
}

fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let runs = l.traced_runs.max(1) as f64;
    let mut out = vec![
        metric("sim.engine.self_ns_per_event", l.self_ns_per_event, "ns"),
        metric("sim.alloc.steady_per_mevent", l.steady_per_mevent, "count"),
        metric("sim.executor.busy_share", l.busy_share, "ratio"),
        metric("sim.executor.segment_ms", l.segment_ms, "ms"),
    ];
    let kinds = NET_KINDS
        .iter()
        .zip(&l.profile.net)
        .map(|(k, t)| ("net", k, t));
    let kinds = kinds.chain(
        NODE_KINDS
            .iter()
            .zip(&l.profile.node)
            .map(|(k, t)| ("os", k, t)),
    );
    let kinds = kinds.chain(
        SERVICES
            .iter()
            .zip(&l.profile.svc)
            .map(|(k, t)| ("svc", k, t)),
    );
    for (layer, kind, t) in kinds {
        out.push(metric(
            format!("{layer}.{kind}.events"),
            t.events as f64 / runs,
            "count",
        ));
        out.push(metric(
            format!("{layer}.{kind}.ns_per_event"),
            per_event(t),
            "ns",
        ));
    }
    let f = &l.model.fabric;
    let per_world = |n: u64| n as f64 / l.worlds.max(1) as f64;
    let posted: u64 = f.tenants.iter().map(|t| t.posted).sum();
    let limited: u64 = f.tenants.iter().map(|t| t.rate_limited).sum();
    let thrashed: u64 = f.tenants.iter().map(|t| t.thrashed).sum();
    let admit = if posted == 0 {
        0.0
    } else {
        (posted - limited) as f64 / posted as f64
    };
    out.extend([
        metric("net.fault.checks", per_world(f.fault_checks), "count"),
        metric("net.fault.dropped", per_world(f.fault_dropped), "count"),
        metric("net.tenancy.posted", per_world(posted), "count"),
        metric("net.tenancy.admit_ratio", admit, "ratio"),
        metric("net.tenancy.thrashed", per_world(thrashed), "count"),
        metric(
            "net.rdma.batch_posts",
            per_world(f.rdma_batch_posts),
            "count",
        ),
        metric(
            "os.rdma_pending_max",
            l.model.rdma_pending_max as f64,
            "count",
        ),
        metric("core.mon.polls", per_world(l.model.polls), "count"),
        metric("core.mon.timed_out", per_world(l.model.timed_out), "count"),
        metric("balancer.lb.rejected", per_world(l.model.rejected), "count"),
        metric("chaos.seq_leg_ms", l.seq_leg_ms, "ms"),
        metric("chaos.sharded_leg_ms", l.sharded_leg_ms, "ms"),
        metric("chaos.invariant_checks", l.invariant_checks, "count"),
        metric("trace.overhead", l.overhead, "ratio"),
    ]);
    out
}

/// Model-fidelity metrics of the observed worlds: virtual-time readings
/// that depend only on the seed, so a pure speed change leaves them
/// bit-identical. Notes name the tail percentiles and their sample counts.
fn model_metrics(o: &Observed, virtual_s: f64, notes: &mut Vec<String>) -> Vec<Metric> {
    let (resp_pct, resp_tail) = tail(&o.resp);
    let (stale_pct, stale_tail) = tail(&o.staleness);
    notes.push(format!(
        "model.client_resp_tail_ms is p{resp_pct} of {} responses over {virtual_s} virtual \
         seconds; model.mon_staleness_tail_us is p{stale_pct} of {} samples",
        o.resp.count(),
        o.staleness.count()
    ));
    vec![
        metric(
            "model.client_resp_p50_ms",
            quantile(&o.resp, 0.5) / 1e6,
            "ms",
        ),
        metric("model.client_resp_tail_ms", resp_tail / 1e6, "ms"),
        metric("model.client_rps", o.resp.count() as f64 / virtual_s, "1/s"),
        metric("model.mon_staleness_tail_us", stale_tail / 1e3, "us"),
    ]
}

/// With `--trace 0` the model metrics are printed as notes, with
/// `--trace 1` they join the per-layer metrics.
fn add_model_metrics(trace: bool, model: Vec<Metric>, r: &mut Report) {
    if trace {
        r.metrics.extend(model);
    } else {
        r.notes.extend(
            model
                .iter()
                .map(|m| format!("{} {} {}", m.name, m.value, m.unit)),
        );
    }
}

// ---------------------------------------------------------------------------
// Cluster workloads: one world, driven for a fixed virtual length per run
// ---------------------------------------------------------------------------

struct ClusterBench {
    build: Box<dyn Fn() -> Cluster>,
    drive: Drive,
    describe: String,
}

fn rubis_rdma(seed: u64, length: SimDuration) -> ClusterBench {
    let cfg = RubisWorldCfg {
        scheme: Scheme::RdmaSync,
        backends: 8,
        rubis_sessions: 288,
        think_mean: SimDuration::from_millis(100),
        granularity: SimDuration::from_millis(5),
        seed,
        ..Default::default()
    };
    ClusterBench {
        build: Box::new(move || rubis_world(&cfg).cluster),
        drive: Drive {
            length,
            segment: SimDuration(length.0 / 2),
            threads: 1,
        },
        describe: "rubis_world: 8 back-ends, 288 sessions, 100 ms think, RDMA-Sync at 5 ms, \
                   pristine fabric, sequential"
            .into(),
    }
}

fn big_cluster_2t(seed: u64, tiny: bool, length: SimDuration) -> ClusterBench {
    let backends = if tiny { 16 } else { 256 };
    ClusterBench {
        build: Box::new(move || big_cluster(backends, seed).cluster),
        drive: Drive {
            length,
            segment: SimDuration::from_millis(if tiny { 100 } else { 1_000 }),
            threads: THREADS,
        },
        describe: format!("big_cluster({backends}) through run_parallel at {THREADS} threads"),
    }
}

fn noisy_tenant(seed: u64, tiny: bool, length: SimDuration) -> ClusterBench {
    ClusterBench {
        build: Box::new(move || {
            noisy_rubis(Scheme::RdmaSync, NOISY_RATE_LIMIT, true, seed).cluster
        }),
        drive: Drive {
            length,
            // One-second segments show the per-second slowdown.
            segment: SimDuration::from_millis(if tiny { 500 } else { 1_000 }),
            threads: 1,
        },
        describe: "noisy_rubis(RDMA-Sync, NOISY_RATE_LIMIT, hostile tenant on), sequential".into(),
    }
}

/// Summary of one timed run, kept after its world is dropped.
struct Sample {
    wall_s: f64,
    events: u64,
    steady_per_mevent: f64,
    peak_bytes: usize,
}

impl Sample {
    fn of(r: &Run) -> Sample {
        Sample {
            wall_s: r.wall_s,
            events: r.events,
            steady_per_mevent: r.steady_per_mevent(),
            peak_bytes: r.peak_bytes,
        }
    }
}

fn bench_cluster(b: &ClusterBench, args: &Args) -> Report {
    let mut notes = vec![format!("workload: {}", b.describe)];
    let build = || (b.build)();
    // The reference run: untimed and sequential. It warms caches and the
    // allocator, fixes the fingerprint every timed run must reproduce
    // (for a sharded workload this is the sequential-equivalence check),
    // and yields the deterministic virtual metrics and model counters.
    let seq = Drive {
        threads: 1,
        ..b.drive
    };
    let reference = run_world(build, seq, None);
    notes.push(format!(
        "reference run: {} virtual s in {} s segments, events/s per segment {:?}",
        b.drive.length.as_secs_f64(),
        b.drive.segment.as_secs_f64(),
        reference
            .segment_rates
            .iter()
            .map(|r| r.round())
            .collect::<Vec<_>>()
    ));
    let expected = fingerprint(&reference.cluster);
    let model = Model::read(&reference.cluster);
    let observed = Observed::rubis(&reference.cluster);
    let pooled = pooled_responses(&reference.cluster, "rubis").map_or(0, |r| r.count);
    let mut correct = pooled == observed.resp.count() && observed.staleness.count() > 0;
    let virtual_s = b.drive.length.as_secs_f64();
    let reference_eps = reference.events_per_s();
    drop(reference);

    let setup = setup_samples(build, SETUP_SAMPLES);

    let scope = if b.drive.threads > 1 {
        Scope::NodesOnly
    } else {
        Scope::AllActors
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut profile = Profile::default();
    let mut mismatches = 0;
    let mut budget = Budget::new(args.seconds);
    while budget.another() {
        let r = run_world(build, b.drive, None);
        mismatches += usize::from(fingerprint(&r.cluster) != expected);
        untraced.push(Sample::of(&r));
        if args.trace {
            let r = run_world(build, b.drive, Some(scope));
            mismatches += usize::from(fingerprint(&r.cluster) != expected);
            profile.absorb(r.profile.as_ref().expect("traced run"));
            traced.push(Sample::of(&r));
        }
    }
    correct &= mismatches == 0;
    notes.push(format!(
        "check: {} runs ({} traced) reproduce fingerprint {expected:#018x} of the sequential \
         reference run; {mismatches} mismatches",
        untraced.len() + traced.len(),
        traced.len()
    ));

    let eps = |v: &[Sample]| {
        median(
            &v.iter()
                .map(|s| s.events as f64 / s.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    if b.drive.threads > 1 {
        notes.push(format!(
            "executor: {} threads run at {:.2}x the events/s of the sequential reference run",
            b.drive.threads,
            eps(&untraced) / reference_eps
        ));
    }

    let runs = (untraced.len() + traced.len()) as u64;
    let ops = model.requests + model.polls;
    let attempted = runs * ops;
    let failed = if correct {
        runs * model.failures()
    } else {
        attempted
    };

    let metrics = if args.trace {
        let threads = b.drive.threads as f64;
        let wall_ns: f64 = traced.iter().map(|s| s.wall_s * 1e9).sum();
        let events: u64 = traced.iter().map(|s| s.events).sum();
        let handle_ns = profile.handle_ns() as f64;
        notes.push(format!(
            "accounting: wrapped handle {:.3} s + engine self time = {:.3} thread-seconds over \
             {events} events ({} wrapped)",
            handle_ns / 1e9,
            wall_ns * threads / 1e9,
            profile.handled()
        ));
        layer_metrics(&Layers {
            traced_runs: traced.len() as u64,
            self_ns_per_event: (wall_ns * threads - handle_ns) / events as f64,
            steady_per_mevent: median(
                &untraced
                    .iter()
                    .map(|s| s.steady_per_mevent)
                    .collect::<Vec<_>>(),
            ),
            busy_share: handle_ns / (wall_ns * threads),
            segment_ms: median(
                &untraced
                    .iter()
                    .map(|s| s.wall_s * 1e3 / b.drive.segments() as f64)
                    .collect::<Vec<_>>(),
            ),
            model,
            overhead: eps(&untraced) / eps(&traced),
            profile,
            ..Layers::default()
        })
    } else {
        let per_run =
            |f: &dyn Fn(&Sample) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
        vec![
            metric("sim_speed", per_run(&|s| virtual_s / s.wall_s), "s/s"),
            metric("events_per_s", eps(&untraced), "1/s"),
            metric("schedules_per_s", per_run(&|s| 1.0 / s.wall_s), "1/s"),
            metric("setup_s", median(&setup), "s"),
            metric(
                "peak_heap_mb",
                per_run(&|s| s.peak_bytes as f64 / 1e6),
                "MB",
            ),
        ]
    };
    let fidelity = model_metrics(&observed, virtual_s, &mut notes);
    let mut report = Report {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    };
    add_model_metrics(args.trace, fidelity, &mut report);
    report
}

// ---------------------------------------------------------------------------
// chaos_sweep: fgmon_chaos::search over a fixed number of schedules
// ---------------------------------------------------------------------------

fn bench_chaos(args: &Args) -> Report {
    let n = if args.tiny { 2 } else { 16 };
    let run_cfg = RunConfig::default();
    let seq = Drive {
        length: run_cfg.horizon,
        segment: run_cfg.segment,
        threads: 1,
    };
    let sharded = Drive {
        threads: THREADS,
        ..seq
    };
    let mut notes = vec![format!(
        "workload: fgmon_chaos::search over {n} schedules (default grammar, {} horizon, {} \
         segments, sequential plus {THREADS}-shard cross-check)",
        run_cfg.horizon, run_cfg.segment
    )];
    // Schedule i is the first schedule of a planner seeded from (seed, i),
    // so each one is also what a one-schedule `search` with that seed runs.
    let seeds: Vec<u64> = (0..n as u64).map(|i| schedule_seed(args.seed, i)).collect();
    let schedules: Vec<_> = seeds
        .iter()
        .map(|&s| SchedulePlanner::new(s, PlannerConfig::default()).next_schedule())
        .collect();
    let build = |i: usize| {
        let s = &schedules[i];
        move || chaos_world(s.compile(), s.seed, run_cfg.race).cluster
    };

    // Reference pass, untimed: every schedule's sequential verdict, and a
    // probe-free replica of its sequential leg for the world's recorder
    // and its peak heap. The sweep's own peak is the largest schedule's,
    // which swings with the seed's fault mix; the median schedule's does
    // not.
    let mut verdicts = Vec::new();
    let mut peaks = Vec::new();
    let mut replica_fps = Vec::new();
    let mut observed = Observed::default();
    let mut model = Model::default();
    let mut digest = Digest::default();
    let mut correct = true;
    for (i, s) in schedules.iter().enumerate() {
        let v = run_schedule(s, 1, &run_cfg);
        let r = run_world(build(i), seq, None);
        correct &= r.events == v.events && r.cluster.fabric_stats().fault_checks == v.fault_checks;
        observed.absorb(&Observed::socket_polls(&r.cluster));
        model.absorb(&Model::read(&r.cluster));
        let fp = fingerprint(&r.cluster);
        for x in [
            v.events,
            v.checks,
            v.fault_checks,
            v.violations.len() as u64,
            fp,
        ] {
            digest.u64(x);
        }
        replica_fps.push(fp);
        peaks.push(r.peak_bytes as f64 / 1e6);
        verdicts.push(v);
    }
    let checks: u64 = verdicts.iter().map(|v| v.checks).sum();
    let events: u64 = verdicts.iter().map(|v| v.events).sum();
    let violations: usize = verdicts.iter().map(|v| v.violations.len()).sum();
    correct &= violations == 0 && observed.resp.count() > 0 && observed.staleness.count() > 0;

    // Set-up, per schedule: constructing its planner, sampling and
    // compiling the schedule, and building its world — everything before
    // the schedule's first event. Averaged over more schedules than the
    // sweep runs, so one seed's fault mix does not decide it.
    let setup_seeds: Vec<u64> = (0..SETUP_SCHEDULES)
        .map(|i| schedule_seed(args.seed, i))
        .collect();
    let setup: Vec<f64> = setup_samples(
        || {
            setup_seeds
                .iter()
                .map(|&seed| {
                    let mut p = SchedulePlanner::new(black_box(seed), PlannerConfig::default());
                    let s = p.next_schedule();
                    chaos_world(s.compile(), s.seed, run_cfg.race)
                })
                .collect::<Vec<_>>()
        },
        SETUP_SAMPLES,
    )
    .into_iter()
    .map(|s| s / SETUP_SCHEDULES as f64)
    .collect();

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let metrics = if args.trace {
        let mut layers = Layers::default();
        let (mut seq_ms, mut shard_ms, mut seg_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut eps_plain, mut eps_traced, mut steady) = (Vec::new(), Vec::new(), Vec::new());
        let (mut busy_ns, mut busy_wall_ns, mut self_ns) = (0.0, 0.0, 0.0);
        let mut traced_events = 0u64;
        let mut budget = Budget::new(args.seconds);
        let mut i = 0;
        while budget.another() {
            let s = &schedules[i];
            let t = Instant::now();
            let v1 = run_schedule(s, 1, &run_cfg);
            seq_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let v2 = run_schedule(s, THREADS, &run_cfg);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            shard_ms.push(ms);
            seg_ms.push(ms / seq.segments() as f64);
            let ok = v1 == v2 && v1 == verdicts[i];
            layers.invariant_checks += v1.checks as f64;

            let plain = run_world(build(i), seq, None);
            let full = run_world(build(i), seq, Some(Scope::AllActors));
            let nodes = run_world(build(i), sharded, Some(Scope::NodesOnly));
            let same = [&plain, &full, &nodes]
                .iter()
                .all(|r| fingerprint(&r.cluster) == replica_fps[i]);
            eps_plain.push(plain.events_per_s());
            eps_traced.push(full.events_per_s());
            steady.push(plain.steady_per_mevent());
            let p = full.profile.as_ref().expect("traced run");
            self_ns += full.wall_s * 1e9 - p.handle_ns() as f64;
            traced_events += full.events;
            layers.profile.absorb(p);
            busy_ns += nodes.profile.as_ref().expect("traced run").handle_ns() as f64;
            busy_wall_ns += nodes.wall_s * 1e9 * THREADS as f64;

            attempted += 1;
            failed += u64::from(!(ok && same));
            correct &= ok && same;
            i = (i + 1) % n;
        }
        layers.traced_runs = attempted;
        layers.invariant_checks /= attempted as f64;
        layers.self_ns_per_event = self_ns / traced_events as f64;
        layers.steady_per_mevent = median(&steady);
        layers.busy_share = busy_ns / busy_wall_ns;
        layers.segment_ms = median(&seg_ms);
        layers.overhead = median(&eps_plain) / median(&eps_traced);
        layers.seq_leg_ms = median(&seq_ms);
        layers.sharded_leg_ms = median(&shard_ms);
        notes.push(format!(
            "legs: the {THREADS}-shard cross-check takes {:.1}% of a schedule's two legs",
            100.0 * layers.sharded_leg_ms / (layers.seq_leg_ms + layers.sharded_leg_ms)
        ));
        layers.model = model;
        layers.worlds = n as u64;
        notes.push(format!(
            "accounting: wrapped handle {:.3} s + engine self time = {:.3} s over {traced_events} \
             sequential events ({} wrapped)",
            layers.profile.handle_ns() as f64 / 1e9,
            (self_ns + layers.profile.handle_ns() as f64) / 1e9,
            layers.profile.handled()
        ));
        notes.push(format!(
            "check: {attempted} schedules re-run sequentially and {THREADS}-sharded, traced and \
             untraced, all match the reference verdicts and replica fingerprints: {correct}"
        ));
        layer_metrics(&layers)
    } else {
        // Passes over the sweep, one `search` per schedule, so every
        // schedule is timed on its own.
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut budget = Budget::new(args.seconds);
        while budget.another() {
            for (i, &seed) in seeds.iter().enumerate() {
                let cfg = SearchConfig {
                    schedules: 1,
                    seed,
                    run: run_cfg,
                    ..SearchConfig::default()
                };
                let t = Instant::now();
                let out = search(black_box(&cfg));
                times[i].push(t.elapsed().as_secs_f64());
                let ok = out.schedules_run == 1
                    && out.divergences.is_empty()
                    && out.failures.is_empty()
                    && out.total_checks == verdicts[i].checks;
                attempted += 1;
                failed += u64::from(!ok);
                correct &= ok;
            }
        }
        // The sweep's time is the sum of each schedule's lower-quartile
        // pass. The sharded leg hands off between two spinning threads
        // thousands of times per schedule, so a descheduled vCPU can
        // stretch a pass by half, and a lucky vCPU placement can halve one;
        // the lower quartile sheds both.
        let passes = times[0].len();
        let sweep_s: f64 = times
            .iter_mut()
            .map(|t| {
                t.sort_by(f64::total_cmp);
                t[(t.len() - 1) / 4]
            })
            .sum();
        notes.push(format!(
            "check: {passes} passes of {n} one-schedule searches, no divergence or violation, \
             {checks} invariant checks per pass, sweep digest {:#018x}: {correct}",
            digest.value()
        ));
        // Both legs of every schedule are simulated.
        let virtual_s = 2.0 * n as f64 * seq.length.as_secs_f64();
        let rate = |x: f64| x / sweep_s;
        vec![
            metric("sim_speed", rate(virtual_s), "s/s"),
            metric("events_per_s", rate(2.0 * events as f64), "1/s"),
            metric("schedules_per_s", rate(n as f64), "1/s"),
            metric("setup_s", median(&setup), "s"),
            metric("peak_heap_mb", median(&peaks), "MB"),
        ]
    };
    let fidelity = model_metrics(&observed, n as f64 * seq.length.as_secs_f64(), &mut notes);
    let mut report = Report {
        correct,
        attempted,
        failed: if correct { failed } else { attempted.max(1) },
        metrics,
        notes,
    };
    add_model_metrics(args.trace, fidelity, &mut report);
    report
}

/// Planner seed of schedule `i` of a sweep.
fn schedule_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn result_json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "{} is not a finite number", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("fgbench: refusing to run with {var} set: it changes the measured workload");
        std::process::exit(2);
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "threads: host_cpus {cpus}; sharded workloads use {THREADS} threads{}",
        if cpus >= THREADS {
            " on real cores"
        } else {
            ", interleaved on one core (coordination cost only, no speed-up)"
        }
    );
    // Virtual length of a single-world workload, full or tiny, in ms.
    let length =
        |full: u64, tiny: u64| SimDuration::from_millis(if args.tiny { tiny } else { full });
    let (seed, tiny) = (args.seed, args.tiny);
    let report = match args.workload {
        Workload::RubisRdma => bench_cluster(&rubis_rdma(seed, length(60_000, 1_000)), &args),
        Workload::BigCluster2t => {
            bench_cluster(&big_cluster_2t(seed, tiny, length(4_000, 200)), &args)
        }
        Workload::NoisyTenant => {
            bench_cluster(&noisy_tenant(seed, tiny, length(2_000, 1_000)), &args)
        }
        Workload::ChaosSweep => bench_chaos(&args),
    };
    for n in &report.notes {
        println!("{n}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
}
