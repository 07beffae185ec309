//! The chaos search driver: run sampled schedules against the chaos
//! world, evaluate the invariant registry at every segment boundary,
//! cross-check sequential vs. sharded verdicts, and shrink anything that
//! fails into a ready-to-commit reproducer.

use std::path::PathBuf;

use fgmon_cluster::{chaos_world, sweep_parallel, ChaosWorld};
use fgmon_sim::SimDuration;
use fgmon_types::RaceMode;

use crate::grammar::{PlannerConfig, Schedule, SchedulePlanner};
use crate::invariants::{InvariantProbe, Violation};
use crate::report::{reproducer_snippet, write_reproducer};
use crate::shrink::{is_one_minimal, shrink};

/// How one schedule is executed and checked.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Virtual run length. Must leave the planner's quiet tail intact.
    pub horizon: SimDuration,
    /// Invariant-check cadence: the registry runs at every segment
    /// boundary, mirroring a recorder flush.
    pub segment: SimDuration,
    /// Race-sanitizer mode for the world (Off keeps sweeps cheap; the
    /// dedicated race suites cover the sanitizer).
    pub race: RaceMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            horizon: SimDuration::from_secs(3),
            segment: SimDuration::from_millis(250),
            race: RaceMode::Off,
        }
    }
}

/// Everything observable about one schedule's run that must agree
/// between shard counts.
#[derive(Clone, Debug, PartialEq)]
pub struct RunVerdict {
    pub violations: Vec<Violation>,
    /// Individual invariant evaluations performed.
    pub checks: u64,
    /// Engine events processed. A count, not the event order: two legs
    /// can run different trajectories to the same count, so equal
    /// verdicts do not prove equal runs. A probe build that delayed every
    /// cross-shard send by 1 ns failed every `tests/parallel_equivalence.rs`
    /// test, yet the 64-schedule sweep flagged only 8 schedules.
    pub events: u64,
    /// Frames the fault plan evaluated.
    pub fault_checks: u64,
}

impl RunVerdict {
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Execute one schedule on `shards` shards (1 = the sequential engine)
/// and evaluate the invariant registry segment by segment. Every call
/// builds, runs and drops its own world on the calling thread.
pub fn run_schedule(schedule: &Schedule, shards: usize, cfg: &RunConfig) -> RunVerdict {
    let mut w = chaos_world(schedule.compile(), schedule.seed, cfg.race);
    let mut probe = InvariantProbe::new();
    let mut remaining = cfg.horizon;
    while remaining > SimDuration::ZERO {
        let step = if remaining < cfg.segment {
            remaining
        } else {
            cfg.segment
        };
        if shards <= 1 {
            w.cluster.run_for(step);
        } else {
            w.cluster.run_parallel(step, shards);
        }
        remaining = remaining - step;
        if remaining > SimDuration::ZERO {
            probe.check(&mut w);
        }
    }
    // A bounded schedule leaves the quiet tail fault-free, so the
    // availability floor applies; hand-built schedules that fault past
    // the horizon opt out automatically.
    let bounded =
        SimDuration(schedule.max_until().nanos()) + SimDuration::from_millis(400) <= cfg.horizon;
    probe.final_check(&mut w, bounded);
    record_registry_activity(&mut w, &probe);
    RunVerdict {
        violations: probe.violations,
        checks: probe.checks,
        events: w.cluster.eng.events_processed(),
        fault_checks: w.cluster.fabric_stats().fault_checks,
    }
}

/// Mirror the probe's totals into the cluster recorder so
/// `fgmon_cluster::render_report` can surface them next to the fabric's
/// fault counters.
fn record_registry_activity(w: &mut ChaosWorld, probe: &InvariantProbe) {
    let r = w.cluster.eng.recorder_mut();
    r.counter("chaos/invariant_checks").add(probe.checks);
    r.counter("chaos/invariant_violations")
        .add(probe.violations.len() as u64);
}

/// One failing schedule, shrunk and rendered.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Index of the schedule in the planner's stream.
    pub index: usize,
    pub schedule: Schedule,
    /// The ddmin-minimized reproducer (1-minimal unless the shrink
    /// budget ran out).
    pub shrunk: Schedule,
    /// Verdict of the shrunk schedule's sequential run.
    pub verdict: RunVerdict,
    /// Ready-to-commit scenario snippet for the shrunk schedule.
    pub reproducer: String,
    /// Where the snippet was written, when an output dir was configured.
    pub reproducer_path: Option<PathBuf>,
    /// Did the shrinker verify 1-minimality within budget?
    pub minimal: bool,
}

/// Search-wide configuration.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Schedules to sample and run.
    pub schedules: usize,
    /// Planner seed: the entire search is a pure function of this.
    pub seed: u64,
    pub planner: PlannerConfig,
    pub run: RunConfig,
    /// Stop after this many failures (canary hunts want 1).
    pub stop_after: Option<usize>,
    /// Wall-clock budget for the whole search; `None` = unbounded.
    /// Checked between schedules, so one schedule may overrun it.
    pub budget_ms: Option<u64>,
    /// Where to write reproducer snippets (created on demand).
    pub reproducer_dir: Option<PathBuf>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            schedules: 64,
            seed: 0xC405_5EA2,
            planner: PlannerConfig::default(),
            run: RunConfig::default(),
            stop_after: None,
            budget_ms: None,
            reproducer_dir: None,
        }
    }
}

/// Search outcome: what ran, what failed, and whether sequential and
/// sharded execution ever disagreed (they must not).
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    pub schedules_run: usize,
    /// Invariant evaluations across all sequential runs.
    pub total_checks: u64,
    pub failures: Vec<Failure>,
    /// Schedules whose sequential and 2-shard verdicts differed — a
    /// determinism bug in the executor or the harness, not a finding
    /// about the schedule.
    pub divergences: Vec<usize>,
    /// True when the wall-clock budget expired before `schedules` ran.
    pub out_of_budget: bool,
}

/// Run the chaos search: sample `cfg.schedules` schedules, execute each
/// under the sequential engine *and* on two shards, require verdict
/// equality, and shrink every sequential failure to a locally minimal
/// reproducer.
///
/// A schedule's two legs are independent worlds, so they run at the same
/// time, one per thread ([`sweep_parallel`]), and their verdicts are
/// compared once both return. A panic in either leg reaches the caller
/// with its own message.
pub fn search(cfg: &SearchConfig) -> SearchOutcome {
    let mut planner = SchedulePlanner::new(cfg.seed, cfg.planner);
    let mut out = SearchOutcome::default();
    // lint: wall-clock — the sweep budget bounds *harness* wall time
    // between runs; nothing inside the simulation ever observes it.
    let started = std::time::Instant::now();
    for index in 0..cfg.schedules {
        if let Some(budget) = cfg.budget_ms {
            if started.elapsed().as_millis() as u64 >= budget {
                out.out_of_budget = true;
                break;
            }
        }
        let schedule = planner.next_schedule();
        let legs = sweep_parallel(vec![1, 2], |&shards| {
            run_schedule(&schedule, shards, &cfg.run)
        });
        let [sequential, sharded]: [RunVerdict; 2] = legs.try_into().expect("two legs");
        out.schedules_run += 1;
        out.total_checks += sequential.checks;
        if sequential != sharded {
            out.divergences.push(index);
            continue;
        }
        if !sequential.failed() {
            continue;
        }
        let run_cfg = cfg.run;
        let mut fails = |s: &Schedule| run_schedule(s, 1, &run_cfg).failed();
        let shrunk = shrink(&schedule, &mut fails);
        let minimal = is_one_minimal(&shrunk, &mut fails);
        let verdict = run_schedule(&shrunk, 1, &cfg.run);
        let reproducer = reproducer_snippet(&shrunk, &verdict, &cfg.run);
        let reproducer_path = cfg
            .reproducer_dir
            .as_ref()
            .and_then(|dir| write_reproducer(dir, index, &reproducer).ok());
        out.failures.push(Failure {
            index,
            schedule,
            shrunk,
            verdict,
            reproducer,
            reproducer_path,
            minimal,
        });
        if let Some(stop) = cfg.stop_after {
            if out.failures.len() >= stop {
                break;
            }
        }
    }
    out
}
