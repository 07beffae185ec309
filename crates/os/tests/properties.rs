//! Property-based stress tests of the node OS scheduler: randomized
//! thread scripts must preserve the fundamental invariants no matter how
//! they interleave.

use fgmon_os::{NodeActor, OsApi, OsCore, Service};
use fgmon_sim::{Actor, Ctx, DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{Msg, NodeId, NodeMsg, OsConfig, ThreadId};
use proptest::prelude::*;

/// One randomized thread script: alternating bursts and sleeps.
#[derive(Clone, Debug)]
struct Script {
    /// (burst µs, sleep µs) pairs executed in order.
    steps: Vec<(u64, u64)>,
}

/// Service that runs one thread per script and records completions.
struct ScriptRunner {
    scripts: Vec<Script>,
    /// (thread index, step) completion log.
    completed_bursts: Vec<(usize, usize)>,
    positions: Vec<usize>,
    tids: Vec<ThreadId>,
}

impl ScriptRunner {
    fn new(scripts: Vec<Script>) -> Self {
        let n = scripts.len();
        ScriptRunner {
            scripts,
            completed_bursts: Vec::new(),
            positions: vec![0; n],
            tids: Vec::new(),
        }
    }

    fn advance(&mut self, idx: usize, os: &mut OsApi<'_, '_>) {
        let pos = self.positions[idx];
        if let Some(&(burst_us, sleep_us)) = self.scripts[idx].steps.get(pos) {
            let tid = self.tids[idx];
            os.burst(tid, SimDuration::from_micros(burst_us.max(1)), idx as u64);
            if sleep_us > 0 {
                os.sleep(
                    tid,
                    SimDuration::from_micros(sleep_us),
                    (idx as u64) | (1 << 32),
                );
            }
        }
    }
}

impl Service for ScriptRunner {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for i in 0..self.scripts.len() {
            let tid = os.spawn_thread("script");
            self.tids.push(tid);
            self.advance(i, os);
        }
    }

    fn on_burst_done(&mut self, _tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        let pos = self.positions[idx];
        self.completed_bursts.push((idx, pos));
        self.positions[idx] += 1;
        let has_sleep = self.scripts[idx].steps[pos].1 > 0;
        if !has_sleep {
            // No sleep op queued for this step: continue immediately with
            // the next step's ops (with a sleep, `on_wake` continues).
            self.advance(idx, os);
        }
    }

    fn on_wake(&mut self, _tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let idx = (token & 0xFFFF_FFFF) as usize;
        self.advance(idx, os);
    }
}

/// Events a scheduler run may take before it counts as a runaway loop
/// that never settles.
const EVENT_BUDGET: u64 = 2_000_000;

/// Forwards every event to the node it wraps, and panics past
/// [`EVENT_BUDGET`] events instead of spinning forever.
struct Budgeted {
    node: NodeActor,
    events: u64,
}

impl Actor<Msg> for Budgeted {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.events += 1;
        assert!(
            self.events <= EVENT_BUDGET,
            "runaway scheduler: more than {EVENT_BUDGET} events by {now:?}"
        );
        self.node.handle(now, msg, ctx);
    }
}

fn arb_script() -> impl Strategy<Value = Script> {
    prop::collection::vec((1u64..5_000, 0u64..20_000), 1..8).prop_map(|steps| Script { steps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any set of thread scripts: the run terminates, CPU busy time never
    /// exceeds wall time × CPUs, and every burst completes in per-thread
    /// program order.
    #[test]
    fn scheduler_invariants(
        scripts in prop::collection::vec(arb_script(), 1..6),
        cpus in 1u8..4,
        seed in 0u64..,
    ) {
        let mut eng: Engine<Msg> = Engine::new();
        let fabric = eng.reserve_actor(); // never used; packets don't flow
        let node_actor = eng.reserve_actor();
        let cfg = OsConfig { cpus, ..OsConfig::default() };
        let mut node = NodeActor::new(OsCore::new(
            NodeId(0),
            cfg,
            fabric,
            node_actor,
            DetRng::new(seed),
        ));
        node.add_service(Box::new(ScriptRunner::new(scripts.clone())));
        eng.install(node_actor, Box::new(Budgeted { node, events: 0 }));
        eng.schedule(SimTime::ZERO, node_actor, Msg::Node(NodeMsg::Boot));

        let outcome = eng.run_until(SimTime(SimDuration::from_secs(120).nanos()));
        prop_assert!(
            matches!(outcome, fgmon_sim::RunOutcome::QueueDrained),
            "run must drain: {:?}",
            outcome
        );
        let elapsed = eng.now();

        let node = &mut eng.actor_mut::<Budgeted>(node_actor).unwrap().node;

        // CPU accounting: total busy ≤ cpus × elapsed.
        let busy: u64 = node
            .core_mut()
            .cpu_acct
            .iter()
            .map(|a| a.busy_total.nanos())
            .sum();
        prop_assert!(
            busy <= elapsed.nanos() * cpus as u64,
            "busy {} > {} x {}",
            busy,
            elapsed.nanos(),
            cpus
        );

        // Work conservation: busy time ≥ sum of burst demands (bursts plus
        // context switches all consume CPU).
        let demanded: u64 = scripts
            .iter()
            .flat_map(|s| s.steps.iter())
            .map(|&(b, _)| b.max(1) * 1_000)
            .sum();
        prop_assert!(busy >= demanded, "busy {busy} < demanded {demanded}");

        // Every scripted burst completed exactly once, in order per thread.
        let svc = node
            .service::<ScriptRunner>(fgmon_types::ServiceSlot(0))
            .unwrap();
        let total_steps: usize = scripts.iter().map(|s| s.steps.len()).sum();
        prop_assert_eq!(svc.completed_bursts.len(), total_steps);
        for (idx, script) in scripts.iter().enumerate() {
            let order: Vec<usize> = svc
                .completed_bursts
                .iter()
                .filter(|&&(i, _)| i == idx)
                .map(|&(_, pos)| pos)
                .collect();
            let expect: Vec<usize> = (0..script.steps.len()).collect();
            prop_assert_eq!(order, expect, "thread {} out of order", idx);
        }

        // All threads ended blocked (no runnable work left).
        prop_assert_eq!(node.core().runnable_now(), 0);
    }
}
