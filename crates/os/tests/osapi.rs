//! Unit-level tests of the `OsApi` surface: resource accounting, thread
//! lifecycle edges, timers, and `/proc` views — driven through a single
//! node in a minimal engine.

use fgmon_os::{NodeActor, OsApi, OsCore, Service, ThreadState};
use fgmon_sim::{ActorId, DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{Msg, NodeId, NodeMsg, OsConfig, ServiceSlot, ThreadId};

fn world(cfg: OsConfig) -> (Engine<Msg>, ActorId) {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric = eng.reserve_actor();
    let node = eng.reserve_actor();
    eng.install(
        node,
        Box::new(NodeActor::new(OsCore::new(
            NodeId(0),
            cfg,
            fabric,
            node,
            DetRng::new(5),
        ))),
    );
    (eng, node)
}

fn run(eng: &mut Engine<Msg>, node: ActorId, secs: u64) {
    eng.schedule(SimTime::ZERO, node, Msg::Node(NodeMsg::Boot));
    eng.run_until(SimTime(SimDuration::from_secs(secs).nanos()));
}

/// Adjusts memory/conn counters and reads back `/proc`.
struct Accountant {
    snaps: Vec<(u64, u32)>,
}

impl Service for Accountant {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let base_mem = os.proc_snapshot(false).mem_used_kb;
        os.alloc_mem_kb(1024);
        os.add_conns(3);
        let s = os.proc_snapshot(false);
        self.snaps.push((s.mem_used_kb - base_mem, s.active_conns));
        os.alloc_mem_kb(-512);
        os.add_conns(-1);
        let s = os.proc_snapshot(false);
        self.snaps.push((s.mem_used_kb - base_mem, s.active_conns));
        // Over-free clamps to zero instead of wrapping.
        os.alloc_mem_kb(-10_000_000);
        os.add_conns(-100);
        let s = os.proc_snapshot(false);
        self.snaps.push((s.mem_used_kb, s.active_conns));
    }
}

#[test]
fn memory_and_connection_accounting() {
    let (mut eng, node) = world(OsConfig::default());
    eng.actor_mut::<NodeActor>(node)
        .unwrap()
        .add_service(Box::new(Accountant { snaps: Vec::new() }));
    run(&mut eng, node, 1);
    let actor = eng.actor::<NodeActor>(node).unwrap();
    let svc = actor.service::<Accountant>(ServiceSlot(0)).unwrap();
    assert_eq!(svc.snaps[0], (1024, 3));
    assert_eq!(svc.snaps[1], (512, 2));
    // Clamped at zero.
    assert_eq!(svc.snaps[2], (0, 0));
}

/// Spawns a worker, kills it mid-burst from a sibling thread's callback.
struct Assassin {
    victim: Option<ThreadId>,
    killer: Option<ThreadId>,
    victim_completions: u32,
}

impl Service for Assassin {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let victim = os.spawn_thread("victim");
        let killer = os.spawn_thread("killer");
        self.victim = Some(victim);
        self.killer = Some(killer);
        // Victim: a long burst that must never complete.
        os.burst(victim, SimDuration::from_secs(10), 1);
        // Killer strikes after 50 ms.
        os.burst(killer, SimDuration::from_millis(1), 2);
    }
    fn on_burst_done(&mut self, _tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        match token {
            1 => self.victim_completions += 1,
            2 => {
                os.sleep(self.killer.expect("set"), SimDuration::from_millis(50), 3);
            }
            _ => {}
        }
    }
    fn on_wake(&mut self, _tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == 3 {
            os.exit_thread(self.victim.expect("set"));
        }
    }
}

#[test]
fn exiting_a_running_thread_frees_its_cpu() {
    let (mut eng, node) = world(OsConfig::default());
    eng.actor_mut::<NodeActor>(node)
        .unwrap()
        .add_service(Box::new(Assassin {
            victim: None,
            killer: None,
            victim_completions: 0,
        }));
    run(&mut eng, node, 2);
    let actor = eng.actor_mut::<NodeActor>(node).unwrap();
    let svc = actor.service::<Assassin>(ServiceSlot(0)).unwrap();
    assert_eq!(svc.victim_completions, 0, "victim must die mid-burst");
    let victim = svc.victim.unwrap();
    assert_eq!(actor.core().threads.get(victim).state, ThreadState::Dead);
    assert_eq!(actor.core().threads.live_count(), 1);
    // The CPU the victim occupied is free again: total busy stays well
    // below the full 2s × 2 cpus it would have burned.
    let busy: u64 = actor
        .core_mut()
        .cpu_acct
        .iter()
        .map(|a| a.busy_total.nanos())
        .sum();
    assert!(
        busy < SimDuration::from_millis(200).nanos(),
        "busy {busy}ns — dead thread kept burning CPU"
    );
}

/// Exercises service-level timers: ordering and token fidelity.
#[derive(Default)]
struct TimerTester {
    fired: Vec<(u64, SimTime)>,
}

impl Service for TimerTester {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.set_timer(SimDuration::from_millis(30), 30);
        os.set_timer(SimDuration::from_millis(10), 10);
        os.set_timer(SimDuration::from_millis(20), 20);
    }
    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        self.fired.push((token, os.now()));
    }
}

#[test]
fn service_timers_fire_in_order_with_exact_delays() {
    let (mut eng, node) = world(OsConfig::default());
    eng.actor_mut::<NodeActor>(node)
        .unwrap()
        .add_service(Box::new(TimerTester::default()));
    run(&mut eng, node, 1);
    let actor = eng.actor::<NodeActor>(node).unwrap();
    let svc = actor.service::<TimerTester>(ServiceSlot(0)).unwrap();
    assert_eq!(
        svc.fired,
        vec![
            (10, SimTime(10_000_000)),
            (20, SimTime(20_000_000)),
            (30, SimTime(30_000_000)),
        ]
    );
}

/// Burst-silent work completes without callbacks; proc cost reflects it.
struct SilentWorker {
    tid: Option<ThreadId>,
}

impl Service for SilentWorker {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread("silent");
        self.tid = Some(tid);
        os.burst_silent(tid, SimDuration::from_millis(100));
    }
    fn on_burst_done(&mut self, _tid: ThreadId, _token: u64, _os: &mut OsApi<'_, '_>) {
        panic!("silent bursts must not call back");
    }
}

#[test]
fn silent_bursts_consume_cpu_without_callbacks() {
    let (mut eng, node) = world(OsConfig::default());
    eng.actor_mut::<NodeActor>(node)
        .unwrap()
        .add_service(Box::new(SilentWorker { tid: None }));
    run(&mut eng, node, 1);
    let actor = eng.actor_mut::<NodeActor>(node).unwrap();
    let busy: u64 = actor
        .core_mut()
        .cpu_acct
        .iter()
        .map(|a| a.busy_total.nanos())
        .sum();
    assert!(busy >= SimDuration::from_millis(100).nanos());
}

/// Multiple services on one node get distinct slots and isolated threads.
struct Spawner {
    tids: Vec<ThreadId>,
}

impl Service for Spawner {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for _ in 0..3 {
            self.tids.push(os.spawn_thread("w"));
        }
    }
}

#[test]
fn thread_ids_are_node_global_across_services() {
    let (mut eng, node) = world(OsConfig::default());
    {
        let actor = eng.actor_mut::<NodeActor>(node).unwrap();
        actor.add_service(Box::new(Spawner { tids: Vec::new() }));
        actor.add_service(Box::new(Spawner { tids: Vec::new() }));
    }
    run(&mut eng, node, 1);
    let actor = eng.actor::<NodeActor>(node).unwrap();
    let a = actor.service::<Spawner>(ServiceSlot(0)).unwrap();
    let b = actor.service::<Spawner>(ServiceSlot(1)).unwrap();
    let mut all: Vec<u32> = a.tids.iter().chain(&b.tids).map(|t| t.0).collect();
    all.sort_unstable();
    assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
    assert_eq!(actor.core().threads.live_count(), 6);
}

/// `/proc` read cost grows with the thread population.
struct CostProbe {
    before: Option<SimDuration>,
    after: Option<SimDuration>,
}

impl Service for CostProbe {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.before = Some(os.proc_read_cost());
        for _ in 0..20 {
            os.spawn_thread("filler");
        }
        self.after = Some(os.proc_read_cost());
    }
}

#[test]
fn proc_read_cost_scales_with_population() {
    let (mut eng, node) = world(OsConfig::default());
    eng.actor_mut::<NodeActor>(node)
        .unwrap()
        .add_service(Box::new(CostProbe {
            before: None,
            after: None,
        }));
    run(&mut eng, node, 1);
    let actor = eng.actor::<NodeActor>(node).unwrap();
    let svc = actor.service::<CostProbe>(ServiceSlot(0)).unwrap();
    let delta = svc.after.unwrap() - svc.before.unwrap();
    let per_thread = OsConfig::default().costs.proc_read_per_thread;
    assert_eq!(delta, SimDuration(per_thread.nanos() * 20));
}
