//! Conservative parallel discrete-event execution in global lookahead
//! windows, run on the calling thread.
//!
//! [`run_sharded`] partitions an [`Engine`]'s actors across shards —
//! each owning its own timing-wheel queue — and runs them one window at
//! a time (the synchronous conservative scheme known as YAWNS). The
//! *lookahead* `L` is a lower bound on every cross-shard latency. Each
//! window:
//!
//! 1. `T` is the earliest pending key across all shards. If `T` lies
//!    past the horizon, the run is over.
//! 2. Every shard processes its events through
//!    `last = min(T + L − 1, SimTime::MAX − 1, horizon)`.
//! 3. Every cross-shard send of the window is delivered to its
//!    destination shard, its engine `(time, seq)` key already assigned.
//!
//! Why a window is safe:
//!
//! * Every event in the window is at or after `T`, so any cross-shard
//!   send it makes lands at or after `T + L`, which is past `last`.
//! * So no shard can receive mail inside a window it has started.
//! * Lane keys are shard-invariant (below), so the run is bitwise
//!   identical to the sequential one.
//!
//! The lookahead is the caller's claim, and delivery checks it: mail at
//! or before `last` panics in every build profile instead of running a
//! shard's clock backwards. Each window runs the earliest pending event,
//! so the loop cannot stall, and an idle gap costs one window however
//! long it is.
//!
//! An event at `SimTime::MAX` leaves no lookahead: a send from it
//! saturates back to `SimTime::MAX`, and `last` stops one instant short
//! of it. Such events run one at a time, the earliest key first, as the
//! sequential engine does, so an inclusive horizon of `SimTime::MAX`
//! reaches them too.
//!
//! ## Keys are shard-invariant
//!
//! Sequence keys are `lane << 40 | counter` (see `engine`), and each lane
//! is advanced by exactly one actor's deterministic handling stream.
//! Since every actor processes the same events in the same order
//! whichever shard hosts it, every staged event gets the same key in any
//! execution, and key order is the only order either engine honors.
//!
//! The caller supplies per-shard replicas of actors that logically exist
//! on every shard (the fabric: pure routing + additive counters) and
//! merges their state afterwards; see `ShardPlan::REPLICATED`. Replicated
//! actors are why node→fabric sends need no lookahead: they are
//! same-instant sends to a local replica.
//!
//! ## Why the shards share one thread
//!
//! A window holds the events within one lookahead of the earliest. The
//! shipped worlds' lookahead is the 4 µs wire latency, and the densest of
//! them, `big_cluster(256)` on two shards, holds about 0.6 events per
//! lookahead per shard, so worker threads would hand each window across
//! cores for almost nothing (DESIGN.md §12.2). Parallelism pays across
//! independent worlds instead: the chaos search runs each schedule's
//! sequential and sharded legs at once, one world per thread.
//!
//! Windows ignore `Ctx::request_stop` and event budgets — bounded-lag
//! windows must drain deterministically. Worlds driven through the
//! sharded path use plain horizons (all shipped scenarios do).

use crate::engine::{Actor, ActorId, Engine};
use crate::queue::Entry;
use crate::time::{SimDuration, SimTime};

/// Which shard owns each actor slot.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shard_of[actor.index()]`: owning shard, or [`ShardPlan::REPLICATED`].
    pub shard_of: Vec<u16>,
    /// Number of shards.
    pub shards: usize,
}

impl ShardPlan {
    /// Marks an actor that exists once per shard instead of being owned.
    pub const REPLICATED: u16 = u16::MAX;

    /// A plan placing actor slot `i` on shard `shard_of[i]`.
    pub fn new(shard_of: Vec<u16>, shards: usize) -> Self {
        ShardPlan { shard_of, shards }
    }

    /// Greedy communication-affinity partition: split `n` items into
    /// `shards` balanced groups, keeping heavily-chattering items (ring
    /// or rack neighbors) together so most traffic stays on one shard.
    /// `edges` are undirected `(a, b, weight)` chatter edges over item
    /// indices. Deterministic: ties break toward the heaviest total
    /// chatter, then the lowest index.
    ///
    /// Each shard is seeded with the most-connected unassigned item and
    /// grown by strongest attraction to the members chosen so far, up to
    /// its capacity share; isolated items fill remaining capacity in
    /// index order.
    pub fn affinity_groups(n: usize, shards: usize, edges: &[(usize, usize, u64)]) -> Vec<u16> {
        assert!(shards <= u16::MAX as usize, "too many shards");
        let mut out = vec![0u16; n];
        if shards <= 1 || n == 0 {
            return out;
        }
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        let mut degree = vec![0u64; n];
        for &(a, b, w) in edges {
            if a >= n || b >= n || a == b {
                continue;
            }
            adj[a].push((b as u32, w));
            adj[b].push((a as u32, w));
            degree[a] += w;
            degree[b] += w;
        }
        let mut assigned = vec![false; n];
        let mut attraction = vec![0u64; n];
        let mut remaining = n;
        for s in 0..shards {
            // Even split of what's left, so late shards never end up empty.
            let cap = remaining.div_ceil(shards - s);
            for a in attraction.iter_mut() {
                *a = 0;
            }
            for _ in 0..cap {
                let mut pick = None;
                let mut best = (0u64, 0u64, 0usize);
                for (i, &done) in assigned.iter().enumerate() {
                    if done {
                        continue;
                    }
                    let key = (attraction[i], degree[i], usize::MAX - i);
                    if pick.is_none() || key > best {
                        best = key;
                        pick = Some(i);
                    }
                }
                let Some(i) = pick else { break };
                assigned[i] = true;
                out[i] = s as u16;
                remaining -= 1;
                for &(nb, w) in &adj[i] {
                    if !assigned[nb as usize] {
                        attraction[nb as usize] += w;
                    }
                }
            }
        }
        out
    }
}

/// A replicated actor's per-shard instances, handed into and back out of
/// [`run_sharded`] (the caller splits and re-merges their state).
pub struct ReplicaSet<M> {
    pub id: ActorId,
    /// One replica per shard, indexed by shard.
    pub replicas: Vec<Box<dyn Actor<M>>>,
}

/// A run split into shards: their engines, and what returns home at the
/// rejoin.
struct SplitRun<M> {
    shard_engines: Vec<Engine<M>>,
    replicated_originals: Vec<(ActorId, Box<dyn Actor<M>>)>,
    base_recorder: crate::metrics::Recorder,
    replicas: Vec<ReplicaSet<M>>,
}

fn validate<M: 'static>(eng: &Engine<M>, lookahead: SimDuration, plan: &ShardPlan) {
    assert!(plan.shards >= 2, "run_sharded needs at least two shards");
    assert!(
        lookahead > SimDuration::ZERO,
        "zero lookahead cannot overlap shards; run sequentially instead"
    );
    assert_eq!(plan.shard_of.len(), eng.actor_count());
}

/// Phases 0 and 1: drain the current instant sequentially (so every
/// lazily-interned metric id exists before the recorders fork), then
/// split the engine into per-shard engines.
fn split_shards<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    plan: &ShardPlan,
    mut replicas: Vec<ReplicaSet<M>>,
) -> SplitRun<M> {
    let shards = plan.shards;
    eng.run_window(eng.now().min(horizon));

    let base_recorder = eng.recorder().clone();
    let kind = eng.queue_kind();
    let mut shard_engines: Vec<Engine<M>> = (0..shards)
        .map(|s| {
            let mut se: Engine<M> = Engine::new();
            se.set_queue_kind(kind);
            for _ in 0..eng.actor_count() {
                se.reserve_actor();
            }
            se.set_lane_counters(eng.lane_counters().to_vec());
            se.set_recorder(base_recorder.clone());
            se.set_now(eng.now());
            let mask: Vec<bool> = plan
                .shard_of
                .iter()
                .map(|&o| o == s as u16 || o == ShardPlan::REPLICATED)
                .collect();
            se.set_local_mask(Some(mask));
            se
        })
        .collect();
    // Originals of replicated actors sit out the run (their per-shard
    // replicas run instead) and return to their slots afterwards, so the
    // main engine stays whole for sequential use before and after.
    let mut replicated_originals: Vec<(ActorId, Box<dyn Actor<M>>)> = Vec::new();
    for (idx, &owner) in plan.shard_of.iter().enumerate() {
        let id = ActorId(idx as u32);
        if owner == ShardPlan::REPLICATED {
            for se in shard_engines.iter_mut() {
                se.mark_replicated(id);
            }
            if let Some(actor) = eng.take_actor(id) {
                replicated_originals.push((id, actor));
            }
        } else if let Some(actor) = eng.take_actor(id) {
            shard_engines[owner as usize].install(id, actor);
        }
    }
    for set in replicas.iter_mut() {
        assert_eq!(set.replicas.len(), shards, "one replica per shard");
        for (se, rep) in shard_engines.iter_mut().zip(set.replicas.drain(..)) {
            se.install(set.id, rep);
        }
    }
    while let Some(entry) = eng.pop_entry() {
        let owner = plan.shard_of[entry.dst.index()];
        assert!(
            owner != ShardPlan::REPLICATED,
            "event pending for a replicated actor at a window boundary \
             (replicated actors must only receive same-instant sends)"
        );
        shard_engines[owner as usize].inject_entry(entry);
    }
    SplitRun {
        shard_engines,
        replicated_originals,
        base_recorder,
        replicas,
    }
}

/// Phase 3 — rejoin. Actors move home, pending events re-merge (keys
/// intact), lanes take the elementwise max (each advanced by exactly
/// one shard), metrics fold in as deltas against the fork point.
fn rejoin<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    plan: &ShardPlan,
    run: SplitRun<M>,
) -> Vec<ReplicaSet<M>> {
    let SplitRun {
        shard_engines,
        replicated_originals,
        base_recorder,
        replicas,
    } = run;
    let mut out = replicas;
    let mut events = 0u64;
    let mut last_event_time = eng.now();
    for (s, mut se) in shard_engines.into_iter().enumerate() {
        last_event_time = last_event_time.max(se.now());
        se.set_local_mask(None);
        assert_eq!(se.take_foreign().count(), 0, "undelivered foreign events");
        for (idx, &owner) in plan.shard_of.iter().enumerate() {
            let id = ActorId(idx as u32);
            if owner as usize == s {
                if let Some(actor) = se.take_actor(id) {
                    eng.install(id, actor);
                }
            }
        }
        for set in out.iter_mut() {
            set.replicas
                .push(se.take_actor(set.id).expect("replica vanished"));
        }
        while let Some(entry) = se.pop_entry() {
            eng.inject_entry(entry);
        }
        eng.merge_lane_counters(se.lane_counters());
        eng.recorder_mut()
            .merge_shard_deltas(&base_recorder, se.recorder());
        events += se.events_processed();
    }
    for (id, actor) in replicated_originals {
        eng.install(id, actor);
    }
    eng.add_events_processed(events);
    // Mirror run_until: the clock rests at the horizon if work remains
    // beyond it, else at the last processed event (queue drained).
    if eng.queue_len() > 0 {
        eng.set_now(horizon);
    } else {
        eng.set_now(last_event_time);
    }
    out
}

/// Run `eng` sharded until `horizon` (inclusive), bitwise identically
/// to `eng.run_until(horizon)`, one lookahead window at a time on the
/// calling thread. See the module docs for the window rule.
///
/// `replicas` carries the per-shard instances of every actor the plan
/// marks [`ShardPlan::REPLICATED`]; the same sets (with whatever state
/// the run left in them) are returned for the caller to merge.
///
/// # Panics
/// Panics if `lookahead` is zero, `plan.shards < 2`, an event addressed
/// to a replicated actor is pending at the boundary, a cross-shard event
/// lands inside the window that sent it (some cross-shard latency is
/// below `lookahead`), or a shard interns new metric keys mid-run (see
/// [`Recorder::merge_shard_deltas`](crate::metrics::Recorder::merge_shard_deltas)).
/// A panicking actor's own panic propagates unchanged.
pub fn run_sharded<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> Vec<ReplicaSet<M>> {
    run_windows(eng, horizon, lookahead, plan, replicas).0
}

/// [`run_sharded`], also returning how many windows it ran.
fn run_windows<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> (Vec<ReplicaSet<M>>, u64) {
    validate(eng, lookahead, plan);
    let mut run = split_shards(eng, horizon, plan, replicas);
    let engines = &mut run.shard_engines;
    // The window's cross-shard sends, recycled between windows.
    let mut mail: Vec<Entry<M>> = Vec::new();
    let mut windows = 0u64;
    loop {
        let mut earliest: Option<((SimTime, u64), usize)> = None;
        for (s, se) in engines.iter_mut().enumerate() {
            if let Some(key) = se.peek_head() {
                if earliest.is_none_or(|(least, _)| key < least) {
                    earliest = Some((key, s));
                }
            }
        }
        let Some(((t, _), first)) = earliest.filter(|((t, _), _)| *t <= horizon) else {
            break;
        };
        let reach = t.0.saturating_add(lookahead.nanos() - 1).min(u64::MAX - 1);
        let last = SimTime(reach).min(horizon);
        if t > last {
            // `t` is `SimTime::MAX`: no lookahead left.
            engines[first].run_next();
        } else {
            for se in engines.iter_mut() {
                se.run_window(last);
            }
        }
        windows += 1;
        for se in engines.iter_mut() {
            mail.extend(se.take_foreign());
        }
        for entry in mail.drain(..) {
            assert!(
                entry.time > last,
                "cross-shard event at {} ns lands inside the window that ends \
                 at {} ns: a cross-shard latency is below the lookahead of {} ns",
                entry.time.0,
                last.0,
                lookahead.nanos()
            );
            engines[plan.shard_of[entry.dst.index()] as usize].inject_entry(entry);
        }
    }
    (rejoin(eng, horizon, plan, run), windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Ctx;

    /// A deterministic "node": on each Tick, records into a histogram and
    /// a counter, then pings a peer through the hub with a wire delay.
    #[derive(Debug)]
    enum TestMsg {
        Tick { hops: u32 },
        Via { dst: ActorId, hops: u32 },
    }

    struct TestNode {
        peer: ActorId,
        hub: ActorId,
        hist: crate::metrics::HistogramId,
        seen: u64,
    }

    impl Actor<TestMsg> for TestNode {
        fn handle(&mut self, now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            if let TestMsg::Tick { hops } = msg {
                self.seen += 1;
                ctx.recorder().histogram_at(self.hist).record(now.0 % 1024);
                if hops > 0 {
                    // Same-instant send to the (replicated) hub.
                    ctx.send_now(
                        self.hub,
                        TestMsg::Via {
                            dst: self.peer,
                            hops: hops - 1,
                        },
                    );
                }
            }
        }
    }

    /// The replicated hub: forwards with a fixed latency (the lookahead).
    struct TestHub {
        wire: SimDuration,
        forwarded: u64,
    }

    impl Actor<TestMsg> for TestHub {
        fn handle(&mut self, _now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            if let TestMsg::Via { dst, hops } = msg {
                self.forwarded += 1;
                ctx.send_in(self.wire, dst, TestMsg::Tick { hops });
            }
        }
    }

    const WIRE: SimDuration = SimDuration::from_micros(5);

    /// A ring of `nodes` nodes around one replicated hub that forwards in
    /// `wire`, nothing scheduled yet.
    fn ring(nodes: u32, wire: SimDuration) -> (Engine<TestMsg>, ActorId) {
        let mut eng: Engine<TestMsg> = Engine::new();
        let hub = eng.reserve_actor();
        let ids: Vec<ActorId> = (0..nodes).map(|_| eng.reserve_actor()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let hist = eng.recorder_mut().histogram_id(&format!("node{i}/t"));
            eng.install(
                id,
                Box::new(TestNode {
                    peer: ids[(i + 1) % ids.len()],
                    hub,
                    hist,
                    seen: 0,
                }),
            );
        }
        eng.install(hub, Box::new(TestHub { wire, forwarded: 0 }));
        eng.mark_replicated(hub);
        (eng, hub)
    }

    fn build(nodes: u32) -> (Engine<TestMsg>, ActorId) {
        let (mut eng, hub) = ring(nodes, WIRE);
        for i in 0..nodes {
            // Staggered starts, long relay chains crossing every node.
            let id = ActorId(1 + i);
            eng.schedule(SimTime(1 + 7 * i as u64), id, TestMsg::Tick { hops: 4000 });
        }
        (eng, hub)
    }

    /// `nodes` nodes that each wake every 10 ms (2000 lookaheads), at
    /// evenly staggered offsets, and ping their successor through the
    /// hub, which pings its own successor in turn. Each ping lands one
    /// lookahead after the wake and the next a second one later: each
    /// exactly one instant past the window that sent it.
    fn build_sparse(nodes: u32) -> (Engine<TestMsg>, ActorId) {
        let (mut eng, hub) = ring(nodes, WIRE);
        for k in 0..100u64 {
            for i in 0..nodes {
                let wake = 10_000_000 * k + 1 + 10_000_000 * i as u64 / nodes as u64;
                eng.schedule(SimTime(wake), ActorId(1 + i), TestMsg::Tick { hops: 2 });
            }
        }
        (eng, hub)
    }

    fn fingerprint(eng: &Engine<TestMsg>, nodes: u32) -> (u64, SimTime, Vec<(String, u64, u64)>) {
        let hists = eng
            .recorder()
            .histogram_keys()
            .map(|k| {
                let h = eng.recorder().get_histogram(k).unwrap();
                (k.to_string(), h.count(), h.max())
            })
            .collect();
        let seen: u64 = (1..=nodes)
            .map(|i| eng.actor::<TestNode>(ActorId(i)).unwrap().seen)
            .sum();
        (seen, eng.now(), hists)
    }

    /// The toy world's ring plan: node `i` on shard `i % shards`, so every
    /// ping crosses shards (the hub is replicated).
    fn ring_plan(nodes: u32, shards: usize, hub: ActorId) -> ShardPlan {
        let mut shard_of = vec![0u16; 1 + nodes as usize];
        shard_of[hub.index()] = ShardPlan::REPLICATED;
        for i in 0..nodes as usize {
            shard_of[1 + i] = (i % shards) as u16;
        }
        ShardPlan::new(shard_of, shards)
    }

    fn hub_replicas(shards: usize, hub: ActorId, wire: SimDuration) -> Vec<ReplicaSet<TestMsg>> {
        vec![ReplicaSet {
            id: hub,
            replicas: (0..shards)
                .map(|_| Box::new(TestHub { wire, forwarded: 0 }) as Box<dyn Actor<TestMsg>>)
                .collect(),
        }]
    }

    fn run_parallel(
        nodes: u32,
        shards: usize,
        horizon: SimTime,
    ) -> (u64, SimTime, Vec<(String, u64, u64)>, u64) {
        let (mut eng, hub) = build(nodes);
        let plan = ring_plan(nodes, shards, hub);
        let back = run_sharded(
            &mut eng,
            horizon,
            WIRE,
            &plan,
            hub_replicas(shards, hub, WIRE),
        );
        // Replica counters plus whatever the original handled in the
        // sequential prefix reassemble the hub's sequential total.
        let forwarded: u64 = back[0]
            .replicas
            .iter()
            .map(|r| {
                (r.as_ref() as &dyn std::any::Any)
                    .downcast_ref::<TestHub>()
                    .unwrap()
                    .forwarded
            })
            .sum::<u64>()
            + eng.actor::<TestHub>(hub).unwrap().forwarded;
        let (seen, now, hists) = fingerprint(&eng, nodes);
        (seen, now, hists, forwarded)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let horizon = SimTime(30_000_000);
        let (mut seq_eng, _) = build(6);
        seq_eng.run_until(horizon);
        let seq_events = seq_eng.events_processed();
        let (seen, now, hists) = fingerprint(&seq_eng, 6);
        for shards in [2usize, 3, 4] {
            let (p_seen, p_now, p_hists, _fw) = run_parallel(6, shards, horizon);
            assert_eq!(p_seen, seen, "{shards} shards diverged");
            assert_eq!(p_now, now);
            assert_eq!(p_hists, hists, "{shards} shards: histograms diverged");
        }
        assert!(seq_events > 10_000, "world must actually run");
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    fn mail_below_the_lookahead_panics() {
        // The hub forwards in 1 µs but the run claims 5 µs. Node 0 starts
        // two ping chains 3 µs apart, so the answer to the first lands
        // before the second starts: running both in one window would run
        // node 0's clock backwards. The first window's mail must die
        // loudly instead, in release builds too.
        let fast = SimDuration::from_micros(1);
        let (mut eng, hub) = ring(2, fast);
        eng.schedule(SimTime(1), ActorId(1), TestMsg::Tick { hops: 400 });
        eng.schedule(SimTime(3_001), ActorId(1), TestMsg::Tick { hops: 400 });
        let plan = ring_plan(2, 2, hub);
        let _ = run_sharded(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub, fast),
        );
    }

    /// An actor that panics on the first event it handles.
    struct Bomb;

    impl Actor<TestMsg> for Bomb {
        fn handle(&mut self, now: SimTime, _msg: TestMsg, _ctx: &mut Ctx<'_, TestMsg>) {
            panic!("bomb went off at {now:?}");
        }
    }

    #[test]
    #[should_panic(expected = "bomb went off")]
    fn actor_panic_reaches_the_caller() {
        // Node 1 lives on shard 1 and panics at its first tick; its own
        // message must reach the caller.
        let (mut eng, hub) = build(4);
        let victim = ActorId(2);
        assert!(eng.take_actor(victim).is_some());
        eng.install(victim, Box::new(Bomb));
        let plan = ring_plan(4, 2, hub);
        let _ = run_sharded(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub, WIRE),
        );
    }

    #[test]
    fn sparse_traffic_leaps_idle_gaps() {
        // Crawling the 10 ms gaps 5 µs at a time would take ~2,000
        // windows per gap. Each window starts at the earliest pending
        // event, so a gap costs one.
        let horizon = SimTime(1_000_000_000);
        for shards in [2usize, 3, 4] {
            let nodes = shards as u32;
            let (mut seq_eng, _) = build_sparse(nodes);
            seq_eng.run_until(horizon);
            let expected = fingerprint(&seq_eng, nodes);
            let events = seq_eng.events_processed();
            assert_eq!(expected.0, 300 * nodes as u64, "every wake pings twice");

            let (mut eng, hub) = build_sparse(nodes);
            let plan = ring_plan(nodes, shards, hub);
            let replicas = hub_replicas(shards, hub, WIRE);
            let (_, windows) = run_windows(&mut eng, horizon, WIRE, &plan, replicas);
            assert_eq!(fingerprint(&eng, nodes), expected, "{shards} shards");
            assert!(
                windows <= events,
                "{shards} shards: {windows} windows for {events} events"
            );
        }
    }

    #[test]
    fn horizon_at_max_reaches_the_last_instant() {
        // A tick at the last representable instant pings around the ring
        // with no lookahead left: every send saturates to `SimTime::MAX`.
        let schedule = |eng: &mut Engine<TestMsg>| {
            eng.schedule(SimTime(1), ActorId(1), TestMsg::Tick { hops: 0 });
            eng.schedule(SimTime::MAX, ActorId(2), TestMsg::Tick { hops: 3 });
        };
        let (mut seq_eng, _) = ring(2, WIRE);
        schedule(&mut seq_eng);
        seq_eng.run_until(SimTime::MAX);
        let expected = (seq_eng.events_processed(), seq_eng.queue_len());
        assert_eq!(expected, (8, 0));
        let (mut eng, hub) = ring(2, WIRE);
        schedule(&mut eng);
        let plan = ring_plan(2, 2, hub);
        run_sharded(
            &mut eng,
            SimTime::MAX,
            WIRE,
            &plan,
            hub_replicas(2, hub, WIRE),
        );
        assert_eq!((eng.events_processed(), eng.queue_len()), expected);
        assert_eq!(fingerprint(&eng, 2), fingerprint(&seq_eng, 2));
    }

    #[test]
    fn replica_state_returns_for_merging() {
        let horizon = SimTime(10_000_000);
        let (mut seq_eng, hub) = build(4);
        seq_eng.run_until(horizon);
        let seq_fw = seq_eng.actor::<TestHub>(hub).unwrap().forwarded;
        let (_, _, _, fw) = run_parallel(4, 2, horizon);
        assert_eq!(fw, seq_fw, "summed replica counters must match");
    }

    #[test]
    fn pending_events_survive_rejoin() {
        // Events beyond the horizon re-merge into the main queue and a
        // follow-up sequential run continues bitwise-correctly.
        let horizon = SimTime(5_000_000);
        let (mut a, _) = build(4);
        a.run_until(horizon);
        a.run_until(SimTime(9_000_000));
        let (seen_a, _, hists_a) = fingerprint(&a, 4);

        let (mut b, hub) = build(4);
        let plan = ring_plan(4, 2, hub);
        let _back = run_sharded(&mut b, horizon, WIRE, &plan, hub_replicas(2, hub, WIRE));
        // The original hub is back in its slot; continue sequentially.
        b.run_until(SimTime(9_000_000));
        let (seen_b, _, hists_b) = fingerprint(&b, 4);
        assert_eq!(seen_a, seen_b);
        assert_eq!(hists_a, hists_b);
    }

    #[test]
    fn affinity_groups_keep_ring_neighbors_together() {
        // A 16-node ring split two ways: the greedy partition should cut
        // the ring in exactly two places (contiguous arcs), not sixteen.
        let n = 16usize;
        let edges: Vec<(usize, usize, u64)> = (0..n).map(|i| (i, (i + 1) % n, 4)).collect();
        let groups = ShardPlan::affinity_groups(n, 2, &edges);
        let cuts = (0..n).filter(|&i| groups[i] != groups[(i + 1) % n]).count();
        assert_eq!(cuts, 2, "ring should split into two arcs: {groups:?}");
        let per_shard = groups.iter().filter(|&&g| g == 0).count();
        assert_eq!(per_shard, 8, "partition must stay balanced");
    }

    #[test]
    fn affinity_groups_balance_star_with_hub() {
        // A hub chattering with every leaf plus a leaf ring: every shard
        // gets its fair share even though the hub attracts everything.
        let n = 9usize; // hub = 0, leaves 1..=8
        let mut edges: Vec<(usize, usize, u64)> = (1..n).map(|i| (0, i, 4)).collect();
        edges.extend((1..n).map(|i| (i, if i + 1 < n { i + 1 } else { 1 }, 8)));
        let groups = ShardPlan::affinity_groups(n, 3, &edges);
        for s in 0..3u16 {
            let size = groups.iter().filter(|&&g| g == s).count();
            assert!((2..=4).contains(&size), "shard {s} got {size}: {groups:?}");
        }
    }
}
