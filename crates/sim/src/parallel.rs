//! Conservative parallel discrete-event execution in global lookahead
//! windows, run on the calling thread.
//!
//! [`run_sharded`] partitions an [`Engine`]'s actors across shards and
//! runs them one window at a time (the synchronous conservative scheme
//! known as YAWNS). The shards live inside the one engine: each owns an
//! event order over the engine's one slab, while the actor table, the
//! recorder, the lane counters and the event count exist once. The split
//! re-files every pending `(time, seq, index)` key into its owner shard's
//! order, and the rejoin re-files them all into one; no message moves.
//!
//! The *lookahead* `L` is a lower bound on every cross-shard latency.
//! Each window:
//!
//! 1. `T` is the earliest pending key across all shards. If `T` lies
//!    past the horizon, the run is over.
//! 2. Every shard in turn processes its events through
//!    `last = min(T + L − 1, SimTime::MAX − 1, horizon)` on its own
//!    clock. A send to another shard's actor is filed straight into that
//!    shard's order, its engine `(time, seq)` key already assigned.
//!
//! Why a window is safe:
//!
//! * Every event in the window is at or after `T`, so any cross-shard
//!   send it makes lands at or after `T + L`, which is past `last`.
//! * So no shard receives an event inside a window, whether it has run
//!   that window yet or not.
//! * Lane keys are shard-invariant (below), so the run is bitwise
//!   identical to the sequential one.
//!
//! The lookahead is the caller's claim, and every cross-shard send checks
//! it: a send at or before `last` panics in every build profile instead
//! of running a shard's clock backwards. Each window runs the earliest
//! pending event, so the loop cannot stall, and an idle gap costs one
//! window however long it is.
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
//! execution, and key order is the only order the engine honors.
//!
//! ## State the shards share
//!
//! An actor marked with [`Engine::mark_replicated`] (the fabric: routing
//! plus additive counters) belongs to no shard: an event addressed to it
//! is filed into the shard that sent it and runs there, which is why
//! node→fabric sends need no lookahead. Whatever the shards share must
//! not care in which order they run a window. The fabric's counters are
//! sums, and each of its per-target slots is touched only from the
//! target's shard. The recorder's histograms and counters are exact
//! integer sums. A time series must have one writer, because the shards
//! of a window run one after the other; the recorder panics if two
//! shards write one series in a run.
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
//! windows must drain deterministically — and a stop requested inside a
//! sharded run is dropped at the rejoin, so it does not stop the next
//! run either. Worlds driven through the sharded path use plain
//! horizons (all shipped scenarios do).

use crate::engine::{Engine, RunOutcome};
use crate::time::{SimDuration, SimTime};

/// Which shard owns each actor slot.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shard_of[actor.index()]`: owning shard. Ignored for actors marked
    /// with [`Engine::mark_replicated`], whose events run on the shard
    /// that sent them.
    pub shard_of: Vec<u16>,
    /// Number of shards.
    pub shards: usize,
}

impl ShardPlan {
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

fn validate<M: 'static>(eng: &Engine<M>, lookahead: SimDuration, plan: &ShardPlan) {
    assert!(plan.shards >= 2, "run_sharded needs at least two shards");
    assert!(
        lookahead > SimDuration::ZERO,
        "zero lookahead cannot overlap shards; run sequentially instead"
    );
    assert_eq!(plan.shard_of.len(), eng.actor_count());
}

/// Run `eng` sharded until `horizon` (inclusive), bitwise identically
/// to `eng.run_until(horizon)`, one lookahead window at a time on the
/// calling thread. See the module docs for the window rule. Returns
/// [`RunOutcome::HorizonReached`] if events remain past the horizon,
/// else [`RunOutcome::QueueDrained`]: windows never stop early.
///
/// # Panics
/// Panics if `lookahead` is zero, `plan.shards < 2`, an event addressed
/// to a replicated actor is pending at the start, a cross-shard event
/// lands inside the window that sent it (some cross-shard latency is
/// below `lookahead`), or two shards write one time series. A panicking
/// actor's own panic propagates unchanged.
pub fn run_sharded<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
) -> RunOutcome {
    run_windows(eng, horizon, lookahead, plan).0
}

/// [`run_sharded`], also returning how many windows it ran.
fn run_windows<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
) -> (RunOutcome, u64) {
    validate(eng, lookahead, plan);
    // Drain the current instant first, so that no same-instant send to a
    // replicated actor is pending at the split.
    eng.run_window(eng.now().min(horizon));
    eng.split_shards(&plan.shard_of, plan.shards, lookahead);
    let mut windows = 0u64;
    loop {
        let mut earliest: Option<((SimTime, u64), usize)> = None;
        for s in 0..plan.shards {
            if let Some(key) = eng.shard_head(s) {
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
            eng.run_shard(first, last, true);
        } else {
            for s in 0..plan.shards {
                eng.run_shard(s, last, false);
            }
        }
        windows += 1;
    }
    eng.rejoin_shards(horizon);
    let outcome = if eng.queue_len() > 0 {
        RunOutcome::HorizonReached
    } else {
        RunOutcome::QueueDrained
    };
    (outcome, windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Actor, ActorId, Ctx};
    use crate::metrics::SeriesId;

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
                    // Same-instant send to the shared hub.
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

    /// The shared hub: forwards with a fixed latency (the lookahead).
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

    /// A ring of `nodes` nodes around one shared hub (actor 0) that
    /// forwards in `wire`, nothing scheduled yet.
    fn ring(nodes: u32, wire: SimDuration) -> Engine<TestMsg> {
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
        eng
    }

    fn build(nodes: u32) -> Engine<TestMsg> {
        let mut eng = ring(nodes, WIRE);
        for i in 0..nodes {
            // Staggered starts, long relay chains crossing every node.
            let id = ActorId(1 + i);
            eng.schedule(SimTime(1 + 7 * i as u64), id, TestMsg::Tick { hops: 4000 });
        }
        eng
    }

    /// `nodes` nodes that each wake every 10 ms (2000 lookaheads), at
    /// evenly staggered offsets, and ping their successor through the
    /// hub, which pings its own successor in turn. Each ping lands one
    /// lookahead after the wake and the next a second one later: each
    /// exactly one instant past the window that sent it.
    fn build_sparse(nodes: u32) -> Engine<TestMsg> {
        let mut eng = ring(nodes, WIRE);
        for k in 0..100u64 {
            for i in 0..nodes {
                let wake = 10_000_000 * k + 1 + 10_000_000 * i as u64 / nodes as u64;
                eng.schedule(SimTime(wake), ActorId(1 + i), TestMsg::Tick { hops: 2 });
            }
        }
        eng
    }

    type Fp = (u64, u64, SimTime, Vec<(String, u64, u64)>);

    /// Pings seen by the nodes, relays forwarded by the hub, the clock,
    /// and every histogram's count and max.
    fn fingerprint(eng: &Engine<TestMsg>, nodes: u32) -> Fp {
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
        let forwarded = eng.actor::<TestHub>(ActorId(0)).unwrap().forwarded;
        (seen, forwarded, eng.now(), hists)
    }

    /// The toy world's ring plan: node `i` on shard `i % shards`, so every
    /// ping crosses shards (the hub belongs to none).
    fn ring_plan(nodes: u32, shards: usize) -> ShardPlan {
        let shard_of = (0..=nodes as usize)
            .map(|a| (a.max(1) - 1) as u16 % shards as u16)
            .collect();
        ShardPlan::new(shard_of, shards)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let horizon = SimTime(30_000_000);
        let mut seq_eng = build(6);
        seq_eng.run_until(horizon);
        let expected = fingerprint(&seq_eng, 6);
        assert!(
            seq_eng.events_processed() > 10_000,
            "world must actually run"
        );
        for shards in [2usize, 3, 4] {
            let mut eng = build(6);
            run_sharded(&mut eng, horizon, WIRE, &ring_plan(6, shards));
            assert_eq!(fingerprint(&eng, 6), expected, "{shards} shards diverged");
            assert_eq!(eng.events_processed(), seq_eng.events_processed());
        }
    }

    #[test]
    fn replica_state_returns_for_merging() {
        // The hub is replicated: every shard's events run it, and its
        // counter must come back to the engine as one sum, ready for the
        // next sequential run.
        let horizon = SimTime(10_000_000);
        let mut seq_eng = build(4);
        seq_eng.run_until(horizon);
        let seq_fw = seq_eng.actor::<TestHub>(ActorId(0)).unwrap().forwarded;
        assert!(seq_fw > 0, "the hub must forward");
        let mut eng = build(4);
        run_sharded(&mut eng, horizon, WIRE, &ring_plan(4, 2));
        let fw = eng.actor::<TestHub>(ActorId(0)).unwrap().forwarded;
        assert_eq!(fw, seq_fw, "the hub's counter must match");
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    fn mail_below_the_lookahead_panics() {
        // The hub forwards in 1 µs but the run claims 5 µs. Node 0 starts
        // two ping chains 3 µs apart, so the answer to the first lands
        // before the second starts: running both in one window would run
        // node 0's clock backwards. The first window's cross-shard send
        // must die loudly instead, in release builds too.
        let mut eng = ring(2, SimDuration::from_micros(1));
        eng.schedule(SimTime(1), ActorId(1), TestMsg::Tick { hops: 400 });
        eng.schedule(SimTime(3_001), ActorId(1), TestMsg::Tick { hops: 400 });
        run_sharded(&mut eng, SimTime(10_000_000), WIRE, &ring_plan(2, 2));
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
        let mut eng = build(4);
        let victim = ActorId(2);
        assert!(eng.take_actor(victim).is_some());
        eng.install(victim, Box::new(Bomb));
        run_sharded(&mut eng, SimTime(10_000_000), WIRE, &ring_plan(4, 2));
    }

    /// Pushes a point into `series` on every event.
    struct Scribe {
        series: SeriesId,
    }

    impl Actor<TestMsg> for Scribe {
        fn handle(&mut self, now: SimTime, _msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.recorder().series_at(self.series).push(now, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "written from two shards")]
    fn series_written_from_two_shards_panics() {
        // Shard 0 would append its window's points before shard 1 appends
        // its own, out of time order; the second writer must die loudly,
        // in release builds too.
        let mut eng: Engine<TestMsg> = Engine::new();
        let series = eng.recorder_mut().series_id("shared");
        for a in 0..2 {
            let id = eng.add_actor(Box::new(Scribe { series }));
            eng.schedule(SimTime(1_000 + a), id, TestMsg::Tick { hops: 0 });
        }
        run_sharded(
            &mut eng,
            SimTime(10_000),
            WIRE,
            &ShardPlan::new(vec![0, 1], 2),
        );
    }

    /// Asks the engine to stop on every event.
    struct Stopper;

    impl Actor<TestMsg> for Stopper {
        fn handle(&mut self, _now: SimTime, _msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            ctx.request_stop();
        }
    }

    #[test]
    fn stop_requested_in_a_sharded_run_does_not_stop_the_next_run() {
        // Windows ignore the stop; the rejoin drops it, so the next
        // sequential run goes on to its horizon.
        let mut eng = build(4);
        let stopper = eng.add_actor(Box::new(Stopper));
        eng.schedule(SimTime(2_000_000), stopper, TestMsg::Tick { hops: 0 });
        let mut plan = ring_plan(4, 2);
        plan.shard_of.push(1);
        let outcome = run_sharded(&mut eng, SimTime(5_000_000), WIRE, &plan);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        let before = eng.events_processed();
        assert_eq!(
            eng.run_until(SimTime(9_000_000)),
            RunOutcome::HorizonReached
        );
        assert!(eng.events_processed() > before, "the next run must run");
    }

    #[test]
    fn sparse_traffic_leaps_idle_gaps() {
        // Crawling the 10 ms gaps 5 µs at a time would take ~2,000
        // windows per gap. Each window starts at the earliest pending
        // event, so a gap costs one.
        let horizon = SimTime(1_000_000_000);
        for shards in [2usize, 3, 4] {
            let nodes = shards as u32;
            let mut seq_eng = build_sparse(nodes);
            seq_eng.run_until(horizon);
            let expected = fingerprint(&seq_eng, nodes);
            let events = seq_eng.events_processed();
            assert_eq!(expected.0, 300 * nodes as u64, "every wake pings twice");

            let mut eng = build_sparse(nodes);
            let (_, windows) = run_windows(&mut eng, horizon, WIRE, &ring_plan(nodes, shards));
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
        let mut seq_eng = ring(2, WIRE);
        schedule(&mut seq_eng);
        seq_eng.run_until(SimTime::MAX);
        let expected = (seq_eng.events_processed(), seq_eng.queue_len());
        assert_eq!(expected, (8, 0));
        let mut eng = ring(2, WIRE);
        schedule(&mut eng);
        run_sharded(&mut eng, SimTime::MAX, WIRE, &ring_plan(2, 2));
        assert_eq!((eng.events_processed(), eng.queue_len()), expected);
        assert_eq!(fingerprint(&eng, 2), fingerprint(&seq_eng, 2));
    }

    #[test]
    fn pending_events_survive_rejoin() {
        // Events beyond the horizon re-merge into the one order and a
        // follow-up sequential run continues bitwise-correctly.
        let horizon = SimTime(5_000_000);
        let mut a = build(4);
        a.run_until(horizon);
        a.run_until(SimTime(9_000_000));

        let mut b = build(4);
        run_sharded(&mut b, horizon, WIRE, &ring_plan(4, 2));
        b.run_until(SimTime(9_000_000));
        assert_eq!(fingerprint(&a, 4), fingerprint(&b, 4));
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
