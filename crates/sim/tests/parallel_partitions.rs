//! Property: *any* assignment of actors to shards — balanced,
//! lopsided, or leaving some shards empty — produces the exact
//! sequential fingerprint. Same-timestamp cross-shard events must merge
//! in `(time, seq)` order no matter which shard sent them, so the
//! partition is unobservable. A think time makes the hub hold some
//! relays for up to ~50 lookaheads, so idle gaps wider than the
//! lookahead occur between the bursts.

use fgmon_sim::{
    run_sharded, Actor, ActorId, Ctx, Engine, RunOutcome, ShardPlan, SimDuration, SimTime,
};
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Debug)]
enum TestMsg {
    Tick { hops: u32 },
    Via { dst: ActorId, hops: u32 },
}

/// On each Tick, records a sample and relays through the shared hub to
/// the next node at the *same instant* — the adversarial case for
/// cross-shard merge order.
struct TestNode {
    peer: ActorId,
    hub: ActorId,
    hist: fgmon_sim::HistogramId,
    seen: u64,
}

impl Actor<TestMsg> for TestNode {
    fn handle(&mut self, now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
        if let TestMsg::Tick { hops } = msg {
            self.seen += 1;
            ctx.recorder().histogram_at(self.hist).record(now.0 % 8191);
            if hops > 0 {
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

const WIRE: SimDuration = SimDuration::from_micros(5);

/// Long enough to drain every chain: at most 120 hops of at most
/// `1 + MAX_THINK` lookaheads each.
const HORIZON: SimTime = SimTime(40_000_000);
const MAX_THINK: u64 = 50;

/// Relays each hop after the wire latency plus a think time of 0 to
/// `think` extra lookaheads, a fixed function of the hop so every
/// execution waits alike.
struct TestHub {
    think: u64,
    forwarded: u64,
}

impl Actor<TestMsg> for TestHub {
    fn handle(&mut self, _now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
        if let TestMsg::Via { dst, hops } = msg {
            self.forwarded += 1;
            let pause = ((u64::from(hops) * 0x9E37_79B9) >> 7) % (self.think + 1);
            let wait = WIRE.nanos() * (1 + pause);
            ctx.send_in(SimDuration(wait), dst, TestMsg::Tick { hops });
        }
    }
}

fn build(nodes: usize, hops: u32, think: u64) -> (Engine<TestMsg>, ActorId, Vec<ActorId>) {
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
    eng.install(
        hub,
        Box::new(TestHub {
            think,
            forwarded: 0,
        }),
    );
    eng.mark_replicated(hub);
    for (i, &id) in ids.iter().enumerate() {
        // Several chains start at the *same* timestamp so cross-shard
        // ties are common, plus staggered stragglers.
        eng.schedule(SimTime(1), id, TestMsg::Tick { hops });
        eng.schedule(
            SimTime(1 + 3 * (i as u64 % 2)),
            id,
            TestMsg::Tick { hops: hops / 2 },
        );
    }
    (eng, hub, ids)
}

type Fp = (u64, u64, SimTime, u64, Vec<(String, u64, u64)>);

fn fingerprint(eng: &Engine<TestMsg>, hub: ActorId, ids: &[ActorId]) -> Fp {
    let hists = eng
        .recorder()
        .histogram_keys()
        .map(|k| {
            let h = eng.recorder().get_histogram(k).unwrap();
            (k.to_string(), h.count(), h.max())
        })
        .collect();
    let seen: u64 = ids
        .iter()
        .map(|&id| eng.actor::<TestNode>(id).unwrap().seen)
        .sum();
    let forwarded = eng.actor::<TestHub>(hub).unwrap().forwarded;
    (seen, forwarded, eng.now(), eng.events_processed(), hists)
}

fn run_with_partition(nodes: usize, hops: u32, think: u64, partition: &[u16]) -> Fp {
    let (mut eng, hub, ids) = build(nodes, hops, think);
    let shards = (*partition.iter().max().unwrap() + 1).max(2) as usize;
    // The hub's entry stays 0: it belongs to no shard.
    let mut shard_of = vec![0u16; eng.actor_count()];
    for (i, &id) in ids.iter().enumerate() {
        shard_of[id.index()] = partition[i];
    }
    let plan = ShardPlan::new(shard_of, shards);
    let outcome = run_sharded(&mut eng, HORIZON, WIRE, &plan);
    assert_eq!(outcome, RunOutcome::QueueDrained, "horizon must drain");
    fingerprint(&eng, hub, &ids)
}

fn run_sequential(nodes: usize, hops: u32, think: u64) -> Fp {
    let (mut eng, hub, ids) = build(nodes, hops, think);
    let outcome = eng.run_until(HORIZON);
    assert_eq!(outcome, RunOutcome::QueueDrained, "horizon must drain");
    fingerprint(&eng, hub, &ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any partition of nodes onto 2–4 shards (including partitions that
    /// leave a shard empty) reproduces the sequential run bit for bit.
    #[test]
    fn any_partition_matches_sequential(
        nodes in 2usize..8,
        hops in 20u32..120,
        think in 0u64..=MAX_THINK,
        partition_seed in vec(0u16..4, 8..9),
    ) {
        let partition: Vec<u16> = (0..nodes).map(|i| partition_seed[i]).collect();
        let sequential = run_sequential(nodes, hops, think);
        prop_assert!(sequential.0 > 0, "toy world must actually run");
        let parallel = run_with_partition(nodes, hops, think, &partition);
        prop_assert_eq!(sequential, parallel);
    }
}
