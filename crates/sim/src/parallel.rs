//! Conservative parallel discrete-event execution (bounded-lag PDES)
//! with safe-time watermarks, stepped on the calling thread.
//!
//! [`run_sharded`] partitions an [`Engine`]'s actors across shards —
//! each owning its own timing-wheel queue — and steps the shards one at
//! a time, round-robin, each as far as its neighbors' published promises
//! allow. There is no global barrier: shard `s` publishes a
//! monotonically increasing watermark `W_s` (a lower bound on the time
//! of any event it will ever process again) and, per in-neighbor `p`, a
//! floor `excl[s][p]` on its own future processing that leaves out the
//! mail from `p` it has not drained yet. It processes its local events
//! strictly below the smallest bound on future mail from any
//! in-neighbor, where the *lookahead* `L` is a static lower bound on
//! every cross-shard latency. Cross-shard events travel through
//! per-`(src, dst)` mailbox channels with their engine `(time, seq)`
//! keys already assigned and are flushed once per window as a batch
//! (buffers recycle between the two endpoints, so steady state
//! allocates nothing).
//!
//! ## The bound on future mail
//!
//! At the start of a step, shard `s` reads each destination's count of
//! batches drained from `s`, then, for each in-neighbor `p`, `W_p` and
//! `excl[p][s]`. Batches `s` deposited to `p` that the count does not
//! cover are still in flight; `infl` is the earliest key time among
//! them. After draining its own mailboxes, with local head `h`, `s`
//! bounds every key `p` will send it from now on by
//!
//! ```text
//! B_p = max(W_p + L, min(excl[p][s], infl, h + L, min_{q≠p} W_q + 2L) + L)
//! ```
//!
//! (`q` ranging over `s`'s other in-neighbors), processes every event
//! below `min_p B_p`, and then publishes, for each `p`,
//! `excl[s][p] = min(h', min_{q≠p} B_q)` (`h'` its head after the
//! window), its count of batches drained from `p`, and finally
//! `W_s = min(h', min_p B_p)`. On two shards with no third in-neighbor,
//! an idle pair of shards thus jumps straight to the next event instead
//! of passing watermarks forward by `L` per step.
//!
//! ## Leaping idle gaps: the consistent cut
//!
//! With three or more shards, each floor waits on a neighbor's, which
//! waits on a third's, so on their own the promises would crawl forward
//! by about `L` per step across an idle gap. Because one thread steps
//! every shard, the executor can see the whole run at once instead.
//! Once every shard has stepped since an event last ran anywhere, every
//! batch deposited to a shard short of the horizon has been drained,
//! and no shard can run its head. The earliest pending key `T` then
//! precedes every event still to come, and no mail can land before
//! `T + L`, so the executor raises every watermark and floor to `T`.
//! The shard holding `T` runs it on its next step. If `T` lies past the
//! horizon, the run is over.
//!
//! An event at `SimTime::MAX` leaves no lookahead: a send from it
//! saturates back to `SimTime::MAX`. The executor runs such events one at
//! a time, the earliest key first, as the sequential engine does, so an
//! inclusive horizon of `SimTime::MAX` reaches them too.
//!
//! ## Determinism argument
//!
//! A sharded run is bitwise identical to a sequential run because the
//! two assign identical keys to identical events, and key order is the
//! only order either engine honors:
//!
//! 1. **Keys are shard-invariant.** Sequence keys are `lane << 40 |
//!    counter` (see `engine`), and each lane is advanced by exactly one
//!    actor's deterministic handling stream. Since every actor processes
//!    the same events in the same order whichever shard hosts it, every
//!    staged event gets the same key in any execution.
//! 2. **One step at a time.** Only one shard steps at a time, so a step
//!    reads what each neighbor published at the end of its last step,
//!    and drains every batch that neighbor deposited before publishing.
//!    Mail still to come is sent by events the neighbor handles later.
//! 3. **No event is processed early.** Such an event lies at least `L`
//!    before the key it sends. It is at or after `W_p`, which gives the
//!    first term, and it has one of three causes:
//!    * work `p` held when it published `excl[p][s]` — its queue and
//!      every other in-neighbor's undrained mail — at or after that floor;
//!    * a batch from `s` that `p` had not drained when it published, at
//!      or after `infl`: the count and the floor `s` reads come from the
//!      same step of `p`, and every batch the count leaves out feeds
//!      `infl`;
//!    * mail `s` sends from now on, whose key is at or after `h + L` if
//!      it comes from `s`'s queue, `W_q + 2L` if it answers a third
//!      in-neighbor `q`, and `B_p + L` if it answers mail from `p` —
//!      whose own answer then lands past `B_p`.
//!
//!    So a key below some shard's bound needs an earlier key below a
//!    bound first, and the earliest such key cannot exist. (Replicated
//!    actors — the fabric — are the reason node→fabric sends are exempt:
//!    those are same-instant sends to a local replica.) The consistent
//!    cut only raises promises to values every future event respects.
//! 4. **Progress.** After a cut below `SimTime::MAX`, the shard holding
//!    `T` reads at least one raised watermark (its last bound did not
//!    pass `T`, so some `W_p + L ≤ T`) and runs `T`. So of any two
//!    rounds in a row in which every shard steps, one runs an event or
//!    ends the run; otherwise the executor panics with a stall.
//!
//! The caller supplies per-shard replicas of actors that logically exist
//! on every shard (the fabric: pure routing + additive counters) and
//! merges their state afterwards; see `ShardPlan::REPLICATED`.
//!
//! ## Why the shards share one thread
//!
//! Two shards could only overlap while their next events lie within one
//! lookahead of each other. The shipped worlds' lookahead is the 4 µs
//! wire latency, and the densest of them, `big_cluster(256)` on two
//! shards, holds about 0.6 events per lookahead per shard, so on real
//! cores the windows alternate and each handoff crosses cores for
//! nothing (DESIGN.md §12.2). Parallelism pays across independent worlds
//! instead: the chaos search runs each schedule's sequential and sharded
//! legs at once, one world per thread.
//!
//! * [`run_sharded`] steps the shards round-robin.
//! * [`run_sharded_cooperative`] steps them in a caller-chosen order;
//!   any order yields the bitwise-identical result (the equivalence
//!   proptests drive it with random schedules).
//!
//! Windows ignore `Ctx::request_stop` and event budgets — bounded-lag
//! windows must drain deterministically. Worlds driven through the
//! sharded path use plain horizons (all shipped scenarios do).

use std::collections::VecDeque;

use crate::engine::{Actor, ActorId, Engine};
use crate::queue::Entry;
use crate::time::{SimDuration, SimTime};

/// Which shard owns each actor slot, plus the static channel graph the
/// watermark protocol blocks on.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shard_of[actor.index()]`: owning shard, or [`ShardPlan::REPLICATED`].
    pub shard_of: Vec<u16>,
    /// Number of shards.
    pub shards: usize,
    /// Directed shard→shard channels: `channels[s]` lists the shards
    /// that may send cross-shard events *to* shard `s` (its
    /// in-neighbors), sorted ascending. `None` means fully connected —
    /// always safe, at the cost of blocking on every shard's watermark.
    /// A declared graph is enforced at flush time: mail crossing an
    /// undeclared channel panics instead of silently racing the
    /// receiver's clock.
    pub channels: Option<Vec<Vec<u16>>>,
}

impl ShardPlan {
    /// Marks an actor that exists once per shard instead of being owned.
    pub const REPLICATED: u16 = u16::MAX;

    /// A plan with a fully-connected channel graph.
    pub fn new(shard_of: Vec<u16>, shards: usize) -> Self {
        ShardPlan {
            shard_of,
            shards,
            channels: None,
        }
    }

    /// Derive the shard channel graph from actor-level communication
    /// edges (pairs of actor indices that may exchange events, in either
    /// direction). Edges touching replicated or same-shard actors are
    /// local and create no channel. The edge list must cover every pair
    /// that can actually exchange events; mail outside the derived graph
    /// panics the run.
    pub fn derive_channels(&mut self, edges: &[(usize, usize)]) {
        let s = self.shards;
        let mut adj = vec![false; s * s];
        for &(a, b) in edges {
            let (Some(&sa), Some(&sb)) = (self.shard_of.get(a), self.shard_of.get(b)) else {
                continue;
            };
            if sa == Self::REPLICATED || sb == Self::REPLICATED || sa == sb {
                continue;
            }
            // Connections carry traffic both ways (requests one way,
            // completions the other), so channels are symmetric.
            adj[sa as usize * s + sb as usize] = true;
            adj[sb as usize * s + sa as usize] = true;
        }
        self.channels = Some(
            (0..s)
                .map(|dst| {
                    (0..s)
                        .filter(|&src| src != dst && adj[dst * s + src])
                        .map(|src| src as u16)
                        .collect()
                })
                .collect(),
        );
    }

    /// Greedy communication-affinity partition: split `n` items into
    /// `shards` balanced groups, keeping heavily-chattering items (ring
    /// or rack neighbors) together so most traffic never crosses a
    /// mailbox. `edges` are undirected `(a, b, weight)` chatter edges
    /// over item indices. Deterministic: ties break toward the heaviest
    /// total chatter, then the lowest index.
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

/// One directed `(src, dst)` mailbox channel. Senders deposit whole
/// per-window batches; receivers drain them and hand the emptied buffers
/// back through `spare`, so steady state recycles the same few `Vec`s
/// forever instead of allocating per window (let alone per event).
struct MailChannel<M> {
    /// Deposited batches awaiting the receiver.
    full: Vec<Vec<Entry<M>>>,
    /// Drained buffers awaiting reuse by the sender.
    spare: Vec<Vec<Entry<M>>>,
}

/// What every shard of one run publishes to the others.
struct Shared<M> {
    /// `watermarks[s]`: shard `s`'s published safe-time floor. Monotone.
    watermarks: Vec<u64>,
    /// `excl[s * shards + p]`: shard `s`'s floor on its own future
    /// processing, leaving out the mail from `p` it has not drained.
    excl: Vec<u64>,
    /// `drained[s * shards + p]`: batches shard `s` has drained from `p`.
    drained: Vec<u64>,
    /// `chans[dst][src]`: the directed mailbox channel src→dst.
    chans: Vec<Vec<MailChannel<M>>>,
    /// `in_nbrs[s]`: shards whose mail bounds `s`'s window.
    in_nbrs: Vec<Vec<usize>>,
    /// `out_ok[src * shards + dst]`: channel declared by the plan.
    out_ok: Vec<bool>,
    lookahead: u64,
    /// The last instant the run processes (inclusive).
    horizon: u64,
}

/// Shard `s`'s view of one in-neighbor `p`.
struct InLink {
    p: usize,
    /// Batches drained from `p` so far.
    drained: u64,
    /// This step's read of `W_p`.
    wm: u64,
    /// This step's `min(excl[p][s], infl)`.
    floor: u64,
    /// This step's bound on the keys of mail from `p` still to come.
    bound: u64,
}

/// Shard `s`'s side of the channel to one destination.
struct OutLink<M> {
    /// Staging buffer for the current window's flush.
    outbox: Vec<Entry<M>>,
    /// Batches deposited so far.
    sent: u64,
    /// Earliest key of each deposited batch the destination has not yet
    /// counted as drained, oldest first.
    unacked: VecDeque<u64>,
}

/// Per-shard bookkeeping.
struct ShardWorker<M> {
    s: usize,
    ins: Vec<InLink>,
    /// Indexed by destination shard.
    outs: Vec<OutLink<M>>,
    /// The local head the last bounds were computed with.
    head: Option<u64>,
}

impl<M> ShardWorker<M> {
    fn new(s: usize, sh: &Shared<M>) -> Self {
        let start = sh.watermarks[s];
        ShardWorker {
            s,
            ins: sh.in_nbrs[s]
                .iter()
                .map(|&p| InLink {
                    p,
                    drained: 0,
                    wm: start,
                    floor: start,
                    bound: start,
                })
                .collect(),
            outs: (0..sh.watermarks.len())
                .map(|_| OutLink {
                    outbox: Vec::new(),
                    sent: 0,
                    unacked: VecDeque::new(),
                })
                .collect(),
            head: None,
        }
    }
}

/// `min over j ≠ i of vals[j]` for every `i`, from one pass over `vals`.
struct MinBut {
    least: u64,
    at: usize,
    next: u64,
}

impl MinBut {
    fn of(vals: impl Iterator<Item = u64>) -> Self {
        let mut m = MinBut {
            least: u64::MAX,
            at: usize::MAX,
            next: u64::MAX,
        };
        for (i, v) in vals.enumerate() {
            if v < m.least {
                (m.next, m.least, m.at) = (m.least, v, i);
            } else if v < m.next {
                m.next = v;
            }
        }
        m
    }

    fn but(&self, i: usize) -> u64 {
        if i == self.at {
            self.next
        } else {
            self.least
        }
    }
}

/// What one step did.
enum Progress {
    /// Nothing new: no mail, no events, no promise raised.
    Idle,
    /// Mail drained or a promise raised, but no event ran.
    Moved,
    /// Events ran.
    Ran,
}

/// One protocol step for shard `s`: read the neighbors' promises, drain
/// inbound mail, bound the mail still to come, process the safe window,
/// flush outbound batches, and republish (see the module docs).
fn step<M: 'static>(
    se: &mut Engine<M>,
    w: &mut ShardWorker<M>,
    sh: &mut Shared<M>,
    shard_of: &[u16],
) -> Progress {
    let (s, shards, l) = (w.s, sh.watermarks.len(), sh.lookahead);
    if sh.watermarks[s] > sh.horizon {
        return Progress::Idle;
    }
    // Retire the batches each destination has counted as drained.
    for (d, out) in w.outs.iter_mut().enumerate() {
        if !out.unacked.is_empty() {
            let pending = (out.sent - sh.drained[d * shards + s]) as usize;
            out.unacked.drain(..out.unacked.len() - pending);
        }
    }
    let mut changed = false;
    for link in w.ins.iter_mut() {
        let wm = sh.watermarks[link.p];
        let excl = sh.excl[link.p * shards + s];
        let infl = w.outs[link.p].unacked.iter().copied().min();
        let floor = excl.min(infl.unwrap_or(u64::MAX));
        changed |= (wm, floor) != (link.wm, link.floor);
        (link.wm, link.floor) = (wm, floor);
    }
    let mut moved = false;
    for link in w.ins.iter_mut() {
        let ch = &mut sh.chans[s][link.p];
        while let Some(mut batch) = ch.full.pop() {
            for entry in batch.drain(..) {
                se.inject_entry(entry);
            }
            ch.spare.push(batch);
            link.drained += 1;
            moved = true;
        }
    }
    let head = se.peek_head().map_or(u64::MAX, |(t, _)| t.0);
    // The same reads, no mail and the same head would recompute the last
    // step's bounds and publish nothing new.
    if !moved && !changed && w.head == Some(head) {
        return Progress::Idle;
    }
    w.head = Some(head);
    // Mail from `p` answers work `p` holds, batches in flight to it, mail
    // this shard sends from its queue (`head + L`), or mail a third
    // in-neighbor `q` sends here first (`W_q + 2L`).
    let third = MinBut::of(w.ins.iter().map(|link| link.wm.saturating_add(2 * l)));
    for (i, link) in w.ins.iter_mut().enumerate() {
        let cause = link.floor.min(head.saturating_add(l)).min(third.but(i));
        link.bound = link.wm.max(cause).saturating_add(l);
    }
    let bounds = MinBut::of(w.ins.iter().map(|link| link.bound));
    // Every bound is at least `L`, and `u64::MAX` (no in-neighbor, or a
    // saturated bound) leaves `SimTime::MAX` to the consistent cut.
    let last = (bounds.least - 1).min(sh.horizon);
    let ran = head <= last;
    if ran {
        se.run_window(SimTime(last));
        flush(se, w, sh, shard_of);
    }
    // Republish. Each floor leaves out only its own neighbor's undrained
    // mail.
    let head_after = se.peek_head().map_or(u64::MAX, |(t, _)| t.0);
    for (i, link) in w.ins.iter().enumerate() {
        let at = s * shards + link.p;
        let excl = head_after.min(bounds.but(i));
        moved |= excl != sh.excl[at];
        sh.excl[at] = excl;
        sh.drained[at] = link.drained;
    }
    // The watermark floors everything this shard can still process, and
    // only ever rises, whatever the head does.
    let wm = bounds.least.min(head_after);
    if wm > sh.watermarks[s] {
        sh.watermarks[s] = wm;
        moved = true;
    }
    if ran {
        Progress::Ran
    } else if moved {
        Progress::Moved
    } else {
        Progress::Idle
    }
}

/// Hand the cross-shard output of `s`'s window to its destinations, one
/// batch per channel.
fn flush<M: 'static>(
    se: &mut Engine<M>,
    w: &mut ShardWorker<M>,
    sh: &mut Shared<M>,
    shard_of: &[u16],
) {
    let (s, shards) = (w.s, sh.watermarks.len());
    for entry in se.take_foreign() {
        let dst = shard_of[entry.dst.index()] as usize;
        w.outs[dst].outbox.push(entry);
    }
    for (dst, out) in w.outs.iter_mut().enumerate() {
        let Some(first) = out.outbox.iter().map(|e| e.time.0).min() else {
            continue;
        };
        assert!(
            sh.out_ok[s * shards + dst],
            "cross-shard event outside the declared channel graph \
             (shard {s} -> shard {dst}); the plan's channel edges must \
             cover every communicating pair"
        );
        let ch = &mut sh.chans[dst][s];
        let replacement = ch.spare.pop().unwrap_or_default();
        ch.full
            .push(std::mem::replace(&mut out.outbox, replacement));
        out.sent += 1;
        out.unacked.push_back(first);
    }
}

/// What a consistent cut found.
enum Cut {
    /// Nothing is pending at or before the horizon.
    Finished,
    /// Every promise was raised to the earliest pending key.
    Raised,
    /// The earliest event, at `SimTime::MAX`, ran alone on this shard.
    Ran(usize),
}

/// A run split into shards: their engines and bookkeeping, what they
/// publish to each other, and what returns home at the rejoin.
struct SplitRun<M> {
    shard_engines: Vec<Engine<M>>,
    workers: Vec<ShardWorker<M>>,
    replicated_originals: Vec<(ActorId, Box<dyn Actor<M>>)>,
    base_recorder: crate::metrics::Recorder,
    shared: Shared<M>,
    replicas: Vec<ReplicaSet<M>>,
}

impl<M: 'static> SplitRun<M> {
    /// The consistent cut (module docs). Valid only once every shard has
    /// stepped since an event last ran.
    fn cut(&mut self, shard_of: &[u16]) -> Cut {
        let mut earliest: Option<((SimTime, u64), usize)> = None;
        for (s, se) in self.shard_engines.iter_mut().enumerate() {
            if let Some(key) = se.peek_head() {
                if earliest.is_none_or(|(least, _)| key < least) {
                    earliest = Some((key, s));
                }
            }
        }
        let sh = &mut self.shared;
        let Some(((t, _), q)) = earliest.filter(|((t, _), _)| t.0 <= sh.horizon) else {
            return Cut::Finished;
        };
        if t == SimTime::MAX {
            let se = &mut self.shard_engines[q];
            se.run_next();
            flush(se, &mut self.workers[q], sh, shard_of);
            return Cut::Ran(q);
        }
        for promise in sh.watermarks.iter_mut().chain(sh.excl.iter_mut()) {
            *promise = (*promise).max(t.0);
        }
        Cut::Raised
    }
}

fn validate<M: 'static>(eng: &Engine<M>, lookahead: SimDuration, plan: &ShardPlan) {
    assert!(plan.shards >= 2, "run_sharded needs at least two shards");
    assert!(
        lookahead > SimDuration::ZERO,
        "zero lookahead cannot overlap shards; run sequentially instead"
    );
    assert_eq!(plan.shard_of.len(), eng.actor_count());
    if let Some(channels) = &plan.channels {
        assert_eq!(channels.len(), plan.shards, "one channel row per shard");
    }
}

/// Phases 0 and 1: drain the current instant sequentially (so every
/// lazily-interned metric id exists before the recorders fork), then
/// split the engine into per-shard engines and build the shared state.
fn split_shards<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
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

    // Shared protocol state. Watermarks and floors start at the fork
    // instant: a valid floor, since phase 0 drained everything at or
    // below it.
    let in_nbrs: Vec<Vec<usize>> = match &plan.channels {
        Some(channels) => channels
            .iter()
            .map(|row| row.iter().map(|&p| p as usize).collect())
            .collect(),
        None => (0..shards)
            .map(|s| (0..shards).filter(|&p| p != s).collect())
            .collect(),
    };
    let mut out_ok = vec![false; shards * shards];
    for (dst, row) in in_nbrs.iter().enumerate() {
        for &src in row {
            out_ok[src * shards + dst] = true;
        }
    }
    let start = eng.now().0;
    let shared = Shared {
        watermarks: vec![start; shards],
        excl: vec![start; shards * shards],
        drained: vec![0; shards * shards],
        chans: (0..shards)
            .map(|_| {
                (0..shards)
                    .map(|_| MailChannel {
                        full: Vec::new(),
                        spare: Vec::new(),
                    })
                    .collect()
            })
            .collect(),
        in_nbrs,
        out_ok,
        lookahead: lookahead.nanos(),
        horizon: horizon.0,
    };
    let workers = (0..shards).map(|s| ShardWorker::new(s, &shared)).collect();
    SplitRun {
        shard_engines,
        workers,
        replicated_originals,
        base_recorder,
        shared,
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
        shared,
        replicas,
        ..
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
    // Mail can legally outlive a receiver: a shard stops stepping once no
    // event at or before the horizon can reach it, so anything still in
    // its channels lies beyond the horizon and re-merges as pending work.
    for ch in shared.chans.into_iter().flatten() {
        for entry in ch.full.into_iter().flatten() {
            assert!(
                entry.time > horizon,
                "mail at or below the horizon left undelivered"
            );
            eng.inject_entry(entry);
        }
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
/// to `eng.run_until(horizon)`, stepping the shards round-robin on the
/// calling thread. See the module docs for the protocol.
///
/// `replicas` carries the per-shard instances of every actor the plan
/// marks [`ShardPlan::REPLICATED`]; the same sets (with whatever state
/// the window left in them) are returned for the caller to merge.
///
/// # Panics
/// Panics if `lookahead` is zero, `plan.shards < 2`, an event addressed
/// to a replicated actor is pending at the boundary, a cross-shard event
/// crosses a channel the plan does not declare, the protocol stalls, or
/// a shard interns new metric keys mid-window (see
/// [`Recorder::merge_shard_deltas`](crate::metrics::Recorder::merge_shard_deltas)).
/// A panicking actor's own panic propagates unchanged.
pub fn run_sharded<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> Vec<ReplicaSet<M>> {
    let mut next = 0usize;
    run_sharded_cooperative(eng, horizon, lookahead, plan, replicas, move |_| {
        next = next.wrapping_add(1);
        next - 1
    })
}

/// [`run_sharded`] with the shard order chosen by `pick` (its return
/// value is taken modulo the shard count). Any pick sequence produces
/// the bitwise-identical result. A sequence that starves a shard is
/// overridden until every shard has stepped, and a round of steps that
/// runs no event right after a consistent cut panics as a stall (it
/// would mean the channel graph under-approximates real traffic).
pub fn run_sharded_cooperative<M: 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
    mut pick: impl FnMut(usize) -> usize,
) -> Vec<ReplicaSet<M>> {
    validate(eng, lookahead, plan);
    let mut run = split_shards(eng, horizon, lookahead, plan, replicas);
    let shards = plan.shards;
    // `quiet[s]`: shard `s` has stepped since an event last ran anywhere.
    let mut quiet = vec![false; shards];
    let mut after_cut = false;
    let mut stalled = 0usize;
    loop {
        let s = if stalled > 4 * shards + 16 {
            // The pick sequence may be starving a shard: step the shards
            // that have not stepped since the last event.
            quiet.iter().position(|&q| !q).unwrap_or(0)
        } else {
            pick(shards) % shards
        };
        let mut ran = None;
        let (se, w) = (&mut run.shard_engines[s], &mut run.workers[s]);
        match step(se, w, &mut run.shared, &plan.shard_of) {
            Progress::Ran => ran = Some(s),
            Progress::Moved => stalled = 0,
            Progress::Idle => stalled += 1,
        }
        if ran.is_none() {
            quiet[s] = true;
            if quiet.iter().all(|&q| q) {
                assert!(
                    !after_cut,
                    "watermark executor stalled: no shard can advance \
                     (incomplete channel graph?)"
                );
                match run.cut(&plan.shard_of) {
                    Cut::Finished => break,
                    Cut::Ran(q) => ran = Some(q),
                    Cut::Raised => {
                        quiet.fill(false);
                        after_cut = true;
                        stalled = 0;
                    }
                }
            }
        }
        if let Some(q) = ran {
            // The shard that ran drained its mail first, and nothing has
            // been deposited for it since.
            quiet.fill(false);
            quiet[q] = true;
            after_cut = false;
            stalled = 0;
        }
    }
    rejoin(eng, horizon, plan, run)
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

    /// A ring of `nodes` nodes around one replicated hub, nothing
    /// scheduled yet.
    fn ring(nodes: u32) -> (Engine<TestMsg>, ActorId) {
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
                wire: WIRE,
                forwarded: 0,
            }),
        );
        eng.mark_replicated(hub);
        (eng, hub)
    }

    fn build(nodes: u32) -> (Engine<TestMsg>, ActorId) {
        let (mut eng, hub) = ring(nodes);
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
    /// lookahead after the wake and the next a second one later: exactly
    /// on the exclusive bound `head + 2L` of the waker's window.
    fn build_sparse(nodes: u32) -> (Engine<TestMsg>, ActorId) {
        let (mut eng, hub) = ring(nodes);
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

    /// The toy world's ring plan: node `i` pings node `i + 1`, so the
    /// actor chatter edges are the ring pairs (the hub is replicated and
    /// contributes no channel).
    fn ring_plan(nodes: u32, shards: usize, hub: ActorId, derive: bool) -> ShardPlan {
        let mut shard_of = vec![0u16; 1 + nodes as usize];
        shard_of[hub.index()] = ShardPlan::REPLICATED;
        for i in 0..nodes as usize {
            shard_of[1 + i] = (i % shards) as u16;
        }
        let mut plan = ShardPlan::new(shard_of, shards);
        if derive {
            let edges: Vec<(usize, usize)> = (0..nodes as usize)
                .map(|i| (1 + i, 1 + (i + 1) % nodes as usize))
                .collect();
            plan.derive_channels(&edges);
        }
        plan
    }

    fn hub_replicas(shards: usize, hub: ActorId) -> Vec<ReplicaSet<TestMsg>> {
        vec![ReplicaSet {
            id: hub,
            replicas: (0..shards)
                .map(|_| {
                    Box::new(TestHub {
                        wire: WIRE,
                        forwarded: 0,
                    }) as Box<dyn Actor<TestMsg>>
                })
                .collect(),
        }]
    }

    fn run_parallel(
        nodes: u32,
        shards: usize,
        horizon: SimTime,
        derive: bool,
    ) -> (u64, SimTime, Vec<(String, u64, u64)>, u64) {
        let (mut eng, hub) = build(nodes);
        let plan = ring_plan(nodes, shards, hub, derive);
        let back = run_sharded(&mut eng, horizon, WIRE, &plan, hub_replicas(shards, hub));
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
            for derive in [false, true] {
                let (p_seen, p_now, p_hists, _fw) = run_parallel(6, shards, horizon, derive);
                assert_eq!(p_seen, seen, "{shards} shards diverged");
                assert_eq!(p_now, now);
                assert_eq!(p_hists, hists, "{shards} shards: histograms diverged");
            }
        }
        assert!(seq_events > 10_000, "world must actually run");
    }

    #[test]
    fn skewed_cooperative_schedules_agree() {
        // Heavily biased pick sequences (one shard stepped 7× more than
        // the rest) still converge to the sequential fingerprint; the
        // anti-starvation sweep covers shards the sequence neglects.
        let horizon = SimTime(15_000_000);
        let (mut seq_eng, _) = build(4);
        seq_eng.run_until(horizon);
        let (seen, now, hists) = fingerprint(&seq_eng, 4);
        let (mut eng, hub) = build(4);
        let plan = ring_plan(4, 2, hub, true);
        let mut n = 0usize;
        run_sharded_cooperative(
            &mut eng,
            horizon,
            WIRE,
            &plan,
            hub_replicas(2, hub),
            move |_| {
                n += 1;
                if n.is_multiple_of(8) {
                    1
                } else {
                    0
                }
            },
        );
        let (p_seen, p_now, p_hists) = fingerprint(&eng, 4);
        assert_eq!((p_seen, p_now, p_hists), (seen, now, hists));
    }

    /// A world whose ring really does cross shards, under a declared
    /// channel graph with no channels at all.
    fn undeclared_world() -> (Engine<TestMsg>, ActorId, ShardPlan) {
        let (eng, hub) = build(4);
        let mut plan = ring_plan(4, 2, hub, false);
        plan.channels = Some(vec![Vec::new(), Vec::new()]);
        (eng, hub, plan)
    }

    #[test]
    #[should_panic(expected = "outside the declared channel graph")]
    fn undeclared_channel_panics() {
        // The first cross-shard flush must die loudly rather than let the
        // receiver's clock race the mail.
        let (mut eng, hub, plan) = undeclared_world();
        let _ = run_sharded(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub),
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
        let plan = ring_plan(4, 2, hub, true);
        let _ = run_sharded(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub),
        );
    }

    #[test]
    fn sparse_traffic_leaps_idle_gaps() {
        // Crawling the 10 ms gaps 5 µs at a time would take ~200k steps
        // per shard. Two shards leap on their floors, three or more on
        // the consistent cut.
        let horizon = SimTime(1_000_000_000);
        for shards in [2usize, 3, 4] {
            let nodes = shards as u32;
            let (mut seq_eng, _) = build_sparse(nodes);
            seq_eng.run_until(horizon);
            let expected = fingerprint(&seq_eng, nodes);
            let events = seq_eng.events_processed();
            assert_eq!(expected.0, 300 * nodes as u64, "every wake pings twice");

            let (mut eng, hub) = build_sparse(nodes);
            let plan = ring_plan(nodes, shards, hub, true);
            let mut picks = 0u64;
            run_sharded_cooperative(
                &mut eng,
                horizon,
                WIRE,
                &plan,
                hub_replicas(shards, hub),
                |_| {
                    picks += 1;
                    picks as usize
                },
            );
            assert_eq!(fingerprint(&eng, nodes), expected, "{shards} shards");
            assert!(
                picks <= shards as u64 * events + 16,
                "{shards} shards: {picks} cooperative steps for {events} events"
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
        let (mut seq_eng, _) = ring(2);
        schedule(&mut seq_eng);
        seq_eng.run_until(SimTime::MAX);
        let expected = (seq_eng.events_processed(), seq_eng.queue_len());
        assert_eq!(expected, (8, 0));
        for cooperative in [false, true] {
            let (mut eng, hub) = ring(2);
            schedule(&mut eng);
            let plan = ring_plan(2, 2, hub, true);
            let replicas = hub_replicas(2, hub);
            if cooperative {
                let mut n = 0usize;
                run_sharded_cooperative(&mut eng, SimTime::MAX, WIRE, &plan, replicas, |_| {
                    n += 3;
                    n / 2
                });
            } else {
                run_sharded(&mut eng, SimTime::MAX, WIRE, &plan, replicas);
            }
            assert_eq!((eng.events_processed(), eng.queue_len()), expected);
            assert_eq!(fingerprint(&eng, 2), fingerprint(&seq_eng, 2));
        }
    }

    #[test]
    fn replica_state_returns_for_merging() {
        let horizon = SimTime(10_000_000);
        let (mut seq_eng, hub) = build(4);
        seq_eng.run_until(horizon);
        let seq_fw = seq_eng.actor::<TestHub>(hub).unwrap().forwarded;
        let (_, _, _, fw) = run_parallel(4, 2, horizon, true);
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
        let plan = ring_plan(4, 2, hub, true);
        let _back = run_sharded(&mut b, horizon, WIRE, &plan, hub_replicas(2, hub));
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
