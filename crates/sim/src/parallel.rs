//! Conservative parallel discrete-event execution (bounded-lag PDES)
//! with asynchronous safe-time watermarks.
//!
//! [`run_sharded`] partitions an [`Engine`]'s actors across worker
//! shards — each owning its own timing-wheel queue — and lets every
//! shard advance *independently* as far as its neighbors' published
//! promises allow. There is no global barrier: shard `s` publishes a
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
//! `excl[p][s]` (all Acquire). Batches `s` deposited to `p` that the
//! count does not cover are still in flight; `infl` is the earliest key
//! time among them. After draining its own mailboxes, with local head
//! `h`, `s` bounds every key `p` will send it from now on by
//!
//! ```text
//! B_p = max(W_p + L, min(excl[p][s], infl, h + L, min_{q≠p} W_q + 2L) + L)
//! ```
//!
//! (`q` ranging over `s`'s other in-neighbors), processes every event
//! below `min_p B_p`, and then publishes, for each `p`,
//! `excl[s][p] = min(h', min_{q≠p} B_q)` (`h'` its head after the
//! window) *before* its count of batches drained from `p`, and finally
//! `W_s = min(h', min_p B_p)` (all Release). On two shards with no
//! third in-neighbor, an idle pair of shards thus jumps straight to the
//! next event instead of passing watermarks forward by `L` per step.
//!
//! ## Determinism argument
//!
//! A parallel run is bitwise identical to a sequential run because the
//! two assign identical keys to identical events, and key order is the
//! only order either engine honors:
//!
//! 1. **Keys are shard-invariant.** Sequence keys are `lane << 40 |
//!    counter` (see `engine`), and each lane is advanced by exactly one
//!    actor's deterministic handling stream. Since every actor processes
//!    the same events in the same order whichever shard hosts it, every
//!    staged event gets the same key in any execution.
//! 2. **Visibility.** A shard publishes only after depositing its
//!    window's mail, and reads its neighbors' values before draining. A
//!    read of `W_p` or `excl[p][s]` synchronizes with `p`'s store, so
//!    every batch `p` deposited before that store is drained in this
//!    step; mail still to come is sent by events `p` handles after both
//!    stores.
//! 3. **No event is processed early.** Such an event lies at least `L`
//!    before the key it sends. It is at or after `W_p`, which gives the
//!    first term, and it has one of three causes:
//!    * work `p` held at the `excl` store — its queue and every other
//!      in-neighbor's undrained mail — at or after `excl[p][s]`;
//!    * a batch from `s` that `p` had not drained at that store, at or
//!      after `infl`. The count is stored after the floor and loaded
//!      before it, so the floor read is at least as new as the count
//!      read, and every batch the count leaves out feeds `infl`;
//!    * mail `s` sends from now on, whose key is at or after `h + L` if
//!      it comes from `s`'s queue, `W_q + 2L` if it answers a third
//!      in-neighbor `q`, and `B_p + L` if it answers mail from `p` —
//!      whose own answer then lands past `B_p`.
//!
//!    So a key below some shard's bound needs an earlier key below a
//!    bound first, and the earliest such key cannot exist. (Replicated
//!    actors — the fabric — are the reason node→fabric sends are exempt:
//!    those are same-instant sends to a local replica.)
//! 4. **Progress.** `B_p ≥ W_p + L`, so suppose every shard is stuck:
//!    each `W_s` equals `min_p(W_p) + L`. The globally minimal
//!    watermark would then have to exceed itself by `L > 0` — a
//!    contradiction — so some shard can always either raise its
//!    watermark or process its head event.
//!
//! The caller supplies per-shard replicas of actors that logically exist
//! on every shard (the fabric: pure routing + additive counters) and
//! merges their state afterwards; see `ShardPlan::REPLICATED`.
//!
//! ## Execution modes
//!
//! * [`run_sharded`] — picks the driver for the host: one worker thread
//!   per shard when more than one core is available, otherwise the
//!   cooperative driver (one core cannot overlap shards; preemptive
//!   interleaving would only add context switches to the identical
//!   protocol). If an actor panics on a worker thread, the other workers
//!   stop and the original panic is re-raised on the calling thread.
//! * [`run_sharded_cooperative`] — steps shards one at a time on the
//!   calling thread in an arbitrary caller-chosen order; any order
//!   yields the bitwise-identical result (the equivalence proptests
//!   drive this with random schedules).
//!
//! Both drivers run the same step, so both leap idle gaps the same way.
//! Windows ignore `Ctx::request_stop` and event budgets — bounded-lag
//! windows must drain deterministically. Worlds driven through the
//! parallel path use plain horizons (all shipped scenarios do).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{Actor, ActorId, Engine};
use crate::queue::Entry;
use crate::time::{SimDuration, SimTime};

/// Which shard owns each actor slot, plus the static channel graph the
/// watermark protocol blocks on.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shard_of[actor.index()]`: owning shard, or [`ShardPlan::REPLICATED`].
    pub shard_of: Vec<u16>,
    /// Number of shards (worker threads).
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
    /// Cheap "anything deposited?" probe so idle polls skip the lock.
    has_mail: AtomicBool,
    slot: Mutex<MailSlot<M>>,
}

struct MailSlot<M> {
    /// Deposited batches awaiting the receiver.
    full: Vec<Vec<Entry<M>>>,
    /// Drained buffers awaiting reuse by the sender.
    spare: Vec<Vec<Entry<M>>>,
}

impl<M> MailChannel<M> {
    fn fresh() -> Self {
        MailChannel {
            has_mail: AtomicBool::new(false),
            slot: Mutex::new(MailSlot {
                full: Vec::new(),
                spare: Vec::new(),
            }),
        }
    }
}

/// State shared by every shard of one parallel run.
struct Shared<M> {
    /// `watermarks[s]`: shard `s`'s published safe-time floor. Monotone.
    watermarks: Vec<AtomicU64>,
    /// `excl[s * shards + p]`: shard `s`'s floor on its own future
    /// processing, leaving out the mail from `p` it has not drained.
    excl: Vec<AtomicU64>,
    /// `drained[s * shards + p]`: batches shard `s` has drained from `p`.
    /// Always stored after the `excl` entry that accounts for them.
    drained: Vec<AtomicU64>,
    /// `chans[dst][src]`: the directed mailbox channel src→dst.
    chans: Vec<Vec<MailChannel<M>>>,
    /// `in_nbrs[s]`: shards whose mail bounds `s`'s window.
    in_nbrs: Vec<Vec<usize>>,
    /// `out_ok[src * shards + dst]`: channel declared by the plan.
    out_ok: Vec<bool>,
    lookahead: u64,
    /// Exclusive event-time bound (`horizon + 1`).
    bound: u64,
    /// The first shard whose worker panicked, or [`NO_ABORT`]. Workers
    /// stop stepping once it is set.
    abort: AtomicUsize,
}

const NO_ABORT: usize = usize::MAX;

/// Shard `s`'s view of one in-neighbor `p` (thread-private).
struct InLink {
    p: usize,
    /// Batches drained from `p` so far.
    drained: u64,
    /// The drained count last published to `p`.
    acked: u64,
    /// The floor last published to `p`.
    excl: u64,
    /// This step's read of `W_p`.
    wm: u64,
    /// This step's `min(excl[p][s], infl)`.
    floor: u64,
    /// This step's bound on the keys of mail from `p` still to come.
    bound: u64,
}

/// Shard `s`'s side of the channel to one destination (thread-private).
struct OutLink<M> {
    /// Staging buffer for the current window's flush.
    outbox: Vec<Entry<M>>,
    /// Batches deposited so far.
    sent: u64,
    /// Earliest key of each deposited batch the destination has not yet
    /// counted as drained, oldest first.
    unacked: VecDeque<u64>,
}

/// Per-shard worker bookkeeping (thread-private).
struct ShardWorker<M> {
    s: usize,
    ins: Vec<InLink>,
    /// Indexed by destination shard.
    outs: Vec<OutLink<M>>,
    /// Last published watermark (avoids redundant stores).
    watermark: u64,
    /// The local head the last bounds were computed with.
    head: Option<u64>,
    done: bool,
}

impl<M> ShardWorker<M> {
    fn new(s: usize, sh: &Shared<M>) -> Self {
        let start = sh.watermarks[s].load(Ordering::Relaxed);
        ShardWorker {
            s,
            ins: sh.in_nbrs[s]
                .iter()
                .map(|&p| InLink {
                    p,
                    drained: 0,
                    acked: 0,
                    excl: start,
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
            watermark: start,
            head: None,
            done: false,
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

/// One protocol step for shard `s`: read the neighbors' promises, drain
/// inbound mail, bound the mail still to come, process the safe window,
/// flush outbound batches, and republish (see the module docs). Returns
/// whether anything changed: mail drained, events run, or a promise
/// raised.
fn step<M: Send + 'static>(
    se: &mut Engine<M>,
    w: &mut ShardWorker<M>,
    sh: &Shared<M>,
    shard_of: &[u16],
) -> bool {
    if w.done {
        return false;
    }
    let (s, shards, l) = (w.s, sh.watermarks.len(), sh.lookahead);
    // Retire the batches each destination has counted as drained. Every
    // count is loaded before the floor it pairs with below.
    for (d, out) in w.outs.iter_mut().enumerate() {
        if !out.unacked.is_empty() {
            let acked = sh.drained[d * shards + s].load(Ordering::Acquire);
            let pending = (out.sent - acked) as usize;
            out.unacked.drain(..out.unacked.len() - pending);
        }
    }
    // Read promises *before* draining mail: the Acquire loads
    // synchronize with the neighbor's Release publishes, so every batch
    // deposited before the values we read is visible to the drain below.
    let mut changed = false;
    for link in w.ins.iter_mut() {
        let wm = sh.watermarks[link.p].load(Ordering::Acquire);
        let excl = sh.excl[link.p * shards + s].load(Ordering::Acquire);
        let infl = w.outs[link.p].unacked.iter().copied().min();
        let floor = excl.min(infl.unwrap_or(u64::MAX));
        changed |= (wm, floor) != (link.wm, link.floor);
        (link.wm, link.floor) = (wm, floor);
    }
    let mut advanced = false;
    for link in w.ins.iter_mut() {
        let ch = &sh.chans[s][link.p];
        if !ch.has_mail.load(Ordering::Relaxed) || !ch.has_mail.swap(false, Ordering::Acquire) {
            continue;
        }
        let mut slot = ch.slot.lock().expect("mail channel poisoned");
        while let Some(mut batch) = slot.full.pop() {
            for entry in batch.drain(..) {
                se.inject_entry(entry);
            }
            slot.spare.push(batch);
            link.drained += 1;
            advanced = true;
        }
    }
    let head = se.peek_head().map_or(u64::MAX, |(t, _)| t.0);
    // The same reads, no mail and the same head would recompute the last
    // step's bounds and publish nothing new: a spinning shard stops here.
    if !advanced && !changed && w.head == Some(head) {
        return false;
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
    let safe = bounds.least.min(sh.bound);
    if head < safe {
        se.run_window(SimTime(safe));
        advanced = true;
        // Flush cross-shard output as one batch per (src, dst, window).
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
            let ch = &sh.chans[dst][s];
            let mut slot = ch.slot.lock().expect("mail channel poisoned");
            let replacement = slot.spare.pop().unwrap_or_default();
            let batch = std::mem::replace(&mut out.outbox, replacement);
            slot.full.push(batch);
            drop(slot);
            ch.has_mail.store(true, Ordering::Release);
            out.sent += 1;
            out.unacked.push_back(first);
        }
    }
    // Republish. Each floor leaves out only its own neighbor's undrained
    // mail, and goes out before the drained count it accounts for.
    let head_after = se.peek_head().map_or(u64::MAX, |(t, _)| t.0);
    for (i, link) in w.ins.iter_mut().enumerate() {
        let at = s * shards + link.p;
        let excl = head_after.min(bounds.but(i));
        if excl != link.excl {
            link.excl = excl;
            sh.excl[at].store(excl, Ordering::Release);
            advanced = true;
        }
        if link.drained != link.acked {
            link.acked = link.drained;
            sh.drained[at].store(link.drained, Ordering::Release);
        }
    }
    // The watermark floors everything this shard can still process; the
    // max() keeps the promise monotone across head fluctuations.
    let wm = bounds.least.min(head_after).max(w.watermark);
    if wm > w.watermark {
        w.watermark = wm;
        sh.watermarks[s].store(wm, Ordering::Release);
        advanced = true;
    }
    if wm >= sh.bound {
        w.done = true;
    }
    advanced
}

/// Everything [`run_sharded`]'s phases share, independent of how the
/// shard loop is driven.
struct SplitRun<M> {
    shard_engines: Vec<Engine<M>>,
    replicated_originals: Vec<(ActorId, Box<dyn Actor<M>>)>,
    base_recorder: crate::metrics::Recorder,
    shared: Shared<M>,
    replicas: Vec<ReplicaSet<M>>,
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
fn split_shards<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    mut replicas: Vec<ReplicaSet<M>>,
) -> SplitRun<M> {
    let shards = plan.shards;
    // Events can land exactly at the horizon; the exclusive bound is one
    // past it, matching run_until's inclusive horizon.
    let bound = SimTime(horizon.0.saturating_add(1));
    let start = eng.now();
    eng.run_window(SimTime(start.0 + 1).min(bound));

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
        watermarks: (0..shards).map(|_| AtomicU64::new(start)).collect(),
        excl: (0..shards * shards)
            .map(|_| AtomicU64::new(start))
            .collect(),
        drained: (0..shards * shards).map(|_| AtomicU64::new(0)).collect(),
        chans: (0..shards)
            .map(|_| (0..shards).map(|_| MailChannel::fresh()).collect())
            .collect(),
        in_nbrs,
        out_ok,
        lookahead: lookahead.nanos(),
        bound: bound.0,
        abort: AtomicUsize::new(NO_ABORT),
    };
    SplitRun {
        shard_engines,
        replicated_originals,
        base_recorder,
        shared,
        replicas,
    }
}

/// Phase 3 — rejoin. Actors move home, pending events re-merge (keys
/// intact), lanes take the elementwise max (each advanced by exactly
/// one shard), metrics fold in as deltas against the fork point.
fn rejoin<M: Send + 'static>(
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
    // Mail can legally outlive a receiver: a shard exits once no event
    // below the bound can reach it, so anything still in its channels is
    // strictly beyond the horizon and re-merges as pending work.
    for row in shared.chans {
        for ch in row {
            let slot = ch.slot.into_inner().expect("mail channel poisoned");
            for batch in slot.full {
                for entry in batch {
                    assert!(
                        entry.time > horizon,
                        "mail at or below the horizon left undelivered"
                    );
                    eng.inject_entry(entry);
                }
            }
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

/// Run `eng` in parallel until `horizon` (inclusive), bitwise identically
/// to `eng.run_until(horizon)`. See the module docs for the protocol.
///
/// Picks the execution mode for the host: worker threads when more than
/// one core is available, otherwise the cooperative driver (identical
/// protocol, zero scheduler overhead).
///
/// `replicas` carries the per-shard instances of every actor the plan
/// marks [`ShardPlan::REPLICATED`]; the same sets (with whatever state
/// the window left in them) are returned for the caller to merge.
///
/// # Panics
/// Panics if `lookahead` is zero, `plan.shards < 2`, an event addressed
/// to a replicated actor is pending at the boundary, a cross-shard event
/// crosses a channel the plan does not declare, or a shard interns new
/// metric keys mid-window (see
/// [`Recorder::merge_shard_deltas`](crate::metrics::Recorder::merge_shard_deltas)).
/// A panic on a worker thread stops every worker and is re-raised here
/// with its original payload.
pub fn run_sharded<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> Vec<ReplicaSet<M>> {
    // lint: thread-spawn — core-count probe choosing between the threaded
    // and cooperative drivers of the same bitwise-identical protocol.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores > 1 {
        run_sharded_threaded(eng, horizon, lookahead, plan, replicas)
    } else {
        let mut next = 0usize;
        run_sharded_cooperative(eng, horizon, lookahead, plan, replicas, move |_| {
            next = next.wrapping_add(1);
            next - 1
        })
    }
}

/// Records the first worker to unwind, so its peers stop instead of
/// spinning forever on a watermark that will never move again.
struct AbortOnUnwind<'a> {
    abort: &'a AtomicUsize,
    s: usize,
}

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ =
                self.abort
                    .compare_exchange(NO_ABORT, self.s, Ordering::AcqRel, Ordering::Relaxed);
        }
    }
}

/// [`run_sharded`] on one OS thread per shard, regardless of core count.
fn run_sharded_threaded<M: Send + 'static>(
    eng: &mut Engine<M>,
    horizon: SimTime,
    lookahead: SimDuration,
    plan: &ShardPlan,
    replicas: Vec<ReplicaSet<M>>,
) -> Vec<ReplicaSet<M>> {
    validate(eng, lookahead, plan);
    let mut run = split_shards(eng, horizon, lookahead, plan, replicas);
    let shared = &run.shared;
    // lint: thread-spawn — the parallel executor itself: shards are
    // disjoint actor sets, cross-shard traffic flows only through the
    // keyed mailbox channels, and the watermark protocol above makes the
    // result bitwise identical to the sequential engine.
    let panicked = std::thread::scope(|scope| {
        let workers: Vec<_> = run
            .shard_engines
            .iter_mut()
            .enumerate()
            .map(|(s, se)| {
                let shard_of = &plan.shard_of;
                // lint: thread-spawn — see the scope justification above.
                scope.spawn(move || {
                    let _abort = AbortOnUnwind {
                        abort: &shared.abort,
                        s,
                    };
                    let mut w = ShardWorker::new(s, shared);
                    let mut idle = 0u32;
                    while !w.done && shared.abort.load(Ordering::Relaxed) == NO_ABORT {
                        if step(se, &mut w, shared, shard_of) {
                            idle = 0;
                        } else {
                            idle += 1;
                            // Spin briefly, then yield so oversubscribed
                            // hosts (more shards than cores) still make
                            // progress.
                            if idle < 64 {
                                std::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                })
            })
            .collect();
        // Join explicitly so the first panic's own payload survives; the
        // scope would replace it with a generic message.
        let joined: Vec<_> = workers.into_iter().map(|worker| worker.join()).collect();
        let first = shared.abort.load(Ordering::Acquire);
        joined
            .into_iter()
            .enumerate()
            .filter_map(|(s, joined)| joined.err().map(|payload| (s != first, payload)))
            .min_by_key(|&(later, _)| later)
    });
    if let Some((_, payload)) = panicked {
        std::panic::resume_unwind(payload);
    }
    rejoin(eng, horizon, plan, run)
}

/// [`run_sharded`] driven on the calling thread: `pick` chooses which
/// shard to step next (its return value is taken modulo the shard
/// count). Any pick sequence produces the bitwise-identical result; a
/// full round-robin sweep is forced whenever the chosen sequence stalls,
/// and a sweep that advances nothing panics (it would mean the channel
/// graph under-approximates real traffic).
pub fn run_sharded_cooperative<M: Send + 'static>(
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
    let mut workers: Vec<ShardWorker<M>> = (0..shards)
        .map(|s| ShardWorker::new(s, &run.shared))
        .collect();
    let mut live = shards;
    let mut stalled = 0usize;
    while live > 0 {
        let s = pick(shards) % shards;
        let was_done = workers[s].done;
        let advanced = step(
            &mut run.shard_engines[s],
            &mut workers[s],
            &run.shared,
            &plan.shard_of,
        );
        if !was_done && workers[s].done {
            live -= 1;
        }
        if advanced {
            stalled = 0;
            continue;
        }
        stalled += 1;
        if stalled > 4 * shards + 16 {
            // The pick sequence may simply be starving a shard; sweep
            // every live shard once before declaring the protocol stuck.
            let mut any = false;
            for (s, w) in workers.iter_mut().enumerate() {
                let was_done = w.done;
                if step(&mut run.shard_engines[s], w, &run.shared, &plan.shard_of) {
                    any = true;
                }
                if !was_done && w.done {
                    live -= 1;
                }
            }
            assert!(
                any || live == 0,
                "watermark executor stalled: no shard can advance \
                 (incomplete channel graph?)"
            );
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

    /// Two nodes that each wake every 10 ms (2000 lookaheads) and ping
    /// the other through the hub. The ping lands one lookahead after the
    /// wake and the answer a second one later: exactly on the exclusive
    /// bound `head + 2L` of the waker's window.
    fn build_sparse() -> (Engine<TestMsg>, ActorId) {
        let (mut eng, hub) = ring(2);
        for k in 0..100u64 {
            let wake = 10_000_000 * k + 1;
            eng.schedule(SimTime(wake), ActorId(1), TestMsg::Tick { hops: 2 });
            eng.schedule(
                SimTime(wake + 5_000_000),
                ActorId(2),
                TestMsg::Tick { hops: 2 },
            );
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

    enum Mode {
        Auto,
        Threaded,
        RoundRobin,
    }

    fn run_parallel(
        nodes: u32,
        shards: usize,
        horizon: SimTime,
        mode: Mode,
        derive: bool,
    ) -> (u64, SimTime, Vec<(String, u64, u64)>, u64) {
        let (mut eng, hub) = build(nodes);
        let plan = ring_plan(nodes, shards, hub, derive);
        let replicas = hub_replicas(shards, hub);
        let back = match mode {
            Mode::Auto => run_sharded(&mut eng, horizon, WIRE, &plan, replicas),
            Mode::Threaded => run_sharded_threaded(&mut eng, horizon, WIRE, &plan, replicas),
            Mode::RoundRobin => {
                let mut n = 0usize;
                run_sharded_cooperative(&mut eng, horizon, WIRE, &plan, replicas, move |_| {
                    n = n.wrapping_add(1);
                    n - 1
                })
            }
        };
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
                let (p_seen, p_now, p_hists, _fw) =
                    run_parallel(6, shards, horizon, Mode::Auto, derive);
                assert_eq!(p_seen, seen, "{shards} shards diverged");
                assert_eq!(p_now, now);
                assert_eq!(p_hists, hists, "{shards} shards: histograms diverged");
            }
        }
        assert!(seq_events > 10_000, "world must actually run");
    }

    #[test]
    fn threaded_and_cooperative_agree() {
        // Both drivers of the protocol — real threads and the
        // single-thread round-robin — must match the sequential run,
        // whatever the host's core count.
        let horizon = SimTime(20_000_000);
        let (mut seq_eng, _) = build(5);
        seq_eng.run_until(horizon);
        let (seen, now, hists) = fingerprint(&seq_eng, 5);
        for mode in [Mode::Threaded, Mode::RoundRobin] {
            let (p_seen, p_now, p_hists, _fw) = run_parallel(5, 3, horizon, mode, true);
            assert_eq!(p_seen, seen);
            assert_eq!(p_now, now);
            assert_eq!(p_hists, hists);
        }
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
        let _ = run_sharded_cooperative(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub),
            |_| 0,
        );
    }

    #[test]
    #[should_panic(expected = "outside the declared channel graph")]
    fn undeclared_channel_panics_threaded() {
        // Both workers panic here; the caller still sees the original
        // message, not the thread scope's generic one.
        let (mut eng, hub, plan) = undeclared_world();
        let _ = run_sharded_threaded(
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
    fn worker_panic_stops_every_worker() {
        // Node 1 lives on shard 1 and panics at its first tick. Shard 0
        // must stop waiting for a watermark that will never move again,
        // and the bomb's own message must reach the caller.
        let (mut eng, hub) = build(4);
        let victim = ActorId(2);
        assert!(eng.take_actor(victim).is_some());
        eng.install(victim, Box::new(Bomb));
        let plan = ring_plan(4, 2, hub, true);
        let _ = run_sharded_threaded(
            &mut eng,
            SimTime(10_000_000),
            WIRE,
            &plan,
            hub_replicas(2, hub),
        );
    }

    #[test]
    fn sparse_traffic_leaps_idle_gaps() {
        let horizon = SimTime(1_000_000_000);
        let (mut seq_eng, _) = build_sparse();
        seq_eng.run_until(horizon);
        let expected = fingerprint(&seq_eng, 2);
        let events = seq_eng.events_processed();
        assert_eq!(expected.0, 600, "every wake pings and is answered");

        // Crawling the 10 ms gaps 5 µs at a time would take ~400k steps.
        let (mut eng, hub) = build_sparse();
        let plan = ring_plan(2, 2, hub, true);
        let mut picks = 0u64;
        run_sharded_cooperative(&mut eng, horizon, WIRE, &plan, hub_replicas(2, hub), |_| {
            picks += 1;
            picks as usize
        });
        assert_eq!(fingerprint(&eng, 2), expected);
        assert!(
            picks <= 2 * events + 16,
            "{picks} cooperative steps for {events} events"
        );

        let (mut eng, hub) = build_sparse();
        run_sharded_threaded(&mut eng, horizon, WIRE, &plan, hub_replicas(2, hub));
        assert_eq!(fingerprint(&eng, 2), expected);
    }

    #[test]
    fn replica_state_returns_for_merging() {
        let horizon = SimTime(10_000_000);
        let (mut seq_eng, hub) = build(4);
        seq_eng.run_until(horizon);
        let seq_fw = seq_eng.actor::<TestHub>(hub).unwrap().forwarded;
        let (_, _, _, fw) = run_parallel(4, 2, horizon, Mode::Auto, true);
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
