//! The discrete-event engine.
//!
//! The engine owns a set of [`Actor`]s (nodes, the network fabric, workload
//! drivers, …) and a time-ordered event queue. Each event is a message `M`
//! addressed to one actor. Handling an event may enqueue further events via
//! the [`Ctx`] handed to the actor.
//!
//! Events at equal timestamps are delivered in sequence-number order, which
//! makes runs fully deterministic for a given seed.
//!
//! ## One write, one move
//!
//! An event's message is written once and moved once (see
//! [`crate::queue`]). [`Ctx::send_in`] and its siblings write the message
//! straight into a free node of the queue's slab and stage the node's
//! index. When the handler returns, the engine stamps each staged node's
//! lane key (below) in submission order and files its index in the queue.
//! [`Engine::run_until`], [`Engine::step`] and the sharded executor's
//! windows pop an index and move the message out of the slab straight
//! into [`Actor::handle`]; the node is free again before the handler runs.
//! `run_until` fuses the horizon test with the pop, and its horizon is
//! inclusive: an event at exactly the horizon runs.
//!
//! ## Lane-structured sequence numbers
//!
//! Tie-breaking sequence numbers are not a single global counter: they are
//! `lane << 40 | counter`, where the *lane* identifies the deterministic
//! stream that produced the event and the counter counts within it:
//!
//! * lane `0` — events scheduled from outside any actor ([`Engine::schedule`]);
//! * lane `2A+1` — events staged by regular actor `A` while handling;
//! * lane `l+1` — events staged by a *replicated* actor (see
//!   [`Engine::mark_replicated`]) while handling an event of lane `l`
//!   (so fabric traffic caused by node `A` lands in lane `2A+2`).
//!
//! Each lane is advanced by exactly one actor's handling stream, so the key
//! assigned to any event is a pure function of that actor's deterministic
//! event sequence — independent of how actors are interleaved across
//! shards. That is what makes the parallel executor ([`crate::parallel`])
//! bitwise identical to a sequential run: both assign identical `(time,
//! seq)` keys, and the queue orders on nothing else.

use std::any::Any;

use crate::metrics::Recorder;
use crate::queue::{EventQueue, Link, Order, QueueKind, Slab};
use crate::time::{SimDuration, SimTime};

/// Bit position splitting a sequence number into `lane | counter`.
pub(crate) const LANE_SHIFT: u32 = 40;

/// The lane component of a sequence key.
#[inline]
pub(crate) fn lane_of(seq: u64) -> u64 {
    seq >> LANE_SHIFT
}

/// Identifies an actor registered with an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ActorId(pub u32);

impl ActorId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A simulation participant.
///
/// Actors are single-threaded state machines: the engine calls
/// [`Actor::handle`] with exclusive access, so no internal locking is ever
/// needed. The `Any` supertrait lets experiment harnesses downcast actors
/// back to their concrete types to extract results after a run. The `Send`
/// supertrait keeps whole engines `Send`, so a harness may run
/// independent worlds on threads of its own.
pub trait Actor<M>: Any + Send {
    /// Handle one event addressed to this actor at virtual time `now`.
    fn handle(&mut self, now: SimTime, msg: M, ctx: &mut Ctx<'_, M>);
}

/// Context handed to an actor while it handles an event.
///
/// Lets the actor schedule future events (to itself or any other actor) and
/// record metrics. Each send writes its message straight into a node of
/// the queue's slab and stages the node's index; the engine keys and files
/// the staged nodes after the handler returns, so ordering stays
/// deterministic.
pub struct Ctx<'a, M> {
    /// Current virtual time.
    pub now: SimTime,
    /// The actor currently being run.
    pub self_id: ActorId,
    /// Sequence key of the event being handled. Together with `now` this
    /// is the engine-wide total order position of the current event —
    /// used by the race sanitizer to order reads against host writes.
    pub event_seq: u64,
    slab: &'a mut Slab<M>,
    staged: &'a mut Vec<u32>,
    recorder: &'a mut Recorder,
    stop_requested: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// Deliver `msg` to `dst` after `delay`.
    #[inline]
    pub fn send_in(&mut self, delay: SimDuration, dst: ActorId, msg: M) {
        self.stage(self.now + delay, dst, msg);
    }

    /// Deliver `msg` to `dst` immediately (same timestamp, after currently
    /// queued same-time events).
    #[inline]
    pub fn send_now(&mut self, dst: ActorId, msg: M) {
        self.send_in(SimDuration::ZERO, dst, msg);
    }

    /// Deliver `msg` to `dst` at absolute time `at` (clamped to `now`).
    #[inline]
    pub fn send_at(&mut self, at: SimTime, dst: ActorId, msg: M) {
        self.stage(at.max(self.now), dst, msg);
    }

    /// Schedule a message to this actor after `delay`.
    #[inline]
    pub fn send_self_in(&mut self, delay: SimDuration, msg: M) {
        self.send_in(delay, self.self_id, msg);
    }

    #[inline]
    fn stage(&mut self, at: SimTime, dst: ActorId, msg: M) {
        let idx = self.slab.alloc(at, dst, msg);
        self.staged.push(idx);
    }

    /// Access the global metric recorder.
    #[inline]
    pub fn recorder(&mut self) -> &mut Recorder {
        self.recorder
    }

    /// Ask the engine to stop after the current event is processed.
    #[inline]
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// Outcome of an engine run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The horizon passed to `run_until` was reached.
    HorizonReached,
    /// The event queue drained completely.
    QueueDrained,
    /// An actor called [`Ctx::request_stop`].
    Stopped,
    /// The configured event budget was exhausted (runaway-loop backstop).
    EventBudgetExhausted,
}

/// The discrete-event simulation engine.
pub struct Engine<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    /// Actors every shard of a sharded run shares (the fabric): their
    /// events run on the shard that sent them, and their staged sends
    /// take the incoming event's lane + 1 instead of a lane of their own,
    /// keeping keys shard-invariant.
    replicated: Vec<bool>,
    queue: EventQueue<M>,
    /// Slab nodes the running handler staged, in submission order.
    staged: Vec<u32>,
    now: SimTime,
    /// Per-lane tie-break counters (see the module docs).
    lanes: Vec<u64>,
    events_processed: u64,
    event_budget: u64,
    recorder: Recorder,
    stop_requested: bool,
    /// The shard orders of a sharded run in progress.
    shards: Option<Shards>,
}

/// A sharded run in progress (see [`crate::parallel`]): one order per
/// shard over the engine's one slab. The queue's own order stays empty
/// from the split to the rejoin.
struct Shards {
    /// `owner[actor.index()]`: the shard that runs the actor's events
    /// (ignored for replicated actors).
    owner: Vec<u16>,
    /// `orders[s]`: shard `s`'s pending events.
    orders: Vec<Order>,
    /// Each shard's clock: the time of its last event.
    clocks: Vec<SimTime>,
    running: usize,
    /// The running window's last instant.
    last: SimTime,
    lookahead: SimDuration,
}

impl Shards {
    /// Events filed in the shards' orders.
    fn filed(&self) -> usize {
        self.orders.iter().map(Order::len).sum()
    }
}

impl<M: 'static> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: 'static> Engine<M> {
    pub fn new() -> Self {
        Engine {
            actors: Vec::new(),
            replicated: Vec::new(),
            queue: EventQueue::new(QueueKind::Wheel),
            staged: Vec::new(),
            now: SimTime::ZERO,
            lanes: Vec::new(),
            events_processed: 0,
            event_budget: u64::MAX,
            recorder: Recorder::new(),
            stop_requested: false,
            shards: None,
        }
    }

    /// Cap the total number of events the engine will process (safety
    /// backstop against event loops that never settle).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Which event-queue implementation is active.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Switch the event-queue implementation, re-filing every queued
    /// event's original `(time, seq)` key (messages stay in their slab
    /// nodes) — the run is bitwise unaffected by when (or whether) the
    /// switch happens.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        self.queue.set_kind(kind);
    }

    /// Capacity hint from world builders: pre-size the actor table for
    /// `actors` registrations and the event structures for roughly
    /// `events` concurrently outstanding events, so steady-state
    /// scheduling never grows them.
    pub fn reserve_capacity(&mut self, actors: usize, events: usize) {
        self.actors
            .reserve(actors.saturating_sub(self.actors.len()));
        if self.staged.capacity() < 64 {
            self.staged.reserve(64 - self.staged.capacity());
        }
        self.queue.reserve(events);
    }

    /// Register an actor and return its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        id
    }

    /// Reserve an actor slot to be filled later with [`Engine::install`].
    ///
    /// Useful when actors need to know each other's ids at construction
    /// time (e.g. nodes need the fabric id and vice versa).
    pub fn reserve_actor(&mut self) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(None);
        id
    }

    /// Fill a slot previously created with [`Engine::reserve_actor`].
    ///
    /// # Panics
    /// Panics if the slot is already occupied or the id is unknown.
    pub fn install(&mut self, id: ActorId, actor: Box<dyn Actor<M>>) {
        let slot = self
            .actors
            .get_mut(id.index())
            .expect("install: unknown actor id");
        assert!(slot.is_none(), "install: actor slot {id:?} already filled");
        *slot = Some(actor);
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of registered actor slots.
    #[inline]
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// The global metric recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Mark an actor that every shard of a sharded run shares (the
    /// fabric): its events run on the shard that sent them, and its
    /// staged sends inherit the incoming event's lane + 1.
    pub fn mark_replicated(&mut self, id: ActorId) {
        if self.replicated.len() <= id.index() {
            self.replicated.resize(id.index() + 1, false);
        }
        self.replicated[id.index()] = true;
    }

    /// Whether an actor was marked replicated.
    pub fn is_replicated(&self, id: ActorId) -> bool {
        self.replicated.get(id.index()).copied().unwrap_or(false)
    }

    /// Schedule an event from outside any actor (experiment setup).
    pub fn schedule(&mut self, at: SimTime, dst: ActorId, msg: M) {
        debug_assert!(
            !self.is_replicated(dst),
            "external events must not target a replicated actor (lane 0 \
             would collide with actor 0's staging lane)"
        );
        let at = at.max(self.now);
        let seq = self.alloc_lane(0, 1);
        self.queue.push(at, seq, dst, msg);
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, dst: ActorId, msg: M) {
        self.schedule(self.now + delay, dst, msg);
    }

    /// Claim `n` consecutive keys in `lane`, returning the first full
    /// sequence key. Counters never reset, so keys are unique per lane.
    fn alloc_lane(&mut self, lane: u64, n: u64) -> u64 {
        let idx = lane as usize;
        if self.lanes.len() <= idx {
            self.lanes.resize(idx + 1, 0);
        }
        let counter = self.lanes[idx];
        self.lanes[idx] = counter + n;
        debug_assert!(counter + n < 1 << LANE_SHIFT, "lane counter overflow");
        (lane << LANE_SHIFT) | counter
    }

    /// Immutable access to a concrete actor (for result extraction).
    pub fn actor<T: Actor<M>>(&self, id: ActorId) -> Option<&T> {
        self.actors
            .get(id.index())
            .and_then(|s| s.as_deref())
            .and_then(|a| (a as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable access to a concrete actor (for mid-run reconfiguration).
    pub fn actor_mut<T: Actor<M>>(&mut self, id: ActorId) -> Option<&mut T> {
        self.actors
            .get_mut(id.index())
            .and_then(|s| s.as_deref_mut())
            .and_then(|a| (a as &mut dyn Any).downcast_mut::<T>())
    }

    /// Run until `horizon` (inclusive), the queue drains, an actor requests
    /// a stop, or the event budget is exhausted.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.stop_requested {
                self.stop_requested = false;
                return RunOutcome::Stopped;
            }
            if self.events_processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            // Fused peek + pop: one probe of the head per event.
            let Some(node) = self.queue.pop_through(horizon) else {
                if self.queue.len() == 0 {
                    return RunOutcome::QueueDrained;
                }
                self.now = horizon;
                return RunOutcome::HorizonReached;
            };
            self.dispatch(node);
        }
    }

    /// Run for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        let horizon = self.now + span;
        self.run_until(horizon)
    }

    /// Process exactly one event if any is pending. Returns `true` if an
    /// event was processed.
    ///
    /// Honors the same termination conditions as [`run_until`]: a pending
    /// stop request is consumed (returning `false` without processing) and
    /// an exhausted event budget refuses further work.
    ///
    /// [`run_until`]: Engine::run_until
    pub fn step(&mut self) -> bool {
        if self.stop_requested {
            self.stop_requested = false;
            return false;
        }
        if self.events_processed >= self.event_budget {
            return false;
        }
        let Some(node) = self.queue.pop_through(SimTime::MAX) else {
            return false;
        };
        self.dispatch(node);
        true
    }

    /// Run the event in slab node `node`: its message moves out of the
    /// slab (freeing the node for the handler's own sends) straight into
    /// `Actor::handle`.
    fn dispatch(&mut self, node: u32) {
        let Link { time, seq, dst, .. } = self.queue.slab.link(node);
        let msg = self.queue.slab.take(node);
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_processed += 1;
        let idx = dst.index();
        // Temporarily move the actor out so it can borrow the engine's
        // slab and recorder without aliasing.
        let mut actor = match self.actors.get_mut(idx).and_then(Option::take) {
            Some(a) => a,
            // Messages to reserved-but-never-installed actors are dropped;
            // this only happens in misconfigured test setups.
            None => return,
        };
        let lane = if self.replicated.get(idx).copied().unwrap_or(false) {
            // A replicated actor stages into the lane derived from the
            // event it is handling — the same lane whichever shard
            // handles it.
            debug_assert!(
                lane_of(seq) % 2 == 1,
                "replicated actors may only receive actor-staged events"
            );
            lane_of(seq) + 1
        } else {
            2 * idx as u64 + 1
        };
        let mut ctx = Ctx {
            now: time,
            self_id: dst,
            event_seq: seq,
            slab: &mut self.queue.slab,
            staged: &mut self.staged,
            recorder: &mut self.recorder,
            stop_requested: &mut self.stop_requested,
        };
        actor.handle(time, msg, &mut ctx);
        self.actors[idx] = Some(actor);
        self.flush_staging(lane);
    }

    /// Key the staged nodes in `lane`, in submission order, and file them.
    /// The index list is cleared in place, so its capacity is reused
    /// across dispatches. In a sharded run, a send to another shard's
    /// actor is filed straight into that shard's order, once it is
    /// checked to land past the running window.
    fn flush_staging(&mut self, lane: u64) {
        if !self.staged.is_empty() {
            let base_seq = self.alloc_lane(lane, self.staged.len() as u64);
            // The shard test is hoisted out of the loop: sequential runs
            // stay on a branch-free filing path.
            match &mut self.shards {
                None => {
                    for (i, &node) in self.staged.iter().enumerate() {
                        self.queue.file(node, base_seq + i as u64);
                    }
                }
                Some(sh) => {
                    for (i, &node) in self.staged.iter().enumerate() {
                        let Link { time, dst, .. } = self.queue.slab.link(node);
                        let mut owner = sh.owner[dst.index()] as usize;
                        if self.replicated.get(dst.index()) == Some(&true) {
                            owner = sh.running;
                        }
                        assert!(
                            owner == sh.running || time > sh.last,
                            "cross-shard event at {} ns lands inside the window that \
                             ends at {} ns: a cross-shard latency is below the \
                             lookahead of {} ns",
                            time.0,
                            sh.last.0,
                            sh.lookahead.nanos()
                        );
                        self.queue
                            .file_in(&mut sh.orders[owner], node, base_seq + i as u64);
                    }
                }
            }
            self.staged.clear();
        }
        debug_assert_eq!(
            self.queue.slab.in_use(),
            self.queue.len() + self.shards.as_ref().map_or(0, Shards::filed),
            "a slab node is neither queued (in any order), staged nor free"
        );
    }

    /// Remove an actor from its slot; [`Engine::install`] refills it
    /// (harnesses wrap actors this way).
    pub fn take_actor(&mut self, id: ActorId) -> Option<Box<dyn Actor<M>>> {
        self.actors.get_mut(id.index()).and_then(Option::take)
    }

    /// Process every pending event at or before `last`, leaving `now` at
    /// the last processed event, and ignoring stop requests and event
    /// budgets: the sharded executor drains the current instant with it
    /// before a split (documented in `parallel`).
    pub(crate) fn run_window(&mut self, last: SimTime) {
        // Fused peek-min + pop: one queue probe per event instead of two.
        while let Some(node) = self.queue.pop_through(last) {
            self.dispatch(node);
        }
    }

    // ---- sharded runs (see `crate::parallel`) -------------------------

    /// Start a sharded run: every pending key re-files into the order of
    /// the shard that owns its destination, `owner[actor.index()]`, over
    /// the one slab. No message moves.
    pub(crate) fn split_shards(&mut self, owner: &[u16], shards: usize, lookahead: SimDuration) {
        let mut orders: Vec<Order> = (0..shards).map(|_| self.queue.new_order()).collect();
        while let Some(node) = self.queue.pop_through(SimTime::MAX) {
            let Link { seq, dst, .. } = self.queue.slab.link(node);
            assert!(
                !self.is_replicated(dst),
                "event pending for a replicated actor at a window boundary \
                 (replicated actors must only receive same-instant sends)"
            );
            self.queue
                .file_in(&mut orders[owner[dst.index()] as usize], node, seq);
        }
        self.shards = Some(Shards {
            owner: owner.to_vec(),
            orders,
            clocks: vec![self.now; shards],
            running: 0,
            last: self.now,
            lookahead,
        });
    }

    /// `(time, seq)` of shard `s`'s earliest pending event, while no
    /// shard runs.
    pub(crate) fn shard_head(&mut self, s: usize) -> Option<(SimTime, u64)> {
        let sh = self.shards.as_mut().expect("no sharded run");
        self.queue.peek_key_in(&mut sh.orders[s])
    }

    /// Run shard `s` in a window that ends at `last`, on the shard's own
    /// clock: its events through `last`, or with `next_only` its earliest
    /// event alone, whatever its time (an event at `SimTime::MAX` lies
    /// past every window). Like `run_window`, it ignores stop requests
    /// and event budgets.
    pub(crate) fn run_shard(&mut self, s: usize, last: SimTime, next_only: bool) {
        let sh = self.shards.as_mut().expect("no sharded run");
        (sh.running, sh.last) = (s, last);
        self.now = sh.clocks[s];
        self.recorder.set_shard(Some(s as u16));
        let mut through = if next_only { SimTime::MAX } else { last };
        while let Some(node) = self.pop_shard(s, through) {
            self.dispatch(node);
            through = last;
        }
        self.shards.as_mut().expect("no sharded run").clocks[s] = self.now;
    }

    fn pop_shard(&mut self, s: usize, through: SimTime) -> Option<u32> {
        let sh = self.shards.as_mut()?;
        self.queue.pop_through_in(&mut sh.orders[s], through)
    }

    /// End the sharded run: every shard's keys re-file into the one
    /// order, a stop requested inside the run is dropped (windows ignore
    /// it), and, as `run_until` does, the clock rests at the horizon if
    /// work remains beyond it, else at the last processed event.
    pub(crate) fn rejoin_shards(&mut self, horizon: SimTime) {
        let sh = self.shards.take().expect("no sharded run");
        for order in sh.orders {
            self.queue.merge_order(order);
        }
        self.recorder.set_shard(None);
        self.stop_requested = false;
        let last_event = sh.clocks.into_iter().max().unwrap_or(self.now);
        self.now = if self.queue.len() > 0 {
            horizon
        } else {
            last_event
        };
    }

    /// Pending events in the queue (diagnostics and split assertions).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Slab nodes ever allocated: the slab's high-water mark.
    #[cfg(test)]
    pub(crate) fn slab_nodes(&self) -> usize {
        self.queue.slab.nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq, Clone)]
    enum TestMsg {
        Ping(u32),
        Relay {
            hops_left: u32,
        },
        StopNow,
        /// Schedule a ping to self at the end of time.
        Forever,
    }

    #[derive(Default)]
    struct Collector {
        seen: Vec<(u64, TestMsg)>,
        peer: Option<ActorId>,
    }

    impl Actor<TestMsg> for Collector {
        fn handle(&mut self, now: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            match &msg {
                TestMsg::Relay { hops_left } if *hops_left > 0 => {
                    let dst = self.peer.unwrap_or(ctx.self_id);
                    ctx.send_in(
                        SimDuration::from_millis(1),
                        dst,
                        TestMsg::Relay {
                            hops_left: hops_left - 1,
                        },
                    );
                }
                TestMsg::StopNow => ctx.request_stop(),
                TestMsg::Forever => ctx.send_self_in(SimDuration::MAX, TestMsg::Ping(0)),
                _ => {}
            }
            self.seen.push((now.nanos(), msg));
        }
    }

    #[test]
    fn events_delivered_in_time_then_insertion_order() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Collector::default()));
        eng.schedule(SimTime(200), a, TestMsg::Ping(2));
        eng.schedule(SimTime(100), a, TestMsg::Ping(1));
        eng.schedule(SimTime(200), a, TestMsg::Ping(3));
        let outcome = eng.run_until(SimTime(1_000));
        assert_eq!(outcome, RunOutcome::QueueDrained);
        let col: &Collector = eng.actor(a).unwrap();
        assert_eq!(
            col.seen,
            vec![
                (100, TestMsg::Ping(1)),
                (200, TestMsg::Ping(2)),
                (200, TestMsg::Ping(3)),
            ]
        );
    }

    #[test]
    fn relay_chain_advances_time() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.reserve_actor();
        let b = eng.reserve_actor();
        eng.install(
            a,
            Box::new(Collector {
                peer: Some(b),
                ..Default::default()
            }),
        );
        eng.install(
            b,
            Box::new(Collector {
                peer: Some(a),
                ..Default::default()
            }),
        );
        eng.schedule(SimTime::ZERO, a, TestMsg::Relay { hops_left: 4 });
        assert_eq!(eng.run_until(SimTime::MAX), RunOutcome::QueueDrained);
        // 5 handled events total (hops 4..0), alternating actors.
        let ca: &Collector = eng.actor(a).unwrap();
        let cb: &Collector = eng.actor(b).unwrap();
        assert_eq!(ca.seen.len(), 3);
        assert_eq!(cb.seen.len(), 2);
        assert_eq!(eng.now().nanos(), 4_000_000);
        assert_eq!(eng.events_processed(), 5);
    }

    #[test]
    fn horizon_stops_before_future_events() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Collector::default()));
        eng.schedule(SimTime(5_000), a, TestMsg::Ping(9));
        assert_eq!(eng.run_until(SimTime(1_000)), RunOutcome::HorizonReached);
        assert_eq!(eng.now(), SimTime(1_000));
        let col: &Collector = eng.actor(a).unwrap();
        assert!(col.seen.is_empty());
        // Resuming picks the event up.
        assert_eq!(eng.run_until(SimTime(10_000)), RunOutcome::QueueDrained);
        let col: &Collector = eng.actor(a).unwrap();
        assert_eq!(col.seen.len(), 1);
    }

    #[test]
    fn stop_request_halts_run() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Collector::default()));
        eng.schedule(SimTime(1), a, TestMsg::StopNow);
        eng.schedule(SimTime(2), a, TestMsg::Ping(1));
        assert_eq!(eng.run_until(SimTime::MAX), RunOutcome::Stopped);
        let col: &Collector = eng.actor(a).unwrap();
        assert_eq!(col.seen.len(), 1);
        // Run can continue afterwards.
        assert_eq!(eng.run_until(SimTime::MAX), RunOutcome::QueueDrained);
    }

    #[test]
    fn event_budget_backstop() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Collector::default()));
        // Self-relay loops forever; budget must stop it.
        eng.actor_mut::<Collector>(a).unwrap().peer = Some(a);
        eng.schedule(
            SimTime::ZERO,
            a,
            TestMsg::Relay {
                hops_left: u32::MAX,
            },
        );
        eng.set_event_budget(50);
        assert_eq!(
            eng.run_until(SimTime::MAX),
            RunOutcome::EventBudgetExhausted
        );
        assert_eq!(eng.events_processed(), 50);
    }

    #[test]
    fn step_honors_budget_and_stop_request() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Collector::default()));

        // Budget: after two processed events, step refuses further work
        // even though the queue is non-empty.
        eng.schedule(SimTime(1), a, TestMsg::Ping(1));
        eng.schedule(SimTime(2), a, TestMsg::Ping(2));
        eng.schedule(SimTime(3), a, TestMsg::Ping(3));
        eng.set_event_budget(2);
        assert!(eng.step());
        assert!(eng.step());
        assert!(!eng.step());
        assert_eq!(eng.events_processed(), 2);
        let col: &Collector = eng.actor(a).unwrap();
        assert_eq!(col.seen.len(), 2);

        // Stop request: the step that handles StopNow succeeds, the next
        // step consumes the request without touching the queue, and the
        // one after that resumes normally — mirroring run_until.
        eng.set_event_budget(u64::MAX);
        assert!(eng.step());
        eng.schedule(SimTime(10), a, TestMsg::StopNow);
        eng.schedule(SimTime(11), a, TestMsg::Ping(4));
        assert!(eng.step());
        assert!(!eng.step());
        assert!(eng.step());
        let col: &Collector = eng.actor(a).unwrap();
        assert_eq!(col.seen.last().unwrap().1, TestMsg::Ping(4));
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Collector::default()));
        eng.schedule(SimTime(100), a, TestMsg::Ping(1));
        eng.run_until(SimTime(100));
        eng.schedule(SimTime(50), a, TestMsg::Ping(2));
        eng.run_until(SimTime::MAX);
        let col: &Collector = eng.actor(a).unwrap();
        assert_eq!(col.seen[1].0, 100);
    }

    #[test]
    fn event_at_end_of_time_is_reachable_on_both_queues() {
        for kind in [QueueKind::Heap, QueueKind::Wheel] {
            // A saturated `send_self_in(SimDuration::MAX)` parks an event at
            // `SimTime::MAX`; a finite horizon must still return.
            let mut eng: Engine<TestMsg> = Engine::new();
            eng.set_queue_kind(kind);
            let a = eng.add_actor(Box::new(Collector::default()));
            eng.schedule(SimTime::ZERO, a, TestMsg::Forever);
            assert_eq!(
                eng.run_until(SimTime(1_000_000)),
                RunOutcome::HorizonReached,
                "{kind:?}"
            );
            assert_eq!(eng.queue.peek_key(), Some((SimTime::MAX, 1 << LANE_SHIFT)));
            // The inclusive horizon processes it.
            assert_eq!(eng.run_until(SimTime::MAX), RunOutcome::QueueDrained);
            let col: &Collector = eng.actor(a).unwrap();
            assert_eq!(col.seen.last(), Some(&(u64::MAX, TestMsg::Ping(0))));

            let mut eng: Engine<TestMsg> = Engine::new();
            eng.set_queue_kind(kind);
            let a = eng.add_actor(Box::new(Collector::default()));
            eng.schedule(SimTime::MAX, a, TestMsg::Ping(2));
            eng.schedule(SimTime(5), a, TestMsg::Ping(1));
            assert_eq!(eng.run_until(SimTime::MAX), RunOutcome::QueueDrained);
            let col: &Collector = eng.actor(a).unwrap();
            assert_eq!(
                col.seen,
                vec![(5, TestMsg::Ping(1)), (u64::MAX, TestMsg::Ping(2))],
                "{kind:?}"
            );
            assert_eq!(eng.now(), SimTime::MAX);
        }
    }

    /// Relays itself `hops_left` times, 1 ns apart, and pings `to`
    /// `delay` after every hop.
    struct Spray {
        to: ActorId,
        delay: SimDuration,
    }

    impl Actor<TestMsg> for Spray {
        fn handle(&mut self, _: SimTime, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            if let TestMsg::Relay { hops_left } = msg {
                ctx.send_in(self.delay, self.to, TestMsg::Ping(hops_left));
                if hops_left > 0 {
                    let next = TestMsg::Relay {
                        hops_left: hops_left - 1,
                    };
                    ctx.send_self_in(SimDuration(1), next);
                }
            }
        }
    }

    #[test]
    fn undeliverable_events_give_their_nodes_back() {
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.reserve_actor();
        let ghost = eng.reserve_actor();
        let spray = Spray {
            to: ghost,
            delay: SimDuration::ZERO,
        };
        eng.install(a, Box::new(spray));
        eng.schedule(SimTime::ZERO, a, TestMsg::Relay { hops_left: 9_999 });
        assert_eq!(eng.run_until(SimTime::MAX), RunOutcome::QueueDrained);
        assert_eq!(eng.events_processed(), 20_000);
        assert!(eng.slab_nodes() <= 3, "slab grew to {}", eng.slab_nodes());
    }

    #[test]
    fn foreign_sends_give_their_nodes_back() {
        // A sharded run files each send to another shard's actor straight
        // into that shard's order over the one slab, and dispatch frees
        // its node as in a sequential run.
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.reserve_actor();
        let remote = eng.reserve_actor();
        let spray = Spray {
            to: remote,
            delay: SimDuration(1),
        };
        eng.install(a, Box::new(spray));
        eng.install(remote, Box::new(Collector::default()));
        eng.schedule(SimTime::ZERO, a, TestMsg::Relay { hops_left: 9_999 });
        let plan = crate::parallel::ShardPlan::new(vec![0, 1], 2);
        crate::parallel::run_sharded(&mut eng, SimTime::MAX, SimDuration(1), &plan);
        assert_eq!(eng.events_processed(), 20_000);
        assert_eq!(eng.actor::<Collector>(remote).unwrap().seen.len(), 10_000);
        assert!(eng.slab_nodes() <= 3, "slab grew to {}", eng.slab_nodes());
    }

    #[test]
    fn set_queue_kind_mid_run_keeps_the_slab() {
        let run = |switch: bool| {
            let mut eng: Engine<TestMsg> = Engine::new();
            let a = eng.add_actor(Box::new(Collector::default()));
            for i in 0..200u32 {
                let t = (i as u64 * 7_919) % 3_000_000;
                eng.schedule(SimTime(t), a, TestMsg::Relay { hops_left: i % 5 });
            }
            eng.run_until(SimTime(1_000_000));
            if switch {
                let (nodes, queued) = (eng.slab_nodes(), eng.queue_len());
                for kind in [QueueKind::Heap, QueueKind::Wheel] {
                    eng.set_queue_kind(kind);
                    assert_eq!((eng.slab_nodes(), eng.queue_len()), (nodes, queued));
                }
            }
            eng.run_until(SimTime::MAX);
            eng.actor::<Collector>(a).unwrap().seen.clone()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        struct Other;
        impl Actor<TestMsg> for Other {
            fn handle(&mut self, _: SimTime, _: TestMsg, _: &mut Ctx<'_, TestMsg>) {}
        }
        let mut eng: Engine<TestMsg> = Engine::new();
        let a = eng.add_actor(Box::new(Other));
        assert!(eng.actor::<Collector>(a).is_none());
        assert!(eng.actor::<Other>(a).is_some());
    }
}
