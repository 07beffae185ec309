//! The engine's event store and its two dequeue orders.
//!
//! Every pending event lives in one node of a recycled `Slab` from the
//! moment it is staged until dispatch moves its message out: `Ctx::send_*`
//! writes the message into a node, and the dispatch loop moves it out
//! once, straight into `Actor::handle`. In between, only the node's
//! `u32` index travels. A node is a 24-byte `Link` (`time`, `seq`,
//! destination and an intrusive `next` index) followed by the message.
//!
//! Two interchangeable orders file the same indices by `(time, seq,
//! index)`; `seq` is unique, so the order is total:
//!
//! * [`QueueKind::Heap`] — a `BinaryHeap` of 24-byte `(time, seq, index)`
//!   keys. Kept as the golden reference: the wheel must reproduce its
//!   dequeue order bitwise (see the golden-equivalence tests in
//!   `fgmon-cluster`).
//! * [`QueueKind::Wheel`] — a hierarchical timing wheel that chains slab
//!   nodes into buckets through their `next` links. Inserts and pops are
//!   O(1) amortized and allocation-free in steady state.
//!
//! Neither order moves a message: switching kinds re-files keys, and so
//! does a sharded run, which files each shard's keys in an `Order` of its
//! own over the same slab. The pop is fused with the horizon test
//! (`EventQueue::pop_through`), so one probe of the head decides whether
//! it is due and takes it.
//!
//! # Wheel layout
//!
//! Four levels of 256 slots. Level `l` buckets time by
//! `2^(10 + 8·l)` ns, so level 0 resolves ~1 µs granules and the wheel
//! spans `256 << 34` ns (≈ 73 min) ahead of the cursor; anything farther
//! out parks in a small overflow heap and re-enters the wheel when the
//! cursor approaches.
//!
//! # Ordering proof sketch
//!
//! The engine requires strict `(time, seq)` dequeue order. Within a bucket,
//! FIFO order is *not* `(time, seq)` order: a cascade from a higher level
//! can append an entry with a smaller `seq` after a directly-inserted entry
//! with the same time, and a level-0 granule spans many distinct
//! timestamps. So the wheel never trusts bucket order — draining a level-0
//! slot sorts the drained entries by `(time, seq)` before exposing them in
//! the `ready` run. Because (a) the refill loop always selects the occupied
//! window with the minimum start time (preferring higher levels on ties so
//! overlapping coarse slots cascade before the fine slot under them
//! drains), (b) overflow entries that fall inside or before that window
//! re-enter the wheel before it drains or cascades, (c) the cursor only
//! advances past fully-drained time, and (d) late inserts below the cursor
//! binary-search into the sorted `ready` run, every pop returns the global
//! `(time, seq)` minimum — the same entry the reference heap would return.
//!
//! The cursor saturates at `END` once the last granule below
//! `SimTime::MAX` has drained; from then on every insert is "below the
//! cursor" and goes straight into `ready`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::ActorId;
use crate::time::SimTime;

/// Which event-queue implementation an [`crate::Engine`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Binary heap of slab keys (the reference implementation).
    Heap,
    /// Hierarchical timing wheel (the default).
    Wheel,
}

const NIL: u32 = u32::MAX;

/// The ordering half of a slab node.
#[derive(Clone, Copy)]
pub(crate) struct Link {
    pub time: SimTime,
    /// The lane key; stamped when the node is filed (zero while staged).
    pub seq: u64,
    pub dst: ActorId,
    /// Bucket chain while filed in the wheel, free list while free.
    next: u32,
}

impl Link {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time.0, self.seq)
    }
}

/// One slab node: its ordering half and its message.
struct Node<M> {
    link: Link,
    /// `Some` exactly while the node is staged or queued.
    msg: Option<M>,
}

/// The event store: one node per staged or queued event, recycled through
/// a free list, so steady state allocates nothing once the slab reaches
/// its high-water mark.
pub(crate) struct Slab<M> {
    nodes: Vec<Node<M>>,
    free: u32,
    /// Nodes holding a message.
    in_use: usize,
}

impl<M> Slab<M> {
    fn new() -> Self {
        Slab {
            nodes: Vec::new(),
            free: NIL,
            in_use: 0,
        }
    }

    /// Write `msg` into a free node, unkeyed, and return its index.
    #[inline]
    pub fn alloc(&mut self, time: SimTime, dst: ActorId, msg: M) -> u32 {
        self.in_use += 1;
        let link = Link {
            time,
            seq: 0,
            dst,
            next: NIL,
        };
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.link.next;
            node.link = link;
            node.msg = Some(msg);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "event slab overflow");
            self.nodes.push(Node {
                link,
                msg: Some(msg),
            });
            idx
        }
    }

    #[inline]
    pub fn link(&self, idx: u32) -> Link {
        self.nodes[idx as usize].link
    }

    /// Move the message out of node `idx` and free the node.
    #[inline]
    pub fn take(&mut self, idx: u32) -> M {
        let node = &mut self.nodes[idx as usize];
        let msg = node.msg.take().expect("slab node without a message");
        node.link.next = self.free;
        self.free = idx;
        self.in_use -= 1;
        msg
    }

    /// Nodes holding a message: staged or queued.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Nodes ever allocated: the slab's high-water mark.
    #[cfg(test)]
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// `(time, seq, slab index)`: what the heap and the overflow heap order.
type Key = (u64, u64, u32);

/// The engine's event queue: the slab plus one of the two orders over it.
pub(crate) struct EventQueue<M> {
    pub slab: Slab<M>,
    order: Order,
}

/// One order over a slab: the queue's own, or a shard's during a sharded
/// run (see [`crate::parallel`]). Each filed node sits in exactly one
/// order.
///
/// The size gap between variants is intentional: one `Order` exists per
/// engine (plus one per shard during a sharded run) and the wheel is the
/// default, so boxing it would buy nothing but a pointer chase on every
/// push/pop.
// lint: allow-attr — one instance per engine or shard; boxing the wheel
// would put an indirection on the hottest path in the workspace to save
// bytes that don't multiply.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Order {
    Heap(BinaryHeap<Reverse<Key>>),
    Wheel(TimingWheel),
}

impl<M> EventQueue<M> {
    pub fn new(kind: QueueKind) -> Self {
        EventQueue {
            slab: Slab::new(),
            order: Order::new(kind),
        }
    }

    pub fn kind(&self) -> QueueKind {
        match self.order {
            Order::Heap(_) => QueueKind::Heap,
            Order::Wheel(_) => QueueKind::Wheel,
        }
    }

    /// Events filed in the queue's own order (staged nodes are not
    /// counted).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Pre-size internal storage for roughly `events` concurrently
    /// outstanding events.
    pub fn reserve(&mut self, events: usize) {
        let nodes = &mut self.slab.nodes;
        nodes.reserve(events.saturating_sub(nodes.len()));
        match &mut self.order {
            Order::Heap(h) => h.reserve(events),
            Order::Wheel(w) => w.reserve(),
        }
    }

    /// Stamp `seq` on a staged node and file it.
    #[inline]
    pub fn file(&mut self, idx: u32, seq: u64) {
        self.slab.nodes[idx as usize].link.seq = seq;
        self.order.file(&mut self.slab.nodes, idx);
    }

    /// Stamp `seq` on a staged node and file it in `order` instead of the
    /// queue's own.
    #[inline]
    pub fn file_in(&mut self, order: &mut Order, idx: u32, seq: u64) {
        self.slab.nodes[idx as usize].link.seq = seq;
        order.file(&mut self.slab.nodes, idx);
    }

    /// Store and file an event whose key is already known.
    pub fn push(&mut self, time: SimTime, seq: u64, dst: ActorId, msg: M) {
        let idx = self.slab.alloc(time, dst, msg);
        self.file(idx, seq);
    }

    /// `(time, seq)` of the next event [`EventQueue::pop_through`] would
    /// return.
    #[cfg(test)]
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.order.peek_key(&mut self.slab.nodes)
    }

    /// `(time, seq)` of the earliest event filed in `order`.
    pub fn peek_key_in(&mut self, order: &mut Order) -> Option<(SimTime, u64)> {
        order.peek_key(&mut self.slab.nodes)
    }

    /// Unfile the earliest event if its time is at or before `last`, and
    /// return its node: the fused peek-min + pop every dispatch loop uses.
    /// The node stays allocated until its message is taken.
    #[inline]
    pub fn pop_through(&mut self, last: SimTime) -> Option<u32> {
        self.order.pop_through(&mut self.slab.nodes, last.0)
    }

    /// Switch the order, re-filing every key. No message moves.
    pub fn set_kind(&mut self, kind: QueueKind) {
        if self.kind() != kind {
            let old = std::mem::replace(&mut self.order, Order::new(kind));
            self.merge_order(old);
        }
    }

    /// An empty order of the queue's kind.
    pub fn new_order(&self) -> Order {
        Order::new(self.kind())
    }

    /// [`EventQueue::pop_through`] on `order` instead of the queue's own.
    #[inline]
    pub fn pop_through_in(&mut self, order: &mut Order, last: SimTime) -> Option<u32> {
        order.pop_through(&mut self.slab.nodes, last.0)
    }

    /// Re-file every key of `order` into the queue's own. No message
    /// moves.
    pub fn merge_order(&mut self, mut order: Order) {
        while let Some(idx) = order.pop_through(&mut self.slab.nodes, u64::MAX) {
            self.order.file(&mut self.slab.nodes, idx);
        }
    }
}

impl Order {
    fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => Order::Heap(BinaryHeap::new()),
            QueueKind::Wheel => Order::Wheel(TimingWheel::new()),
        }
    }

    /// Filed events.
    pub fn len(&self) -> usize {
        match self {
            Order::Heap(h) => h.len(),
            Order::Wheel(w) => w.len,
        }
    }

    #[inline]
    fn file<M>(&mut self, nodes: &mut [Node<M>], idx: u32) {
        match self {
            Order::Heap(h) => {
                let (t, seq) = nodes[idx as usize].link.key();
                h.push(Reverse((t, seq, idx)));
            }
            Order::Wheel(w) => w.push(nodes, idx),
        }
    }

    fn peek<M>(&mut self, nodes: &mut [Node<M>]) -> Option<u32> {
        match self {
            Order::Heap(h) => h.peek().map(|&Reverse((_, _, idx))| idx),
            Order::Wheel(w) => w.peek(nodes),
        }
    }

    fn peek_key<M>(&mut self, nodes: &mut [Node<M>]) -> Option<(SimTime, u64)> {
        let link = nodes[self.peek(nodes)? as usize].link;
        Some((link.time, link.seq))
    }

    #[inline]
    fn pop_through<M>(&mut self, nodes: &mut [Node<M>], last: u64) -> Option<u32> {
        match self {
            Order::Heap(h) => {
                let &Reverse((t, _, idx)) = h.peek()?;
                if t > last {
                    return None;
                }
                h.pop();
                Some(idx)
            }
            Order::Wheel(w) => w.pop_through(nodes, last),
        }
    }
}

const SLOT_BITS: u32 = 8;
const SLOTS: u64 = 1 << SLOT_BITS;
const LEVELS: usize = 4;
/// Level-0 granule: 2^10 ns ≈ 1 µs.
const G0_SHIFT: u32 = 10;
/// The cursor once the granule holding `SimTime::MAX` has drained.
const END: u64 = u64::MAX;

#[inline]
fn level_shift(level: usize) -> u32 {
    G0_SHIFT + SLOT_BITS * level as u32
}

/// Hierarchical timing wheel over slab links. See the module docs for the
/// layout and the ordering argument.
pub(crate) struct TimingWheel {
    /// Intrusive singly-linked bucket lists: `heads/tails[level * SLOTS + slot]`.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per-level slot occupancy bitmaps (256 bits each).
    occ: [[u64; 4]; LEVELS],
    /// Granule-aligned frontier (or [`END`]): every entry with
    /// `time < cursor` has been drained into `ready`; every entry still in
    /// a bucket or the overflow heap has `time >= cursor`.
    cursor: u64,
    /// Slab indices sorted by `(time, seq)` *descending* — pop takes from
    /// the end. Holds the drained front of the timeline.
    ready: Vec<u32>,
    /// Entries beyond the wheel span.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Total entries across buckets, `ready`, and overflow.
    len: usize,
    /// Entries currently in wheel buckets only.
    in_buckets: usize,
    /// Reused drain buffer.
    scratch: Vec<u32>,
}

impl TimingWheel {
    fn new() -> Self {
        TimingWheel {
            heads: vec![NIL; LEVELS * SLOTS as usize],
            tails: vec![NIL; LEVELS * SLOTS as usize],
            occ: [[0; 4]; LEVELS],
            cursor: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            in_buckets: 0,
            scratch: Vec::new(),
        }
    }

    fn reserve(&mut self) {
        self.ready.reserve(64);
        self.scratch.reserve(64);
    }

    #[inline]
    fn push<M>(&mut self, nodes: &mut [Node<M>], idx: u32) {
        self.len += 1;
        self.place(nodes, idx);
    }

    /// File a node under the right structure for its timestamp.
    fn place<M>(&mut self, nodes: &mut [Node<M>], idx: u32) {
        let (t, seq) = nodes[idx as usize].link.key();
        if t < self.cursor || self.cursor == END {
            self.ready_insert(nodes, idx, (t, seq));
            return;
        }
        for level in 0..LEVELS {
            let sh = level_shift(level);
            if (t >> sh) - (self.cursor >> sh) < SLOTS {
                self.bucket_append(nodes, level, ((t >> sh) & (SLOTS - 1)) as usize, idx);
                self.in_buckets += 1;
                return;
            }
        }
        self.overflow.push(Reverse((t, seq, idx)));
    }

    /// Insert into the descending-sorted ready run at its `(time, seq)`
    /// position. Late inserts land here when their timestamp falls below
    /// the drained frontier (e.g. zero-delay sends).
    fn ready_insert<M>(&mut self, nodes: &[Node<M>], idx: u32, key: (u64, u64)) {
        let pos = self
            .ready
            .partition_point(|&i| nodes[i as usize].link.key() > key);
        self.ready.insert(pos, idx);
    }

    #[inline]
    fn bucket_append<M>(&mut self, nodes: &mut [Node<M>], level: usize, slot: usize, idx: u32) {
        let b = level * SLOTS as usize + slot;
        nodes[idx as usize].link.next = NIL;
        let tail = self.tails[b];
        if tail == NIL {
            self.heads[b] = idx;
        } else {
            nodes[tail as usize].link.next = idx;
        }
        self.tails[b] = idx;
        self.occ[level][slot / 64] |= 1u64 << (slot % 64);
    }

    /// Detach a whole bucket list into `scratch` (FIFO order).
    fn drain_bucket<M>(&mut self, nodes: &[Node<M>], level: usize, slot: usize) {
        let b = level * SLOTS as usize + slot;
        let mut cur = self.heads[b];
        self.heads[b] = NIL;
        self.tails[b] = NIL;
        self.occ[level][slot / 64] &= !(1u64 << (slot % 64));
        self.scratch.clear();
        while cur != NIL {
            self.scratch.push(cur);
            cur = nodes[cur as usize].link.next;
        }
    }

    /// First occupied slot index `>= from` at `level`, if any.
    fn first_occupied(&self, level: usize, from: usize) -> Option<usize> {
        let occ = &self.occ[level];
        let mut word = from / 64;
        let mut mask = !0u64 << (from % 64);
        while word < 4 {
            let bits = occ[word] & mask;
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            mask = !0;
            word += 1;
        }
        None
    }

    /// The occupied window with the smallest absolute start time at
    /// `level`, as `(start_nanos, slot)`. The wheel is circular: slots
    /// behind the cursor's slot hold the *next* revolution.
    fn earliest_window(&self, level: usize) -> Option<(u64, usize)> {
        let sh = level_shift(level);
        let cur_tick = self.cursor >> sh;
        let cur_slot = (cur_tick & (SLOTS - 1)) as usize;
        let base = cur_tick - cur_slot as u64;
        if let Some(slot) = self.first_occupied(level, cur_slot) {
            Some(((base + slot as u64) << sh, slot))
        } else {
            self.first_occupied(level, 0)
                .map(|slot| ((base + SLOTS + slot as u64) << sh, slot))
        }
    }

    /// Refill `ready` until it holds the earliest pending entries (or the
    /// queue is empty). Advances the cursor only past fully-drained time.
    fn refill<M>(&mut self, nodes: &mut [Node<M>]) {
        while self.ready.is_empty() {
            if self.in_buckets == 0 {
                // Wheel empty: jump the cursor to the overflow's earliest
                // granule and pull newly-in-range entries back in (at
                // least that earliest one).
                let Some(&Reverse((t, _, _))) = self.overflow.peek() else {
                    return;
                };
                self.cursor = (t >> G0_SHIFT) << G0_SHIFT;
                self.pull_overflow_through(nodes, u64::MAX);
                continue;
            }
            // Minimum occupied window start across levels; ties prefer the
            // higher level so overlapping coarse slots cascade first.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                if let Some((start, slot)) = self.earliest_window(level) {
                    if best.is_none_or(|(bs, _, _)| start <= bs) {
                        best = Some((start, level, slot));
                    }
                }
            }
            let (start, level, slot) = best.expect("in_buckets > 0 but no occupied slot");
            // Overflow entries inside or before the chosen window re-enter
            // the wheel before it drains or cascades. (The window's last
            // instant cannot overflow: some entry at or after `start`
            // lies inside it.)
            let last = start + ((1u64 << level_shift(level)) - 1);
            if self
                .overflow
                .peek()
                .is_some_and(|&Reverse((t, _, _))| t <= last)
            {
                self.pull_overflow_through(nodes, last);
                continue;
            }
            if level == 0 {
                // Occupied level-0 slots are never behind the drained
                // frontier.
                self.drain_bucket(nodes, 0, slot);
                let mut run = std::mem::take(&mut self.scratch);
                run.sort_unstable_by_key(|&i| Reverse(nodes[i as usize].link.key()));
                self.in_buckets -= run.len();
                debug_assert!(self.ready.is_empty());
                std::mem::swap(&mut self.ready, &mut run);
                self.scratch = run;
                // Saturates at END after the last granule.
                self.cursor = start.saturating_add(1 << G0_SHIFT);
            } else {
                // Cascade: nothing anywhere is earlier than `start`, so the
                // frontier may advance to it; entries then re-place at a
                // strictly lower level.
                self.cursor = self.cursor.max(start);
                self.drain_bucket(nodes, level, slot);
                let run = std::mem::take(&mut self.scratch);
                self.in_buckets -= run.len();
                for &idx in &run {
                    self.place(nodes, idx);
                }
                self.scratch = run;
            }
        }
    }

    /// Reinsert overflow entries with `time <= limit` that the wheel now
    /// spans (they are all `>= cursor`, so they land in wheel buckets).
    fn pull_overflow_through<M>(&mut self, nodes: &mut [Node<M>], limit: u64) {
        while let Some(&Reverse((t, _, idx))) = self.overflow.peek() {
            if t > limit || !self.within_span(t) {
                break;
            }
            self.overflow.pop();
            self.place(nodes, idx);
        }
    }

    #[inline]
    fn within_span(&self, t: u64) -> bool {
        let sh = level_shift(LEVELS - 1);
        (t >> sh) - (self.cursor >> sh) < SLOTS
    }

    fn peek<M>(&mut self, nodes: &mut [Node<M>]) -> Option<u32> {
        self.refill(nodes);
        self.ready.last().copied()
    }

    /// Fused peek-min + conditional pop: one `refill` and one ready-list
    /// probe whether or not the head is due.
    #[inline]
    fn pop_through<M>(&mut self, nodes: &mut [Node<M>], last: u64) -> Option<u32> {
        if self.ready.is_empty() {
            self.refill(nodes);
        }
        let &idx = self.ready.last()?;
        if nodes[idx as usize].link.time.0 > last {
            return None;
        }
        self.ready.pop();
        self.len -= 1;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// Take popped node `idx`'s message and return its `(time, seq)` key.
    fn take(q: &mut EventQueue<u32>, idx: u32) -> (u64, u64) {
        let Link { time, seq, .. } = q.slab.link(idx);
        assert_eq!(q.slab.take(idx), seq as u32, "message left its node");
        (time.nanos(), seq)
    }

    fn drain_keys(q: &mut EventQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(idx) = q.pop_through(SimTime::MAX) {
            out.push(take(q, idx));
        }
        out
    }

    fn push_all(q: &mut EventQueue<u32>, entries: &[(u64, u64)]) {
        for &(t, seq) in entries {
            q.push(SimTime(t), seq, ActorId(0), seq as u32);
        }
    }

    #[test]
    fn wheel_matches_heap_on_random_schedule() {
        let mut rng = DetRng::new(0xfeed);
        for round in 0..20 {
            let mut entries = Vec::new();
            for seq in 0..500u64 {
                // Mix of near, same-tick, far, very-far, and end-of-time
                // timestamps.
                let t = match rng.range_u64(0, 7) {
                    0 => rng.range_u64(0, 1_000),
                    1 => 777,
                    2 => rng.range_u64(0, 1_000_000),
                    3 => rng.range_u64(0, 10_000_000_000),
                    4 => 60_000_000_000_000 + rng.range_u64(0, 1_000_000_000_000),
                    5 => u64::MAX - rng.range_u64(0, 5_000),
                    _ => u64::MAX,
                };
                entries.push((t, seq));
            }
            let mut heap = EventQueue::new(QueueKind::Heap);
            let mut wheel = EventQueue::new(QueueKind::Wheel);
            push_all(&mut heap, &entries);
            push_all(&mut wheel, &entries);
            assert_eq!(
                drain_keys(&mut heap),
                drain_keys(&mut wheel),
                "round {round}"
            );
        }
    }

    /// The engine's dispatch loop in miniature: `rounds` times, pop up to
    /// two events from both kinds and compare them, then push up to three
    /// keys from `key(rng, last popped time, counter)`.
    fn interleave_matches_heap(
        seed: u64,
        rounds: usize,
        mut key: impl FnMut(&mut DetRng, u64, u64) -> (u64, u64),
    ) {
        let mut rng = DetRng::new(seed);
        let mut heap = EventQueue::new(QueueKind::Heap);
        let mut wheel = EventQueue::new(QueueKind::Wheel);
        let (mut now, mut n) = (0u64, 0u64);
        for _ in 0..rounds {
            for _ in 0..rng.range_u64(0, 3) {
                let h = heap.pop_through(SimTime::MAX).map(|i| take(&mut heap, i));
                let w = wheel.pop_through(SimTime::MAX).map(|i| take(&mut wheel, i));
                assert_eq!(h, w);
                if let Some((t, _)) = h {
                    now = t;
                }
            }
            for _ in 0..rng.range_u64(0, 4) {
                let e = key(&mut rng, now, n);
                n += 1;
                push_all(&mut heap, &[e]);
                push_all(&mut wheel, &[e]);
            }
        }
        assert_eq!(drain_keys(&mut heap), drain_keys(&mut wheel));
    }

    #[test]
    fn wheel_interleaved_pop_push_matches_heap() {
        // Delays relative to the last popped time, zero included.
        interleave_matches_heap(0xabcd, 3_000, |rng, now, n| {
            let delay = match rng.range_u64(0, 4) {
                0 => 0,
                1 => rng.range_u64(0, 100),
                2 => rng.range_u64(0, 5_000_000),
                _ => rng.range_u64(0, 20_000_000_000),
            };
            (now + delay, n)
        });
    }

    /// Inserts at and just below `u64::MAX`, with lane-style keys that
    /// arrive out of `seq` order: the saturated-cursor case.
    #[test]
    fn wheel_matches_heap_at_end_of_time() {
        interleave_matches_heap(0x5eed, 2_000, |rng, _, n| {
            let t = u64::MAX - rng.range_u64(0, 3_000);
            (t, (rng.range_u64(0, 8) << 40) | n)
        });
    }

    /// An overflow entry whose time lands in a level-0 granule that an
    /// in-wheel entry later occupies must re-enter before the granule
    /// drains, or it pops after a later entry.
    #[test]
    fn overflow_entry_rejoins_its_granule_before_it_drains() {
        let span = SLOTS << level_shift(LEVELS - 1);
        let far = span + 4_000;
        for kind in [QueueKind::Heap, QueueKind::Wheel] {
            let mut q = EventQueue::new(kind);
            // `far` is out of span at cursor 0 and parks in overflow; the
            // pop at 2^35 ns brings it in range of a direct insert.
            push_all(&mut q, &[(far, 0), (1 << 35, 1)]);
            let first = q.pop_through(SimTime::MAX).map(|i| take(&mut q, i));
            assert_eq!(first, Some((1 << 35, 1)));
            push_all(&mut q, &[(far + 1, 2)]);
            assert_eq!(drain_keys(&mut q), vec![(far, 0), (far + 1, 2)], "{kind:?}");
        }
    }

    #[test]
    fn pop_through_is_inclusive() {
        for kind in [QueueKind::Heap, QueueKind::Wheel] {
            let mut q = EventQueue::new(kind);
            push_all(&mut q, &[(5, 0), (10, 1), (u64::MAX, 2)]);
            assert_eq!(q.pop_through(SimTime(4)), None);
            assert!(q.pop_through(SimTime(5)).is_some());
            assert_eq!(q.pop_through(SimTime(9)), None);
            assert!(q.pop_through(SimTime(10)).is_some());
            assert_eq!(q.pop_through(SimTime(u64::MAX - 1)), None);
            assert_eq!(q.peek_key(), Some((SimTime::MAX, 2)));
            let idx = q
                .pop_through(SimTime::MAX)
                .expect("event at the end of time");
            assert_eq!(take(&mut q, idx), (u64::MAX, 2));
            assert_eq!(q.len(), 0);
        }
    }

    #[test]
    fn same_tick_storm_preserves_seq_order() {
        let mut wheel = EventQueue::new(QueueKind::Wheel);
        // All in one level-0 granule, inserted in scrambled seq order.
        let mut entries: Vec<(u64, u64)> = (0..256u64).map(|s| (4_096 + (s % 7), s)).collect();
        entries.reverse();
        push_all(&mut wheel, &entries);
        let keys = drain_keys(&mut wheel);
        let mut expect = entries.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut wheel = EventQueue::new(QueueKind::Wheel);
        // Beyond the wheel span (256 << 34 ns): must park in overflow and
        // still come out in order, interleaved with near entries.
        let far = (SLOTS << level_shift(LEVELS - 1)) + 12_345;
        push_all(&mut wheel, &[(far, 0), (10, 1), (far + 1, 2), (far, 3)]);
        assert_eq!(
            drain_keys(&mut wheel),
            vec![(10, 1), (far, 0), (far, 3), (far + 1, 2)]
        );
    }

    /// On a kick, sends itself 100 events at distinct instants.
    struct Burst;

    impl crate::engine::Actor<u32> for Burst {
        fn handle(&mut self, _: SimTime, msg: u32, ctx: &mut crate::engine::Ctx<'_, u32>) {
            if msg == u32::MAX {
                for s in 0..100u64 {
                    ctx.send_self_in(crate::time::SimDuration(s), s as u32);
                }
            }
        }
    }

    #[test]
    fn slab_recycles_nodes() {
        let mut eng = crate::engine::Engine::<u32>::new();
        let a = eng.add_actor(Box::new(Burst));
        for round in 0..10u64 {
            eng.schedule(SimTime(round * 1_000_000), a, u32::MAX);
            eng.run_until(SimTime::MAX);
        }
        assert_eq!(eng.events_processed(), 10 * 101);
        // All ten rounds reused the first round's hundred nodes (the kick's
        // node is freed before its handler sends).
        assert_eq!(eng.slab_nodes(), 100);
    }
}
