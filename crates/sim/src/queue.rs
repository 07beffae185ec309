//! Event-queue implementations for the engine.
//!
//! Two interchangeable priority queues ordered by `(time, seq)`:
//!
//! * [`QueueKind::Heap`] — the original `BinaryHeap<Reverse<Entry>>`. Kept
//!   as the golden reference: the wheel must reproduce its dequeue order
//!   bitwise (see the golden-equivalence tests in `fgmon-cluster`).
//! * [`QueueKind::Wheel`] — a hierarchical timing wheel with a
//!   slab-recycled entry pool. Inserts and pops are O(1) amortized and
//!   allocation-free in steady state: entries live in a recycled slab and
//!   move between buckets as `u32` indices instead of being sifted through
//!   a heap ~200 bytes at a time.
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
//! drains), (b) the cursor only advances past fully-drained time, and
//! (c) late inserts below the cursor binary-search into the sorted `ready`
//! run, every pop returns the global `(time, seq)` minimum — the same
//! entry the reference heap would return.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::ActorId;
use crate::time::SimTime;

/// Which event-queue implementation an [`crate::Engine`] uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueKind {
    /// Binary heap (the pre-overhaul reference implementation).
    Heap,
    /// Hierarchical timing wheel (the default).
    Wheel,
}

/// One scheduled event. Ordered by `(time, seq)`; `seq` is unique, so the
/// order is total.
pub(crate) struct Entry<M> {
    pub time: SimTime,
    pub seq: u64,
    pub dst: ActorId,
    pub msg: M,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The engine's event queue: either implementation behind one interface.
///
/// The size gap between variants is intentional: exactly one `EventQueue`
/// exists per engine and the wheel is the default, so boxing it would buy
/// nothing but a pointer chase on every push/pop.
// lint: allow-attr — one instance per engine; boxing the wheel would put an
// indirection on the hottest path in the workspace to save bytes that don't
// multiply.
#[allow(clippy::large_enum_variant)]
pub(crate) enum EventQueue<M> {
    Heap(BinaryHeap<Reverse<Entry<M>>>),
    Wheel(TimingWheel<M>),
}

impl<M> EventQueue<M> {
    pub fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => EventQueue::Heap(BinaryHeap::new()),
            QueueKind::Wheel => EventQueue::Wheel(TimingWheel::new()),
        }
    }

    pub fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Heap(_) => QueueKind::Heap,
            EventQueue::Wheel(_) => QueueKind::Wheel,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            EventQueue::Heap(h) => h.len(),
            EventQueue::Wheel(w) => w.len,
        }
    }

    /// Pre-size internal storage for roughly `events` concurrently
    /// outstanding events.
    pub fn reserve(&mut self, events: usize) {
        match self {
            EventQueue::Heap(h) => h.reserve(events),
            EventQueue::Wheel(w) => w.reserve(events),
        }
    }

    pub fn push(&mut self, entry: Entry<M>) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(entry)),
            EventQueue::Wheel(w) => w.push(entry),
        }
    }

    /// `(time, seq)` of the next entry [`EventQueue::pop`] would return.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(e)| (e.time, e.seq)),
            EventQueue::Wheel(w) => w.peek_key(),
        }
    }

    pub fn pop(&mut self) -> Option<Entry<M>> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(e)| e),
            EventQueue::Wheel(w) => w.pop(),
        }
    }

    /// Pop the earliest entry only if its time is strictly below `bound`
    /// — the fused peek-min + pop the bounded-lag window loop and the
    /// watermark computation lean on, saving a second ready-list probe
    /// per event over `peek_key` followed by `pop`.
    pub fn pop_below(&mut self, bound: SimTime) -> Option<Entry<M>> {
        match self {
            EventQueue::Heap(h) => {
                if h.peek().is_none_or(|Reverse(e)| e.time >= bound) {
                    None
                } else {
                    h.pop().map(|Reverse(e)| e)
                }
            }
            EventQueue::Wheel(w) => w.pop_below(bound),
        }
    }
}

const SLOT_BITS: u32 = 8;
const SLOTS: u64 = 1 << SLOT_BITS;
const LEVELS: usize = 4;
/// Level-0 granule: 2^10 ns ≈ 1 µs.
const G0_SHIFT: u32 = 10;
const NIL: u32 = u32::MAX;

#[inline]
fn level_shift(level: usize) -> u32 {
    G0_SHIFT + SLOT_BITS * level as u32
}

struct Node<M> {
    time: SimTime,
    seq: u64,
    dst: ActorId,
    msg: Option<M>,
    next: u32,
}

/// Hierarchical timing wheel with slab-recycled nodes. See the module docs
/// for the layout and the ordering argument.
pub(crate) struct TimingWheel<M> {
    /// Entry pool. Freed nodes chain through `next` from `free`; steady
    /// state allocates nothing once the slab reaches its high-water mark.
    slab: Vec<Node<M>>,
    free: u32,
    /// Intrusive singly-linked bucket lists: `heads/tails[level * SLOTS + slot]`.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Per-level slot occupancy bitmaps (256 bits each).
    occ: [[u64; 4]; LEVELS],
    /// Granule-aligned frontier: every entry with `time < cursor` has been
    /// drained into `ready`; every entry still in a bucket or the overflow
    /// heap has `time >= cursor`.
    cursor: u64,
    /// Slab indices sorted by `(time, seq)` *descending* — pop takes from
    /// the end. Holds the drained front of the timeline.
    ready: Vec<u32>,
    /// Entries beyond the wheel span, keyed `(time_nanos, seq, slab index)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Total entries across buckets, `ready`, and overflow.
    len: usize,
    /// Entries currently in wheel buckets only.
    in_buckets: usize,
    /// Reused drain buffer.
    scratch: Vec<u32>,
}

impl<M> TimingWheel<M> {
    pub fn new() -> Self {
        TimingWheel {
            slab: Vec::new(),
            free: NIL,
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

    fn reserve(&mut self, events: usize) {
        self.slab.reserve(events.saturating_sub(self.slab.len()));
        self.ready.reserve(64);
        self.scratch.reserve(64);
    }

    fn alloc_node(&mut self, entry: Entry<M>) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.slab[idx as usize];
            self.free = n.next;
            n.time = entry.time;
            n.seq = entry.seq;
            n.dst = entry.dst;
            n.msg = Some(entry.msg);
            n.next = NIL;
            idx
        } else {
            let idx = self.slab.len() as u32;
            assert!(idx != NIL, "timing wheel slab overflow");
            self.slab.push(Node {
                time: entry.time,
                seq: entry.seq,
                dst: entry.dst,
                msg: Some(entry.msg),
                next: NIL,
            });
            idx
        }
    }

    #[inline]
    fn key(&self, idx: u32) -> (u64, u64) {
        let n = &self.slab[idx as usize];
        (n.time.nanos(), n.seq)
    }

    fn push(&mut self, entry: Entry<M>) {
        let idx = self.alloc_node(entry);
        self.len += 1;
        self.place(idx);
    }

    /// File a node under the right structure for its timestamp.
    fn place(&mut self, idx: u32) {
        let (t, seq) = self.key(idx);
        if t < self.cursor {
            self.ready_insert(idx, (t, seq));
            return;
        }
        for level in 0..LEVELS {
            let sh = level_shift(level);
            if (t >> sh) - (self.cursor >> sh) < SLOTS {
                self.bucket_append(level, ((t >> sh) & (SLOTS - 1)) as usize, idx);
                self.in_buckets += 1;
                return;
            }
        }
        self.overflow.push(Reverse((t, seq, idx)));
    }

    /// Insert into the descending-sorted ready run at its `(time, seq)`
    /// position. Late inserts land here when their timestamp falls below
    /// the drained frontier (e.g. zero-delay sends).
    fn ready_insert(&mut self, idx: u32, key: (u64, u64)) {
        let pos = self.ready.partition_point(|&i| {
            (
                self.slab[i as usize].time.nanos(),
                self.slab[i as usize].seq,
            ) > key
        });
        self.ready.insert(pos, idx);
    }

    #[inline]
    fn bucket_append(&mut self, level: usize, slot: usize, idx: u32) {
        let b = level * SLOTS as usize + slot;
        let tail = self.tails[b];
        if tail == NIL {
            self.heads[b] = idx;
        } else {
            self.slab[tail as usize].next = idx;
        }
        self.tails[b] = idx;
        self.occ[level][slot / 64] |= 1u64 << (slot % 64);
    }

    /// Detach a whole bucket list into `scratch` (FIFO order).
    fn drain_bucket(&mut self, level: usize, slot: usize) {
        let b = level * SLOTS as usize + slot;
        let mut cur = self.heads[b];
        self.heads[b] = NIL;
        self.tails[b] = NIL;
        self.occ[level][slot / 64] &= !(1u64 << (slot % 64));
        self.scratch.clear();
        while cur != NIL {
            self.scratch.push(cur);
            let next = self.slab[cur as usize].next;
            self.slab[cur as usize].next = NIL;
            cur = next;
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
    fn refill(&mut self) {
        while self.ready.is_empty() {
            if self.in_buckets == 0 {
                // Wheel empty: jump the cursor to the overflow's earliest
                // granule and pull newly-in-range entries back in.
                let Some(&Reverse((t, _, _))) = self.overflow.peek() else {
                    return;
                };
                self.cursor = (t >> G0_SHIFT) << G0_SHIFT;
                self.pull_overflow_below(u64::MAX);
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
            // Overflow entries earlier than the chosen window re-enter the
            // wheel before any draining happens past them.
            if self
                .overflow
                .peek()
                .is_some_and(|&Reverse((t, _, _))| t < start)
            {
                self.pull_overflow_below(start);
                continue;
            }
            if level == 0 {
                // `start >= cursor` at level 0: occupied level-0 slots are
                // never behind the drained frontier.
                self.drain_bucket(0, slot);
                let mut run = std::mem::take(&mut self.scratch);
                run.sort_unstable_by_key(|&i| std::cmp::Reverse(self.key(i)));
                self.in_buckets -= run.len();
                debug_assert!(self.ready.is_empty());
                std::mem::swap(&mut self.ready, &mut run);
                self.scratch = run;
                self.cursor = start + (1 << G0_SHIFT);
            } else {
                // Cascade: nothing anywhere is earlier than `start`, so the
                // frontier may advance to it; entries then re-place at a
                // strictly lower level.
                self.cursor = self.cursor.max(start);
                self.drain_bucket(level, slot);
                let run = std::mem::take(&mut self.scratch);
                self.in_buckets -= run.len();
                for idx in &run {
                    self.place(*idx);
                }
                self.scratch = run;
            }
        }
    }

    /// Reinsert overflow entries with `time < limit` (they are all
    /// `>= cursor`, so they land in wheel buckets, never back in overflow).
    fn pull_overflow_below(&mut self, limit: u64) {
        while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
            if t >= limit || !self.within_span(t) {
                break;
            }
            let Reverse((_, _, idx)) = self.overflow.pop().expect("peeked entry vanished");
            self.place(idx);
        }
    }

    #[inline]
    fn within_span(&self, t: u64) -> bool {
        let sh = level_shift(LEVELS - 1);
        (t >> sh) - (self.cursor >> sh) < SLOTS
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.refill();
        self.ready.last().map(|&idx| {
            let n = &self.slab[idx as usize];
            (n.time, n.seq)
        })
    }

    fn pop(&mut self) -> Option<Entry<M>> {
        self.refill();
        let idx = self.ready.pop()?;
        self.take_ready(idx)
    }

    /// Fused peek-min + conditional pop: one `refill` and one ready-list
    /// probe whether or not the head clears `bound`.
    fn pop_below(&mut self, bound: SimTime) -> Option<Entry<M>> {
        self.refill();
        let &idx = self.ready.last()?;
        if self.slab[idx as usize].time >= bound {
            return None;
        }
        self.ready.pop();
        self.take_ready(idx)
    }

    /// Detach a slab node already removed from `ready` into an [`Entry`].
    fn take_ready(&mut self, idx: u32) -> Option<Entry<M>> {
        self.len -= 1;
        let n = &mut self.slab[idx as usize];
        let entry = Entry {
            time: n.time,
            seq: n.seq,
            dst: n.dst,
            msg: n.msg.take().expect("queued node without message"),
        };
        n.next = self.free;
        self.free = idx;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn drain_keys(q: &mut EventQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.time.nanos(), e.seq));
        }
        out
    }

    fn push_all(q: &mut EventQueue<u32>, entries: &[(u64, u64)]) {
        for &(t, seq) in entries {
            q.push(Entry {
                time: SimTime(t),
                seq,
                dst: ActorId(0),
                msg: seq as u32,
            });
        }
    }

    #[test]
    fn wheel_matches_heap_on_random_schedule() {
        let mut rng = DetRng::new(0xfeed);
        for round in 0..20 {
            let mut entries = Vec::new();
            for seq in 0..500u64 {
                // Mix of near, same-tick, far, and very-far timestamps.
                let t = match rng.range_u64(0, 5) {
                    0 => rng.range_u64(0, 1_000),
                    1 => 777,
                    2 => rng.range_u64(0, 1_000_000),
                    3 => rng.range_u64(0, 10_000_000_000),
                    _ => 60_000_000_000_000 + rng.range_u64(0, 1_000_000_000_000),
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

    #[test]
    fn wheel_interleaved_pop_push_matches_heap() {
        let mut rng = DetRng::new(0xabcd);
        let mut heap = EventQueue::new(QueueKind::Heap);
        let mut wheel = EventQueue::new(QueueKind::Wheel);
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..3_000 {
            // Pop a few, then schedule a few relative to the popped time —
            // mimicking the engine's dispatch loop (including zero delays).
            for _ in 0..rng.range_u64(0, 3) {
                let h = heap.pop().map(|e| (e.time.nanos(), e.seq));
                let w = wheel.pop().map(|e| (e.time.nanos(), e.seq));
                assert_eq!(h, w);
                if let Some((t, _)) = h {
                    now = t;
                }
            }
            for _ in 0..rng.range_u64(0, 4) {
                let delay = match rng.range_u64(0, 4) {
                    0 => 0,
                    1 => rng.range_u64(0, 100),
                    2 => rng.range_u64(0, 5_000_000),
                    _ => rng.range_u64(0, 20_000_000_000),
                };
                let e = (now + delay, seq);
                seq += 1;
                push_all(&mut heap, &[e]);
                push_all(&mut wheel, &[e]);
            }
        }
        assert_eq!(drain_keys(&mut heap), drain_keys(&mut wheel));
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

    #[test]
    fn slab_recycles_nodes() {
        let mut wheel = TimingWheel::<u32>::new();
        for round in 0..10u64 {
            for s in 0..100u64 {
                wheel.push(Entry {
                    time: SimTime(round * 1_000_000 + s),
                    seq: round * 100 + s,
                    dst: ActorId(0),
                    msg: 0,
                });
            }
            while wheel.pop().is_some() {}
        }
        // All ten rounds reused the first round's hundred nodes.
        assert_eq!(wheel.slab.len(), 100);
    }
}
