//! Threads and the per-thread operation queue.
//!
//! A simulated thread is driven by a queue of [`ThreadOp`]s pushed by its
//! owning service: CPU bursts, sleeps, and sends. The scheduler consumes
//! ops in order; blocking ops release the CPU. A thread with an empty
//! queue and no pending input is *blocked* (`Idle`), exactly like a process
//! parked in `recv()`.

use std::collections::VecDeque;

use fgmon_sim::SimDuration;
use fgmon_types::{ConnId, McastGroup, Payload, ServiceSlot, SharedPayload, ThreadId};

/// A queued unit of work for one thread.
#[derive(Debug)]
pub enum ThreadOp {
    /// Consume `dur` of CPU time, then (if `token` is set) call the owning
    /// service's `on_burst_done`.
    Burst {
        dur: SimDuration,
        token: Option<u64>,
    },
    /// Release the CPU for `dur` (rounded up to the node's timer tick),
    /// then become runnable again; `token` is handed to `on_wake` when the
    /// thread is next dispatched.
    Sleep {
        dur: SimDuration,
        token: Option<u64>,
    },
    /// Consume the kernel send-path CPU cost, then emit the packet.
    Send { conn: ConnId, payload: Payload },
    /// Consume the kernel send-path CPU cost, then emit a hardware
    /// multicast frame (body already shared for zero-copy fan-out).
    McastSend {
        group: McastGroup,
        payload: SharedPayload,
    },
}

/// Why the CPU is currently executing a burst for this thread.
#[derive(Debug, Clone)]
pub enum BurstKind {
    /// Service-requested work; completion may notify the service.
    Work { token: Option<u64> },
    /// Kernel receive path; on completion one pending packet is delivered
    /// to the service.
    Recv,
    /// Kernel send path; on completion the packet leaves the node.
    Send { conn: ConnId, payload: Payload },
    /// Kernel send path for a multicast frame.
    McastSend {
        group: McastGroup,
        payload: SharedPayload,
    },
}

/// The in-progress burst of a running (or preempted) thread.
#[derive(Debug)]
pub struct ActiveBurst {
    pub remaining: SimDuration,
    pub kind: BurstKind,
}

/// Scheduling state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Blocked: not runnable, waiting for input or ops.
    Idle,
    /// On the run queue.
    Runnable,
    /// Executing on the given CPU.
    Running(u8),
    /// Was executing, bumped off its CPU by interrupt servicing; resumes
    /// on the same CPU when the IRQ batch drains.
    Preempted(u8),
    /// Waiting for a timer.
    Sleeping,
    /// Exited; slot kept to preserve id stability.
    Dead,
}

/// One simulated thread.
#[derive(Debug)]
pub struct Thread {
    pub id: ThreadId,
    pub owner: ServiceSlot,
    pub state: ThreadState,
    /// Invalidates stale wake/quantum events after state changes.
    pub gen: u64,
    /// Work in progress (survives preemption and quantum expiry).
    pub burst: Option<ActiveBurst>,
    /// Ops queued by the owning service.
    pub ops: VecDeque<ThreadOp>,
    /// Packets that arrived for this thread and await the recv path.
    pub inbox: VecDeque<(ConnId, u32, Payload)>,
    /// Wake token to deliver via `on_wake` at next dispatch.
    pub pending_wake: Option<u64>,
}

impl Thread {
    pub fn new(id: ThreadId, owner: ServiceSlot) -> Self {
        Thread {
            id,
            owner,
            state: ThreadState::Idle,
            gen: 0,
            burst: None,
            ops: VecDeque::new(),
            inbox: VecDeque::new(),
            pending_wake: None,
        }
    }

    /// Does this thread have anything to execute right now?
    pub fn has_work(&self) -> bool {
        self.burst.is_some()
            || !self.ops.is_empty()
            || !self.inbox.is_empty()
            || self.pending_wake.is_some()
    }

    pub fn is_alive(&self) -> bool {
        self.state != ThreadState::Dead
    }

    #[inline]
    pub fn bump_gen(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }
}

/// Slab of threads for one node. Dead slots are recycled (LIFO) so a
/// service that churns short-lived workers — the web pool exits one per
/// request once spares accumulate — neither grows the table without
/// bound nor re-allocates per-thread op queues on every spawn.
#[derive(Debug, Default)]
pub struct ThreadTable {
    threads: Vec<Thread>,
    /// Slots released by [`ThreadTable::release`], ready for reuse.
    free: Vec<u32>,
}

impl ThreadTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn spawn(&mut self, owner: ServiceSlot) -> ThreadId {
        if let Some(slot) = self.free.pop() {
            let t = &mut self.threads[slot as usize];
            debug_assert_eq!(t.state, ThreadState::Dead);
            t.owner = owner;
            t.state = ThreadState::Idle;
            // `gen` is deliberately NOT reset: it keeps growing across
            // incarnations so events addressed to the previous occupant
            // stay stale. `ops`/`inbox` keep their capacity.
            t.burst = None;
            t.pending_wake = None;
            return t.id;
        }
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(Thread::new(id, owner));
        id
    }

    /// Return a dead thread's slot to the free list. The caller must have
    /// already cleared its queues and bumped its generation (see
    /// `OsApi::exit_thread`).
    pub fn release(&mut self, id: ThreadId) {
        debug_assert_eq!(self.threads[id.index()].state, ThreadState::Dead);
        self.free.push(id.0);
    }

    #[inline]
    pub fn get(&self, id: ThreadId) -> &Thread {
        &self.threads[id.index()]
    }

    #[inline]
    pub fn get_mut(&mut self, id: ThreadId) -> &mut Thread {
        &mut self.threads[id.index()]
    }

    /// Number of live (non-dead) threads — the `/proc` "nthreads" value.
    pub fn live_count(&self) -> u32 {
        self.threads.iter().filter(|t| t.is_alive()).count() as u32
    }

    pub fn len(&self) -> usize {
        self.threads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Thread> {
        self.threads.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_assigns_sequential_ids() {
        let mut tt = ThreadTable::new();
        let a = tt.spawn(ServiceSlot(0));
        let b = tt.spawn(ServiceSlot(0));
        assert_eq!(a, ThreadId(0));
        assert_eq!(b, ThreadId(1));
        assert_eq!(tt.live_count(), 2);
        assert_eq!(tt.len(), 2);
    }

    #[test]
    fn dead_threads_leave_live_count() {
        let mut tt = ThreadTable::new();
        let a = tt.spawn(ServiceSlot(0));
        tt.spawn(ServiceSlot(0));
        tt.get_mut(a).state = ThreadState::Dead;
        assert_eq!(tt.live_count(), 1);
        assert!(!tt.get(a).is_alive());
    }

    #[test]
    fn has_work_reflects_queues() {
        let mut tt = ThreadTable::new();
        let a = tt.spawn(ServiceSlot(0));
        assert!(!tt.get(a).has_work());
        tt.get_mut(a).ops.push_back(ThreadOp::Burst {
            dur: SimDuration::from_millis(1),
            token: None,
        });
        assert!(tt.get(a).has_work());
        tt.get_mut(a).ops.clear();
        tt.get_mut(a).pending_wake = Some(7);
        assert!(tt.get(a).has_work());
        tt.get_mut(a).pending_wake = None;
        tt.get_mut(a)
            .inbox
            .push_back((ConnId(0), 64, Payload::Opaque { tag: 1 }));
        assert!(tt.get(a).has_work());
    }

    #[test]
    fn gen_bump_monotone() {
        let mut t = Thread::new(ThreadId(0), ServiceSlot(0));
        let g1 = t.bump_gen();
        let g2 = t.bump_gen();
        assert!(g2 > g1);
    }
}
