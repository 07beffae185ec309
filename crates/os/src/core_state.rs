//! `OsCore`: the complete kernel-side state of one simulated node.
//!
//! The scheduler orchestration (which needs to call back into services)
//! lives in [`crate::node`]; everything that can be expressed as pure state
//! manipulation lives here so it can be unit-tested in isolation.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use fgmon_sim::{ActorId, Ctx, DetRng, SimDuration, SimTime};
use fgmon_types::{
    ConnId, LoadSnapshot, McastGroup, Msg, NetMsg, NodeId, OsConfig, Payload, RegionId, ReqId,
    ServiceSlot, SharedPayload, SharedRaceDetector, SharedSnapshot, ThreadId, TokenBucket,
    MAX_CPUS,
};

use crate::irq::CpuIrq;
use crate::stats::{CpuAccounting, KernelStats};
use crate::thread::{ThreadState, ThreadTable};

/// How inbound packets on a connection reach their service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListenMode {
    /// Wake the given thread; the packet is handed over on the kernel
    /// receive path once the thread is scheduled (full scheduling delay —
    /// the back-end server situation).
    Thread(ThreadId),
    /// Deliver to the service as soon as the bottom half completes
    /// (a polling event loop on a lightly loaded node — front-end and
    /// client emulators).
    Direct,
}

/// What a registered RDMA region exposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// A user-space buffer a back-end calc thread refreshes periodically
    /// (RDMA-Async). Reads return the buffer content as of the last write.
    UserSnapshot,
    /// The live kernel statistics (RDMA-Sync); `detail` additionally
    /// exposes `irq_stat` pending-interrupt counters (e-RDMA-Sync).
    KernelLoad { detail: bool },
    /// A bank of 64-bit words accessed only through the NIC's atomic
    /// verbs (compare-and-swap; fetch via the failing-CAS trick). Plain
    /// reads and writes are refused: single-word atomics cannot tear,
    /// so atomic regions also stay outside the torn-read detector.
    AtomicWords { len: u32 },
}

/// Registration record for one RDMA region.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    pub kind: RegionKind,
    /// Kernel regions are exported read-only (paper §6: "we mark these
    /// memory regions as read-only thus avoiding the risk of modifying
    /// these memory regions remotely").
    pub writable: bool,
    /// Boot generation the region was registered under. A restart bumps
    /// the node's generation, so every pre-restart registration becomes
    /// stale: the NIC answers reads of it with `RegionInvalidated`.
    pub boot_gen: u32,
    /// Monotonic record sequence, bumped on every write (user regions)
    /// or serve (kernel regions — each read materializes a fresh record).
    pub seq: u64,
}

/// Runtime state of one CPU.
#[derive(Debug)]
pub enum CpuRt {
    Idle,
    /// Executing a segment of `tid`'s current burst.
    Running {
        tid: ThreadId,
        /// Thread generation at segment start (guards `QuantumEnd`).
        gen: u64,
        seg_start: SimTime,
        seg_len: SimDuration,
        /// Quantum budget remaining *before* this segment runs.
        quantum_left: SimDuration,
    },
    /// Servicing an interrupt batch.
    Irq {
        /// IRQ generation (guards `IrqBatchDone`).
        gen: u64,
        /// Preempted thread to resume, with its remaining quantum.
        resume: Option<(ThreadId, SimDuration)>,
    },
}

impl CpuRt {
    pub fn is_idle(&self) -> bool {
        matches!(self, CpuRt::Idle)
    }
}

/// The kernel-side state of one node.
pub struct OsCore {
    pub node: NodeId,
    pub cfg: OsConfig,
    /// Engine id of the fabric actor (for NIC transmissions).
    pub fabric: ActorId,
    /// Engine id of this node's actor (for self-scheduled OS events).
    pub self_actor: ActorId,
    pub rng: DetRng,
    pub threads: ThreadTable,
    pub run_queue: VecDeque<ThreadId>,
    pub cpus: Vec<CpuRt>,
    pub cpu_acct: Vec<CpuAccounting>,
    pub irq: Vec<CpuIrq>,
    pub stats: KernelStats,
    regions: Vec<Region>,
    user_snapshots: Vec<Option<LoadSnapshot>>,
    /// The buffer every load record this node sends out is shared from
    /// (see [`OsCore::share_snapshot`]); `None` until the first record.
    snap_buf: Option<SharedSnapshot>,
    /// Word banks backing [`RegionKind::AtomicWords`] regions, parallel
    /// to `regions` (empty for every other kind).
    atomic_words: Vec<Vec<u64>>,
    /// Outstanding RDMA work requests this node initiated, as
    /// `(req_id, owner, token)` rows. A handful are ever in flight, so a
    /// linear-scanned `Vec` beats map node churn on the completion hot
    /// path (and retains its capacity across requests); iteration order is
    /// insertion order, which is deterministic. Posts the NIC's rate
    /// limiter refuses never get a row. A row outlives its request only
    /// when the frame is lost to a fault or a crash window, or its
    /// completion is shed by an overloaded target NIC (at most 97 rows
    /// on the `chaos_sweep` benchmark, seed 1).
    pub rdma_pending: Vec<(u64, ServiceSlot, u64)>,
    next_req: u64,
    /// This NIC's post rate limiter, consulted once per posted frame
    /// (socket, multicast, one-sided verb, or doorbell batch); `None`
    /// leaves the node unlimited. Node-local state, so it travels with
    /// the node into a parallel shard and back.
    limiter: Option<TokenBucket>,
    pub listeners: BTreeMap<ConnId, (ServiceSlot, ListenMode)>,
    pub mcast_subs: BTreeMap<McastGroup, ServiceSlot>,
    /// Boot generation, starting at 1 and bumped by [`OsCore::restart`].
    /// Stamped into every registered region and every fenced record.
    boot_gen: u32,
    /// Shadow-state race detector (shared with the fabric); `None` when
    /// race checking is off, so the hot paths below stay cost-free.
    race: Option<SharedRaceDetector>,
    /// Engine `(time, seq)` key of the event currently being handled;
    /// stamped by the node actor at dispatch so every host write the
    /// handler performs is logged under the event that caused it. Keys
    /// are lane-scoped and shard-invariant, which is what lets the race
    /// detector produce identical reports under parallel execution.
    event_seq: u64,
}

impl OsCore {
    pub fn new(
        node: NodeId,
        cfg: OsConfig,
        fabric: ActorId,
        self_actor: ActorId,
        rng: DetRng,
    ) -> Self {
        let ncpus = cfg.cpus.max(1).min(MAX_CPUS as u8) as usize;
        OsCore {
            node,
            cfg,
            fabric,
            self_actor,
            rng,
            threads: ThreadTable::new(),
            run_queue: VecDeque::new(),
            cpus: (0..ncpus).map(|_| CpuRt::Idle).collect(),
            cpu_acct: (0..ncpus)
                .map(|_| CpuAccounting::new(SimDuration::from_millis(100)))
                .collect(),
            irq: (0..ncpus).map(|_| CpuIrq::default()).collect(),
            stats: KernelStats::new(),
            regions: Vec::new(),
            user_snapshots: Vec::new(),
            snap_buf: None,
            atomic_words: Vec::new(),
            rdma_pending: Vec::new(),
            next_req: 0,
            limiter: None,
            listeners: BTreeMap::new(),
            mcast_subs: BTreeMap::new(),
            boot_gen: 1,
            race: None,
            event_seq: 0,
        }
    }

    /// Stamp the engine sequence key of the event being handled (called
    /// by the node actor before dispatching into kernel/service code).
    pub fn set_event_seq(&mut self, seq: u64) {
        self.event_seq = seq;
    }

    /// Current boot generation (1 until the first restart).
    pub fn boot_generation(&self) -> u32 {
        self.boot_gen
    }

    /// Crash-recovery: bump the boot generation, invalidating every
    /// region registered before this instant. The fail-stop window
    /// already blackholed in-flight traffic; what a restart changes
    /// durably is that old memory registrations are dead — remote
    /// initiators holding pre-crash region handles now get
    /// `RegionInvalidated` and must re-learn them.
    pub fn restart(&mut self, _now: SimTime) {
        self.boot_gen += 1;
    }

    /// Attach the cluster-wide race detector (builder wiring).
    pub fn set_race_detector(&mut self, detector: Option<SharedRaceDetector>) {
        self.race = detector;
    }

    pub fn ncpus(&self) -> usize {
        self.cpus.len()
    }

    /// Instantaneous runnable+running thread count (the kernel run queue).
    pub fn runnable_now(&self) -> u32 {
        let running = self
            .cpus
            .iter()
            .filter(|c| matches!(c, CpuRt::Running { .. }))
            .count() as u32;
        let preempted = self
            .cpus
            .iter()
            .filter(|c| {
                matches!(
                    c,
                    CpuRt::Irq {
                        resume: Some(_),
                        ..
                    }
                )
            })
            .count() as u32;
        self.run_queue.len() as u32 + running + preempted
    }

    /// Fold the run-queue level held since the last change into `avenrun`
    /// without treating it as a kernel write (the lazy-decay step a real
    /// kernel performs on its own 5 s tick; our readers trigger it).
    fn fold_loadavg(&mut self, now: SimTime) {
        let held = self.runnable_now() as f64;
        self.stats.loadavg1.advance(now, held);
    }

    /// Fold the run-queue level held since the last change into `avenrun`.
    /// Call *before* any mutation that changes the runnable count. Every
    /// call site is therefore a genuine kernel-state write, which is what
    /// the shadow-epoch race detector tracks for exported kernel regions.
    pub fn touch_loadavg(&mut self, now: SimTime) {
        self.fold_loadavg(now);
        self.note_kernel_write(now);
    }

    /// Bump the shadow epoch of every exported kernel-load region: the
    /// scheduler state a concurrent one-sided read would sample just
    /// changed under it.
    fn note_kernel_write(&mut self, now: SimTime) {
        let Some(race) = &self.race else { return };
        let mut race = race.borrow_mut();
        if !race.enabled() {
            return;
        }
        for (i, r) in self.regions.iter().enumerate() {
            if matches!(r.kind, RegionKind::KernelLoad { .. }) {
                race.note_host_write(self.node, RegionId(i as u32), now, self.event_seq);
            }
        }
    }

    /// An RDMA read of `region` reached this node's NIC: open its race
    /// window, keyed by the initiator-side posted key carried in the
    /// request.
    pub fn note_read_arrive(
        &mut self,
        initiator: NodeId,
        req: ReqId,
        region: RegionId,
        posted: fgmon_types::PostedKey,
    ) {
        let Some(race) = &self.race else { return };
        race.borrow_mut()
            .on_read_arrive(initiator, req, self.node, region, posted);
    }

    /// Pick the CPU that services the next network interrupt. The paper's
    /// testbed routes a visibly larger share to the second CPU (Fig. 6).
    pub fn pick_irq_cpu(&mut self) -> u8 {
        let n = self.ncpus();
        if n == 1 {
            return 0;
        }
        if self.rng.chance(self.cfg.irq_second_cpu_share) {
            (n - 1) as u8
        } else {
            self.rng.index(n - 1) as u8
        }
    }

    /// Register an RDMA-readable region under the current boot
    /// generation.
    pub fn register_region(&mut self, kind: RegionKind, writable: bool) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            kind,
            writable,
            boot_gen: self.boot_gen,
            seq: 0,
        });
        self.user_snapshots.push(None);
        self.atomic_words.push(match kind {
            RegionKind::AtomicWords { len } => vec![0; len as usize],
            _ => Vec::new(),
        });
        id
    }

    /// NIC-side compare-and-swap on one word of an atomic region:
    /// returns the prior value (the swap happened iff it equaled
    /// `expected`), or `None` if the region is not an atomic bank or
    /// the word is out of range. Zero host CPU, like every other
    /// one-sided serve.
    pub fn atomic_cas(&mut self, id: RegionId, word: u32, expected: u64, swap: u64) -> Option<u64> {
        let bank = self.atomic_words.get_mut(id.0 as usize)?;
        let slot = bank.get_mut(word as usize)?;
        let prior = *slot;
        if prior == expected {
            *slot = swap;
        }
        Some(prior)
    }

    /// Host-local load of an atomic word (the lease manager's view).
    pub fn atomic_read(&self, id: RegionId, word: u32) -> Option<u64> {
        self.atomic_words
            .get(id.0 as usize)?
            .get(word as usize)
            .copied()
    }

    /// Host-local store to an atomic word. On real hardware this is a
    /// CPU atomic participating in the same coherence domain as the
    /// HCA's atomics; single words cannot tear, so no race window.
    pub fn atomic_write(&mut self, id: RegionId, word: u32, value: u64) -> bool {
        match self
            .atomic_words
            .get_mut(id.0 as usize)
            .and_then(|b| b.get_mut(word as usize))
        {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(id.0 as usize)
    }

    /// Is the region's registration still alive (same boot generation)?
    pub fn region_current(&self, id: RegionId) -> bool {
        self.region(id).is_some_and(|r| r.boot_gen == self.boot_gen)
    }

    /// Bump a region's record sequence (a serve of a kernel region
    /// materializes a fresh record) and return the fence to stamp on it.
    pub fn bump_region_seq(&mut self, id: RegionId) -> fgmon_types::RecordFence {
        let r = &mut self.regions[id.0 as usize];
        r.seq += 1;
        fgmon_types::RecordFence {
            generation: r.boot_gen,
            seq: r.seq,
        }
    }

    /// Fence a region's current record without bumping (user regions:
    /// the sequence advanced at write time).
    pub fn region_fence(&self, id: RegionId) -> fgmon_types::RecordFence {
        let r = &self.regions[id.0 as usize];
        fgmon_types::RecordFence {
            generation: r.boot_gen,
            seq: r.seq,
        }
    }

    /// Store a snapshot into a user region (the calc thread's copy step,
    /// or a remote one-sided write landing). A host write for the race
    /// detector: a concurrent RDMA read of this region could tear.
    pub fn write_user_snapshot(&mut self, id: RegionId, snap: LoadSnapshot, now: SimTime) {
        if let Some(slot) = self.user_snapshots.get_mut(id.0 as usize) {
            *slot = Some(snap);
            self.regions[id.0 as usize].seq += 1;
            if let Some(race) = &self.race {
                race.borrow_mut()
                    .note_host_write(self.node, id, now, self.event_seq);
            }
        }
    }

    pub fn read_user_snapshot(&self, id: RegionId) -> Option<LoadSnapshot> {
        self.user_snapshots.get(id.0 as usize).copied().flatten()
    }

    /// Put `snap` in this node's outgoing record buffer and return a
    /// handle for a message to carry: read data this NIC serves, writes
    /// it posts, and the replies and pushes its services send. In the
    /// paper's terms, the registered buffer a one-sided read copies from.
    ///
    /// The buffer is rewritten in place only when no earlier handle is
    /// alive; otherwise a fresh `Arc` replaces it, so a handle in flight
    /// never changes and a warm node allocates nothing. Either way the
    /// handle reads `snap`: no simulated value depends on a refcount.
    pub fn share_snapshot(&mut self, snap: LoadSnapshot) -> SharedSnapshot {
        match self.snap_buf.as_mut().and_then(Arc::get_mut) {
            Some(buf) => *buf = snap,
            None => self.snap_buf = Some(Arc::new(snap)),
        }
        Arc::clone(self.snap_buf.as_ref().expect("buffer filled above"))
    }

    /// Install (or remove) this NIC's post rate limiter (builder wiring).
    pub fn set_post_limiter(&mut self, limiter: Option<TokenBucket>) {
        self.limiter = limiter;
    }

    /// Source-NIC admission for one posted frame at `now`: false when
    /// the rate limiter refuses it. Always true without a limiter.
    pub(crate) fn admit_post(&mut self, now: SimTime) -> bool {
        self.limiter.as_mut().is_none_or(|b| b.try_admit(now))
    }

    /// Hand one frame to the fabric: every frame this node puts on the
    /// wire leaves through here.
    #[inline]
    pub(crate) fn transmit(&self, ctx: &mut Ctx<'_, Msg>, msg: NetMsg) {
        ctx.send_now(self.fabric, Msg::Net(msg));
    }

    /// Post a socket frame on `conn`: count its bytes on the NIC, take
    /// the rate limiter's ruling, and hand it to the fabric.
    pub(crate) fn send_frame(&mut self, ctx: &mut Ctx<'_, Msg>, conn: ConnId, payload: Payload) {
        let size = payload.wire_size();
        self.stats.net.add(ctx.now, size as u64);
        let refused = !self.admit_post(ctx.now);
        let frame = NetMsg::SocketSend {
            src: self.node,
            conn,
            size,
            payload,
            refused,
        };
        self.transmit(ctx, frame);
    }

    /// Post a hardware-multicast frame to `group`, as
    /// [`OsCore::send_frame`] posts a socket frame.
    pub(crate) fn mcast_frame(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        group: McastGroup,
        payload: SharedPayload,
    ) {
        let size = payload.wire_size();
        self.stats.net.add(ctx.now, size as u64);
        let refused = !self.admit_post(ctx.now);
        let frame = NetMsg::McastSend {
            src: self.node,
            group,
            size,
            payload,
            refused,
        };
        self.transmit(ctx, frame);
    }

    /// Allocate a request id for an outgoing RDMA work request. A
    /// `refused` post still consumes its id, so ids do not depend on the
    /// limiter, but records no row: its frame is dropped at the fabric
    /// and no completion will ever retire one.
    pub fn alloc_req(&mut self, slot: ServiceSlot, token: u64, refused: bool) -> ReqId {
        let id = self.next_req;
        self.next_req += 1;
        if !refused {
            self.rdma_pending.push((id, slot, token));
        }
        ReqId(id)
    }

    /// Retire an outstanding RDMA work request, returning its owner and
    /// completion token. `swap_remove` keeps this O(1); order is
    /// irrelevant because the table is only ever probed by request id.
    pub fn take_rdma_pending(&mut self, req: u64) -> Option<(ServiceSlot, u64)> {
        let pos = self.rdma_pending.iter().position(|&(id, _, _)| id == req)?;
        let (_, slot, token) = self.rdma_pending.swap_remove(pos);
        Some((slot, token))
    }

    /// CPU cost of one user-space `/proc` scan on this node right now.
    pub fn proc_read_cost(&self) -> SimDuration {
        self.cfg.costs.proc_read_base
            + SimDuration(
                self.cfg.costs.proc_read_per_thread.nanos() * self.threads.live_count() as u64,
            )
    }

    /// Materialize the node's load information *as of `now`*.
    ///
    /// `kernel_detail` additionally fills the pending-interrupt counters
    /// (either because the reader is a registered-kernel-memory RDMA read,
    /// or because a helper kernel module exposes `irq_stat` to user space
    /// as in the Fig. 6 experiment).
    pub fn snapshot(&mut self, now: SimTime, kernel_detail: bool) -> LoadSnapshot {
        // Reading folds the decayed load average but mutates nothing a
        // remote reader could observe — not a write for the race detector
        // (a kernel-region RDMA read serving itself must not self-flag).
        self.fold_loadavg(now);
        let ncpus = self.ncpus();
        let mut util = 0.0;
        for acct in &mut self.cpu_acct {
            util += acct.utilization(now);
        }
        util /= ncpus.max(1) as f64;

        let mut pending = [0u32; MAX_CPUS];
        let mut totals = [0u64; MAX_CPUS];
        for (i, irq) in self.irq.iter().enumerate().take(MAX_CPUS) {
            if kernel_detail {
                pending[i] = irq.visible_pending();
            }
            totals[i] = irq.total;
        }

        LoadSnapshot {
            measured_at: now,
            cpu_util: util,
            run_queue: self.runnable_now(),
            loadavg1: self.stats.loadavg1.value(),
            nthreads: self.threads.live_count(),
            mem_used_kb: self.stats.mem_used_kb,
            net_kbps: self.stats.net.kbps(now),
            active_conns: self.stats.active_conns,
            pending_irqs: pending,
            irq_total: totals,
            checksum: 0,
        }
        .sealed()
    }

    /// Mark a thread runnable and enqueue it. `boost` places it at the
    /// head of the run queue (packet-wakeup fast path when the node is
    /// configured with `wake_boost`).
    pub fn make_runnable(&mut self, now: SimTime, tid: ThreadId, boost: bool) {
        let state = self.threads.get(tid).state;
        match state {
            ThreadState::Idle | ThreadState::Sleeping => {
                self.touch_loadavg(now);
                let t = self.threads.get_mut(tid);
                t.state = ThreadState::Runnable;
                t.bump_gen();
                if boost && self.cfg.wake_boost {
                    self.run_queue.push_front(tid);
                } else {
                    self.run_queue.push_back(tid);
                }
            }
            // Already queued/running/preempted: nothing to do.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> OsCore {
        OsCore::new(
            NodeId(0),
            OsConfig::default(),
            ActorId(1),
            ActorId(0),
            DetRng::new(7),
        )
    }

    #[test]
    fn region_registry() {
        let mut c = core();
        let r0 = c.register_region(RegionKind::UserSnapshot, true);
        let r1 = c.register_region(RegionKind::KernelLoad { detail: true }, false);
        assert_eq!(r0, RegionId(0));
        assert_eq!(r1, RegionId(1));
        assert!(c.region(r1).unwrap().kind == RegionKind::KernelLoad { detail: true });
        assert!(!c.region(r1).unwrap().writable);
        assert!(c.region(RegionId(9)).is_none());

        assert!(c.read_user_snapshot(r0).is_none());
        let mut s = LoadSnapshot::zero();
        s.nthreads = 42;
        c.write_user_snapshot(r0, s, SimTime(100));
        assert_eq!(c.read_user_snapshot(r0).unwrap().nthreads, 42);
    }

    #[test]
    fn outgoing_records_reuse_the_buffer_only_once_every_handle_is_gone() {
        let mut c = core();
        let busy = c.snapshot(SimTime(5_000), true);
        let first = c.share_snapshot(busy);
        assert_eq!(*first, busy);
        // A live handle pins its record: the next share takes a fresh
        // buffer and leaves the first one untouched.
        let zero = LoadSnapshot::zero();
        let second = c.share_snapshot(zero);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(*first, busy);
        assert_eq!(*second, zero);
        // Once the consumers drop their handles, the buffer is rewritten
        // in place.
        drop(first);
        let kept = Arc::as_ptr(&second);
        drop(second);
        let third = c.share_snapshot(busy);
        assert_eq!(Arc::as_ptr(&third), kept);
        assert_eq!(*third, busy);
        drop(third);
        let fourth = c.share_snapshot(zero);
        assert_eq!(Arc::as_ptr(&fourth), kept);
        assert_eq!(*fourth, zero);
    }

    #[test]
    fn proc_cost_scales_with_threads() {
        let mut c = core();
        let base = c.proc_read_cost();
        for _ in 0..10 {
            c.threads.spawn(ServiceSlot(0));
        }
        let loaded = c.proc_read_cost();
        assert_eq!(
            loaded - base,
            SimDuration(c.cfg.costs.proc_read_per_thread.nanos() * 10)
        );
    }

    #[test]
    fn snapshot_reports_current_threads_and_queue() {
        let mut c = core();
        let a = c.threads.spawn(ServiceSlot(0));
        let b = c.threads.spawn(ServiceSlot(0));
        c.make_runnable(SimTime(1000), a, false);
        c.make_runnable(SimTime(1000), b, false);
        let s = c.snapshot(SimTime(2000), true);
        assert_eq!(s.nthreads, 2);
        assert_eq!(s.run_queue, 2);
        assert_eq!(s.measured_at, SimTime(2000));
    }

    #[test]
    fn make_runnable_is_idempotent() {
        let mut c = core();
        let a = c.threads.spawn(ServiceSlot(0));
        c.make_runnable(SimTime(0), a, false);
        c.make_runnable(SimTime(0), a, false);
        assert_eq!(c.run_queue.len(), 1);
    }

    #[test]
    fn wake_boost_places_at_head() {
        let mut c = core();
        c.cfg.wake_boost = true;
        let a = c.threads.spawn(ServiceSlot(0));
        let b = c.threads.spawn(ServiceSlot(0));
        c.make_runnable(SimTime(0), a, false);
        c.make_runnable(SimTime(0), b, true);
        assert_eq!(c.run_queue.front(), Some(&b));
        // Without the config flag, boost is ignored.
        c.cfg.wake_boost = false;
        let d = c.threads.spawn(ServiceSlot(0));
        c.make_runnable(SimTime(0), d, true);
        assert_eq!(c.run_queue.back(), Some(&d));
    }

    #[test]
    fn irq_cpu_bias_towards_last() {
        let mut c = core();
        c.cfg.irq_second_cpu_share = 0.7;
        let mut last = 0;
        let n = 10_000;
        for _ in 0..n {
            if c.pick_irq_cpu() == 1 {
                last += 1;
            }
        }
        let share = last as f64 / n as f64;
        assert!((share - 0.7).abs() < 0.03, "share={share}");
    }

    #[test]
    fn single_cpu_always_zero() {
        let mut c = OsCore::new(
            NodeId(0),
            OsConfig {
                cpus: 1,
                ..OsConfig::default()
            },
            ActorId(1),
            ActorId(0),
            DetRng::new(7),
        );
        for _ in 0..100 {
            assert_eq!(c.pick_irq_cpu(), 0);
        }
    }

    #[test]
    fn alloc_req_tracks_owner() {
        let mut c = core();
        let r = c.alloc_req(ServiceSlot(3), 99, false);
        assert_eq!(r, ReqId(0));
        assert_eq!(c.rdma_pending, vec![(0, ServiceSlot(3), 99)]);
        let r2 = c.alloc_req(ServiceSlot(3), 100, false);
        assert_eq!(r2, ReqId(1));
        assert_eq!(c.take_rdma_pending(0), Some((ServiceSlot(3), 99)));
        assert_eq!(c.take_rdma_pending(0), None);
        assert_eq!(c.take_rdma_pending(1), Some((ServiceSlot(3), 100)));
        // A refused post consumes its id but leaves no row to retire.
        assert_eq!(c.alloc_req(ServiceSlot(3), 101, true), ReqId(2));
        assert!(c.rdma_pending.is_empty());
    }

    #[test]
    fn kernel_detail_controls_pending_visibility() {
        let mut c = core();
        c.irq[0].pending_hw = 5;
        let with = c.snapshot(SimTime(10), true);
        let without = c.snapshot(SimTime(20), false);
        assert_eq!(with.pending_irqs[0], 5);
        assert_eq!(without.pending_irqs[0], 0);
        // Cumulative totals are always visible (they are in /proc).
        c.irq[0].total = 7;
        let s = c.snapshot(SimTime(30), false);
        assert_eq!(s.irq_total[0], 7);
    }
}
