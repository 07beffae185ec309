//! The service abstraction: "processes" hosted on a simulated node.
//!
//! A [`Service`] owns threads and reacts to OS callbacks (wakeups, burst
//! completions, packet deliveries, RDMA completions). All interaction with
//! the OS happens through the [`OsApi`] handed to each callback — a mini
//! process API: spawn threads, queue CPU bursts, sleep, send packets, read
//! `/proc`, register RDMA regions, post RDMA work requests.

use std::any::Any;

use fgmon_sim::{Ctx, DetRng, SimDuration, SimTime};
use fgmon_types::{
    BatchedRead, ConnId, LoadSnapshot, McastGroup, Msg, NetMsg, NodeId, NodeMsg, Payload,
    RdmaResult, RegionData, RegionId, ServiceSlot, SharedPayload, SharedSnapshot, ThreadId,
};

use crate::core_state::{ListenMode, OsCore, RegionKind};
use crate::thread::{ThreadOp, ThreadState};

/// A user-level program running on a node.
///
/// All callbacks default to no-ops so implementations only write the hooks
/// they need. Callbacks run at well-defined simulated instants:
///
/// * `on_start` — node boot (time 0 unless staged otherwise);
/// * `on_wake` — the thread was dispatched after a sleep/explicit wake;
/// * `on_burst_done` — a CPU burst with a token finished (thread still
///   holds the CPU);
/// * `on_packet` — a packet completed the kernel receive path; `tid` is
///   `Some` for threaded listeners (full scheduling delay paid) and `None`
///   for direct listeners;
/// * `on_rdma_complete` — a posted RDMA work request completed;
/// * `on_mcast` — a multicast frame arrived (direct delivery);
/// * `on_timer` — a zero-cost service-level timer (driver convenience;
///   *simulated* code paths should sleep a thread instead).
pub trait Service: Any + Send {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let _ = os;
    }
    /// Crash-recovery hook: the node's boot generation just bumped, so
    /// every region registered before this instant is invalid. Services
    /// that export RDMA regions re-register and re-advertise them here.
    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        let _ = os;
    }
    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        let _ = (token, os);
    }
    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let _ = (tid, token, os);
    }
    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let _ = (tid, token, os);
    }
    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let _ = (tid, conn, size, payload, os);
    }
    fn on_rdma_complete(&mut self, token: u64, result: RdmaResult, os: &mut OsApi<'_, '_>) {
        let _ = (token, result, os);
    }
    fn on_mcast(&mut self, group: McastGroup, payload: SharedPayload, os: &mut OsApi<'_, '_>) {
        let _ = (group, payload, os);
    }
}

/// The OS interface exposed to service callbacks.
pub struct OsApi<'a, 'b> {
    pub(crate) core: &'a mut OsCore,
    pub(crate) ctx: &'a mut Ctx<'b, Msg>,
    pub(crate) slot: ServiceSlot,
}

impl OsApi<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.core.node
    }

    /// The service slot this callback belongs to.
    pub fn slot(&self) -> ServiceSlot {
        self.slot
    }

    /// The node's current boot generation (bumped on every restart).
    pub fn boot_generation(&self) -> u32 {
        self.core.boot_generation()
    }

    /// The node's deterministic RNG.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.core.rng
    }

    /// Record into the global metric recorder.
    pub fn recorder(&mut self) -> &mut fgmon_sim::Recorder {
        self.ctx.recorder()
    }

    // ---- threads ---------------------------------------------------------

    /// Create a thread owned by this service. It starts blocked; queue ops
    /// or call [`OsApi::wake_thread`] to run it.
    pub fn spawn_thread(&mut self, name: &'static str) -> ThreadId {
        // lint: thread-spawn — this "spawn" is the simulated ThreadTable:
        // a bookkeeping entry scheduled by engine events, not an OS thread.
        self.core.threads.spawn(self.slot, name)
    }

    /// Terminate a thread (drops queued work and frees its CPU, if any).
    pub fn exit_thread(&mut self, tid: ThreadId) {
        let now = self.ctx.now;
        self.core.touch_loadavg(now);
        let prior = {
            let t = self.core.threads.get_mut(tid);
            let prior = t.state;
            if prior == ThreadState::Dead {
                // Double-exit: the slot is already released (and possibly
                // reused); touching it again would corrupt the free list.
                return;
            }
            t.state = ThreadState::Dead;
            t.bump_gen();
            t.ops.clear();
            t.inbox.clear();
            t.burst = None;
            t.pending_wake = None;
            prior
        };
        self.core.run_queue.retain(|&q| q != tid);
        match prior {
            ThreadState::Running(cpu) => {
                // The pending QuantumEnd is stale (gen bumped); free the CPU
                // so the balancer can refill it when the handler returns.
                self.core.cpus[cpu as usize] = crate::core_state::CpuRt::Idle;
                self.core.cpu_acct[cpu as usize].set_busy(now, false);
            }
            ThreadState::Preempted(cpu) => {
                // Clear the IRQ resume slot so the batch-done handler does
                // not try to revive a dead thread.
                if let crate::core_state::CpuRt::Irq { resume, .. } =
                    &mut self.core.cpus[cpu as usize]
                {
                    *resume = None;
                }
            }
            _ => {}
        }
        self.core.threads.release(tid);
    }

    /// Make a blocked thread runnable, delivering `token` via `on_wake`
    /// when it is dispatched.
    pub fn wake_thread(&mut self, tid: ThreadId, token: u64) {
        let now = self.ctx.now;
        self.core.threads.get_mut(tid).pending_wake = Some(token);
        self.core.make_runnable(now, tid, false);
    }

    /// Queue a CPU burst on `tid`; `on_burst_done(tid, token)` fires when
    /// it completes.
    pub fn burst(&mut self, tid: ThreadId, dur: SimDuration, token: u64) {
        self.push_op(
            tid,
            ThreadOp::Burst {
                dur,
                token: Some(token),
            },
        );
    }

    /// Queue a CPU burst with no completion callback.
    pub fn burst_silent(&mut self, tid: ThreadId, dur: SimDuration) {
        self.push_op(tid, ThreadOp::Burst { dur, token: None });
    }

    /// Queue a sleep; `on_wake(tid, token)` fires after the thread is
    /// rescheduled (sleep expiry is rounded up to the node's timer tick).
    pub fn sleep(&mut self, tid: ThreadId, dur: SimDuration, token: u64) {
        self.push_op(
            tid,
            ThreadOp::Sleep {
                dur,
                token: Some(token),
            },
        );
    }

    /// Queue a packet send from `tid` (charges the kernel send-path CPU
    /// cost to the thread before the frame leaves).
    pub fn send(&mut self, tid: ThreadId, conn: ConnId, payload: Payload) {
        self.push_op(tid, ThreadOp::Send { conn, payload });
    }

    /// Queue a hardware-multicast send from `tid`. The body is allocated
    /// once here and shared by reference with every recipient.
    pub fn mcast_send(&mut self, tid: ThreadId, group: McastGroup, payload: Payload) {
        self.push_op(
            tid,
            ThreadOp::McastSend {
                group,
                payload: SharedPayload::new(payload),
            },
        );
    }

    fn push_op(&mut self, tid: ThreadId, op: ThreadOp) {
        let now = self.ctx.now;
        {
            let t = self.core.threads.get_mut(tid);
            if !t.is_alive() {
                return;
            }
            t.ops.push_back(op);
        }
        // A blocked thread with new work must join the run queue.
        if self.core.threads.get(tid).state == ThreadState::Idle {
            self.core.make_runnable(now, tid, false);
        }
    }

    // ---- zero-cost driver facilities --------------------------------------

    /// Fire `on_timer(token)` after `delay`. Costs no simulated CPU — use
    /// for client/driver logic, not for code paths under measurement.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let slot = self.slot;
        self.ctx.send_in(
            delay,
            self.core.self_actor,
            Msg::Node(NodeMsg::ServiceTimer {
                service: slot,
                token,
            }),
        );
    }

    /// Transmit a packet immediately with no node CPU cost. Models the
    /// already-in-kernel forwarding of a lightly loaded front-end; back-end
    /// code under measurement should use [`OsApi::send`].
    pub fn send_direct(&mut self, conn: ConnId, payload: Payload) {
        let size = payload.wire_size();
        let now = self.ctx.now;
        self.core.stats.net.add(now, size as u64);
        let refused = !self.core.admit_post(now);
        let src = self.core.node;
        let fabric = self.core.fabric;
        self.ctx.send_now(
            fabric,
            Msg::Net(NetMsg::SocketSend {
                src,
                conn,
                size,
                payload,
                refused,
            }),
        );
    }

    // ---- connections -------------------------------------------------------

    /// Transmit a hardware-multicast frame immediately with no node CPU
    /// cost (front-end publishing; back-end code under measurement should
    /// use [`OsApi::mcast_send`]).
    pub fn mcast_direct(&mut self, group: McastGroup, payload: Payload) {
        let size = payload.wire_size();
        let now = self.ctx.now;
        self.core.stats.net.add(now, size as u64);
        let refused = !self.core.admit_post(now);
        let src = self.core.node;
        let fabric = self.core.fabric;
        self.ctx.send_now(
            fabric,
            Msg::Net(NetMsg::McastSend {
                src,
                group,
                size,
                payload: SharedPayload::new(payload),
                refused,
            }),
        );
    }

    /// Route inbound packets on `conn` to this service, waking `tid`.
    pub fn listen_thread(&mut self, conn: ConnId, tid: ThreadId) {
        self.core
            .listeners
            .insert(conn, (self.slot, ListenMode::Thread(tid)));
    }

    /// Route inbound packets on `conn` to this service without thread
    /// scheduling (front-end/client style).
    pub fn listen_direct(&mut self, conn: ConnId) {
        self.core
            .listeners
            .insert(conn, (self.slot, ListenMode::Direct));
    }

    /// Receive frames for a multicast group (direct delivery).
    pub fn subscribe_mcast(&mut self, group: McastGroup) {
        self.core.mcast_subs.insert(group, self.slot);
    }

    /// Adjust the node's active-connection count (load metric).
    pub fn add_conns(&mut self, delta: i32) {
        let c = &mut self.core.stats.active_conns;
        *c = (*c as i64 + delta as i64).max(0) as u32;
    }

    /// Adjust the node's in-use memory (load metric).
    pub fn alloc_mem_kb(&mut self, delta: i64) {
        let m = &mut self.core.stats.mem_used_kb;
        *m = (*m as i64 + delta).max(0) as u64;
    }

    // ---- /proc -------------------------------------------------------------

    /// CPU cost of scanning `/proc` right now (trap + per-thread walk).
    pub fn proc_read_cost(&self) -> SimDuration {
        self.core.proc_read_cost()
    }

    /// The user-space load-computation cost after a `/proc` scan.
    pub fn load_calc_cost(&self) -> SimDuration {
        self.core.cfg.costs.load_calc
    }

    /// Materialize the `/proc` view at the current instant.
    ///
    /// `via_kernel_module` exposes the pending-interrupt counters the way
    /// the paper's helper module does for the user-space schemes in the
    /// Fig. 6 experiment.
    pub fn proc_snapshot(&mut self, via_kernel_module: bool) -> LoadSnapshot {
        let now = self.ctx.now;
        self.core.snapshot(now, via_kernel_module)
    }

    /// Put `snap` in this node's outgoing record buffer and return the
    /// handle a reply or push carries ([`Payload::MonitorReply`],
    /// [`Payload::StatusPush`]). The buffer is reused once every earlier
    /// handle is dropped, so a warm reporter allocates nothing.
    pub fn share_snapshot(&mut self, snap: LoadSnapshot) -> SharedSnapshot {
        self.core.share_snapshot(snap)
    }

    // ---- RDMA --------------------------------------------------------------

    /// Register a user-space buffer for one-sided access.
    pub fn register_user_region(&mut self, writable: bool) -> RegionId {
        self.core
            .register_region(RegionKind::UserSnapshot, writable)
    }
    /// Register a bank of `len` RDMA-atomic words (zeroed). Remote
    /// access is exclusively through [`OsApi::rdma_cas`]; local access
    /// through [`OsApi::atomic_read`] / [`OsApi::atomic_write`].
    pub fn register_atomic_region(&mut self, len: u32) -> RegionId {
        self.core
            .register_region(RegionKind::AtomicWords { len }, true)
    }
    /// Host-local load of one atomic word (e.g. the lock-lease manager
    /// inspecting its own words).
    pub fn atomic_read(&self, region: RegionId, word: u32) -> Option<u64> {
        self.core.atomic_read(region, word)
    }
    /// Host-local store to one atomic word.
    pub fn atomic_write(&mut self, region: RegionId, word: u32, value: u64) -> bool {
        self.core.atomic_write(region, word, value)
    }

    /// Register the live kernel statistics for one-sided access
    /// (read-only, per the paper's security note). `detail` additionally
    /// exposes `irq_stat`.
    pub fn register_kernel_region(&mut self, detail: bool) -> RegionId {
        self.core
            .register_region(RegionKind::KernelLoad { detail }, false)
    }

    /// Update the content of a registered user buffer (the calc thread's
    /// copy-out step; the memory write itself is free — its CPU cost is
    /// part of the burst that computed the snapshot).
    pub fn write_user_region(&mut self, region: RegionId, snap: LoadSnapshot) {
        let now = self.ctx.now;
        self.core.write_user_snapshot(region, snap, now);
    }

    /// Read a user buffer registered on *this* node (e.g. one that remote
    /// peers push into with one-sided writes). A local memory read — no
    /// simulated cost.
    pub fn read_local_region(&self, region: RegionId) -> Option<LoadSnapshot> {
        self.core.read_user_snapshot(region)
    }

    /// Post a one-sided read of `region` on node `dst`.
    /// `on_rdma_complete(token, …)` fires at completion.
    pub fn rdma_read(&mut self, dst: NodeId, region: RegionId, token: u64) {
        let refused = !self.core.admit_post(self.ctx.now);
        let req = self.core.alloc_req(self.slot, token, refused);
        let src = self.core.node;
        let fabric = self.core.fabric;
        // The initiator-side post overhead is charged by the fabric.
        self.ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaRead {
                src,
                dst,
                region,
                req_id: req,
                refused,
            }),
        );
    }

    /// Post several one-sided reads with one doorbell ring (RDMAbox-style
    /// request merging). The NIC charges a single post overhead for the
    /// whole batch instead of one per read; each read then traverses the
    /// fabric and completes individually via `on_rdma_complete`, exactly
    /// as if posted with [`OsApi::rdma_read`].
    pub fn rdma_read_batch(&mut self, reads: &[(NodeId, RegionId, u64)]) {
        if reads.is_empty() {
            return;
        }
        // One doorbell ring is one post for the rate limiter.
        let refused = !self.core.admit_post(self.ctx.now);
        let batch: Vec<BatchedRead> = reads
            .iter()
            .map(|&(dst, region, token)| BatchedRead {
                dst,
                region,
                req_id: self.core.alloc_req(self.slot, token, refused),
            })
            .collect();
        let src = self.core.node;
        let fabric = self.core.fabric;
        self.ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaReadBatch {
                src,
                reads: batch,
                refused,
            }),
        );
    }

    /// Post a one-sided compare-and-swap against word `word` of an
    /// atomic region on `dst`. Completes with [`RdmaResult::CasOk`]
    /// carrying the prior value (the swap happened iff it equaled
    /// `expected`). To *fetch* a word on a pure-CAS NIC, post a CAS
    /// whose `expected` can never match (`fgmon_types::FETCH_SENTINEL`).
    pub fn rdma_cas(
        &mut self,
        dst: NodeId,
        region: RegionId,
        word: u32,
        expected: u64,
        swap: u64,
        token: u64,
    ) {
        let refused = !self.core.admit_post(self.ctx.now);
        let req = self.core.alloc_req(self.slot, token, refused);
        let src = self.core.node;
        let fabric = self.core.fabric;
        self.ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaCas {
                src,
                dst,
                region,
                req_id: req,
                word,
                expected,
                swap,
                refused,
            }),
        );
    }

    /// Post a one-sided write of `snap` into `region` on node `dst`. The
    /// record travels in this node's outgoing buffer
    /// ([`OsApi::share_snapshot`]).
    pub fn rdma_write(&mut self, dst: NodeId, region: RegionId, snap: LoadSnapshot, token: u64) {
        let refused = !self.core.admit_post(self.ctx.now);
        let req = self.core.alloc_req(self.slot, token, refused);
        let src = self.core.node;
        let fabric = self.core.fabric;
        self.ctx.send_now(
            fabric,
            Msg::Net(NetMsg::RdmaWrite {
                src,
                dst,
                region,
                req_id: req,
                data: RegionData::Snapshot(self.core.share_snapshot(snap)),
                refused,
            }),
        );
    }
}
