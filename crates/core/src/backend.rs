//! The back-end half of every monitoring scheme (paper §3, Figs. 1–2).
//!
//! The paper builds each scheme from three parts, and one
//! [`MonitorBackend`] runs the parts its [`Scheme`] names:
//!
//! * a *load-calculating thread* ([`Scheme::has_backend_calc_thread`])
//!   reads `/proc` every interval `T` and exports the snapshot;
//! * a *load-reporting thread* ([`Scheme::has_backend_reporter_thread`])
//!   answers socket requests: from the latest export when a calc thread
//!   runs, otherwise by computing the load for each request;
//! * *registered memory* the front-end reads one-sidedly: the kernel's
//!   own statistics ([`Scheme::reads_kernel_memory`]) or a user buffer
//!   (RDMA-Async).
//!
//! | Scheme          | Calc thread exports to   | Reporter          | Region |
//! |-----------------|--------------------------|-------------------|--------|
//! | Socket-Async    | the reporter's buffer    | answers from it   | —      |
//! | Socket-Sync     | —                        | computes per request | —   |
//! | RDMA-Async      | the user region          | standby¹          | user buffer |
//! | RDMA-Sync       | —                        | standby¹          | kernel memory |
//! | e-RDMA-Sync     | —                        | standby¹          | kernel memory + `irq_stat` |
//! | Mcast-Push      | [`MONITOR_GROUP`]        | —                 | —      |
//! | RDMA-Write-Push | an RDMA write into [`BackendConfig::push_target`] | — | — |
//!
//! ¹ Only with [`BackendConfig::fallback_reporter`]: a reporter the
//! front-end's circuit breaker diverts polls to while the RDMA path is
//! tripped. Without it RDMA-Sync runs **no thread at all**: it registers
//! kernel memory at boot and then does nothing, which is the paper's
//! whole point.

use std::collections::VecDeque;

use fgmon_os::{OsApi, Service};
use fgmon_sim::SimDuration;
use fgmon_types::{
    ConnId, LoadSnapshot, McastGroup, NodeId, Payload, RdmaResult, RecordFence, RegionId, Scheme,
    ThreadId,
};

/// Tokens used by back-end threads.
const TOK_CALC_DONE: u64 = 0xBAC0_0001;
const TOK_CALC_WAKE: u64 = 0xBAC0_0002;
const TOK_REPLY_DONE: u64 = 0xBAC0_0003;
const TOK_PUSH_WRITE: u64 = 0xBAC0_0004;

/// Multicast group of the multicast-push extension: every Mcast-Push
/// back-end publishes into it and every Mcast-Push front-end listens.
pub const MONITOR_GROUP: McastGroup = McastGroup(0);

/// Configuration of a [`MonitorBackend`].
#[derive(Clone, Copy, Debug)]
pub struct BackendConfig {
    /// Calc-thread refresh interval `T` (async schemes).
    pub calc_interval: SimDuration,
    /// Expose `irq_stat` to the user-space schemes through the helper
    /// kernel module (the paper's Fig. 6 experiment setup).
    pub via_kernel_module: bool,
    /// Target of the RDMA-write-push extension: the front-end node and
    /// the buffer registered there for this back-end.
    pub push_target: Option<(NodeId, RegionId)>,
    /// Run a standby socket reporter thread on the RDMA back-ends so the
    /// front-end's circuit breaker has a fallback path to divert to when
    /// the RDMA channel trips. Off by default: the paper's RDMA-Sync
    /// property (no back-end thread at all) is preserved unless failover
    /// is explicitly wanted.
    pub fallback_reporter: bool,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            calc_interval: SimDuration::from_millis(50),
            via_kernel_module: false,
            push_target: None,
            fallback_reporter: false,
        }
    }
}

// The benchmark (`fgbench/`) imports these four names and downcasts to
// them to attribute time to `svc.mon_backend`. Its sources change only
// together with the benchmark's definition, so the names stay until then.
pub type SocketBackend = MonitorBackend;
pub type RdmaSyncBackend = MonitorBackend;
pub type RdmaAsyncBackend = MonitorBackend;
pub type McastPushBackend = MonitorBackend;

/// The back-end monitoring process of one scheme: its calc thread,
/// reporter and registered region, as the module docs tabulate.
pub struct MonitorBackend {
    scheme: Scheme,
    cfg: BackendConfig,
    /// The region the front-end reads, if the scheme registers one.
    pub region: Option<RegionId>,
    /// The reporter's buffer the Socket-Async calc thread refreshes.
    shared: Option<LoadSnapshot>,
    /// Requests whose `/proc` scan is in flight (computed replies): the
    /// reply connection plus the correlation id to echo.
    pending: VecDeque<(ConnId, u64)>,
    /// Connections the reporter listens on and the region is advertised
    /// on (set before boot by the cluster builder).
    pub conns: Vec<ConnId>,
    /// Monotonic reply sequence stamped into fences.
    reply_seq: u64,
    /// Requests the reporter answered.
    pub served: u64,
    /// `RegionAdvertise` frames sent (restarts + query answers).
    pub readvertisements: u64,
    /// Snapshots pushed (Mcast-Push, RDMA-Write-Push).
    pub pushes: u64,
    /// RDMA-Write-Push writes acknowledged and refused.
    pub write_acks: u64,
    pub write_denied: u64,
}

impl MonitorBackend {
    pub fn new(scheme: Scheme, cfg: BackendConfig) -> Self {
        MonitorBackend {
            scheme,
            cfg,
            region: None,
            shared: None,
            pending: VecDeque::new(),
            conns: Vec::new(),
            reply_seq: 0,
            served: 0,
            readvertisements: 0,
            pushes: 0,
            write_acks: 0,
            write_denied: 0,
        }
    }

    /// Do snapshots carry `irq_stat`? e-RDMA-Sync exports it, and the
    /// helper kernel module exposes it to every scheme.
    fn detail(&self) -> bool {
        self.scheme == Scheme::ERdmaSync || self.cfg.via_kernel_module
    }

    /// Register the scheme's region, if it has one.
    fn register(&self, os: &mut OsApi<'_, '_>) -> Option<RegionId> {
        if self.scheme.reads_kernel_memory() {
            Some(os.register_kernel_region(self.detail()))
        } else if self.scheme.is_one_sided() {
            Some(os.register_user_region(false))
        } else {
            None
        }
    }

    /// Spawn a reporter thread listening on every connection.
    fn spawn_reporter(&self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread();
        for &c in &self.conns {
            os.listen_thread(c, tid);
        }
    }

    /// The calc thread's round ended: export the snapshot (Steps 3–4 of
    /// Fig. 1a), then sleep for interval `T`.
    fn export(&mut self, tid: ThreadId, os: &mut OsApi<'_, '_>) {
        let snap = os.proc_snapshot(self.detail());
        match self.scheme {
            Scheme::RdmaAsync => {
                if let Some(region) = self.region {
                    os.write_user_region(region, snap);
                }
            }
            Scheme::McastPush => {
                let origin = os.node();
                self.pushes += 1;
                let snap = os.share_snapshot(snap);
                os.mcast_send(tid, MONITOR_GROUP, Payload::StatusPush { origin, snap });
            }
            Scheme::RdmaWritePush => {
                if let Some((fe, region)) = self.cfg.push_target {
                    self.pushes += 1;
                    os.rdma_write(fe, region, snap, TOK_PUSH_WRITE);
                }
            }
            _ => self.shared = Some(snap),
        }
        os.sleep(tid, self.cfg.calc_interval, TOK_CALC_WAKE);
    }

    /// The latest export, read where the calc thread put it; zero before
    /// its first round (and, for RDMA-Async, after a re-registration).
    fn latest(&self, os: &OsApi<'_, '_>) -> LoadSnapshot {
        let exported = match self.scheme {
            Scheme::RdmaAsync => self.region.and_then(|r| os.read_local_region(r)),
            _ => self.shared,
        };
        exported.unwrap_or_else(LoadSnapshot::zero)
    }

    /// Answer request `req` on `conn` with `snap`, fenced with the boot
    /// generation and the next reply sequence.
    fn reply(
        &mut self,
        tid: ThreadId,
        conn: ConnId,
        req: u64,
        snap: LoadSnapshot,
        os: &mut OsApi<'_, '_>,
    ) {
        self.served += 1;
        self.reply_seq += 1;
        let fence = RecordFence {
            generation: os.boot_generation(),
            seq: self.reply_seq,
        };
        let snap = os.share_snapshot(snap);
        os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
    }

    /// Tell the front-end on `conn` where the region lives: from the
    /// reporter `tid` answering a `RegionQuery`, or, after a restart,
    /// directly, as a zero-cost control-plane frame (the handshake is not
    /// part of the measured monitoring path).
    fn advertise(&mut self, tid: Option<ThreadId>, conn: ConnId, req: u64, os: &mut OsApi<'_, '_>) {
        let Some(region) = self.region else { return };
        self.readvertisements += 1;
        let generation = os.boot_generation();
        let msg = Payload::RegionAdvertise {
            region,
            generation,
            req,
        };
        match tid {
            Some(tid) => os.send(tid, conn, msg),
            None => os.send_direct(conn, msg),
        }
    }
}

/// Queue one `/proc` scan plus the load computation on `tid`.
fn compute(tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
    let cost = os.proc_read_cost() + os.load_calc_cost();
    os.burst(tid, cost, token);
}

impl Service for MonitorBackend {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        // Spawn order fixes thread ids and so the run-queue order the
        // fingerprints pin: a primary reporter before the calc thread, a
        // standby after it.
        self.region = self.register(os);
        if self.scheme.has_backend_reporter_thread() {
            self.spawn_reporter(os);
        }
        if self.scheme.has_backend_calc_thread() {
            let calc = os.spawn_thread();
            compute(calc, TOK_CALC_DONE, os);
        }
        if self.scheme.is_one_sided() && self.cfg.fallback_reporter {
            self.spawn_reporter(os);
        }
    }

    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        // The old registration died with the previous boot generation:
        // register afresh and tell every front-end where the region now
        // lives, so monitoring resumes instead of the back-end staying
        // excluded. A calc thread refreshes the new region from its next
        // round on.
        self.region = self.register(os);
        for i in 0..self.conns.len() {
            self.advertise(None, self.conns[i], 0, os);
        }
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        match token {
            TOK_CALC_DONE => self.export(tid, os),
            TOK_REPLY_DONE => {
                // Step 5 of Fig. 1b: reply with the load computed for this
                // very request.
                let snap = os.proc_snapshot(self.detail());
                if let Some((conn, req)) = self.pending.pop_front() {
                    self.reply(tid, conn, req, snap, os);
                }
            }
            _ => {}
        }
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_CALC_WAKE {
            compute(tid, TOK_CALC_DONE, os);
        }
    }

    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let Some(tid) = tid else { return };
        match payload {
            Payload::MonitorRequest { req, .. } if self.scheme.has_backend_calc_thread() => {
                // Fig. 1a Steps b–c: answer from the latest export.
                let snap = self.latest(os);
                self.reply(tid, conn, req, snap, os);
            }
            Payload::MonitorRequest { req, .. } => {
                // Fig. 1b: compute the load now, reply when done.
                self.pending.push_back((conn, req));
                compute(tid, TOK_REPLY_DONE, os);
            }
            Payload::RegionQuery { req } => self.advertise(Some(tid), conn, req, os),
            _ => {}
        }
    }

    fn on_rdma_complete(&mut self, _token: u64, result: RdmaResult, _os: &mut OsApi<'_, '_>) {
        match result {
            RdmaResult::WriteOk => self.write_acks += 1,
            RdmaResult::AccessDenied => self.write_denied += 1,
            _ => {}
        }
    }
}
