//! Back-end side of the five monitoring schemes (paper §3, Figs. 1–2).
//!
//! | Scheme        | Threads on the back-end | Export mechanism |
//! |---------------|-------------------------|------------------|
//! | Socket-Async  | calc thread + reporter thread | socket reply from shared buffer |
//! | Socket-Sync   | reporter thread (computes per request) | socket reply |
//! | RDMA-Async    | calc thread             | registered user buffer |
//! | RDMA-Sync     | **none**                | registered kernel memory |
//! | e-RDMA-Sync   | **none**                | registered kernel memory + `irq_stat` |
//! | Mcast-Push    | calc thread             | hardware multicast status frames |

use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{
    ConnId, LoadSnapshot, McastGroup, NodeId, Payload, RdmaResult, RecordFence, RegionId, Scheme,
    ThreadId,
};

/// Tokens used by backend threads.
const TOK_CALC_DONE: u64 = 0xBAC0_0001;
const TOK_CALC_WAKE: u64 = 0xBAC0_0002;
const TOK_SYNC_DONE: u64 = 0xBAC0_0003;
const TOK_PUSH_DONE: u64 = 0xBAC0_0004;
const TOK_PUSH_WAKE: u64 = 0xBAC0_0005;
const TOK_STANDBY_DONE: u64 = 0xBAC0_0006;

/// Multicast group of the multicast-push extension: every Mcast-Push
/// back-end publishes into it and every Mcast-Push front-end listens.
pub const MONITOR_GROUP: McastGroup = McastGroup(0);

/// Configuration shared by the backend services.
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

/// Build the backend service for `scheme`. Returns `None` for the
/// RDMA-Sync family *only if* kernel registration is handled elsewhere —
/// it never is, so this always returns a service; the RDMA-Sync service
/// merely registers memory at boot and then does nothing, which is the
/// paper's whole point.
pub fn make_backend(scheme: Scheme, cfg: BackendConfig) -> Box<dyn Service> {
    match scheme {
        Scheme::SocketAsync => Box::new(SocketBackend::new(cfg, false)),
        Scheme::SocketSync => Box::new(SocketBackend::new(cfg, true)),
        Scheme::RdmaAsync => Box::new(RdmaAsyncBackend::new(cfg)),
        Scheme::RdmaSync => {
            let detail = cfg.via_kernel_module;
            Box::new(RdmaSyncBackend::new(cfg, detail))
        }
        Scheme::ERdmaSync => Box::new(RdmaSyncBackend::new(cfg, true)),
        Scheme::McastPush => Box::new(McastPushBackend::new(cfg)),
        Scheme::RdmaWritePush => Box::new(RdmaWritePushBackend::new(cfg)),
    }
}

// ---------------------------------------------------------------------------

/// Sockets-based back-end (paper Fig. 1).
///
/// Asynchronous mode runs the *load-calculating thread* (Steps 1–4: read
/// `/proc`, compute, copy to the known memory location, sleep `T`) plus the
/// *load-reporting thread* (Steps a–c). Synchronous mode runs only the
/// reporting thread, which reads `/proc` for every request (Steps 1–5 of
/// Fig. 1b).
pub struct SocketBackend {
    cfg: BackendConfig,
    sync: bool,
    calc_tid: Option<ThreadId>,
    report_tid: Option<ThreadId>,
    /// The "known memory location" the async calc thread refreshes.
    shared: Option<LoadSnapshot>,
    /// Requests whose `/proc` scan is in flight (sync mode): the reply
    /// connection plus the correlation id to echo.
    pending: std::collections::VecDeque<(ConnId, u64)>,
    /// Connections to listen on (set before boot by the cluster builder).
    pub conns: Vec<ConnId>,
    /// Statistics.
    pub requests_served: u64,
    pub calc_rounds: u64,
    /// Monotonic reply sequence stamped into fences.
    reply_seq: u64,
}

impl SocketBackend {
    pub fn new(cfg: BackendConfig, sync: bool) -> Self {
        SocketBackend {
            cfg,
            sync,
            calc_tid: None,
            report_tid: None,
            shared: None,
            pending: std::collections::VecDeque::new(),
            conns: Vec::new(),
            requests_served: 0,
            calc_rounds: 0,
            reply_seq: 0,
        }
    }

    fn fence(&mut self, os: &mut OsApi<'_, '_>) -> RecordFence {
        self.reply_seq += 1;
        RecordFence {
            generation: os.boot_generation(),
            seq: self.reply_seq,
        }
    }

    pub fn shared_snapshot(&self) -> Option<&LoadSnapshot> {
        self.shared.as_ref()
    }

    fn start_calc_round(&mut self, tid: ThreadId, os: &mut OsApi<'_, '_>) {
        let cost = os.proc_read_cost() + os.load_calc_cost();
        os.burst(tid, cost, TOK_CALC_DONE);
    }
}

impl Service for SocketBackend {
    fn name(&self) -> &'static str {
        if self.sync {
            "socket-sync-backend"
        } else {
            "socket-async-backend"
        }
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let report = os.spawn_thread("mon-report");
        self.report_tid = Some(report);
        for &c in &self.conns {
            os.listen_thread(c, report);
        }
        if !self.sync {
            let calc = os.spawn_thread("mon-calc");
            self.calc_tid = Some(calc);
            self.start_calc_round(calc, os);
        }
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        match token {
            TOK_CALC_DONE => {
                // Steps 3–4 of Fig. 1a: values land in the shared location,
                // then the calc thread sleeps for interval T.
                self.shared = Some(os.proc_snapshot(self.cfg.via_kernel_module));
                self.calc_rounds += 1;
                os.sleep(tid, self.cfg.calc_interval, TOK_CALC_WAKE);
            }
            TOK_SYNC_DONE => {
                // Step 5 of Fig. 1b: reply with the freshly computed load.
                let snap = os.proc_snapshot(self.cfg.via_kernel_module);
                if let Some((conn, req)) = self.pending.pop_front() {
                    self.requests_served += 1;
                    let fence = self.fence(os);
                    os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
                }
            }
            _ => {}
        }
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_CALC_WAKE {
            self.start_calc_round(tid, os);
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
        let Payload::MonitorRequest { req, .. } = payload else {
            return;
        };
        let tid = tid.expect("backend listener is threaded");
        if self.sync {
            // Fig. 1b: compute the load now, reply when done.
            self.pending.push_back((conn, req));
            let cost = os.proc_read_cost() + os.load_calc_cost();
            os.burst(tid, cost, TOK_SYNC_DONE);
        } else {
            // Fig. 1a Steps b–c: read the shared location and reply.
            self.requests_served += 1;
            let snap = self.shared.unwrap_or_else(|| LoadSnapshot {
                measured_at: SimTime::ZERO,
                ..LoadSnapshot::zero()
            });
            let fence = self.fence(os);
            os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
        }
    }
}

// ---------------------------------------------------------------------------

/// RDMA-Async back-end (paper Fig. 2a): a calc thread refreshes a
/// registered user-space buffer every interval `T`; the front-end pulls it
/// with one-sided reads.
///
/// With [`BackendConfig::fallback_reporter`] a standby socket reporter
/// additionally listens on `conns`, answering `MonitorRequest` from the
/// shared buffer (Socket-Async semantics) so a tripped front-end breaker
/// has somewhere to fall back to, and answering `RegionQuery` with the
/// current registration.
pub struct RdmaAsyncBackend {
    cfg: BackendConfig,
    calc_tid: Option<ThreadId>,
    standby_tid: Option<ThreadId>,
    pub region: Option<RegionId>,
    /// Connections for the recovery handshake / standby reporter (set
    /// before boot by the cluster builder).
    pub conns: Vec<ConnId>,
    pub calc_rounds: u64,
    /// Fallback requests answered by the standby reporter.
    pub standby_served: u64,
    /// `RegionAdvertise` frames sent (restarts + query answers).
    pub readvertisements: u64,
    reply_seq: u64,
}

impl RdmaAsyncBackend {
    pub fn new(cfg: BackendConfig) -> Self {
        RdmaAsyncBackend {
            cfg,
            calc_tid: None,
            standby_tid: None,
            region: None,
            conns: Vec::new(),
            calc_rounds: 0,
            standby_served: 0,
            readvertisements: 0,
            reply_seq: 0,
        }
    }

    /// Advertise the current registration on every connection (restart
    /// recovery). Zero-cost control-plane frames: the handshake is not
    /// part of the measured monitoring path.
    fn advertise_all(&mut self, os: &mut OsApi<'_, '_>) {
        let Some(region) = self.region else { return };
        let generation = os.boot_generation();
        for i in 0..self.conns.len() {
            let conn = self.conns[i];
            self.readvertisements += 1;
            os.send_direct(
                conn,
                Payload::RegionAdvertise {
                    region,
                    generation,
                    req: 0,
                },
            );
        }
    }
}

impl Service for RdmaAsyncBackend {
    fn name(&self) -> &'static str {
        "rdma-async-backend"
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        // Registered once; exported read-only to remote peers.
        self.region = Some(os.register_user_region(false));
        let calc = os.spawn_thread("mon-calc");
        self.calc_tid = Some(calc);
        let cost = os.proc_read_cost() + os.load_calc_cost();
        os.burst(calc, cost, TOK_CALC_DONE);
        if self.cfg.fallback_reporter {
            let standby = os.spawn_thread("mon-standby");
            self.standby_tid = Some(standby);
            for &c in &self.conns {
                os.listen_thread(c, standby);
            }
        }
    }

    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        // The old registration died with the previous boot generation:
        // re-register (fresh generation) and tell every front-end where
        // the region now lives. The calc thread refreshes the new buffer
        // from its next round on.
        self.region = Some(os.register_user_region(false));
        self.advertise_all(os);
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_CALC_DONE {
            let snap = os.proc_snapshot(self.cfg.via_kernel_module);
            if let Some(region) = self.region {
                os.write_user_region(region, snap);
            }
            self.calc_rounds += 1;
            os.sleep(tid, self.cfg.calc_interval, TOK_CALC_WAKE);
        }
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_CALC_WAKE {
            let cost = os.proc_read_cost() + os.load_calc_cost();
            os.burst(tid, cost, TOK_CALC_DONE);
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
            Payload::MonitorRequest { req, .. } => {
                // Socket-Async semantics: answer from the shared buffer.
                let snap = self
                    .region
                    .and_then(|r| os.read_local_region(r))
                    .unwrap_or_else(|| LoadSnapshot {
                        measured_at: SimTime::ZERO,
                        ..LoadSnapshot::zero()
                    });
                self.standby_served += 1;
                self.reply_seq += 1;
                let fence = RecordFence {
                    generation: os.boot_generation(),
                    seq: self.reply_seq,
                };
                os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
            }
            Payload::RegionQuery { req } => {
                if let Some(region) = self.region {
                    self.readvertisements += 1;
                    let generation = os.boot_generation();
                    os.send(
                        tid,
                        conn,
                        Payload::RegionAdvertise {
                            region,
                            generation,
                            req,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------

/// RDMA-Sync / e-RDMA-Sync back-end (paper Fig. 2b): registers the kernel
/// data structures holding resource usage and then **does nothing** — no
/// thread, no CPU, ever. `detail` additionally registers `irq_stat`
/// (e-RDMA-Sync).
///
/// With [`BackendConfig::fallback_reporter`] the "does nothing" property
/// is deliberately relaxed: a standby reporter thread answers
/// `MonitorRequest` Socket-Sync-style (computes per request) while the
/// front-end's breaker has the RDMA path tripped, and answers
/// `RegionQuery` with the live registration.
pub struct RdmaSyncBackend {
    cfg: BackendConfig,
    detail: bool,
    pub region: Option<RegionId>,
    /// Connections for the recovery handshake / standby reporter (set
    /// before boot by the cluster builder).
    pub conns: Vec<ConnId>,
    standby_tid: Option<ThreadId>,
    /// Fallback requests whose `/proc` scan is in flight.
    pending: std::collections::VecDeque<(ConnId, u64)>,
    pub standby_served: u64,
    /// `RegionAdvertise` frames sent (restarts + query answers).
    pub readvertisements: u64,
    reply_seq: u64,
}

impl RdmaSyncBackend {
    pub fn new(cfg: BackendConfig, detail: bool) -> Self {
        RdmaSyncBackend {
            cfg,
            detail,
            region: None,
            conns: Vec::new(),
            standby_tid: None,
            pending: std::collections::VecDeque::new(),
            standby_served: 0,
            readvertisements: 0,
            reply_seq: 0,
        }
    }

    /// Advertise the current registration on every connection (restart
    /// recovery). Zero-cost control-plane frames: the handshake is not
    /// part of the measured monitoring path.
    fn advertise_all(&mut self, os: &mut OsApi<'_, '_>) {
        let Some(region) = self.region else { return };
        let generation = os.boot_generation();
        for i in 0..self.conns.len() {
            let conn = self.conns[i];
            self.readvertisements += 1;
            os.send_direct(
                conn,
                Payload::RegionAdvertise {
                    region,
                    generation,
                    req: 0,
                },
            );
        }
    }
}

impl Service for RdmaSyncBackend {
    fn name(&self) -> &'static str {
        if self.detail {
            "e-rdma-sync-backend"
        } else {
            "rdma-sync-backend"
        }
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.region = Some(os.register_kernel_region(self.detail));
        if self.cfg.fallback_reporter {
            let standby = os.spawn_thread("mon-standby");
            self.standby_tid = Some(standby);
            for &c in &self.conns {
                os.listen_thread(c, standby);
            }
        }
    }

    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        // Re-pin the kernel export under the new boot generation and tell
        // every front-end, so monitoring resumes instead of the backend
        // staying excluded forever.
        self.region = Some(os.register_kernel_region(self.detail));
        self.advertise_all(os);
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_STANDBY_DONE {
            // Socket-Sync semantics: the load was computed for this very
            // request.
            let snap = os.proc_snapshot(self.detail || self.cfg.via_kernel_module);
            if let Some((conn, req)) = self.pending.pop_front() {
                self.standby_served += 1;
                self.reply_seq += 1;
                let fence = RecordFence {
                    generation: os.boot_generation(),
                    seq: self.reply_seq,
                };
                os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
            }
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
            Payload::MonitorRequest { req, .. } => {
                self.pending.push_back((conn, req));
                let cost = os.proc_read_cost() + os.load_calc_cost();
                os.burst(tid, cost, TOK_STANDBY_DONE);
            }
            Payload::RegionQuery { req } => {
                if let Some(region) = self.region {
                    self.readvertisements += 1;
                    let generation = os.boot_generation();
                    os.send(
                        tid,
                        conn,
                        Payload::RegionAdvertise {
                            region,
                            generation,
                            req,
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------

/// Multicast-push extension (paper §6): the back-end periodically computes
/// its load and pushes it to a hardware multicast group. Channel
/// semantics, so the back-end CPU is involved again — the ablation shows
/// what one-sidedness buys.
pub struct McastPushBackend {
    cfg: BackendConfig,
    tid: Option<ThreadId>,
    pub pushes: u64,
}

impl McastPushBackend {
    pub fn new(cfg: BackendConfig) -> Self {
        McastPushBackend {
            cfg,
            tid: None,
            pushes: 0,
        }
    }
}

impl Service for McastPushBackend {
    fn name(&self) -> &'static str {
        "mcast-push-backend"
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread("mon-push");
        self.tid = Some(tid);
        let cost = os.proc_read_cost() + os.load_calc_cost();
        os.burst(tid, cost, TOK_PUSH_DONE);
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_PUSH_DONE {
            let snap = os.proc_snapshot(self.cfg.via_kernel_module);
            let origin = os.node();
            self.pushes += 1;
            os.mcast_send(tid, MONITOR_GROUP, Payload::StatusPush { origin, snap });
            os.sleep(tid, self.cfg.calc_interval, TOK_PUSH_WAKE);
        }
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_PUSH_WAKE {
            let cost = os.proc_read_cost() + os.load_calc_cost();
            os.burst(tid, cost, TOK_PUSH_DONE);
        }
    }
}

// ---------------------------------------------------------------------------

/// RDMA-write-push extension (the authors' earlier RAIT'04 dissemination
/// design): the back-end periodically computes its load and posts a
/// one-sided RDMA **write** into a buffer registered on the front-end.
/// The back-end pays calc + post CPU; the *front-end* side is entirely
/// passive — it reads local memory.
pub struct RdmaWritePushBackend {
    cfg: BackendConfig,
    tid: Option<ThreadId>,
    pub pushes: u64,
    pub write_acks: u64,
    pub write_denied: u64,
}

impl RdmaWritePushBackend {
    pub fn new(cfg: BackendConfig) -> Self {
        RdmaWritePushBackend {
            cfg,
            tid: None,
            pushes: 0,
            write_acks: 0,
            write_denied: 0,
        }
    }
}

impl Service for RdmaWritePushBackend {
    fn name(&self) -> &'static str {
        "rdma-write-push-backend"
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread("mon-wpush");
        self.tid = Some(tid);
        let cost = os.proc_read_cost() + os.load_calc_cost();
        os.burst(tid, cost, TOK_PUSH_DONE);
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_PUSH_DONE {
            let snap = os.proc_snapshot(self.cfg.via_kernel_module);
            if let Some((fe, region)) = self.cfg.push_target {
                self.pushes += 1;
                os.rdma_write(fe, region, snap, TOK_PUSH_DONE);
            }
            os.sleep(tid, self.cfg.calc_interval, TOK_PUSH_WAKE);
        }
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_PUSH_WAKE {
            let cost = os.proc_read_cost() + os.load_calc_cost();
            os.burst(tid, cost, TOK_PUSH_DONE);
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
