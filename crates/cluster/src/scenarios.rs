//! Experiment worlds: pre-wired clusters for every experiment in the
//! paper's §5. Each constructor assembles the exact topology the paper
//! describes; the bench harnesses sweep their parameters.

use fgmon_balancer::{Dispatcher, DispatcherConfig, Policy, ReconfigPolicy, Reconfigurator};
use fgmon_core::backend::{RdmaAsyncBackend, RdmaSyncBackend, SocketBackend};
use fgmon_core::{
    make_backend, BackendConfig, BackendHandle, MonitorClient, MonitorFrontendService,
    MONITOR_GROUP,
};
use fgmon_ganglia::{GmetricPublisher, Gmond, GANGLIA_GROUP};
use fgmon_sim::{DetRng, SimDuration, SimTime};
use fgmon_types::{
    BreakerConfig, FaultOp, FaultPlan, NetConfig, NodeId, OsConfig, QosPolicy, RaceMode, RegionId,
    RetryPolicy, Scheme, ServiceSlot, TenancyConfig, TenantId,
};
use fgmon_workload::{
    CommLoad, CommSink, ComputeHogs, FloatApp, LoadRamp, LockClient, LockHost, RampStep, RdmaFlood,
    RubisClient, WorkerPoolServer, ZipfCatalog, ZipfClient,
};

use crate::builder::{Cluster, ClusterBuilder};

/// Ground-truth probe period used by the accuracy experiments.
pub const GT_PERIOD: SimDuration = SimDuration(997_000); // ~1 ms, tick-unaligned

/// Wire one monitoring pair (front-end slot ↔ back-end) for `scheme`.
///
/// Adds the backend service as the next service of `backend` and returns
/// the handle the front-end needs. `expected_region` is the region a
/// one-sided reporter registers (its ordinal among `backend`'s
/// registrations) or, for write-push, the front-end buffer it targets;
/// nothing reads it for the other schemes.
///
/// `fe_slot` is the front-end service slot that will embed the client.
fn wire_monitoring(
    b: &mut ClusterBuilder,
    scheme: Scheme,
    mut cfg: BackendConfig,
    frontend: NodeId,
    fe_slot: ServiceSlot,
    backend: NodeId,
    expected_region: u32,
) -> BackendHandle {
    if scheme == Scheme::RdmaWritePush {
        // The front-end monitor registers one writable buffer per backend
        // in wiring order; tell this backend which one is its target.
        // Callers pass the backend's ordinal via `expected_region`.
        cfg.push_target = Some((frontend, RegionId(expected_region)));
    }
    let svc = make_backend(scheme, cfg);
    let slot = b.add_service(backend, svc);
    let conn = b.connect(frontend, fe_slot, backend, slot);
    // Socket backends answer requests on the connection; RDMA backends
    // use it for fallback replies and restart re-advertisements.
    if let Some(sb) = b.node_service_mut::<SocketBackend>(backend, slot) {
        sb.conns.push(conn);
    }
    if let Some(rb) = b.node_service_mut::<RdmaSyncBackend>(backend, slot) {
        rb.conns.push(conn);
    }
    if let Some(rb) = b.node_service_mut::<RdmaAsyncBackend>(backend, slot) {
        rb.conns.push(conn);
    }
    if scheme == Scheme::McastPush {
        b.join_mcast(MONITOR_GROUP, frontend);
        b.join_mcast(MONITOR_GROUP, backend);
    }
    BackendHandle {
        node: backend,
        conn: Some(conn),
        region: Some(RegionId(expected_region)),
    }
}

/// Wire a `scheme` reporter as the next service on `backend` and, as the
/// next service on `frontend`, a [`MonitorFrontendService`] polling it
/// every `cfg.calc_interval`; returns the poller's slot. The reporter's
/// region, if it has one, must be the back-end's first (`RegionId(0)`).
/// `tune` adjusts the poller's client before it is installed.
fn add_poller(
    b: &mut ClusterBuilder,
    scheme: Scheme,
    cfg: BackendConfig,
    frontend: NodeId,
    backend: NodeId,
    tune: impl FnOnce(&mut MonitorClient),
) -> ServiceSlot {
    let fe_node = b.node_actor_mut(frontend).expect("front-end node");
    let fe_slot = ServiceSlot(fe_node.service_count() as u16);
    let handle = wire_monitoring(b, scheme, cfg, frontend, fe_slot, backend, 0);
    let poll = cfg.calc_interval;
    let mut svc = MonitorFrontendService::new(scheme, scheme.uses_irq_signal(), poll, vec![handle]);
    tune(&mut svc.client);
    b.add_service(frontend, Box::new(svc))
}

// ---------------------------------------------------------------------------
// Fig. 3 — monitoring latency vs. background load
// ---------------------------------------------------------------------------

/// World for the latency micro-benchmark.
pub struct MicroWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub backend: NodeId,
    /// Slot of the [`MonitorFrontendService`] on the front-end.
    pub fe_mon: ServiceSlot,
}

/// One front-end polling one back-end running `bg_threads` compute threads
/// plus communication chatter with a peer node (the paper's "background
/// computation and communication operations").
pub fn micro_latency(
    scheme: Scheme,
    bg_threads: u32,
    comm: bool,
    poll: SimDuration,
    backend_os: OsConfig,
    seed: u64,
) -> MicroWorld {
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(backend_os);
    let peer = b.add_node(OsConfig::default());

    // The monitor pair is slot 0 on both the front-end and the back-end.
    let cfg = BackendConfig {
        calc_interval: poll,
        ..BackendConfig::default()
    };
    let fe_mon = add_poller(&mut b, scheme, cfg, frontend, backend, |_| {});

    if bg_threads > 0 {
        b.add_service(backend, Box::new(ComputeHogs::new(bg_threads)));
    }
    if comm {
        // Chatter both directions: backend→peer and peer→backend.
        let tx_slot = ServiceSlot(if bg_threads > 0 { 2 } else { 1 });
        let peer_rx = ServiceSlot(0);
        let conn_out = b.connect(backend, tx_slot, peer, peer_rx);
        b.add_service(
            backend,
            Box::new(CommLoad::new(conn_out, SimDuration::from_micros(500))),
        );
        b.add_service(
            peer,
            Box::new(fgmon_workload::CommSink::new(conn_out, true)),
        );
    }
    let cluster = b.finish(&[]);
    MicroWorld {
        cluster,
        frontend,
        backend,
        fe_mon,
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — application impact vs. monitoring granularity
// ---------------------------------------------------------------------------

/// World for the granularity micro-benchmark: the float app computes on
/// the back-end while a scheme monitors at granularity `g`.
pub struct FloatWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub backend: NodeId,
    pub app_slot: ServiceSlot,
}

pub fn float_granularity(scheme: Scheme, g: SimDuration, seed: u64) -> FloatWorld {
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let cfg = BackendConfig {
        calc_interval: g,
        ..BackendConfig::default()
    };
    add_poller(&mut b, scheme, cfg, frontend, backend, |_| {});
    let app_slot = b.add_service(
        backend,
        Box::new(FloatApp::new(SimDuration::from_millis(10))),
    );
    let cluster = b.finish(&[]);
    FloatWorld {
        cluster,
        frontend,
        backend,
        app_slot,
    }
}

// ---------------------------------------------------------------------------
// Figs. 5 & 6 — accuracy and detailed system information
// ---------------------------------------------------------------------------

/// World where all four micro schemes watch the same back-end
/// simultaneously (the paper's Fig. 5 methodology) while the load ramps.
pub struct AccuracyWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub backend: NodeId,
    /// Front-end monitor slots, in `Scheme::MICRO` order.
    pub fe_slots: Vec<ServiceSlot>,
}

/// `rubis_sessions`: request traffic served by a worker-pool server on
/// the back-end (the paper "fired client requests to be processed at the
/// back-end server"), making thread count and CPU load fluctuate at
/// request timescale. `irq_chatter`: heavy communication at the back-end
/// so pending interrupts become visible (Fig. 6). `via_kernel_module`:
/// exposes `irq_stat` to every scheme as in that experiment.
pub fn accuracy_world(
    poll: SimDuration,
    ramp: Vec<RampStep>,
    rubis_sessions: u32,
    irq_chatter: bool,
    via_kernel_module: bool,
    seed: u64,
) -> AccuracyWorld {
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let peer = b.add_node(OsConfig::frontend());

    // Back-end: the four scheme backends first. One-sided ones register
    // regions in wiring order (RdmaAsync region 0, RdmaSync region 1); a
    // two-sided handle's region is never read.
    let cfg = BackendConfig {
        calc_interval: poll,
        via_kernel_module,
        ..BackendConfig::default()
    };
    let mut handles = Vec::new();
    let mut region = 0;
    for (i, &scheme) in Scheme::MICRO.iter().enumerate() {
        let fe_slot = ServiceSlot(i as u16);
        let h = wire_monitoring(&mut b, scheme, cfg, frontend, fe_slot, backend, region);
        handles.push(h);
        region += u32::from(scheme.is_one_sided());
    }

    // Front-end: one poller per scheme, with series recording on.
    let mut fe_slots = Vec::new();
    for (i, &scheme) in Scheme::MICRO.iter().enumerate() {
        let mut svc = MonitorFrontendService::new(
            scheme,
            via_kernel_module || scheme.uses_irq_signal(),
            poll,
            vec![handles[i]],
        );
        svc.client.record_series = true;
        // Stagger the concurrent pollers so their request traffic is not
        // phase-locked (independent processes would not align).
        svc.start_offset = SimDuration::from_micros(1_300 * i as u64);
        fe_slots.push(b.add_service(frontend, Box::new(svc)));
    }

    // Load: ramping compute threads (slot 4) and a request-driven web
    // server (slot 5) fed by a client on the peer node.
    b.add_service(backend, Box::new(LoadRamp::new(ramp)));
    let client_conn = b.connect(peer, ServiceSlot(0), backend, ServiceSlot(5));
    let mut server = WorkerPoolServer::new();
    server.conns.push(client_conn);
    b.add_service(backend, Box::new(server));
    b.add_service(
        peer,
        Box::new(RubisClient::new(
            client_conn,
            rubis_sessions,
            SimDuration::from_millis(100),
        )),
    );

    if irq_chatter {
        // Peer floods the back-end with frame trains (and gets echoes
        // back): heavy, bursty interrupt pressure on the monitored node —
        // the regime of the paper's Fig. 6, where the interrupt backlog
        // persists long enough that only in-place kernel reads see it.
        let conn = b.connect(peer, ServiceSlot(1), backend, ServiceSlot(6));
        b.add_service(
            peer,
            Box::new(CommLoad::bursty(conn, SimDuration::from_micros(800), 10)),
        );
        b.add_service(backend, Box::new(fgmon_workload::CommSink::new(conn, true)));
    }

    let cluster = b.finish(&[(backend, GT_PERIOD)]);
    AccuracyWorld {
        cluster,
        frontend,
        backend,
        fe_slots,
    }
}

// ---------------------------------------------------------------------------
// Table 1, Figs. 7 & 9 — the cluster-based server
// ---------------------------------------------------------------------------

/// Configuration of the application-level cluster.
#[derive(Clone, Debug)]
pub struct RubisWorldCfg {
    pub scheme: Scheme,
    pub backends: u16,
    pub rubis_sessions: u32,
    pub think_mean: SimDuration,
    /// Co-hosted Zipf service: `(alpha, sessions)`.
    pub zipf: Option<(f64, u32)>,
    /// Monitoring granularity (poll + calc interval).
    pub granularity: SimDuration,
    pub policy: Policy,
    pub admission_threshold: Option<f64>,
    /// Co-tenant compute threads per back-end (the paper's premise is a
    /// *shared* enterprise cluster; other applications occupy the nodes).
    pub background_hogs: u32,
    /// Partition the back-ends between the RUBiS and Zipf services
    /// (half/half initially) and manage the partition with this
    /// reconfiguration policy (paper §7 extension). Use an infinite
    /// hysteresis for a *static* partition baseline. `None` leaves the
    /// cluster unpartitioned (every node serves both services). Requires
    /// `zipf` when set.
    pub reconfig: Option<ReconfigPolicy>,
    /// Fault schedule installed on the fabric (empty = pristine network).
    pub faults: FaultPlan,
    /// Timeout/retry policy for the dispatcher's monitor.
    pub retry: RetryPolicy,
    /// Staleness threshold for routing (see [`DispatcherConfig`]).
    pub max_info_age: Option<SimDuration>,
    /// Circuit breaker for the monitor's primary channel (see
    /// [`DispatcherConfig::breaker`]).
    pub breaker: Option<BreakerConfig>,
    /// Give RDMA backends a standby fallback reporter so tripped channels
    /// can be polled over the socket path.
    pub fallback_reporter: bool,
    /// Multi-tenant fabric: install this NIC-contention + QoS model.
    /// `None` leaves the fabric tenancy-blind (the historical behavior).
    pub tenancy: Option<TenancyConfig>,
    /// Add a hostile co-tenant node (tenant 1) that floods every
    /// back-end NIC with this many one-sided reads per 125 µs tick and
    /// pours bursty socket chatter into each back-end. 0 = no hostile
    /// node (the node is not even added, so ids are unchanged).
    pub hostile_flood: u32,
    pub seed: u64,
}

impl Default for RubisWorldCfg {
    fn default() -> Self {
        RubisWorldCfg {
            scheme: Scheme::RdmaSync,
            backends: 8,
            rubis_sessions: 64,
            think_mean: SimDuration::from_millis(300),
            zipf: None,
            granularity: SimDuration::from_millis(50),
            policy: Policy::WeightedLeastLoad,
            admission_threshold: None,
            background_hogs: 0,
            reconfig: None,
            faults: FaultPlan::default(),
            retry: RetryPolicy::OFF,
            max_info_age: None,
            breaker: None,
            fallback_reporter: false,
            tenancy: None,
            hostile_flood: 0,
            seed: 42,
        }
    }
}

/// The assembled application-level world.
pub struct RubisWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub client_node: NodeId,
    pub backends: Vec<NodeId>,
    pub dispatcher_slot: ServiceSlot,
    pub rubis_client_slot: ServiceSlot,
    pub zipf_client_slot: Option<ServiceSlot>,
}

pub fn rubis_world(cfg: &RubisWorldCfg) -> RubisWorld {
    build_rubis(cfg, |_, _, _| ()).0
}

/// Assemble [`rubis_world`], then let `extend` add services (given the
/// builder, the front-end and the back-ends) just before `finish`.
/// Returns the world and what `extend` returned.
fn build_rubis<T>(
    cfg: &RubisWorldCfg,
    extend: impl FnOnce(&mut ClusterBuilder, NodeId, &[NodeId]) -> T,
) -> (RubisWorld, T) {
    let mut b = ClusterBuilder::new(cfg.seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let client_node = b.add_node(OsConfig::frontend());
    let backends: Vec<NodeId> = (0..cfg.backends)
        .map(|_| b.add_node(OsConfig::default()))
        .collect();

    let bcfg = BackendConfig {
        calc_interval: cfg.granularity,
        fallback_reporter: cfg.fallback_reporter,
        ..BackendConfig::default()
    };

    // Back-ends: slot 0 = monitor backend (region 0 by construction),
    // slot 1 = web server.
    let mut monitor_handles = Vec::new();
    let mut work_conns = Vec::new();
    for (i, &be) in backends.iter().enumerate() {
        // For pull schemes the backend's own region is always its first
        // registration (0); for the write-push extension the ordinal
        // selects the front-end buffer it pushes into.
        let region_hint = if cfg.scheme == Scheme::RdmaWritePush {
            i as u32
        } else {
            0
        };
        let handle = wire_monitoring(
            &mut b,
            cfg.scheme,
            bcfg,
            frontend,
            ServiceSlot(0),
            be,
            region_hint,
        );
        monitor_handles.push(handle);
        let mut server = WorkerPoolServer::new();
        // Conn from dispatcher (fe slot 0) to the server (slot 1).
        let conn = b.connect(frontend, ServiceSlot(0), be, ServiceSlot(1));
        server.conns.push(conn);
        b.add_service(be, Box::new(server));
        work_conns.push((be, conn));
        if cfg.background_hogs > 0 {
            b.add_service(be, Box::new(ComputeHogs::new(cfg.background_hogs)));
        }
    }

    // Client connections to the dispatcher.
    let rubis_conn = b.connect(client_node, ServiceSlot(0), frontend, ServiceSlot(0));
    let zipf_conn = cfg
        .zipf
        .map(|_| b.connect(client_node, ServiceSlot(1), frontend, ServiceSlot(0)));

    // Front-end: the dispatcher embedding the monitoring client.
    let mut dcfg = DispatcherConfig::for_scheme(cfg.scheme, cfg.granularity);
    dcfg.policy = cfg.policy;
    dcfg.admission_threshold = cfg.admission_threshold;
    dcfg.retry = cfg.retry;
    dcfg.max_info_age = cfg.max_info_age;
    dcfg.breaker = cfg.breaker;
    let mut client_conns = vec![rubis_conn];
    if let Some(c) = zipf_conn {
        client_conns.push(c);
    }
    let mut dispatcher = Dispatcher::new(dcfg, work_conns, monitor_handles, client_conns);
    if let Some(policy) = cfg.reconfig {
        assert!(
            cfg.zipf.is_some(),
            "reconfiguration partitions nodes between RUBiS and Zipf; enable zipf"
        );
        dispatcher.reconfig = Some(Reconfigurator::new(
            cfg.backends as usize,
            cfg.backends as usize / 2,
            policy,
            dcfg.weights,
            dcfg.capacity,
        ));
    }
    let dispatcher_slot = b.add_service(frontend, Box::new(dispatcher));

    // Clients.
    let rubis_client_slot = b.add_service(
        client_node,
        Box::new(RubisClient::new(
            rubis_conn,
            cfg.rubis_sessions,
            cfg.think_mean,
        )),
    );
    let zipf_client_slot = cfg.zipf.map(|(alpha, sessions)| {
        // lint: rng-construction — catalog shuffling runs at build time,
        // before the engine starts; seeded straight from the world config.
        let mut rng = DetRng::new(cfg.seed ^ 0x21bf);
        let catalog = ZipfCatalog::new(1000, alpha, &mut rng);
        b.add_service(
            client_node,
            Box::new(ZipfClient::new(
                zipf_conn.expect("zipf conn"),
                sessions,
                cfg.think_mean,
                catalog,
            )),
        )
    });

    // Hostile co-tenant: one extra node (added last, so every id above
    // is unchanged) aiming a one-sided read flood at each back-end NIC
    // and bursty chatter at each back-end CPU. Region 0 is where pull
    // backends export their stats; for push/socket schemes the reads
    // come back denied, but the *completions* still occupy the victim
    // NIC either way.
    if cfg.hostile_flood > 0 {
        let hostile = b.add_node(OsConfig::frontend());
        b.set_node_tenant(hostile, TenantId(1));
        let targets: Vec<(NodeId, RegionId)> =
            backends.iter().map(|&be| (be, RegionId(0))).collect();
        b.add_service(
            hostile,
            Box::new(RdmaFlood::new(
                targets,
                cfg.hostile_flood,
                SimDuration::from_micros(125),
            )),
        );
        for (i, &be) in backends.iter().enumerate() {
            let sink_slot =
                b.add_service(be, Box::new(CommSink::new(fgmon_types::ConnId(0), true)));
            let conn = b.connect(hostile, ServiceSlot(1 + i as u16), be, sink_slot);
            b.node_service_mut::<CommSink>(be, sink_slot)
                .expect("comm sink")
                .conn = conn;
            b.add_service(
                hostile,
                Box::new(CommLoad::bursty(conn, SimDuration::from_micros(400), 8)),
            );
        }
    }
    if let Some(tenancy) = cfg.tenancy {
        b.set_tenancy(tenancy);
    }
    if !cfg.faults.is_empty() {
        b.set_fault_plan(cfg.faults.clone());
    }
    let extra = extend(&mut b, frontend, &backends);
    let world = RubisWorld {
        cluster: b.finish(&[]),
        frontend,
        client_node,
        backends,
        dispatcher_slot,
        rubis_client_slot,
        zipf_client_slot,
    };
    (world, extra)
}

// ---------------------------------------------------------------------------
// Fault-injection scenarios — the robustness harness
// ---------------------------------------------------------------------------

/// Two pollers (Socket-Sync and RDMA-Sync) watching the same back-end
/// through a faulty fabric: the adversarial counterpart of
/// [`accuracy_world`]. Staleness/latency histograms land in the shared
/// recorder under `mon/staleness/<label>` as usual.
pub struct FaultCompareWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub backend: NodeId,
    /// Slot of the Socket-Sync poller on the front-end.
    pub fe_socket: ServiceSlot,
    /// Slot of the RDMA-Sync poller on the front-end.
    pub fe_rdma: ServiceSlot,
}

/// Build the comparison world with an arbitrary [`FaultPlan`]. The race
/// sanitizer follows `FGMON_RACE_CHECK`; [`Cluster::set_race_mode`] pins
/// another mode.
pub fn fault_compare_world(
    plan: FaultPlan,
    retry: RetryPolicy,
    poll: SimDuration,
    seed: u64,
) -> FaultCompareWorld {
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let cfg = BackendConfig {
        calc_interval: poll,
        ..BackendConfig::default()
    };
    // Back-end slot 0 = socket backend (registers no region), slot 1 =
    // RDMA backend — its exported region is therefore RegionId(0).
    let tune = |c: &mut MonitorClient| c.set_retry_policy(retry);
    let fe_socket = add_poller(&mut b, Scheme::SocketSync, cfg, frontend, backend, tune);
    let fe_rdma = add_poller(&mut b, Scheme::RdmaSync, cfg, frontend, backend, tune);
    // Light background compute so the monitored signal is not constant.
    b.add_service(backend, Box::new(ComputeHogs::new(2)));
    b.set_fault_plan(plan);
    let cluster = b.finish(&[]);
    FaultCompareWorld {
        cluster,
        frontend,
        backend,
        fe_socket,
        fe_rdma,
    }
}

/// Lossy-fabric sweep point: socket frames traverse the loaded kernel
/// network path and are dropped with probability `loss_p`, while
/// one-sided RDMA operations are NIC-offloaded with hardware delivery —
/// the paper's overload asymmetry (Figs. 3/8) made mechanical. Sweep
/// `loss_p` for the robustness curve.
pub fn lossy_fabric(loss_p: f64, poll: SimDuration, seed: u64) -> FaultCompareWorld {
    let plan = FaultPlan::new(seed ^ 0x1055).lossy_op(FaultOp::Socket, loss_p);
    let retry = RetryPolicy::aggressive(poll.mul_f64(3.0));
    fault_compare_world(plan, retry, poll, seed)
}

/// Gray-failure comparison world: nothing fail-stops, yet everything is
/// subtly wrong. The front-end→back-end direction partitions for a
/// window (requests vanish, replies would flow), the back-end's NIC
/// degrades to 3× latency over an overlapping window, and the back-end's
/// clock drifts so its *reported* timestamps lie. The plan mixes
/// deterministic physics (partition, slow NIC) with payload rewriting
/// (skew), which makes this the canonical world for the parallel
/// determinism suite: every shard must agree bit-for-bit on fates that
/// depend on draw-index discipline.
pub fn gray_failure_world(seed: u64) -> FaultCompareWorld {
    let poll = SimDuration::from_millis(5);
    let sec = |s: u64| SimTime(SimDuration::from_secs(s).nanos());
    let plan = FaultPlan::new(seed ^ 0x64AF)
        .partition(Some(NodeId(0)), Some(NodeId(1)), sec(1), sec(2))
        .slow_nic(NodeId(1), 3.0, SimTime(1_500_000_000), sec(3))
        .clock_skew(NodeId(1), -2_000_000, sec(2), sec(4));
    let retry = RetryPolicy::aggressive(poll.mul_f64(3.0));
    fault_compare_world(plan, retry, poll, seed)
}

/// Congested-switch scenario: every frame's wire latency is multiplied by
/// `latency_mult` inside `[from, until)`, and socket frames additionally
/// suffer tail-drop loss (congested kernel queues drop; RDMA transports
/// recover in hardware).
pub fn congested_switch(
    latency_mult: f64,
    from: SimTime,
    until: SimTime,
    poll: SimDuration,
    seed: u64,
) -> FaultCompareWorld {
    let plan = FaultPlan::new(seed ^ 0xC046)
        .congested(from, until, latency_mult)
        .lossy_op(FaultOp::Socket, 0.25);
    let retry = RetryPolicy::aggressive(poll.mul_f64(3.0));
    fault_compare_world(plan, retry, poll, seed)
}

/// World engineered to make RDMA reads overlap host kernel writes: the
/// race-sanitizer's canonical reproducer.
pub struct TornReadWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub backend: NodeId,
    /// Slot of the RDMA-Sync poller on the front-end.
    pub fe_mon: ServiceSlot,
}

/// One RDMA-Sync poller reading the back-end's kernel-load region while
/// bursty peer chatter wakes and blocks the back-end's sink thread — each
/// transition is a host write to the exported region. A persistent
/// congestion fault stretches the read's request leg from ~5 µs to
/// ~100 µs, so writes routinely land *inside* open read windows. Strict
/// mode reports them as [`fgmon_types::TornRead`]s; seqlock mode retries
/// them away at a modeled cost. Pin the mode with
/// [`Cluster::set_race_mode`].
pub fn torn_read_world(seed: u64) -> TornReadWorld {
    let poll = SimDuration::from_millis(1);
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let peer = b.add_node(OsConfig::default());

    // Back-end slot 0 = RDMA-Sync backend; its kernel region is
    // RegionId(0) by construction.
    let cfg = BackendConfig {
        calc_interval: poll,
        ..BackendConfig::default()
    };
    let fe_mon = add_poller(&mut b, Scheme::RdmaSync, cfg, frontend, backend, |_| {});

    // Bursty chatter peer→backend. The sink must *drain* between frames
    // so it keeps blocking and re-waking — each transition is a kernel
    // write to the exported run-queue state. (A saturated sink would stay
    // runnable forever and never touch it: no echo, no compute hogs.)
    let conn = b.connect(peer, ServiceSlot(0), backend, ServiceSlot(1));
    b.add_service(
        peer,
        Box::new(CommLoad::bursty(conn, SimDuration::from_micros(400), 4)),
    );
    b.add_service(
        backend,
        Box::new(fgmon_workload::CommSink::new(conn, false)),
    );

    // Persistent congestion: every frame's latency ×24, widening the
    // read window far past the write inter-arrival time.
    b.set_fault_plan(FaultPlan::new(seed ^ 0x7042).congested(SimTime::ZERO, SimTime::MAX, 24.0));

    let cluster = b.finish(&[]);
    TornReadWorld {
        cluster,
        frontend,
        backend,
        fe_mon,
    }
}

/// Crash-during-burst scenario, ready for assertions about exclusion and
/// re-admission.
pub struct CrashWorld {
    pub world: RubisWorld,
    /// The back-end that goes dark.
    pub victim: NodeId,
    pub crash_from: SimTime,
    pub crash_until: SimTime,
}

/// A RUBiS cluster under session load where one back-end goes dark for
/// `[from, until)` mid-run. The dispatcher runs with an aggressive retry
/// policy and a staleness threshold, so monitoring marks the victim
/// unreachable, routing excludes it, and recovery re-admits it.
pub fn crash_during_burst(scheme: Scheme, from: SimTime, until: SimTime, seed: u64) -> CrashWorld {
    // Node ids by construction order: 0 = front-end, 1 = client node,
    // back-ends from 2. Crash the first back-end.
    let victim = NodeId(2);
    let cfg = RubisWorldCfg {
        scheme,
        backends: 4,
        rubis_sessions: 48,
        granularity: SimDuration::from_millis(20),
        faults: FaultPlan::new(seed ^ 0xFA17).crash(victim, from, until),
        retry: RetryPolicy::aggressive(SimDuration::from_millis(60)),
        max_info_age: Some(SimDuration::from_millis(250)),
        seed,
        ..Default::default()
    };
    CrashWorld {
        world: rubis_world(&cfg),
        victim,
        crash_from: from,
        crash_until: until,
    }
}

// ---------------------------------------------------------------------------
// Self-healing channel scenarios
// ---------------------------------------------------------------------------

/// World where the RDMA transport itself degrades for a window: the
/// self-healing-channel counterpart of [`crash_during_burst`].
pub struct FailoverWorld {
    pub world: RubisWorld,
    /// Window during which RDMA read legs are dropped with high
    /// probability.
    pub flaky_from: SimTime,
    pub flaky_until: SimTime,
}

/// A RUBiS cluster whose fabric drops ~90% of RDMA read legs inside
/// `[1 s, 4 s)` — an NIC firmware bug that a reboot fixes — while socket
/// frames sail through. One-sided schemes trip their per-backend circuit
/// breakers, fall back to socket polling of the standby reporter, probe
/// the RDMA path on the breaker cool-down (probes fail inside the window,
/// the first one after it succeeds), and restore. Two-sided and push
/// schemes are untouched, which is exactly the availability contrast the
/// failover experiment measures.
pub fn flaky_rdma_failover(scheme: Scheme, seed: u64) -> FailoverWorld {
    let from = SimTime(SimDuration::from_secs(1).nanos());
    let until = SimTime(SimDuration::from_secs(4).nanos());
    let cfg = RubisWorldCfg {
        scheme,
        backends: 4,
        rubis_sessions: 48,
        granularity: SimDuration::from_millis(20),
        faults: FaultPlan::new(seed ^ 0xF1A2).lossy_op_window(FaultOp::RdmaRead, 0.9, from, until),
        retry: RetryPolicy::aggressive(SimDuration::from_millis(60)),
        max_info_age: Some(SimDuration::from_millis(250)),
        breaker: Some(BreakerConfig::default()),
        fallback_reporter: true,
        seed,
        ..Default::default()
    };
    FailoverWorld {
        world: rubis_world(&cfg),
        flaky_from: from,
        flaky_until: until,
    }
}

/// [`crash_during_burst`] with the full recovery stack switched on: the
/// victim back-end fail-stops for `[2 s, 5 s)`, restarts with a bumped
/// boot generation, re-registers its regions, and re-advertises them over
/// every monitoring connection. The client's fence gate rejects any
/// record still carrying the old generation, and the breaker + fallback
/// reporter keep the other back-ends' monitoring untouched. Assertions
/// about fresh-generation re-admission live in the failover integration
/// tests.
pub fn crash_restart_recovery(scheme: Scheme, seed: u64) -> CrashWorld {
    let victim = NodeId(2);
    let from = SimTime(SimDuration::from_secs(2).nanos());
    let until = SimTime(SimDuration::from_secs(5).nanos());
    let cfg = RubisWorldCfg {
        scheme,
        backends: 4,
        rubis_sessions: 48,
        granularity: SimDuration::from_millis(20),
        faults: FaultPlan::new(seed ^ 0xC4A5).crash(victim, from, until),
        retry: RetryPolicy::aggressive(SimDuration::from_millis(60)),
        max_info_age: Some(SimDuration::from_millis(250)),
        breaker: Some(BreakerConfig::default()),
        fallback_reporter: true,
        seed,
        ..Default::default()
    };
    CrashWorld {
        world: rubis_world(&cfg),
        victim,
        crash_from: from,
        crash_until: until,
    }
}

// ---------------------------------------------------------------------------
// Fig. 8 — RUBiS + Ganglia + gmetric
// ---------------------------------------------------------------------------

/// RUBiS world plus a Ganglia deployment with fine-grained gmetric
/// injections captured through `gmetric_scheme` at `gmetric_granularity`.
pub struct GangliaWorld {
    pub rubis: RubisWorld,
    pub publisher_slot: ServiceSlot,
}

/// The [`rubis_world`] of `base`, so every field of `base` applies, with
/// gmetric and gmond added on top.
pub fn ganglia_world(
    base: &RubisWorldCfg,
    gmetric_scheme: Scheme,
    gmetric_granularity: SimDuration,
) -> GangliaWorld {
    let (rubis, publisher_slot) = build_rubis(base, |b, frontend, backends| {
        // Each back-end adds gmetric's reporter (slot 2 unless the base
        // config added services) and gmond; the publisher is front-end
        // slot 1, after the dispatcher. gmetric's region follows the
        // dispatcher's, which a one-sided dispatcher scheme registers first.
        let cfg = BackendConfig {
            calc_interval: gmetric_granularity,
            ..BackendConfig::default()
        };
        let region = u32::from(base.scheme.is_one_sided());
        let handles = backends
            .iter()
            .map(|&be| {
                let h =
                    wire_monitoring(b, gmetric_scheme, cfg, frontend, ServiceSlot(1), be, region);
                b.add_service(be, Box::new(Gmond::new(SimDuration::from_secs(1))));
                b.join_mcast(GANGLIA_GROUP, be);
                h
            })
            .collect();
        b.join_mcast(GANGLIA_GROUP, frontend);
        let publisher = GmetricPublisher::new(gmetric_scheme, gmetric_granularity, handles);
        b.add_service(frontend, Box::new(publisher))
    });
    GangliaWorld {
        rubis,
        publisher_slot,
    }
}

// ---------------------------------------------------------------------------
// Large-cluster scaling scenario — the parallel-executor workload
// ---------------------------------------------------------------------------

/// A cluster far past the paper's 8-node testbed (64–256 back-ends): a
/// [`rubis_world`] whose dispatcher polls every back-end over RDMA-Sync
/// at a tight 10 ms granularity while 4 RUBiS sessions per back-end drive
/// web traffic, plus east-west chatter on a ring (each back-end streams
/// frames to its successor) so event load spreads over *every* node
/// rather than concentrating on the front-end. This is the workload the
/// sharded executor is measured on: with round-robin node placement the
/// ring chatter makes nearly all traffic cross shards.
pub fn big_cluster(backend_count: u16, seed: u64) -> RubisWorld {
    let cfg = RubisWorldCfg {
        backends: backend_count,
        rubis_sessions: 4 * u32::from(backend_count),
        granularity: SimDuration::from_millis(10),
        seed,
        ..Default::default()
    };
    build_rubis(&cfg, |b, _, backends| {
        // East-west ring: back-end i streams to back-end i+1. Staggered
        // periods (all well above the wire latency) keep senders from
        // phase-locking into one synchronized burst per interval.
        // Connections are registered first so each node can then receive
        // its source (slot 2) and sink (slot 3) in a fixed order.
        let n = backends.len();
        let ring_conns: Vec<_> = (0..n)
            .map(|i| {
                b.connect(
                    backends[i],
                    ServiceSlot(2),
                    backends[(i + 1) % n],
                    ServiceSlot(3),
                )
            })
            .collect();
        for (i, &be) in backends.iter().enumerate() {
            let period = SimDuration::from_micros(150 + (i as u64 % 7) * 10);
            b.add_service(be, Box::new(CommLoad::new(ring_conns[i], period)));
            let sink = CommSink::new(ring_conns[(i + n - 1) % n], false);
            b.add_service(be, Box::new(sink));
        }
    })
    .0
}

// ---------------------------------------------------------------------------
// Multi-tenancy — NIC contention, hostile co-tenants, and the lock service
// ---------------------------------------------------------------------------

/// Two pollers (Socket-Sync and RDMA-Sync) watching one back-end whose
/// NIC and CPU a hostile co-tenant hammers: the multi-tenant
/// counterpart of [`fault_compare_world`], with the ground-truth probe
/// and per-scheme series recording on so accuracy is measurable.
pub struct NoisyWorld {
    pub cluster: Cluster,
    pub frontend: NodeId,
    pub backend: NodeId,
    pub hostile: NodeId,
    /// Slot of the Socket-Sync poller on the front-end.
    pub fe_socket: ServiceSlot,
    /// Slot of the RDMA-Sync poller on the front-end.
    pub fe_rdma: ServiceSlot,
    /// Slot of the hostile read flood on the hostile node.
    pub flood_slot: ServiceSlot,
}

/// The noisy-neighbor world. The back-end runs an oscillating compute
/// load so there is a moving signal for the deviation metric; the
/// hostile node (tenant 1) aims a one-sided read flood at the back-end
/// NIC — past the QP-cache working set, so co-tenant completions thrash
/// and shed — and pours echoed socket chatter into the back-end CPU, the
/// host-side half of the attack that hits the two-sided scheme hardest.
/// `QosPolicy::None` with the hostile tenant on is the adversarial
/// baseline, another `qos` defends it, and `hostile_on: false` is the
/// quiet control with the hostile services idle.
pub fn noisy_neighbor(qos: QosPolicy, hostile_on: bool, seed: u64) -> NoisyWorld {
    let poll = SimDuration::from_millis(1);
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let hostile = b.add_node(OsConfig::frontend());
    b.set_node_tenant(hostile, TenantId(1));
    b.set_tenancy(TenancyConfig::with_qos(qos));

    let cfg = BackendConfig {
        calc_interval: poll,
        ..BackendConfig::default()
    };
    // Back-end slot 0 = socket backend (no region), slot 1 = RDMA
    // backend — its exported region is RegionId(0), which is also what
    // the hostile flood reads. Shed completions must be retried, not
    // waited on forever.
    let retry = RetryPolicy::aggressive(poll.mul_f64(3.0));
    let tune = |c: &mut MonitorClient| {
        c.set_retry_policy(retry);
        c.record_series = true;
    };
    let fe_socket = add_poller(&mut b, Scheme::SocketSync, cfg, frontend, backend, tune);
    let fe_rdma = add_poller(&mut b, Scheme::RdmaSync, cfg, frontend, backend, tune);

    // The monitored signal: compute load oscillating 0 ↔ 8 threads every
    // 40 ms, so a scheme that samples late or loses samples deviates.
    let steps: Vec<RampStep> = (0..250)
        .map(|i| RampStep {
            at: SimTime(i as u64 * 40_000_000),
            hogs: if i % 2 == 0 { 0 } else { 8 },
        })
        .collect();
    b.add_service(backend, Box::new(LoadRamp::new(steps)));

    // The attack. ~96 reads/ms lands the victim NIC deep in the QP-cache
    // overload regime (default model: 32 clean slots, shedding past 96);
    // the chatter's echo sink keeps the back-end CPU and kernel network
    // path busy, which is what starves the *socket* scheme's reply path.
    let flood = RdmaFlood::new(
        vec![(backend, RegionId(0))],
        if hostile_on { 12 } else { 0 },
        SimDuration::from_micros(125),
    );
    let flood_slot = b.add_service(hostile, Box::new(flood));
    let sink_slot = b.add_service(
        backend,
        Box::new(CommSink::new(fgmon_types::ConnId(0), true)),
    );
    let conn = b.connect(hostile, ServiceSlot(1), backend, sink_slot);
    b.node_service_mut::<CommSink>(backend, sink_slot)
        .expect("comm sink")
        .conn = conn;
    if hostile_on {
        b.add_service(
            hostile,
            Box::new(CommLoad::bursty(conn, SimDuration::from_micros(200), 16)),
        );
    }

    let cluster = b.finish(&[(backend, GT_PERIOD)]);
    NoisyWorld {
        cluster,
        frontend,
        backend,
        hostile,
        fe_socket,
        fe_rdma,
        flood_slot,
    }
}

/// The per-window rate limit the defended worlds use: 24 posted ops per
/// millisecond keeps the hostile tenant under the QP-cache working set
/// (32 slots) with headroom for the monitoring ops on top.
pub const NOISY_RATE_LIMIT: QosPolicy = QosPolicy::RateLimit {
    ops_per_window: 24,
    window: SimDuration(1_000_000),
};

/// [`rubis_world`] under the same attack: the dispatcher-quality
/// counterpart of [`noisy_neighbor`]. Four back-ends, a hostile
/// co-tenant flooding all of them, and the chosen QoS policy.
pub fn noisy_rubis(scheme: Scheme, qos: QosPolicy, hostile_on: bool, seed: u64) -> RubisWorld {
    let cfg = RubisWorldCfg {
        scheme,
        backends: 2,
        rubis_sessions: 12,
        granularity: SimDuration::from_millis(20),
        retry: RetryPolicy::aggressive(SimDuration::from_millis(60)),
        max_info_age: Some(SimDuration::from_millis(250)),
        tenancy: Some(TenancyConfig::with_qos(qos)),
        hostile_flood: if hostile_on { 8 } else { 0 },
        seed,
        ..Default::default()
    };
    rubis_world(&cfg)
}

/// The RDMA-CAS distributed lock service under closed-loop contention,
/// ready for assertions about mutual exclusion, FIFO fairness, and
/// epoch-fenced crash recovery.
pub struct LockWorld {
    pub cluster: Cluster,
    /// Node hosting the lock table (and its lease manager).
    pub host: NodeId,
    pub clients: Vec<NodeId>,
    /// Slot of the [`LockHost`] on `host`.
    pub host_slot: ServiceSlot,
    /// Slot of each [`LockClient`] on its node (all slot 0).
    pub client_slots: Vec<ServiceSlot>,
    /// Which client fail-stops mid-run (`None` = pristine run).
    pub victim: Option<NodeId>,
}

/// `clients` closed-loop lock clients contending for `n_locks` ticket
/// locks hosted on one node's atomic region — every acquire, poll, and
/// release a single one-sided CAS, costing the host zero CPU. When
/// `crash` is set, client 0 becomes a long-holding victim that
/// fail-stops over the window: the lease manager epoch-fences its dead
/// grant so the queue moves on, and the restarted victim's release hits
/// the fence (`release_fenced`) instead of corrupting the lock.
pub fn rdma_lock_world(
    clients: u32,
    n_locks: u32,
    crash: Option<(SimTime, SimTime)>,
    seed: u64,
) -> LockWorld {
    assert!(clients > 0);
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let host = b.add_node(OsConfig::default());
    let host_slot = b.add_service(
        host,
        Box::new(LockHost::new(
            n_locks,
            SimDuration::from_millis(120),
            SimDuration::from_millis(25),
        )),
    );
    let mut nodes = Vec::new();
    let mut client_slots = Vec::new();
    for _ in 0..clients {
        let n = b.add_node(OsConfig::frontend());
        // The host's atomic region is its first registration: RegionId(0).
        let slot = b.add_service(
            n,
            Box::new(LockClient::new(
                host,
                RegionId(0),
                n_locks,
                SimDuration::from_millis(25),
            )),
        );
        // Lock clients CAS the host's region directly over RDMA with no
        // connection; declare the route so the parallel executor knows
        // these two nodes exchange events.
        b.declare_rdma_route(n, host);
        nodes.push(n);
        client_slots.push(slot);
    }
    let victim = crash.map(|(from, until)| {
        let v = nodes[0];
        let slot = client_slots[0];
        // Make the victim grabby — near-zero think time, long holds — so
        // it is overwhelmingly likely to die *inside* a critical section
        // (the case the fencing machinery exists for). Its live holds
        // stay well under the 120 ms lease, so only the crash fences.
        let c = b
            .node_service_mut::<LockClient>(v, slot)
            .expect("lock client");
        c.think_mean = SimDuration::from_millis(2);
        c.hold = SimDuration::from_millis(60);
        b.set_fault_plan(FaultPlan::new(seed ^ 0x10CC).crash(v, from, until));
        v
    });
    let cluster = b.finish(&[]);
    LockWorld {
        cluster,
        host,
        clients: nodes,
        host_slot,
        client_slots,
        victim,
    }
}

/// The canonical crash-recovery lock run: 4 clients on one lock, the
/// victim dark for `[1 s, 1.6 s)`.
pub fn rdma_lock_crash(seed: u64) -> LockWorld {
    let from = SimTime(SimDuration::from_secs(1).nanos());
    let until = SimTime(SimDuration::from_millis(1_600).nanos());
    rdma_lock_world(4, 1, Some((from, until)), seed)
}

// ---------------------------------------------------------------------------
// Chaos search — the world every sampled schedule runs against
// ---------------------------------------------------------------------------

/// The combined world the chaos search throws random fault schedules at:
/// every invariant-bearing subsystem in one cluster, so a single sampled
/// [`FaultPlan`] can probe fence gates, circuit breakers, checksum seals,
/// and lock fencing in the same run.
pub struct ChaosWorld {
    pub cluster: Cluster,
    /// Node 0: front-end running both monitoring clients.
    pub frontend: NodeId,
    /// Node 1: the monitored back-end (socket + RDMA reporters, hogs).
    pub backend: NodeId,
    /// Node 2: lock-table host. The chaos grammar never crashes it —
    /// a dead lock host stalls every client and teaches the search
    /// nothing about fencing.
    pub lock_host: NodeId,
    /// Nodes 3 and 4: closed-loop lock clients.
    pub lock_clients: Vec<NodeId>,
    /// Slot of the Socket-Sync poller on the front-end.
    pub fe_socket: ServiceSlot,
    /// Slot of the RDMA-Sync poller (breaker-guarded) on the front-end.
    pub fe_rdma: ServiceSlot,
    /// Slot of the [`LockHost`] on `lock_host`.
    pub host_slot: ServiceSlot,
    /// Slot of each [`LockClient`] on its node.
    pub client_slots: Vec<ServiceSlot>,
}

/// Monitoring poll period of the chaos world (exported so the chaos
/// grammar can size fault windows relative to the poll cadence).
pub const CHAOS_POLL: SimDuration = SimDuration(5_000_000); // 5 ms

/// Build the chaos world: five nodes wiring together every mechanism the
/// invariant registry checks.
///
/// * Front-end (node 0) runs a Socket-Sync poller and a breaker-guarded
///   RDMA-Sync poller, both with an aggressive retry policy, watching the
///   same back-end.
/// * Back-end (node 1) hosts the socket reporter (slot 0), the RDMA
///   reporter with a fallback socket path (slot 1, region 0), and two
///   compute hogs so the monitored signal moves.
/// * Node 2 hosts a one-lock [`LockHost`]; nodes 3–4 run closed-loop
///   [`LockClient`]s contending over one-sided CAS.
///
/// The sampled `plan` arrives pre-validated by the chaos planner; the
/// builder validates it again on `finish` (defense in depth, not the
/// primary gate). `race` pins the sanitizer mode through
/// [`Cluster::set_race_mode`].
pub fn chaos_world(plan: FaultPlan, seed: u64, race: RaceMode) -> ChaosWorld {
    let poll = CHAOS_POLL;
    let mut b = ClusterBuilder::new(seed, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let lock_host = b.add_node(OsConfig::default());
    let cfg = BackendConfig {
        calc_interval: poll,
        ..BackendConfig::default()
    };
    // Back-end slot 0 = socket reporter (no region), slot 1 = RDMA
    // reporter — its exported region is RegionId(0). The RDMA reporter
    // keeps a fallback socket path alive so the breaker has somewhere to
    // fail over to when a schedule degrades the RDMA op class.
    let retry = RetryPolicy::aggressive(poll.mul_f64(3.0));
    let fe_socket = add_poller(&mut b, Scheme::SocketSync, cfg, frontend, backend, |c| {
        c.set_retry_policy(retry)
    });
    let rdma_cfg = BackendConfig {
        fallback_reporter: true,
        ..cfg
    };
    let fe_rdma = add_poller(&mut b, Scheme::RdmaSync, rdma_cfg, frontend, backend, |c| {
        c.set_retry_policy(retry);
        c.set_breaker(BreakerConfig::default());
    });
    b.add_service(backend, Box::new(ComputeHogs::new(2)));
    // The host's atomic region is its first registration: RegionId(0).
    let host_slot = b.add_service(
        lock_host,
        Box::new(LockHost::new(
            1,
            SimDuration::from_millis(120),
            SimDuration::from_millis(25),
        )),
    );
    let mut lock_clients = Vec::new();
    let mut client_slots = Vec::new();
    for _ in 0..2 {
        let n = b.add_node(OsConfig::frontend());
        let slot = b.add_service(
            n,
            Box::new(LockClient::new(
                lock_host,
                RegionId(0),
                1,
                SimDuration::from_millis(25),
            )),
        );
        // Connection-less RDMA CAS traffic: declare it for shard planning.
        b.declare_rdma_route(n, lock_host);
        lock_clients.push(n);
        client_slots.push(slot);
    }
    if !plan.is_empty() {
        b.set_fault_plan(plan);
    }
    let mut cluster = b.finish(&[]);
    cluster.set_race_mode(race);
    ChaosWorld {
        cluster,
        frontend,
        backend,
        lock_host,
        lock_clients,
        fe_socket,
        fe_rdma,
        host_slot,
        client_slots,
    }
}
