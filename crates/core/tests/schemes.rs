//! End-to-end tests of the five monitoring schemes over the real fabric:
//! one front-end node polls one back-end node while background load varies.

use fgmon_core::{
    scheme_quality, BackendConfig, BackendHandle, MonitorBackend, MonitorFrontendService,
    MONITOR_GROUP,
};
use fgmon_net::Fabric;
use fgmon_os::{NodeActor, OsApi, OsCore, Service};
use fgmon_sim::{DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{
    ConnId, Msg, NetConfig, NodeId, NodeMsg, OsConfig, RegionId, Scheme, ServiceSlot, ThreadId,
};

/// CPU hogs for background load.
struct Hogs {
    n: u32,
}

impl Service for Hogs {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for _ in 0..self.n {
            let tid = os.spawn_thread();
            os.burst(tid, SimDuration::from_millis(40), 1);
        }
    }
    fn on_burst_done(&mut self, tid: ThreadId, _t: u64, os: &mut OsApi<'_, '_>) {
        os.burst(tid, SimDuration::from_millis(40), 1);
    }
}

struct World {
    eng: Engine<Msg>,
    fe: fgmon_sim::ActorId,
    be: fgmon_sim::ActorId,
    conn: ConnId,
}

/// One front-end + one back-end, with `hogs` background threads on the
/// back-end and the given monitoring scheme at 50 ms polling.
fn build(scheme: Scheme, hogs: u32, poll: SimDuration) -> World {
    build_with(scheme, hogs, poll, false)
}

/// [`build`], with the back-end's `fallback_reporter` set as given.
fn build_with(scheme: Scheme, hogs: u32, poll: SimDuration, fallback_reporter: bool) -> World {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let fe = eng.reserve_actor();
    let be = eng.reserve_actor();

    let mut fabric = Fabric::new(NetConfig::default(), vec![fe, be]);
    // Conn between frontend service slot 0 and backend monitor slot 0.
    let conn = fabric.add_conn(NodeId(0), ServiceSlot(0), NodeId(1), ServiceSlot(0));
    fabric.join_mcast(MONITOR_GROUP, NodeId(0));
    eng.install(fabric_id, Box::new(fabric));

    // Back-end node: monitor backend first (region id 0 by convention),
    // then background load.
    let mut be_node = NodeActor::new(OsCore::new(
        NodeId(1),
        OsConfig::default(),
        fabric_id,
        be,
        DetRng::new(11),
    ));
    let bcfg = BackendConfig {
        calc_interval: poll,
        // Write-push backends target the front-end's first registered
        // buffer (the FE monitor registers it at boot).
        push_target: if scheme == Scheme::RdmaWritePush {
            Some((NodeId(0), RegionId(0)))
        } else {
            None
        },
        fallback_reporter,
        ..BackendConfig::default()
    };
    let mut backend = MonitorBackend::new(scheme, bcfg);
    // A reporter listens on the monitoring connection.
    backend.conns.push(conn);
    be_node.add_service(Box::new(backend));
    if hogs > 0 {
        be_node.add_service(Box::new(Hogs { n: hogs }));
    }
    eng.install(be, Box::new(be_node));

    // Front-end node.
    let mut fe_node = NodeActor::new(OsCore::new(
        NodeId(0),
        OsConfig::frontend(),
        fabric_id,
        fe,
        DetRng::new(12),
    ));
    let handle = BackendHandle {
        node: NodeId(1),
        conn: Some(conn),
        region: Some(RegionId(0)),
    };
    fe_node.add_service(Box::new(MonitorFrontendService::new(
        scheme,
        scheme.uses_irq_signal(),
        poll,
        vec![handle],
    )));
    eng.install(fe, Box::new(fe_node));

    eng.schedule(SimTime::ZERO, fe, Msg::Node(NodeMsg::Boot));
    eng.schedule(SimTime::ZERO, be, Msg::Node(NodeMsg::Boot));
    World { eng, fe, be, conn }
}

fn run_secs(w: &mut World, secs: u64) {
    w.eng
        .run_until(SimTime(SimDuration::from_secs(secs).nanos()));
}

#[test]
fn every_scheme_delivers_load_information() {
    for scheme in Scheme::ALL {
        let mut w = build(scheme, 0, SimDuration::from_millis(50));
        run_secs(&mut w, 2);
        let fe = w.eng.actor::<NodeActor>(w.fe).unwrap();
        let svc = fe
            .service::<MonitorFrontendService>(ServiceSlot(0))
            .unwrap();
        let view = &svc.client.views()[0];
        assert!(
            view.replies >= 10,
            "{scheme}: only {} replies after 2s of 50ms polling",
            view.replies
        );
        let snap = view.latest.expect("no snapshot");
        // The back-end runs at least its own monitoring threads (for the
        // threaded schemes) — thread count must be sane.
        assert!(snap.nthreads <= 4, "{scheme}: {snap:?}");
    }
}

#[test]
fn rdma_latency_is_load_independent_sockets_degrade() {
    let lat = |scheme: Scheme, hogs: u32| -> f64 {
        let mut w = build(scheme, hogs, SimDuration::from_millis(50));
        run_secs(&mut w, 5);
        let q = scheme_quality(w.eng.recorder(), scheme).expect("no quality data");
        q.latency_mean_us
    };

    let sock_idle = lat(Scheme::SocketSync, 0);
    let sock_loaded = lat(Scheme::SocketSync, 24);
    let rdma_idle = lat(Scheme::RdmaSync, 0);
    let rdma_loaded = lat(Scheme::RdmaSync, 24);

    // Fig. 3: socket latency grows dramatically under load…
    assert!(
        sock_loaded > sock_idle * 20.0,
        "socket: idle {sock_idle}µs loaded {sock_loaded}µs"
    );
    // …while RDMA stays flat (allow small jitter).
    assert!(
        rdma_loaded < rdma_idle * 1.5 + 5.0,
        "rdma: idle {rdma_idle}µs loaded {rdma_loaded}µs"
    );
    // And RDMA is microseconds, sockets-under-load is tens of ms.
    assert!(rdma_loaded < 100.0, "rdma loaded {rdma_loaded}µs");
    assert!(sock_loaded > 10_000.0, "socket loaded {sock_loaded}µs");
}

#[test]
fn async_schemes_serve_stale_data_sync_schemes_fresh() {
    let staleness = |scheme: Scheme| -> f64 {
        let mut w = build(scheme, 4, SimDuration::from_millis(50));
        run_secs(&mut w, 5);
        scheme_quality(w.eng.recorder(), scheme)
            .unwrap()
            .staleness_mean_ms
    };
    let async_rdma = staleness(Scheme::RdmaAsync);
    let sync_rdma = staleness(Scheme::RdmaSync);
    // RDMA-Async: value age averages ~T/2..T plus calc delays; RDMA-Sync:
    // just the wire flight (microseconds).
    assert!(
        async_rdma > 10.0,
        "RDMA-Async staleness {async_rdma}ms should reflect interval T"
    );
    assert!(
        sync_rdma < 1.0,
        "RDMA-Sync staleness {sync_rdma}ms should be wire-only"
    );
}

#[test]
fn rdma_sync_backend_runs_no_threads() {
    let mut w = build(Scheme::RdmaSync, 0, SimDuration::from_millis(50));
    run_secs(&mut w, 2);
    let be = w.eng.actor::<NodeActor>(w.be).unwrap();
    assert_eq!(
        be.core().threads.live_count(),
        0,
        "RDMA-Sync must not run any back-end thread"
    );
    assert!(be
        .service::<MonitorBackend>(ServiceSlot(0))
        .unwrap()
        .region
        .is_some());

    // Contrast: Socket-Async runs two (calc + reporter).
    let mut w = build(Scheme::SocketAsync, 0, SimDuration::from_millis(50));
    run_secs(&mut w, 2);
    let be = w.eng.actor::<NodeActor>(w.be).unwrap();
    assert_eq!(be.core().threads.live_count(), 2);

    // Every scheme runs the calc and reporter threads its composition
    // names, and a one-sided scheme's standby reporter adds one more.
    for scheme in Scheme::ALL {
        let parts = u32::from(scheme.has_backend_calc_thread())
            + u32::from(scheme.has_backend_reporter_thread());
        let standby: &[bool] = if scheme.is_one_sided() {
            &[false, true]
        } else {
            &[false]
        };
        for &fallback in standby {
            let mut w = build_with(scheme, 0, SimDuration::from_millis(50), fallback);
            run_secs(&mut w, 2);
            let be = w.eng.actor::<NodeActor>(w.be).unwrap();
            assert_eq!(
                be.core().threads.live_count(),
                parts + u32::from(fallback),
                "{scheme} with fallback_reporter = {fallback}"
            );
        }
    }
}

#[test]
fn rdma_sync_consumes_no_backend_cpu() {
    let mut w = build(Scheme::RdmaSync, 0, SimDuration::from_millis(10));
    run_secs(&mut w, 5);
    let be = w.eng.actor_mut::<NodeActor>(w.be).unwrap();
    let busy: u64 = be
        .core_mut()
        .cpu_acct
        .iter()
        .map(|a| a.busy_total.nanos())
        .sum();
    assert_eq!(busy, 0, "RDMA-Sync polling must not burn back-end CPU");

    // Socket-Sync at the same rate costs real CPU.
    let mut w = build(Scheme::SocketSync, 0, SimDuration::from_millis(10));
    run_secs(&mut w, 5);
    let be = w.eng.actor_mut::<NodeActor>(w.be).unwrap();
    let busy: u64 = be
        .core_mut()
        .cpu_acct
        .iter()
        .map(|a| a.busy_total.nanos())
        .sum();
    assert!(
        busy > SimDuration::from_millis(50).nanos(),
        "Socket-Sync should have burned CPU, got {busy}ns"
    );
}

#[test]
fn rdma_write_push_delivers_via_local_memory() {
    let mut w = build(Scheme::RdmaWritePush, 0, SimDuration::from_millis(50));
    run_secs(&mut w, 2);
    let fe = w.eng.actor::<NodeActor>(w.fe).unwrap();
    let svc = fe
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let view = &svc.client.views()[0];
    // Poll rounds read local memory: no requests cross the wire, yet the
    // view refreshes every interval T.
    assert!(view.replies >= 10, "replies {}", view.replies);
    assert!(view.latest.is_some());
    assert!(svc.client.local_region(0).is_some());
    // The backend runs exactly one push thread and its writes are acked.
    let be = w.eng.actor::<NodeActor>(w.be).unwrap();
    assert_eq!(be.core().threads.live_count(), 1);
    let backend = be.service::<MonitorBackend>(ServiceSlot(0)).unwrap();
    assert!(backend.pushes >= 30, "pushes {}", backend.pushes);
    assert!(backend.write_acks >= 29, "acks {}", backend.write_acks);
    assert_eq!(backend.write_denied, 0);
}

#[test]
fn mcast_push_delivers_without_polling() {
    let mut w = build(Scheme::McastPush, 0, SimDuration::from_millis(50));
    run_secs(&mut w, 2);
    let fe = w.eng.actor::<NodeActor>(w.fe).unwrap();
    let svc = fe
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let view = &svc.client.views()[0];
    assert_eq!(view.polls, 0, "push scheme must not poll");
    assert!(view.replies >= 10, "got {} pushes", view.replies);
}

#[test]
fn e_rdma_sync_sees_pending_interrupt_detail() {
    // Configure communication load towards the back-end so interrupts are
    // in flight, then check the e-RDMA-Sync snapshot carries irq counts.
    struct Chatter {
        conn: ConnId,
    }
    impl Service for Chatter {
        fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
            os.set_timer(SimDuration::from_micros(200), 1);
        }
        fn on_timer(&mut self, _t: u64, os: &mut OsApi<'_, '_>) {
            os.send_direct(self.conn, fgmon_types::Payload::Opaque { tag: 7 });
            os.set_timer(SimDuration::from_micros(200), 1);
        }
    }

    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let fe = eng.reserve_actor();
    let be = eng.reserve_actor();
    let mut fabric = Fabric::new(NetConfig::default(), vec![fe, be]);
    let mon_conn = fabric.add_conn(NodeId(0), ServiceSlot(0), NodeId(1), ServiceSlot(0));
    // Chatter floods a second conn whose backend listener is a hog thread
    // that never drains fast (no listener: dropped after irq processing —
    // still raises interrupts, which is all we need).
    let chat_conn = fabric.add_conn(NodeId(0), ServiceSlot(1), NodeId(1), ServiceSlot(7));
    eng.install(fabric_id, Box::new(fabric));

    let mut be_node = NodeActor::new(OsCore::new(
        NodeId(1),
        OsConfig::default(),
        fabric_id,
        be,
        DetRng::new(3),
    ));
    be_node.add_service(Box::new(MonitorBackend::new(
        Scheme::ERdmaSync,
        BackendConfig::default(),
    )));
    be_node.add_service(Box::new(Hogs { n: 4 }));
    eng.install(be, Box::new(be_node));

    let mut fe_node = NodeActor::new(OsCore::new(
        NodeId(0),
        OsConfig::frontend(),
        fabric_id,
        fe,
        DetRng::new(4),
    ));
    fe_node.add_service(Box::new(MonitorFrontendService::new(
        Scheme::ERdmaSync,
        true,
        SimDuration::from_millis(5),
        vec![BackendHandle {
            node: NodeId(1),
            conn: Some(mon_conn),
            region: Some(RegionId(0)),
        }],
    )));
    fe_node.add_service(Box::new(Chatter { conn: chat_conn }));
    eng.install(fe, Box::new(fe_node));

    eng.schedule(SimTime::ZERO, fe, Msg::Node(NodeMsg::Boot));
    eng.schedule(SimTime::ZERO, be, Msg::Node(NodeMsg::Boot));
    eng.run_until(SimTime(SimDuration::from_secs(3).nanos()));

    let fe_actor = eng.actor::<NodeActor>(fe).unwrap();
    let svc = fe_actor
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let snap = svc.client.views()[0].latest.expect("no snapshot");
    // Cumulative interrupt totals must be visible and substantial.
    let total: u64 = snap.irq_total.iter().sum();
    assert!(total > 1_000, "irq totals {total}");
}

#[test]
fn determinism_across_identical_runs() {
    let run = || {
        let mut w = build(Scheme::SocketAsync, 8, SimDuration::from_millis(20));
        run_secs(&mut w, 3);
        let q = scheme_quality(w.eng.recorder(), Scheme::SocketAsync).unwrap();
        (
            q.latency_mean_us.to_bits(),
            q.staleness_mean_ms.to_bits(),
            w.eng.events_processed(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn poll_overlap_is_counted_not_queued() {
    // 1ms polling against a back-end loaded enough that socket replies take
    // longer than 1ms: the client must skip, not pile up.
    let mut w = build(Scheme::SocketSync, 24, SimDuration::from_millis(1));
    run_secs(&mut w, 3);
    let fe = w.eng.actor::<NodeActor>(w.fe).unwrap();
    let svc = fe
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let view = &svc.client.views()[0];
    assert!(view.skipped > 0, "expected skips under overload");
    assert!(view.polls + view.skipped >= 2_900, "rounds happened");
    let _ = w.conn;
}
