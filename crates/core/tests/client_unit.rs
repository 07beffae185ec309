//! Focused tests of the `MonitorClient` front-end component: pipelining
//! budget, denial handling, and view bookkeeping.

use fgmon_core::{BackendHandle, MonitorFrontendService};
use fgmon_net::Fabric;
use fgmon_os::{NodeActor, OsApi, OsCore, Service};
use fgmon_sim::{DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{
    Msg, NetConfig, NodeId, NodeMsg, OsConfig, RegionId, Scheme, ServiceSlot, ThreadId,
};

/// Back-end that registers nothing (all reads denied) or occupies the CPU
/// fully so socket replies stall.
struct StubBackend {
    register: bool,
    hogs: u32,
}

impl Service for StubBackend {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        if self.register {
            os.register_kernel_region(false);
        }
        for _ in 0..self.hogs {
            let tid = os.spawn_thread("hog");
            os.burst(tid, SimDuration::from_secs(60), 1);
        }
    }
    fn on_burst_done(&mut self, tid: ThreadId, _t: u64, os: &mut OsApi<'_, '_>) {
        os.burst(tid, SimDuration::from_secs(60), 1);
    }
}

fn mini_world(
    scheme: Scheme,
    register: bool,
    hogs: u32,
    poll: SimDuration,
) -> (Engine<Msg>, fgmon_sim::ActorId) {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let fe = eng.reserve_actor();
    let be = eng.reserve_actor();
    let mut fabric = Fabric::new(NetConfig::default(), vec![fe, be]);
    let conn = fabric.add_conn(NodeId(0), ServiceSlot(0), NodeId(1), ServiceSlot(0));
    eng.install(fabric_id, Box::new(fabric));

    let mut be_node = NodeActor::new(OsCore::new(
        NodeId(1),
        OsConfig::default(),
        fabric_id,
        be,
        DetRng::new(1),
    ));
    be_node.add_service(Box::new(StubBackend { register, hogs }));
    eng.install(be, Box::new(be_node));

    let mut fe_node = NodeActor::new(OsCore::new(
        NodeId(0),
        OsConfig::frontend(),
        fabric_id,
        fe,
        DetRng::new(2),
    ));
    fe_node.add_service(Box::new(MonitorFrontendService::new(
        scheme,
        false,
        poll,
        vec![BackendHandle {
            node: NodeId(1),
            conn: Some(conn),
            region: Some(RegionId(0)),
        }],
    )));
    eng.install(fe, Box::new(fe_node));
    eng.schedule(SimTime::ZERO, fe, Msg::Node(NodeMsg::Boot));
    eng.schedule(SimTime::ZERO, be, Msg::Node(NodeMsg::Boot));
    (eng, fe)
}

#[test]
fn denied_reads_are_counted_not_accepted() {
    // The backend registers no region: every RDMA read is denied.
    let (mut eng, fe) = mini_world(Scheme::RdmaSync, false, 0, SimDuration::from_millis(10));
    eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));
    let actor = eng.actor::<NodeActor>(fe).unwrap();
    let svc = actor
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let view = &svc.client.views()[0];
    assert!(view.denied >= 90, "denied {}", view.denied);
    assert_eq!(view.replies, 0);
    assert!(view.latest.is_none());
    // Denials release the in-flight budget: polls keep flowing.
    assert!(view.polls >= 90, "polls {}", view.polls);
}

#[test]
fn pipelining_respects_the_outstanding_budget() {
    // Socket scheme against a CPU-saturated, listener-less backend: the
    // stub never answers MonitorRequests, so requests pile up until the
    // budget (16) is reached, then every round is a skip.
    let (mut eng, fe) = mini_world(Scheme::SocketSync, false, 2, SimDuration::from_millis(5));
    eng.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    let actor = eng.actor::<NodeActor>(fe).unwrap();
    let svc = actor
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let view = &svc.client.views()[0];
    assert_eq!(view.polls, 16, "exactly the budget gets posted");
    assert_eq!(view.outstanding, 16);
    assert!(view.skipped > 300, "skipped {}", view.skipped);
    assert_eq!(view.replies, 0);
}

#[test]
fn info_age_tracks_measurement_time() {
    let (mut eng, fe) = mini_world(Scheme::RdmaSync, true, 0, SimDuration::from_millis(50));
    eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));
    let actor = eng.actor::<NodeActor>(fe).unwrap();
    let svc = actor
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    let view = svc.client.view_of(NodeId(1)).expect("view exists");
    let snap = view.latest.expect("snapshot");
    // RDMA-Sync measures in place: measured_at == the read instant, so
    // the age at receive time is just the NIC+wire tail of the RTT.
    let at_receive = view.received_at.unwrap();
    let age = at_receive.since(snap.measured_at);
    assert!(age < SimDuration::from_micros(50), "age {age}");
    // And ages out as time passes without polls.
    let age_later = view
        .info_age(SimTime(SimDuration::from_secs(5).nanos()))
        .unwrap();
    assert!(age_later > SimDuration::from_secs(3));
    assert_eq!(svc.client.backend_node(0), NodeId(1));
    assert_eq!(svc.client.backend_count(), 1);
}

#[test]
fn every_view_of_a_wide_front_end_gets_replies() {
    // The back-end index rides in each RDMA token: the 257th and 258th
    // back-ends' completions must reach their own views.
    const BACKENDS: u16 = 258;
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let actors: Vec<_> = (0..=BACKENDS).map(|_| eng.reserve_actor()).collect();
    let fabric = Fabric::new(NetConfig::default(), actors.clone());
    eng.install(fabric_id, Box::new(fabric));
    for (i, &actor) in actors.iter().enumerate().skip(1) {
        let mut node = NodeActor::new(OsCore::new(
            NodeId(i as u16),
            OsConfig::default(),
            fabric_id,
            actor,
            DetRng::new(i as u64),
        ));
        node.add_service(Box::new(StubBackend {
            register: true,
            hogs: 0,
        }));
        eng.install(actor, Box::new(node));
    }
    let handles = (1..=BACKENDS)
        .map(|i| BackendHandle {
            node: NodeId(i),
            conn: None,
            region: Some(RegionId(0)),
        })
        .collect();
    let mut fe_node = NodeActor::new(OsCore::new(
        NodeId(0),
        OsConfig::frontend(),
        fabric_id,
        actors[0],
        DetRng::new(0),
    ));
    fe_node.add_service(Box::new(MonitorFrontendService::new(
        Scheme::RdmaSync,
        false,
        SimDuration::from_millis(10),
        handles,
    )));
    eng.install(actors[0], Box::new(fe_node));
    for &actor in &actors {
        eng.schedule(SimTime::ZERO, actor, Msg::Node(NodeMsg::Boot));
    }
    eng.run_until(SimTime(SimDuration::from_millis(100).nanos()));

    let actor = eng.actor::<NodeActor>(actors[0]).unwrap();
    let svc = actor
        .service::<MonitorFrontendService>(ServiceSlot(0))
        .unwrap();
    assert_eq!(svc.client.views().len(), BACKENDS as usize);
    for (i, view) in svc.client.views().iter().enumerate() {
        assert!(view.replies > 0, "back-end {i} got no reply: {view:?}");
        assert!(view.outstanding <= 1, "back-end {i} backlog: {view:?}");
    }
}
