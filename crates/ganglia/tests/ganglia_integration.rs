//! Ganglia overlay tests: gmond heartbeats propagate the cluster view to
//! every daemon; the gmetric publisher injects fine-grained metrics.

use fgmon_core::{BackendConfig, BackendHandle, MonitorBackend};
use fgmon_ganglia::{GmetricPublisher, Gmond, GANGLIA_GROUP};
use fgmon_net::Fabric;
use fgmon_os::{NodeActor, OsCore};
use fgmon_sim::{ActorId, DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{Msg, NetConfig, NodeId, NodeMsg, OsConfig, RegionId, Scheme, ServiceSlot};

fn gmond_world(n_nodes: usize) -> (Engine<Msg>, Vec<ActorId>) {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let nodes: Vec<ActorId> = (0..n_nodes).map(|_| eng.reserve_actor()).collect();
    let mut fabric = Fabric::new(NetConfig::default(), nodes.clone());
    for n in 0..n_nodes {
        fabric.join_mcast(GANGLIA_GROUP, NodeId(n as u16));
    }
    eng.install(fabric_id, Box::new(fabric));
    for (i, &actor) in nodes.iter().enumerate() {
        let mut node = NodeActor::new(OsCore::new(
            NodeId(i as u16),
            OsConfig::default(),
            fabric_id,
            actor,
            DetRng::new(i as u64 + 7),
        ));
        node.add_service(Box::new(Gmond::new(SimDuration::from_millis(500))));
        eng.install(actor, Box::new(node));
        eng.schedule(SimTime::ZERO, actor, Msg::Node(NodeMsg::Boot));
    }
    (eng, nodes)
}

#[test]
fn every_gmond_learns_the_whole_cluster() {
    let (mut eng, nodes) = gmond_world(5);
    eng.run_until(SimTime(SimDuration::from_secs(3).nanos()));
    for (i, &actor) in nodes.iter().enumerate() {
        let node = eng.actor::<NodeActor>(actor).unwrap();
        let gmond = node.service::<Gmond>(ServiceSlot(0)).unwrap();
        // Every daemon hears every *other* daemon's cpu_util.
        for (j, _) in nodes.iter().enumerate() {
            if i == j {
                continue; // multicast excludes the sender
            }
            assert!(
                gmond.sample(NodeId(j as u16), "cpu_util").is_some(),
                "gmond {i} missing node {j}"
            );
        }
        assert!(gmond.announces_sent >= 5, "gmond {i} announced too rarely");
        assert!(
            gmond.samples_heard >= 4 * 5,
            "gmond {i} heard {}",
            gmond.samples_heard
        );
    }
}

#[test]
fn gmond_view_timestamps_advance() {
    let (mut eng, nodes) = gmond_world(2);
    eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));
    let node = eng.actor::<NodeActor>(nodes[0]).unwrap();
    let gmond = node.service::<Gmond>(ServiceSlot(0)).unwrap();
    let first = gmond.sample(NodeId(1), "cpu_util").unwrap().heard_at;
    eng.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    let node = eng.actor::<NodeActor>(nodes[0]).unwrap();
    let gmond = node.service::<Gmond>(ServiceSlot(0)).unwrap();
    let later = gmond.sample(NodeId(1), "cpu_util").unwrap().heard_at;
    assert!(later > first, "view must refresh: {first:?} -> {later:?}");
}

#[test]
fn gmetric_publisher_feeds_gmonds_with_captured_metric() {
    // Front-end (node 0) captures node 1's load through RDMA-Sync at
    // 32 ms and publishes `fgmon_load` at 1 Hz into the Ganglia channel;
    // gmond on node 1 must learn its own published metric.
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let fe = eng.reserve_actor();
    let be = eng.reserve_actor();
    let mut fabric = Fabric::new(NetConfig::default(), vec![fe, be]);
    fabric.join_mcast(GANGLIA_GROUP, NodeId(0));
    fabric.join_mcast(GANGLIA_GROUP, NodeId(1));
    eng.install(fabric_id, Box::new(fabric));

    let mut be_node = NodeActor::new(OsCore::new(
        NodeId(1),
        OsConfig::default(),
        fabric_id,
        be,
        DetRng::new(2),
    ));
    be_node.add_service(Box::new(MonitorBackend::new(
        Scheme::RdmaSync,
        BackendConfig {
            calc_interval: SimDuration::from_millis(32),
            ..BackendConfig::default()
        },
    )));
    be_node.add_service(Box::new(Gmond::new(SimDuration::from_secs(1))));
    eng.install(be, Box::new(be_node));

    let mut fe_node = NodeActor::new(OsCore::new(
        NodeId(0),
        OsConfig::frontend(),
        fabric_id,
        fe,
        DetRng::new(3),
    ));
    fe_node.add_service(Box::new(GmetricPublisher::new(
        Scheme::RdmaSync,
        SimDuration::from_millis(32),
        vec![BackendHandle {
            node: NodeId(1),
            conn: None,
            region: Some(RegionId(0)),
        }],
    )));
    eng.install(fe, Box::new(fe_node));

    eng.schedule(SimTime::ZERO, fe, Msg::Node(NodeMsg::Boot));
    eng.schedule(SimTime::ZERO, be, Msg::Node(NodeMsg::Boot));
    eng.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let fe_actor = eng.actor::<NodeActor>(fe).unwrap();
    let publisher = fe_actor
        .service::<GmetricPublisher>(ServiceSlot(0))
        .unwrap();
    // ~150 captures at 32 ms over 5 s, ~4 publish rounds at 1 Hz.
    assert!(publisher.client.views()[0].replies > 100);
    assert!(
        (4..=6).contains(&publisher.published),
        "{}",
        publisher.published
    );

    let be_actor = eng.actor::<NodeActor>(be).unwrap();
    let gmond = be_actor.service::<Gmond>(ServiceSlot(1)).unwrap();
    let sample = gmond
        .sample(NodeId(1), "fgmon_load")
        .expect("gmond should have the gmetric-injected metric");
    assert!(sample.value.is_finite());
}

#[test]
fn gmetad_federates_the_cluster_view() {
    use fgmon_ganglia::Gmetad;

    // 3 gmond nodes + 1 gmetad node polling the first gmond over TCP.
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let nodes: Vec<ActorId> = (0..4).map(|_| eng.reserve_actor()).collect();
    let mut fabric = Fabric::new(NetConfig::default(), nodes.clone());
    for n in 0..3 {
        fabric.join_mcast(GANGLIA_GROUP, NodeId(n as u16));
    }
    // gmetad (node 3) → gmond on node 0, service slot 0.
    let tcp = fabric.add_conn(NodeId(3), ServiceSlot(0), NodeId(0), ServiceSlot(0));
    eng.install(fabric_id, Box::new(fabric));

    for i in 0..3u16 {
        let mut node = NodeActor::new(OsCore::new(
            NodeId(i),
            OsConfig::default(),
            fabric_id,
            nodes[i as usize],
            DetRng::new(i as u64 + 11),
        ));
        let mut gmond = Gmond::new(SimDuration::from_millis(400));
        if i == 0 {
            gmond.tcp_conns.push(tcp);
        }
        node.add_service(Box::new(gmond));
        eng.install(nodes[i as usize], Box::new(node));
    }
    let mut meta_node = NodeActor::new(OsCore::new(
        NodeId(3),
        OsConfig::frontend(),
        fabric_id,
        nodes[3],
        DetRng::new(99),
    ));
    meta_node.add_service(Box::new(Gmetad::new(
        vec![tcp],
        SimDuration::from_millis(500),
    )));
    eng.install(nodes[3], Box::new(meta_node));

    for &n in &nodes {
        eng.schedule(SimTime::ZERO, n, Msg::Node(NodeMsg::Boot));
    }
    eng.run_until(SimTime(SimDuration::from_secs(4).nanos()));

    let meta = eng.actor::<NodeActor>(nodes[3]).unwrap();
    let gmetad = meta.service::<Gmetad>(ServiceSlot(0)).unwrap();
    assert!(gmetad.polls >= 6, "polls {}", gmetad.polls);
    assert!(
        gmetad.frames_received > 10,
        "frames {}",
        gmetad.frames_received
    );
    // Through a single gmond, gmetad learned about all three cluster
    // nodes (the gmond's multicast-federated view).
    for n in 0..3u16 {
        assert!(
            gmetad.value(NodeId(n), "cpu_util").is_some(),
            "gmetad missing node {n}"
        );
    }
    let agg = gmetad.aggregate("cpu_util");
    assert_eq!(agg.nodes, 3);
    assert!(agg.mean().is_finite());

    // The serving gmond did the TCP work.
    let g0 = eng.actor::<NodeActor>(nodes[0]).unwrap();
    let gmond = g0.service::<Gmond>(ServiceSlot(0)).unwrap();
    assert!(gmond.view_requests_served >= 6);
}
