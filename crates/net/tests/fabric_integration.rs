//! End-to-end fabric tests: routing, timing, multicast fan-out, and
//! bandwidth accounting through a real engine with real node actors.

use fgmon_net::Fabric;
use fgmon_os::{NodeActor, OsApi, OsCore, Service};
use fgmon_sim::{ActorId, DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{
    ConnId, McastGroup, Msg, NetConfig, NodeId, NodeMsg, OsConfig, Payload, ServiceSlot,
    SharedPayload,
};

/// Records every packet/mcast arrival with its timestamp.
#[derive(Default)]
struct Sniffer {
    listen_conns: Vec<ConnId>,
    groups: Vec<McastGroup>,
    packets: Vec<(SimTime, ConnId, u64)>,
    mcasts: Vec<(SimTime, McastGroup)>,
}

impl Service for Sniffer {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for &c in &self.listen_conns {
            os.listen_direct(c);
        }
        for &g in &self.groups {
            os.subscribe_mcast(g);
        }
    }
    fn on_packet(
        &mut self,
        _tid: Option<fgmon_types::ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let tag = match payload {
            Payload::Opaque { tag } => tag,
            _ => u64::MAX,
        };
        self.packets.push((os.now(), conn, tag));
    }
    fn on_mcast(&mut self, group: McastGroup, _payload: SharedPayload, os: &mut OsApi<'_, '_>) {
        self.mcasts.push((os.now(), group));
    }
}

/// Sends one frame per timer tick (direct, no CPU).
struct Blaster {
    conn: Option<ConnId>,
    group: Option<McastGroup>,
    count: u64,
    sent: u64,
}

impl Service for Blaster {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.set_timer(SimDuration::from_micros(100), 1);
    }
    fn on_timer(&mut self, _token: u64, os: &mut OsApi<'_, '_>) {
        if self.sent >= self.count {
            return;
        }
        self.sent += 1;
        if let Some(conn) = self.conn {
            os.send_direct(conn, Payload::Opaque { tag: self.sent });
        }
        if let Some(group) = self.group {
            os.mcast_direct(group, Payload::Opaque { tag: self.sent });
        }
        os.set_timer(SimDuration::from_micros(100), 1);
    }
}

struct World {
    eng: Engine<Msg>,
    fabric: ActorId,
    nodes: Vec<ActorId>,
}

fn world(n_nodes: usize, wire: impl FnOnce(&mut Fabric)) -> World {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric_id = eng.reserve_actor();
    let nodes: Vec<ActorId> = (0..n_nodes).map(|_| eng.reserve_actor()).collect();
    let mut fabric = Fabric::new(NetConfig::default(), nodes.clone());
    wire(&mut fabric);
    eng.install(fabric_id, Box::new(fabric));
    for (i, &actor) in nodes.iter().enumerate() {
        eng.install(
            actor,
            Box::new(NodeActor::new(OsCore::new(
                NodeId(i as u16),
                OsConfig::frontend(),
                fabric_id,
                actor,
                DetRng::new(i as u64 + 1),
            ))),
        );
    }
    World {
        eng,
        fabric: fabric_id,
        nodes,
    }
}

fn boot(w: &mut World) {
    for &n in &w.nodes {
        w.eng.schedule(SimTime::ZERO, n, Msg::Node(NodeMsg::Boot));
    }
}

#[test]
fn socket_frames_arrive_in_order_with_wire_latency() {
    let mut conn = ConnId(0);
    let mut w = world(2, |f| {
        conn = f.add_conn(NodeId(0), ServiceSlot(0), NodeId(1), ServiceSlot(0));
    });
    w.eng
        .actor_mut::<NodeActor>(w.nodes[0])
        .unwrap()
        .add_service(Box::new(Blaster {
            conn: Some(conn),
            group: None,
            count: 50,
            sent: 0,
        }));
    w.eng
        .actor_mut::<NodeActor>(w.nodes[1])
        .unwrap()
        .add_service(Box::new(Sniffer {
            listen_conns: vec![conn],
            ..Default::default()
        }));
    boot(&mut w);
    w.eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));

    let rx = w.eng.actor::<NodeActor>(w.nodes[1]).unwrap();
    let sniffer = rx.service::<Sniffer>(ServiceSlot(0)).unwrap();
    assert_eq!(sniffer.packets.len(), 50);
    // FIFO: tags strictly increasing.
    let tags: Vec<u64> = sniffer.packets.iter().map(|p| p.2).collect();
    assert!(
        tags.windows(2).all(|w| w[0] < w[1]),
        "out of order: {tags:?}"
    );
    // First frame sent at t=100µs: arrival = send + wire (4µs) + irq
    // service (hw 4µs + softirq 22µs). All in under a millisecond.
    let first = sniffer.packets[0].0;
    assert!(first >= SimTime(104_000), "too early: {first:?}");
    assert!(first < SimTime(250_000), "too late: {first:?}");

    let fabric = w.eng.actor::<Fabric>(w.fabric).unwrap();
    assert_eq!(fabric.stats.socket_frames, 50);
    assert!(fabric.stats.socket_bytes > 0);
    assert_eq!(fabric.stats.dropped, 0);
}

#[test]
fn unknown_conn_is_dropped_and_counted() {
    let mut w = world(2, |_| {});
    w.eng
        .actor_mut::<NodeActor>(w.nodes[0])
        .unwrap()
        .add_service(Box::new(Blaster {
            conn: Some(ConnId(99)),
            group: None,
            count: 3,
            sent: 0,
        }));
    boot(&mut w);
    w.eng
        .run_until(SimTime(SimDuration::from_millis(10).nanos()));
    let fabric = w.eng.actor::<Fabric>(w.fabric).unwrap();
    assert_eq!(fabric.stats.dropped, 3);
    assert_eq!(fabric.stats.socket_frames, 0);
}

#[test]
fn multicast_reaches_all_subscribers_except_sender() {
    let group = McastGroup(9);
    let mut w = world(4, |f| {
        for n in 0..4 {
            f.join_mcast(group, NodeId(n));
        }
    });
    w.eng
        .actor_mut::<NodeActor>(w.nodes[0])
        .unwrap()
        .add_service(Box::new(Blaster {
            conn: None,
            group: Some(group),
            count: 10,
            sent: 0,
        }));
    // Sender also subscribes (must NOT hear itself).
    w.eng
        .actor_mut::<NodeActor>(w.nodes[0])
        .unwrap()
        .add_service(Box::new(Sniffer {
            groups: vec![group],
            ..Default::default()
        }));
    for &n in &w.nodes[1..] {
        w.eng
            .actor_mut::<NodeActor>(n)
            .unwrap()
            .add_service(Box::new(Sniffer {
                groups: vec![group],
                ..Default::default()
            }));
    }
    boot(&mut w);
    w.eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));

    for (i, &n) in w.nodes.iter().enumerate() {
        let node = w.eng.actor::<NodeActor>(n).unwrap();
        // The sender hosts the sniffer at slot 1, receivers at slot 0.
        let slot = if i == 0 {
            ServiceSlot(1)
        } else {
            ServiceSlot(0)
        };
        let sniffer = node.service::<Sniffer>(slot).unwrap();
        if i == 0 {
            assert_eq!(sniffer.mcasts.len(), 0, "sender heard itself");
        } else {
            assert_eq!(sniffer.mcasts.len(), 10, "node {i}");
        }
    }
    let fabric = w.eng.actor::<Fabric>(w.fabric).unwrap();
    assert_eq!(fabric.stats.mcast_frames, 30); // 10 sends × 3 receivers
}

#[test]
fn large_frames_pay_serialization_latency() {
    struct BigSender {
        conn: ConnId,
    }
    impl Service for BigSender {
        fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
            // 256 KiB response vs a 256-byte one.
            os.send_direct(
                self.conn,
                Payload::HttpResponse {
                    req_id: 1,
                    bytes: 256 * 1024,
                },
            );
            os.send_direct(self.conn, Payload::Opaque { tag: 2 });
        }
    }
    let mut conn = ConnId(0);
    let mut w = world(2, |f| {
        conn = f.add_conn(NodeId(0), ServiceSlot(0), NodeId(1), ServiceSlot(0));
    });
    w.eng
        .actor_mut::<NodeActor>(w.nodes[0])
        .unwrap()
        .add_service(Box::new(BigSender { conn }));
    w.eng
        .actor_mut::<NodeActor>(w.nodes[1])
        .unwrap()
        .add_service(Box::new(Sniffer {
            listen_conns: vec![conn],
            ..Default::default()
        }));
    boot(&mut w);
    w.eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));
    let rx = w.eng.actor::<NodeActor>(w.nodes[1]).unwrap();
    let sniffer = rx.service::<Sniffer>(ServiceSlot(0)).unwrap();
    assert_eq!(sniffer.packets.len(), 2);
    // The small frame, sent second, overtakes nothing at the IRQ level but
    // the big frame's arrival is dominated by ~256µs of serialization.
    let big_arrival = sniffer.packets.iter().find(|p| p.2 == u64::MAX).unwrap().0;
    assert!(
        big_arrival >= SimTime(250_000),
        "big frame too fast: {big_arrival:?}"
    );
}

#[test]
fn rdma_read_roundtrip_matches_config_rtt() {
    struct Reader {
        done_at: Option<SimTime>,
    }
    impl Service for Reader {
        fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
            os.rdma_read(NodeId(1), fgmon_types::RegionId(0), 1);
        }
        fn on_rdma_complete(
            &mut self,
            _token: u64,
            _result: fgmon_types::RdmaResult,
            os: &mut OsApi<'_, '_>,
        ) {
            self.done_at = Some(os.now());
        }
    }
    struct Exporter;
    impl Service for Exporter {
        fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
            os.register_kernel_region(false);
        }
    }
    let mut w = world(2, |_| {});
    w.eng
        .actor_mut::<NodeActor>(w.nodes[0])
        .unwrap()
        .add_service(Box::new(Reader { done_at: None }));
    w.eng
        .actor_mut::<NodeActor>(w.nodes[1])
        .unwrap()
        .add_service(Box::new(Exporter));
    boot(&mut w);
    w.eng
        .run_until(SimTime(SimDuration::from_millis(5).nanos()));
    let reader = w.eng.actor::<NodeActor>(w.nodes[0]).unwrap();
    let svc = reader.service::<Reader>(ServiceSlot(0)).unwrap();
    let done = svc.done_at.expect("read completed");
    let expected = NetConfig::default().rdma_read_rtt();
    assert_eq!(
        done,
        SimTime::ZERO + expected,
        "rtt should be exactly {expected}"
    );
    let fabric = w.eng.actor::<Fabric>(w.fabric).unwrap();
    assert_eq!(fabric.stats.rdma_reads, 1);
}
