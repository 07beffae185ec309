//! End-to-end tests of the node OS: scheduling, contention, interrupts,
//! the socket receive path, and the zero-CPU RDMA target engine.

use fgmon_os::{NodeActor, OsApi, OsCore, Service};
use fgmon_sim::{Actor, ActorId, Ctx, DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{
    ConnId, Msg, NetMsg, NodeId, NodeMsg, OsConfig, Payload, RdmaResult, RegionData, RegionId,
    ServiceSlot, ThreadId,
};

/// Minimal zero-latency fabric for tests: routes messages between exactly
/// two nodes. Connection 0 goes node0→node1 service slot 0 and back.
struct TestFabric {
    nodes: Vec<ActorId>,
}

impl Actor<Msg> for TestFabric {
    fn handle(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Net(msg) = msg else { return };
        match msg {
            NetMsg::SocketSend {
                src,
                conn,
                size,
                payload,
                ..
            } => {
                let dst = if src == NodeId(0) { 1 } else { 0 };
                ctx.send_now(
                    self.nodes[dst],
                    Msg::Node(NodeMsg::PacketArrive {
                        conn,
                        dst_service: ServiceSlot(0),
                        size,
                        payload,
                    }),
                );
            }
            NetMsg::RdmaRead {
                src,
                dst,
                region,
                req_id,
                ..
            } => {
                ctx.send_now(
                    self.nodes[dst.index()],
                    Msg::Node(NodeMsg::RdmaReadArrive {
                        initiator: src,
                        region,
                        req_id,
                        posted: (_now, ctx.event_seq),
                    }),
                );
            }
            NetMsg::RdmaReadBatch { src, reads, .. } => {
                for r in reads {
                    ctx.send_now(
                        self.nodes[r.dst.index()],
                        Msg::Node(NodeMsg::RdmaReadArrive {
                            initiator: src,
                            region: r.region,
                            req_id: r.req_id,
                            posted: (_now, ctx.event_seq),
                        }),
                    );
                }
            }
            NetMsg::RdmaWrite {
                src,
                dst,
                region,
                req_id,
                data,
                ..
            } => {
                ctx.send_now(
                    self.nodes[dst.index()],
                    Msg::Node(NodeMsg::RdmaWriteArrive {
                        initiator: src,
                        region,
                        req_id,
                        data,
                    }),
                );
            }
            NetMsg::RdmaReadData {
                initiator,
                req_id,
                result,
                ..
            }
            | NetMsg::RdmaWriteAck {
                initiator,
                req_id,
                result,
                ..
            } => {
                ctx.send_now(
                    self.nodes[initiator.index()],
                    Msg::Node(NodeMsg::RdmaCompletion { req_id, result }),
                );
            }
            // The scheduler tests never post atomics; route CAS verbs
            // nowhere rather than modeling them in the stub fabric.
            NetMsg::RdmaCas { .. } => {}
            NetMsg::McastSend { .. } => {}
        }
    }
}

/// Build a 2-node + fabric world; returns (engine, node actor ids).
fn world(cfg0: OsConfig, cfg1: OsConfig) -> (Engine<Msg>, [ActorId; 2]) {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric = eng.reserve_actor();
    let n0 = eng.reserve_actor();
    let n1 = eng.reserve_actor();
    eng.install(
        fabric,
        Box::new(TestFabric {
            nodes: vec![n0, n1],
        }),
    );
    eng.install(
        n0,
        Box::new(NodeActor::new(OsCore::new(
            NodeId(0),
            cfg0,
            fabric,
            n0,
            DetRng::new(1),
        ))),
    );
    eng.install(
        n1,
        Box::new(NodeActor::new(OsCore::new(
            NodeId(1),
            cfg1,
            fabric,
            n1,
            DetRng::new(2),
        ))),
    );
    (eng, [n0, n1])
}

fn boot(eng: &mut Engine<Msg>, nodes: &[ActorId]) {
    for &n in nodes {
        eng.schedule(SimTime::ZERO, n, Msg::Node(NodeMsg::Boot));
    }
}

// --- services used by the tests --------------------------------------------

/// Runs `count` CPU bursts of `dur` back to back and records finish times.
#[derive(Default)]
struct BurstRunner {
    dur: SimDuration,
    count: u32,
    finishes: Vec<SimTime>,
    tid: Option<ThreadId>,
}

impl Service for BurstRunner {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread();
        self.tid = Some(tid);
        os.burst(tid, self.dur, 1);
    }
    fn on_burst_done(&mut self, tid: ThreadId, _token: u64, os: &mut OsApi<'_, '_>) {
        self.finishes.push(os.now());
        if (self.finishes.len() as u32) < self.count {
            os.burst(tid, self.dur, 1);
        }
    }
}

/// N independent CPU-hog threads, each looping long bursts forever.
struct Hogs {
    n: u32,
}

impl Service for Hogs {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for _ in 0..self.n {
            let tid = os.spawn_thread();
            os.burst(tid, SimDuration::from_millis(50), 0xB0);
        }
    }
    fn on_burst_done(&mut self, tid: ThreadId, _token: u64, os: &mut OsApi<'_, '_>) {
        os.burst(tid, SimDuration::from_millis(50), 0xB0);
    }
}

/// Sleeps once and records when it woke.
#[derive(Default)]
struct Sleeper {
    dur: SimDuration,
    woke_at: Option<SimTime>,
}

impl Service for Sleeper {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread();
        os.sleep(tid, self.dur, 9);
    }
    fn on_wake(&mut self, _tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        assert_eq!(token, 9);
        self.woke_at = Some(os.now());
    }
}

/// Echo server: a thread listens on conn 0 and replies to each request.
#[derive(Default)]
struct EchoServer {
    served: u32,
}

impl Service for EchoServer {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread();
        os.listen_thread(ConnId(0), tid);
    }
    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        _payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        self.served += 1;
        let tid = tid.expect("threaded listener");
        os.send(tid, conn, Payload::Opaque { tag: 99 });
    }
}

/// Client: sends a request at boot (direct), records reply arrival time.
#[derive(Default)]
struct EchoClient {
    sent_at: Option<SimTime>,
    reply_at: Option<SimTime>,
}

impl Service for EchoClient {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.listen_direct(ConnId(0));
        self.sent_at = Some(os.now());
        os.send_direct(ConnId(0), Payload::Opaque { tag: 1 });
    }
    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        _conn: ConnId,
        _size: u32,
        _payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        assert!(tid.is_none(), "direct listener must not have a thread");
        self.reply_at = Some(os.now());
    }
}

/// RDMA reader: posts a read of a region on node 1 and stores the result.
#[derive(Default)]
struct RdmaReader {
    region: u32,
    result: Option<RdmaResult>,
}

impl Service for RdmaReader {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.rdma_read(NodeId(1), RegionId(self.region), 5);
    }
    fn on_rdma_complete(&mut self, token: u64, result: RdmaResult, _os: &mut OsApi<'_, '_>) {
        assert_eq!(token, 5);
        self.result = Some(result);
    }
}

/// Registers a kernel region (and optionally spawns hogs) on the target.
struct KernelExporter {
    detail: bool,
    hogs: u32,
}

impl Service for KernelExporter {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let _region = os.register_kernel_region(self.detail);
        for _ in 0..self.hogs {
            let tid = os.spawn_thread();
            os.burst(tid, SimDuration::from_secs(10), 1);
        }
    }
    fn on_burst_done(&mut self, tid: ThreadId, _token: u64, os: &mut OsApi<'_, '_>) {
        os.burst(tid, SimDuration::from_secs(10), 1);
    }
}

// --- tests -------------------------------------------------------------------

#[test]
fn single_burst_finishes_after_duration_plus_ctx_switch() {
    let (mut eng, [n0, _]) = world(OsConfig::default(), OsConfig::default());
    let dur = SimDuration::from_millis(3);
    {
        let node = eng.actor_mut::<NodeActor>(n0).unwrap();
        node.add_service(Box::new(BurstRunner {
            dur,
            count: 1,
            ..Default::default()
        }));
    }
    boot(&mut eng, &[n0]);
    eng.run_until(SimTime::MAX);
    let node = eng.actor::<NodeActor>(n0).unwrap();
    let svc = node.service::<BurstRunner>(ServiceSlot(0)).unwrap();
    let finish = svc.finishes[0];
    let expected = dur + OsConfig::default().costs.ctx_switch;
    assert_eq!(finish, SimTime::ZERO + expected);
}

#[test]
fn two_cpus_run_two_threads_in_parallel() {
    let (mut eng, [n0, _]) = world(OsConfig::default(), OsConfig::default());
    {
        let node = eng.actor_mut::<NodeActor>(n0).unwrap();
        node.add_service(Box::new(BurstRunner {
            dur: SimDuration::from_millis(5),
            count: 1,
            ..Default::default()
        }));
        node.add_service(Box::new(BurstRunner {
            dur: SimDuration::from_millis(5),
            count: 1,
            ..Default::default()
        }));
    }
    boot(&mut eng, &[n0]);
    eng.run_until(SimTime::MAX);
    let node = eng.actor::<NodeActor>(n0).unwrap();
    for slot in 0..2 {
        let svc = node.service::<BurstRunner>(ServiceSlot(slot)).unwrap();
        // Both finish at ~5ms: true parallelism on 2 CPUs.
        assert!(
            svc.finishes[0] < SimTime(6_000_000),
            "slot {slot}: {:?}",
            svc.finishes[0]
        );
    }
}

#[test]
fn contention_stretches_completion_linearly() {
    // 1 runner + 7 hog threads on a 2-CPU node: the runner's 10ms of CPU
    // should take roughly (8 threads / 2 cpus) = 4x longer than alone.
    let (mut eng, [n0, _]) = world(OsConfig::default(), OsConfig::default());
    {
        let node = eng.actor_mut::<NodeActor>(n0).unwrap();
        node.add_service(Box::new(BurstRunner {
            dur: SimDuration::from_millis(10),
            count: 1,
            ..Default::default()
        }));
        node.add_service(Box::new(Hogs { n: 7 }));
    }
    boot(&mut eng, &[n0]);
    eng.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    let node = eng.actor::<NodeActor>(n0).unwrap();
    let svc = node.service::<BurstRunner>(ServiceSlot(0)).unwrap();
    let finish = svc.finishes[0].as_millis_f64();
    assert!(
        (25.0..=70.0).contains(&finish),
        "expected ~40ms under 4x contention, got {finish}ms"
    );
}

#[test]
fn sleep_rounds_up_to_timer_tick() {
    let (mut eng, [n0, _]) = world(OsConfig::default(), OsConfig::default());
    {
        let node = eng.actor_mut::<NodeActor>(n0).unwrap();
        node.add_service(Box::new(Sleeper {
            dur: SimDuration::from_millis(13),
            ..Default::default()
        }));
    }
    boot(&mut eng, &[n0]);
    eng.run_until(SimTime::MAX);
    let node = eng.actor::<NodeActor>(n0).unwrap();
    let svc = node.service::<Sleeper>(ServiceSlot(0)).unwrap();
    // 13ms sleep on a 10ms tick wakes at 20ms.
    assert_eq!(svc.woke_at, Some(SimTime(20_000_000)));
}

#[test]
fn socket_echo_roundtrip_unloaded() {
    let (mut eng, [n0, n1]) = world(OsConfig::frontend(), OsConfig::default());
    {
        eng.actor_mut::<NodeActor>(n0)
            .unwrap()
            .add_service(Box::new(EchoClient::default()));
        eng.actor_mut::<NodeActor>(n1)
            .unwrap()
            .add_service(Box::new(EchoServer::default()));
    }
    boot(&mut eng, &[n0, n1]);
    eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));
    let server = eng.actor::<NodeActor>(n1).unwrap();
    assert_eq!(
        server.service::<EchoServer>(ServiceSlot(0)).unwrap().served,
        1
    );
    let client = eng.actor::<NodeActor>(n0).unwrap();
    let svc = client.service::<EchoClient>(ServiceSlot(0)).unwrap();
    let rtt = svc.reply_at.expect("no reply").since(svc.sent_at.unwrap());
    // Unloaded: irq+softirq+recv+ctx+send on server, irq+softirq on client.
    // Must be well under a millisecond but non-zero.
    assert!(rtt > SimDuration::from_micros(30), "rtt {rtt}");
    assert!(rtt < SimDuration::from_millis(1), "rtt {rtt}");
}

#[test]
fn socket_echo_under_load_waits_for_scheduling() {
    let (mut eng, [n0, n1]) = world(OsConfig::frontend(), OsConfig::default());
    {
        eng.actor_mut::<NodeActor>(n0)
            .unwrap()
            .add_service(Box::new(EchoClient::default()));
        let server = eng.actor_mut::<NodeActor>(n1).unwrap();
        server.add_service(Box::new(EchoServer::default()));
        server.add_service(Box::new(Hogs { n: 16 }));
    }
    boot(&mut eng, &[n0, n1]);
    eng.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let client = eng.actor::<NodeActor>(n0).unwrap();
    let svc = client.service::<EchoClient>(ServiceSlot(0)).unwrap();
    let rtt = svc.reply_at.expect("no reply").since(svc.sent_at.unwrap());
    // With 16 hogs on 2 CPUs and 10ms quanta the echo thread waits tens of
    // milliseconds for the CPU: the paper's Fig. 3 mechanism.
    assert!(rtt > SimDuration::from_millis(20), "rtt {rtt}");
}

#[test]
fn rdma_read_is_fast_and_unaffected_by_load() {
    for hogs in [0u32, 16] {
        let (mut eng, [n0, n1]) = world(OsConfig::frontend(), OsConfig::default());
        {
            eng.actor_mut::<NodeActor>(n0)
                .unwrap()
                .add_service(Box::new(RdmaReader::default()));
            eng.actor_mut::<NodeActor>(n1)
                .unwrap()
                .add_service(Box::new(KernelExporter { detail: true, hogs }));
        }
        boot(&mut eng, &[n0, n1]);
        // Run just 10 virtual ms: the read must complete almost instantly.
        eng.run_until(SimTime(SimDuration::from_millis(10).nanos()));
        let reader = eng.actor::<NodeActor>(n0).unwrap();
        let svc = reader.service::<RdmaReader>(ServiceSlot(0)).unwrap();
        match svc.result.as_ref().expect("read did not complete") {
            RdmaResult::ReadOk {
                data: RegionData::Snapshot(snap),
                fence,
            } => {
                if hogs > 0 {
                    // The kernel view is fresh: the hogs are visible.
                    assert!(snap.run_queue >= hogs.saturating_sub(2), "{snap:?}");
                    assert_eq!(snap.nthreads, hogs);
                }
                // First boot: records carry generation 1.
                assert_eq!(fence.generation, 1);
            }
            other => panic!("unexpected result {other:?}"),
        }
    }
}

#[test]
fn rdma_write_to_readonly_kernel_region_is_denied() {
    struct Writer {
        result: Option<RdmaResult>,
    }
    impl Service for Writer {
        fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
            os.rdma_write(NodeId(1), RegionId(0), fgmon_types::LoadSnapshot::zero(), 3);
        }
        fn on_rdma_complete(&mut self, _token: u64, result: RdmaResult, _os: &mut OsApi<'_, '_>) {
            self.result = Some(result);
        }
    }
    let (mut eng, [n0, n1]) = world(OsConfig::frontend(), OsConfig::default());
    {
        eng.actor_mut::<NodeActor>(n0)
            .unwrap()
            .add_service(Box::new(Writer { result: None }));
        eng.actor_mut::<NodeActor>(n1)
            .unwrap()
            .add_service(Box::new(KernelExporter {
                detail: false,
                hogs: 0,
            }));
    }
    boot(&mut eng, &[n0, n1]);
    eng.run_until(SimTime(SimDuration::from_millis(10).nanos()));
    let writer = eng.actor::<NodeActor>(n0).unwrap();
    let svc = writer.service::<Writer>(ServiceSlot(0)).unwrap();
    assert!(matches!(svc.result, Some(RdmaResult::AccessDenied)));
}

#[test]
fn rdma_read_of_unknown_region_denied() {
    let (mut eng, [n0, n1]) = world(OsConfig::frontend(), OsConfig::default());
    {
        eng.actor_mut::<NodeActor>(n0)
            .unwrap()
            .add_service(Box::new(RdmaReader {
                region: 42,
                ..Default::default()
            }));
        // Target registers nothing.
        let _ = n1;
    }
    boot(&mut eng, &[n0, n1]);
    eng.run_until(SimTime(SimDuration::from_millis(10).nanos()));
    let reader = eng.actor::<NodeActor>(n0).unwrap();
    let svc = reader.service::<RdmaReader>(ServiceSlot(0)).unwrap();
    assert!(matches!(svc.result, Some(RdmaResult::AccessDenied)));
}

#[test]
fn ground_truth_tick_records_series() {
    let (mut eng, [n0, _]) = world(OsConfig::default(), OsConfig::default());
    {
        eng.actor_mut::<NodeActor>(n0)
            .unwrap()
            .add_service(Box::new(Hogs { n: 3 }));
    }
    boot(&mut eng, &[n0]);
    eng.schedule(
        SimTime::ZERO,
        n0,
        Msg::Node(NodeMsg::GroundTruthTick {
            period_nanos: SimDuration::from_millis(5).nanos(),
        }),
    );
    eng.run_until(SimTime(SimDuration::from_millis(600).nanos()));
    let series = eng.recorder().get_series("gt/node0/nthreads").unwrap();
    assert!(series.len() >= 100, "got {} points", series.len());
    assert_eq!(series.points()[5].1, 3.0);
    let util = eng.recorder().get_series("gt/node0/cpu_util").unwrap();
    // Three hogs on two CPUs: utilization should approach 1 once the
    // 100 ms EWMA window has warmed up.
    assert!(util.points().last().unwrap().1 > 0.9);
}

#[test]
fn cpu_utilization_reflects_hog_count() {
    // 1 hog on 2 CPUs ≈ 50% busy.
    let (mut eng, [n0, _]) = world(OsConfig::default(), OsConfig::default());
    {
        eng.actor_mut::<NodeActor>(n0)
            .unwrap()
            .add_service(Box::new(Hogs { n: 1 }));
    }
    boot(&mut eng, &[n0]);
    eng.run_until(SimTime(SimDuration::from_millis(500).nanos()));
    let node = eng.actor_mut::<NodeActor>(n0).unwrap();
    let snap = node.core_mut().snapshot(SimTime(500_000_000), false);
    assert!(
        (snap.cpu_util - 0.5).abs() < 0.1,
        "util {} for one hog on two cpus",
        snap.cpu_util
    );
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut eng, [n0, n1]) = world(OsConfig::frontend(), OsConfig::default());
        {
            eng.actor_mut::<NodeActor>(n0)
                .unwrap()
                .add_service(Box::new(EchoClient::default()));
            let server = eng.actor_mut::<NodeActor>(n1).unwrap();
            server.add_service(Box::new(EchoServer::default()));
            server.add_service(Box::new(Hogs { n: 8 }));
        }
        boot(&mut eng, &[n0, n1]);
        eng.run_until(SimTime(SimDuration::from_secs(1).nanos()));
        let client = eng.actor::<NodeActor>(n0).unwrap();
        let svc = client.service::<EchoClient>(ServiceSlot(0)).unwrap();
        (svc.reply_at, eng.events_processed())
    };
    assert_eq!(run(), run());
}
