//! The source-NIC rate limiter. Each node's `OsCore` holds its own token
//! bucket and consults it once per posted frame (once per doorbell
//! batch). A refused post still consumes its request id(s) and still
//! reaches the fabric as exactly one frame, marked `refused`, but leaves
//! no `rdma_pending` row behind: no completion will ever come for it.

use fgmon_os::{NodeActor, OsApi, OsCore, Service};
use fgmon_sim::{Actor, Ctx, DetRng, Engine, SimDuration, SimTime};
use fgmon_types::{
    ConnId, LoadSnapshot, McastGroup, Msg, NetMsg, NodeId, NodeMsg, OsConfig, Payload, QosPolicy,
    RegionId, ServiceSlot, TenancyConfig, TenantId, TokenBucket,
};

const WINDOW: SimDuration = SimDuration(1_000_000);

/// One posted frame as the fabric saw it.
#[derive(Clone, Debug, PartialEq)]
struct Frame {
    at: SimTime,
    kind: &'static str,
    req_ids: Vec<u64>,
    refused: bool,
}

/// Fabric stand-in: records every posted frame and delivers nothing.
#[derive(Default)]
struct RecordingFabric {
    frames: Vec<Frame>,
}

impl Actor<Msg> for RecordingFabric {
    fn handle(&mut self, now: SimTime, msg: Msg, _ctx: &mut Ctx<'_, Msg>) {
        let Msg::Net(msg) = msg else { return };
        let (kind, req_ids, refused) = match msg {
            NetMsg::SocketSend { refused, .. } => ("socket", vec![], refused),
            NetMsg::McastSend { refused, .. } => ("mcast", vec![], refused),
            NetMsg::RdmaRead {
                req_id, refused, ..
            } => ("read", vec![req_id.0], refused),
            NetMsg::RdmaReadBatch { reads, refused, .. } => {
                ("batch", reads.iter().map(|r| r.req_id.0).collect(), refused)
            }
            NetMsg::RdmaWrite {
                req_id, refused, ..
            } => ("write", vec![req_id.0], refused),
            NetMsg::RdmaCas {
                req_id, refused, ..
            } => ("cas", vec![req_id.0], refused),
            NetMsg::RdmaReadData { .. } | NetMsg::RdmaWriteAck { .. } => return,
        };
        self.frames.push(Frame {
            at: now,
            kind,
            req_ids,
            refused,
        });
    }
}

/// Runs `post` at boot and again after each delay in `again`.
struct Poster {
    post: fn(&mut OsApi<'_, '_>),
    again: Vec<SimDuration>,
}

impl Service for Poster {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        (self.post)(os);
        for &d in &self.again {
            os.set_timer(d, 0);
        }
    }
    fn on_timer(&mut self, _token: u64, os: &mut OsApi<'_, '_>) {
        (self.post)(os);
    }
}

type PendingRow = (u64, ServiceSlot, u64);

/// Boot one node behind `limiter`, run `poster` for 5 ms, and return
/// the frames the fabric received plus the node's pending-request rows.
fn run(limiter: Option<TokenBucket>, poster: Poster) -> (Vec<Frame>, Vec<PendingRow>) {
    let mut eng: Engine<Msg> = Engine::new();
    let fabric = eng.reserve_actor();
    let node = eng.reserve_actor();
    eng.install(fabric, Box::new(RecordingFabric::default()));
    let mut core = OsCore::new(NodeId(0), OsConfig::default(), fabric, node, DetRng::new(1));
    core.set_post_limiter(limiter);
    let mut actor = NodeActor::new(core);
    actor.add_service(Box::new(poster));
    eng.install(node, Box::new(actor));
    eng.schedule(SimTime::ZERO, node, Msg::Node(NodeMsg::Boot));
    eng.run_for(SimDuration::from_millis(5));
    let frames = eng
        .actor::<RecordingFabric>(fabric)
        .expect("fabric")
        .frames
        .clone();
    let pending = eng
        .actor::<NodeActor>(node)
        .expect("node")
        .core()
        .rdma_pending
        .clone();
    (frames, pending)
}

fn ten_reads(os: &mut OsApi<'_, '_>) {
    // An empty doorbell batch posts nothing and costs no token.
    os.rdma_read_batch(&[]);
    for token in 0..10 {
        os.rdma_read(NodeId(1), RegionId(0), token);
    }
}

#[test]
fn rate_limit_admits_at_most_the_bucket_per_window() {
    let poster = Poster {
        post: ten_reads,
        again: vec![WINDOW],
    };
    let (frames, pending) = run(Some(TokenBucket::new(4, WINDOW)), poster);
    // One frame per post, ids in posting order, whether refused or not.
    assert_eq!(frames.len(), 20);
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.kind, "read");
        assert_eq!(f.req_ids, vec![i as u64]);
        // The bucket caps each aligned window; a fresh window refills it.
        assert_eq!(f.refused, i % 10 >= 4, "frame {i}");
        let at = if i < 10 {
            SimTime::ZERO
        } else {
            SimTime(WINDOW.0)
        };
        assert_eq!(f.at, at, "frame {i}");
    }
    let ids: Vec<u64> = pending.iter().map(|r| r.0).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 10, 11, 12, 13]);
}

fn every_emitter(os: &mut OsApi<'_, '_>) {
    let dst = NodeId(1);
    os.send_direct(ConnId(0), Payload::Opaque { tag: 1 });
    os.mcast_direct(McastGroup(0), Payload::Opaque { tag: 2 });
    os.rdma_read(dst, RegionId(0), 10);
    os.rdma_read_batch(&[
        (dst, RegionId(0), 11),
        (dst, RegionId(1), 12),
        (dst, RegionId(2), 13),
    ]);
    os.rdma_cas(dst, RegionId(3), 0, 0, 1, 14);
    os.rdma_write(dst, RegionId(4), LoadSnapshot::zero(), 15);
    // The thread-side sends leave the NIC when their send burst ends.
    let tid = os.spawn_thread("sender");
    os.send(tid, ConnId(0), Payload::Opaque { tag: 3 });
    os.mcast_send(tid, McastGroup(0), Payload::Opaque { tag: 4 });
}

#[test]
fn refused_post_consumes_its_id_and_leaves_no_row() {
    let poster = Poster {
        post: every_emitter,
        again: vec![],
    };
    // An empty bucket refuses every post.
    let (frames, pending) = run(Some(TokenBucket::new(0, WINDOW)), poster);
    let kinds: Vec<&str> = frames.iter().map(|f| f.kind).collect();
    assert_eq!(
        kinds,
        vec!["socket", "mcast", "read", "batch", "cas", "write", "socket", "mcast"]
    );
    assert!(frames.iter().all(|f| f.refused), "{frames:?}");
    let ids: Vec<u64> = frames.iter().flat_map(|f| f.req_ids.clone()).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    assert!(pending.is_empty(), "refused posts left rows: {pending:?}");

    // Without a limiter the same posts go out unmarked with the same
    // ids, and every one-sided request waits for its completion.
    let poster = Poster {
        post: every_emitter,
        again: vec![],
    };
    let (open, pending) = run(None, poster);
    assert_eq!(open.len(), frames.len());
    assert!(open.iter().all(|f| !f.refused));
    let open_ids: Vec<u64> = open.iter().flat_map(|f| f.req_ids.clone()).collect();
    assert_eq!(open_ids, ids);
    assert_eq!(pending.len(), 6);
}

#[test]
fn priority_tenant_is_never_limited() {
    let tc = TenancyConfig::with_qos(QosPolicy::RateLimit {
        ops_per_window: 4,
        window: WINDOW,
    });
    let posts = |tenant: TenantId| {
        let poster = Poster {
            post: ten_reads,
            again: vec![],
        };
        let (frames, pending) = run(tc.post_limiter(tenant), poster);
        (frames.iter().filter(|f| f.refused).count(), pending.len())
    };
    assert_eq!(posts(tc.priority_tenant), (0, 10));
    assert_eq!(posts(TenantId(1)), (6, 4));
}
