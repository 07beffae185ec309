//! Outside-in layer profile. Actors are swapped out of the engine with
//! `Engine::take_actor`, wrapped in [`Timed`], and re-installed; each call
//! into `Actor::handle` is then timed and attributed to its message kind
//! and, for service timers and packets, to the service that receives it.
//! Nothing inside the simulator changes, so a traced run must reproduce
//! the untraced run's fingerprint exactly.

use std::any::Any;
use std::time::Instant;

use fgmon_balancer::Dispatcher;
use fgmon_cluster::Cluster;
use fgmon_core::{
    McastPushBackend, MonitorFrontendService, RdmaAsyncBackend, RdmaSyncBackend, SocketBackend,
};
use fgmon_os::NodeActor;
use fgmon_sim::{Actor, ActorId, Ctx, SimTime};
use fgmon_types::{Msg, NetMsg, NodeId, NodeMsg, ServiceSlot};
use fgmon_workload::{
    CommLoad, CommSink, ComputeHogs, LockClient, LockHost, RdmaFlood, RubisClient, WorkerPoolServer,
};

pub const NODE_KINDS: [&str; 13] = [
    "Boot",
    "Restart",
    "QuantumEnd",
    "IrqBatchDone",
    "ThreadWake",
    "ServiceTimer",
    "PacketArrive",
    "RdmaReadArrive",
    "RdmaWriteArrive",
    "RdmaCasArrive",
    "RdmaCompletion",
    "McastDeliver",
    "GroundTruthTick",
];

pub const NET_KINDS: [&str; 8] = [
    "SocketSend",
    "RdmaRead",
    "RdmaReadBatch",
    "RdmaWrite",
    "RdmaReadData",
    "RdmaCas",
    "RdmaWriteAck",
    "McastSend",
];

/// Service labels for attributing `ServiceTimer` and `PacketArrive`.
pub const SERVICES: [&str; 11] = [
    "dispatcher",
    "mon_frontend",
    "mon_backend",
    "web",
    "rubis_client",
    "lock_client",
    "lock_host",
    "flood",
    "chatter",
    "hogs",
    "other",
];

fn node_kind(m: &NodeMsg) -> usize {
    match m {
        NodeMsg::Boot => 0,
        NodeMsg::Restart => 1,
        NodeMsg::QuantumEnd { .. } => 2,
        NodeMsg::IrqBatchDone { .. } => 3,
        NodeMsg::ThreadWake { .. } => 4,
        NodeMsg::ServiceTimer { .. } => 5,
        NodeMsg::PacketArrive { .. } => 6,
        NodeMsg::RdmaReadArrive { .. } => 7,
        NodeMsg::RdmaWriteArrive { .. } => 8,
        NodeMsg::RdmaCasArrive { .. } => 9,
        NodeMsg::RdmaCompletion { .. } => 10,
        NodeMsg::McastDeliver { .. } => 11,
        NodeMsg::GroundTruthTick { .. } => 12,
    }
}

fn net_kind(m: &NetMsg) -> usize {
    match m {
        NetMsg::SocketSend { .. } => 0,
        NetMsg::RdmaRead { .. } => 1,
        NetMsg::RdmaReadBatch { .. } => 2,
        NetMsg::RdmaWrite { .. } => 3,
        NetMsg::RdmaReadData { .. } => 4,
        NetMsg::RdmaCas { .. } => 5,
        NetMsg::RdmaWriteAck { .. } => 6,
        NetMsg::McastSend { .. } => 7,
    }
}

/// Events handled and host nanoseconds spent in `handle`.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub events: u64,
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.events += 1;
        self.ns += ns;
    }

    fn absorb(&mut self, o: &Tally) {
        self.events += o.events;
        self.ns += o.ns;
    }
}

/// Wrapped-handle time, by message kind and by receiving service.
#[derive(Clone, Default)]
pub struct Profile {
    pub node: [Tally; NODE_KINDS.len()],
    pub net: [Tally; NET_KINDS.len()],
    pub svc: [Tally; SERVICES.len()],
}

impl Profile {
    pub fn absorb(&mut self, o: &Profile) {
        let pairs = self.node.iter_mut().zip(&o.node);
        let pairs = pairs.chain(self.net.iter_mut().zip(&o.net));
        for (a, b) in pairs.chain(self.svc.iter_mut().zip(&o.svc)) {
            a.absorb(b);
        }
    }

    /// All wrapped `handle` time. Service tallies re-slice two node kinds,
    /// so they are not added again.
    pub fn handle_ns(&self) -> u64 {
        self.node.iter().chain(&self.net).map(|t| t.ns).sum()
    }

    pub fn handled(&self) -> u64 {
        self.node.iter().chain(&self.net).map(|t| t.events).sum()
    }
}

/// An actor whose every `handle` call is timed.
struct Timed {
    inner: Box<dyn Actor<Msg>>,
    /// Service label index per slot (empty for the fabric).
    slot_service: Vec<usize>,
    profile: Profile,
}

impl Timed {
    fn service_of(&self, slot: ServiceSlot) -> usize {
        self.slot_service
            .get(slot.index())
            .copied()
            .unwrap_or(SERVICES.len() - 1)
    }
}

impl Actor<Msg> for Timed {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        // (is a node message, kind index, receiving service)
        let (is_node, kind, svc) = match &msg {
            Msg::Node(m) => {
                let svc = match m {
                    NodeMsg::ServiceTimer { service, .. } => Some(self.service_of(*service)),
                    NodeMsg::PacketArrive { dst_service, .. } => {
                        Some(self.service_of(*dst_service))
                    }
                    _ => None,
                };
                (true, node_kind(m), svc)
            }
            Msg::Net(m) => (false, net_kind(m), None),
        };
        let start = Instant::now();
        self.inner.handle(now, msg, ctx);
        let ns = start.elapsed().as_nanos() as u64;
        if is_node {
            self.profile.node[kind].add(ns);
        } else {
            self.profile.net[kind].add(ns);
        }
        if let Some(s) = svc {
            self.profile.svc[s].add(ns);
        }
    }
}

fn is<T: fgmon_os::Service>(node: &NodeActor, slot: ServiceSlot) -> bool {
    node.service::<T>(slot).is_some()
}

/// Label index of the service in `slot`, by downcasting to every service
/// type the benchmark's worlds host.
fn service_label(node: &NodeActor, slot: ServiceSlot) -> usize {
    let label = if is::<Dispatcher>(node, slot) {
        "dispatcher"
    } else if is::<MonitorFrontendService>(node, slot) {
        "mon_frontend"
    } else if is::<SocketBackend>(node, slot)
        || is::<RdmaSyncBackend>(node, slot)
        || is::<RdmaAsyncBackend>(node, slot)
        || is::<McastPushBackend>(node, slot)
    {
        "mon_backend"
    } else if is::<WorkerPoolServer>(node, slot) {
        "web"
    } else if is::<RubisClient>(node, slot) {
        "rubis_client"
    } else if is::<LockClient>(node, slot) {
        "lock_client"
    } else if is::<LockHost>(node, slot) {
        "lock_host"
    } else if is::<RdmaFlood>(node, slot) {
        "flood"
    } else if is::<CommLoad>(node, slot) || is::<CommSink>(node, slot) {
        "chatter"
    } else if is::<ComputeHogs>(node, slot) {
        "hogs"
    } else {
        "other"
    };
    SERVICES
        .iter()
        .position(|&s| s == label)
        .expect("label is in SERVICES")
}

/// Which actors to wrap. `run_parallel` downcasts the fabric to split it
/// into per-shard replicas, so sharded runs can only wrap the nodes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    AllActors,
    NodesOnly,
}

fn wrap_actor(cluster: &mut Cluster, id: ActorId, slot_service: Vec<usize>) {
    let inner = cluster.eng.take_actor(id).expect("actor installed");
    cluster.eng.install(
        id,
        Box::new(Timed {
            inner,
            slot_service,
            profile: Profile::default(),
        }),
    );
}

/// Wrap the actors `scope` names. Must be undone with [`unwrap`] before
/// anything downcasts a node or the fabric.
pub fn wrap(cluster: &mut Cluster, scope: Scope) {
    for i in 0..cluster.node_count() {
        let node_id = NodeId(i as u16);
        let node = cluster.node(node_id);
        let table = (0..node.service_count())
            .map(|s| service_label(node, ServiceSlot(s as u16)))
            .collect();
        let id = cluster.actor_of(node_id);
        wrap_actor(cluster, id, table);
    }
    if scope == Scope::AllActors {
        let fabric = cluster.fabric;
        wrap_actor(cluster, fabric, Vec::new());
    }
}

/// Re-install every wrapped actor's inner actor and return the summed
/// profile.
pub fn unwrap(cluster: &mut Cluster) -> Profile {
    let mut total = Profile::default();
    for i in 0..cluster.eng.actor_count() {
        let id = ActorId(i as u32);
        if cluster.eng.actor::<Timed>(id).is_none() {
            continue;
        }
        let actor: Box<dyn Any> = cluster.eng.take_actor(id).expect("actor installed");
        let timed = actor.downcast::<Timed>().expect("checked above");
        total.absorb(&timed.profile);
        cluster.eng.install(id, timed.inner);
    }
    total
}
