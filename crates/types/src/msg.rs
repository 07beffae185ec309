//! The closed message vocabulary exchanged between simulation actors.
//!
//! Two actor families exist: *node* actors (one per cluster machine,
//! implemented in `fgmon-os`) and the *fabric* actor (the switch plus every
//! NIC wire, implemented in `fgmon-net`). [`Msg`] is the union type the
//! engine is instantiated with.

use crate::health::RecordFence;
use crate::ids::{ConnId, McastGroup, NodeId, RegionId, ReqId, ServiceSlot, ThreadId};
use crate::load::SharedSnapshot;
use crate::payload::{Payload, SharedPayload};
use fgmon_sim::SimTime;

/// The engine-level `(time, seq)` key of the fabric event that posted an
/// RDMA read. Carried through the read's round trip so the torn-read
/// detector can order the read's start against host writes *on the
/// target's shard* without any cross-shard detector state.
pub type PostedKey = (SimTime, u64);

/// Union of all event kinds in the simulation.
#[derive(Debug)]
pub enum Msg {
    /// An event destined for a node actor.
    Node(NodeMsg),
    /// An event destined for the fabric actor.
    Net(NetMsg),
}

/// Contents of a registered RDMA memory region, as returned by a one-sided
/// read. In the simulation, regions hold structured load data rather than
/// raw bytes; this is equivalent to (and much more convenient than)
/// modeling serialization.
#[derive(Clone, Debug)]
pub enum RegionData {
    /// A load snapshot (user-space buffer or live kernel view), shared
    /// from the producing node's buffer.
    Snapshot(SharedSnapshot),
    /// Uninterpreted bytes of the given length.
    Raw(u32),
}

/// Completion status of an RDMA work request, delivered to the initiator.
#[derive(Clone, Debug)]
pub enum RdmaResult {
    /// Read served; `fence` stamps the producing node's boot generation
    /// and the region's write sequence so consumers can reject records
    /// from before a restart.
    ReadOk {
        data: RegionData,
        fence: RecordFence,
    },
    WriteOk,
    /// Compare-and-swap executed atomically by the target NIC; `prior`
    /// is the word value before the op (the swap happened iff `prior`
    /// equaled the posted `expected`).
    CasOk {
        prior: u64,
    },
    /// The target NIC refused the access (unknown region, or a write to a
    /// read-only region — the paper's §6 security discussion).
    AccessDenied,
    /// The region belongs to an earlier boot generation: the node
    /// restarted and re-registered its memory, so this pinning is dead.
    /// The initiator must re-learn the region (re-registration handshake)
    /// before its reads can succeed again.
    RegionInvalidated,
}

/// Events handled by a node actor.
#[derive(Debug)]
pub enum NodeMsg {
    /// Boot signal: services' `on_start` hooks run.
    Boot,
    /// Crash-recovery signal at the end of a fail-stop window: the boot
    /// generation bumps (invalidating every previously registered region)
    /// and services' `on_restart` hooks run to re-register and
    /// re-advertise state.
    Restart,
    /// A CPU's scheduling quantum expired (generation-guarded).
    QuantumEnd { cpu: u8, gen: u64 },
    /// A CPU finished servicing a batch of interrupts (generation-guarded).
    IrqBatchDone { cpu: u8, gen: u64 },
    /// A sleeping thread's timer fired (generation-guarded).
    ThreadWake { thread: ThreadId, gen: u64 },
    /// A service-level timer fired.
    ServiceTimer { service: ServiceSlot, token: u64 },
    /// A packet finished its wire flight and hits this node's NIC.
    PacketArrive {
        conn: ConnId,
        dst_service: ServiceSlot,
        size: u32,
        payload: Payload,
    },
    /// An RDMA read request reached this node's NIC (no CPU involved).
    /// `posted` is the engine key of the fabric event that launched the
    /// read, echoed back in [`NetMsg::RdmaReadData`] for the sanitizer.
    RdmaReadArrive {
        initiator: NodeId,
        region: RegionId,
        req_id: ReqId,
        posted: PostedKey,
    },
    /// An RDMA write request reached this node's NIC (no CPU involved).
    RdmaWriteArrive {
        initiator: NodeId,
        region: RegionId,
        req_id: ReqId,
        data: RegionData,
    },
    /// An RDMA compare-and-swap reached this node's NIC (no CPU
    /// involved): atomically, if word `word` of `region` equals
    /// `expected` it becomes `swap`; either way the prior value returns
    /// to the initiator. Single-word atomics cannot tear, so — unlike
    /// reads — no race window opens.
    RdmaCasArrive {
        initiator: NodeId,
        region: RegionId,
        req_id: ReqId,
        word: u32,
        expected: u64,
        swap: u64,
    },
    /// An RDMA work request this node posted has completed.
    RdmaCompletion { req_id: ReqId, result: RdmaResult },
    /// A hardware-multicast frame reached this node's NIC. The body is
    /// shared with every other recipient of the same transmission.
    McastDeliver {
        group: McastGroup,
        size: u32,
        payload: SharedPayload,
    },
    /// Harness probe: record ground-truth load into the recorder and
    /// re-arm. Costs zero simulated CPU (the DES equivalent of the paper's
    /// fine-granularity kernel-module reporter).
    GroundTruthTick { period_nanos: u64 },
}

/// Events handled by the fabric actor.
///
/// Every frame a node *posts* (sockets, multicast, and the one-sided
/// verbs) carries `refused`: the posting NIC's rate limiter turned the
/// post away. A refused frame still reaches the fabric, which counts it
/// against the posting tenant and drops it, so the event stream is the
/// same whether or not a limiter is installed.
#[derive(Debug)]
pub enum NetMsg {
    /// Two-sided send on an established connection.
    SocketSend {
        src: NodeId,
        conn: ConnId,
        size: u32,
        payload: Payload,
        refused: bool,
    },
    /// One-sided read posted by `src` against a region on `dst`.
    RdmaRead {
        src: NodeId,
        dst: NodeId,
        region: RegionId,
        req_id: ReqId,
        refused: bool,
    },
    /// Several one-sided reads posted by `src` in the same doorbell ring
    /// (RDMAbox-style request merging): the NIC charges one `rdma_post`
    /// for the whole batch, then fans the reads out to their targets.
    RdmaReadBatch {
        src: NodeId,
        reads: Vec<BatchedRead>,
        refused: bool,
    },
    /// One-sided write posted by `src` against a region on `dst`.
    RdmaWrite {
        src: NodeId,
        dst: NodeId,
        region: RegionId,
        req_id: ReqId,
        data: RegionData,
        refused: bool,
    },
    /// Target-NIC response carrying RDMA read data back to the initiator.
    /// `target`/`region`/`posted` echo the request so the torn-read
    /// window can be closed on the target's shard without a lookup table.
    RdmaReadData {
        initiator: NodeId,
        req_id: ReqId,
        result: RdmaResult,
        target: NodeId,
        region: RegionId,
        posted: PostedKey,
    },
    /// One-sided compare-and-swap posted by `src` against word `word`
    /// of an atomic region on `dst` (masked atomics stay out of scope:
    /// one full 64-bit word per op, as on real HCAs).
    RdmaCas {
        src: NodeId,
        dst: NodeId,
        region: RegionId,
        req_id: ReqId,
        word: u32,
        expected: u64,
        swap: u64,
        refused: bool,
    },
    /// Target-NIC ack for an RDMA write, CAS, or denial. `target` names
    /// the serving NIC so per-target contention is charged on this leg,
    /// which the target itself emitted — i.e. on the target's shard.
    RdmaWriteAck {
        initiator: NodeId,
        req_id: ReqId,
        result: RdmaResult,
        target: NodeId,
    },
    /// Hardware multicast transmission to every subscriber of `group`.
    /// The body is allocated once at the sender and shared by reference
    /// with every delivery the switch replicates.
    McastSend {
        src: NodeId,
        group: McastGroup,
        size: u32,
        payload: SharedPayload,
        refused: bool,
    },
}

/// One element of a coalesced doorbell batch ([`NetMsg::RdmaReadBatch`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchedRead {
    pub dst: NodeId,
    pub region: RegionId,
    pub req_id: ReqId,
}

impl From<NodeMsg> for Msg {
    fn from(m: NodeMsg) -> Msg {
        Msg::Node(m)
    }
}

impl From<NetMsg> for Msg {
    fn from(m: NetMsg) -> Msg {
        Msg::Net(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadSnapshot;

    #[test]
    fn conversions() {
        let m: Msg = NodeMsg::Boot.into();
        assert!(matches!(m, Msg::Node(NodeMsg::Boot)));
        let m: Msg = NetMsg::RdmaRead {
            src: NodeId(0),
            dst: NodeId(1),
            region: RegionId(0),
            req_id: ReqId(7),
            refused: false,
        }
        .into();
        assert!(matches!(m, Msg::Net(NetMsg::RdmaRead { .. })));
    }

    /// The engine moves every event's whole `Msg` at least twice: into
    /// its queue slab node when sent, and out again into the handler.
    #[test]
    fn message_union_stays_small() {
        let sizes = [
            ("Msg", std::mem::size_of::<Msg>(), 64),
            ("NodeMsg", std::mem::size_of::<NodeMsg>(), 56),
            ("NetMsg", std::mem::size_of::<NetMsg>(), 64),
        ];
        for (name, size, limit) in sizes {
            assert!(
                size <= limit,
                "{name} is {size} bytes, over its {limit}-byte budget: every event \
                 moves the whole message union at least twice (into the queue slab \
                 and out into the handler), so large data belongs out of line \
                 (behind an Arc or Box, as SharedSnapshot carries the 104-byte \
                 LoadSnapshot and SharedPayload a multicast body)"
            );
        }
    }

    #[test]
    fn region_data_carries_snapshot() {
        let d = RegionData::Snapshot(LoadSnapshot::zero().into());
        match d {
            RegionData::Snapshot(s) => assert_eq!(s.nthreads, 0),
            _ => panic!("wrong variant"),
        }
    }
}
