//! Two fault-injected push worlds shared by the determinism and
//! parallel-equivalence suites.

use fgmon_cluster::RubisWorldCfg;
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{FaultOp, FaultPlan, NodeId, Scheme};

/// The push schemes' fabric legs under the faults no other golden world
/// puts on them: RDMA writes under clock skew, corruption and loss, and
/// multicast frames under loss, reordering and a partition.
/// `integration_determinism` pins their digests and
/// `parallel_equivalence` runs them sharded.
pub fn worlds() -> [(&'static str, RubisWorldCfg); 2] {
    let ms = SimDuration::from_millis;
    let at = |m: u64| SimTime(m * 1_000_000);
    let base = RubisWorldCfg {
        backends: 3,
        rubis_sessions: 24,
        granularity: ms(10),
        ..Default::default()
    };
    [
        (
            "rubis_world/RdmaWritePush faulted",
            RubisWorldCfg {
                scheme: Scheme::RdmaWritePush,
                seed: 12,
                faults: FaultPlan::new(0x3E17)
                    .clock_skew(NodeId(2), -400_000, at(100), at(700))
                    .corrupting(Some(NodeId(3)), 0.2, at(50), at(900))
                    .lossy_op(FaultOp::RdmaWrite, 0.1),
                ..base.clone()
            },
        ),
        (
            "rubis_world/McastPush faulted",
            RubisWorldCfg {
                scheme: Scheme::McastPush,
                seed: 13,
                faults: FaultPlan::new(0x3CA5)
                    .lossy_op(FaultOp::Mcast, 0.2)
                    .reordered(Some(FaultOp::Mcast), 0.3, ms(2), at(0), at(800))
                    .partition(Some(NodeId(2)), Some(NodeId(0)), at(200), at(400)),
                ..base
            },
        ),
    ]
}
