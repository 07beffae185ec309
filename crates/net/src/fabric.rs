//! The cluster fabric: a non-blocking switch connecting every node's HCA.
//!
//! Models the two transport families of the paper's §2:
//!
//! * **Channel semantics** (sockets over IPoIB): frames pay wire +
//!   serialization latency, then hit the destination NIC and take the full
//!   interrupt + protocol + scheduling path on the remote host.
//! * **Memory semantics** (RDMA read/write): the initiator posts a work
//!   request; the *target NIC* serves it against a registered region with
//!   no target-CPU involvement; the completion travels back and is picked
//!   up by the initiator's completion-queue poll.
//!
//! Hardware multicast (paper §6) replicates a frame to every subscriber
//! with a small per-destination fan-out cost.

use std::collections::BTreeMap;
use std::sync::Arc;

use fgmon_sim::{Actor, ActorId, Ctx, SimDuration, SimTime};
use fgmon_types::{
    BatchedRead, ConnId, FaultOp, FaultPlan, McastGroup, Msg, NetConfig, NetMsg, NodeId, NodeMsg,
    Payload, QosPolicy, RdmaResult, ReadVerdict, RegionData, RegionId, ReqId, ServiceSlot,
    SharedRaceDetector, SharedSnapshot, TenancyConfig, TenantId, TenantStats, MAX_TENANTS,
};

/// One registered point-to-point connection.
#[derive(Clone, Copy, Debug)]
pub struct ConnEntry {
    pub a: NodeId,
    pub svc_a: ServiceSlot,
    pub b: NodeId,
    pub svc_b: ServiceSlot,
}

/// Fabric statistics (observable by harnesses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    pub socket_frames: u64,
    pub socket_bytes: u64,
    pub rdma_reads: u64,
    pub rdma_writes: u64,
    pub mcast_frames: u64,
    pub dropped: u64,
    /// Frames evaluated against an active [`FaultPlan`].
    pub fault_checks: u64,
    /// Frames dropped by a loss rule.
    pub fault_dropped: u64,
    /// Frames dropped because an endpoint was fail-stopped.
    pub fault_crash_dropped: u64,
    /// Frames whose latency was inflated by congestion or a NIC stall.
    pub fault_delayed: u64,
    /// Frames dropped by an asymmetric partition rule.
    pub fault_partitioned: u64,
    /// Socket frames delivered a second time by a duplication rule.
    pub fault_duplicated: u64,
    /// Frames held back (extra delay) by a reordering rule.
    pub fault_reordered: u64,
    /// Snapshot payloads bit-corrupted in flight (seal left stale).
    pub fault_corrupted: u64,
    /// Snapshot payloads whose reported timestamp was clock-skewed.
    pub fault_skewed: u64,
    /// One-sided reads whose target region was written mid-flight
    /// (race checker in strict mode).
    pub torn_reads: u64,
    /// Seqlock-mode re-reads issued after a version-check mismatch.
    pub seqlock_retries: u64,
    /// Read completions answered `RegionInvalidated` (stale registration
    /// after a target restart).
    pub region_invalidated: u64,
    /// Reads that traveled inside a coalesced doorbell batch
    /// ([`NetMsg::RdmaReadBatch`]); also counted in `rdma_reads`.
    pub rdma_batched_reads: u64,
    /// Doorbell batches posted (one per `RdmaReadBatch` frame).
    pub rdma_batch_posts: u64,
    /// One-sided compare-and-swap ops posted.
    pub rdma_atomics: u64,
    /// Per-tenant offered load, QoS drops, and contention outcomes.
    /// Indexed by `TenantId`; all zero until a tenancy config is
    /// installed, so pre-tenancy fingerprints are unchanged.
    pub tenants: [TenantStats; MAX_TENANTS],
}

impl FabricStats {
    /// Fold another stats block into this one (summing runs).
    pub fn absorb(&mut self, o: &FabricStats) {
        self.socket_frames += o.socket_frames;
        self.socket_bytes += o.socket_bytes;
        self.rdma_reads += o.rdma_reads;
        self.rdma_writes += o.rdma_writes;
        self.mcast_frames += o.mcast_frames;
        self.dropped += o.dropped;
        self.fault_checks += o.fault_checks;
        self.fault_dropped += o.fault_dropped;
        self.fault_crash_dropped += o.fault_crash_dropped;
        self.fault_delayed += o.fault_delayed;
        self.fault_partitioned += o.fault_partitioned;
        self.fault_duplicated += o.fault_duplicated;
        self.fault_reordered += o.fault_reordered;
        self.fault_corrupted += o.fault_corrupted;
        self.fault_skewed += o.fault_skewed;
        self.torn_reads += o.torn_reads;
        self.seqlock_retries += o.seqlock_retries;
        self.region_invalidated += o.region_invalidated;
        self.rdma_batched_reads += o.rdma_batched_reads;
        self.rdma_batch_posts += o.rdma_batch_posts;
        self.rdma_atomics += o.rdma_atomics;
        for (mine, theirs) in self.tenants.iter_mut().zip(o.tenants.iter()) {
            mine.absorb(theirs);
        }
    }
}

/// The switch + wires actor.
pub struct Fabric {
    cfg: NetConfig,
    /// `node_actors[node.index()]` = engine id of that node's actor.
    node_actors: Vec<ActorId>,
    conns: Vec<ConnEntry>,
    mcast: BTreeMap<McastGroup, Vec<NodeId>>,
    /// Fault schedule; `fault_active` is true iff the plan has rules, so
    /// fault-free runs evaluate zero fates and stay bit-identical to
    /// builds that predate fault injection.
    plan: FaultPlan,
    fault_active: bool,
    /// True iff the plan has payload-mutating rules (clock skew,
    /// corruption); cached so the common case costs one boolean test.
    payload_faults: bool,
    /// Per-event fate counter: reset when an event arrives, bumped per
    /// fate evaluation. Makes every fate a pure function of
    /// `(plan seed, event time, event seq, check index)` — the same
    /// whichever shard handles the event, in whatever order.
    fault_check_index: u32,
    /// Shadow-state torn-read detector, shared with every node's OS core;
    /// `None` when race checking is off (zero overhead).
    race: Option<SharedRaceDetector>,
    /// `tenants[node.index()]` = that node's tenant; absent entries are
    /// the infrastructure tenant. Immutable routing state.
    tenants: Vec<TenantId>,
    /// NIC-contention model + QoS policy; `None` keeps the fabric
    /// tenancy-blind and bit-identical to pre-tenancy builds. Rate-limit
    /// buckets live on each posting node's NIC (`OsCore`); the fabric
    /// only counts the frames they mark refused.
    tenancy: Option<TenancyConfig>,
    /// QP-cache pressure per *target* node: `(window index, ops)` for
    /// the aligned window the target is currently in. Completion legs
    /// are only ever handled on the target's shard (the target sent
    /// them same-instant), so each slot is touched from exactly one
    /// shard, in the sequential order — the same routing invariant the
    /// race detector leans on.
    pressure: Vec<(u64, u32)>,
    pub stats: FabricStats,
}

/// Salt separating contention-shed fate draws from fault-plan draws.
const CONTENTION_SALT: u64 = 0x7E4A_9C3D_51B6_20E7;

/// `splitmix64` finalizer: a full-avalanche 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform fate draw in `[0, 1)` as a pure function of the plan seed and
/// the handling event's engine key. Replaces a sequential RNG stream so
/// fates do not depend on how events interleave across shards.
#[inline]
fn fate_u(seed: u64, now: SimTime, seq: u64, idx: u32) -> f64 {
    let h = mix64(seed ^ mix64(now.0 ^ mix64(seq ^ mix64(idx as u64 ^ 0x9E37_79B9_7F4A_7C15))));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Fabric {
    pub fn new(cfg: NetConfig, node_actors: Vec<ActorId>) -> Self {
        Fabric {
            cfg,
            node_actors,
            conns: Vec::new(),
            mcast: BTreeMap::new(),
            plan: FaultPlan::default(),
            fault_active: false,
            payload_faults: false,
            fault_check_index: 0,
            race: None,
            tenants: Vec::new(),
            tenancy: None,
            pressure: Vec::new(),
            stats: FabricStats::default(),
        }
    }

    /// Static lower bound on every fabric→node delivery latency: all
    /// delivery legs include at least one wire crossing, congestion
    /// multipliers are validated `>= 1`, and NIC stalls only add delay.
    /// The parallel executor uses this as its bounded-lag lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.cfg.wire_latency
    }

    /// Attach the cluster-wide race detector, or detach it with `None`.
    pub fn set_race_detector(&mut self, detector: Option<SharedRaceDetector>) {
        self.race = detector;
    }

    /// Reset all frame/fault counters to zero. Harnesses that re-run
    /// scenarios on a reused fabric must call this between runs, or the
    /// second run's stats silently include the first run's traffic.
    pub fn reset_stats(&mut self) {
        self.stats = FabricStats::default();
    }

    /// Install a fault schedule. Fate draws hash the plan's own seed with
    /// each event's engine key, so identical (seed, plan) pairs replay
    /// identical fates regardless of what the rest of the simulation
    /// draws — and regardless of event interleaving across shards.
    ///
    /// # Panics
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.fault_active = !plan.is_empty();
        self.payload_faults = plan.has_payload_faults();
        self.plan = plan;
    }

    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Assign a node to a tenant (build-time wiring). Unassigned nodes
    /// belong to the infrastructure tenant.
    ///
    /// # Panics
    /// Panics if the tenant is outside the fixed stats table.
    pub fn set_node_tenant(&mut self, node: NodeId, tenant: TenantId) {
        assert!(
            tenant.index() < MAX_TENANTS,
            "tenant {tenant} outside the {MAX_TENANTS}-wide tenant table"
        );
        if self.tenants.len() <= node.index() {
            self.tenants.resize(node.index() + 1, TenantId::INFRA);
        }
        self.tenants[node.index()] = tenant;
    }

    /// Install the NIC-contention model and QoS policy. Without this
    /// call the fabric is tenancy-blind and behaves bit-identically to
    /// pre-tenancy builds.
    pub fn set_tenancy(&mut self, cfg: TenancyConfig) {
        assert!(
            cfg.contention.window.nanos() > 0,
            "contention window must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.contention.overload_drop),
            "overload_drop must be a probability"
        );
        self.tenancy = Some(cfg);
    }

    pub fn tenancy(&self) -> Option<&TenancyConfig> {
        self.tenancy.as_ref()
    }

    /// The tenant `node` belongs to (the infrastructure tenant unless
    /// assigned).
    pub fn tenant_of(&self, node: NodeId) -> TenantId {
        self.tenants
            .get(node.index())
            .copied()
            .unwrap_or(TenantId::INFRA)
    }

    /// The counting side of source admission for one posted frame (or
    /// one doorbell batch): charge it to the posting tenant, and a frame
    /// the source NIC's rate limiter `refused` also as `rate_limited`.
    /// Returns whether the frame goes on; a refused frame is dropped.
    #[inline]
    fn admit_post(&mut self, src: NodeId, refused: bool) -> bool {
        if self.tenancy.is_some() {
            let t = &mut self.stats.tenants[self.tenant_of(src).index()];
            t.posted += 1;
            t.rate_limited += u64::from(refused);
        }
        !refused
    }

    /// Target-NIC contention for one one-sided completion leg: bump the
    /// serving NIC's QP-cache window pressure, then decide whether this
    /// completion thrashes (pays extra latency) or is shed outright.
    /// Runs while handling the completion event, which the target node
    /// sent same-instant — i.e. on the target's shard — so the
    /// per-target pressure slot is shard-local, exactly like the race
    /// detector's shadow state. Returns the extra latency, or `None` if
    /// the overloaded NIC shed the completion.
    fn apply_contention(
        &mut self,
        now: SimTime,
        seq: u64,
        target: NodeId,
        initiator: NodeId,
    ) -> Option<SimDuration> {
        let Some(tc) = self.tenancy else {
            return Some(SimDuration::ZERO);
        };
        let tenant = self.tenant_of(initiator);
        self.stats.tenants[tenant.index()].completions += 1;
        // The QP cache is physically shared: every completion the
        // target serves occupies a slot, whatever its tenant.
        let win = now.nanos() / tc.contention.window.nanos();
        let idx = target.index();
        if self.pressure.len() <= idx {
            self.pressure.resize(idx + 1, (0, 0));
        }
        let slot = &mut self.pressure[idx];
        if slot.0 != win {
            *slot = (win, 0);
        }
        slot.1 += 1;
        let ops = slot.1;
        // A prioritized monitoring QP class rides reserved slots: the
        // priority tenant's completions occupy the cache but never pay.
        if matches!(tc.qos, QosPolicy::PriorityQp) && tenant == tc.priority_tenant {
            return Some(SimDuration::ZERO);
        }
        if ops <= tc.contention.qp_cache_slots {
            return Some(SimDuration::ZERO);
        }
        if ops > tc.contention.overload_slots {
            // Same pure-interposer style as fault fates; a distinct
            // salt keeps shed draws from perturbing fault draws.
            let draw = self.fault_check_index;
            self.fault_check_index += 1;
            let u = fate_u(self.plan.seed ^ CONTENTION_SALT, now, seq, draw);
            if u < tc.contention.overload_drop {
                self.stats.tenants[tenant.index()].contention_dropped += 1;
                return None;
            }
        }
        self.stats.tenants[tenant.index()].thrashed += 1;
        Some(tc.contention.thrash_penalty)
    }

    /// Decide one frame's fate under the active plan: `None` means the
    /// frame is lost, otherwise the (possibly inflated) flight latency.
    ///
    /// Completion legs (read-data, write-ack) only carry the initiator,
    /// so the unknown endpoint is passed as `None` and matches wildcard
    /// rules only. One fate draw happens per checked frame however many
    /// rules match, plus a hold-back draw only when a reorder rule does.
    /// `seq` is the engine key of the event being handled; together with
    /// the per-event check counter it makes each draw a pure function of
    /// the event, not of the fabric's history.
    fn apply_faults(
        &mut self,
        now: SimTime,
        seq: u64,
        src: Option<NodeId>,
        dst: Option<NodeId>,
        op: FaultOp,
        base: SimDuration,
    ) -> Option<SimDuration> {
        if !self.fault_active {
            return Some(base);
        }
        self.stats.fault_checks += 1;
        let u = self.fate_draw(now, seq);
        let fate = self.plan.frame_fate(src, dst, op, now);
        if fate.crashed {
            self.stats.fault_crash_dropped += 1;
            return None;
        }
        // Asymmetric partitions are deterministic physics, not dice: a
        // severed direction drops every matching frame, the reverse
        // direction is untouched.
        if fate.partitioned {
            self.stats.fault_partitioned += 1;
            return None;
        }
        if u < fate.loss {
            self.stats.fault_dropped += 1;
            return None;
        }
        // Latency inflation: cluster-wide congestion times the sick-NIC
        // multiplier of each known endpoint (a slow NIC serves both its
        // own posts and reads against it slowly — the gray failure).
        let mut delay = base.mul_f64(fate.latency_mult) + fate.stall;
        // Reordering = probabilistic hold-back: in a discrete-event
        // fabric the held frame arrives after frames sent later, which
        // is all reordering ever is on a wire. The draw is taken only
        // when a matching rule is live, so plans without reorder rules
        // evaluate the exact draw sequence they always did.
        if fate.reorder > 0.0 && self.fate_draw(now, seq) < fate.reorder {
            delay += fate.reorder_extra;
            self.stats.fault_reordered += 1;
        }
        if delay != base {
            self.stats.fault_delayed += 1;
        }
        Some(delay)
    }

    /// The next fault-fate draw of the event keyed `(now, seq)`.
    fn fate_draw(&mut self, now: SimTime, seq: u64) -> f64 {
        let idx = self.fault_check_index;
        self.fault_check_index += 1;
        fate_u(self.plan.seed, now, seq, idx)
    }

    /// Mutate a snapshot in flight according to the payload fault rules:
    /// clock skew shifts the *reported* timestamp and re-seals (the
    /// producer's clock was wrong when it stamped and sealed, so the
    /// seal legitimately covers the wrong value); bit-corruption
    /// perturbs content fields and leaves the seal stale, which is what
    /// makes it detectable at the client. Draws ride the same per-event
    /// counter as frame fates.
    fn apply_payload_faults(
        &mut self,
        now: SimTime,
        seq: u64,
        producer: NodeId,
        snap: &mut SharedSnapshot,
    ) {
        let (skew, corrupt) = self.plan.payload_fate(producer, now);
        // Faults copy on write: a handle the producer still holds keeps
        // the record it published.
        if skew != 0 {
            let snap = Arc::make_mut(snap);
            let shifted = (snap.measured_at.0 as i64).saturating_add(skew).max(0) as u64;
            snap.measured_at = SimTime(shifted);
            if snap.checksum != 0 {
                *snap = snap.sealed();
            }
            self.stats.fault_skewed += 1;
        }
        if corrupt > 0.0 && self.fate_draw(now, seq) < corrupt {
            // Flip bits in integer content fields. `| 1` guarantees
            // each XOR mask is nonzero, so the content always
            // changes and a sealed snapshot always fails its check.
            let mask = mix64(self.plan.seed ^ mix64(now.0 ^ seq));
            let snap = Arc::make_mut(snap);
            snap.run_queue ^= (mask as u32) | 1;
            snap.mem_used_kb ^= (mask >> 8) | 1;
            snap.nthreads ^= ((mask >> 32) as u32) | 1;
            self.stats.fault_corrupted += 1;
        }
    }

    /// Duplication fate for one socket frame: `Some(echo_delay)` when an
    /// active rule fires. Socket frames only — the RC transport that
    /// RDMA verbs ride guarantees exactly-once execution in hardware.
    fn duplicate_fate(&mut self, now: SimTime, seq: u64) -> Option<SimDuration> {
        if !self.fault_active {
            return None;
        }
        let (p, echo) = self.plan.duplication(now);
        if p > 0.0 && self.fate_draw(now, seq) < p {
            self.stats.fault_duplicated += 1;
            Some(echo)
        } else {
            None
        }
    }

    /// Provide (or replace) the node-id → engine-actor table. Builders
    /// call this once every node has been created.
    pub fn set_node_actors(&mut self, node_actors: Vec<ActorId>) {
        self.node_actors = node_actors;
    }

    /// Register a connection between two services; returns its id.
    /// (Connection setup happens at cluster-build time, as the paper's
    /// monitoring processes establish their connections once at startup.)
    pub fn add_conn(
        &mut self,
        a: NodeId,
        svc_a: ServiceSlot,
        b: NodeId,
        svc_b: ServiceSlot,
    ) -> ConnId {
        let id = ConnId(self.conns.len() as u64);
        self.conns.push(ConnEntry { a, svc_a, b, svc_b });
        id
    }

    pub fn conn(&self, id: ConnId) -> Option<&ConnEntry> {
        self.conns.get(id.0 as usize)
    }

    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Subscribe a node to a hardware multicast group.
    pub fn join_mcast(&mut self, group: McastGroup, node: NodeId) {
        let members = self.mcast.entry(group).or_default();
        if !members.contains(&node) {
            members.push(node);
        }
    }

    /// Wire + serialization latency for a frame of `size` bytes.
    fn frame_latency(&self, size: u32) -> SimDuration {
        self.cfg.wire_latency + SimDuration(self.cfg.per_kb.nanos() * (size as u64) / 1024)
    }

    /// Routing: the engine actor of `node`. The one place an unknown
    /// node is counted as `dropped`.
    #[inline]
    fn route(&mut self, node: NodeId) -> Option<ActorId> {
        let actor = self.node_actors.get(node.index()).copied();
        if actor.is_none() {
            self.stats.dropped += 1;
        }
        actor
    }

    /// Contention for one completion leg (read data, write or CAS ack):
    /// the serving NIC's QP-cache charge plus the leg's base latency,
    /// which is the target NIC's DMA, the reply flight and the
    /// initiator's CQ poll. `None` if the overloaded NIC shed the
    /// completion.
    #[inline]
    fn complete(
        &mut self,
        (now, seq): (SimTime, u64),
        target: NodeId,
        initiator: NodeId,
    ) -> Option<SimDuration> {
        let extra = self.apply_contention(now, seq, target, initiator)?;
        Some(self.cfg.nic_read + self.cfg.wire_latency + self.cfg.completion_poll + extra)
    }

    /// Fault and delivery: draw the frame's fate, fault the load snapshot
    /// it carries, draw a duplicate of a socket frame, and send it to
    /// `to`. `(now, seq)` is the engine key of the event being handled,
    /// which keys every draw. Returns false if the frame was lost.
    #[inline]
    fn fly(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        (now, seq): (SimTime, u64),
        leg: Leg,
        to: ActorId,
        mut msg: NodeMsg,
    ) -> bool {
        let Some(delay) = self.apply_faults(now, seq, leg.src, Some(leg.dst), leg.op, leg.base)
        else {
            return false;
        };
        if self.payload_faults {
            if let Some(snap) = carried_snapshot(&mut msg) {
                self.apply_payload_faults(now, seq, leg.sender, snap);
            }
        }
        if let NodeMsg::PacketArrive {
            conn,
            dst_service,
            size,
            payload,
        } = &msg
        {
            if let Some(echo) = self.duplicate_fate(now, seq) {
                // The echo shares the sender's body; frames without a
                // duplication fate are moved, never copied.
                let copy = NodeMsg::PacketArrive {
                    conn: *conn,
                    dst_service: *dst_service,
                    size: *size,
                    payload: payload.clone(), // lint: payload-clone — duplication echo shares the body
                };
                ctx.send_in(delay + echo, to, Msg::Node(copy));
            }
        }
        ctx.send_in(delay, to, Msg::Node(msg));
        true
    }

    /// One one-sided read `src` posted, alone or in a doorbell batch.
    /// Returns false if its target node is unknown.
    #[inline]
    fn post_read(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        key: (SimTime, u64),
        src: NodeId,
        r: BatchedRead,
    ) -> bool {
        let Some(to) = self.route(r.dst) else {
            return false;
        };
        self.stats.rdma_reads += 1;
        // The post's engine key rides along: the target opens the shadow
        // read window on arrival, reconstructing the epoch as of this
        // key. (Lost frames never open a window.)
        let leg = Leg::post(src, r.dst, FaultOp::RdmaRead, self.post_latency());
        let arrive = NodeMsg::RdmaReadArrive {
            initiator: src,
            region: r.region,
            req_id: r.req_id,
            posted: key,
        };
        self.fly(ctx, key, leg, to, arrive);
        true
    }

    /// The read-data leg. It closes the read's shadow window: the data
    /// just left the target NIC, so any host write since the post tore
    /// it. The target sent this event same-instant, so it runs on the
    /// target's shard, and the detector state for `(target, region)` is
    /// only ever touched from there. Then the data flies back, or, when
    /// a seqlock version check failed, the read is posted again.
    #[inline]
    fn read_data(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        initiator: NodeId,
        req_id: ReqId,
        result: RdmaResult,
        target: NodeId,
        region: RegionId,
    ) {
        let key = (ctx.now, ctx.event_seq);
        let Some(to) = self.route(initiator) else {
            return;
        };
        if matches!(result, RdmaResult::RegionInvalidated) {
            self.stats.region_invalidated += 1;
        }
        let verdict = match &self.race {
            Some(race) => race
                .borrow_mut()
                .on_read_complete(initiator, req_id, target, region, key),
            None => ReadVerdict::Clean,
        };
        if let ReadVerdict::Retry { .. } = verdict {
            let served = matches!(result, RdmaResult::ReadOk { .. });
            if served {
                self.stats.seqlock_retries += 1;
                let Some(target_actor) = self.route(target) else {
                    return;
                };
                // Reader-side seqlock retry: the torn data still flies
                // back (full return leg), the reader's version check
                // rejects it, and a fresh read is posted — one extra
                // round trip plus the modeled check per attempt. The
                // re-armed window was stamped with this event's key.
                let c = &self.cfg;
                let base = c.nic_read
                    + c.wire_latency
                    + c.completion_poll
                    + c.seqlock_check
                    + c.rdma_post
                    + c.wire_latency;
                let leg = Leg::completion(target, initiator, FaultOp::RdmaRead, base);
                let arrive = NodeMsg::RdmaReadArrive {
                    initiator,
                    region,
                    req_id,
                    posted: key,
                };
                if self.fly(ctx, key, leg, target_actor, arrive) {
                    return;
                }
            }
            // A lost retry, or an error completion (RegionInvalidated,
            // AccessDenied), which carries no record to re-read: close
            // the re-armed window. The error completion flies back as-is.
            if let Some(race) = &self.race {
                race.borrow_mut()
                    .on_read_drop(initiator, req_id, target, region);
            }
            if served {
                return;
            }
        }
        self.stats.torn_reads += u64::from(verdict == ReadVerdict::Torn);
        let Some(base) = self.complete(key, target, initiator) else {
            return;
        };
        let leg = Leg::completion(target, initiator, FaultOp::RdmaRead, base);
        let done = NodeMsg::RdmaCompletion { req_id, result };
        self.fly(ctx, key, leg, to, done);
    }

    /// A one-sided post's base latency: the initiator's post overhead
    /// plus the request flight.
    fn post_latency(&self) -> SimDuration {
        self.cfg.rdma_post + self.cfg.wire_latency
    }
}

/// What the fault model sees of one frame: the node that handed it to
/// the fabric (payload faults key to it), the endpoints the plan
/// matches, the op and the base latency. A completion or seqlock-retry
/// leg knows only its initiator, so its `src` is `None` and matches
/// wildcard rules only.
#[derive(Clone, Copy)]
struct Leg {
    sender: NodeId,
    src: Option<NodeId>,
    dst: NodeId,
    op: FaultOp,
    base: SimDuration,
}

impl Leg {
    /// A frame `src` posts to `dst`.
    fn post(src: NodeId, dst: NodeId, op: FaultOp, base: SimDuration) -> Leg {
        Leg {
            sender: src,
            src: Some(src),
            dst,
            op,
            base,
        }
    }

    /// A leg the target NIC `sender` returns towards `initiator`.
    fn completion(sender: NodeId, initiator: NodeId, op: FaultOp, base: SimDuration) -> Leg {
        Leg {
            sender,
            src: None,
            dst: initiator,
            op,
            base,
        }
    }
}

/// The load snapshot a delivery carries in flight, if any: a socket
/// monitor reply, a pushed RDMA write, or served read data.
fn carried_snapshot(msg: &mut NodeMsg) -> Option<&mut SharedSnapshot> {
    match msg {
        NodeMsg::PacketArrive {
            payload: Payload::MonitorReply { snap, .. },
            ..
        }
        | NodeMsg::RdmaWriteArrive {
            data: RegionData::Snapshot(snap),
            ..
        }
        | NodeMsg::RdmaCompletion {
            result:
                RdmaResult::ReadOk {
                    data: RegionData::Snapshot(snap),
                    ..
                },
            ..
        } => Some(snap),
        _ => None,
    }
}

impl Actor<Msg> for Fabric {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Net(msg) = msg else {
            debug_assert!(false, "fabric received a node message");
            return;
        };
        // Fate draws are keyed by this event; restart the per-event
        // check counter (see `apply_faults`).
        self.fault_check_index = 0;
        let key = (now, ctx.event_seq);
        match msg {
            NetMsg::SocketSend {
                src,
                conn,
                size,
                payload,
                refused,
            } => {
                if !self.admit_post(src, refused) {
                    return;
                }
                let Some(entry) = self.conn(conn).copied() else {
                    self.stats.dropped += 1;
                    return;
                };
                let (dst, dst_service) = if src == entry.a {
                    (entry.b, entry.svc_b)
                } else {
                    (entry.a, entry.svc_a)
                };
                let Some(to) = self.route(dst) else {
                    return;
                };
                self.stats.socket_frames += 1;
                self.stats.socket_bytes += size as u64;
                let leg = Leg::post(src, dst, FaultOp::Socket, self.frame_latency(size));
                let arrive = NodeMsg::PacketArrive {
                    conn,
                    dst_service,
                    size,
                    payload,
                };
                self.fly(ctx, key, leg, to, arrive);
            }

            NetMsg::RdmaRead {
                src,
                dst,
                region,
                req_id,
                refused,
            } => {
                if self.admit_post(src, refused) {
                    let read = BatchedRead {
                        dst,
                        region,
                        req_id,
                    };
                    self.post_read(ctx, key, src, read);
                }
            }

            NetMsg::RdmaReadBatch {
                src,
                reads,
                refused,
            } => {
                // One doorbell ring posts the whole batch (RDMAbox-style
                // request merging): the initiator paid `rdma_post` once,
                // and the simulator pays one fabric event instead of one
                // per read. Each read then flies and is served
                // independently, with its own fate draw. The doorbell
                // ring is one posted op for QoS purposes.
                if !self.admit_post(src, refused) {
                    return;
                }
                self.stats.rdma_batch_posts += 1;
                for r in reads {
                    let posted = self.post_read(ctx, key, src, r);
                    self.stats.rdma_batched_reads += u64::from(posted);
                }
            }

            NetMsg::RdmaWrite {
                src,
                dst,
                region,
                req_id,
                data,
                refused,
            } => {
                if !self.admit_post(src, refused) {
                    return;
                }
                let Some(to) = self.route(dst) else {
                    return;
                };
                self.stats.rdma_writes += 1;
                // A pushed snapshot is a payload in flight like any
                // other; the writing node produced it.
                let leg = Leg::post(src, dst, FaultOp::RdmaWrite, self.post_latency());
                let arrive = NodeMsg::RdmaWriteArrive {
                    initiator: src,
                    region,
                    req_id,
                    data,
                };
                self.fly(ctx, key, leg, to, arrive);
            }

            NetMsg::RdmaCas {
                src,
                dst,
                region,
                req_id,
                word,
                expected,
                swap,
                refused,
            } => {
                if !self.admit_post(src, refused) {
                    return;
                }
                let Some(to) = self.route(dst) else {
                    return;
                };
                self.stats.rdma_atomics += 1;
                // Atomics ride the write path of the fault model: same
                // post + request-flight cost, same `RdmaWrite` fault op
                // (they are one-sided mutations, and the plans have no
                // reason to distinguish them).
                let leg = Leg::post(src, dst, FaultOp::RdmaWrite, self.post_latency());
                let arrive = NodeMsg::RdmaCasArrive {
                    initiator: src,
                    region,
                    req_id,
                    word,
                    expected,
                    swap,
                };
                self.fly(ctx, key, leg, to, arrive);
            }

            NetMsg::RdmaReadData {
                initiator,
                req_id,
                result,
                target,
                region,
            } => self.read_data(ctx, initiator, req_id, result, target, region),

            NetMsg::RdmaWriteAck {
                initiator,
                req_id,
                result,
                target,
            } => {
                let Some(to) = self.route(initiator) else {
                    return;
                };
                // Write and CAS acks occupy the serving NIC's QP cache
                // exactly like read completions do.
                let Some(base) = self.complete(key, target, initiator) else {
                    return;
                };
                let leg = Leg::completion(target, initiator, FaultOp::RdmaWrite, base);
                let done = NodeMsg::RdmaCompletion { req_id, result };
                self.fly(ctx, key, leg, to, done);
            }

            NetMsg::McastSend {
                src,
                group,
                size,
                payload,
                refused,
            } => {
                // One transmission = one posted op, however many ports
                // the switch replicates it to.
                if !self.admit_post(src, refused) {
                    return;
                }
                // The membership list is taken out (not cloned) for the
                // duration of the fan-out and put back afterwards, so the
                // hot path never copies it.
                let members = self
                    .mcast
                    .get_mut(&group)
                    .map(std::mem::take)
                    .unwrap_or_default();
                let mut rank = 0u64;
                for &node in &members {
                    if node == src {
                        continue;
                    }
                    let Some(to) = self.route(node) else {
                        continue;
                    };
                    self.stats.mcast_frames += 1;
                    // The switch replicates in hardware; replicas leave with
                    // a tiny per-port stagger. Fault fates are drawn per
                    // member in membership order, keeping them deterministic.
                    let base = self.frame_latency(size)
                        + SimDuration(self.cfg.mcast_fanout.nanos() * rank);
                    rank += 1;
                    let deliver = NodeMsg::McastDeliver {
                        group,
                        size,
                        // Refcount bump, not a deep copy: every replica
                        // shares the sender's immutable body.
                        payload: payload.clone(), // lint: payload-clone — Arc refcount bump
                    };
                    let leg = Leg::post(src, node, FaultOp::Mcast, base);
                    self.fly(ctx, key, leg, to, deliver);
                }
                if let Some(slot) = self.mcast.get_mut(&group) {
                    *slot = members;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_registry_roundtrip() {
        let mut f = Fabric::new(NetConfig::default(), vec![ActorId(1), ActorId(2)]);
        let c = f.add_conn(NodeId(0), ServiceSlot(0), NodeId(1), ServiceSlot(3));
        assert_eq!(c, ConnId(0));
        let e = f.conn(c).unwrap();
        assert_eq!(e.b, NodeId(1));
        assert_eq!(e.svc_b, ServiceSlot(3));
        assert!(f.conn(ConnId(7)).is_none());
        assert_eq!(f.conn_count(), 1);
    }

    #[test]
    fn frame_latency_scales_with_size() {
        let f = Fabric::new(NetConfig::default(), vec![]);
        let zero = f.frame_latency(0);
        let large = f.frame_latency(64 * 1024);
        assert!(large > zero);
        assert_eq!(zero, NetConfig::default().wire_latency);
        // 64 KiB at 1 µs/KiB = 64 µs of serialization.
        assert_eq!(large - zero, SimDuration::from_micros(64));
    }

    #[test]
    fn mcast_membership_dedupes() {
        let mut f = Fabric::new(NetConfig::default(), vec![ActorId(1)]);
        f.join_mcast(McastGroup(1), NodeId(0));
        f.join_mcast(McastGroup(1), NodeId(0));
        assert_eq!(f.mcast[&McastGroup(1)].len(), 1);
    }

    #[test]
    fn empty_plan_takes_fast_path() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        assert!(f.fault_plan().is_empty());
        let base = SimDuration(100);
        let d = f.apply_faults(
            SimTime(0),
            0,
            Some(NodeId(0)),
            Some(NodeId(1)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(d, Some(base));
        assert_eq!(f.stats.fault_checks, 0);
    }

    #[test]
    fn crash_window_blackholes_frames() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(FaultPlan::new(7).crash(NodeId(1), SimTime(0), SimTime(100)));
        let base = SimDuration(10);
        let during = f.apply_faults(
            SimTime(50),
            0,
            Some(NodeId(0)),
            Some(NodeId(1)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(during, None);
        let after = f.apply_faults(
            SimTime(150),
            1,
            Some(NodeId(0)),
            Some(NodeId(1)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(after, Some(base));
        // Frames *from* the crashed node vanish too.
        let from = f.apply_faults(
            SimTime(50),
            2,
            Some(NodeId(1)),
            Some(NodeId(2)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(from, None);
        assert_eq!(f.stats.fault_crash_dropped, 2);
        assert_eq!(f.stats.fault_checks, 3);
    }

    #[test]
    fn loss_fates_replay_per_seed() {
        let run = |seed: u64| {
            let mut f = Fabric::new(NetConfig::default(), vec![]);
            f.set_fault_plan(FaultPlan::new(seed).lossy_all(0.5));
            let fates: Vec<bool> = (0..64)
                .map(|i| {
                    f.apply_faults(
                        SimTime(i),
                        i,
                        Some(NodeId(0)),
                        Some(NodeId(1)),
                        FaultOp::Socket,
                        SimDuration(10),
                    )
                    .is_some()
                })
                .collect();
            (fates, f.stats.fault_dropped)
        };
        let (fates_a, dropped_a) = run(11);
        let (fates_b, dropped_b) = run(11);
        assert_eq!(fates_a, fates_b);
        assert_eq!(dropped_a, dropped_b);
        assert!(dropped_a > 0 && dropped_a < 64, "p=0.5 should drop some");
        let (fates_c, _) = run(12);
        assert_ne!(fates_a, fates_c, "different seed should change fates");
    }

    #[test]
    fn fate_draws_are_pure_functions_of_the_event_key() {
        // The fate hash must not depend on evaluation order or fabric
        // history — that is what lets a sharded run, which hands the
        // fabric each window's events shard by shard, agree with a
        // sequential one. Each argument must also actually matter.
        let u = fate_u(42, SimTime(1000), 7, 0);
        assert_eq!(u, fate_u(42, SimTime(1000), 7, 0));
        assert!((0.0..1.0).contains(&u));
        assert_ne!(u, fate_u(43, SimTime(1000), 7, 0), "seed ignored");
        assert_ne!(u, fate_u(42, SimTime(1001), 7, 0), "time ignored");
        assert_ne!(u, fate_u(42, SimTime(1000), 8, 0), "seq ignored");
        assert_ne!(u, fate_u(42, SimTime(1000), 7, 1), "check index ignored");
    }

    #[test]
    fn fates_ignore_handling_order() {
        let mut a = Fabric::new(NetConfig::default(), vec![]);
        a.set_fault_plan(FaultPlan::new(9).lossy_all(0.5));
        let mut b = Fabric::new(NetConfig::default(), vec![]);
        b.set_fault_plan(FaultPlan::new(9).lossy_all(0.5));
        let keys: Vec<(u64, u64)> = (0..32).map(|i| (i * 10, i)).collect();
        let fate = |f: &mut Fabric, k: &(u64, u64)| {
            f.fault_check_index = 0; // what handle() does per event
            f.apply_faults(
                SimTime(k.0),
                k.1,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::Socket,
                SimDuration(10),
            )
            .is_some()
        };
        // `a` sees the events in key order; `b` sees the even ones, then
        // the odd ones, as a sharded run hands them over shard by shard.
        // Fates and counters must match.
        let in_order: Vec<bool> = keys.iter().map(|k| fate(&mut a, k)).collect();
        let mut by_shard = vec![false; keys.len()];
        for i in (0..keys.len()).step_by(2).chain((1..keys.len()).step_by(2)) {
            by_shard[i] = fate(&mut b, &keys[i]);
        }
        assert_eq!(in_order, by_shard);
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.fault_dropped > 0, "p=0.5 should drop some");
    }

    #[test]
    fn absorb_stats_sums_every_counter() {
        let mut a = FabricStats::default();
        let mut b = FabricStats::default();
        a.rdma_reads = 3;
        a.rdma_batched_reads = 2;
        a.rdma_batch_posts = 1;
        b.rdma_reads = 4;
        b.socket_frames = 7;
        b.torn_reads = 1;
        let mut sum = FabricStats::default();
        sum.absorb(&a);
        sum.absorb(&b);
        assert_eq!(sum.rdma_reads, 7);
        assert_eq!(sum.rdma_batched_reads, 2);
        assert_eq!(sum.rdma_batch_posts, 1);
        assert_eq!(sum.socket_frames, 7);
        assert_eq!(sum.torn_reads, 1);
    }

    #[test]
    fn absorb_stats_sums_the_tenant_ledger() {
        let mut a = FabricStats::default();
        let mut b = FabricStats::default();
        a.tenants[1].posted = 10;
        a.tenants[1].thrashed = 3;
        b.tenants[1].posted = 5;
        b.tenants[2].rate_limited = 7;
        let mut sum = FabricStats::default();
        sum.absorb(&a);
        sum.absorb(&b);
        assert_eq!(sum.tenants[1].posted, 15);
        assert_eq!(sum.tenants[1].thrashed, 3);
        assert_eq!(sum.tenants[2].rate_limited, 7);
        assert_eq!(sum.tenants[0], TenantStats::default());
    }

    #[test]
    fn contention_thrashes_past_the_qp_cache_and_sheds_past_overload() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_node_tenant(NodeId(2), TenantId(1));
        let tc = TenancyConfig::default();
        f.set_tenancy(tc);
        let now = SimTime(10);
        // Up to qp_cache_slots completions in a window ride free.
        for seq in 0..tc.contention.qp_cache_slots as u64 {
            assert_eq!(
                f.apply_contention(now, seq, NodeId(0), NodeId(2)),
                Some(SimDuration::ZERO)
            );
        }
        assert_eq!(f.stats.tenants[1].thrashed, 0);
        // The next completion thrashes and pays the penalty.
        assert_eq!(
            f.apply_contention(now, 99, NodeId(0), NodeId(2)),
            Some(tc.contention.thrash_penalty)
        );
        assert_eq!(f.stats.tenants[1].thrashed, 1);
        // Far past the overload threshold, some completions are shed.
        for seq in 100..600 {
            f.apply_contention(now, seq, NodeId(0), NodeId(2));
        }
        let t = &f.stats.tenants[1];
        assert!(t.contention_dropped > 0, "overload must shed");
        assert!(
            t.thrashed > t.contention_dropped,
            "shedding is probabilistic"
        );
        assert_eq!(t.completions, tc.contention.qp_cache_slots as u64 + 1 + 500);
        // A fresh window clears the pressure.
        let later = SimTime(now.nanos() + tc.contention.window.nanos());
        assert_eq!(
            f.apply_contention(later, 999, NodeId(0), NodeId(2)),
            Some(SimDuration::ZERO)
        );
    }

    #[test]
    fn priority_qp_class_exempts_the_monitoring_tenant() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_node_tenant(NodeId(2), TenantId(1));
        f.set_tenancy(TenancyConfig::with_qos(QosPolicy::PriorityQp));
        let now = SimTime(10);
        // The hostile tenant fills the QP cache well past thrash.
        for seq in 0..200 {
            f.apply_contention(now, seq, NodeId(0), NodeId(2));
        }
        assert!(f.stats.tenants[1].thrashed > 0);
        // The infrastructure tenant's completion shares the cache but
        // never pays, even with the window saturated.
        assert_eq!(
            f.apply_contention(now, 777, NodeId(0), NodeId(1)),
            Some(SimDuration::ZERO)
        );
        assert_eq!(f.stats.tenants[0].thrashed, 0);
        assert_eq!(f.stats.tenants[0].contention_dropped, 0);
    }

    #[test]
    fn admission_drops_exactly_the_refused_posts() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_node_tenant(NodeId(1), TenantId(1));
        f.set_tenancy(TenancyConfig::with_qos(QosPolicy::RateLimit {
            ops_per_window: 2,
            window: SimDuration::from_millis(1),
        }));
        // Each posted frame counts against its tenant, and exactly the
        // frames the source NIC marked refused are dropped.
        let went_on = (0..5).filter(|&i| f.admit_post(NodeId(1), i >= 2)).count();
        assert_eq!(went_on, 2);
        assert!(f.admit_post(NodeId(0), false));
        assert_eq!(f.stats.tenants[1].posted, 5);
        assert_eq!(f.stats.tenants[1].rate_limited, 3);
        assert_eq!(f.stats.tenants[0].posted, 1);
        assert_eq!(f.stats.tenants[0].rate_limited, 0);
    }

    #[test]
    fn reset_stats_clears_every_counter() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(FaultPlan::new(3).lossy_all(0.5));
        for i in 0..32 {
            f.apply_faults(
                SimTime(i),
                i,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::Socket,
                SimDuration(10),
            );
        }
        f.stats.socket_frames += 4;
        f.stats.rdma_reads += 2;
        f.stats.torn_reads += 1;
        assert_ne!(f.stats, FabricStats::default());
        f.reset_stats();
        assert_eq!(f.stats, FabricStats::default());
        // The fault plan survives a stats reset: only the counters are
        // scenario-scoped.
        assert!(!f.fault_plan().is_empty());
    }

    #[test]
    fn congestion_and_stall_inflate_latency() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(
            FaultPlan::new(0)
                .congested(SimTime(0), SimTime(100), 4.0)
                .nic_stall(NodeId(1), SimTime(0), SimTime(100), SimDuration(7)),
        );
        let base = SimDuration(10);
        let d = f
            .apply_faults(
                SimTime(10),
                0,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::RdmaRead,
                base,
            )
            .unwrap();
        assert_eq!(d, SimDuration(47));
        let d = f
            .apply_faults(
                SimTime(200),
                1,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::RdmaRead,
                base,
            )
            .unwrap();
        assert_eq!(d, base);
        assert_eq!(f.stats.fault_delayed, 1);
    }

    /// Rules of different kinds may be added in any order: each kind
    /// folds into its own accumulator. The multipliers round differently
    /// by grouping, so one table-order product would give `a` the fate
    /// `(1.1 × 1.3) × 2.7` but `b` the fate `(2.7 × 1.1) × 1.3`.
    #[test]
    fn rule_order_across_kinds_never_changes_a_fate() {
        let (t0, t1) = (SimTime(0), SimTime(1_000));
        let (slow0, slow1) = (NodeId(0), NodeId(1));
        let stall = SimDuration(9);
        let a = FaultPlan::new(4)
            .congested(t0, t1, 1.1)
            .slow_nic(slow0, 1.3, t0, t1)
            .lossy_op(FaultOp::Socket, 0.3)
            .slow_nic(slow1, 2.7, SimTime(200), t1)
            .reordered(None, 0.4, SimDuration(500), t0, SimTime(600))
            .nic_stall(slow1, SimTime(100), SimTime(700), stall);
        let b = FaultPlan::new(4)
            .nic_stall(slow1, SimTime(100), SimTime(700), stall)
            .slow_nic(slow1, 2.7, SimTime(200), t1)
            .reordered(None, 0.4, SimDuration(500), t0, SimTime(600))
            .congested(t0, t1, 1.1)
            .lossy_op(FaultOp::Socket, 0.3)
            .slow_nic(slow0, 1.3, t0, t1);
        let bits = |f: fgmon_types::FrameFate| {
            let floats = [f.loss, f.latency_mult, f.reorder].map(f64::to_bits);
            (f.crashed, f.partitioned, floats, f.stall, f.reorder_extra)
        };
        let mut fa = Fabric::new(NetConfig::default(), vec![]);
        let mut fb = Fabric::new(NetConfig::default(), vec![]);
        fa.set_fault_plan(a.clone());
        fb.set_fault_plan(b.clone());
        let ends = [None, Some(slow0), Some(slow1), Some(NodeId(2))];
        let ops = [
            FaultOp::Socket,
            FaultOp::RdmaRead,
            FaultOp::RdmaWrite,
            FaultOp::Mcast,
        ];
        let base = SimDuration(1_000_000_007);
        for now in [0, 150, 250, 650, 999, 1_000].map(SimTime) {
            for (src, dst, op) in ends
                .iter()
                .flat_map(|&s| ends.iter().flat_map(move |&d| ops.map(|op| (s, d, op))))
            {
                let fate = bits(a.frame_fate(src, dst, op, now));
                assert_eq!(fate, bits(b.frame_fate(src, dst, op, now)));
                for seq in 0..4 {
                    fa.fault_check_index = 0;
                    fb.fault_check_index = 0;
                    assert_eq!(
                        fa.apply_faults(now, seq, src, dst, op, base),
                        fb.apply_faults(now, seq, src, dst, op, base),
                        "{src:?} -> {dst:?} {op:?} at {now:?} seq {seq}"
                    );
                }
            }
        }
        assert_eq!(fa.stats, fb.stats);
        let s = fa.stats;
        assert!(s.fault_dropped > 0 && s.fault_reordered > 0 && s.fault_delayed > 0);
        // The grouping the comment above names really does round apart.
        assert_ne!(
            ((1.1f64 * 1.3) * 2.7).to_bits(),
            ((2.7f64 * 1.1) * 1.3).to_bits()
        );
    }

    #[test]
    fn partition_drops_one_direction_only() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(FaultPlan::new(0).partition(
            Some(NodeId(0)),
            Some(NodeId(1)),
            SimTime(0),
            SimTime(100),
        ));
        let base = SimDuration(10);
        let fwd = f.apply_faults(
            SimTime(50),
            0,
            Some(NodeId(0)),
            Some(NodeId(1)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(fwd, None);
        let rev = f.apply_faults(
            SimTime(50),
            1,
            Some(NodeId(1)),
            Some(NodeId(0)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(rev, Some(base));
        // After the window the direction heals.
        let healed = f.apply_faults(
            SimTime(150),
            2,
            Some(NodeId(0)),
            Some(NodeId(1)),
            FaultOp::Socket,
            base,
        );
        assert_eq!(healed, Some(base));
        assert_eq!(f.stats.fault_partitioned, 1);
        assert_eq!(f.stats.fault_dropped, 0);
    }

    #[test]
    fn slow_nic_inflates_frames_touching_the_node() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(FaultPlan::new(0).slow_nic(NodeId(1), 5.0, SimTime(0), SimTime(100)));
        let base = SimDuration(10);
        let touching = f
            .apply_faults(
                SimTime(50),
                0,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::RdmaRead,
                base,
            )
            .unwrap();
        assert_eq!(touching, SimDuration(50));
        // No loss, no errors: the frame still arrives — gray, not black.
        let elsewhere = f
            .apply_faults(
                SimTime(50),
                1,
                Some(NodeId(0)),
                Some(NodeId(2)),
                FaultOp::RdmaRead,
                base,
            )
            .unwrap();
        assert_eq!(elsewhere, base);
        // Completion legs carry only the initiator; a slow initiator NIC
        // still applies via the known endpoint.
        let completion = f
            .apply_faults(
                SimTime(50),
                2,
                None,
                Some(NodeId(1)),
                FaultOp::RdmaRead,
                base,
            )
            .unwrap();
        assert_eq!(completion, SimDuration(50));
    }

    #[test]
    fn reorder_holds_frames_back() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(FaultPlan::new(7).reordered(
            Some(FaultOp::Socket),
            1.0,
            SimDuration(500),
            SimTime(0),
            SimTime(100),
        ));
        let base = SimDuration(10);
        let held = f
            .apply_faults(
                SimTime(50),
                0,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::Socket,
                base,
            )
            .unwrap();
        assert_eq!(held, SimDuration(510));
        // Non-matching op takes no reorder draw and flies on time.
        let checks_before = f.fault_check_index;
        let rdma = f
            .apply_faults(
                SimTime(50),
                1,
                Some(NodeId(0)),
                Some(NodeId(1)),
                FaultOp::RdmaRead,
                base,
            )
            .unwrap();
        assert_eq!(rdma, base);
        assert_eq!(f.fault_check_index, checks_before + 1, "no extra draw");
        assert_eq!(f.stats.fault_reordered, 1);
    }

    #[test]
    fn payload_faults_skew_reseals_and_corruption_breaks_the_seal() {
        use fgmon_types::LoadSnapshot;
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(
            FaultPlan::new(3)
                .clock_skew(NodeId(1), -2_000_000, SimTime(0), SimTime(100))
                .corrupting(Some(NodeId(2)), 1.0, SimTime(0), SimTime(100)),
        );
        let published = LoadSnapshot {
            measured_at: SimTime(5_000_000),
            ..LoadSnapshot::zero()
        }
        .sealed();
        // The producer's buffer keeps a second handle to the record.
        let held = SharedSnapshot::new(published);
        let mut snap = Arc::clone(&held);
        // Skew shifts the reported timestamp and re-seals: the fault is
        // the producer's clock, not the wire.
        f.apply_payload_faults(SimTime(50), 0, NodeId(1), &mut snap);
        assert_eq!(snap.measured_at, SimTime(3_000_000));
        assert!(snap.checksum_ok());
        assert_eq!(f.stats.fault_skewed, 1);
        assert_eq!(f.stats.fault_corrupted, 0);
        // Copy on write: the in-flight record changed, the held one did not.
        assert!(!Arc::ptr_eq(&snap, &held));
        assert_eq!(*held, published);
        // Corruption perturbs content and leaves the seal stale, again on
        // a copy of a record someone else still holds.
        let held2 = SharedSnapshot::new(LoadSnapshot::zero().sealed());
        let mut snap2 = Arc::clone(&held2);
        f.apply_payload_faults(SimTime(50), 1, NodeId(2), &mut snap2);
        assert!(!snap2.checksum_ok());
        assert!(held2.checksum_ok());
        assert_eq!(*held2, LoadSnapshot::zero().sealed());
        assert_eq!(f.stats.fault_corrupted, 1);
        // Negative skew saturates at time zero; a sole handle is faulted
        // in place.
        let mut snap3 = SharedSnapshot::new(
            LoadSnapshot {
                measured_at: SimTime(1_000_000),
                ..LoadSnapshot::zero()
            }
            .sealed(),
        );
        let before = Arc::as_ptr(&snap3);
        f.apply_payload_faults(SimTime(50), 2, NodeId(1), &mut snap3);
        assert_eq!(snap3.measured_at, SimTime::ZERO);
        assert!(snap3.checksum_ok());
        assert_eq!(Arc::as_ptr(&snap3), before);
    }

    #[test]
    fn duplicate_fate_fires_only_in_window() {
        let mut f = Fabric::new(NetConfig::default(), vec![]);
        f.set_fault_plan(FaultPlan::new(5).duplicated(
            1.0,
            SimDuration(250),
            SimTime(0),
            SimTime(100),
        ));
        assert_eq!(f.duplicate_fate(SimTime(50), 0), Some(SimDuration(250)));
        assert_eq!(f.duplicate_fate(SimTime(100), 1), None);
        assert_eq!(f.stats.fault_duplicated, 1);
        // An empty plan takes the fast path and draws nothing.
        let mut quiet = Fabric::new(NetConfig::default(), vec![]);
        assert_eq!(quiet.duplicate_fate(SimTime(50), 0), None);
        assert_eq!(quiet.fault_check_index, 0);
    }
}
