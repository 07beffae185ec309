//! Cluster assembly: build an engine populated with nodes, a fabric, and
//! services, mirroring the paper's 8-back-end + front-end testbed.

use fgmon_net::Fabric;
use fgmon_os::{NodeActor, OsCore, Service};
use fgmon_sim::{
    run_sharded, ActorId, DetRng, Engine, RunOutcome, ShardPlan, SimDuration, SimTime,
};
use fgmon_types::{
    ConnId, FaultEffect, FaultPlan, McastGroup, Msg, NetConfig, NodeId, NodeMsg, OsConfig,
    RaceDetector, RaceMode, RaceReport, ServiceSlot, SharedRaceDetector, TenancyConfig, TenantId,
};

/// Incrementally builds a simulated cluster.
pub struct ClusterBuilder {
    eng: Engine<Msg>,
    fabric_slot: ActorId,
    fabric: Fabric,
    nodes: Vec<ActorId>,
    rng: DetRng,
    race: Option<SharedRaceDetector>,
}

impl ClusterBuilder {
    /// Start an empty cluster. The torn-read sanitizer follows
    /// `FGMON_RACE_CHECK` (off when unset); [`Cluster::set_race_mode`]
    /// pins another mode before the run.
    pub fn new(seed: u64, net: NetConfig) -> Self {
        let mut eng: Engine<Msg> = Engine::new();
        let fabric_slot = eng.reserve_actor();
        ClusterBuilder {
            eng,
            fabric_slot,
            fabric: Fabric::new(net, Vec::new()),
            nodes: Vec::new(),
            // lint: rng-construction — this is the cluster's root RNG; every
            // other stream in the simulation is forked from it by label.
            rng: DetRng::new(seed),
            race: race_detector(RaceMode::from_env()),
        }
    }

    /// Add a node with the given OS configuration.
    pub fn add_node(&mut self, cfg: OsConfig) -> NodeId {
        let node_id = NodeId(self.nodes.len() as u16);
        let actor_id = self.eng.reserve_actor();
        let rng = self.rng.fork_idx("node", node_id.0 as u64);
        let mut core = OsCore::new(node_id, cfg, self.fabric_slot, actor_id, rng);
        core.set_race_detector(self.race.clone());
        self.eng.install(actor_id, Box::new(NodeActor::new(core)));
        self.nodes.push(actor_id);
        node_id
    }

    /// Mutable access to a node actor during assembly (pre-boot wiring).
    pub fn node_actor_mut(&mut self, node: NodeId) -> Option<&mut NodeActor> {
        let actor = *self.nodes.get(node.index())?;
        self.eng.actor_mut::<NodeActor>(actor)
    }

    /// Host a service on `node`; returns its slot.
    pub fn add_service(&mut self, node: NodeId, svc: Box<dyn Service>) -> ServiceSlot {
        let actor = self.nodes[node.index()];
        self.eng
            .actor_mut::<NodeActor>(actor)
            .expect("node actor")
            .add_service(svc)
    }

    /// Mutable access to a typed service on a node (pre-boot wiring).
    pub fn node_service_mut<T: Service>(
        &mut self,
        node: NodeId,
        slot: ServiceSlot,
    ) -> Option<&mut T> {
        self.node_actor_mut(node)?.service_mut::<T>(slot)
    }

    /// Register a connection between two services.
    pub fn connect(
        &mut self,
        a: NodeId,
        svc_a: ServiceSlot,
        b: NodeId,
        svc_b: ServiceSlot,
    ) -> ConnId {
        self.fabric.add_conn(a, svc_a, b, svc_b)
    }

    /// Subscribe a node to a multicast group.
    pub fn join_mcast(&mut self, group: McastGroup, node: NodeId) {
        self.fabric.join_mcast(group, node);
    }

    /// Install a fault schedule on the fabric. Panics if the plan is
    /// malformed (see [`FaultPlan::validate`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fabric.set_fault_plan(plan);
    }

    /// Assign a node to a fabric tenant (unassigned nodes belong to the
    /// infrastructure tenant).
    pub fn set_node_tenant(&mut self, node: NodeId, tenant: TenantId) {
        self.fabric.set_node_tenant(node, tenant);
    }

    /// Install the NIC-contention model and tenant QoS policy on the
    /// fabric. Without this the fabric is tenancy-blind. Under a rate
    /// limit, [`ClusterBuilder::finish`] gives every limited node's NIC
    /// its own token bucket.
    pub fn set_tenancy(&mut self, cfg: TenancyConfig) {
        self.fabric.set_tenancy(cfg);
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finish assembly: install the fabric, schedule boot events, and
    /// start the ground-truth probe on the given nodes.
    pub fn finish(mut self, ground_truth: &[(NodeId, SimDuration)]) -> Cluster {
        // One actor per node plus the fabric. The event slab is left to
        // grow to the run's own high-water mark of events in flight, which
        // no per-node guess matches across worlds.
        self.eng.reserve_capacity(self.nodes.len() + 1);
        let mut fabric = self.fabric;
        // Re-validate at the last gate: [`set_fault_plan`] already checks,
        // but a plan mutated through the fabric after installation (or one
        // that slipped in through a future builder path) must never reach a
        // running engine — fate draws on a malformed rule would silently
        // skew every downstream fingerprint. Only now is the node count
        // known, so rules naming a node the cluster lacks are caught here.
        let plan = fabric.fault_plan();
        if let Err(e) = plan.validate().and(plan.check_nodes(self.nodes.len())) {
            panic!("invalid fault plan: {e}");
        }
        // A fail-stop window ends with the node coming back *restarted*,
        // not resumed: schedule the restart at each finite window end, so
        // the node re-boots its services under a fresh boot generation
        // (crashes with `until = SimTime::MAX` never recover).
        let restarts: Vec<(SimTime, NodeId)> = plan
            .rules
            .iter()
            .filter_map(|r| match r.effect {
                FaultEffect::Crash { node } if r.until < SimTime::MAX => Some((r.until, node)),
                _ => None,
            })
            .collect();
        fabric.set_node_actors(self.nodes.clone());
        fabric.set_race_detector(self.race.clone());
        // What `run_parallel` needs of the fabric, read while it is still
        // a `Fabric`: its config has no setter, and a harness may wrap the
        // installed actor.
        let lookahead = fabric.lookahead();
        // Rate limiting is enforced where a post is made: each limited
        // node's NIC gets its own bucket, and the fabric only counts the
        // frames those NICs mark refused.
        if let Some(tc) = fabric.tenancy().copied() {
            for (i, &actor) in self.nodes.iter().enumerate() {
                let bucket = tc.post_limiter(fabric.tenant_of(NodeId(i as u16)));
                self.eng
                    .actor_mut::<NodeActor>(actor)
                    .expect("node actor")
                    .core_mut()
                    .set_post_limiter(bucket);
            }
        }
        // The fabric is the one actor every node talks to; a sharded run
        // assigns it to no shard and runs each of its events on the
        // shard that sent it.
        self.eng.mark_replicated(self.fabric_slot);
        self.eng.install(self.fabric_slot, Box::new(fabric));
        for &actor in &self.nodes {
            self.eng
                .schedule(SimTime::ZERO, actor, Msg::Node(NodeMsg::Boot));
        }
        for (at, node) in restarts {
            let actor = self.nodes[node.index()];
            self.eng.schedule(at, actor, Msg::Node(NodeMsg::Restart));
        }
        for &(node, period) in ground_truth {
            let actor = self.nodes[node.index()];
            self.eng.schedule(
                SimTime::ZERO,
                actor,
                Msg::Node(NodeMsg::GroundTruthTick {
                    period_nanos: period.nanos(),
                }),
            );
        }
        Cluster {
            eng: self.eng,
            fabric: self.fabric_slot,
            nodes: self.nodes,
            race: self.race,
            lookahead,
        }
    }
}

/// The shared detector for `mode`; `RaceMode::Off` installs none, so the
/// hot path pays nothing.
fn race_detector(mode: RaceMode) -> Option<SharedRaceDetector> {
    (mode != RaceMode::Off).then(|| RaceDetector::new_shared(mode))
}

/// A fully assembled cluster ready to run.
pub struct Cluster {
    pub eng: Engine<Msg>,
    pub fabric: ActorId,
    nodes: Vec<ActorId>,
    race: Option<SharedRaceDetector>,
    /// The fabric's minimum cross-shard latency: `run_parallel`'s window
    /// width.
    lookahead: SimDuration,
}

impl Cluster {
    /// Select the torn-read sanitizer mode, replacing the one
    /// `FGMON_RACE_CHECK` chose at assembly, on every node and the fabric.
    ///
    /// # Panics
    /// Panics once an event has run: a detector swapped mid-run would
    /// miss the writes and reads already in flight.
    pub fn set_race_mode(&mut self, mode: RaceMode) {
        assert_eq!(
            self.eng.events_processed(),
            0,
            "set_race_mode must be called before the first event runs"
        );
        self.race = race_detector(mode);
        for &actor in &self.nodes {
            self.eng
                .actor_mut::<NodeActor>(actor)
                .expect("node actor")
                .core_mut()
                .set_race_detector(self.race.clone());
        }
        self.eng
            .actor_mut::<Fabric>(self.fabric)
            .expect("fabric actor")
            .set_race_detector(self.race.clone());
    }

    /// Run for `dur` of virtual time.
    pub fn run_for(&mut self, dur: SimDuration) -> RunOutcome {
        self.eng.run_for(dur)
    }

    /// Run for `dur` of virtual time split across `shards` shards, which
    /// run one lookahead window at a time on the calling thread.
    ///
    /// Bitwise identical to [`Cluster::run_for`]: node `i` of `n` runs
    /// on shard `i * shards / n`, so each shard takes a contiguous block
    /// of nodes, the one fabric runs each frame on the shard that posted
    /// it, and the window width is the fabric's minimum cross-shard
    /// latency. Any partition gives the same run. Falls back to the
    /// sequential engine when fewer than two shards are possible.
    /// Sharding buys no speed on its own (see `fgmon_sim::parallel`); it
    /// exists so the chaos search and the equivalence suites can check
    /// the sharded protocol against the sequential engine.
    pub fn run_parallel(&mut self, dur: SimDuration, shards: usize) -> RunOutcome {
        let n = self.nodes.len();
        let shards = shards.min(n);
        if shards < 2 || self.lookahead == SimDuration::ZERO {
            return self.run_for(dur);
        }
        let horizon = self.eng.now() + dur;
        // The fabric's entry is ignored: it belongs to no shard.
        let mut shard_of = vec![0u16; self.eng.actor_count()];
        for (i, actor) in self.nodes.iter().enumerate() {
            shard_of[actor.index()] = (i * shards / n) as u16;
        }
        let plan = ShardPlan::new(shard_of, shards);
        run_sharded(&mut self.eng, horizon, self.lookahead, &plan)
    }

    /// Engine actor id of a node.
    pub fn actor_of(&self, node: NodeId) -> ActorId {
        self.nodes[node.index()]
    }

    /// Borrow a node actor.
    pub fn node(&self, node: NodeId) -> &NodeActor {
        self.eng
            .actor::<NodeActor>(self.actor_of(node))
            .expect("node actor")
    }

    pub fn node_mut(&mut self, node: NodeId) -> &mut NodeActor {
        let actor = self.actor_of(node);
        self.eng.actor_mut::<NodeActor>(actor).expect("node actor")
    }

    /// Borrow a service hosted on a node.
    pub fn service<T: Service>(&self, node: NodeId, slot: ServiceSlot) -> &T {
        self.node(node)
            .service::<T>(slot)
            .expect("service downcast")
    }

    pub fn service_mut<T: Service>(&mut self, node: NodeId, slot: ServiceSlot) -> &mut T {
        self.node_mut(node)
            .service_mut::<T>(slot)
            .expect("service downcast")
    }

    pub fn recorder(&self) -> &fgmon_sim::Recorder {
        self.eng.recorder()
    }

    /// Snapshot of the fabric's frame counters (including fault decisions).
    pub fn fabric_stats(&self) -> fgmon_net::FabricStats {
        self.eng
            .actor::<Fabric>(self.fabric)
            .expect("fabric actor")
            .stats
    }

    /// Zero the fabric's frame counters so a follow-up `run_for` segment
    /// measures only itself (the fault plan and its RNG are untouched).
    pub fn reset_fabric_stats(&mut self) {
        self.eng
            .actor_mut::<Fabric>(self.fabric)
            .expect("fabric actor")
            .reset_stats();
    }

    /// Snapshot of the torn-read sanitizer's findings. Returns a default
    /// (mode `Off`, all counters zero) report when the sanitizer was not
    /// enabled for this cluster.
    pub fn race_report(&self) -> RaceReport {
        match &self.race {
            Some(race) => race.borrow().report().clone(),
            None => RaceReport::default(),
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}
