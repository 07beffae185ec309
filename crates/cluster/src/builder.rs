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

    /// Declare a node pair that exchanges one-sided RDMA verbs without a
    /// registered connection (e.g. lock clients CAS'ing a host's atomic
    /// region). The declaration only weights `Cluster::run_parallel`'s
    /// affinity partition, which then tends to keep the pair on one
    /// shard; an undeclared pair still runs correctly on any shards.
    pub fn declare_rdma_route(&mut self, a: NodeId, b: NodeId) {
        self.fabric.declare_route(a, b);
    }

    /// Install a fault schedule on the fabric. Panics if the plan is
    /// malformed (see [`FaultPlan::validate`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
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
        // Pre-size the engine from the known topology: one actor per node
        // plus the fabric, and an event-pool hint proportional to fan-out
        // (each node keeps a handful of timers, packets, and IRQ events in
        // flight), so steady-state scheduling never grows the queue slab.
        self.eng
            .reserve_capacity(self.nodes.len() + 1, 64 * self.nodes.len().max(1));
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
            plan_cache: None,
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
    /// Shard plan memoized per shard count: the topology (and therefore
    /// the affinity partition) is fixed after `finish`, and rebuilding it
    /// per `run_parallel` segment would put avoidable allocations on the
    /// steady-state path.
    plan_cache: Option<(usize, ShardPlan)>,
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
    /// Bitwise identical to [`Cluster::run_for`]: nodes are grouped
    /// onto shards by communication affinity (a greedy partition of the
    /// fabric's chatter graph, so ring/rack neighbors land together and
    /// most traffic stays shard-local), the one fabric runs each frame
    /// on the shard that posted it, and the window width is the fabric's
    /// minimum cross-shard latency. The chatter graph only shapes the
    /// partition: any partition gives the same run. Falls back to the
    /// sequential engine when fewer than two shards are possible.
    /// Sharding buys no speed on its own (see `fgmon_sim::parallel`); it
    /// exists so the chaos search and the equivalence suites can check
    /// the sharded protocol against the sequential engine.
    pub fn run_parallel(&mut self, dur: SimDuration, shards: usize) -> RunOutcome {
        let lookahead = self
            .eng
            .actor::<Fabric>(self.fabric)
            .expect("fabric actor")
            .lookahead();
        let shards = shards.min(self.nodes.len());
        if shards < 2 || lookahead == SimDuration::ZERO {
            return self.run_for(dur);
        }
        let horizon = self.eng.now() + dur;
        if self.plan_cache.as_ref().is_none_or(|(s, _)| *s != shards) {
            let node_edges: Vec<(usize, usize, u64)> = self
                .eng
                .actor::<Fabric>(self.fabric)
                .expect("fabric actor")
                .chatter_edges()
                .into_iter()
                .map(|(a, b, w)| (a.index(), b.index(), w))
                .collect();
            let groups = ShardPlan::affinity_groups(self.nodes.len(), shards, &node_edges);
            // The fabric's entry is ignored: it belongs to no shard.
            let mut shard_of = vec![0u16; self.eng.actor_count()];
            for (i, actor) in self.nodes.iter().enumerate() {
                shard_of[actor.index()] = groups[i];
            }
            self.plan_cache = Some((shards, ShardPlan::new(shard_of, shards)));
        }
        let plan = &self.plan_cache.as_ref().expect("plan cached above").1;
        run_sharded(&mut self.eng, horizon, lookahead, plan)
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

    /// Active sanitizer mode for this cluster.
    pub fn race_mode(&self) -> RaceMode {
        match &self.race {
            Some(race) => race.borrow().mode(),
            None => RaceMode::Off,
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}
