//! The dispatcher service hosted on the front-end node.
//!
//! Receives client requests, consults the embedded [`MonitorClient`] for
//! the latest per-back-end load information, picks a server with the
//! configured [`Policy`], forwards the request, and relays the response
//! back to the client. Optionally applies admission control: when even the
//! least-loaded server exceeds the overload threshold, the request is
//! rejected immediately.

use std::collections::BTreeSet;

use fgmon_core::{BackendHandle, MonitorClient};

use crate::reconfig::{Reconfigurator, ServiceClass};
use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{
    BreakerConfig, ConnId, LoadWeights, McastGroup, NodeCapacity, NodeId, Payload, RdmaResult,
    RetryPolicy, Scheme, SharedPayload, ThreadId,
};

const TOK_POLL: u64 = 0xD15B_0001;

/// Server-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The paper's WebSphere-style policy: servers receive traffic in
    /// proportion to how much *less* loaded than the most-loaded server
    /// their weighted index says they are (weighted routing, not hard
    /// argmin — hard argmin on stale information herds every request of a
    /// monitoring interval onto one machine).
    WeightedLeastLoad,
    /// Hard argmin on the same index (ablation: shows the herding
    /// pathology that weighted routing avoids).
    ArgminLeastLoad,
    /// Rotate across back-ends regardless of load.
    RoundRobin,
    /// Pick the back-end with the fewest dispatcher-tracked in-flight
    /// requests (load oblivious to monitoring freshness).
    LeastOutstanding,
    /// Uniform random.
    Random,
}

/// Dispatcher configuration.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherConfig {
    pub scheme: Scheme,
    pub poll_interval: SimDuration,
    pub policy: Policy,
    pub weights: LoadWeights,
    pub capacity: NodeCapacity,
    /// Reject requests when the best load index exceeds this (None = admit
    /// everything).
    pub admission_threshold: Option<f64>,
    /// Weight of the dispatcher's *locally tracked* in-flight count in the
    /// index (the "connection load" part of the WebSphere formula the
    /// dispatcher knows first-hand). Damps herd oscillations when the
    /// monitored information is stale.
    pub local_conn_weight: f64,
    /// Exclude a back-end from routing while its monitored information is
    /// older than this (None = route on arbitrarily stale views). A
    /// back-end with no information yet is *not* excluded — retry
    /// accounting, not staleness, handles the never-answered case.
    pub max_info_age: Option<SimDuration>,
    /// Timeout/retry policy for the embedded monitor. With a finite
    /// policy, back-ends that stop answering are marked unreachable and
    /// leave the routing rotation until a reply re-admits them.
    pub retry: RetryPolicy,
    /// Per-back-end circuit breaker for the monitor's primary (RDMA)
    /// channel. When set, a tripped channel falls back to socket polling
    /// for that back-end only and periodically probes the RDMA path.
    pub breaker: Option<BreakerConfig>,
}

impl DispatcherConfig {
    pub fn for_scheme(scheme: Scheme, poll_interval: SimDuration) -> Self {
        let weights = if scheme.uses_irq_signal() {
            LoadWeights::with_irq_signal()
        } else {
            LoadWeights::default()
        };
        DispatcherConfig {
            scheme,
            poll_interval,
            policy: Policy::WeightedLeastLoad,
            weights,
            capacity: NodeCapacity::default(),
            admission_threshold: None,
            local_conn_weight: 0.0,
            max_info_age: None,
            retry: RetryPolicy::OFF,
            breaker: None,
        }
    }
}

/// Observable dispatcher statistics.
#[derive(Clone, Debug, Default)]
pub struct DispatcherStats {
    pub forwarded: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Requests forwarded per back-end (routing shares).
    pub per_backend: Vec<u64>,
    /// Back-end exclusions from routing decisions (stale information or
    /// unreachable), summed over decisions.
    pub degraded_exclusions: u64,
}

struct Pending {
    client_conn: ConnId,
    client_req_id: u64,
    backend_idx: usize,
}

/// The front-end dispatcher service.
pub struct Dispatcher {
    cfg: DispatcherConfig,
    pub monitor: MonitorClient,
    backends: Vec<(NodeId, ConnId)>,
    backend_conn_set: BTreeSet<ConnId>,
    client_conns: Vec<ConnId>,
    /// Outstanding forwarded requests as `(fe_id, pending)` rows. Bounded
    /// by the closed-loop session count, so a linear scan beats map node
    /// churn on the per-request hot path; the Vec keeps its capacity, so
    /// steady-state forwarding never allocates.
    inflight: Vec<(u64, Pending)>,
    outstanding: Vec<u32>,
    /// Routing scratch buffers reused across `choose` calls.
    cand_scratch: Vec<usize>,
    weight_scratch: Vec<f64>,
    next_id: u64,
    rr: usize,
    /// Optional shared-data-center partition manager (paper §7 future
    /// work): when set, requests only go to back-ends assigned to their
    /// service class, and the partition adapts to the monitored load.
    pub reconfig: Option<Reconfigurator>,
    pub stats: DispatcherStats,
}

impl Dispatcher {
    /// `backends`: per back-end, its node id, the conn the dispatcher
    /// forwards requests over, and the monitoring handle.
    pub fn new(
        cfg: DispatcherConfig,
        backends: Vec<(NodeId, ConnId)>,
        monitor_handles: Vec<BackendHandle>,
        client_conns: Vec<ConnId>,
    ) -> Self {
        assert_eq!(backends.len(), monitor_handles.len());
        let n = backends.len();
        let backend_conn_set = backends.iter().map(|&(_, c)| c).collect();
        let mut monitor =
            MonitorClient::new(cfg.scheme, cfg.scheme.uses_irq_signal(), monitor_handles);
        monitor.set_retry_policy(cfg.retry);
        if let Some(breaker) = cfg.breaker {
            monitor.set_breaker(breaker);
        }
        Dispatcher {
            monitor,
            cfg,
            backends,
            backend_conn_set,
            client_conns,
            inflight: Vec::new(),
            outstanding: vec![0; n],
            cand_scratch: Vec::with_capacity(n),
            weight_scratch: Vec::with_capacity(n),
            next_id: 1,
            rr: 0,
            reconfig: None,
            stats: DispatcherStats {
                per_backend: vec![0; n],
                ..Default::default()
            },
        }
    }

    pub fn config(&self) -> &DispatcherConfig {
        &self.cfg
    }

    fn index_of(&self, idx: usize) -> f64 {
        let monitored = match self.monitor.views()[idx].latest {
            Some(snap) => self.cfg.weights.index(&snap, &self.cfg.capacity),
            None => 0.0,
        };
        monitored + self.cfg.local_conn_weight * self.outstanding[idx] as f64
    }

    /// Is back-end `i` eligible for `class` under the current partition?
    /// `class_empty` marks a partition with no back-end for the class, in
    /// which case every back-end is eligible (all of them are when
    /// reconfiguration is off).
    fn eligible(&self, i: usize, class: ServiceClass, class_empty: bool) -> bool {
        match &self.reconfig {
            Some(r) if !class_empty => r.class_of(i) == class,
            _ => true,
        }
    }

    /// A back-end is routable while it is reachable and its monitored
    /// information is fresh enough (see [`DispatcherConfig::max_info_age`]).
    fn healthy(&self, idx: usize, now: SimTime) -> bool {
        let v = &self.monitor.views()[idx];
        if v.unreachable {
            return false;
        }
        match (self.cfg.max_info_age, v.info_age(now)) {
            (Some(limit), Some(age)) => age <= limit,
            _ => true,
        }
    }

    /// Pick a back-end for the next request; `None` means reject.
    /// Candidate and weight buffers live on the dispatcher so steady-state
    /// routing never allocates.
    fn choose(&mut self, class: ServiceClass, os: &mut OsApi<'_, '_>) -> Option<usize> {
        let now = os.now();
        let class_empty = match &self.reconfig {
            Some(r) => !(0..self.backends.len()).any(|i| r.class_of(i) == class),
            None => false,
        };
        let mut cands = std::mem::take(&mut self.cand_scratch);
        cands.clear();
        let mut eligible_count = 0u64;
        for i in 0..self.backends.len() {
            if self.eligible(i, class, class_empty) {
                eligible_count += 1;
                if self.healthy(i, now) {
                    cands.push(i);
                }
            }
        }
        self.stats.degraded_exclusions += eligible_count - cands.len() as u64;
        // Degraded mode: if *every* candidate looks dead or stale, route on
        // whatever we have rather than rejecting the whole class.
        if cands.is_empty() {
            for i in 0..self.backends.len() {
                if self.eligible(i, class, class_empty) {
                    cands.push(i);
                }
            }
        }
        let n = cands.len();
        if n == 0 {
            self.cand_scratch = cands;
            return None;
        }
        let idx = match self.cfg.policy {
            Policy::RoundRobin => {
                let i = cands[self.rr % n];
                self.rr += 1;
                i
            }
            Policy::Random => cands[os.rng().index(n)],
            Policy::LeastOutstanding => cands
                .iter()
                .copied()
                .min_by_key(|&i| self.outstanding[i])
                .expect("nonempty"),
            Policy::ArgminLeastLoad => {
                // Least index; ties broken round-robin so stale uniform
                // views degrade gracefully rather than pinning server 0.
                let mut best = cands[0];
                let mut best_val = f64::INFINITY;
                for off in 0..n {
                    let i = cands[(self.rr + off) % n];
                    let val = self.index_of(i);
                    if val < best_val {
                        best_val = val;
                        best = i;
                    }
                }
                self.rr += 1;
                best
            }
            Policy::WeightedLeastLoad => {
                // WebSphere-style weighted routing: share of traffic
                // proportional to headroom below the most-loaded server,
                // with a floor so no server leaves the rotation entirely.
                let mut weights = std::mem::take(&mut self.weight_scratch);
                weights.clear();
                weights.extend(cands.iter().map(|&i| self.index_of(i)));
                let max = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let floor = 0.15 * max.max(0.3);
                for w in weights.iter_mut() {
                    *w = (max - *w) + floor;
                }
                let total: f64 = weights.iter().sum();
                let mut draw = os.rng().f64() * total;
                let mut pick = cands[n - 1];
                for (k, &w) in weights.iter().enumerate() {
                    draw -= w;
                    if draw <= 0.0 {
                        pick = cands[k];
                        break;
                    }
                }
                self.weight_scratch = weights;
                pick
            }
        };
        self.cand_scratch = cands;
        if let Some(threshold) = self.cfg.admission_threshold {
            if self.index_of(idx) > threshold {
                return None;
            }
        }
        Some(idx)
    }

    fn handle_client_request(
        &mut self,
        client_conn: ConnId,
        req_id: u64,
        kind: fgmon_types::RequestKind,
        os: &mut OsApi<'_, '_>,
    ) {
        let class = ServiceClass::of_request(&kind);
        match self.choose(class, os) {
            Some(b) => {
                let fe_id = self.next_id;
                self.next_id += 1;
                self.inflight.push((
                    fe_id,
                    Pending {
                        client_conn,
                        client_req_id: req_id,
                        backend_idx: b,
                    },
                ));
                self.outstanding[b] += 1;
                self.stats.forwarded += 1;
                self.stats.per_backend[b] += 1;
                let conn = self.backends[b].1;
                os.send_direct(
                    conn,
                    Payload::HttpRequest {
                        req_id: fe_id,
                        kind,
                    },
                );
            }
            None => {
                // Overloaded cluster: bounce the request (zero-byte reply).
                self.stats.rejected += 1;
                os.recorder().counter("lb/rejected").inc();
                os.send_direct(client_conn, Payload::HttpResponse { req_id, bytes: 0 });
            }
        }
    }

    fn handle_backend_response(&mut self, fe_id: u64, bytes: u32, os: &mut OsApi<'_, '_>) {
        let Some(pos) = self.inflight.iter().position(|&(id, _)| id == fe_id) else {
            return;
        };
        let (_, p) = self.inflight.swap_remove(pos);
        self.outstanding[p.backend_idx] = self.outstanding[p.backend_idx].saturating_sub(1);
        self.stats.completed += 1;
        os.send_direct(
            p.client_conn,
            Payload::HttpResponse {
                req_id: p.client_req_id,
                bytes,
            },
        );
    }
}

impl Service for Dispatcher {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.monitor.start(os);
        for &c in &self.client_conns {
            os.listen_direct(c);
        }
        for &(_, c) in &self.backends {
            os.listen_direct(c);
        }
        os.set_timer(self.cfg.poll_interval, TOK_POLL);
    }

    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_POLL {
            self.monitor.check_timeouts(os);
            self.monitor.poll_all(os);
            if let Some(reconfig) = self.reconfig.as_mut() {
                let views: Vec<_> = self.monitor.views().iter().map(|v| v.latest).collect();
                let now = os.now();
                if reconfig.evaluate(now, &views).is_some() {
                    let dynamic = reconfig.count(ServiceClass::Dynamic) as f64;
                    os.recorder().counter("lb/reconfig_moves").inc();
                    os.recorder()
                        .series("lb/reconfig_dynamic_nodes")
                        .push(now, dynamic);
                }
            }
            // ±10% jitter: see MonitorFrontendService — exact periods
            // phase-lock with the back-ends' tick-aligned threads.
            let jitter = 0.9 + 0.2 * os.rng().f64();
            os.set_timer(self.cfg.poll_interval.mul_f64(jitter), TOK_POLL);
        }
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        if self.monitor.on_packet(conn, &payload, os) {
            return;
        }
        match payload {
            Payload::HttpRequest { req_id, kind } if !self.backend_conn_set.contains(&conn) => {
                self.handle_client_request(conn, req_id, kind, os);
            }
            Payload::HttpResponse { req_id, bytes } if self.backend_conn_set.contains(&conn) => {
                self.handle_backend_response(req_id, bytes, os);
            }
            _ => {}
        }
    }

    fn on_rdma_complete(&mut self, token: u64, result: RdmaResult, os: &mut OsApi<'_, '_>) {
        self.monitor.on_rdma_complete(token, &result, os);
    }

    fn on_mcast(&mut self, _group: McastGroup, payload: SharedPayload, os: &mut OsApi<'_, '_>) {
        self.monitor.on_mcast(&payload, os);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_for_scheme_sets_irq_weights() {
        let c = DispatcherConfig::for_scheme(Scheme::ERdmaSync, SimDuration::from_millis(50));
        assert!(c.weights.irq_penalty > 0.0);
        let c = DispatcherConfig::for_scheme(Scheme::RdmaSync, SimDuration::from_millis(50));
        assert!(c.weights.irq_penalty == 0.0);
        assert_eq!(c.policy, Policy::WeightedLeastLoad);
    }
}
