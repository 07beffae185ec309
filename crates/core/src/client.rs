//! Front-end side: the monitoring client that pulls (or receives) load
//! information from every back-end.
//!
//! [`MonitorClient`] is a *component*, not a service: the standalone
//! micro-benchmark poller ([`crate::frontend::MonitorFrontendService`])
//! and the load-balancing dispatcher both embed one and forward their OS
//! callbacks to it. This mirrors the paper's architecture, where the
//! front-end monitoring process feeds whatever policy consumes the load
//! information.
//!
//! Polling is *pipelined*: the front-end fires a request every interval
//! regardless of whether earlier ones have been answered (bounded by
//! [`MonitorClient::max_outstanding`], the socket-buffer budget). An
//! overloaded back-end therefore accumulates a backlog of monitoring work
//! — the mechanism behind the paper's Figs. 3 and 8 degradations.
//!
//! Accuracy bookkeeping follows the paper's Fig. 5 semantics: a reply
//! stands in for the load "when the front-end asked", so reported-value
//! series are timestamped at *request* time. A slow capture path then
//! shows up directly as deviation from the ground-truth series.

use std::collections::BTreeMap;

use fgmon_os::OsApi;
use fgmon_sim::{HistogramId, Recorder, SeriesId, SimTime};
use fgmon_types::{
    BreakerConfig, BreakerEvent, BreakerState, ChannelHealthStats, CircuitBreaker, ConnId,
    FenceGate, FenceVerdict, LoadSnapshot, NodeId, Payload, RdmaResult, RecordFence, RegionData,
    RegionId, ReplyOutcome, RetryPolicy, RetryTracker, Scheme, TimeoutAction,
};

use crate::backend::MONITOR_GROUP;

/// Token namespace for this component's RDMA work requests:
/// `BASE | idx << 32 | seq`, with the back-end index in 16 bits, the
/// width of a [`NodeId`].
pub const MON_TOKEN_BASE: u64 = 0x4D4F_0000_0000_0000;
const MON_TOKEN_MASK: u64 = 0xFFFF_0000_0000_0000;

/// How the front-end reaches one back-end.
#[derive(Clone, Copy, Debug)]
pub struct BackendHandle {
    pub node: NodeId,
    /// Socket connection (socket schemes).
    pub conn: Option<ConnId>,
    /// Registered region (RDMA schemes).
    pub region: Option<RegionId>,
}

/// The front-end's current knowledge about one back-end.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendView {
    pub latest: Option<LoadSnapshot>,
    pub received_at: Option<SimTime>,
    /// Requests currently in flight.
    pub outstanding: u32,
    pub polls: u64,
    pub replies: u64,
    /// Poll rounds skipped because the in-flight budget was exhausted.
    pub skipped: u64,
    pub denied: u64,
    /// Polls that exceeded the retry policy's deadline.
    pub timed_out: u64,
    /// Retry attempts issued after timeouts.
    pub retries: u64,
    /// Poll cycles abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Replies that arrived after their request had timed out (ignored,
    /// never double-counted).
    pub late_ignored: u64,
    /// The back-end has exceeded the policy's consecutive-failure limit
    /// and should not be routed to until a reply re-admits it.
    pub unreachable: bool,
}

impl BackendView {
    /// Age of the information at `now`, measured from when the *back-end*
    /// produced it (staleness the dispatcher actually suffers).
    pub fn info_age(&self, now: SimTime) -> Option<fgmon_sim::SimDuration> {
        self.latest.map(|s| now.since(s.measured_at))
    }
}

/// Per-backend in-flight tracking. Every request carries a correlation
/// id (socket replies echo it in the payload; RDMA completions carry it
/// in the token), so matching is exact even under loss and reordering.
/// The tracker's rows hold each request's send time for latency
/// accounting.
struct Inflight {
    tracker: RetryTracker,
    next_seq: u32,
}

impl Inflight {
    fn new(policy: RetryPolicy) -> Self {
        Inflight {
            tracker: RetryTracker::new(policy),
            next_seq: 0,
        }
    }

    fn count(&self) -> usize {
        self.tracker.outstanding()
    }
}

/// A retry waiting out its backoff before being re-issued.
#[derive(Clone, Copy, Debug)]
struct PendingRetry {
    idx: usize,
    attempt: u32,
    not_before: SimTime,
}

/// Per-backend channel-health state: the circuit breaker deciding which
/// path polls take, the epoch fence rejecting pre-restart records, and
/// the transition counters.
struct Channel {
    /// `None` when the breaker is disabled (legacy behaviour: the primary
    /// path is always used).
    breaker: Option<CircuitBreaker>,
    fence: FenceGate,
    health: ChannelHealthStats,
}

impl Channel {
    fn new(breaker: Option<BreakerConfig>) -> Self {
        Channel {
            breaker: breaker.map(CircuitBreaker::new),
            fence: FenceGate::default(),
            health: ChannelHealthStats::default(),
        }
    }
}

/// Pull/receive load information from a set of back-ends using one scheme.
pub struct MonitorClient {
    scheme: Scheme,
    want_detail: bool,
    backends: Vec<BackendHandle>,
    views: Vec<BackendView>,
    inflight: Vec<Inflight>,
    conn_to_idx: BTreeMap<ConnId, usize>,
    node_to_idx: BTreeMap<NodeId, usize>,
    /// Local buffers the back-ends push into (RDMA-write-push scheme),
    /// indexed by backend; registered in [`MonitorClient::start`].
    local_regions: Vec<Option<RegionId>>,
    /// Timeout/retry policy applied to every poll ([`RetryPolicy::OFF`]
    /// by default: legacy wait-forever behaviour).
    policy: RetryPolicy,
    /// Correlation-id counter for socket requests (0 is reserved for
    /// "untracked", as used by foreign clients like gmetad).
    next_req: u64,
    /// Retries waiting out their backoff.
    pending_retries: Vec<PendingRetry>,
    /// Scratch buffers reused by [`MonitorClient::check_timeouts`].
    timeout_scratch: Vec<TimeoutAction>,
    retry_scratch: Vec<PendingRetry>,
    /// Per-backend channel-health state (breaker + fence + counters).
    channels: Vec<Channel>,
    /// In-flight request budget per back-end (socket-buffer model).
    pub max_outstanding: usize,
    /// Push per-backend reported-value series into the recorder (accuracy
    /// experiments); off by default to keep large runs lean.
    pub record_series: bool,
    /// Interned latency/staleness histogram handles, set by
    /// [`MonitorClient::start`].
    lat_id: Option<HistogramId>,
    stale_id: Option<HistogramId>,
    /// Per-backend interned series handles, parallel to `backends`.
    series_ids: Vec<Option<MonSeriesIds>>,
    /// Scratch buffer for coalescing one poll round's RDMA reads into a
    /// single doorbell batch (capacity persists across rounds).
    batch_scratch: Vec<(NodeId, RegionId, u64)>,
    /// Seeded canary mutation for validating the chaos harness: the
    /// client stops deduplicating late and echoed socket replies (the
    /// retry tracker's verdict is overridden in `on_packet`), and the
    /// first provably stale record that consequently reaches the gate
    /// is waved through the fence exactly once. The stale-admission
    /// cross-check in [`MonitorClient::admit_fenced`] is *not*
    /// disabled, so the bug is observable as a `fence_regressions`
    /// increment — which the chaos search must find and shrink.
    #[cfg(feature = "chaos-canary")]
    canary_spent: bool,
}

/// Interned handles for one back-end's reported-value series; formatted
/// once per backend instead of once per accepted reply.
#[derive(Clone, Copy)]
struct MonSeriesIds {
    nthreads: SeriesId,
    cpu_util: SeriesId,
    run_queue: SeriesId,
    pending_irqs: SeriesId,
    pending_cpu: [SeriesId; 2],
    irq_total_cpu: [SeriesId; 2],
}

impl MonitorClient {
    pub fn new(scheme: Scheme, want_detail: bool, backends: Vec<BackendHandle>) -> Self {
        let views = vec![BackendView::default(); backends.len()];
        let series_ids = vec![None; backends.len()];
        let channels = backends.iter().map(|_| Channel::new(None)).collect();
        let inflight = backends
            .iter()
            .map(|_| Inflight::new(RetryPolicy::OFF))
            .collect();
        let conn_to_idx = backends
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.conn.map(|c| (c, i)))
            .collect();
        let node_to_idx = backends
            .iter()
            .enumerate()
            .map(|(i, b)| (b.node, i))
            .collect();
        MonitorClient {
            scheme,
            want_detail,
            backends,
            views,
            inflight,
            conn_to_idx,
            node_to_idx,
            local_regions: Vec::new(),
            policy: RetryPolicy::OFF,
            next_req: 0,
            pending_retries: Vec::new(),
            timeout_scratch: Vec::new(),
            retry_scratch: Vec::new(),
            channels,
            max_outstanding: 16,
            record_series: false,
            lat_id: None,
            stale_id: None,
            series_ids,
            batch_scratch: Vec::new(),
            #[cfg(feature = "chaos-canary")]
            canary_spent: false,
        }
    }

    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Install a timeout/retry policy. Resets per-backend retry state;
    /// call before the first poll.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
        for fl in &mut self.inflight {
            *fl = Inflight::new(policy);
        }
        self.pending_retries.clear();
    }

    /// Install the channel-health circuit breaker (one per backend).
    /// Only meaningful for the one-sided schemes — socket schemes have no
    /// lower rung to fall back to. Resets breaker state; call before the
    /// first poll.
    pub fn set_breaker(&mut self, cfg: BreakerConfig) {
        for ch in &mut self.channels {
            ch.breaker = Some(CircuitBreaker::new(cfg));
        }
    }

    /// Breaker state of backend `idx` (`None` when the breaker is
    /// disabled).
    pub fn breaker_state(&self, idx: usize) -> Option<BreakerState> {
        self.channels
            .get(idx)
            .and_then(|c| c.breaker.as_ref())
            .map(|b| b.state())
    }

    /// Channel-health counters of backend `idx`.
    pub fn health_of(&self, idx: usize) -> &ChannelHealthStats {
        &self.channels[idx].health
    }

    /// Channel-health counters summed over every backend.
    pub fn health_total(&self) -> ChannelHealthStats {
        let mut total = ChannelHealthStats::default();
        for ch in &self.channels {
            total.merge(&ch.health);
        }
        total
    }

    /// Newest boot generation accepted from backend `idx` (fenced
    /// schemes; `None` before the first fenced record).
    pub fn generation_of(&self, idx: usize) -> Option<u32> {
        self.channels[idx].fence.latest().map(|f| f.generation)
    }

    /// Is backend `idx` currently being polled over the fallback socket
    /// path?
    pub fn on_fallback(&self, idx: usize) -> bool {
        self.scheme.is_one_sided()
            && matches!(self.breaker_state(idx), Some(BreakerState::Open { .. }))
    }

    /// Feed a primary-path failure signal into the breaker.
    fn note_failure(&mut self, idx: usize, os: &mut OsApi<'_, '_>) {
        let Some(br) = &mut self.channels[idx].breaker else {
            return;
        };
        let now = os.now();
        // Seeded cool-down jitter (same convention as the poll timers):
        // deterministic per seed, decorrelated across backends.
        let jitter = 0.9 + 0.2 * os.rng().f64();
        match br.on_failure(now, jitter) {
            BreakerEvent::Tripped => self.channels[idx].health.trips += 1,
            BreakerEvent::Reopened => self.channels[idx].health.reopens += 1,
            _ => {}
        }
    }

    /// Feed a primary-path success signal into the breaker.
    fn note_success(&mut self, idx: usize, os: &mut OsApi<'_, '_>) {
        let Some(br) = &mut self.channels[idx].breaker else {
            return;
        };
        if br.on_success(os.now()) == BreakerEvent::Restored {
            self.channels[idx].health.restorations += 1;
        }
    }

    pub fn backend_count(&self) -> usize {
        self.backends.len()
    }

    /// Node id of the i-th backend.
    pub fn backend_node(&self, idx: usize) -> NodeId {
        self.backends[idx].node
    }

    pub fn views(&self) -> &[BackendView] {
        &self.views
    }

    pub fn view_of(&self, node: NodeId) -> Option<&BackendView> {
        self.node_to_idx.get(&node).map(|&i| &self.views[i])
    }

    /// Wire up listening state. Call from the embedding service's
    /// `on_start`.
    ///
    /// For the RDMA-write-push scheme this registers one writable local
    /// buffer per back-end, in backend order — the builder convention the
    /// back-ends' `push_target` configuration relies on.
    pub fn start(&mut self, os: &mut OsApi<'_, '_>) {
        for b in &self.backends {
            if let Some(conn) = b.conn {
                os.listen_direct(conn);
            }
        }
        if self.scheme == Scheme::McastPush {
            os.subscribe_mcast(MONITOR_GROUP);
        }
        if self.scheme == Scheme::RdmaWritePush {
            self.local_regions = (0..self.backends.len())
                .map(|_| Some(os.register_user_region(true)))
                .collect();
        }
        self.intern_metrics(os.recorder());
    }

    /// Intern every metric handle this client will ever record into.
    /// Runs from [`MonitorClient::start`], after the embedder has decided
    /// `record_series`, so the steady-state reply path is free of key
    /// formatting.
    pub fn intern_metrics(&mut self, r: &mut Recorder) {
        let label = self.scheme.label();
        self.lat_id
            .get_or_insert_with(|| r.histogram_id(&format!("mon/latency/{label}")));
        self.stale_id
            .get_or_insert_with(|| r.histogram_id(&format!("mon/staleness/{label}")));
        if self.record_series {
            for (idx, b) in self.backends.iter().enumerate() {
                let node = b.node;
                self.series_ids[idx].get_or_insert_with(|| MonSeriesIds {
                    nthreads: r.series_id(&format!("mon/{label}/{node}/nthreads")),
                    cpu_util: r.series_id(&format!("mon/{label}/{node}/cpu_util")),
                    run_queue: r.series_id(&format!("mon/{label}/{node}/run_queue")),
                    pending_irqs: r.series_id(&format!("mon/{label}/{node}/pending_irqs")),
                    pending_cpu: [0, 1].map(|cpu| {
                        r.series_id(&format!("mon/{label}/{node}/pending_irqs_cpu{cpu}"))
                    }),
                    irq_total_cpu: [0, 1]
                        .map(|cpu| r.series_id(&format!("mon/{label}/{node}/irq_total_cpu{cpu}"))),
                });
            }
        }
    }

    /// The local buffer registered for the i-th backend (push scheme).
    pub fn local_region(&self, idx: usize) -> Option<RegionId> {
        self.local_regions.get(idx).copied().flatten()
    }

    /// Issue one round of load requests (no-op for the push scheme).
    ///
    /// Requests pipeline: a new one is fired even while earlier ones are
    /// outstanding, up to [`MonitorClient::max_outstanding`].
    pub fn poll_all(&mut self, os: &mut OsApi<'_, '_>) {
        if self.scheme == Scheme::McastPush {
            return;
        }
        if self.scheme == Scheme::RdmaWritePush {
            // The back-ends push into our local buffers; a poll round is a
            // free local-memory read of each.
            for idx in 0..self.backends.len() {
                let Some(region) = self.local_region(idx) else {
                    continue;
                };
                if let Some(snap) = os.read_local_region(region) {
                    if !snap.checksum_ok() {
                        // The pushed record was bit-corrupted in flight and
                        // DMA'd into our buffer as-is; the stale seal is
                        // detected at read time.
                        self.channels[idx].health.corrupt_rejected += 1;
                        continue;
                    }
                    let fresh = self.views[idx]
                        .latest
                        .map(|old| old.measured_at != snap.measured_at)
                        .unwrap_or(true);
                    if fresh {
                        self.accept(idx, snap, None, os);
                    }
                }
            }
            return;
        }
        // Coalesce the round's RDMA reads into one doorbell batch
        // (RDMAbox-style request merging): the NIC charges a single post
        // for the list instead of one per backend. Socket polls and
        // breaker-fallback polls still go out inline.
        let mut batch = std::mem::take(&mut self.batch_scratch);
        batch.clear();
        for idx in 0..self.backends.len() {
            if self.inflight[idx].count() >= self.max_outstanding {
                self.views[idx].skipped += 1;
                continue;
            }
            self.views[idx].polls += 1;
            self.issue_poll_to(idx, 0, os, Some(&mut batch));
        }
        match batch.len() {
            0 => {}
            // A lone read gains nothing from the batch path; keep the
            // single-post shape (and its stats) identical to before.
            1 => {
                let (node, region, token) = batch[0];
                os.rdma_read(node, region, token);
            }
            _ => os.rdma_read_batch(&batch),
        }
        batch.clear();
        self.batch_scratch = batch;
    }

    /// Send one poll request to backend `idx`; `attempt > 0` marks a retry
    /// promised by a [`TimeoutAction::Retry`].
    ///
    /// One-sided schemes consult the per-backend breaker: while it is
    /// open, polls divert to the fallback socket path (Socket-Async
    /// semantics over the same connection); once the cool-down elapses
    /// the next poll doubles as the half-open probe over the primary
    /// RDMA path. Only primary-path completions can close the breaker.
    fn issue_poll(&mut self, idx: usize, attempt: u32, os: &mut OsApi<'_, '_>) {
        self.issue_poll_to(idx, attempt, os, None);
    }

    /// [`issue_poll`](Self::issue_poll), optionally deferring an RDMA
    /// read into `batch` for a coalesced doorbell post by the caller.
    fn issue_poll_to(
        &mut self,
        idx: usize,
        attempt: u32,
        os: &mut OsApi<'_, '_>,
        batch: Option<&mut Vec<(NodeId, RegionId, u64)>>,
    ) {
        let now = os.now();
        let b = self.backends[idx];
        let use_rdma = if self.scheme.is_one_sided() {
            match &mut self.channels[idx].breaker {
                Some(br) => {
                    let (primary, probe) = br.allow_primary(now);
                    if primary {
                        if probe {
                            self.channels[idx].health.probes += 1;
                        }
                        true
                    } else if b.conn.is_some() {
                        self.channels[idx].health.fallback_polls += 1;
                        false
                    } else {
                        // Nothing to fall back to: keep hitting the
                        // primary path rather than going silent.
                        true
                    }
                }
                None => true,
            }
        } else {
            false
        };
        let req = if use_rdma {
            let region = b.region.expect("RDMA scheme needs a region");
            let seq = self.inflight[idx].next_seq;
            self.inflight[idx].next_seq = seq.wrapping_add(1);
            let token = MON_TOKEN_BASE | ((idx as u64) << 32) | seq as u64;
            match batch {
                Some(buf) => buf.push((b.node, region, token)),
                None => os.rdma_read(b.node, region, token),
            }
            token
        } else {
            let conn = b.conn.expect("socket path needs a connection");
            self.next_req += 1;
            let req = self.next_req;
            os.send_direct(
                conn,
                Payload::MonitorRequest {
                    scheme: self.scheme,
                    want_detail: self.want_detail,
                    req,
                },
            );
            req
        };
        if attempt == 0 {
            self.inflight[idx].tracker.begin(req, now);
        } else {
            self.inflight[idx].tracker.begin_retry(req, attempt, now);
        }
        self.sync_view(idx);
    }

    /// Expire overdue polls and issue any retries whose backoff has
    /// elapsed. Embedding services call this from their poll timer, so
    /// timeout resolution is the poll interval. No-op with
    /// [`RetryPolicy::OFF`].
    pub fn check_timeouts(&mut self, os: &mut OsApi<'_, '_>) {
        if !self.policy.enabled() || self.scheme == Scheme::McastPush {
            return;
        }
        let now = os.now();
        let mut actions = std::mem::take(&mut self.timeout_scratch);
        for idx in 0..self.backends.len() {
            actions.clear();
            self.inflight[idx]
                .tracker
                .poll_timeouts_into(now, &mut actions);
            for &action in &actions {
                match action {
                    TimeoutAction::Retry {
                        attempt, backoff, ..
                    } => {
                        self.pending_retries.push(PendingRetry {
                            idx,
                            attempt,
                            not_before: now + backoff,
                        });
                    }
                    TimeoutAction::GiveUp { req } => {
                        // Only primary-path (RDMA-token) give-ups judge the
                        // primary channel; a fallback socket give-up says
                        // nothing about the RDMA path.
                        if req & MON_TOKEN_MASK == MON_TOKEN_BASE {
                            self.note_failure(idx, os);
                        }
                    }
                }
            }
            self.sync_view(idx);
        }
        self.timeout_scratch = actions;
        // Split out the retries whose backoff has elapsed, preserving
        // order on both sides (issue order is part of the deterministic
        // event schedule).
        let mut due = std::mem::take(&mut self.retry_scratch);
        due.clear();
        self.pending_retries.retain(|p| {
            if p.not_before <= now {
                due.push(*p);
                false
            } else {
                true
            }
        });
        for p in &due {
            self.issue_poll(p.idx, p.attempt, os);
        }
        self.retry_scratch = due;
    }

    /// Mirror the tracker's counters into the public view.
    fn sync_view(&mut self, idx: usize) {
        let t = &self.inflight[idx].tracker;
        let v = &mut self.views[idx];
        v.outstanding = t.outstanding() as u32;
        v.timed_out = t.timed_out;
        v.retries = t.retries;
        v.gave_up = t.gave_up;
        v.late_ignored = t.late_ignored;
        v.unreachable = t.is_unreachable();
    }

    /// Run one fenced admission, maintaining the stale/advance counters
    /// and the stale-admission cross-check: independently of the gate's
    /// verdict, re-derive "is this record's generation behind the gate's
    /// high-water mark?" at the moment of admission and count violations
    /// in `fence_regressions`. In a correct build the counter is zero by
    /// construction (any verdict other than `StaleGeneration` implies
    /// the generation is at or above the high-water mark), which is
    /// exactly what makes it a chaos-search invariant: a mutation that
    /// bypasses the verdict cannot bypass the cross-check.
    fn admit_fenced(&mut self, idx: usize, fence: RecordFence) -> FenceVerdict {
        let high_water = self.channels[idx].fence.latest().map(|l| l.generation);
        // lint: allow-attr — `mut` is only exercised by the chaos-canary feature below
        #[allow(unused_mut)]
        let mut verdict = self.channels[idx].fence.admit(fence);
        #[cfg(feature = "chaos-canary")]
        if verdict == FenceVerdict::StaleGeneration && !self.canary_spent {
            // The seeded bug: wave one stale record through the gate.
            self.canary_spent = true;
            verdict = FenceVerdict::Admitted;
        }
        match verdict {
            FenceVerdict::StaleGeneration => {
                self.channels[idx].health.stale_gen_rejected += 1;
            }
            v => {
                if v == FenceVerdict::GenerationAdvanced {
                    self.channels[idx].health.generation_advances += 1;
                }
                if high_water.is_some_and(|g| fence.generation < g) {
                    self.channels[idx].health.fence_regressions += 1;
                }
            }
        }
        verdict
    }

    fn accept(
        &mut self,
        idx: usize,
        snap: LoadSnapshot,
        sent: Option<SimTime>,
        os: &mut OsApi<'_, '_>,
    ) {
        const INTERNED: &str = "start interns the metric handles";
        let now = os.now();
        let r = os.recorder();
        if let Some(sent) = sent {
            let lat = self.lat_id.expect(INTERNED);
            r.histogram_at(lat).record(now.since(sent).nanos());
        }
        let stale = self.stale_id.expect(INTERNED);
        r.histogram_at(stale)
            .record(now.since(snap.measured_at).nanos());
        if self.record_series {
            // Fig. 5 semantics: the reply answers "what was the load when I
            // asked" — timestamp reported values at request time.
            let at = sent.unwrap_or(now);
            let ids = self.series_ids[idx].expect(INTERNED);
            r.series_at(ids.nthreads).push(at, snap.nthreads as f64);
            r.series_at(ids.cpu_util).push(at, snap.cpu_util);
            r.series_at(ids.run_queue).push(at, snap.run_queue as f64);
            r.series_at(ids.pending_irqs)
                .push(at, snap.pending_irqs_total() as f64);
            for (cpu, &p) in snap.pending_irqs.iter().enumerate().take(2) {
                r.series_at(ids.pending_cpu[cpu]).push(at, p as f64);
            }
            for (cpu, &t) in snap.irq_total.iter().enumerate().take(2) {
                r.series_at(ids.irq_total_cpu[cpu]).push(at, t as f64);
            }
        }
        self.views[idx].latest = Some(snap);
        self.views[idx].received_at = Some(now);
        self.views[idx].replies += 1;
        self.views[idx].outstanding = self.inflight[idx].count() as u32;
    }

    /// Feed a packet; returns true when consumed.
    pub fn on_packet(&mut self, conn: ConnId, payload: &Payload, os: &mut OsApi<'_, '_>) -> bool {
        match payload {
            Payload::MonitorReply { snap, req, fence } => {
                let Some(&idx) = self.conn_to_idx.get(&conn) else {
                    return false;
                };
                let sent = self.inflight[idx].tracker.sent_at(*req);
                let outcome = self.inflight[idx].tracker.on_reply(*req);
                // The canary bug's production half: late and duplicate
                // replies are no longer ignored, so a pre-restart
                // straggler (reordered or echoed past the backend's
                // crash window) reaches the fence — whose own canary
                // half in `admit_fenced` waves the first stale
                // generation through.
                #[cfg(feature = "chaos-canary")]
                let outcome =
                    if matches!(outcome, ReplyOutcome::LateIgnored | ReplyOutcome::Unknown) {
                        ReplyOutcome::Accepted
                    } else {
                        outcome
                    };
                match outcome {
                    ReplyOutcome::Accepted => {
                        if !snap.checksum_ok() {
                            // Bit-corrupted in flight: the seal no longer
                            // matches the content. Never admitted — and the
                            // fence never sees it, so a corrupt fence field
                            // can't poison the gate either.
                            self.channels[idx].health.corrupt_rejected += 1;
                        } else if self.admit_fenced(idx, *fence) != FenceVerdict::StaleGeneration {
                            self.accept(idx, **snap, sent, os);
                        }
                        // A pre-restart straggler is provably stale, never
                        // admitted into the view (counted by admit_fenced).
                    }
                    // Late or unknown replies are counted by the tracker and
                    // dropped — never double-counted into the view.
                    ReplyOutcome::LateIgnored | ReplyOutcome::Unknown => {}
                }
                self.sync_view(idx);
                true
            }
            Payload::RegionAdvertise {
                region, generation, ..
            } => {
                let Some(&idx) = self.conn_to_idx.get(&conn) else {
                    return false;
                };
                // Re-registration handshake: re-pin the handle to the
                // freshly registered region and fence out the old
                // generation.
                self.backends[idx].region = Some(*region);
                let ch = &mut self.channels[idx];
                ch.health.repins += 1;
                let verdict = ch.fence.admit(RecordFence {
                    generation: *generation,
                    seq: 0,
                });
                if verdict == FenceVerdict::GenerationAdvanced {
                    ch.health.generation_advances += 1;
                }
                // The backend itself says the channel is back: probe the
                // primary path immediately instead of waiting out the
                // cool-down.
                if let Some(br) = &mut ch.breaker {
                    br.nudge_probe();
                }
                true
            }
            _ => false,
        }
    }

    /// Feed an RDMA completion; returns true when consumed.
    pub fn on_rdma_complete(
        &mut self,
        token: u64,
        result: &RdmaResult,
        os: &mut OsApi<'_, '_>,
    ) -> bool {
        if token & MON_TOKEN_MASK != MON_TOKEN_BASE {
            return false;
        }
        let idx = ((token >> 32) & 0xFFFF) as usize;
        if idx >= self.backends.len() {
            return false;
        }
        let sent = self.inflight[idx].tracker.sent_at(token);
        match self.inflight[idx].tracker.on_reply(token) {
            ReplyOutcome::Accepted => match result {
                RdmaResult::ReadOk { data, fence } => {
                    if matches!(data, RegionData::Snapshot(s) if !s.checksum_ok()) {
                        // Bit-corrupted on the data leg: reject the record
                        // and judge the channel — a NIC serving garbage is
                        // a sick channel, not a healthy one.
                        self.channels[idx].health.corrupt_rejected += 1;
                        self.note_failure(idx, os);
                    } else if self.admit_fenced(idx, *fence) == FenceVerdict::StaleGeneration {
                        // A read served from a pre-restart registration
                        // that raced the generation bump: reject it and
                        // judge the channel.
                        self.note_failure(idx, os);
                    } else {
                        if let RegionData::Snapshot(snap) = data {
                            self.accept(idx, **snap, sent, os);
                        }
                        self.note_success(idx, os);
                    }
                }
                RdmaResult::AccessDenied => {
                    self.views[idx].denied += 1;
                    self.note_failure(idx, os);
                }
                RdmaResult::RegionInvalidated => {
                    // The backend restarted: its old registration is dead.
                    self.channels[idx].health.region_invalidated += 1;
                    self.note_failure(idx, os);
                    // Backstop handshake: ask where the region lives now.
                    // (The backend's own restart advertisement usually wins
                    // the race; the query covers advertisements lost to
                    // faults, answered when a standby reporter runs.)
                    if let Some(conn) = self.backends[idx].conn {
                        self.next_req += 1;
                        let req = self.next_req;
                        os.send_direct(conn, Payload::RegionQuery { req });
                    }
                }
                RdmaResult::WriteOk => {}
                // The monitoring client never posts atomics; a CAS
                // completion here means a token collision with some
                // lock-service tenant — count it against the channel
                // rather than silently accepting foreign data.
                RdmaResult::CasOk { .. } => {
                    self.views[idx].denied += 1;
                    self.note_failure(idx, os);
                }
            },
            // A completion for a request we already timed out: ignore the
            // data so it can't be counted twice.
            ReplyOutcome::LateIgnored | ReplyOutcome::Unknown => {}
        }
        self.sync_view(idx);
        true
    }

    /// Feed a multicast status push; returns true when consumed.
    pub fn on_mcast(&mut self, payload: &Payload, os: &mut OsApi<'_, '_>) -> bool {
        let Payload::StatusPush { origin, snap } = payload else {
            return false;
        };
        let Some(&idx) = self.node_to_idx.get(origin) else {
            return false;
        };
        // Multicast bodies are Arc-shared and never mutated in flight,
        // but the check is one compare and keeps the admission rule
        // uniform: no record with a broken seal enters a view.
        if !snap.checksum_ok() {
            self.channels[idx].health.corrupt_rejected += 1;
            return true;
        }
        self.accept(idx, **snap, None, os);
        true
    }
}
