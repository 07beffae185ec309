//! Standalone front-end monitoring process (the micro-benchmark driver).
//!
//! Periodically polls every back-end with the configured scheme and
//! records latency/staleness/accuracy metrics. The application-level
//! experiments embed [`MonitorClient`] in the dispatcher instead.

use fgmon_os::{OsApi, Service};
use fgmon_sim::SimDuration;
use fgmon_types::{ConnId, McastGroup, Payload, RdmaResult, SharedPayload, ThreadId};

use crate::client::{BackendHandle, MonitorClient};

const TOK_POLL: u64 = 0xF00D_0001;

/// A service that does nothing but run the front-end monitoring loop.
pub struct MonitorFrontendService {
    pub client: MonitorClient,
    poll_interval: SimDuration,
    /// Delay before the first poll (staggers concurrent pollers so their
    /// request traffic is not phase-locked).
    pub start_offset: SimDuration,
    rounds: u64,
}

impl MonitorFrontendService {
    pub fn new(
        scheme: fgmon_types::Scheme,
        want_detail: bool,
        poll_interval: SimDuration,
        backends: Vec<BackendHandle>,
    ) -> Self {
        MonitorFrontendService {
            client: MonitorClient::new(scheme, want_detail, backends),
            poll_interval,
            start_offset: SimDuration::ZERO,
            rounds: 0,
        }
    }

    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

impl Service for MonitorFrontendService {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.client.start(os);
        os.set_timer(self.start_offset + self.poll_interval, TOK_POLL);
    }

    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        if token != TOK_POLL {
            return;
        }
        // Resolve expirations before issuing the next round, so a retry
        // budget freed by a timeout is available to this round's polls.
        self.client.check_timeouts(os);
        self.client.poll_all(os);
        self.rounds += 1;
        // Re-arm with ±10% jitter: real user-space timers drift, and an
        // exact period phase-locks the samples with every other periodic
        // process in the cluster (tick-aligned calc threads, sibling
        // pollers), which biases what the samples see.
        let jitter = 0.9 + 0.2 * os.rng().f64();
        os.set_timer(self.poll_interval.mul_f64(jitter), TOK_POLL);
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        self.client.on_packet(conn, &payload, os);
    }

    fn on_rdma_complete(&mut self, token: u64, result: RdmaResult, os: &mut OsApi<'_, '_>) {
        self.client.on_rdma_complete(token, &result, os);
    }

    fn on_mcast(&mut self, _group: McastGroup, payload: SharedPayload, os: &mut OsApi<'_, '_>) {
        self.client.on_mcast(&payload, os);
    }
}
