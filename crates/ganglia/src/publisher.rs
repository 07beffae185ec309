//! `gmetric` publisher: injects fine-grained load metrics into Ganglia.
//!
//! The paper's §5.2.2 setup: "Our resource monitoring schemes capture
//! detailed system information and report to gmetric which in turn informs
//! all ganglia servers." The publisher runs on the front-end, captures
//! each back-end's load with the configured scheme at the configured
//! (fine) granularity, and multicasts a `fgmon_load` metric to every
//! gmond.
//!
//! The disturbance the Fig. 8 experiment measures comes from the *capture*
//! side: for the socket schemes, back-end monitoring processes must run at
//! the fine granularity, competing with the application; for the RDMA
//! schemes the back-end is untouched.

use fgmon_core::{BackendHandle, MonitorClient};
use fgmon_os::{OsApi, Service};
use fgmon_sim::SimDuration;
use fgmon_types::{ConnId, McastGroup, Payload, RdmaResult, Scheme, SharedPayload, ThreadId};

use crate::gmond::GANGLIA_GROUP;

const TOK_POLL: u64 = 0x6E_0001;
const TOK_PUBLISH: u64 = 0x6E_0002;

/// Ganglia-channel publish interval. Captures happen at the publisher's
/// `granularity` (that is the monitoring threshold being evaluated); the
/// aggregated metric enters the Ganglia channel at normal gmond rates.
const PUBLISH_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Front-end gmetric driver.
pub struct GmetricPublisher {
    pub client: MonitorClient,
    /// Fine-grained capture interval (the Fig. 8 x-axis, 1–4096 ms).
    pub granularity: SimDuration,
    pub published: u64,
}

impl GmetricPublisher {
    pub fn new(scheme: Scheme, granularity: SimDuration, backends: Vec<BackendHandle>) -> Self {
        GmetricPublisher {
            client: MonitorClient::new(scheme, scheme.uses_irq_signal(), backends),
            granularity,
            published: 0,
        }
    }
}

impl Service for GmetricPublisher {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.client.start(os);
        os.set_timer(self.granularity, TOK_POLL);
        os.set_timer(PUBLISH_INTERVAL, TOK_PUBLISH);
    }

    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        match token {
            TOK_POLL => {
                // Fine-grained capture round (±10% jitter; exact periods
                // phase-lock with the back-ends' tick-aligned threads).
                self.client.poll_all(os);
                let jitter = 0.9 + 0.2 * os.rng().f64();
                os.set_timer(self.granularity.mul_f64(jitter), TOK_POLL);
            }
            TOK_PUBLISH => {
                // Inform all ganglia servers: one gmetric frame per
                // back-end into the multicast channel, at gmond rates.
                for i in 0..self.client.backend_count() {
                    if let Some(snap) = self.client.views()[i].latest {
                        self.published += 1;
                        os.mcast_direct(
                            GANGLIA_GROUP,
                            Payload::GangliaMetric {
                                origin: self.client.backend_node(i),
                                name: "fgmon_load",
                                value: snap.cpu_util,
                            },
                        );
                    }
                }
                os.set_timer(PUBLISH_INTERVAL, TOK_PUBLISH);
            }
            _ => {}
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
        self.client.on_packet(conn, &payload, os);
    }

    fn on_rdma_complete(&mut self, token: u64, result: RdmaResult, os: &mut OsApi<'_, '_>) {
        self.client.on_rdma_complete(token, &result, os);
    }

    fn on_mcast(&mut self, group: McastGroup, payload: SharedPayload, os: &mut OsApi<'_, '_>) {
        if group == GANGLIA_GROUP {
            return; // our own published traffic
        }
        self.client.on_mcast(&payload, os);
    }
}
