//! `gmond` — the Ganglia monitoring daemon, one per node.
//!
//! Periodically collects the node's default metrics (a `/proc` scan) and
//! announces them to the cluster over a multicast channel, exactly like
//! the real gmond's metric heartbeats. Every gmond also listens on the
//! channel and maintains the full cluster view (Ganglia's all-nodes-know-
//! everything design).

use std::collections::BTreeMap;

use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{ConnId, McastGroup, NodeId, Payload, SharedPayload, ThreadId};

const TOK_COLLECT: u64 = 0x6A_0001;
const TOK_WAKE: u64 = 0x6A_0002;

/// The multicast group Ganglia traffic uses.
pub const GANGLIA_GROUP: McastGroup = McastGroup(0x6A17);

/// One metric observation about some node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSample {
    pub value: f64,
    pub heard_at: SimTime,
}

/// The Ganglia daemon.
pub struct Gmond {
    /// How often the daemon collects and announces (real gmond defaults
    /// are in the seconds; gmetric injections can be much finer).
    pub collect_interval: SimDuration,
    /// TCP connections over which this daemon serves its view (to
    /// `gmetad` federation pollers). Set before boot.
    pub tcp_conns: Vec<ConnId>,
    tid: Option<ThreadId>,
    /// Cluster view: (origin node, metric name) → latest sample.
    view: BTreeMap<(NodeId, &'static str), MetricSample>,
    pub announces_sent: u64,
    pub samples_heard: u64,
    pub view_requests_served: u64,
}

impl Gmond {
    pub fn new(collect_interval: SimDuration) -> Self {
        Gmond {
            collect_interval,
            tcp_conns: Vec::new(),
            tid: None,
            view: BTreeMap::new(),
            announces_sent: 0,
            samples_heard: 0,
            view_requests_served: 0,
        }
    }

    /// Latest sample for `(node, metric)` in this daemon's cluster view.
    pub fn sample(&self, node: NodeId, metric: &'static str) -> Option<MetricSample> {
        self.view.get(&(node, metric)).copied()
    }

    /// Number of distinct (node, metric) pairs known.
    pub fn view_size(&self) -> usize {
        self.view.len()
    }
}

impl Service for Gmond {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.subscribe_mcast(GANGLIA_GROUP);
        let tid = os.spawn_thread();
        self.tid = Some(tid);
        for &c in &self.tcp_conns {
            os.listen_thread(c, tid);
        }
        // Collection pass: small /proc scan.
        let cost = os.proc_read_cost();
        os.burst(tid, cost, TOK_COLLECT);
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token != TOK_COLLECT {
            return;
        }
        let snap = os.proc_snapshot(false);
        let origin = os.node();
        self.announces_sent += 1;
        os.mcast_send(
            tid,
            GANGLIA_GROUP,
            Payload::GangliaMetric {
                origin,
                name: "cpu_util",
                value: snap.cpu_util,
            },
        );
        os.sleep(tid, self.collect_interval, TOK_WAKE);
    }

    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_WAKE {
            let cost = os.proc_read_cost();
            os.burst(tid, cost, TOK_COLLECT);
        }
    }

    /// Serve a gmetad view request: one frame per known (node, metric),
    /// plus this node's own current cpu_util (the XML dump of real gmond).
    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let Payload::MonitorRequest { .. } = payload else {
            return;
        };
        let Some(tid) = tid else { return };
        self.view_requests_served += 1;
        let own = os.proc_snapshot(false);
        let origin = os.node();
        os.send(
            tid,
            conn,
            Payload::GangliaMetric {
                origin,
                name: "cpu_util",
                value: own.cpu_util,
            },
        );
        // Ship the federated view (bounded: real gmetad dumps are one
        // document; we cap frames to keep event counts sane).
        for (&(node, name), sample) in self.view.iter().take(64) {
            os.send(
                tid,
                conn,
                Payload::GangliaMetric {
                    origin: node,
                    name,
                    value: sample.value,
                },
            );
        }
    }

    fn on_mcast(&mut self, _group: McastGroup, payload: SharedPayload, os: &mut OsApi<'_, '_>) {
        if let Payload::GangliaMetric {
            origin,
            name,
            value,
        } = *payload
        {
            self.samples_heard += 1;
            self.view.insert(
                (origin, name),
                MetricSample {
                    value,
                    heard_at: os.now(),
                },
            );
        }
    }
}
