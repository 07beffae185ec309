//! `gmetad` — the Ganglia meta-daemon.
//!
//! Real Ganglia deployments federate: per-cluster `gmond`s share state
//! over multicast, and a `gmetad` polls one or more gmonds over TCP,
//! aggregates the cluster view, and serves summaries (grid totals,
//! per-metric aggregates) to front-ends and the web UI.
//!
//! Here `gmetad` runs as a service on any node: it periodically asks a
//! set of gmond-hosting nodes for their full view over socket
//! connections (XML-over-TCP in real Ganglia; a compact metric dump
//! here), keeps the freshest sample per (node, metric), and exposes
//! aggregate queries.

use std::collections::BTreeMap;

use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{ConnId, NodeId, Payload, ThreadId};

const TOK_POLL: u64 = 0x6D_0001;

/// Aggregate statistics over one metric across the cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricAggregate {
    pub nodes: usize,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl MetricAggregate {
    pub fn mean(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.sum / self.nodes as f64
        }
    }
}

/// The Ganglia meta-daemon service.
///
/// Wire protocol: a `MonitorRequest` on a gmetad↔gmond connection plays
/// the role of the TCP view request; each gmond answers with one
/// `GangliaMetric` frame per (node, metric) pair it knows. (The real
/// protocol ships one XML document; per-frame delivery models the same
/// bytes with the same interrupt cost.)
pub struct Gmetad {
    /// Connections to the gmond nodes this gmetad polls.
    pub sources: Vec<ConnId>,
    /// Poll interval (real gmetad default: 15 s; fine-grained setups
    /// shrink it).
    pub poll_interval: SimDuration,
    view: BTreeMap<(NodeId, &'static str), (f64, SimTime)>,
    pub polls: u64,
    pub frames_received: u64,
}

impl Gmetad {
    pub fn new(sources: Vec<ConnId>, poll_interval: SimDuration) -> Self {
        Gmetad {
            sources,
            poll_interval,
            view: BTreeMap::new(),
            polls: 0,
            frames_received: 0,
        }
    }

    /// Latest known value for (node, metric).
    pub fn value(&self, node: NodeId, metric: &'static str) -> Option<f64> {
        self.view.get(&(node, metric)).map(|&(v, _)| v)
    }

    /// Aggregate a metric across every node in the view.
    pub fn aggregate(&self, metric: &'static str) -> MetricAggregate {
        let mut agg = MetricAggregate {
            nodes: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        };
        for (&(_, name), &(v, _)) in &self.view {
            if name == metric {
                agg.nodes += 1;
                // lint: float-order — the view is a BTreeMap, so this
                // accumulation always runs in (node, metric) key order.
                agg.sum += v;
                agg.min = agg.min.min(v);
                agg.max = agg.max.max(v);
            }
        }
        if agg.nodes == 0 {
            agg.min = 0.0;
            agg.max = 0.0;
        }
        agg
    }

    /// Number of (node, metric) pairs known.
    pub fn view_size(&self) -> usize {
        self.view.len()
    }
}

impl Service for Gmetad {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for &c in &self.sources {
            os.listen_direct(c);
        }
        os.set_timer(self.poll_interval, TOK_POLL);
    }

    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        if token != TOK_POLL {
            return;
        }
        self.polls += 1;
        for &c in &self.sources {
            os.send_direct(
                c,
                Payload::MonitorRequest {
                    scheme: fgmon_types::Scheme::SocketSync,
                    want_detail: false,
                    // gmetad does not track individual requests.
                    req: 0,
                },
            );
        }
        os.set_timer(self.poll_interval, TOK_POLL);
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        _conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        if let Payload::GangliaMetric {
            origin,
            name,
            value,
        } = payload
        {
            self.frames_received += 1;
            self.view.insert((origin, name), (value, os.now()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_math() {
        let mut g = Gmetad::new(vec![], SimDuration::from_secs(1));
        g.view.insert((NodeId(0), "cpu_util"), (0.2, SimTime(1)));
        g.view.insert((NodeId(1), "cpu_util"), (0.8, SimTime(2)));
        g.view.insert((NodeId(1), "other"), (5.0, SimTime(2)));
        let agg = g.aggregate("cpu_util");
        assert_eq!(agg.nodes, 2);
        assert!((agg.mean() - 0.5).abs() < 1e-12);
        assert!((agg.min - 0.2).abs() < 1e-12);
        assert!((agg.max - 0.8).abs() < 1e-12);
        assert_eq!(g.view_size(), 3);
        assert_eq!(g.value(NodeId(1), "other"), Some(5.0));
        assert_eq!(g.value(NodeId(2), "other"), None);
    }

    #[test]
    fn empty_aggregate_is_zeroed() {
        let g = Gmetad::new(vec![], SimDuration::from_secs(1));
        let agg = g.aggregate("cpu_util");
        assert_eq!(agg.nodes, 0);
        assert_eq!(agg.mean(), 0.0);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 0.0);
    }
}
