//! Client emulators: closed-loop session drivers for the RUBiS and Zipf
//! workloads (the paper's modified RUBiS client emulator fires requests at
//! the cluster through the front-end).

use fgmon_os::{OsApi, Service};
use fgmon_sim::{CounterId, HistogramId, SimDuration, SimTime};
use fgmon_types::{ConnId, Payload, QueryClass, RequestKind, ThreadId};

use crate::rubis::TransitionMatrix;
use crate::zipf::ZipfCatalog;

#[derive(Clone, Copy, Debug)]
struct SessionState {
    class: QueryClass,
    sent_at: SimTime,
    outstanding: bool,
}

/// Closed-loop RUBiS client: `sessions` independent users walking the
/// query transition matrix with exponential think times.
pub struct RubisClient {
    /// Connection to the front-end dispatcher.
    pub conn: ConnId,
    pub sessions: u32,
    pub think_mean: SimDuration,
    matrix: TransitionMatrix,
    state: Vec<SessionState>,
    /// Completed requests.
    pub completed: u64,
    /// Metric namespace prefix.
    pub key_prefix: &'static str,
    /// Interned per-class response histograms + completion counter,
    /// formatted once in `on_start` so the per-response path is
    /// allocation-free.
    metric_ids: RubisMetricIds,
}

#[derive(Default)]
struct RubisMetricIds {
    resp: [Option<HistogramId>; QueryClass::ALL.len()],
    completed: Option<CounterId>,
}

impl RubisClient {
    pub fn new(conn: ConnId, sessions: u32, think_mean: SimDuration) -> Self {
        RubisClient {
            conn,
            sessions,
            think_mean,
            matrix: TransitionMatrix::default(),
            state: Vec::new(),
            completed: 0,
            key_prefix: "rubis",
            metric_ids: RubisMetricIds::default(),
        }
    }

    fn issue(&mut self, session: usize, os: &mut OsApi<'_, '_>) {
        let next = self.matrix.next(self.state[session].class, os.rng());
        self.state[session] = SessionState {
            class: next,
            sent_at: os.now(),
            outstanding: true,
        };
        os.send_direct(
            self.conn,
            Payload::HttpRequest {
                req_id: session as u64,
                kind: RequestKind::Rubis(next),
            },
        );
    }
}

impl Service for RubisClient {
    fn name(&self) -> &'static str {
        "rubis-client"
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.listen_direct(self.conn);
        let prefix = self.key_prefix;
        let r = os.recorder();
        for class in QueryClass::ALL {
            self.metric_ids.resp[class as usize]
                .get_or_insert_with(|| r.histogram_id(&format!("{prefix}/resp/{}", class.label())));
        }
        self.metric_ids
            .completed
            .get_or_insert_with(|| r.counter_id(&format!("{prefix}/completed")));
        self.state = vec![
            SessionState {
                class: QueryClass::Home,
                sent_at: SimTime::ZERO,
                outstanding: false,
            };
            self.sessions as usize
        ];
        // Stagger session starts over one think time to avoid a thundering
        // herd at t=0.
        for s in 0..self.sessions as usize {
            let jitter = SimDuration::from_secs_f64(
                os.rng().f64() * self.think_mean.as_secs_f64().max(1e-3),
            );
            os.set_timer(jitter, s as u64);
        }
    }

    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        let s = token as usize;
        if s < self.state.len() && !self.state[s].outstanding {
            self.issue(s, os);
        }
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        _conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let Payload::HttpResponse { req_id, .. } = payload else {
            return;
        };
        let s = req_id as usize;
        let Some(sess) = self.state.get_mut(s) else {
            return;
        };
        if !sess.outstanding {
            return;
        }
        sess.outstanding = false;
        let rt = os.now().since(sess.sent_at);
        let class = sess.class;
        self.completed += 1;
        let prefix = self.key_prefix;
        let r = os.recorder();
        let hist = *self.metric_ids.resp[class as usize]
            .get_or_insert_with(|| r.histogram_id(&format!("{prefix}/resp/{}", class.label())));
        r.histogram_at(hist).record(rt.nanos());
        let done = *self
            .metric_ids
            .completed
            .get_or_insert_with(|| r.counter_id(&format!("{prefix}/completed")));
        r.counter_at(done).inc();
        let think = SimDuration::from_secs_f64(os.rng().exp(self.think_mean.as_secs_f64()));
        os.set_timer(think, req_id);
    }
}

/// Closed-loop Zipf static-content client.
pub struct ZipfClient {
    pub conn: ConnId,
    pub sessions: u32,
    pub think_mean: SimDuration,
    catalog: ZipfCatalog,
    state: Vec<SessionState>,
    pub completed: u64,
    pub key_prefix: &'static str,
    /// Interned response histogram + completion counter, interned in
    /// `on_start` (see [`RubisMetricIds`]).
    resp_id: Option<HistogramId>,
    completed_id: Option<CounterId>,
}

impl ZipfClient {
    pub fn new(conn: ConnId, sessions: u32, think_mean: SimDuration, catalog: ZipfCatalog) -> Self {
        ZipfClient {
            conn,
            sessions,
            think_mean,
            catalog,
            state: Vec::new(),
            completed: 0,
            key_prefix: "zipf",
            resp_id: None,
            completed_id: None,
        }
    }

    fn issue(&mut self, session: usize, os: &mut OsApi<'_, '_>) {
        let (doc, size_kb) = self.catalog.sample(os.rng());
        self.state[session].sent_at = os.now();
        self.state[session].outstanding = true;
        os.send_direct(
            self.conn,
            Payload::HttpRequest {
                req_id: session as u64,
                kind: RequestKind::Zipf { doc, size_kb },
            },
        );
    }
}

impl Service for ZipfClient {
    fn name(&self) -> &'static str {
        "zipf-client"
    }

    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.listen_direct(self.conn);
        let prefix = self.key_prefix;
        let r = os.recorder();
        self.resp_id
            .get_or_insert_with(|| r.histogram_id(&format!("{prefix}/resp")));
        self.completed_id
            .get_or_insert_with(|| r.counter_id(&format!("{prefix}/completed")));
        self.state = vec![
            SessionState {
                class: QueryClass::Home, // unused for zipf
                sent_at: SimTime::ZERO,
                outstanding: false,
            };
            self.sessions as usize
        ];
        for s in 0..self.sessions as usize {
            let jitter = SimDuration::from_secs_f64(
                os.rng().f64() * self.think_mean.as_secs_f64().max(1e-3),
            );
            os.set_timer(jitter, s as u64);
        }
    }

    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        let s = token as usize;
        if s < self.state.len() && !self.state[s].outstanding {
            self.issue(s, os);
        }
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        _conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let Payload::HttpResponse { req_id, .. } = payload else {
            return;
        };
        let s = req_id as usize;
        let Some(sess) = self.state.get_mut(s) else {
            return;
        };
        if !sess.outstanding {
            return;
        }
        sess.outstanding = false;
        let rt = os.now().since(sess.sent_at);
        self.completed += 1;
        let prefix = self.key_prefix;
        let r = os.recorder();
        let hist = *self
            .resp_id
            .get_or_insert_with(|| r.histogram_id(&format!("{prefix}/resp")));
        r.histogram_at(hist).record(rt.nanos());
        let done = *self
            .completed_id
            .get_or_insert_with(|| r.counter_id(&format!("{prefix}/completed")));
        r.counter_at(done).inc();
        let think = SimDuration::from_secs_f64(os.rng().exp(self.think_mean.as_secs_f64()));
        os.set_timer(think, req_id);
    }
}
