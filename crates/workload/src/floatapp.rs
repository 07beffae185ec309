//! The Fig. 4 probe application: "performs basic floating-point operations
//! and reports the time taken".
//!
//! One worker thread per CPU runs fixed-size compute batches back to back
//! and records, per batch, the *normalized delay* `(elapsed - ideal) /
//! ideal` — zero when nothing disturbs it, positive when monitoring
//! activity (or anything else) steals the CPU or delays scheduling. With
//! the node's CPUs saturated by the app, every cycle the monitoring scheme
//! burns is a cycle stolen from the application, exactly the trade-off
//! the paper's granularity experiment quantifies.

use std::collections::BTreeMap;

use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::ThreadId;

const TOK_BATCH: u64 = 0xF1_0001;

/// Continuous floating-point benchmark application.
pub struct FloatApp {
    /// CPU demand of one batch.
    pub batch: SimDuration,
    /// Number of compute threads (default: one per CPU on the paper's
    /// dual-processor nodes).
    pub threads: u32,
    batch_started: BTreeMap<ThreadId, SimTime>,
    /// Completed batches (all threads).
    pub completed: u64,
    /// Sum of normalized delays (for the mean).
    pub delay_sum: f64,
    /// Worst normalized delay observed.
    pub delay_max: f64,
    /// Metric namespace (lets several instances coexist).
    pub metric_key: &'static str,
}

impl FloatApp {
    pub fn new(batch: SimDuration) -> Self {
        Self::with_threads(batch, 2)
    }

    pub fn with_threads(batch: SimDuration, threads: u32) -> Self {
        FloatApp {
            batch,
            threads,
            batch_started: BTreeMap::new(),
            completed: 0,
            delay_sum: 0.0,
            delay_max: 0.0,
            metric_key: "floatapp/slowdown",
        }
    }

    /// Mean normalized delay over the run (the paper's Fig. 4 y-axis).
    pub fn mean_normalized_delay(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.delay_sum / self.completed as f64
        }
    }

    fn start_batch(&mut self, tid: ThreadId, os: &mut OsApi<'_, '_>) {
        self.batch_started.insert(tid, os.now());
        os.burst(tid, self.batch, TOK_BATCH);
    }
}

impl Service for FloatApp {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for _ in 0..self.threads.max(1) {
            let tid = os.spawn_thread();
            self.start_batch(tid, os);
        }
    }

    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token != TOK_BATCH {
            return;
        }
        let started = self
            .batch_started
            .get(&tid)
            .copied()
            .unwrap_or_else(|| os.now());
        let elapsed = os.now().since(started);
        let ideal = self.batch.as_secs_f64();
        let delay = (elapsed.as_secs_f64() - ideal).max(0.0) / ideal;
        self.completed += 1;
        self.delay_sum += delay;
        self.delay_max = self.delay_max.max(delay);
        let key = self.metric_key;
        os.recorder().histogram(key).record((delay * 1e6) as u64); // micro-units
        self.start_batch(tid, os);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_math() {
        let mut app = FloatApp::new(SimDuration::from_millis(10));
        assert_eq!(app.mean_normalized_delay(), 0.0);
        app.completed = 2;
        app.delay_sum = 0.5;
        assert!((app.mean_normalized_delay() - 0.25).abs() < 1e-12);
        assert_eq!(app.threads, 2);
        assert_eq!(
            FloatApp::with_threads(SimDuration::from_millis(1), 4).threads,
            4
        );
    }
}
