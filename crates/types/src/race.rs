//! Shadow-state torn-read detection for one-sided RDMA operations.
//!
//! The paper's RDMA-Sync/e-RDMA-Sync schemes (§3) have a remote NIC read
//! a registered buffer that the host keeps mutating with no coordination
//! at all. The simulation materializes every read atomically at the serve
//! instant, so it can never observe a *torn* value — but real hardware
//! can: a DMA read that overlaps a host store returns a mix of old and
//! new words (the hazard RDMAbox and "Using RDMA for Lock Management"
//! handle with explicit version checks). This module is the sanitizer
//! that re-introduces the hazard as *shadow state*: every registered
//! region carries an epoch counter bumped on host writes, every in-flight
//! read reconstructs the epoch at its post instant, and a completion
//! whose epoch moved is flagged as a [`TornRead`].
//!
//! Three modes:
//!
//! * [`RaceMode::Off`] — no bookkeeping at all (zero overhead).
//! * [`RaceMode::Strict`] — detect and report; the simulation's event
//!   flow is untouched, so a strict run is bit-identical to an off run
//!   apart from the report itself.
//! * [`RaceMode::Seqlock`] — model the mitigation: the reader version-
//!   checks the completed buffer and re-issues the read when the epoch
//!   moved, paying a modeled check + re-read cost per retry (see
//!   `NetConfig::seqlock_check`). No torn value ever escapes.
//!
//! ## Shard locality
//!
//! All detector state is keyed by the *target* node of a read: host
//! writes happen on the target, read windows open when the request
//! *arrives* at the target's NIC, and windows close when the data leaves
//! the target (the data-departure event runs on the target's shard too).
//! So in a parallel run every operation touching a given `(target,
//! region)` executes on one shard, in that shard's deterministic order —
//! the per-region state can never race. The cross-shard-shared pieces are
//! chosen to be order-insensitive: counters are commutative sums, and the
//! capped diagnostics list keeps the entries with the smallest close keys
//! (identical to "first N encountered" sequentially, whatever order the
//! shards of a window run in). A single [`SharedRaceDetector`] handle is
//! therefore shared across all shards and still produces a report
//! bitwise identical to a sequential run's.
//!
//! The epoch a read saw *at post time* (before it crossed the wire to the
//! target's shard) is reconstructed from a short per-region write log:
//! each write records its engine `(time, seq)` key, and
//! `epoch_asof(posted)` counts back the writes that happened after the
//! post. Logs are pruned beyond [`WRITE_LOG_RETENTION_NANOS`], far longer
//! than any read's flight time.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use fgmon_sim::SimTime;

use crate::ids::{NodeId, RegionId, ReqId};
use crate::msg::PostedKey;

/// How many detailed [`TornRead`] diagnostics a report retains. The total
/// count keeps incrementing past this cap.
pub const MAX_TORN_DIAGNOSTICS: usize = 64;

/// Bound on seqlock re-reads of one request. A real seqlock reader spins
/// until a stable pair of version reads; under pathological write rates
/// the model stops charging after this many attempts and records the
/// exhaustion instead of livelocking the simulation.
pub const SEQLOCK_MAX_RETRIES: u32 = 8;

/// Write-log entries older than this are pruned. 100 virtual
/// milliseconds: even under 24× congestion plus NIC stalls, a read's
/// post→serve flight stays microseconds-to-low-milliseconds, so every
/// reconstruction (`epoch_asof`) only ever consults retained entries
/// (debug-asserted).
pub const WRITE_LOG_RETENTION_NANOS: u64 = 100_000_000;

/// Race-checking mode, normally selected via the `FGMON_RACE_CHECK`
/// environment variable (`off` / `strict` / `seqlock`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RaceMode {
    /// No shadow bookkeeping.
    #[default]
    Off,
    /// Detect and report torn reads; never perturbs the simulation.
    Strict,
    /// Model the seqlock mitigation: retry torn reads at a modeled cost.
    Seqlock,
}

impl RaceMode {
    /// Read the mode from `FGMON_RACE_CHECK`: unset means
    /// [`RaceMode::Off`], and `off`, `strict` and `seqlock` name a mode.
    ///
    /// # Panics
    /// Panics on any other value, naming the variable, the value and the
    /// accepted forms, so a misspelled mode cannot run with the sanitizer
    /// silently off.
    pub fn from_env() -> RaceMode {
        // lint: env-read — the sanitizer mode is the simulator's one
        // environment knob, read while a world is assembled.
        let value = std::env::var_os("FGMON_RACE_CHECK");
        let value = value.as_deref().map(|v| v.to_string_lossy());
        RaceMode::parse_env(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The parsing half of [`RaceMode::from_env`], kept pure so tests
    /// need not touch the process environment.
    fn parse_env(value: Option<&str>) -> Result<RaceMode, String> {
        match value {
            None | Some("off") => Ok(RaceMode::Off),
            Some("strict") => Ok(RaceMode::Strict),
            Some("seqlock") => Ok(RaceMode::Seqlock),
            Some(other) => Err(format!(
                "FGMON_RACE_CHECK={other:?} is not a race-check mode; \
                 accepted: unset, `off`, `strict` or `seqlock`"
            )),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            RaceMode::Off => "off",
            RaceMode::Strict => "strict",
            RaceMode::Seqlock => "seqlock",
        }
    }
}

/// One detected torn read: an RDMA read whose target region was written
/// between the request post and the data's departure from the target NIC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornRead {
    /// Node that posted the read.
    pub initiator: NodeId,
    /// Node whose region was read.
    pub target: NodeId,
    pub region: RegionId,
    /// When the work request was posted to the fabric.
    pub read_start: SimTime,
    /// When the data left the target (the serve instant).
    pub read_complete: SimTime,
    pub epoch_at_start: u64,
    pub epoch_at_complete: u64,
    /// First and last host write that landed inside the read window.
    pub write_span: (SimTime, SimTime),
}

/// End-of-run summary of the shadow-state detector.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceReport {
    pub mode: RaceMode,
    /// Host writes observed on registered regions.
    pub host_writes: u64,
    /// RDMA reads whose windows were tracked (request reached the target).
    pub reads_tracked: u64,
    /// Total torn reads detected (strict mode).
    pub torn_total: u64,
    /// Detailed diagnostics, capped at [`MAX_TORN_DIAGNOSTICS`].
    pub torn: Vec<TornRead>,
    /// Seqlock-mode re-reads issued after a version mismatch.
    pub seqlock_retries: u64,
    /// Reads that hit [`SEQLOCK_MAX_RETRIES`] and gave up retrying.
    pub seqlock_exhausted: u64,
}

/// What the fabric should do with a completed read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadVerdict {
    /// Epochs match (or the detector is off): deliver the data.
    Clean,
    /// Strict mode: the read is torn; a diagnostic was recorded. The data
    /// is still delivered — strict mode never perturbs the run.
    Torn,
    /// Seqlock mode: the version check failed; re-issue the read against
    /// `target`/`region` after the modeled check + re-post cost.
    Retry {
        target: NodeId,
        region: RegionId,
        attempt: u32,
    },
}

/// An open read window. Keyed by (target, region, initiator, req) so all
/// windows for one target sort together.
#[derive(Clone, Copy, Debug)]
struct ReadWindow {
    /// Engine key of the fabric event that posted (or re-armed) the read.
    posted: PostedKey,
    epoch_at_start: u64,
    retries: u32,
}

/// Per-region shadow state: the total write count (the epoch) plus a
/// short log of recent write keys for `epoch_asof` reconstruction.
#[derive(Clone, Debug, Default)]
struct WriteLog {
    /// Lifetime write count == current epoch.
    total: u64,
    /// Engine `(time, seq)` keys of retained writes, ascending (writes to
    /// one region all happen on its owner's shard, in processing order).
    log: Vec<PostedKey>,
    /// Writes before this instant have been pruned from `log`.
    pruned_before: SimTime,
}

impl WriteLog {
    /// The epoch as of engine key `posted`: total minus the writes that
    /// happened strictly after the post.
    fn epoch_asof(&self, posted: PostedKey) -> u64 {
        debug_assert!(
            posted.0 >= self.pruned_before,
            "read flight exceeded the write-log retention window"
        );
        let after = self.log.len() - self.log.partition_point(|k| *k <= posted);
        self.total - after as u64
    }

    /// (first, last) write times strictly inside `(posted, ..]`.
    fn span_after(&self, posted: PostedKey) -> Option<(SimTime, SimTime)> {
        let from = self.log.partition_point(|k| *k <= posted);
        let inside = &self.log[from..];
        Some((inside.first()?.0, inside.last()?.0))
    }

    fn push(&mut self, key: PostedKey) {
        self.total += 1;
        self.log.push(key);
        let cutoff = SimTime(key.0 .0.saturating_sub(WRITE_LOG_RETENTION_NANOS));
        if self.pruned_before < cutoff {
            let keep = self.log.partition_point(|k| k.0 < cutoff);
            self.log.drain(..keep);
            self.pruned_before = cutoff;
        }
    }
}

/// The shadow-state race detector shared by the fabric and every node.
#[derive(Debug, Default)]
pub struct RaceDetector {
    mode: RaceMode,
    /// Shadow write log per registered region.
    writes: BTreeMap<(NodeId, RegionId), WriteLog>,
    /// Open read windows, keyed (target, region, initiator, req).
    windows: BTreeMap<(NodeId, RegionId, NodeId, u64), ReadWindow>,
    /// Engine keys of the close events of `report.torn`, parallel to it:
    /// the capped list keeps the smallest, whatever order shards close
    /// reads in.
    torn_keys: Vec<PostedKey>,
    report: RaceReport,
}

/// Shared handle to one detector. A thin wrapper over `Arc<Mutex<..>>`
/// (`Rc<RefCell<..>>` before the parallel executor): one handle is
/// shared by the fabric and every node, in sequential and sharded runs
/// alike, and a world runs on one thread, so the lock is never contended
/// — it exists to make the handle `Send`.
#[derive(Clone, Debug)]
pub struct SharedRaceDetector(Arc<Mutex<RaceDetector>>);

impl SharedRaceDetector {
    pub fn new(detector: RaceDetector) -> Self {
        SharedRaceDetector(Arc::new(Mutex::new(detector)))
    }

    /// Immutable access (named for the `RefCell` API it replaced).
    pub fn borrow(&self) -> MutexGuard<'_, RaceDetector> {
        self.0.lock().expect("race detector lock poisoned")
    }

    /// Mutable access (named for the `RefCell` API it replaced).
    pub fn borrow_mut(&self) -> MutexGuard<'_, RaceDetector> {
        self.0.lock().expect("race detector lock poisoned")
    }
}

impl RaceDetector {
    pub fn new(mode: RaceMode) -> Self {
        RaceDetector {
            mode,
            report: RaceReport {
                mode,
                ..RaceReport::default()
            },
            ..RaceDetector::default()
        }
    }

    pub fn new_shared(mode: RaceMode) -> SharedRaceDetector {
        SharedRaceDetector::new(RaceDetector::new(mode))
    }

    pub fn mode(&self) -> RaceMode {
        self.mode
    }

    pub fn enabled(&self) -> bool {
        self.mode != RaceMode::Off
    }

    pub fn report(&self) -> &RaceReport {
        &self.report
    }

    /// A host write to a registered region: bump its epoch and log the
    /// writing event's engine key (`seq` of the event being handled).
    pub fn note_host_write(&mut self, node: NodeId, region: RegionId, now: SimTime, seq: u64) {
        if !self.enabled() {
            return;
        }
        self.report.host_writes += 1;
        self.writes
            .entry((node, region))
            .or_default()
            .push((now, seq));
    }

    /// An RDMA read request reached the target's NIC: open its window,
    /// reconstructing the epoch the initiator saw at post time. A window
    /// already open under the same key is an in-flight seqlock retry
    /// (re-armed at its last completion) and is left untouched.
    pub fn on_read_arrive(
        &mut self,
        initiator: NodeId,
        req: ReqId,
        target: NodeId,
        region: RegionId,
        posted: PostedKey,
    ) {
        if !self.enabled() {
            return;
        }
        let key = (target, region, initiator, req.0);
        if self.windows.contains_key(&key) {
            return;
        }
        self.report.reads_tracked += 1;
        let epoch = self
            .writes
            .get(&(target, region))
            .map(|w| w.epoch_asof(posted))
            .unwrap_or(0);
        self.windows.insert(
            key,
            ReadWindow {
                posted,
                epoch_at_start: epoch,
                retries: 0,
            },
        );
    }

    /// The read's data left the target NIC: close (or re-arm) the window.
    /// `complete` is the engine key of the completing event.
    pub fn on_read_complete(
        &mut self,
        initiator: NodeId,
        req: ReqId,
        target: NodeId,
        region: RegionId,
        complete: PostedKey,
    ) -> ReadVerdict {
        if !self.enabled() {
            return ReadVerdict::Clean;
        }
        let key = (target, region, initiator, req.0);
        let Some(w) = self.windows.get(&key).copied() else {
            // Unknown request (e.g. posted before the detector attached).
            return ReadVerdict::Clean;
        };
        let shadow = self.writes.get(&(target, region));
        let epoch_now = shadow.map(|s| s.total).unwrap_or(0);
        if epoch_now == w.epoch_at_start {
            self.windows.remove(&key);
            return ReadVerdict::Clean;
        }
        match self.mode {
            RaceMode::Off => unreachable!("checked by enabled()"),
            RaceMode::Strict => {
                let span = shadow.and_then(|s| s.span_after(w.posted));
                self.windows.remove(&key);
                self.report.torn_total += 1;
                // Keep the diagnostics with the smallest close keys. In a
                // sequential run close keys arrive ascending, so this is
                // exactly "the first MAX_TORN_DIAGNOSTICS encountered" —
                // but unlike an append-while-space list it is independent
                // of the order in which shards reach this point when the
                // detector is shared across a sharded run.
                let pos = self.torn_keys.partition_point(|k| *k <= complete);
                if pos < MAX_TORN_DIAGNOSTICS {
                    self.torn_keys.insert(pos, complete);
                    self.report.torn.insert(
                        pos,
                        TornRead {
                            initiator,
                            target,
                            region,
                            read_start: w.posted.0,
                            read_complete: complete.0,
                            epoch_at_start: w.epoch_at_start,
                            epoch_at_complete: epoch_now,
                            write_span: span.unwrap_or((complete.0, complete.0)),
                        },
                    );
                    if self.torn_keys.len() > MAX_TORN_DIAGNOSTICS {
                        self.torn_keys.pop();
                        self.report.torn.pop();
                    }
                }
                ReadVerdict::Torn
            }
            RaceMode::Seqlock => {
                let attempt = w.retries + 1;
                if attempt > SEQLOCK_MAX_RETRIES {
                    // Give up retrying: the real reader would eventually
                    // win; stop charging and deliver the latest value.
                    self.windows.remove(&key);
                    self.report.seqlock_exhausted += 1;
                    return ReadVerdict::Clean;
                }
                self.report.seqlock_retries += 1;
                // Re-arm the window at the current epoch: the retry reads
                // a fresh copy, so only *further* writes can tear it.
                self.windows.insert(
                    key,
                    ReadWindow {
                        posted: complete,
                        epoch_at_start: epoch_now,
                        retries: attempt,
                    },
                );
                ReadVerdict::Retry {
                    target,
                    region,
                    attempt,
                }
            }
        }
    }

    /// The frame carrying this read's seqlock retry was lost: close the
    /// window so it cannot linger open forever. (A lost *initial* request
    /// never opened a window — windows open at arrival.)
    pub fn on_read_drop(
        &mut self,
        initiator: NodeId,
        req: ReqId,
        target: NodeId,
        region: RegionId,
    ) {
        self.windows.remove(&(target, region, initiator, req.0));
    }

    /// Open windows right now (diagnostic).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const R0: RegionId = RegionId(0);

    fn at(t: u64, seq: u64) -> PostedKey {
        (SimTime(t), seq)
    }

    #[test]
    fn race_check_values_parse_strictly() {
        assert_eq!(RaceMode::parse_env(None), Ok(RaceMode::Off));
        for mode in [RaceMode::Off, RaceMode::Strict, RaceMode::Seqlock] {
            assert_eq!(RaceMode::parse_env(Some(mode.label())), Ok(mode));
        }
        // Spellings the old reader mapped to a mode or, silently, to Off.
        for bad in ["Strict", "STRICT", "1", "on", "", "seq lock"] {
            let err = RaceMode::parse_env(Some(bad)).unwrap_err();
            assert!(
                err.contains("FGMON_RACE_CHECK")
                    && err.contains(&format!("{bad:?}"))
                    && err.contains("`strict` or `seqlock`"),
                "{err}"
            );
        }
    }

    #[test]
    fn off_mode_is_inert() {
        let mut d = RaceDetector::new(RaceMode::Off);
        d.note_host_write(N1, R0, SimTime(5), 1);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 2));
        d.note_host_write(N1, R0, SimTime(15), 3);
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 4)),
            ReadVerdict::Clean
        );
        assert_eq!(d.report().host_writes, 0);
        assert_eq!(d.report().reads_tracked, 0);
    }

    #[test]
    fn strict_flags_write_inside_window() {
        let mut d = RaceDetector::new(RaceMode::Strict);
        d.note_host_write(N1, R0, SimTime(5), 1); // before the post: harmless
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 2));
        d.note_host_write(N1, R0, SimTime(12), 3);
        d.note_host_write(N1, R0, SimTime(14), 4);
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 5)),
            ReadVerdict::Torn
        );
        let r = d.report();
        assert_eq!(r.torn_total, 1);
        let t = &r.torn[0];
        assert_eq!((t.initiator, t.target, t.region), (N0, N1, R0));
        assert_eq!((t.read_start, t.read_complete), (SimTime(10), SimTime(20)));
        assert_eq!(t.write_span, (SimTime(12), SimTime(14)));
        assert_eq!(t.epoch_at_complete - t.epoch_at_start, 2);
        assert_eq!(d.open_windows(), 0);
    }

    #[test]
    fn strict_clean_when_no_write_in_window() {
        let mut d = RaceDetector::new(RaceMode::Strict);
        d.note_host_write(N1, R0, SimTime(5), 1);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 2));
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 3)),
            ReadVerdict::Clean
        );
        // A write *after* completion tears nothing.
        d.note_host_write(N1, R0, SimTime(25), 4);
        assert_eq!(d.report().torn_total, 0);
    }

    #[test]
    fn epoch_reconstruction_respects_equal_time_seq_order() {
        // A write and a post at the same instant: the engine processes
        // them in seq order, and epoch_asof must agree. Write (10, 1)
        // precedes post (10, 2): it is part of the epoch the initiator
        // saw. Write (10, 3) follows the post: it tears the read.
        let mut d = RaceDetector::new(RaceMode::Strict);
        d.note_host_write(N1, R0, SimTime(10), 1);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 2));
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 9)),
            ReadVerdict::Clean
        );
        d.on_read_arrive(N0, ReqId(1), N1, R0, at(10, 2));
        d.note_host_write(N1, R0, SimTime(10), 3);
        assert_eq!(
            d.on_read_complete(N0, ReqId(1), N1, R0, at(20, 9)),
            ReadVerdict::Torn
        );
    }

    #[test]
    fn arrive_after_write_still_sees_post_epoch() {
        // The write lands between the post and the request's arrival at
        // the target (cross-shard flight): the window opens *after* the
        // write, yet the reconstructed post-time epoch excludes it, so the
        // read is torn exactly as a sequential run would flag it.
        let mut d = RaceDetector::new(RaceMode::Strict);
        d.note_host_write(N1, R0, SimTime(12), 3);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 2));
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 4)),
            ReadVerdict::Torn
        );
        assert_eq!(d.report().torn[0].write_span, (SimTime(12), SimTime(12)));
    }

    #[test]
    fn same_req_id_from_two_initiators_does_not_collide() {
        let mut d = RaceDetector::new(RaceMode::Strict);
        d.on_read_arrive(N0, ReqId(7), N1, R0, at(10, 1));
        d.on_read_arrive(NodeId(2), ReqId(7), N1, R0, at(11, 2));
        d.note_host_write(N1, R0, SimTime(12), 3);
        assert_eq!(
            d.on_read_complete(N0, ReqId(7), N1, R0, at(15, 4)),
            ReadVerdict::Torn
        );
        assert_eq!(
            d.on_read_complete(NodeId(2), ReqId(7), N1, R0, at(16, 5)),
            ReadVerdict::Torn
        );
        assert_eq!(d.report().torn_total, 2);
    }

    #[test]
    fn seqlock_retries_then_converges() {
        let mut d = RaceDetector::new(RaceMode::Seqlock);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 1));
        d.note_host_write(N1, R0, SimTime(12), 2);
        let v = d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 3));
        assert_eq!(
            v,
            ReadVerdict::Retry {
                target: N1,
                region: R0,
                attempt: 1
            }
        );
        // The retry's arrival finds the re-armed window and must not
        // double-count the read.
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(30, 4));
        assert_eq!(d.report().reads_tracked, 1);
        // No further writes: the retry completes clean.
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(40, 5)),
            ReadVerdict::Clean
        );
        let r = d.report();
        assert_eq!(r.seqlock_retries, 1);
        assert_eq!(r.torn_total, 0);
        assert_eq!(d.open_windows(), 0);
    }

    #[test]
    fn seqlock_exhausts_after_bound() {
        let mut d = RaceDetector::new(RaceMode::Seqlock);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(0, 0));
        let mut t = 1u64;
        let mut retries = 0u32;
        loop {
            d.note_host_write(N1, R0, SimTime(t), t);
            t += 1;
            match d.on_read_complete(N0, ReqId(0), N1, R0, at(t, t)) {
                ReadVerdict::Retry { attempt, .. } => {
                    retries = attempt;
                    t += 1;
                }
                ReadVerdict::Clean => break,
                ReadVerdict::Torn => panic!("seqlock mode never reports torn"),
            }
        }
        assert_eq!(retries, SEQLOCK_MAX_RETRIES);
        assert_eq!(d.report().seqlock_exhausted, 1);
        assert_eq!(d.report().seqlock_retries, SEQLOCK_MAX_RETRIES as u64);
    }

    #[test]
    fn dropped_read_closes_window() {
        let mut d = RaceDetector::new(RaceMode::Strict);
        d.on_read_arrive(N0, ReqId(0), N1, R0, at(10, 1));
        assert_eq!(d.open_windows(), 1);
        d.on_read_drop(N0, ReqId(0), N1, R0);
        assert_eq!(d.open_windows(), 0);
        assert_eq!(
            d.on_read_complete(N0, ReqId(0), N1, R0, at(20, 2)),
            ReadVerdict::Clean
        );
    }

    #[test]
    fn write_log_prunes_but_epoch_total_survives() {
        let mut d = RaceDetector::new(RaceMode::Strict);
        for i in 0..10u64 {
            d.note_host_write(N1, R0, SimTime(i * 1_000), i);
        }
        // A write far in the future prunes the old entries...
        let far = 10 * WRITE_LOG_RETENTION_NANOS;
        d.note_host_write(N1, R0, SimTime(far), 100);
        let log = d.writes.get(&(N1, R0)).unwrap();
        assert_eq!(log.log.len(), 1);
        // ...but the epoch (total) still counts every write.
        assert_eq!(log.total, 11);
        assert_eq!(log.epoch_asof((SimTime(far), 101)), 11);
    }
}
