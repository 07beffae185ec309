//! Property tests for the torn-read race detector: a read is flagged
//! exactly when a host write lands strictly inside its posted→complete
//! window in the engine's global `(time, seq)` order.

use fgmon_sim::SimTime;
use fgmon_types::{NodeId, RaceDetector, RaceMode, ReadVerdict, RegionId, ReqId};
use proptest::prelude::*;

const TARGET: NodeId = NodeId(1);
const READER: NodeId = NodeId(0);
const REGION: RegionId = RegionId(0);

/// Drive one read posted at `start` and completing at `complete` against
/// `writes`, feeding each write before or after the window by timestamp
/// with monotonically increasing sequence keys (the order the engine
/// would deliver them). Returns the detector and the completion verdict.
fn drive(mode: RaceMode, start: u64, complete: u64, writes: &[u64]) -> (RaceDetector, ReadVerdict) {
    let mut d = RaceDetector::new(mode);
    let mut sorted = writes.to_vec();
    sorted.sort_unstable();
    let mut seq = 0u64;
    for &w in sorted.iter().filter(|&&w| w <= start) {
        seq += 1;
        d.note_host_write(TARGET, REGION, SimTime(w), seq);
    }
    seq += 1;
    let posted = (SimTime(start), seq);
    d.on_read_arrive(READER, ReqId(0), TARGET, REGION, posted);
    for &w in sorted.iter().filter(|&&w| start < w && w < complete) {
        seq += 1;
        d.note_host_write(TARGET, REGION, SimTime(w), seq);
    }
    seq += 1;
    let verdict = d.on_read_complete(READER, ReqId(0), TARGET, REGION, (SimTime(complete), seq));
    for &w in sorted.iter().filter(|&&w| w >= complete) {
        seq += 1;
        d.note_host_write(TARGET, REGION, SimTime(w), seq);
    }
    (d, verdict)
}

proptest! {
    /// Strict mode: torn exactly when some write falls strictly inside
    /// the `(start, complete)` window; writes at or before the post and
    /// at or after the completion never tear.
    #[test]
    fn strict_torn_iff_write_strictly_inside(
        start in 0u64..1_000,
        len in 1u64..1_000,
        writes in prop::collection::vec(0u64..3_000, 0..16),
    ) {
        let complete = start + len;
        let inside = writes.iter().filter(|&&w| start < w && w < complete).count();
        let (d, verdict) = drive(RaceMode::Strict, start, complete, &writes);
        if inside > 0 {
            prop_assert_eq!(verdict, ReadVerdict::Torn);
            prop_assert_eq!(d.report().torn_total, 1);
            let t = &d.report().torn[0];
            // The recorded span covers exactly the in-window writes.
            let first = *writes.iter().filter(|&&w| start < w && w < complete).min().unwrap();
            let last = *writes.iter().filter(|&&w| start < w && w < complete).max().unwrap();
            prop_assert_eq!(t.write_span, (SimTime(first), SimTime(last)));
            prop_assert_eq!(t.epoch_at_complete - t.epoch_at_start, inside as u64);
        } else {
            prop_assert_eq!(verdict, ReadVerdict::Clean);
            prop_assert_eq!(d.report().torn_total, 0);
        }
        prop_assert_eq!(d.report().reads_tracked, 1);
        prop_assert_eq!(d.report().host_writes, writes.len() as u64);
        prop_assert_eq!(d.open_windows(), 0);
    }

    /// Seqlock mode flags the same windows, as retries instead of torn
    /// diagnostics — and never lets a torn value through.
    #[test]
    fn seqlock_retries_iff_strict_tears(
        start in 0u64..1_000,
        len in 1u64..1_000,
        writes in prop::collection::vec(0u64..3_000, 0..16),
    ) {
        let complete = start + len;
        let (_, strict) = drive(RaceMode::Strict, start, complete, &writes);
        let (d, seqlock) = drive(RaceMode::Seqlock, start, complete, &writes);
        match strict {
            ReadVerdict::Torn => prop_assert_eq!(
                seqlock,
                ReadVerdict::Retry { target: TARGET, region: REGION, attempt: 1 }
            ),
            ReadVerdict::Clean => prop_assert_eq!(seqlock, ReadVerdict::Clean),
            ReadVerdict::Retry { .. } => prop_assert!(false, "strict never retries"),
        }
        prop_assert_eq!(d.report().torn_total, 0);
    }

    /// The detector itself is deterministic: the same event sequence
    /// yields the same report, diagnostics included.
    #[test]
    fn identical_sequences_identical_reports(
        start in 0u64..1_000,
        len in 1u64..1_000,
        writes in prop::collection::vec(0u64..3_000, 0..16),
    ) {
        let complete = start + len;
        let (a, va) = drive(RaceMode::Strict, start, complete, &writes);
        let (b, vb) = drive(RaceMode::Strict, start, complete, &writes);
        prop_assert_eq!(va, vb);
        prop_assert_eq!(a.report(), b.report());
    }
}
