//! Application-level message payloads carried by packets and RDMA results.

use crate::health::RecordFence;
use crate::ids::{NodeId, RegionId};
use crate::load::SharedSnapshot;
use crate::scheme::Scheme;

/// The eight RUBiS query classes of the paper's Table 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum QueryClass {
    Home,
    Browse,
    BrowseRegions,
    BrowseCategoriesInRegion,
    SearchItemsInRegion,
    PutBidAuth,
    Sell,
    AboutMe,
}

impl QueryClass {
    pub const ALL: [QueryClass; 8] = [
        QueryClass::Home,
        QueryClass::Browse,
        QueryClass::BrowseRegions,
        QueryClass::BrowseCategoriesInRegion,
        QueryClass::SearchItemsInRegion,
        QueryClass::PutBidAuth,
        QueryClass::Sell,
        QueryClass::AboutMe,
    ];

    /// Row label as printed in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Home => "Home",
            QueryClass::Browse => "Browse",
            QueryClass::BrowseRegions => "BrowseRegions",
            QueryClass::BrowseCategoriesInRegion => "BrowseCatgryReg",
            QueryClass::SearchItemsInRegion => "SearchItemsReg",
            QueryClass::PutBidAuth => "PutBidAuth",
            QueryClass::Sell => "Sell",
            QueryClass::AboutMe => "About Me (auth)",
        }
    }
}

impl std::fmt::Display for QueryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What a forwarded request asks a back-end to do.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RequestKind {
    /// A RUBiS dynamic query of the given class.
    Rubis(QueryClass),
    /// A static document from the Zipf-distributed co-hosted service.
    Zipf { doc: u32, size_kb: u32 },
    /// A fixed batch of floating-point work (the Fig. 4 probe app).
    Float { work_us: u64 },
}

/// A multicast payload body, shared by reference across every recipient.
///
/// The fabric replicates multicast frames in hardware; the simulation
/// mirrors that by handing each recipient the *same* immutable body
/// (`Arc` refcount bump) instead of a per-recipient deep clone.
///
/// `Arc` rather than `Rc`, here and in [`crate::SharedSnapshot`], because
/// `Actor: Send`: a harness moves whole worlds, with the messages in
/// flight inside them, to sweep threads of its own. A world runs on one
/// thread, so the atomic refcount is never contended.
pub type SharedPayload = std::sync::Arc<Payload>;

/// Application payloads.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Front-end → back-end: "send me your load information". `req` is a
    /// correlation id the back-end echoes in its reply, so the front-end
    /// can match replies exactly even when frames are lost or reordered
    /// (0 for callers that don't track requests).
    MonitorRequest {
        scheme: Scheme,
        want_detail: bool,
        req: u64,
    },
    /// Back-end → front-end socket reply with load info; `req` echoes the
    /// request's correlation id. `fence` stamps the reply with the
    /// back-end's boot generation so pre-restart stragglers are provably
    /// stale.
    MonitorReply {
        snap: SharedSnapshot,
        req: u64,
        fence: RecordFence,
    },
    /// Front-end → back-end: "which region should I read, and what is
    /// your boot generation?" — the recovery backstop when reads come
    /// back `RegionInvalidated` and no advertisement has arrived.
    RegionQuery { req: u64 },
    /// Back-end → front-end: advertise the currently registered
    /// monitoring region and its boot generation (sent on restart and in
    /// answer to [`Payload::RegionQuery`]). The front-end re-pins its
    /// handle to `region` and fences out older generations.
    RegionAdvertise {
        region: RegionId,
        generation: u32,
        req: u64,
    },
    /// Client → front-end, or front-end → back-end work request.
    HttpRequest { req_id: u64, kind: RequestKind },
    /// Back-end → front-end, or front-end → client response.
    HttpResponse { req_id: u64, bytes: u32 },
    /// Ganglia gmond/gmetric metric announcement.
    GangliaMetric {
        origin: NodeId,
        /// Metric key (e.g. "fgmon_load").
        name: &'static str,
        value: f64,
    },
    /// Back-end status pushed over hardware multicast (extension scheme).
    StatusPush {
        origin: NodeId,
        snap: SharedSnapshot,
    },
    /// Uninterpreted padding traffic (background communication load).
    Opaque { tag: u64 },
}

impl Payload {
    /// Approximate on-wire size in bytes, used for bandwidth accounting.
    pub fn wire_size(&self) -> u32 {
        match self {
            Payload::MonitorRequest { .. } => 64,
            Payload::MonitorReply { .. } => 256,
            Payload::RegionQuery { .. } => 64,
            Payload::RegionAdvertise { .. } => 64,
            Payload::HttpRequest { .. } => 512,
            Payload::HttpResponse { bytes, .. } => 256 + bytes,
            Payload::GangliaMetric { .. } => 128,
            Payload::StatusPush { .. } => 256,
            Payload::Opaque { .. } => 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadSnapshot;

    #[test]
    fn table1_row_labels() {
        assert_eq!(QueryClass::ALL.len(), 8);
        assert_eq!(QueryClass::Home.label(), "Home");
        assert_eq!(
            QueryClass::BrowseCategoriesInRegion.label(),
            "BrowseCatgryReg"
        );
        assert_eq!(QueryClass::AboutMe.to_string(), "About Me (auth)");
    }

    #[test]
    fn wire_sizes_scale_with_content() {
        let small = Payload::HttpResponse {
            req_id: 1,
            bytes: 100,
        };
        let big = Payload::HttpResponse {
            req_id: 2,
            bytes: 100_000,
        };
        assert!(big.wire_size() > small.wire_size());
        assert!(
            Payload::MonitorRequest {
                scheme: Scheme::SocketSync,
                want_detail: false,
                req: 0
            }
            .wire_size()
                < Payload::MonitorReply {
                    snap: LoadSnapshot::zero().into(),
                    req: 0,
                    fence: RecordFence::default()
                }
                .wire_size()
        );
    }
}
