//! Error surface of the checked query/join entry points.
//!
//! The checked entry points ([`crate::join::frontier_join`]; the join's
//! oracle, [`crate::baseline::try_spatial_join`], likewise) and the
//! service report precondition violations through one
//! `Result`-returning surface with this error type; the panicking
//! variants remain for callers that have already validated their
//! inputs.

use dp_geom::Rect;
use scan_model::FaultSite;
use std::fmt;

/// Which malformation a rejected request carries (see
/// [`SpatialError::MalformedRequest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedKind {
    /// A window whose coordinates are NaN or infinite.
    NonFiniteWindow,
    /// A query point whose coordinates are NaN or infinite.
    NonFinitePoint,
    /// A k-nearest request with `k == 0` (no defined answer set).
    ZeroK,
    /// An insert whose segment endpoints are NaN or infinite.
    NonFiniteSegment,
    /// A delete naming a segment id that is not live in the collection.
    UnknownSegment,
}

impl fmt::Display for MalformedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MalformedKind::NonFiniteWindow => "non-finite window",
            MalformedKind::NonFinitePoint => "non-finite point",
            MalformedKind::ZeroK => "k = 0",
            MalformedKind::NonFiniteSegment => "non-finite segment",
            MalformedKind::UnknownSegment => "unknown segment id",
        })
    }
}

/// A precondition violation detected by a checked bulk operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpatialError {
    /// Two indexes that must cover the same world cover different ones
    /// (the aligned-decomposition precondition of the spatial join).
    WorldMismatch {
        /// World of the left-hand index.
        left: Rect,
        /// World of the right-hand index.
        right: Rect,
    },
    /// A request that cannot be answered regardless of index state
    /// (non-finite coordinates, `k == 0`). Detected by per-request
    /// validation before any shard is probed.
    MalformedRequest {
        /// Position of the offending request in the batch.
        index: usize,
        /// Which malformation was detected.
        kind: MalformedKind,
    },
    /// A shard crashed and exhausted its retry and rebuild budget; the
    /// service marks it degraded and falls back to the sequential oracle.
    ShardUnavailable {
        /// Row-major shard slot in the service grid.
        shard: usize,
        /// Recovery attempts (retries + rebuilds) spent before giving up.
        attempts: u32,
    },
    /// An injected fault surfaced as an error (the typed form of an
    /// [`scan_model::InjectedFault`] panic payload caught by a recovery
    /// layer).
    FaultInjected {
        /// The fault site that fired.
        site: FaultSite,
        /// Which occurrence at that site fired.
        occurrence: u64,
    },
    /// A response slot was interrogated for the wrong kind (e.g. asking a
    /// k-NN answer for its window hits) — the service-level replacement
    /// for `panic!("response kind mismatch")`.
    ResponseKindMismatch {
        /// Position of the response in the batch.
        index: usize,
    },
    /// A service configuration that cannot describe a valid shard grid.
    InvalidConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The admission layer shed this request because its lane's bounded
    /// queue was full — the load-shedding arm of the same typed
    /// `Rejected` path that carries crash-ladder failures.
    Overloaded {
        /// Admission lane whose queue was full.
        lane: usize,
        /// Queue depth observed at the shed decision (the lane bound).
        depth: usize,
    },
    /// A segment endpoint falls outside the world the service was asked
    /// to index, so shard assignment would silently drop it.
    SegmentOutsideWorld {
        /// Position of the offending segment in the input slice.
        index: usize,
    },
    /// A snapshot file carries a format version this reader does not
    /// speak. A version bump must reject old fixtures cleanly through
    /// this variant, never panic.
    SnapshotVersionMismatch {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this reader expects.
        expected: u32,
    },
    /// A snapshot section failed its CRC or bounds check — torn write,
    /// bit rot, or truncation. The service falls through to a cold
    /// rebuild from segments.
    SnapshotCorrupt {
        /// Zero-based index of the offending section (`u32::MAX` when
        /// the whole-file header itself is damaged).
        section: u32,
    },
    /// A snapshot decoded cleanly at the byte level but describes a
    /// state inconsistent with the requesting service (wrong family,
    /// wrong world, mismatched counts).
    SnapshotMalformed {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for SpatialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialError::WorldMismatch { left, right } => write!(
                f,
                "operands cover different worlds: {left} vs {right} \
                 (aligned decompositions require identical worlds)"
            ),
            SpatialError::MalformedRequest { index, kind } => {
                write!(f, "request {index} is malformed: {kind}")
            }
            SpatialError::ShardUnavailable { shard, attempts } => write!(
                f,
                "shard {shard} unavailable after {attempts} recovery attempts; \
                 degraded to the sequential oracle"
            ),
            SpatialError::FaultInjected { site, occurrence } => {
                write!(f, "injected {site} fault (occurrence {occurrence})")
            }
            SpatialError::ResponseKindMismatch { index } => {
                write!(f, "response {index} holds a different kind than requested")
            }
            SpatialError::InvalidConfig { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
            SpatialError::SegmentOutsideWorld { index } => {
                write!(f, "segment {index} falls outside the service world")
            }
            SpatialError::Overloaded { lane, depth } => write!(
                f,
                "admission lane {lane} shed the request at queue depth {depth}"
            ),
            SpatialError::SnapshotVersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found} is not the expected version {expected}"
            ),
            SpatialError::SnapshotCorrupt { section } => {
                if *section == u32::MAX {
                    write!(f, "snapshot header is corrupt (bad magic, size, or CRC)")
                } else {
                    write!(f, "snapshot section {section} is corrupt (CRC or bounds)")
                }
            }
            SpatialError::SnapshotMalformed { reason } => {
                write!(f, "snapshot is malformed: {reason}")
            }
        }
    }
}

impl std::error::Error for SpatialError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_worlds() {
        let e = SpatialError::WorldMismatch {
            left: Rect::from_coords(0.0, 0.0, 8.0, 8.0),
            right: Rect::from_coords(0.0, 0.0, 16.0, 16.0),
        };
        let s = e.to_string();
        assert!(s.contains("different worlds"), "{s}");
    }

    #[test]
    fn display_names_the_malformation() {
        let e = SpatialError::MalformedRequest {
            index: 7,
            kind: MalformedKind::ZeroK,
        };
        let s = e.to_string();
        assert!(s.contains("request 7") && s.contains("k = 0"), "{s}");
    }

    #[test]
    fn display_names_the_write_malformations() {
        let e = SpatialError::MalformedRequest {
            index: 2,
            kind: MalformedKind::NonFiniteSegment,
        };
        assert!(e.to_string().contains("non-finite segment"));
        let e = SpatialError::MalformedRequest {
            index: 4,
            kind: MalformedKind::UnknownSegment,
        };
        assert!(e.to_string().contains("unknown segment id"));
    }

    #[test]
    fn display_names_the_degraded_shard() {
        let e = SpatialError::ShardUnavailable {
            shard: 2,
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("shard 2") && s.contains("3 recovery"), "{s}");
    }

    #[test]
    fn display_names_the_snapshot_failures() {
        let e = SpatialError::SnapshotVersionMismatch {
            found: 2,
            expected: 1,
        };
        let s = e.to_string();
        assert!(s.contains("version 2") && s.contains("version 1"), "{s}");
        let e = SpatialError::SnapshotCorrupt { section: 4 };
        assert!(e.to_string().contains("section 4"));
        let e = SpatialError::SnapshotCorrupt { section: u32::MAX };
        assert!(e.to_string().contains("header"));
        let e = SpatialError::SnapshotMalformed {
            reason: "shard count",
        };
        assert!(e.to_string().contains("shard count"));
    }

    #[test]
    fn display_names_the_fault_site() {
        let e = SpatialError::FaultInjected {
            site: FaultSite::RoundAbort,
            occurrence: 5,
        };
        let s = e.to_string();
        assert!(
            s.contains("round-abort") && s.contains("occurrence 5"),
            "{s}"
        );
    }
}
