//! # dp-service — a sharded, crash-tolerant query service over the batch engine
//!
//! The paper's batch primitives turn *many queries* into one lockstep
//! data-parallel descent ([`dp_spatial::batch`]). This crate wraps that
//! engine in a service shape: the world is split into a `g × g` grid of
//! tiles ([`dp_spatial::shard::ShardGrid`]), each tile gets its own bucket
//! PMR quadtree over the segments touching it, and a batch of mixed
//! requests — window queries, point-in-window probes, k-nearest-neighbour
//! lookups, and (against an optional *overlay* layer) windowed spatial
//! joins — is routed to the overlapping shards, executed per shard as
//! lockstep batches on a long-lived [`scan_model::Machine`], and merged
//! per request.
//!
//! A service built with [`QueryService::build_with_overlay`] indexes a
//! second segment layer per shard; `Join` requests then answer with the
//! base×overlay pairs intersecting inside their window, computed by the
//! data-parallel [`dp_spatial::join::frontier_join`] once per shard and
//! filtered per window (see [`QueryService::stats`] for the per-shard
//! join round telemetry).
//!
//! ## Execution model
//!
//! 1. **Route.** Every request contributes one or more *window probes*
//!    (a point probe is the degenerate window `Rect::point(p)`; a
//!    k-nearest request contributes one probe per expansion round). Each
//!    probe is routed to every shard whose tile it overlaps.
//! 2. **Execute.** Shards run concurrently. A shard drains its probe
//!    queue in chunks of at most `flush_batch`, each chunk executed as one
//!    [`dp_spatial::batch::batch_window_query`] — a lockstep descent
//!    costing a constant number of scan-model primitives per tree level
//!    regardless of the chunk size (paper Sec. 4). The shard reuses one `Machine` and one
//!    [`scan_model::ScratchArena`] across its lifetime.
//! 3. **Merge.** Per-shard hits are mapped from shard-local to global
//!    segment ids, concatenated per request in shard order, sorted and
//!    deduplicated — a segment spanning several tiles is reported once.
//!
//! K-nearest requests run as *expanding window* rounds: probe a square of
//! half-width `r` around the query point; if fewer than `k` hits come
//! back, or the k-th best distance exceeds `r`, double `r` and re-probe
//! (all unfinished k-NN requests advance together, each round being one
//! more routed probe batch). Since a segment at Euclidean distance `d`
//! from the centre always intersects the square of half-width `d`, a
//! k-th best distance `≤ r` proves no unseen segment can do better.
//!
//! ## Crash tolerance
//!
//! No failure on the request path aborts the process. The service is
//! typed-fallible end to end:
//!
//! * **Validation.** Unanswerable requests (non-finite windows or points,
//!   `k = 0`) are rejected per slot with
//!   [`Response::Rejected`]`(`[`dp_spatial::SpatialError::MalformedRequest`]`)` —
//!   neighbouring requests in the batch are unaffected.
//! * **Isolation.** Every per-shard unit of work (a probe chunk, a join
//!   computation, a shard build) runs under `catch_unwind`, so a panic —
//!   injected or genuine — is confined to the shard that raised it.
//! * **Recovery ladder.** A crashed unit is retried up to
//!   [`RETRY_LIMIT`] times with a deterministic spin backoff (no wall
//!   clock); if it keeps crashing, the shard is **rebuilt** from its
//!   assigned segments on a fresh machine; if even that fails, the shard
//!   is marked **degraded**: its index is dropped and every probe routed
//!   to it is answered by the sequential oracle (an exact per-segment
//!   clip test over the shard's assignment), so answers stay correct —
//!   and differentially checkable — at reduced speed. Each rung is
//!   recorded as a [`RecoveryEvent`] and surfaced in [`ShardStats`]
//!   (`degraded`, `retries`, `rebuilds`, `faults_injected`).
//! * **Determinism.** Faults are injected only through a seeded
//!   [`scan_model::FaultPlan`] ([`QueryService::try_build_with_faults`]),
//!   forked per shard so occurrence indices count per shard and the same
//!   plan replays the same faults regardless of thread schedule.
//!
//! Results are **byte-identical** to running the same requests through a
//! single unsharded machine — shard outputs are merged in deterministic
//! shard order before the final sort, and a recovered or degraded shard
//! returns exactly what its healthy twin would — which is what the
//! differential suites in `tests/` (including `tests/fault_injection.rs`)
//! assert, per workload family, backend and fault site.
//!
//! ## Admission (serving under sustained load)
//!
//! `execute_batch` welds arrival to execution: the caller blocks for the
//! whole batch. For sustained serving, wrap the service in a
//! [`ServicePipeline`] (module [`admission`]): bounded per-lane queues
//! decouple arrival from round execution, a free lane worker takes
//! whatever is queued (up to `flush_batch`) as one micro-batch, full
//! lanes apply backpressure or typed load shedding ([`shed`]), hot
//! windows answer from a write-versioned result cache ([`cache`]), and
//! epoch compaction moves to a background thread. The lockstep
//! execution core underneath is unchanged — the
//! differential suites run the same streams through both paths.
//!
//! ## Module map
//!
//! Each mechanism is written once, in the module named for it:
//!
//! | module | holds | used by |
//! |---|---|---|
//! | `config` | [`QueryServiceConfig`], the one machine factory | every constructor |
//! | `response` | [`Response`] and its `try_*` accessors | callers |
//! | `state` | shards and their swappable cores, logical ids, the serving epoch, [`QueryService`] and its constructors (one per aggregate) | everything |
//! | `recovery` | the ladder (`on_shard`: retry → rebuild → degrade), the shared shard-build body, `fan_out` | probe chunks, the cached join, the cold build |
//! | `families` | the request-family table: validate + plan, route, reduce, wrap | `reads`, [`admission`] |
//! | `reads` | the executor: read runs, routed probes, k-NN rounds, joins | [`QueryService::execute_batch`], lane workers |
//! | `writes` | the overlay ladder, one publish path, compaction | the executor, the background compactor |
//! | `stats` | counter block, [`ServiceStats`] views | callers, [`admission`] |
//! | [`admission`], [`shed`], [`cache`], [`snapshot`] | the pipelined front end, its full-lane policy, the hot-window cache, persistence | as before |
//! | [`histogram`] | [`LatencyHistogram`] | `stats`, the load driver |

pub mod admission;
pub mod cache;
mod config;
mod families;
pub mod histogram;
mod reads;
mod recovery;
mod response;
pub mod shed;
pub mod snapshot;
mod state;
mod stats;
mod writes;

pub use admission::{BatchTicket, ServicePipeline, Ticket};
pub use cache::{CacheKind, CacheLookup, CacheStats, WindowCache};
pub use config::QueryServiceConfig;
pub use histogram::{LatencyHistogram, HISTOGRAM_BUCKETS};
pub use reads::brute_knearest;
pub use recovery::{RecoveryAction, RecoveryEvent, RETRY_LIMIT};
pub use response::Response;
pub use shed::{Admission, AdmissionPolicy};
pub use state::QueryService;
pub use stats::{ServiceStats, ShardJoinStats, ShardStats, LATENCY_BUCKETS};
