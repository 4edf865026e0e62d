//! Snapshot round-trip and corruption differential suite.
//!
//! Three layers of guarantees over the `dp_spatial::snapshot` format
//! and the service's warm-restart path built on it:
//!
//! 1. **Bit-identity.** Every quadtree family and the packed R-tree
//!    round-trips through encode → decode on both backends, and
//!    re-encoding the decoded state reproduces the original bytes
//!    exactly. A proptest extends this to the full service: save →
//!    load → serve answers bit-identically to the live service the
//!    snapshot was taken from, across random worlds, write mixes and
//!    shard grids.
//! 2. **Corruption rejection.** Truncating the stream around every
//!    section boundary and flipping any single bit anywhere in the
//!    file must surface a typed [`SpatialError`] from validation —
//!    never a panic, never a silently wrong tree. (The exhaustive
//!    every-length truncation sweep lives in the core crate's unit
//!    tests; this suite covers the boundary neighbourhoods of a
//!    realistic multi-section service snapshot.)
//! 3. **Format compatibility.** A committed golden fixture
//!    (`tests/fixtures/service_v1.snap`) must decode warm and must be
//!    byte-identical to what the current encoder produces for the same
//!    deterministic build — so any format change, intentional or not,
//!    fails CI until the fixture (and `FORMAT_VERSION`) are bumped
//!    together. A committed stale-version fixture must be rejected with
//!    [`SpatialError::SnapshotVersionMismatch`], cleanly. A third,
//!    `tests/fixtures/service_v1_ladder.snap`, is the same build as
//!    written while pending inserts carried a quadtree of their own (a
//!    `LADDER` section); it must still restore warm.
//!
//! Regenerate the fixtures after a deliberate format change with:
//! `REGEN_SNAPSHOT_FIXTURES=1 cargo test --test snapshot_differential`.

use dp_service::snapshot::tags;
use dp_service::{QueryService, QueryServiceConfig, RecoveryAction, Response};
use dp_spatial::baseline::build_pm1_unfused;
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::pm1::build_pm1;
use dp_spatial::pm_family::{build_pm2, build_pm3};
use dp_spatial::rsplit::RtreeSplitAlgorithm;
use dp_spatial::rtree::build_rtree;
use dp_spatial::snapshot::{
    crc32, decode_rtree_snapshot, decode_tree_snapshot, encode_rtree_snapshot,
    encode_tree_snapshot, SnapshotFamily, SnapshotReader, FORMAT_VERSION, HEADER_LEN,
};
use dp_spatial::SpatialError;
use dp_workloads::{restart_scenario, uniform_segments, Request};
use proptest::prelude::*;
use scan_model::{Backend, FaultPlan, Machine};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn backends() -> Vec<(&'static str, Machine)> {
    vec![
        ("sequential", Machine::sequential()),
        ("parallel", Machine::parallel().with_par_threshold(1)),
    ]
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

// ---------------------------------------------------------------------
// 1. Bit-identity round trips, per family, per backend.
// ---------------------------------------------------------------------

/// Every quadtree family: build → encode → decode → compare node for
/// node, then re-encode and compare byte for byte. The decoded segments
/// must answer window queries identically to the originals.
#[test]
fn quadtree_families_round_trip_bit_identically() {
    let data = uniform_segments(300, 64, 8, 71);
    type Build =
        fn(&Machine, dp_geom::Rect, &[dp_geom::LineSeg], usize) -> dp_spatial::quadtree::DpQuadtree;
    let families: Vec<(SnapshotFamily, Build)> = vec![
        (SnapshotFamily::Pm1Fused, |m, w, s, d| build_pm1(m, w, s, d)),
        (SnapshotFamily::Pm1Unfused, |m, w, s, d| {
            build_pm1_unfused(m, w, s, d)
        }),
        (SnapshotFamily::Pm2, |m, w, s, d| build_pm2(m, w, s, d)),
        (SnapshotFamily::Pm3, |m, w, s, d| build_pm3(m, w, s, d)),
        (SnapshotFamily::BucketPmr, |m, w, s, d| {
            build_bucket_pmr(m, w, s, 4, d)
        }),
    ];
    for (family, build) in &families {
        for (name, machine) in backends() {
            let tree = build(&machine, data.world, &data.segs, 6);
            let bytes = encode_tree_snapshot(*family, &data.segs, &tree, None);
            let (got_family, got_segs, got_tree) = decode_tree_snapshot(&bytes)
                .unwrap_or_else(|e| panic!("{family:?}/{name}: clean snapshot rejected: {e}"));
            assert_eq!(got_family, *family, "{family:?}/{name}: family tag");
            assert_eq!(got_segs, data.segs, "{family:?}/{name}: segments");
            assert_eq!(got_tree, tree, "{family:?}/{name}: tree");
            let reencoded = encode_tree_snapshot(got_family, &got_segs, &got_tree, None);
            assert_eq!(
                reencoded, bytes,
                "{family:?}/{name}: re-encode is not byte-identical"
            );
        }
    }
}

/// The packed Hilbert R-tree round-trips under both split algorithms,
/// and the decoded tree answers window queries identically.
#[test]
fn rtree_round_trips_bit_identically() {
    let data = uniform_segments(300, 64, 8, 72);
    for (name, machine) in backends() {
        for algo in [RtreeSplitAlgorithm::Mean, RtreeSplitAlgorithm::Sweep] {
            let tree = build_rtree(&machine, &data.segs, 2, 6, algo);
            let bytes = encode_rtree_snapshot(&data.segs, &tree, None);
            let (got_segs, got_tree) = decode_rtree_snapshot(&bytes)
                .unwrap_or_else(|e| panic!("rtree/{name}/{algo:?}: rejected: {e}"));
            assert_eq!(got_segs, data.segs, "rtree/{name}/{algo:?}: segments");
            assert_eq!(got_tree, tree, "rtree/{name}/{algo:?}: tree");
            let q = dp_geom::Rect::new(
                dp_geom::Point::new(8.0, 8.0),
                dp_geom::Point::new(40.0, 40.0),
            );
            assert_eq!(
                got_tree.window_query(&q, &got_segs),
                tree.window_query(&q, &data.segs),
                "rtree/{name}/{algo:?}: window answers diverge"
            );
            let reencoded = encode_rtree_snapshot(&got_segs, &got_tree, None);
            assert_eq!(reencoded, bytes, "rtree/{name}/{algo:?}: re-encode bytes");
        }
    }
}

// ---------------------------------------------------------------------
// 2. Corruption rejection: truncation + single-bit flips.
// ---------------------------------------------------------------------

/// A realistic multi-section service snapshot for the corruption
/// sweeps: four shards, live tombstones and pending inserts, so every
/// section kind the encoder writes is present.
fn corruption_subject() -> (QueryServiceConfig, dp_workloads::Dataset, Vec<u8>) {
    let data = uniform_segments(220, 64, 8, 73);
    let config = QueryServiceConfig {
        shard_grid: 2,
        flush_batch: 64,
        backend: Backend::Sequential,
        compact_threshold: usize::MAX >> 1,
        ..QueryServiceConfig::default()
    };
    let service = QueryService::build(config, data.world, data.segs.clone());
    let writes: Vec<Request> = data.segs[..10]
        .iter()
        .map(|&s| Request::Insert(s))
        .chain((0..6).map(|i| Request::Delete(i * 30)))
        .collect();
    service.execute_batch(&writes);
    let bytes = service.encode_snapshot().expect("clean service encodes");
    (config, data, bytes)
}

/// Truncating the stream at, just before, and just after every section
/// boundary (plus inside the header) always yields a typed error from
/// `SnapshotReader::parse` — validation happens before any allocation
/// sized from the damaged bytes.
#[test]
fn truncation_at_every_section_boundary_is_rejected() {
    let (_, _, bytes) = corruption_subject();
    let reader = SnapshotReader::parse(&bytes).expect("clean snapshot parses");
    let mut cuts: Vec<usize> = vec![0, 1, HEADER_LEN - 1, HEADER_LEN];
    for extent in reader.section_extents() {
        for at in [
            extent.start,
            extent.start + 1,
            extent.end - 1,
            extent.end.min(bytes.len() - 1),
        ] {
            cuts.push(at);
        }
    }
    drop(reader);
    cuts.sort_unstable();
    cuts.dedup();
    for at in cuts {
        if at >= bytes.len() {
            continue;
        }
        let torn = &bytes[..at];
        let err = SnapshotReader::parse(torn)
            .err()
            .unwrap_or_else(|| panic!("truncation to {at} bytes was accepted"));
        assert!(
            matches!(
                err,
                SpatialError::SnapshotCorrupt { .. } | SpatialError::SnapshotMalformed { .. }
            ),
            "truncation to {at} bytes: unexpected error {err}"
        );
    }
}

/// Flipping any single bit in the file is caught: the header CRC covers
/// the header, each section CRC covers its tag, length and payload, and
/// a flip inside a stored CRC disagrees with the recomputation. The
/// sweep walks every byte of the snapshot.
#[test]
fn any_single_bit_flip_is_rejected() {
    let (_, _, bytes) = corruption_subject();
    assert!(SnapshotReader::parse(&bytes).is_ok());
    let mut flipped = bytes.clone();
    for at in 0..bytes.len() {
        let bit = 1u8 << (at % 8);
        flipped[at] ^= bit;
        assert!(
            SnapshotReader::parse(&flipped).is_err(),
            "bit flip at byte {at} went undetected"
        );
        flipped[at] ^= bit;
    }
    assert_eq!(flipped, bytes, "sweep must restore the original bytes");
}

// ---------------------------------------------------------------------
// 3. Golden fixture compatibility gate.
// ---------------------------------------------------------------------

/// The deterministic build behind the committed golden fixture: a
/// sequential-backend service over a fixed-seed world with live
/// tombstones and pending inserts, so the fixture exercises every
/// section kind the encoder writes.
fn golden_config() -> QueryServiceConfig {
    QueryServiceConfig {
        shard_grid: 2,
        flush_batch: 64,
        backend: Backend::Sequential,
        compact_threshold: usize::MAX >> 1,
        ..QueryServiceConfig::default()
    }
}

fn golden_service() -> (dp_workloads::Dataset, QueryService) {
    let data = uniform_segments(60, 64, 8, 9);
    let service = QueryService::build(golden_config(), data.world, data.segs.clone());
    let writes: Vec<Request> = data.segs[..5]
        .iter()
        .map(|&s| Request::Insert(s))
        .chain((0..3).map(|i| Request::Delete(i * 17)))
        .collect();
    service.execute_batch(&writes);
    (data, service)
}

/// Bytes of the golden fixture with the header's format version patched
/// to `v` and the header CRC recomputed — a forged "old format" file
/// whose sections are otherwise intact.
fn with_version(bytes: &[u8], v: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[4..8].copy_from_slice(&v.to_le_bytes());
    let crc = crc32(&out[..HEADER_LEN - 4]);
    out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    out
}

/// The committed golden fixture is byte-identical to what the current
/// encoder produces for the same deterministic build. This is the
/// format-compatibility gate: any change to the layout, the codecs or
/// `FORMAT_VERSION` fails here until the fixtures are regenerated
/// (`REGEN_SNAPSHOT_FIXTURES=1 cargo test --test snapshot_differential`)
/// and reviewed together with the version bump.
#[test]
fn golden_fixture_matches_current_encoder() {
    let (_, service) = golden_service();
    let fresh = service.encode_snapshot().expect("golden service encodes");
    let golden = fixture_path("service_v1.snap");
    let stale = fixture_path("service_v0_stale.snap");
    if std::env::var("REGEN_SNAPSHOT_FIXTURES").is_ok() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&golden, &fresh).expect("write golden fixture");
        std::fs::write(&stale, with_version(&fresh, 0)).expect("write stale fixture");
        eprintln!("regenerated {} and {}", golden.display(), stale.display());
        return;
    }
    let committed = std::fs::read(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run REGEN_SNAPSHOT_FIXTURES=1 \
             cargo test --test snapshot_differential",
            golden.display()
        )
    });
    assert_eq!(
        committed, fresh,
        "golden fixture diverges from the current encoder (format version {FORMAT_VERSION}): \
         if the format change is deliberate, bump FORMAT_VERSION and regenerate the fixtures"
    );
}

/// The golden build request served from the snapshot at `path`:
/// `(service, warm)`. A refused snapshot degrades to a cold rebuild.
fn restore_golden(data: &dp_workloads::Dataset, path: &Path) -> (QueryService, bool) {
    QueryService::try_restore_or_build(
        golden_config(),
        data.world,
        data.segs.clone(),
        Vec::new(),
        Arc::new(FaultPlan::disabled()),
        path,
    )
    .expect("a refused snapshot degrades to a cold rebuild, not an error")
}

/// Restores the golden service from the fixture `name` and asserts it
/// came back warm and answers a probe stream bit-identically to the
/// live service the fixture was taken from.
fn assert_fixture_restores_warm_and_serves(name: &str) {
    let (data, live) = golden_service();
    let (restored, warm) = restore_golden(&data, &fixture_path(name));
    assert!(warm, "{name} must restore warm, not rebuild cold");
    let probes =
        dp_workloads::request_stream(data.world, 60, dp_workloads::RequestMix::default(), 91);
    assert_eq!(
        restored.execute_batch(&probes),
        live.execute_batch(&probes),
        "{name}: restored service diverges from the live one"
    );
}

/// The golden fixture decodes warm and the restored service answers a
/// probe stream bit-identically to the live service it was taken from.
#[test]
fn golden_fixture_warm_restores_and_serves() {
    assert_fixture_restores_warm_and_serves("service_v1.snap");
}

/// Read compatibility, `FORMAT_VERSION` unchanged: the golden build as
/// written while pending inserts were indexed by a quadtree of their own
/// — META's `has_ladder` word 1 and a `LADDER` section at position 5.
/// The reader validates that tree and drops it, so the file restores
/// warm and serves exactly like the live service; garbage in that
/// section under a valid CRC is refused, and the restore goes cold.
#[test]
fn ladder_fixture_restores_warm_and_serves() {
    let bytes = std::fs::read(fixture_path("service_v1_ladder.snap")).expect("ladder fixture");
    let ladder = SnapshotReader::parse(&bytes)
        .expect("parses")
        .section_extents()[5]
        .clone();
    assert_eq!(
        bytes[ladder.start..ladder.start + 4],
        tags::LADDER.to_le_bytes()
    );
    assert_fixture_restores_warm_and_serves("service_v1_ladder.snap");

    let mut hostile = bytes.clone();
    hostile[ladder.start + 12..ladder.end - 4].fill(0xff);
    let crc = crc32(&hostile[ladder.start..ladder.end - 4]);
    hostile[ladder.end - 4..ladder.end].copy_from_slice(&crc.to_le_bytes());
    let path = std::env::temp_dir().join(format!("hostile_ladder_{}.snap", std::process::id()));
    std::fs::write(&path, &hostile).expect("temp snapshot");
    let (_, warm) = restore_golden(&golden_service().0, &path);
    std::fs::remove_file(&path).ok();
    assert!(!warm, "a hostile LADDER section must be refused");
}

/// A fixture written by a past format version is rejected with the
/// typed [`SpatialError::SnapshotVersionMismatch`] — and the service
/// restart ladder degrades it to a cold rebuild instead of panicking.
#[test]
fn stale_version_fixture_is_rejected_cleanly() {
    let path = fixture_path("service_v0_stale.snap");
    let stale = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing stale fixture {} ({e}); run REGEN_SNAPSHOT_FIXTURES=1 \
             cargo test --test snapshot_differential",
            path.display()
        )
    });
    match SnapshotReader::parse(&stale) {
        Err(SpatialError::SnapshotVersionMismatch { found, expected }) => {
            assert_eq!(found, 0);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("stale fixture must fail with a version mismatch, got {other:?}"),
    }

    let (data, live) = golden_service();
    let (restored, warm) = restore_golden(&data, &path);
    assert!(!warm, "a stale fixture cannot restore warm");
    let cold_restarts: Vec<_> = restored
        .recovery_events()
        .into_iter()
        .filter(|e| e.action == RecoveryAction::ColdRestart)
        .collect();
    assert_eq!(cold_restarts.len(), 1, "exactly one ColdRestart event");
    assert!(
        matches!(
            cold_restarts[0].error,
            SpatialError::SnapshotVersionMismatch { found: 0, .. }
        ),
        "the event must carry the typed cause, got {}",
        cold_restarts[0].error
    );
    // The cold fallback still serves correctly: reads match a live
    // service over the base segments (the fallback input carries no
    // overlay writes, so compare against a freshly built base service).
    drop(live);
    let base = QueryService::build(golden_config(), data.world, data.segs.clone());
    let probes =
        dp_workloads::request_stream(data.world, 40, dp_workloads::RequestMix::default(), 92);
    assert_eq!(restored.execute_batch(&probes), base.execute_batch(&probes));
}

// ---------------------------------------------------------------------
// 4. Property: save → load → serve ≡ keep-serving.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Across random worlds, write loads and shard grids, on both
    /// backends: snapshotting a service mid-life and restoring it in a
    /// "new process" (fresh `QueryService` from the file) answers the
    /// post-restart probe stream bit-identically to the original
    /// instance that never restarted.
    #[test]
    fn save_load_serve_equals_keep_serving(
        seed in 0u64..1u64 << 16,
        n in 80usize..240,
        writes in 0usize..40,
    ) {
        // The shimmed proptest has no bool strategy; derive the backend
        // choice from the seed so both still get even coverage.
        let parallel = seed & 1 == 1;
        let scenario = restart_scenario(
            dp_workloads::square_world(64),
            writes,
            60,
            seed,
            n,
        );
        let data = uniform_segments(n, 64, 8, seed ^ 0xabcd);
        let config = QueryServiceConfig {
            shard_grid: 2,
            flush_batch: 64,
            backend: if parallel { Backend::Parallel } else { Backend::Sequential },
            par_threshold: if parallel { Some(1) } else { None },
            compact_threshold: usize::MAX >> 1,
            ..QueryServiceConfig::default()
        };
        let live = QueryService::build(config, data.world, data.segs.clone());
        let before: Vec<Response> = live.execute_batch(&scenario.before);
        prop_assert!(!before.is_empty() || scenario.before.is_empty());

        let path = std::env::temp_dir().join(format!(
            "snapshot_differential_{}_{seed}.snap",
            std::process::id()
        ));
        live.save_snapshot(&path).expect("mid-life service saves");
        let (restored, warm) = QueryService::try_restore_or_build(
            config,
            data.world,
            data.segs.clone(),
            Vec::new(),
            Arc::new(FaultPlan::disabled()),
            &path,
        ).expect("snapshot restores");
        let _ = std::fs::remove_file(&path);
        prop_assert!(warm, "clean snapshot must restore warm");

        let after_live = live.execute_batch(&scenario.after);
        let after_restored = restored.execute_batch(&scenario.after);
        prop_assert_eq!(after_live, after_restored);
        prop_assert_eq!(live.segments(), restored.segments());
    }
}
