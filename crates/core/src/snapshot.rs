//! Versioned, checksummed on-disk snapshots of built trees.
//!
//! Production operators restart processes; without persistence every
//! start pays a full bulk rebuild of every shard. This module defines
//! the workspace's own serialization (the workspace is offline — no
//! serde): a snapshot is a little-endian byte stream of length-prefixed
//! **sections**, each carrying its own CRC-32, behind a fixed-size
//! whole-file header (magic, format version, family tag, section and
//! element counts, header CRC). A reader validates the header and every
//! section's bounds and checksum **before** decoding, so a torn or
//! bit-rotted file is rejected with a typed [`SpatialError`] without
//! allocating tree structures from garbage.
//!
//! ```text
//! header   := magic "DPSS" | version u32 | family u32 | sections u32
//!             | elements u64 | crc32(header[0..24]) u32          (28 bytes)
//! section  := tag u32 | len u64 | payload [len] | crc32(tag|len|payload) u32
//! snapshot := header section*
//! ```
//!
//! Payload bytes come straight from the flat SoA lanes the scan model
//! already operates on (`scan_model::soa` borrows them zero-copy on
//! little-endian targets), which is what makes saving cheap and loading
//! a warm start rather than a rebuild.
//!
//! Torn writes are a first-class failure here: [`SnapshotWriter`] checks
//! [`FaultSite::SnapshotTorn`] once per section, and a firing occurrence
//! silently flips a seeded bit (even occurrences) or truncates the file
//! inside that section (odd occurrences) — the damage only surfaces when
//! a reader's CRC or bounds check catches it, exactly like a real torn
//! write. `tests/fault_injection.rs` sweeps the kill across every
//! section the way it kills every build round.

use crate::error::SpatialError;
use crate::quadtree::{DpQuadtree, QtNode, Slot, MAX_NODES};
use crate::rtree::DpRTree;
use crate::SegId;
use dp_geom::{LineSeg, Point, Rect};
use scan_model::soa;
use scan_model::{FaultPlan, FaultSite, Segments};
use std::path::Path;
use std::sync::Arc;

/// File magic: "DPSS" (data-parallel spatial snapshot).
pub const MAGIC: [u8; 4] = *b"DPSS";

/// Snapshot format version. Bumping this invalidates every existing
/// snapshot (readers reject with [`SpatialError::SnapshotVersionMismatch`])
/// and requires regenerating the golden fixture under `tests/fixtures/`
/// — the lint job's compatibility gate enforces that coupling.
pub const FORMAT_VERSION: u32 = 1;

/// Size of the whole-file header in bytes.
pub const HEADER_LEN: usize = 28;

/// Per-section overhead in bytes (tag + length prefix + trailing CRC).
pub const SECTION_OVERHEAD: usize = 16;

/// What a snapshot file contains (the header's family tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFamily {
    /// PM₁ quadtree built by the fused kernel path.
    Pm1Fused,
    /// PM₁ quadtree built by the unfused baseline path.
    Pm1Unfused,
    /// PM₂ quadtree.
    Pm2,
    /// PM₃ quadtree.
    Pm3,
    /// Bucket PMR quadtree.
    BucketPmr,
    /// Packed Hilbert R-tree.
    Rtree,
    /// A full `dp-service` serving state (shard trees + overlay ladder).
    Service,
}

impl SnapshotFamily {
    /// Every family, in tag order.
    pub const ALL: [SnapshotFamily; 7] = [
        SnapshotFamily::Pm1Fused,
        SnapshotFamily::Pm1Unfused,
        SnapshotFamily::Pm2,
        SnapshotFamily::Pm3,
        SnapshotFamily::BucketPmr,
        SnapshotFamily::Rtree,
        SnapshotFamily::Service,
    ];

    /// The on-disk header tag.
    pub fn tag(self) -> u32 {
        match self {
            SnapshotFamily::Pm1Fused => 1,
            SnapshotFamily::Pm1Unfused => 2,
            SnapshotFamily::Pm2 => 3,
            SnapshotFamily::Pm3 => 4,
            SnapshotFamily::BucketPmr => 5,
            SnapshotFamily::Rtree => 6,
            SnapshotFamily::Service => 7,
        }
    }

    /// Inverse of [`SnapshotFamily::tag`].
    pub fn from_tag(tag: u32) -> Option<SnapshotFamily> {
        SnapshotFamily::ALL.into_iter().find(|f| f.tag() == tag)
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-based, no dependencies.
// ---------------------------------------------------------------------

fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        // Slice-by-8 extension tables: t[k][b] is the CRC of byte b
        // followed by k zero bytes, so eight lookups fold eight input
        // bytes per step. Identical outputs to the byte-at-a-time loop —
        // the warm-restart path checksums tens of megabytes, and this
        // keeps validation off its critical path.
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xff) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// CRC-32 (IEEE) of `bytes` — the per-section and header checksum.
/// Slice-by-8: folds eight bytes per table step, byte-at-a-time for the
/// tail, bit-identical to the classic reflected 0xEDB88320 loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// SplitMix64 — derives the seeded corruption offsets for
/// [`FaultSite::SnapshotTorn`]; fixed forever for replayability.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Where an injected tear will damage the encoded bytes.
#[derive(Debug, Clone, Copy)]
struct Tear {
    /// Whole-section byte range in the output buffer.
    start: usize,
    end: usize,
    /// Fired occurrence index — drives the seeded offset and the
    /// flip-vs-truncate choice.
    occurrence: u64,
}

/// Appends checksummed sections behind a versioned header and returns
/// the finished byte stream.
///
/// Section order is part of a family's layout contract: readers address
/// sections by index, so writers must emit them in the documented order.
pub struct SnapshotWriter {
    buf: Vec<u8>,
    sections: u32,
    plan: Option<Arc<FaultPlan>>,
    tears: Vec<Tear>,
}

impl SnapshotWriter {
    /// Starts a snapshot of `family` covering `elements` logical
    /// elements (segment count for tree families).
    pub fn new(family: SnapshotFamily, elements: u64) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&family.tag().to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // section count, patched
        buf.extend_from_slice(&elements.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // header CRC, patched
        SnapshotWriter {
            buf,
            sections: 0,
            plan: None,
            tears: Vec::new(),
        }
    }

    /// Attaches a fault plan: every [`SnapshotWriter::section`] call
    /// consults [`FaultSite::SnapshotTorn`] and a firing occurrence
    /// silently corrupts the finished bytes.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Appends one checksummed section.
    pub fn section(&mut self, tag: u32, payload: &[u8]) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(payload);
        let crc = crc32(&self.buf[start..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.sections += 1;
        if let Some(plan) = &self.plan {
            if let Some(occurrence) = plan.should_fire(FaultSite::SnapshotTorn) {
                self.tears.push(Tear {
                    start,
                    end: self.buf.len(),
                    occurrence,
                });
            }
        }
    }

    /// Patches the header, applies any injected tears, and returns the
    /// finished byte stream.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[12..16].copy_from_slice(&self.sections.to_le_bytes());
        let crc = crc32(&self.buf[..HEADER_LEN - 4]);
        self.buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());

        // Injected tears: flips first (they commute), then the earliest
        // truncation wins — a shorter file cannot be re-extended.
        let seed = self.plan.as_ref().map(|p| p.seed()).unwrap_or(0);
        let mut cut: Option<usize> = None;
        for t in &self.tears {
            let span = t.end - t.start;
            let mix = splitmix64(seed ^ splitmix64(t.occurrence));
            let offset = t.start + (mix % span as u64) as usize;
            if t.occurrence % 2 == 0 {
                self.buf[offset] ^= 1 << ((mix >> 8) % 8);
            } else {
                // Truncate *inside* the section: keep at least one byte
                // of it missing so the tear is structural, not a no-op.
                let at = offset.min(t.end - 1);
                cut = Some(cut.map_or(at, |c: usize| c.min(at)));
            }
        }
        if let Some(at) = cut {
            self.buf.truncate(at);
        }
        self.buf
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// A validated view over a snapshot byte stream.
///
/// Construction checks the magic, header CRC, format version, and every
/// section's bounds and CRC — in that order — so the accessors below
/// can hand out payload slices with no further failure modes.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    family: SnapshotFamily,
    elements: u64,
    /// Per section: `(tag, payload range, whole-section range)`.
    sections: Vec<(u32, std::ops::Range<usize>, std::ops::Range<usize>)>,
}

impl<'a> SnapshotReader<'a> {
    /// Validates `bytes` end to end.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SpatialError> {
        const HDR_CORRUPT: SpatialError = SpatialError::SnapshotCorrupt { section: u32::MAX };
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
            return Err(HDR_CORRUPT);
        }
        let stored = u32::from_le_bytes(bytes[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
        if crc32(&bytes[..HEADER_LEN - 4]) != stored {
            return Err(HDR_CORRUPT);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SpatialError::SnapshotVersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let family_tag = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let family =
            SnapshotFamily::from_tag(family_tag).ok_or(SpatialError::SnapshotMalformed {
                reason: "unknown family tag",
            })?;
        let num_sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let elements = u64::from_le_bytes(bytes[16..24].try_into().unwrap());

        let mut sections = Vec::with_capacity(num_sections as usize);
        let mut at = HEADER_LEN;
        for i in 0..num_sections {
            let corrupt = SpatialError::SnapshotCorrupt { section: i };
            if bytes.len() < at + 12 {
                return Err(corrupt);
            }
            let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            // Bounds before allocation or checksum: a huge length from a
            // torn prefix must fail here, not in a Vec reserve.
            let Some(payload_end) =
                (at + 12).checked_add(usize::try_from(len).unwrap_or(usize::MAX))
            else {
                return Err(corrupt);
            };
            if payload_end + 4 > bytes.len() {
                return Err(corrupt);
            }
            let stored =
                u32::from_le_bytes(bytes[payload_end..payload_end + 4].try_into().unwrap());
            if crc32(&bytes[at..payload_end]) != stored {
                return Err(corrupt);
            }
            sections.push((tag, at + 12..payload_end, at..payload_end + 4));
            at = payload_end + 4;
        }
        if at != bytes.len() {
            return Err(SpatialError::SnapshotMalformed {
                reason: "trailing bytes after the last section",
            });
        }
        Ok(SnapshotReader {
            bytes,
            family,
            elements,
            sections,
        })
    }

    /// The header's family tag.
    pub fn family(&self) -> SnapshotFamily {
        self.family
    }

    /// The header's logical element count.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Number of sections.
    pub fn num_sections(&self) -> usize {
        self.sections.len()
    }

    /// Section `i` as `(tag, payload)`.
    pub fn section(&self, i: usize) -> (u32, &'a [u8]) {
        let (tag, ref payload, _) = self.sections[i];
        (tag, &self.bytes[payload.clone()])
    }

    /// Payload of section `i` if it carries `tag`, else
    /// [`SpatialError::SnapshotMalformed`] — the fixed-layout accessor
    /// family codecs use.
    pub fn expect(&self, i: usize, tag: u32) -> Result<&'a [u8], SpatialError> {
        match self.sections.get(i) {
            Some(&(t, ref payload, _)) if t == tag => Ok(&self.bytes[payload.clone()]),
            _ => Err(SpatialError::SnapshotMalformed {
                reason: "missing or misordered section",
            }),
        }
    }

    /// Whole-file byte extents of every section (header + payload +
    /// CRC), for tests that truncate or damage specific sections.
    pub fn section_extents(&self) -> Vec<std::ops::Range<usize>> {
        self.sections
            .iter()
            .map(|(_, _, whole)| whole.clone())
            .collect()
    }
}

// ---------------------------------------------------------------------
// Atomic file I/O
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, flushed, then renamed over the target. A crash mid-write
/// leaves either the old snapshot or a stray temp file — never a torn
/// file at the published path.
pub fn write_snapshot_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned());
    let tmp_name = format!(
        ".{}.tmp-{}",
        stem.unwrap_or_else(|| "snapshot".to_string()),
        std::process::id()
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Payload codecs — flat little-endian lanes.
// ---------------------------------------------------------------------

const MALFORMED: SpatialError = SpatialError::SnapshotMalformed {
    reason: "payload does not decode",
};

/// A bounds-checked little-endian cursor over one section payload.
struct Cur<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SpatialError> {
        let end = self.at.checked_add(n).ok_or(MALFORMED)?;
        if end > self.b.len() {
            return Err(MALFORMED);
        }
        let out = &self.b[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SpatialError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SpatialError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SpatialError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// A `u64` count that must fit in `usize` and cannot describe more
    /// elements than the remaining bytes could hold at `min_elem_size`
    /// bytes each — the validate-before-allocate rule.
    fn count(&mut self, min_elem_size: usize) -> Result<usize, SpatialError> {
        let n = usize::try_from(self.u64()?).map_err(|_| MALFORMED)?;
        if n.checked_mul(min_elem_size.max(1)).ok_or(MALFORMED)? > self.left() {
            return Err(MALFORMED);
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    fn left(&self) -> usize {
        self.b.len() - self.at
    }

    fn f64(&mut self) -> Result<f64, SpatialError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, SpatialError> {
        soa::f64_lane_from_bytes(self.bytes(n.checked_mul(8).ok_or(MALFORMED)?)?).ok_or(MALFORMED)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, SpatialError> {
        soa::u32_lane_from_bytes(self.bytes(n.checked_mul(4).ok_or(MALFORMED)?)?).ok_or(MALFORMED)
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, SpatialError> {
        soa::u64_lane_from_bytes(self.bytes(n.checked_mul(8).ok_or(MALFORMED)?)?).ok_or(MALFORMED)
    }

    fn done(self) -> Result<(), SpatialError> {
        if self.at == self.b.len() {
            Ok(())
        } else {
            Err(MALFORMED)
        }
    }
}

fn put_rect(buf: &mut Vec<u8>, r: &Rect) {
    for v in [r.min.x, r.min.y, r.max.x, r.max.y] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_rect(cur: &mut Cur) -> Result<Rect, SpatialError> {
    let (ax, ay) = (cur.f64()?, cur.f64()?);
    let (bx, by) = (cur.f64()?, cur.f64()?);
    Ok(Rect {
        min: Point { x: ax, y: ay },
        max: Point { x: bx, y: by },
    })
}

/// Encodes segments as four SoA lanes (`ax ay bx by`) behind a count —
/// the layout the blocked kernels already keep the data in.
pub fn segs_payload(segs: &[LineSeg]) -> Vec<u8> {
    let n = segs.len();
    let mut buf = Vec::with_capacity(8 + n * 32);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    let mut lane = Vec::with_capacity(n);
    for pick in [
        |s: &LineSeg| s.a.x,
        |s: &LineSeg| s.a.y,
        |s: &LineSeg| s.b.x,
        |s: &LineSeg| s.b.y,
    ] {
        lane.clear();
        lane.extend(segs.iter().map(pick));
        buf.extend_from_slice(&soa::f64_lane_bytes(&lane));
    }
    buf
}

/// Inverse of [`segs_payload`].
pub fn segs_from_payload(payload: &[u8]) -> Result<Vec<LineSeg>, SpatialError> {
    let mut cur = Cur::new(payload);
    let n = cur.count(32)?;
    let ax = cur.f64s(n)?;
    let ay = cur.f64s(n)?;
    let bx = cur.f64s(n)?;
    let by = cur.f64s(n)?;
    cur.done()?;
    Ok((0..n)
        .map(|i| LineSeg {
            a: Point { x: ax[i], y: ay[i] },
            b: Point { x: bx[i], y: by[i] },
        })
        .collect())
}

/// Encodes a segment-id lane behind a count.
pub fn ids_payload(ids: &[SegId]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + ids.len() * 4);
    buf.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    buf.extend_from_slice(&soa::u32_lane_bytes(ids));
    buf
}

/// Inverse of [`ids_payload`].
pub fn ids_from_payload(payload: &[u8]) -> Result<Vec<SegId>, SpatialError> {
    let mut cur = Cur::new(payload);
    let n = cur.count(4)?;
    let ids = cur.u32s(n)?;
    cur.done()?;
    Ok(ids)
}

/// Encodes a `u64` lane behind a count (epoch counters, misc scalars).
pub fn u64s_payload(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + values.len() * 8);
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    buf.extend_from_slice(&soa::u64_lane_bytes(values));
    buf
}

/// Inverse of [`u64s_payload`].
pub fn u64s_from_payload(payload: &[u8]) -> Result<Vec<u64>, SpatialError> {
    let mut cur = Cur::new(payload);
    let n = cur.count(8)?;
    let values = cur.u64s(n)?;
    cur.done()?;
    Ok(values)
}

/// Encodes a quadtree: world rect, rounds, truncated, then the node
/// vector (`0` = internal + 4 child indexes, `1` = leaf + id lane).
pub fn quadtree_payload(tree: &DpQuadtree) -> Vec<u8> {
    let n = tree.num_nodes();
    let mut buf = Vec::with_capacity(32 + 24 + n * 17);
    put_rect(&mut buf, &tree.world());
    buf.extend_from_slice(&(tree.rounds() as u64).to_le_bytes());
    buf.extend_from_slice(&(tree.truncated() as u64).to_le_bytes());
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    for i in 0..n {
        match tree.node(i) {
            // Node indexes and leaf lengths are stored as `u32`, so the
            // narrowing casts below lose nothing.
            QtNode::Internal { children } => {
                buf.push(0);
                for c in children {
                    buf.extend_from_slice(&(c as u32).to_le_bytes());
                }
            }
            QtNode::Leaf { lines } => {
                buf.push(1);
                buf.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                buf.extend_from_slice(&soa::u32_lane_bytes(lines));
            }
        }
    }
    buf
}

/// Inverse of [`quadtree_payload`], decoding into the tree's two flat
/// vectors. Validate-before-allocate: the node count is checked against
/// the bytes left (a node is at least a tag and a leaf length) and against
/// the tree's 32-bit indexes before the node vector is reserved, the id
/// vector is reserved for no more ids than the bytes left could hold, and
/// a leaf's length is checked against the bytes left before its ids are
/// read. Child indexes are bounds-checked against the node count so
/// queries on the result cannot walk out of the node vector.
pub fn quadtree_from_payload(payload: &[u8]) -> Result<DpQuadtree, SpatialError> {
    /// Wire size of the smallest node: an empty leaf.
    const MIN_NODE: usize = 5;
    let mut cur = Cur::new(payload);
    let world = get_rect(&mut cur)?;
    let rounds = usize::try_from(cur.u64()?).map_err(|_| MALFORMED)?;
    let truncated = usize::try_from(cur.u64()?).map_err(|_| MALFORMED)?;
    let n = cur.count(MIN_NODE)?;
    if n == 0 {
        return Err(SpatialError::SnapshotMalformed {
            reason: "quadtree with zero nodes",
        });
    }
    if n > MAX_NODES {
        return Err(SpatialError::SnapshotMalformed {
            reason: "quadtree node count exceeds its 32-bit indexes",
        });
    }
    let mut nodes = Vec::with_capacity(n);
    let mut ids: Vec<SegId> = Vec::with_capacity((cur.left() - n * MIN_NODE) / 4);
    for _ in 0..n {
        match cur.u8()? {
            0 => {
                let mut children = [0u32; 4];
                for c in &mut children {
                    *c = cur.u32()?;
                    if *c as usize >= n {
                        return Err(SpatialError::SnapshotMalformed {
                            reason: "quadtree child index out of range",
                        });
                    }
                }
                nodes.push(Slot::internal(children));
            }
            1 => {
                let len = cur.u32()?;
                let bytes = cur.bytes((len as usize).checked_mul(4).ok_or(MALFORMED)?)?;
                let start =
                    u32::try_from(ids.len()).map_err(|_| SpatialError::SnapshotMalformed {
                        reason: "quadtree id total exceeds its 32-bit offsets",
                    })?;
                ids.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)"))),
                );
                nodes.push(Slot::leaf(start, len));
            }
            _ => return Err(MALFORMED),
        }
    }
    cur.done()?;
    ids.shrink_to_fit();
    Ok(DpQuadtree::from_raw_parts(
        world, nodes, ids, rounds, truncated,
    ))
}

/// Encodes a packed R-tree: order, rounds, the two per-lane lanes, then
/// per-level group lengths and per-level node MBR lanes.
pub fn rtree_payload(tree: &DpRTree) -> Vec<u8> {
    let (lane_line, lane_bbox, level_lengths, node_mbrs, rounds) = tree.raw_parts();
    let mut buf = Vec::new();
    buf.extend_from_slice(&(tree.min_entries() as u64).to_le_bytes());
    buf.extend_from_slice(&(tree.max_entries() as u64).to_le_bytes());
    buf.extend_from_slice(&(rounds as u64).to_le_bytes());
    buf.extend_from_slice(&(lane_line.len() as u64).to_le_bytes());
    buf.extend_from_slice(&soa::u32_lane_bytes(lane_line));
    for r in lane_bbox {
        put_rect(&mut buf, r);
    }
    buf.extend_from_slice(&(level_lengths.len() as u64).to_le_bytes());
    for lengths in &level_lengths {
        let lane: Vec<u64> = lengths.iter().map(|&l| l as u64).collect();
        buf.extend_from_slice(&(lane.len() as u64).to_le_bytes());
        buf.extend_from_slice(&soa::u64_lane_bytes(&lane));
    }
    buf.extend_from_slice(&(node_mbrs.len() as u64).to_le_bytes());
    for level in node_mbrs {
        buf.extend_from_slice(&(level.len() as u64).to_le_bytes());
        for r in level {
            put_rect(&mut buf, r);
        }
    }
    buf
}

/// Inverse of [`rtree_payload`], with structural validation: lane
/// lengths agree, each level's lengths sum to the level below's node
/// count, and every level has an MBR lane.
pub fn rtree_from_payload(payload: &[u8]) -> Result<DpRTree, SpatialError> {
    let mut cur = Cur::new(payload);
    let m = usize::try_from(cur.u64()?).map_err(|_| MALFORMED)?;
    let max = usize::try_from(cur.u64()?).map_err(|_| MALFORMED)?;
    let rounds = usize::try_from(cur.u64()?).map_err(|_| MALFORMED)?;
    let lanes = cur.count(36)?;
    let lane_line = cur.u32s(lanes)?;
    let mut lane_bbox = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        lane_bbox.push(get_rect(&mut cur)?);
    }
    let num_levels = cur.count(8)?;
    if num_levels == 0 {
        return Err(SpatialError::SnapshotMalformed {
            reason: "r-tree with zero levels",
        });
    }
    let mut groups = Vec::with_capacity(num_levels);
    let mut below = lanes;
    for _ in 0..num_levels {
        let count = cur.count(8)?;
        let lengths: Vec<usize> = cur
            .u64s(count)?
            .into_iter()
            .map(|l| usize::try_from(l).map_err(|_| MALFORMED))
            .collect::<Result<_, _>>()?;
        if lengths.iter().sum::<usize>() != below {
            return Err(SpatialError::SnapshotMalformed {
                reason: "r-tree level lengths do not cover the level below",
            });
        }
        below = lengths.len();
        let seg = if lengths.is_empty() {
            Segments::single(0)
        } else {
            Segments::from_lengths(&lengths).map_err(|_| SpatialError::SnapshotMalformed {
                reason: "r-tree level with a zero-length group",
            })?
        };
        groups.push(seg);
    }
    let mbr_levels = cur.count(8)?;
    if mbr_levels != num_levels {
        return Err(SpatialError::SnapshotMalformed {
            reason: "r-tree MBR level count mismatch",
        });
    }
    let mut node_mbrs = Vec::with_capacity(mbr_levels);
    for group in groups.iter().take(mbr_levels) {
        let count = cur.count(32)?;
        // The empty tree stores one empty MBR over zero groups; every
        // other level's MBR lane matches its group count.
        let expected = group.num_segments();
        if count != expected && !(expected == 0 && count == 1) {
            return Err(SpatialError::SnapshotMalformed {
                reason: "r-tree MBR count mismatch",
            });
        }
        let mut lane = Vec::with_capacity(count);
        for _ in 0..count {
            lane.push(get_rect(&mut cur)?);
        }
        node_mbrs.push(lane);
    }
    cur.done()?;
    Ok(DpRTree::from_raw_parts(
        m, max, lane_line, lane_bbox, groups, node_mbrs, rounds,
    ))
}

// ---------------------------------------------------------------------
// Whole-file convenience codecs for single-tree snapshots.
// ---------------------------------------------------------------------

/// Section tags shared by the single-tree snapshot layouts (the service
/// layout in `dp-service` defines its own, disjoint tags ≥ 16).
pub mod tags {
    /// The indexed segment set (SoA lanes).
    pub const SEGS: u32 = 1;
    /// A quadtree node vector.
    pub const QUADTREE: u32 = 2;
    /// A packed R-tree.
    pub const RTREE: u32 = 3;
}

/// Encodes `(segs, tree)` as a standalone snapshot of `family`.
///
/// # Panics
///
/// Panics when `family` is [`SnapshotFamily::Rtree`] or
/// [`SnapshotFamily::Service`] — those carry different section layouts.
pub fn encode_tree_snapshot(
    family: SnapshotFamily,
    segs: &[LineSeg],
    tree: &DpQuadtree,
    plan: Option<Arc<FaultPlan>>,
) -> Vec<u8> {
    assert!(
        !matches!(family, SnapshotFamily::Rtree | SnapshotFamily::Service),
        "quadtree layout only"
    );
    let mut w = SnapshotWriter::new(family, segs.len() as u64);
    if let Some(plan) = plan {
        w = w.with_fault_plan(plan);
    }
    w.section(tags::SEGS, &segs_payload(segs));
    w.section(tags::QUADTREE, &quadtree_payload(tree));
    w.finish()
}

/// Inverse of [`encode_tree_snapshot`]: validates and decodes a
/// standalone quadtree snapshot.
pub fn decode_tree_snapshot(
    bytes: &[u8],
) -> Result<(SnapshotFamily, Vec<LineSeg>, DpQuadtree), SpatialError> {
    let r = SnapshotReader::parse(bytes)?;
    if matches!(r.family(), SnapshotFamily::Rtree | SnapshotFamily::Service) {
        return Err(SpatialError::SnapshotMalformed {
            reason: "not a quadtree snapshot",
        });
    }
    let segs = segs_from_payload(r.expect(0, tags::SEGS)?)?;
    let tree = quadtree_from_payload(r.expect(1, tags::QUADTREE)?)?;
    if segs.len() as u64 != r.elements() {
        return Err(SpatialError::SnapshotMalformed {
            reason: "element count disagrees with the segment section",
        });
    }
    Ok((r.family(), segs, tree))
}

/// Encodes `(segs, tree)` as a standalone R-tree snapshot.
pub fn encode_rtree_snapshot(
    segs: &[LineSeg],
    tree: &DpRTree,
    plan: Option<Arc<FaultPlan>>,
) -> Vec<u8> {
    let mut w = SnapshotWriter::new(SnapshotFamily::Rtree, segs.len() as u64);
    if let Some(plan) = plan {
        w = w.with_fault_plan(plan);
    }
    w.section(tags::SEGS, &segs_payload(segs));
    w.section(tags::RTREE, &rtree_payload(tree));
    w.finish()
}

/// Inverse of [`encode_rtree_snapshot`].
pub fn decode_rtree_snapshot(bytes: &[u8]) -> Result<(Vec<LineSeg>, DpRTree), SpatialError> {
    let r = SnapshotReader::parse(bytes)?;
    if r.family() != SnapshotFamily::Rtree {
        return Err(SpatialError::SnapshotMalformed {
            reason: "not an r-tree snapshot",
        });
    }
    let segs = segs_from_payload(r.expect(0, tags::SEGS)?)?;
    let tree = rtree_from_payload(r.expect(1, tags::RTREE)?)?;
    if segs.len() as u64 != r.elements() {
        return Err(SpatialError::SnapshotMalformed {
            reason: "element count disagrees with the segment section",
        });
    }
    Ok((segs, tree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_model::FaultMode;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values ("123456789" is the classic one).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn header_and_sections_round_trip() {
        let mut w = SnapshotWriter::new(SnapshotFamily::BucketPmr, 42);
        w.section(7, b"hello");
        w.section(9, b"");
        w.section(11, &[0xff; 100]);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert_eq!(r.family(), SnapshotFamily::BucketPmr);
        assert_eq!(r.elements(), 42);
        assert_eq!(r.num_sections(), 3);
        assert_eq!(r.section(0), (7, b"hello".as_slice()));
        assert_eq!(r.section(1), (9, b"".as_slice()));
        assert_eq!(r.section(2).1.len(), 100);
    }

    #[test]
    fn every_single_bit_flip_in_a_small_file_is_rejected() {
        let mut w = SnapshotWriter::new(SnapshotFamily::Pm2, 1);
        w.section(1, b"payload-bytes");
        let bytes = w.finish();
        assert!(SnapshotReader::parse(&bytes).is_ok());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    SnapshotReader::parse(&damaged).is_err(),
                    "flip at byte {byte} bit {bit} must not parse"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let mut w = SnapshotWriter::new(SnapshotFamily::Pm3, 1);
        w.section(1, b"0123456789");
        w.section(2, b"abcdef");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotReader::parse(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut w = SnapshotWriter::new(SnapshotFamily::Pm1Fused, 0);
        w.section(1, b"x");
        let mut bytes = w.finish();
        bytes.push(0);
        assert_eq!(
            SnapshotReader::parse(&bytes).err(),
            Some(SpatialError::SnapshotMalformed {
                reason: "trailing bytes after the last section"
            })
        );
    }

    #[test]
    fn version_mismatch_is_typed_not_corrupt() {
        let mut w = SnapshotWriter::new(SnapshotFamily::Pm1Fused, 0);
        w.section(1, b"x");
        let mut bytes = w.finish();
        // Patch the version and re-seal the header CRC, simulating a
        // well-formed file from a different format generation.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&bytes[..HEADER_LEN - 4]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            SnapshotReader::parse(&bytes).err(),
            Some(SpatialError::SnapshotVersionMismatch {
                found: 99,
                expected: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn injected_tear_corrupts_each_chosen_section() {
        // once_at(k) over a 3-section file: exactly section k's bytes
        // change (or the file is truncated inside it), and parsing fails.
        for k in 0..3u64 {
            let plan = Arc::new(FaultPlan::once_at(FaultSite::SnapshotTorn, k));
            let mut w =
                SnapshotWriter::new(SnapshotFamily::BucketPmr, 5).with_fault_plan(plan.clone());
            w.section(1, &[1u8; 40]);
            w.section(2, &[2u8; 40]);
            w.section(3, &[3u8; 40]);
            let torn = w.finish();
            assert_eq!(plan.fired(FaultSite::SnapshotTorn), 1);

            let mut clean_w = SnapshotWriter::new(SnapshotFamily::BucketPmr, 5);
            clean_w.section(1, &[1u8; 40]);
            clean_w.section(2, &[2u8; 40]);
            clean_w.section(3, &[3u8; 40]);
            let clean = clean_w.finish();

            assert_ne!(torn, clean, "occurrence {k} must damage the bytes");
            let err = SnapshotReader::parse(&torn).expect_err("torn file must not parse");
            assert!(
                matches!(err, SpatialError::SnapshotCorrupt { .. }),
                "occurrence {k}: {err}"
            );
        }
    }

    #[test]
    fn tear_damage_is_seed_deterministic() {
        let torn = |seed: u64| {
            let plan =
                Arc::new(FaultPlan::new(seed).with(FaultSite::SnapshotTorn, FaultMode::Always));
            let mut w = SnapshotWriter::new(SnapshotFamily::Pm2, 0).with_fault_plan(plan);
            w.section(1, &[7u8; 64]);
            w.finish()
        };
        assert_eq!(torn(11), torn(11), "same seed, same damage");
        assert_ne!(torn(11), torn(12), "different seed, different damage");
    }

    #[test]
    fn segs_and_ids_round_trip() {
        let segs = vec![
            LineSeg {
                a: Point { x: 0.5, y: 1.5 },
                b: Point { x: 2.0, y: 3.0 },
            },
            LineSeg {
                a: Point { x: -4.0, y: 0.0 },
                b: Point { x: 0.0, y: -9.5 },
            },
        ];
        assert_eq!(segs_from_payload(&segs_payload(&segs)).unwrap(), segs);
        assert_eq!(segs_from_payload(&segs_payload(&[])).unwrap(), Vec::new());
        let ids = vec![3u32, 1, 4, 1, 5];
        assert_eq!(ids_from_payload(&ids_payload(&ids)).unwrap(), ids);
        let vals = vec![0u64, u64::MAX, 17];
        assert_eq!(u64s_from_payload(&u64s_payload(&vals)).unwrap(), vals);
    }

    #[test]
    fn oversized_count_fails_before_allocating() {
        // A payload claiming u64::MAX segments must be rejected by the
        // bounds check, not by an allocator abort.
        let mut payload = Vec::new();
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(segs_from_payload(&payload).is_err());
        assert!(ids_from_payload(&payload).is_err());
        assert!(quadtree_from_payload(&payload).is_err());
    }

    #[test]
    fn atomic_write_replaces_and_survives() {
        let dir = std::env::temp_dir().join(format!("dpss-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        write_snapshot_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_snapshot_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No stray temp files left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(strays.is_empty(), "temp files must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }
}
