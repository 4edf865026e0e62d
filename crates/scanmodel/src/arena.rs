//! Reusable scratch buffers for long-lived machines.
//!
//! The service layer keeps one [`crate::Machine`] per index shard alive
//! across many batches. The machine itself is trivially reusable (all of
//! its state is atomic counters; see [`crate::Machine::reset_stats`]), but
//! the *algorithms* above it allocate frontier vectors per batch.
//! [`ScratchArena`] is a type-keyed pool of `Vec<T>` buffers that lets a
//! shard recycle those allocations: a buffer returned to the arena keeps
//! its capacity and is handed back (cleared) on the next request.
//!
//! ## Retained-byte cap and decay
//!
//! A pathological round (one huge clone cascade early in a build) would
//! otherwise pin its peak buffers in the pool forever. The arena therefore
//! tracks the bytes it retains and enforces a cap: buffers returned while
//! the pool is at capacity are dropped instead of pooled, and
//! [`ScratchArena::decay`] — called once per algorithm round via
//! [`crate::Machine::bump_rounds`] — halves the cap toward twice the bytes
//! actually reused in the elapsed round (never below [`MIN_CAP_BYTES`]),
//! evicting the coldest pooled buffers to fit. Steady-state workloads keep
//! their working set (the cap floors at 2× observed demand); one-off
//! spikes are forgotten within a few rounds.
//!
//! The arena is deliberately not thread-safe — each shard owns one behind
//! its own lock, which matches the one-arena-per-shard usage and keeps
//! `take`/`put` allocation-free in the steady state: the pooled vectors
//! sit unboxed in one typed pool per element type, and the only erased
//! object is the pool itself, created the first time its type is
//! returned.

use std::any::{Any, TypeId};

/// Floor for the retained-byte cap: [`ScratchArena::decay`] never shrinks
/// the cap below this, so small workloads always keep their buffers.
pub const MIN_CAP_BYTES: usize = 1 << 20; // 1 MiB

/// Initial retained-byte cap for a fresh arena.
pub const DEFAULT_CAP_BYTES: usize = 256 << 20; // 256 MiB

/// The pooled buffers of one element type, a LIFO stack: the front has
/// sat idle longest.
struct TypedPool<T> {
    bufs: Vec<Vec<T>>,
}

/// Bytes a buffer's capacity pins.
fn pinned_bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * std::mem::size_of::<T>()
}

/// What eviction, the counters and the log need of a pool without
/// knowing its element type.
trait Pool: Send {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Number of pooled buffers.
    fn len(&self) -> usize;
    /// Bytes pinned by the buffer that has sat idle longest.
    fn oldest_bytes(&self) -> Option<usize>;
    /// Drops the buffer that has sat idle longest.
    fn evict_oldest(&mut self);
    /// `(bytes, element type name)` of every pooled buffer.
    fn sizes(&self) -> Vec<(usize, &'static str)>;
}

impl<T: Send + 'static> Pool for TypedPool<T> {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn len(&self) -> usize {
        self.bufs.len()
    }

    fn oldest_bytes(&self) -> Option<usize> {
        self.bufs.first().map(pinned_bytes)
    }

    fn evict_oldest(&mut self) {
        self.bufs.remove(0);
    }

    fn sizes(&self) -> Vec<(usize, &'static str)> {
        let tname = std::any::type_name::<T>();
        self.bufs.iter().map(|b| (pinned_bytes(b), tname)).collect()
    }
}

/// A type-keyed pool of reusable `Vec<T>` scratch buffers with a decaying
/// retained-byte cap.
pub struct ScratchArena {
    /// One pool per element type that was ever returned, found by a scan:
    /// an algorithm cycles a handful of lane types.
    pools: Vec<(TypeId, Box<dyn Pool>)>,
    takes: u64,
    hits: u64,
    /// Bytes currently pinned by pooled (idle) buffers.
    retained_bytes: usize,
    /// Bytes currently out on lease: capacity handed out by
    /// [`ScratchArena::take`] pool hits that has not yet come back via
    /// [`ScratchArena::put`]. Together with `retained_bytes` this is the
    /// arena's live footprint.
    leased_bytes: usize,
    /// Lifetime maximum of the footprint (`retained_bytes` +
    /// `leased_bytes`). A returned buffer first *covers* outstanding
    /// leased bytes before it counts as new footprint, so a ping-pong
    /// slab (take → swap → put of the same-sized buffer) is counted
    /// once, not twice.
    high_water_bytes: usize,
    /// Bytes of pooled capacity handed back out since the last decay —
    /// the demand signal the cap floors against.
    epoch_used_bytes: usize,
    /// Current retained-byte cap.
    cap_bytes: usize,
    /// Buffers dropped (on put) or evicted (on decay) to honour the cap.
    evictions: u64,
}

impl std::fmt::Debug for ScratchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchArena")
            .field("pooled", &self.pooled())
            .field("retained_bytes", &self.retained_bytes)
            .field("leased_bytes", &self.leased_bytes)
            .field("high_water_bytes", &self.high_water_bytes)
            .field("cap_bytes", &self.cap_bytes)
            .field("evictions", &self.evictions)
            .finish_non_exhaustive()
    }
}

impl Default for ScratchArena {
    fn default() -> Self {
        ScratchArena {
            pools: Vec::new(),
            takes: 0,
            hits: 0,
            retained_bytes: 0,
            leased_bytes: 0,
            high_water_bytes: 0,
            epoch_used_bytes: 0,
            cap_bytes: DEFAULT_CAP_BYTES,
            evictions: 0,
        }
    }
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// Hands out an empty `Vec<T>`, reusing the capacity of a previously
    /// returned buffer when one is pooled.
    pub fn take<T: Send + 'static>(&mut self) -> Vec<T> {
        self.takes += 1;
        let Some(buf) = self.pool_of::<T>().and_then(|pool| pool.bufs.pop()) else {
            return Vec::new();
        };
        self.hits += 1;
        // The capacity moves from idle to leased; the footprint
        // (retained + leased) is unchanged.
        let bytes = pinned_bytes(&buf);
        self.retained_bytes -= bytes;
        self.leased_bytes += bytes;
        self.epoch_used_bytes += bytes;
        buf
    }

    /// The pool of element type `T`, if a `Vec<T>` was ever returned.
    fn pool_of<T: Send + 'static>(&mut self) -> Option<&mut TypedPool<T>> {
        let key = TypeId::of::<T>();
        let (_, pool) = self.pools.iter_mut().find(|(id, _)| *id == key)?;
        Some(
            pool.as_any_mut()
                .downcast_mut()
                .expect("pool keyed by TypeId"),
        )
    }

    /// Returns a buffer to the pool. The contents are cleared; the
    /// capacity is retained for the next [`ScratchArena::take`]. If
    /// pooling it would exceed the retained-byte cap, the coldest pooled
    /// buffers are evicted to make room (the incoming buffer is the warm
    /// one — it was just in use); a buffer larger than the whole cap is
    /// dropped outright.
    pub fn put<T: Send + 'static>(&mut self, mut buf: Vec<T>) {
        buf.clear();
        let bytes = pinned_bytes(&buf);
        // An incoming buffer first settles an outstanding lease of the
        // same size: in the ping-pong idiom (take a slab, swap it with a
        // caller buffer, put the swapped-out buffer) the returned bytes
        // are the *same* physical footprint that left on the take, so
        // counting them as new retained bytes on top of the lease would
        // double-count the slab in the high-water mark.
        let covered = bytes.min(self.leased_bytes);
        self.leased_bytes -= covered;
        if bytes > self.cap_bytes {
            self.evictions += 1;
            return; // dropping `buf` frees it
        }
        self.evict_until(self.cap_bytes - bytes);
        self.retained_bytes += bytes;
        let foot = self.retained_bytes + self.leased_bytes;
        if foot > self.high_water_bytes && std::env::var_os("DP_ARENA_LOG").is_some() {
            let mut sizes: Vec<(usize, &str)> =
                self.pools.iter().flat_map(|(_, p)| p.sizes()).collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            eprintln!(
                "arena hw {} -> {} (retained {} leased {} incoming {} {}) pooled: {:?}",
                self.high_water_bytes,
                foot,
                self.retained_bytes,
                self.leased_bytes,
                bytes,
                std::any::type_name::<T>(),
                &sizes[..sizes.len().min(12)]
            );
        }
        self.high_water_bytes = self.high_water_bytes.max(foot);
        if self.pool_of::<T>().is_none() {
            let empty = TypedPool::<T> { bufs: Vec::new() };
            self.pools.push((TypeId::of::<T>(), Box::new(empty)));
        }
        self.pool_of().expect("created above").bufs.push(buf);
    }

    /// End-of-round maintenance: relax the retained-byte cap toward twice
    /// the capacity actually reused since the previous decay (halving at
    /// most per call, flooring at [`MIN_CAP_BYTES`]), then evict the
    /// coldest pooled buffers until the retained bytes fit the new cap.
    ///
    /// "Coldest" is the least-recently-pooled entry of the pool whose
    /// oldest entry pins the most bytes — pools serve as LIFO stacks, so
    /// the front of each stack has sat idle longest.
    pub fn decay(&mut self) {
        let demand = self.epoch_used_bytes.saturating_mul(2).max(MIN_CAP_BYTES);
        self.cap_bytes = demand.max(self.cap_bytes / 2);
        self.epoch_used_bytes = 0;
        self.evict_until(self.cap_bytes);
    }

    /// Simulated memory pressure for fault injection: clamps the cap to
    /// [`MIN_CAP_BYTES`] and evicts every pooled buffer. The arena stays
    /// fully functional — subsequent [`ScratchArena::take`] calls simply
    /// allocate fresh, and the cap regrows through [`ScratchArena::decay`]
    /// as real demand re-accumulates. Evictions are counted as usual.
    pub fn inject_pressure(&mut self) {
        self.cap_bytes = MIN_CAP_BYTES;
        self.evict_until(0);
    }

    /// Evicts coldest-first until at most `target` retained bytes remain.
    fn evict_until(&mut self, target: usize) {
        while self.retained_bytes > target {
            let victim = self
                .pools
                .iter_mut()
                .filter_map(|(_, pool)| Some((pool.oldest_bytes()?, pool)))
                .max_by_key(|(bytes, _)| *bytes);
            let Some((bytes, pool)) = victim else { break };
            pool.evict_oldest();
            self.retained_bytes -= bytes;
            self.evictions += 1;
        }
    }

    /// Number of buffers currently pooled (across all types).
    pub fn pooled(&self) -> usize {
        self.pools.iter().map(|(_, pool)| pool.len()).sum()
    }

    /// Bytes currently pinned by pooled buffers.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Bytes currently out on lease (taken from the pool, not yet put
    /// back).
    pub fn leased_bytes(&self) -> usize {
        self.leased_bytes
    }

    /// Lifetime maximum of the arena footprint: retained (idle pooled)
    /// plus leased (handed-out) bytes, with ping-pong slab reuse counted
    /// once (see [`ScratchArena::put`]).
    pub fn high_water_bytes(&self) -> usize {
        self.high_water_bytes
    }

    /// Current retained-byte cap (see [`ScratchArena::decay`]).
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes
    }

    /// Buffers dropped or evicted to honour the cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// `(takes, reuse hits)` — how often [`ScratchArena::take`] was served
    /// from the pool rather than a fresh allocation.
    pub fn reuse_stats(&self) -> (u64, u64) {
        (self.takes, self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_capacity() {
        let mut arena = ScratchArena::new();
        let mut v: Vec<u32> = arena.take();
        v.extend(0..1000);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        arena.put(v);
        assert_eq!(arena.pooled(), 1);
        assert_eq!(arena.retained_bytes(), cap * std::mem::size_of::<u32>());
        let v2: Vec<u32> = arena.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), ptr);
        assert_eq!(arena.reuse_stats(), (2, 1));
        assert_eq!(arena.retained_bytes(), 0);
    }

    #[test]
    fn pools_are_per_type() {
        let mut arena = ScratchArena::new();
        let mut ints: Vec<u64> = arena.take();
        ints.push(7);
        arena.put(ints);
        // A different element type must not be served the pooled buffer.
        let floats: Vec<f64> = arena.take();
        assert_eq!(floats.capacity(), 0);
        assert_eq!(arena.pooled(), 1);
        let ints_again: Vec<u64> = arena.take();
        assert!(ints_again.capacity() >= 1);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn many_buffers_of_one_type() {
        let mut arena = ScratchArena::new();
        let a: Vec<u8> = Vec::with_capacity(16);
        let b: Vec<u8> = Vec::with_capacity(32);
        arena.put(a);
        arena.put(b);
        assert_eq!(arena.pooled(), 2);
        let _x: Vec<u8> = arena.take();
        let _y: Vec<u8> = arena.take();
        let z: Vec<u8> = arena.take();
        assert_eq!(z.capacity(), 0); // pool exhausted, fresh allocation
    }

    #[test]
    fn pathological_round_decays_back_to_working_set() {
        let mut arena = ScratchArena::new();

        // A pathological round pools one 8 MiB spike buffer.
        let spike: Vec<u8> = Vec::with_capacity(8 << 20);
        arena.put(spike);
        assert!(arena.high_water_bytes() >= 8 << 20);

        // Steady state afterwards: a small buffer cycles every round.
        let mut small: Vec<u64> = Vec::with_capacity(1024);
        for _ in 0..12 {
            arena.put(std::mem::take(&mut small));
            small = arena.take();
            assert!(small.capacity() >= 1024, "working set must stay pooled");
            arena.decay();
        }

        // The spike has been evicted (cap halved toward 2x observed
        // demand, floored at MIN_CAP_BYTES < 8 MiB)...
        assert!(arena.retained_bytes() < 8 << 20);
        assert!(arena.cap_bytes() >= MIN_CAP_BYTES);
        assert!(arena.evictions() >= 1);
        // ...while the high-water mark still records the spike and the
        // small working-set buffer keeps being reused.
        assert!(arena.high_water_bytes() >= 8 << 20);
        let (takes, hits) = arena.reuse_stats();
        assert_eq!(takes, hits, "every take after the spike was a pool hit");
    }

    #[test]
    fn inject_pressure_evicts_everything_but_stays_usable() {
        let mut arena = ScratchArena::new();
        let buf: Vec<u64> = Vec::with_capacity(4096);
        arena.put(buf);
        assert_eq!(arena.pooled(), 1);

        arena.inject_pressure();
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.retained_bytes(), 0);
        assert_eq!(arena.cap_bytes(), MIN_CAP_BYTES);
        assert!(arena.evictions() >= 1);

        // Fully functional afterwards: take allocates fresh, put pools
        // again under the clamped cap, and decay regrows from demand.
        let mut v: Vec<u64> = arena.take();
        v.extend(0..1000);
        arena.put(v);
        assert_eq!(arena.pooled(), 1);
        let v2: Vec<u64> = arena.take();
        assert!(v2.capacity() >= 1000, "pool serves capacity after pressure");
    }

    #[test]
    fn ping_pong_swap_does_not_double_count_high_water() {
        let mut arena = ScratchArena::new();
        let slab: Vec<u64> = Vec::with_capacity(1 << 16);
        let bytes = slab.capacity() * std::mem::size_of::<u64>();
        arena.put(slab);
        let hw0 = arena.high_water_bytes();
        assert_eq!(hw0, bytes);

        // Ping-pong: lease the pooled slab, swap it with a same-size
        // caller-owned buffer, return the swapped-out buffer. One slab's
        // worth of capacity cycles; the footprint never grows.
        let mut caller: Vec<u64> = Vec::with_capacity(1 << 16);
        for _ in 0..32 {
            let mut tmp: Vec<u64> = arena.take();
            assert!(tmp.capacity() * std::mem::size_of::<u64>() >= bytes);
            std::mem::swap(&mut caller, &mut tmp);
            arena.put(tmp);
        }
        assert_eq!(
            arena.high_water_bytes(),
            hw0,
            "a reused ping-pong slab must not double-count"
        );
        assert_eq!(arena.leased_bytes(), 0);
        assert_eq!(arena.retained_bytes(), bytes);
    }

    #[test]
    fn leased_bytes_track_outstanding_takes() {
        let mut arena = ScratchArena::new();
        let a: Vec<u64> = Vec::with_capacity(512);
        let b: Vec<u64> = Vec::with_capacity(512);
        let each = 512 * std::mem::size_of::<u64>();
        arena.put(a);
        arena.put(b);
        let x: Vec<u64> = arena.take();
        let y: Vec<u64> = arena.take();
        assert_eq!(arena.leased_bytes(), 2 * each);
        assert_eq!(arena.retained_bytes(), 0);
        arena.put(x);
        assert_eq!(arena.leased_bytes(), each);
        arena.put(y);
        assert_eq!(arena.leased_bytes(), 0);
        // Both returns covered leases — the footprint peak is still the
        // two original puts, not four buffers.
        assert_eq!(arena.high_water_bytes(), 2 * each);
    }

    #[test]
    fn put_over_cap_drops_instead_of_pooling() {
        let mut arena = ScratchArena::new();
        // Force the cap down to the floor.
        for _ in 0..20 {
            arena.decay();
        }
        assert_eq!(arena.cap_bytes(), MIN_CAP_BYTES);
        let big: Vec<u8> = Vec::with_capacity(2 * MIN_CAP_BYTES);
        arena.put(big);
        assert_eq!(arena.pooled(), 0);
        assert_eq!(arena.retained_bytes(), 0);
        assert_eq!(arena.evictions(), 1);
    }
}
