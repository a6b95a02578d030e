//! Plaintext-material caching for the transciphering hot path.
//!
//! Everything the homomorphic PASTA evaluation consumes besides the
//! encrypted key is *public* and a pure function of
//! `(params, nonce, counter)`: the per-block affine matrices, the round
//! constants, and — for the SIMD servers — their encodings as BFV
//! plaintext polynomials. Deriving that material is not free: Keccak
//! XOF squeezing and rejection sampling, matrix row recurrences, and
//! (worst of all) one batch-encode plus forward NTT per plaintext
//! operand. A server transciphering a stream re-derives identical
//! material for every ciphertext that touches the same
//! `(nonce, counter)` window.
//!
//! [`MaterialCache`] memoizes four shapes of derived material behind
//! small LRU sections:
//!
//! - **blocks** — [`BlockEntry`]: the raw [`BlockMaterial`] plus the
//!   materialized per-layer matrices, keyed by
//!   `(PastaParams, nonce, counter)`. Shared by every server mode (the
//!   scalar server reads its weights from here, and the SIMD builders
//!   read their matrix entries from here).
//! - **slot material** — [`BatchedEntry`]: per-layer, per-half `t × t`
//!   [`PreparedPlaintext`] weights and `t` round-constant
//!   [`ScaledPlaintext`]s for the slot-parallel circuit, keyed by
//!   [`SlotMaterialKey`]: the [`BfvParams`] plus the `(nonce, counter)`
//!   coordinate of every slot. The batched server's slots are a
//!   contiguous counter window under one nonce; the cross-tenant
//!   multiplexer's are any member blocks.
//! - **packed** — [`PackedEntry`]: the per-layer diagonal plaintexts
//!   (naive per-diagonal, or plaintext-pre-rotated into baby-step/
//!   giant-step groups — see [`PackedStrategy`]) and the concatenated
//!   round constant for the rotation-based server.
//! - **composed keys** — [`ComposedKeyEntry`]: the slot-masked,
//!   cross-tenant key ciphertexts of one multiplexing bucket
//!   composition, keyed by [`CompositionKey`] (the ordered
//!   `(tenant, blocks)` slot layout).
//!
//! The circuit those shapes feed is written once, in [`crate::circuit`].
//!
//! Every section is byte-budgeted: entries carry an approximate resident
//! size (`approx_*_bytes`) and eviction fires on *either* the entry-count
//! cap or the section's byte cap, so large prepared-plaintext shapes
//! cannot evade a memory budget that was sized in block-entry units.
//!
//! Invalidation rules: entries never go stale — the material is a
//! deterministic function of its key, so the only eviction is LRU
//! capacity pressure. Keys embed the full [`PastaParams`] and (for
//! prepared plaintexts) [`BfvParams`], so one cache instance can be
//! shared by servers with different parameter sets, and by all three
//! server modes at once (pass the same [`std::sync::Arc`] to each
//! server's `with_cache`).
//!
//! Concurrency: each section is guarded by a [`Mutex`]; a miss builds
//! the entry while holding the section lock (deliberate — concurrent
//! callers for the same key would otherwise duplicate an expensive
//! derivation). The batch block lookup ([`MaterialCache::blocks`])
//! keeps that rule for a whole window at once: holding the section lock
//! throughout, it finds the resident entries, derives every absent key
//! exactly once on the worker pool (the workers call
//! [`BlockEntry::derive`] and never touch the lock), and then replays
//! the lookups in order, so hit/miss counts and LRU order are those of
//! one-at-a-time lookups. Entries are
//! returned as [`Arc`]s so evaluation proceeds lock-free after lookup.

use pasta_core::matrix::RowGenerator;
use pasta_core::permutation::{derive_block_material, BlockMaterial};
use pasta_core::PastaParams;
use pasta_fhe::{BfvParams, Ciphertext as FheCiphertext, PreparedPlaintext, ScaledPlaintext};
use pasta_math::linalg::Matrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cache key for raw block material: the PASTA instance plus the block
/// coordinates. (The material does not depend on any FHE parameter.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockKey {
    /// The PASTA parameter set the material was derived for.
    pub pasta: PastaParams,
    /// Session nonce.
    pub nonce: u128,
    /// Block counter.
    pub counter: u64,
}

/// How the packed server groups the affine-layer diagonals (the choice
/// changes what plaintext material must be prepared, so it is part of
/// the cache key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackedStrategy {
    /// One key-switch per nonzero diagonal: `2t − 1` rotations per
    /// affine layer. The pre-BSGS reference path.
    Naive,
    /// Hoisted baby-step/giant-step grouping: `⌈√(2t)⌉ − 1` hoisted baby
    /// rotations shared from one decomposition plus `⌈2t/⌈√(2t)⌉⌉ − 1`
    /// giant rotations — O(√t) key-switches per layer.
    #[default]
    Bsgs,
}

/// Cache key for one packed (rotation-mode) block of prepared diagonals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKey {
    /// The PASTA parameter set.
    pub pasta: PastaParams,
    /// The BFV parameters the diagonals were encoded under.
    pub bfv: BfvParams,
    /// Session nonce.
    pub nonce: u128,
    /// Block counter.
    pub counter: u64,
    /// The diagonal grouping the material was prepared for.
    pub strategy: PackedStrategy,
}

/// The two materialized matrices of one affine layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMatrices {
    /// Left-half matrix `M_L`.
    pub left: Matrix,
    /// Right-half matrix `M_R`.
    pub right: Matrix,
}

/// Cached per-block public material: the XOF output plus the per-layer
/// matrices materialized from the seed rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockEntry {
    /// The raw derived material (seeds, round constants, stats).
    pub material: BlockMaterial,
    /// `matrices[layer]` — materialized left/right matrices.
    pub matrices: Vec<LayerMatrices>,
}

impl BlockEntry {
    /// Derives the material and materializes every layer's matrices.
    #[must_use]
    pub fn derive(params: &PastaParams, nonce: u128, counter: u64) -> Self {
        let material = derive_block_material(params, nonce, counter);
        let zp = params.field();
        let matrices = material
            .layers
            .iter()
            .map(|layer| LayerMatrices {
                left: RowGenerator::new(zp, layer.seed_left.clone()).into_matrix(),
                right: RowGenerator::new(zp, layer.seed_right.clone()).into_matrix(),
            })
            .collect();
        BlockEntry { material, matrices }
    }
}

/// One half of a batched affine layer, fully prepared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchedHalf {
    /// Row-major `t × t` weight plaintexts: slot `s` of `weights[i·t+j]`
    /// holds block `s`'s matrix entry `(i, j)`, NTT-prepared.
    pub weights: Vec<PreparedPlaintext>,
    /// `rc[i]`: slot `s` holds block `s`'s round constant for row `i`,
    /// scaled by `Δ` (round constants are only ever added).
    pub rc: Vec<ScaledPlaintext>,
}

impl BatchedHalf {
    /// The prepared weight for matrix entry `(i, j)` of a `t × t` layer.
    #[must_use]
    pub fn weight(&self, t: usize, i: usize, j: usize) -> &PreparedPlaintext {
        &self.weights[i * t + j]
    }
}

/// One batched affine layer: both halves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchedLayer {
    /// Left-half weights and round constants.
    pub left: BatchedHalf,
    /// Right-half weights and round constants.
    pub right: BatchedHalf,
}

/// All prepared plaintext material of one batched evaluation window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchedEntry {
    /// `layers[l]` — the prepared material for affine layer `l`.
    pub layers: Vec<BatchedLayer>,
}

/// One baby-step/giant-step group: every diagonal `k = shift + b` of
/// the layer matrix, pre-rotated *in plaintext* by the group's giant
/// shift so the homomorphic side applies one rotation for the whole
/// group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BsgsGroup {
    /// The giant rotation amount `g·B` applied once after the group's
    /// multiply–accumulate.
    pub shift: usize,
    /// `diagonals[b]` is diagonal `shift + b` of the layer matrix,
    /// lane-encoded at offset `shift` (the plaintext pre-rotation);
    /// `None` marks an all-zero or out-of-range diagonal.
    pub diagonals: Vec<Option<PreparedPlaintext>>,
}

/// The prepared affine-layer operands, shaped per [`PackedStrategy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedAffine {
    /// `diagonals[k]` for rotation amount `k ∈ 0..2t`; `None` marks an
    /// all-zero diagonal (the evaluation skips the rotation entirely).
    Naive(Vec<Option<PreparedPlaintext>>),
    /// Giant-step groups over hoisted baby rotations.
    Bsgs {
        /// Baby-step count `B` (rotations `0..B` of the input are
        /// produced from one hoisted decomposition).
        baby_count: usize,
        /// One group per giant step `g`, in ascending `g` order.
        groups: Vec<BsgsGroup>,
    },
}

/// One packed affine layer: the grouped diagonals of the block-diagonal
/// matrix `diag(M_L, M_R)` plus the concatenated round constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayer {
    /// The prepared diagonal operands.
    pub affine: PackedAffine,
    /// `rc_left ‖ rc_right` encoded into lanes `0..2t`, scaled by `Δ`.
    pub rc: ScaledPlaintext,
}

/// All prepared diagonal material of one packed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedEntry {
    /// `layers[l]` — the prepared material for affine layer `l`.
    pub layers: Vec<PackedLayer>,
}

/// Cache key for one multiplexing-bucket key composition: the ordered
/// slot layout of the bucket. Member `m` occupies `members[m].1` slots
/// starting at the prefix sum of the earlier members' block counts.
///
/// The tenant id stands in for the tenant's [`crate::EncryptedPastaKey`]
/// in the key: within one cache domain the binding `tenant → key` is
/// stable (a tenant provisions its key once), so two lookups with equal
/// layouts compose bit-identical ciphertexts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionKey {
    /// The PASTA parameter set (fixes the key length `2t`).
    pub pasta: PastaParams,
    /// The BFV parameters the masks were encoded under.
    pub bfv: BfvParams,
    /// `(tenant, blocks)` per member, in ascending slot order.
    pub members: Vec<(u64, usize)>,
}

/// The slot-masked cross-tenant key of one bucket composition: element
/// `j`'s slot `s` holds key element `j` of the member owning slot `s`
/// (and `0` in unassigned slots).
#[derive(Debug, Clone)]
pub struct ComposedKeyEntry {
    /// Composed key ciphertexts `K_0 … K_{2t−1}`.
    pub elements: Vec<FheCiphertext>,
}

/// Cache key for per-slot prepared material: slot `s` carries the
/// affine material of coordinate `slots[s]`. The slots may form one
/// contiguous counter window (the batched server) or come from many
/// nonces (the multiplexer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMaterialKey {
    /// The PASTA parameter set.
    pub pasta: PastaParams,
    /// The BFV parameters the plaintexts were encoded under (the RNS
    /// basis and NTT tables are deterministic functions of these).
    pub bfv: BfvParams,
    /// `(nonce, counter)` per occupied slot, in slot order (the
    /// unoccupied tail is implicit).
    pub slots: Vec<(u128, u64)>,
}

/// Hit/miss counters for one cache section (or the aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the entry.
    pub misses: u64,
}

/// A tiny move-to-front LRU over a `Vec` — the working sets here are a
/// handful of entries, so linear scans beat a hash map plus ordering
/// side-structure. Each entry carries its approximate resident size;
/// eviction fires on the entry-count cap *or* the byte cap, always
/// keeping at least the most recent entry so a starved budget still
/// yields a working single-entry cache.
#[derive(Debug)]
struct Lru<K, V> {
    cap: usize,
    cap_bytes: usize,
    entries: Vec<(K, Arc<V>, usize)>,
    bytes: usize,
    hits: u64,
    misses: u64,
}

impl<K: PartialEq + Clone, V> Lru<K, V> {
    fn new(cap: usize, cap_bytes: usize) -> Self {
        Lru {
            cap: cap.max(1),
            cap_bytes: cap_bytes.max(1),
            entries: Vec::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn get_or_insert_with(&mut self, key: &K, bytes: usize, build: impl FnOnce() -> V) -> Arc<V> {
        self.get_or_insert_arc(key, bytes, || Arc::new(build()))
    }

    /// The resident value for `key`, without counting a lookup or
    /// touching the LRU order.
    fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| Arc::clone(v))
    }

    fn get_or_insert_arc(
        &mut self,
        key: &K,
        bytes: usize,
        value: impl FnOnce() -> Arc<V>,
    ) -> Arc<V> {
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| k == key) {
            self.hits += 1;
            let entry = self.entries.remove(pos);
            let value = Arc::clone(&entry.1);
            self.entries.insert(0, entry);
            return value;
        }
        self.misses += 1;
        let value = value();
        self.entries
            .insert(0, (key.clone(), Arc::clone(&value), bytes));
        self.bytes += bytes;
        while self.entries.len() > 1
            && (self.entries.len() > self.cap || self.bytes > self.cap_bytes)
        {
            if let Some((_, _, freed)) = self.entries.pop() {
                self.bytes = self.bytes.saturating_sub(freed);
            }
        }
        value
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }
}

/// Default capacity of the raw block-material section.
pub const DEFAULT_BLOCK_CAPACITY: usize = 256;
/// Default capacity of the packed prepared-diagonal section.
pub const DEFAULT_PACKED_CAPACITY: usize = 64;
/// Default capacity of the composed-key section (one entry per live
/// bucket composition; compositions repeat under steady load).
pub const DEFAULT_COMPOSED_CAPACITY: usize = 8;
/// Default capacity of the slot-material section (entries are large:
/// `layers · 2 · (t² + t)` prepared polynomials each).
pub const DEFAULT_SLOT_MATERIAL_CAPACITY: usize = 8;

/// The shared plaintext-material cache (see the module docs).
#[derive(Debug)]
pub struct MaterialCache {
    blocks: Mutex<Lru<BlockKey, BlockEntry>>,
    slot_material: Mutex<Lru<SlotMaterialKey, BatchedEntry>>,
    packed: Mutex<Lru<PackedKey, PackedEntry>>,
    composed: Mutex<Lru<CompositionKey, ComposedKeyEntry>>,
}

impl Default for MaterialCache {
    fn default() -> Self {
        Self::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The builders cannot panic in normal operation; if one ever does,
    // the cached data is still internally consistent (entries are only
    // inserted whole), so recover the guard instead of poisoning every
    // later transciphering call.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MaterialCache {
    /// A cache with the default per-section capacities.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacities(
            DEFAULT_BLOCK_CAPACITY,
            DEFAULT_SLOT_MATERIAL_CAPACITY,
            DEFAULT_PACKED_CAPACITY,
        )
    }

    /// A cache with explicit per-section entry capacities (each clamped
    /// to at least one entry; byte caps unbounded): `batched` bounds the
    /// slot-material section the batched and multiplexed servers share.
    /// The composed-key section gets its default capacity.
    #[must_use]
    pub fn with_capacities(blocks: usize, batched: usize, packed: usize) -> Self {
        MaterialCache {
            blocks: Mutex::new(Lru::new(blocks, usize::MAX)),
            slot_material: Mutex::new(Lru::new(batched, usize::MAX)),
            packed: Mutex::new(Lru::new(packed, usize::MAX)),
            composed: Mutex::new(Lru::new(DEFAULT_COMPOSED_CAPACITY, usize::MAX)),
        }
    }

    /// A cache bounded by an approximate total byte budget, split across
    /// the sections (blocks ¼, slot material ⅜, packed ¼, composed keys
    /// ⅛). Entry counts are generous — the byte caps
    /// govern — and every section keeps at least its most recent entry,
    /// so a starved budget degrades to single-entry memoization instead
    /// of breaking.
    #[must_use]
    pub fn with_budget(budget_bytes: usize) -> Self {
        let budget = budget_bytes.max(1);
        let quarter = (budget / 4).max(1);
        let eighth = (budget / 8).max(1);
        MaterialCache {
            blocks: Mutex::new(Lru::new(4096, quarter)),
            slot_material: Mutex::new(Lru::new(1024, quarter + eighth)),
            packed: Mutex::new(Lru::new(1024, quarter)),
            composed: Mutex::new(Lru::new(1024, eighth)),
        }
    }

    /// The block material (and materialized matrices) for
    /// `(params, nonce, counter)`, derived on first use.
    #[must_use]
    pub fn block(&self, params: &PastaParams, nonce: u128, counter: u64) -> Arc<BlockEntry> {
        let mut entries = self.blocks(params, &[(nonce, counter)]);
        entries.swap_remove(0)
    }

    /// The block entries for `coords` (`(nonce, counter)` per slot, in
    /// order), as if each were looked up with [`MaterialCache::block`]
    /// in turn — same hit/miss counts, same LRU order — but with every
    /// absent key derived once, on the worker pool (see module docs).
    #[must_use]
    pub fn blocks(&self, params: &PastaParams, coords: &[(u128, u64)]) -> Vec<Arc<BlockEntry>> {
        let key = |&(nonce, counter): &(u128, u64)| BlockKey {
            pasta: *params,
            nonce,
            counter,
        };
        let bytes = approx_block_entry_bytes(params);
        let mut section = lock(&self.blocks);
        // What is resident now, and each absent key once, in order.
        let mut absent: HashMap<(u128, u64), usize> = HashMap::new();
        let mut to_derive = Vec::new();
        let resident: Vec<Option<Arc<BlockEntry>>> = coords
            .iter()
            .map(|c| {
                let hit = section.peek(&key(c));
                if hit.is_none() {
                    absent.entry(*c).or_insert_with(|| {
                        to_derive.push(*c);
                        to_derive.len() - 1
                    });
                }
                hit
            })
            .collect();
        let derived = pasta_par::parallel_map(&to_derive, |_, &(nonce, counter)| {
            Arc::new(BlockEntry::derive(params, nonce, counter))
        });
        // Replay in order. A miss inserts the entry already in hand: the
        // derived one, or the one resident above but since evicted by
        // this very window.
        coords
            .iter()
            .zip(resident)
            .map(|(c, hit)| {
                section.get_or_insert_arc(&key(c), bytes, || {
                    hit.unwrap_or_else(|| Arc::clone(&derived[absent[c]]))
                })
            })
            .collect()
    }

    /// The packed prepared material for `key`, built by `build` on a
    /// miss.
    #[must_use]
    pub fn packed(&self, key: &PackedKey, build: impl FnOnce() -> PackedEntry) -> Arc<PackedEntry> {
        let bytes = approx_packed_entry_bytes(&key.pasta, &key.bfv);
        lock(&self.packed).get_or_insert_with(key, bytes, build)
    }

    /// The composed cross-tenant key for one bucket layout, built by
    /// `build` on a miss.
    #[must_use]
    pub fn composed_key(
        &self,
        key: &CompositionKey,
        build: impl FnOnce() -> ComposedKeyEntry,
    ) -> Arc<ComposedKeyEntry> {
        let bytes = approx_composed_key_bytes(&key.pasta, &key.bfv);
        lock(&self.composed).get_or_insert_with(key, bytes, build)
    }

    /// The per-slot prepared material for `key`, built by `build` on a
    /// miss (the builder runs under the section lock; see module docs).
    #[must_use]
    pub fn slot_material(
        &self,
        key: &SlotMaterialKey,
        build: impl FnOnce() -> BatchedEntry,
    ) -> Arc<BatchedEntry> {
        let bytes = approx_batched_entry_bytes(&key.pasta, &key.bfv);
        lock(&self.slot_material).get_or_insert_with(key, bytes, build)
    }

    /// Aggregate hit/miss counters across all four sections.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let sections = [
            lock(&self.blocks).stats(),
            lock(&self.slot_material).stats(),
            lock(&self.packed).stats(),
            lock(&self.composed).stats(),
        ];
        let mut out = CacheStats::default();
        for s in sections {
            out.hits += s.hits;
            out.misses += s.misses;
        }
        out
    }

    /// Approximate resident bytes across all four sections.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        lock(&self.blocks).bytes
            + lock(&self.slot_material).bytes
            + lock(&self.packed).bytes
            + lock(&self.composed).bytes
    }
}

/// Approximate resident size (bytes) of one cached [`BlockEntry`] for a
/// parameter set: the materialized `2 · t × t` matrix rows per layer
/// dominate; seeds and round constants add `4t` words per layer.
///
/// This is the unit the sharded cache's memory budget is divided by, so
/// it only needs to be proportionally right, not byte-exact.
#[must_use]
pub fn approx_block_entry_bytes(params: &PastaParams) -> usize {
    let t = params.t();
    let layers = params.rounds() + 1;
    layers * (2 * t * t + 4 * t) * 8
}

/// Approximate resident size (bytes) of one [`PreparedPlaintext`]: `N`
/// coefficients across `prime_count` RNS limbs of 8 bytes each, times
/// two resident arrays (the NTT-domain rows and their Shoup companions
/// precomputed for the SIMD multiply kernels).
#[must_use]
pub fn approx_prepared_plaintext_bytes(bfv: &BfvParams) -> usize {
    2 * bfv.n * bfv.prime_count * 8
}

/// Approximate resident size (bytes) of one [`ScaledPlaintext`]: the
/// one array `Δ·m`, `N` coefficients across `prime_count` RNS limbs.
#[must_use]
pub fn approx_scaled_plaintext_bytes(bfv: &BfvParams) -> usize {
    bfv.n * bfv.prime_count * 8
}

/// Approximate resident size (bytes) of one BFV ciphertext (two ring
/// elements in RNS form).
#[must_use]
pub fn approx_ciphertext_bytes(bfv: &BfvParams) -> usize {
    2 * bfv.n * bfv.prime_count * 8
}

/// Approximate resident size (bytes) of one [`BatchedEntry`] (the
/// slot-material shape): per layer and half, `t²` prepared weights and
/// `t` scaled round constants.
#[must_use]
pub fn approx_batched_entry_bytes(params: &PastaParams, bfv: &BfvParams) -> usize {
    let t = params.t();
    let layers = params.rounds() + 1;
    layers
        * 2
        * (t * t * approx_prepared_plaintext_bytes(bfv) + t * approx_scaled_plaintext_bytes(bfv))
}

/// Approximate resident size (bytes) of one [`PackedEntry`]: per layer,
/// up to `2t` prepared diagonals plus the scaled round constant.
#[must_use]
pub fn approx_packed_entry_bytes(params: &PastaParams, bfv: &BfvParams) -> usize {
    let t = params.t();
    let layers = params.rounds() + 1;
    layers * (2 * t * approx_prepared_plaintext_bytes(bfv) + approx_scaled_plaintext_bytes(bfv))
}

/// Approximate resident size (bytes) of one [`ComposedKeyEntry`]: `2t`
/// composed key ciphertexts.
#[must_use]
pub fn approx_composed_key_bytes(params: &PastaParams, bfv: &BfvParams) -> usize {
    params.state_size() * approx_ciphertext_bytes(bfv)
}

/// Configuration of a [`ShardedCache`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedCacheConfig {
    /// Total memory budget (bytes) across all resident tenant shards.
    /// Each shard is a [`MaterialCache::with_budget`] of the slice
    /// `budget_bytes / max_resident`, so *every* cache shape — raw block
    /// entries, slot material and packed prepared plaintexts, and the
    /// multiplexer's composed keys — counts against the budget.
    pub budget_bytes: usize,
    /// Maximum number of tenant shards kept resident; the least recently
    /// used shard beyond this is evicted whole.
    pub max_resident: usize,
}

impl Default for ShardedCacheConfig {
    fn default() -> Self {
        ShardedCacheConfig {
            budget_bytes: 64 << 20,
            max_resident: 64,
        }
    }
}

/// A per-tenant sharding layer over [`MaterialCache`].
///
/// A multi-tenant transciphering server cannot share one flat LRU: a
/// single tenant streaming fresh `(nonce, counter)` windows would evict
/// everyone else's material. Instead each tenant gets its *own*
/// [`MaterialCache`] shard whose capacity is a fixed slice of the
/// configured memory budget, and whole shards are LRU-evicted when more
/// than [`ShardedCacheConfig::max_resident`] tenants have resident
/// material. A tenant can therefore thrash only its own slice.
///
/// Shards are handed out as [`Arc`]s; an evicted shard's memory is
/// released once its last holder (e.g. an [`crate::HheServer`] that
/// swaps caches via [`crate::HheServer::set_cache`]) drops the `Arc`.
#[derive(Debug)]
pub struct ShardedCache {
    cfg: ShardedCacheConfig,
    shards: Mutex<ShardTable>,
}

/// MRU-ordered `(tenant, shard)` pairs plus the eviction counter.
#[derive(Debug, Default)]
struct ShardTable {
    entries: Vec<(u64, Arc<MaterialCache>)>,
    evictions: u64,
}

impl ShardedCache {
    /// Creates an empty sharded cache (capacities clamped to ≥ 1).
    #[must_use]
    pub fn new(cfg: ShardedCacheConfig) -> Self {
        ShardedCache {
            cfg: ShardedCacheConfig {
                budget_bytes: cfg.budget_bytes.max(1),
                max_resident: cfg.max_resident.max(1),
            },
            shards: Mutex::new(ShardTable::default()),
        }
    }

    /// The configuration the cache was built with.
    #[must_use]
    pub fn config(&self) -> &ShardedCacheConfig {
        &self.cfg
    }

    /// The tenant's shard, created on first use as a byte-budgeted
    /// [`MaterialCache`] over the per-tenant budget slice. Touching a
    /// shard moves it to the front of the eviction order; the least
    /// recently used shard beyond `max_resident` is evicted whole.
    #[must_use]
    pub fn shard(&self, tenant: u64) -> Arc<MaterialCache> {
        let mut guard = lock(&self.shards);
        let table = &mut *guard;
        if let Some(pos) = table.entries.iter().position(|(id, _)| *id == tenant) {
            let entry = table.entries.remove(pos);
            let shard = Arc::clone(&entry.1);
            table.entries.insert(0, entry);
            return shard;
        }
        let per_tenant = (self.cfg.budget_bytes / self.cfg.max_resident).max(1);
        let shard = Arc::new(MaterialCache::with_budget(per_tenant));
        table.entries.insert(0, (tenant, Arc::clone(&shard)));
        if table.entries.len() > self.cfg.max_resident {
            table.entries.truncate(self.cfg.max_resident);
            table.evictions += 1;
        }
        shard
    }

    /// Number of tenant shards currently resident.
    #[must_use]
    pub fn resident(&self) -> usize {
        lock(&self.shards).entries.len()
    }

    /// Whole-shard evictions since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        lock(&self.shards).evictions
    }

    /// Aggregate hit/miss counters across every *resident* shard
    /// (evicted shards take their counters with them).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let guard = lock(&self.shards);
        let mut out = CacheStats::default();
        for (_, shard) in &guard.entries {
            let s = shard.stats();
            out.hits += s.hits;
            out.misses += s.misses;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_math::Modulus;

    fn params() -> PastaParams {
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
    }

    #[test]
    fn block_entries_are_memoized_and_bit_exact() {
        let cache = MaterialCache::new();
        let a = cache.block(&params(), 7, 3);
        let b = cache.block(&params(), 7, 3);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must reuse the entry");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // A fresh derivation agrees exactly.
        assert_eq!(*a, BlockEntry::derive(&params(), 7, 3));
    }

    /// Resident block keys, most recent first.
    fn block_order(cache: &MaterialCache) -> Vec<(u128, u64)> {
        lock(&cache.blocks)
            .entries
            .iter()
            .map(|(k, _, _)| (k.nonce, k.counter))
            .collect()
    }

    #[test]
    fn batch_block_lookup_counts_like_single_lookups() {
        let p = params();
        let window: Vec<(u128, u64)> = (0..6).map(|c| (4, c)).collect();
        let cache = MaterialCache::with_capacities(8, 1, 1);
        let cold = cache.blocks(&p, &window);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 6 });
        for (entry, &(nonce, counter)) in cold.iter().zip(&window) {
            assert_eq!(**entry, BlockEntry::derive(&p, nonce, counter));
        }
        let warm = cache.blocks(&p, &window);
        assert_eq!(cache.stats(), CacheStats { hits: 6, misses: 6 });
        assert!(cold.iter().zip(&warm).all(|(a, b)| Arc::ptr_eq(a, b)));
        // Single lookups see the batch's entries.
        assert!(Arc::ptr_eq(&cache.block(&p, 4, 2), &cold[2]));
        assert_eq!(cache.stats(), CacheStats { hits: 7, misses: 6 });
    }

    #[test]
    fn batch_block_lookup_replays_single_lookups_exactly() {
        // Capacity 4: a resident key is evicted by the window before the
        // window reaches it, a duplicate coordinate hits, and a key
        // repeated after its eviction misses again — counts and LRU
        // order must match one-at-a-time lookups in every case.
        let p = params();
        let warmup: Vec<(u128, u64)> = vec![(1, 0), (1, 1), (1, 2)];
        let window: Vec<(u128, u64)> = vec![
            (2, 0),
            (1, 2),
            (2, 0),
            (2, 1),
            (2, 2),
            (2, 3),
            (1, 0),
            (2, 4),
            (1, 2),
        ];
        let batch = MaterialCache::with_capacities(4, 1, 1);
        let single = MaterialCache::with_capacities(4, 1, 1);
        let _ = batch.blocks(&p, &warmup);
        for &(nonce, counter) in &warmup {
            let _ = single.block(&p, nonce, counter);
        }
        let got = batch.blocks(&p, &window);
        let expect: Vec<Arc<BlockEntry>> = window
            .iter()
            .map(|&(nonce, counter)| single.block(&p, nonce, counter))
            .collect();
        assert_eq!(batch.stats(), single.stats());
        assert_eq!(block_order(&batch), block_order(&single));
        assert_eq!(got.len(), expect.len());
        assert!(got.iter().zip(&expect).all(|(a, b)| **a == **b));
        // Duplicate coordinates share one derivation.
        assert!(Arc::ptr_eq(&got[0], &got[2]));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = MaterialCache::new();
        let a = cache.block(&params(), 7, 3);
        let b = cache.block(&params(), 7, 4);
        let c = cache.block(
            &PastaParams::custom(4, 3, Modulus::PASTA_17_BIT).unwrap(),
            7,
            3,
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(*a, *b);
        assert_ne!(
            a.matrices.len(),
            c.matrices.len(),
            "different rounds, different layers"
        );
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = MaterialCache::with_capacities(2, 1, 1);
        let a0 = cache.block(&params(), 1, 0);
        let _ = cache.block(&params(), 1, 1);
        // Touch counter 0 so counter 1 is the LRU victim.
        let _ = cache.block(&params(), 1, 0);
        let _ = cache.block(&params(), 1, 2); // evicts counter 1
        let a0_again = cache.block(&params(), 1, 0);
        assert!(Arc::ptr_eq(&a0, &a0_again), "survivor must still be cached");
        let before = cache.stats().misses;
        let _ = cache.block(&params(), 1, 1); // was evicted: a miss
        assert_eq!(cache.stats().misses, before + 1);
    }

    #[test]
    fn shards_are_per_tenant_and_reused() {
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: 1 << 20,
            max_resident: 4,
        });
        let a = sharded.shard(1);
        let a_again = sharded.shard(1);
        assert!(Arc::ptr_eq(&a, &a_again), "same tenant, same shard");
        let b = sharded.shard(2);
        assert!(!Arc::ptr_eq(&a, &b), "tenants must not share a shard");
        assert_eq!(sharded.resident(), 2);
        // Entries populated through one tenant's shard stay invisible to
        // the other tenant.
        let _ = a.block(&params(), 9, 0);
        assert_eq!(b.stats(), CacheStats::default());
        assert_eq!(sharded.stats().misses, 1);
    }

    #[test]
    fn lru_shard_eviction_bounds_residency() {
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: 1 << 20,
            max_resident: 2,
        });
        let one = sharded.shard(1);
        let _ = sharded.shard(2);
        let _ = sharded.shard(1); // touch: 2 becomes LRU
        let _ = sharded.shard(3); // evicts tenant 2
        assert_eq!(sharded.resident(), 2);
        assert_eq!(sharded.evictions(), 1);
        let one_again = sharded.shard(1);
        assert!(Arc::ptr_eq(&one, &one_again), "survivor keeps its shard");
        // Tenant 2 comes back as a *fresh* shard.
        let two = sharded.shard(2);
        assert_eq!(two.stats(), CacheStats::default());
    }

    #[test]
    fn shard_capacity_tracks_the_budget_slice() {
        let per_entry = approx_block_entry_bytes(&params());
        // Blocks get ¼ of the per-tenant slice; budget 24 entries across
        // 2 shards → 12 per tenant → cap 3 block entries.
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: per_entry * 24,
            max_resident: 2,
        });
        let shard = sharded.shard(7);
        for counter in 0..4 {
            let _ = shard.block(&params(), 1, counter);
        }
        // Counter 0 must have been evicted by byte pressure (cap 3).
        let before = shard.stats().misses;
        let _ = shard.block(&params(), 1, 0);
        assert_eq!(shard.stats().misses, before + 1, "cap must be 3");
        // A starved budget still yields a working 1-entry shard.
        let tiny = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: 1,
            max_resident: 1,
        });
        let s = tiny.shard(1);
        let _ = s.block(&params(), 1, 0);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn batched_entries_count_against_the_byte_budget() {
        let p = params();
        let bfv = BfvParams::test_tiny();
        let per_batched = approx_batched_entry_bytes(&p, &bfv);
        // A budget whose slot-material slice (⅜) holds exactly one
        // entry: a batched-heavy tenant must evict its older windows
        // instead of accumulating them invisibly.
        let sharded = ShardedCache::new(ShardedCacheConfig {
            budget_bytes: per_batched * 4,
            max_resident: 1,
        });
        let shard = sharded.shard(3);
        let key = |first_counter: u64| SlotMaterialKey {
            pasta: p,
            bfv,
            slots: vec![(5, first_counter), (5, first_counter + 1)],
        };
        let entry = || BatchedEntry { layers: Vec::new() };
        let a = shard.slot_material(&key(0), entry);
        let _ = shard.slot_material(&key(2), entry); // evicts window 0 (bytes)
        assert!(shard.approx_bytes() <= per_batched * 4);
        let misses = shard.stats().misses;
        let a_again = shard.slot_material(&key(0), entry);
        assert_eq!(shard.stats().misses, misses + 1, "window 0 was evicted");
        assert!(!Arc::ptr_eq(&a, &a_again));
        // Composed-key entries are sized too.
        let comp = CompositionKey {
            pasta: p,
            bfv,
            members: vec![(1, 2), (2, 3)],
        };
        let _ = shard.composed_key(&comp, || ComposedKeyEntry {
            elements: Vec::new(),
        });
        assert!(shard.approx_bytes() >= approx_composed_key_bytes(&p, &bfv));
    }

    #[test]
    fn matrices_match_a_direct_row_generator() {
        let p = params();
        let entry = BlockEntry::derive(&p, 42, 9);
        let material = derive_block_material(&p, 42, 9);
        for (layer, mats) in material.layers.iter().zip(entry.matrices.iter()) {
            let left = RowGenerator::new(p.field(), layer.seed_left.clone()).into_matrix();
            assert_eq!(mats.left, left);
            let right = RowGenerator::new(p.field(), layer.seed_right.clone()).into_matrix();
            assert_eq!(mats.right, right);
        }
    }
}
