//! SIMD-batched transciphering: `N` PASTA blocks per BFV ciphertext.
//!
//! The scalar server ([`crate::server::HheServer`]) spends one BFV
//! ciphertext per PASTA state element and transciphers one block at a
//! time. The original PASTA software instead exploits BFV *batching*
//! (SEAL's `BatchEncoder`): with `t_plain = 65537` and `2N | t_plain − 1`,
//! one ciphertext holds `N` independent `F_p` slots, and all ring
//! operations act slot-wise.
//!
//! The key observation that makes PASTA batching work: the secret key is
//! the *same* for every block, while the affine material differs per
//! block — but the material is *public*. So:
//!
//! - key ciphertext `j` encrypts the vector `(K_j, K_j, …, K_j)` (all
//!   slots equal);
//! - slot `s` of the evaluation processes block `counter₀ + s`;
//! - the affine layer's matrix entry for position `(i, j)` becomes a
//!   *batched plaintext* whose slot `s` holds `M^{(s)}_{i,j}` — one
//!   plaintext–ciphertext multiplication handles that entry for all `N`
//!   blocks at once;
//! - Mix and the S-boxes are slot-wise by construction, so the pass runs
//!   the scalar server's circuit ([`crate::circuit`]) unchanged, with
//!   only the affine step swapped for the slot-plaintext one.
//!
//! Per-ciphertext work rises (full `N log N` plaintext multiplications
//! instead of scalar ones) but is amortized over `N` blocks — the
//! throughput play of the original software, reproduced here.
//!
//! A window's material lives in the cache's slot-material section,
//! keyed by the window's `(nonce, counter)` per slot — the same key
//! shape the multiplexer uses for its heterogeneous slots. A cold
//! window's material is built in three steps, each on the
//! worker pool: the window's block entries come from one batch lookup
//! ([`MaterialCache::blocks`], misses derived in parallel); each
//! layer-half is transposed into slot-major rows; and each row is
//! encoded once — matrix entries as NTT-prepared multipliers, round
//! constants as `Δ`-scaled addends, since those are only ever added.
//!
//! Unlike [`crate::packed`], this layout is *rotation-free*: state
//! position `(i)` lives in its own ciphertext and slots only ever meet
//! slot-wise, so there are no Galois key-switches for the hoisted-BSGS
//! optimization to save, and no rotation keys to provision at all. The
//! baby-step/giant-step machinery therefore applies only to the packed
//! (position-in-lane) mode.

use crate::cache::{
    BatchedEntry, BatchedHalf, BatchedLayer, BlockEntry, MaterialCache, SlotMaterialKey,
};
use crate::circuit;
use crate::client::EncryptedPastaKey;
use pasta_core::{Ciphertext as PastaCiphertext, PastaParams};
use pasta_fhe::{BatchEncoder, BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError};
use std::sync::Arc;

/// A transciphering server that processes up to `N` blocks per pass.
#[derive(Debug)]
pub struct BatchedHheServer {
    params: PastaParams,
    relin_key: BfvRelinKey,
    encrypted_key: EncryptedPastaKey,
    encoder: BatchEncoder,
    cache: Arc<MaterialCache>,
}

/// The result of one batched pass: `t` ciphertexts whose slot `s` holds
/// the keystream (or message) element for block `first_counter + s`.
#[derive(Debug)]
pub struct BatchedBlocks {
    /// Position-major ciphertexts: index `i` covers state position `i`
    /// across all batched blocks.
    pub positions: Vec<FheCiphertext>,
    /// Counter of the first block in the batch.
    pub first_counter: u64,
    /// Number of blocks batched (`≤ N` slots).
    pub blocks: usize,
}

impl BatchedHheServer {
    /// Builds a batched server. The encrypted key must have been
    /// provisioned with *batched* key ciphertexts — every slot equal to
    /// the key element (see [`provision_batched_key`]).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] on a key-length mismatch, or
    /// propagates encoder construction errors (`2N ∤ t_plain − 1`).
    pub fn new(
        params: PastaParams,
        ctx: &BfvContext,
        relin_key: BfvRelinKey,
        encrypted_key: EncryptedPastaKey,
    ) -> Result<Self, FheError> {
        if encrypted_key.elements.len() != params.state_size() {
            return Err(FheError::Incompatible(format!(
                "encrypted key has {} elements, expected {}",
                encrypted_key.elements.len(),
                params.state_size()
            )));
        }
        let encoder = BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n)
            .map_err(FheError::from)?;
        Ok(BatchedHheServer {
            params,
            relin_key,
            encrypted_key,
            encoder,
            cache: Arc::new(MaterialCache::new()),
        })
    }

    /// Replaces the material cache (e.g. with one shared by several
    /// servers or server modes).
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<MaterialCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The material cache in use (shareable via [`Arc::clone`]).
    #[must_use]
    pub fn cache(&self) -> &Arc<MaterialCache> {
        &self.cache
    }

    /// The number of blocks one pass can carry (`N` slots).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.encoder.slots()
    }

    /// Homomorphically computes keystream blocks `first_counter ..
    /// first_counter + blocks` in one SIMD pass.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if `blocks` exceeds the slot
    /// capacity (or is zero); propagates FHE errors.
    pub fn keystream_batch(
        &self,
        ctx: &BfvContext,
        nonce: u128,
        first_counter: u64,
        blocks: usize,
    ) -> Result<BatchedBlocks, FheError> {
        if blocks == 0 || blocks > self.capacity() {
            return Err(FheError::Incompatible(format!(
                "batch of {blocks} blocks exceeds the {}-slot capacity",
                self.capacity()
            )));
        }
        // Slot s carries block first_counter + s; the prepared material
        // is paid once per (nonce, window), then served from the cache.
        let window: Vec<(u128, u64)> = (0..blocks as u64)
            .map(|s| (nonce, first_counter + s))
            .collect();
        let positions = slotted_keystream(
            ctx,
            &self.params,
            &self.relin_key,
            &self.encoder,
            &self.cache,
            window,
            &self.encrypted_key.elements,
        )?;
        Ok(BatchedBlocks {
            positions,
            first_counter,
            blocks,
        })
    }

    /// Transciphers a PASTA ciphertext in SIMD fashion: all blocks in one
    /// homomorphic pass (up to the slot capacity).
    ///
    /// Returns `t` position-major ciphertexts; slot `s` of ciphertext `i`
    /// holds message element `s·t + i`.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Incompatible`] if the ciphertext has more
    /// blocks than slots; propagates FHE errors.
    pub fn transcipher_batched(
        &self,
        ctx: &BfvContext,
        pasta_ct: &PastaCiphertext,
    ) -> Result<BatchedBlocks, FheError> {
        let t = self.params.t();
        let blocks = pasta_ct.len().div_ceil(t);
        let ks = self.keystream_batch(ctx, pasta_ct.nonce(), 0, blocks)?;
        Ok(BatchedBlocks {
            positions: subtract_keystream(
                ctx,
                &self.encoder,
                &ks.positions,
                blocks,
                [(pasta_ct, 0)],
            )?,
            first_counter: 0,
            blocks,
        })
    }

    /// Decodes one position-major ciphertext of a batch back into the
    /// per-block values (requires the FHE secret key — client side).
    #[must_use]
    pub fn decode_position(
        &self,
        ctx: &BfvContext,
        sk: &pasta_fhe::BfvSecretKey,
        batch: &BatchedBlocks,
        position: usize,
    ) -> Vec<u64> {
        let pt = ctx.decrypt(sk, &batch.positions[position]);
        self.encoder.decode(&pt)[..batch.blocks].to_vec()
    }
}

/// Builds the prepared plaintext material for a slot-parallel pass over
/// arbitrary per-slot block material: per layer and half, the `t × t`
/// slot-vector weights (NTT-prepared multipliers) and `t` round
/// constants (`Δ`-scaled addends), batch-encoded once. Slot `s` carries
/// `per_slot[s]`'s entries — the slots need not share a nonce or
/// counter window, which is what lets the cross-tenant multiplexer
/// reuse this builder.
///
/// Each layer-half is first transposed into slot-major rows (row
/// `(i, j)` holds entry `(i, j)` of every block, contiguous), so the
/// per-cell encode reads one dense row instead of one word from each
/// of `blocks` separate matrices. The transpose and the per-row
/// encodes run on the worker pool.
fn prepare_slotted_material(
    ctx: &BfvContext,
    params: &PastaParams,
    encoder: &BatchEncoder,
    per_slot: &[Arc<BlockEntry>],
) -> BatchedEntry {
    let half = |layer: usize, is_left: bool| -> BatchedHalf {
        let matrices: Vec<&[u64]> = per_slot
            .iter()
            .map(|b| {
                let m = &b.matrices[layer];
                if is_left { &m.left } else { &m.right }.as_slice()
            })
            .collect();
        let constants: Vec<&[u64]> = per_slot
            .iter()
            .map(|b| {
                let l = &b.material.layers[layer];
                if is_left { &l.rc_left } else { &l.rc_right }.as_slice()
            })
            .collect();
        BatchedHalf {
            weights: pasta_par::parallel_map(&slot_major(&matrices), |_, row| {
                ctx.prepare_plaintext(&encoder.encode(row))
            }),
            rc: pasta_par::parallel_map(&slot_major(&constants), |_, row| {
                ctx.scale_plaintext(&encoder.encode(row))
            }),
        }
    };
    let layers = (0..params.affine_layers())
        .map(|layer| BatchedLayer {
            left: half(layer, true),
            right: half(layer, false),
        })
        .collect();
    BatchedEntry { layers }
}

/// Cells per transpose task: one task reads a 512-byte run of each
/// block's row-major entries.
const CELL_GROUP: usize = 64;
/// Blocks per transpose tile: a tile's `CELL_GROUP × BLOCK_TILE` words
/// (32 KiB) stay cache-resident while they are scattered into rows.
const BLOCK_TILE: usize = 64;

/// Transposes per-block entry lists (`per_block[s][cell]`, all of one
/// length) into slot-major rows: `rows[cell][s] = per_block[s][cell]`.
/// Cell groups run on the worker pool; within a group, blocks are
/// visited tile by tile.
fn slot_major(per_block: &[&[u64]]) -> Vec<Vec<u64>> {
    let cells = per_block.first().map_or(0, |b| b.len());
    let groups: Vec<usize> = (0..cells.div_ceil(CELL_GROUP)).collect();
    pasta_par::parallel_map(&groups, |_, &g| {
        let cell_range = g * CELL_GROUP..((g + 1) * CELL_GROUP).min(cells);
        let mut rows = vec![vec![0u64; per_block.len()]; cell_range.len()];
        for (tile_index, tile) in per_block.chunks(BLOCK_TILE).enumerate() {
            let first = tile_index * BLOCK_TILE;
            for (row, cell) in rows.iter_mut().zip(cell_range.clone()) {
                for (dst, block) in row[first..first + tile.len()].iter_mut().zip(tile) {
                    *dst = block[cell];
                }
            }
        }
        rows
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Evaluates the keystream circuit ([`crate::circuit`]) slot-parallel:
/// slot `s` computes the keystream block of coordinate `slots[s]`
/// under slot `s` of the `2t` key-state ciphertexts `key`, and the `t`
/// left positions after the final affine layer come back. The slots'
/// prepared material is looked up in (or built into) the cache's
/// slot-material section. Shared by the homogeneous batched server (a
/// contiguous counter window under one replicated key) and the
/// cross-tenant multiplexer (any coordinates under a slot-masked
/// composed key).
///
/// The affine step hoists the NTTs: each input ciphertext is converted
/// once per layer-half instead of once per matrix entry, and every
/// weight multiplies in NTT form.
///
/// # Errors
///
/// Returns [`FheError::Incompatible`] on malformed state halves;
/// propagates FHE errors from the squarings.
pub(crate) fn slotted_keystream(
    ctx: &BfvContext,
    params: &PastaParams,
    relin_key: &BfvRelinKey,
    encoder: &BatchEncoder,
    cache: &MaterialCache,
    slots: Vec<(u128, u64)>,
    key: &[FheCiphertext],
) -> Result<Vec<FheCiphertext>, FheError> {
    let t = params.t();
    let material_key = SlotMaterialKey {
        pasta: *params,
        bfv: *ctx.params(),
        slots,
    };
    let prepared = cache.slot_material(&material_key, || {
        let per_slot = cache.blocks(params, &material_key.slots);
        prepare_slotted_material(ctx, params, encoder, &per_slot)
    });
    circuit::eval_keystream(
        ctx,
        params,
        relin_key,
        &key[..t],
        &key[t..],
        |layer, is_left, half| {
            let layer = &prepared.layers[layer];
            let prep = if is_left { &layer.left } else { &layer.right };
            let mut half_ntt = half.to_vec();
            for ct in &mut half_ntt {
                ctx.to_ntt_ct(ct);
            }
            circuit::affine_rows(t, |i| {
                let mut acc = ctx.mul_plain_prepared_ntt(&half_ntt[0], prep.weight(t, i, 0));
                for (j, ct) in half_ntt.iter().enumerate().skip(1) {
                    ctx.add_mul_plain_ntt_assign(&mut acc, ct, prep.weight(t, i, j))?;
                }
                ctx.to_coeff_ct(&mut acc);
                ctx.add_plain_prepared_assign(&mut acc, &prep.rc[i]);
                Ok(acc)
            })
        },
    )
}

/// The demux-side subtraction of a slot-parallel pass: each member is a
/// PASTA ciphertext whose block `b` sits in slot `start + b`, and slot
/// `s` of output position `i` becomes the trivially encrypted element
/// `b·t + i` of the member owning `s` (0 where that member's last block
/// is partial or `s` is unowned) minus the keystream. The batched
/// server is the one-member, slot-0 case of the multiplexer.
///
/// # Errors
///
/// Propagates FHE errors from the subtraction.
pub(crate) fn subtract_keystream<'a>(
    ctx: &BfvContext,
    encoder: &BatchEncoder,
    keystream: &[FheCiphertext],
    slots_used: usize,
    members: impl IntoIterator<Item = (&'a PastaCiphertext, usize)>,
) -> Result<Vec<FheCiphertext>, FheError> {
    let t = keystream.len();
    let mut c_slots = vec![vec![0u64; slots_used]; t];
    for (ct, start) in members {
        for (k, &e) in ct.elements().iter().enumerate() {
            c_slots[k % t][start + k / t] = e;
        }
    }
    keystream
        .iter()
        .zip(&c_slots)
        .map(|(ks_ct, slots)| {
            let mut out = ctx.encrypt_trivial(&encoder.encode(slots));
            ctx.sub_assign(&mut out, ks_ct)?;
            Ok(out)
        })
        .collect()
}

/// Provisions the PASTA key for the batched server: each key ciphertext
/// encrypts the key element replicated into every slot.
///
/// # Errors
///
/// Propagates encoder construction errors when the context parameters do
/// not support batching (`2N ∤ t_plain − 1`).
pub fn provision_batched_key<R: rand::Rng>(
    key_elements: &[u64],
    ctx: &BfvContext,
    pk: &pasta_fhe::BfvPublicKey,
    rng: &mut R,
) -> Result<EncryptedPastaKey, FheError> {
    let encoder =
        BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n).map_err(FheError::from)?;
    let elements = key_elements
        .iter()
        .map(|&k| {
            let slots = vec![k; encoder.slots()];
            ctx.encrypt(pk, &encoder.encode(&slots), rng)
        })
        .collect();
    Ok(EncryptedPastaKey { elements })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HheClient;
    use pasta_fhe::{BfvParams, BfvSecretKey};
    use pasta_math::Modulus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct World {
        ctx: BfvContext,
        sk: BfvSecretKey,
        client: HheClient,
        server: BatchedHheServer,
    }

    fn setup() -> World {
        let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
        // One extra prime vs test_tiny: the batched plaintext
        // multiplications grow noise by an extra log2(N) per layer.
        let bfv = BfvParams {
            prime_count: 5,
            ..BfvParams::test_tiny()
        };
        let ctx = BfvContext::new(bfv).unwrap();
        let mut rng = StdRng::seed_from_u64(808);
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin = ctx.generate_relin_key(&sk, &mut rng);
        let client = HheClient::new(params, b"batched");
        let ek =
            provision_batched_key(client.cipher().key().expose_elements(), &ctx, &pk, &mut rng)
                .unwrap();
        let server = BatchedHheServer::new(params, &ctx, relin, ek).unwrap();
        World {
            ctx,
            sk,
            client,
            server,
        }
    }

    #[test]
    fn batched_keystream_matches_plain_for_each_block() {
        let w = setup();
        let blocks = 5;
        let batch = w.server.keystream_batch(&w.ctx, 0xAA, 0, blocks).unwrap();
        for position in 0..4 {
            let values = w.server.decode_position(&w.ctx, &w.sk, &batch, position);
            for (s, &v) in values.iter().enumerate() {
                let expect = w.client.cipher().keystream_block(0xAA, s as u64).unwrap();
                assert_eq!(v, expect[position], "block {s} position {position}");
            }
        }
    }

    #[test]
    fn batched_transcipher_recovers_multi_block_message() {
        let w = setup();
        let message: Vec<u64> = (0..12u64).map(|i| (i * 4_321 + 9) % 65_537).collect();
        let pasta_ct = w.client.encrypt(0xBB, &message).unwrap();
        let batch = w.server.transcipher_batched(&w.ctx, &pasta_ct).unwrap();
        assert_eq!(batch.blocks, 3);
        let mut recovered = vec![0u64; message.len()];
        for position in 0..4 {
            let vals = w.server.decode_position(&w.ctx, &w.sk, &batch, position);
            for (s, &v) in vals.iter().enumerate() {
                let idx = s * 4 + position;
                if idx < recovered.len() {
                    recovered[idx] = v;
                }
            }
        }
        assert_eq!(recovered, message);
    }

    #[test]
    fn warm_cache_pass_is_bit_exact() {
        let w = setup();
        let cold = w.server.keystream_batch(&w.ctx, 0xDD, 2, 3).unwrap();
        let misses_after_cold = w.server.cache().stats().misses;
        let warm = w.server.keystream_batch(&w.ctx, 0xDD, 2, 3).unwrap();
        assert_eq!(
            cold.positions, warm.positions,
            "cached plaintexts must be bit-exact"
        );
        let stats = w.server.cache().stats();
        assert_eq!(
            stats.misses, misses_after_cold,
            "warm pass must not re-prepare"
        );
        assert!(stats.hits >= 1, "warm pass must hit the cache");
    }

    #[test]
    fn scalar_and_packed_servers_reuse_batched_block_entries() {
        let w = setup();
        let cache = Arc::clone(w.server.cache());
        let _ = w.server.keystream_batch(&w.ctx, 0xEE, 0, 3).unwrap();
        let after_batch = cache.stats();

        // The scalar server reads the same block section: a two-block
        // message under the batch's nonce is two block hits.
        let mut rng = StdRng::seed_from_u64(909);
        let pk = w.ctx.generate_public_key(&w.sk, &mut rng);
        let relin = w.ctx.generate_relin_key(&w.sk, &mut rng);
        let ek = w.client.provision_key(&w.ctx, &pk, &mut rng);
        let scalar = crate::HheServer::new(*w.client.params(), relin, ek)
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let ct = w.client.encrypt(0xEE, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let _ = scalar.transcipher(&w.ctx, &ct).unwrap();
        let after_scalar = cache.stats();
        assert_eq!(after_scalar.misses, after_batch.misses);
        assert_eq!(after_scalar.hits, after_batch.hits + 2);

        // The packed server misses only its own diagonal section.
        let packed = crate::PackedHheServer::new(
            *w.client.params(),
            &w.ctx,
            &w.sk,
            w.client.cipher().key().expose_elements(),
            &mut rng,
        )
        .unwrap()
        .with_cache(Arc::clone(&cache));
        let _ = packed.keystream_packed(&w.ctx, 0xEE, 2).unwrap();
        let after_packed = cache.stats();
        assert_eq!(after_packed.misses, after_scalar.misses + 1);
        assert_eq!(after_packed.hits, after_scalar.hits + 1);
    }

    #[test]
    fn batch_capacity_enforced() {
        let w = setup();
        let cap = w.server.capacity();
        assert_eq!(cap, 256);
        assert!(matches!(
            w.server.keystream_batch(&w.ctx, 0, 0, cap + 1),
            Err(FheError::Incompatible(_))
        ));
        assert!(matches!(
            w.server.keystream_batch(&w.ctx, 0, 0, 0),
            Err(FheError::Incompatible(_))
        ));
    }

    #[test]
    fn nonzero_first_counter() {
        let w = setup();
        let batch = w.server.keystream_batch(&w.ctx, 0xCC, 7, 2).unwrap();
        let values = w.server.decode_position(&w.ctx, &w.sk, &batch, 0);
        for (s, &v) in values.iter().enumerate() {
            let expect = w
                .client
                .cipher()
                .keystream_block(0xCC, 7 + s as u64)
                .unwrap();
            assert_eq!(v, expect[0]);
        }
    }

    #[test]
    fn noise_budget_survives_batched_circuit() {
        let w = setup();
        let batch = w.server.keystream_batch(&w.ctx, 1, 0, 3).unwrap();
        for (i, ct) in batch.positions.iter().enumerate() {
            let budget = w.ctx.noise_budget(&w.sk, ct);
            assert!(budget > 5, "position {i}: {budget} bits left");
        }
    }

    #[test]
    fn amortized_cost_beats_scalar_server() {
        // The point of batching: one pass of the batched server covers
        // `capacity()` blocks with the same number of homomorphic
        // multiplications as ~one scalar pass (a throughput argument, not
        // measured here — assert the structural count).
        let w = setup();
        // Scalar server: muls per block = affine (t² per half per layer
        // is scalar muls, cheap) + (2t-1)(r-1) + 2·2t relins.
        // Batched: identical counts per *pass*, amortized over capacity.
        let per_pass_relins = (2 * 4 - 1) + 2 * 2 * 4;
        let scalar_total = per_pass_relins * w.server.capacity();
        let batched_total = per_pass_relins;
        assert!(
            batched_total * 100 < scalar_total,
            "amortization factor >= 100x"
        );
    }
}
