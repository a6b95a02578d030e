//! Output pinning for the transcipher paths: the scalar, batched,
//! packed and multiplexed transciphers must produce exactly the
//! ciphertexts pinned below — digests of the full residue rows, taken
//! before the circuit and its material pipeline were shared — for every
//! `PASTA_THREADS` and SIMD backend; and the slot-major builder must
//! equal a per-cell reference build entry for entry.
//!
//! Lives in its own integration-test binary because it mutates the
//! `PASTA_THREADS` process environment; the tests inside serialize on
//! one lock.

use pasta_core::PastaParams;
use pasta_fhe::{BatchEncoder, BfvContext, BfvParams, Ciphertext as FheCiphertext};
use pasta_hhe::cache::{BatchedEntry, BatchedHalf, BatchedLayer, BlockEntry, SlotMaterialKey};
use pasta_hhe::{
    provision_batched_key, BatchedHheServer, HheClient, HheServer, MuxHheServer, MuxMember,
    PackedHheServer,
};
use pasta_math::{simd, Modulus};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// `(PASTA_THREADS, backend)` legs: three thread counts, both backends.
const LEGS: [(&str, simd::Backend); 3] = [
    ("1", simd::Backend::Scalar),
    ("2", simd::Backend::Avx2),
    ("16", simd::Backend::Scalar),
];

/// `[full-RNS, bigint-oracle]` digests: the `PASTA_MUL` multiplication
/// backend in effect picks one (the two round differently, so their
/// ciphertexts differ while decrypting alike).
const BATCHED_DIGEST: [u64; 2] = [14_005_192_064_810_210_487, 3_815_222_266_864_700_181];
const MUX_DIGEST: [u64; 2] = [16_766_940_818_783_496_359, 18_120_823_608_469_800_905];
const PACKED_DIGEST: [u64; 2] = [5_946_588_110_377_792_806, 10_209_740_303_129_418_048];
const SCALAR_DIGEST: [u64; 2] = [9_532_823_937_476_424_398, 14_266_699_431_547_258_188];

fn pinned(digests: [u64; 2]) -> u64 {
    let bigint = std::env::var(pasta_fhe::bfv::MUL_BACKEND_ENV).is_ok_and(|v| v == "bigint");
    digests[usize::from(bigint)]
}

fn with_leg<T>((threads, backend): (&str, simd::Backend), f: impl FnOnce() -> T) -> T {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var(pasta_par::THREADS_ENV, threads);
    simd::force_backend(Some(backend));
    let out = f();
    simd::force_backend(None);
    std::env::remove_var(pasta_par::THREADS_ENV);
    out
}

/// FNV-1a over the `Debug` rendering of the ciphertexts: every residue
/// of every component, plus the domain flags.
fn digest(cts: &[FheCiphertext]) -> u64 {
    format!("{cts:?}")
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

fn params() -> PastaParams {
    PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap()
}

fn bfv(prime_count: usize) -> BfvContext {
    BfvContext::new(BfvParams {
        prime_count,
        ..BfvParams::test_tiny()
    })
    .unwrap()
}

fn batched_output() -> Vec<FheCiphertext> {
    let ctx = bfv(5);
    let mut rng = StdRng::seed_from_u64(0x5107);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params(), b"material digest");
    let ek = provision_batched_key(client.cipher().key().expose_elements(), &ctx, &pk, &mut rng)
        .unwrap();
    let server = BatchedHheServer::new(params(), &ctx, relin, ek).unwrap();
    // 37 blocks: several worker chunks and a partial final block.
    let message: Vec<u64> = (0..146u64).map(|i| (i * 7_919 + 3) % 65_537).collect();
    let ct = client.encrypt(0x5107, &message).unwrap();
    server.transcipher_batched(&ctx, &ct).unwrap().positions
}

fn mux_output() -> Vec<FheCiphertext> {
    let ctx = bfv(6);
    let mut rng = StdRng::seed_from_u64(0x3A7);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let clients: Vec<HheClient> = (0..2u64)
        .map(|j| HheClient::new(params(), &j.to_le_bytes()))
        .collect();
    let scalars: Vec<HheServer> = clients
        .iter()
        .map(|c| {
            let ek = c.provision_key(&ctx, &pk, &mut rng);
            HheServer::new(params(), ctx.generate_relin_key(&sk, &mut rng), ek).unwrap()
        })
        .collect();
    let mux = MuxHheServer::new(params(), &ctx, ctx.generate_relin_key(&sk, &mut rng)).unwrap();
    // Tenant 1 sends twice under one nonce, so two slots share a block
    // coordinate.
    let cts = [
        clients[0].encrypt(0xA0, &[1, 2, 3, 4, 5, 6, 7]).unwrap(),
        clients[1].encrypt(0xB0, &[9, 8, 7, 6, 5]).unwrap(),
        clients[1].encrypt(0xB0, &[4, 4, 4]).unwrap(),
    ];
    let members: Vec<MuxMember<'_>> = [0usize, 1, 1]
        .iter()
        .zip(&cts)
        .map(|(&tenant, ct)| MuxMember {
            tenant: tenant as u64,
            encrypted_key: scalars[tenant].encrypted_key(),
            ct,
        })
        .collect();
    mux.transcipher_mux(&ctx, &members).unwrap().positions
}

fn scalar_output() -> Vec<FheCiphertext> {
    let ctx = bfv(4);
    let mut rng = StdRng::seed_from_u64(0x5CA1);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(params(), b"material digest");
    let server =
        HheServer::new(params(), relin, client.provision_key(&ctx, &pk, &mut rng)).unwrap();
    // Two blocks, the second partial.
    let ct = client.encrypt(0x5CA1, &[3, 1, 4, 1, 5, 9, 2]).unwrap();
    server.transcipher(&ctx, &ct).unwrap()
}

fn packed_output() -> Vec<FheCiphertext> {
    let ctx = bfv(8);
    let mut rng = StdRng::seed_from_u64(909);
    let sk = ctx.generate_secret_key(&mut rng);
    let client = HheClient::new(params(), b"material digest");
    let server = PackedHheServer::new(
        params(),
        &ctx,
        &sk,
        client.cipher().key().expose_elements(),
        &mut rng,
    )
    .unwrap();
    let ct = client.encrypt(0xDEC0, &[11, 22, 33, 44]).unwrap();
    vec![server.transcipher_packed(&ctx, &ct, 0).unwrap()]
}

#[test]
fn batched_output_matches_the_pinned_digest() {
    for leg in LEGS {
        assert_eq!(
            with_leg(leg, || digest(&batched_output())),
            pinned(BATCHED_DIGEST),
            "leg {leg:?}"
        );
    }
}

#[test]
fn mux_output_matches_the_pinned_digest() {
    for leg in LEGS {
        assert_eq!(
            with_leg(leg, || digest(&mux_output())),
            pinned(MUX_DIGEST),
            "leg {leg:?}"
        );
    }
}

#[test]
fn scalar_output_matches_the_pinned_digest() {
    for leg in LEGS {
        assert_eq!(
            with_leg(leg, || digest(&scalar_output())),
            pinned(SCALAR_DIGEST),
            "leg {leg:?}"
        );
    }
}

#[test]
fn packed_output_matches_the_pinned_digest() {
    for leg in LEGS {
        assert_eq!(
            with_leg(leg, || digest(&packed_output())),
            pinned(PACKED_DIGEST),
            "leg {leg:?}"
        );
    }
}

/// The material a batched server caches for one window, built the
/// per-cell way: for every matrix entry, gather that entry from each
/// block in turn, then encode and prepare it.
fn per_cell_reference(
    ctx: &BfvContext,
    params: PastaParams,
    nonce: u128,
    blocks: usize,
) -> BatchedEntry {
    let encoder = BatchEncoder::new(ctx.params().plain_modulus, ctx.params().n).unwrap();
    let per_block: Vec<BlockEntry> = (0..blocks as u64)
        .map(|c| BlockEntry::derive(&params, nonce, c))
        .collect();
    let t = params.t();
    let layers = (0..params.affine_layers())
        .map(|layer| {
            let half = |is_left: bool| BatchedHalf {
                weights: (0..t * t)
                    .map(|cell| {
                        let slots: Vec<u64> = per_block
                            .iter()
                            .map(|b| {
                                let m = &b.matrices[layer];
                                let m = if is_left { &m.left } else { &m.right };
                                m.get(cell / t, cell % t)
                            })
                            .collect();
                        ctx.prepare_plaintext(&encoder.encode(&slots))
                    })
                    .collect(),
                rc: (0..t)
                    .map(|i| {
                        let slots: Vec<u64> = per_block
                            .iter()
                            .map(|b| {
                                let l = &b.material.layers[layer];
                                if is_left {
                                    l.rc_left[i]
                                } else {
                                    l.rc_right[i]
                                }
                            })
                            .collect();
                        ctx.scale_plaintext(&encoder.encode(&slots))
                    })
                    .collect(),
            };
            BatchedLayer {
                left: half(true),
                right: half(false),
            }
        })
        .collect();
    BatchedEntry { layers }
}

#[test]
fn slot_major_material_equals_the_per_cell_reference() {
    // t = 12 and 150 blocks: three transpose cell groups (64, 64, 16)
    // and three block tiles (64, 64, 22), both with a partial last one.
    let params = PastaParams::custom(12, 1, Modulus::PASTA_17_BIT).unwrap();
    let ctx = bfv(5);
    let (nonce, blocks) = (0x7A5E, 150);
    let reference = per_cell_reference(&ctx, params, nonce, blocks);
    for leg in [("1", simd::Backend::Scalar), ("16", simd::Backend::Avx2)] {
        let built = with_leg(leg, || {
            let mut rng = StdRng::seed_from_u64(12);
            let sk = ctx.generate_secret_key(&mut rng);
            let pk = ctx.generate_public_key(&sk, &mut rng);
            let relin = ctx.generate_relin_key(&sk, &mut rng);
            let client = HheClient::new(params, b"slot-major");
            let ek =
                provision_batched_key(client.cipher().key().expose_elements(), &ctx, &pk, &mut rng)
                    .unwrap();
            let server = BatchedHheServer::new(params, &ctx, relin, ek).unwrap();
            let _ = server.keystream_batch(&ctx, nonce, 0, blocks).unwrap();
            let key = SlotMaterialKey {
                pasta: params,
                bfv: *ctx.params(),
                slots: (0..blocks as u64).map(|c| (nonce, c)).collect(),
            };
            server
                .cache()
                .slot_material(&key, || panic!("the window's material must be cached"))
        });
        assert!(*built == reference, "leg {leg:?}");
    }
}
