//! Warm-path zero-allocation invariant for transciphering: once the
//! scratch pool (`pasta_fhe::scratch`) and the server's material cache
//! are warm, a full transcipher pass must allocate **zero** coefficient
//! rows and zero big integers in the kernels — the software analogue of
//! the paper's fixed on-chip buffers.
//!
//! The contract covers the production RNS multiplication path only.
//! The bigint oracle (`PASTA_MUL=bigint`) is a reference path that
//! tests compare against, and it allocates big integers by design, so
//! the test clears `PASTA_MUL` for its duration.
//!
//! Lives in its own integration-test binary: the test pins
//! `PASTA_THREADS=1` (the thread-local debug counters can only observe
//! the calling thread) and the RNS backend, and mutating the process
//! environment must not race other tests.

use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams};
use pasta_hhe::{HheClient, HheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn warm_transcipher_allocates_no_poly_rows_or_bigints() {
    std::env::set_var(pasta_par::THREADS_ENV, "1");
    let mul_backend = std::env::var(pasta_fhe::MUL_BACKEND_ENV).ok();
    std::env::remove_var(pasta_fhe::MUL_BACKEND_ENV);
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).unwrap();
    let ctx = BfvContext::new(BfvParams::test_tiny()).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let fhe_sk = ctx.generate_secret_key(&mut rng);
    let fhe_pk = ctx.generate_public_key(&fhe_sk, &mut rng);
    let relin = ctx.generate_relin_key(&fhe_sk, &mut rng);
    let client = HheClient::new(params, b"warm alloc");
    let encrypted_key = client.provision_key(&ctx, &fhe_pk, &mut rng);
    let server = HheServer::new(params, relin, encrypted_key).unwrap();

    let message = vec![5u64, 17, 4096, 65_000];
    let pasta_ct = client.encrypt(0xBEEF, &message).unwrap();

    // Cold passes: build the cached keystream material and populate the
    // scratch pool with every buffer shape the pipeline needs.
    let _ = server.transcipher(&ctx, &pasta_ct).unwrap();
    let _ = server.transcipher(&ctx, &pasta_ct).unwrap();

    // Warm pass: every polynomial buffer must come from the pool.
    let rows_before = pasta_fhe::scratch::poly_alloc_count();
    let ubig_before = pasta_fhe::bigint::ubig_alloc_count();
    let fhe_cts = server.transcipher(&ctx, &pasta_ct).unwrap();
    let rows_after = pasta_fhe::scratch::poly_alloc_count();
    let ubig_after = pasta_fhe::bigint::ubig_alloc_count();

    if cfg!(debug_assertions) {
        assert_eq!(
            rows_after, rows_before,
            "warm transcipher allocated fresh coefficient rows"
        );
        assert_eq!(
            ubig_after, ubig_before,
            "warm transcipher allocated big integers"
        );
    }

    // The warm pass still transciphers correctly.
    let recovered = client.retrieve(&ctx, &fhe_sk, &fhe_cts);
    assert_eq!(recovered, message);
    std::env::remove_var(pasta_par::THREADS_ENV);
    if let Some(v) = mul_backend {
        std::env::set_var(pasta_fhe::MUL_BACKEND_ENV, v);
    }
}
