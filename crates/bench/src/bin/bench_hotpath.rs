//! Machine-readable perf baseline for the transciphering hot path.
//!
//! Measures the NTT forward+inverse kernel and the scalar/batched
//! transciphering servers, then renders `BENCH_ntt.json` and
//! `BENCH_transcipher.json` via [`pasta_bench::report::BenchReport`].
//!
//! Usage:
//!
//! ```text
//! bench_hotpath --phase before          # record pre-optimization baseline
//! bench_hotpath --phase after           # re-measure, merge committed baseline
//! bench_hotpath --phase after --quick   # CI smoke mode (short windows)
//! bench_hotpath --out-dir target/bench  # write JSON elsewhere (default .)
//! ```
//!
//! The options, the timer and the report path are
//! [`pasta_bench::report`]'s: the NTT rows carry one entry per SIMD
//! backend, and the `after` phase carries the committed `before` rows
//! forward.

use pasta_bench::report::{for_each_backend, BenchOptions, BenchReport};
use pasta_core::PastaParams;
use pasta_fhe::ntt::NttTable;
use pasta_fhe::{BfvContext, BfvParams};
use pasta_hhe::{provision_batched_key, BatchedHheServer, HheClient, HheServer};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_ntt(run: &BenchOptions, report: &mut BenchReport) {
    let cases: &[(&str, Modulus, usize)] = &[
        ("ntt_fwd_inv/60bit/n=1024", Modulus::NTT_60_BIT, 1024),
        ("ntt_fwd_inv/60bit/n=4096", Modulus::NTT_60_BIT, 4096),
        ("ntt_fwd_inv/17bit/n=1024", Modulus::PASTA_17_BIT, 1024),
    ];
    for &(id, modulus, n) in cases {
        let table = NttTable::new(modulus, n).expect("NTT table");
        let p = table.zp().p();
        let mut buf: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % p)
            .collect();
        for_each_backend(|| {
            run.time(report, id, || {
                table.forward(black_box(&mut buf));
                table.inverse(black_box(&mut buf));
            });
        });
    }
}

fn bench_transcipher(run: &BenchOptions, report: &mut BenchReport) {
    let pasta = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("params");
    let t = pasta.t();
    let mut rng = StdRng::seed_from_u64(0xBE7C);

    // Scalar server (the pipeline crate's per-frame path).
    let ctx = BfvContext::new(BfvParams::test_tiny()).expect("context");
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let relin = ctx.generate_relin_key(&sk, &mut rng);
    let client = HheClient::new(pasta, b"bench hotpath");
    let scalar = HheServer::new(
        pasta,
        relin.clone(),
        client.provision_key(&ctx, &pk, &mut rng),
    )
    .expect("scalar server");
    let message: Vec<u64> = (0..(2 * t) as u64)
        .map(|i| (i * 991 + 5) % 65_537)
        .collect();

    // Cold: a fresh nonce every call, so per-block material can never be
    // reused across iterations.
    let mut nonce = 0x1000u128;
    run.time(report, "transcipher/scalar/2blocks/cold", || {
        nonce += 1;
        let ct = client.encrypt(nonce, &message).expect("encrypt");
        black_box(scalar.transcipher(&ctx, &ct).expect("transcipher"));
    });

    // Warm: repeated nonce — models the pipeline crate's ARQ
    // retransmissions, where the same frame is transciphered again.
    // Extra un-timed passes first so the scratch pool reaches steady
    // state (worker-allocated rows recirculate through the global bin),
    // then the timed passes double as the zero-allocation /
    // spawn-free probe for the report's `meta` counters.
    let warm_ct = client.encrypt(0xF1F1, &message).expect("encrypt");
    for _ in 0..4 {
        black_box(scalar.transcipher(&ctx, &warm_ct).expect("transcipher"));
    }
    let misses_before = pasta_fhe::scratch::stats().misses;
    let spawns_before = pasta_par::pool::stats().spawn_events;
    run.time(report, "transcipher/scalar/2blocks/warm", || {
        black_box(scalar.transcipher(&ctx, &warm_ct).expect("transcipher"));
    });
    let warm_allocs = pasta_fhe::scratch::stats().misses - misses_before;
    let warm_spawns = pasta_par::pool::stats().spawn_events - spawns_before;
    println!("warm_allocs: {warm_allocs} (pool misses over the timed warm passes)");
    report.set_meta("warm_allocs", warm_allocs.to_string());
    report.set_meta("warm_spawn_events", warm_spawns.to_string());

    // Batched server: 8 blocks per SIMD pass (extra prime for the
    // batched noise growth, mirroring the batched server tests).
    let bctx = BfvContext::new(BfvParams {
        prime_count: 5,
        ..BfvParams::test_tiny()
    })
    .expect("context");
    let bsk = bctx.generate_secret_key(&mut rng);
    let bpk = bctx.generate_public_key(&bsk, &mut rng);
    let brelin = bctx.generate_relin_key(&bsk, &mut rng);
    let batched = BatchedHheServer::new(
        pasta,
        &bctx,
        brelin,
        provision_batched_key(
            client.cipher().key().expose_elements(),
            &bctx,
            &bpk,
            &mut rng,
        )
        .expect("provision batched key"),
    )
    .expect("batched server");
    let long_message: Vec<u64> = (0..(t * 8) as u64).map(|i| i % 65_537).collect();
    let mut bnonce = 0x2000u128;
    run.time(report, "transcipher/batched/8blocks/cold", || {
        bnonce += 1;
        let ct = client.encrypt(bnonce, &long_message).expect("encrypt");
        black_box(
            batched
                .transcipher_batched(&bctx, &ct)
                .expect("transcipher"),
        );
    });
    let fixed = client.encrypt(0xAB42, &long_message).expect("encrypt");
    run.time(report, "transcipher/batched/8blocks/warm", || {
        black_box(
            batched
                .transcipher_batched(&bctx, &fixed)
                .expect("transcipher"),
        );
    });

    // Steady-state pool probe, last so its passes cannot perturb the
    // timed rows above. Those rows run at whatever width the
    // environment resolves (a 1-core container resolves to 1 and
    // bypasses the pool entirely), so this probe forces the narrowest
    // parallel width and drives warm passes through it: the pool must
    // spawn each worker exactly once, ever, and serve every further
    // dispatch from parked threads.
    let prev = std::env::var(pasta_par::THREADS_ENV).ok();
    let pool_width = pasta_par::threads().max(2);
    std::env::set_var(pasta_par::THREADS_ENV, pool_width.to_string());
    for _ in 0..4 {
        black_box(scalar.transcipher(&ctx, &warm_ct).expect("transcipher"));
    }
    match prev {
        Some(v) => std::env::set_var(pasta_par::THREADS_ENV, v),
        None => std::env::remove_var(pasta_par::THREADS_ENV),
    }
    let pool = pasta_par::pool::stats();
    println!(
        "pool: {} spawn events over {} dispatches ({pool_width} workers)",
        pool.spawn_events, pool.dispatches
    );
    report.set_meta("pool_threads", pool_width.to_string());
    report.set_meta("spawn_events", pool.spawn_events.to_string());
    report.set_meta("pool_dispatches", pool.dispatches.to_string());
}

fn main() {
    let run = BenchOptions::from_env();

    // Spawn the full worker pool once up front — the steady-state
    // service posture, where every later dispatch reuses parked
    // threads. The meta counters emitted by the transcipher bench
    // prove it stays that way. (Resolves serial on a 1-core box; the
    // pool probe in `bench_transcipher` covers that case.)
    let warm: Vec<usize> = (0..pasta_par::threads()).collect();
    black_box(pasta_par::parallel_map(&warm, |_, &i| i));

    let mut ntt = run.open(
        "ntt",
        "negacyclic NTT forward+inverse, ns per roundtrip (single prime row)",
    );
    bench_ntt(&run, &mut ntt);
    run.finish(&mut ntt);
    let mut tc = run.open(
        "transcipher",
        "HHE server transcipher wall time, ns per call (PASTA t=4 r=2, BFV N=256)",
    );
    bench_transcipher(&run, &mut tc);
    run.finish(&mut tc);
}
