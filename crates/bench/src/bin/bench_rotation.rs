//! Machine-readable perf record for the packed-mode rotation work.
//!
//! Measures the packed (one-block-per-ciphertext) transciphering server
//! under its two affine-layer strategies and renders
//! `BENCH_rotation.json` via [`pasta_bench::report::BenchReport`]:
//!
//! - `--phase before` measures the **naive** one-rotation-per-diagonal
//!   evaluation (the pre-optimization path, kept in-tree as the
//!   reference strategy);
//! - `--phase after` measures the **hoisted baby-step/giant-step**
//!   evaluation (the default), merging any committed `before` entries so
//!   the JSON holds before/after pairs plus speedup factors.
//!
//! Besides wall times, the report records the per-keystream Galois
//! key-switch counts and the provisioned rotation-key counts under the
//! same before/after ids — for those entries the `ns` field holds a raw
//! count and the `speedup` factor is the reduction factor.
//!
//! Usage:
//!
//! ```text
//! bench_rotation --phase before           # naive-strategy baseline
//! bench_rotation --phase after            # BSGS, merge committed baseline
//! bench_rotation --phase after --quick    # CI smoke mode (short windows)
//! bench_rotation --out-dir target/bench   # write JSON elsewhere (default .)
//! ```
//!
//! The options, the timer and the report path are
//! [`pasta_bench::report`]'s.

use pasta_bench::report::{BenchOptions, BenchReport, Phase};
use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams};
use pasta_hhe::{HheClient, PackedHheServer, PackedStrategy};
use pasta_math::Modulus;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Benchmarks the packed server for one parameter set under `strategy`,
/// pushing wall times and rotation-work counts under `tag` (e.g.
/// `t=4/N=256`).
fn bench_packed(
    run: &BenchOptions,
    report: &mut BenchReport,
    pasta: PastaParams,
    bfv: BfvParams,
    strategy: PackedStrategy,
    tag: &str,
) {
    let ctx = BfvContext::new(bfv).expect("context");
    let mut rng = StdRng::seed_from_u64(0xB0B0);
    let sk = ctx.generate_secret_key(&mut rng);
    let client = HheClient::new(pasta, b"bench rotation");
    let server = PackedHheServer::new_with_strategy(
        pasta,
        &ctx,
        &sk,
        client.cipher().key().expose_elements(),
        strategy,
        &mut rng,
    )
    .expect("packed server");
    let t = pasta.t();
    let message: Vec<u64> = (0..t as u64).map(|i| (i * 7_177 + 13) % 65_537).collect();

    // Cold transcipher: fresh nonce per call, so the per-block material
    // (diagonal preparation included) is rebuilt every time.
    let mut nonce = 0x4000u128;
    run.time(report, format!("packed_transcipher/{tag}/cold"), || {
        nonce += 1;
        let ct = client.encrypt(nonce, &message).expect("encrypt");
        black_box(
            server
                .transcipher_packed(&ctx, &ct, 0)
                .expect("transcipher"),
        );
    });

    // Warm transcipher: repeated nonce, material served from the cache —
    // isolates the rotation/key-switch work from preparation.
    let fixed = client.encrypt(0xF00F, &message).expect("encrypt");
    run.time(report, format!("packed_transcipher/{tag}/warm"), || {
        black_box(
            server
                .transcipher_packed(&ctx, &fixed, 0)
                .expect("transcipher"),
        );
    });

    // Rotation-work counts (raw counts, not nanoseconds).
    server.reset_key_switch_count();
    black_box(server.keystream_packed(&ctx, 0xF00F, 0).expect("keystream"));
    run.record(
        report,
        format!("key_switches/keystream/{tag}"),
        server.key_switch_count() as f64,
    );
    run.record(
        report,
        format!("rotation_keys/{tag}"),
        server.rotation_key_count() as f64,
    );
}

fn main() {
    let run = BenchOptions::from_env();
    let mut report = run.open(
        "rotation",
        "packed transcipher: naive diagonal rotations (before) vs hoisted BSGS (after); \
         ns per call, except key_switches/* and rotation_keys/* entries which are raw counts",
    );
    let strategy = match run.phase {
        Phase::Before => PackedStrategy::Naive,
        Phase::After => PackedStrategy::Bsgs,
    };

    // Scaled-down set (the unit-test sizes): PASTA t=4, r=2 on N=256.
    bench_packed(
        &run,
        &mut report,
        PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("params"),
        BfvParams {
            prime_count: 8,
            ..BfvParams::test_tiny()
        },
        strategy,
        "t=4/N=256",
    );

    // The paper's PASTA-3 parameter set: t = 128, 3 rounds. N = 1024
    // gives a 512-lane orbit — exactly the 4t the packed layout needs.
    bench_packed(
        &run,
        &mut report,
        PastaParams::pasta3_17bit(),
        BfvParams {
            n: 1024,
            prime_count: 8,
            ..BfvParams::test_tiny()
        },
        strategy,
        "t=128/N=1024",
    );

    run.finish(&mut report);
}
