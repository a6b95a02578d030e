//! Machine-readable perf record for the RNS ciphertext multiplication.
//!
//! Measures BFV ciphertext multiply, square and multiply-relinearize
//! under the two multiplication backends and renders `BENCH_mul.json`
//! via [`pasta_bench::report::BenchReport`]:
//!
//! - `--phase before` measures the **bigint oracle** (the retained
//!   exact CRT-reconstruct / big-integer scaled-rounding path, selected
//!   at runtime with `PASTA_MUL=bigint`);
//! - `--phase after` measures the **full-RNS** BEHZ path (the default),
//!   merging any committed `before` entries so the JSON holds
//!   before/after pairs plus speedup factors.
//!
//! Both phases measure every available SIMD backend; the options, the
//! timer and the report path are [`pasta_bench::report`]'s.
//!
//! Usage:
//!
//! ```text
//! bench_mul --phase before            # bigint-oracle baseline
//! bench_mul --phase after             # RNS path, merge committed baseline
//! bench_mul --phase after --quick     # CI smoke mode (short windows)
//! bench_mul --out-dir target/bench    # write JSON elsewhere (default .)
//! ```

use pasta_bench::report::{for_each_backend, BenchOptions, BenchReport, Phase};
use pasta_fhe::{BfvContext, BfvParams, MUL_BACKEND_ENV};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Benchmarks mul / square / mul_relin on one parameter set under every
/// available SIMD backend, pushing wall times under `tag` (e.g.
/// `N=1024/k=6`).
fn bench_set(run: &BenchOptions, report: &mut BenchReport, bfv: BfvParams, tag: &str) {
    let ctx = BfvContext::new(bfv).expect("context");
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let rk = ctx.generate_relin_key(&sk, &mut rng);
    let t = ctx.params().plain_modulus.value();
    let random_ct = |rng: &mut StdRng| {
        let pt = pasta_fhe::Plaintext {
            coeffs: (0..ctx.params().n).map(|_| rng.gen_range(0..t)).collect(),
        };
        ctx.encrypt(&pk, &pt, rng)
    };
    let a = random_ct(&mut rng);
    let b = random_ct(&mut rng);
    for_each_backend(|| {
        run.time(report, format!("mul/{tag}"), || {
            black_box(ctx.mul(&a, &b).expect("mul"));
        });
        run.time(report, format!("square/{tag}"), || {
            black_box(ctx.square(&a).expect("square"));
        });
        run.time(report, format!("mul_relin/{tag}"), || {
            black_box(ctx.mul_relin(&a, &b, &rk).expect("mul_relin"));
        });
    });
}

fn main() {
    let run = BenchOptions::from_env();

    // The phase *is* the backend: force the dispatch in `BfvContext::mul`
    // rather than calling internal entry points, so the measured path is
    // exactly what library users hit.
    match run.phase {
        Phase::Before => std::env::set_var(MUL_BACKEND_ENV, "bigint"),
        Phase::After => std::env::remove_var(MUL_BACKEND_ENV),
    }

    let mut report = run.open(
        "mul",
        "BFV ciphertext multiplication: exact bigint CRT round-trip (before) vs \
         full-RNS BEHZ base conversion (after); ns per call",
    );

    // Unit-test scale: N = 256, four 50-bit primes.
    bench_set(&run, &mut report, BfvParams::test_tiny(), "N=256/k=4");

    // Paper scale: the transcipher-demo ring at N = 1024 — six 55-bit
    // primes, the q used by the end-to-end PASTA workflow.
    bench_set(
        &run,
        &mut report,
        BfvParams {
            n: 1_024,
            ..BfvParams::transcipher_demo()
        },
        "N=1024/k=6",
    );

    run.finish(&mut report);
}
