//! `transcipher-pasta4`: the cloud side at the paper's PASTA-4 set.
//! Lane `a` runs cold 2048-block `BatchedHheServer::transcipher_batched`
//! passes on `BfvParams::transcipher_demo()` (N = 2048, 6 × 55-bit
//! primes), each under a fresh nonce and a fresh material cache. Lane `b`
//! serves cold single-block `PackedHheServer::transcipher_packed`
//! requests on N = 2048 with 10 primes (6 and 8 decode wrong).

use crate::metrics::{lane as lane_metric, Report, Window};
use crate::sys::Stopwatch;
use crate::trace::Tracer;
use crate::Args;
use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey, Ciphertext};
use pasta_hhe::{
    provision_batched_key, BatchedHheServer, HheClient, MaterialCache, PackedHheServer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the timed window lane `a` aims for.
const LANE_A_SHARE: f64 = 0.6;
/// Packed requests served even when lane `a` used the whole window.
const MIN_PACKED_BLOCKS: usize = 3;
/// Set-ups timed before and after the window (their median is `setup_s`).
const SETUPS: usize = 3;
/// Repetitions of each standalone FHE operation in a traced run.
const FHE_REPS: usize = 12;

fn packed_bfv() -> BfvParams {
    BfvParams {
        prime_count: 10,
        ..BfvParams::transcipher_demo()
    }
}

/// A cache holding at most one batched and one packed entry: at N = 2048
/// one batched entry is several GB of prepared plaintexts.
fn small_cache() -> Arc<MaterialCache> {
    Arc::new(MaterialCache::with_capacities(
        pasta_hhe::cache::DEFAULT_BLOCK_CAPACITY,
        1,
        1,
    ))
}

struct World {
    client: HheClient,
    batched_ctx: BfvContext,
    batched_sk: BfvSecretKey,
    batched: BatchedHheServer,
    packed_ctx: BfvContext,
    packed_sk: BfvSecretKey,
    packed: PackedHheServer,
}

/// Contexts, keys (relinearization and rotation keys included), and key
/// provisioning for both servers.
fn setup(seed: u64) -> World {
    let params = PastaParams::pasta4_17bit();
    let client = HheClient::new(params, format!("wallbench transcipher {seed}").as_bytes());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7C1F_0000);
    let key = client.cipher().key().expose_elements();

    let batched_ctx =
        BfvContext::new(BfvParams::transcipher_demo()).expect("demo parameters are valid");
    let batched_sk = batched_ctx.generate_secret_key(&mut rng);
    let pk = batched_ctx.generate_public_key(&batched_sk, &mut rng);
    let relin = batched_ctx.generate_relin_key(&batched_sk, &mut rng);
    let encrypted_key =
        provision_batched_key(key, &batched_ctx, &pk, &mut rng).expect("N = 2048 batches");
    let batched = BatchedHheServer::new(params, &batched_ctx, relin, encrypted_key)
        .expect("key matches the parameters")
        .with_cache(small_cache());

    let packed_ctx = BfvContext::new(packed_bfv()).expect("packed parameters are valid");
    let packed_sk = packed_ctx.generate_secret_key(&mut rng);
    let packed = PackedHheServer::new(params, &packed_ctx, &packed_sk, key, &mut rng)
        .expect("4t fits the lane orbit")
        .with_cache(small_cache());
    World {
        client,
        batched_ctx,
        batched_sk,
        batched,
        packed_ctx,
        packed_sk,
        packed,
    }
}

/// Standalone BFV operations at one (N, primes): `mul_relin`, forward
/// NTT of a ciphertext, `prepare_plaintext`; mean µs of each, recorded
/// as spans named `<op>.<lane>`.
pub fn probe_fhe(ctx: &BfvContext, seed: u64, lane: &str, tr: &mut Tracer) -> [f64; 3] {
    const NAMES: [[&str; 3]; 2] = [
        [
            "fhe.mul_relin.a",
            "fhe.ntt_fwd.a",
            "fhe.prepare_plaintext.a",
        ],
        [
            "fhe.mul_relin.b",
            "fhe.ntt_fwd.b",
            "fhe.prepare_plaintext.b",
        ],
    ];
    let names = NAMES[usize::from(lane == "b")];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF4E0_0000);
    let sk = ctx.generate_secret_key(&mut rng);
    let pk = ctx.generate_public_key(&sk, &mut rng);
    let rk = ctx.generate_relin_key(&sk, &mut rng);
    let t = ctx.params().plain_modulus.value();
    let x = ctx.encrypt(&pk, &ctx.encode_scalar(rng.gen_range(0..t)), &mut rng);
    let y = ctx.encrypt(&pk, &ctx.encode_scalar(rng.gen_range(0..t)), &mut rng);
    let pt = ctx.decrypt(&sk, &x);
    for i in 0..FHE_REPS as u64 {
        let s = tr.begin(names[0], 0, i);
        black_box(ctx.mul_relin(&x, &y, &rk).ok());
        tr.end(s);
        let mut z: Ciphertext = x.clone();
        let s = tr.begin(names[1], 0, i);
        ctx.to_ntt_ct(&mut z);
        tr.end(s);
        black_box(z);
        let s = tr.begin(names[2], 0, i);
        black_box(ctx.prepare_plaintext(&pt));
        tr.end(s);
    }
    names.map(|n| tr.mean_us(n))
}

pub fn run(args: &Args, budget: Duration, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    report.time_setups(SETUPS, || {
        black_box(setup(args.seed));
    });
    let mut w = setup(args.seed);
    let params = *w.client.params();
    let t = params.t();
    let p = params.modulus().value();
    let slots = w.batched.capacity();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7C1F_1111);
    let nonce_base = u128::from(args.seed) << 64;

    // The process's first pass grows the heap by the size of a batched
    // entry and runs markedly slower than every later one; a long-running
    // server pays that once, so it runs before the window.
    let mut passes = Vec::new();
    let message: Vec<u64> = (0..slots * t).map(|_| rng.gen_range(0..p)).collect();
    let ct = w
        .client
        .encrypt(nonce_base | 0xFFFF_FFFF, &message)
        .expect("canonical message");
    let begun = Instant::now();
    let out = w
        .batched
        .transcipher_batched(&w.batched_ctx, &ct)
        .expect("2048 blocks fit N = 2048 slots");
    report.note("first_pass_s", begun.elapsed().as_secs_f64().to_string());
    passes.push((message, out));
    // Every pass starts from an empty cache: it prepares all of its
    // material, as new device traffic does.
    w.batched = w.batched.with_cache(small_cache());

    // Cold passes and packed requests interleave: a pass runs whenever
    // lane a is behind its share of the time spent so far and is expected
    // to end inside the window; packed requests fill the rest.
    let window = Window::open();
    let start = Instant::now();
    // Times less hypervisor steal (see `Stopwatch`), and wall times.
    let mut pass_s: Vec<f64> = Vec::new();
    let mut pass_wall_s: Vec<f64> = Vec::new();
    let mut block_wall_ms: Vec<f64> = Vec::new();
    let mut warm_s = None;
    let mut block_ms: Vec<f64> = Vec::new();
    let mut blocks = Vec::new();
    let mut key_switches = Vec::new();
    let mut batched_hits = pasta_hhe::cache::CacheStats::default();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let spent_a: f64 = pass_s.iter().sum();
        let spent_b = block_ms.iter().sum::<f64>() / 1e3;
        let pass_fits = elapsed + pass_s.last().copied().unwrap_or(0.0) <= budget.as_secs_f64();
        if pass_s.is_empty()
            || (pass_fits && spent_a * (1.0 - LANE_A_SHARE) <= spent_b * LANE_A_SHARE)
        {
            let message: Vec<u64> = (0..slots * t).map(|_| rng.gen_range(0..p)).collect();
            let nonce = nonce_base | pass_s.len() as u128;
            let ct = w
                .client
                .encrypt(nonce, &message)
                .expect("canonical message");
            let req = pass_s.len() as u64;
            let s = tr.begin("hhe.transcipher_batched", 0, req);
            let watch = Stopwatch::start();
            let out = w
                .batched
                .transcipher_batched(&w.batched_ctx, &ct)
                .expect("2048 blocks fit N = 2048 slots");
            let (wall, running) = watch.read();
            pass_s.push(running);
            pass_wall_s.push(wall);
            tr.end(s);
            // Cold traffic only: read before the warm repeat below.
            let stats = w.batched.cache().stats();
            batched_hits.hits += stats.hits;
            batched_hits.misses += stats.misses;
            if tr.on() && warm_s.is_none() {
                // The same batch again: every prepared plaintext is a hit.
                let s = tr.begin("hhe.transcipher_batched.warm", 0, req);
                let watch = Stopwatch::start();
                black_box(w.batched.transcipher_batched(&w.batched_ctx, &ct).ok());
                warm_s = Some(watch.read().1);
                tr.end(s);
            }
            w.batched = w.batched.with_cache(small_cache());
            passes.push((message, out));
        } else if elapsed < budget.as_secs_f64() || block_ms.len() < MIN_PACKED_BLOCKS {
            let message: Vec<u64> = (0..t).map(|_| rng.gen_range(0..p)).collect();
            let nonce = nonce_base | 1 << 32 | block_ms.len() as u128;
            let ct = w
                .client
                .encrypt(nonce, &message)
                .expect("canonical message");
            w.packed.reset_key_switch_count();
            let s = tr.begin("hhe.transcipher_packed", 0, block_ms.len() as u64);
            let watch = Stopwatch::start();
            let out = w
                .packed
                .transcipher_packed(&w.packed_ctx, &ct, 0)
                .expect("10 primes carry the packed circuit");
            let (wall, running) = watch.read();
            block_ms.push(running * 1e3);
            block_wall_ms.push(wall * 1e3);
            tr.end(s);
            key_switches.push(w.packed.key_switch_count());
            blocks.push((message, out));
        } else {
            break;
        }
    }
    window.close(&mut report);

    // Verification: every slot of every pass, every packed lane.
    for (message, out) in &passes {
        let decoded: Vec<Vec<u64>> = (0..t)
            .map(|i| {
                w.batched
                    .decode_position(&w.batched_ctx, &w.batched_sk, out, i)
            })
            .collect();
        report.attempted += out.blocks as u64;
        report.failed += (0..out.blocks)
            .filter(|&s| (0..t).any(|i| decoded[i][s] != message[s * t + i]))
            .count() as u64;
    }
    for (message, out) in &blocks {
        report.attempted += 1;
        if w.packed.decode(&w.packed_ctx, &w.packed_sk, out, t) != *message {
            report.failed += 1;
        }
    }

    let a = report.note_dist(
        "pass_ms.a",
        &pass_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    let b = report.note_dist("block_ms.b", &block_ms);
    report.note_dist(
        "pass_wall_ms.a",
        &pass_wall_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
    );
    report.note_dist("block_wall_ms.b", &block_wall_ms);
    // Verified blocks per second of time spent in cold passes; packed
    // blocks per second of time spent serving them.
    report.e2e("a_per_s", slots as f64 / (a.mean / 1e3));
    report.e2e("b_per_s", 1e3 / b.mean);
    report.lane_latency("a", &a);
    report.lane_latency("b", &b);

    if tr.on() {
        report.layer("hhe.cold_pass_s", a.p50 / 1e3);
        report.layer("hhe.warm_pass_s", warm_s.unwrap_or(0.0));
        let packed_hits = w.packed.cache().stats();
        let hits = batched_hits.hits + packed_hits.hits;
        let lookups = hits + batched_hits.misses + packed_hits.misses;
        report.layer("hhe.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
        if key_switches.iter().any(|&k| k != key_switches[0]) {
            eprintln!("wallbench: packed key switches differ between blocks: {key_switches:?}");
            report.failed += 1;
        }
        report.layer("hhe.packed_key_switches", key_switches[0] as f64);
        for (lane, ctx) in [("a", &w.batched_ctx), ("b", &w.packed_ctx)] {
            let [mul, ntt, prep] = probe_fhe(ctx, args.seed, lane, tr);
            report.layer(lane_metric("fhe.mul_relin_us", lane), mul);
            report.layer(lane_metric("fhe.ntt_fwd_us", lane), ntt);
            report.layer(lane_metric("fhe.prepare_plaintext_us", lane), prep);
        }
    }
    // After the window, with the pass outputs and keys freed.
    drop((w, passes, blocks));
    report.time_setups(SETUPS, || {
        black_box(setup(args.seed));
    });
    report
}
