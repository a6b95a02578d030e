//! `service-mixed`: an open loop of independent devices against
//! `PastaServer::submit`/`poll` at the load generator's parameters
//! (PASTA t = 4, r = 2; BFV N = 256). Lane `a` is four domainless tenants
//! (scalar units, 4 primes), lane `b` four tenants sharing one FHE domain
//! (multiplexed buckets, 6 primes, the `full_mux` policy).
//!
//! Arrivals are Poisson from the seed, in three phases: a nominal phase
//! at a fixed rate well below capacity with both lanes mixed, which gives
//! the latencies; then, once it has drained, an overload phase of lane a
//! alone and one of lane b alone, each offered far past its capacity,
//! which give each lane's goodput. Wire frames are built before the
//! window, and `now_us` is wall-clock µs since the window opened.

use crate::metrics::{lane as lane_metric, median, quantile, Report, Window};
use crate::sys::Stopwatch;
use crate::trace::Tracer;
use crate::transcipher::probe_fhe;
use crate::Args;
use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvParams, BfvSecretKey};
use pasta_hhe::{retrieve_muxed, HheClient, SlotRange};
use pasta_math::Modulus;
use pasta_pipeline::{pack, WireFrame};
use pasta_server::{
    Completion, CompletionResult, MultiplexConfig, PastaServer, ServerConfig, ServerEvent,
    SubmitOutcome, TenantId, TenantProvision,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per phase: offered requests per second, share of the window its
/// arrivals span, and which lanes it draws tenants from.
const PHASES: [(f64, f64, Lanes); 3] = [
    (10.0, 0.4, Lanes::Both),
    (300.0, 0.07, Lanes::Scalar),
    (1_500.0, 0.1, Lanes::Muxed),
];
/// Tenants per lane.
const TENANTS_PER_LANE: usize = 4;
/// Wall-clock deadline a completion should meet (`deadline_miss_ratio`).
const DEADLINE_US: u64 = 120_000;
/// The server's own relative deadline. Its scheduler advances by the
/// configured service constants, not by wall time, so a burst submitted
/// after a long `poll` could be shed on that virtual clock; this
/// workload is chosen so that nothing is shed.
const SERVER_DEADLINE_US: u64 = 60_000_000;
/// A run whose generator, on its own, fell this far behind (p99) while
/// the server was not holding it up measured the generator.
const OWN_LAG_LIMIT_MS: f64 = 20.0;
/// Set-ups timed before and after the window (their median is `setup_s`).
const SETUPS: usize = 9;
/// The loop gives up (counting what is unserved as failed) after this
/// many windows, so a stalled server cannot hang the benchmark.
const HARD_STOP_WINDOWS: u32 = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Lanes {
    Both,
    Scalar,
    Muxed,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 8,
        // Deep enough that the overload phases queue instead of refusing.
        queue_capacity: 100_000,
        deadline_us: SERVER_DEADLINE_US,
        idle_timeout_us: 600_000_000,
        service_us_per_block: 2_000,
        multiplex: MultiplexConfig {
            enabled: true,
            max_bucket_blocks: 32,
            flush_margin_us: 30_000,
            linger_us: 1_500,
            service_us_per_pass: 8_000,
        },
        ..ServerConfig::default()
    }
}

struct Tenant {
    id: TenantId,
    client: HheClient,
    ctx: BfvContext,
    sk: BfvSecretKey,
}

/// Contexts, keys, key provisioning and registration of all tenants.
fn setup(seed: u64) -> (PastaServer, Vec<Tenant>) {
    let params = PastaParams::custom(4, 2, Modulus::PASTA_17_BIT).expect("t = 4, r = 2 is valid");
    let mut server = PastaServer::new(server_config());
    let mut tenants = Vec::new();
    for j in 0..2 * TENANTS_PER_LANE {
        let muxed = j >= TENANTS_PER_LANE;
        let bfv = if muxed {
            BfvParams {
                prime_count: 6,
                ..BfvParams::test_tiny()
            }
        } else {
            BfvParams::test_tiny()
        };
        // The multiplexed tenants share one analyst keypair.
        let fhe_seed = if muxed {
            seed ^ 0xA5A5_0000
        } else {
            seed ^ (0xA5A5 + j as u64 * 0x9E37_79B9)
        };
        let mut rng = StdRng::seed_from_u64(fhe_seed);
        let ctx = BfvContext::new(bfv).expect("test parameters are valid");
        let sk = ctx.generate_secret_key(&mut rng);
        let pk = ctx.generate_public_key(&sk, &mut rng);
        let relin_key = ctx.generate_relin_key(&sk, &mut rng);
        let client = HheClient::new(params, format!("wallbench service {seed} {j}").as_bytes());
        let mut prov_rng = StdRng::seed_from_u64(seed ^ (0x5EED + j as u64));
        let encrypted_key = client.provision_key(&ctx, &pk, &mut prov_rng);
        let id = server
            .register_tenant(TenantProvision {
                pasta: params,
                bfv,
                relin_key,
                encrypted_key,
                fhe_domain: muxed.then_some(1),
            })
            .expect("tenants are provisioned with enough primes");
        tenants.push(Tenant {
            id,
            client,
            ctx,
            sk,
        });
    }
    (server, tenants)
}

/// One device request, built before the window.
struct Arrival {
    phase: usize,
    /// Due instant relative to the start of its phase.
    offset_us: u64,
    tenant: usize,
    nonce: u128,
    message: Vec<u64>,
    frame: Vec<u8>,
}

impl Arrival {
    fn muxed(&self) -> bool {
        self.tenant >= TENANTS_PER_LANE
    }
}

/// The Poisson arrivals of every phase, in phase and time order.
fn arrivals(seed: u64, budget: Duration, tenants: &[Tenant]) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA771_0000);
    let mut out = Vec::new();
    for (phase, &(rate, share, lanes)) in PHASES.iter().enumerate() {
        let span = budget.as_secs_f64() * share;
        let (lo, hi) = match lanes {
            Lanes::Both => (0, 2 * TENANTS_PER_LANE),
            Lanes::Scalar => (0, TENANTS_PER_LANE),
            Lanes::Muxed => (TENANTS_PER_LANE, 2 * TENANTS_PER_LANE),
        };
        let mut at = 0.0f64;
        loop {
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if at >= span {
                break;
            }
            let tenant = rng.gen_range(lo..hi);
            let client = &tenants[tenant].client;
            let params = client.params();
            let p = params.modulus().value();
            let message: Vec<u64> = (0..params.t()).map(|_| rng.gen_range(0..p)).collect();
            let nonce = (u128::from(seed) << 64) | out.len() as u128;
            let ct = client.encrypt(nonce, &message).expect("canonical message");
            let payload = pack::pack_bits(ct.elements(), params.modulus().bits());
            let frame_id = u32::try_from(out.len()).expect("fewer than 2^32 requests");
            let frame = WireFrame::data(nonce, frame_id, 0, payload).encode();
            out.push(Arrival {
                phase,
                offset_us: (at * 1e6) as u64,
                tenant,
                nonce,
                message,
                frame,
            });
        }
    }
    out
}

/// A delivered completion and when.
struct Delivered {
    arrival: usize,
    completion: Completion,
    returned_us: u64,
    poll_start_us: u64,
    /// Wall and steal-less seconds from its phase's start to delivery.
    since_phase: (f64, f64),
}

pub fn run(args: &Args, budget: Duration, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    report.time_setups(SETUPS, || {
        black_box(setup(args.seed));
    });
    let (mut server, tenants) = setup(args.seed);
    let plan = arrivals(args.seed, budget, &tenants);

    let window = Window::open();
    let origin = Instant::now();
    let now_us = || origin.elapsed().as_micros() as u64;
    // A phase starts once everything offered before it has been served.
    let mut phase_start: [Option<u64>; 3] = [Some(0), None, None];
    let mut phase_watch = Stopwatch::start();
    let due = |starts: &[Option<u64>; 3], a: &Arrival| starts[a.phase].map(|s| s + a.offset_us);
    let mut next = 0usize;
    let mut due_us = vec![0u64; plan.len()];
    let mut submitted_us = vec![0u64; plan.len()];
    let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
    let mut delivered: Vec<Delivered> = Vec::new();
    let mut lag_ms = vec![0f64; plan.len()];
    let mut own_lag_ms: Vec<f64> = Vec::new();
    let mut submit_us: Vec<f64> = Vec::new();
    let mut poll_busy_us = 0u64;
    let mut last_call_end_us = 0u64;
    loop {
        if let Some(a) = plan.get(next) {
            if phase_start[a.phase].is_none() && pending.is_empty() {
                phase_start[a.phase] = Some(now_us());
                phase_watch = Stopwatch::start();
            }
        }
        while let Some(at) = plan.get(next).and_then(|a| due(&phase_start, a)) {
            let now = now_us();
            if at > now {
                break;
            }
            let a = &plan[next];
            let tenant = tenants[a.tenant].id;
            lag_ms[next] = (now - at) as f64 / 1e3;
            // Lateness the server did not cause: time since the later of
            // the due instant and the end of the last server call.
            own_lag_ms.push(now.saturating_sub(at.max(last_call_end_us)) as f64 / 1e3);
            let span = tr.begin("server.submit", 0, next as u64);
            let begun = Instant::now();
            let opened = server.open_session(now, tenant, a.nonce);
            let outcome = server.submit(now, tenant, &a.frame);
            submit_us.push(begun.elapsed().as_secs_f64() * 1e6);
            tr.end(span);
            due_us[next] = at;
            submitted_us[next] = now;
            match (opened, outcome) {
                (Ok(()), SubmitOutcome::Accepted { seq, .. }) => {
                    pending.insert(seq, next);
                }
                _ => report.failed += 1,
            }
            last_call_end_us = now_us();
            next += 1;
        }
        if server.backlog() > 0 {
            let poll_start_us = now_us();
            let span = tr.begin("server.poll", 0, poll_start_us);
            let events = server.poll(poll_start_us);
            tr.end(span);
            let returned_us = now_us();
            poll_busy_us += returned_us - poll_start_us;
            last_call_end_us = returned_us;
            let since_phase = if events.is_empty() {
                (0.0, 0.0)
            } else {
                phase_watch.read()
            };
            for event in events {
                match event {
                    ServerEvent::Completed(completion) => {
                        if let Some(arrival) = pending.remove(&completion.seq) {
                            delivered.push(Delivered {
                                arrival,
                                completion,
                                returned_us,
                                poll_start_us,
                                since_phase,
                            });
                        }
                    }
                    ServerEvent::Refused { seq, .. } => {
                        pending.remove(&seq);
                        report.failed += 1;
                    }
                }
            }
        }
        if next == plan.len() && pending.is_empty() {
            break;
        }
        if origin.elapsed() > budget * HARD_STOP_WINDOWS {
            let unsubmitted = plan.len() - next;
            eprintln!(
                "wallbench: {} requests still unserved and {unsubmitted} never submitted; stopping",
                pending.len()
            );
            report.failed += unsubmitted as u64;
            break;
        }
        // Sleep until the next arrival; while work is queued (lingering
        // buckets) or a phase waits for the drain, poll every 200 µs.
        let now = now_us();
        let wake = plan.get(next).and_then(|a| due(&phase_start, a));
        let nap = match wake {
            Some(at) if pending.is_empty() => at.saturating_sub(now),
            Some(at) => at.saturating_sub(now).min(200),
            None => 200,
        };
        if nap > 0 {
            std::thread::sleep(Duration::from_micros(nap));
        }
    }
    window.close(&mut report);
    report.time_setups(SETUPS, || {
        black_box(setup(args.seed));
    });
    report.attempted = plan.len() as u64;

    // Verification: every completion decrypts to its device's message. A
    // multiplexed bucket is decrypted once, over all of its slots, and
    // each member's message is read out of its slot range.
    let mut buckets: BTreeMap<usize, Option<Vec<u64>>> = BTreeMap::new();
    for d in &delivered {
        let a = &plan[d.arrival];
        let t = &tenants[a.tenant];
        let got = match &d.completion.result {
            CompletionResult::Muxed {
                positions,
                assignment,
            } => {
                let width = positions.len();
                let all = buckets
                    .entry(Arc::as_ptr(positions) as usize)
                    .or_insert_with(|| {
                        let slots = t.ctx.params().n;
                        let every_slot = SlotRange {
                            start: 0,
                            blocks: slots,
                            elements: slots * width,
                        };
                        retrieve_muxed(&t.ctx, &t.sk, positions, every_slot).ok()
                    });
                let first = assignment.range.start * width;
                all.as_ref()
                    .and_then(|v| v.get(first..first + assignment.range.elements))
                    .map(<[u64]>::to_vec)
            }
            scalar => scalar.retrieve(&t.ctx, &t.sk).ok(),
        };
        if got.as_ref() != Some(&a.message) {
            report.failed += 1;
        }
    }
    report.failed += pending.len() as u64;

    // Goodput of each overload phase: its completions over the time from
    // its start to its last completion (the server is saturated all
    // along), less hypervisor steal (see `Stopwatch`).
    for (phase, metric) in [(1usize, "a_per_s"), (2, "b_per_s")] {
        let done: Vec<(f64, f64)> = delivered
            .iter()
            .filter(|d| plan[d.arrival].phase == phase)
            .map(|d| d.since_phase)
            .collect();
        let wall_s = done.iter().map(|d| d.0).fold(0.0, f64::max);
        let busy_s = done.iter().map(|d| d.1).fold(0.0, f64::max);
        report.e2e(metric, done.len() as f64 / busy_s.max(1e-6));
        report.note(&format!("overload_busy_s.{metric}"), busy_s.to_string());
        report.note(&format!("overload_wall_s.{metric}"), wall_s.to_string());
    }

    let nominal: Vec<&Delivered> = delivered
        .iter()
        .filter(|d| plan[d.arrival].phase == 0)
        .collect();
    let latency_ms = |muxed: bool| -> Vec<f64> {
        nominal
            .iter()
            .filter(|d| plan[d.arrival].muxed() == muxed)
            .map(|d| (d.returned_us - due_us[d.arrival]) as f64 / 1e3)
            .collect()
    };
    for (lane, muxed) in [("a", false), ("b", true)] {
        let d = report.note_dist(&format!("latency_ms.{lane}"), &latency_ms(muxed));
        report.lane_latency(lane, &d);
    }
    let misses = nominal
        .iter()
        .filter(|d| d.returned_us > due_us[d.arrival] + DEADLINE_US)
        .count();
    report.layer(
        "server.deadline_miss_ratio",
        misses as f64 / nominal.len().max(1) as f64,
    );

    let own_p99 = quantile(&own_lag_ms, 0.99);
    report.note("gen_own_lag_p99_ms", own_p99.to_string());
    if own_p99 > OWN_LAG_LIMIT_MS {
        report.invalid = Some(format!(
            "the generator fell {own_p99:.1} ms behind (p99) while the server was not busy"
        ));
    }
    let nominal_lag: Vec<f64> = (0..plan.len())
        .filter(|&i| plan[i].phase == 0)
        .map(|i| lag_ms[i])
        .collect();
    report.layer("gen.lag_ms", quantile(&nominal_lag, 0.99));
    let stats = server.stats();
    report.layer("server.refused_queue_full", stats.refused_queue_full as f64);
    report.layer("server.shed_deadline", stats.shed_deadline as f64);
    if tr.on() {
        report.layer(
            "server.submit_us",
            submit_us.iter().sum::<f64>() / submit_us.len().max(1) as f64,
        );
        report.layer("server.poll_busy_s", poll_busy_us as f64 / 1e6);
        let waits: Vec<f64> = nominal
            .iter()
            .map(|d| d.poll_start_us.saturating_sub(submitted_us[d.arrival]) as f64 / 1e3)
            .collect();
        report.layer("server.queue_wait_ms", median(&waits));
        let fills = server.bucket_fills();
        let fill = fills.iter().map(|&f| f64::from(f)).sum::<f64>() / fills.len().max(1) as f64;
        report.layer("server.bucket_fill", fill / 1e3);
        let cache = server.cache().stats();
        report.layer(
            "hhe.cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        for (lane, t) in [("a", &tenants[0]), ("b", &tenants[TENANTS_PER_LANE])] {
            let [mul, ntt, prep] = probe_fhe(&t.ctx, args.seed, lane, tr);
            report.layer(lane_metric("fhe.mul_relin_us", lane), mul);
            report.layer(lane_metric("fhe.ntt_fwd_us", lane), ntt);
            report.layer(lane_metric("fhe.prepare_plaintext_us", lane), prep);
        }
    }
    report
}
