//! Machine-readable load-test record for the multi-tenant service.
//!
//! Runs the seeded, fault-injected loadgen of `pasta-server` (thousands
//! of simulated edge devices over lossy links, with an undersized-queue
//! service and one injected worker panic) and renders the resulting
//! [`pasta_server::LoadReport`] as `BENCH_server.json`.
//!
//! The binary is also the CI acceptance gate: it exits non-zero unless
//! the run finished with zero unaccounted requests (every accepted
//! request either completed or got a typed NACK) and every completion
//! decrypted back to the original plaintext.
//!
//! Usage:
//!
//! ```text
//! loadgen                       # multiplexed full scenario → ./BENCH_server.json
//! loadgen --multiplex off       # scalar full scenario → ./BENCH_server_scalar.json
//! loadgen --baseline BENCH_server_scalar.json   # + gate ≥4× its throughput
//! loadgen --quick               # CI smoke scenario (a few seconds)
//! loadgen --seed 9              # reseed the whole simulation
//! loadgen --out-dir target/bench
//! ```

use pasta_server::{run_loadgen, LoadgenConfig};

struct Options {
    quick: bool,
    multiplex: bool,
    seed: Option<u64>,
    out_dir: String,
    baseline: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        multiplex: true,
        seed: None,
        out_dir: ".".to_string(),
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--multiplex" => {
                let value = args.next().unwrap_or_default();
                match value.as_str() {
                    "on" => opts.multiplex = true,
                    "off" => opts.multiplex = false,
                    other => {
                        eprintln!("bad --multiplex '{other}' (expected on|off)");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                let value = args.next().unwrap_or_default();
                match value.parse() {
                    Ok(seed) => opts.seed = Some(seed),
                    Err(_) => {
                        eprintln!("bad --seed '{value}'");
                        std::process::exit(2);
                    }
                }
            }
            "--out-dir" => {
                if let Some(d) = args.next() {
                    opts.out_dir = d;
                }
            }
            "--baseline" => {
                opts.baseline = args.next();
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Reads `throughput_rps` out of a committed report JSON (stable-key
/// format written by this binary — a string scan is enough).
fn baseline_throughput(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let tail = text.split("\"throughput_rps\":").nth(1)?;
    tail.split(',').next()?.trim().parse().ok()
}

/// Suppresses the backtrace of the *injected* worker panic (contained
/// by the server, surfaced as a typed `WorkerFault` NACK); any other
/// panic still reports normally.
fn install_panic_filter() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("injected worker fault"));
        if !injected {
            default_hook(info);
        }
    }));
}

fn main() {
    install_panic_filter();
    let opts = parse_args();
    let mut cfg = LoadgenConfig::scenario(!opts.quick, opts.multiplex);
    if let Some(seed) = opts.seed {
        cfg.seed = seed;
    }
    eprintln!(
        "loadgen: {} devices x {} request(s), {} tenants, drop {:.1}%, BER {:.0e}, seed {}",
        cfg.devices,
        cfg.requests_per_device,
        cfg.tenants,
        cfg.drop_prob * 100.0,
        cfg.bit_error_rate,
        cfg.seed
    );
    let report = match run_loadgen(&cfg) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen failed: {err}");
            std::process::exit(1);
        }
    };

    // Acceptance gates.
    let mut failures = Vec::new();
    if report.unaccounted != 0 {
        failures.push(format!(
            "{} accepted request(s) vanished without completion or NACK",
            report.unaccounted
        ));
    }
    if report.completed == 0 {
        failures.push("no request completed".to_string());
    }
    if report.correct != report.completed {
        failures.push(format!(
            "{} of {} completions failed decryption verification",
            report.completed - report.correct,
            report.completed
        ));
    }
    if cfg.inject_fault_on_seq.is_some() && report.worker_faults == 0 {
        failures.push("the injected worker fault never fired".to_string());
    }
    if cfg.server.multiplex.enabled && report.mux_buckets == 0 {
        failures.push("multiplexing was on but no bucket ever flushed".to_string());
    }
    if let Some(path) = &opts.baseline {
        match baseline_throughput(path) {
            Some(base) if base > 0.0 => {
                let ratio = report.throughput_rps / base;
                if ratio < 4.0 {
                    failures.push(format!(
                        "throughput {:.2} req/s is only {ratio:.2}x the {base:.2} req/s \
                         baseline in {path} (gate: >= 4x)",
                        report.throughput_rps
                    ));
                } else {
                    eprintln!(
                        "throughput gate: {:.2} req/s = {ratio:.2}x the {base:.2} req/s baseline",
                        report.throughput_rps
                    );
                }
            }
            _ => failures.push(format!("cannot read a throughput baseline from {path}")),
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("acceptance gate failed: {failure}");
        }
        std::process::exit(1);
    }

    if let Err(err) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("cannot create {}: {err}", opts.out_dir);
        std::process::exit(1);
    }
    let name = if opts.multiplex {
        "BENCH_server.json"
    } else {
        "BENCH_server_scalar.json"
    };
    let path = format!("{}/{name}", opts.out_dir);
    if let Err(err) = std::fs::write(&path, report.to_json()) {
        eprintln!("cannot write {path}: {err}");
        std::process::exit(1);
    }
    if cfg.server.multiplex.enabled {
        eprintln!(
            "multiplexing: {} bucket(s) served {} request(s); flushes full {} / \
             deadline {} / drain {}; fill mean {}‰ p50 {}‰",
            report.mux_buckets,
            report.mux_requests,
            report.flush_full,
            report.flush_deadline,
            report.flush_drain,
            report.mux_mean_fill_permille,
            report.mux_p50_fill_permille
        );
    }
    eprintln!(
        "completed {}/{} ({} verified), p50 {} us, p99 {} us, {:.1} req/s; \
         refused: queue_full {}, budget {}, session {}, malformed {}; \
         shed {}, worker faults {}, retries {}, gave up {}",
        report.completed,
        report.requests_intended,
        report.correct,
        report.p50_latency_us,
        report.p99_latency_us,
        report.throughput_rps,
        report.refused_queue_full,
        report.refused_budget,
        report.refused_session,
        report.refused_malformed,
        report.shed_deadline,
        report.worker_faults,
        report.retries,
        report.gave_up
    );
    eprintln!("wrote {path}");
}
