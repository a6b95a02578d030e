//! Metric names, distributions, the result line and the run record.

use crate::sys::{self, json_str, Environment, Stopwatch};
use crate::trace::Tracer;
use crate::Args;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them. Lane `a` and
/// lane `b` are the workload's two kinds of work (see `README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("a_per_s", "1/s"),
    ("b_per_s", "1/s"),
];

/// Per-layer metrics of a traced run. A layer (or lane) that is not on a
/// workload's data path reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("latency.p50_ms.a", "ms"),
    ("latency.p50_ms.b", "ms"),
    ("latency.tail_ms.a", "ms"),
    ("latency.tail_ms.b", "ms"),
    ("core.material_us.a", "us"),
    ("core.material_us.b", "us"),
    ("core.permute_us.a", "us"),
    ("core.permute_us.b", "us"),
    ("core.keccak_perms_per_block.a", "count"),
    ("core.keccak_perms_per_block.b", "count"),
    ("core.sampler_accept_ratio.a", "ratio"),
    ("core.sampler_accept_ratio.b", "ratio"),
    ("hw.countermeasure_us.a", "us"),
    ("hw.countermeasure_us.b", "us"),
    ("hw.cycles_per_block.a", "cycles"),
    ("hw.cycles_per_block.b", "cycles"),
    ("pipeline.frame_us.a", "us"),
    ("pipeline.frame_us.b", "us"),
    ("pipeline.wire_bytes_per_block.a", "B"),
    ("pipeline.wire_bytes_per_block.b", "B"),
    ("fhe.mul_relin_us.a", "us"),
    ("fhe.mul_relin_us.b", "us"),
    ("fhe.ntt_fwd_us.a", "us"),
    ("fhe.ntt_fwd_us.b", "us"),
    ("fhe.prepare_plaintext_us.a", "us"),
    ("fhe.prepare_plaintext_us.b", "us"),
    ("fhe.scratch_misses", "count"),
    ("hhe.cold_pass_s", "s"),
    ("hhe.warm_pass_s", "s"),
    ("hhe.cache_hit_ratio", "ratio"),
    ("hhe.packed_key_switches", "count"),
    ("par.dispatches", "count"),
    ("par.contended_inline", "count"),
    ("par.nested_inline", "count"),
    ("proc.user_cpu_s", "s"),
    ("proc.sys_cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.steal_s", "s"),
    ("server.submit_us", "us"),
    ("server.poll_busy_s", "s"),
    ("server.queue_wait_ms", "ms"),
    ("server.bucket_fill", "ratio"),
    ("server.refused_queue_full", "count"),
    ("server.shed_deadline", "count"),
    ("server.deadline_miss_ratio", "ratio"),
    ("gen.lag_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The declared per-layer metric `<base>.<lane>`.
pub fn lane(base: &str, lane: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix(base).and_then(|r| r.strip_prefix('.')) == Some(lane))
        .unwrap_or_else(|| panic!("undeclared per-layer metric {base}.{lane}"))
}

/// Mean, median and tail of a sample. The tail is the highest
/// percentile with at least ten samples beyond it (the maximum below 21
/// samples).
pub struct Dist {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (nearest rank) of a sorted sample, 0 when empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `q`-quantile (nearest rank) of a sample, 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    nearest_rank(&sorted(samples), q)
}

pub fn dist(samples: &[f64]) -> Dist {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return Dist {
            n,
            mean: 0.0,
            p50: 0.0,
            tail: 0.0,
            tail_pct: 0.0,
        };
    }
    let p50 = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    // Ten samples beyond the tail; below 21 samples that percentile would
    // sit under the median, so the tail is the maximum.
    let tail_rank = if n >= 21 { n - 10 } else { n };
    Dist {
        n,
        mean: v.iter().sum::<f64>() / n as f64,
        p50,
        tail: v[tail_rank - 1],
        tail_pct: 100.0 * tail_rank as f64 / n as f64,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    dist(samples).p50
}

/// CPU time, pool and scratch counters over the timed window.
pub struct Window {
    start: Instant,
    cpu: (f64, f64),
    steal_s: f64,
    pool: pasta_par::pool::PoolStats,
    scratch: pasta_fhe::scratch::ScratchStats,
}

impl Window {
    pub fn open() -> Self {
        Window {
            start: Instant::now(),
            cpu: sys::cpu_seconds(),
            steal_s: sys::steal_seconds(),
            pool: pasta_par::pool::stats(),
            scratch: pasta_fhe::scratch::stats(),
        }
    }

    /// Adds the window's `proc.*` (`proc.steal_s`: hypervisor steal summed
    /// over CPUs), `par.*` and `fhe.scratch_misses`.
    pub fn close(self, report: &mut Report) {
        let wall = self.start.elapsed().as_secs_f64();
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let (user, system) = sys::cpu_seconds();
        let pool = pasta_par::pool::stats();
        let scratch = pasta_fhe::scratch::stats();
        let user = user - self.cpu.0;
        let system = system - self.cpu.1;
        report.window_s = wall;
        report.layer("proc.user_cpu_s", user);
        report.layer("proc.sys_cpu_s", system);
        report.layer("proc.cpu_util", (user + system) / (wall * nproc as f64));
        report.layer("proc.steal_s", sys::steal_seconds() - self.steal_s);
        report.layer(
            "par.dispatches",
            (pool.dispatches - self.pool.dispatches) as f64,
        );
        report.layer(
            "par.contended_inline",
            (pool.contended_inline - self.pool.contended_inline) as f64,
        );
        report.layer(
            "par.nested_inline",
            (pool.nested_inline - self.pool.nested_inline) as f64,
        );
        report.layer(
            "fhe.scratch_misses",
            (scratch.misses - self.scratch.misses) as f64,
        );
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (frames, blocks, requests).
    pub attempted: u64,
    /// Operations that failed: refused, shed, faulted or wrong.
    pub failed: u64,
    /// Why the run measured something other than the system, if it did.
    pub invalid: Option<String>,
    /// Wall seconds of the timed window.
    pub window_s: f64,
    /// Per-set-up times (see `time_setups`).
    setup_s: Vec<f64>,
    e2e: Vec<(&'static str, f64)>,
    layer: Vec<(&'static str, f64)>,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "undeclared end-to-end metric {name}"
        );
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.layer.retain(|(n, _)| *n != name);
        self.layer.push((name, value));
    }

    /// Adds a field to the run record; `json` must be a JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.notes.push((key.to_string(), json));
    }

    /// Records a latency distribution under `key` and returns it.
    pub fn note_dist(&mut self, key: &str, samples: &[f64]) -> Dist {
        let d = dist(samples);
        self.note(
            key,
            format!(
                "{{\"n\": {}, \"mean\": {}, \"p50\": {}, \"tail\": {}, \"tail_pct\": {}, \"samples\": [{}]}}",
                d.n,
                d.mean,
                d.p50,
                d.tail,
                d.tail_pct,
                samples
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        d
    }

    /// Adds one sample of the time one set-up takes. `setup_s` is the
    /// median over every sample of the run, which spans the run rather
    /// than one instant of it: the host's speed drifts.
    pub fn setup_sample(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
    }

    /// Times `reps` set-ups, each less hypervisor steal (see `Stopwatch`),
    /// as `setup_s` samples.
    pub fn time_setups(&mut self, reps: usize, mut setup: impl FnMut()) {
        for _ in 0..reps {
            let watch = Stopwatch::start();
            setup();
            self.setup_sample(watch.read().1);
        }
    }

    /// Records a lane's latency median and tail as per-layer metrics.
    pub fn lane_latency(&mut self, lane_tag: &str, d: &Dist) {
        self.layer(lane("latency.p50_ms", lane_tag), d.p50);
        self.layer(lane("latency.tail_ms", lane_tag), d.tail);
    }

    /// Adds the metrics every workload shares, writes the run record
    /// (and the spans of a traced run) and logs a summary.
    pub fn finish(mut self, args: &Args, env: &Environment, tracer: &Tracer) -> Self {
        let setups = std::mem::take(&mut self.setup_s);
        let setup = self.note_dist("setup_s", &setups);
        self.e2e("setup_s", setup.p50);
        self.e2e("peak_rss_mb", sys::peak_rss_mb());
        if self.attempted > 0 {
            self.layer("failed_ratio", self.failed as f64 / self.attempted as f64);
        }
        if tracer.on() {
            let cost = Tracer::span_cost_ns();
            let overhead = tracer.len() as f64 * cost / (self.window_s.max(1e-9) * 1e9);
            self.layer("trace.overhead_ratio", overhead);
            self.note("trace_spans", tracer.len().to_string());
            self.note("trace_span_cost_ns", cost.to_string());
        }
        if let Some(reason) = &self.invalid {
            eprintln!("wallbench: INVALID RUN: {reason}");
        }
        for (name, value) in &self.e2e {
            eprintln!("wallbench:   {name} = {value}");
        }
        let dir = out_dir();
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            if tracer.on() {
                std::fs::write(format!("{dir}/{stem}.spans.jsonl"), tracer.to_jsonl())?;
            }
            std::fs::write(format!("{dir}/{stem}.json"), self.record(args, env))
        });
        match written {
            Ok(()) => eprintln!("wallbench: record written to {dir}/{stem}.json"),
            Err(e) => eprintln!("wallbench: could not write the run record under {dir}: {e}"),
        }
        self
    }

    /// True when something was attempted, nothing failed and the run
    /// measured the system.
    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.invalid.is_none()
    }

    fn metrics_json(&self, trace: bool) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut push = |name: &str, unit: &str, value: f64| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        if trace {
            for (name, unit) in PER_LAYER {
                let value = self
                    .layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                push(name, unit, value);
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                push(name, unit, value);
            }
        }
        out.push('}');
        out
    }

    /// The benchmark's result: the last line of stdout.
    pub fn result_line(&self, trace: bool) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(trace)
        )
    }

    /// The run record: environment, inputs, both metric sets and notes.
    fn record(&self, args: &Args, env: &Environment) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": {},", json_str(&args.workload));
        let _ = writeln!(out, "  \"seed\": {},", args.seed);
        let _ = writeln!(out, "  \"seconds\": {},", args.seconds);
        let _ = writeln!(out, "  \"trace\": {},", args.trace);
        let _ = writeln!(out, "  \"environment\": {},", env.to_json());
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let invalid = self.invalid.as_deref().map_or("null".to_string(), json_str);
        let _ = writeln!(out, "  \"invalid\": {invalid},");
        let _ = writeln!(out, "  \"window_s\": {},", self.window_s);
        let _ = writeln!(out, "  \"end_to_end\": {},", self.metrics_json(false));
        let _ = writeln!(out, "  \"per_layer\": {},", self.metrics_json(true));
        for (key, value) in &self.notes {
            let _ = writeln!(out, "  {}: {value},", json_str(key));
        }
        out.push_str("  \"version\": 1\n}\n");
        out
    }
}

/// Where run records and spans go: under the cargo target directory.
fn out_dir() -> String {
    let target = std::env::var("CARGO_TARGET_DIR")
        .ok()
        .filter(|d| !d.is_empty())
        .unwrap_or_else(|| "wallbench/target".to_string());
    format!("{target}/wallbench-runs")
}
