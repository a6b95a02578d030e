//! Process and host facts: the environment a result is only comparable
//! under, peak resident memory, and CPU time.

use std::fmt::Write as _;
use std::time::Instant;

/// Everything two results must share before their numbers may be
/// compared (`compare.py` refuses pairs that differ in any field).
pub struct Environment {
    /// Logical CPUs the process may use.
    pub nproc: usize,
    /// `PASTA_THREADS` as the worker pool resolves it (clamped to `nproc`).
    pub threads: usize,
    /// SIMD backend of the arithmetic kernels.
    pub simd: &'static str,
    /// Ciphertext-multiplication backend (`PASTA_MUL`).
    pub mul: &'static str,
    /// Compiler that built this binary.
    pub rustc: &'static str,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
}

impl Environment {
    /// Clamps `PASTA_THREADS` to the CPUs available, then records the
    /// environment. Must run before any worker thread exists.
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let requested = std::env::var(pasta_par::THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(nproc);
        std::env::set_var(pasta_par::THREADS_ENV, requested.min(nproc).to_string());
        let mul = if std::env::var(pasta_fhe::bfv::MUL_BACKEND_ENV).is_ok_and(|v| v == "bigint") {
            "bigint"
        } else {
            "rns"
        };
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Environment {
            nproc,
            threads: pasta_par::threads(),
            simd: pasta_math::simd::backend_label(),
            mul,
            rustc: env!("WALLBENCH_RUSTC"),
            cpu,
        }
    }

    /// One line for the log.
    pub fn summary(&self) -> String {
        format!(
            "nproc={} PASTA_THREADS={} simd={} mul={} rustc=\"{}\" cpu=\"{}\"",
            self.nproc, self.threads, self.simd, self.mul, self.rustc, self.cpu
        )
    }

    /// The environment as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"nproc\": {}, \"pasta_threads\": {}, \"simd\": {}, \"mul\": {}, \"rustc\": {}, \"cpu\": {}",
            self.nproc,
            self.threads,
            json_str(self.simd),
            json_str(self.mul),
            json_str(self.rustc),
            json_str(&self.cpu)
        );
        out.push('}');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU seconds this process has used so far (all
/// threads), from `/proc/self/stat` in clock ticks of 1/100 s.
pub fn cpu_seconds() -> (f64, f64) {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name may contain spaces: fields restart after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the state
    // field (3) is the first after ')'.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / TICKS_PER_S, tick(12) / TICKS_PER_S)
}

/// Time the hypervisor withheld this machine's CPUs so far (the `steal`
/// column of `/proc/stat`, summed over CPUs), in seconds; 0 where the
/// kernel does not report it.
pub fn steal_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / TICKS_PER_S)
}

/// A stopwatch that also tracks hypervisor steal. On a shared VM the
/// hypervisor at times withholds the vCPUs for a large share of the wall
/// time, which no change to the program can affect; `running_s` is the
/// wall time minus the steal that fell on one CPU on average.
pub struct Stopwatch {
    start: Instant,
    steal_s: f64,
    cpus: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
            steal_s: steal_seconds(),
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                as f64,
        }
    }

    /// Wall seconds so far, and the same less the average per-CPU steal
    /// since the start.
    pub fn read(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let stolen = (steal_seconds() - self.steal_s) / self.cpus;
        (wall, (wall - stolen).max(0.0))
    }
}
