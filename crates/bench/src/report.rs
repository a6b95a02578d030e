//! Plain-text table/figure rendering for the experiment binaries, and
//! the one timing harness of the `BENCH_*.json` writers: the option
//! parser ([`BenchOptions`]), the min-of-reps timer ([`Timing`]), the
//! per-backend loop ([`for_each_backend`]) and the report open/finish
//! path.

use pasta_math::simd;
use std::time::{Duration, Instant};

/// A simple fixed-width text table.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!(" {c:<w$} |", w = w));
            }
            line.push('\n');
            line
        };
        let sep = {
            let mut line = String::from("+");
            for w in &widths {
                line.push_str(&"-".repeat(w + 2));
                line.push('+');
            }
            line.push('\n');
            line
        };
        out.push_str(&sep);
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out.push_str(&sep);
        out
    }
}

/// A horizontal log-scale text bar for the Fig. 8 style plots.
#[must_use]
pub fn log_bar(value: f64, max_value: f64, width: usize) -> String {
    if value <= 0.0 || max_value <= 1.0 {
        return String::new();
    }
    let scale = value.max(1.0).log10() / max_value.log10();
    let n = ((scale * width as f64).round() as usize).min(width);
    "█".repeat(n.max(1))
}

/// Formats a float compactly (3 significant-ish digits).
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v >= 1_000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a paper-vs-measured pair with the relative deviation.
#[must_use]
pub fn paper_vs_measured(paper: f64, measured: f64) -> String {
    let dev = if paper.abs() > f64::EPSILON {
        (measured - paper) / paper * 100.0
    } else {
        0.0
    };
    format!("{} vs {} ({dev:+.1}%)", fmt_f64(paper), fmt_f64(measured))
}

/// One measurement of a machine-readable benchmark report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Benchmark identifier, e.g. `ntt_fwd_inv/60bit/n=1024`.
    pub id: String,
    /// Measurement phase: `before` (pre-optimization baseline) or `after`.
    pub phase: String,
    /// SIMD backend (`"scalar"` / `"avx2"`) the measurement ran under.
    /// Entries parsed from reports predating the backend dimension
    /// default to `"scalar"` — everything before the SIMD backend
    /// existed was scalar by construction.
    pub backend: String,
    /// Nanoseconds per iteration.
    pub ns: f64,
}

/// A machine-readable benchmark report (`BENCH_*.json` trajectory files).
///
/// The format is deliberately line-oriented — one entry object per line —
/// so the merge path can re-read committed baselines without a JSON
/// dependency (the build environment is offline; see `vendor/`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Report name (`ntt`, `transcipher`, …).
    pub bench: String,
    /// Free-text description of what is measured.
    pub description: String,
    /// Entries, in insertion order.
    pub entries: Vec<BenchEntry>,
    /// Run-level counters rendered as a `"meta"` object — raw JSON
    /// values keyed by name, in insertion order (a sorted `Vec`, not a
    /// map, keeps the rendering deterministic).
    pub meta: Vec<(String, String)>,
}

impl BenchReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(bench: impl Into<String>, description: impl Into<String>) -> Self {
        BenchReport {
            bench: bench.into(),
            description: description.into(),
            entries: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Records a run-level counter under `"meta"`. `value` is rendered
    /// verbatim, so pass a JSON literal (`"0"`, `"\"avx2\""`).
    /// Re-setting a key replaces its value in place.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let (key, value) = (key.into(), value.into());
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key, value));
        }
    }

    /// Appends one measurement under the SIMD backend currently selected
    /// by `pasta_math::simd`, replacing any existing entry with the same
    /// `(id, phase, backend)` so re-runs update in place.
    pub fn push(&mut self, id: impl Into<String>, phase: impl Into<String>, ns: f64) {
        self.push_backend(id, phase, pasta_math::simd::backend_label(), ns);
    }

    /// Appends one measurement with an explicit backend label, replacing
    /// any existing entry with the same `(id, phase, backend)`.
    pub fn push_backend(
        &mut self,
        id: impl Into<String>,
        phase: impl Into<String>,
        backend: impl Into<String>,
        ns: f64,
    ) {
        let (id, phase, backend) = (id.into(), phase.into(), backend.into());
        self.entries
            .retain(|e| !(e.id == id && e.phase == phase && e.backend == backend));
        self.entries.push(BenchEntry {
            id,
            phase,
            backend,
            ns,
        });
    }

    /// Imports all entries of `phase` from a previously rendered report
    /// (e.g. carry the committed `before` baseline into a fresh `after`
    /// run). Unparsable lines are ignored.
    pub fn merge_phase_from(&mut self, json: &str, phase: &str) {
        for e in Self::parse_entries(json) {
            if e.phase == phase {
                self.push_backend(e.id, e.phase, e.backend, e.ns);
            }
        }
    }

    /// `before/after` speedup factors as `(id, backend, factor)` for
    /// every `(id, backend)` present in both phases. An `after` entry
    /// with no same-backend `before` falls back to the scalar `before`
    /// baseline — measurements predating the backend dimension were
    /// scalar by construction, so that is the honest trajectory pairing.
    #[must_use]
    pub fn speedups(&self) -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for e in &self.entries {
            if e.phase != "after" {
                continue;
            }
            let same_backend =
                |b: &&BenchEntry| b.phase == "before" && b.id == e.id && b.backend == e.backend;
            let scalar =
                |b: &&BenchEntry| b.phase == "before" && b.id == e.id && b.backend == "scalar";
            if let Some(before) = self
                .entries
                .iter()
                .find(same_backend)
                .or_else(|| self.entries.iter().find(scalar))
            {
                if e.ns > 0.0 {
                    out.push((e.id.clone(), e.backend.clone(), before.ns / e.ns));
                }
            }
        }
        out
    }

    /// Scalar-vs-AVX2 speedup factors over the `after` phase: for every
    /// id measured under both backends, `scalar_ns / avx2_ns`.
    #[must_use]
    pub fn backend_speedups(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for e in &self.entries {
            if e.phase != "after" || e.backend != "avx2" {
                continue;
            }
            if let Some(s) = self
                .entries
                .iter()
                .find(|s| s.phase == "after" && s.id == e.id && s.backend == "scalar")
            {
                if e.ns > 0.0 {
                    out.push((e.id.clone(), s.ns / e.ns));
                }
            }
        }
        out
    }

    /// Renders the report as JSON (one entry per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", self.bench));
        out.push_str(&format!("  \"description\": \"{}\",\n", self.description));
        out.push_str("  \"unit\": \"ns/iter\",\n");
        if !self.meta.is_empty() {
            out.push_str("  \"meta\": {\n");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                let comma = if i + 1 < self.meta.len() { "," } else { "" };
                out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
            }
            out.push_str("  },\n");
        }
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"phase\": \"{}\", \"backend\": \"{}\", \"ns\": {:.1}}}{comma}\n",
                e.id, e.phase, e.backend, e.ns
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"speedup\": [\n");
        let ups = self.speedups();
        for (i, (id, backend, factor)) in ups.iter().enumerate() {
            let comma = if i + 1 < ups.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"backend\": \"{backend}\", \"factor\": {factor:.2}}}{comma}\n"
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"backend_speedup\": [\n");
        let bups = self.backend_speedups();
        for (i, (id, factor)) in bups.iter().enumerate() {
            let comma = if i + 1 < bups.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"factor\": {factor:.2}}}{comma}\n"
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Extracts the `entries` objects from a rendered report. Tolerant:
    /// scans line by line for the three known keys.
    #[must_use]
    pub fn parse_entries(json: &str) -> Vec<BenchEntry> {
        fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
            let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
            let rest = line[start..].trim_start();
            let rest = rest.strip_prefix('"').unwrap_or(rest);
            let end = rest.find(['"', ',', '}'])?;
            Some(rest[..end].trim())
        }
        json.lines()
            .filter(|l| l.contains("\"phase\"") && l.contains("\"ns\""))
            .filter_map(|l| {
                Some(BenchEntry {
                    id: field(l, "id")?.to_string(),
                    phase: field(l, "phase")?.to_string(),
                    // Reports predating the backend dimension carry no
                    // backend key; those measurements were scalar.
                    backend: field(l, "backend").unwrap_or("scalar").to_string(),
                    ns: field(l, "ns")?.parse().ok()?,
                })
            })
            .collect()
    }
}

/// Measurement phase of a `BENCH_*.json` row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The baseline path the current one is measured against.
    Before,
    /// The current path. Its run carries the committed `before` rows
    /// forward, so the file holds before/after pairs.
    After,
}

impl Phase {
    /// The label written to the `phase` key.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Before => "before",
            Phase::After => "after",
        }
    }
}

/// Calls per timed batch at most, so a warm-up call near the clock's
/// resolution cannot size a runaway batch.
const MAX_BATCH: u128 = 1_000_000;

/// The timer: one untimed warm-up call, then `reps` timed batches, each
/// sized from the warm-up call to last about `window` (at least one
/// call, at most `MAX_BATCH`). The fastest batch's ns per call is the
/// measurement: on a shared box a mean folds in scheduler preemptions,
/// the minimum does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Timed batches (at least one).
    reps: u32,
    /// Wall-clock length each batch aims for.
    window: Duration,
}

impl Timing {
    /// Committed-record runs: five batches of about 100 ms.
    pub const FULL: Timing = Timing {
        reps: 5,
        window: Duration::from_millis(100),
    };
    /// `--quick` (CI smoke) runs: one batch of about 10 ms.
    pub const QUICK: Timing = Timing {
        reps: 1,
        window: Duration::from_millis(10),
    };

    /// Times `f` and returns the fastest batch's ns per call.
    pub fn ns_per_call(self, mut f: impl FnMut()) -> f64 {
        let warm_up = Instant::now();
        f();
        let warm_ns = warm_up.elapsed().as_nanos().max(1);
        let batch = (self.window.as_nanos() / warm_ns).clamp(1, MAX_BATCH);
        (0..self.reps)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    f();
                }
                start.elapsed().as_nanos().max(1) as f64 / batch as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs `f` once under each SIMD backend this machine has — scalar,
/// then AVX2 where the CPU supports it — and then restores the
/// environment's selection. [`BenchReport::push`] stamps the backend
/// in effect, so rows pushed inside `f` carry the forced one.
pub fn for_each_backend(mut f: impl FnMut()) {
    for backend in [simd::Backend::Scalar, simd::Backend::Avx2] {
        if simd::force_backend(Some(backend)) == backend {
            f();
        }
    }
    simd::force_backend(None);
}

/// The command line shared by the `BENCH_*.json` writers:
///
/// ```text
/// --phase before|after   which path to measure (default after)
/// --quick                CI smoke mode: Timing::QUICK instead of FULL
/// --out-dir DIR          where BENCH_<name>.json is read and written (default .)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchOptions {
    /// The phase this run measures.
    pub phase: Phase,
    /// Short measurement windows.
    pub quick: bool,
    /// Directory of the report files.
    pub out_dir: String,
}

impl BenchOptions {
    /// Parses the arguments that follow the program name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown argument, the bad `--phase` value or
    /// the missing `--out-dir` directory.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOptions {
            phase: Phase::After,
            quick: false,
            out_dir: ".".to_string(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--phase" => {
                    opts.phase = match args.next().as_deref() {
                        Some("before") => Phase::Before,
                        Some("after") => Phase::After,
                        other => {
                            return Err(format!(
                                "--phase must be 'before' or 'after', got '{}'",
                                other.unwrap_or_default()
                            ))
                        }
                    }
                }
                "--quick" => opts.quick = true,
                "--out-dir" => opts.out_dir = args.next().ok_or("--out-dir needs a directory")?,
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }

    /// Parses the process's arguments; on a bad one, prints the message
    /// and exits with status 2.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// The timer this run uses.
    #[must_use]
    pub fn timing(&self) -> Timing {
        if self.quick {
            Timing::QUICK
        } else {
            Timing::FULL
        }
    }

    /// Prints one row and pushes it under this run's phase and the
    /// backend in effect. `value` is ns per call, or a raw count for
    /// the rows whose report says so.
    pub fn record(&self, report: &mut BenchReport, id: impl Into<String>, value: f64) {
        let id = id.into();
        let phase = self.phase.label();
        println!("{id}: {value:.0} [{phase}, {}]", simd::backend_label());
        report.push(id, phase, value);
    }

    /// Times `f` with [`BenchOptions::timing`] and records the ns per
    /// call under `id`.
    pub fn time(&self, report: &mut BenchReport, id: impl Into<String>, f: impl FnMut()) {
        let ns = self.timing().ns_per_call(f);
        self.record(report, id, ns);
    }

    fn path(&self, bench: &str) -> String {
        format!("{}/BENCH_{bench}.json", self.out_dir)
    }

    /// Starts `BENCH_<bench>.json`. In the `after` phase it carries the
    /// `before` rows of the file already in the output directory.
    #[must_use]
    pub fn open(&self, bench: &str, description: &str) -> BenchReport {
        let mut report = BenchReport::new(bench, description);
        if self.phase == Phase::After {
            if let Ok(prev) = std::fs::read_to_string(self.path(bench)) {
                report.merge_phase_from(&prev, Phase::Before.label());
            }
        }
        report
    }

    /// Stamps `threads` and `host` into the report's meta, writes it,
    /// and prints its before/after and AVX2-vs-scalar factors.
    ///
    /// # Panics
    ///
    /// If the report file cannot be written.
    pub fn finish(&self, report: &mut BenchReport) {
        report.set_meta("threads", pasta_par::threads().to_string());
        report.set_meta("host", format!("\"{}\"", host_cpu()));
        let path = self.path(&report.bench);
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("write bench report {path}: {e}"));
        println!("wrote {path}");
        let name = &report.bench;
        for (id, backend, factor) in report.speedups() {
            println!("speedup [{name}] {id} ({backend}): {factor:.2}x");
        }
        for (id, factor) in report.backend_speedups() {
            println!("avx2-vs-scalar [{name}] {id}: {factor:.2}x");
        }
    }
}

/// The host CPU model (`model name` in `/proc/cpuinfo`), or `"unknown"`,
/// with the characters that would need JSON escaping dropped.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn parse(args: &[&str]) -> Result<BenchOptions, String> {
        BenchOptions::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn options_parse_with_documented_defaults() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.phase, Phase::After);
        assert!(!defaults.quick);
        assert_eq!(defaults.out_dir, ".");
        assert_eq!(defaults.timing(), Timing::FULL);
        let set = parse(&["--phase", "before", "--quick", "--out-dir", "bench-out"]).unwrap();
        assert_eq!(
            set,
            BenchOptions {
                phase: Phase::Before,
                quick: true,
                out_dir: "bench-out".to_string(),
            }
        );
        assert_eq!(set.timing(), Timing::QUICK);
    }

    #[test]
    fn options_reject_bad_arguments() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--phase", "sideways"])
            .unwrap_err()
            .contains("sideways"));
        assert!(parse(&["--phase"]).is_err());
        assert!(parse(&["--out-dir"]).is_err());
    }

    #[test]
    fn timer_runs_one_warm_up_then_reps_batches() {
        // A zero window sizes every batch at one call.
        let mut calls = 0u128;
        let ns = Timing {
            reps: 3,
            window: Duration::ZERO,
        }
        .ns_per_call(|| calls = black_box(calls + 1));
        assert_eq!(calls, 1 + 3);
        assert!(ns.is_finite() && ns > 0.0, "{ns}");

        // A window far past any call caps every batch at MAX_BATCH.
        let mut calls = 0u128;
        let ns = Timing {
            reps: 2,
            window: Duration::from_secs(86_400 * 365),
        }
        .ns_per_call(|| calls = black_box(calls + 1));
        assert_eq!(calls, 1 + 2 * MAX_BATCH);
        assert!(ns.is_finite() && ns > 0.0, "{ns}");

        // A 5 ms warm-up against a 50 ms window: equal batches of at
        // most ten calls each.
        let mut calls = 0u128;
        Timing {
            reps: 2,
            window: Duration::from_millis(50),
        }
        .ns_per_call(|| {
            if calls == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            calls += 1;
        });
        let timed = calls - 1;
        assert!(timed.is_multiple_of(2) && (2..=20).contains(&timed), "{calls}");
    }

    #[test]
    fn finish_stamps_threads_and_host_and_open_merges_before_rows() {
        let dir = std::env::temp_dir().join(format!("pasta-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let before = BenchOptions {
            phase: Phase::Before,
            quick: true,
            out_dir: dir.to_string_lossy().into_owned(),
        };
        let mut r = before.open("probe", "harness probe");
        assert!(r.entries.is_empty());
        before.record(&mut r, "a", 100.0);
        before.finish(&mut r);
        let json = std::fs::read_to_string(dir.join("BENCH_probe.json")).unwrap();
        assert!(json.contains("\"threads\": "), "{json}");
        assert!(json.contains("\"host\": \""), "{json}");
        // The meta lines are not mistaken for measurement entries.
        assert_eq!(BenchReport::parse_entries(&json), r.entries);

        // The after phase carries the committed before row forward.
        let after = BenchOptions {
            phase: Phase::After,
            ..before
        };
        let mut r = after.open("probe", "harness probe");
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].phase, "before");
        after.record(&mut r, "a", 50.0);
        assert_eq!(r.speedups().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bench_report_roundtrips_through_json() {
        let mut r = BenchReport::new("ntt", "forward+inverse");
        r.push_backend("ntt/n=1024", "before", "scalar", 1234.5);
        r.push_backend("ntt/n=1024", "after", "scalar", 400.0);
        r.push_backend("ntt/n=4096", "before", "scalar", 9000.0);
        let json = r.to_json();
        let parsed = BenchReport::parse_entries(&json);
        assert_eq!(parsed, r.entries);
        assert!(json.contains("\"factor\": 3.09"), "{json}");
    }

    #[test]
    fn bench_report_push_replaces_and_merges() {
        let mut old = BenchReport::new("x", "");
        old.push_backend("a", "before", "scalar", 100.0);
        old.push_backend("a", "after", "scalar", 50.0);
        let mut fresh = BenchReport::new("x", "");
        fresh.push_backend("a", "after", "scalar", 25.0);
        fresh.merge_phase_from(&old.to_json(), "before");
        assert_eq!(fresh.entries.len(), 2);
        assert_eq!(
            fresh.speedups(),
            vec![("a".to_string(), "scalar".to_string(), 4.0)]
        );
        // Re-pushing the same (id, phase, backend) replaces.
        fresh.push_backend("a", "after", "scalar", 20.0);
        assert_eq!(
            fresh.entries.iter().filter(|e| e.phase == "after").count(),
            1
        );
    }

    #[test]
    fn backend_dimension_defaults_and_speedups() {
        // A report predating the backend dimension parses as scalar.
        let legacy = "{\"id\": \"a\", \"phase\": \"before\", \"ns\": 100.0}";
        let parsed = BenchReport::parse_entries(legacy);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].backend, "scalar");

        // An avx2 `after` with only a scalar `before` pairs with it
        // (the fallback trajectory), and after-scalar vs after-avx2
        // shows up in the backend_speedup section.
        let mut r = BenchReport::new("x", "");
        r.push_backend("a", "before", "scalar", 100.0);
        r.push_backend("a", "after", "scalar", 40.0);
        r.push_backend("a", "after", "avx2", 20.0);
        assert_eq!(
            r.speedups(),
            vec![
                ("a".to_string(), "scalar".to_string(), 2.5),
                ("a".to_string(), "avx2".to_string(), 5.0),
            ]
        );
        assert_eq!(r.backend_speedups(), vec![("a".to_string(), 2.0)]);
        let json = r.to_json();
        assert!(json.contains("\"backend\": \"avx2\""), "{json}");
        assert!(json.contains("\"backend_speedup\""), "{json}");
        // push() stamps the live backend label — one of the two.
        let mut live = BenchReport::new("y", "");
        live.push("b", "after", 1.0);
        assert!(["scalar", "avx2"].contains(&live.entries[0].backend.as_str()));
    }

    #[test]
    fn meta_renders_and_does_not_confuse_entry_parsing() {
        let mut r = BenchReport::new("x", "");
        r.set_meta("spawn_events", "4");
        r.set_meta("warm_allocs", "0");
        r.set_meta("spawn_events", "8"); // replaces in place
        r.push_backend("a", "after", "scalar", 10.0);
        let json = r.to_json();
        assert!(json.contains("\"meta\": {"), "{json}");
        assert!(json.contains("\"spawn_events\": 8,"), "{json}");
        assert!(json.contains("\"warm_allocs\": 0\n"), "{json}");
        // Meta lines are not mistaken for measurement entries.
        assert_eq!(BenchReport::parse_entries(&json).len(), 1);
        // A report with no meta renders none.
        assert!(!BenchReport::new("y", "").to_json().contains("\"meta\""));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a much longer name", "123456"]);
        let s = t.render();
        assert!(s.contains("| name "));
        assert!(s.contains("| a much longer name | 123456 |"));
        let widths: Vec<usize> = s.lines().map(str::len).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines equal width:\n{s}"
        );
    }

    #[test]
    fn row_padding() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["only one"]);
        assert!(t.render().contains("only one"));
    }

    #[test]
    fn log_bar_monotone() {
        let short = log_bar(10.0, 10_000.0, 40).chars().count();
        let long = log_bar(1_000.0, 10_000.0, 40).chars().count();
        assert!(long > short);
        assert!(log_bar(10_000.0, 10_000.0, 40).chars().count() <= 40);
        assert_eq!(log_bar(0.0, 100.0, 40), "");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(12_345.6), "12346");
        assert_eq!(fmt_f64(21.24), "21.2");
        assert_eq!(fmt_f64(1.59), "1.59");
    }

    #[test]
    fn paper_vs_measured_shows_deviation() {
        let s = paper_vs_measured(100.0, 103.0);
        assert!(s.contains("+3.0%"), "{s}");
    }
}
