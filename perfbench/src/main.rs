//! The repository's benchmark: the ACC Saturator pipeline measured end to
//! end through its public API, and layer by layer by a traced replay.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-cold --seed 1 --seconds 25 --trace 0
//! cargo test --release --manifest-path perfbench/Cargo.toml   # its own arithmetic
//! ```
//!
//! Run it from the repository root. `BENCHMARK.json` names the workloads
//! and metrics and the bound by which each end-to-end metric may worsen.
//!
//! # Workloads
//!
//! All load comes from this one process, with no more workers or clients
//! than cores, and every loop is closed: the next pass or request starts
//! when the previous one has returned.
//!
//! * `suite-cold` — the 19 kernels of `benchmarks::all_benchmarks()`,
//!   variant ACCSAT, extraction node budget 60 000, no cache, one batch
//!   worker per core (`accsat::optimize_suite`). A sample is a pass.
//! * `suite-warm` — the same suite answered from an on-disk `StageCache`
//!   that set-up fills once; every pass opens a fresh `StageCache::with_dir`
//!   over that directory (a daemon restart).
//! * `serve-stream` — one client per core (at most two), each on its own
//!   connection served by `accsat::serve::run_session`, the sessions
//!   sharing one in-memory `StageCache` as `accsat serve --socket` does.
//!   Two requests in five are fresh generated kernels; the rest repeat an
//!   earlier one. A sample is a request's round trip (see [`serve`]).
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — median of several set-ups: rule compilation, suite
//!   parsing, kernel generation, and for `suite-warm` the cold cache fill.
//! * `kernels_per_s` — kernels optimized per second of timed wall time.
//! * `latency_p50_ms`, `latency_tail_ms` — per pass on the suites, per
//!   round trip on `serve-stream`; the tail is the highest percentile (in
//!   steps of 0.1) with at least ten samples beyond it, taken per window
//!   (100 passes on the suites, a round on `serve-stream`) and reported as
//!   the median over windows, printed with the sample count.
//! * `peak_rss_mb` — the process's peak resident set after the timed loop
//!   (after the first round on `serve-stream`).
//! * `extracted_cost`, `bound_gap` — Σ DAG cost and Σ (cost − certified
//!   lower bound): per suite pass, or over the first 256 kernels of the
//!   `serve-stream` stream. Deterministic.
//! * `sim_speedup_geomean` — simulated time of the original over the
//!   optimized code, geomean over kernels × the NVHPC and GCC OpenACC models.
//! * `ok_frac` — operations that passed every check over operations
//!   attempted. (A metric must not read 0, so the failed share,
//!   `failed / attempted` in the result line, is reported as its
//!   complement.)
//!
//! Every output is checked outside the timed window: the interpreter runs
//! the original against the optimized code on seeded inputs, repeated
//! outputs must be byte-identical, and a kernel whose result may have
//! depended on a wall-clock valve counts as failed (see [`check`]).
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A separate run alternates the public pipeline with a traced replay that
//! calls the layers' public functions in the pipeline's order (see
//! [`replay`]), both on one thread, and checks that the two agree kernel by
//! kernel. `_ms` metrics are self times per pass (per round on
//! `serve-stream`), counts are deterministic work, ratios come with their
//! base as a count of its own; `bench.trace_overhead_frac` is the replay's
//! wall time over the public pipeline's, minus one.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! record the seed, the host (`nproc`, commit, `rustc --version`) and the
//! evidence behind each figure. The exit code is 0 only when every check
//! passed.

mod check;
mod layers;
mod replay;
mod serve;
mod spans;
mod stats;
mod suite;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (kernels optimized, or requests sent).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the metrics: bases of ratios,
    /// the tail percentile, failures.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Count `n` failed operations, with the reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.notes.push(format!("FAILED ({n}): {why}"));
    }

    /// Add the share of operations that passed every check. The failure
    /// share itself is `failed / attempted` in the result line; a metric
    /// must never read 0, so the metric is its complement.
    pub fn add_ok_frac(&mut self) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.notes.push(format!(
            "failed_frac {} (failed {} / attempted {})",
            1.0 - ok,
            self.failed,
            self.attempted
        ));
        self.metric("ok_frac", ok, "frac");
    }

    /// The final JSON line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for on-disk caches, inside the working directory.
    pub work: PathBuf,
    /// Cores available to this process.
    pub nproc: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["suite-cold", "suite-warm", "serve-stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: Duration::from_secs(seconds.ok_or("missing --seconds")?.max(1)),
        trace,
        work,
        nproc,
    })
}

/// The commit under test: `git rev-parse HEAD` where the sources are a git
/// checkout, otherwise an FNV-1a fingerprint of the sources the benchmark
/// builds (`Cargo.toml`, `Cargo.lock`, everything under `crates/`).
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    let mut h = accsat::ir::fnv1a(b"perfbench-tree");
    for f in &files {
        h = accsat::ir::fnv1a_mix(h, accsat::ir::fnv1a(f.to_string_lossy().as_bytes()));
        h = accsat::ir::fnv1a_mix(h, accsat::ir::fnv1a(&std::fs::read(f).unwrap_or_default()));
    }
    format!("tree-{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload suite-cold|suite-warm|serve-stream \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} commit={} rustc={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        args.nproc,
        commit(),
        env!("PERFBENCH_RUSTC"),
    );
    let _ = std::fs::remove_dir_all(&args.work);
    let started = std::time::Instant::now();
    let result = match args.workload.as_str() {
        "suite-cold" => suite::run(&args, false),
        "suite-warm" => suite::run(&args, true),
        _ => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    // drop the shared parent too when no other run is using it
    let _ = std::fs::remove_dir(".perfbench-work");
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for n in &report.notes {
        println!("# {n}");
    }
    println!("# set-up, measurement and checks took {:.1} s", started.elapsed().as_secs_f64());
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
    if report.failed > 0 || report.attempted == 0 {
        std::process::exit(1);
    }
}
