//! `suite-cold` and `suite-warm`: whole-suite passes through
//! `accsat::optimize_suite`, and their traced replay.

use crate::check::{compiler_models, simulated_ms, suite_outputs_agree, valve_fired};
use crate::layers::PassTimes;
use crate::replay::{decision, Counts, KernelOutcome, Replay};
use crate::stats::{geomean, median, windowed_tails};
use crate::{peak_rss_mb, Args, Report};
use accsat::benchmarks::Benchmark;
use accsat::cache::{CacheLevel, CacheStats, StageCache};
use accsat::ir::{parse_program, print_program, Program};
use accsat::{optimize_suite, BatchReport, OptStats, ParallelConfig, SaturatorConfig, Variant};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median. A warm set-up
/// fills the cache cold, so it is repeated fewer times.
const COLD_SETUP_REPS: usize = 45;
const WARM_SETUP_REPS: usize = 3;
/// Fewest passes a run times, even past `--seconds`, so the tail
/// percentile (ten passes beyond it) is at least the median.
const MIN_SAMPLES: usize = 20;
/// Passes per window of the tail: each window's tail leaves ten passes
/// beyond it (p90 of 100), and the run's tail is the median over windows.
/// A run of fewer passes (`suite-cold`) is a single window.
const TAIL_WINDOW: usize = 100;
/// Passes before the timed loop, checked but not timed: the process's
/// first passes pay one-off costs (page faults, allocator growth) a
/// long-lived batch or daemon process pays once.
const WARMUP: Duration = Duration::from_secs(1);

/// Everything a suite pass needs, built by set-up.
struct Setup {
    benches: Vec<Benchmark>,
    originals: Vec<Program>,
    config: SaturatorConfig,
    /// The cache directory of `suite-warm`.
    dir: Option<std::path::PathBuf>,
    /// The cold fill of `suite-warm`, which every warm pass must repeat.
    fill: Option<BatchReport>,
}

/// Rule compilation, suite construction and parsing, and for `suite-warm`
/// a cold fill of a fresh cache directory at full width.
fn setup(args: &Args, warm: bool) -> Result<Setup, String> {
    let benches = accsat::benchmarks::all_benchmarks();
    let config = SaturatorConfig {
        rules: Arc::new(accsat::egraph::all_rules()),
        extraction_node_budget: 60_000,
        ..SaturatorConfig::default()
    };
    let originals = benches
        .iter()
        .map(|b| parse_program(&b.acc_source).map_err(|e| format!("{}: {e}", b.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut s = Setup { benches, originals, config, dir: None, fill: None };
    if warm {
        let dir = args.work.join("cache");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StageCache::with_dir(&dir).map_err(|e| format!("cache dir: {e}"))?;
        let cfg = SaturatorConfig { cache: Some(Arc::new(cache)), ..s.config.clone() };
        s.fill = Some(optimize_suite(&s.benches, Variant::AccSat, &cfg, &width(args.nproc))?);
        s.dir = Some(dir);
    }
    Ok(s)
}

fn width(threads: usize) -> ParallelConfig {
    ParallelConfig { threads, kernel_deadline: None, shard: None }
}

/// Compare a pass with the reference report, kernel by kernel, counting
/// every failed kernel with the reason.
fn check_pass(
    pass: &BatchReport,
    reference: &BatchReport,
    setup: &Setup,
    warm: bool,
    report: &mut Report,
) {
    for (b, r) in pass.benchmarks.iter().zip(&reference.benchmarks) {
        let kernels: Vec<&OptStats> = b.kernel_stats().collect();
        let want: Vec<&OptStats> = r.kernel_stats().collect();
        let mut why = Vec::new();
        if b.optimized_source != r.optimized_source {
            why.push("optimized source differs from the reference".to_string());
        }
        if kernels.len() != want.len()
            || kernels.iter().zip(&want).any(|(a, w)| decision(a) != decision(w))
        {
            why.push("kernel cost/winner/explored/proof differ from the reference".into());
        }
        for s in &kernels {
            if valve_fired(s, &setup.config) {
                why.push(format!("{}: a wall-clock valve fired", s.function));
            }
            if warm && s.cache_level != CacheLevel::Selected {
                why.push(format!(
                    "{}: cache level {}, not selected",
                    s.function,
                    s.cache_level.label()
                ));
            }
        }
        if !why.is_empty() {
            report
                .fail(kernels.len().max(1) as u64, format!("{}: {}", b.benchmark, why.join("; ")));
        }
    }
}

/// Interpreter oracle and simulated speed-up over the reference outputs.
/// Counts each kernel of a benchmark that fails once, and returns that
/// count with the speed-up.
fn check_outputs(
    optimized: &[String],
    setup: &Setup,
    seed: u64,
    report: &mut Report,
) -> (u64, f64) {
    let mut failed = 0;
    let mut speedups = Vec::new();
    for ((bench, original), text) in setup.benches.iter().zip(&setup.originals).zip(optimized) {
        let kernels = original.functions.len() as u64;
        let opt = match parse_program(text) {
            Ok(p) => p,
            Err(e) => {
                report
                    .fail(kernels, format!("{}: optimized source does not parse: {e}", bench.name));
                failed += kernels;
                continue;
            }
        };
        let checked = catch_unwind(AssertUnwindSafe(|| {
            suite_outputs_agree(
                bench,
                original,
                &opt,
                seed ^ accsat::ir::fnv1a(bench.name.as_bytes()),
            )
        }));
        match checked {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                report.fail(kernels, format!("{}: interpreter: {e}", bench.name));
                failed += kernels;
            }
            Err(_) => {
                report.fail(kernels, format!("{}: interpreter panicked", bench.name));
                failed += kernels;
            }
        }
        let bindings = bench.bindings_map();
        for cm in compiler_models() {
            match (simulated_ms(original, &cm, &bindings), simulated_ms(&opt, &cm, &bindings)) {
                (Ok(o), Ok(a)) if o > 0.0 && a > 0.0 => speedups.push(o / a),
                _ => report.notes.push(format!(
                    "{} under {}: not simulated",
                    bench.name,
                    cm.compiler.name()
                )),
            }
        }
    }
    report.notes.push(format!(
        "sim_speedup_geomean over {} benchmark x compiler pairs (NVHPC, GCC; OpenACC)",
        speedups.len()
    ));
    (failed, geomean(&speedups))
}

/// Run `suite-cold` (`warm == false`) or `suite-warm`.
pub fn run(args: &Args, warm: bool) -> Result<Report, String> {
    let reps = if warm { WARM_SETUP_REPS } else { COLD_SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_state = None;
    for _ in 0..reps {
        let t = Instant::now();
        let s = setup(args, warm)?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_state = Some(s);
    }
    let setup = setup_state.expect("at least one set-up");
    if args.trace {
        traced(args, &setup)
    } else {
        end_to_end(args, warm, &setup, median(&setup_s))
    }
}

/// One pass through the public API; a warm pass opens its cache first.
/// Returns the report and the pass's cache counters.
fn public_pass(setup: &Setup, threads: usize) -> Result<(BatchReport, Option<CacheStats>), String> {
    let mut cfg = setup.config.clone();
    if let Some(dir) = &setup.dir {
        cfg.cache = Some(Arc::new(StageCache::with_dir(dir).map_err(|e| format!("cache: {e}"))?));
    }
    let pass = catch_unwind(AssertUnwindSafe(|| {
        optimize_suite(&setup.benches, Variant::AccSat, &cfg, &width(threads))
    }))
    .unwrap_or_else(|_| Err("optimize_suite panicked".into()))?;
    Ok((pass, cfg.cache.map(|c| c.stats())))
}

fn end_to_end(args: &Args, warm: bool, setup: &Setup, setup_s: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut reference = setup.fill.clone();
    let expected = setup.originals.iter().map(|p| p.functions.len() as u64).sum::<u64>();
    let mut latencies = Vec::new();
    let mut kernels = 0u64;
    let mut passes = 0u64;
    let mut start = Instant::now();
    let mut warming = true;
    while warming || start.elapsed() < args.seconds || latencies.len() < MIN_SAMPLES {
        if warming && start.elapsed() >= WARMUP {
            warming = false;
            start = Instant::now();
        }
        let t = Instant::now();
        let pass = public_pass(setup, args.nproc);
        if !warming {
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
        }
        passes += 1;
        let pass = match pass {
            Ok((p, _)) => p,
            Err(e) => {
                report.attempted += expected;
                report.fail(expected, format!("pass {passes}: {e}"));
                if reference.is_none() && passes >= 3 {
                    break;
                }
                continue;
            }
        };
        let n = pass.total_kernels() as u64;
        if !warming {
            kernels += n;
        }
        report.attempted += n;
        // the first cold pass is the reference the others must repeat
        let reference = reference.get_or_insert_with(|| pass.clone());
        check_pass(&pass, reference, setup, warm, &mut report);
    }
    let rss = peak_rss_mb();
    let Some(reference) = reference else {
        return Err("no pass completed".into());
    };
    let texts: Vec<String> =
        reference.benchmarks.iter().map(|b| b.optimized_source.clone()).collect();
    let (bad_kernels, speedup) = check_outputs(&texts, setup, args.seed, &mut report);
    // the reference is what every pass produced, so every pass failed them
    report.failed += bad_kernels * passes.saturating_sub(1);

    let wall: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.notes.push(format!(
        "{} timed passes (after {} warm-up) of {} kernels; latency samples are whole passes",
        latencies.len(),
        passes as usize - latencies.len(),
        reference.total_kernels()
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("kernels_per_s", kernels as f64 / wall, "1/s");
    report.metric("latency_p50_ms", median(&latencies), "ms");
    let tails = windowed_tails(&latencies, TAIL_WINDOW, 10)
        .expect("MIN_SAMPLES exceeds the tail minimum");
    let t = tails[0];
    report.notes.push(format!(
        "latency_tail_ms is the median over {} windows of each window's p{} ({} beyond of {} \
         samples)",
        tails.len(),
        t.pct,
        t.beyond,
        t.count
    ));
    report.metric(
        "latency_tail_ms",
        median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        "ms",
    );
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("extracted_cost", reference.total_cost() as f64, "cost");
    report.metric("bound_gap", reference.total_bound_gap() as f64, "cost");
    report.metric("sim_speedup_geomean", speedup, "x");
    report.add_ok_frac();
    Ok(report)
}

/// What one traced replay pass produced.
struct ReplayPass {
    texts: Vec<String>,
    outcomes: Vec<Vec<KernelOutcome>>,
    counts: Counts,
    times: PassTimes,
    cache: Option<CacheStats>,
}

/// One traced replay pass over the suite: parse, optimize every function
/// layer by layer, print — what `optimize_suite` does on one worker.
fn replay_pass(setup: &Setup) -> Result<ReplayPass, String> {
    let cache = match &setup.dir {
        Some(dir) => Some(StageCache::with_dir(dir).map_err(|e| format!("cache: {e}"))?),
        None => None,
    };
    let mut rp = Replay::new(&setup.config, cache.as_ref());
    let mut texts = Vec::with_capacity(setup.benches.len());
    let mut outcomes = Vec::with_capacity(setup.benches.len());
    rp.rec.open("bench.pass");
    for b in &setup.benches {
        let prog = rp.rec.span("ir.parse", || parse_program(&b.acc_source));
        let prog = prog.map_err(|e| format!("{}: {e}", b.name))?;
        let (out, ks) = rp.program(&prog, Variant::AccSat)?;
        texts.push(rp.rec.span("ir.print", || print_program(&out)));
        outcomes.push(ks);
    }
    rp.rec.close();
    let times = rp.rec.self_times().into_iter().map(|(k, d)| (k, d.as_secs_f64() * 1e3)).collect();
    Ok(ReplayPass { texts, outcomes, counts: rp.counts, times, cache: cache.map(|c| c.stats()) })
}

fn traced(args: &Args, setup: &Setup) -> Result<Report, String> {
    let mut report = Report::default();
    let mut times = Vec::new();
    let (mut public_walls, mut replay_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    let mut pairs = 0usize;
    // start no pair that would end past `--seconds`, judging by the last
    let mut pair_time = Duration::ZERO;
    while pairs == 0 || start.elapsed() + pair_time < args.seconds {
        let pair_start = Instant::now();
        // alternate which side runs first, so drift favours neither
        let (mut public, mut replayed) = (None, None);
        for side in [pairs % 2, 1 - pairs % 2] {
            let t = Instant::now();
            if side == 0 {
                public = Some(public_pass(setup, 1)?);
                public_walls.push(t.elapsed().as_secs_f64());
            } else {
                replayed = Some(
                    catch_unwind(AssertUnwindSafe(|| replay_pass(setup)))
                        .unwrap_or_else(|_| Err("replay panicked".into()))?,
                );
                replay_walls.push(t.elapsed().as_secs_f64());
            }
        }
        pairs += 1;
        pair_time = pair_start.elapsed();
        let (public, public_cache) = public.expect("public side ran");
        let rp = replayed.expect("replay side ran");
        report.attempted += 2 * public.total_kernels() as u64;
        decomposition_check(&public, &rp, setup, &mut report);
        if public_cache != rp.cache {
            report.fail(
                public.total_kernels() as u64,
                format!("cache counters differ: public {public_cache:?}, replay {:?}", rp.cache),
            );
        }
        times.push(rp.times.clone());
        last = Some(rp);
    }
    let rp = last.expect("at least one pair");
    check_outputs(&rp.texts, setup, args.seed, &mut report);
    report.notes.push(format!(
        "{pairs} public/replay pass pairs on one thread; per-layer times are per pass"
    ));
    let overhead = median(&replay_walls) / median(&public_walls) - 1.0;
    crate::layers::emit(&mut report, &times, &rp.counts, rp.cache, overhead);
    Ok(report)
}

/// The replay must reproduce the public pipeline kernel by kernel: same
/// code, cost, winner, explored count, proof and bound; and no valve may
/// have fired.
fn decomposition_check(public: &BatchReport, rp: &ReplayPass, setup: &Setup, report: &mut Report) {
    for ((b, text), ks) in public.benchmarks.iter().zip(&rp.texts).zip(&rp.outcomes) {
        let stats: Vec<&OptStats> = b.kernel_stats().collect();
        let mut why = Vec::new();
        if &b.optimized_source != text {
            why.push("replayed code differs from the public pipeline".to_string());
        }
        if stats.len() != ks.len() {
            why.push(format!("{} kernels replayed, {} public", ks.len(), stats.len()));
        }
        for (s, k) in stats.iter().zip(ks) {
            if decision(s) != k.decision() {
                why.push(format!(
                    "{}: public {:?}, replay {:?}",
                    s.function,
                    decision(s),
                    k.decision()
                ));
            }
            if k.valve || valve_fired(s, &setup.config) {
                why.push(format!("{}: a wall-clock valve fired", s.function));
            }
        }
        if !why.is_empty() {
            report.fail(
                2 * stats.len().max(1) as u64,
                format!("{}: {}", b.benchmark, why.join("; ")),
            );
        }
    }
}
