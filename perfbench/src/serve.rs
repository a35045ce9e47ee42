//! `serve-stream`: clients streaming generated kernels at
//! `accsat::serve::run_session`, one session per connection, all sessions
//! sharing one in-memory stage cache; and the traced replay of a block of
//! that stream.
//!
//! The run is a series of rounds until `--seconds` have passed. Every
//! round starts a fresh cache and fresh sessions (a daemon restart) and
//! sends each client's whole request plan, so every round does the same
//! work. The kernels that miss come from one fixed generator stream
//! (kernel `k` is `genkern` case `k` of campaign `STREAM_SEED`), which the
//! clients draw from a shared counter: per-kernel optimization time spans
//! four orders of magnitude, and kernels drawn afresh per seed, a stream
//! cut off at a deadline, or one split between clients in a fixed way
//! would move the throughput by more than any bound. The seed draws which
//! requests repeat which earlier kernel, and the interpreter inputs of the
//! output check.

use crate::check::{compiler_models, kernel_outputs_agree, simulated_ms, valve_fired};
use crate::layers::PassTimes;
use crate::replay::{decision, Decision, KernelOutcome, Replay};
use crate::stats::{geomean, median, tail};
use crate::{peak_rss_mb, Args, Report};
use accsat::benchmarks::genkern::{generate_kernel, GenConfig, GeneratedKernel, SplitMix64};
use accsat::cache::StageCache;
use accsat::egraph::{Runner, ThreadBudget};
use accsat::extract::SearchContext;
use accsat::ir::{parse_program, Program};
use accsat::serve::{optimize_source, run_session, ServeConfig};
use accsat::{OptStats, SaturatorConfig, Variant};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Generator campaign of the kernels that miss.
const STREAM_SEED: u64 = 1;
/// Requests per client per round: enough fresh kernels that the shared
/// cache, 512 entries per level, evicts.
const ROUND_REQUESTS: usize = 750;
/// Of every five requests, the ones at these positions are fresh kernels;
/// the other three repeat. With repeats a clear majority the median request
/// is a cache hit whatever the timing, rather than sitting on the gap
/// between hits and misses.
const FRESH_SLOTS: [usize; 2] = [0, 2];
/// Of the repeats, percent that name the other client's latest kernel.
/// Naming one still in flight would park the client for the rest of it,
/// and a random moment mostly falls inside a heavy kernel.
const PARTNER_PCT: u64 = 10;
/// Other repeats draw from this many of the client's latest kernels.
const RECENT: u64 = 64;
/// The first distinct kernels of the stream carry the quality metrics.
const QUALITY_KERNELS: u32 = 256;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Seed of generator case `index` of campaign `campaign`, as `accsat fuzz`
/// derives it.
fn case_seed(campaign: u64, index: u64) -> u64 {
    SplitMix64::new(campaign ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// What one request of a plan names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The next kernel of the stream that no request has named yet.
    Fresh,
    /// The client's own fresh kernel this many back (0 is the latest).
    Own(u32),
    /// The latest fresh kernel another client has had answered: a repeat
    /// of a key another session claimed, which the cache counts as
    /// coalesced.
    Partner,
}

/// Everything the clients need, built by set-up.
struct Setup {
    config: SaturatorConfig,
    /// Per client, what each request names.
    plans: Vec<Vec<Slot>>,
    /// Generated kernel `k` at index `k`.
    kernels: Vec<GeneratedKernel>,
}

/// The request plan of one client: two requests in five are fresh kernels,
/// the others repeat a recent kernel of the client's own or the other
/// client's latest, as the seed draws.
fn plan(seed: u64, c: usize, clients: usize) -> Vec<Slot> {
    let mut rng = SplitMix64::new(case_seed(seed, c as u64 + 1));
    (0..ROUND_REQUESTS)
        .map(|i| {
            if FRESH_SLOTS.contains(&(i % 5)) {
                Slot::Fresh
            } else if clients > 1 && rng.chance(PARTNER_PCT) {
                Slot::Partner
            } else {
                Slot::Own(rng.below(RECENT) as u32)
            }
        })
        .collect()
}

/// Fresh kernels of one round: clients draw the next one from a shared
/// counter, so the round's fresh kernels are always the stream's first
/// `fresh_per_round` and the clients share them out as they go.
struct Stream {
    next: AtomicU32,
    /// Each client's latest answered fresh kernel (`u32::MAX` before its
    /// first answer).
    answered: Vec<AtomicU32>,
}

impl Stream {
    fn new(clients: usize) -> Stream {
        Stream {
            next: AtomicU32::new(0),
            answered: (0..clients).map(|_| AtomicU32::new(u32::MAX)).collect(),
        }
    }

    /// The kernel client `c` sends for `slot`, given its fresh kernels so
    /// far. A plan starts with a fresh slot, so `own` is never empty when a
    /// repeat is resolved.
    fn resolve(&self, c: usize, slot: Slot, own: &mut Vec<u32>) -> u32 {
        let recent =
            |own: &[u32], back: u32| own[own.len() - 1 - (back as usize).min(own.len() - 1)];
        match slot {
            Slot::Fresh => {
                // Relaxed: the counter only hands out indices; the kernel
                // sources were built before the clients started
                let k = self.next.fetch_add(1, Ordering::Relaxed);
                own.push(k);
                k
            }
            Slot::Own(back) => recent(own, back),
            Slot::Partner => {
                let other = (c + 1) % self.answered.len();
                match self.answered[other].load(Ordering::Relaxed) {
                    u32::MAX => recent(own, 0),
                    k => k,
                }
            }
        }
    }

    /// Client `c` had its fresh kernel `k` answered.
    fn mark_answered(&self, c: usize, k: u32) {
        self.answered[c].store(k, Ordering::Relaxed);
    }
}

/// Fresh kernels per round: the stream's first this many.
fn fresh_per_round(clients: usize) -> usize {
    clients * ROUND_REQUESTS / 5 * FRESH_SLOTS.len()
}

fn setup(args: &Args, clients: usize) -> Setup {
    let config = SaturatorConfig {
        rules: Arc::new(accsat::egraph::all_rules()),
        extraction_node_budget: 60_000,
        ..SaturatorConfig::default()
    };
    let plans = (0..clients).map(|c| plan(args.seed, c, clients)).collect();
    let gen = GenConfig::default();
    let count = fresh_per_round(clients).max(QUALITY_KERNELS as usize) as u64;
    let kernels = (0..count).map(|k| generate_kernel(case_seed(STREAM_SEED, k), &gen)).collect();
    Setup { config, plans, kernels }
}

fn request(id: &str, src: &str) -> String {
    format!("optimize id={id} variant=accsat bytes={}\n{src}", src.len())
}

/// One request as a client saw it.
struct Sent {
    kernel: u32,
    latency: Duration,
    response: String,
}

/// Drive one session over its own connection through the whole plan,
/// closed loop; then `quit`. Returns what was sent and how long it took.
fn client(
    c: usize,
    setup: &Setup,
    stream: &Stream,
    cfg: &ServeConfig,
    start: &Barrier,
) -> Result<(Vec<Sent>, Duration), String> {
    let plan = &setup.plans[c];
    let mut own = Vec::new();
    let io = |e: std::io::Error| format!("client {c}: {e}");
    let conn = UnixStream::pair()
        .and_then(|(mine, theirs)| Ok((mine.try_clone()?, mine, theirs.try_clone()?, theirs)));
    // every client reaches the barrier, even one whose connection failed
    start.wait();
    let (mut w, mine, server_in, theirs) = conn.map_err(io)?;
    std::thread::scope(|scope| {
        let server = scope.spawn(move || run_session(BufReader::new(server_in), theirs, cfg));
        let mut r = BufReader::new(mine);
        let mut sent = Vec::with_capacity(plan.len());
        let t0 = Instant::now();
        for (i, &slot) in plan.iter().enumerate() {
            let k = stream.resolve(c, slot, &mut own);
            let msg = request(&format!("{c}-{i}"), &setup.kernels[k as usize].source);
            let t = Instant::now();
            w.write_all(msg.as_bytes()).map_err(io)?;
            let mut response = String::new();
            let n = r.read_line(&mut response).map_err(io)?;
            sent.push(Sent { kernel: k, latency: t.elapsed(), response });
            if slot == Slot::Fresh {
                stream.mark_answered(c, k);
            }
            if n == 0 {
                break; // the session died; the empty response fails the check
            }
        }
        let end = t0.elapsed();
        let _ = w.write_all(b"quit\n");
        let mut bye = String::new();
        let _ = r.read_line(&mut bye);
        drop(w);
        match server.join() {
            Ok(res) => res.map_err(io)?,
            Err(_) => return Err(format!("client {c}: session panicked")),
        }
        Ok((sent, end))
    })
}

/// One round: a fresh shared cache, one session per client, every plan
/// sent in full. Returns every request and the round's wall time.
fn round(setup: &Setup) -> Result<(Vec<Sent>, Duration), String> {
    let cache = Arc::new(StageCache::in_memory());
    let cfg = ServeConfig {
        threads: 1,
        saturator: SaturatorConfig { cache: Some(cache), ..setup.config.clone() },
    };
    let start = Barrier::new(setup.plans.len());
    let stream = Stream::new(setup.plans.len());
    let logs: Vec<Result<(Vec<Sent>, Duration), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..setup.plans.len())
            .map(|c| {
                let (cfg, start, stream) = (&cfg, &start, &stream);
                scope.spawn(move || client(c, setup, stream, cfg, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut sent = Vec::new();
    let mut wall = Duration::ZERO;
    for log in logs {
        let (s, end) = log?;
        sent.extend(s);
        wall = wall.max(end);
    }
    Ok((sent, wall))
}

/// The fields of one `optimize` response.
#[derive(Debug, Clone, PartialEq)]
struct Response {
    kernels: u64,
    cost: u64,
    proven: bool,
    source: String,
}

/// Parse a flat one-line JSON object of strings, numbers and booleans.
fn parse_flat_json(line: &str) -> Option<BTreeMap<String, String>> {
    let mut chars = line.trim().strip_prefix('{')?.strip_suffix('}')?.chars().peekable();
    let mut out = BTreeMap::new();
    let string = |chars: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Option<String> {
        let mut s = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(s),
                '\\' => match chars.next()? {
                    'n' => s.push('\n'),
                    't' => s.push('\t'),
                    'r' => s.push('\r'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                        s.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    c => s.push(c),
                },
                c => s.push(c),
            }
        }
    };
    while chars.peek().is_some() {
        if chars.next()? != '"' {
            return None;
        }
        let key = string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = if chars.peek() == Some(&'"') {
            chars.next();
            string(&mut chars)?
        } else {
            let mut v = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' {
                    break;
                }
                v.push(c);
                chars.next();
            }
            v
        };
        out.insert(key, value);
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    Some(out)
}

fn parse_response(line: &str) -> Result<Response, String> {
    let f = parse_flat_json(line).ok_or_else(|| format!("unparseable response {line:?}"))?;
    let get = |k: &str| f.get(k).cloned().ok_or_else(|| format!("response lacks {k}: {line:?}"));
    if get("status")? != "ok" {
        return Err(format!("error response: {}", line.trim()));
    }
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    Ok(Response {
        kernels: num("kernels")?,
        cost: num("cost")?,
        proven: get("proven")? == "true",
        source: get("source")?,
    })
}

/// The pipeline configuration of one session worker: the shared cache,
/// and no spare threads (each request's saturation and extraction run on
/// its worker alone, as in `accsat serve`).
fn session_config(config: &SaturatorConfig, cache: Arc<StageCache>) -> SaturatorConfig {
    SaturatorConfig {
        cache: Some(cache),
        thread_budget: Some(Arc::new(ThreadBudget::new(0))),
        ..config.clone()
    }
}

/// Optimize `src` cold, as a fresh daemon would.
fn cold(src: &str, config: &SaturatorConfig) -> Result<(String, Vec<OptStats>), String> {
    let cfg = session_config(config, Arc::new(StageCache::in_memory()));
    let (text, stats, _) = optimize_source(src, Variant::AccSat, &cfg)?;
    Ok((text, stats))
}

/// The certified lower bound of a generated kernel's single kernel loop:
/// the LP root bound of its saturated e-graph (`None` unless the program
/// holds exactly one kernel).
fn root_bound(prog: &Program, config: &SaturatorConfig) -> Option<u64> {
    let f = prog.functions.first()?;
    let loops = accsat::ir::innermost_parallel_loops(f);
    let [l] = loops.as_slice() else { return None };
    let mut kernel = accsat::ssa::build_kernel(&l.body);
    Runner::from_shared(config.rules.clone()).with_limits(config.limits).run(&mut kernel.egraph);
    let roots = kernel.extraction_roots();
    Some(SearchContext::build(&kernel.egraph, &config.cost_model).root_lower_bound(&roots))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let clients = args.nproc.clamp(1, 2);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(args, clients);
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(s);
    }
    let setup = state.expect("at least one set-up");
    if args.trace {
        traced(args, &setup)
    } else {
        end_to_end(args, &setup, median(&setup_s))
    }
}

fn end_to_end(args: &Args, setup: &Setup, setup_s: f64) -> Result<Report, String> {
    let mut sent = Vec::new();
    let mut wall = Duration::ZERO;
    let mut rounds = 0;
    // a long-lived daemon's footprint is that of one round; later rounds
    // only add allocator arenas of threads a restart respawns
    let mut rss = 0.0;
    // each round's tail leaves ten round trips beyond it; their median is
    // the run's tail, so the tail's depth does not depend on how many
    // rounds fit in the run
    let mut tails = Vec::new();
    while wall < args.seconds {
        let (s, w) = round(setup)?;
        let latencies: Vec<f64> = s.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
        tails.push(tail(&latencies, 10).ok_or("a round completed 10 requests or fewer")?);
        sent.extend(s);
        wall += w;
        rounds += 1;
        if rounds == 1 {
            rss = peak_rss_mb();
        }
    }

    let mut report = Report { attempted: sent.len() as u64, ..Report::default() };
    let latencies: Vec<f64> = sent.iter().map(|s| s.latency.as_secs_f64() * 1e3).collect();
    let mut by_kernel: BTreeMap<u32, Vec<&Sent>> = BTreeMap::new();
    for s in &sent {
        by_kernel.entry(s.kernel).or_default().push(s);
    }
    let mut kernels_done = 0u64;
    let mut first: BTreeMap<u32, Response> = BTreeMap::new();
    for (&k, reqs) in &by_kernel {
        let parsed: Vec<Result<Response, String>> =
            reqs.iter().map(|s| parse_response(&s.response)).collect();
        kernels_done += parsed.iter().flatten().map(|r| r.kernels).sum::<u64>();
        let n = reqs.len() as u64;
        let verdict = check_kernel(k, &parsed, reqs, setup, args.seed);
        match verdict {
            Ok(r) => {
                first.insert(k, r);
            }
            Err(why) => report.fail(n, format!("kernel {k}: {why}")),
        }
    }

    let (cost, gap, speedup) = quality(setup, &first, &mut report)?;
    let t = tails[0];
    report.notes.push(format!(
        "{rounds} rounds of {} requests from {} clients, {} distinct kernels; latency_tail_ms \
         is the median over rounds of each round's p{} ({} beyond of {} round trips)",
        sent.len() / rounds,
        setup.plans.len(),
        by_kernel.len(),
        t.pct,
        t.beyond,
        t.count
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("kernels_per_s", kernels_done as f64 / wall.as_secs_f64(), "1/s");
    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.metric(
        "latency_tail_ms",
        median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        "ms",
    );
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("extracted_cost", cost as f64, "cost");
    report.metric("bound_gap", gap as f64, "cost");
    report.metric("sim_speedup_geomean", speedup, "x");
    report.add_ok_frac();
    Ok(report)
}

/// Every response for kernel `k` must be `ok` and byte-identical to the
/// others (a hit repeats the cold output exactly); the output must agree
/// with the original under the interpreter; and no wall-clock valve may
/// have fired. A round trip shorter than every valve proves none fired;
/// for a longer one the kernel is replayed cold layer by layer, which must
/// show no valve in any portfolio member and the same output. Returns the
/// kernel's response.
fn check_kernel(
    k: u32,
    parsed: &[Result<Response, String>],
    reqs: &[&Sent],
    setup: &Setup,
    seed: u64,
) -> Result<Response, String> {
    let first = parsed[0].clone()?;
    for p in &parsed[1..] {
        if p.as_ref()? != &first {
            return Err("a repeated request answered differently".into());
        }
    }
    let gk = &setup.kernels[k as usize];
    let original = parse_program(&gk.source).map_err(|e| format!("source: {e}"))?;
    let optimized = parse_program(&first.source).map_err(|e| format!("response: {e}"))?;
    let input_seed = case_seed(seed, u64::from(k));
    catch_unwind(AssertUnwindSafe(|| kernel_outputs_agree(gk, &original, &optimized, input_seed)))
        .unwrap_or_else(|_| Err("interpreter panicked".into()))?;
    let valve = setup.config.extraction_budget.min(setup.config.limits.time_limit);
    if reqs.iter().any(|s| s.latency >= valve) {
        let (text, outcomes) =
            Replay::new(&setup.config, None).source(&gk.source, Variant::AccSat)?;
        if text != first.source || outcomes.iter().any(|o| o.valve) {
            return Err("a slow request may have hit a wall-clock valve".into());
        }
    }
    Ok(first)
}

/// Σ cost and Σ bound gap over the stream's first `QUALITY_KERNELS`
/// kernels, and the geomean simulated speed-up of their outputs over the
/// originals. A kernel whose response failed its check is optimized cold
/// here, so the quality figures always cover the same kernels.
fn quality(
    setup: &Setup,
    served: &BTreeMap<u32, Response>,
    report: &mut Report,
) -> Result<(u64, u64, f64), String> {
    let (mut cost, mut gap) = (0u64, 0u64);
    let mut speedups = Vec::new();
    let mut unsimulated = 0;
    let none = std::collections::HashMap::new();
    for k in 0..QUALITY_KERNELS {
        let src = &setup.kernels[k as usize].source;
        let original = parse_program(src).map_err(|e| format!("kernel {k}: {e}"))?;
        // the gap of an unproven answer is its cost over the LP root bound
        let from_response = served.get(&k).and_then(|r| {
            let bound = if r.proven { r.cost } else { root_bound(&original, &setup.config)? };
            Some((r.source.clone(), r.cost, r.cost - bound))
        });
        let (text, kcost, kgap) = match from_response {
            Some(q) => q,
            None => {
                let (text, stats) = cold(src, &setup.config)?;
                let c = stats.iter().map(|s| s.extracted_cost).sum();
                (text, c, stats.iter().map(OptStats::bound_gap).sum())
            }
        };
        cost += kcost;
        gap += kgap;
        let opt = parse_program(&text).map_err(|e| format!("kernel {k}: {e}"))?;
        for cm in compiler_models() {
            match (simulated_ms(&original, &cm, &none), simulated_ms(&opt, &cm, &none)) {
                (Ok(o), Ok(a)) if o > 0.0 && a > 0.0 => speedups.push(o / a),
                _ => unsimulated += 1,
            }
        }
    }
    report.notes.push(format!(
        "extracted_cost, bound_gap and sim_speedup_geomean over the stream's first \
         {QUALITY_KERNELS} kernels; {} kernel x compiler pairs simulated, {unsimulated} not",
        speedups.len()
    ));
    Ok((cost, gap, geomean(&speedups)))
}

/// One round's requests on one thread: the clients' plans interleaved.
fn trace_block(setup: &Setup) -> Vec<u32> {
    let stream = Stream::new(setup.plans.len());
    let mut own = vec![Vec::new(); setup.plans.len()];
    (0..ROUND_REQUESTS)
        .flat_map(|i| (0..setup.plans.len()).map(move |c| (i, c)))
        .map(|(i, c)| {
            let k = stream.resolve(c, setup.plans[c][i], &mut own[c]);
            stream.mark_answered(c, *own[c].last().expect("a plan starts fresh"));
            k
        })
        .collect()
}

/// What one public or replayed block produced, per request.
struct BlockRun {
    texts: Vec<String>,
    kernels: Vec<Vec<Decision>>,
    valve: bool,
    cache: accsat::cache::CacheStats,
}

fn public_block(block: &[u32], setup: &Setup) -> Result<BlockRun, String> {
    let cache = Arc::new(StageCache::in_memory());
    let cfg = session_config(&setup.config, cache.clone());
    let (mut texts, mut kernels, mut valve) = (Vec::new(), Vec::new(), false);
    for &k in block {
        let src = &setup.kernels[k as usize].source;
        let (text, stats, _) = optimize_source(src, Variant::AccSat, &cfg)?;
        valve |= stats.iter().any(|s| valve_fired(s, &setup.config));
        texts.push(text);
        kernels.push(stats.iter().map(decision).collect());
    }
    Ok(BlockRun { texts, kernels, valve, cache: cache.stats() })
}

fn replay_block(
    block: &[u32],
    setup: &Setup,
) -> Result<(BlockRun, PassTimes, crate::replay::Counts), String> {
    let cache = StageCache::in_memory();
    let mut rp = Replay::new(&setup.config, Some(&cache));
    let (mut texts, mut kernels, mut valve) = (Vec::new(), Vec::new(), false);
    rp.rec.open("bench.pass");
    for &k in block {
        rp.rec.open("bench.request");
        let (text, ks) = rp.source(&setup.kernels[k as usize].source, Variant::AccSat)?;
        rp.rec.close();
        valve |= ks.iter().any(|o: &KernelOutcome| o.valve);
        texts.push(text);
        kernels.push(ks.iter().map(KernelOutcome::decision).collect());
    }
    rp.rec.close();
    let times = rp.rec.self_times().into_iter().map(|(n, d)| (n, d.as_secs_f64() * 1e3)).collect();
    Ok((BlockRun { texts, kernels, valve, cache: cache.stats() }, times, rp.counts))
}

fn traced(args: &Args, setup: &Setup) -> Result<Report, String> {
    let block = trace_block(setup);
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
        let (mut public, mut replayed) = (None, None);
        for side in [pairs % 2, 1 - pairs % 2] {
            let t = Instant::now();
            if side == 0 {
                public = Some(
                    catch_unwind(AssertUnwindSafe(|| public_block(&block, setup)))
                        .unwrap_or_else(|_| Err("public pipeline panicked".into()))?,
                );
                public_walls.push(t.elapsed().as_secs_f64());
            } else {
                replayed = Some(
                    catch_unwind(AssertUnwindSafe(|| replay_block(&block, setup)))
                        .unwrap_or_else(|_| Err("replay panicked".into()))?,
                );
                replay_walls.push(t.elapsed().as_secs_f64());
            }
        }
        pairs += 1;
        pair_time = pair_start.elapsed();
        let public = public.expect("public side ran");
        let (replayed, pass_times, counts) = replayed.expect("replay side ran");
        report.attempted += 2 * block.len() as u64;
        for (i, &k) in block.iter().enumerate() {
            if public.texts[i] != replayed.texts[i] || public.kernels[i] != replayed.kernels[i] {
                report.fail(2, format!("request {i} (kernel {k}): replay differs from optimize_source: public {:?}, replay {:?}", public.kernels[i], replayed.kernels[i]));
            }
        }
        if public.valve || replayed.valve {
            report.fail(2 * block.len() as u64, "a wall-clock valve fired in the block".into());
        }
        if public.cache != replayed.cache {
            report.fail(
                block.len() as u64,
                format!(
                    "cache counters differ: public {:?}, replay {:?}",
                    public.cache, replayed.cache
                ),
            );
        }
        times.push(pass_times);
        last = Some((replayed, counts));
    }
    let (replayed, counts) = last.expect("at least one pair");
    // interpreter oracle on each distinct kernel of the block
    let mut seen = std::collections::BTreeSet::new();
    for (i, &k) in block.iter().enumerate() {
        if !seen.insert(k) {
            continue;
        }
        let gk = &setup.kernels[k as usize];
        let checked = parse_program(&gk.source)
            .and_then(|o| parse_program(&replayed.texts[i]).map(|p| (o, p)))
            .map_err(|e| format!("{e}"))
            .and_then(|(o, p)| {
                kernel_outputs_agree(gk, &o, &p, case_seed(args.seed, u64::from(k)))
            });
        if let Err(e) = checked {
            report.fail(2, format!("kernel {k}: {e}"));
        }
    }
    report.notes.push(format!(
        "{pairs} public/replay pairs over one round, {} requests ({} distinct kernels), on \
         one thread; per-layer times are per round",
        block.len(),
        seen.len()
    ));
    let overhead = median(&replay_walls) / median(&public_walls) - 1.0;
    crate::layers::emit(&mut report, &times, &counts, Some(replayed.cache), overhead);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_with_escapes() {
        let line = r#"{"id":"0-3","status":"ok","variant":"ACCSAT","cache":"miss","kernels":1,"cost":42,"proven":true,"source":"void f() {\n  x = \"a\\b\";\u0009}\n"}"#;
        let r = parse_response(line).unwrap();
        assert_eq!((r.kernels, r.cost, r.proven), (1, 42, true));
        assert_eq!(r.source, "void f() {\n  x = \"a\\b\";\t}\n");
        let err = r#"{"id":"0-4","status":"error","error":"parse error: x"}"#;
        assert!(parse_response(err).unwrap_err().contains("error response"));
        assert!(parse_response("").is_err());
    }

    #[test]
    fn plans_repeat_three_requests_in_five_as_the_seed_draws() {
        let p = plan(7, 0, 2);
        assert_eq!(p, plan(7, 0, 2));
        assert_ne!(p, plan(8, 0, 2));
        for (i, slot) in p.iter().enumerate() {
            assert_eq!(FRESH_SLOTS.contains(&(i % 5)), *slot == Slot::Fresh, "slot {i}");
        }
        let partners = p.iter().filter(|&&s| s == Slot::Partner).count();
        let repeats = p.len() / 5 * 3;
        assert!(partners * 100 < repeats * (2 * PARTNER_PCT as usize), "{partners} partners");
    }

    #[test]
    fn a_round_takes_the_stream_prefix_and_repeats_only_what_was_sent() {
        let setup = Setup {
            config: SaturatorConfig::default(),
            plans: (0..2).map(|c| plan(3, c, 2)).collect(),
            kernels: Vec::new(),
        };
        let block = trace_block(&setup);
        assert_eq!(block.len(), 2 * ROUND_REQUESTS);
        let mut seen = std::collections::BTreeSet::new();
        let mut fresh = Vec::new();
        for &k in &block {
            if seen.insert(k) {
                fresh.push(k);
            }
        }
        // every kernel is fresh before it repeats, in stream order
        assert_eq!(fresh, (0..fresh_per_round(2) as u32).collect::<Vec<_>>());
    }
}
