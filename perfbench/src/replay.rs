//! The traced replay: the pipeline of `accsat::pipeline`, re-assembled
//! from the layers' public functions and called in the order the pipeline
//! calls them, with a span around every call.
//!
//! The replay must compute exactly what the public pipeline computes —
//! same code, cost, winner and explored count, and the same cache probes —
//! so that its per-layer times describe the program the end-to-end run
//! measured. The caller checks that for every kernel.
//!
//! Where the pipeline skips a layer (a cache hit skips saturation and
//! extraction; a run without a cache never fills one), the replay records
//! an empty span for it at the end of the kernel. Such a layer reads near
//! zero on that workload, never exactly zero.

use crate::check::full_search_budget;
use crate::spans::Recorder;
use crate::stats::Ratio;
use accsat::cache::{sat_stage_key, sel_stage_key, SatEntry, SelEntry, StageCache};
use accsat::codegen::{generate, CodegenOptions, TypeMap};
use accsat::egraph::{EGraph, Runner, StopReason};
use accsat::extract::{
    climb, extract_exact_in, extract_greedy, intern_strategy, marginal_greedy, ClassOrder,
    SearchContext, SearchOptions, Selection,
};
use accsat::ir::{Block, Function, Program};
use accsat::{OptStats, SaturatorConfig, Variant};
use std::sync::Arc;

/// The portfolio's strategy table, in priority order; a portfolio of
/// width `n` runs the first `n` entries (`accsat_extract::portfolio`).
const STRATEGIES: &[(&str, ClassOrder, bool)] = &[
    ("bnb-bestfirst", ClassOrder::BestFirst, false),
    ("bnb-heaviest", ClassOrder::HeaviestFirst, false),
    ("bnb-bestfirst-shared", ClassOrder::BestFirst, true),
    ("bnb-lifo", ClassOrder::Lifo, false),
];

/// The layers a kernel can call, as span names.
const KERNEL_LAYERS: &[&str] = &[
    "cache.get",
    "egraph.deserialize",
    "extract.selection_deserialize",
    "ssa.build",
    "egraph.saturate",
    "egraph.serialize",
    "cache.put",
    "extract.greedy",
    "extract.context",
    "extract.refine",
    "extract.bnb",
    "codegen.generate",
];

/// Deterministic work counted by the replay, per layer.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Saturation iterations run.
    pub iterations: u64,
    /// E-nodes of every e-graph the replay saturated, after saturation.
    pub nodes: u64,
    /// Rule matches found while saturating.
    pub matches: u64,
    /// Rewrites applied while saturating.
    pub applied: u64,
    /// Kernels proven optimal by their incumbent meeting the LP root
    /// bound, over kernels that entered extraction.
    pub shortcircuit: Ratio,
    /// Refinement runs that strictly improved the greedy incumbent, over
    /// refinement runs.
    pub refine_gain: Ratio,
    /// Branch-and-bound strategy runs that beat their incumbent, over
    /// strategy runs.
    pub bnb_gain: Ratio,
    /// Search-tree nodes explored by branch and bound.
    pub bnb_explored: u64,
}

/// What the replay decided for one kernel: the fields the decomposition
/// check compares with the public pipeline's `OptStats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutcome {
    pub cost: u64,
    pub winner: &'static str,
    pub explored: u64,
    pub proven: bool,
    pub lower_bound: u64,
    /// A wall-clock valve fired: saturation hit its time limit, or a
    /// branch-and-bound member neither proved optimality nor used up its
    /// node budget.
    pub valve: bool,
}

/// The per-kernel decision two runs of one program must agree on: cost,
/// winning portfolio member, explored nodes, proof, lower bound.
pub type Decision = (u64, &'static str, u64, bool, u64);

/// The decision the public pipeline reported for a kernel.
pub fn decision(s: &OptStats) -> Decision {
    (
        s.extracted_cost,
        s.extraction_winner,
        s.extraction_explored,
        s.extraction_proven,
        s.extraction_lower_bound,
    )
}

impl KernelOutcome {
    /// The decision the replay took for the kernel.
    pub fn decision(&self) -> Decision {
        (self.cost, self.winner, self.explored, self.proven, self.lower_bound)
    }
}

/// One replay: the configuration, the optional cache, and what the spans
/// and counters collect.
pub struct Replay<'a> {
    pub config: &'a SaturatorConfig,
    pub cache: Option<&'a StageCache>,
    pub rec: Recorder,
    pub counts: Counts,
}

impl<'a> Replay<'a> {
    /// A replay with an empty recorder.
    pub fn new(config: &'a SaturatorConfig, cache: Option<&'a StageCache>) -> Replay<'a> {
        Replay { config, cache, rec: Recorder::default(), counts: Counts::default() }
    }

    /// `serve::optimize_source`: parse (through the parsed-program cache
    /// when there is one), optimize every function, print.
    pub fn source(
        &mut self,
        src: &str,
        variant: Variant,
    ) -> Result<(String, Vec<KernelOutcome>), String> {
        let src_hash = accsat::ir::fnv1a(src.as_bytes());
        let cache = self.cache;
        let hit = self.rec.span("cache.get", || cache.and_then(|c| c.get_parsed(src_hash)));
        let prog = match hit {
            Some(p) => p,
            None => {
                let p = self.rec.span("ir.parse", || accsat::ir::parse_program(src));
                let p = Arc::new(p.map_err(|e| format!("parse error: {e}"))?);
                if let Some(c) = cache {
                    self.rec.span("cache.put", || c.put_parsed(src_hash, p.clone()));
                }
                p
            }
        };
        let (out, kernels) = self.program(&prog, variant)?;
        let text = self.rec.span("ir.print", || accsat::ir::print_program(&out));
        Ok((text, kernels))
    }

    /// `pipeline::optimize_program_with`.
    pub fn program(
        &mut self,
        prog: &Program,
        variant: Variant,
    ) -> Result<(Program, Vec<KernelOutcome>), String> {
        let mut functions = Vec::with_capacity(prog.functions.len());
        let mut kernels = Vec::new();
        for f in &prog.functions {
            let (nf, ks) = self.function(f, variant)?;
            functions.push(nf);
            kernels.extend(ks);
        }
        Ok((Program { functions }, kernels))
    }

    /// `pipeline::optimize_function`: every innermost parallel loop is a
    /// kernel.
    pub fn function(
        &mut self,
        f: &Function,
        variant: Variant,
    ) -> Result<(Function, Vec<KernelOutcome>), String> {
        let tm = TypeMap::from_function(f);
        let bodies: Vec<Block> =
            accsat::ir::innermost_parallel_loops(f).into_iter().map(|l| l.body.clone()).collect();
        let mut new_bodies = Vec::with_capacity(bodies.len());
        let mut kernels = Vec::with_capacity(bodies.len());
        for body in &bodies {
            self.rec.open("bench.kernel");
            let first = self.rec.spans().len();
            let (nb, k) = self.kernel(body, variant, &tm);
            // every layer this kernel skipped gets an empty span, so each
            // per-layer time is measured (near zero) on every workload
            for layer in KERNEL_LAYERS {
                if !self.rec.spans()[first..].iter().any(|s| s.name == *layer) {
                    self.rec.span(layer, || ());
                }
            }
            self.rec.close();
            new_bodies.push(nb);
            kernels.push(k);
        }
        let mut out = f.clone();
        for (l, nb) in
            accsat::ir::innermost_parallel_loops_mut(&mut out).into_iter().zip(new_bodies)
        {
            l.body = nb;
        }
        Ok((out, kernels))
    }

    /// `pipeline::optimize_kernel_body`.
    fn kernel(&mut self, body: &Block, variant: Variant, tm: &TypeMap) -> (Block, KernelOutcome) {
        let config = self.config;
        let cache = self.cache;
        let copts = CodegenOptions { bulk_load: variant.bulk_loads() };
        // claim the selection key, then try the `selected` level: the
        // selection entry first, then the e-graph it indexes
        let (keys, _flight, hit) = self.rec.span("cache.get", || {
            let Some(c) = cache else { return (None, None, None) };
            let keys = (sat_stage_key(body, variant, config), sel_stage_key(body, variant, config));
            let flight = c.single_flight(keys.1);
            let sel = c.get_sel(keys.1);
            let sat = sel.as_ref().and_then(|_| c.get_sat(keys.0));
            (Some(keys), Some(flight), sel.zip(sat))
        });
        if let Some((sel, sat)) = hit {
            let eg = self.rec.span("egraph.deserialize", || EGraph::deserialize(&sat.egraph));
            let selection = eg.is_ok().then(|| {
                self.rec.span("extract.selection_deserialize", || {
                    Selection::deserialize(&sel.selection)
                })
            });
            if let (Ok(eg), Some(Ok(selection)), Some(winner)) =
                (eg, selection, intern_strategy(&sel.winner))
            {
                let mut kernel = self.rec.span("ssa.build", || accsat::ssa::build_kernel(body));
                kernel.egraph = eg;
                let nb =
                    self.rec.span("codegen.generate", || generate(&kernel, &selection, tm, &copts));
                let outcome = KernelOutcome {
                    cost: sel.cost,
                    winner,
                    explored: sel.explored,
                    proven: sel.proven,
                    lower_bound: sel.lower_bound,
                    valve: sat.stop == Some(StopReason::TimeLimit)
                        || (!sel.proven && sel.explored < full_search_budget(config)),
                };
                return (nb, outcome);
            }
        }

        // saturation stage: a cached e-graph, else SSA + saturation
        let cached = match (cache, keys) {
            (Some(c), Some((sat_key, _))) => self.rec.span("cache.get", || c.get_sat(sat_key)),
            _ => None,
        };
        let restored = cached.and_then(|entry| {
            let eg = self.rec.span("egraph.deserialize", || EGraph::deserialize(&entry.egraph));
            eg.ok().map(|eg| (eg, entry.stop))
        });
        let (kernel, stop) = match restored {
            Some((eg, stop)) => {
                let mut kernel = self.rec.span("ssa.build", || accsat::ssa::build_kernel(body));
                kernel.egraph = eg;
                (kernel, stop)
            }
            None => {
                let mut kernel = self.rec.span("ssa.build", || accsat::ssa::build_kernel(body));
                let report = self.rec.span("egraph.saturate", || {
                    if variant.saturates() {
                        let runner = Runner::from_shared(config.rules.clone())
                            .with_limits(config.limits)
                            .with_sat_threads(1);
                        Some(runner.run(&mut kernel.egraph))
                    } else {
                        kernel.egraph.rebuild();
                        None
                    }
                });
                let stop = report.as_ref().map(|r| r.stop_reason);
                if let Some(r) = &report {
                    self.counts.iterations += r.iterations.len() as u64;
                    self.counts.nodes += kernel.egraph.total_nodes() as u64;
                    self.counts.matches += r.total_matches() as u64;
                    self.counts.applied += r.total_applied() as u64;
                }
                if let (Some(c), Some((sat_key, _))) = (cache, keys) {
                    let text = self.rec.span("egraph.serialize", || kernel.egraph.serialize());
                    let entry = match report {
                        Some(r) => SatEntry {
                            egraph: text,
                            iters: r.iterations.len(),
                            stop,
                            iter_counts: r.iteration_counts(),
                            rule_stats: r.rule_stats,
                        },
                        None => SatEntry {
                            egraph: text,
                            iters: 0,
                            stop,
                            rule_stats: Vec::new(),
                            iter_counts: Vec::new(),
                        },
                    };
                    self.rec.span("cache.put", || c.put_sat(sat_key, &entry));
                }
                (kernel, stop)
            }
        };

        let roots = kernel.extraction_roots();
        let ex = self.extract(&kernel.egraph, &roots);
        if let (Some(c), Some((_, sel_key))) = (cache, keys) {
            self.rec.span("cache.put", || {
                c.put_sel(
                    sel_key,
                    &SelEntry {
                        selection: ex.selection.serialize(),
                        cost: ex.cost,
                        proven: ex.proven,
                        winner: ex.winner.to_string(),
                        explored: ex.explored,
                        lower_bound: ex.lower_bound,
                        pruned: ex.pruned,
                    },
                )
            });
        }
        let nb = self.rec.span("codegen.generate", || generate(&kernel, &ex.selection, tm, &copts));
        let outcome = KernelOutcome {
            cost: ex.cost,
            winner: ex.winner,
            explored: ex.explored,
            proven: ex.proven,
            lower_bound: ex.lower_bound,
            valve: stop == Some(StopReason::TimeLimit) || ex.valve,
        };
        (nb, outcome)
    }

    /// `extract_portfolio_budgeted` on one thread: greedy incumbent,
    /// search context, refinement, then the racing strategies in table
    /// order.
    fn extract(&mut self, eg: &EGraph, roots: &[accsat::egraph::Id]) -> Extraction {
        let config = self.config;
        let cm = &config.cost_model;
        let (greedy, greedy_cost) = self.rec.span("extract.greedy", || {
            let g = extract_greedy(eg, roots, cm);
            let c = g.dag_cost(eg, cm, roots);
            (g, c)
        });
        let (cx, root_bound) = self.rec.span("extract.context", || {
            let cx = SearchContext::build(eg, cm);
            let bound = cx.root_lower_bound(roots);
            (cx, bound)
        });
        let pruned = [cx.orbit_pruned(), cx.dominance_pruned(), cx.closure_pruned()];
        let proven_by_incumbent = |name: &'static str, sel: Selection, cost: u64| Extraction {
            selection: sel,
            cost,
            proven: true,
            winner: name,
            explored: 0,
            lower_bound: cost,
            pruned,
            valve: false,
        };
        if greedy_cost <= root_bound {
            self.counts.shortcircuit.record(true);
            return proven_by_incumbent("greedy", greedy, greedy_cost);
        }

        let (incumbent, incumbent_cost, incumbent_name) = self.rec.span("extract.refine", || {
            let climbed = climb(eg, &cx, cm, roots, greedy.clone());
            let climbed_cost = climbed.dag_cost(eg, cm, roots);
            let marginal = marginal_greedy(eg, &cx, cm, roots).map(|mut m| {
                m.fill_from(&greedy);
                let m = climb(eg, &cx, cm, roots, m);
                let c = m.dag_cost(eg, cm, roots);
                (m, c)
            });
            let marginal_cost = marginal.as_ref().map_or(u64::MAX, |&(_, c)| c);
            if climbed_cost < greedy_cost && climbed_cost <= marginal_cost {
                (climbed, climbed_cost, "refine")
            } else if marginal_cost < greedy_cost {
                let (m, c) = marginal.expect("cost came from Some");
                (m, c, "refine")
            } else {
                (greedy.clone(), greedy_cost, "greedy")
            }
        });
        self.counts.refine_gain.record(incumbent_name == "refine");
        if incumbent_cost <= root_bound {
            self.counts.shortcircuit.record(true);
            return proven_by_incumbent(incumbent_name, incumbent, incumbent_cost);
        }
        self.counts.shortcircuit.record(false);

        let width = config.extraction_threads.clamp(1, STRATEGIES.len());
        let mut results = Vec::with_capacity(width);
        for &(name, order, prefer_shared) in &STRATEGIES[..width] {
            let opts = SearchOptions {
                order,
                prefer_shared,
                node_budget: config.extraction_node_budget,
                deadline: config.extraction_budget,
                ..SearchOptions::default()
            };
            let r = self.rec.span("extract.bnb", || {
                extract_exact_in(&cx, roots, &incumbent, incumbent_cost, &opts)
            });
            self.counts.bnb_gain.record(r.cost < incumbent_cost);
            self.counts.bnb_explored += r.explored;
            results.push((name, r));
        }
        let proven = results.iter().any(|(_, r)| r.proven_optimal);
        let valve = results
            .iter()
            .any(|(_, r)| !r.proven_optimal && r.explored < config.extraction_node_budget);
        let explored = results.iter().map(|(_, r)| r.explored).sum();
        let win = (0..results.len()).min_by_key(|&i| (results[i].1.cost, i)).expect("width >= 1");
        let (selection, cost, winner) = if results[win].1.cost < incumbent_cost {
            let (name, r) = results.swap_remove(win);
            (r.selection, r.cost, name)
        } else {
            (incumbent, incumbent_cost, incumbent_name)
        };
        Extraction {
            selection,
            cost,
            proven,
            winner,
            explored,
            lower_bound: if proven { cost } else { root_bound },
            pruned,
            valve,
        }
    }
}

/// The replayed portfolio's result.
struct Extraction {
    selection: Selection,
    cost: u64,
    proven: bool,
    winner: &'static str,
    explored: u64,
    lower_bound: u64,
    pruned: [usize; 3],
    valve: bool,
}
