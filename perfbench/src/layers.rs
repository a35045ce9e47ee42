//! The per-layer metrics of a traced run, folded from the replay's spans
//! and counters.

use crate::replay::Counts;
use crate::stats::{median, Ratio};
use crate::Report;
use accsat::cache::CacheStats;
use std::collections::BTreeMap;

/// Span name → per-layer metric. Every metric is the self time of the
/// layer's calls, per pass (median over the run's replay passes).
const TIMED: &[(&str, &str)] = &[
    ("ir.parse", "ir.parse_ms"),
    ("ir.print", "ir.print_ms"),
    ("ssa.build", "ssa.build_ms"),
    ("egraph.saturate", "egraph.saturate_ms"),
    ("egraph.serialize", "egraph.serialize_ms"),
    ("egraph.deserialize", "egraph.deserialize_ms"),
    ("extract.greedy", "extract.greedy_ms"),
    ("extract.context", "extract.context_ms"),
    ("extract.refine", "extract.refine_ms"),
    ("extract.bnb", "extract.bnb_ms"),
    ("extract.selection_deserialize", "extract.selection_deserialize_ms"),
    ("codegen.generate", "codegen.generate_ms"),
    ("cache.get", "cache.get_ms"),
    ("cache.put", "cache.put_ms"),
];

/// Spans of the benchmark's own code between layer calls.
const GLUE: &[&str] = &["bench.pass", "bench.request", "bench.kernel"];

/// Per-pass self time per span name, in milliseconds.
pub type PassTimes = BTreeMap<&'static str, f64>;

/// Add every per-layer metric to `report`. `passes` holds each replay
/// pass's self times; `counts` and `cache` are one pass's deterministic
/// work (every pass does the same work); `overhead` is the traced replay's
/// wall time over the untraced public pipeline's, minus one.
pub fn emit(
    report: &mut Report,
    passes: &[PassTimes],
    counts: &Counts,
    cache: Option<CacheStats>,
    overhead: f64,
) {
    let per_pass = |names: &[&str]| {
        let totals: Vec<f64> = passes
            .iter()
            .map(|p| names.iter().filter_map(|n| p.get(n)).fold(0.0, |a, b| a + b))
            .collect();
        median(&totals)
    };
    for &(span, metric) in TIMED {
        report.metric(metric, per_pass(&[span]), "ms");
    }
    report.metric("bench.glue_ms", per_pass(GLUE), "ms");

    report.metric("egraph.iterations", counts.iterations as f64, "count");
    report.metric("egraph.nodes", counts.nodes as f64, "count");
    report.metric("egraph.matches", counts.matches as f64, "count");
    report.metric("egraph.applied", counts.applied as f64, "count");
    report.metric("extract.bnb_explored", counts.bnb_explored as f64, "count");
    ratio(report, "extract.shortcircuit_ratio", "extract.kernels", counts.shortcircuit);
    ratio(report, "extract.refine_gain_ratio", "extract.refine_runs", counts.refine_gain);
    ratio(report, "extract.bnb_gain_ratio", "extract.bnb_runs", counts.bnb_gain);

    let c = cache.unwrap_or_default();
    let sel = Ratio { hits: c.sel_hits, base: c.sel_hits + c.sel_misses };
    ratio(report, "cache.sel_hit_ratio", "cache.sel_probes", sel);
    report.metric("cache.evictions", c.evictions as f64, "count");
    report.metric("serve.coalesced", c.coalesced as f64, "count");
    report.metric("bench.trace_overhead_frac", overhead, "frac");
}

/// A ratio metric followed by its base, as a count of its own.
fn ratio(report: &mut Report, name: &'static str, base: &'static str, r: Ratio) {
    report.metric(name, r.value(), "ratio");
    report.metric(base, r.base as f64, "count");
}
