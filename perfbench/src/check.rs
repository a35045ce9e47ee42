//! Output checks and the quality metric, all outside the timed window:
//! the interpreter as an independent oracle (original against optimized
//! on seeded inputs), the wall-clock valve guard, and the simulated
//! speed-up of the generated code.

use accsat::benchmarks::genkern::{GeneratedKernel, SplitMix64};
use accsat::benchmarks::Benchmark;
use accsat::compilers::{compile_kernel, Compiler, CompilerModel};
use accsat::gpusim::{run_kernel, Device};
use accsat::interp::{
    compare_arrays, compare_arrays_with, try_run_function, ArrayData, Env, Value,
};
use accsat::ir::{Model, Program, Type};
use accsat::{OptStats, SaturatorConfig};
use std::collections::HashMap;

/// Interpreter loop fuel per run; far above what any kernel here needs.
const FUEL: u64 = 50_000_000;

/// Deterministic xorshift for the suite inputs.
struct Xorshift(u64);

impl Xorshift {
    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// Bind every parameter of a suite program the way the repository's
/// semantic-preservation tests do: float arrays get random data, integer
/// arrays stay in bounds (CSR `rowstr`/`colidx` keep their structure),
/// scalars come from the benchmark's bindings or small constants.
fn suite_env(prog: &Program, bench: &Benchmark, seed: u64) -> Env {
    let mut env = Env::new();
    let mut rng = Xorshift(seed | 1);
    let bindings = bench.bindings_map();
    for f in &prog.functions {
        for p in &f.params {
            if p.is_array() {
                let n = p.len();
                if p.name.contains("rowstr") {
                    let data: Vec<i64> = (0..n).map(|i| (i as i64) * 8).collect();
                    env.set_array(&p.name, ArrayData::from_i64(&p.dims, data));
                } else if p.name.contains("colidx") {
                    let data: Vec<i64> = (0..n).map(|_| (rng.next_u64() % 4096) as i64).collect();
                    env.set_array(&p.name, ArrayData::from_i64(&p.dims, data));
                } else if p.ty == Type::Int {
                    let data: Vec<i64> = (0..n).map(|_| (rng.next_u64() % 7) as i64).collect();
                    env.set_array(&p.name, ArrayData::from_i64(&p.dims, data));
                } else {
                    let data: Vec<f64> = (0..n).map(|_| rng.next_f64() * 2.0 + 0.5).collect();
                    env.set_array(&p.name, ArrayData::from_f64(&p.dims, data));
                }
            } else if let Some(&v) = bindings.get(&p.name) {
                env.set_scalar(&p.name, Value::Int(v));
            } else if p.ty == Type::Int {
                env.set_scalar(&p.name, Value::Int(4));
            } else {
                env.set_f64(&p.name, rng.next_f64() + 1.5);
            }
        }
    }
    env
}

/// Run every function of `prog` on `env`.
fn run_program(prog: &Program, env: &mut Env) -> Result<(), String> {
    for f in &prog.functions {
        try_run_function(f, env, FUEL).map_err(|e| format!("{}: {e}", f.name))?;
    }
    Ok(())
}

/// Interpreter oracle for one suite benchmark: the original and the
/// optimized program must leave the same arrays behind (relative
/// tolerance 1e-6, the `-ffast-math` allowance of the repository's
/// semantic-preservation tests).
pub fn suite_outputs_agree(
    bench: &Benchmark,
    original: &Program,
    optimized: &Program,
    seed: u64,
) -> Result<(), String> {
    let base = suite_env(original, bench, seed);
    let mut want = base.clone();
    run_program(original, &mut want).map_err(|e| format!("original run: {e}"))?;
    let mut got = base;
    run_program(optimized, &mut got).map_err(|e| format!("optimized run: {e}"))?;
    match compare_arrays(&want, &got, 1e-6) {
        None => Ok(()),
        Some((arr, i, a, b)) => Err(format!("{arr}[{i}]: original {a} vs optimized {b}")),
    }
}

/// Interpreter oracle for one generated kernel, with the input shapes of
/// the repository's fuzzer: every array cell and scalar drawn from
/// `[0.5, 2.5]`, compared at relative and absolute tolerance 1e-5.
pub fn kernel_outputs_agree(
    gk: &GeneratedKernel,
    original: &Program,
    optimized: &Program,
    seed: u64,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
    let mut base = Env::new();
    for (name, dims) in &gk.arrays {
        let len: usize = dims.iter().product();
        let data: Vec<f64> = (0..len).map(|_| rng.range_f64(0.5, 2.5)).collect();
        base.set_array(name, ArrayData::from_f64(dims, data));
    }
    for s in &gk.scalars {
        base.set_f64(s, rng.range_f64(0.5, 2.5));
    }
    let mut want = base.clone();
    run_program(original, &mut want).map_err(|e| format!("original run: {e}"))?;
    let mut got = base;
    run_program(optimized, &mut got).map_err(|e| format!("optimized run: {e}"))?;
    match compare_arrays_with(&want, &got, 1e-5, 1e-5) {
        None => Ok(()),
        Some((arr, i, a, b)) => Err(format!("{arr}[{i}]: original {a} vs optimized {b}")),
    }
}

/// The explored-node total of an extraction portfolio whose every
/// strategy ran its node budget out without a proof.
pub fn full_search_budget(config: &SaturatorConfig) -> u64 {
    config.extraction_threads.clamp(1, accsat::extract::STRATEGY_COUNT) as u64
        * config.extraction_node_budget
}

/// The wall-clock valve guard on a kernel's statistics: saturation stopped
/// on its time limit, or no member proved optimality and the members
/// together explored less than their node budgets, so one stopped on its
/// deadline. A member cut short while another proved the optimum leaves
/// only its explored count behind; the suites catch that by comparing
/// explored counts pass by pass, `serve-stream` by replaying slow requests.
pub fn valve_fired(s: &OptStats, config: &SaturatorConfig) -> bool {
    s.stop_reason == Some(accsat::egraph::StopReason::TimeLimit)
        || (!s.extraction_proven && s.extraction_explored < full_search_budget(config))
}

/// The two OpenACC compiler models the simulated speed-up averages over.
pub fn compiler_models() -> [CompilerModel; 2] {
    [Compiler::Nvhpc, Compiler::Gcc].map(|c| CompilerModel::new(c, Model::OpenAcc))
}

/// Simulated time of one launch of every kernel of `prog` under `cm` on
/// the A100 model, in milliseconds.
pub fn simulated_ms(
    prog: &Program,
    cm: &CompilerModel,
    bindings: &HashMap<String, i64>,
) -> Result<f64, String> {
    let dev = Device::a100_pcie_40gb();
    let mut total_ms = 0.0;
    for f in &prog.functions {
        let compiled = compile_kernel(f, cm, bindings)?;
        total_ms += run_kernel(&compiled.trace, &compiled.launch, &dev).time_ms;
    }
    Ok(total_ms)
}
