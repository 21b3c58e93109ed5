//! # r2c-bench — the benchmark harness regenerating every table and figure
//!
//! The paper's evaluation artifacts and the binaries that regenerate
//! them (all built by this crate; run with `cargo run --release -p
//! r2c-bench --bin <name>`):
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table 1 (component overheads, incl. the §6.2.1 OIA row) | `report_table1` |
//! | Table 2 (dynamic call frequencies) | `report_table2` |
//! | Table 3 (defense comparison) | `report_table3` |
//! | Figure 6 (full R²C overhead, 4 machines) | `report_fig6` |
//! | §6.2.4 (web-server throughput) | `report_webserver` |
//! | §6.2.5 (memory overhead) | `report_memory` |
//! | §7.2 (security: attack matrix + probabilities) | `report_security` |
//! | §6.3 (scalability) | `report_scale` |
//!
//! Methodology follows the paper (§6.2): per measurement the program is
//! *recompiled with a fresh seed* (the location of return addresses and
//! the distribution of BTDPs is random per build) and the median across
//! runs is reported; the baseline is the same compiler with R²C
//! disabled. Overheads are ratios of simulated cycle counts under the
//! respective machine cost model.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use r2c_core::{PoolStats, R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_serve::FleetRun;
use r2c_vm::{ExecStats, ExitStatus, MachineKind, Vm, VmConfig};

/// One measured run of a module under a configuration.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Simulated cycles.
    pub cycles: f64,
    /// Full execution statistics.
    pub stats: ExecStats,
}

/// Builds (with `seed`) and runs `module`, returning the measurement.
///
/// # Panics
///
/// Panics if the program fails to compile or crashes — a measurement on
/// a crashed run would be meaningless.
pub fn measure_once(
    module: &Module,
    cfg: R2cConfig,
    machine: MachineKind,
    seed: u64,
) -> Measurement {
    let image = R2cCompiler::new(cfg.with_seed(seed))
        .build(module)
        .expect("compile failed");
    let mut vm = Vm::new(&image, VmConfig::new(machine.config()));
    let out = vm.run();
    assert!(
        matches!(out.status, ExitStatus::Exited(_)),
        "benchmark run crashed: {:?}",
        out.status
    );
    Measurement {
        cycles: out.stats.cycles_f64(),
        stats: out.stats,
    }
}

/// Median cycles over `runs` executions, each recompiled with a fresh
/// seed derived from `seed_base` (the paper's per-execution reseeding).
pub fn median_cycles(
    module: &Module,
    cfg: R2cConfig,
    machine: MachineKind,
    runs: u32,
    seed_base: u64,
) -> f64 {
    let mut cycles: Vec<f64> = (0..runs)
        .map(|i| {
            let seed = seed_base + 1 + i as u64;
            let c = measure_once(module, cfg, machine, seed).cycles;
            // A NaN would previously surface as a bare unwrap panic deep
            // inside sort; name the offending cell instead.
            assert!(
                c.is_finite(),
                "non-finite cycle measurement {c} for (module {:?}, machine {machine:?}, seed {seed})",
                module.name
            );
            c
        })
        .collect();
    // total_cmp is a total order, so the sort itself can never panic
    // even if the finiteness net above is ever loosened.
    cycles.sort_by(f64::total_cmp);
    median_of_sorted(&cycles)
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    assert!(
        n > 0,
        "median of zero measurements — was median_cycles called with runs == 0?"
    );
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Number of worker threads for [`parallel_map`]: the host's available
/// parallelism, overridable with `R2C_BENCH_THREADS` (set it to `1` to
/// force the serial path, e.g. when diffing against a serial run).
pub fn bench_threads() -> usize {
    if let Ok(v) = std::env::var("R2C_BENCH_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item, fanning the work out across
/// [`bench_threads`] scoped threads, and returns the results **in input
/// order**.
///
/// Measurement cells — (workload, machine, seed) triples — are
/// independent: each compiles its own image from an explicit seed and
/// runs it in a private [`Vm`], so execution order cannot influence any
/// simulated cycle count. Parallel results are therefore bit-identical
/// to a serial run; only host wall-clock changes.
///
/// If a worker panics (e.g. a measurement crashed), the panic is
/// propagated once all threads have finished, same as the serial path.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = bench_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let v = f(&items[i]);
                *slots[i].lock().unwrap() = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker poisoned slot")
                .expect("scoped worker exited without storing a result")
        })
        .collect()
}

/// Key identifying one baseline measurement: which module, machine and
/// sampling parameters produced it. The module is identified by name
/// plus structural counts — modules generated by `r2c-workloads` have
/// unique names, and the counts guard against a name reused for a
/// structurally different module.
#[derive(Clone, Hash, PartialEq, Eq)]
struct BaselineKey {
    module_name: String,
    funcs: usize,
    insts: usize,
    globals: usize,
    machine: &'static str,
    runs: u32,
    seed_base: u64,
}

fn baseline_key(module: &Module, machine: MachineKind, runs: u32, seed_base: u64) -> BaselineKey {
    BaselineKey {
        module_name: module.name.clone(),
        funcs: module.funcs.len(),
        insts: module.funcs.iter().map(|f| f.inst_count()).sum(),
        globals: module.globals.len(),
        machine: machine.name(),
        runs,
        seed_base,
    }
}

fn baseline_cache() -> &'static Mutex<HashMap<BaselineKey, f64>> {
    static CACHE: OnceLock<Mutex<HashMap<BaselineKey, f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Median baseline cycles, memoized per (module, machine, runs,
/// seed_base).
///
/// Report binaries compare many protected configurations against the
/// *same* baseline; recompiling and re-running it per comparison
/// dominated their wall-clock. The cached value is exactly what
/// [`median_cycles`] with [`R2cConfig::baseline`] returns for the same
/// arguments, so the memoization cannot change any reported number.
pub fn baseline_cycles(module: &Module, machine: MachineKind, runs: u32, seed_base: u64) -> f64 {
    let key = baseline_key(module, machine, runs, seed_base);
    if let Some(&cycles) = baseline_cache().lock().unwrap().get(&key) {
        return cycles;
    }
    // Measure outside the lock: baselines for different cells can and
    // should run in parallel under `parallel_map`.
    let cycles = median_cycles(module, R2cConfig::baseline(0), machine, runs, seed_base);
    baseline_cache().lock().unwrap().insert(key, cycles);
    cycles
}

/// Overhead of `cfg` relative to the baseline configuration on the
/// same machine (1.00 = no overhead).
pub fn overhead(
    module: &Module,
    cfg: R2cConfig,
    machine: MachineKind,
    runs: u32,
    seed_base: u64,
) -> f64 {
    let base = baseline_cycles(module, machine, runs, seed_base);
    let prot = median_cycles(module, cfg, machine, runs, seed_base ^ 0x5eed);
    prot / base
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice: `0.0 / 0` would otherwise yield a silent
/// `NaN` that propagates into report tables as `NaN%`.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(
        !xs.is_empty(),
        "geometric mean of zero values — empty workload or cell set?"
    );
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Formats a ratio as the paper's percentage overhead.
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// A fleet run's variant-pool counters as a JSON object. Host-side: the
/// warm/in-flight/cold split depends on thread timing.
pub fn pool_json(p: &PoolStats) -> String {
    format!(
        "{{\"compiled\": {}, \"warm\": {}, \"in_flight\": {}, \"cold\": {}, \
         \"withdrawn_before_compile\": {}, \"withdrawn_after_compile\": {}}}",
        p.compiled, p.warm, p.in_flight, p.cold, p.withdrawn_queued, p.withdrawn_compiled
    )
}

/// A fleet run's variant-pool counters as one report line.
pub fn pool_line(p: &PoolStats) -> String {
    format!(
        "compiled {}, takes warm {} / in flight {} / cold {}, withdrawn {} before and {} after compile",
        p.compiled, p.warm, p.in_flight, p.cold, p.withdrawn_queued, p.withdrawn_compiled
    )
}

/// The pool's accounting identity for a finished fleet run: every
/// compiled variant was taken or withdrawn. Unlike a latency gate it
/// cannot flake, whatever the thread timing.
pub fn check_pool(label: &str, run: &FleetRun, errors: &mut Vec<String>) {
    let stranded = run.pool.stranded();
    if stranded > 0 {
        errors.push(format!(
            "{label}: {stranded} compiled variants neither taken nor withdrawn ({})",
            pool_line(&run.pool)
        ));
    }
}

/// Simple fixed-width table printer for the report binaries.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer with the given column widths.
    pub fn new(widths: &[usize]) -> TablePrinter {
        TablePrinter {
            widths: widths.to_vec(),
        }
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            line.push_str(&format!("{cell:<w$}  "));
        }
        println!("{}", line.trim_end());
    }

    /// Prints a separator.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2c_workloads::{spec_workloads, Scale};

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.06]) - 1.06).abs() < 1e-12);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(1.066), "+6.6%");
        assert_eq!(pct(0.97), "-3.0%");
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let w = &spec_workloads(Scale::Test)[3]; // lbm: small
        let a = measure_once(&w.module, R2cConfig::full(0), MachineKind::EpycRome, 7);
        let b = measure_once(&w.module, R2cConfig::full(0), MachineKind::EpycRome, 7);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn protected_costs_more_than_baseline() {
        let w = &spec_workloads(Scale::Test)[4]; // omnetpp: call-heavy
        let r = overhead(&w.module, R2cConfig::full(0), MachineKind::EpycRome, 3, 1);
        assert!(r > 1.0, "overhead ratio {r}");
    }

    #[test]
    #[should_panic(expected = "runs == 0")]
    fn median_of_zero_runs_panics_clearly() {
        median_of_sorted(&[]);
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..57).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single_inputs() {
        // `--cases 0`-style degenerate inputs must not spawn threads,
        // divide by zero, or hang.
        let empty: Vec<u64> = vec![];
        assert_eq!(parallel_map(&empty, |&x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(&[42u64], |&x| x + 1), vec![43]);
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn geomean_of_empty_slice_panics_clearly() {
        geomean(&[]);
    }

    /// The harness invariant: fanning measurement cells out across
    /// threads reproduces the serial cycle counts exactly.
    #[test]
    fn parallel_fanout_reproduces_serial_cycles_exactly() {
        let workloads = spec_workloads(Scale::Test);
        let cells: Vec<(usize, MachineKind, u64)> = (0..4)
            .flat_map(|wi| {
                MachineKind::ALL
                    .into_iter()
                    .map(move |m| (wi, m, 7 + wi as u64))
            })
            .collect();
        let measure = |&(wi, m, seed): &(usize, MachineKind, u64)| {
            measure_once(&workloads[wi].module, R2cConfig::full(0), m, seed).cycles
        };
        let serial: Vec<f64> = cells.iter().map(measure).collect();
        let parallel: Vec<f64> = parallel_map(&cells, measure);
        assert_eq!(serial, parallel);
    }

    /// Baseline memoization returns exactly what `median_cycles` with
    /// the baseline configuration returns, on repeated calls too.
    #[test]
    fn baseline_cache_is_transparent() {
        let w = &spec_workloads(Scale::Test)[3];
        let direct = median_cycles(
            &w.module,
            R2cConfig::baseline(0),
            MachineKind::Xeon8358,
            2,
            9,
        );
        let cached1 = baseline_cycles(&w.module, MachineKind::Xeon8358, 2, 9);
        let cached2 = baseline_cycles(&w.module, MachineKind::Xeon8358, 2, 9);
        assert_eq!(direct, cached1);
        assert_eq!(direct, cached2);
    }
}
