//! `sim-steady`: steady-state simulation. Every program is compiled and
//! decoded once during set-up; each timed pass then runs
//! `reset_to_image` + `run` on every cell, in a seeded order.

use std::time::{Duration, Instant};

use r2c_core::R2cConfig;
use r2c_ir::{interpret, Module};
use r2c_vm::{ExecStats, ExitStatus, MachineKind, Vm, VmConfig};
use r2c_workloads::{captured_workloads, spec_profiles, spec_workloads, Scale};

use crate::pinned;
use crate::util::{
    build_traced, geomean, median, spread_setups, timed, timing_line, CompileStats, Layer, Ledger,
    Rng, VmCounts,
};
use crate::Outcome;

/// Points of a `--trace 0` run at which set-ups run
/// (`spread_setups`); `setup_s` is the fastest set-up.
const SETUPS: usize = 10;

/// A build: its name and its configuration for a seed.
type Build = (&'static str, fn(u64) -> R2cConfig);

const BUILDS: [Build; 2] = [("baseline", R2cConfig::baseline), ("full", R2cConfig::full)];

struct Cell {
    /// `<program>/<build>`.
    name: String,
    program: usize,
    vm: Vm,
}

struct Setup {
    cells: Vec<Cell>,
    compile: CompileStats,
    vm: VmCounts,
}

/// The 12 SPEC-profiled programs at `Scale::Bench` and the 5 captured
/// programs.
fn programs() -> Vec<(&'static str, Module)> {
    let mut workloads = spec_workloads(Scale::Bench);
    workloads.extend(captured_workloads());
    workloads.into_iter().map(|w| (w.name, w.module)).collect()
}

/// Module generation, first compile and first decode of every cell.
fn setup() -> Setup {
    let programs = programs();
    let mut compile = CompileStats::default();
    let mut vm_counts = VmCounts::default();
    let mut cells = Vec::new();
    // The set-up ledger is discarded: set-up is not in a traced window.
    let mut scratch = Ledger::default();
    for (p, (name, module)) in programs.iter().enumerate() {
        for (build, cfg) in BUILDS {
            let (image, report) = build_traced(module, cfg(1), &mut scratch)
                .unwrap_or_else(|e| panic!("{name}/{build} does not compile: {e}"));
            compile.add_passes(&report);
            compile.add_counts(&report);
            let (vm, d) = timed(|| Vm::new(&image, VmConfig::new(MachineKind::EpycRome.config())));
            vm_counts.decode_us.push(d.as_secs_f64() * 1e6);
            vm_counts.add_decoded(&vm);
            cells.push(Cell {
                name: format!("{name}/{build}"),
                program: p,
                vm,
            });
        }
    }
    Setup {
        cells,
        compile,
        vm: vm_counts,
    }
}

/// Reference result of one program: exit value and printed output.
type Reference = (i64, Vec<i64>);

/// Checks one completed run against the interpreter reference and the
/// pinned statistics; returns a description of the first mismatch.
fn check(
    cell: &Cell,
    status: ExitStatus,
    stats: &ExecStats,
    reference: &Reference,
) -> Option<String> {
    if status != ExitStatus::Exited(reference.0) {
        return Some(format!(
            "{}: exit {status:?}, expected Exited({})",
            cell.name, reference.0
        ));
    }
    if cell.vm.output != reference.1 {
        return Some(format!(
            "{}: output differs from the interpreter",
            cell.name
        ));
    }
    match pinned::cell_stats(&cell.name) {
        Some(pin) if pin == *stats => None,
        Some(pin) => Some(format!("{}: stats {stats:?}, pinned {pin:?}", cell.name)),
        None => Some(format!("{}: no pinned stats", cell.name)),
    }
}

struct Pass {
    /// Per cell: host nanoseconds of its runs.
    exec_ns: Vec<u64>,
    /// Per cell: guest MIPS of each of its runs.
    mips: Vec<Vec<f64>>,
    /// Per cell: its fastest reset + run, in ms.
    best_ms: Vec<f64>,
    /// Host time of every reset + run, in ms.
    items_ms: Vec<f64>,
    /// Host time of every whole pass, in ms.
    passes_ms: Vec<f64>,
    reset_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    fn new(cells: usize) -> Pass {
        Pass {
            exec_ns: vec![0; cells],
            mips: vec![Vec::new(); cells],
            best_ms: vec![f64::INFINITY; cells],
            items_ms: Vec::new(),
            passes_ms: Vec::new(),
            reset_us: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }
}

/// Runs one whole pass, and more while another of the same length
/// would end at most half a pass past `budget`, adding them to `out`.
fn measure(
    s: &mut Setup,
    refs: &[Reference],
    budget: Duration,
    rng: &mut Rng,
    mut ledger: Option<&mut Ledger>,
    out: &mut Pass,
) {
    let mut order: Vec<usize> = (0..s.cells.len()).collect();
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        let pass_start = Instant::now();
        for &i in &order {
            let cell = &mut s.cells[i];
            let t0 = Instant::now();
            cell.vm.reset_to_image();
            let t1 = Instant::now();
            let run = cell.vm.run();
            let t2 = Instant::now();
            if let Some(l) = ledger.as_deref_mut() {
                l.add(Layer::Vm, t2 - t0);
            }
            out.reset_us.push((t1 - t0).as_secs_f64() * 1e6);
            out.exec_ns[i] += (t2 - t1).as_nanos() as u64;
            out.mips[i].push(run.stats.instructions as f64 / (t2 - t1).as_secs_f64() / 1e6);
            let item_ms = (t2 - t0).as_secs_f64() * 1e3;
            out.items_ms.push(item_ms);
            out.best_ms[i] = out.best_ms[i].min(item_ms);
            out.attempted += 1;
            if let Some(e) = check(cell, run.status, &run.stats, &refs[cell.program]) {
                eprintln!("FAIL {e}");
                out.failed += 1;
            }
        }
        let pass = pass_start.elapsed();
        out.passes_ms.push(pass.as_secs_f64() * 1e3);
        if start.elapsed() + pass / 2 > budget {
            break;
        }
    }
    if let Some(l) = ledger {
        l.add_wall(start.elapsed());
    }
}

/// A cell's guest MIPS: the best over its runs. The host alternates
/// between states about 1.85x apart in speed, each lasting seconds to
/// minutes (NOTES.md); a median follows the share of the run spent in
/// each state, the best follows the fast state.
fn cell_mips(p: &Pass, i: usize) -> f64 {
    p.mips[i].iter().copied().fold(0.0, f64::max)
}

/// First run of every cell, on the freshly decoded VM: the exact
/// evidence counters, checked like every timed run.
fn first_runs(s: &mut Setup, refs: &[Reference], outcome: &mut Outcome) {
    println!("cells (exact, pinned):");
    for cell in &mut s.cells {
        let run = cell.vm.run();
        outcome.attempted += 1;
        if let Some(e) = check(cell, run.status, &run.stats, &refs[cell.program]) {
            eprintln!("FAIL {e}");
            outcome.failed += 1;
        }
        s.vm.add_run(&cell.vm, &run.stats);
        println!(
            "  vm.sim_insns.{0} {1}  vm.sim_cycles.{0} {2}",
            cell.name, run.stats.instructions, run.stats.cycles
        );
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let refs: Vec<Reference> = programs()
        .iter()
        .map(|(name, m)| {
            let r = interpret(m, "main", 4_000_000_000)
                .unwrap_or_else(|e| panic!("{name}: reference interpreter failed: {e}"));
            (r.ret, r.output)
        })
        .collect();
    let mut outcome = Outcome::default();
    let mut rng = Rng::new(seed);
    let cells = cell_names().len();
    let s = if !trace {
        let mut p = Pass::new(cells);
        let mut first = true;
        let (s, setup_s) = spread_setups(
            SETUPS,
            Duration::from_secs_f64(seconds),
            setup,
            |s, slice| {
                if std::mem::take(&mut first) {
                    first_runs(s, &refs, &mut outcome);
                }
                measure(s, &refs, slice, &mut rng, None, &mut p);
            },
        );
        outcome.attempted += p.attempted;
        outcome.failed += p.failed;
        let mips: Vec<f64> = (0..cells).map(|i| cell_mips(&p, i)).collect();
        let medians: Vec<f64> = p.mips.iter().map(|xs| median(xs)).collect();
        println!(
            "guest_mips: {:.3} MIPS best, {:.3} MIPS median (geomean over {} cells)",
            geomean(&mips),
            geomean(&medians),
            mips.len()
        );
        println!(
            "{}",
            timing_line("cell run (reset + run)", "ms", &p.items_ms)
        );
        println!("{}", timing_line("pass", "ms", &p.passes_ms));
        // The latency is that of a whole pass, each cell at its fastest:
        // single cell runs differ by 1000x between cells, so a pooled
        // statistic jumps from one cell to another.
        let best_pass_ms: f64 = p.best_ms.iter().sum();
        println!("pass, each cell at its fastest run: {best_pass_ms:.4} ms");
        let m = &mut outcome.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("throughput_per_s", geomean(&mips) * 1e6, "1/s");
        m.set("latency_ms", best_pass_ms, "ms");
        s
    } else {
        let mut s = setup();
        first_runs(&mut s, &refs, &mut outcome);
        let half = Duration::from_secs_f64(seconds / 2.0);
        let mut plain = Pass::new(cells);
        measure(&mut s, &refs, half, &mut rng, None, &mut plain);
        let mut ledger = Ledger::default();
        let mut p = Pass::new(cells);
        measure(&mut s, &refs, half, &mut rng, Some(&mut ledger), &mut p);
        outcome.attempted += plain.attempted + p.attempted;
        outcome.failed += plain.failed + p.failed;
        let m = &mut outcome.metrics;
        for (i, cell) in s.cells.iter().enumerate() {
            let name = format!("vm.exec_mips.{}", cell.name.replace('/', "."));
            m.set(name, cell_mips(&p, i), "MIPS");
        }
        let exec_ms = p.exec_ns.iter().sum::<u64>() as f64 / 1e6;
        m.set("vm.exec_ms", exec_ms, "ms");
        m.set("vm.reset_us", median(&p.reset_us), "us");
        ledger.report(m, median(&plain.passes_ms), median(&p.passes_ms));
        s
    };
    s.compile.report(&mut outcome.metrics);
    s.vm.report(&mut outcome.metrics);
    outcome
}

/// `<program>/<build>` of every cell, in set-up order.
fn cell_names() -> Vec<String> {
    let programs = spec_profiles()
        .into_iter()
        .map(|p| p.name)
        .chain(captured_workloads().into_iter().map(|w| w.name));
    programs
        .flat_map(|p| BUILDS.map(|(build, _)| format!("{p}/{build}")))
        .collect()
}

/// Pinned expectation lines: the statistics of each cell's first run.
pub fn pin() {
    let mut s = setup();
    for cell in &mut s.cells {
        let st = cell.vm.run().stats;
        println!("{}", pinned::cell_line(&cell.name, &st));
    }
}
