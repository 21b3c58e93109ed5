//! `compile-fresh`: one load-time re-randomization after another. For a
//! seeded draw of (program, variant seed), `R2cCompiler::build` with
//! `full(seed)`, then `Vm::new` on the new image, which misses the
//! decode cache and decodes. Each variant is then run once, untimed, and
//! checked against the interpreter.

use std::time::{Duration, Instant};

use r2c_attacks::victim::victim_module;
use r2c_core::{CompileReport, R2cConfig};
use r2c_ir::{interpret, Module};
use r2c_vm::{ExitStatus, Image, MachineKind, Vm, VmConfig};
use r2c_workloads::{captured_workloads, spec_workloads, webserver_module, Scale, ServerKind};

use crate::util::{
    build, build_traced, geomean, sorted, spread_setups, timed, timing_line, CompileStats, Layer,
    Ledger, Rng, VmCounts,
};
use crate::Outcome;

/// Points of a `--trace 0` run at which set-ups run
/// (`spread_setups`); `setup_s` is the fastest set-up.
const SETUPS: usize = 10;

fn vm_config() -> VmConfig {
    VmConfig::new(MachineKind::EpycRome.config())
}

/// The 12 SPEC-profiled programs at `Scale::Test` (compile cost does not
/// depend on the scale; the untimed check run does), the 5 captured
/// programs, the attack victim and the webserver.
fn programs() -> Vec<(&'static str, Module)> {
    let mut v: Vec<(&'static str, Module)> = spec_workloads(Scale::Test)
        .into_iter()
        .chain(captured_workloads())
        .map(|w| (w.name, w.module))
        .collect();
    v.push(("victim", victim_module()));
    v.push(("nginx", webserver_module(ServerKind::Nginx, 200)));
    v
}

type Reference = (i64, Vec<i64>);

/// Runs a fresh variant once and compares it with the interpreter.
fn check(name: &str, vm: &mut Vm, reference: &Reference) -> Result<r2c_vm::ExecStats, String> {
    let run = vm.run();
    if run.status != ExitStatus::Exited(reference.0) {
        return Err(format!(
            "{name}: exit {:?}, expected Exited({})",
            run.status, reference.0
        ));
    }
    if vm.output != reference.1 {
        return Err(format!("{name}: output differs from the interpreter"));
    }
    Ok(run.stats)
}

#[derive(Default)]
struct Loop {
    ready_ms: Vec<f64>,
    /// The same times, per program.
    by_program: Vec<Vec<f64>>,
    /// Host time of the untimed check runs.
    check_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Loop {
    fn new(programs: usize) -> Loop {
        Loop {
            by_program: vec![Vec::new(); programs],
            ..Loop::default()
        }
    }
}

/// Builds and decodes variants, at least one, until `budget` has
/// elapsed, adding them to `out`.
fn measure(
    programs: &[(&'static str, Module)],
    refs: &[Reference],
    budget: Duration,
    rng: &mut Rng,
    compile: &mut CompileStats,
    mut ledger: Option<&mut Ledger>,
    out: &mut Loop,
) {
    let start = Instant::now();
    let mut variants = 0;
    while variants == 0 || start.elapsed() < budget {
        variants += 1;
        let p = rng.below(programs.len());
        let cfg = R2cConfig::full(rng.next_u64());
        let (name, module) = &programs[p];
        out.attempted += 1;
        let t0 = Instant::now();
        let image: Result<Image, _> = match ledger.as_deref_mut() {
            Some(l) => build_traced(module, cfg, l).map(|(image, report)| {
                compile.add_passes(&report);
                image
            }),
            None => build(module, cfg),
        };
        let image = match image {
            Ok(image) => image,
            Err(e) => {
                eprintln!("FAIL {name}: build error: {e}");
                out.failed += 1;
                continue;
            }
        };
        let t1 = Instant::now();
        let mut vm = Vm::new(&image, vm_config());
        let t2 = Instant::now();
        let ready_ms = (t2 - t0).as_secs_f64() * 1e3;
        out.ready_ms.push(ready_ms);
        out.by_program[p].push(ready_ms);
        if let Err(e) = check(name, &mut vm, &refs[p]) {
            eprintln!("FAIL {e}");
            out.failed += 1;
        }
        out.check_ns += t2.elapsed().as_nanos() as u64;
        drop(vm);
        drop(image);
        if let Some(l) = ledger.as_deref_mut() {
            // Decode, the check run and freeing the variant are all
            // r2c-vm work.
            l.add(Layer::Vm, t1.elapsed());
        }
    }
    if let Some(l) = ledger {
        l.add_wall(start.elapsed());
    }
}

/// Each drawn program's fastest variant-ready time. A per-program
/// statistic, because compile times span 20x between programs; the
/// fastest, because the host alternates between states of different
/// speed (NOTES.md) and a median follows the time spent in each.
fn best_ms(l: &Loop) -> Vec<f64> {
    l.by_program
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// A set-up variant: its image, compile report, decoded VM and decode
/// time.
type Variant = (Image, CompileReport, Vm, Duration);

/// One set-up: module generation, and the first compile and decode of
/// one variant per program.
fn setup(setup_seeds: &[u64]) -> Vec<Variant> {
    let mut scratch = Ledger::default();
    programs()
        .iter()
        .zip(setup_seeds)
        .map(|((name, m), &s)| {
            let (image, report) = build_traced(m, R2cConfig::full(s), &mut scratch)
                .unwrap_or_else(|e| panic!("{name} does not compile: {e}"));
            let (vm, d) = timed(|| Vm::new(&image, vm_config()));
            (image, report, vm, d)
        })
        .collect()
}

/// Checks the set-up variants against the interpreter and gathers the
/// exact evidence counters from them.
fn check_setup(
    programs: &[(&'static str, Module)],
    variants: &mut [Variant],
    refs: &[Reference],
    compile: &mut CompileStats,
    vm_counts: &mut VmCounts,
    outcome: &mut Outcome,
) {
    for (i, (_image, report, vm, d)) in variants.iter_mut().enumerate() {
        compile.add_passes(report);
        compile.add_counts(report);
        vm_counts.decode_us.push(d.as_secs_f64() * 1e6);
        vm_counts.add_decoded(vm);
        outcome.attempted += 1;
        match check(programs[i].0, vm, &refs[i]) {
            Ok(stats) => vm_counts.add_run(vm, &stats),
            Err(e) => {
                eprintln!("FAIL {e}");
                outcome.failed += 1;
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let programs = programs();
    let refs: Vec<Reference> = programs
        .iter()
        .map(|(name, m)| {
            let r = interpret(m, "main", 2_000_000_000)
                .unwrap_or_else(|e| panic!("{name}: reference interpreter failed: {e}"));
            (r.ret, r.output)
        })
        .collect();
    let mut rng = Rng::new(seed);
    // The set-up variants: one per program, seeds fixed by `--seed`.
    let setup_seeds: Vec<u64> = programs.iter().map(|_| rng.next_u64()).collect();

    let mut outcome = Outcome::default();
    let mut compile = CompileStats::default();
    let mut vm_counts = VmCounts::default();
    if !trace {
        let mut l = Loop::new(programs.len());
        let mut first = true;
        let (_, setup_s) = spread_setups(
            SETUPS,
            Duration::from_secs_f64(seconds),
            || setup(&setup_seeds),
            |variants, slice| {
                if std::mem::take(&mut first) {
                    check_setup(
                        &programs,
                        variants,
                        &refs,
                        &mut compile,
                        &mut vm_counts,
                        &mut outcome,
                    );
                }
                measure(
                    &programs,
                    &refs,
                    slice,
                    &mut rng,
                    &mut compile,
                    None,
                    &mut l,
                );
            },
        );
        outcome.attempted += l.attempted;
        outcome.failed += l.failed;
        let ready = sorted(&l.ready_ms);
        println!(
            "{}",
            timing_line("variant_ready_ms (build + Vm::new)", "ms", &ready)
        );
        let best = best_ms(&l);
        let mean_best = best.iter().sum::<f64>() / best.len() as f64;
        println!(
            "variant_ready_ms best per program: geomean {:.4} ms, mean {mean_best:.4} ms over {} programs",
            geomean(&best),
            best.len()
        );
        let m = &mut outcome.metrics;
        m.set("setup_s", setup_s, "s");
        // Variants per second with the programs drawn uniformly, each
        // at its fastest.
        m.set("throughput_per_s", 1e3 / mean_best, "1/s");
        m.set("latency_ms", geomean(&best), "ms");
    } else {
        let mut variants = setup(&setup_seeds);
        check_setup(
            &programs,
            &mut variants,
            &refs,
            &mut compile,
            &mut vm_counts,
            &mut outcome,
        );
        drop(variants);
        let half = Duration::from_secs_f64(seconds / 2.0);
        let mut plain = Loop::new(programs.len());
        measure(
            &programs,
            &refs,
            half,
            &mut rng,
            &mut compile,
            None,
            &mut plain,
        );
        let mut ledger = Ledger::default();
        let mut l = Loop::new(programs.len());
        measure(
            &programs,
            &refs,
            half,
            &mut rng,
            &mut compile,
            Some(&mut ledger),
            &mut l,
        );
        outcome.attempted += plain.attempted + l.attempted;
        outcome.failed += plain.failed + l.failed;
        let m = &mut outcome.metrics;
        m.set("vm.exec_ms", l.check_ns as f64 / 1e6, "ms");
        ledger.report(m, geomean(&best_ms(&plain)), geomean(&best_ms(&l)));
    }
    compile.report(&mut outcome.metrics);
    vm_counts.report(&mut outcome.metrics);
    outcome
}
