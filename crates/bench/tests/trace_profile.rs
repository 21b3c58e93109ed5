//! Integration tests for the r2c-trace layer: the tracer must be
//! invisible to the simulation (bit-identical [`ExecStats`]), its
//! attribution must be complete (self cycles sum to the total), and the
//! heap-page-lifetime fix must show up in end-of-run residency (the
//! golden check behind the re-derived §6.2.5 numbers).

use r2c_core::{R2cCompiler, R2cConfig};
use r2c_vm::{ExitStatus, MachineKind, Perms, TraceConfig, Vm, VmConfig, PAGE_SIZE};
use r2c_workloads::{spec_workloads, Scale, ServerKind};

/// Runs the image twice on `machine` — untraced and traced — asserting
/// bit-identical stats, and returns the traced VM for inspection.
fn run_traced_checked(image: &r2c_vm::Image, machine: MachineKind) -> Vm {
    let cfg = VmConfig::new(machine.config());
    let mut plain = Vm::new(image, cfg);
    let untraced = plain.run();
    assert!(matches!(untraced.status, ExitStatus::Exited(_)));

    let mut vm = Vm::new(image, cfg);
    vm.enable_trace(image, TraceConfig::default());
    let traced = vm.run();
    assert_eq!(traced.status, untraced.status);
    assert_eq!(
        traced.stats,
        untraced.stats,
        "tracing must not perturb the simulation ({})",
        machine.name()
    );
    vm
}

/// Zero-overhead-when-off contract, spec-style workload, all machines.
#[test]
fn tracing_is_invisible_on_spec_workload() {
    let w = &spec_workloads(Scale::Test)[4]; // omnetpp: call-heavy
    let image = R2cCompiler::new(R2cConfig::full(7))
        .build(&w.module)
        .unwrap();
    for machine in MachineKind::ALL {
        run_traced_checked(&image, machine);
    }
}

/// Same contract on the web server, whose BTDP constructor exercises
/// the malloc/free/mprotect natives the tracer hooks.
#[test]
fn tracing_is_invisible_on_webserver() {
    let module = r2c_workloads::webserver_module(ServerKind::Nginx, 100);
    let image = R2cCompiler::new(R2cConfig::full(3)).build(&module).unwrap();
    let vm = run_traced_checked(&image, MachineKind::I9_9900K);
    let p = vm.trace_profile().unwrap();
    assert!(p.heap.allocs > 0, "ctor allocations must be observed");
    assert!(p.heap.frees > 0, "ctor frees must be observed");
}

/// Fused pairs and block runs must not blur attribution: a traced run
/// on the fused program yields exactly the profile (per-function
/// cycles, calls, folded stacks, heap telemetry, events) of a traced
/// run on the unfused one, where every instruction is its own op.
#[test]
fn traced_profile_is_identical_fused_and_unfused() {
    let omnetpp = &spec_workloads(Scale::Test)[4];
    let nginx = r2c_workloads::webserver_module(ServerKind::Nginx, 100);
    for (name, module, seed) in [("omnetpp", &omnetpp.module, 7), ("nginx", &nginx, 3)] {
        let image = R2cCompiler::new(R2cConfig::full(seed))
            .build(module)
            .unwrap();
        for machine in MachineKind::ALL {
            let profile = |no_fuse: bool| {
                let cfg = VmConfig {
                    no_fuse,
                    ..VmConfig::new(machine.config())
                };
                let mut vm = Vm::new(&image, cfg);
                vm.enable_trace(&image, TraceConfig::default());
                assert!(matches!(vm.run().status, ExitStatus::Exited(_)));
                vm.trace_profile().unwrap().to_json()
            };
            assert!(
                profile(false) == profile(true),
                "traced profiles differ fused vs unfused ({name}, {})",
                machine.name()
            );
        }
    }
}

/// Attribution completeness: every cycle and instruction lands in
/// exactly one per-function row, and the folded stacks account for the
/// same cycle total.
#[test]
fn attribution_is_complete() {
    let w = &spec_workloads(Scale::Test)[3]; // lbm
    let image = R2cCompiler::new(R2cConfig::full(11))
        .build(&w.module)
        .unwrap();
    let vm = run_traced_checked(&image, MachineKind::EpycRome);
    let p = vm.trace_profile().unwrap();
    let cycle_sum: u64 = p.funcs.iter().map(|f| f.self_cycles).sum();
    let insn_sum: u64 = p.funcs.iter().map(|f| f.instructions).sum();
    assert_eq!(cycle_sum, p.totals.cycles, "self cycles must sum to total");
    assert_eq!(insn_sum, p.totals.instructions);
    let folded_sum: u64 = p.folded.iter().map(|(_, c)| c).sum();
    assert_eq!(
        folded_sum, p.totals.cycles,
        "folded stacks must cover all cycles"
    );
    assert!(!p.folded_stacks().is_empty());
    // Function rows are sorted for the report: hottest first.
    for w in p.funcs.windows(2) {
        assert!(w[0].self_cycles >= w[1].self_cycles);
    }
}

/// The golden check behind the re-derived memory numbers (§6.2.5,
/// EXPERIMENTS.md): after a full-R²C web-server run, the freed BTDP
/// pool pages must no longer be resident — end-of-run heap residency is
/// kept guards + quarantine + live data, strictly below the pool size —
/// while the kept guard pages are still mapped with no permissions.
#[test]
fn freed_btdp_pool_pages_are_not_resident_after_run() {
    let module = r2c_workloads::webserver_module(ServerKind::Nginx, 100);
    let cfg = R2cConfig::full(1);
    let btdp = cfg.diversify.btdp.unwrap();
    let (image, info) = R2cCompiler::new(cfg).build_with_info(&module).unwrap();
    let mut vm = Vm::new(&image, VmConfig::new(MachineKind::I9_9900K.config()));
    let out = vm.run();
    assert!(matches!(out.status, ExitStatus::Exited(_)));

    let heap_pages = vm
        .mem
        .mapped_pages_in(image.layout.heap_base, image.layout.heap_size);
    let guard_pages = heap_pages
        .iter()
        .filter(|&&(_, p)| p == Perms::NONE)
        .count();
    // All kept chunks (and the quarantine tail) are guard pages...
    assert!(
        guard_pages >= btdp.kept_pages as usize,
        "kept BTDP chunks must stay mapped as guards: {guard_pages} < {}",
        btdp.kept_pages
    );
    // ...but the freed pool pages have been released: total heap
    // residency stays below the pool the constructor cycled through.
    let live_pages = vm
        .heap
        .live_allocations()
        .map(|(a, s)| ((a + s).div_ceil(PAGE_SIZE) - a / PAGE_SIZE) as usize)
        .sum::<usize>();
    assert!(
        heap_pages.len() <= live_pages + r2c_vm::heap::DEFAULT_QUARANTINE_PAGES,
        "resident heap pages {} exceed live {} + quarantine — freed pool \
         pages leaked back into the resident set",
        heap_pages.len(),
        live_pages
    );
    assert!(
        heap_pages.len() < btdp.pool_pages as usize + live_pages - btdp.kept_pages as usize,
        "freed pool pages still resident"
    );
    let _ = info;
    vm.heap.check_invariants(&vm.mem).unwrap();
}
