//! The r2c-trace profiler driver: builds a workload with compile
//! telemetry, runs it twice per machine model — once untraced, once
//! under the execution tracer — and writes `PROFILE_<workload>.json`
//! with the per-pass compile report, per-function cycle attribution,
//! heap telemetry and the bounded event trace.
//!
//! Every profile run doubles as a three-way self-check of the decoded
//! engine: the fused program (superinstructions and block runs), the
//! unfused one (`no_fuse`, one standalone op per instruction), and the
//! traced run (the tracer-calling copy of the engine on the fused
//! program) must produce [`ExecStats`] that agree in *every* field, or
//! the binary exits non-zero — so CI catches both a tracer that
//! perturbs the simulation and a fused op that drifts from the
//! per-instruction semantics. Folded stacks are additionally written
//! to `PROFILE_<workload>_<machine>.folded`, ready for `flamegraph.pl`.
//!
//! ```text
//! profile [--workload <name>] [--preset baseline|full|push]
//!         [--machine <name>|all] [--scale test|bench|large]
//!         [--requests N] [--seed N]
//! ```
//!
//! `<name>` is one of the 12 SPEC-style workloads (e.g. `omnetpp`) or
//! `nginx`/`apache`. Defaults: `nginx`, `full`, all machines,
//! `--scale bench`, 500 requests, seed 1.

use r2c_core::{R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_vm::{ExecStats, ExitStatus, MachineKind, TraceConfig, Vm, VmConfig};
use r2c_workloads::{spec_workloads, Scale, ServerKind};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn machine_slug(m: MachineKind) -> String {
    m.name()
        .to_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn find_workload(name: &str, scale: Scale, requests: u64) -> Module {
    match name {
        "nginx" => r2c_workloads::webserver_module(ServerKind::Nginx, requests),
        "apache" => r2c_workloads::webserver_module(ServerKind::Apache, requests),
        _ => {
            let workloads = spec_workloads(scale);
            match workloads.into_iter().find(|w| w.name == name) {
                Some(w) => w.module,
                None => {
                    eprintln!(
                        "unknown workload {name:?}; expected nginx, apache, or one of {:?}",
                        spec_workloads(Scale::Test)
                            .iter()
                            .map(|w| w.name)
                            .collect::<Vec<_>>()
                    );
                    std::process::exit(2);
                }
            }
        }
    }
}

/// One field-by-field line per divergence, so a broken tracer is
/// diagnosable from the CI log alone.
fn explain_divergence(untraced: &ExecStats, traced: &ExecStats) {
    let pairs = [
        ("instructions", untraced.instructions, traced.instructions),
        ("cycles", untraced.cycles, traced.cycles),
        ("calls", untraced.calls, traced.calls),
        ("rets", untraced.rets, traced.rets),
        ("native_calls", untraced.native_calls, traced.native_calls),
        (
            "icache_misses",
            untraced.icache_misses,
            traced.icache_misses,
        ),
        ("icache_hits", untraced.icache_hits, traced.icache_hits),
        (
            "max_rss_pages",
            untraced.max_rss_pages as u64,
            traced.max_rss_pages as u64,
        ),
        (
            "avx_transitions",
            untraced.avx_transitions,
            traced.avx_transitions,
        ),
    ];
    for (name, u, t) in pairs {
        if u != t {
            eprintln!("  {name}: untraced {u} != traced {t}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = arg_value(&args, "--workload").unwrap_or_else(|| "nginx".into());
    let preset = arg_value(&args, "--preset").unwrap_or_else(|| "full".into());
    let seed: u64 = arg_value(&args, "--seed").map_or(1, |s| s.parse().expect("--seed"));
    let requests: u64 =
        arg_value(&args, "--requests").map_or(500, |s| s.parse().expect("--requests"));
    let scale = match arg_value(&args, "--scale").as_deref() {
        Some("test") => Scale::Test,
        Some("large") => Scale::Large,
        None | Some("bench") => Scale::Bench,
        Some(other) => {
            eprintln!("unknown scale {other:?}");
            std::process::exit(2);
        }
    };
    let cfg = match preset.as_str() {
        "baseline" => R2cConfig::baseline(seed),
        "full" => R2cConfig::full(seed),
        "push" => R2cConfig::full_push(seed),
        other => {
            eprintln!("unknown preset {other:?}; expected baseline, full or push");
            std::process::exit(2);
        }
    };
    let machines: Vec<MachineKind> = match arg_value(&args, "--machine").as_deref() {
        None | Some("all") => MachineKind::ALL.to_vec(),
        Some(name) => {
            let want: String = name.to_lowercase();
            let found = MachineKind::ALL
                .into_iter()
                .find(|m| machine_slug(*m).contains(&want.replace('-', "_")));
            match found {
                Some(m) => vec![m],
                None => {
                    eprintln!("unknown machine {name:?}");
                    std::process::exit(2);
                }
            }
        }
    };

    let module = find_workload(&workload, scale, requests);
    let (image, _info, report) = R2cCompiler::new(cfg)
        .build_with_report(&module)
        .expect("workload must compile");
    println!(
        "compiled {workload}/{preset} (seed {seed}): {} passes, {} us, text {} -> {} bytes",
        report.passes.len(),
        report.total_wall_us(),
        report.prelink_text_bytes,
        report.image_text_bytes
    );

    let mut entries: Vec<String> = Vec::new();
    for machine in &machines {
        let vm_cfg = VmConfig::new(machine.config());

        let mut plain = Vm::new(&image, vm_cfg);
        let untraced = plain.run();
        assert!(
            matches!(untraced.status, ExitStatus::Exited(_)),
            "untraced run crashed: {:?}",
            untraced.status
        );

        // Second leg of the three-way engine check: the same image on
        // per-instruction decoding (no superinstruction fusion, no
        // block runs) must produce the same simulation bit-for-bit.
        let mut unfused_vm = Vm::new(
            &image,
            VmConfig {
                no_fuse: true,
                ..vm_cfg
            },
        );
        let unfused = unfused_vm.run();
        assert_eq!(unfused.status, untraced.status, "exit status diverged");
        if unfused.stats != untraced.stats {
            eprintln!(
                "FAIL: fused and unfused engines disagree on {} — the \
                 decoded engine's bit-identical contract is broken:",
                machine.name()
            );
            explain_divergence(&untraced.stats, &unfused.stats);
            std::process::exit(1);
        }

        let mut vm = Vm::new(&image, vm_cfg);
        vm.enable_trace(&image, TraceConfig::default());
        let traced = vm.run();
        assert_eq!(traced.status, untraced.status, "exit status diverged");
        if traced.stats != untraced.stats {
            eprintln!(
                "FAIL: tracing perturbed the simulation on {} — the \
                 zero-overhead-when-off contract is broken:",
                machine.name()
            );
            explain_divergence(&untraced.stats, &traced.stats);
            std::process::exit(1);
        }

        let profile = vm.trace_profile().expect("tracer was enabled");
        println!(
            "\n{} — {} cycles, {} insns (traced == untraced == unfused):",
            machine.name(),
            traced.stats.cycles,
            traced.stats.instructions
        );
        println!("  top functions by self cycles:");
        for f in profile.funcs.iter().take(10) {
            println!(
                "    {:<28} {:>14} cycles  {:>11} insns  {:>8} calls  {:>7} i$ miss",
                f.name, f.self_cycles, f.instructions, f.calls, f.icache_misses
            );
        }
        println!(
            "  heap: peak {} live bytes / {} resident pages, end {} bytes / {} pages, \
             {} allocs {} frees, {} pages released, {} quarantined",
            profile.heap.peak_live_bytes,
            profile.heap.peak_resident_pages,
            profile.heap.end_live_bytes,
            profile.heap.end_resident_pages,
            profile.heap.allocs,
            profile.heap.frees,
            profile.heap.released_pages,
            profile.heap.quarantined_pages
        );

        let folded_path = format!("PROFILE_{workload}_{}.folded", machine_slug(*machine));
        std::fs::write(&folded_path, profile.folded_stacks()).expect("write folded stacks");
        println!("  wrote {folded_path}");

        entries.push(format!(
            "    {{\"machine\": \"{}\",\n     \"exec\": {}}}",
            machine.name(),
            profile.to_json().trim_end().replace('\n', "\n     ")
        ));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!("  \"preset\": \"{preset}\",\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!(
        "  \"compile\": {},\n",
        report.to_json().trim_end().replace('\n', "\n  ")
    ));
    json.push_str("  \"machines\": [\n");
    json.push_str(&entries.join(",\n"));
    json.push_str("\n  ]\n}\n");
    let out = format!("PROFILE_{workload}.json");
    std::fs::write(&out, &json).expect("write profile json");
    println!("\nwrote {out}");
}
