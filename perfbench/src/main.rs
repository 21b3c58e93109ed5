//! The repository benchmark. Run it through `perfbench/run.py`, which
//! builds this package and adds the peak host RSS:
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `compile-fresh` and `fleet-respawn`, the two in
//! `BENCHMARK.json`, and `sim-steady`, which is left out of it because
//! its host time follows the host's speed states; run this binary
//! directly for it (see NOTES.md). With `--trace 0`
//! the result line carries the end-to-end metrics; with `--trace 1` the
//! run is split into an untraced and a traced half and the result line
//! carries the per-layer metrics and the ledger. `--pin` prints the
//! expectations file `pinned.txt` from the current code.
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod compile;
mod fleet;
mod pinned;
mod sim;
mod util;

use util::Metrics;

/// What one run produced: operations attempted and failed, and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--pin") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// Per-layer metrics every traced run reports; a layer a workload does
/// not exercise reads 0.
fn per_layer_defaults(m: &mut Metrics) {
    const NAMES: [(&str, &str); 46] = [
        ("ledger.ir_ms", "ms"),
        ("ledger.codegen_ms", "ms"),
        ("ledger.core_ms", "ms"),
        ("ledger.vm_ms", "ms"),
        ("ledger.unattributed_ms", "ms"),
        ("ledger.wall_ms", "ms"),
        ("ledger.accounted_fraction", "ratio"),
        ("ledger.trace_overhead_ratio", "ratio"),
        ("ir.verify_us", "us"),
        ("core.inject_btdp_us", "us"),
        ("codegen.lower_us", "us"),
        ("codegen.link_us", "us"),
        ("codegen.image_insns", "count"),
        ("codegen.link_growth_bytes", "bytes"),
        ("codegen.btra_sites", "count"),
        ("codegen.btdp_stores", "count"),
        ("codegen.booby_traps", "count"),
        ("vm.decode_us", "us"),
        ("vm.decoded_ops", "count"),
        ("vm.fused_op_share", "ratio"),
        ("vm.exec_ms", "ms"),
        ("vm.cow_private_frames", "count"),
        ("vm.runs_entered", "count"),
        ("vm.run_rollbacks", "count"),
        ("vm.slow_path_handoffs", "count"),
        ("vm.sim_insns", "count"),
        ("vm.sim_cycles", "deci-cycles"),
        ("core.boot_compile_ms", "ms"),
        ("core.pool.take_ms", "ms"),
        ("core.pool.warm_takes", "count"),
        ("core.pool.inflight_takes", "count"),
        ("core.pool.cold_takes", "count"),
        ("core.pool.warm_ratio", "ratio"),
        ("core.pool.prefetch_used_ratio", "ratio"),
        ("serve.fleet_ms", "ms"),
        ("serve.unattributed_ms", "ms"),
        ("serve.host_us_per_event", "us"),
        ("serve.events", "count"),
        ("serve.served", "count"),
        ("serve.dropped", "count"),
        ("serve.restarts", "count"),
        ("serve.respawns", "count"),
        ("serve.detections", "count"),
        ("serve.compromises", "count"),
        ("serve.log_lines", "count"),
        ("serve.sim_latency_p99_cycles", "cycles"),
    ];
    for (name, unit) in NAMES {
        m.0.entry(name.to_string()).or_insert((0.0, unit));
    }
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .0
        .iter()
        .map(|(k, (v, unit))| {
            // `{:?}` prints every digit of an f64 and always yields a
            // valid JSON number for finite values.
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let all_finite = o.metrics.0.values().all(|(v, _)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && all_finite && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{}", pinned::HEADER);
            sim::pin();
            fleet::pin(&fleet::RESPAWN);
            return;
        }
        Err(e) => {
            eprintln!("r2c-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = match args.workload.as_str() {
        "sim-steady" => sim::run(args.seed, args.seconds, args.trace),
        "compile-fresh" => compile::run(args.seed, args.seconds, args.trace),
        "fleet-respawn" => fleet::run(&fleet::RESPAWN, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("r2c-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if args.trace {
        per_layer_defaults(&mut outcome.metrics);
    } else {
        // The end-to-end metrics; `run.py` adds `host_rss_peak_mb`.
        const END_TO_END: [&str; 3] = ["setup_s", "throughput_per_s", "latency_ms"];
        outcome
            .metrics
            .0
            .retain(|k, _| END_TO_END.contains(&k.as_str()));
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "operations: {} attempted, {} failed (failed share {failed_share:.4})",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_json(&outcome));
}
