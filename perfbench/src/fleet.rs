//! `fleet-respawn`, open loop in simulated time: arrivals are
//! precomputed, so the host-side generator has no lag to report. 1024
//! workers, `RespawnFreshVariant`, 15% probes, ~8 events per worker —
//! the §7.3 deployment, stressing the variant pool, the compiler and
//! decode-on-respawn.

use std::time::{Duration, Instant};

use r2c_attacks::victim::victim_module;
use r2c_core::{R2cConfig, TakeKind};
use r2c_ir::Module;
use r2c_serve::{
    run_fleet, variant_seed, ExecMode, FleetConfig, FleetRun, ReactionPolicy, Schedule,
};
use r2c_vm::{Vm, VmConfig};

use crate::pinned;
use crate::util::{
    build_traced, median, percentile, sorted, spread_setups, timed, timing_line, CompileStats, Fnv,
    Layer, Ledger, Metrics, VmCounts,
};
use crate::Outcome;

/// Points of a `--trace 0` run at which set-ups run
/// (`spread_setups`); `setup_s` is the fastest set-up.
const SETUPS: usize = 10;

/// Background compile threads of the variant pool, fixed rather than
/// derived from the host so runs compare across machines.
pub const POOL_THREADS: usize = 1;

pub struct Mix {
    pub name: &'static str,
    workers: u32,
    events_per_worker: usize,
    probe_per_mille: u32,
    policy: ReactionPolicy,
}

pub const RESPAWN: Mix = Mix {
    name: "fleet-respawn",
    workers: 1024,
    events_per_worker: 8,
    probe_per_mille: 150,
    policy: ReactionPolicy::RespawnFreshVariant,
};

struct Setup {
    module: Module,
    fc: FleetConfig,
    schedule: Schedule,
    report: r2c_core::CompileReport,
    vm: VmCounts,
}

/// Module, arrival-rate calibration, schedule, and the first compile
/// and decode of one variant.
fn setup(mix: &Mix, seed: u64) -> Setup {
    let module = victim_module();
    let build = R2cConfig::full(0);
    // Calibrate the mean arrival gap from the deterministic cost of a
    // request, for ~50% utilisation: with mean service time S cycles
    // and W workers, a global mean gap of 2S/W keeps the fleet half
    // loaded (the calibration of `report_fleet`). The cost is the same
    // for any pool size, so the pool gets no threads, which keeps
    // thread start-up out of the set-up time.
    let calib = run_fleet(
        &module,
        &FleetConfig {
            pool_threads: 0,
            ..FleetConfig::new(build, ReactionPolicy::RespawnFreshVariant)
        },
        &Schedule::generate(0xCA11, 4, 64, 0),
        ExecMode::Serial,
    );
    let service = calib.metrics.cycles_per_request().max(1.0);
    let gap = ((2.0 * service / mix.workers as f64) as u64).max(1);
    let events = mix.workers as usize * mix.events_per_worker;
    let schedule =
        Schedule::generate_open_loop(seed, mix.workers, events, mix.probe_per_mille, gap);
    let fc = FleetConfig {
        fleet_seed: seed,
        pool_threads: POOL_THREADS,
        ..FleetConfig::new(build, mix.policy).sized_for(mix.workers)
    };
    let (image, report) = build_traced(
        &module,
        build.with_seed(variant_seed(seed, 0, 0)),
        &mut Ledger::default(),
    )
    .expect("the victim compiles");
    let mut vm = VmCounts::default();
    let (first, d) = timed(|| Vm::new(&image, VmConfig::new(fc.machine.config())));
    vm.decode_us.push(d.as_secs_f64() * 1e6);
    vm.add_decoded(&first);
    Setup {
        module,
        fc,
        schedule,
        report,
        vm,
    }
}

/// Digest of everything a fleet run must reproduce exactly.
fn digest(run: &FleetRun) -> u64 {
    let mut h = Fnv::new();
    for line in &run.log {
        h.bytes(line.as_bytes());
        h.bytes(b"\n");
    }
    h.bytes(format!("{:?}", run.metrics).as_bytes());
    for &l in &run.request_latencies {
        h.u64(l);
    }
    h.finish()
}

/// Host-side figures of one fleet run.
struct Sample {
    wall: Duration,
    served: u64,
    boot: Duration,
    takes: Duration,
    respawn_ms: Vec<f64>,
    kinds: [u64; 3],
}

fn sample(run: &FleetRun, wall: Duration) -> Sample {
    let mut kinds = [0u64; 3];
    for r in &run.respawn_latencies {
        kinds[match r.kind {
            TakeKind::Warm => 0,
            TakeKind::InFlight => 1,
            TakeKind::Cold => 2,
        }] += 1;
    }
    Sample {
        wall,
        served: run.metrics.served,
        boot: run.boot_compiles.iter().sum(),
        takes: run.respawn_latencies.iter().map(|r| r.latency).sum(),
        respawn_ms: run
            .respawn_latencies
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect(),
        kinds,
    }
}

#[derive(Default)]
struct Loop {
    samples: Vec<Sample>,
    last: Option<FleetRun>,
    attempted: u64,
    failed: u64,
}

impl Loop {
    fn last(&self) -> &FleetRun {
        self.last.as_ref().expect("at least one fleet run")
    }
}

/// Runs the schedule at least once, and again while another run of
/// the same length would end at most half a run past `budget`, checking
/// each run's digest against `expect` and adding it to `out`.
fn measure(s: &Setup, mode: ExecMode, budget: Duration, expect: u64, mix: &Mix, out: &mut Loop) {
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let run = run_fleet(&s.module, &s.fc, &s.schedule, mode);
        let wall = t0.elapsed();
        out.attempted += 1;
        if digest(&run) != expect {
            eprintln!(
                "FAIL {}: {mode:?} run diverged from the reference run",
                mix.name
            );
            out.failed += 1;
        }
        out.samples.push(sample(&run, wall));
        out.last = Some(run);
        if start.elapsed() + wall / 2 > budget {
            return;
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Served requests per host second, per run.
fn rates(l: &Loop) -> Vec<f64> {
    l.samples
        .iter()
        .map(|s| s.served as f64 / s.wall.as_secs_f64())
        .collect()
}

/// The serial reference run every other run must reproduce; it must
/// match the pinned digest where one exists. Returns its digest.
fn reference(mix: &Mix, s: &Setup, seed: u64, outcome: &mut Outcome) -> u64 {
    println!(
        "{}: {} workers, {} events, {}‰ probes, policy {}, parallel runs, pool_threads {}, nproc {}",
        mix.name,
        mix.workers,
        s.schedule.events.len(),
        mix.probe_per_mille,
        mix.policy.name(),
        POOL_THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let expect = digest(&run_fleet(&s.module, &s.fc, &s.schedule, ExecMode::Serial));
    outcome.attempted += 1;
    match pinned::fleet_digest(mix.name, seed) {
        Some(pin) if pin == expect => {
            println!("serial digest {expect:016x} matches the pinned digest")
        }
        Some(pin) => {
            eprintln!(
                "FAIL {}: serial digest {expect:016x}, pinned {pin:016x}",
                mix.name
            );
            outcome.failed += 1;
        }
        None => println!("serial digest {expect:016x} (seed {seed} has no pinned digest)"),
    }
    expect
}

pub fn run(mix: &Mix, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let budget = Duration::from_secs_f64(seconds);
    let (s, l) = if !trace {
        let mut l = Loop::default();
        let mut expect = None;
        let (s, setup_s) = spread_setups(
            SETUPS,
            budget,
            || setup(mix, seed),
            |s, slice| {
                let expect = *expect.get_or_insert_with(|| reference(mix, s, seed, &mut outcome));
                measure(s, ExecMode::Parallel, slice, expect, mix, &mut l);
            },
        );
        outcome.attempted += l.attempted;
        outcome.failed += l.failed;
        let rates = rates(&l);
        // A respawn's image take is the latency a user of the fleet
        // waits for. The metrics take the best run: the host alternates
        // between states of different speed (NOTES.md), and a median
        // over runs follows the time spent in each.
        let takes: Vec<f64> = l
            .samples
            .iter()
            .flat_map(|s| s.respawn_ms.iter().copied())
            .collect();
        let run_p50s: Vec<f64> = l.samples.iter().map(|s| median(&s.respawn_ms)).collect();
        let best_rate = rates.iter().copied().fold(0.0, f64::max);
        let best_p50 = run_p50s.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "fleet_req_per_s: best {best_rate:.1}, median {:.1} over {} runs",
            median(&rates),
            rates.len()
        );
        let walls: Vec<f64> = l.samples.iter().map(|s| ms(s.wall)).collect();
        println!("{}", timing_line("run_fleet wall", "ms", &walls));
        println!("{}", timing_line("respawn_ms (image take)", "ms", &takes));
        println!("respawn_ms p50 of the best run: {best_p50:.4} ms");
        let m = &mut outcome.metrics;
        m.set("setup_s", setup_s, "s");
        m.set("throughput_per_s", best_rate, "1/s");
        m.set("latency_ms", best_p50, "ms");
        (s, l)
    } else {
        let s = setup(mix, seed);
        let expect = reference(mix, &s, seed, &mut outcome);
        // Serial in both halves: the traced serial run's boot compiles,
        // takes and remainder add up to its wall time, and the untraced
        // half is the same mode, so the difference is the tracing cost.
        let mut plain = Loop::default();
        measure(&s, ExecMode::Serial, budget / 2, expect, mix, &mut plain);
        let mut traced = Loop::default();
        measure(&s, ExecMode::Serial, budget / 2, expect, mix, &mut traced);
        outcome.attempted += plain.attempted + traced.attempted;
        outcome.failed += plain.failed + traced.failed;
        let mut ledger = Ledger::default();
        for t in &traced.samples {
            ledger.add(Layer::Core, t.boot + t.takes);
            ledger.add_wall(t.wall);
        }
        let walls = |l: &Loop| l.samples.iter().map(|s| ms(s.wall)).collect::<Vec<_>>();
        let m = &mut outcome.metrics;
        ledger.report(m, median(&walls(&plain)), median(&walls(&traced)));
        report_fleet(m, mix, &s, &traced);
        (s, traced)
    };
    let m = &mut outcome.metrics;
    let lat: Vec<f64> = l
        .last()
        .request_latencies
        .iter()
        .map(|&c| c as f64)
        .collect();
    let p99 = percentile(&sorted(&lat), 0.99);
    println!("sim_latency_p99_cycles: {p99} (deterministic)");
    if trace {
        m.set("serve.sim_latency_p99_cycles", p99 as f64, "cycles");
    }
    let mut compile = CompileStats::default();
    compile.add_passes(&s.report);
    compile.add_counts(&s.report);
    compile.report(m);
    s.vm.report(m);
    outcome
}

/// The `core.*` and `serve.*` per-layer metrics of the traced runs.
fn report_fleet(m: &mut Metrics, mix: &Mix, s: &Setup, l: &Loop) {
    let med = |f: &dyn Fn(&Sample) -> f64| median(&l.samples.iter().map(f).collect::<Vec<_>>());
    let takes = |s: &Sample| s.kinds.iter().sum::<u64>() as f64;
    let events = s.schedule.events.len() as f64;
    let fm = &l.last().metrics;
    m.set("core.boot_compile_ms", med(&|s| ms(s.boot)), "ms");
    m.set("core.pool.take_ms", med(&|s| ms(s.takes)), "ms");
    m.set("core.pool.warm_takes", med(&|s| s.kinds[0] as f64), "count");
    m.set(
        "core.pool.inflight_takes",
        med(&|s| s.kinds[1] as f64),
        "count",
    );
    m.set("core.pool.cold_takes", med(&|s| s.kinds[2] as f64), "count");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set(
        "core.pool.warm_ratio",
        med(&|s| ratio(s.kinds[0] as f64, takes(s))),
        "ratio",
    );
    // Prefetches announced: one per worker up front, one per respawn.
    let announced = (mix.workers as u64 + fm.respawns) as f64;
    let used = med(&|s| (s.kinds[0] + s.kinds[1]) as f64);
    m.set("core.pool.prefetch_used_ratio", used / announced, "ratio");
    m.set("serve.fleet_ms", med(&|s| ms(s.wall)), "ms");
    m.set(
        "serve.unattributed_ms",
        med(&|s| ms(s.wall.saturating_sub(s.boot + s.takes))),
        "ms",
    );
    m.set(
        "serve.host_us_per_event",
        med(&|s| ms(s.wall) * 1e3 / events),
        "us",
    );
    m.set("serve.events", events, "count");
    m.set("serve.served", fm.served as f64, "count");
    m.set("serve.dropped", fm.dropped as f64, "count");
    m.set("serve.restarts", fm.restarts as f64, "count");
    m.set("serve.respawns", fm.respawns as f64, "count");
    m.set("serve.detections", fm.detections as f64, "count");
    m.set("serve.compromises", fm.compromises as f64, "count");
    m.set("serve.log_lines", l.last().log.len() as f64, "count");
}

/// Pinned digests of the serial reference run for the pinned seeds.
pub fn pin(mix: &Mix) {
    for seed in pinned::FLEET_SEEDS.chain([pinned::HELD_OUT_SEED]) {
        let s = setup(mix, seed);
        let run = run_fleet(&s.module, &s.fc, &s.schedule, ExecMode::Serial);
        println!("{}", pinned::fleet_line(mix.name, seed, digest(&run)));
    }
}
