//! Shared pieces: seeded RNG, order statistics, digests, the metric
//! map printed as the result line, and the per-layer ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use r2c_core::{BuildError, CompileReport, R2cCompiler, R2cConfig};
use r2c_ir::Module;
use r2c_vm::Image;

/// splitmix64: the benchmark's only source of randomness, so every
/// input is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of an ascending slice, `q` in (0, 1].
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of zero samples");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of zero samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of zero values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The highest of p99.9 / p99 / p90 that has at least ten samples
/// beyond it, as a label and value; `None` below 100 samples.
pub fn tail(sorted_xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, q)| sorted_xs.len() as f64 * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, percentile(sorted_xs, q)))
}

/// One timing line of the human-readable report: median, the tail
/// percentile that has ten samples beyond it, and the sample count.
pub fn timing_line(name: &str, unit: &str, xs: &[f64]) -> String {
    let s = sorted(xs);
    let tail = match tail(&s) {
        Some((label, v)) => format!("{label} {v:.4}"),
        None => format!(
            "max {:.4} (no percentile has 10 samples beyond it)",
            s[s.len() - 1]
        ),
    };
    format!(
        "{name}: median {:.4} {unit}, {tail}, n={}",
        median(xs),
        s.len()
    )
}

/// FNV-1a, 64 bit: a stable digest for pinned expectations.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Metrics of the result line, by name, with unit.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// The layers the ledger attributes host time to: the workspace crates
/// the benchmark calls into. `serve` has no entry because `run_fleet`
/// exposes only boot-compile and pool-take times; the rest of a fleet
/// run is reported as unattributed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Ir,
    Codegen,
    Core,
    Vm,
}

pub const LAYERS: [Layer; 4] = [Layer::Ir, Layer::Codegen, Layer::Core, Layer::Vm];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Ir => "ir",
            Layer::Codegen => "codegen",
            Layer::Core => "core",
            Layer::Vm => "vm",
        }
    }
}

/// Self time per layer inside a traced window, from timers the
/// benchmark places around its own calls into each crate.
#[derive(Default)]
pub struct Ledger {
    self_ns: [u64; 4],
    wall_ns: u64,
}

impl Ledger {
    pub fn add(&mut self, layer: Layer, d: Duration) {
        self.self_ns[layer as usize] += d.as_nanos() as u64;
    }

    pub fn add_wall(&mut self, d: Duration) {
        self.wall_ns += d.as_nanos() as u64;
    }

    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    pub fn accounted_ms(&self) -> f64 {
        LAYERS.iter().map(|&l| self.self_ms(l)).sum()
    }

    /// Prints the ledger and stores its per-layer metrics.
    /// `untraced_ms`/`traced_ms` are the median end-to-end job times of
    /// the untraced and traced halves of the run.
    pub fn report(&self, m: &mut Metrics, untraced_ms: f64, traced_ms: f64) {
        let wall = self.wall_ms();
        let unattributed = (wall - self.accounted_ms()).max(0.0);
        println!("ledger (traced window {wall:.3} ms wall):");
        for l in LAYERS {
            let ms = self.self_ms(l);
            println!(
                "  {:<13} self {ms:>11.3} ms  {:>6.2}% of wall",
                l.name(),
                100.0 * ms / wall
            );
            m.set(format!("ledger.{}_ms", l.name()), ms, "ms");
        }
        println!(
            "  {:<13} self {unattributed:>11.3} ms  {:>6.2}% of wall",
            "unattributed",
            100.0 * unattributed / wall
        );
        let accounted = self.accounted_ms() / wall;
        let overhead = traced_ms / untraced_ms;
        println!(
            "  accounted fraction {accounted:.4}; tracing overhead: job {untraced_ms:.4} ms untraced, \
             {traced_ms:.4} ms traced (x{overhead:.4})"
        );
        m.set("ledger.unattributed_ms", unattributed, "ms");
        m.set("ledger.wall_ms", wall, "ms");
        m.set("ledger.accounted_fraction", accounted, "ratio");
        m.set("ledger.trace_overhead_ratio", overhead, "ratio");
    }
}

/// Set-ups back to back at each point of [`spread_setups`].
const SETUPS_PER_POINT: usize = 3;

/// Runs set-ups at `n` points spread over `budget`, each point followed
/// by `work` on the last set-up for an n-th of the budget, and returns
/// the last set-up with the fastest set-up time in seconds. The host
/// alternates between states of different speed that last seconds to
/// minutes (NOTES.md): set-ups bunched at the start of a run would all
/// see one state. A set-up of a few milliseconds also varies with the
/// page faults it takes, so each point runs [`SETUPS_PER_POINT`] of
/// them. The previous set-up is dropped before the next starts, so
/// caches holding weak entries (the decode cache) miss every time.
pub fn spread_setups<S>(
    n: usize,
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(&mut S, Duration),
) -> (S, f64) {
    let mut best = f64::INFINITY;
    let mut last: Option<S> = None;
    for _ in 0..n {
        for _ in 0..SETUPS_PER_POINT {
            drop(last.take());
            let (fresh, d) = timed(&mut setup);
            best = best.min(d.as_secs_f64());
            last = Some(fresh);
        }
        work(last.as_mut().expect("a set-up"), budget / n as u32);
    }
    (last.expect("at least one set-up"), best)
}

/// Runs `f` and returns its result with its wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// One compile through the user-facing `build` entry point: what a
/// load-time re-randomization pays.
pub fn build(module: &Module, cfg: R2cConfig) -> Result<Image, BuildError> {
    R2cCompiler::new(cfg).build(module)
}

/// One compile through `build_with_report`, whose per-pass wall times
/// split the compile over the `ir`, `core` and `codegen` layers; the
/// remainder of the call is the `core` facade's own time.
pub fn build_traced(
    module: &Module,
    cfg: R2cConfig,
    ledger: &mut Ledger,
) -> Result<(Image, CompileReport), BuildError> {
    let (out, d) = timed(|| R2cCompiler::new(cfg).build_with_report(module));
    let (image, _, report) = match out {
        Ok(v) => v,
        Err(e) => {
            ledger.add(Layer::Core, d);
            return Err(e);
        }
    };
    let mut passes = Duration::ZERO;
    for p in &report.passes {
        let pd = Duration::from_micros(p.wall_us);
        passes += pd;
        ledger.add(pass_layer(p.pass), pd);
    }
    ledger.add(Layer::Core, d.saturating_sub(passes));
    Ok((image, report))
}

/// The crate a `CompileReport` pass runs in.
fn pass_layer(pass: &str) -> Layer {
    match pass {
        "verify" => Layer::Ir,
        "lower" | "link" => Layer::Codegen,
        // inject-btdp lives in core; the check passes are off in the
        // release configuration and would be r2c-check's, which the
        // ledger does not list.
        _ => Layer::Core,
    }
}

/// Per-pass wall times and emission counts gathered from compile
/// reports, reported as the `ir.*`, `core.*` and `codegen.*` metrics.
#[derive(Default)]
pub struct CompileStats {
    pass_us: BTreeMap<&'static str, Vec<f64>>,
    image_insns: u64,
    link_growth_bytes: u64,
    btra_sites: u64,
    btdp_stores: u64,
    booby_traps: u64,
}

impl CompileStats {
    /// Pass times from every compile report.
    pub fn add_passes(&mut self, r: &CompileReport) {
        for p in &r.passes {
            self.pass_us
                .entry(p.pass)
                .or_default()
                .push(p.wall_us as f64);
        }
    }

    /// Emission counts; added only for a fixed set of compiles so the
    /// sums repeat exactly.
    pub fn add_counts(&mut self, r: &CompileReport) {
        self.image_insns += r.image_insns;
        self.link_growth_bytes += r.link_growth_bytes();
        for f in &r.funcs {
            self.btra_sites += f.btra_sites as u64;
            self.btdp_stores += f.btdp_stores as u64;
        }
        self.booby_traps += r.booby_traps as u64;
    }

    pub fn report(&self, m: &mut Metrics) {
        for (metric, pass) in [
            ("ir.verify_us", "verify"),
            ("core.inject_btdp_us", "inject-btdp"),
            ("codegen.lower_us", "lower"),
            ("codegen.link_us", "link"),
        ] {
            let v = self.pass_us.get(pass).map_or(0.0, |xs| median(xs));
            m.set(metric, v, "us");
        }
        m.set("codegen.image_insns", self.image_insns as f64, "count");
        m.set(
            "codegen.link_growth_bytes",
            self.link_growth_bytes as f64,
            "bytes",
        );
        m.set("codegen.btra_sites", self.btra_sites as f64, "count");
        m.set("codegen.btdp_stores", self.btdp_stores as f64, "count");
        m.set("codegen.booby_traps", self.booby_traps as f64, "count");
    }
}

/// Decoded-op kinds that execute one guest instruction; every other
/// kind is a fused pair, a quad form or a block `Run`.
const SINGLE_OPS: [&str; 32] = [
    "MovImm",
    "MovReg",
    "Load",
    "Store",
    "StoreImm",
    "Lea",
    "Push",
    "PushImm",
    "Pop",
    "AluReg",
    "AluImm",
    "Div",
    "Rem",
    "CmpReg",
    "CmpImm",
    "Test",
    "SetCc",
    "LoadAbs",
    "VLoadAbs",
    "Call",
    "CallInd",
    "CallNative",
    "Ret",
    "Jmp",
    "JmpInd",
    "Jcc",
    "Nop",
    "Trap",
    "VLoad",
    "VStore",
    "VZeroUpper",
    "Halt",
];

/// VM-side counts over a fixed set of programs, each decoded once and
/// run once: the `vm.*` evidence counters.
#[derive(Default)]
pub struct VmCounts {
    pub decode_us: Vec<f64>,
    decoded_ops: u64,
    fused_ops: u64,
    cow_private_frames: u64,
    runs_entered: u64,
    run_rollbacks: u64,
    slow_path_handoffs: u64,
    sim_insns: u64,
    sim_cycles: u64,
}

impl VmCounts {
    pub fn add_decoded(&mut self, vm: &r2c_vm::Vm) {
        for (kind, n) in vm.op_kind_counts() {
            self.decoded_ops += n;
            if !SINGLE_OPS.contains(&kind) {
                self.fused_ops += n;
            }
        }
    }

    /// Counters of one completed run on `vm`.
    pub fn add_run(&mut self, vm: &r2c_vm::Vm, stats: &r2c_vm::ExecStats) {
        let e = vm.edge_stats();
        self.cow_private_frames += vm.mem.private_frames() as u64;
        self.runs_entered += e.runs_entered;
        self.run_rollbacks += e.run_rollbacks;
        self.slow_path_handoffs += e.slow_path_handoffs;
        self.sim_insns += stats.instructions;
        self.sim_cycles += stats.cycles;
    }

    pub fn report(&self, m: &mut Metrics) {
        let decode = if self.decode_us.is_empty() {
            0.0
        } else {
            median(&self.decode_us)
        };
        m.set("vm.decode_us", decode, "us");
        m.set("vm.decoded_ops", self.decoded_ops as f64, "count");
        let share = if self.decoded_ops == 0 {
            0.0
        } else {
            self.fused_ops as f64 / self.decoded_ops as f64
        };
        m.set("vm.fused_op_share", share, "ratio");
        m.set(
            "vm.cow_private_frames",
            self.cow_private_frames as f64,
            "count",
        );
        m.set("vm.runs_entered", self.runs_entered as f64, "count");
        m.set("vm.run_rollbacks", self.run_rollbacks as f64, "count");
        m.set(
            "vm.slow_path_handoffs",
            self.slow_path_handoffs as f64,
            "count",
        );
        m.set("vm.sim_insns", self.sim_insns as f64, "count");
        m.set("vm.sim_cycles", self.sim_cycles as f64, "deci-cycles");
    }
}
