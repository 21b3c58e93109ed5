//! Coverage feedback for the differential fuzzer.
//!
//! A fixed-size AFL-style bitmap fed from three feature sources:
//!
//! * **compiler edges** — [`r2c_core::CompileReport::coverage_features`]
//!   (passes run, log2-bucketed instrumentation counters) plus, when a
//!   build is rejected, one feature per `r2c-check` finding kind
//!   ([`r2c_check::CheckKind::name`], including the decode-TV class
//!   buckets);
//! * **VM edges** — execution statistics, engine-path counters
//!   ([`r2c_vm::EdgeStats`]: block runs, mid-run rollbacks, budget
//!   edges), the decoded-op (lowering-template / fusion-pattern)
//!   histogram, fault and detection kinds;
//! * **IR shape** — CFG features of the generated module itself
//!   (diamonds, loops and their nesting, direct/mutual recursion,
//!   indirect calls, extern boundaries, funcptr globals).
//!
//! Features are strings hashed (FNV-1a) into a `2^14`-bit map. Counter
//! features are bucketed by [`r2c_core::coverage_bucket`] before
//! hashing, so a case only lights a new bit when it moves a counter
//! into a new magnitude class. Everything is deterministic: same module
//! and build seed ⇒ same feature set ⇒ same bits.

use r2c_core::{coverage_bucket, observe_variant, BuildError, R2cConfig};
use r2c_ir::{GlobalInit, Inst, Module, Term};
use r2c_vm::{Detection, ExitStatus, Fault, MachineKind};

use crate::oracle::VARIANT_INSN_BUDGET;

/// Size of the coverage bitmap in bits (power of two).
pub const MAP_BITS: usize = 1 << 14;

/// The fuzzer's accumulated coverage: one bit per hashed feature.
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    bits: Vec<u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap {
            bits: vec![0u64; MAP_BITS / 64],
        }
    }

    /// Number of bits set.
    pub fn population(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the bit for `idx` set?
    pub fn contains(&self, idx: usize) -> bool {
        self.bits[(idx % MAP_BITS) / 64] & (1 << (idx % 64)) != 0
    }

    /// Sets the bit for `idx`; true if it was previously clear.
    fn set(&mut self, idx: usize) -> bool {
        let (w, m) = ((idx % MAP_BITS) / 64, 1u64 << (idx % 64));
        let fresh = self.bits[w] & m == 0;
        self.bits[w] |= m;
        fresh
    }

    /// How many bits of `cov` are not yet in the map (without merging).
    pub fn new_bits(&self, cov: &CaseCoverage) -> usize {
        let mut seen = std::collections::HashSet::new();
        cov.features
            .iter()
            .map(|f| feature_index(f))
            .filter(|&i| !self.contains(i) && seen.insert(i))
            .count()
    }

    /// Merges `cov` into the map; returns the number of newly set bits.
    pub fn merge(&mut self, cov: &CaseCoverage) -> usize {
        cov.features
            .iter()
            .map(|f| feature_index(f))
            .filter(|&i| self.set(i))
            .count()
    }
}

/// The coverage features one case produced (kept as strings so reports
/// and tests can see *what* was covered, not just which bit).
#[derive(Clone, Debug)]
pub struct CaseCoverage {
    /// Feature tokens; hash to map indices via [`feature_index`].
    pub features: Vec<String>,
}

/// Map index of one feature token (FNV-1a 64, reduced mod the map
/// size).
pub fn feature_index(feature: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in feature.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % MAP_BITS as u64) as usize
}

/// Full coverage extraction for one case: IR-shape features plus one
/// instrumented build + run of the `full` config under `build_seed` on
/// the default machine.
///
/// The instrumented cell is deliberately a *single* cell, not the whole
/// oracle matrix: coverage extraction must stay cheap enough to run on
/// every campaign case, and the `full` config exercises every
/// instrumentation source the map tracks.
pub fn case_coverage(module: &Module, build_seed: u64) -> CaseCoverage {
    let mut features = shape_features(module);
    features.extend(run_features(module, build_seed));
    CaseCoverage { features }
}

/// IR-shape features of the module itself (generator-side coverage).
pub fn shape_features(module: &Module) -> Vec<String> {
    let mut f = Vec::new();
    f.push(format!(
        "ir:funcs:{}",
        coverage_bucket(module.funcs.len() as u64)
    ));
    f.push(format!(
        "ir:globals:{}",
        coverage_bucket(module.globals.len() as u64)
    ));
    if module
        .globals
        .iter()
        .any(|g| matches!(g.init, GlobalInit::FuncPtr(_)))
    {
        f.push("ir:funcptr-global".to_string());
    }

    let (mut diamonds, mut backedges, mut insts) = (0u64, 0u64, 0u64);
    let mut max_loop_depth = 0u64;
    let mut direct_recursion = false;
    let mut indirect_calls = 0u64;
    let mut funcptr_store = false;
    let mut externs = std::collections::BTreeSet::new();
    // Call-graph adjacency for mutual-recursion detection.
    let n = module.funcs.len();
    let mut calls = vec![std::collections::BTreeSet::new(); n];
    for (fi, func) in module.funcs.iter().enumerate() {
        let mut func_backedges = 0u64;
        // FuncAddr results of this function, to spot code pointers
        // written into memory (the attacker-writable-slot shape).
        let mut code_ptrs = std::collections::HashSet::new();
        for (bi, b) in func.blocks.iter().enumerate() {
            insts += b.insts.len() as u64;
            for (v, i) in &b.insts {
                match i {
                    Inst::Call { callee, .. } => {
                        if callee.0 as usize == fi {
                            direct_recursion = true;
                        }
                        calls[fi].insert(callee.0 as usize);
                    }
                    Inst::CallInd { .. } => indirect_calls += 1,
                    Inst::CallExtern { ext, .. } => {
                        externs.insert(ext.name());
                    }
                    Inst::FuncAddr(_) => {
                        if let Some(v) = v {
                            code_ptrs.insert(*v);
                        }
                    }
                    Inst::Store { val, .. } => funcptr_store |= code_ptrs.contains(val),
                    _ => {}
                }
            }
            match b.term {
                Term::CondBr {
                    then_bb, else_bb, ..
                } => {
                    diamonds += 1;
                    if then_bb.0 as usize <= bi || else_bb.0 as usize <= bi {
                        func_backedges += 1;
                    }
                }
                Term::Br(t) => {
                    if t.0 as usize <= bi {
                        func_backedges += 1;
                    }
                }
                Term::Ret(_) => {}
            }
        }
        backedges += func_backedges;
        max_loop_depth = max_loop_depth.max(func_backedges);
    }
    f.push(format!("ir:insts:{}", coverage_bucket(insts)));
    f.push(format!("ir:diamonds:{}", coverage_bucket(diamonds)));
    f.push(format!("ir:loops:{}", coverage_bucket(backedges)));
    f.push(format!("ir:loop-depth:{}", coverage_bucket(max_loop_depth)));
    f.push(format!(
        "ir:indirect-calls:{}",
        coverage_bucket(indirect_calls)
    ));
    for e in externs {
        f.push(format!("ir:extern:{e}"));
    }
    if direct_recursion {
        f.push("ir:recursion:direct".to_string());
    }
    if funcptr_store {
        f.push("ir:funcptr-store".to_string());
    }
    // Mutual recursion: a call-graph cycle of length ≥ 2.
    if has_mutual_cycle(&calls) {
        f.push("ir:recursion:mutual".to_string());
    }
    f
}

/// Is there a call-graph cycle involving at least two distinct
/// functions?
fn has_mutual_cycle(calls: &[std::collections::BTreeSet<usize>]) -> bool {
    let n = calls.len();
    for start in 0..n {
        // Can `start` reach itself through at least one *other* node?
        let mut stack: Vec<usize> = calls[start]
            .iter()
            .copied()
            .filter(|&t| t != start)
            .collect();
        let mut seen = vec![false; n];
        while let Some(x) = stack.pop() {
            if x == start {
                return true;
            }
            if seen[x] {
                continue;
            }
            seen[x] = true;
            stack.extend(calls[x].iter().copied());
        }
    }
    false
}

/// Compile- and execution-side features from one instrumented cell.
fn run_features(module: &Module, build_seed: u64) -> Vec<String> {
    match observe_variant(
        module,
        R2cConfig::full(build_seed),
        MachineKind::EpycRome,
        VARIANT_INSN_BUDGET,
    ) {
        Ok(obs) => {
            let mut f = obs.report.coverage_features();
            match obs.status {
                ExitStatus::Exited(_) => f.push("exit:ok".to_string()),
                ExitStatus::Probed => f.push("exit:probed".to_string()),
                ExitStatus::Faulted(fault) => {
                    f.push(format!("exit:fault:{}", fault_name(&fault)));
                    if fault.is_detection() {
                        f.push("exit:detection".to_string());
                    }
                }
            }
            for (name, v) in [
                ("instructions", obs.stats.instructions),
                ("cycles", obs.stats.cycles),
                ("calls", obs.stats.calls),
                ("native-calls", obs.stats.native_calls),
                ("rets", obs.stats.rets),
                ("icache-misses", obs.stats.icache_misses),
                ("max-rss-pages", obs.stats.max_rss_pages as u64),
                ("avx-transitions", obs.stats.avx_transitions),
                ("output-values", obs.output.len() as u64),
            ] {
                f.push(format!("stat:{name}:{}", coverage_bucket(v)));
            }
            for (name, v) in [
                ("runs-entered", obs.edges.runs_entered),
                ("run-rollbacks", obs.edges.run_rollbacks),
                ("slow-path-handoffs", obs.edges.slow_path_handoffs),
            ] {
                f.push(format!("edge:{name}:{}", coverage_bucket(v)));
            }
            for (kind, count) in &obs.op_kinds {
                f.push(format!("op:{kind}:{}", coverage_bucket(*count)));
            }
            for d in &obs.detections {
                f.push(match d {
                    Detection::BoobyTrap { .. } => "detect:booby-trap".to_string(),
                    Detection::GuardPage { .. } => "detect:guard-page".to_string(),
                });
            }
            f
        }
        Err(BuildError::Compile(_)) => vec!["build:compile-error".to_string()],
        Err(BuildError::Check { stage, errors }) => errors
            .iter()
            .map(|e| format!("check:{stage}:{}", e.kind.name()))
            .collect(),
    }
}

/// Stable name of a fault kind for coverage tokens.
pub fn fault_name(f: &Fault) -> &'static str {
    match f {
        Fault::Unmapped { .. } => "unmapped",
        Fault::Protection { .. } => "protection",
        Fault::InvalidJump { .. } => "invalid-jump",
        Fault::BoobyTrap { .. } => "booby-trap",
        Fault::Misaligned { .. } => "misaligned",
        Fault::DivideByZero { .. } => "divide-by-zero",
        Fault::BudgetExhausted => "budget-exhausted",
        Fault::StackOverflow { .. } => "stack-overflow",
        Fault::NativeError { .. } => "native-error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn map_basics() {
        let mut map = CoverageMap::new();
        assert_eq!(map.population(), 0);
        let cov = CaseCoverage {
            features: vec!["a".into(), "b".into(), "a".into()],
        };
        assert_eq!(map.new_bits(&cov), 2);
        assert_eq!(map.merge(&cov), 2);
        assert_eq!(map.population(), 2);
        assert_eq!(map.new_bits(&cov), 0);
        assert_eq!(map.merge(&cov), 0);
    }

    #[test]
    fn feature_extraction_is_deterministic() {
        for seed in [0u64, 3, 11] {
            let m = generate(seed);
            let a = case_coverage(&m, 1);
            let b = case_coverage(&m, 1);
            assert_eq!(a.features, b.features, "seed {seed}");
            assert!(!a.features.is_empty());
        }
    }

    #[test]
    fn shape_features_see_generator_shapes() {
        // Across a few seeds the shape extractor must light the
        // structural features the generator advertises.
        let mut all = std::collections::BTreeSet::new();
        for seed in 0..40u64 {
            for f in shape_features(&generate(seed)) {
                all.insert(f);
            }
        }
        for want in [
            "ir:recursion:direct",
            "ir:recursion:mutual",
            "ir:funcptr-global",
            "ir:funcptr-store",
            "ir:extern:malloc",
            "ir:extern:print",
        ] {
            assert!(all.contains(want), "missing {want}; have {all:?}");
        }
    }
}
