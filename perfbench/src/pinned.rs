//! Expectations pinned with the benchmark (`pinned.txt`): the exact
//! `ExecStats` of every sim-steady cell, and a digest of the fleet log,
//! metrics and latencies per (fleet workload, seed). Regenerate with
//! `r2c-perfbench --pin > perfbench/pinned.txt` only when simulated
//! behaviour is meant to change.

use r2c_vm::ExecStats;

const PINNED: &str = include_str!("../pinned.txt");

/// Seeds whose fleet digests are pinned. Other seeds are still checked
/// for parallel == serial and for repeatability within a run.
pub const FLEET_SEEDS: std::ops::RangeInclusive<u64> = 0..=31;

/// The held-out seed for validating later claims (see NOTES.md); its
/// fleet digests are pinned too.
pub const HELD_OUT_SEED: u64 = 9001;

/// First lines of `pinned.txt`, printed by `--pin`.
pub const HEADER: &str = "\
# Pinned expectations of the benchmark, printed by `r2c-perfbench --pin`.
# cell <program>/<build> <instructions> <cycles> <calls> <native_calls> <rets> <icache_misses> <icache_hits> <max_rss_pages> <avx_transitions>
# fleet <workload> <seed> <FNV-1a digest of the serial run's log, metrics and request latencies>";

fn lines(kind: &str) -> impl Iterator<Item = Vec<&'static str>> + '_ {
    PINNED
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(move |f| f.first() == Some(&kind))
}

pub fn cell_line(name: &str, s: &ExecStats) -> String {
    format!(
        "cell {name} {} {} {} {} {} {} {} {} {}",
        s.instructions,
        s.cycles,
        s.calls,
        s.native_calls,
        s.rets,
        s.icache_misses,
        s.icache_hits,
        s.max_rss_pages,
        s.avx_transitions
    )
}

pub fn cell_stats(name: &str) -> Option<ExecStats> {
    let f = lines("cell").find(|f| f.get(1) == Some(&name))?;
    let n = |i: usize| f.get(i)?.parse::<u64>().ok();
    Some(ExecStats {
        instructions: n(2)?,
        cycles: n(3)?,
        calls: n(4)?,
        native_calls: n(5)?,
        rets: n(6)?,
        icache_misses: n(7)?,
        icache_hits: n(8)?,
        max_rss_pages: n(9)? as usize,
        avx_transitions: n(10)?,
    })
}

pub fn fleet_line(workload: &str, seed: u64, digest: u64) -> String {
    format!("fleet {workload} {seed} {digest:016x}")
}

pub fn fleet_digest(workload: &str, seed: u64) -> Option<u64> {
    let seed = seed.to_string();
    let f =
        lines("fleet").find(|f| f.get(1) == Some(&workload) && f.get(2) == Some(&seed.as_str()))?;
    u64::from_str_radix(f.get(3)?, 16).ok()
}
