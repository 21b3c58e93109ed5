//! Fleet determinism and policy-separation tests.
//!
//! The contract under test (DESIGN.md §10): a fleet run is a pure
//! function of `(module, FleetConfig, Schedule)` — parallel execution,
//! the warm variant pool, and host timing must not leak into the
//! monitor event log or the metrics.

use r2c_attacks::victim::victim_module;
use r2c_core::{PoolStats, R2cConfig};
use r2c_serve::{run_fleet, ExecMode, FleetConfig, ReactionPolicy, Schedule};

#[test]
fn parallel_log_bit_identical_to_serial() {
    let m = victim_module();
    let sched = Schedule::generate(0xD5, 3, 120, 250);
    for policy in [
        ReactionPolicy::Ignore,
        ReactionPolicy::RestartSameImage,
        ReactionPolicy::RespawnFreshVariant,
    ] {
        let fc = FleetConfig {
            fleet_seed: 7,
            ..FleetConfig::new(R2cConfig::full(0), policy)
        };
        let serial = run_fleet(&m, &fc, &sched, ExecMode::Serial);
        let parallel = run_fleet(&m, &fc, &sched, ExecMode::Parallel);
        assert_eq!(
            serial.log,
            parallel.log,
            "event log diverged under {}",
            policy.name()
        );
        assert_eq!(
            serial.metrics,
            parallel.metrics,
            "metrics diverged under {}",
            policy.name()
        );
    }
}

/// The 1000-worker scaling work must not cost determinism: at fleet
/// sizes well past the per-thread shard granularity, an open-loop
/// schedule must produce bit-identical logs, metrics and per-request
/// latencies whether the shards run serially, stolen by a thread pool,
/// or stolen with a different shard size.
///
/// Booting 256 debug-profile VMs three times takes tens of minutes, so
/// the debug suite skips this test; CI runs it in the release test job,
/// and `report_fleet --smoke --verify-determinism` (release, every CI
/// run) enforces the same serial==parallel contract at 256 workers.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "256-worker boots are too slow unoptimized; covered by the release CI job"
)]
fn open_loop_256_worker_fleet_is_deterministic() {
    let m = victim_module();
    let sched = Schedule::generate_open_loop(0xF00D, 256, 640, 150, 40_000);
    let fc = FleetConfig {
        fleet_seed: 11,
        shard_size: 8,
        ..FleetConfig::new(R2cConfig::full(0), ReactionPolicy::RespawnFreshVariant).sized_for(256)
    };
    let serial = run_fleet(&m, &fc, &sched, ExecMode::Serial);
    let parallel = run_fleet(&m, &fc, &sched, ExecMode::Parallel);
    assert_eq!(
        serial.log, parallel.log,
        "event log diverged at 256 workers"
    );
    assert_eq!(serial.metrics, parallel.metrics, "metrics diverged");
    assert_eq!(
        serial.request_latencies, parallel.request_latencies,
        "request latencies diverged"
    );
    assert!(
        !serial.request_latencies.is_empty(),
        "open-loop schedule produced no served requests"
    );
    // Shard geometry is a host-side tuning knob; an odd shard size that
    // splits workers unevenly across stealing threads must be invisible.
    let odd = run_fleet(
        &m,
        &FleetConfig {
            shard_size: 3,
            ..fc.clone()
        },
        &sched,
        ExecMode::Parallel,
    );
    assert_eq!(serial.log, odd.log, "shard size leaked into the log");
    assert_eq!(
        serial.request_latencies, odd.request_latencies,
        "shard size leaked into latencies"
    );
}

#[test]
fn pool_size_does_not_change_guest_state() {
    // Warm hits vs. cold compiles are host-side only: a pool-less fleet
    // and a pooled fleet must produce the same log.
    let m = victim_module();
    let sched = Schedule::generate(0xE4, 2, 60, 500);
    let base = FleetConfig::new(R2cConfig::full(3), ReactionPolicy::RespawnFreshVariant);
    let pooled = FleetConfig {
        pool_threads: 3,
        pool_capacity: 2,
        ..base.clone()
    };
    let unpooled = FleetConfig {
        pool_threads: 0,
        ..base
    };
    let a = run_fleet(&m, &pooled, &sched, ExecMode::Parallel);
    let b = run_fleet(&m, &unpooled, &sched, ExecMode::Serial);
    assert_eq!(a.log, b.log);
    assert_eq!(a.metrics, b.metrics);
}

/// The bounded-lookahead pool at fleet scale: a pooled 256-worker
/// respawn run matches a pool-less one bit for bit, and the pool strands
/// nothing. Every variant it compiled was taken by a respawn or withdrawn
/// when its worker's slice ended.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "256-worker boots are too slow unoptimized; covered by the release CI job"
)]
fn pooled_256_worker_respawn_fleet_matches_pool_less_and_strands_nothing() {
    let m = victim_module();
    let sched = Schedule::generate_open_loop(0xB00C, 256, 1024, 150, 40_000);
    let pooled = FleetConfig {
        fleet_seed: 5,
        ..FleetConfig::new(R2cConfig::full(0), ReactionPolicy::RespawnFreshVariant).sized_for(256)
    };
    let pool_less = FleetConfig {
        pool_threads: 0,
        ..pooled.clone()
    };
    let a = run_fleet(&m, &pooled, &sched, ExecMode::Parallel);
    let b = run_fleet(&m, &pool_less, &sched, ExecMode::Serial);
    assert_eq!(a.log, b.log, "the pool leaked into the log");
    assert_eq!(a.metrics, b.metrics, "the pool leaked into the metrics");
    assert_eq!(a.request_latencies, b.request_latencies);
    assert!(a.metrics.respawns > 0, "probes must have forced respawns");
    let p = a.pool;
    assert!(p.compiled > 0, "the background threads compiled nothing");
    assert_eq!(
        p.stranded(),
        0,
        "compiled variants neither taken nor withdrawn: {p:?}"
    );
    assert_eq!(p.warm + p.in_flight + p.cold, a.metrics.respawns);
    assert_eq!(b.pool, PoolStats::default(), "no pool, no counters");
}

#[test]
fn respawn_fresh_outlasts_restart_same() {
    // The §7.3 claim at fleet level: under a pure probe load, the
    // same-image pool is compromised after finitely many probes, while
    // fresh-variant respawn survives at least as long.
    let m = victim_module();
    let probes = 400;
    let sched = Schedule::generate(1, 2, probes, 1000);
    let same = run_fleet(
        &m,
        &FleetConfig::new(R2cConfig::full(0), ReactionPolicy::RestartSameImage),
        &sched,
        ExecMode::Parallel,
    );
    let k = same
        .metrics
        .first_compromise_probe
        .expect("a non-re-randomizing pool must eventually fall to Blind ROP");
    assert!(k <= probes as u64);

    let fresh = run_fleet(
        &m,
        &FleetConfig::new(R2cConfig::full(0), ReactionPolicy::RespawnFreshVariant),
        &sched,
        ExecMode::Parallel,
    );
    match fresh.metrics.first_compromise_probe {
        None => {} // never compromised: strictly more probes than k
        Some(k_fresh) => assert!(
            k_fresh > k,
            "fresh-variant respawn fell earlier ({k_fresh}) than the restarting pool ({k})"
        ),
    }
    assert!(
        fresh.metrics.respawns > 0,
        "probes must have forced respawns"
    );
}

#[test]
fn availability_degrades_under_probe_load_but_not_to_zero() {
    let m = victim_module();
    let fc = FleetConfig::new(R2cConfig::full(0), ReactionPolicy::RespawnFreshVariant);
    let quiet = Schedule::generate(9, 4, 200, 0);
    let noisy = Schedule::generate(9, 4, 200, 200);
    let a = run_fleet(&m, &fc, &quiet, ExecMode::Parallel);
    let b = run_fleet(&m, &fc, &noisy, ExecMode::Parallel);
    assert_eq!(a.metrics.availability(), 1.0, "no probes, no drops");
    assert!(
        b.metrics.availability() < 1.0,
        "restart windows drop requests"
    );
    assert!(
        b.metrics.availability() > 0.5,
        "the fleet must keep serving"
    );
    assert_eq!(b.metrics.compromises, 0, "R2C should hold in a short run");
}

#[test]
fn variant_seed_is_injective_enough() {
    use std::collections::HashSet;
    let mut seen = HashSet::new();
    for fleet in 0..4u64 {
        for w in 0..8u32 {
            for g in 0..32u32 {
                assert!(
                    seen.insert(r2c_serve::variant_seed(fleet, w, g)),
                    "seed collision at fleet={fleet} w={w} g={g}"
                );
            }
        }
    }
}
