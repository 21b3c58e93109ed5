//! # r2c-serve — the reactive serving fleet
//!
//! Closes the paper's detect → react → re-diversify loop (§4.1, §7.3)
//! as a deterministic serving-fleet simulation: each worker is a
//! [`r2c_vm::Vm`] running its own diversified variant, a seeded
//! [`Schedule`] interleaves benign requests with attack-probe sessions
//! built on the `r2c-attacks` threat model, and a monitor reacts to
//! worker deaths under a configurable [`ReactionPolicy`]:
//!
//! | policy | restart image | models |
//! |---|---|---|
//! | [`ReactionPolicy::Ignore`] | same | no monitoring at all |
//! | [`ReactionPolicy::RestartSameImage`] | same | crash-restarting pool (Blind-ROP-vulnerable, §4.1) |
//! | [`ReactionPolicy::RespawnFreshVariant`] | fresh seed | load-time re-randomization (§7.3) |
//!
//! Fresh-variant respawns draw from the warm
//! [`r2c_core::pool::VariantPool`] so re-randomization is
//! production-plausible (background pre-compilation, bounded lookahead;
//! the `report_serve` benchmark compares warm and cold respawn
//! latency). Fleet runs are bit-identical between serial and parallel
//! execution for a fixed seed — see the determinism contract in
//! [`fleet`]'s module docs — and schedules serialize to a small text
//! format for record-replay regression tests.

pub mod fleet;
pub mod schedule;

pub use fleet::{
    run_fleet, variant_seed, ExecMode, FleetConfig, FleetMetrics, FleetRun, ReactionPolicy,
    RespawnLatency,
};
pub use schedule::{Event, Op, Schedule};
