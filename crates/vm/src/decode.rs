//! Pre-decoded execution engine: fused superinstruction IR with
//! block-closure-style dispatch over decoded ops.
//!
//! The per-step interpreter in [`crate::Vm`] used to pattern-match raw
//! [`Insn`] enums, re-resolve operands, and re-derive per-machine costs
//! on every dynamically executed instruction. This module performs all
//! of that work **once per (image, machine)**:
//!
//! * every instruction is decoded into a compact [`Op`] with its
//!   per-machine base cost pre-baked ([`DOp::cost`]),
//! * direct control transfers (`call`/`jmp`/`jcc`) carry their target
//!   *instruction index* instead of a virtual address, so taken
//!   branches dispatch without a jump-table lookup (indirect targets,
//!   returns, and attacker-driven transfers still resolve through the
//!   dense dispatch table),
//! * adjacent instruction pairs that dominate the dynamic pair
//!   histogram are **fused into superinstructions** executed under a
//!   single dispatch (see the catalogue below), and
//! * the load-time memory image ([`DecodedProgram::init_mem`]) is built
//!   once and shared, so constructing a [`crate::Vm`] is a snapshot
//!   clone instead of a map-and-poke rebuild.
//!
//! ## Fusion catalogue
//!
//! Candidates were picked empirically from the dynamic adjacent-pair
//! histogram over the `Scale::Test` SPEC workloads (baseline + full
//! presets, EPYC Rome; see DESIGN.md §11 for the table). The dominant
//! pairs are register-shuffle chains around ALU ops produced by the
//! lowerer (`MovReg→AluReg` / `AluReg→MovReg` ≈ 22% of all adjacent
//! pairs each, `MovImm→MovReg` / `MovReg→MovImm` ≈ 20% each), followed
//! by load/store traffic (`MovReg→Store`, `Load→MovReg`, `Store→Load`)
//! and the classic compare-and-branch shapes (`Test→Jcc`,
//! `CmpReg→SetCc`, `Cmp*→Jcc`). Push/pop runs from call
//! prologues/epilogues round out the catalogue: they are rare in the
//! loop-dominated SPEC profiles but are exactly what the call-heavy
//! gcc/xalancbmk cells execute between loops.
//!
//! ## Exactness contract
//!
//! Decoding and fusion are **host-side only**: simulated [`ExecStats`]
//! (instructions, deci-cycles, calls/rets, icache hits/misses, AVX
//! transitions, max-rss) stay bit-identical per seed to the pre-decode
//! interpreter on every workload × config × machine cell. Fused ops
//! re-check the instruction budget and touch the simulated icache once
//! per *original* instruction, in original order, so even a fault or
//! budget exhaustion between the two halves of a pair produces the
//! exact partial stats the unfused interpreter would.
//!
//! ## Cache keying and invalidation
//!
//! Decoded programs are cached globally, keyed by a content hash of
//! every execution-relevant image field plus the machine cost model and
//! the fusion flag. A cache hit is **verified field-by-field** against
//! the image being loaded ([`DecodedProgram::matches`]), so a mutated
//! image — or a hash collision — can never execute stale decoded
//! blocks; the entry is simply rebuilt. Entries are weak: a decoded
//! program lives exactly as long as some [`crate::Vm`] uses it.
//!
//! [`ExecStats`]: crate::stats::ExecStats

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::image::{Image, NativeKind, SectionLayout};
use crate::insn::{AluOp, Cond, Insn, MemRef};
use crate::machine::MachineConfig;
use crate::mem::{FxHasher, MemSnapshot, Memory, Perms};
use crate::regs::{Gpr, Ymm};
use crate::VAddr;

/// Sentinel instruction index marking an unresolvable direct branch
/// target (outside the text section or between instruction starts);
/// jumping through it raises `Fault::InvalidJump` with the original
/// target address, recovered from the undecoded instruction.
pub const NO_INSN: u32 = u32::MAX;

/// Second-half metadata of a fused superinstruction: the pre-baked base
/// cost of the second instruction and its address offset from the
/// first (the pair is only fused when laid out contiguously).
#[derive(Clone, Copy, Debug)]
pub struct F2 {
    /// Base cost of instruction #2 in deci-cycles.
    pub cost2: u16,
    /// `addr2 - addr1` (the encoded length of instruction #1).
    pub a2off: u8,
}

/// One decoded operation. `ops[i]` executes instruction `i` — and, for
/// fused variants, instruction `i + 1` as well, continuing at `i + 2`.
/// The array stays parallel to `Image::insns`, so a branch *into* the
/// second half of a fused pair simply lands on that instruction's own
/// standalone op; fusion never constrains the control-flow graph.
#[derive(Clone, Copy, Debug)]
pub struct DOp {
    /// Pre-baked base cost of the (first) instruction, deci-cycles.
    pub cost: u32,
    /// Address of the (first) instruction — simulated icache key and
    /// fault attribution.
    pub addr: VAddr,
    /// The operation.
    pub op: Op,
}

/// Decoded operations. Single-instruction variants mirror [`Insn`] with
/// operands resolved (direct targets as instruction indices, return
/// addresses precomputed, native probe-ness pre-checked); fused
/// variants execute two adjacent instructions under one dispatch.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    MovImm {
        dst: Gpr,
        imm: u64,
    },
    MovReg {
        dst: Gpr,
        src: Gpr,
    },
    Load {
        dst: Gpr,
        mem: MemRef,
    },
    Store {
        mem: MemRef,
        src: Gpr,
    },
    StoreImm {
        mem: MemRef,
        imm: i32,
    },
    Lea {
        dst: Gpr,
        mem: MemRef,
    },
    Push {
        src: Gpr,
    },
    PushImm {
        imm: u64,
    },
    Pop {
        dst: Gpr,
    },
    AluReg {
        op: AluOp,
        dst: Gpr,
        src: Gpr,
    },
    AluImm {
        op: AluOp,
        dst: Gpr,
        imm: i32,
    },
    Div {
        dst: Gpr,
        src: Gpr,
    },
    Rem {
        dst: Gpr,
        src: Gpr,
    },
    CmpReg {
        a: Gpr,
        b: Gpr,
    },
    CmpImm {
        a: Gpr,
        imm: i32,
    },
    Test {
        a: Gpr,
    },
    SetCc {
        cond: Cond,
        dst: Gpr,
    },
    LoadAbs {
        dst: Gpr,
        addr: VAddr,
    },
    VLoadAbs {
        dst: Ymm,
        addr: VAddr,
    },
    Call {
        tgt: u32,
        ra: VAddr,
    },
    CallInd {
        target: Gpr,
        ra: VAddr,
    },
    CallNative {
        native: u16,
        is_probe: bool,
    },
    Ret,
    Jmp {
        tgt: u32,
    },
    JmpInd {
        target: Gpr,
    },
    Jcc {
        cond: Cond,
        tgt: u32,
        taken_extra: u16,
    },
    Nop,
    Trap,
    VLoad {
        dst: Ymm,
        mem: MemRef,
        aligned: bool,
    },
    VStore {
        mem: MemRef,
        src: Ymm,
        aligned: bool,
    },
    VZeroUpper,
    Halt,
    // --- fused superinstructions (dynamic-pair evidence in DESIGN.md
    // §11; every variant re-checks the budget and touches the icache
    // between its halves, so stats stay bit-identical) ---
    /// `mov dst1, src1; op dst2, src2` — the #1 dynamic pair (~22%).
    MovRegAluReg {
        dst1: Gpr,
        src1: Gpr,
        op: AluOp,
        dst2: Gpr,
        src2: Gpr,
        f2: F2,
    },
    /// `op dst1, src1; mov dst2, src2` — the mirrored shuffle (~22%).
    AluRegMovReg {
        op: AluOp,
        dst1: Gpr,
        src1: Gpr,
        dst2: Gpr,
        src2: Gpr,
        f2: F2,
    },
    /// `mov dst1, imm; mov dst2, src2` (~20%).
    MovImmMovReg {
        dst1: Gpr,
        imm: u64,
        dst2: Gpr,
        src2: Gpr,
        f2: F2,
    },
    /// `mov dst1, src1; mov dst2, imm` (~20%).
    MovRegMovImm {
        dst1: Gpr,
        src1: Gpr,
        dst2: Gpr,
        imm: u64,
        f2: F2,
    },
    /// `mov dst1, src1; mov [mem], src2` — store feed (~2.6%).
    MovRegStore {
        dst1: Gpr,
        src1: Gpr,
        mem: MemRef,
        src2: Gpr,
        f2: F2,
    },
    /// `mov dst1, [mem]; mov dst2, src2` — load-op shuffle (~2.5%).
    LoadMovReg {
        dst1: Gpr,
        mem: MemRef,
        dst2: Gpr,
        src2: Gpr,
        f2: F2,
    },
    /// `mov [smem], src; mov dst, [lmem]` — spill/reload traffic.
    StoreLoad {
        smem: MemRef,
        src: Gpr,
        dst: Gpr,
        lmem: MemRef,
        f2: F2,
    },
    /// `lea dst1, [mem]; mov dst2, src2` — address-gen + move.
    LeaMovReg {
        dst1: Gpr,
        mem: MemRef,
        dst2: Gpr,
        src2: Gpr,
        f2: F2,
    },
    /// `cmp a, b; jcc target` — compare-and-branch.
    CmpRegJcc {
        a: Gpr,
        b: Gpr,
        cond: Cond,
        tgt: u32,
        taken_extra: u16,
        f2: F2,
    },
    /// `cmp a, imm; jcc target` — loop back-edges.
    CmpImmJcc {
        a: Gpr,
        imm: i32,
        cond: Cond,
        tgt: u32,
        taken_extra: u16,
        f2: F2,
    },
    /// `test a, a; jcc target` — null checks.
    TestJcc {
        a: Gpr,
        cond: Cond,
        tgt: u32,
        taken_extra: u16,
        f2: F2,
    },
    /// `cmp a, b; setcc dst` — boolean materialization.
    CmpRegSetCc {
        a: Gpr,
        b: Gpr,
        cond: Cond,
        dst: Gpr,
        f2: F2,
    },
    /// `push s1; push s2` — call-prologue runs.
    PushPush {
        s1: Gpr,
        s2: Gpr,
        f2: F2,
    },
    /// `pop d1; pop d2` — epilogue runs.
    PopPop {
        d1: Gpr,
        d2: Gpr,
        f2: F2,
    },
    /// `pop d1; ret` — epilogue tail.
    PopRet {
        d1: Gpr,
        f2: F2,
    },
    /// `mov a, imm; mov bd, bs; op cd, cs; mov dd, ds` — the
    /// lowerer's 4-instruction ALU-with-immediate template, the
    /// dominant straight-line unit in the loop-heavy SPEC cells.
    /// Effect-only (registers and flags; cannot fault), so it appears
    /// only in run effect streams where accounting is batched.
    MovImmAluQuad {
        imm: u64,
        a: Gpr,
        bd: Gpr,
        bs: Gpr,
        op: AluOp,
        cd: Gpr,
        cs: Gpr,
        dd: Gpr,
        ds: Gpr,
    },
    /// A [`Op::MovImmAluQuad`] (this entry's own fields) that is
    /// immediately followed, in the same segment's effect stream, by
    /// another quad: the run loop executes both under one dispatch.
    MovImmAluQuadPair {
        imm: u64,
        a: Gpr,
        bd: Gpr,
        bs: Gpr,
        op: AluOp,
        cd: Gpr,
        cs: Gpr,
        dd: Gpr,
        ds: Gpr,
    },
    /// The common operand-chained shape of [`Op::MovImmAluQuad`]
    /// (`scratch` is both ALU destination and the final move's source,
    /// the ALU's right operand is the just-set `a`): algebraically one
    /// immediate ALU op — one register read, three writes — instead of
    /// four moves through the scratch register.
    AluImmQuad {
        imm: u64,
        a: Gpr,
        scratch: Gpr,
        op: AluOp,
        src: Gpr,
        dst: Gpr,
    },
    /// An [`Op::AluImmQuad`] immediately followed by another quad
    /// entry in the same segment: both execute under one dispatch.
    AluImmQuadPair {
        imm: u64,
        a: Gpr,
        scratch: Gpr,
        op: AluOp,
        src: Gpr,
        dst: Gpr,
    },
    /// Block run: this instruction plus the following
    /// `runs[run].n - 1` straight-line instructions execute under a
    /// single dispatch with batched instruction/cycle/icache
    /// accounting (see the `Op::Run` arm in exec.rs for the exactness
    /// argument). The member ops stay standalone-decodable, so any
    /// control transfer into the middle of a run just executes the
    /// members individually.
    Run {
        run: u32,
    },
}

impl Op {
    /// Stable name of the decoded-op kind (the fusion pattern or
    /// lowering template this op came from). Consumed by the
    /// coverage-guided fuzzer as a compile-side coverage feature:
    /// which fusion patterns and lowering shapes a case actually
    /// exercises.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::MovImm { .. } => "MovImm",
            Op::MovReg { .. } => "MovReg",
            Op::Load { .. } => "Load",
            Op::Store { .. } => "Store",
            Op::StoreImm { .. } => "StoreImm",
            Op::Lea { .. } => "Lea",
            Op::Push { .. } => "Push",
            Op::PushImm { .. } => "PushImm",
            Op::Pop { .. } => "Pop",
            Op::AluReg { .. } => "AluReg",
            Op::AluImm { .. } => "AluImm",
            Op::Div { .. } => "Div",
            Op::Rem { .. } => "Rem",
            Op::CmpReg { .. } => "CmpReg",
            Op::CmpImm { .. } => "CmpImm",
            Op::Test { .. } => "Test",
            Op::SetCc { .. } => "SetCc",
            Op::LoadAbs { .. } => "LoadAbs",
            Op::VLoadAbs { .. } => "VLoadAbs",
            Op::Call { .. } => "Call",
            Op::CallInd { .. } => "CallInd",
            Op::CallNative { .. } => "CallNative",
            Op::Ret => "Ret",
            Op::Jmp { .. } => "Jmp",
            Op::JmpInd { .. } => "JmpInd",
            Op::Jcc { .. } => "Jcc",
            Op::Nop => "Nop",
            Op::Trap => "Trap",
            Op::VLoad { .. } => "VLoad",
            Op::VStore { .. } => "VStore",
            Op::VZeroUpper => "VZeroUpper",
            Op::Halt => "Halt",
            Op::MovRegAluReg { .. } => "MovRegAluReg",
            Op::AluRegMovReg { .. } => "AluRegMovReg",
            Op::MovImmMovReg { .. } => "MovImmMovReg",
            Op::MovRegMovImm { .. } => "MovRegMovImm",
            Op::MovRegStore { .. } => "MovRegStore",
            Op::LoadMovReg { .. } => "LoadMovReg",
            Op::StoreLoad { .. } => "StoreLoad",
            Op::LeaMovReg { .. } => "LeaMovReg",
            Op::CmpRegJcc { .. } => "CmpRegJcc",
            Op::CmpImmJcc { .. } => "CmpImmJcc",
            Op::TestJcc { .. } => "TestJcc",
            Op::CmpRegSetCc { .. } => "CmpRegSetCc",
            Op::PushPush { .. } => "PushPush",
            Op::PopPop { .. } => "PopPop",
            Op::PopRet { .. } => "PopRet",
            Op::MovImmAluQuad { .. } => "MovImmAluQuad",
            Op::MovImmAluQuadPair { .. } => "MovImmAluQuadPair",
            Op::AluImmQuad { .. } => "AluImmQuad",
            Op::AluImmQuadPair { .. } => "AluImmQuadPair",
            Op::Run { .. } => "Run",
        }
    }
}

/// One icache segment of a block run: `count` consecutive member
/// instructions whose addresses fall on the same icache line, charged
/// with a single [`crate::machine::ICache::access_span`] call and
/// executed from the effect stream `run_ops[first .. first + n_ops]`.
#[derive(Clone, Copy, Debug)]
pub struct RunSeg {
    /// Icache line number — the same `addr / line_size` arithmetic the
    /// simulator's tag computation uses.
    pub line: u64,
    /// Member instructions on that line.
    pub count: u16,
    /// Number of effect-stream entries covering those members (pairs
    /// count two members per entry).
    pub n_ops: u16,
    /// First effect-stream entry, an index into `run_segs`' companion
    /// array `DecodedProgram::run_ops`.
    pub first: u32,
}

/// One entry of a run's effect stream: a single member instruction or
/// a fused adjacent pair, executed with **no** per-instruction
/// accounting (the run batch-charges counts, cycles, and icache
/// spans). Pairing inside a run therefore needs neither address
/// contiguity nor an icache touch between halves — any adjacent member
/// pair in the fusion catalogue qualifies.
#[derive(Clone, Copy, Debug)]
pub struct ROp {
    /// The effect: a straight-line single or a non-control fused pair.
    pub op: Op,
    /// Byte offset of the (first) instruction from the start of its
    /// segment's icache line; `seg.line * line_size + off` rebuilds the
    /// full address for fault attribution without an 8-byte field per
    /// entry.
    pub off: u16,
    /// Member offset within the run (0 = first member after the
    /// leader); locates the faulting instruction for exact rollback.
    pub k: u16,
}

/// A block run: the straight-line tail of a basic block, from its
/// leader to the last instruction before the block's control transfer.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo {
    /// Original instructions covered (leader + members).
    pub n: u16,
    /// Sum of the members' pre-baked base costs (deci-cycles); the
    /// leader's own cost is charged by the generic dispatch preamble.
    pub members_cost: u64,
    /// The leader's standalone op, executed before the members.
    pub leader: Op,
    /// Member segments: `run_segs[seg_start .. seg_start + seg_count]`.
    pub seg_start: u32,
    /// Number of segments.
    pub seg_count: u16,
}

/// A fully decoded, machine-specialized program plus its load-time
/// memory image — everything about a [`crate::Vm`] that is a pure
/// function of `(Image, MachineConfig, fuse)` and therefore shareable
/// between VMs (bench repetitions, `reset_to_image` workers, fleet
/// members on the same variant).
pub struct DecodedProgram {
    /// Machine model the costs were baked for.
    pub machine: MachineConfig,
    /// Whether superinstruction fusion was applied.
    pub fused: bool,
    /// Verbatim instruction copy (disassembly, traced call targets,
    /// fault recovery of unresolved branch targets).
    pub insns: Vec<Insn>,
    /// Absolute instruction addresses, parallel to `insns`.
    pub insn_addrs: Vec<VAddr>,
    /// Decoded ops, parallel to `insns`.
    pub ops: Vec<DOp>,
    /// Block runs referenced by [`Op::Run`].
    pub runs: Vec<RunInfo>,
    /// Flattened per-run icache segments (see [`RunInfo::seg_start`]).
    pub run_segs: Vec<RunSeg>,
    /// Flattened effect streams (see [`RunSeg::first`]).
    pub run_ops: Vec<ROp>,
    /// Dense text-offset → instruction-index table for indirect
    /// transfers (`dispatch[addr - text_base]`, [`NO_INSN`] on holes).
    pub dispatch: Vec<u32>,
    /// Base of the text section.
    pub text_base: VAddr,
    /// Native-function table.
    pub natives: Vec<NativeKind>,
    /// Entry point.
    pub entry: VAddr,
    /// Constructor addresses.
    pub constructors: Vec<VAddr>,
    /// Section layout.
    pub layout: SectionLayout,
    /// Whether text is execute-only.
    pub xom: bool,
    /// Initial data contents (kept for cache-hit verification).
    pub data_init: Vec<(VAddr, Vec<u8>)>,
    /// The address space exactly as [`crate::Vm::new`] maps it, before
    /// any constructor runs. Shared by every VM on this program.
    pub init_mem: MemSnapshot,
}

/// The first field on which a decoded program diverged from the image
/// it is being verified against: the field name plus, for per-element
/// fields, the index of the first diverging element (for length
/// mismatches, the length of the shorter side). Produced by
/// [`DecodedProgram::mismatch`] so cache-verification failures and test
/// assertions can say *what* went stale instead of a bare `false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeMismatch {
    /// Name of the diverging field.
    pub field: &'static str,
    /// Index of the first diverging element for sequence fields.
    pub index: Option<usize>,
}

impl std::fmt::Display for DecodeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.index {
            Some(i) => write!(f, "{}[{}]", self.field, i),
            None => write!(f, "{}", self.field),
        }
    }
}

/// First diverging index between two sequences, treating a length
/// mismatch as a divergence at the shorter length.
fn seq_mismatch<T: PartialEq>(field: &'static str, a: &[T], b: &[T]) -> Option<DecodeMismatch> {
    let i = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then_some(a.len().min(b.len())))?;
    Some(DecodeMismatch {
        field,
        index: Some(i),
    })
}

impl DecodedProgram {
    /// Histogram of decoded-op kinds over the whole program, including
    /// the effect-stream entries inside block runs (where the quad
    /// superinstructions live). This is the lowering-template /
    /// fusion-pattern coverage surface the fuzzer's coverage map feeds
    /// on: a case "covers" a pattern when the decoder emitted it for
    /// the case's image.
    pub fn op_kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for dop in &self.ops {
            *counts.entry(dop.op.kind_name()).or_insert(0) += 1;
        }
        for rop in &self.run_ops {
            *counts.entry(rop.op.kind_name()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Field-by-field verification that this decoded program was built
    /// from an image identical to `image` under the same machine model
    /// and fusion setting. This is what makes the cache safe against
    /// both hash collisions and callers mutating an `Image` after a VM
    /// was built from it: stale decoded blocks can never run.
    pub fn matches(&self, image: &Image, machine: &MachineConfig, fuse: bool) -> bool {
        self.mismatch(image, machine, fuse).is_none()
    }

    /// Like [`DecodedProgram::matches`], but reports *which* field
    /// diverged first (and at which element, for sequence fields).
    pub fn mismatch(
        &self,
        image: &Image,
        machine: &MachineConfig,
        fuse: bool,
    ) -> Option<DecodeMismatch> {
        let scalar = |field| Some(DecodeMismatch { field, index: None });
        if self.fused != fuse {
            return scalar("fused");
        }
        if self.machine != *machine {
            return scalar("machine");
        }
        if self.entry != image.entry {
            return scalar("entry");
        }
        if self.xom != image.xom {
            return scalar("xom");
        }
        if self.layout != image.layout {
            return scalar("layout");
        }
        seq_mismatch("insns", &self.insns, &image.insns)
            .or_else(|| seq_mismatch("insn_addrs", &self.insn_addrs, &image.insn_addrs))
            .or_else(|| seq_mismatch("natives", &self.natives, &image.natives))
            .or_else(|| seq_mismatch("constructors", &self.constructors, &image.constructors))
            .or_else(|| seq_mismatch("data_init", &self.data_init, &image.data_init))
    }
}

type Cache = Mutex<HashMap<u64, Weak<DecodedProgram>>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(Default::default)
}

/// Content hash over every execution-relevant image field plus the
/// machine cost model and fusion flag. Collisions are harmless — a hit
/// is always verified with [`DecodedProgram::matches`] — but make the
/// two images thrash one cache slot, so the hash covers everything.
/// Every fresh variant misses the cache, so this runs on each load: the
/// word-at-a-time FxHash takes the data bytes eight per round.
fn fingerprint(image: &Image, machine: &MachineConfig, fuse: bool) -> u64 {
    let mut h = FxHasher::default();
    image.insns.hash(&mut h);
    image.insn_addrs.hash(&mut h);
    image.entry.hash(&mut h);
    image.constructors.hash(&mut h);
    image.layout.hash(&mut h);
    image.xom.hash(&mut h);
    image.natives.hash(&mut h);
    image.data_init.hash(&mut h);
    machine.hash(&mut h);
    fuse.hash(&mut h);
    h.finish()
}

/// Returns the decoded program for `(image, machine, fuse)`, reusing a
/// cached one when an identical image was decoded before (bench reps,
/// fleet workers, repeated `Vm::new` on a pooled variant). Cache
/// entries are weak; dead ones are collected on insert.
pub(crate) fn decoded(image: &Image, machine: &MachineConfig, fuse: bool) -> Arc<DecodedProgram> {
    let fp = fingerprint(image, machine, fuse);
    if let Some(hit) = cache()
        .lock()
        .unwrap()
        .get(&fp)
        .and_then(Weak::upgrade)
        .filter(|p| p.matches(image, machine, fuse))
    {
        return hit;
    }
    // Build outside the lock: decoding is the expensive part, and two
    // threads racing on the same image both produce identical programs.
    let built = Arc::new(build(image, machine, fuse));
    let mut map = cache().lock().unwrap();
    map.retain(|_, w| w.strong_count() > 0);
    map.insert(fp, Arc::downgrade(&built));
    built
}

/// Decodes `image` for `(machine, fuse)` from scratch, bypassing the
/// cache. This is the entry point for the translation validator in
/// `r2c-check` (via `crate::decode_inspect`): a fresh, uncached build
/// whose every table can be inspected without perturbing — or being
/// perturbed by — programs other VMs are executing.
pub fn decode_program(image: &Image, machine: &MachineConfig, fuse: bool) -> DecodedProgram {
    build(image, machine, fuse)
}

/// Exposed for tests: number of live entries in the decode cache.
#[doc(hidden)]
pub fn decode_cache_live_entries() -> usize {
    cache()
        .lock()
        .unwrap()
        .values()
        .filter(|w| w.strong_count() > 0)
        .count()
}

/// Builds the load-time address space exactly as the pre-decode
/// `Vm::new` did: text (0xCC fill, XO/RX), initialized data, stack.
fn build_init_mem(image: &Image) -> MemSnapshot {
    let l = image.layout;
    let mut mem = Memory::new();
    let text_len = l.text_end - l.text_base;
    mem.map(
        l.text_base,
        text_len,
        if image.xom { Perms::XO } else { Perms::RX },
    );
    mem.poke(l.text_base, &vec![0xCCu8; text_len as usize]);
    mem.map(l.data_base, l.data_end - l.data_base, Perms::RW);
    for (addr, bytes) in &image.data_init {
        mem.poke(*addr, bytes);
    }
    mem.map(l.stack_top - l.stack_size, l.stack_size, Perms::RW);
    mem.into_snapshot()
}

fn build(image: &Image, machine: &MachineConfig, fuse: bool) -> DecodedProgram {
    image.validate().expect("invalid image");
    let l = image.layout;
    let text_len = (l.text_end - l.text_base) as usize;
    let mut dispatch = vec![NO_INSN; text_len];
    for (i, &a) in image.insn_addrs.iter().enumerate() {
        dispatch[(a - l.text_base) as usize] = i as u32;
    }
    let resolve = |target: VAddr| -> u32 {
        let off = target.wrapping_sub(l.text_base);
        if off < dispatch.len() as u64 {
            dispatch[off as usize]
        } else {
            NO_INSN
        }
    };
    let taken_extra = (machine.taken_branch_cost - machine.branch_cost) as u16;

    let n = image.insns.len();
    // Fuse only contiguously laid-out pairs: the icache must see the
    // second instruction at its real address.
    let try_fuse = |i: usize| -> Option<Op> {
        if !fuse {
            return None;
        }
        let insn = &image.insns[i];
        let next = image.insns.get(i + 1)?;
        if image.insn_addrs[i + 1] != image.insn_addrs[i] + insn.len() {
            return None;
        }
        let f2 = F2 {
            cost2: u16::try_from(machine.base_cost(next)).ok()?,
            a2off: u8::try_from(insn.len()).ok()?,
        };
        fuse_pair(insn, next, f2, &resolve, taken_extra)
    };

    // --- Pass A: block runs ------------------------------------------
    //
    // A "stretch" is a maximal sequence of straight-line (non-control,
    // non-trapping) instructions; control can only *enter* a stretch at
    // a branch target and only *leave* it at the end. Every stretch
    // start — and every direct-branch target inside one, i.e. every
    // loop head — leads a run covering the rest of the stretch,
    // executed under a single dispatch with batched accounting. When
    // the stretch's last instruction would pair-fuse with the control
    // instruction ending the block (cmp+jcc, test+jcc, pop+ret), the
    // run stops one short so that fusion — which saves a dispatch on
    // the branch itself — still forms.
    const RUN_MIN: usize = 3;
    let is_straight = |insn: &Insn| {
        !matches!(
            insn,
            Insn::Call { .. }
                | Insn::CallInd { .. }
                | Insn::CallNative { .. }
                | Insn::Ret
                | Insn::Jmp { .. }
                | Insn::JmpInd { .. }
                | Insn::Jcc { .. }
                | Insn::Trap
                | Insn::Halt
        )
    };
    let mut is_target = vec![false; n];
    for insn in &image.insns {
        if let Insn::Call { target } | Insn::Jmp { target } | Insn::Jcc { target, .. } = *insn {
            let t = resolve(target);
            if t != NO_INSN {
                is_target[t as usize] = true;
            }
        }
    }
    let mut run_at = vec![NO_INSN; n];
    let mut covered = vec![false; n];
    let mut runs = Vec::new();
    let mut run_segs: Vec<RunSeg> = Vec::new();
    let mut run_ops: Vec<ROp> = Vec::new();
    let line_size = machine.icache.line as u64;
    let mut s = 0usize;
    while fuse && s < n {
        if !is_straight(&image.insns[s]) {
            s += 1;
            continue;
        }
        let mut e = s;
        while e < n && is_straight(&image.insns[e]) {
            e += 1;
        }
        // Trailing-pair shrink (see above).
        let cov_end = if e < n && e > s && try_fuse(e - 1).is_some() {
            e - 1
        } else {
            e
        };
        for lead in s..cov_end {
            if lead != s && !is_target[lead] {
                continue;
            }
            let end = cov_end.min(lead + u16::MAX as usize);
            if end - lead < RUN_MIN {
                continue;
            }
            let seg_start = run_segs.len() as u32;
            let mut members_cost = 0u64;
            for t in lead + 1..end {
                members_cost += machine.base_cost(&image.insns[t]);
            }
            // Same-line segments of members: purely the icache charging
            // schedule (one access_span per segment at execution time).
            let mut seg_member_start: Vec<usize> = Vec::new();
            let mut m = lead + 1;
            while m < end {
                let line = image.insn_addrs[m] / line_size;
                let mut e2 = m + 1;
                while e2 < end && image.insn_addrs[e2] / line_size == line {
                    e2 += 1;
                }
                seg_member_start.push(m);
                run_segs.push(RunSeg {
                    line,
                    count: (e2 - m) as u16,
                    n_ops: 0,
                    first: 0,
                });
                m = e2;
            }
            // Effect stream for the whole member range: adjacent
            // members in the fusion catalogue fuse (effects only — no
            // accounting between halves, so no contiguity needed); the
            // rest decode standalone. A member that leads a nested run
            // still contributes just its own insn here. Entry
            // boundaries are independent of segment boundaries with one
            // exception: a fallible pair stays within one icache line,
            // so fault rollback stays segment-local. The fault-free
            // quad may straddle lines — its register effects commute
            // with span charges.
            //
            // Quad template first (strictly more members per dispatch
            // than two pairs), then pairs, then singles. If a quad
            // starts one insn ahead, emit a single now to resync —
            // greedy pairing would otherwise stay phase-shifted for the
            // rest of the stretch and never form another quad.
            let stream_base = run_ops.len();
            let mut starts: Vec<usize> = Vec::new();
            let quad_at = |q: usize| -> Option<Op> {
                if q + 3 >= end {
                    return None;
                }
                if let (
                    Insn::MovImm { dst: a, imm } | Insn::MovAbs { dst: a, imm },
                    Insn::MovReg { dst: bd, src: bs },
                    Insn::AluReg {
                        op,
                        dst: cd,
                        src: cs,
                    },
                    Insn::MovReg { dst: dd, src: ds },
                ) = (
                    image.insns[q],
                    image.insns[q + 1],
                    image.insns[q + 2],
                    image.insns[q + 3],
                ) {
                    // The chained-operand shape collapses; the gates
                    // (`bs != a`, distinct scratch) keep the collapsed
                    // write set identical to the four-instruction
                    // original.
                    if bd == cd && cs == a && ds == cd && bs != a && bd != a {
                        Some(Op::AluImmQuad {
                            imm,
                            a,
                            scratch: bd,
                            op,
                            src: bs,
                            dst: dd,
                        })
                    } else {
                        Some(Op::MovImmAluQuad {
                            imm,
                            a,
                            bd,
                            bs,
                            op,
                            cd,
                            cs,
                            dd,
                            ds,
                        })
                    }
                } else {
                    None
                }
            };
            let mut j = lead + 1;
            while j < end {
                let addr = image.insn_addrs[j];
                let off = (addr - (addr / line_size) * line_size) as u16;
                let k = (j - (lead + 1)) as u16;
                if let Some(op) = quad_at(j) {
                    starts.push(j);
                    run_ops.push(ROp { op, off, k });
                    j += 4;
                    continue;
                }
                let resync = quad_at(j + 1).is_some();
                let same_line =
                    j + 1 < end && image.insn_addrs[j + 1] / line_size == addr / line_size;
                let fused_pair = (!resync && same_line)
                    .then(|| {
                        let f2 = F2 {
                            cost2: u16::try_from(machine.base_cost(&image.insns[j + 1]))
                                .unwrap_or(0),
                            a2off: u8::try_from(image.insn_addrs[j + 1].wrapping_sub(addr))
                                .unwrap_or(0),
                        };
                        fuse_pair(
                            &image.insns[j],
                            &image.insns[j + 1],
                            f2,
                            &resolve,
                            taken_extra,
                        )
                    })
                    .flatten();
                starts.push(j);
                match fused_pair {
                    Some(op) => {
                        run_ops.push(ROp { op, off, k });
                        j += 2;
                    }
                    None => {
                        run_ops.push(ROp {
                            op: single(&image.insns[j], addr, image, &resolve, taken_extra),
                            off,
                            k,
                        });
                        j += 1;
                    }
                }
            }
            // Assign each entry to the segment containing its start
            // member. A segment fully consumed by a straddling quad
            // keeps zero entries (its span is still charged).
            let mut ei = 0usize;
            for (si, seg) in run_segs[seg_start as usize..].iter_mut().enumerate() {
                let mend = seg_member_start[si] + seg.count as usize;
                seg.first = (stream_base + ei) as u32;
                while ei < starts.len() && starts[ei] < mend {
                    ei += 1;
                }
                seg.n_ops = (stream_base + ei - seg.first as usize) as u16;
                // Chain adjacent quads: the first of two neighbouring
                // quad entries becomes a pair head, executed together
                // with its successor under one dispatch. Confined to
                // one segment so the run loop's per-segment entry
                // slices stay self-contained.
                let mut q = seg.first as usize;
                let seg_end = seg.first as usize + seg.n_ops as usize;
                let is_quad =
                    |o: &Op| matches!(o, Op::MovImmAluQuad { .. } | Op::AluImmQuad { .. });
                while q + 1 < seg_end {
                    if is_quad(&run_ops[q].op) && is_quad(&run_ops[q + 1].op) {
                        run_ops[q].op = match run_ops[q].op {
                            Op::MovImmAluQuad {
                                imm,
                                a,
                                bd,
                                bs,
                                op,
                                cd,
                                cs,
                                dd,
                                ds,
                            } => Op::MovImmAluQuadPair {
                                imm,
                                a,
                                bd,
                                bs,
                                op,
                                cd,
                                cs,
                                dd,
                                ds,
                            },
                            Op::AluImmQuad {
                                imm,
                                a,
                                scratch,
                                op,
                                src,
                                dst,
                            } => Op::AluImmQuadPair {
                                imm,
                                a,
                                scratch,
                                op,
                                src,
                                dst,
                            },
                            _ => unreachable!(),
                        };
                        q += 2;
                    } else {
                        q += 1;
                    }
                }
            }
            run_at[lead] = runs.len() as u32;
            runs.push(RunInfo {
                n: (end - lead) as u16,
                members_cost,
                leader: single(
                    &image.insns[lead],
                    image.insn_addrs[lead],
                    image,
                    &resolve,
                    taken_extra,
                ),
                seg_start,
                seg_count: (run_segs.len() as u32 - seg_start) as u16,
            });
            covered[lead..end].iter_mut().for_each(|c| *c = true);
        }
        s = e;
    }

    // --- Pass B: decoded ops -----------------------------------------
    //
    // Run members must stay standalone-decodable (the run executes them
    // one original instruction at a time, and indirect transfers can
    // land on any of them), so pair fusion is gated on neither half
    // being covered by a run.
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let insn = &image.insns[i];
        let addr = image.insn_addrs[i];
        let cost = u32::try_from(machine.base_cost(insn)).expect("base cost fits u32");
        let op = if run_at[i] != NO_INSN {
            Op::Run { run: run_at[i] }
        } else if !covered[i] && !covered.get(i + 1).copied().unwrap_or(false) {
            try_fuse(i).unwrap_or_else(|| single(insn, addr, image, &resolve, taken_extra))
        } else {
            single(insn, addr, image, &resolve, taken_extra)
        };
        ops.push(DOp { cost, addr, op });
    }

    DecodedProgram {
        machine: *machine,
        fused: fuse,
        insns: image.insns.clone(),
        insn_addrs: image.insn_addrs.clone(),
        ops,
        runs,
        run_segs,
        run_ops,
        dispatch,
        text_base: l.text_base,
        natives: image.natives.clone(),
        entry: image.entry,
        constructors: image.constructors.clone(),
        layout: l,
        xom: image.xom,
        data_init: image.data_init.clone(),
        init_mem: build_init_mem(image),
    }
}

/// Decodes one instruction into its standalone op.
fn single(
    insn: &Insn,
    addr: VAddr,
    image: &Image,
    resolve: &impl Fn(VAddr) -> u32,
    taken_extra: u16,
) -> Op {
    match *insn {
        // MovAbs is semantically MovImm; only its encoded length (and
        // therefore `addr` progression, already laid out) differs.
        Insn::MovImm { dst, imm } | Insn::MovAbs { dst, imm } => Op::MovImm { dst, imm },
        Insn::MovReg { dst, src } => Op::MovReg { dst, src },
        Insn::Load { dst, mem } => Op::Load { dst, mem },
        Insn::Store { mem, src } => Op::Store { mem, src },
        Insn::StoreImm { mem, imm } => Op::StoreImm { mem, imm },
        Insn::Lea { dst, mem } => Op::Lea { dst, mem },
        Insn::Push { src } => Op::Push { src },
        Insn::PushImm { imm } => Op::PushImm { imm },
        Insn::Pop { dst } => Op::Pop { dst },
        Insn::AluReg { op, dst, src } => Op::AluReg { op, dst, src },
        Insn::AluImm { op, dst, imm } => Op::AluImm { op, dst, imm },
        Insn::Div { dst, src } => Op::Div { dst, src },
        Insn::Rem { dst, src } => Op::Rem { dst, src },
        Insn::CmpReg { a, b } => Op::CmpReg { a, b },
        Insn::CmpImm { a, imm } => Op::CmpImm { a, imm },
        Insn::Test { a } => Op::Test { a },
        Insn::SetCc { cond, dst } => Op::SetCc { cond, dst },
        Insn::LoadAbs { dst, addr } => Op::LoadAbs { dst, addr },
        Insn::VLoadAbs { dst, addr } => Op::VLoadAbs { dst, addr },
        Insn::Call { target } => Op::Call {
            tgt: resolve(target),
            ra: addr + insn.len(),
        },
        Insn::CallInd { target } => Op::CallInd {
            target,
            ra: addr + insn.len(),
        },
        Insn::CallNative { native } => Op::CallNative {
            native,
            is_probe: image.natives.get(native as usize) == Some(&NativeKind::StackProbe),
        },
        Insn::Ret => Op::Ret,
        Insn::Jmp { target } => Op::Jmp {
            tgt: resolve(target),
        },
        Insn::JmpInd { target } => Op::JmpInd { target },
        Insn::Jcc { cond, target } => Op::Jcc {
            cond,
            tgt: resolve(target),
            taken_extra,
        },
        Insn::Nop { .. } => Op::Nop,
        Insn::Trap => Op::Trap,
        Insn::VLoad { dst, mem, aligned } => Op::VLoad { dst, mem, aligned },
        Insn::VStore { mem, src, aligned } => Op::VStore { mem, src, aligned },
        Insn::VZeroUpper => Op::VZeroUpper,
        Insn::Halt => Op::Halt,
    }
}

/// The fusion catalogue: returns the fused op for an adjacent pair, or
/// `None` when the pair is not a candidate.
fn fuse_pair(
    i1: &Insn,
    i2: &Insn,
    f2: F2,
    resolve: &impl Fn(VAddr) -> u32,
    taken_extra: u16,
) -> Option<Op> {
    Some(match (*i1, *i2) {
        (
            Insn::MovReg {
                dst: dst1,
                src: src1,
            },
            Insn::AluReg { op, dst, src },
        ) => Op::MovRegAluReg {
            dst1,
            src1,
            op,
            dst2: dst,
            src2: src,
            f2,
        },
        (
            Insn::AluReg {
                op,
                dst: dst1,
                src: src1,
            },
            Insn::MovReg { dst, src },
        ) => Op::AluRegMovReg {
            op,
            dst1,
            src1,
            dst2: dst,
            src2: src,
            f2,
        },
        (Insn::MovImm { dst: dst1, imm }, Insn::MovReg { dst, src }) => Op::MovImmMovReg {
            dst1,
            imm,
            dst2: dst,
            src2: src,
            f2,
        },
        (
            Insn::MovReg {
                dst: dst1,
                src: src1,
            },
            Insn::MovImm { dst, imm },
        ) => Op::MovRegMovImm {
            dst1,
            src1,
            dst2: dst,
            imm,
            f2,
        },
        (
            Insn::MovReg {
                dst: dst1,
                src: src1,
            },
            Insn::Store { mem, src },
        ) => Op::MovRegStore {
            dst1,
            src1,
            mem,
            src2: src,
            f2,
        },
        (Insn::Load { dst: dst1, mem }, Insn::MovReg { dst, src }) => Op::LoadMovReg {
            dst1,
            mem,
            dst2: dst,
            src2: src,
            f2,
        },
        (Insn::Store { mem: smem, src }, Insn::Load { dst, mem: lmem }) => Op::StoreLoad {
            smem,
            src,
            dst,
            lmem,
            f2,
        },
        (Insn::Lea { dst: dst1, mem }, Insn::MovReg { dst, src }) => Op::LeaMovReg {
            dst1,
            mem,
            dst2: dst,
            src2: src,
            f2,
        },
        (Insn::CmpReg { a, b }, Insn::Jcc { cond, target }) => Op::CmpRegJcc {
            a,
            b,
            cond,
            tgt: resolve(target),
            taken_extra,
            f2,
        },
        (Insn::CmpImm { a, imm }, Insn::Jcc { cond, target }) => Op::CmpImmJcc {
            a,
            imm,
            cond,
            tgt: resolve(target),
            taken_extra,
            f2,
        },
        (Insn::Test { a }, Insn::Jcc { cond, target }) => Op::TestJcc {
            a,
            cond,
            tgt: resolve(target),
            taken_extra,
            f2,
        },
        (Insn::CmpReg { a, b }, Insn::SetCc { cond, dst }) => Op::CmpRegSetCc {
            a,
            b,
            cond,
            dst,
            f2,
        },
        (Insn::Push { src: s1 }, Insn::Push { src: s2 }) => Op::PushPush { s1, s2, f2 },
        (Insn::Pop { dst: d1 }, Insn::Pop { dst: d2 }) => Op::PopPop { d1, d2, f2 },
        (Insn::Pop { dst: d1 }, Insn::Ret) => Op::PopRet { d1, f2 },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_catalogue_covers_expected_pairs() {
        let f2 = F2 { cost2: 3, a2off: 3 };
        let resolve = |_t: VAddr| 7u32;
        let pairs: &[(Insn, Insn)] = &[
            (
                Insn::MovReg {
                    dst: Gpr::Rax,
                    src: Gpr::Rbx,
                },
                Insn::AluReg {
                    op: AluOp::Add,
                    dst: Gpr::Rax,
                    src: Gpr::Rcx,
                },
            ),
            (
                Insn::CmpImm {
                    a: Gpr::Rcx,
                    imm: 10,
                },
                Insn::Jcc {
                    cond: Cond::Le,
                    target: 0x40_0000,
                },
            ),
            (Insn::Push { src: Gpr::Rbp }, Insn::Push { src: Gpr::Rbx }),
            (Insn::Pop { dst: Gpr::Rbp }, Insn::Ret),
        ];
        for (a, b) in pairs {
            assert!(
                fuse_pair(a, b, f2, &resolve, 2).is_some(),
                "{a:?} + {b:?} must fuse"
            );
        }
        // Calls and natives never fuse (probe/resume and tracer seams).
        assert!(fuse_pair(
            &Insn::Call { target: 0x40_0000 },
            &Insn::Ret,
            f2,
            &resolve,
            2
        )
        .is_none());
    }
}
