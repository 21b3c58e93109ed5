//! The versioned binary trace format (`.r2ct`).
//!
//! A [`CapturedTrace`] is the on-disk artifact of the *record* half of
//! the pipeline: the complete environment-boundary event stream of one
//! execution, plus a summary block pinning the oracle fields a replay
//! must reproduce. The encoding is deliberately tiny and dependency-
//! free: a 4-byte magic, a little-endian `u32` version, then LEB128
//! varints throughout (signed values zigzag-encoded). Repetitions the
//! reducer collapses are first-class ops ([`ReplayOp::Rep`]), so a
//! million-iteration server loop costs a few bytes instead of a few
//! megabytes — the "parameterized replay op" of Wasm-R3.

use r2c_vm::{ExecStats, NativeKind};

/// Magic bytes opening every `.r2ct` file.
pub const MAGIC: &[u8; 4] = b"R2CT";

/// Current format version. Decoders reject anything newer.
pub const VERSION: u32 = 1;

/// One replay operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// A native (extern) call and its recorded answer.
    Extern {
        /// The native that ran (encoded by stable id, see
        /// [`native_id`]).
        kind: NativeKind,
        /// `[rdi, rsi, rdx]` at the call.
        args: [u64; 3],
        /// `rax` after the call — the answer a replay stub serves.
        ret: u64,
    },
    /// An indirect call resolved to a concrete target.
    Indirect {
        /// Address of the `callind` instruction.
        at: u64,
        /// Resolved callee address.
        target: u64,
    },
    /// A call into a `no_instrument` boundary function.
    BoundaryCall {
        /// Address of the call instruction.
        at: u64,
        /// Boundary-function entry address.
        target: u64,
    },
    /// A `ret` inside a `no_instrument` boundary function.
    BoundaryRet {
        /// Address of the `ret`.
        at: u64,
    },
    /// A request arrival at `at` simulated guest cycles (recorded from
    /// an `r2c-serve` open-loop schedule).
    Arrival {
        /// Arrival time in simulated guest cycles.
        at: u64,
    },
    /// `count` repetitions of `body` — the parameterized replay op the
    /// reducer emits for collapsed loops. Bodies are flat (no nested
    /// reps).
    Rep {
        /// Repetition count (≥ 2).
        count: u32,
        /// The repeated op sequence.
        body: Vec<ReplayOp>,
    },
}

/// The oracle fields a replay must reproduce, recorded under the
/// pinned record configuration (build config + machine in
/// `record::RecordConfig`); `instructions`/`cycles_deci` additionally
/// pin the bit-identical `ExecStats` contract for that configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Exit code of the run.
    pub exit: i64,
    /// Dynamically executed instructions.
    pub instructions: u64,
    /// Deci-cycles under the record machine's cost model.
    pub cycles_deci: u64,
    /// Executed `call`/`callind` instructions.
    pub calls: u64,
    /// Successful heap allocations observed.
    pub allocs: u64,
    /// Frees observed.
    pub frees: u64,
    /// Number of output values printed.
    pub output_len: u64,
    /// FNV-1a hash over the printed output values.
    pub output_hash: u64,
}

/// A complete captured trace: name, op stream, summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapturedTrace {
    /// Workload name (also the `.r2cir`/`.r2ct` file stem).
    pub name: String,
    /// The (possibly collapsed) replay op stream.
    pub ops: Vec<ReplayOp>,
    /// Oracle summary.
    pub summary: TraceSummary,
}

/// FNV-1a over output values (the summary's output fingerprint).
pub fn output_hash(output: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in output {
        for b in (v as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

/// Builds a summary from a run's stats and output plus the tracer's
/// heap counters.
pub fn summary_of(
    exit: i64,
    stats: &ExecStats,
    output: &[i64],
    allocs: u64,
    frees: u64,
) -> TraceSummary {
    TraceSummary {
        exit,
        instructions: stats.instructions,
        cycles_deci: stats.cycles,
        calls: stats.calls,
        allocs,
        frees,
        output_len: output.len() as u64,
        output_hash: output_hash(output),
    }
}

/// Stable on-disk id of a native kind.
pub fn native_id(kind: NativeKind) -> u8 {
    match kind {
        NativeKind::Malloc => 0,
        NativeKind::Free => 1,
        NativeKind::Memalign => 2,
        NativeKind::Mprotect => 3,
        NativeKind::PrintI64 => 4,
        NativeKind::PutChar => 5,
        NativeKind::StackProbe => 6,
    }
}

fn native_of(id: u8) -> Result<NativeKind, String> {
    Ok(match id {
        0 => NativeKind::Malloc,
        1 => NativeKind::Free,
        2 => NativeKind::Memalign,
        3 => NativeKind::Mprotect,
        4 => NativeKind::PrintI64,
        5 => NativeKind::PutChar,
        6 => NativeKind::StackProbe,
        other => return Err(format!("unknown native id {other}")),
    })
}

const TAG_EXTERN: u8 = 1;
const TAG_INDIRECT: u8 = 2;
const TAG_BOUNDARY_CALL: u8 = 3;
const TAG_BOUNDARY_RET: u8 = 4;
const TAG_ARRIVAL: u8 = 5;
const TAG_REP: u8 = 6;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err("varint overflow".into());
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn zigzag(&mut self) -> Result<i64, String> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
}

fn encode_op(out: &mut Vec<u8>, op: &ReplayOp) {
    match op {
        ReplayOp::Extern { kind, args, ret } => {
            out.push(TAG_EXTERN);
            out.push(native_id(*kind));
            for &a in args {
                put_varint(out, a);
            }
            put_varint(out, *ret);
        }
        ReplayOp::Indirect { at, target } => {
            out.push(TAG_INDIRECT);
            put_varint(out, *at);
            put_varint(out, *target);
        }
        ReplayOp::BoundaryCall { at, target } => {
            out.push(TAG_BOUNDARY_CALL);
            put_varint(out, *at);
            put_varint(out, *target);
        }
        ReplayOp::BoundaryRet { at } => {
            out.push(TAG_BOUNDARY_RET);
            put_varint(out, *at);
        }
        ReplayOp::Arrival { at } => {
            out.push(TAG_ARRIVAL);
            put_varint(out, *at);
        }
        ReplayOp::Rep { count, body } => {
            out.push(TAG_REP);
            put_varint(out, *count as u64);
            put_varint(out, body.len() as u64);
            for b in body {
                debug_assert!(!matches!(b, ReplayOp::Rep { .. }), "rep bodies are flat");
                encode_op(out, b);
            }
        }
    }
}

fn decode_op(r: &mut Reader<'_>, allow_rep: bool) -> Result<ReplayOp, String> {
    Ok(match r.byte()? {
        TAG_EXTERN => {
            let kind = native_of(r.byte()?)?;
            let args = [r.varint()?, r.varint()?, r.varint()?];
            let ret = r.varint()?;
            ReplayOp::Extern { kind, args, ret }
        }
        TAG_INDIRECT => ReplayOp::Indirect {
            at: r.varint()?,
            target: r.varint()?,
        },
        TAG_BOUNDARY_CALL => ReplayOp::BoundaryCall {
            at: r.varint()?,
            target: r.varint()?,
        },
        TAG_BOUNDARY_RET => ReplayOp::BoundaryRet { at: r.varint()? },
        TAG_ARRIVAL => ReplayOp::Arrival { at: r.varint()? },
        TAG_REP => {
            if !allow_rep {
                return Err("nested rep".into());
            }
            let count = r.varint()?;
            let count =
                u32::try_from(count).map_err(|_| format!("rep count {count} exceeds u32"))?;
            if count < 2 {
                return Err(format!("rep count {count} < 2"));
            }
            let n = r.varint()? as usize;
            let mut body = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                body.push(decode_op(r, false)?);
            }
            ReplayOp::Rep { count, body }
        }
        other => return Err(format!("unknown op tag {other}")),
    })
}

impl CapturedTrace {
    /// Serializes to the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.ops.len() * 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_varint(&mut out, self.name.len() as u64);
        out.extend_from_slice(self.name.as_bytes());
        let s = &self.summary;
        put_zigzag(&mut out, s.exit);
        for v in [
            s.instructions,
            s.cycles_deci,
            s.calls,
            s.allocs,
            s.frees,
            s.output_len,
            s.output_hash,
        ] {
            put_varint(&mut out, v);
        }
        put_varint(&mut out, self.ops.len() as u64);
        for op in &self.ops {
            encode_op(&mut out, op);
        }
        out
    }

    /// Parses the format produced by [`CapturedTrace::encode`].
    pub fn decode(buf: &[u8]) -> Result<CapturedTrace, String> {
        if buf.len() < 8 || &buf[..4] != MAGIC {
            return Err("bad magic (not an .r2ct trace)".into());
        }
        let version = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if version != VERSION {
            return Err(format!(
                "unsupported trace version {version} (have {VERSION})"
            ));
        }
        let mut r = Reader { buf, pos: 8 };
        let name_len = r.varint()? as usize;
        let name_end = r
            .pos
            .checked_add(name_len)
            .filter(|&e| e <= buf.len())
            .ok_or("truncated name")?;
        let name = std::str::from_utf8(&buf[r.pos..name_end])
            .map_err(|_| "name is not utf-8".to_string())?
            .to_string();
        r.pos = name_end;
        let summary = TraceSummary {
            exit: r.zigzag()?,
            instructions: r.varint()?,
            cycles_deci: r.varint()?,
            calls: r.varint()?,
            allocs: r.varint()?,
            frees: r.varint()?,
            output_len: r.varint()?,
            output_hash: r.varint()?,
        };
        let n = r.varint()? as usize;
        let mut ops = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            ops.push(decode_op(&mut r, true)?);
        }
        if r.pos != buf.len() {
            return Err(format!("{} trailing bytes", buf.len() - r.pos));
        }
        Ok(CapturedTrace { name, ops, summary })
    }

    /// The op stream with every [`ReplayOp::Rep`] expanded in place.
    pub fn expanded_ops(&self) -> Vec<ReplayOp> {
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                ReplayOp::Rep { count, body } => {
                    for _ in 0..*count {
                        out.extend(body.iter().cloned());
                    }
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// Expanded op count (cheap: no materialization).
    pub fn expanded_len(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                ReplayOp::Rep { count, body } => *count as u64 * body.len() as u64,
                _ => 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CapturedTrace {
        CapturedTrace {
            name: "sample".into(),
            ops: vec![
                ReplayOp::Extern {
                    kind: NativeKind::Malloc,
                    args: [4096, 0, 0],
                    ret: 0x10_0000_0000,
                },
                ReplayOp::Rep {
                    count: 3,
                    body: vec![
                        ReplayOp::Indirect {
                            at: 0x40_0010,
                            target: 0x40_0100,
                        },
                        ReplayOp::Extern {
                            kind: NativeKind::PrintI64,
                            args: [7, 0, 0],
                            ret: 0,
                        },
                    ],
                },
                ReplayOp::Arrival { at: 123_456 },
                ReplayOp::BoundaryCall { at: 1, target: 2 },
                ReplayOp::BoundaryRet { at: 3 },
            ],
            summary: TraceSummary {
                exit: -5,
                instructions: 1_000_000,
                cycles_deci: 12_345_678,
                calls: 42,
                allocs: 1,
                frees: 1,
                output_len: 3,
                output_hash: output_hash(&[7, 7, 7]),
            },
        }
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = t.encode();
        let back = CapturedTrace::decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    /// A `Rep` count is a u64 varint on the wire but a u32 in memory:
    /// `u32::MAX` round-trips, one past it is an error, never a silent
    /// truncation (2^32 + 1 used to decode as a count of 1).
    #[test]
    fn rep_count_past_u32_is_rejected() {
        let mut t = sample();
        t.ops = vec![ReplayOp::Rep {
            count: u32::MAX,
            body: vec![ReplayOp::BoundaryRet { at: 3 }],
        }];
        let good = t.encode();
        assert_eq!(CapturedTrace::decode(&good).unwrap(), t);
        // The trace ends with the rep: tag, count varint, body length
        // (1 byte), body op (2 bytes).
        let count_at = good.len() - 3 - 5; // u32::MAX is a 5-byte varint
        let mut bad = good[..count_at].to_vec();
        put_varint(&mut bad, (1u64 << 32) + 1);
        bad.extend_from_slice(&good[good.len() - 3..]);
        let err = CapturedTrace::decode(&bad).unwrap_err();
        assert!(err.contains("exceeds u32"), "{err}");
    }

    #[test]
    fn expansion() {
        let t = sample();
        assert_eq!(t.expanded_len(), 1 + 6 + 1 + 1 + 1);
        assert_eq!(t.expanded_ops().len() as u64, t.expanded_len());
        assert_eq!(
            t.expanded_ops()[2],
            ReplayOp::Extern {
                kind: NativeKind::PrintI64,
                args: [7, 0, 0],
                ret: 0
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(CapturedTrace::decode(b"").is_err());
        assert!(CapturedTrace::decode(b"NOPE0000").is_err());
        let mut v2 = sample().encode();
        v2[4] = 99; // version
        assert!(CapturedTrace::decode(&v2).unwrap_err().contains("version"));
        let t = sample().encode();
        assert!(
            CapturedTrace::decode(&t[..t.len() - 1]).is_err(),
            "truncation must be detected"
        );
        let mut trailing = sample().encode();
        trailing.push(0);
        assert!(CapturedTrace::decode(&trailing)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn zigzag_negative_exit() {
        let mut t = sample();
        t.summary.exit = i64::MIN + 1;
        let back = CapturedTrace::decode(&t.encode()).unwrap();
        assert_eq!(back.summary.exit, i64::MIN + 1);
    }

    #[test]
    fn output_hash_distinguishes_order() {
        assert_ne!(output_hash(&[1, 2]), output_hash(&[2, 1]));
        assert_ne!(output_hash(&[]), output_hash(&[0]));
    }
}
