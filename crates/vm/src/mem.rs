//! Sparse paged guest memory with R/W/X permissions.
//!
//! Memory is organized in 4 KiB pages, mapped on demand. Every access is
//! permission-checked the way the corresponding hardware access would be:
//! data loads need `R`, stores need `W`, and instruction fetch needs `X`
//! (and *only* `X`, which is what makes execute-only text useful against
//! direct JIT-ROP disclosure). Pages with no permissions at all act as the
//! guard pages backing booby-trapped data pointers: any access faults.
//!
//! ## Host-side fast paths
//!
//! The observable behaviour (fault semantics, permission checks, byte
//! contents, rss accounting) is independent of the lookup machinery, so
//! the hot paths are free to be aggressive:
//!
//! * page frames live in one contiguous arena (a single [`Vec<u8>`]), so
//!   materializing a page never heap-allocates on its own; the page
//!   table is two-level — a [`HashMap`] of 2 MiB *regions* (keyed with
//!   an FxHash-style multiplicative hasher instead of the
//!   DoS-resistant SipHash default; guest page numbers are not
//!   attacker-controlled hash inputs — the *simulated* attacker
//!   operates on simulated memory, never on host data structures),
//!   each a dense 512-entry array — so a bulk `map`/`unmap`/`protect`
//!   of a multi-megabyte `malloc` costs one hash probe per region and
//!   an array store per page, not a hash insert per page;
//! * page frames are **lazily materialized**: `map` records only the
//!   table entry, and the backing frame is allocated (zeroed) on first
//!   write — reads of never-written pages return zeros without
//!   allocating, so a huge guest `malloc` that is sparsely touched
//!   costs only its table entries;
//! * a software TLB (one last-page entry per access class: read, write,
//!   execute) short-circuits the map for the overwhelmingly common
//!   same-page-as-last-time case. It caches permissions too, which is
//!   sound because every table mutation (`map`, `protect`, `unmap`,
//!   frame materialization) flushes it — revoked permissions are
//!   visible immediately;
//! * `read_u64`/`write_u64` take a whole-word single-page fast path and
//!   only fall back to the byte loop when the access crosses a page
//!   boundary.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::fault::Fault;
use crate::VAddr;

/// FxHash (the rustc hash): a single multiply-xor round per word. Not
/// DoS-resistant, which is fine here — see the module docs. Byte slices
/// are consumed eight bytes per round, so hashing a large buffer (the
/// decode cache fingerprints whole images) costs one round per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type BuildFxHasher = BuildHasherDefault<FxHasher>;

/// Size of a guest page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Page permission bits.
///
/// A fresh mapping gets whatever the caller asks for; `mprotect` can later
/// revoke or grant bits, exactly like the POSIX call the R²C constructor
/// uses to turn allocated heap pages into guard pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Perms(u8);

impl Perms {
    /// No access at all (guard page).
    pub const NONE: Perms = Perms(0);
    /// Readable.
    pub const R: Perms = Perms(1);
    /// Writable.
    pub const W: Perms = Perms(2);
    /// Executable.
    pub const X: Perms = Perms(4);
    /// Read + write (ordinary data).
    pub const RW: Perms = Perms(1 | 2);
    /// Read + execute (conventional text).
    pub const RX: Perms = Perms(1 | 4);
    /// Execute-only (XoM-protected text).
    pub const XO: Perms = Perms(4);

    /// Returns true if all bits of `other` are present in `self`.
    pub fn allows(self, other: Perms) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two permission sets.
    pub fn union(self, other: Perms) -> Perms {
        Perms(self.0 | other.0)
    }

    /// True if the page is readable.
    pub fn readable(self) -> bool {
        self.allows(Perms::R)
    }

    /// True if the page is writable.
    pub fn writable(self) -> bool {
        self.allows(Perms::W)
    }

    /// True if the page is executable.
    pub fn executable(self) -> bool {
        self.allows(Perms::X)
    }
}

impl std::fmt::Display for Perms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' },
        )
    }
}

/// Access classes with a dedicated TLB entry each.
#[derive(Clone, Copy)]
enum AccessClass {
    Read = 0,
    Write = 1,
    Exec = 2,
}

/// Frame-slot sentinel: the page is mapped but its backing frame has
/// not been materialized yet, so its contents are all-zero.
const NO_FRAME: u32 = u32::MAX;

/// Frame-slot flag: the frame lives in the *shared* snapshot arena
/// ([`Memory::base`]) rather than this address space's private arena.
/// Shared frames are read-only; the first write to such a page breaks
/// the sharing by copying the frame into a private slot
/// ([`Memory::cow_break`]). Note [`NO_FRAME`] (all ones) also carries
/// this bit, so every slot inspection checks `NO_FRAME` first.
const SHARED_BIT: u32 = 1 << 31;

/// Mask extracting the arena index from a slot (strips [`SHARED_BIT`]).
const SLOT_MASK: u32 = SHARED_BIT - 1;

/// Table entry for one page.
#[derive(Clone, Copy)]
struct PageEntry {
    perms: Perms,
    /// False for the dense-array slots of a region whose page was never
    /// mapped (or was unmapped): the entry is a hole, not a mapping.
    mapped: bool,
    /// Frame arena slot, or [`NO_FRAME`] while the page has never been
    /// written.
    slot: u32,
}

const UNMAPPED_ENTRY: PageEntry = PageEntry {
    perms: Perms::NONE,
    mapped: false,
    slot: NO_FRAME,
};

/// Pages per second-level table: 512 pages = 2 MiB of guest address
/// space per region.
const REGION_BITS: u64 = 9;
const REGION_PAGES: usize = 1 << REGION_BITS;
const REGION_MASK: u64 = REGION_PAGES as u64 - 1;

/// Second-level page table: a dense entry array covering one 2 MiB
/// aligned slice of the guest address space, plus a population count
/// so a fully-unmapped region can be dropped from the top-level map.
#[derive(Clone)]
struct Region {
    entries: Box<[PageEntry; REGION_PAGES]>,
    mapped: u32,
}

impl Region {
    fn empty() -> Region {
        Region {
            entries: Box::new([UNMAPPED_ENTRY; REGION_PAGES]),
            mapped: 0,
        }
    }
}

/// One cached page-number → page-entry translation. `page` is
/// `u64::MAX` (an impossible page number for valid 64-bit addresses)
/// when invalid. Caching `perms` is sound because every operation that
/// changes an entry (`map`, `protect`, `unmap`, materialization)
/// flushes the TLB.
#[derive(Clone, Copy)]
struct TlbEntry {
    page: u64,
    slot: u32,
    perms: Perms,
}

const TLB_INVALID: TlbEntry = TlbEntry {
    page: u64::MAX,
    slot: NO_FRAME,
    perms: Perms::NONE,
};

/// Sparse paged memory.
///
/// Tracks the number of resident pages and the high-water mark, which is
/// how the reproduction measures the `maxrss` metric of paper §6.2.5.
///
/// ## Copy-on-write sharing
///
/// An address space built from a [`MemSnapshot`] shares both layers of
/// state with it instead of deep-copying:
///
/// * **regions** are refcounted (`Arc<Region>`): [`Memory::from_snapshot`]
///   and [`Memory::restore`] clone the top-level map only, bumping one
///   refcount per 2 MiB region, and any mutation of a shared region
///   (`map`, `protect`, `unmap`, materialization) un-shares just that
///   region via `Arc::make_mut`;
/// * **frames** stay in the snapshot's immutable arena ([`Memory::base`]),
///   marked with [`SHARED_BIT`] in their slots. Reads serve straight
///   from the shared arena; the first *write* to a shared page copies
///   its 4 KiB into the private arena ([`Memory::cow_break`]) and
///   repoints the entry.
///
/// Forking or resetting a worker is therefore O(dirty pages), not
/// O(image) — a 1000-worker fleet shares one copy of every untouched
/// text/data/stack page. The software TLB stays coherent across CoW
/// breaks because every table mutation (including a break) flushes it.
/// None of this is guest-visible: fault semantics, byte contents and
/// rss accounting are identical to a deep copy, which
/// [`Memory::from_snapshot_deep`] exists to prove differentially.
pub struct Memory {
    /// Region number (page >> [`REGION_BITS`]) → dense page entries.
    /// Regions are refcounted so a snapshot restore shares them until
    /// first mutation.
    table: HashMap<u64, Arc<Region>, BuildFxHasher>,
    /// Number of mapped pages across all regions.
    resident: usize,
    /// Contiguous *private* frame arena holding pages this address space
    /// owns (freshly materialized or un-shared by a CoW break); slot
    /// `i`'s backing bytes are `frames[i * PAGE_SIZE..][..PAGE_SIZE]`.
    /// Mapping allocates nothing here — a frame appears on first write,
    /// so a multi-megabyte guest `malloc` whose pages are never touched
    /// costs only its table entries. Unmapped slots are parked on `free`
    /// and re-zeroed on reuse.
    frames: Vec<u8>,
    free: Vec<u32>,
    /// The shared, immutable frame arena of the snapshot this address
    /// space was built from (empty for a fresh [`Memory::new`]). Slots
    /// carrying [`SHARED_BIT`] index into it.
    base: Arc<Vec<u8>>,
    /// Per-access-class software TLB. `Cell` so read-only accesses
    /// (`&self`) can refill it; `Memory` stays `Send` (each VM owns its
    /// address space exclusively — the parallel harness never shares
    /// one).
    tlb: [Cell<TlbEntry>; 3],
    /// High-water mark of mapped pages (for maxrss accounting).
    max_pages: usize,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of an address space, captured with
/// [`Memory::snapshot`] and reinstated with [`Memory::restore`].
///
/// This backs fast worker resets ([`Vm::reset_to_image`]) and forks
/// ([`Vm::fork_from_image`]): a server fleet that restarts a crashed or
/// booby-trapped worker does not rebuild the image from scratch, it
/// rolls the address space back to the snapshot taken at load time.
/// The snapshot owns an immutable, compacted copy of the page table
/// and frame arena, so it stays valid however the live memory is
/// mutated (including `unmap`) — and because both layers are
/// refcounted, reinstating it is O(dirty pages discarded), not
/// O(image): restored memories *share* the snapshot's regions and
/// frames copy-on-write.
///
/// [`Vm::reset_to_image`]: crate::Vm::reset_to_image
/// [`Vm::fork_from_image`]: crate::Vm::fork_from_image
#[derive(Clone)]
pub struct MemSnapshot {
    /// Shared regions; every materialized slot carries [`SHARED_BIT`]
    /// and indexes `arena`.
    table: HashMap<u64, Arc<Region>, BuildFxHasher>,
    resident: usize,
    /// Compacted frame arena holding every materialized page's bytes.
    arena: Arc<Vec<u8>>,
    max_pages: usize,
}

impl MemSnapshot {
    /// Number of mapped pages in the snapshot.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Number of *materialized* pages (pages with actual backing bytes;
    /// the rest read as zero) — the size a deep copy would pay for.
    pub fn materialized_pages(&self) -> usize {
        self.arena.len() / PAGE_SIZE as usize
    }
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory {
            table: HashMap::default(),
            resident: 0,
            frames: Vec::new(),
            free: Vec::new(),
            base: Arc::new(Vec::new()),
            tlb: [const { Cell::new(TLB_INVALID) }; 3],
            max_pages: 0,
        }
    }

    /// Creates an address space directly from a snapshot — the moral
    /// equivalent of `Memory::new()` + [`Memory::restore`], used to spin
    /// up a VM from a shared load-time image without re-running the
    /// map-and-poke sequence that produced it.
    ///
    /// O(regions), not O(image): the new address space shares the
    /// snapshot's regions (refcount bumps) and frame arena (CoW), so a
    /// fleet forking 1000 workers off one image copies no page bytes at
    /// all — each worker pays only for the pages it subsequently
    /// dirties.
    pub fn from_snapshot(snap: &MemSnapshot) -> Memory {
        Memory {
            table: snap.table.clone(),
            resident: snap.resident,
            frames: Vec::new(),
            free: Vec::new(),
            base: Arc::clone(&snap.arena),
            tlb: [const { Cell::new(TLB_INVALID) }; 3],
            max_pages: snap.max_pages,
        }
    }

    /// [`Memory::from_snapshot`] with sharing disabled: every
    /// materialized frame is copied into the private arena up front,
    /// exactly as the pre-CoW implementation did. Kept as the O(image)
    /// reference the differential suites (and the `report_fleet`
    /// fork-cost table) compare the CoW path against — guest-visible
    /// behaviour must be identical.
    pub fn from_snapshot_deep(snap: &MemSnapshot) -> Memory {
        let mut m = Memory::from_snapshot(snap);
        m.unshare_all();
        m
    }

    /// Captures the current address space (mappings, permissions, byte
    /// contents, rss high-water mark) for a later [`Memory::restore`].
    ///
    /// The snapshot compacts every materialized frame — private or
    /// itself shared with an earlier snapshot — into one immutable
    /// arena. O(resident); taken once per image at load time.
    pub fn snapshot(&self) -> MemSnapshot {
        let mut arena: Vec<u8> = Vec::with_capacity(self.frames.len());
        let mut table: HashMap<u64, Arc<Region>, BuildFxHasher> = HashMap::default();
        let mut rkeys: Vec<u64> = self.table.keys().copied().collect();
        rkeys.sort_unstable();
        for rkey in rkeys {
            let r = &self.table[&rkey];
            let mut nr = Region::empty();
            nr.mapped = r.mapped;
            for (i, e) in r.entries.iter().enumerate() {
                if !e.mapped {
                    continue;
                }
                let mut ne = *e;
                if e.slot != NO_FRAME {
                    let idx = (arena.len() / PAGE_SIZE as usize) as u32;
                    arena.extend_from_slice(self.frame(e.slot));
                    ne.slot = idx | SHARED_BIT;
                }
                nr.entries[i] = ne;
            }
            table.insert(rkey, Arc::new(nr));
        }
        MemSnapshot {
            table,
            resident: self.resident,
            arena: Arc::new(arena),
            max_pages: self.max_pages,
        }
    }

    /// [`Memory::snapshot`] for an address space that is not needed
    /// afterwards: a freshly built one with no shared frames and no
    /// freed slots adopts its private arena as the snapshot arena
    /// (shrunk to fit) instead of copying every page. The loader builds
    /// each image's load-time snapshot this way. Anything else falls
    /// back to the copying [`Memory::snapshot`].
    pub fn into_snapshot(mut self) -> MemSnapshot {
        if !self.base.is_empty() || !self.free.is_empty() {
            return self.snapshot();
        }
        // Every private slot backs exactly one mapped page; relabel the
        // slots as shared, keeping their arena positions.
        for r in self.table.values_mut() {
            for e in Arc::make_mut(r).entries.iter_mut() {
                if e.mapped && e.slot != NO_FRAME {
                    e.slot |= SHARED_BIT;
                }
            }
        }
        self.frames.shrink_to_fit();
        MemSnapshot {
            table: self.table,
            resident: self.resident,
            arena: Arc::new(self.frames),
            max_pages: self.max_pages,
        }
    }

    /// Rolls the address space back to `snap`, discarding every mapping,
    /// protection change and write performed since the snapshot was
    /// taken. O(dirty pages): the snapshot's regions and frames are
    /// re-shared (the private arena is kept, emptied, for later CoW
    /// breaks to reuse), so resetting a worker costs what the previous
    /// generation dirtied — independent of image size.
    ///
    /// The rss high-water mark is the one lifetime statistic that
    /// survives: `maxrss` measures the peak over the address space's
    /// whole life, so a long-lived restart-same worker keeps
    /// `max(self, snap)` rather than having its history erased by the
    /// rollback.
    pub fn restore(&mut self, snap: &MemSnapshot) {
        self.table.clone_from(&snap.table);
        self.resident = snap.resident;
        self.frames.clear();
        self.free.clear();
        self.base = Arc::clone(&snap.arena);
        self.max_pages = self.max_pages.max(snap.max_pages);
        self.flush_tlb();
    }

    /// [`Memory::restore`] with sharing disabled (see
    /// [`Memory::from_snapshot_deep`]): the O(image) deep-copy
    /// reference path.
    pub fn restore_deep(&mut self, snap: &MemSnapshot) {
        self.restore(snap);
        self.unshare_all();
    }

    /// Copies every still-shared frame into the private arena and drops
    /// the shared base, turning a CoW address space into a deep copy.
    fn unshare_all(&mut self) {
        let rkeys: Vec<u64> = self.table.keys().copied().collect();
        for rkey in rkeys {
            for i in 0..REGION_PAGES {
                let e = self.table[&rkey].entries[i];
                if e.mapped && e.slot != NO_FRAME && e.slot & SHARED_BIT != 0 {
                    self.cow_break((rkey << REGION_BITS) + i as u64, e.slot);
                }
            }
        }
        self.base = Arc::new(Vec::new());
        self.flush_tlb();
    }

    /// Pages whose backing frame this address space privately owns —
    /// freshly materialized or un-shared by a CoW break since the last
    /// restore. This is the "dirty pages" a CoW fork or reset has
    /// actually paid for, the quantity the O(dirty) claim is measured
    /// on.
    pub fn private_frames(&self) -> usize {
        self.frames.len() / PAGE_SIZE as usize - self.free.len()
    }

    /// Mapped pages whose frame is still shared with the snapshot arena
    /// (reads are served from the shared copy; a write would CoW-break).
    pub fn shared_frames(&self) -> usize {
        self.table
            .values()
            .map(|r| {
                r.entries
                    .iter()
                    .filter(|e| e.mapped && e.slot != NO_FRAME && e.slot & SHARED_BIT != 0)
                    .count()
            })
            .sum()
    }

    fn page_index(addr: VAddr) -> u64 {
        addr / PAGE_SIZE
    }

    #[inline]
    fn flush_tlb(&self) {
        for e in &self.tlb {
            e.set(TLB_INVALID);
        }
    }

    /// Translates a page number to its table entry, consulting the TLB
    /// entry of `class` first. Fills the entry on a map hit.
    #[inline]
    fn lookup(&self, page: u64, class: AccessClass) -> Option<PageEntry> {
        let e = self.tlb[class as usize].get();
        if e.page == page {
            return Some(PageEntry {
                perms: e.perms,
                mapped: true,
                slot: e.slot,
            });
        }
        let r = self.table.get(&(page >> REGION_BITS))?;
        let pe = r.entries[(page & REGION_MASK) as usize];
        if !pe.mapped {
            return None;
        }
        self.tlb[class as usize].set(TlbEntry {
            page,
            slot: pe.slot,
            perms: pe.perms,
        });
        Some(pe)
    }

    /// Mutable entry of a mapped page, or `None` if unmapped. Un-shares
    /// the containing region (`Arc::make_mut`) — any caller is about to
    /// mutate the entry, so the region cannot stay shared with a
    /// snapshot.
    #[inline]
    fn entry_mut(&mut self, page: u64) -> Option<&mut PageEntry> {
        let r = Arc::make_mut(self.table.get_mut(&(page >> REGION_BITS))?);
        let e = &mut r.entries[(page & REGION_MASK) as usize];
        if e.mapped {
            Some(e)
        } else {
            None
        }
    }

    /// Backing bytes of an arena slot — private or shared, dispatched on
    /// [`SHARED_BIT`].
    #[inline]
    fn frame(&self, slot: u32) -> &[u8] {
        let idx = (slot & SLOT_MASK) as usize * PAGE_SIZE as usize;
        if slot & SHARED_BIT != 0 {
            &self.base[idx..idx + PAGE_SIZE as usize]
        } else {
            &self.frames[idx..idx + PAGE_SIZE as usize]
        }
    }

    /// Mutable backing bytes of a *private* arena slot. Shared slots are
    /// immutable; writes route through [`Memory::frame_for_write`],
    /// which breaks the sharing first.
    #[inline]
    fn frame_mut(&mut self, slot: u32) -> &mut [u8] {
        debug_assert!(slot & SHARED_BIT == 0, "frame_mut on shared slot");
        let idx = slot as usize * PAGE_SIZE as usize;
        &mut self.frames[idx..idx + PAGE_SIZE as usize]
    }

    /// Allocates (or reuses) a zeroed slot in the private arena.
    fn alloc_private_slot(&mut self) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.frame_mut(s).fill(0);
                s
            }
            None => {
                let s = (self.frames.len() / PAGE_SIZE as usize) as u32;
                self.frames
                    .resize(self.frames.len() + PAGE_SIZE as usize, 0);
                s
            }
        }
    }

    /// Allocates (or reuses) a zeroed frame and attaches it to `page`'s
    /// entry. Flushes the TLB: cached entries still carrying
    /// [`NO_FRAME`] for this page would otherwise go stale.
    fn materialize(&mut self, page: u64) -> u32 {
        let slot = self.alloc_private_slot();
        self.entry_mut(page)
            .expect("materialize of unmapped page")
            .slot = slot;
        self.flush_tlb();
        slot
    }

    /// Breaks copy-on-write sharing for `page`: copies its 4 KiB out of
    /// the shared arena into a private slot and repoints the entry.
    /// Flushes the TLB so no access class keeps serving the (read-only)
    /// shared translation after the break.
    fn cow_break(&mut self, page: u64, shared_slot: u32) -> u32 {
        debug_assert!(
            shared_slot != NO_FRAME && shared_slot & SHARED_BIT != 0,
            "cow break of non-shared slot"
        );
        let slot = self.alloc_private_slot();
        let base = Arc::clone(&self.base);
        let idx = (shared_slot & SLOT_MASK) as usize * PAGE_SIZE as usize;
        self.frame_mut(slot)
            .copy_from_slice(&base[idx..idx + PAGE_SIZE as usize]);
        self.entry_mut(page)
            .expect("cow break of unmapped page")
            .slot = slot;
        self.flush_tlb();
        slot
    }

    /// Resolves a page's slot for writing: materializes a never-written
    /// page, CoW-breaks a shared one. Always returns a private slot.
    #[inline]
    fn frame_for_write(&mut self, page: u64, slot: u32) -> u32 {
        if slot == NO_FRAME {
            self.materialize(page)
        } else if slot & SHARED_BIT != 0 {
            self.cow_break(page, slot)
        } else {
            slot
        }
    }

    /// Maps `len` bytes starting at `addr` with permissions `perms`,
    /// zero-filling fresh pages. Remapping an existing page only updates
    /// its permissions (contents are preserved).
    pub fn map(&mut self, addr: VAddr, len: u64, perms: Perms) {
        if len == 0 {
            return;
        }
        self.flush_tlb();
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        let mut p = first;
        while p <= last {
            let r = Arc::make_mut(
                self.table
                    .entry(p >> REGION_BITS)
                    .or_insert_with(|| Arc::new(Region::empty())),
            );
            let stop = last.min(p | REGION_MASK);
            while p <= stop {
                let e = &mut r.entries[(p & REGION_MASK) as usize];
                if e.mapped {
                    e.perms = perms;
                } else {
                    *e = PageEntry {
                        perms,
                        mapped: true,
                        slot: NO_FRAME,
                    };
                    r.mapped += 1;
                    self.resident += 1;
                }
                p += 1;
            }
        }
        self.max_pages = self.max_pages.max(self.resident);
    }

    /// Maps only the currently-unmapped pages in `[addr, addr + len)`
    /// with `perms`, leaving already-mapped pages — contents *and*
    /// permissions — untouched. The heap uses this to back fresh
    /// allocations: a neighbouring page the guest already turned into a
    /// guard must stay a guard, and a bulk `malloc` must not pay a
    /// per-page `is_mapped` probe to find that out.
    pub fn map_missing(&mut self, addr: VAddr, len: u64, perms: Perms) {
        if len == 0 {
            return;
        }
        self.flush_tlb();
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        let mut p = first;
        while p <= last {
            let r = Arc::make_mut(
                self.table
                    .entry(p >> REGION_BITS)
                    .or_insert_with(|| Arc::new(Region::empty())),
            );
            let stop = last.min(p | REGION_MASK);
            while p <= stop {
                let e = &mut r.entries[(p & REGION_MASK) as usize];
                if !e.mapped {
                    *e = PageEntry {
                        perms,
                        mapped: true,
                        slot: NO_FRAME,
                    };
                    r.mapped += 1;
                    self.resident += 1;
                }
                p += 1;
            }
        }
        self.max_pages = self.max_pages.max(self.resident);
    }

    /// Sets every mapped, accessible (non-`NONE`) page in
    /// `[addr, addr + len)` to no-access, invoking `f` with each such
    /// page number in ascending order. Unmapped holes and pages that
    /// already deny everything (guards, quarantined pages) are skipped.
    /// This is the heap's bulk page-retirement primitive: one TLB flush
    /// and one region probe per 2 MiB, instead of an `is_mapped` +
    /// `perms_at` + `protect` round-trip per page.
    pub fn retire_accessible(&mut self, addr: VAddr, len: u64, mut f: impl FnMut(u64)) {
        if len == 0 {
            return;
        }
        self.flush_tlb();
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        let mut p = first;
        while p <= last {
            let stop = last.min(p | REGION_MASK);
            if let Some(r) = self.table.get_mut(&(p >> REGION_BITS)) {
                let r = Arc::make_mut(r);
                while p <= stop {
                    let e = &mut r.entries[(p & REGION_MASK) as usize];
                    if e.mapped && e.perms != Perms::NONE {
                        e.perms = Perms::NONE;
                        f(p);
                    }
                    p += 1;
                }
            } else {
                p = stop + 1;
            }
        }
    }

    /// Unmaps every page intersecting `[addr, addr+len)`.
    pub fn unmap(&mut self, addr: VAddr, len: u64) {
        if len == 0 {
            return;
        }
        self.flush_tlb();
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        let mut p = first;
        while p <= last {
            let rkey = p >> REGION_BITS;
            let stop = last.min(p | REGION_MASK);
            if let Some(r) = self.table.get_mut(&rkey) {
                let r = Arc::make_mut(r);
                while p <= stop {
                    let e = &mut r.entries[(p & REGION_MASK) as usize];
                    if e.mapped {
                        // Only privately-owned frames return to the free
                        // list; a shared frame stays in the snapshot
                        // arena (other address spaces may map it).
                        if e.slot != NO_FRAME && e.slot & SHARED_BIT == 0 {
                            self.free.push(e.slot);
                        }
                        *e = UNMAPPED_ENTRY;
                        r.mapped -= 1;
                        self.resident -= 1;
                    }
                    p += 1;
                }
                if r.mapped == 0 {
                    self.table.remove(&rkey);
                }
            } else {
                p = stop + 1;
            }
        }
    }

    /// Changes permissions on already-mapped pages (like `mprotect(2)`).
    ///
    /// Returns an access fault if any page in the range is unmapped.
    pub fn protect(&mut self, addr: VAddr, len: u64, perms: Perms) -> Result<(), Fault> {
        if len == 0 {
            return Ok(());
        }
        self.flush_tlb();
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        for p in first..=last {
            match self.entry_mut(p) {
                Some(e) => e.perms = perms,
                None => {
                    return Err(Fault::Unmapped {
                        addr: p * PAGE_SIZE,
                    })
                }
            }
        }
        Ok(())
    }

    /// Returns the permissions of the page containing `addr`, if mapped.
    pub fn perms_at(&self, addr: VAddr) -> Option<Perms> {
        Some(
            self.lookup(Self::page_index(addr), AccessClass::Read)?
                .perms,
        )
    }

    /// True if the page containing `addr` is mapped.
    pub fn is_mapped(&self, addr: VAddr) -> bool {
        let page = Self::page_index(addr);
        self.table
            .get(&(page >> REGION_BITS))
            .is_some_and(|r| r.entries[(page & REGION_MASK) as usize].mapped)
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// High-water mark of resident pages over the lifetime of this
    /// address space (the `maxrss` analogue).
    pub fn max_resident_pages(&self) -> usize {
        self.max_pages
    }

    /// Mapped pages intersecting `[addr, addr + len)`, as sorted
    /// `(page_number, perms)` pairs. Costs a scan of the whole page
    /// table — diagnostic/reporting use, not a hot path.
    pub fn mapped_pages_in(&self, addr: VAddr, len: u64) -> Vec<(u64, Perms)> {
        if len == 0 {
            return Vec::new();
        }
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        let mut pages: Vec<(u64, Perms)> = Vec::new();
        for (&rkey, r) in &self.table {
            let base = rkey << REGION_BITS;
            if base > last || base + REGION_MASK < first {
                continue;
            }
            for (i, e) in r.entries.iter().enumerate() {
                let p = base + i as u64;
                if e.mapped && p >= first && p <= last {
                    pages.push((p, e.perms));
                }
            }
        }
        pages.sort_unstable_by_key(|&(p, _)| p);
        pages
    }

    /// Number of mapped pages intersecting `[addr, addr + len)`.
    pub fn resident_pages_in(&self, addr: VAddr, len: u64) -> usize {
        self.mapped_pages_in(addr, len).len()
    }

    /// Single-page access check returning the page entry, shared by the
    /// word fast paths. A TLB hit may serve cached permissions — every
    /// mutation of the table flushes the TLB, so a `protect` immediately
    /// invalidates what a stale entry would otherwise allow.
    #[inline]
    fn check_page(
        &self,
        addr: VAddr,
        need: Perms,
        write: bool,
        class: AccessClass,
    ) -> Result<PageEntry, Fault> {
        match self.lookup(Self::page_index(addr), class) {
            None => Err(Fault::Unmapped { addr }),
            Some(e) => {
                if !e.perms.allows(need) {
                    Err(Fault::Protection {
                        addr,
                        perms: e.perms,
                        write,
                    })
                } else {
                    Ok(e)
                }
            }
        }
    }

    fn check(&self, addr: VAddr, len: u64, need: Perms, write: bool) -> Result<(), Fault> {
        debug_assert!(len > 0);
        let first = Self::page_index(addr);
        let last = Self::page_index(addr + len - 1);
        let class = if write {
            AccessClass::Write
        } else {
            AccessClass::Read
        };
        for p in first..=last {
            match self.lookup(p, class) {
                None => {
                    return Err(Fault::Unmapped { addr });
                }
                Some(e) => {
                    if !e.perms.allows(need) {
                        return Err(Fault::Protection {
                            addr,
                            perms: e.perms,
                            write,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Permission-checked read of `buf.len()` bytes at `addr`.
    pub fn read(&self, addr: VAddr, buf: &mut [u8]) -> Result<(), Fault> {
        if buf.is_empty() {
            return Ok(());
        }
        self.check(addr, buf.len() as u64, Perms::R, false)?;
        self.copy_out(addr, buf);
        Ok(())
    }

    /// Permission-checked write of `buf` at `addr`.
    pub fn write(&mut self, addr: VAddr, buf: &[u8]) -> Result<(), Fault> {
        if buf.is_empty() {
            return Ok(());
        }
        self.check(addr, buf.len() as u64, Perms::W, true)?;
        self.copy_in(addr, buf);
        Ok(())
    }

    /// Permission-checked 64-bit little-endian load.
    ///
    /// Whole-word fast path when the access stays within one page; byte
    /// loop only for page-crossing accesses.
    #[inline]
    pub fn read_u64(&self, addr: VAddr) -> Result<u64, Fault> {
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page <= PAGE_SIZE as usize - 8 {
            let e = self.check_page(addr, Perms::R, false, AccessClass::Read)?;
            if e.slot == NO_FRAME {
                // Mapped but never written: contents are all-zero.
                return Ok(0);
            }
            let word: [u8; 8] = self.frame(e.slot)[in_page..in_page + 8].try_into().unwrap();
            Ok(u64::from_le_bytes(word))
        } else {
            let mut buf = [0u8; 8];
            self.read(addr, &mut buf)?;
            Ok(u64::from_le_bytes(buf))
        }
    }

    /// Permission-checked 64-bit little-endian store.
    ///
    /// Whole-word fast path when the access stays within one page; byte
    /// loop only for page-crossing accesses.
    #[inline]
    pub fn write_u64(&mut self, addr: VAddr, val: u64) -> Result<(), Fault> {
        let in_page = (addr % PAGE_SIZE) as usize;
        if in_page <= PAGE_SIZE as usize - 8 {
            let e = self.check_page(addr, Perms::W, true, AccessClass::Write)?;
            let slot = self.frame_for_write(Self::page_index(addr), e.slot);
            self.frame_mut(slot)[in_page..in_page + 8].copy_from_slice(&val.to_le_bytes());
            Ok(())
        } else {
            self.write(addr, &val.to_le_bytes())
        }
    }

    /// Checks that `addr` may be fetched as code (needs `X`, and *not*
    /// `R`): execute-only mappings pass this check but fail [`read`].
    ///
    /// [`read`]: Memory::read
    #[inline]
    pub fn check_exec(&self, addr: VAddr) -> Result<(), Fault> {
        self.check_page(addr, Perms::X, false, AccessClass::Exec)
            .map(|_| ())
    }

    /// Writes bytes ignoring permissions. Used by the loader to populate
    /// execute-only text and by the kernel-side of native calls.
    pub fn poke(&mut self, addr: VAddr, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        debug_assert!(
            self.check(addr, buf.len() as u64, Perms::NONE, true)
                .is_ok(),
            "poke to unmapped memory at {addr:#x}"
        );
        self.copy_in(addr, buf);
    }

    /// Reads bytes ignoring permissions (debugger / test view; *not*
    /// available to attackers, who must go through [`read`]).
    ///
    /// [`read`]: Memory::read
    pub fn peek(&self, addr: VAddr, buf: &mut [u8]) {
        self.copy_out(addr, buf);
    }

    /// Unchecked 64-bit load for tests and the loader.
    pub fn peek_u64(&self, addr: VAddr) -> u64 {
        let mut buf = [0u8; 8];
        self.peek(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Unchecked 64-bit store for the loader.
    pub fn poke_u64(&mut self, addr: VAddr, val: u64) {
        self.poke(addr, &val.to_le_bytes());
    }

    fn copy_out(&self, mut addr: VAddr, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let page = Self::page_index(addr);
            let in_page = (addr % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - in_page).min(buf.len() - off);
            match self.lookup(page, AccessClass::Read) {
                Some(e) if e.slot != NO_FRAME => {
                    let data = self.frame(e.slot);
                    buf[off..off + n].copy_from_slice(&data[in_page..in_page + n]);
                }
                // Unmapped or never written: reads as zero either way.
                _ => buf[off..off + n].fill(0),
            }
            off += n;
            addr += n as u64;
        }
    }

    fn copy_in(&mut self, mut addr: VAddr, buf: &[u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let page = Self::page_index(addr);
            let in_page = (addr % PAGE_SIZE) as usize;
            let n = (PAGE_SIZE as usize - in_page).min(buf.len() - off);
            let entry = self.lookup(page, AccessClass::Write);
            if entry.is_none() {
                // Demand-map, as the old implementation did for
                // permissionless pokes into fresh pages.
                self.flush_tlb();
                let r = Arc::make_mut(
                    self.table
                        .entry(page >> REGION_BITS)
                        .or_insert_with(|| Arc::new(Region::empty())),
                );
                r.entries[(page & REGION_MASK) as usize] = PageEntry {
                    perms: Perms::NONE,
                    mapped: true,
                    slot: NO_FRAME,
                };
                r.mapped += 1;
                self.resident += 1;
                self.max_pages = self.max_pages.max(self.resident);
            }
            let slot = match entry {
                Some(e) if e.slot != NO_FRAME && e.slot & SHARED_BIT == 0 => Some(e.slot),
                // Shared frame: even an all-zero store must break the
                // sharing — the shared copy may hold nonzero bytes.
                Some(e) if e.slot != NO_FRAME => Some(self.cow_break(page, e.slot)),
                // Never-written page: writing zeros into it is a no-op
                // (it already reads as zero), so loader pokes of
                // zero-initialized data sections materialize nothing.
                _ => {
                    if buf[off..off + n].iter().all(|&b| b == 0) {
                        None
                    } else {
                        Some(self.materialize(page))
                    }
                }
            };
            if let Some(slot) = slot {
                self.frame_mut(slot)[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            }
            off += n;
            addr += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::new();
        m.map(0x1000, 4096, Perms::RW);
        m.write_u64(0x1000, 0xdead_beef).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 0xdead_beef);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Perms::RW);
        let addr = 0x1000 + PAGE_SIZE - 4;
        m.write_u64(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn unmapped_faults() {
        let m = Memory::new();
        assert!(matches!(m.read_u64(0x1000), Err(Fault::Unmapped { .. })));
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 4096, Perms::R);
        assert_eq!(m.read_u64(0x1000).unwrap(), 0);
        assert!(matches!(
            m.write_u64(0x1000, 1),
            Err(Fault::Protection { write: true, .. })
        ));
    }

    #[test]
    fn execute_only_denies_read_but_allows_fetch() {
        let mut m = Memory::new();
        m.map(0x4000, 4096, Perms::XO);
        assert!(matches!(m.read_u64(0x4000), Err(Fault::Protection { .. })));
        assert!(m.check_exec(0x4000).is_ok());
    }

    #[test]
    fn guard_page_denies_everything() {
        let mut m = Memory::new();
        m.map(0x7000, 4096, Perms::RW);
        m.protect(0x7000, 4096, Perms::NONE).unwrap();
        assert!(m.read_u64(0x7000).is_err());
        assert!(m.write_u64(0x7000, 1).is_err());
        assert!(m.check_exec(0x7000).is_err());
    }

    #[test]
    fn protect_unmapped_faults() {
        let mut m = Memory::new();
        assert!(m.protect(0x9000, 4096, Perms::R).is_err());
    }

    #[test]
    fn rss_high_water_mark() {
        let mut m = Memory::new();
        m.map(0x1000, 8 * PAGE_SIZE, Perms::RW);
        assert_eq!(m.resident_pages(), 8);
        m.unmap(0x1000, 4 * PAGE_SIZE);
        assert_eq!(m.resident_pages(), 4);
        assert_eq!(m.max_resident_pages(), 8);
    }

    #[test]
    fn poke_bypasses_permissions() {
        let mut m = Memory::new();
        m.map(0x4000, 4096, Perms::XO);
        m.poke_u64(0x4000, 42);
        assert_eq!(m.peek_u64(0x4000), 42);
    }

    #[test]
    fn perms_display() {
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::XO.to_string(), "--x");
        assert_eq!(Perms::NONE.to_string(), "---");
    }

    #[test]
    fn protect_revokes_immediately_after_cached_hit() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perms::RW);
        // Warm the read and write TLB entries.
        m.write_u64(0x1000, 7).unwrap();
        assert_eq!(m.read_u64(0x1000).unwrap(), 7);
        m.protect(0x1000, PAGE_SIZE, Perms::NONE).unwrap();
        assert!(matches!(m.read_u64(0x1000), Err(Fault::Protection { .. })));
        assert!(matches!(
            m.write_u64(0x1000, 1),
            Err(Fault::Protection { write: true, .. })
        ));
    }

    #[test]
    fn unmap_invalidates_cached_translation() {
        let mut m = Memory::new();
        m.map(0x1000, PAGE_SIZE, Perms::RW);
        m.write_u64(0x1000, 42).unwrap();
        m.unmap(0x1000, PAGE_SIZE);
        assert!(matches!(m.read_u64(0x1000), Err(Fault::Unmapped { .. })));
        // Slot reuse must hand back a zeroed page, not the old contents.
        m.map(0x9000, PAGE_SIZE, Perms::RW);
        assert_eq!(m.read_u64(0x9000).unwrap(), 0);
    }

    #[test]
    fn word_fast_path_matches_byte_path_at_page_edges() {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Perms::RW);
        for delta in 0..16u64 {
            let addr = 0x1000 + PAGE_SIZE - 8 - delta;
            let val = 0x1111_2222_3333_4444u64.wrapping_add(delta);
            m.write_u64(addr, val).unwrap();
            assert_eq!(m.read_u64(addr).unwrap(), val, "addr {addr:#x}");
            let mut buf = [0u8; 8];
            m.read(addr, &mut buf).unwrap();
            assert_eq!(u64::from_le_bytes(buf), val, "byte path at {addr:#x}");
        }
    }

    /// Builds a small image-like address space: XO text, RW data with
    /// contents, a never-written RW page, and a guard page.
    fn image() -> Memory {
        let mut m = Memory::new();
        m.map(0x1000, 2 * PAGE_SIZE, Perms::XO);
        m.poke_u64(0x1000, 0x1111);
        m.map(0x10000, 4 * PAGE_SIZE, Perms::RW);
        m.write_u64(0x10000, 0x2222).unwrap();
        m.write_u64(0x11000, 0x3333).unwrap();
        m.map(0x20000, PAGE_SIZE, Perms::NONE);
        m
    }

    #[test]
    fn cow_fork_copies_no_frames_until_written() {
        let snap = image().snapshot();
        let mut f = Memory::from_snapshot(&snap);
        assert_eq!(f.private_frames(), 0, "fork must not copy any frame");
        assert_eq!(f.shared_frames(), 3);
        assert_eq!(f.read_u64(0x10000).unwrap(), 0x2222);
        assert_eq!(f.private_frames(), 0, "reads must not break sharing");
        f.write_u64(0x10000, 0x9999).unwrap();
        assert_eq!(f.private_frames(), 1, "one write breaks one page");
        assert_eq!(f.shared_frames(), 2);
        assert_eq!(f.read_u64(0x10000).unwrap(), 0x9999);
        // The sibling frame and the snapshot are untouched.
        assert_eq!(f.read_u64(0x11000).unwrap(), 0x3333);
        let g = Memory::from_snapshot(&snap);
        assert_eq!(g.read_u64(0x10000).unwrap(), 0x2222);
    }

    #[test]
    fn cow_write_after_warm_read_tlb_stays_coherent() {
        let snap = image().snapshot();
        let mut f = Memory::from_snapshot(&snap);
        // Warm the read TLB with the shared translation, then write the
        // same page: the cached shared slot must not serve the next read.
        assert_eq!(f.read_u64(0x11000).unwrap(), 0x3333);
        f.write_u64(0x11008, 0x7777).unwrap();
        assert_eq!(f.read_u64(0x11000).unwrap(), 0x3333);
        assert_eq!(f.read_u64(0x11008).unwrap(), 0x7777);
    }

    #[test]
    fn cow_restore_discards_dirty_pages() {
        let mut m = image();
        let snap = m.snapshot();
        m.write_u64(0x10000, 0xdead).unwrap();
        m.unmap(0x11000, PAGE_SIZE);
        m.protect(0x1000, PAGE_SIZE, Perms::RW).unwrap();
        m.restore(&snap);
        assert_eq!(m.private_frames(), 0);
        assert_eq!(m.read_u64(0x10000).unwrap(), 0x2222);
        assert_eq!(m.read_u64(0x11000).unwrap(), 0x3333);
        assert_eq!(m.perms_at(0x1000), Some(Perms::XO));
        assert_eq!(m.resident_pages(), snap.resident_pages());
    }

    #[test]
    fn restore_keeps_lifetime_rss_high_water_mark() {
        let mut m = image();
        let snap = m.snapshot();
        let at_snap = m.max_resident_pages();
        // Map (and touch) well past the snapshot's footprint…
        m.map(0x100000, 32 * PAGE_SIZE, Perms::RW);
        let peak = m.max_resident_pages();
        assert!(peak >= at_snap + 32);
        // …then reset: the lifetime maxrss must survive the rollback.
        m.restore(&snap);
        assert_eq!(m.max_resident_pages(), peak);
        assert_eq!(m.resident_pages(), snap.resident_pages());
    }

    #[test]
    fn deep_copy_matches_cow_per_page() {
        let snap = image().snapshot();
        let cow = Memory::from_snapshot(&snap);
        let deep = Memory::from_snapshot_deep(&snap);
        assert_eq!(deep.private_frames(), 3);
        assert_eq!(deep.shared_frames(), 0);
        for addr in [0x1000u64, 0x10000, 0x11000, 0x12000, 0x20000] {
            assert_eq!(cow.perms_at(addr), deep.perms_at(addr), "{addr:#x}");
            assert_eq!(cow.peek_u64(addr), deep.peek_u64(addr), "{addr:#x}");
        }
        assert_eq!(cow.resident_pages(), deep.resident_pages());
        assert_eq!(cow.max_resident_pages(), deep.max_resident_pages());
    }

    #[test]
    fn unmap_of_shared_page_frees_nothing_private() {
        let snap = image().snapshot();
        let mut f = Memory::from_snapshot(&snap);
        f.unmap(0x10000, PAGE_SIZE);
        assert!(matches!(f.read_u64(0x10000), Err(Fault::Unmapped { .. })));
        assert_eq!(f.free.len(), 0, "shared slot must not enter free list");
        // Remapping the same page hands back zeros, not the image bytes.
        f.map(0x10000, PAGE_SIZE, Perms::RW);
        assert_eq!(f.read_u64(0x10000).unwrap(), 0);
        // The snapshot still serves the original contents.
        assert_eq!(
            Memory::from_snapshot(&snap).read_u64(0x10000).unwrap(),
            0x2222
        );
    }

    #[test]
    fn snapshot_of_cow_memory_compacts_shared_and_private_frames() {
        let snap = image().snapshot();
        let mut f = Memory::from_snapshot(&snap);
        f.write_u64(0x10000, 0x4444).unwrap();
        // Re-snapshot: one private frame, two still-shared frames.
        let snap2 = f.snapshot();
        assert_eq!(snap2.materialized_pages(), 3);
        let g = Memory::from_snapshot(&snap2);
        assert_eq!(g.read_u64(0x10000).unwrap(), 0x4444);
        assert_eq!(g.read_u64(0x11000).unwrap(), 0x3333);
        assert_eq!(g.peek_u64(0x1000), 0x1111);
    }

    #[test]
    fn into_snapshot_matches_snapshot() {
        let copied = image().snapshot();
        let adopted = image().into_snapshot();
        assert_eq!(adopted.resident_pages(), copied.resident_pages());
        assert_eq!(adopted.materialized_pages(), copied.materialized_pages());
        let (a, c) = (
            Memory::from_snapshot(&adopted),
            Memory::from_snapshot(&copied),
        );
        assert_eq!(a.max_resident_pages(), c.max_resident_pages());
        assert_eq!(a.shared_frames(), 3);
        assert_eq!(a.private_frames(), 0);
        let all = 0..0x30000;
        assert_eq!(a.mapped_pages_in(0, all.end), c.mapped_pages_in(0, all.end));
        for addr in all.step_by(PAGE_SIZE as usize / 2) {
            assert_eq!(a.peek_u64(addr), c.peek_u64(addr), "bytes at {addr:#x}");
        }
        // A memory with freed slots takes the copying path.
        let mut m = image();
        m.unmap(0x10000, PAGE_SIZE);
        let snap = m.into_snapshot();
        assert_eq!(snap.materialized_pages(), 2);
        assert_eq!(
            Memory::from_snapshot(&snap).read_u64(0x11000).unwrap(),
            0x3333
        );
    }

    #[test]
    fn fx_hasher_words_cover_every_byte() {
        use std::hash::Hasher;
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        let base: Vec<u8> = (0..19).collect();
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x80;
            assert_ne!(hash(&base), hash(&flipped), "byte {i} not hashed");
        }
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        use std::hash::Hasher;
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
        let mut c = FxHasher::default();
        c.write_u64(0xdead_bee0);
        assert_ne!(a.finish(), c.finish());
    }
}
