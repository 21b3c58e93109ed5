//! Warm variant pool: bounded background pre-compilation of fresh-seed
//! variants.
//!
//! Load-time re-randomization (paper §7.3) is only deployable if
//! respawning a worker on a *fresh* variant is not much slower than
//! restarting it on the same image. The pool makes respawn
//! production-plausible: callers *announce* the seeds they will need
//! ([`VariantPool::prefetch`]), a small thread pool compiles them in
//! announcement order, and [`VariantPool::take`] usually returns a
//! pre-built image (a **warm** take, map-lookup latency) instead of
//! compiling inline (a **cold** take, full compile latency).
//!
//! ## Bounded lookahead
//!
//! The pool compiles at most `capacity` variants ahead of its takers: a
//! background thread starts a compile only while parked plus in-flight
//! variants number fewer than `capacity`, and nothing is ever evicted.
//! A take or a withdrawal frees room and wakes the threads. A caller may
//! announce far more seeds than the capacity (a fleet announces every
//! worker's first respawn up front); the compiled window then advances
//! as the caller consumes or withdraws it, instead of the compiler
//! running arbitrarily far ahead and discarding variants before anyone
//! reaches them.
//!
//! [`VariantPool::withdraw`] is how an announcement nobody will take
//! leaves the pool: a queued seed is dropped before it compiles, a
//! parked variant is freed, and an in-flight one is discarded when its
//! compile finishes, so no orphan keeps a slot. Every background compile
//! ends up taken, withdrawn, or still parked; [`PoolStats::stranded`]
//! counts the last group, which a caller that withdraws what it will not
//! take sees at zero.
//!
//! Determinism contract: the image handed out for a seed is the one
//! [`R2cCompiler`] deterministically produces for `(module, config,
//! seed)` — *whether or not* the background thread won the race. Warm
//! vs. cold only changes host-side latency, never guest-visible state,
//! which is what lets the serving fleet keep its bit-identical
//! parallel-vs-serial event logs while using the pool.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use r2c_ir::Module;
use r2c_vm::Image;

use crate::compiler::R2cCompiler;
use crate::config::R2cConfig;

/// How a [`VariantPool::take`] was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TakeKind {
    /// The variant was already compiled and parked: the take cost a map
    /// lookup.
    Warm,
    /// A background thread was mid-compile; the take waited for it.
    InFlight,
    /// No background thread had started the seed (never announced,
    /// withdrawn, or still queued): compiled inline.
    Cold,
}

/// One delivered variant plus how long the caller waited for it.
pub struct PooledVariant {
    /// The deterministically compiled image for the requested seed.
    pub image: Image,
    /// Warm hit, in-flight wait, or inline cold compile.
    pub kind: TakeKind,
    /// Host wall-clock latency of the take as observed by the caller.
    pub latency: Duration,
}

/// Aggregate pool counters (host-side observability only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Background compiles finished.
    pub compiled: u64,
    /// Takes served from a parked variant.
    pub warm: u64,
    /// Takes that waited on an in-flight background compile.
    pub in_flight: u64,
    /// Takes compiled inline.
    pub cold: u64,
    /// Announcements withdrawn before a background thread started them.
    pub withdrawn_queued: u64,
    /// Compiled variants withdrawn: freed while parked, or discarded
    /// when a compile withdrawn mid-flight finished.
    pub withdrawn_compiled: u64,
}

impl PoolStats {
    /// Compiled variants that were neither taken nor withdrawn, i.e.
    /// still parked. Zero once a caller has withdrawn every
    /// announcement it will not take and the pool has shut down
    /// ([`VariantPool::shutdown`]); the fleet reports gate on it.
    pub fn stranded(&self) -> u64 {
        self.compiled - (self.warm + self.in_flight + self.withdrawn_compiled)
    }
}

/// Where an announced seed is in its life.
enum Slot {
    /// Announced; no background thread has started it.
    Queued,
    /// A background thread is compiling it. A withdrawn compile is
    /// discarded when it finishes, unless a take revives it first.
    Compiling { withdrawn: bool },
    /// Compiled and parked until a take or a withdrawal (boxed: most
    /// slots are queued).
    Parked(Box<Image>),
}

struct PoolState {
    /// Announcement order. An entry whose seed is no longer `Queued`
    /// (taken or withdrawn before a thread reached it) is skipped when
    /// popped, so neither a take nor a withdrawal scans the queue.
    queue: VecDeque<u64>,
    /// Every seed the pool currently tracks.
    slots: HashMap<u64, Slot>,
    /// `Compiling` plus `Parked` slots: the quantity `capacity` bounds.
    held: usize,
    /// Takers blocked on a `Compiling` seed (finished compiles skip the
    /// wake-up when there are none).
    waiting: usize,
    /// Background threads blocked on `work`. Takes, withdrawals and
    /// announcements wake one only if it has something to do, which
    /// keeps the futex call off most warm takes.
    idle: usize,
    shutdown: bool,
    stats: PoolStats,
}

impl PoolState {
    /// Claims the oldest queued seed for a background compile, if the
    /// lookahead bound leaves room.
    fn claim(&mut self, capacity: usize) -> Option<u64> {
        while self.held < capacity {
            let seed = self.queue.pop_front()?;
            if let Some(slot @ Slot::Queued) = self.slots.get_mut(&seed) {
                *slot = Slot::Compiling { withdrawn: false };
                self.held += 1;
                return Some(seed);
            }
        }
        None
    }

    /// Whether an idle background thread could start a compile now.
    fn wake_worker(&self, capacity: usize) -> bool {
        self.idle > 0 && self.held < capacity && !self.queue.is_empty()
    }
}

/// Holders of the pool lock only update counters and slots; a panic
/// under it is a bug in this module.
const POISONED: &str = "variant pool state poisoned by a panic under its lock";

/// Test-only callback run at the start of every background compile.
type CompileHook = Arc<dyn Fn(u64) + Send + Sync>;

struct Shared {
    state: Mutex<PoolState>,
    /// Background threads wait here for an announcement and room.
    work: Condvar,
    /// Takers wait here for an in-flight compile to finish.
    done: Condvar,
    module: Module,
    cfg: R2cConfig,
    capacity: usize,
    /// Test hook invoked (outside the state lock) at the start of every
    /// background compile; lets concurrency tests hold compiles at a
    /// barrier to pin down an interleaving. `None` in production.
    compile_hook: Mutex<Option<CompileHook>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect(POISONED)
    }

    fn compile(&self, seed: u64) -> Image {
        R2cCompiler::new(self.cfg.with_seed(seed))
            .build(&self.module)
            .expect("pool variant failed to build")
    }
}

/// A bounded lookahead of pre-compiled diversified variants.
///
/// Dropping the pool shuts the background threads down and joins them.
pub struct VariantPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl VariantPool {
    /// Creates a pool compiling variants of `module` under `cfg` (the
    /// seed is overridden per request). `capacity` bounds the parked
    /// plus in-flight variants; `threads == 0` disables background
    /// compilation entirely, making every take a measured cold compile.
    pub fn new(module: &Module, cfg: R2cConfig, capacity: usize, threads: usize) -> VariantPool {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                slots: HashMap::new(),
                held: 0,
                waiting: 0,
                idle: 0,
                shutdown: false,
                stats: PoolStats::default(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            module: module.clone(),
            cfg,
            capacity: capacity.max(1),
            compile_hook: Mutex::new(None),
        });
        let workers = (0..threads)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        VariantPool { shared, workers }
    }

    /// Announces that `seed`'s variant will be needed soon. A background
    /// thread compiles it once the announcements before it are served
    /// and the lookahead has room; duplicate announcements and
    /// announcements with no background threads are ignored.
    pub fn prefetch(&self, seed: u64) {
        if self.workers.is_empty() {
            return;
        }
        let mut st = self.shared.lock();
        let Entry::Vacant(slot) = st.slots.entry(seed) else {
            return;
        };
        slot.insert(Slot::Queued);
        st.queue.push_back(seed);
        let wake = st.wake_worker(self.shared.capacity);
        drop(st);
        if wake {
            self.shared.work.notify_one();
        }
    }

    /// Retracts an announcement nobody will take: a queued seed is
    /// dropped, a parked variant freed, and an in-flight compile
    /// discarded when it finishes. Unknown seeds are ignored.
    pub fn withdraw(&self, seed: u64) {
        let mut guard = self.shared.lock();
        let st = &mut *guard;
        match st.slots.get_mut(&seed) {
            None => {}
            Some(Slot::Compiling { withdrawn }) => *withdrawn = true,
            Some(Slot::Queued) => {
                st.slots.remove(&seed);
                st.stats.withdrawn_queued += 1;
            }
            Some(Slot::Parked(_)) => {
                st.slots.remove(&seed);
                st.held -= 1;
                st.stats.withdrawn_compiled += 1;
                let wake = st.wake_worker(self.shared.capacity);
                drop(guard);
                if wake {
                    self.shared.work.notify_one();
                }
            }
        }
    }

    /// True if `seed`'s variant is compiled and parked.
    pub fn is_ready(&self, seed: u64) -> bool {
        matches!(self.shared.lock().slots.get(&seed), Some(Slot::Parked(_)))
    }

    /// Delivers the variant for `seed`, preferring a parked one, waiting
    /// for an in-flight background compile, and falling back to an
    /// inline compile. The returned image is identical in all three
    /// cases.
    pub fn take(&self, seed: u64) -> PooledVariant {
        let start = Instant::now();
        let mut st = self.shared.lock();
        let mut kind = TakeKind::Warm;
        if let Some(Slot::Compiling { withdrawn }) = st.slots.get_mut(&seed) {
            // Nothing evicts, so the finished image is parked for us
            // unless another taker of the same seed gets there first.
            *withdrawn = false;
            kind = TakeKind::InFlight;
            st.waiting += 1;
            while let Some(Slot::Compiling { .. }) = st.slots.get(&seed) {
                st = self.shared.done.wait(st).expect(POISONED);
            }
            st.waiting -= 1;
        }
        match st.slots.remove(&seed) {
            Some(Slot::Parked(image)) => {
                let image = *image;
                st.held -= 1;
                match kind {
                    TakeKind::InFlight => st.stats.in_flight += 1,
                    _ => st.stats.warm += 1,
                }
                let wake = st.wake_worker(self.shared.capacity);
                drop(st);
                if wake {
                    self.shared.work.notify_one();
                }
                return PooledVariant {
                    image,
                    kind,
                    latency: start.elapsed(),
                };
            }
            // A queued seed is claimed here (its queue entry goes
            // stale); an absent one was never announced, was withdrawn,
            // or went to another taker of the same seed.
            Some(Slot::Queued) | None => {}
            Some(Slot::Compiling { .. }) => unreachable!("waited until the compile finished"),
        }
        st.stats.cold += 1;
        drop(st);
        let image = self.shared.compile(seed);
        PooledVariant {
            image,
            kind: TakeKind::Cold,
            latency: start.elapsed(),
        }
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        self.shared.lock().stats
    }

    /// Stops the background threads, waits for their in-flight compiles
    /// to finish (a withdrawn one is discarded and counted), and returns
    /// the final counters.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a background thread that died compiling.
    /// Its takers have already fallen back to inline compiles.
    pub fn shutdown(mut self) -> PoolStats {
        if let Err(panic) = self.stop() {
            std::panic::resume_unwind(panic);
        }
        self.stats()
    }

    /// Stops and joins the background threads, returning the first
    /// panic among them.
    fn stop(&mut self) -> std::thread::Result<()> {
        // Set under the lock: a thread between its shutdown check and
        // its wait must not miss the wake-up. Setting a flag is valid
        // even on a poisoned lock, and `Drop` must not panic.
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.work.notify_all();
        let mut first = Ok(());
        for w in self.workers.drain(..) {
            let joined = w.join();
            if first.is_ok() {
                first = joined;
            }
        }
        first
    }

    /// Installs a hook run at the start of every *background* compile.
    /// Test-only: lets a concurrency test park the background threads
    /// at a barrier while takers register as waiters.
    #[doc(hidden)]
    pub fn set_compile_hook(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.shared.compile_hook.lock().expect(POISONED) = Some(Arc::new(hook));
    }

    /// Takers blocked on an in-flight compile. Test-only.
    #[doc(hidden)]
    pub fn debug_waiter_count(&self) -> usize {
        self.shared.lock().waiting
    }
}

impl Drop for VariantPool {
    fn drop(&mut self) {
        // A background panic was already printed by the panic hook;
        // `shutdown` is the method that re-raises it.
        let _ = self.stop();
    }
}

/// Releases a claimed seed if its background compile unwinds, so takers
/// blocked on it wake up and compile inline instead of waiting forever.
struct ClaimGuard<'a> {
    sh: &'a Shared,
    seed: u64,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut st = self.sh.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.slots.remove(&self.seed);
        st.held -= 1;
        drop(st);
        self.sh.done.notify_all();
        self.sh.work.notify_one();
    }
}

fn worker_loop(sh: &Shared) {
    let mut st = sh.lock();
    loop {
        if st.shutdown {
            return;
        }
        let Some(seed) = st.claim(sh.capacity) else {
            st.idle += 1;
            st = sh.work.wait(st).expect(POISONED);
            st.idle -= 1;
            continue;
        };
        drop(st);
        let guard = ClaimGuard { sh, seed };
        let hook = sh.compile_hook.lock().expect(POISONED).clone();
        if let Some(h) = hook {
            h(seed);
        }
        let image = sh.compile(seed);
        drop(guard);
        st = sh.lock();
        st.stats.compiled += 1;
        if let Some(Slot::Compiling { withdrawn: true }) = st.slots.get(&seed) {
            // Nobody will take it; the freed room goes to this thread's
            // next claim.
            st.slots.remove(&seed);
            st.held -= 1;
            st.stats.withdrawn_compiled += 1;
        } else {
            st.slots.insert(seed, Slot::Parked(Box::new(image)));
        }
        if st.waiting > 0 {
            sh.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn tiny_module() -> Module {
        r2c_ir::parse_module(
            "func @main(0) {\nentry:\n  %0 = const 11\n  %1 = extern print(%0)\n  ret %0\n}\n",
        )
        .unwrap()
    }

    fn image_fingerprint(image: &Image) -> (u64, usize) {
        (image.entry, image.insns.len())
    }

    /// Spins until `cond` holds, failing (rather than hanging) after 30 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

    /// Counts background compile starts and holds each one until the
    /// gate opens.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
        started: AtomicUsize,
    }

    impl Gate {
        fn new(open: bool) -> Arc<Gate> {
            Arc::new(Gate {
                open: Mutex::new(open),
                cv: Condvar::new(),
                started: AtomicUsize::new(0),
            })
        }

        fn hold(&self) {
            self.started.fetch_add(1, Ordering::SeqCst);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }

        fn started(&self) -> usize {
            self.started.load(Ordering::SeqCst)
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    /// Holds every background compile of `pool` at a new gate.
    fn gate(pool: &VariantPool, open: bool) -> Arc<Gate> {
        let gate = Gate::new(open);
        let g = Arc::clone(&gate);
        pool.set_compile_hook(move |_| g.hold());
        gate
    }

    #[test]
    fn warm_take_matches_cold_compile() {
        let m = tiny_module();
        let cfg = R2cConfig::full(0);
        let pool = VariantPool::new(&m, cfg, 4, 1);
        pool.prefetch(42);
        wait_until("seed 42 to park", || pool.is_ready(42));
        let warm = pool.take(42);
        assert_eq!(warm.kind, TakeKind::Warm);

        let cold_pool = VariantPool::new(&m, cfg, 4, 0);
        let cold = cold_pool.take(42);
        assert_eq!(cold.kind, TakeKind::Cold);
        assert_eq!(
            image_fingerprint(&warm.image),
            image_fingerprint(&cold.image)
        );
        assert_eq!(warm.image.insn_addrs, cold.image.insn_addrs);
    }

    #[test]
    fn unknown_seed_compiles_inline() {
        let m = tiny_module();
        let pool = VariantPool::new(&m, R2cConfig::full(0), 2, 1);
        let v = pool.take(7);
        assert_eq!(v.kind, TakeKind::Cold);
        assert_eq!(pool.stats().cold, 1);
    }

    #[test]
    fn waited_variants_are_not_recompiled() {
        // Two seeds compiling concurrently (capacity 2, two threads),
        // two takers blocked on them: each waiter must receive the
        // image its background thread compiled, never a duplicate
        // inline compile. Under the old FIFO cache the second finished
        // compile could evict the first image between its compile
        // finishing and its waiter waking up.
        let m = tiny_module();
        let pool = VariantPool::new(&m, R2cConfig::full(0), 2, 2);
        let gate = gate(&pool, false);
        pool.prefetch(1);
        pool.prefetch(2);
        // Both seeds must be in flight before the takers look, or a
        // take would claim its seed off the queue and compile cold by
        // design.
        wait_until("both compiles to start", || gate.started() == 2);
        std::thread::scope(|s| {
            let t1 = s.spawn(|| pool.take(1));
            let t2 = s.spawn(|| pool.take(2));
            wait_until("both takers to wait", || pool.debug_waiter_count() == 2);
            gate.open();
            assert_eq!(t1.join().unwrap().kind, TakeKind::InFlight);
            assert_eq!(t2.join().unwrap().kind, TakeKind::InFlight);
        });
        let st = pool.stats();
        assert_eq!(st.cold, 0, "a waiter was forced into a duplicate compile");
        assert_eq!(st.compiled, 2);
        assert_eq!(pool.debug_waiter_count(), 0, "waiter leak");
    }

    #[test]
    fn lookahead_is_bounded_by_capacity() {
        // Five announcements, capacity 2, three threads: two compile,
        // and each take or withdrawal admits exactly one more. The hook
        // records how far compiles ran ahead of the takes and
        // withdrawals, which the test counts before making them.
        let m = tiny_module();
        let pool = VariantPool::new(&m, R2cConfig::full(0), 2, 3);
        let started = Arc::new(AtomicUsize::new(0));
        let released = Arc::new(AtomicUsize::new(0));
        let ahead = Arc::new(AtomicUsize::new(0));
        pool.set_compile_hook({
            let (started, released, ahead) = (started.clone(), released.clone(), ahead.clone());
            move |_| {
                let n = started.fetch_add(1, Ordering::SeqCst) + 1;
                ahead.fetch_max(n - released.load(Ordering::SeqCst), Ordering::SeqCst);
            }
        });
        for seed in 0..5 {
            pool.prefetch(seed);
        }
        wait_until("two variants to park", || {
            pool.is_ready(0) && pool.is_ready(1)
        });
        released.fetch_add(1, Ordering::SeqCst);
        assert_eq!(pool.take(0).kind, TakeKind::Warm);
        wait_until("seed 2 to park", || pool.is_ready(2));
        released.fetch_add(1, Ordering::SeqCst);
        pool.withdraw(1);
        wait_until("seed 3 to park", || pool.is_ready(3));
        // Seed 4 is still queued: a take claims it and compiles inline.
        assert_eq!(pool.take(4).kind, TakeKind::Cold);
        assert_eq!(pool.take(2).kind, TakeKind::Warm);
        assert_eq!(pool.take(3).kind, TakeKind::Warm);
        let st = pool.shutdown();
        assert_eq!(ahead.load(Ordering::SeqCst), 2, "compiled past the bound");
        assert_eq!(started.load(Ordering::SeqCst), 4);
        assert_eq!(
            st,
            PoolStats {
                compiled: 4,
                warm: 3,
                in_flight: 0,
                cold: 1,
                withdrawn_queued: 0,
                withdrawn_compiled: 1,
            }
        );
        assert_eq!(st.stranded(), 0);
    }

    #[test]
    fn withdraw_drops_a_queued_seed() {
        let m = tiny_module();
        let pool = VariantPool::new(&m, R2cConfig::full(0), 1, 1);
        let gate = gate(&pool, false);
        pool.prefetch(1);
        pool.prefetch(2);
        wait_until("seed 1 to start", || gate.started() == 1);
        pool.withdraw(2);
        gate.open();
        wait_until("seed 1 to park", || pool.is_ready(1));
        assert_eq!(pool.take(1).kind, TakeKind::Warm);
        // The room seed 1 freed skips the withdrawn seed: were seed 2
        // still queued, it would compile first and fill the lookahead.
        pool.prefetch(3);
        wait_until("seed 3 to park", || pool.is_ready(3));
        assert!(!pool.is_ready(2));
        assert_eq!(pool.take(2).kind, TakeKind::Cold);
        pool.withdraw(3);
        let st = pool.shutdown();
        assert_eq!(gate.started(), 2);
        assert_eq!(
            (st.compiled, st.withdrawn_queued, st.withdrawn_compiled),
            (2, 1, 1)
        );
        assert_eq!(st.stranded(), 0);
    }

    #[test]
    fn withdraw_frees_a_parked_variant() {
        let m = tiny_module();
        let pool = VariantPool::new(&m, R2cConfig::full(0), 1, 1);
        pool.prefetch(7);
        pool.prefetch(8);
        wait_until("seed 7 to park", || pool.is_ready(7));
        pool.withdraw(7);
        assert!(!pool.is_ready(7));
        // The freed slot admits the next announcement.
        wait_until("seed 8 to park", || pool.is_ready(8));
        assert_eq!(pool.take(7).kind, TakeKind::Cold);
        assert_eq!(pool.take(8).kind, TakeKind::Warm);
        let st = pool.shutdown();
        assert_eq!((st.compiled, st.withdrawn_compiled), (2, 1));
        assert_eq!(st.stranded(), 0);
    }

    #[test]
    fn withdraw_in_flight_leaves_no_orphan() {
        let m = tiny_module();
        let pool = VariantPool::new(&m, R2cConfig::full(0), 1, 1);
        let gate = gate(&pool, false);
        pool.prefetch(9);
        pool.prefetch(10);
        wait_until("seed 9 to start", || gate.started() == 1);
        pool.withdraw(9);
        gate.open();
        // The discarded compile releases its slot to seed 10; an orphan
        // would hold the capacity-1 lookahead forever.
        wait_until("seed 10 to park", || pool.is_ready(10));
        assert!(!pool.is_ready(9));
        pool.withdraw(10);
        let st = pool.shutdown();
        assert_eq!(
            (st.compiled, st.withdrawn_compiled, st.warm + st.in_flight),
            (2, 2, 0)
        );
        assert_eq!(st.stranded(), 0);
    }

    #[test]
    fn panicking_compile_releases_its_waiters() {
        // A background compile that unwinds must not leave its seed in
        // flight: the taker falls through to its own inline compile.
        // The taker runs detached, so a regression fails the watchdog
        // below instead of hanging the test.
        let m = tiny_module();
        let pool = Arc::new(VariantPool::new(&m, R2cConfig::full(0), 2, 1));
        let gate = Gate::new(false);
        pool.set_compile_hook({
            let gate = Arc::clone(&gate);
            move |seed| {
                gate.hold();
                panic!("injected background compile failure for seed {seed}");
            }
        });
        pool.prefetch(5);
        wait_until("seed 5 to start", || gate.started() == 1);
        let (tx, rx) = mpsc::channel();
        let taker = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let _ = tx.send(pool.take(5).kind);
            })
        };
        wait_until("the taker to wait", || pool.debug_waiter_count() == 1);
        gate.open();
        let kind = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("take stranded behind a panicked compile");
        assert_eq!(kind, TakeKind::Cold);
        assert_eq!(pool.stats().cold, 1);
        taker.join().expect("the taker finished");
        let pool = Arc::into_inner(pool).expect("the taker dropped its handle");
        let reraised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.shutdown()));
        assert!(reraised.is_err(), "shutdown hid the background panic");
    }
}
