//! The lock-free tables of the parcel hot paths, and the [`EventCount`]
//! every sleeping thread of a locality parks on.
//!
//! The parcel layer reads small tables on *every* send and receive (the
//! action registry's entries, the port's interceptors, a few hooks) that
//! are written a handful of times at startup. A reader-writer lock would
//! put two atomic RMWs and a writer stall on the hot path for nothing;
//! the structures here make reads plain `Acquire` loads:
//!
//! * [`SlotTable`] — a dense, append-mostly `index -> Arc<T>` table for
//!   small sequential ids (action ids), read by reference. Chunked bucket
//!   allocation keeps existing slots at stable addresses forever, so
//!   readers never need a lock or an epoch; replaced entries are
//!   *retired*, not freed, and reclaimed when the table drops (readers
//!   hold `&self`, so none exist by then).
//! * [`ArcCell`] — a single lock-free `Arc` slot with the same
//!   retire-on-replace discipline.
//!
//! The deferred-reclamation trade: each `set`/`clear` keeps one
//! `Box<Arc<T>>` until the owning table drops. These tables see
//! O(#actions) writes over a process lifetime, the textbook case where
//! "leak until drop" beats hazard pointers.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// First bucket holds `BASE` slots; bucket `b` holds `BASE << b`.
const BASE: usize = 64;
/// Enough buckets to cover every index a `u32` id can take.
const NBUCKETS: usize = 27;

/// Locate `(bucket, offset)` for a global index.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let n = index / BASE + 1;
    let bucket = (usize::BITS - 1 - n.leading_zeros()) as usize;
    let offset = index - BASE * ((1 << bucket) - 1);
    (bucket, offset)
}

/// Capacity of bucket `b`.
#[inline]
fn bucket_len(bucket: usize) -> usize {
    BASE << bucket
}

/// Raw pointers retired by a writer; freed only when the owner drops.
struct Retired<T: ?Sized>(Vec<*mut Arc<T>>);

// SAFETY: the pointers are uniquely owned `Box<Arc<T>>`s, touched only
// under the owner's writer mutex and freed on drop.
unsafe impl<T: ?Sized + Send + Sync> Send for Retired<T> {}

impl<T: ?Sized> Retired<T> {
    /// Keep a value a writer swapped out until the owner drops; `true`
    /// if there was one.
    fn keep(&mut self, old: *mut Arc<T>) -> bool {
        let some = !old.is_null();
        if some {
            self.0.push(old);
        }
        some
    }
}

impl<T: ?Sized> Drop for Retired<T> {
    fn drop(&mut self) {
        for &ptr in &self.0 {
            // SAFETY: each retired pointer is a uniquely owned box,
            // listed once; the owner is dropping, so no reader is left.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

/// A dense `index -> Arc<T>` table with lock-free readers.
///
/// Writers (`set`/`clear`) serialize on a small mutex for bucket
/// allocation and retirement; readers (`get`, `for_each`) are wait-free
/// and borrow the stored `Arc` without touching its refcount.
pub struct SlotTable<T: ?Sized> {
    /// Each bucket is a lazily-allocated boxed slice of slots; a slot is
    /// null (empty) or a `Box<Arc<T>>` raw pointer (thin, even for
    /// `T: !Sized`).
    buckets: [AtomicPtr<AtomicPtr<Arc<T>>>; NBUCKETS],
    /// Serializes writers; never touched by readers.
    writer: Mutex<Retired<T>>,
}

// SAFETY: all shared mutation is via atomics or the writer mutex, and the
// stored values are `Arc<T>` with `T: Send + Sync`.
unsafe impl<T: ?Sized + Send + Sync> Send for SlotTable<T> {}
// SAFETY: as for `Send`; `&SlotTable` hands out only `&Arc<T>`.
unsafe impl<T: ?Sized + Send + Sync> Sync for SlotTable<T> {}

impl<T: ?Sized> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ?Sized> SlotTable<T> {
    /// New empty table. Allocates nothing until the first `set`.
    pub fn new() -> Self {
        SlotTable {
            buckets: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            writer: Mutex::new(Retired(Vec::new())),
        }
    }

    /// The slot for `index`, if its bucket exists yet.
    #[inline]
    fn slot(&self, index: usize) -> Option<&AtomicPtr<Arc<T>>> {
        let (bucket, offset) = locate(index);
        let base = self.buckets[bucket].load(Ordering::Acquire);
        if base.is_null() {
            return None;
        }
        // SAFETY: a non-null bucket pointer is a live boxed slice of
        // `bucket_len(bucket)` slots that is never freed before `self`.
        Some(unsafe { &*base.add(offset) })
    }

    /// The value at `index`, borrowed: two `Acquire` loads (bucket,
    /// slot), no refcount traffic. A concurrent `set`/`clear` of `index` does not disturb
    /// the borrow — it keeps reading the value it found.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&Arc<T>> {
        let ptr = self.slot(index)?.load(Ordering::Acquire);
        // SAFETY: non-null slot values are live `Box<Arc<T>>` allocations.
        // A concurrent `set`/`clear` only moves the box to the retired
        // list, which keeps it (and the Arc it pins) alive until the table
        // drops — and drop requires `&mut self`, excluded by this borrow.
        unsafe { ptr.as_ref() }
    }

    /// Install `value` at `index`, returning `true` if a previous value
    /// was replaced.
    pub fn set(&self, index: usize, value: Arc<T>) -> bool {
        let mut retired = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let (bucket, offset) = locate(index);
        let mut base = self.buckets[bucket].load(Ordering::Acquire);
        if base.is_null() {
            // Allocate the bucket; writers are serialized by the mutex so
            // a plain store is enough.
            let slice: Box<[AtomicPtr<Arc<T>>]> = (0..bucket_len(bucket))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            base = Box::into_raw(slice) as *mut AtomicPtr<Arc<T>>;
            self.buckets[bucket].store(base, Ordering::Release);
        }
        let boxed = Box::into_raw(Box::new(value));
        // SAFETY: bucket is live and `offset < bucket_len(bucket)`.
        retired.keep(unsafe { &*base.add(offset) }.swap(boxed, Ordering::AcqRel))
    }

    /// Remove the value at `index`, returning `true` if one was present.
    pub fn clear(&self, index: usize) -> bool {
        let mut retired = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = self.slot(index) else {
            return false;
        };
        retired.keep(slot.swap(std::ptr::null_mut(), Ordering::AcqRel))
    }

    /// Visit every occupied slot. Entries inserted or removed concurrently
    /// may or may not be visited — the snapshot is per-slot, not global.
    pub fn for_each(&self, mut f: impl FnMut(usize, &Arc<T>)) {
        for bucket in 0..NBUCKETS {
            let base = self.buckets[bucket].load(Ordering::Acquire);
            if base.is_null() {
                // Buckets are allocated in order of first touch, but an
                // index can land in any bucket, so keep scanning.
                continue;
            }
            let start = BASE * ((1 << bucket) - 1);
            for offset in 0..bucket_len(bucket) {
                // SAFETY: live bucket, in-bounds offset; value liveness as
                // in `get`.
                if let Some(v) = unsafe { (*base.add(offset)).load(Ordering::Acquire).as_ref() } {
                    f(start + offset, v);
                }
            }
        }
    }
}

impl<T: ?Sized> Drop for SlotTable<T> {
    fn drop(&mut self) {
        // No readers can exist here (`&mut self`); free live entries and
        // bucket arrays (the retired list frees itself).
        for bucket in 0..NBUCKETS {
            let base = *self.buckets[bucket].get_mut();
            if base.is_null() {
                continue;
            }
            let len = bucket_len(bucket);
            // SAFETY: reconstruct the boxed slice exactly as allocated.
            let slice = unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(base, len)) };
            for slot in slice.iter() {
                let ptr = slot.load(Ordering::Relaxed);
                if !ptr.is_null() {
                    // SAFETY: live `Box<Arc<T>>`, owned by this slot.
                    drop(unsafe { Box::from_raw(ptr) });
                }
            }
        }
    }
}

/// A single lock-free `Arc<T>` slot (for rarely-replaced hooks).
///
/// Reads are one `Acquire` load plus a refcount bump; replaced values are
/// retired until the cell drops, like [`SlotTable`].
pub struct ArcCell<T: ?Sized> {
    slot: AtomicPtr<Arc<T>>,
    writer: Mutex<Retired<T>>,
}

// SAFETY: same reasoning as `SlotTable`.
unsafe impl<T: ?Sized + Send + Sync> Send for ArcCell<T> {}
// SAFETY: same reasoning as `SlotTable`.
unsafe impl<T: ?Sized + Send + Sync> Sync for ArcCell<T> {}

impl<T: ?Sized> Default for ArcCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ?Sized> ArcCell<T> {
    /// New empty cell.
    pub fn new() -> Self {
        ArcCell {
            slot: AtomicPtr::new(std::ptr::null_mut()),
            writer: Mutex::new(Retired(Vec::new())),
        }
    }

    /// Current value, if any.
    #[inline]
    pub fn get(&self) -> Option<Arc<T>> {
        let ptr = self.slot.load(Ordering::Acquire);
        // SAFETY: see `SlotTable::get` — replaced boxes are retired, not
        // freed, while the cell is alive.
        unsafe { ptr.as_ref() }.cloned()
    }

    /// Install `value`, replacing any previous one.
    pub fn set(&self, value: Arc<T>) {
        let mut retired = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let boxed = Box::into_raw(Box::new(value));
        retired.keep(self.slot.swap(boxed, Ordering::AcqRel));
    }
}

impl<T: ?Sized> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let ptr = *self.slot.get_mut();
        if !ptr.is_null() {
            // SAFETY: live box, no readers during drop (the retired list
            // frees itself).
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

// ---------------------------------------------------------------------------
// EventCount: one place to sleep per locality
// ---------------------------------------------------------------------------

/// One prepared waiter in the low half of the state word.
const EC_WAITER: u64 = 1;
/// One notification epoch in the high half of the state word.
const EC_EPOCH: u64 = 1 << 32;

/// Threads between `prepare` and the end of their `wait`/`cancel`.
#[inline]
fn ec_waiters(state: u64) -> u64 {
    state & (EC_EPOCH - 1)
}

/// Notifications that found a waiter so far (wraps at 2³²).
#[inline]
fn ec_epoch(state: u64) -> u64 {
    state >> 32
}

/// Proof of one [`EventCount::prepare`]; consumed by exactly one
/// [`EventCount::wait`] or [`EventCount::cancel`].
#[must_use = "a prepared waiter must wait or cancel"]
#[derive(Debug)]
pub struct WaitKey(u64);

/// A condition variable without a condition: sleepers announce
/// themselves, re-check whatever they are waiting for, and sleep only
/// if nothing was published in between.
///
/// ```text
/// waiter                               notifier
/// key = ec.prepare()                   publish (push task, set value…)
/// if something to do { ec.cancel(key) } ec.notify()
/// else { ec.wait(key, timeout) }
/// ```
///
/// `prepare` is a `SeqCst` increment followed by a `SeqCst` fence and
/// `notify` starts with a `SeqCst` fence before it reads the waiter
/// count, so for any pair either the notifier sees the waiter (and
/// moves the epoch, which ends that waiter's `wait` at once or wakes
/// it) or the waiter's re-check sees what the notifier published.
/// What is being waited for can therefore live anywhere — a queue, a
/// socket, a promise — and needs no lock shared with the sleeper.
///
/// A notify with nobody prepared is a fence and one relaxed load. There
/// is no spinning: a waiter that must sleep sleeps in the kernel.
#[derive(Default)]
pub struct EventCount {
    /// `epoch << 32 | waiters`.
    state: AtomicU64,
    /// Threads inside the condvar wait; lets `notify` skip the condvar
    /// when every prepared waiter is still on its way in (it will see
    /// the new epoch under this lock and not sleep).
    sleeping: parking_lot::Mutex<usize>,
    cv: parking_lot::Condvar,
}

impl EventCount {
    /// An eventcount with no waiters.
    pub const fn new() -> Self {
        EventCount {
            state: AtomicU64::new(0),
            sleeping: parking_lot::Mutex::new(0),
            cv: parking_lot::Condvar::new(),
        }
    }

    /// Announce the intent to sleep. Everything published before a
    /// `notify` that misses this announcement is visible to loads made
    /// after `prepare` returns; every later `notify` ends the wait.
    pub fn prepare(&self) -> WaitKey {
        let prev = self.state.fetch_add(EC_WAITER, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        WaitKey(ec_epoch(prev))
    }

    /// Withdraw a `prepare` whose re-check found something to do.
    pub fn cancel(&self, _key: WaitKey) {
        self.state.fetch_sub(EC_WAITER, Ordering::SeqCst);
    }

    /// Sleep until a `notify` issued after the matching `prepare`, or
    /// until `timeout` passes (`None`: no bound). Returns whether a
    /// notification ended the wait.
    pub fn wait(&self, key: WaitKey, timeout: Option<Duration>) -> bool {
        let WaitKey(epoch) = key;
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut sleeping = self.sleeping.lock();
        let notified = loop {
            if ec_epoch(self.state.load(Ordering::Acquire)) != epoch {
                break true;
            }
            let left = match deadline {
                None => None,
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => break false,
                },
            };
            *sleeping += 1;
            match left {
                Some(left) => {
                    let _ = self.cv.wait_for(&mut sleeping, left);
                }
                None => self.cv.wait(&mut sleeping),
            }
            *sleeping -= 1;
        };
        drop(sleeping);
        self.state.fetch_sub(EC_WAITER, Ordering::SeqCst);
        notified
    }

    /// End the wait of every thread that prepared before this call.
    /// Returns whether a sleeping thread had to be woken: `false` when
    /// nobody was prepared (nothing was done), and when every prepared
    /// thread is still awake and will find the new epoch by itself.
    pub fn notify(&self) -> bool {
        fence(Ordering::SeqCst);
        if ec_waiters(self.state.load(Ordering::Relaxed)) == 0 {
            return false;
        }
        self.state.fetch_add(EC_EPOCH, Ordering::SeqCst);
        // The lock orders this wake-up against each waiter's epoch check:
        // a waiter that checked before us is counted in `sleeping` and
        // inside the condvar; one that checks after us sees the new
        // epoch.
        let sleeping = *self.sleeping.lock() > 0;
        if sleeping {
            self.cv.notify_all();
        }
        sleeping
    }

    /// Threads currently prepared or asleep (diagnostic; racy by nature).
    pub fn waiters(&self) -> usize {
        ec_waiters(self.state.load(Ordering::Relaxed)) as usize
    }
}

/// Where a thread sleeps while it is blocked in an LCO wait, and who can
/// wake it.
///
/// A scheduler worker's source is its scheduler's: the eventcount that
/// message arrival, egress pushes and task spawns already notify, so a
/// waiter parked in `Future::get_with` hears about the reply it is
/// waiting for. Any other thread gets a private source on first use.
/// The LCO being waited on keeps a clone and notifies it when it
/// completes, from whichever thread or locality that happens on.
pub trait WakeSource: Send + Sync {
    /// What the parked thread sleeps on.
    fn events(&self) -> &EventCount;

    /// Longest a waiter that has a pump to keep running may sleep before
    /// it pumps again.
    fn fallback(&self) -> Duration;

    /// One waiter park ended — without a notification when `timed_out`.
    fn parked(&self, _timed_out: bool) {}
}

/// The wake source of a thread that is not a scheduler worker: nothing
/// but the LCO it waits on notifies it, so a pump only runs on the poll
/// interval.
struct ThreadWake(EventCount);

/// Poll interval of a pumping waiter on a non-worker thread.
const FOREIGN_POLL: Duration = Duration::from_micros(100);

impl WakeSource for ThreadWake {
    fn events(&self) -> &EventCount {
        &self.0
    }
    fn fallback(&self) -> Duration {
        FOREIGN_POLL
    }
}

thread_local! {
    static WAKE_SOURCE: RefCell<Option<Arc<dyn WakeSource>>> = const { RefCell::new(None) };
}

/// Install (`Some`) or remove (`None`) the calling thread's wake source.
/// Scheduler workers install their scheduler's for the life of the
/// worker loop.
pub fn set_thread_wake_source(source: Option<Arc<dyn WakeSource>>) {
    WAKE_SOURCE.with(|s| *s.borrow_mut() = source);
}

/// The calling thread's wake source: the installed one, else a private
/// one created now and kept for the thread's lifetime.
fn thread_wake_source() -> Arc<dyn WakeSource> {
    WAKE_SOURCE.with(|s| {
        Arc::clone(
            s.borrow_mut()
                .get_or_insert_with(|| Arc::new(ThreadWake(EventCount::new()))),
        )
    })
}

/// Block the calling thread until `poll` yields a value or `deadline`
/// passes (`None` on expiry, decided by a last `poll`).
///
/// This is the one blocked-waiter loop of the LCO layer. `poll(None)` is
/// a plain check. `poll(Some(source))` is the check made *under a
/// prepared key*: if still pending it must record `source` where the
/// completing side will find and notify it. A `pump` runs under the key
/// too — so a dry pump is the last look before the sleep, and whatever
/// lands after it ends the wait — and bounds the sleep by the source's
/// fallback; without one the waiter sleeps until notified.
pub fn park_until<R>(
    mut poll: impl FnMut(Option<&Arc<dyn WakeSource>>) -> Option<R>,
    mut pump: Option<&mut dyn FnMut() -> bool>,
    deadline: Option<Instant>,
) -> Option<R> {
    if let Some(done) = poll(None) {
        return Some(done);
    }
    let source = thread_wake_source();
    let events = source.events();
    loop {
        let key = events.prepare();
        if let Some(done) = poll(Some(&source)) {
            events.cancel(key);
            return Some(done);
        }
        if pump.as_mut().is_some_and(|p| p()) {
            events.cancel(key);
            continue;
        }
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if left.is_some_and(|l| l.is_zero()) {
            events.cancel(key);
            return poll(None);
        }
        let bound = match (pump.is_some().then(|| source.fallback()), left) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let notified = events.wait(key, bound);
        source.parked(!notified);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn locate_covers_bucket_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(u32::MAX as usize), (NBUCKETS - 1, 63));
    }

    #[test]
    fn slot_table_set_get_clear_and_for_each() {
        let t: SlotTable<str> = SlotTable::new();
        assert!(t.get(0).is_none());
        assert!(!t.set(5, Arc::from("five")));
        assert_eq!(t.get(5).map(|v| &**v), Some("five"));
        assert!(t.set(5, Arc::from("cinq")));
        assert_eq!(t.get(5).map(|v| &**v), Some("cinq"));
        assert!(t.clear(5));
        assert!(!t.clear(5));
        assert!(t.get(5).is_none());
        // Sparse high index exercises a later bucket.
        t.set(10_000, Arc::from("far"));
        assert_eq!(t.get(10_000).map(|v| &**v), Some("far"));
        assert!(t.get(9_999).is_none());
        // `for_each` visits exactly the live entries, across buckets.
        for i in [0usize, 1, 63, 64, 200] {
            t.set(i, Arc::from(format!("v{i}")));
        }
        t.clear(63);
        let mut seen = Vec::new();
        t.for_each(|i, v| seen.push((i, v.to_string())));
        seen.sort();
        let ids: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, vec![0, 1, 64, 200, 10_000]);
        assert_eq!(seen[0].1, "v0");
    }

    #[test]
    fn slot_table_borrow_survives_a_concurrent_replace() {
        // Readers borrow index 7, wait until the writer has replaced it
        // twice more, then read through the old borrow: it must still be
        // the entry they found, intact (retired, not freed). Meanwhile
        // the writer sets and clears indices across two buckets that the
        // readers also scan.
        let t: Arc<SlotTable<Vec<u64>>> = Arc::new(SlotTable::new());
        t.set(7, Arc::new(vec![0; 16]));
        let generation = Arc::new(AtomicU64::new(0));
        let checks = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (t, generation, checks) =
                    (Arc::clone(&t), Arc::clone(&generation), Arc::clone(&checks));
                std::thread::spawn(move || {
                    while checks.load(Ordering::Acquire) < 300 {
                        let held = t.get(7).expect("index 7 is never cleared");
                        let found = held[0];
                        while generation.load(Ordering::Acquire) < found + 2 {
                            std::thread::yield_now();
                        }
                        assert!(held.iter().all(|&g| g == found), "borrow changed");
                        for v in (60..70).filter_map(|i| t.get(i)) {
                            assert_eq!(v.len(), 1);
                        }
                        checks.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        let mut g = 0;
        while readers.iter().any(|r| !r.is_finished()) {
            g += 1;
            t.set(7, Arc::new(vec![g; 16]));
            generation.store(g, Ordering::Release);
            let i = 60 + g as usize % 10;
            if g % 3 == 0 {
                t.clear(i);
            } else {
                t.set(i, Arc::new(vec![g]));
            }
            std::thread::yield_now();
        }
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn tables_drop_every_value_exactly_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tally;
        impl Drop for Tally {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let t: SlotTable<Tally> = SlotTable::new();
            t.set(1, Arc::new(Tally));
            t.set(1, Arc::new(Tally)); // retires the first
            t.set(70, Arc::new(Tally));
            t.clear(70); // retires the third
            t.set(70, Arc::new(Tally));
            let c: ArcCell<Tally> = ArcCell::new();
            assert!(c.get().is_none());
            c.set(Arc::new(Tally));
            let held = c.get().unwrap();
            c.set(Arc::new(Tally)); // retires the fifth, still held
            drop(held);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn notify_without_waiters_does_nothing() {
        let ec = EventCount::new();
        assert!(!ec.notify());
        assert_eq!(ec.waiters(), 0);
        let key = ec.prepare();
        assert_eq!(ec.waiters(), 1);
        ec.cancel(key);
        assert_eq!(ec.waiters(), 0);
        assert!(!ec.notify());
    }

    #[test]
    fn notify_after_prepare_ends_the_wait_before_it_sleeps() {
        let ec = EventCount::new();
        let key = ec.prepare();
        assert!(!ec.notify(), "nobody asleep: nothing to wake");
        let t0 = Instant::now();
        assert!(ec.wait(key, Some(Duration::from_secs(5))));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn wait_times_out_without_a_notification() {
        let ec = EventCount::new();
        let key = ec.prepare();
        let t0 = Instant::now();
        assert!(!ec.wait(key, Some(Duration::from_millis(5))));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(ec.waiters(), 0);
        // A stale notify (before the prepare) does not end a later wait.
        assert!(!ec.notify());
        let key = ec.prepare();
        assert!(!ec.wait(key, Some(Duration::ZERO)));
    }

    #[test]
    fn notify_wakes_every_sleeper_across_threads() {
        let ec = Arc::new(EventCount::new());
        let (ready_tx, ready_rx) = mpsc::channel();
        let sleepers: Vec<_> = (0..3)
            .map(|_| {
                let (ec, ready) = (Arc::clone(&ec), ready_tx.clone());
                std::thread::spawn(move || {
                    let key = ec.prepare();
                    ready.send(()).unwrap();
                    ec.wait(key, None)
                })
            })
            .collect();
        // Every sleeper has prepared (not necessarily slept) before the
        // one notify: both orders must end the untimed wait.
        for _ in 0..3 {
            ready_rx.recv().unwrap();
        }
        ec.notify();
        for s in sleepers {
            assert!(s.join().unwrap());
        }
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn lost_wakeup_stress() {
        // Producers publish-then-notify; consumers prepare, re-check,
        // wait with a 5 s fallback. One lost wake-up costs 5 s, so the
        // whole exchange finishing in under a second means none was lost.
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 250;
        let ec = Arc::new(EventCount::new());
        let items = Arc::new(AtomicUsize::new(0));
        let taken = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let (ec, items, taken) = (Arc::clone(&ec), Arc::clone(&items), Arc::clone(&taken));
                std::thread::spawn(move || {
                    let pop = || {
                        items
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok()
                    };
                    let all = PRODUCERS * PER_PRODUCER;
                    while taken.load(Ordering::SeqCst) < all {
                        if pop() {
                            if taken.fetch_add(1, Ordering::SeqCst) + 1 == all {
                                ec.notify(); // release the other consumers
                            }
                            continue;
                        }
                        let key = ec.prepare();
                        if items.load(Ordering::SeqCst) > 0 || taken.load(Ordering::SeqCst) == all {
                            ec.cancel(key);
                        } else {
                            ec.wait(key, Some(Duration::from_secs(5)));
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (ec, items) = (Arc::clone(&ec), Arc::clone(&items));
                std::thread::spawn(move || {
                    for _ in 0..PER_PRODUCER {
                        items.fetch_add(1, Ordering::SeqCst);
                        ec.notify();
                    }
                })
            })
            .collect();
        for t in producers.into_iter().chain(consumers) {
            t.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::SeqCst), PRODUCERS * PER_PRODUCER);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a wake-up was lost: {:?}",
            t0.elapsed()
        );
        assert_eq!(ec.waiters(), 0);
    }

    #[test]
    fn park_until_on_a_foreign_thread_polls_pumps_and_hears_the_notify() {
        // No pump: sleeps until the completing side notifies the recorded
        // source. With a pump: the pump keeps running on the poll bound.
        type Slot = (bool, Option<Arc<dyn WakeSource>>); // (done, who waits)
        let slot: Arc<Mutex<Slot>> = Arc::new(Mutex::new((false, None)));
        let (registered_tx, registered_rx) = mpsc::channel();
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                park_until(
                    |source| {
                        let mut slot = slot.lock().unwrap();
                        if let Some(source) = source {
                            slot.1 = Some(Arc::clone(source));
                            registered_tx.send(()).unwrap();
                        }
                        slot.0.then_some(())
                    },
                    None,
                    None,
                )
            })
        };
        registered_rx.recv().unwrap();
        let source = {
            let mut slot = slot.lock().unwrap();
            slot.0 = true;
            slot.1.take().unwrap()
        };
        source.events().notify();
        assert_eq!(waiter.join().unwrap(), Some(()));

        let mut pumps = 0;
        let mut pump = || {
            pumps += 1;
            false
        };
        let deadline = Instant::now() + Duration::from_millis(5);
        let out: Option<()> = park_until(|_| None, Some(&mut pump), Some(deadline));
        assert_eq!(out, None);
        assert!(Instant::now() >= deadline);
        assert!(pumps >= 4, "pump ran {pumps} times in 5 ms of 100 us polls");
    }

    // ---- exhaustive interleaving model check -------------------------
    //
    // As for the shm ring in `rpx-net`: waiters and notifiers run as
    // micro-step state machines over the *same* state-word arithmetic
    // (`EC_WAITER`, `EC_EPOCH`, `ec_waiters`, `ec_epoch`) as the real
    // eventcount, one shared-memory access per step, and a DFS
    // enumerates every sequentially consistent interleaving (the SeqCst
    // RMW + fence pairs in `prepare`/`notify` are what entitle the real
    // code to that model). Each critical section under `sleeping`'s lock
    // is one step, and a condvar wait releases the lock in the step that
    // goes to sleep, as the real one does. Timeouts are left out: they
    // only add wake-ups. Each notifier publishes one item and each
    // waiter needs one, so a schedule with no enabled step and an
    // unserved waiter is a lost wake-up.

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum W {
        /// Unprepared check (the top of every real wait loop).
        Check,
        Prepare,
        /// Re-check under the prepared key.
        Recheck(u64),
        Cancel,
        /// Take the lock, compare epochs, sleep or leave.
        Lock(u64),
        Asleep {
            key: u64,
            woken: bool,
        },
        Leave,
        Done,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum N {
        Publish,
        ReadWaiters,
        Bump,
        Lock,
        WakeAll,
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Model {
        state: u64,
        sleeping: usize,
        items: usize,
        w: Vec<W>,
        n: Vec<N>,
    }

    impl Model {
        fn pop(&mut self) -> bool {
            let some = self.items > 0;
            self.items -= usize::from(some);
            some
        }

        /// One waiter micro-step; `false` when waiter `i` cannot move.
        /// `recheck: false` is the classic bug — check, then prepare, then
        /// sleep without looking again.
        fn w_step(&mut self, i: usize, recheck: bool) -> bool {
            let at = self.w[i];
            self.w[i] = match at {
                W::Check if self.pop() => W::Done,
                W::Check => W::Prepare,
                W::Prepare => {
                    let key = ec_epoch(self.state);
                    self.state += EC_WAITER;
                    if recheck {
                        W::Recheck(key)
                    } else {
                        W::Lock(key)
                    }
                }
                W::Recheck(_) if self.pop() => W::Cancel,
                W::Recheck(key) => W::Lock(key),
                W::Cancel => {
                    self.state -= EC_WAITER;
                    W::Done
                }
                W::Lock(key) if ec_epoch(self.state) != key => W::Leave,
                W::Lock(key) => {
                    self.sleeping += 1;
                    W::Asleep { key, woken: false }
                }
                W::Asleep { key, woken: true } => {
                    self.sleeping -= 1;
                    W::Lock(key)
                }
                W::Leave => {
                    self.state -= EC_WAITER;
                    W::Check
                }
                W::Asleep { woken: false, .. } | W::Done => return false,
            };
            true
        }

        fn n_step(&mut self, j: usize) -> bool {
            let at = self.n[j];
            self.n[j] = match at {
                N::Publish => {
                    self.items += 1;
                    N::ReadWaiters
                }
                N::ReadWaiters if ec_waiters(self.state) == 0 => N::Done,
                N::ReadWaiters => N::Bump,
                N::Bump => {
                    self.state = self.state.wrapping_add(EC_EPOCH); // as fetch_add
                    N::Lock
                }
                N::Lock if self.sleeping == 0 => N::Done,
                N::Lock => N::WakeAll,
                N::WakeAll => {
                    for w in &mut self.w {
                        if let W::Asleep { woken, .. } = w {
                            *woken = true;
                        }
                    }
                    N::Done
                }
                N::Done => return false,
            };
            true
        }
    }

    /// Explore every interleaving from `m`; `Err` holds a stuck state.
    fn explore(m: Model, recheck: bool, seen: &mut HashSet<Model>) -> Result<(), Model> {
        if !seen.insert(m.clone()) {
            return Ok(());
        }
        assert!(seen.len() < 2_000_000, "model state space exploded");
        let mut moved = false;
        for i in 0..m.w.len() {
            let mut next = m.clone();
            if next.w_step(i, recheck) {
                moved = true;
                explore(next, recheck, seen)?;
            }
        }
        for j in 0..m.n.len() {
            let mut next = m.clone();
            if next.n_step(j) {
                moved = true;
                explore(next, recheck, seen)?;
            }
        }
        if moved || m.w.iter().all(|w| *w == W::Done) {
            if !moved {
                assert_eq!(m.items, 0, "every item was taken");
                assert_eq!(ec_waiters(m.state), 0, "waiter count leaked");
                assert_eq!(m.sleeping, 0);
            }
            Ok(())
        } else {
            Err(m)
        }
    }

    fn model(parties: usize) -> Model {
        Model {
            // Start just below an epoch wrap so the high half overflows
            // during the run, as a long-lived eventcount's will.
            state: u64::MAX << 32,
            sleeping: 0,
            items: 0,
            w: vec![W::Check; parties],
            n: vec![N::Publish; parties],
        }
    }

    #[test]
    fn interleaving_model_check_prepare_notify_wait_cancel() {
        for parties in 1..=3 {
            let mut seen = HashSet::new();
            let stuck = explore(model(parties), true, &mut seen);
            assert_eq!(stuck, Ok(()), "lost wake-up with {parties} waiters");
            assert!(seen.len() > 20 * parties, "explored too little");
        }
    }

    #[test]
    fn model_check_finds_the_lost_wakeup_when_the_recheck_is_dropped() {
        // The explorer must be able to fail: without the re-check under
        // the prepared key a notifier can publish and read "no waiters"
        // between the waiter's check and its prepare.
        let stuck = explore(model(1), false, &mut HashSet::new());
        let stuck = stuck.expect_err("the broken protocol must deadlock");
        assert_eq!(stuck.items, 1);
        assert!(matches!(stuck.w[0], W::Asleep { woken: false, .. }));
    }
}
