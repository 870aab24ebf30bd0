//! Lock-free read-mostly registries for the parcel send fast path, the
//! SPSC byte ring under the shared-memory transport, and the
//! [`EventCount`] every sleeping thread of a locality parks on.
//!
//! The parcel port consults three tiny registries on *every* send and
//! receive: the per-action interceptor table, the direct-action set, and a
//! couple of rarely-replaced hooks (spawner, notify). All of them are
//! written a handful of times at startup and read millions of times, so
//! reader-writer locks put two atomic RMWs and a potential writer stall on
//! the hot path for no benefit. The structures here make reads plain
//! `Acquire` loads:
//!
//! * [`SlotTable`] — a dense, append-mostly `index -> Arc<T>` table for
//!   small sequential ids (action ids). Chunked bucket allocation keeps
//!   existing slots at stable addresses forever, so readers never need a
//!   lock or an epoch; replaced entries are *retired*, not freed, and
//!   reclaimed when the table drops (readers hold `&self`, so none exist
//!   by then).
//! * [`BitTable`] — a grow-only atomic bitset over small sequential ids.
//! * [`ArcCell`] — a single lock-free `Arc` slot with the same
//!   retire-on-replace discipline.
//!
//! The deferred-reclamation trade: each `set`/`clear` leaks one
//! `Box<Arc<T>>` (two words + the refcount it pins) until the owning table
//! drops. Interceptor and hook tables see O(#actions) writes over a
//! process lifetime, so the retired list stays trivially small — this is
//! the textbook case where "leak until drop" beats hazard pointers.

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

// SAFETY: the pointers are uniquely owned heap boxes; the list is only
// touched under a mutex and freed on drop.
unsafe impl<T: ?Sized + Send + Sync> Send for Retired<T> {}

/// A dense `index -> Arc<T>` table with lock-free readers.
///
/// Writers (`set`/`clear`) serialize on a small mutex for bucket
/// allocation and retirement; readers (`get`, `for_each`) are wait-free
/// apart from the `Arc` refcount increment.
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

    /// Current value at `index` (an owned `Arc` clone).
    #[inline]
    pub fn get(&self, index: usize) -> Option<Arc<T>> {
        let ptr = self.slot(index)?.load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        // SAFETY: non-null slot values are live `Box<Arc<T>>` allocations.
        // A concurrent `set`/`clear` only moves the box to the retired
        // list, which keeps it (and the Arc it pins) alive until the table
        // drops — and drop requires `&mut self`, excluding readers.
        Some(unsafe { (*ptr).clone() })
    }

    /// Whether `index` currently holds a value.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.slot(index)
            .map(|s| !s.load(Ordering::Acquire).is_null())
            .is_some_and(|b| b)
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
        let old = unsafe { &*base.add(offset) }.swap(boxed, Ordering::AcqRel);
        if old.is_null() {
            false
        } else {
            retired.0.push(old);
            true
        }
    }

    /// Remove the value at `index`, returning `true` if one was present.
    pub fn clear(&self, index: usize) -> bool {
        let mut retired = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let Some(slot) = self.slot(index) else {
            return false;
        };
        let old = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if old.is_null() {
            false
        } else {
            retired.0.push(old);
            true
        }
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
                let ptr = unsafe { &*base.add(offset) }.load(Ordering::Acquire);
                if !ptr.is_null() {
                    f(start + offset, unsafe { &*ptr });
                }
            }
        }
    }
}

impl<T: ?Sized> Drop for SlotTable<T> {
    fn drop(&mut self) {
        // No readers can exist here (`&mut self`); free live entries,
        // retired entries, and bucket arrays.
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
                    // SAFETY: live `Box<Arc<T>>`.
                    drop(unsafe { Box::from_raw(ptr) });
                }
            }
        }
        let retired = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        for &ptr in &retired.0 {
            // SAFETY: retired pointers are uniquely owned boxes.
            drop(unsafe { Box::from_raw(ptr) });
        }
        retired.0.clear();
    }
}

/// A grow-only atomic bitset over small sequential ids.
///
/// `test` is a single `Acquire` load; `set` serializes on a mutex only for
/// bucket allocation.
pub struct BitTable {
    /// Bucket `b` holds `WORDS_BASE << b` words of 64 bits each.
    buckets: [AtomicPtr<AtomicU64>; NBUCKETS],
    writer: Mutex<()>,
}

/// First bit-bucket holds `WORDS_BASE * 64` bits.
const WORDS_BASE: usize = 16;

impl Default for BitTable {
    fn default() -> Self {
        Self::new()
    }
}

impl BitTable {
    /// New empty set.
    pub fn new() -> Self {
        BitTable {
            buckets: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            writer: Mutex::new(()),
        }
    }

    #[inline]
    fn locate_word(index: usize) -> (usize, usize, u64) {
        let word = index / 64;
        let n = word / WORDS_BASE + 1;
        let bucket = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let offset = word - WORDS_BASE * ((1 << bucket) - 1);
        (bucket, offset, 1u64 << (index % 64))
    }

    #[inline]
    fn words_in(bucket: usize) -> usize {
        WORDS_BASE << bucket
    }

    /// Whether bit `index` is set.
    #[inline]
    pub fn test(&self, index: usize) -> bool {
        let (bucket, offset, mask) = Self::locate_word(index);
        let base = self.buckets[bucket].load(Ordering::Acquire);
        if base.is_null() {
            return false;
        }
        // SAFETY: non-null buckets are live boxed slices, never freed
        // before `self`.
        unsafe { &*base.add(offset) }.load(Ordering::Acquire) & mask != 0
    }

    /// Set bit `index`.
    pub fn set(&self, index: usize) {
        let _guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let (bucket, offset, mask) = Self::locate_word(index);
        let mut base = self.buckets[bucket].load(Ordering::Acquire);
        if base.is_null() {
            let slice: Box<[AtomicU64]> = (0..Self::words_in(bucket))
                .map(|_| AtomicU64::new(0))
                .collect();
            base = Box::into_raw(slice) as *mut AtomicU64;
            self.buckets[bucket].store(base, Ordering::Release);
        }
        // SAFETY: live bucket, in-bounds offset.
        unsafe { &*base.add(offset) }.fetch_or(mask, Ordering::AcqRel);
    }
}

impl Drop for BitTable {
    fn drop(&mut self) {
        for bucket in 0..NBUCKETS {
            let base = *self.buckets[bucket].get_mut();
            if !base.is_null() {
                let len = Self::words_in(bucket);
                // SAFETY: reconstruct the boxed slice exactly as allocated.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(base, len)) });
            }
        }
    }
}

// SAFETY: all mutation is via atomics or the writer mutex.
unsafe impl Send for BitTable {}
unsafe impl Sync for BitTable {}

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
        if ptr.is_null() {
            return None;
        }
        // SAFETY: see `SlotTable::get` — replaced boxes are retired, not
        // freed, while the cell is alive.
        Some(unsafe { (*ptr).clone() })
    }

    /// Whether a value is installed.
    #[inline]
    pub fn is_set(&self) -> bool {
        !self.slot.load(Ordering::Acquire).is_null()
    }

    /// Install `value`, replacing any previous one.
    pub fn set(&self, value: Arc<T>) {
        let mut retired = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let boxed = Box::into_raw(Box::new(value));
        let old = self.slot.swap(boxed, Ordering::AcqRel);
        if !old.is_null() {
            retired.0.push(old);
        }
    }
}

impl<T: ?Sized> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let ptr = *self.slot.get_mut();
        if !ptr.is_null() {
            // SAFETY: live box, no readers during drop.
            drop(unsafe { Box::from_raw(ptr) });
        }
        let retired = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        for &ptr in &retired.0 {
            // SAFETY: retired pointers are uniquely owned boxes.
            drop(unsafe { Box::from_raw(ptr) });
        }
        retired.0.clear();
    }
}

// ---- SPSC byte ring --------------------------------------------------
//
// The shared-memory transport's wire: one producer and one consumer,
// possibly in different processes, exchanging length-prefixed records
// through a fixed-capacity byte buffer whose head/tail cursors live in
// the buffer's header. The header layout is plain `repr(C)` atomics so
// the same code runs over a heap allocation (same-process localities)
// or an `mmap`ed `/dev/shm` segment (co-located ranks).

use std::ptr::NonNull;
use std::sync::atomic::AtomicU32;

/// Bytes occupied by a ring's [`RingHdr`] (three cache lines: consumer
/// cursor, producer cursor, backpressure flag). A ring region is
/// `RING_HDR_BYTES + capacity` bytes, header first.
pub const RING_HDR_BYTES: usize = 192;

/// Record length prefix marking dead space at the end of the buffer
/// (the producer skipped to offset 0 because the record would not fit
/// contiguously). Never a valid record length.
const RING_PAD: u32 = u32::MAX;

/// Cache-line-padded SPSC cursors, laid out for shared memory.
///
/// `head` is written only by the consumer, `tail` only by the producer;
/// each sits alone on its cache line so the two sides never false-share.
/// Both are *absolute* byte offsets (monotonically increasing, reduced
/// modulo capacity on access), so `head == tail` means empty and
/// `tail - head` is the exact fill — no wasted slot.
#[repr(C)]
pub struct RingHdr {
    /// Consumer cursor: everything below is free for the producer.
    head: AtomicU64,
    _pad0: [u8; 56],
    /// Producer cursor: everything below is published to the consumer.
    tail: AtomicU64,
    _pad1: [u8; 56],
    /// Set by a producer that found the ring full; cleared by the
    /// consumer after freeing space, which reports it so the caller can
    /// ring the producer's doorbell.
    waiting: AtomicU32,
    /// Nonzero while some consumer-side thread actively polls this ring
    /// (see [`SpscConsumer::set_polling`]): producers then suppress the
    /// empty→non-empty doorbell edge, turning a syscall per wakeup into
    /// a plain load on the push path. Zero-initialised, so rings are
    /// born in the conservative "bell on every edge" mode.
    polling: AtomicU32,
    _pad2: [u8; 56],
}

const _: () = assert!(std::mem::size_of::<RingHdr>() == RING_HDR_BYTES);

/// What the producer must do to store a record of `len` payload bytes —
/// the pure index arithmetic of the push protocol, shared by the real
/// ring and the interleaving model check so both exercise the same
/// logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PushPlan {
    /// Dead bytes at the end of the buffer to skip first; when ≥ 4 a
    /// [`RING_PAD`] sentinel is written there so the consumer can tell
    /// the skip from a record.
    pad: usize,
    /// Offset (modulo capacity already applied) of the 4-byte length
    /// prefix; the record follows contiguously.
    at: usize,
    /// Total cursor advance (`pad + 4 + len`).
    advance: usize,
}

/// Plan a push of `len` record bytes, or `None` if `cap - (tail - head)`
/// free bytes are not enough.
fn push_plan(cap: usize, head: u64, tail: u64, len: usize) -> Option<PushPlan> {
    let need = 4 + len;
    let pos = (tail % cap as u64) as usize;
    let to_end = cap - pos;
    let (pad, at) = if to_end < need { (to_end, 0) } else { (0, pos) };
    let advance = pad + need;
    let free = cap - (tail - head) as usize;
    (advance <= free).then_some(PushPlan { pad, at, advance })
}

/// What the consumer finds at its cursor — the pop-side dual of
/// [`push_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PopPlan {
    /// Nothing published (`head == tail`).
    Empty,
    /// Dead space at the end of the buffer: advance by this many bytes.
    Skip(usize),
    /// A record: its length prefix sits at `at`, its `len` bytes follow.
    Record {
        /// Offset of the record's length prefix.
        at: usize,
        /// Record length in bytes.
        len: usize,
        /// Cursor advance consuming it (`4 + len`).
        advance: usize,
    },
    /// The length prefix is impossible — the producer's memory is
    /// corrupt (crashed or hostile peer); the ring must be abandoned.
    Poisoned,
}

/// Plan the next pop given the prefix word `read_prefix` yields at the
/// cursor (only consulted when at least 4 contiguous bytes are
/// published).
fn pop_plan(cap: usize, head: u64, tail: u64, read_prefix: impl FnOnce(usize) -> u32) -> PopPlan {
    let avail = (tail - head) as usize;
    if avail == 0 {
        return PopPlan::Empty;
    }
    let pos = (head % cap as u64) as usize;
    let to_end = cap - pos;
    if to_end < 4 {
        // Too small even for a sentinel: dead space by construction.
        return PopPlan::Skip(to_end);
    }
    let prefix = read_prefix(pos);
    if prefix == RING_PAD {
        return PopPlan::Skip(to_end);
    }
    let len = prefix as usize;
    let advance = 4 + len;
    if advance > avail || advance > to_end {
        return PopPlan::Poisoned;
    }
    PopPlan::Record {
        at: pos,
        len,
        advance,
    }
}

/// Outcome of [`SpscProducer::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingPush {
    /// The record was stored. `consumer_idle` is `true` when the
    /// consumer had drained everything published before this record
    /// *and* no thread has declared itself actively polling — the
    /// producer should ring the consumer's doorbell, and the seq-cst
    /// cursor/flag protocol guarantees the wake is never lost.
    Stored {
        /// Whether the ring was empty immediately before this record
        /// with no active poller (i.e. the doorbell is needed).
        consumer_idle: bool,
    },
    /// Not enough free space; the ring's backpressure flag is set so
    /// the consumer reports when space frees up.
    Full,
}

/// Result of one [`SpscConsumer::pop_each`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingPop {
    /// Records delivered to the callback.
    pub records: usize,
    /// The producer had set the backpressure flag and this pop freed
    /// space: the caller should ring the producer's doorbell.
    pub producer_waiting: bool,
    /// The ring content is inconsistent (impossible length prefix);
    /// the caller must stop using this ring.
    pub poisoned: bool,
}

/// Opaque keep-alive for the memory a ring lives in (heap allocation or
/// a mapped segment).
pub type RingMemory = Arc<dyn std::any::Any + Send + Sync>;

/// The producing half of an SPSC byte ring. `!Sync`: exactly one thread
/// may push at a time (callers serialize with their own lock).
pub struct SpscProducer {
    hdr: NonNull<RingHdr>,
    data: NonNull<u8>,
    cap: usize,
    /// Last observed consumer cursor; reloaded only when space looks
    /// insufficient, keeping the fast path free of cross-core traffic.
    cached_head: u64,
    _mem: Option<RingMemory>,
}

// SAFETY: the raw pointers target shared memory mutated only through
// atomics (header) or within the SPSC ownership discipline (data).
unsafe impl Send for SpscProducer {}

/// The consuming half of an SPSC byte ring. `!Sync` like the producer.
pub struct SpscConsumer {
    hdr: NonNull<RingHdr>,
    data: NonNull<u8>,
    cap: usize,
    /// Last observed producer cursor (refreshed when it looks empty).
    cached_tail: u64,
    _mem: Option<RingMemory>,
}

// SAFETY: as for `SpscProducer`.
unsafe impl Send for SpscConsumer {}

impl SpscProducer {
    /// Wrap the producing side of a ring whose header (zero-initialised
    /// on creation) lives at `base` and whose `cap` data bytes follow.
    ///
    /// # Safety
    /// `base` must point at `RING_HDR_BYTES + cap` bytes of memory that
    /// stays valid while the producer (and `mem`) lives, with the first
    /// `RING_HDR_BYTES` zero-initialised before first use, and at most
    /// one producer may exist per ring.
    pub unsafe fn from_raw(base: *mut u8, cap: usize, mem: Option<RingMemory>) -> Self {
        assert!(cap >= 16, "ring capacity too small");
        SpscProducer {
            hdr: NonNull::new(base as *mut RingHdr).expect("ring base"),
            data: NonNull::new(base.add(RING_HDR_BYTES)).expect("ring data"),
            cap,
            cached_head: 0,
            _mem: mem,
        }
    }

    /// Ring capacity in data bytes.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Largest record guaranteed to *eventually* fit (once the consumer
    /// drains): the wrap rule can burn up to `4 + len` pad bytes, so a
    /// record needs at most `2 * (4 + len) ≤ cap`.
    pub fn max_record(&self) -> usize {
        self.cap / 2 - 4
    }

    /// Store one record, or report the ring full (setting the
    /// backpressure flag so the consumer signals freed space).
    pub fn try_push(&mut self, record: &[u8]) -> RingPush {
        let hdr = unsafe { self.hdr.as_ref() };
        let tail = hdr.tail.load(Ordering::Relaxed); // producer-owned
        let plan = match push_plan(self.cap, self.cached_head, tail, record.len()) {
            Some(p) => Some(p),
            None => {
                self.cached_head = hdr.head.load(Ordering::Acquire);
                push_plan(self.cap, self.cached_head, tail, record.len())
            }
        };
        let Some(plan) = plan else {
            // Publish our starvation, then look once more: the consumer
            // may have freed space between the reload and the store (in
            // which case nobody would ever clear the flag for us).
            hdr.waiting.store(1, Ordering::SeqCst);
            self.cached_head = hdr.head.load(Ordering::SeqCst);
            match push_plan(self.cap, self.cached_head, tail, record.len()) {
                Some(p) => {
                    hdr.waiting.store(0, Ordering::SeqCst);
                    return self.commit(p, record, tail);
                }
                None => return RingPush::Full,
            }
        };
        self.commit(plan, record, tail)
    }

    fn commit(&mut self, plan: PushPlan, record: &[u8], tail: u64) -> RingPush {
        let hdr = unsafe { self.hdr.as_ref() };
        unsafe {
            if plan.pad >= 4 {
                let pos = (tail % self.cap as u64) as usize;
                self.write_u32(pos, RING_PAD);
            }
            self.write_u32(plan.at, record.len() as u32);
            std::ptr::copy_nonoverlapping(
                record.as_ptr(),
                self.data.as_ptr().add(plan.at + 4),
                record.len(),
            );
        }
        // SeqCst publish + SeqCst idle check: pairs with the consumer's
        // SeqCst head store + tail re-check, so either we observe the
        // consumer fully drained (and ring its bell) or the consumer
        // observes our record before parking — a wake is never lost.
        // The polling flag extends the same Dekker shape: a poller
        // clears it (SeqCst) *before* its final emptiness re-check, so
        // either this store lands before that check (the poller drains
        // us) or our flag load sees zero (we ring the bell).
        hdr.tail.store(tail + plan.advance as u64, Ordering::SeqCst);
        let head = hdr.head.load(Ordering::SeqCst);
        self.cached_head = head;
        RingPush::Stored {
            consumer_idle: head == tail && hdr.polling.load(Ordering::SeqCst) == 0,
        }
    }

    unsafe fn write_u32(&self, at: usize, v: u32) {
        std::ptr::copy_nonoverlapping(v.to_le_bytes().as_ptr(), self.data.as_ptr().add(at), 4);
    }
}

impl SpscConsumer {
    /// Wrap the consuming side of a ring at `base` (see
    /// [`SpscProducer::from_raw`]).
    ///
    /// # Safety
    /// Same memory contract as the producer; at most one consumer may
    /// exist per ring.
    pub unsafe fn from_raw(base: *mut u8, cap: usize, mem: Option<RingMemory>) -> Self {
        assert!(cap >= 16, "ring capacity too small");
        SpscConsumer {
            hdr: NonNull::new(base as *mut RingHdr).expect("ring base"),
            data: NonNull::new(base.add(RING_HDR_BYTES)).expect("ring data"),
            cap,
            cached_tail: 0,
            _mem: mem,
        }
    }

    /// Published bytes not yet consumed (cursor distance, pads
    /// included). Zero means the producer has nothing outstanding.
    pub fn backlog(&self) -> usize {
        let hdr = unsafe { self.hdr.as_ref() };
        (hdr.tail.load(Ordering::SeqCst) - hdr.head.load(Ordering::Relaxed)) as usize
    }

    /// Whether the ring is empty *right now* (seq-cst, so safe as the
    /// final check before parking: a producer that published after this
    /// returned `true` will have seen `consumer_idle` and rung the
    /// doorbell).
    pub fn is_empty(&self) -> bool {
        self.backlog() == 0
    }

    /// Declare (or retract) that some consumer-side thread is actively
    /// polling this ring. While declared, producers skip the
    /// empty→non-empty doorbell — the hot-path syscall disappears —
    /// because the poller has committed to checking the ring again
    /// without being woken.
    ///
    /// Contract: after `set_polling(false)` the caller MUST re-check
    /// [`is_empty`](Self::is_empty) and drain anything found before
    /// going to sleep; records published between the flag clear and the
    /// re-check had their bell suppressed, and the seq-cst ordering
    /// guarantees the re-check observes them.
    pub fn set_polling(&mut self, active: bool) {
        let hdr = unsafe { self.hdr.as_ref() };
        hdr.polling.store(active as u32, Ordering::SeqCst);
    }

    /// Pop up to `max` records, invoking `f` on each record *in place*
    /// (the slice borrows ring memory; it is only freed for reuse after
    /// `f` returns).
    pub fn pop_each(&mut self, max: usize, mut f: impl FnMut(&[u8])) -> RingPop {
        let hdr = unsafe { self.hdr.as_ref() };
        let mut out = RingPop::default();
        let mut head = hdr.head.load(Ordering::Relaxed); // consumer-owned
        while out.records < max {
            if self.cached_tail == head {
                self.cached_tail = hdr.tail.load(Ordering::Acquire);
            }
            let plan = pop_plan(self.cap, head, self.cached_tail, |pos| unsafe {
                self.read_u32(pos)
            });
            match plan {
                PopPlan::Empty => break,
                PopPlan::Skip(n) => {
                    head += n as u64;
                    hdr.head.store(head, Ordering::SeqCst);
                }
                PopPlan::Record { at, len, advance } => {
                    // SAFETY: the producer published `len` bytes at
                    // `at + 4` before advancing `tail`, and will not
                    // reuse them until `head` passes the record.
                    let record =
                        unsafe { std::slice::from_raw_parts(self.data.as_ptr().add(at + 4), len) };
                    f(record);
                    head += advance as u64;
                    hdr.head.store(head, Ordering::SeqCst);
                    out.records += 1;
                }
                PopPlan::Poisoned => {
                    out.poisoned = true;
                    break;
                }
            }
        }
        if hdr.waiting.load(Ordering::SeqCst) != 0 && hdr.waiting.swap(0, Ordering::SeqCst) != 0 {
            out.producer_waiting = true;
        }
        out
    }

    unsafe fn read_u32(&self, at: usize) -> u32 {
        let mut b = [0u8; 4];
        std::ptr::copy_nonoverlapping(self.data.as_ptr().add(at), b.as_mut_ptr(), 4);
        u32::from_le_bytes(b)
    }
}

/// 64-byte-aligned, zero-initialised backing memory for a heap ring.
struct HeapRingMem {
    base: *mut u8,
    layout: std::alloc::Layout,
}

// SAFETY: the allocation is plain bytes, shared only through the ring's
// atomic protocol.
unsafe impl Send for HeapRingMem {}
unsafe impl Sync for HeapRingMem {}

impl Drop for HeapRingMem {
    fn drop(&mut self) {
        // SAFETY: allocated with exactly this layout in `heap_ring`.
        unsafe { std::alloc::dealloc(self.base, self.layout) };
    }
}

/// Allocate a process-local SPSC ring of `capacity` data bytes. Both
/// halves keep the allocation alive; they may move to different
/// threads.
pub fn heap_ring(capacity: usize) -> (SpscProducer, SpscConsumer) {
    assert!(capacity >= 16, "ring capacity too small");
    let layout =
        std::alloc::Layout::from_size_align(RING_HDR_BYTES + capacity, 64).expect("ring layout");
    // SAFETY: non-zero layout; zeroing initialises the header cursors.
    let base = unsafe { std::alloc::alloc_zeroed(layout) };
    assert!(!base.is_null(), "ring allocation failed");
    let mem: RingMemory = Arc::new(HeapRingMem { base, layout });
    // SAFETY: `base` is `RING_HDR_BYTES + capacity` zeroed bytes kept
    // alive by `mem`; exactly one producer and one consumer are made.
    unsafe {
        (
            SpscProducer::from_raw(base, capacity, Some(Arc::clone(&mem))),
            SpscConsumer::from_raw(base, capacity, Some(mem)),
        )
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
pub struct EventCount {
    /// `epoch << 32 | waiters`.
    state: AtomicU64,
    /// Threads inside the condvar wait; lets `notify` skip the condvar
    /// when every prepared waiter is still on its way in (it will see
    /// the new epoch under this lock and not sleep).
    sleeping: parking_lot::Mutex<usize>,
    cv: parking_lot::Condvar,
}

impl Default for EventCount {
    fn default() -> Self {
        Self::new()
    }
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
pub fn thread_wake_source() -> Arc<dyn WakeSource> {
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn locate_covers_bucket_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(u32::MAX as usize), locate(u32::MAX as usize));
    }

    #[test]
    fn slot_table_set_get_clear() {
        let t: SlotTable<str> = SlotTable::new();
        assert!(t.get(0).is_none());
        assert!(!t.set(5, Arc::from("five")));
        assert_eq!(t.get(5).as_deref(), Some("five"));
        assert!(t.set(5, Arc::from("cinq")));
        assert_eq!(t.get(5).as_deref(), Some("cinq"));
        assert!(t.clear(5));
        assert!(!t.clear(5));
        assert!(t.get(5).is_none());
        // Sparse high index exercises a later bucket.
        t.set(10_000, Arc::from("far"));
        assert_eq!(t.get(10_000).as_deref(), Some("far"));
        assert!(t.get(9_999).is_none());
    }

    #[test]
    fn slot_table_for_each_sees_live_entries() {
        let t: SlotTable<String> = SlotTable::new();
        for i in [0usize, 1, 63, 64, 200, 4096] {
            t.set(i, Arc::new(format!("v{i}")));
        }
        t.clear(63);
        let mut seen = Vec::new();
        t.for_each(|i, v| seen.push((i, v.as_str().to_string())));
        seen.sort();
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 64, 200, 4096]
        );
        assert_eq!(seen[0].1, "v0");
    }

    #[test]
    fn slot_table_drops_all_values_exactly_once() {
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
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn slot_table_concurrent_readers_and_writers() {
        let t: Arc<SlotTable<AtomicUsize>> = Arc::new(SlotTable::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut hits = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        for i in 0..64 {
                            if let Some(v) = t.get(i) {
                                v.fetch_add(1, Ordering::Relaxed);
                                hits += 1;
                            }
                        }
                    }
                    hits
                })
            })
            .collect();
        for round in 0..200 {
            for i in 0..64 {
                t.set(i, Arc::new(AtomicUsize::new(round)));
            }
            for i in 0..64 {
                if (i + round) % 3 == 0 {
                    t.clear(i);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn bit_table_set_and_test() {
        let b = BitTable::new();
        assert!(!b.test(0));
        assert!(!b.test(100_000));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(100_000);
        assert!(b.test(0));
        assert!(b.test(63));
        assert!(b.test(64));
        assert!(b.test(100_000));
        assert!(!b.test(1));
        assert!(!b.test(99_999));
    }

    #[test]
    fn arc_cell_replace_and_drop() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tally;
        impl Drop for Tally {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let c: ArcCell<Tally> = ArcCell::new();
            assert!(!c.is_set());
            assert!(c.get().is_none());
            c.set(Arc::new(Tally));
            assert!(c.is_set());
            let held = c.get().unwrap();
            c.set(Arc::new(Tally));
            drop(held);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;

    fn record(seed: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (seed.wrapping_mul(31) + i) as u8)
            .collect()
    }

    #[test]
    fn push_plan_wrap_and_pad_rules() {
        // Fits contiguously: no pad.
        assert_eq!(
            push_plan(32, 0, 0, 8),
            Some(PushPlan {
                pad: 0,
                at: 0,
                advance: 12
            })
        );
        // Record would straddle the end with room for a sentinel: pad.
        assert_eq!(
            push_plan(32, 26, 26, 8),
            Some(PushPlan {
                pad: 6,
                at: 0,
                advance: 18
            })
        );
        // End gap too small even for the sentinel: silent skip.
        assert_eq!(
            push_plan(32, 30, 30, 8),
            Some(PushPlan {
                pad: 2,
                at: 0,
                advance: 14
            })
        );
        // Exactly full after the push is allowed.
        assert_eq!(
            push_plan(32, 0, 0, 28),
            Some(PushPlan {
                pad: 0,
                at: 0,
                advance: 32
            })
        );
        // One byte over is not.
        assert_eq!(push_plan(32, 0, 0, 29), None);
        // Free space must cover the pad too.
        assert_eq!(push_plan(32, 8, 26, 8), None);
    }

    #[test]
    fn pop_plan_mirrors_push_plan() {
        assert_eq!(pop_plan(32, 5, 5, |_| unreachable!()), PopPlan::Empty);
        assert_eq!(pop_plan(32, 30, 44, |_| unreachable!()), PopPlan::Skip(2));
        assert_eq!(
            pop_plan(32, 26, 44, |p| {
                assert_eq!(p, 26);
                RING_PAD
            }),
            PopPlan::Skip(6)
        );
        assert_eq!(
            pop_plan(32, 0, 12, |_| 8),
            PopPlan::Record {
                at: 0,
                len: 8,
                advance: 12
            }
        );
        // Length prefix running past published bytes or the buffer end
        // is impossible under the protocol.
        assert_eq!(pop_plan(32, 0, 12, |_| 9), PopPlan::Poisoned);
        assert_eq!(pop_plan(32, 4, 36, |_| 30), PopPlan::Poisoned);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let (mut tx, mut rx) = heap_ring(256);
        for (i, len) in [0usize, 1, 7, 64, tx.max_record()].iter().enumerate() {
            let msg = record(i, *len);
            assert!(matches!(tx.try_push(&msg), RingPush::Stored { .. }));
            let mut got = Vec::new();
            let pop = rx.pop_each(8, |r| got = r.to_vec());
            assert_eq!(pop.records, 1);
            assert!(!pop.poisoned);
            assert_eq!(got, msg);
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn doorbell_edge_is_empty_to_nonempty() {
        let (mut tx, mut rx) = heap_ring(256);
        assert_eq!(
            tx.try_push(b"a"),
            RingPush::Stored {
                consumer_idle: true
            }
        );
        assert_eq!(
            tx.try_push(b"b"),
            RingPush::Stored {
                consumer_idle: false
            }
        );
        assert_eq!(rx.pop_each(8, |_| {}).records, 2);
        assert_eq!(
            tx.try_push(b"c"),
            RingPush::Stored {
                consumer_idle: true
            }
        );
    }

    #[test]
    fn polling_consumer_suppresses_doorbell_edge() {
        let (mut tx, mut rx) = heap_ring(256);
        rx.set_polling(true);
        // Empty→non-empty while polled: no bell requested.
        assert_eq!(
            tx.try_push(b"a"),
            RingPush::Stored {
                consumer_idle: false
            }
        );
        assert_eq!(rx.pop_each(8, |_| {}).records, 1);
        assert_eq!(
            tx.try_push(b"b"),
            RingPush::Stored {
                consumer_idle: false
            }
        );
        // Retract the flag: the mandatory re-check sees the suppressed
        // record, and the next edge requests a bell again.
        rx.set_polling(false);
        assert!(!rx.is_empty());
        assert_eq!(rx.pop_each(8, |_| {}).records, 1);
        assert_eq!(
            tx.try_push(b"c"),
            RingPush::Stored {
                consumer_idle: true
            }
        );
    }

    #[test]
    fn full_sets_waiting_and_consumer_reports_it() {
        let (mut tx, mut rx) = heap_ring(64);
        let msg = record(9, 24);
        assert!(matches!(tx.try_push(&msg), RingPush::Stored { .. }));
        assert!(matches!(tx.try_push(&msg), RingPush::Stored { .. }));
        assert_eq!(tx.try_push(&msg), RingPush::Full);
        let pop = rx.pop_each(1, |r| assert_eq!(r, &msg[..]));
        assert_eq!(pop.records, 1);
        assert!(pop.producer_waiting);
        assert!(matches!(tx.try_push(&msg), RingPush::Stored { .. }));
        // The flag is one-shot: a pop with no starved producer is quiet.
        let pop = rx.pop_each(8, |_| {});
        assert_eq!(pop.records, 2);
        assert!(!pop.producer_waiting);
    }

    #[test]
    fn wraparound_preserves_content_and_order() {
        let (mut tx, mut rx) = heap_ring(128);
        let mut sent = 0usize;
        let mut seen = 0usize;
        while sent < 10_000 {
            let msg = record(sent, sent % 40);
            match tx.try_push(&msg) {
                RingPush::Stored { .. } => sent += 1,
                RingPush::Full => {
                    let pop = rx.pop_each(usize::MAX, |r| {
                        assert_eq!(r, &record(seen, seen % 40)[..]);
                        seen += 1;
                    });
                    assert!(!pop.poisoned);
                    assert!(pop.records > 0);
                }
            }
        }
        rx.pop_each(usize::MAX, |r| {
            assert_eq!(r, &record(seen, seen % 40)[..]);
            seen += 1;
        });
        assert_eq!(seen, sent);
        assert!(rx.is_empty());
    }

    #[test]
    fn corrupt_length_prefix_poisons_the_ring() {
        let (mut tx, mut rx) = heap_ring(64);
        assert!(matches!(tx.try_push(&[7u8; 8]), RingPush::Stored { .. }));
        // Forge an impossible length where the prefix lives.
        unsafe { tx.write_u32(0, 61) };
        let pop = rx.pop_each(8, |_| panic!("poisoned ring delivered a record"));
        assert!(pop.poisoned);
        assert_eq!(pop.records, 0);
    }

    #[test]
    fn backlog_counts_published_bytes() {
        let (mut tx, rx) = heap_ring(64);
        assert_eq!(rx.backlog(), 0);
        tx.try_push(&[0u8; 6]);
        assert_eq!(rx.backlog(), 10);
        assert!(!rx.is_empty());
    }

    #[test]
    fn two_threads_stress_wraparound() {
        let (mut tx, mut rx) = heap_ring(512);
        const N: usize = 50_000;
        let producer = std::thread::spawn(move || {
            let mut i = 0usize;
            while i < N {
                match tx.try_push(&record(i, i % 120)) {
                    RingPush::Stored { .. } => i += 1,
                    RingPush::Full => std::thread::yield_now(),
                }
            }
        });
        let mut seen = 0usize;
        while seen < N {
            let pop = rx.pop_each(64, |r| {
                assert_eq!(r, &record(seen, seen % 120)[..]);
                seen += 1;
            });
            assert!(!pop.poisoned);
            if pop.records == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }

    // ---- exhaustive interleaving model check -------------------------
    //
    // loom is not vendored, so the ordering protocol is checked by a
    // hand-rolled explorer: producer and consumer run as micro-step
    // state machines over the *same* `push_plan`/`pop_plan` arithmetic
    // as the real ring, with cursor loads/stores split into separate
    // steps so every interleaving of "stale cached cursor" against the
    // peer's progress is enumerated by DFS. Content and FIFO order are
    // asserted at every consumer step, across start offsets that force
    // each wrap/pad branch.

    const M_CAP: usize = 32;

    #[derive(Clone)]
    struct Model {
        buf: [u8; M_CAP],
        head: u64,
        tail: u64,
        // Producer: next record index, cached head, staged plan.
        p_idx: usize,
        p_cached_head: u64,
        p_plan: Option<PushPlan>,
        // Consumer: records popped, cached tail.
        c_popped: usize,
        c_cached_tail: u64,
        c_loaded: bool,
    }

    fn model_records() -> Vec<Vec<u8>> {
        vec![record(1, 9), record(2, 13), record(3, 5)]
    }

    /// Producer micro-step. Returns false when it cannot make progress
    /// (ring full and the consumer has not advanced since our reload).
    fn p_step(m: &mut Model, recs: &[Vec<u8>]) -> bool {
        if m.p_idx == recs.len() {
            return false;
        }
        match m.p_plan {
            None => {
                let msg = &recs[m.p_idx];
                let plan = push_plan(M_CAP, m.p_cached_head, m.tail, msg.len()).or_else(|| {
                    // Acquire reload on the slow path, as in try_push.
                    m.p_cached_head = m.head;
                    push_plan(M_CAP, m.p_cached_head, m.tail, msg.len())
                });
                let Some(plan) = plan else { return false };
                // Data writes happen *before* the tail store publishes
                // them — the consumer cannot observe this step.
                if plan.pad >= 4 {
                    let pos = (m.tail % M_CAP as u64) as usize;
                    m.buf[pos..pos + 4].copy_from_slice(&RING_PAD.to_le_bytes());
                }
                m.buf[plan.at..plan.at + 4].copy_from_slice(&(msg.len() as u32).to_le_bytes());
                m.buf[plan.at + 4..plan.at + 4 + msg.len()].copy_from_slice(msg);
                m.p_plan = Some(plan);
                true
            }
            Some(plan) => {
                m.tail += plan.advance as u64;
                m.p_plan = None;
                m.p_idx += 1;
                true
            }
        }
    }

    /// Consumer micro-step. Returns false when nothing is observable.
    fn c_step(m: &mut Model, recs: &[Vec<u8>]) -> bool {
        if m.c_popped == recs.len() {
            return false;
        }
        if !m.c_loaded {
            if m.c_cached_tail == m.tail && m.c_cached_tail == m.head {
                return false; // reload would observe nothing new
            }
            m.c_cached_tail = m.tail;
            m.c_loaded = true;
            return true;
        }
        let plan = pop_plan(M_CAP, m.head, m.c_cached_tail, |pos| {
            u32::from_le_bytes(m.buf[pos..pos + 4].try_into().unwrap())
        });
        match plan {
            PopPlan::Empty => {
                m.c_loaded = false;
                m.c_cached_tail == m.tail && !c_step(m, recs) // retry via reload
            }
            PopPlan::Skip(n) => {
                m.head += n as u64;
                true
            }
            PopPlan::Record { at, len, advance } => {
                let expect = &recs[m.c_popped];
                assert_eq!(
                    &m.buf[at + 4..at + 4 + len],
                    &expect[..],
                    "record {} corrupted or out of order",
                    m.c_popped
                );
                m.head += advance as u64;
                m.c_popped += 1;
                m.c_loaded = false;
                true
            }
            PopPlan::Poisoned => panic!("model ring poisoned"),
        }
    }

    fn explore(m: Model, recs: &[Vec<u8>], visited: &mut usize) {
        *visited += 1;
        assert!(*visited < 2_000_000, "model state space exploded");
        if m.p_idx == recs.len() && m.c_popped == recs.len() {
            assert_eq!(m.head, m.tail, "drained ring must be empty");
            return;
        }
        let mut advanced = false;
        for who in 0..2 {
            let mut next = m.clone();
            let moved = if who == 0 {
                p_step(&mut next, recs)
            } else {
                c_step(&mut next, recs)
            };
            if moved {
                advanced = true;
                explore(next, recs, visited);
            }
        }
        // A consumer "Empty after reload" result is not progress, but
        // then the producer must be schedulable (it has records left
        // and the ring cannot be full while empty), so:
        assert!(advanced, "model deadlocked");
    }

    #[test]
    fn interleaving_model_check_spsc_protocol() {
        let recs = model_records();
        let mut total = 0usize;
        // Start offsets chosen so the record stream hits the
        // contiguous, pad-sentinel, and silent-skip wrap branches
        // (some offsets block the producer almost immediately and
        // serialize — that near-empty schedule is itself a case).
        for start in [0u64, 11, 20, 25, 27, 29, 30, 31] {
            let mut visited = 0usize;
            let m = Model {
                buf: [0; M_CAP],
                head: start,
                tail: start,
                p_idx: 0,
                p_cached_head: start,
                p_plan: None,
                c_popped: 0,
                c_cached_tail: start,
                c_loaded: false,
            };
            explore(m, &recs, &mut visited);
            assert!(visited > 15, "model explored too little at offset {start}");
            total += visited;
        }
        assert!(total > 1_000, "model explored too little overall: {total}");
    }
}

#[cfg(test)]
mod eventcount_tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

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
    // Same approach as the ring's: waiters and notifiers run as
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

// When a vendored loom becomes available, run with
// `RUSTFLAGS="--cfg loom" cargo test -p rpx-util --release ring_loom`.
// Until then the interleaving model check above covers the same
// protocol (it shares `push_plan`/`pop_plan` with the real ring).
#[cfg(all(test, loom))]
mod ring_loom {
    use super::*;

    #[test]
    fn loom_spsc_push_pop() {
        loom::model(|| {
            let (mut tx, mut rx) = heap_ring(32);
            let t = loom::thread::spawn(move || {
                while !matches!(tx.try_push(&[7u8; 9]), RingPush::Stored { .. }) {
                    loom::thread::yield_now();
                }
            });
            let mut got = 0;
            while got == 0 {
                got = rx.pop_each(1, |r| assert_eq!(r, &[7u8; 9][..])).records;
                loom::thread::yield_now();
            }
            t.join().unwrap();
        });
    }
}
