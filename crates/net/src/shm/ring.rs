//! The SPSC byte ring: the shared-memory transport's wire format.
//!
//! One producer and one consumer, possibly in different processes,
//! exchange length-prefixed records through a fixed-capacity byte buffer
//! whose head/tail cursors live in the buffer's header. The header is
//! plain `repr(C)` atomics, so the same code runs over a heap segment
//! (ranks hosted by one process) or an `mmap`ed `/dev/shm` segment
//! (co-located ranks). Ring halves are carved only by
//! [`ShmSegment::rings`](super::ShmSegment::rings) and keep their segment
//! alive.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use super::ShmSegment;

/// Bytes occupied by a ring's [`RingHdr`] (three cache lines: consumer
/// cursor, producer cursor, backpressure flag). A ring region is
/// `RING_HDR_BYTES + capacity` bytes, header first.
pub(super) const RING_HDR_BYTES: usize = 192;

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
struct RingHdr {
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
pub(crate) enum RingPush {
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
pub(crate) struct RingPop {
    /// Records delivered to the callback.
    pub(crate) records: usize,
    /// The producer had set the backpressure flag and this pop freed
    /// space: the caller should ring the producer's doorbell.
    pub(crate) producer_waiting: bool,
    /// The ring content is inconsistent (impossible length prefix);
    /// the caller must stop using this ring.
    pub(crate) poisoned: bool,
}

/// One ring of a segment as either half sees it: the header, the data
/// bytes after it, and the segment that keeps both mapped.
pub(super) struct Ring {
    hdr: NonNull<RingHdr>,
    data: NonNull<u8>,
    cap: usize,
    _seg: Arc<ShmSegment>,
}

// SAFETY: the pointers target the segment `_seg` keeps alive, mutated
// only through atomics (header) or within the SPSC ownership discipline
// (data). `Ring` stays `!Sync`, so each half is used by one thread at a
// time.
unsafe impl Send for Ring {}

impl Ring {
    /// View the ring whose header starts at byte `offset` of `seg`, with
    /// `cap` data bytes after the header.
    ///
    /// # Safety
    /// `offset + RING_HDR_BYTES + cap` must lie within the segment and
    /// the header must be zero-initialised before first use.
    pub(super) unsafe fn carve(seg: Arc<ShmSegment>, offset: usize, cap: usize) -> Ring {
        // SAFETY: in bounds of the segment, per the caller's contract.
        let (hdr, data) = unsafe { (seg.base.add(offset), seg.base.add(offset + RING_HDR_BYTES)) };
        debug_assert!(
            (hdr as usize).is_multiple_of(64),
            "ring header off its cache line"
        );
        Ring {
            hdr: NonNull::new(hdr.cast()).expect("ring header"),
            data: NonNull::new(data).expect("ring data"),
            cap,
            _seg: seg,
        }
    }

    fn hdr(&self) -> &RingHdr {
        // SAFETY: a live, aligned, zero-initialised (= valid) header for
        // as long as `_seg` keeps the segment mapped; all its fields are
        // atomics, so shared references from both processes are fine.
        unsafe { self.hdr.as_ref() }
    }
}

/// The producing half of an SPSC byte ring. `!Sync`: exactly one thread
/// may push at a time (callers serialize with their own lock).
pub(crate) struct SpscProducer {
    ring: Ring,
    /// Last observed consumer cursor; reloaded only when space looks
    /// insufficient, keeping the fast path free of cross-core traffic.
    cached_head: u64,
}

/// The consuming half of an SPSC byte ring. `!Sync` like the producer.
pub(crate) struct SpscConsumer {
    ring: Ring,
    /// Last observed producer cursor (refreshed when it looks empty).
    cached_tail: u64,
}

impl SpscProducer {
    /// The producing half of `ring`.
    pub(super) fn new(ring: Ring) -> Self {
        SpscProducer {
            ring,
            cached_head: 0,
        }
    }

    /// Largest record guaranteed to *eventually* fit (once the consumer
    /// drains): the wrap rule can burn up to `4 + len` pad bytes, so a
    /// record needs at most `2 * (4 + len) ≤ cap`.
    pub(crate) fn max_record(&self) -> usize {
        self.ring.cap / 2 - 4
    }

    /// Store one record, or report the ring full (setting the
    /// backpressure flag so the consumer signals freed space).
    pub(crate) fn try_push(&mut self, record: &[u8]) -> RingPush {
        let cap = self.ring.cap;
        let hdr = self.ring.hdr();
        let tail = hdr.tail.load(Ordering::Relaxed); // producer-owned
        let plan = match push_plan(cap, self.cached_head, tail, record.len()) {
            Some(p) => Some(p),
            None => {
                self.cached_head = hdr.head.load(Ordering::Acquire);
                push_plan(cap, self.cached_head, tail, record.len())
            }
        };
        let Some(plan) = plan else {
            // Publish our starvation, then look once more: the consumer
            // may have freed space between the reload and the store (in
            // which case nobody would ever clear the flag for us).
            hdr.waiting.store(1, Ordering::SeqCst);
            self.cached_head = hdr.head.load(Ordering::SeqCst);
            match push_plan(cap, self.cached_head, tail, record.len()) {
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
        // SAFETY: `push_plan` placed the pad sentinel (when ≥ 4 bytes)
        // and `4 + len` record bytes inside the buffer and inside free
        // space, which the consumer does not read until the tail store
        // below publishes it.
        unsafe {
            if plan.pad >= 4 {
                self.write_u32((tail % self.ring.cap as u64) as usize, RING_PAD);
            }
            self.write_u32(plan.at, record.len() as u32);
            std::ptr::copy_nonoverlapping(
                record.as_ptr(),
                self.ring.data.as_ptr().add(plan.at + 4),
                record.len(),
            );
        }
        let hdr = self.ring.hdr();
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

    /// Write a little-endian `u32` at data offset `at`.
    ///
    /// # Safety
    /// `at + 4 ≤ cap`, and the bytes must be unpublished space.
    unsafe fn write_u32(&self, at: usize, v: u32) {
        std::ptr::copy_nonoverlapping(v.to_le_bytes().as_ptr(), self.ring.data.as_ptr().add(at), 4);
    }
}

impl SpscConsumer {
    /// The consuming half of `ring`.
    pub(super) fn new(ring: Ring) -> Self {
        SpscConsumer {
            ring,
            cached_tail: 0,
        }
    }

    /// Published bytes not yet consumed (cursor distance, pads
    /// included). Zero means the producer has nothing outstanding.
    fn backlog(&self) -> usize {
        let hdr = self.ring.hdr();
        (hdr.tail.load(Ordering::SeqCst) - hdr.head.load(Ordering::Relaxed)) as usize
    }

    /// Whether the ring is empty *right now* (seq-cst, so safe as the
    /// final check before parking: a producer that published after this
    /// returned `true` will have seen `consumer_idle` and rung the
    /// doorbell).
    pub(crate) fn is_empty(&self) -> bool {
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
    pub(crate) fn set_polling(&mut self, active: bool) {
        self.ring
            .hdr()
            .polling
            .store(active as u32, Ordering::SeqCst);
    }

    /// Pop up to `max` records, invoking `f` on each record *in place*
    /// (the slice borrows ring memory; it is only freed for reuse after
    /// `f` returns).
    pub(crate) fn pop_each(&mut self, max: usize, mut f: impl FnMut(&[u8])) -> RingPop {
        let (cap, data) = (self.ring.cap, self.ring.data);
        let hdr = self.ring.hdr();
        let mut out = RingPop::default();
        let mut head = hdr.head.load(Ordering::Relaxed); // consumer-owned
        while out.records < max {
            if self.cached_tail == head {
                self.cached_tail = hdr.tail.load(Ordering::Acquire);
            }
            // SAFETY: `pop_plan` reads a prefix only where at least four
            // published bytes lie before the buffer end.
            let plan = pop_plan(cap, head, self.cached_tail, |pos| unsafe {
                read_u32(data, pos)
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
                        unsafe { std::slice::from_raw_parts(data.as_ptr().add(at + 4), len) };
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
}

/// Read the little-endian `u32` at data offset `pos`.
///
/// # Safety
/// `pos + 4 ≤ cap`, and the bytes must be published.
unsafe fn read_u32(data: NonNull<u8>, pos: usize) -> u32 {
    let mut b = [0u8; 4];
    std::ptr::copy_nonoverlapping(data.as_ptr().add(pos), b.as_mut_ptr(), 4);
    u32::from_le_bytes(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The self ring of a fresh heap segment with `cap` data bytes.
    fn self_ring(cap: usize) -> (SpscProducer, SpscConsumer) {
        // SAFETY: sole occupant of both halves of the self ring.
        unsafe { ShmSegment::heap(cap).rings(0, 0) }
    }

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
        let (mut tx, mut rx) = self_ring(256);
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
        let (mut tx, mut rx) = self_ring(256);
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
        let (mut tx, mut rx) = self_ring(256);
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
        let (mut tx, mut rx) = self_ring(64);
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
        let (mut tx, mut rx) = self_ring(128);
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
        let (mut tx, mut rx) = self_ring(64);
        assert!(matches!(tx.try_push(&[7u8; 8]), RingPush::Stored { .. }));
        // Forge an impossible length where the prefix lives.
        // SAFETY: offset 0 lies inside the ring (test-only forgery).
        unsafe { tx.write_u32(0, 61) };
        let pop = rx.pop_each(8, |_| panic!("poisoned ring delivered a record"));
        assert!(pop.poisoned);
        assert_eq!(pop.records, 0);
    }

    #[test]
    fn backlog_counts_published_bytes() {
        let (mut tx, rx) = self_ring(64);
        assert_eq!(rx.backlog(), 0);
        tx.try_push(&[0u8; 6]);
        assert_eq!(rx.backlog(), 10);
        assert!(!rx.is_empty());
    }

    #[test]
    fn two_threads_stress_wraparound() {
        let (mut tx, mut rx) = self_ring(512);
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
