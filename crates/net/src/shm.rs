//! Shared-memory links between same-host localities.
//!
//! This module owns everything the TCP transport knows about shared
//! memory. `ShmLinks` holds one hosted rank's links — a sender per
//! same-host destination, a receiver per same-host source, the rank's
//! doorbell and the in-flight and parked gauges — and the loopback-TCP
//! backend reaches it through a handful of calls: stage a frame (`Err`
//! hands it back for the socket path), flush ring-full frames, drain the
//! inbound rings, and teardown. `ShmPump` is the pump thread's share:
//! doorbell registration and service, the per-wake drain, hot-mode
//! polling and the segment-file sweep.
//!
//! Each `(lo, hi)` pair of co-located ranks shares one segment holding a
//! small header and two SPSC byte rings (`lo→hi` then `hi→lo`); a rank
//! sending to itself uses the first ring both ways. The ring protocol
//! lives in the private `ring` submodule, whose halves only
//! `ShmSegment::rings` builds, and runs identically over a heap
//! segment (ranks hosted by one process) or an `mmap`ed file on
//! `/dev/shm` (one process per rank):
//!
//! ```text
//! [SegHdr 128 B][RingHdr 192 B][lo→hi data][RingHdr 192 B][hi→lo data]
//! ```
//!
//! Every header starts on a 64-byte boundary, which is why
//! [`ShmTuning::ring_bytes`] must be a positive multiple of 64.
//!
//! ## Creation race
//!
//! Either side may create the backing file first (`create_new` decides
//! the winner); the creator sizes and zero-fills it, stamps the header,
//! and publishes `state = READY` last. The loser opens the existing
//! file, waits for it to reach full size, maps it, and spins for
//! `READY` — so a half-initialised segment is never used. A zeroed ring
//! header *is* a valid empty ring, so no ring-level init is needed.
//!
//! ## Cleanup
//!
//! Segment files must not outlive the cluster, including when a rank is
//! `kill -9`ed. Three lines of defence:
//!
//! 1. **Unlink-when-both-attached**: each side sets its `attached` flag
//!    after mapping; the first pump that observes both flags unlinks the
//!    file (the mapping stays alive until both sides unmap — classic
//!    unlink-while-open). From that point, no crash can leak the entry.
//! 2. **Unlink-on-drop**: a transport tearing down unlinks every
//!    segment it created or attached (`ENOENT` is fine; the `unlinked`
//!    header flag keeps it idempotent).
//! 3. **Launcher sweep**: `repro launch` removes stragglers matching
//!    its `RPX_SHM_PREFIX` after reaping workers — covering the narrow
//!    window where a rank died after creating but before its peer
//!    attached.
//!
//! Doorbells (the "data is waiting" wakeup) are *not* stored in the
//! segment: they are `rpx_util::poll::Doorbell`s — an eventfd for
//! same-process producers plus an abstract-namespace datagram socket
//! any co-located process can ring by name, both multiplexed into the
//! TCP pump thread's poller alongside the sockets.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::Sender;
use parking_lot::Mutex;
use rpx_util::poll::{BellRinger, Doorbell, Interest, Poller};

use crate::bootstrap::TcpBootstrap;
use crate::frame::{check_body_len, decode_frame_in_place};
use crate::message::Message;
use crate::port::PortFront;

mod ring;

use ring::{Ring, RingPush, SpscConsumer, SpscProducer, RING_HDR_BYTES};

/// Magic stamped into every segment header (`"rpxshm\0\1"`).
pub const SHM_MAGIC: u64 = u64::from_le_bytes(*b"rpxshm\x00\x01");
/// Version of the segment layout.
pub const SHM_SEG_VERSION: u32 = 1;

/// Bytes reserved for [`SegHdr`] at the start of a segment.
const SEG_HDR_BYTES: usize = 128;

const STATE_READY: u32 = 2;

/// How long the non-creating side waits for the creator to publish
/// `READY` before giving up (and falling back to TCP).
const ATTACH_TIMEOUT: Duration = Duration::from_secs(5);

/// Records popped per ring per drain pass (bounds handler latency the
/// same way the front end's pump batch bounds queue drains).
const SHM_POP_BATCH: usize = 64;

/// Consecutive empty zero-timeout polls a pump thread tolerates in shm
/// hot mode before parking (clearing the rings' polling flags and
/// falling back to doorbell wakeups). Sized so a steady message stream
/// never re-arms the bell — producers pay a plain flag load instead of
/// a `sendto` per empty→non-empty edge — while a quiet port stops
/// burning its core within a few hundred microseconds.
const SHM_HOT_IDLE_POLLS: u32 = 256;

/// Empty re-check spins after a productive doorbell drain before going
/// back to `epoll_wait`: a pinging producer usually publishes the next
/// frame within this window, saving a full doorbell round-trip.
const SHM_DRAIN_SPINS: u32 = 64;

/// Tuning for the shared-memory transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmTuning {
    /// Data bytes per ring direction: a positive multiple of 64, or the
    /// transport refuses to build (`InvalidInput`). Frames whose wire
    /// size exceeds half of this ride the TCP fallback instead (a ring
    /// must fit a record with wrap padding to spare).
    pub ring_bytes: usize,
}

/// `ring_bytes` if it is a positive multiple of 64, else `InvalidInput`:
/// any other size would put the `hi→lo` ring header's atomic cursors on
/// a misaligned address.
pub(crate) fn check_ring_bytes(ring_bytes: usize) -> io::Result<usize> {
    if ring_bytes > 0 && ring_bytes.is_multiple_of(64) {
        Ok(ring_bytes)
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("shm ring_bytes {ring_bytes} is not a positive multiple of 64"),
        ))
    }
}

impl Default for ShmTuning {
    fn default() -> Self {
        ShmTuning {
            ring_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Cross-process segment header (cache-line padded to [`SEG_HDR_BYTES`]).
#[repr(C)]
struct SegHdr {
    magic: AtomicU64,
    version: AtomicU32,
    /// 0 = fresh zero page, [`STATE_READY`] once initialised.
    state: AtomicU32,
    ring_bytes: AtomicU64,
    /// One flag per side (0 = lo rank, 1 = hi rank), set after mapping.
    attached: [AtomicU32; 2],
    /// Set (CAS) by whoever unlinks the backing file.
    unlinked: AtomicU32,
    /// Frames currently inside each ring (pushed, not yet delivered to
    /// the consumer's inbound queue), indexed by ring (0 = `lo→hi`).
    /// Living in the *shared* header, the gauge is visible to both
    /// processes — the receiving side's quiescence check can see frames
    /// a co-located sender parked in the ring, which a process-local
    /// gauge cannot.
    inflight: [AtomicU64; 2],
}

const _: () = assert!(std::mem::size_of::<SegHdr>() <= SEG_HDR_BYTES);

/// Byte offset of ring `i`'s header (0 = `lo→hi`, 1 = `hi→lo`; 2 is
/// the end of the segment).
fn ring_offset(ring_bytes: usize, i: usize) -> usize {
    SEG_HDR_BYTES + i * (RING_HDR_BYTES + ring_bytes)
}

enum Backing {
    Heap {
        layout: std::alloc::Layout,
    },
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    Mapped {
        len: usize,
        path: PathBuf,
    },
}

/// One mapped (or heap-allocated) pair segment. Its rings are claimed
/// through `ShmSegment::rings`, at most one producer and one consumer
/// per ring.
pub struct ShmSegment {
    base: *mut u8,
    ring_bytes: usize,
    backing: Backing,
}

impl std::fmt::Debug for ShmSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.backing {
            Backing::Heap { .. } => "heap",
            Backing::Mapped { .. } => "mapped",
        };
        f.debug_struct("ShmSegment")
            .field("ring_bytes", &self.ring_bytes)
            .field("backing", &kind)
            .finish()
    }
}

// SAFETY: the raw base pointer targets memory shared through atomics
// (headers) and the SPSC ownership discipline (ring data); the struct
// itself is only handed out behind `Arc`.
unsafe impl Send for ShmSegment {}
// SAFETY: as for `Send` — `&ShmSegment` only reaches the header through
// atomics, and ring data through producers/consumers claimed once each.
unsafe impl Sync for ShmSegment {}

impl ShmSegment {
    /// A process-local segment (both ranks hosted by this process): no
    /// file, no attach protocol, nothing to leak. This is the only heap
    /// allocation of ring memory.
    ///
    /// # Panics
    /// If `ring_bytes` is not a positive multiple of 64.
    pub fn heap(ring_bytes: usize) -> Arc<ShmSegment> {
        let ring_bytes = check_ring_bytes(ring_bytes).expect("segment geometry");
        let len = ring_offset(ring_bytes, 2);
        let layout = std::alloc::Layout::from_size_align(len, 64).expect("segment layout");
        // SAFETY: non-zero layout; zeroing makes the header and both
        // ring headers valid-empty.
        let base = unsafe { std::alloc::alloc_zeroed(layout) };
        assert!(!base.is_null(), "segment allocation failed");
        let seg = ShmSegment {
            base,
            ring_bytes,
            backing: Backing::Heap { layout },
        };
        seg.stamp();
        Arc::new(seg)
    }

    /// Open (or create) the cross-process segment file at `path`,
    /// mapping it shared. `side` is 0 for the lower rank of the pair,
    /// 1 for the higher; the side's `attached` flag is set before
    /// returning. Linux only; other targets report `Unsupported` and
    /// the caller falls back to TCP. A `ring_bytes` that is not a
    /// positive multiple of 64 is `InvalidInput`.
    pub fn open_or_create(
        path: &Path,
        ring_bytes: usize,
        side: usize,
    ) -> io::Result<Arc<ShmSegment>> {
        #[cfg(not(target_os = "linux"))]
        {
            let _ = (path, ring_bytes, side);
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "cross-process shm segments need Linux",
            ))
        }
        #[cfg(target_os = "linux")]
        {
            let len = ring_offset(check_ring_bytes(ring_bytes)?, 2);
            let created: Option<std::fs::File> = match std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(path)
            {
                Ok(file) => {
                    file.set_len(len as u64)?;
                    Some(file)
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => None,
                Err(e) => return Err(e),
            };
            let creator = created.is_some();
            let file = match created {
                Some(f) => f,
                None => {
                    // The creator may still be sizing the file; wait for
                    // it to reach full length before mapping.
                    let deadline = Instant::now() + ATTACH_TIMEOUT;
                    loop {
                        let file = std::fs::OpenOptions::new()
                            .read(true)
                            .write(true)
                            .open(path)?;
                        let have = file.metadata()?.len() as usize;
                        if have == len {
                            break file;
                        }
                        // The creator sizes the file in one `set_len`
                        // call, so a nonzero-but-wrong length is a
                        // geometry mismatch, not a race.
                        if have != 0 {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "segment file has unexpected size",
                            ));
                        }
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "segment file never reached full size",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            let base = linux_mmap(&file, len)?;
            let seg = ShmSegment {
                base,
                ring_bytes,
                backing: Backing::Mapped {
                    len,
                    path: path.to_path_buf(),
                },
            };
            if creator {
                seg.stamp();
            } else {
                let deadline = Instant::now() + ATTACH_TIMEOUT;
                while seg.hdr().state.load(Ordering::Acquire) != STATE_READY {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "segment never became ready",
                        ));
                    }
                    std::hint::spin_loop();
                }
                if seg.hdr().magic.load(Ordering::Relaxed) != SHM_MAGIC
                    || seg.hdr().version.load(Ordering::Relaxed) != SHM_SEG_VERSION
                    || seg.hdr().ring_bytes.load(Ordering::Relaxed) != ring_bytes as u64
                {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "segment header mismatch (stale or foreign file)",
                    ));
                }
            }
            seg.hdr().attached[side].store(1, Ordering::SeqCst);
            Ok(Arc::new(seg))
        }
    }

    fn hdr(&self) -> &SegHdr {
        // SAFETY: the first SEG_HDR_BYTES of the segment hold a zeroed
        // (= valid) SegHdr for the lifetime of `self`.
        unsafe { &*(self.base as *const SegHdr) }
    }

    /// Initialise a fresh segment's header, publishing `READY` last.
    fn stamp(&self) {
        let hdr = self.hdr();
        hdr.magic.store(SHM_MAGIC, Ordering::Relaxed);
        hdr.version.store(SHM_SEG_VERSION, Ordering::Relaxed);
        hdr.ring_bytes
            .store(self.ring_bytes as u64, Ordering::Relaxed);
        hdr.state.store(STATE_READY, Ordering::Release);
    }

    /// Account `n` frames entering ring `ring` (0 = `lo→hi`). Producers
    /// bump this *before* publishing the push so the gauge never
    /// undercounts a frame that is already visible to the consumer.
    fn add_inflight(&self, ring: usize, n: u64) {
        self.hdr().inflight[ring].fetch_add(n, Ordering::SeqCst);
    }

    /// Account `n` frames leaving ring `ring` (after they are published
    /// to the consumer's inbound queue). Saturates at zero.
    fn sub_inflight(&self, ring: usize, n: u64) {
        let _ = self.hdr().inflight[ring].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Frames currently inside ring `ring`.
    fn inflight(&self, ring: usize) -> u64 {
        self.hdr().inflight[ring].load(Ordering::SeqCst)
    }

    /// Unlink the backing file once both sides have attached (idempotent
    /// and racy-safe via the header's `unlinked` CAS). Returns `true`
    /// if this call did the unlink. Heap segments always return `false`.
    pub fn maybe_unlink_when_attached(&self) -> bool {
        let attached = &self.hdr().attached;
        attached.iter().all(|a| a.load(Ordering::SeqCst) != 0) && self.unlink_now()
    }

    /// Force-unlink the backing file (teardown path). Idempotent: returns
    /// `true` only for the call that did the unlink, never for heap
    /// segments.
    pub fn unlink_now(&self) -> bool {
        let Backing::Mapped { path, .. } = &self.backing else {
            return false;
        };
        let unlinked = &self.hdr().unlinked;
        if unlinked
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let _ = std::fs::remove_file(path);
        true
    }

    /// The producer of ring `tx` and the consumer of ring `rx` (0 =
    /// `lo→hi`, 1 = `hi→lo`). A pair side claims `(side, 1 - side)`; a
    /// rank sending to itself claims `(0, 0)`.
    ///
    /// # Safety
    /// At most one producer and one consumer may ever be created per
    /// ring across *all* processes mapping this segment.
    pub(crate) unsafe fn rings(
        self: &Arc<Self>,
        tx: usize,
        rx: usize,
    ) -> (SpscProducer, SpscConsumer) {
        assert!(tx < 2 && rx < 2);
        let (at, cap) = (|i| ring_offset(self.ring_bytes, i), self.ring_bytes);
        // SAFETY: rings 0 and 1 lie inside the segment, whose zeroed
        // ring headers are valid-empty; uniqueness is the caller's.
        let (tx, rx) = unsafe {
            (
                Ring::carve(Arc::clone(self), at(tx), cap),
                Ring::carve(Arc::clone(self), at(rx), cap),
            )
        };
        (SpscProducer::new(tx), SpscConsumer::new(rx))
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        self.unlink_now();
        match &self.backing {
            Backing::Heap { layout } => {
                // SAFETY: allocated with exactly this layout in `heap`.
                unsafe { std::alloc::dealloc(self.base, *layout) };
            }
            #[cfg(target_os = "linux")]
            Backing::Mapped { len, .. } => {
                // SAFETY: `base` is a live mapping of exactly `len`
                // bytes owned by this segment.
                unsafe { linux_munmap(self.base, *len) };
            }
            #[cfg(not(target_os = "linux"))]
            Backing::Mapped { .. } => unreachable!("mapped segments are Linux-only"),
        }
    }
}

#[cfg(target_os = "linux")]
fn linux_mmap(file: &std::fs::File, len: usize) -> io::Result<*mut u8> {
    use std::os::fd::AsRawFd;
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_SHARED: i32 = 0x01;
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    }
    // SAFETY: plain syscall; a fresh shared mapping of an open file.
    let base = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            file.as_raw_fd(),
            0,
        )
    };
    if base as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    Ok(base)
}

/// # Safety
/// `base` must be a live mapping of exactly `len` bytes, not used after.
#[cfg(target_os = "linux")]
unsafe fn linux_munmap(base: *mut u8, len: usize) {
    extern "C" {
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    munmap(base, len);
}

/// The shm namespace of one cluster: every segment file and doorbell
/// name is derived from this prefix, so concurrent clusters on a host
/// never collide and a launcher can sweep its own leftovers.
///
/// The default prefix folds in the data port of rank 0 (unique per live
/// cluster on a host); `RPX_SHM_PREFIX` overrides it (the launcher sets
/// this so it knows what to sweep).
#[derive(Debug, Clone)]
pub struct ShmNamespace {
    prefix: String,
}

impl ShmNamespace {
    /// Derive the namespace from the environment or the cluster's
    /// rank-0 data port.
    pub fn from_env_or(port0: u16) -> ShmNamespace {
        let prefix = std::env::var("RPX_SHM_PREFIX")
            .ok()
            .filter(|p| !p.is_empty() && p.len() <= 64 && !p.contains('/'))
            .unwrap_or_else(|| format!("rpx-{port0}"));
        ShmNamespace { prefix }
    }

    /// A namespace with an explicit prefix (tests, launcher).
    pub fn with_prefix(prefix: &str) -> ShmNamespace {
        ShmNamespace {
            prefix: prefix.to_string(),
        }
    }

    /// The directory segment files live in (`/dev/shm` when present —
    /// i.e. Linux — else the system temp dir).
    pub fn segment_dir() -> PathBuf {
        let shm = PathBuf::from("/dev/shm");
        if shm.is_dir() {
            shm
        } else {
            std::env::temp_dir()
        }
    }

    /// Path of the pair segment for ranks `lo ≤ hi` (ports make the
    /// name unique even if two clusters share a prefix).
    pub fn segment_path(&self, lo: u32, hi: u32, port_lo: u16, port_hi: u16) -> PathBuf {
        Self::segment_dir().join(format!("{}.seg-{lo}.{port_lo}-{hi}.{port_hi}", self.prefix))
    }

    /// Doorbell name for `rank` (whose data port is `port`).
    pub fn bell_name(&self, rank: u32, port: u16) -> String {
        format!("{}.bell-{rank}.{port}", self.prefix)
    }

    /// Remove every segment file under `prefix` (the launcher's sweep
    /// after reaping workers). Returns how many entries were removed.
    pub fn sweep(prefix: &str) -> usize {
        let mut removed = 0;
        let Ok(entries) = std::fs::read_dir(Self::segment_dir()) else {
            return 0;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(prefix)
                && name.contains(".seg-")
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        removed
    }
}

// ---- the links of one hosted rank -----------------------------------

/// How a sender announces "data is waiting" to a co-located consumer.
#[derive(Clone)]
enum ShmBell {
    /// The destination rank lives in this process: write its eventfd.
    Local(Arc<Doorbell>),
    /// The destination rank is another process on this host: ring its
    /// abstract-namespace doorbell by name.
    Remote(Arc<BellRinger>, String),
}

impl ShmBell {
    fn ring(&self) {
        match self {
            ShmBell::Local(bell) => bell.ring_local(),
            ShmBell::Remote(ringer, name) => {
                let _ = ringer.ring(name);
            }
        }
    }
}

/// The sending half of one same-host link: the SPSC producer plus an
/// overflow queue for frames that found the ring full.
struct ShmSender {
    tx: SpscProducer,
    seg: Arc<ShmSegment>,
    /// Ring index this sender publishes into (for the in-flight gauge).
    ring: usize,
    /// Frames waiting for ring space, FIFO (counted in `parked`).
    pending: VecDeque<Vec<u8>>,
    /// The destination's doorbell.
    bell: ShmBell,
}

/// The receiving half of one same-host link.
struct ShmRecvRing {
    rx: SpscConsumer,
    seg: Arc<ShmSegment>,
    /// Ring index this consumer reads (for the in-flight gauge).
    ring: usize,
    /// The *source* rank's doorbell, rung when a pop frees space a
    /// backpressured producer is waiting for.
    src_bell: ShmBell,
    /// Set when the ring reported poisoned content; never read again.
    dead: bool,
}

/// Every shared-memory link of one hosted rank.
pub(crate) struct ShmLinks {
    /// This rank's doorbell: producers ring it when data waits, consumers
    /// when they free space this rank's senders wait for.
    doorbell: Arc<Doorbell>,
    /// Senders towards co-located destinations, keyed by destination
    /// rank. Locked after TCP's connection table, never the other way;
    /// the pump thread answering a doorbell takes it alone.
    tx: Mutex<HashMap<usize, ShmSender>>,
    /// Frames parked in `tx` because their ring was full.
    parked: AtomicUsize,
    /// The consumer halves of every ring pointing at this rank. Any
    /// `pump_recv` caller may drain them (`try_lock` — if contended,
    /// another thread is already draining); the rank's doorbell wakes
    /// the pump thread, which takes the lock *blocking* so a rung bell is
    /// never lost between a racing drainer's last empty pop and its
    /// unlock. This direct path is what makes shm latency beat sockets:
    /// the receiving scheduler thread pops the ring itself instead of
    /// waiting for an eventfd → epoll → pump-thread → queue detour.
    rx: Mutex<Vec<ShmRecvRing>>,
    /// Segment and ring index of every ring pointing at this rank: the
    /// in-flight gauges, read without the `rx` lock (visible across
    /// processes because they live in the mapped header).
    gauges: Vec<(Arc<ShmSegment>, usize)>,
    /// File-backed segments kept until their unlink-when-both-attached
    /// handshake completes, and force-unlinked at teardown.
    mapped: Mutex<Vec<Arc<ShmSegment>>>,
}

impl ShmLinks {
    /// Wire every hosted rank's links: a doorbell per rank, then one
    /// link per same-host destination, the rank itself included. The
    /// segment is a heap segment shared by the pair (`lo`, `hi`) when
    /// both ranks are hosted here, else the mapped `/dev/shm` file the
    /// peer process opens too. Infallible by design — any setup failure
    /// (doorbell name taken, segment attach timeout, non-Linux target for
    /// the file path) just leaves that link on TCP.
    pub(crate) fn wire(boot: &TcpBootstrap, ring_bytes: usize) -> HashMap<u32, ShmLinks> {
        let port_of = |r: u32| boot.addrs[r as usize].port();
        let ns = ShmNamespace::from_env_or(port_of(0));
        let ringer = BellRinger::new().ok().map(Arc::new);
        let hosted = boot.hosted();
        let bind = |r: u32| Doorbell::bind(&ns.bell_name(r, port_of(r))).ok();
        let bells: HashMap<u32, Arc<Doorbell>> = hosted
            .iter()
            .filter_map(|&r| Some((r, Arc::new(bind(r)?))))
            .collect();
        let mut heap: HashMap<(u32, u32), Arc<ShmSegment>> = HashMap::new();
        let mut wired = HashMap::new();
        for &me in &hosted {
            let Some(doorbell) = bells.get(&me) else {
                continue;
            };
            let (mut tx, mut rx, mut gauges, mut mapped) =
                (HashMap::new(), Vec::new(), Vec::new(), Vec::new());
            for dst in 0..boot.addrs.len() as u32 {
                if !boot.same_host(me, dst) {
                    continue;
                }
                let (lo, hi) = (me.min(dst), me.max(dst));
                let side = usize::from(me != lo);
                let (seg, bell) = if hosted.contains(&dst) {
                    let Some(bell) = bells.get(&dst) else {
                        continue;
                    };
                    let seg = heap
                        .entry((lo, hi))
                        .or_insert_with(|| ShmSegment::heap(ring_bytes));
                    (Arc::clone(seg), ShmBell::Local(Arc::clone(bell)))
                } else {
                    let Some(ringer) = &ringer else {
                        continue;
                    };
                    let path = ns.segment_path(lo, hi, port_of(lo), port_of(hi));
                    let Ok(seg) = ShmSegment::open_or_create(&path, ring_bytes, side) else {
                        continue;
                    };
                    mapped.push(Arc::clone(&seg));
                    let name = ns.bell_name(dst, port_of(dst));
                    (seg, ShmBell::Remote(Arc::clone(ringer), name))
                };
                let (tx_ring, rx_ring) = if dst == me { (0, 0) } else { (side, 1 - side) };
                // SAFETY: each `(me, dst)` is visited once, so `me` claims
                // its side of the pair's segment exactly once; the heap
                // segment's other side is `dst`'s turn, a mapped one's
                // belongs to the peer process, and a self-loop owns both
                // halves of ring 0.
                let (producer, consumer) = unsafe { seg.rings(tx_ring, rx_ring) };
                tx.insert(
                    dst as usize,
                    ShmSender {
                        tx: producer,
                        seg: Arc::clone(&seg),
                        ring: tx_ring,
                        pending: VecDeque::new(),
                        bell: bell.clone(),
                    },
                );
                gauges.push((Arc::clone(&seg), rx_ring));
                rx.push(ShmRecvRing {
                    rx: consumer,
                    seg,
                    ring: rx_ring,
                    src_bell: bell,
                    dead: false,
                });
            }
            let links = ShmLinks {
                doorbell: Arc::clone(doorbell),
                tx: Mutex::new(tx),
                parked: AtomicUsize::new(0),
                rx: Mutex::new(rx),
                gauges,
                mapped: Mutex::new(mapped),
            };
            wired.insert(me, links);
        }
        wired
    }

    /// Stage an encoded frame on the ring towards `dst`, parking it when
    /// the ring is full. `Err` hands the frame back for the TCP path: no
    /// link, or the frame exceeds the ring's record limit.
    pub(crate) fn stage(&self, dst: usize, frame: Vec<u8>) -> Result<(), Vec<u8>> {
        let mut senders = self.tx.lock();
        let Some(s) = senders.get_mut(&dst) else {
            return Err(frame);
        };
        if frame.len() > s.tx.max_record() {
            // Oversize frames ride TCP; later ring frames may overtake them
            // (per-path FIFO only — reliability sequencing heals the rest).
            return Err(frame);
        }
        if !s.pending.is_empty() {
            // Keep per-link FIFO: nothing overtakes parked frames.
            self.parked.fetch_add(1, Ordering::AcqRel);
            s.pending.push_back(frame);
            return Ok(());
        }
        s.seg.add_inflight(s.ring, 1);
        match s.tx.try_push(&frame) {
            RingPush::Stored { consumer_idle } => {
                if consumer_idle {
                    s.bell.ring();
                }
            }
            RingPush::Full => {
                s.seg.sub_inflight(s.ring, 1);
                self.parked.fetch_add(1, Ordering::AcqRel);
                s.pending.push_back(frame);
            }
        }
        Ok(())
    }

    /// Retry frames parked because their ring was full. Called from both
    /// the scheduler-driven `pump_send` and the doorbell path (the
    /// consumer rings us back when it frees space).
    pub(crate) fn flush(&self) -> bool {
        let mut senders = self.tx.lock();
        let mut flushed = false;
        for s in senders.values_mut() {
            while let Some(front) = s.pending.front() {
                // Gauge up *before* the push publishes (conservative), back
                // down if the ring is still full.
                s.seg.add_inflight(s.ring, 1);
                match s.tx.try_push(front) {
                    RingPush::Stored { consumer_idle } => {
                        flushed = true;
                        self.parked.fetch_sub(1, Ordering::AcqRel);
                        s.pending.pop_front();
                        if consumer_idle {
                            s.bell.ring();
                        }
                    }
                    RingPush::Full => {
                        s.seg.sub_inflight(s.ring, 1);
                        break;
                    }
                }
            }
        }
        flushed
    }

    /// Drain every inbound ring into `inbound`, counting on `front`.
    /// With `spin`, empty rings are re-checked for a short bounded window
    /// (ping-pong traffic usually publishes the reply within it) before
    /// returning. With `block` the ring lock is taken blocking
    /// (pump-thread paths, where a missed drain could strand a rung
    /// bell); without it a contended lock means another thread is
    /// draining and we return immediately. Returns the records popped.
    pub(crate) fn drain(
        &self,
        front: &PortFront,
        inbound: &Sender<Message>,
        spin: bool,
        block: bool,
    ) -> u64 {
        let mut rings = if block {
            self.rx.lock()
        } else {
            match self.rx.try_lock() {
                Some(guard) => guard,
                None => return 0,
            }
        };
        if rings.is_empty() {
            return 0;
        }
        let mut total = 0u64;
        let mut idle_spins = 0u32;
        loop {
            let mut pass = 0u64;
            for r in rings.iter_mut() {
                if r.dead {
                    continue;
                }
                let mut delivered = false;
                let mut decoded = 0u64;
                let mut bytes = 0u64;
                let mut failures = 0u64;
                let pop = r.rx.pop_each(SHM_POP_BATCH, |rec| {
                    decoded += 1;
                    match decode_ring_record(rec) {
                        Some(message) => {
                            bytes += rec.len() as u64;
                            // Publish before the gauge drop below, so a
                            // quiescence check never misses the frame.
                            let _ = inbound.send(message);
                            delivered = true;
                        }
                        None => failures += 1,
                    }
                });
                if decoded > 0 {
                    r.seg.sub_inflight(r.ring, decoded);
                    front
                        .stats
                        .shm_messages
                        .fetch_add(decoded - failures, Ordering::Relaxed);
                    front.stats.shm_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                if failures > 0 {
                    front
                        .stats
                        .decode_failures
                        .fetch_add(failures, Ordering::Relaxed);
                }
                if delivered {
                    front.notify();
                }
                if pop.producer_waiting {
                    r.src_bell.ring();
                }
                if pop.poisoned {
                    // Impossible length prefix: the ring is beyond
                    // recovery. Stop reading it (its producer lives with
                    // the peer and keeps its link) and settle its gauge so
                    // quiescence does not hang.
                    r.dead = true;
                    front.stats.decode_failures.fetch_add(1, Ordering::Relaxed);
                    let stuck = r.seg.inflight(r.ring);
                    r.seg.sub_inflight(r.ring, stuck);
                }
                pass += decoded;
            }
            total += pass;
            if pass > 0 {
                idle_spins = 0;
                continue;
            }
            if !spin || idle_spins >= SHM_DRAIN_SPINS {
                break;
            }
            idle_spins += 1;
            std::hint::spin_loop();
        }
        total
    }

    /// Frames parked waiting for ring space (part of the sender's
    /// staged backlog).
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::Acquire)
    }

    /// Frames inside the rings pointing at this rank. The gauges live in
    /// the *shared* segment header, so this sees frames parked by a
    /// sender in another process.
    pub(crate) fn inflight(&self) -> usize {
        self.gauges
            .iter()
            .map(|(seg, ring)| seg.inflight(*ring))
            .sum::<u64>() as usize
    }

    /// Teardown: unlink any segment file whose attach handshake never
    /// finished (peer died or never started); mappings stay valid until
    /// every ring half drops.
    pub(crate) fn unlink_files(&self) {
        for seg in self.mapped.lock().drain(..) {
            seg.unlink_now();
        }
    }

    /// Set or clear the actively-polling flag on every live inbound ring
    /// (pump-thread hot-mode transitions only). Clearing returns `true`
    /// if any ring is non-empty afterwards — those records' bells were
    /// suppressed, so the caller must drain once more before sleeping.
    fn set_polling(&self, active: bool) -> bool {
        let mut rings = self.rx.lock();
        let mut nonempty = false;
        for r in rings.iter_mut().filter(|r| !r.dead) {
            r.rx.set_polling(active);
            nonempty |= !active && !r.rx.is_empty();
        }
        nonempty
    }
}

/// Decode one ring record (a full wire frame, length prefix included)
/// through the regular codec. `None` = corrupt (counted by the caller).
fn decode_ring_record(rec: &[u8]) -> Option<Message> {
    if rec.len() < 4 {
        return None;
    }
    let body_len =
        check_body_len(u32::from_le_bytes(rec[..4].try_into().expect("4 bytes"))).ok()?;
    if body_len != rec.len() - 4 {
        return None;
    }
    // Decode in place over the mapped ring bytes; only the payload is
    // copied out (the record's ring space is recycled on return).
    let view = decode_frame_in_place(&rec[4..]).ok()?;
    Some(view.with_payload(Bytes::copy_from_slice(view.payload)))
}

// ---- the pump thread's share ------------------------------------------

/// One hosted rank as the pump thread services it: its links, and the
/// front end and inbound queue they deliver into.
pub(crate) type ShmRank<'a> = (&'a ShmLinks, &'a PortFront, &'a Sender<Message>);

/// The pump thread's shared-memory duties for every hosted rank:
/// doorbells, the per-wake drain, hot mode and the segment-file sweep.
///
/// Hot mode: after doorbell traffic, the pump thread spins on
/// zero-timeout polls with the rings' polling flags set, so steady
/// streams cross the segment with no syscalls at all (no producer
/// `sendto`, no epoll round trip). Parking clears the flags and
/// re-checks, closing the suppressed-bell race before the thread sleeps
/// again.
pub(crate) struct ShmPump<'a> {
    ranks: Vec<ShmRank<'a>>,
    /// Ranks whose segment files still await the unlink handshake; a
    /// rank leaves once its list is empty, so the sweep costs nothing
    /// once every peer has attached (and nothing at all in-process).
    unswept: Vec<&'a ShmLinks>,
    hot: bool,
    idle_polls: u32,
}

impl<'a> ShmPump<'a> {
    /// Register both legs of every rank's doorbell (eventfd + named
    /// datagram socket) under that rank's `token`. Registration failures
    /// degrade to the opportunistic per-wake drain.
    pub(crate) fn new(ranks: Vec<ShmRank<'a>>, poller: &Poller, token: fn(u32) -> u64) -> Self {
        for (links, front, _) in &ranks {
            let token = token(front.locality);
            let _ = poller.register(links.doorbell.event_fd(), token, Interest::READ);
            let _ = poller.register(links.doorbell.socket_fd(), token, Interest::READ);
        }
        let unswept = ranks.iter().map(|r| r.0);
        let unswept = unswept.filter(|l| !l.mapped.lock().is_empty()).collect();
        ShmPump {
            ranks,
            unswept,
            hot: false,
            idle_polls: 0,
        }
    }

    /// The poll timeout: zero in hot mode, `cold` otherwise.
    pub(crate) fn timeout(&self, cold: Duration) -> Duration {
        if self.hot {
            Duration::ZERO
        } else {
            cold
        }
    }

    /// `rank`'s doorbell rang: either inbound ring data or freed space a
    /// backpressured sender waits for. The drain takes the ring lock
    /// blocking — if a `pump_recv` caller holds it right now, we wait it
    /// out so the bell can never race a drainer's final empty pop.
    /// Returns the activity seen (the bell counts as one).
    pub(crate) fn answer_bell(&self, rank: u32) -> u64 {
        let Some((links, front, inbound)) = self.ranks.iter().find(|r| r.1.locality == rank) else {
            return 0;
        };
        front.stats.doorbell_wakeups.fetch_add(1, Ordering::Relaxed);
        links.doorbell.drain();
        let activity = 1 + links.drain(front, inbound, true, true);
        links.flush();
        activity
    }

    /// End of one pump-thread wake that saw `activity` from doorbells:
    /// drain and flush every rank opportunistically (one atomic load per
    /// ring when idle, and the only delivery path on the portable poller,
    /// whose pseudo-fd doorbells report ready on its tick), enter or
    /// leave hot mode, and finish any unlink-when-both-attached handshake
    /// whose peer has arrived.
    pub(crate) fn after_wake(&mut self, mut activity: u64) {
        for (links, front, inbound) in &self.ranks {
            activity += links.drain(front, inbound, false, false);
            links.flush();
        }
        if activity > 0 {
            self.idle_polls = 0;
            if !self.hot {
                self.hot = true;
                for (links, ..) in &self.ranks {
                    links.set_polling(true);
                }
            }
        } else if self.hot {
            self.idle_polls += 1;
            if self.idle_polls > SHM_HOT_IDLE_POLLS {
                self.hot = false;
                self.idle_polls = 0;
                for (links, front, inbound) in &self.ranks {
                    if links.set_polling(false) {
                        // Records landed during the transition with their
                        // bells suppressed: drain them before the thread
                        // goes back to sleeping waits.
                        links.drain(front, inbound, false, true);
                    }
                }
            } else {
                std::thread::yield_now();
            }
        }
        self.unswept.retain(|links| {
            let mut segs = links.mapped.lock();
            segs.retain(|s| !s.maybe_unlink_when_attached());
            !segs.is_empty()
        });
    }

    /// Final drain at shutdown: frames already in rings still reach the
    /// inbound queues (and settle the gauges).
    pub(crate) fn drain_all(&self) {
        for (links, front, inbound) in &self.ranks {
            links.drain(front, inbound, false, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_segment_rings_roundtrip() {
        let seg = ShmSegment::heap(4096);
        // SAFETY: sole occupants of both sides of a fresh segment.
        let (mut lo_tx, mut lo_rx) = unsafe { seg.rings(0, 1) };
        // SAFETY: as above — the hi side is claimed once.
        let (mut hi_tx, mut hi_rx) = unsafe { seg.rings(1, 0) };
        assert!(matches!(lo_tx.try_push(b"down"), RingPush::Stored { .. }));
        assert!(matches!(hi_tx.try_push(b"up"), RingPush::Stored { .. }));
        let mut got = Vec::new();
        hi_rx.pop_each(8, |r| got.push(r.to_vec()));
        lo_rx.pop_each(8, |r| got.push(r.to_vec()));
        assert_eq!(got, vec![b"down".to_vec(), b"up".to_vec()]);
        assert!(!seg.maybe_unlink_when_attached(), "heap: nothing to unlink");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mapped_segment_create_open_and_unlink_protocol() {
        let ns = ShmNamespace::with_prefix("rpx-shmtest-a");
        let path = ns.segment_path(0, 1, 4000, 4001);
        let _ = std::fs::remove_file(&path);
        let creator = ShmSegment::open_or_create(&path, 8192, 0).unwrap();
        assert!(path.exists(), "creator made the file");
        // Not unlinked yet: the peer has not attached.
        assert!(!creator.maybe_unlink_when_attached());
        let joiner = ShmSegment::open_or_create(&path, 8192, 1).unwrap();
        // Both attached now — either side's pump may unlink; exactly one
        // call wins.
        let a = creator.maybe_unlink_when_attached();
        let b = joiner.maybe_unlink_when_attached();
        assert!(a ^ b, "exactly one unlink");
        assert!(!path.exists(), "file gone while mappings live");
        // The shared memory still works across the two mappings.
        // SAFETY: each side claims its own half exactly once.
        let (mut tx, _rx) = unsafe { creator.rings(0, 1) };
        // SAFETY: as above, from the other mapping.
        let (_tx2, mut rx2) = unsafe { joiner.rings(1, 0) };
        tx.try_push(b"post-unlink");
        let mut got = Vec::new();
        rx2.pop_each(1, |r| got = r.to_vec());
        assert_eq!(got, b"post-unlink");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mapped_segment_size_mismatch_is_detected() {
        let ns = ShmNamespace::with_prefix("rpx-shmtest-b");
        let path = ns.segment_path(0, 1, 4100, 4101);
        let _ = std::fs::remove_file(&path);
        let _creator = ShmSegment::open_or_create(&path, 8192, 0).unwrap();
        // A joiner expecting a different geometry must not attach.
        let err = ShmSegment::open_or_create(&path, 16384, 1).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::InvalidData
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn sweep_removes_only_our_prefix() {
        let ns = ShmNamespace::with_prefix("rpx-shmtest-sweep");
        let other = ShmNamespace::with_prefix("rpx-shmtest-keep");
        let p1 = ns.segment_path(0, 1, 4200, 4201);
        let p2 = other.segment_path(0, 1, 4300, 4301);
        std::fs::write(&p1, b"x").unwrap();
        std::fs::write(&p2, b"x").unwrap();
        let removed = ShmNamespace::sweep("rpx-shmtest-sweep");
        assert_eq!(removed, 1);
        assert!(!p1.exists());
        assert!(p2.exists());
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn namespace_names_are_stable_and_distinct() {
        let ns = ShmNamespace::with_prefix("pfx");
        assert_ne!(ns.segment_path(0, 1, 10, 11), ns.segment_path(0, 2, 10, 12));
        assert_ne!(ns.bell_name(0, 10), ns.bell_name(1, 11));
    }
}
