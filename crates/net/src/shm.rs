//! Shared-memory segments for same-host localities.
//!
//! Each `(lo, hi)` pair of co-located ranks shares one segment holding a
//! small header and two SPSC byte rings (`lo→hi` then `hi→lo`); the ring
//! protocol itself lives in `rpx_util::sync` and runs identically over a
//! heap allocation (ranks hosted by one process) or an `mmap`ed file on
//! `/dev/shm` (one process per rank):
//!
//! ```text
//! [SegHdr 128 B][RingHdr 192 B][lo→hi data][RingHdr 192 B][hi→lo data]
//! ```
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
//! same pump-pool poller as the TCP sockets.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_util::sync::{SpscConsumer, SpscProducer, RING_HDR_BYTES};

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

/// Tuning for the shared-memory transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmTuning {
    /// Data bytes per ring direction. Frames whose wire size exceeds
    /// half of this ride the TCP fallback instead (a ring must fit a
    /// record with wrap padding to spare).
    pub ring_bytes: usize,
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

/// Total file size of a segment with `ring_bytes` data bytes per ring.
fn segment_len(ring_bytes: usize) -> usize {
    SEG_HDR_BYTES + 2 * (RING_HDR_BYTES + ring_bytes)
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

/// One mapped (or heap-allocated) pair segment. Create at most one
/// producer and one consumer per ring through [`ShmSegment::rings`] /
/// [`ShmSegment::self_rings`].
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
unsafe impl Sync for ShmSegment {}

impl ShmSegment {
    /// A process-local segment (both ranks hosted by this process): no
    /// file, no attach protocol, nothing to leak.
    pub fn heap(ring_bytes: usize) -> Arc<ShmSegment> {
        let len = segment_len(ring_bytes);
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
        seg.hdr()
            .ring_bytes
            .store(ring_bytes as u64, Ordering::Relaxed);
        seg.hdr().version.store(SHM_SEG_VERSION, Ordering::Relaxed);
        seg.hdr().magic.store(SHM_MAGIC, Ordering::Relaxed);
        seg.hdr().state.store(STATE_READY, Ordering::Release);
        Arc::new(seg)
    }

    /// Open (or create) the cross-process segment file at `path`,
    /// mapping it shared. `side` is 0 for the lower rank of the pair,
    /// 1 for the higher; the side's `attached` flag is set before
    /// returning. Linux only; other targets report `Unsupported` and
    /// the caller falls back to TCP.
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
            let len = segment_len(ring_bytes);
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
                seg.hdr().magic.store(SHM_MAGIC, Ordering::Relaxed);
                seg.hdr().version.store(SHM_SEG_VERSION, Ordering::Relaxed);
                seg.hdr()
                    .ring_bytes
                    .store(ring_bytes as u64, Ordering::Relaxed);
                seg.hdr().state.store(STATE_READY, Ordering::Release);
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

    /// Data bytes per ring direction.
    pub fn ring_bytes(&self) -> usize {
        self.ring_bytes
    }

    /// Account `n` frames entering ring `ring` (0 = `lo→hi`). Producers
    /// bump this *before* publishing the push so the gauge never
    /// undercounts a frame that is already visible to the consumer.
    pub fn add_inflight(&self, ring: usize, n: u64) {
        self.hdr().inflight[ring].fetch_add(n, Ordering::SeqCst);
    }

    /// Account `n` frames leaving ring `ring` (after they are published
    /// to the consumer's inbound queue). Saturates at zero.
    pub fn sub_inflight(&self, ring: usize, n: u64) {
        let _ = self.hdr().inflight[ring].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Frames currently inside ring `ring`.
    pub fn inflight(&self, ring: usize) -> u64 {
        self.hdr().inflight[ring].load(Ordering::SeqCst)
    }

    /// Unlink the backing file once both sides have attached (idempotent
    /// and racy-safe via the header's `unlinked` CAS). Returns `true`
    /// if this call did the unlink. Heap segments always return `false`.
    pub fn maybe_unlink_when_attached(&self) -> bool {
        let Backing::Mapped { path, .. } = &self.backing else {
            return false;
        };
        let hdr = self.hdr();
        if hdr.attached[0].load(Ordering::SeqCst) == 0
            || hdr.attached[1].load(Ordering::SeqCst) == 0
        {
            return false;
        }
        if hdr
            .unlinked
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let _ = std::fs::remove_file(path);
        true
    }

    /// Force-unlink the backing file (teardown path). Idempotent.
    pub fn unlink_now(&self) {
        if let Backing::Mapped { path, .. } = &self.backing {
            if self
                .hdr()
                .unlinked
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// The two rings of the pair as seen from `side` (0 = lo rank):
    /// `(tx, rx)` where `tx` carries our frames to the peer. Call once
    /// per side per segment.
    ///
    /// # Safety
    /// At most one producer and one consumer may ever be created per
    /// ring across *all* processes mapping this segment; the caller is
    /// the sole `side` occupant.
    pub unsafe fn rings(self: &Arc<Self>, side: usize) -> (SpscProducer, SpscConsumer) {
        assert!(side < 2);
        let mem: rpx_util::sync::RingMemory = Arc::new(Arc::clone(self));
        let a = self.base.add(SEG_HDR_BYTES);
        let b = a.add(RING_HDR_BYTES + self.ring_bytes);
        let (tx_base, rx_base) = if side == 0 { (a, b) } else { (b, a) };
        (
            SpscProducer::from_raw(tx_base, self.ring_bytes, Some(Arc::clone(&mem))),
            SpscConsumer::from_raw(rx_base, self.ring_bytes, Some(mem)),
        )
    }

    /// Producer and consumer over the *same* (first) ring, for a rank
    /// sending to itself.
    ///
    /// # Safety
    /// As [`ShmSegment::rings`]: one producer, one consumer, ever.
    pub unsafe fn self_rings(self: &Arc<Self>) -> (SpscProducer, SpscConsumer) {
        let mem: rpx_util::sync::RingMemory = Arc::new(Arc::clone(self));
        let a = self.base.add(SEG_HDR_BYTES);
        (
            SpscProducer::from_raw(a, self.ring_bytes, Some(Arc::clone(&mem))),
            SpscConsumer::from_raw(a, self.ring_bytes, Some(mem)),
        )
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        match &self.backing {
            Backing::Heap { layout } => {
                // SAFETY: allocated with exactly this layout in `heap`.
                unsafe { std::alloc::dealloc(self.base, *layout) };
            }
            #[cfg(target_os = "linux")]
            Backing::Mapped { len, path } => {
                if self
                    .hdr()
                    .unlinked
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    let _ = std::fs::remove_file(path);
                }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_segment_rings_roundtrip() {
        let seg = ShmSegment::heap(4096);
        // SAFETY: sole occupants of both sides of a fresh segment.
        let (mut lo_tx, mut lo_rx) = unsafe { seg.rings(0) };
        let (mut hi_tx, mut hi_rx) = unsafe { seg.rings(1) };
        assert!(matches!(
            lo_tx.try_push(b"down"),
            rpx_util::sync::RingPush::Stored { .. }
        ));
        assert!(matches!(
            hi_tx.try_push(b"up"),
            rpx_util::sync::RingPush::Stored { .. }
        ));
        let mut got = Vec::new();
        hi_rx.pop_each(8, |r| got.push(r.to_vec()));
        lo_rx.pop_each(8, |r| got.push(r.to_vec()));
        assert_eq!(got, vec![b"down".to_vec(), b"up".to_vec()]);
        assert!(!seg.maybe_unlink_when_attached(), "heap: nothing to unlink");
    }

    #[test]
    fn self_rings_loop_back() {
        let seg = ShmSegment::heap(1024);
        // SAFETY: sole occupant of the self ring.
        let (mut tx, mut rx) = unsafe { seg.self_rings() };
        tx.try_push(b"me");
        let mut got = Vec::new();
        rx.pop_each(1, |r| got = r.to_vec());
        assert_eq!(got, b"me");
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
        let (mut tx, _rx) = unsafe { creator.rings(0) };
        let (_tx2, mut rx2) = unsafe { joiner.rings(1) };
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
