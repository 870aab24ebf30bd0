//! Readiness polling for the event-driven TCP transport.
//!
//! The transport's pump thread multiplexes every socket through one
//! [`Poller`] instead of parking one OS thread per connection. On Linux the poller is a hand-rolled shim over the
//! kernel's `epoll` interface (declared directly against the C library
//! the binary already links — no external crate); everywhere else a
//! portable sleep-poll fallback reports every registered descriptor as
//! ready on a short cadence, which is a correct (if slower) instance of
//! the same level-triggered contract: spurious readiness is allowed,
//! handlers simply observe `WouldBlock` and move on.
//!
//! The API is deliberately tiny and `mio`-shaped:
//!
//! * [`Poller::register`] / [`Poller::reregister`] / [`Poller::deregister`]
//!   manage (fd, [`Token`], [`Interest`]) triples; all three are safe to
//!   call from any thread while another thread blocks in
//!   [`Poller::wait`].
//! * [`Poller::wait`] blocks until readiness, a [`Poller::wake`] call, or
//!   the timeout, and appends [`Event`]s.
//! * [`Poller::wake`] unblocks a concurrent `wait` (an `eventfd` on
//!   Linux); wakes are never lost — a wake delivered before the next
//!   `wait` makes that wait return immediately.
//!
//! [`read_vectored_spare`] rides along: a vectored read into a raw
//! (possibly uninitialized) primary buffer plus an initialized overflow
//! slice, which is what lets the transport `readv` straight into the
//! spare capacity of a recycled receive buffer without zero-filling it
//! first.

use std::io;
use std::time::Duration;

/// Raw file descriptor, as the C library sees it.
pub type Fd = i32;

/// Caller-chosen identity of a registration, reported back in events.
pub type Token = u64;

/// Token value reserved for the poller's internal wake channel; never
/// use it for a registration of your own.
pub const WAKE_TOKEN: Token = u64::MAX;

/// Readiness interest for one registered descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the descriptor is readable (or closed/errored).
    pub readable: bool,
    /// Report when the descriptor is writable (or errored).
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

/// One readiness report. Error/hang-up conditions are folded into both
/// flags so a handler always gets a chance to observe the failure from
/// the I/O call itself.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: Token,
    /// The descriptor is readable (data, EOF, or error pending).
    pub readable: bool,
    /// The descriptor is writable (or in an error state).
    pub writable: bool,
}

/// A level-triggered readiness poller; see the [module docs](self).
pub struct Poller {
    imp: imp::Poller,
}

impl Poller {
    /// Create a poller with its wake channel already installed.
    ///
    /// # Errors
    /// Fails if the kernel polling object cannot be created.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            imp: imp::Poller::new()?,
        })
    }

    /// Start watching `fd` under `token`. Level-triggered: the event
    /// repeats on every [`Poller::wait`] while the condition holds.
    ///
    /// # Errors
    /// Propagates the kernel error (e.g. the fd is already registered).
    pub fn register(&self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
        self.imp.register(fd, token, interest)
    }

    /// Change the interest/token of an already registered `fd`.
    ///
    /// # Errors
    /// Propagates the kernel error (e.g. the fd was never registered).
    pub fn reregister(&self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
        self.imp.reregister(fd, token, interest)
    }

    /// Stop watching `fd`. Harmless to call for an fd that is not (or no
    /// longer) registered.
    pub fn deregister(&self, fd: Fd) {
        self.imp.deregister(fd);
    }

    /// Block until readiness, a [`Poller::wake`], or `timeout` (`None`
    /// blocks indefinitely), then append events to `events` (which is
    /// cleared first). Returns with an empty `events` on wake/timeout.
    ///
    /// Intended to be called from one thread at a time; the mutating
    /// registration calls may race with it freely.
    ///
    /// # Errors
    /// Propagates unexpected kernel errors (`EINTR` is retried).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.imp.wait(events, timeout)
    }

    /// Unblock a concurrent (or the next) [`Poller::wait`].
    pub fn wake(&self) {
        self.imp.wake();
    }
}

/// Vectored read into a raw primary buffer plus an initialized overflow
/// slice. Returns the total bytes read; bytes beyond `main.1` landed at
/// the front of `overflow`.
///
/// The primary buffer may be uninitialized memory (e.g. the spare
/// capacity of a growable buffer): the kernel writes it, it is never
/// read. On non-Linux targets the overflow slice is unused (plain
/// `read`).
///
/// # Safety
/// `main.0` must be valid for writes of `main.1` bytes for the duration
/// of the call.
///
/// # Errors
/// Propagates the I/O error (including `WouldBlock`).
pub unsafe fn read_vectored_spare(
    fd: Fd,
    main: (*mut u8, usize),
    overflow: &mut [u8],
) -> io::Result<usize> {
    imp::read_vectored_spare(fd, main, overflow)
}

/// A wakeable "doorbell" for shared-memory transports: two readable
/// descriptors that multiplex into the same [`Poller`] as TCP sockets.
///
/// * an **eventfd** (Linux) rung by [`Doorbell::ring_local`] — the
///   cheap path for a producer *in the same process*;
/// * an **abstract-namespace unix datagram socket** bound to the
///   doorbell's name, rung by any process on the host via
///   [`BellRinger::ring`] — no fd passing, no filesystem entry, and the
///   kernel reclaims it automatically when the owner dies.
///
/// Register both [`Doorbell::event_fd`] and [`Doorbell::socket_fd`]
/// readable under the same token; on wake, call [`Doorbell::drain`]
/// (the fds are level-triggered until drained). On non-Linux targets
/// both descriptors are pseudo-fds: the portable poller reports every
/// registration ready on its 1 ms cadence, so ring delivery degrades to
/// the tick without losing correctness.
pub struct Doorbell {
    imp: imp::Doorbell,
}

impl Doorbell {
    /// Bind a doorbell under `name` (an abstract-namespace socket name;
    /// keep it under ~100 bytes).
    ///
    /// # Errors
    /// Fails if the socket cannot be bound (e.g. the name is taken).
    pub fn bind(name: &str) -> io::Result<Doorbell> {
        Ok(Doorbell {
            imp: imp::Doorbell::bind(name)?,
        })
    }

    /// The eventfd leg (register readable).
    pub fn event_fd(&self) -> Fd {
        self.imp.event_fd()
    }

    /// The datagram-socket leg (register readable).
    pub fn socket_fd(&self) -> Fd {
        self.imp.socket_fd()
    }

    /// Ring from within the owning process (writes the eventfd).
    pub fn ring_local(&self) {
        self.imp.ring_local();
    }

    /// Consume all pending rings on both legs, returning how many were
    /// pending (0 on a spurious wake).
    pub fn drain(&self) -> u64 {
        self.imp.drain()
    }
}

/// The sending side of cross-process doorbells: one unbound datagram
/// socket that can ring any [`Doorbell`] on the host by name.
pub struct BellRinger {
    imp: imp::BellRinger,
}

impl BellRinger {
    /// Create a ringer (one per process is plenty; sends are atomic).
    ///
    /// # Errors
    /// Fails if the datagram socket cannot be created.
    pub fn new() -> io::Result<BellRinger> {
        Ok(BellRinger {
            imp: imp::BellRinger::new()?,
        })
    }

    /// Ring the doorbell bound under `name`. Best-effort: returns
    /// `false` when nothing is bound there or the receiver's queue is
    /// full (a full queue means wakes are already pending, so the
    /// receiver will drain regardless — a ring is never *lost*, only
    /// coalesced).
    pub fn ring(&self, name: &str) -> bool {
        self.imp.ring(name)
    }
}

#[cfg(target_os = "linux")]
mod imp {
    //! The Linux implementation: `epoll` + `eventfd`, declared straight
    //! against the C library.

    use super::{Event, Fd, Interest, Token, WAKE_TOKEN};
    use std::io;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0x8_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: i32 = 0x8_0000;
    const EFD_NONBLOCK: i32 = 0x800;

    /// `struct epoll_event`; packed on x86-64, where the kernel ABI
    /// lays the 64-bit data field at offset 4.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn readv(fd: i32, iov: *const IoVec, iovcnt: i32) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(super) struct Poller {
        epfd: Fd,
        wake_fd: Fd,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall creating a fresh descriptor.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: as above.
            let wake_fd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    // SAFETY: epfd was just created and is ours to close.
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wake_fd };
            poller.ctl(EPOLL_CTL_ADD, wake_fd, WAKE_TOKEN, EPOLLIN)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: Fd, token: Token, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        fn mask(interest: Interest) -> u32 {
            let mut m = EPOLLRDHUP;
            if interest.readable {
                m |= EPOLLIN;
            }
            if interest.writable {
                m |= EPOLLOUT;
            }
            m
        }

        pub(super) fn register(&self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, Self::mask(interest))
        }

        pub(super) fn reregister(
            &self,
            fd: Fd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, Self::mask(interest))
        }

        pub(super) fn deregister(&self, fd: Fd) {
            // ENOENT (never/no longer registered) is fine by contract;
            // closed fds were removed by the kernel already.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
        }

        pub(super) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            const CAP: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            let ms = match timeout {
                Some(t) => t.as_millis().min(i32::MAX as u128) as i32,
                None => -1,
            };
            loop {
                // SAFETY: `buf` is a valid array of CAP events.
                let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                for ev in buf.iter().take(n as usize) {
                    // Copy out of the (possibly packed) struct first.
                    let (events, data) = (ev.events, ev.data);
                    if data == WAKE_TOKEN {
                        self.drain_wake();
                        continue;
                    }
                    out.push(Event {
                        token: data,
                        readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0,
                        writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                return Ok(());
            }
        }

        fn drain_wake(&self) {
            let mut buf = [0u8; 8];
            // SAFETY: valid 8-byte buffer; eventfd reads exactly 8 bytes
            // and resets the counter (non-blocking: EAGAIN when clear).
            let _ = unsafe { read(self.wake_fd, buf.as_mut_ptr(), buf.len()) };
        }

        pub(super) fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: valid 8-byte buffer, the eventfd write contract.
            let _ = unsafe { write(self.wake_fd, one.as_ptr(), one.len()) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: both fds belong to this poller exclusively.
            unsafe {
                close(self.wake_fd);
                close(self.epfd);
            }
        }
    }

    pub(super) unsafe fn read_vectored_spare(
        fd: Fd,
        main: (*mut u8, usize),
        overflow: &mut [u8],
    ) -> io::Result<usize> {
        let iov = [
            IoVec {
                base: main.0,
                len: main.1,
            },
            IoVec {
                base: overflow.as_mut_ptr(),
                len: overflow.len(),
            },
        ];
        let cnt = if overflow.is_empty() { 1 } else { 2 };
        loop {
            // SAFETY: caller guarantees `main`; `overflow` is a live
            // slice; the kernel only writes within the given lengths.
            let n = readv(fd, iov.as_ptr(), cnt);
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            return Ok(n as usize);
        }
    }

    // ---- doorbell: eventfd + abstract unix datagram socket ----------

    const AF_UNIX: u16 = 1;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_NONBLOCK: i32 = 0x800;
    const SOCK_CLOEXEC: i32 = 0x8_0000;

    /// `struct sockaddr_un`.
    #[repr(C)]
    struct SockaddrUn {
        family: u16,
        path: [u8; 108],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrUn, len: u32) -> i32;
        fn sendto(
            fd: i32,
            buf: *const u8,
            len: usize,
            flags: i32,
            addr: *const SockaddrUn,
            addrlen: u32,
        ) -> isize;
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }

    /// An abstract-namespace address (`sun_path[0] == 0`); returns the
    /// sockaddr and its length, or `None` when the name is too long.
    fn abstract_addr(name: &str) -> Option<(SockaddrUn, u32)> {
        let bytes = name.as_bytes();
        if bytes.is_empty() || bytes.len() > 106 {
            return None;
        }
        let mut addr = SockaddrUn {
            family: AF_UNIX,
            path: [0; 108],
        };
        addr.path[1..1 + bytes.len()].copy_from_slice(bytes);
        Some((addr, (2 + 1 + bytes.len()) as u32))
    }

    pub(super) struct Doorbell {
        efd: Fd,
        sfd: Fd,
    }

    impl Doorbell {
        pub(super) fn bind(name: &str) -> io::Result<Doorbell> {
            let (addr, addrlen) = abstract_addr(name)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "doorbell name"))?;
            // SAFETY: plain syscalls; `addr` outlives the bind call.
            let sfd = cvt(unsafe {
                socket(AF_UNIX as i32, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)
            })?;
            // SAFETY: as above.
            if let Err(e) = cvt(unsafe { bind(sfd, &addr, addrlen) }) {
                // SAFETY: sfd is ours to close.
                unsafe { close(sfd) };
                return Err(e);
            }
            // SAFETY: plain syscall creating a fresh descriptor.
            let efd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    // SAFETY: sfd is ours to close.
                    unsafe { close(sfd) };
                    return Err(e);
                }
            };
            Ok(Doorbell { efd, sfd })
        }

        pub(super) fn event_fd(&self) -> Fd {
            self.efd
        }

        pub(super) fn socket_fd(&self) -> Fd {
            self.sfd
        }

        pub(super) fn ring_local(&self) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: valid 8-byte buffer, the eventfd write contract.
            let _ = unsafe { write(self.efd, one.as_ptr(), one.len()) };
        }

        pub(super) fn drain(&self) -> u64 {
            let mut rings = 0u64;
            let mut buf = [0u8; 8];
            // SAFETY: valid 8-byte buffer; a non-blocking eventfd read
            // returns the accumulated count and resets it.
            let n = unsafe { read(self.efd, buf.as_mut_ptr(), buf.len()) };
            if n == 8 {
                rings += u64::from_ne_bytes(buf);
            }
            loop {
                let mut b = [0u8; 8];
                // SAFETY: valid buffer; non-blocking datagram recv.
                let n = unsafe { recv(self.sfd, b.as_mut_ptr(), b.len(), 0) };
                if n < 0 {
                    break; // EAGAIN: drained
                }
                rings += 1;
            }
            rings
        }
    }

    impl Drop for Doorbell {
        fn drop(&mut self) {
            // SAFETY: both fds belong to this doorbell exclusively.
            unsafe {
                close(self.efd);
                close(self.sfd);
            }
        }
    }

    pub(super) struct BellRinger {
        fd: Fd,
    }

    impl BellRinger {
        pub(super) fn new() -> io::Result<BellRinger> {
            // SAFETY: plain syscall creating a fresh descriptor.
            let fd = cvt(unsafe {
                socket(AF_UNIX as i32, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)
            })?;
            Ok(BellRinger { fd })
        }

        pub(super) fn ring(&self, name: &str) -> bool {
            let Some((addr, addrlen)) = abstract_addr(name) else {
                return false;
            };
            let byte = [1u8];
            // SAFETY: valid 1-byte buffer and sockaddr for the call.
            let n = unsafe { sendto(self.fd, byte.as_ptr(), 1, 0, &addr, addrlen) };
            n == 1
        }
    }

    impl Drop for BellRinger {
        fn drop(&mut self) {
            // SAFETY: the fd belongs to this ringer exclusively.
            unsafe {
                close(self.fd);
            }
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Portable fallback: report every registration as ready on a short
    //! cadence. Correct under the level-triggered contract (handlers
    //! see `WouldBlock` on spurious readiness); slower than a real
    //! kernel poller, which only Linux gets.

    use super::{Event, Fd, Interest, Token};
    use parking_lot::{Condvar, Mutex};
    use std::collections::HashMap;
    use std::io;
    use std::time::Duration;

    /// Spurious-readiness cadence while no wake arrives.
    const TICK: Duration = Duration::from_millis(1);

    pub(super) struct Poller {
        registry: Mutex<HashMap<Fd, (Token, Interest)>>,
        wake: Mutex<bool>,
        cond: Condvar,
    }

    impl Poller {
        pub(super) fn new() -> io::Result<Poller> {
            Ok(Poller {
                registry: Mutex::new(HashMap::new()),
                wake: Mutex::new(false),
                cond: Condvar::new(),
            })
        }

        pub(super) fn register(&self, fd: Fd, token: Token, interest: Interest) -> io::Result<()> {
            self.registry.lock().insert(fd, (token, interest));
            Ok(())
        }

        pub(super) fn reregister(
            &self,
            fd: Fd,
            token: Token,
            interest: Interest,
        ) -> io::Result<()> {
            self.registry.lock().insert(fd, (token, interest));
            Ok(())
        }

        pub(super) fn deregister(&self, fd: Fd) {
            self.registry.lock().remove(&fd);
        }

        pub(super) fn wait(
            &self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            {
                let mut woken = self.wake.lock();
                if !*woken {
                    let nap = timeout.map_or(TICK, |t| t.min(TICK));
                    self.cond.wait_for(&mut woken, nap);
                }
                *woken = false;
            }
            for (&fd, &(token, interest)) in self.registry.lock().iter() {
                let _ = fd;
                out.push(Event {
                    token,
                    readable: interest.readable,
                    writable: interest.writable,
                });
            }
            Ok(())
        }

        pub(super) fn wake(&self) {
            *self.wake.lock() = true;
            self.cond.notify_all();
        }
    }

    pub(super) unsafe fn read_vectored_spare(
        fd: Fd,
        main: (*mut u8, usize),
        overflow: &mut [u8],
    ) -> io::Result<usize> {
        let _ = overflow;
        extern "C" {
            fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        }
        loop {
            // SAFETY: caller guarantees `main` is writable for `main.1`.
            let n = read(fd, main.0, main.1);
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            return Ok(n as usize);
        }
    }

    // ---- doorbell fallback ------------------------------------------
    //
    // Pseudo-fds high above any real descriptor range keep the portable
    // poller's registry happy; ring delivery degrades to the poller's
    // 1 ms spurious-readiness tick, which the level-triggered contract
    // already allows. Cross-process ringing is a Linux-only feature.

    use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};

    fn pseudo_fd() -> Fd {
        static NEXT: AtomicI32 = AtomicI32::new(1 << 24);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    pub(super) struct Doorbell {
        efd: Fd,
        sfd: Fd,
        rings: AtomicU64,
    }

    impl Doorbell {
        pub(super) fn bind(_name: &str) -> io::Result<Doorbell> {
            Ok(Doorbell {
                efd: pseudo_fd(),
                sfd: pseudo_fd(),
                rings: AtomicU64::new(0),
            })
        }

        pub(super) fn event_fd(&self) -> Fd {
            self.efd
        }

        pub(super) fn socket_fd(&self) -> Fd {
            self.sfd
        }

        pub(super) fn ring_local(&self) {
            self.rings.fetch_add(1, Ordering::Relaxed);
        }

        pub(super) fn drain(&self) -> u64 {
            self.rings.swap(0, Ordering::Relaxed)
        }
    }

    pub(super) struct BellRinger;

    impl BellRinger {
        pub(super) fn new() -> io::Result<BellRinger> {
            Ok(BellRinger)
        }

        pub(super) fn ring(&self, _name: &str) -> bool {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_after_write() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing to read yet: a short wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        #[cfg(target_os = "linux")]
        assert!(events.is_empty(), "no data, no event");
        a.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readable event never fired");
        }
    }

    #[test]
    fn writable_event_fires_for_fresh_stream() {
        let (a, _b) = pair();
        a.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 3, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 3 && e.writable) {
                break;
            }
            assert!(Instant::now() < deadline, "writable event never fired");
        }
    }

    #[test]
    fn wake_unblocks_a_long_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let p = Arc::clone(&poller);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            p.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "wake did not unblock wait"
        );
        assert!(events.is_empty(), "wake is not an event");
        waker.join().unwrap();
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        let poller = Poller::new().unwrap();
        poller.wake();
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10), "wake was lost");
    }

    #[test]
    fn deregister_stops_events() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
        a.write_all(b"x").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if !events.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline);
        }
        poller.deregister(b.as_raw_fd());
        poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        #[cfg(target_os = "linux")]
        assert!(events.is_empty(), "deregistered fd still reported");
        // Double-deregister is harmless.
        poller.deregister(b.as_raw_fd());
    }

    #[test]
    fn reregister_changes_token_and_interest() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        poller.reregister(b.as_raw_fd(), 2, Interest::READ).unwrap();
        a.write_all(b"y").unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if let Some(e) = events.first() {
                assert_eq!(e.token, 2, "stale token after reregister");
                break;
            }
            assert!(Instant::now() < deadline);
        }
    }

    #[test]
    fn doorbell_local_ring_wakes_poller_and_drains() {
        let bell = Doorbell::bind("rpx-test-bell-local").unwrap();
        let poller = Poller::new().unwrap();
        poller
            .register(bell.event_fd(), 42, Interest::READ)
            .unwrap();
        poller
            .register(bell.socket_fd(), 42, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        bell.ring_local();
        bell.ring_local();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 42 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "bell event never fired");
        }
        assert_eq!(bell.drain(), 2, "both rings coalesce into one drain");
        assert_eq!(bell.drain(), 0, "drained bell is quiet");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn doorbell_remote_ring_by_name() {
        let bell = Doorbell::bind("rpx-test-bell-remote").unwrap();
        let ringer = BellRinger::new().unwrap();
        assert!(ringer.ring("rpx-test-bell-remote"));
        assert!(
            !ringer.ring("rpx-test-bell-nobody-home"),
            "ringing an unbound name reports false"
        );
        let poller = Poller::new().unwrap();
        poller
            .register(bell.socket_fd(), 5, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            if events.iter().any(|e| e.token == 5 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "datagram ring never fired");
        }
        assert_eq!(bell.drain(), 1);
        // The name frees up the moment the doorbell drops.
        drop(bell);
        let again = Doorbell::bind("rpx-test-bell-remote").unwrap();
        drop(again);
    }

    #[test]
    fn vectored_read_spans_main_and_overflow() {
        let (mut a, b) = pair();
        a.write_all(b"0123456789").unwrap();
        // Give loopback a moment to land the bytes.
        std::thread::sleep(Duration::from_millis(20));
        let mut main = vec![0u8; 4];
        let mut overflow = [0u8; 16];
        // SAFETY: `main` is a live, writable 4-byte buffer.
        let n = unsafe {
            read_vectored_spare(
                b.as_raw_fd(),
                (main.as_mut_ptr(), main.len()),
                &mut overflow,
            )
        }
        .unwrap();
        assert!(n >= 4, "read too little: {n}");
        assert_eq!(&main[..], b"0123");
        #[cfg(target_os = "linux")]
        assert_eq!(&overflow[..n - 4], &b"456789"[..n - 4]);
    }
}
