//! The loopback-TCP transport: real kernel sockets between localities,
//! driven by an event loop instead of a thread per connection.
//!
//! Where [`crate::SimTransport`] *models* per-message software overhead
//! with a [`crate::LinkModel`], this backend pays the genuine price: every
//! message is a length-prefixed frame ([`crate::frame`]) written to a
//! `127.0.0.1` TCP stream, so per-message syscall overhead, kernel
//! buffering and Nagle-free small-write costs are all real. This is what
//! lets the reproduction check that conclusions drawn on the simulated
//! LogP fabric carry over to a transport with true per-message costs.
//!
//! ## Threading model
//!
//! * **`send`** enqueues onto the port front end's outbound queue
//!   (`port.rs`) — never a syscall on the caller.
//! * **`pump_send`** (scheduler background work) drains the queue,
//!   encodes frames, and drives *non-blocking* vectored writes
//!   (`writev`) on one lazily connected stream per destination.
//!   Partially written frames stay buffered at a byte offset; when a
//!   socket pushes back (`WouldBlock`) the connection arms `EPOLLOUT`
//!   on the poller, and the pump thread finishes the flush as soon
//!   as the kernel drains — queued bytes do not starve waiting for
//!   the next scheduler pump. All socket work initiated by `pump_send`
//!   is charged to the `/threads/background-work` account, exactly like
//!   the simulated backend, keeping the paper's Eq. 4 network overhead
//!   comparable across backends.
//! * One **pump thread** (`rpx-tcp-pump0`) multiplexes *every* socket —
//!   listeners, inbound and outbound streams — and the shared-memory
//!   doorbells through one readiness [`Poller`] (epoll on Linux): the
//!   thread count is independent of the number of connections.
//! * **Same-host links** (with [`ShmTuning`]) belong to [`crate::shm`]:
//!   each hosted rank's port holds one `ShmLinks`, `stage_frame` offers
//!   every frame to it first and takes it back for the socket path on
//!   `Err`, and the pump thread hands doorbells, hot mode and the
//!   segment sweep to `ShmPump`.
//! * Inbound streams are read with **vectored reads** (`readv`)
//!   straight into the spare capacity of a recycled per-connection
//!   [`BytesMut`] receive buffer. Complete frames are split off as a
//!   refcounted [`bytes::Bytes`] chunk and decoded **in place**
//!   ([`crate::frame::decode_frame_in_place`]): a delivered message's
//!   payload is a zero-copy slice of the receive chunk, with no
//!   intermediate `Vec<u8>` per frame. Frames that outlive the buffer
//!   (e.g. parked in the reliability layer's out-of-order window) stay
//!   valid because the chunk is refcounted — the buffer "recycles" by
//!   growing a fresh allocation while live chunks pin the old one.
//! * **`pump_recv`** (background work again) drains the inbound queue and
//!   invokes the receive handler on the pumping thread — receive-side
//!   handler work lands on scheduler threads, as in HPX.
//!
//! Teardown is "wake the poller, drain, join the pump thread": no
//! per-connection threads to chase, so shutdown latency is independent
//! of the number of open connections.
//!
//! This backend requires a Unix-like target (Linux gets the epoll fast
//! path; other Unixes fall back to [`rpx_util::poll`]'s portable
//! sleep-poller).
//!
//! Quiescence accounting: a transport-wide per-destination `in_wire`
//! gauge rises when a frame enters a write buffer and falls only *after*
//! the decoded message is visible in the destination's inbound queue, so
//! `inflight_backlog` never momentarily under-counts a frame that lives
//! in kernel buffers. The shm links add their own ring-resident and
//! ring-full (parked) gauges to the same two backlogs.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rpx_util::poll::{read_vectored_spare, Fd, Interest, Poller};

use crate::bootstrap::TcpBootstrap;
use crate::frame::{check_body_len, corrupt_frame, decode_frame_in_place, encode_frame};
use crate::message::Message;
use crate::port::{PortFront, Wire};
use crate::shm::{check_ring_bytes, ShmLinks, ShmPump, ShmTuning};
use crate::transport::{Transport, TransportPort};

/// Frames batched into one `writev` call.
const WRITEV_BATCH: usize = 16;

/// Minimum spare receive-buffer capacity before a `readv`.
const READ_MIN: usize = 16 * 1024;

/// Initial per-connection receive buffer capacity.
const RECV_BUF_INIT: usize = 64 * 1024;

/// The pump thread's overflow slice appended to every `readv`, so a burst
/// larger than the buffer's spare capacity still lands in one syscall.
const SCRATCH_LEN: usize = 64 * 1024;

/// Fallback poll tick: the pump thread re-checks the shutdown flag at
/// least this often even if a wake is somehow missed.
const POLL_TICK: Duration = Duration::from_millis(500);

// ---- poller token scheme ---------------------------------------------
//
// The top nibble classifies the registration; the low bits identify it.
// Localities fit in 24 bits by the `from_bootstrap` assertion.

const TOKEN_CLASS_SHIFT: u32 = 60;
const CLASS_LISTENER: u64 = 1;
const CLASS_OUT: u64 = 2;
const CLASS_IN: u64 = 3;
const CLASS_BELL: u64 = 4;

fn listener_token(locality: u32) -> u64 {
    (CLASS_LISTENER << TOKEN_CLASS_SHIFT) | locality as u64
}

fn bell_token(locality: u32) -> u64 {
    (CLASS_BELL << TOKEN_CLASS_SHIFT) | locality as u64
}

fn out_token(src: u32, dst: u32) -> u64 {
    (CLASS_OUT << TOKEN_CLASS_SHIFT) | ((src as u64) << 24) | dst as u64
}

fn in_token(id: u64) -> u64 {
    (CLASS_IN << TOKEN_CLASS_SHIFT) | id
}

fn raw_fd<T: AsRawFd>(s: &T) -> Fd {
    s.as_raw_fd() as Fd
}

/// Transport-wide state shared by every port and thread.
///
/// In multi-process mode the mesh describes the *whole cluster* — the
/// address book covers every rank — while `TcpTransport::ports` holds
/// endpoints only for the ranks this process hosts.
struct Mesh {
    /// Listener address of every locality, indexed by locality id.
    addrs: Vec<SocketAddr>,
    /// Frames somewhere between a sender's write buffer and the
    /// destination's inbound queue, indexed by destination locality.
    in_wire: Vec<AtomicU64>,
    /// Set once at teardown; the pump thread drains and exits.
    shutdown: AtomicBool,
    /// The pump thread's poller; every socket and doorbell registers here.
    poller: Poller,
}

impl Mesh {
    /// Drop `n` frames' worth of in-wire accounting at once (one atomic
    /// update per decoded batch). Saturates at zero: raw test/bench
    /// clients inject frames the send side never accounted for.
    fn unwire_n(&self, dst: usize, n: u64) {
        let _ = self.in_wire[dst].fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
            Some(v.saturating_sub(n))
        });
    }
}

/// One lazily established outgoing connection with its write buffer.
struct OutConn {
    stream: TcpStream,
    /// Encoded frames not yet (fully) written, FIFO.
    pending: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written; a partial frame
    /// resumes from here on the next flush, wherever it runs.
    offset: usize,
    /// A write error occurred; frames to this destination are discarded.
    broken: bool,
    /// Whether `EPOLLOUT` is currently armed on the poller (only
    /// while bytes are pending, to avoid level-triggered busy-wakes).
    armed: bool,
}

/// One accepted inbound connection, owned by the pump thread.
struct InConn {
    stream: TcpStream,
    /// Recycled receive buffer; complete frames are split off zero-copy.
    buf: BytesMut,
    /// The destination port whose listener accepted this stream.
    port: Arc<TcpShared>,
}

/// A locality's endpoint on the loopback-TCP transport.
struct TcpShared {
    front: PortFront,
    mesh: Arc<Mesh>,
    inbound_tx: Sender<Message>,
    inbound_rx: Receiver<Message>,
    /// Per-destination outgoing connections; also serialises `pump_send`
    /// (a pump that loses the `try_lock` race simply yields — another
    /// thread is already writing). The pump thread takes the lock
    /// (blocking, but only for the duration of one flush) to finish
    /// writes on `EPOLLOUT`.
    conns: Mutex<Vec<Option<OutConn>>>,
    /// Frames staged on this port's write buffers but not yet written to
    /// a socket. The receiver-side `in_wire` gauge lives in the
    /// *destination's* process, so a sender needs its own count of
    /// not-yet-on-the-wire frames for quiescence across process
    /// boundaries. Frames parked on a full shared-memory ring are
    /// counted by `ShmLinks::parked` instead.
    staged: AtomicUsize,
    /// This rank's same-host links; `None` when the shm backend is off
    /// or the rank's doorbell could not be bound.
    shm: Option<ShmLinks>,
}

/// The loopback-TCP network connecting all localities of a cluster.
///
/// In all-in-one mode every locality's endpoint lives here; in
/// multi-process mode ([`TcpTransport::from_bootstrap`] with a
/// [`TcpBootstrap`] hosting a single rank) only the hosted ranks have
/// ports, and the address book routes everything else over real
/// process-crossing sockets.
pub struct TcpTransport {
    /// Endpoint per locality id; `None` for ranks hosted elsewhere.
    ports: Vec<Option<Arc<TcpShared>>>,
    mesh: Arc<Mesh>,
    pump: Option<JoinHandle<()>>,
}

impl TcpTransport {
    /// The in-process loopback mesh: bind one `127.0.0.1` listener per
    /// locality, all hosted here ([`TcpBootstrap::in_process`]), no
    /// shared-memory links.
    ///
    /// # Errors
    /// Fails if a listener cannot be bound on `127.0.0.1` or the poller
    /// cannot be created.
    pub fn new(localities: u32) -> std::io::Result<Arc<Self>> {
        TcpTransport::from_bootstrap(TcpBootstrap::in_process(localities)?, None)
    }

    /// Build the transport over a completed boot handshake: the
    /// bootstrap's address book names every rank, its listeners are the
    /// ranks this process hosts. One code path serves in-process,
    /// address-book and rendezvous boots.
    ///
    /// `shm` enables the shared-memory backend: destinations whose
    /// boot-time host identity matches ours ([`TcpBootstrap::same_host`])
    /// are reached through SPSC rings — heap-backed when the peer rank is
    /// hosted by this very process, an mmap'd `/dev/shm` segment
    /// otherwise — and woken by doorbell; everything else (remote hosts,
    /// frames larger than a ring record, hosts where segment setup
    /// fails) rides the normal TCP path. Per-link FIFO holds within each
    /// path; a frame that falls back to TCP may be overtaken by later
    /// ring frames (the reliability layer's sequencing heals this for
    /// sequenced traffic).
    ///
    /// # Errors
    /// Fails if the poller cannot be created or a listener rejects
    /// non-blocking mode, and with `InvalidInput` if `shm`'s ring size is
    /// not a positive multiple of 64. Shared-memory setup failures are
    /// *not* errors: affected links quietly fall back to TCP.
    pub fn from_bootstrap(
        bootstrap: TcpBootstrap,
        shm: Option<ShmTuning>,
    ) -> std::io::Result<Arc<Self>> {
        // Same-host wiring needs the bootstrap's host identities, so it
        // runs before the destructure consumes them.
        let mut shm = match shm {
            Some(t) => ShmLinks::wire(&bootstrap, check_ring_bytes(t.ring_bytes)?),
            None => HashMap::new(),
        };
        let TcpBootstrap { local, addrs, .. } = bootstrap;

        let localities = addrs.len() as u32;
        assert!(localities > 0, "transport needs at least one locality");
        assert!(
            localities < (1 << 24),
            "locality id must fit the token scheme"
        );
        let mesh = Arc::new(Mesh {
            addrs,
            in_wire: (0..localities).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            poller: Poller::new()?,
        });
        let mut ports: Vec<Option<Arc<TcpShared>>> = (0..localities).map(|_| None).collect();
        let mut listeners = Vec::with_capacity(local.len());
        for (rank, listener) in local {
            listener.set_nonblocking(true)?;
            listeners.push((rank, listener));
            let (inbound_tx, inbound_rx) = unbounded();
            ports[rank as usize] = Some(Arc::new(TcpShared {
                front: PortFront::new(rank, localities),
                mesh: Arc::clone(&mesh),
                inbound_tx,
                inbound_rx,
                conns: Mutex::new((0..localities).map(|_| None).collect()),
                staged: AtomicUsize::new(0),
                shm: shm.remove(&rank),
            }));
        }
        let pump = {
            let mesh = Arc::clone(&mesh);
            let ports = ports.clone();
            std::thread::Builder::new()
                .name("rpx-tcp-pump0".into())
                .spawn(move || run_pump(mesh, ports, listeners))
                .expect("spawn pump thread")
        };
        Ok(Arc::new(TcpTransport {
            ports,
            mesh,
            pump: Some(pump),
        }))
    }

    /// The loopback address `locality`'s listener is bound to. External
    /// clients (benchmark harnesses) can connect raw `TcpStream`s here
    /// and write encoded frames.
    ///
    /// # Panics
    /// Panics if `locality` is out of range.
    pub fn listen_addr(&self, locality: u32) -> SocketAddr {
        self.mesh.addrs[locality as usize]
    }

    /// The localities whose endpoints live in this process.
    pub fn hosted(&self) -> Vec<u32> {
        self.ports
            .iter()
            .filter_map(|p| p.as_ref().map(|s| s.front.locality))
            .collect()
    }
}

impl Transport for TcpTransport {
    /// Number of localities in the cluster (hosted here or not).
    fn localities(&self) -> u32 {
        self.mesh.addrs.len() as u32
    }

    /// # Panics
    /// Panics if `locality` is out of range or hosted by another
    /// process.
    fn port(&self, locality: u32) -> Arc<dyn TransportPort> {
        assert!(
            (locality as usize) < self.ports.len(),
            "locality {locality} out of range"
        );
        let shared = self.ports[locality as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("locality {locality} is not hosted by this process"));
        Arc::clone(shared) as Arc<dyn TransportPort>
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.mesh.shutdown.store(true, Ordering::Release);
        for port in self.ports.iter().flatten() {
            if let Some(links) = &port.shm {
                links.unlink_files();
            }
            // Drop every outgoing stream (closing removes it from the
            // poller), unaccounting frames that never hit the wire.
            let mut conns = port.conns.lock();
            for (dst, slot) in conns.iter_mut().enumerate() {
                if let Some(conn) = slot.take() {
                    self.mesh.in_wire[dst].fetch_sub(conn.pending.len() as u64, Ordering::AcqRel);
                }
            }
        }
        // Wake the pump thread; it drains its inbound streams once and
        // exits, however many connections are open.
        self.mesh.poller.wake();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

// ---- the event loop ---------------------------------------------------

/// The pump thread: multiplex every listener, inbound stream, doorbell
/// and outbound flush through the mesh's poller.
fn run_pump(
    mesh: Arc<Mesh>,
    ports: Vec<Option<Arc<TcpShared>>>,
    listeners: Vec<(u32, TcpListener)>,
) {
    let poller = &mesh.poller;
    let mut inconns: HashMap<u64, InConn> = HashMap::new();
    let mut next_in_id: u64 = 0;
    let mut events = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    for (locality, listener) in &listeners {
        let _ = poller.register(raw_fd(listener), listener_token(*locality), Interest::READ);
    }
    let ranks = ports.iter().flatten();
    let ranks = ranks.filter_map(|p| Some((p.shm.as_ref()?, &p.front, &p.inbound_tx)));
    let mut shm = ShmPump::new(ranks.collect(), poller, bell_token);
    loop {
        if poller
            .wait(&mut events, Some(shm.timeout(POLL_TICK)))
            .is_err()
        {
            break;
        }
        let shutting_down = mesh.shutdown.load(Ordering::Acquire);
        let mut bells = 0u64;
        for ev in &events {
            match ev.token >> TOKEN_CLASS_SHIFT {
                CLASS_BELL => bells += shm.answer_bell((ev.token & 0xFF_FFFF) as u32),
                CLASS_LISTENER => {
                    let locality = (ev.token & 0xFF_FFFF) as usize;
                    let (Some((_, listener)), Some(port)) = (
                        listeners.iter().find(|(l, _)| *l as usize == locality),
                        ports.get(locality).and_then(|p| p.as_ref()),
                    ) else {
                        continue;
                    };
                    accept_ready(
                        poller,
                        port,
                        listener,
                        &mut inconns,
                        &mut next_in_id,
                        shutting_down,
                    );
                }
                CLASS_OUT => {
                    let src = ((ev.token >> 24) & 0xFF_FFFF) as usize;
                    let dst = (ev.token & 0xFF_FFFF) as usize;
                    // Outgoing streams exist only for hosted sources.
                    let Some(port) = ports.get(src).and_then(|p| p.as_ref()) else {
                        continue;
                    };
                    port.front
                        .stats
                        .event_wakeups
                        .fetch_add(1, Ordering::Relaxed);
                    let mut conns = port.conns.lock();
                    if let Some(conn) = conns[dst].as_mut() {
                        flush_conn(port, dst, conn);
                        // EPOLLOUT is only armed while bytes pend, so a
                        // readable-flagged event here means error or
                        // peer hang-up, never data.
                        if ev.readable && !conn.broken {
                            break_conn(port, dst, conn);
                        }
                        update_write_interest(port, dst, conn);
                    }
                }
                CLASS_IN => {
                    if let Some(conn) = inconns.get_mut(&ev.token) {
                        conn.port
                            .front
                            .stats
                            .event_wakeups
                            .fetch_add(1, Ordering::Relaxed);
                        if !service_in_conn(conn, &mut scratch) {
                            let conn = inconns.remove(&ev.token).expect("present");
                            poller.deregister(raw_fd(&conn.stream));
                        }
                    }
                }
                _ => {}
            }
        }
        shm.after_wake(bells);
        if shutting_down {
            // Final drain: frames already in kernel buffers or rings
            // still reach the inbound queue (and settle the gauges).
            for conn in inconns.values_mut() {
                let _ = service_in_conn(conn, &mut scratch);
            }
            shm.drain_all();
            break;
        }
    }
}

/// Accept everything queued on a ready listener, registering each new
/// stream for reads.
fn accept_ready(
    poller: &Poller,
    port: &Arc<TcpShared>,
    listener: &TcpListener,
    inconns: &mut HashMap<u64, InConn>,
    next_in_id: &mut u64,
    shutting_down: bool,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutting_down {
                    continue; // drain the queue, admit nobody
                }
                port.front
                    .stats
                    .event_wakeups
                    .fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = in_token(*next_in_id);
                *next_in_id += 1;
                if poller
                    .register(raw_fd(&stream), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                inconns.insert(
                    token,
                    InConn {
                        stream,
                        buf: BytesMut::with_capacity(RECV_BUF_INIT),
                        port: Arc::clone(port),
                    },
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// If the buffer holds a partial frame whose advertised length is known,
/// the extra bytes needed to complete it (so one `reserve` covers even a
/// multi-megabyte frame); 0 otherwise.
fn frame_need(buf: &BytesMut) -> usize {
    if buf.len() < 4 {
        return 0;
    }
    match check_body_len(u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"))) {
        Ok(body_len) => (4 + body_len).saturating_sub(buf.len()),
        Err(_) => 0, // desync; extract_frames will kill the connection
    }
}

/// Read a ready inbound stream until it would block, decoding complete
/// frames zero-copy into the port's inbound queue. Returns `false` when
/// the connection is finished (EOF, error, or framing desync) and
/// should be dropped.
fn service_in_conn(conn: &mut InConn, scratch: &mut [u8]) -> bool {
    loop {
        conn.buf.reserve(frame_need(&conn.buf).max(READ_MIN));
        let (ptr, spare) = conn.buf.spare_capacity_raw();
        // SAFETY: `ptr` is the spare capacity of `conn.buf`, valid for
        // `spare` writes; `advance_len` below commits only bytes the
        // kernel actually wrote.
        let n = match unsafe { read_vectored_spare(raw_fd(&conn.stream), (ptr, spare), scratch) } {
            Ok(0) => {
                // EOF: deliver what is complete, drop the rest.
                let _ = extract_frames(conn);
                return false;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                let _ = extract_frames(conn);
                return false;
            }
        };
        conn.port
            .front
            .stats
            .readv_batches
            .fetch_add(1, Ordering::Relaxed);
        let main_n = n.min(spare);
        // SAFETY: the kernel initialized the first `main_n` spare bytes.
        unsafe { conn.buf.advance_len(main_n) };
        if n > main_n {
            conn.buf.put_slice(&scratch[..n - main_n]);
        }
        if !extract_frames(conn) {
            return false;
        }
        if n < spare + scratch.len() {
            return true; // socket drained
        }
    }
}

/// Split every complete frame off the receive buffer as one refcounted
/// chunk and decode them in place; payloads are zero-copy slices of the
/// chunk. Returns `false` on framing desync (connection must die).
fn extract_frames(conn: &mut InConn) -> bool {
    let mut consumed = 0;
    let mut desync = false;
    {
        let data: &[u8] = &conn.buf;
        while data.len() - consumed >= 4 {
            let prefix =
                u32::from_le_bytes(data[consumed..consumed + 4].try_into().expect("4 bytes"));
            match check_body_len(prefix) {
                Ok(body_len) => {
                    if data.len() - consumed - 4 < body_len {
                        break; // partial tail; next readv completes it
                    }
                    consumed += 4 + body_len;
                }
                Err(_) => {
                    desync = true;
                    break;
                }
            }
        }
    }
    if consumed > 0 {
        let chunk = conn.buf.split_to(consumed).freeze();
        let dst = conn.port.front.locality as usize;
        let mut off = 0;
        let mut delivered = false;
        let mut frames: u64 = 0;
        while off < chunk.len() {
            let body_len =
                u32::from_le_bytes(chunk[off..off + 4].try_into().expect("4 bytes")) as usize;
            let body = &chunk[off + 4..off + 4 + body_len];
            match decode_frame_in_place(body) {
                Ok(view) => {
                    let start = off + 4 + view.payload_offset();
                    let payload = chunk.slice(start..start + view.payload.len());
                    // Publish to the inbound queue *before* dropping the
                    // in-wire gauge so quiescence checks never miss the
                    // frame.
                    let _ = conn.port.inbound_tx.send(view.with_payload(payload));
                    delivered = true;
                }
                Err(_) => {
                    conn.port
                        .front
                        .stats
                        .decode_failures
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            frames += 1;
            off += 4 + body_len;
        }
        // One wakeup and one in-wire settlement per decoded batch, not
        // per frame: the sleeper only needs to learn that the inbound
        // queue became non-empty, and the gauge only drops after every
        // frame of the batch is already published.
        conn.port.mesh.unwire_n(dst, frames);
        if delivered {
            conn.port.front.notify();
        }
    }
    if desync {
        // The stream is desynchronised beyond recovery: count one
        // failure and abandon the connection.
        conn.port
            .front
            .stats
            .decode_failures
            .fetch_add(1, Ordering::Relaxed);
        conn.port
            .mesh
            .unwire_n(conn.port.front.locality as usize, 1);
        return false;
    }
    true
}

// ---- the write path ---------------------------------------------------

/// Flush as much of `conn`'s write buffer as the socket accepts without
/// blocking, batching frames into vectored writes. Returns `true` if
/// any bytes were written.
fn flush_conn(shared: &TcpShared, dst: usize, conn: &mut OutConn) -> bool {
    if conn.broken {
        return false;
    }
    let mut wrote = false;
    'flush: while let Some(front) = conn.pending.front() {
        let result = {
            let mut bufs: Vec<IoSlice<'_>> =
                Vec::with_capacity(WRITEV_BATCH.min(conn.pending.len()));
            bufs.push(IoSlice::new(&front[conn.offset..]));
            for frame in conn.pending.iter().skip(1).take(WRITEV_BATCH - 1) {
                bufs.push(IoSlice::new(frame));
            }
            conn.stream.write_vectored(&bufs)
        };
        match result {
            Ok(0) => {
                break_conn(shared, dst, conn);
                break;
            }
            Ok(mut n) => {
                wrote = true;
                while n > 0 {
                    let front_remaining = conn
                        .pending
                        .front()
                        .expect("written bytes imply a frame")
                        .len()
                        - conn.offset;
                    if n >= front_remaining {
                        conn.pending.pop_front();
                        conn.offset = 0;
                        n -= front_remaining;
                        shared
                            .front
                            .stats
                            .writev_frames
                            .fetch_add(1, Ordering::Relaxed);
                        shared.staged.fetch_sub(1, Ordering::AcqRel);
                    } else {
                        conn.offset += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue 'flush,
            Err(_) => {
                break_conn(shared, dst, conn);
                break;
            }
        }
    }
    wrote
}

/// Mark a connection broken and unaccount its never-delivered frames so
/// quiescence checks do not wait for them forever.
fn break_conn(shared: &TcpShared, dst: usize, conn: &mut OutConn) {
    shared.mesh.in_wire[dst].fetch_sub(conn.pending.len() as u64, Ordering::AcqRel);
    shared
        .staged
        .fetch_sub(conn.pending.len(), Ordering::AcqRel);
    conn.pending.clear();
    conn.offset = 0;
    conn.broken = true;
    shared.mesh.poller.deregister(raw_fd(&conn.stream));
    conn.armed = false;
}

/// Arm `EPOLLOUT` on the poller while (and only while)
/// bytes are pending, so a `WouldBlock`ed flush resumes as soon as the
/// kernel drains instead of waiting for the next scheduler pump.
fn update_write_interest(shared: &TcpShared, dst: usize, conn: &mut OutConn) {
    if conn.broken {
        conn.armed = false;
        return;
    }
    let want = !conn.pending.is_empty();
    if want != conn.armed {
        let interest = if want {
            Interest::WRITE
        } else {
            Interest {
                readable: false,
                writable: false,
            }
        };
        let _ = shared.mesh.poller.reregister(
            raw_fd(&conn.stream),
            out_token(shared.front.locality, dst as u32),
            interest,
        );
        conn.armed = want;
    }
}

impl Wire for TcpShared {
    fn front(&self) -> &PortFront {
        &self.front
    }

    /// Encode queued messages into frames, stage them on per-destination
    /// write buffers (or shm rings) and drive non-blocking vectored
    /// writes.
    fn drive_send(&self) -> bool {
        // Another thread already pumping this port's sockets? Yield.
        let Some(mut conns) = self.conns.try_lock() else {
            return false;
        };
        let mut did_work = self.front.pump_outbound(
            |_| {},
            |message, corrupt| {
                let mut frame = encode_frame(&message);
                if corrupt {
                    // The mangled frame travels for real: the
                    // *receiver's* checksum fails.
                    corrupt_frame(&mut frame);
                }
                stage_frame(self, &mut conns, message.dst as usize, frame);
            },
        );
        // Flush every connection with buffered bytes (including leftovers
        // from earlier pumps that hit WouldBlock), then leave EPOLLOUT
        // armed on any that still hold bytes so the pump thread finishes
        // the job without waiting for the next scheduler pump.
        for (dst, slot) in conns.iter_mut().enumerate() {
            if let Some(conn) = slot {
                if !conn.pending.is_empty() {
                    did_work |= flush_conn(self, dst, conn);
                }
                update_write_interest(self, dst, conn);
            }
        }
        // Retry ring-full parked shm frames too (the doorbell path also
        // does this, but scheduler pumps guarantee progress even when a
        // bell was coalesced away).
        if let Some(links) = &self.shm {
            did_work |= links.flush();
        }
        did_work
    }

    fn drive_recv(&self) -> bool {
        // Drain shared-memory rings directly on the pumping thread —
        // the low-latency path (no doorbell/poller detour). Contended
        // lock = another thread is draining; skip.
        if let Some(links) = &self.shm {
            links.drain(&self.front, &self.inbound_tx, false, false);
        }
        self.front.pump_inbound(|| {
            let message = self.inbound_rx.try_recv().ok()?;
            Some((message, self.front.enter()))
        })
    }

    /// Frames staged on write buffers or waiting for ring space. This is
    /// what lets a quiescence check in *this* process see frames still
    /// owed to a rank hosted elsewhere (whose `inflight_backlog` it
    /// cannot observe).
    fn staged(&self) -> usize {
        self.staged.load(Ordering::Acquire) + self.shm.as_ref().map_or(0, ShmLinks::parked)
    }

    /// Frames on the wire towards this port (write buffers + kernel +
    /// pump thread + shared-memory rings) plus decoded messages awaiting
    /// `pump_recv`.
    fn inflight(&self) -> usize {
        self.mesh.in_wire[self.front.locality as usize].load(Ordering::Acquire) as usize
            + self.inbound_rx.len()
            + self.shm.as_ref().map_or(0, ShmLinks::inflight)
    }
}

/// Stage an encoded frame towards `dst`: through the shared-memory ring
/// when a same-host link exists and the frame fits a ring record,
/// otherwise on the TCP write buffer (accounted in the in-wire gauge).
/// Frames to unreachable/broken destinations are discarded (the wire
/// "lost" them).
fn stage_frame(shared: &TcpShared, conns: &mut [Option<OutConn>], dst: usize, frame: Vec<u8>) {
    let frame = match &shared.shm {
        Some(links) => match links.stage(dst, frame) {
            Ok(()) => return,
            Err(frame) => frame,
        },
        None => frame,
    };
    let Some(conn) = ensure_conn(shared, conns, dst) else {
        return;
    };
    if conn.broken {
        return;
    }
    shared.mesh.in_wire[dst].fetch_add(1, Ordering::AcqRel);
    shared.staged.fetch_add(1, Ordering::AcqRel);
    conn.pending.push_back(frame);
}

/// Get (or lazily establish) the outgoing connection to `dst`,
/// registering it (with no interest armed yet) on the poller.
fn ensure_conn<'a>(
    shared: &TcpShared,
    conns: &'a mut [Option<OutConn>],
    dst: usize,
) -> Option<&'a mut OutConn> {
    if conns[dst].is_none() {
        let stream = TcpStream::connect(shared.mesh.addrs[dst]).ok()?;
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        // Empty interest: EPOLLOUT is armed only while bytes pend;
        // error/hang-up conditions are still reported.
        let _ = shared.mesh.poller.register(
            raw_fd(&stream),
            out_token(shared.front.locality, dst as u32),
            Interest {
                readable: false,
                writable: false,
            },
        );
        conns[dst] = Some(OutConn {
            stream,
            pending: VecDeque::new(),
            offset: 0,
            broken: false,
            armed: false,
        });
    }
    conns[dst].as_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::frame::frame_len;
    use crate::message::MessageKind;
    use crate::shm::ShmNamespace;
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    type Port = Arc<dyn TransportPort>;

    fn msg(src: u32, dst: u32, payload: &[u8]) -> Message {
        Message::new(
            src,
            dst,
            MessageKind::Parcel,
            Bytes::copy_from_slice(payload),
        )
    }

    fn pump_until<F: Fn() -> bool>(ports: &[Port], done: F, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !done() {
            for p in ports {
                p.pump();
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn message_travels_over_real_sockets() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        a.send(msg(0, 1, b"over tcp"));
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || !got.lock().is_empty(),
            Duration::from_secs(30)
        ));
        assert_eq!(got.lock()[0].as_ref(), b"over tcp");
        assert_eq!(
            a.stats().sent_bytes.load(Ordering::Relaxed),
            frame_len(8) as u64
        );
        assert_eq!(
            b.stats().received_bytes.load(Ordering::Relaxed),
            frame_len(8) as u64
        );
    }

    #[test]
    fn fifo_order_preserved_per_link() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload[0])));
        for i in 0..50u8 {
            a.send(msg(0, 1, &[i]));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 50,
            Duration::from_secs(30)
        ));
        assert_eq!(*got.lock(), (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn large_payload_crosses_kernel_buffers() {
        // Larger than a default loopback socket buffer: forces the
        // WouldBlock path, EPOLLOUT-resumed flushes and multi-readv
        // reassembly on the receive side.
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let payload: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| i as u8).collect();
        let expect = payload.clone();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        a.send(msg(0, 1, &payload));
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || !got.lock().is_empty(),
            Duration::from_secs(60)
        ));
        assert_eq!(got.lock()[0].as_ref(), &expect[..]);
    }

    #[test]
    fn corrupt_fault_counts_decode_failure() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::corrupt_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"abcdef"));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 5
                && b.stats().decode_failures.load(Ordering::SeqCst) == 5,
            Duration::from_secs(30)
        ));
    }

    #[test]
    fn drop_fault_loses_the_message() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::drop_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"x"));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 5,
            Duration::from_secs(30)
        ));
        // Give stragglers a chance, then confirm nothing else arrives.
        std::thread::sleep(Duration::from_millis(50));
        for p in [&a, &b] {
            p.pump();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn send_to_self_is_allowed() {
        let transport = TcpTransport::new(1).expect("bind loopback");
        let a = transport.port(0);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        a.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.send(msg(0, 0, b"self"));
        assert!(pump_until(
            std::slice::from_ref(&a),
            || hits.load(Ordering::SeqCst) == 1,
            Duration::from_secs(30)
        ));
    }

    #[test]
    fn teardown_joins_all_threads_quickly() {
        let t0 = Instant::now();
        {
            let transport = TcpTransport::new(4).expect("bind loopback");
            let a = transport.port(0);
            transport.port(1).set_receiver(Arc::new(|_| {}));
            a.send(msg(0, 1, b"x"));
            a.pump_send();
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "teardown hung");
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::duplicate_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"dup"));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 15,
            Duration::from_secs(30)
        ));
    }

    #[test]
    fn reorder_fault_delivers_everything() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        let a = transport.port(0);
        let b = transport.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload[0])));
        a.set_fault_plan(Some(Arc::new(FaultPlan::reorder_window(4))));
        for i in 0..16u8 {
            a.send(msg(0, 1, &[i]));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 16,
            Duration::from_secs(30)
        ));
        assert_eq!(a.outbound_backlog(), 0, "stage fully drained");
        let mut seen = got.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<u8>>(), "nothing lost");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_panics() {
        let transport = TcpTransport::new(2).expect("bind loopback");
        transport.port(0).send(msg(0, 7, b"x"));
    }

    /// Threads the process is running, per /proc (Linux).
    #[cfg(target_os = "linux")]
    fn os_thread_count() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    /// Connect a raw client to `addr`, retrying briefly if the accept
    /// queue is momentarily full.
    fn connect_client(addr: SocketAddr) -> TcpStream {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match TcpStream::connect(addr) {
                Ok(s) => return s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect failed for 30s: {e}");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn thread_count_is_independent_of_connections() {
        const CONNS: usize = 256;
        let before = os_thread_count();
        let transport = TcpTransport::new(2).expect("bind loopback");
        let b = transport.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let addr = transport.listen_addr(1);
        let mut clients = Vec::with_capacity(CONNS);
        for i in 0..CONNS {
            let mut c = connect_client(addr);
            c.write_all(&encode_frame(&msg(0, 1, &[i as u8])))
                .expect("client write");
            clients.push(c);
        }
        // All 256 streams live and accepted once every frame arrived.
        assert!(pump_until(
            std::slice::from_ref(&b),
            || hits.load(Ordering::SeqCst) == CONNS as u64,
            Duration::from_secs(60)
        ));
        let during = os_thread_count();
        // The pump thread, plus slack for the test harness's own threads.
        let budget = 1 + 2;
        assert!(
            during <= before + budget,
            "{CONNS} connections cost {} extra threads (budget {budget})",
            during - before
        );
        drop(clients);
    }

    #[test]
    fn shutdown_is_fast_with_many_open_connections() {
        const CONNS: usize = 256;
        let transport = TcpTransport::new(2).expect("bind loopback");
        let b = transport.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let addr = transport.listen_addr(1);
        let mut clients = Vec::with_capacity(CONNS);
        for i in 0..CONNS {
            let mut c = connect_client(addr);
            c.write_all(&encode_frame(&msg(0, 1, &[i as u8])))
                .expect("client write");
            clients.push(c);
        }
        assert!(pump_until(
            std::slice::from_ref(&b),
            || hits.load(Ordering::SeqCst) == CONNS as u64,
            Duration::from_secs(60)
        ));
        drop(b);
        let t0 = Instant::now();
        drop(transport);
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(100),
            "teardown with {CONNS} open connections took {took:?}"
        );
        drop(clients);
    }

    #[test]
    fn split_transports_exchange_over_rank_handshake() {
        // Two transports in one test process stand in for two worker
        // processes: each hosts a single rank, discovered through the
        // rendezvous handshake, and traffic crosses real sockets between
        // "processes".
        let rdv = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let h0 = std::thread::spawn(move || {
            TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)).unwrap()
        });
        let h1 = std::thread::spawn(move || {
            TcpBootstrap::rendezvous(1, 2, rdv, Duration::from_secs(5)).unwrap()
        });
        let t0 = TcpTransport::from_bootstrap(h0.join().unwrap(), None).unwrap();
        let t1 = TcpTransport::from_bootstrap(h1.join().unwrap(), None).unwrap();
        assert_eq!(t0.hosted(), vec![0]);
        assert_eq!(t1.hosted(), vec![1]);
        assert_eq!(t0.localities(), 2);
        let a = t0.port(0);
        let b = t1.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        let echoed = Arc::new(Mutex::new(Vec::new()));
        let e = Arc::clone(&echoed);
        a.set_receiver(Arc::new(move |m: Message| e.lock().push(m.payload.clone())));
        a.send(msg(0, 1, b"cross-process"));
        b.send(msg(1, 0, b"and back"));
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || !got.lock().is_empty() && !echoed.lock().is_empty(),
            Duration::from_secs(30)
        ));
        assert_eq!(got.lock()[0].as_ref(), b"cross-process");
        assert_eq!(echoed.lock()[0].as_ref(), b"and back");
        // Sender-side staged accounting settled on both sides.
        assert_eq!(a.outbound_backlog(), 0);
        assert_eq!(b.outbound_backlog(), 0);
    }

    #[test]
    #[should_panic(expected = "not hosted by this process")]
    fn remote_rank_port_panics() {
        let rdv = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let h0 = std::thread::spawn(move || {
            TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)).unwrap()
        });
        let h1 = std::thread::spawn(move || {
            TcpBootstrap::rendezvous(1, 2, rdv, Duration::from_secs(5)).unwrap()
        });
        let t0 = TcpTransport::from_bootstrap(h0.join().unwrap(), None).unwrap();
        let _t1 = TcpTransport::from_bootstrap(h1.join().unwrap(), None).unwrap();
        let _ = t0.port(1);
    }

    #[test]
    fn zero_copy_payload_aliases_receive_chunk() {
        // Two coalesced-size messages in one burst: both payloads should
        // come out of the same refcounted receive chunk (same backing
        // allocation region), proving the zero-copy path is in use.
        let transport = TcpTransport::new(2).expect("bind loopback");
        let b = transport.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        let addr = transport.listen_addr(1);
        let mut c = connect_client(addr);
        let mut burst = Vec::new();
        burst.extend_from_slice(&encode_frame(&msg(0, 1, &[7u8; 100])));
        burst.extend_from_slice(&encode_frame(&msg(0, 1, &[9u8; 100])));
        c.write_all(&burst).expect("client write");
        assert!(pump_until(
            std::slice::from_ref(&b),
            || got.lock().len() == 2,
            Duration::from_secs(30)
        ));
        let got = got.lock();
        assert_eq!(got[0].as_ref(), &[7u8; 100][..]);
        assert_eq!(got[1].as_ref(), &[9u8; 100][..]);
        // When the burst arrived in one readv (the overwhelmingly common
        // case on loopback), both payloads must live in the same chunk:
        // the pointer gap equals their wire distance. A split arrival
        // (two batches) legitimately yields two chunks — skip then.
        if b.stats().readv_batches.load(Ordering::Relaxed) == 1 {
            let p0 = got[0].as_ref().as_ptr() as usize;
            let p1 = got[1].as_ref().as_ptr() as usize;
            assert_eq!(p1 - p0, frame_len(100), "payloads were copied");
        }
    }

    // ---- shared-memory backend ---------------------------------------

    fn shm_mesh(localities: u32, ring_bytes: usize) -> Arc<TcpTransport> {
        let boot = TcpBootstrap::in_process(localities).expect("bind loopback");
        TcpTransport::from_bootstrap(boot, Some(ShmTuning { ring_bytes })).unwrap()
    }

    #[test]
    fn shm_delivers_without_touching_sockets() {
        let transport = shm_mesh(2, 64 * 1024);
        let a = transport.port(0);
        let b = transport.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        for i in 0..20u8 {
            a.send(msg(0, 1, &[i, i, i]));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 20,
            Duration::from_secs(30)
        ));
        assert_eq!(got.lock()[7].as_ref(), &[7, 7, 7]);
        // Every frame crossed the ring, none crossed a socket.
        assert_eq!(b.stats().shm_messages.load(Ordering::Relaxed), 20);
        assert_eq!(a.stats().writev_frames.load(Ordering::Relaxed), 0);
        assert_eq!(b.stats().readv_batches.load(Ordering::Relaxed), 0);
        // shm byte accounting matches the sender's wire accounting.
        assert_eq!(
            b.stats().shm_bytes.load(Ordering::Relaxed),
            a.stats().sent_bytes.load(Ordering::Relaxed)
        );
        // Quiescence gauges settle.
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || a.outbound_backlog() == 0 && b.inflight_backlog() == 0,
            Duration::from_secs(30)
        ));
    }

    #[test]
    fn shm_fifo_preserved_under_ring_full_backpressure() {
        // Ring of 1 KiB with ~40-byte frames: forces the Full → pending
        // → doorbell-flush path many times over.
        let transport = shm_mesh(2, 1024);
        let a = transport.port(0);
        let b = transport.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| {
            g.lock()
                .push(u16::from_le_bytes(m.payload[..2].try_into().unwrap()))
        }));
        for i in 0..500u16 {
            let mut p = [0u8; 16];
            p[..2].copy_from_slice(&i.to_le_bytes());
            a.send(msg(0, 1, &p));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 500,
            Duration::from_secs(30)
        ));
        assert_eq!(*got.lock(), (0..500).collect::<Vec<u16>>());
        assert_eq!(b.stats().shm_messages.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn shm_oversize_frames_fall_back_to_tcp() {
        // max_record = 4096/2 - 4; a 3 KiB payload cannot ride the ring.
        let transport = shm_mesh(2, 4096);
        let a = transport.port(0);
        let b = transport.port(1);
        let big = vec![0xAB; 3 * 1024];
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        a.send(msg(0, 1, &big));
        a.send(msg(0, 1, b"small"));
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 2,
            Duration::from_secs(30)
        ));
        // The big frame crossed a socket, the small one the ring.
        assert_eq!(a.stats().writev_frames.load(Ordering::Relaxed), 1);
        assert_eq!(b.stats().shm_messages.load(Ordering::Relaxed), 1);
        let mut sizes: Vec<usize> = got.lock().iter().map(|p| p.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![5, 3 * 1024]);
    }

    #[test]
    fn shm_self_send_loops_through_ring() {
        let transport = shm_mesh(1, 16 * 1024);
        let a = transport.port(0);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        a.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.send(msg(0, 0, b"self"));
        assert!(pump_until(
            std::slice::from_ref(&a),
            || hits.load(Ordering::SeqCst) == 1,
            Duration::from_secs(30)
        ));
        assert_eq!(a.stats().shm_messages.load(Ordering::Relaxed), 1);
        assert_eq!(a.stats().writev_frames.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shm_corrupt_fault_travels_ring_and_fails_decode() {
        let transport = shm_mesh(2, 64 * 1024);
        let a = transport.port(0);
        let b = transport.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::corrupt_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"abcdef"));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 5
                && b.stats().decode_failures.load(Ordering::SeqCst) == 5,
            Duration::from_secs(30)
        ));
        // Corrupt frames still consumed ring records (decode ran on the
        // real codec against ring memory).
        assert_eq!(b.stats().shm_messages.load(Ordering::Relaxed), 5);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn shm_split_transports_exchange_over_mapped_segment() {
        // Two transports in one test process stand in for two worker
        // processes on one host: same boot-id, separate "processes", so
        // the pair negotiates an mmap'd /dev/shm segment and named
        // doorbells — the full cross-process path.
        let rdv = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let h0 = std::thread::spawn(move || {
            TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)).unwrap()
        });
        let h1 = std::thread::spawn(move || {
            TcpBootstrap::rendezvous(1, 2, rdv, Duration::from_secs(5)).unwrap()
        });
        let tuning = Some(ShmTuning {
            ring_bytes: 64 * 1024,
        });
        let b0 = h0.join().unwrap();
        let b1 = h1.join().unwrap();
        let seg_dir = ShmNamespace::segment_dir();
        let count_segs = |prefix: &str| {
            std::fs::read_dir(&seg_dir)
                .map(|entries| {
                    entries
                        .flatten()
                        .filter(|e| {
                            e.file_name()
                                .to_str()
                                .is_some_and(|n| n.starts_with(prefix) && n.contains(".seg-"))
                        })
                        .count()
                })
                .unwrap_or(0)
        };
        let prefix = format!("rpx-{}", b0.addrs[0].port());
        let t0 = TcpTransport::from_bootstrap(b0, tuning).unwrap();
        let t1 = TcpTransport::from_bootstrap(b1, tuning).unwrap();
        let a = t0.port(0);
        let b = t1.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        let echoed = Arc::new(AtomicU64::new(0));
        let e = Arc::clone(&echoed);
        a.set_receiver(Arc::new(move |_| {
            e.fetch_add(1, Ordering::SeqCst);
        }));
        a.send(msg(0, 1, b"through the mapping"));
        b.send(msg(1, 0, b"and back"));
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || !got.lock().is_empty() && echoed.load(Ordering::SeqCst) == 1,
            Duration::from_secs(30)
        ));
        assert_eq!(got.lock()[0].as_ref(), b"through the mapping");
        // Both directions crossed shared memory, no socket traffic.
        assert_eq!(b.stats().shm_messages.load(Ordering::Relaxed), 1);
        assert_eq!(a.stats().shm_messages.load(Ordering::Relaxed), 1);
        assert_eq!(a.stats().writev_frames.load(Ordering::Relaxed), 0);
        assert_eq!(b.stats().writev_frames.load(Ordering::Relaxed), 0);
        // The unlink-when-both-attached handshake removes the segment
        // file while traffic still flows (the pump thread sweeps it).
        let deadline = Instant::now() + Duration::from_secs(10);
        while count_segs(&prefix) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(count_segs(&prefix), 0, "segment file leaked");
        drop((a, b));
        drop(t0);
        drop(t1);
        assert_eq!(count_segs(&prefix), 0, "teardown leaked a segment");
    }

    #[test]
    fn shm_quiescence_counts_ring_resident_frames() {
        // Without pumping the receiver... frames pushed into the ring
        // must still show up in the destination's inflight gauge until
        // delivered (the pump thread may drain the ring into the inbound
        // queue at any time, so check the sum of both stages).
        let transport = shm_mesh(2, 64 * 1024);
        let a = transport.port(0);
        let b = transport.port(1);
        b.set_receiver(Arc::new(|_| {}));
        for i in 0..8u8 {
            a.send(msg(0, 1, &[i]));
        }
        // Push them into the ring (send side only).
        for _ in 0..8 {
            a.pump_send();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while a.outbound_backlog() > 0 && Instant::now() < deadline {
            a.pump_send();
            std::thread::yield_now();
        }
        assert_eq!(a.outbound_backlog(), 0);
        // All 8 are either in the ring or already decoded to the inbound
        // queue — never invisible.
        assert!(
            b.inflight_backlog() > 0,
            "ring-resident frames invisible to quiescence"
        );
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || b.inflight_backlog() == 0,
            Duration::from_secs(30)
        ));
    }
}
