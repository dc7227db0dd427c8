//! A real TCP transport for the fetch protocol — pipelined and
//! multiplexed.
//!
//! The storage node as a network service, and its client. The server is
//! **readiness-driven**: one event-loop thread owns every connection as a
//! nonblocking `TcpStream`, demultiplexes incoming frames by their [`wire`]
//! `request_id`, answers raw serves itself and hands offloaded prefixes to
//! the shared worker pool, and muxes completed responses back out of order
//! onto the right connection. A single connection therefore carries many
//! in-flight exchanges at once, bounded by [`ServerConfig::max_in_flight`]
//! — past that many unanswered or unsent responses the loop stops reading
//! the socket and TCP backpressure propagates to the client.
//!
//! # The readiness set
//!
//! The loop blocks in one [`poller::Poller::wait`] (epoll, level-triggered)
//! per turn and does work only for what woke it, so a turn costs O(ready
//! sockets + connections with queued output) however many connections are
//! open, and an idle server uses no CPU. Three things end a wait:
//!
//! * **a socket**: the listener has a connection to accept, a client sent
//!   bytes or closed, or a socket whose last write would have blocked
//!   drained;
//! * **the waker**: an `eventfd` the workers write after queueing each
//!   reply, and the server handle writes after raising the stop flag (a
//!   reply the loop makes itself needs no wake);
//! * **the timer**: the wait's timeout is the earliest release time among
//!   queued frames (token bucket, injected delay), to the
//!   precision of the kernel's high-resolution timers.
//!
//! Each connection's interest follows its state: readable iff the peer
//! has not closed and the connection's requests in flight plus responses
//! queued for the wire are under its bound;
//! writable iff the last write returned `WouldBlock`. A connection parked
//! at its bound with unread requests, or half-closed with a job in
//! flight, is therefore watched for nothing and cannot spin the loop.
//! Connections are reaped where their state changes: peer-closed with
//! nothing left to compute or flush, failed, or unwatchable.
//!
//! The hot path owns each frame once. A raw serve is copy-free from the
//! stored object to the response the loader receives. The server encodes
//! only a frame's head, into a pooled buffer, and its CRC, and sends head,
//! the stored object's own `Bytes` and the CRC in one vectored write; a
//! frame that a chaos truncate or bit-flip fault mutates is glued first.
//! A raw serve's CRC is combined from the head's and the payload's, which
//! the store computed when it took the object, so only the kernel reads a
//! served payload's bytes.
//! The client reads each frame into one allocation of exactly its length,
//! filled as bytes arrive, and that allocation becomes the response's
//! `Bytes`; an image or tensor payload is copied out of it once. Between
//! frames each end's `FrameReader` keeps only the 4-byte length header, so
//! an idle connection holds no receive buffer. A reader reserves nothing
//! for a frame until its first payload bytes arrive and then grows the
//! allocation with them, so a bare length prefix cannot make either end
//! reserve the 64 MiB it may declare.
//!
//! Frame format: `u32` little-endian payload length (capped at
//! [`wire::MAX_PAYLOAD`]) followed by the payload (a [`wire`]-encoded
//! request or response, which itself opens with the `ver request_id`
//! multiplexing header and ends with the CRC32 trailer).
//!
//! The server serves one training job and answers requests in the order
//! it reads them. Sharing a node among tenants, with weights and byte
//! quotas, is a simulated extension (`cluster::simulate_multi_tenant`).
//!
//! # The worker pool
//!
//! A raw serve ([`ServeForm::Raw`]) only slices the stored `Bytes`, so the
//! loop answers it where it takes it from its queue: no job, no channel, no
//! waker write, no thread switch. Offloaded prefixes and `Configure`
//! requests go to the pool.
//!
//! [`ServerConfig::cores`] workers share one FIFO job queue, a `VecDeque`
//! behind a mutex with a condition variable that idle workers wait on, so
//! each queued job wakes one worker. A worker holds the mutex only to pop a
//! job; a guard held through the job would let one worker at a time
//! compute. Workers answer on a `std::sync::mpsc` channel, whose one
//! consumer is the event loop, and then write the waker. The loop keeps at
//! most two jobs per core in the pool's queue; the rest wait in its own.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(test)]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use netsim::{Bandwidth, TokenBucket, TrafficMeter};
use pipeline::{PipelineSpec, SplitPoint, StageData};
use poller::{Events, Interest, Poller, Waker};

use crate::chaos::{FaultDirective, FaultKind, ServerFaultInjector};
use crate::protocol::{FetchRequest, FetchResponse, Request, Response, ServeForm};
use crate::wire::{self, WireError};
use crate::{chaos, ClientError, Deadline, NearStorageExecutor, ObjectStore};

/// Writes one length-prefixed frame as a vectored `header+payload` pair:
/// the 4-byte length header and the payload reach the socket in single
/// `writev`-style calls without being glued into an intermediate buffer.
///
/// # Errors
///
/// Propagates socket errors; an over-cap payload surfaces as
/// `InvalidInput` before any bytes hit the wire.
pub(crate) fn write_frame_vectored<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > u64::from(wire::MAX_PAYLOAD) {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame over cap"));
    }
    write_parts(w, [&(payload.len() as u32).to_le_bytes(), payload], &mut 0)?;
    w.flush()
}

/// Writes what remains of `parts` past their first `*written` bytes in
/// vectored writes, counting each write into `*written`, so a call cut
/// short by an error (a nonblocking socket's `WouldBlock`) resumes exactly
/// where it stopped.
fn write_parts<W: Write, const N: usize>(
    w: &mut W,
    parts: [&[u8]; N],
    written: &mut usize,
) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
    IoSlice::advance_slices(&mut rest, *written);
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed mid-frame"))
            }
            Ok(n) => {
                *written += n;
                IoSlice::advance_slices(&mut rest, n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Largest step by which a [`FrameReader`] grows a frame's allocation
/// ahead of the bytes that have arrived. A frame up to this size (every
/// request, raw object, cropped image and 224x224 tensor the pipelines
/// here produce) gets one allocation of exactly its length; a longer one
/// grows by doubling, capped at its length.
const READ_STEP: usize = 1 << 20;

/// How much of a payload a [`FrameReader`]'s first read takes, into a
/// stack buffer, before anything is reserved for the frame. Every request
/// fits in it.
const FIRST_READ: usize = 64;

/// Resumable reader of length-prefixed frames, the one both ends use: the
/// server over its nonblocking sockets, the client under its read
/// deadlines. A frame cut off by `WouldBlock` or a timeout resumes exactly
/// where it stopped on the next [`FrameReader::poll`], so the stream never
/// desynchronises.
///
/// Each frame is read into its own allocation, filled as bytes arrive, and
/// handed over whole by [`FrameReader::take_frame`]; only the header state
/// persists between frames. Nothing is reserved until the first payload
/// bytes have arrived, and the allocation then grows with what has been
/// received, at most [`READ_STEP`] or the bytes already in it ahead, so
/// memory follows the bytes on the wire, not the length a peer declares.
#[derive(Debug, Default)]
struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    payload: Vec<u8>,
    expect: Option<usize>,
}

/// Outcome of one [`FrameReader::poll`].
#[derive(Debug, PartialEq, Eq)]
enum ReadStatus {
    /// A complete frame is buffered; claim it with
    /// [`FrameReader::take_frame`].
    Frame,
    /// No more bytes available right now (`WouldBlock`, or a read timeout).
    WouldBlock,
    /// Peer closed the read half (or the stream hard-errored).
    Closed,
    /// The length prefix exceeds [`wire::MAX_PAYLOAD`]; nothing was
    /// allocated for it, and the stream cannot be resynchronised.
    OverCap,
}

impl FrameReader {
    /// Reads until a frame is complete or the stream has nothing more to
    /// give right now.
    fn poll<R: Read>(&mut self, r: &mut R) -> ReadStatus {
        loop {
            let read = match self.expect {
                Some(want) if self.payload.len() == want => return ReadStatus::Frame,
                Some(want) if self.payload.capacity() == 0 => {
                    let mut first = [0u8; FIRST_READ];
                    let read = r.read(&mut first[..want.min(FIRST_READ)]);
                    if let Ok(n @ 1..) = read {
                        self.payload.reserve_exact(want.min(READ_STEP));
                        self.payload.extend_from_slice(&first[..n]);
                    }
                    read
                }
                Some(want) => {
                    let got = self.payload.len();
                    if got == self.payload.capacity() {
                        self.payload.reserve_exact((want - got).min(got.max(READ_STEP)));
                    }
                    // `read_to_end` reads into the spare capacity, and
                    // keeps what it read when a read fails. It zeroes each
                    // part it offers first, unless the reader fills
                    // uninitialised memory itself, as a `TcpStream` does.
                    // The limit keeps it inside this frame and this
                    // allocation.
                    let room = (self.payload.capacity() - got).min(want - got);
                    let read = r.by_ref().take(room as u64).read_to_end(&mut self.payload);
                    // Short of the limit means the stream ended.
                    read.map(|n| if n < room { 0 } else { n })
                }
                None => r.read(&mut self.header[self.header_got..]),
            };
            match read {
                Ok(0) => return ReadStatus::Closed,
                Ok(_) if self.expect.is_some() => {}
                Ok(n) => {
                    self.header_got += n;
                    if self.header_got == 4 {
                        let len = u32::from_le_bytes(self.header);
                        if len > wire::MAX_PAYLOAD {
                            return ReadStatus::OverCap;
                        }
                        self.expect = Some(len as usize);
                    }
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return ReadStatus::WouldBlock
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadStatus::Closed,
            }
        }
    }

    /// Hands over the completed frame (after `poll` returned `Frame`) and
    /// starts the next one, keeping nothing of this one.
    fn take_frame(&mut self) -> Vec<u8> {
        self.header_got = 0;
        self.expect = None;
        std::mem::take(&mut self.payload)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Configuration of a live storage server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads for near-storage preprocessing (the storage node's
    /// preprocessing core count in the paper's Figure 4 sweep).
    pub cores: usize,
    /// Bandwidth cap on the response path (the 500 Mbps link).
    pub bandwidth: Bandwidth,
    /// Nothing reads this field; it stays until the benchmark stops
    /// writing it.
    pub queue_depth: usize,
    /// Backpressure bound for the pipelined TCP server: how many decoded
    /// requests one connection may have unanswered or answered but not yet
    /// on the wire before the event loop stops reading its socket (TCP
    /// backpressure then propagates to the client). Connections beyond this
    /// depth are never starved — reading resumes as soon as responses
    /// drain.
    pub max_in_flight: usize,
}

impl Default for ServerConfig {
    /// Two cores behind a 1 Gbps link, 64 in-flight requests per
    /// connection.
    fn default() -> Self {
        ServerConfig {
            cores: 2,
            bandwidth: Bandwidth::from_gbps(1.0),
            queue_depth: 16,
            max_in_flight: 64,
        }
    }
}

/// A decoded request, tagged with its origin so its response muxes back
/// to the right connection: queued on the loop, then answered by the loop
/// (a raw serve) or handed to the worker pool.
struct Job {
    conn: u64,
    request_id: u32,
    request: Request,
    /// The connection's session; see [`Conn::session`].
    session: Arc<RwLock<Option<NearStorageExecutor>>>,
}

/// A finished response heading for its connection's write queue, paired
/// with the fault (if any) the writer must apply to its encoded frame.
struct Reply {
    conn: u64,
    request_id: u32,
    response: Response,
    fault: Option<FaultDirective>,
    /// The payload's CRC32, for stored bytes sent as they are; see
    /// [`OutFrame::payload_crc`].
    payload_crc: Option<u32>,
}

/// One response queued on a connection, with a release time from
/// injected delays.
///
/// It stays unencoded until it reaches the socket: a deep pipelined queue
/// then holds cheap refcounted responses rather than one fully-encoded
/// frame per entry, so queued memory stays O(connections x sample), not
/// O(in-flight x sample), and the encode-buffer pool covers every write.
struct OutFrame {
    request_id: u32,
    response: Response,
    /// Wire-level chaos mutation to apply at encode.
    fault: Option<FaultDirective>,
    /// CRC32 of the response's encoded payload when the store computed it
    /// (a raw serve's), so encoding the frame reads no payload byte.
    payload_crc: Option<u32>,
    not_before: Instant,
}

/// The one frame a connection has on the wire: encoded, charged to the
/// bandwidth model, with resumable progress across `WouldBlock`s.
///
/// It goes out as `len | head | body | crc` in vectored writes. The head
/// is a pooled buffer, and the body is an encoded payload's own `Bytes`
/// (the stored object, or a slice of it) with the CRC that follows it; see
/// [`wire::encode_response_parts`]. Every other response, and a frame a
/// chaos fault mutates, is all head.
struct WireFrame {
    len: [u8; 4],
    head: Vec<u8>,
    body: Option<(Bytes, [u8; 4])>,
    written: usize,
    /// Release time from the token bucket.
    not_before: Instant,
}

impl WireFrame {
    /// Encodes `out` around the pooled buffer `head`. A truncate or
    /// bit-flip fault mutates the glued frame; every other frame keeps its
    /// payload in the response's own storage.
    fn encode(out: &OutFrame, mut head: Vec<u8>) -> WireFrame {
        let body = match out.fault {
            Some(FaultDirective {
                kind: kind @ (FaultKind::Truncate | FaultKind::BitFlip),
                salt,
            }) => {
                wire::encode_response_into(out.request_id, &out.response, &mut head);
                if kind == FaultKind::Truncate {
                    chaos::truncate_payload(&mut head, salt);
                } else {
                    chaos::flip_bit(&mut head, salt);
                }
                None
            }
            _ => wire::encode_response_parts(
                out.request_id,
                &out.response,
                &mut head,
                out.payload_crc,
            ),
        };
        let len = head.len() + body.as_ref().map_or(0, |(body, crc)| body.len() + crc.len());
        WireFrame {
            len: (len as u32).to_le_bytes(),
            head,
            body,
            written: 0,
            not_before: out.not_before,
        }
    }

    /// The frame's length after its prefix: what the bandwidth model and
    /// the meter are charged.
    fn payload_len(&self) -> usize {
        u32::from_le_bytes(self.len) as usize
    }

    /// Writes what the socket takes of the rest of the frame.
    fn send(&mut self, w: &mut impl Write) -> io::Result<()> {
        let (body, crc) = self.body.as_ref().map_or((&[][..], &[][..]), |(b, c)| (&b[..], &c[..]));
        write_parts(w, [&self.len, &self.head, body, crc], &mut self.written)
    }
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// The executor a `Configure` request set up, shared with the
    /// connection's jobs. A worker replaces it whole under the write lock
    /// and executes a fetch under the read lock, so a panicked holder cannot
    /// leave it half-written, and a poisoned lock is used as is.
    session: Arc<RwLock<Option<NearStorageExecutor>>>,
    reader: FrameReader,
    outq: VecDeque<OutFrame>,
    writing: Option<WireFrame>,
    in_flight: usize,
    peer_closed: bool,
    /// The last write returned `WouldBlock` and the socket has not
    /// reported writable since.
    write_blocked: bool,
    /// What the poller currently watches this socket for.
    interest: Interest,
}

impl Conn {
    fn has_output(&self) -> bool {
        self.writing.is_some() || !self.outq.is_empty()
    }

    /// What counts against [`ServerConfig::max_in_flight`]: requests not
    /// yet answered, and responses not yet wholly on the wire. A client
    /// that never reads therefore holds at most that many responses here,
    /// however fast they are computed.
    fn backlog(&self) -> usize {
        self.in_flight + self.outq.len() + usize::from(self.writing.is_some())
    }
}

/// What a connection's write queue is waiting for after a flush.
enum Flush {
    /// Nothing left to write.
    Drained,
    /// The front frame's release time.
    Until(Instant),
    /// The socket to report writable.
    Blocked,
    /// Nothing: the socket failed and the connection must go.
    Dead,
}

/// Poller tokens of the two descriptors that are not connections;
/// connection ids count up from zero and never reach them.
const LISTENER: u64 = u64::MAX;
const WAKER: u64 = u64::MAX - 1;

/// Readiness events taken per turn; sockets beyond it stay ready (the
/// registration is level-triggered) and are served on the next turn.
const EVENT_BATCH: usize = 256;

/// Upper bound on pooled response-encode buffers the event loop retains.
const SPARE_BUFFER_POOL: usize = 64;

/// Counts of what the event loop has done, kept in test builds only, so
/// that a production loop updates no counter that nothing reads.
#[cfg(test)]
#[derive(Debug, Default)]
struct LoopCounters {
    /// Wakes from the readiness wait (`loop_turns`).
    turns: AtomicU64,
    /// Jobs pushed onto the worker pool's queue (`pool_jobs`).
    pool_jobs: AtomicU64,
    /// Request frames decoded and queued (`requests`).
    requests: AtomicU64,
}

/// A storage server listening on a real TCP socket.
#[derive(Debug)]
pub struct TcpStorageServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    #[cfg(test)]
    counters: Arc<LoopCounters>,
    meter: TrafficMeter,
    event_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpStorageServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; a zero-core config surfaces as
    /// `InvalidInput`.
    pub fn bind(store: ObjectStore, config: ServerConfig, addr: &str) -> io::Result<Self> {
        Self::bind_with_chaos(store, config, addr, None)
    }

    /// Like [`TcpStorageServer::bind`], but, when `injector` is set, with
    /// server-side chaos.
    ///
    /// Every fetch response first consults `injector` — the server-side
    /// half of the chaos layer — on whichever thread answers it, the event
    /// loop for a raw serve and a worker for an offloaded prefix. Faults are
    /// applied to the encoded frame on the wire itself: drops skip the
    /// write, delays hold the frame past its release time, truncations
    /// shorten the frame, bit-flips corrupt it. Configure responses are
    /// never faulted.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and the operating system's refusal to
    /// create the readiness set or its waker; a zero-core or
    /// zero-in-flight config surfaces as `InvalidInput`.
    pub(crate) fn bind_with_chaos(
        store: ObjectStore,
        config: ServerConfig,
        addr: &str,
        injector: Option<Arc<ServerFaultInjector>>,
    ) -> io::Result<Self> {
        let (mut server, jobs, reply_tx) = Self::start_loop(config, addr, injector.clone())?;
        server.workers = (0..config.cores)
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                let tx = reply_tx.clone();
                let waker = server.waker.clone();
                let store = store.clone();
                let injector = injector.clone();
                std::thread::spawn(move || {
                    worker_loop(&jobs, &tx, &waker, &store, injector.as_deref());
                })
            })
            .collect();
        Ok(server)
    }

    /// Binds the listener and starts the event loop, handing back the
    /// worker pool's job queue and reply channel. A reply sent on the
    /// channel must be followed by a wake of the server's waker.
    fn start_loop(
        config: ServerConfig,
        addr: &str,
        injector: Option<Arc<ServerFaultInjector>>,
    ) -> io::Result<(Self, Arc<JobQueue<Job>>, Sender<Reply>)> {
        if config.cores == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs at least one core",
            ));
        }
        if config.max_in_flight == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs max_in_flight >= 1",
            ));
        }
        let (mut el, jobs, reply_tx) = EventLoop::bind(config, addr, injector)?;
        let mut server = TcpStorageServer {
            addr: el.listener.local_addr()?,
            stop: Arc::clone(&el.stop),
            waker: el.waker.clone(),
            #[cfg(test)]
            counters: Arc::clone(&el.counters),
            meter: el.meter.clone(),
            event_thread: None,
            workers: Vec::new(),
        };
        server.event_thread = Some(std::thread::spawn(move || el.run()));
        Ok((server, jobs, reply_tx))
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bytes written to clients so far. A response frame is counted by the
    /// time its client can hold it whole, so a client that has its
    /// responses reads an exact count.
    pub fn response_bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// A clone of the response-byte meter (keeps counting after the
    /// server is consumed by `shutdown`).
    pub fn meter(&self) -> TrafficMeter {
        self.meter.clone()
    }

    /// How many times the event loop has woken from its readiness wait.
    /// An idle server's count stands still; tests pin that, and that a
    /// turn's cost does not grow with the number of open connections.
    #[cfg(test)]
    fn loop_turns(&self) -> u64 {
        self.counters.turns.load(Ordering::Relaxed)
    }

    /// How many jobs the event loop has handed to the worker pool: one per
    /// `Configure` and per offloaded fetch. A raw serve is answered on the
    /// loop and never counts; tests pin that.
    #[cfg(test)]
    fn pool_jobs(&self) -> u64 {
        self.counters.pool_jobs.load(Ordering::Relaxed)
    }

    /// How many request frames the event loop has decoded and queued.
    #[cfg(test)]
    fn requests(&self) -> u64 {
        self.counters.requests.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains workers, and joins all threads.
    pub fn shutdown(mut self) {
        self.signal_stop();
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Raises the stop flag, then wakes the loop so it sees the flag now
    /// rather than at its next event.
    fn signal_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
    }
}

impl Drop for TcpStorageServer {
    fn drop(&mut self) {
        // Signal-only teardown (non-blocking); `shutdown()` joins.
        self.signal_stop();
    }
}

/// The readiness-driven connection layer: one thread blocked in
/// [`Poller::wait`], every connection nonblocking, frames demuxed in and
/// muxed out by `request_id`, raw serves answered in place. A turn costs
/// O(ready sockets + connections with queued output), whatever the number
/// of open connections.
struct EventLoop {
    poller: Poller,
    /// Written by the workers after each reply, and by the server handle
    /// after raising `stop`.
    waker: Waker,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// Connections with queued output: the only ones a turn flushes, and
    /// the source of the next wait's timeout.
    pending_out: BTreeSet<u64>,
    next_conn: u64,
    /// Closed when the loop is dropped, which ends the worker pool.
    jobs: Arc<JobQueue<Job>>,
    reply_rx: Receiver<Reply>,
    /// Server-side chaos, consulted for every fetch the loop answers itself.
    injector: Option<Arc<ServerFaultInjector>>,
    bucket: TokenBucket,
    meter: TrafficMeter,
    stop: Arc<AtomicBool>,
    #[cfg(test)]
    counters: Arc<LoopCounters>,
    max_in_flight: usize,
    /// Recycled response-encode buffers (capped at [`SPARE_BUFFER_POOL`]).
    spare: Vec<Vec<u8>>,
    /// Decoded jobs not yet answered or handed to the pool, in the order
    /// they were read.
    queue: VecDeque<Job>,
    /// Jobs currently inside the worker pool (sent, reply not drained).
    dispatched: usize,
    /// Cap on `dispatched`: a pool job that finds it reached stays at the
    /// front of `queue`, and the raw serves behind it wait with it. A raw
    /// serve, which the loop answers itself, takes no slot.
    dispatch_cap: usize,
}

impl EventLoop {
    /// Binds the listener and builds the loop, handing back the worker
    /// pool's job queue and reply channel.
    fn bind(
        config: ServerConfig,
        addr: &str,
        injector: Option<Arc<ServerFaultInjector>>,
    ) -> io::Result<(EventLoop, Arc<JobQueue<Job>>, Sender<Reply>)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.add(&listener, LISTENER, Interest::READABLE)?;
        poller.add(&waker, WAKER, Interest::READABLE)?;
        let jobs = Arc::new(JobQueue::new());
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        let el = EventLoop {
            poller,
            waker,
            listener,
            conns: HashMap::new(),
            pending_out: BTreeSet::new(),
            next_conn: 0,
            jobs: Arc::clone(&jobs),
            reply_rx,
            injector,
            bucket: TokenBucket::new(
                config.bandwidth,
                (config.bandwidth.bytes_per_second() * 0.02).max(1500.0) as usize,
            ),
            meter: TrafficMeter::new(),
            stop: Arc::new(AtomicBool::new(false)),
            #[cfg(test)]
            counters: Arc::default(),
            max_in_flight: config.max_in_flight,
            spare: Vec::new(),
            queue: VecDeque::new(),
            dispatched: 0,
            // Two jobs per core keep every core fed; past that, jobs wait in
            // `queue`, in the order they were read.
            dispatch_cap: config.cores.saturating_mul(2).max(2),
        };
        Ok((el, jobs, reply_tx))
    }

    fn run(&mut self) {
        let mut events = Events::with_capacity(EVENT_BATCH);
        // Earliest release time among queued frames; `None` sleeps until
        // a socket or the waker is ready.
        let mut timer: Option<Instant> = None;
        while !self.stop.load(Ordering::SeqCst) {
            timer = self.turn(&mut events, timer);
        }
    }

    /// One wait for readiness or `timer`, and the work it woke. Returns
    /// the next wait's timer.
    fn turn(&mut self, events: &mut Events, timer: Option<Instant>) -> Option<Instant> {
        let timeout = timer.map(|at| at.saturating_duration_since(Instant::now()));
        if self.poller.wait(events, timeout).is_err() {
            // The readiness set itself failed: nothing can be served.
            self.stop.store(true, Ordering::SeqCst);
            return None;
        }
        #[cfg(test)]
        self.counters.turns.fetch_add(1, Ordering::Relaxed);
        for event in events.iter() {
            match event.token {
                LISTENER => self.accept_new(),
                // Drained before the reply channel is, so a reply sent
                // after that look raises a fresh wake-up.
                WAKER => self.waker.drain(),
                id if event.error => self.close(id),
                id => {
                    if event.writable {
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.write_blocked = false;
                        }
                    }
                    if event.readable {
                        self.read_requests(id);
                    }
                    self.settle(id);
                }
            }
        }
        self.drain_replies();
        self.dispatch_jobs();
        self.flush_pending()
    }

    /// Accepts every connection currently pending on the listener.
    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let id = self.next_conn;
                    if stream.set_nonblocking(true).is_err()
                        || stream.set_nodelay(true).is_err()
                        || self.poller.add(&stream, id, Interest::READABLE).is_err()
                    {
                        continue; // unusable socket: drop it, keep serving
                    }
                    self.next_conn += 1;
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            session: Arc::new(RwLock::new(None)),
                            reader: FrameReader::default(),
                            outq: VecDeque::new(),
                            writing: None,
                            in_flight: 0,
                            peer_closed: false,
                            write_blocked: false,
                            interest: Interest::READABLE,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
    }

    /// Brings `id`'s registration in step with its state, or reaps it when
    /// it is finished (peer-closed with nothing left to compute or flush).
    /// Called wherever that state changes.
    ///
    /// Readable is watched iff the peer may still send and the connection's
    /// backlog is under its bound, so reading resumes as output drains;
    /// writable iff the last write would have blocked. The registration is
    /// level-triggered, so a connection parked at its bound with unread
    /// requests, or half-closed with a job in flight, would otherwise wake
    /// the loop on every wait.
    fn settle(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let finished = conn.peer_closed && conn.in_flight == 0 && !conn.has_output();
        if !finished {
            let want = Interest {
                readable: !conn.peer_closed && conn.backlog() < self.max_in_flight,
                writable: conn.write_blocked,
            };
            if want == conn.interest {
                return;
            }
            if self.poller.modify(&conn.stream, id, want).is_ok() {
                conn.interest = want;
                return;
            }
            // A socket the poller cannot watch can never be served again.
        }
        self.close(id);
    }

    /// Drops connection `id`. Replies for its in-flight jobs still release
    /// their worker slot in `drain_replies`.
    fn close(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.delete(&conn.stream);
        }
        self.pending_out.remove(&id);
    }

    /// Moves every completed response from the workers onto its
    /// connection's write queue.
    fn drain_replies(&mut self) {
        while let Ok(reply) = self.reply_rx.try_recv() {
            // The worker slot is released whether or not the connection is
            // still alive.
            self.dispatched = self.dispatched.saturating_sub(1);
            self.complete(reply);
        }
    }

    /// Settles one answered request, from a worker or from the loop
    /// itself: releases its in-flight slot, and queues the response on its
    /// connection, applying the wire-level part of its chaos fault.
    fn complete(&mut self, reply: Reply) {
        let Some(conn) = self.conns.get_mut(&reply.conn) else {
            return; // connection died while the request was in flight
        };
        conn.in_flight = conn.in_flight.saturating_sub(1);
        let delay = match reply.fault {
            Some(FaultDirective { kind: FaultKind::Drop, .. }) => None,
            Some(FaultDirective { kind: FaultKind::Delay(d), .. }) => Some(d),
            // Truncate/BitFlip mutate the encoded bytes at write time;
            // Error faults already replaced the response.
            _ => Some(Duration::ZERO),
        };
        if let Some(delay) = delay {
            conn.outq.push_back(OutFrame {
                request_id: reply.request_id,
                response: reply.response,
                fault: reply.fault,
                payload_crc: reply.payload_crc,
                not_before: Instant::now() + delay,
            });
            self.pending_out.insert(reply.conn);
        }
        self.settle(reply.conn);
    }

    /// Takes jobs from the queue in the order they were read, answering a
    /// raw serve in place and moving every other job into the worker pool,
    /// with at most `dispatch_cap` jobs inside the pool at once. A pool job
    /// that finds the pool full stays at the queue's front, and ends the
    /// pass.
    fn dispatch_jobs(&mut self) {
        loop {
            if Arc::strong_count(&self.jobs) == 1 {
                // Every worker has exited, which only a panic does while
                // the loop runs: nothing can be served.
                self.stop.store(true, Ordering::SeqCst);
                break;
            }
            let Some(job) = self.queue.pop_front() else { break };
            match job.request {
                Request::Fetch(req @ FetchRequest { form: ServeForm::Raw, .. }) => {
                    let (response, fault, payload_crc) =
                        answer_fetch(req, &job.session, self.injector.as_deref());
                    self.complete(Reply {
                        conn: job.conn,
                        request_id: job.request_id,
                        response,
                        fault,
                        payload_crc,
                    });
                }
                _ if self.dispatched < self.dispatch_cap => {
                    self.dispatched += 1;
                    #[cfg(test)]
                    self.counters.pool_jobs.fetch_add(1, Ordering::Relaxed);
                    self.jobs.push(job);
                }
                _ => {
                    self.queue.push_front(job);
                    break;
                }
            }
        }
    }

    /// Flushes every connection with queued output and returns the
    /// earliest release time any of them is waiting for — the next wait's
    /// timeout.
    fn flush_pending(&mut self) -> Option<Instant> {
        let ids: Vec<u64> = self.pending_out.iter().copied().collect();
        let mut timer: Option<Instant> = None;
        for id in ids {
            match self.flush_writes(id) {
                Flush::Drained => {
                    self.pending_out.remove(&id);
                }
                Flush::Until(at) => timer = Some(timer.map_or(at, |t| t.min(at))),
                Flush::Blocked => {}
                Flush::Dead => {
                    self.close(id);
                    continue;
                }
            }
            self.settle(id);
        }
        timer
    }

    /// Flushes as much of `id`'s write queue as the socket accepts, in
    /// vectored `len | head | body | crc` writes, and reports what the
    /// rest is waiting for. Frames are encoded here, just before their
    /// bytes hit the wire — one pooled head buffer per in-flight write,
    /// however deep the queue behind it.
    fn flush_writes(&mut self, id: u64) -> Flush {
        let Some(conn) = self.conns.get_mut(&id) else { return Flush::Drained };
        if conn.write_blocked {
            return Flush::Blocked;
        }
        loop {
            let now = Instant::now();
            let mut wire = match conn.writing.take() {
                Some(wire) => wire,
                None => {
                    let Some(next) = conn.outq.pop_front() else { return Flush::Drained };
                    if next.not_before > now {
                        // Injected delay: not released yet.
                        let at = next.not_before;
                        conn.outq.push_front(next);
                        return Flush::Until(at);
                    }
                    let mut wire = WireFrame::encode(&next, self.spare.pop().unwrap_or_default());
                    // The bandwidth charge lands when bytes reach the wire,
                    // not when the worker finished computing.
                    wire.not_before = now + self.bucket.delay_for(wire.payload_len());
                    wire
                }
            };
            if wire.not_before > now {
                let at = wire.not_before;
                conn.writing = Some(wire);
                return Flush::Until(at);
            }
            // Counted before the write that may complete the frame, so a
            // client holding the response always finds it in the meter;
            // taken back when the write stops short of the frame's end.
            let sent = wire.payload_len() as u64;
            self.meter.record(sent);
            match wire.send(&mut conn.stream) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.meter.take_back(sent);
                    conn.writing = Some(wire);
                    conn.write_blocked = true;
                    return Flush::Blocked;
                }
                Err(_) => {
                    self.meter.take_back(sent);
                    return Flush::Dead;
                }
            }
            if self.spare.len() < SPARE_BUFFER_POOL {
                wire.head.clear();
                self.spare.push(wire.head);
            }
        }
    }

    /// Reads and dispatches frames from `id` until the socket runs dry or
    /// the connection's backlog reaches its bound (backpressure: the
    /// unread bytes stay in the kernel buffer and TCP flow control pushes
    /// back on the client).
    fn read_requests(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.peer_closed {
            return;
        }
        while conn.backlog() < self.max_in_flight {
            match conn.reader.poll(&mut conn.stream) {
                ReadStatus::Frame => {
                    let frame = conn.reader.take_frame();
                    // A reply the loop writes itself, without a worker.
                    let mut reply_now = |request_id, message| {
                        conn.outq.push_back(OutFrame {
                            request_id,
                            response: Response::Error { sample_id: None, message },
                            fault: None,
                            payload_crc: None,
                            not_before: Instant::now(),
                        });
                        self.pending_out.insert(id);
                    };
                    match wire::decode_request_framed(&frame) {
                        Ok((request_id, request)) => {
                            conn.in_flight += 1;
                            #[cfg(test)]
                            self.counters.requests.fetch_add(1, Ordering::Relaxed);
                            self.queue.push_back(Job {
                                conn: id,
                                request_id,
                                request,
                                session: Arc::clone(&conn.session),
                            });
                        }
                        Err(e) => {
                            // Echo the id best-effort so the error routes
                            // back to the caller that sent the bad frame.
                            let request_id = wire::peek_request_id(&frame).unwrap_or(0);
                            reply_now(request_id, format!("bad request: {e}"));
                        }
                    }
                }
                ReadStatus::WouldBlock => break,
                // An over-cap prefix leaves the stream unparseable: stop
                // reading, finish what is in flight, then reap.
                ReadStatus::Closed | ReadStatus::OverCap => {
                    conn.peer_closed = true;
                    break;
                }
            }
        }
    }
}

impl Drop for EventLoop {
    /// Closes the job queue however the loop ends, a panic included, so
    /// the workers exit and `shutdown` can join them.
    fn drop(&mut self) {
        self.jobs.close();
    }
}

/// The worker pool's FIFO job queue, shared by every worker.
///
/// Idle workers wait on `ready`, so each push wakes one of them. An `mpsc`
/// receiver shared behind a mutex (std's multi-consumer channel is not
/// stable) would park all idle workers but one on that mutex, and every
/// job would then wake two threads; on a 2 vCPU host that cost the
/// 4-core `server_throughput` server about a tenth of its serial
/// requests a second.
struct JobQueue<T> {
    /// Queued jobs, and whether the queue is closed. Each update is one
    /// push, pop or flag write, so a panicked holder leaves it valid, and
    /// a poisoned lock is used as is.
    state: Mutex<(VecDeque<T>, bool)>,
    ready: Condvar,
}

impl<T> JobQueue<T> {
    fn new() -> Self {
        JobQueue { state: Mutex::new((VecDeque::new(), false)), ready: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, (VecDeque<T>, bool)> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` and wakes one idle worker.
    fn push(&self, job: T) {
        self.lock().0.push_back(job);
        self.ready.notify_one();
    }

    /// Ends every worker's loop once the queued jobs are taken.
    fn close(&self) {
        self.lock().1 = true;
        self.ready.notify_all();
    }

    /// The next job, waiting for one, or `None` once the queue is closed
    /// and empty. The guard drops on return, before the caller runs the
    /// job.
    fn take(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Answers one fetch from its connection's session, after asking
/// `injector` for the response's fault: the same steps on a worker, for an
/// offloaded prefix, and on the event loop, for a raw serve. The last part
/// is the payload's CRC32 when the store has it (a raw serve's).
fn answer_fetch(
    req: FetchRequest,
    session: &RwLock<Option<NearStorageExecutor>>,
    injector: Option<&ServerFaultInjector>,
) -> (Response, Option<FaultDirective>, Option<u32>) {
    let fault = injector.and_then(|i| i.decide(req.sample_id, req.epoch));
    if matches!(fault, Some(FaultDirective { kind: FaultKind::Error, .. })) {
        // Error faults replace the response before execution.
        let message = "injected storage fault".to_string();
        return (Response::Error { sample_id: Some(req.sample_id), message }, fault, None);
    }
    // Executed under the read guard: the connection's other fetches read
    // in parallel, and only a `Configure` on this connection waits for it.
    let session = session.read().unwrap_or_else(PoisonError::into_inner);
    let (response, payload_crc) = match session.as_ref() {
        Some(ex) => match ex.execute_checksummed(req) {
            Ok((resp, crc)) => (Response::Data(resp), crc),
            Err(e) => {
                (Response::Error { sample_id: Some(req.sample_id), message: e.to_string() }, None)
            }
        },
        None => {
            let message = "session not configured".to_string();
            (Response::Error { sample_id: Some(req.sample_id), message }, None)
        }
    };
    (response, fault, payload_crc)
}

/// One worker of the pool: takes jobs from the queue every worker shares,
/// and answers on `reply_tx`.
fn worker_loop(
    jobs: &JobQueue<Job>,
    reply_tx: &Sender<Reply>,
    waker: &Waker,
    store: &ObjectStore,
    injector: Option<&ServerFaultInjector>,
) {
    while let Some(job) = jobs.take() {
        if reply_tx.send(run_job(job, store, injector)).is_err() {
            return;
        }
        waker.wake();
    }
}

/// What a worker does with one job: a `Configure` sets up the connection's
/// session over `store`, and a fetch is answered from it.
fn run_job(job: Job, store: &ObjectStore, injector: Option<&ServerFaultInjector>) -> Reply {
    let (response, fault, payload_crc) = match job.request {
        Request::Configure(cfg) => {
            let executor = NearStorageExecutor::new(store.clone(), cfg);
            *job.session.write().unwrap_or_else(PoisonError::into_inner) = Some(executor);
            (Response::Configured, None, None)
        }
        Request::Fetch(req) => answer_fetch(req, &job.session, injector),
    };
    Reply { conn: job.conn, request_id: job.request_id, response, fault, payload_crc }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Client for a [`TcpStorageServer`], with a pipelined exchange API.
///
/// [`TcpStorageClient::submit`] puts a fetch on the wire and returns its
/// `request_id`; [`TcpStorageClient::await_response`] claims a completion
/// **by id**, buffering other in-flight completions for their own awaits.
/// Many requests therefore ride one connection concurrently (up to the
/// server's per-connection in-flight bound), and a stale response from a
/// timed-out earlier exchange can never satisfy the wrong request — its
/// id no longer matches anything outstanding, so it is discarded.
///
/// The batch helper, [`TcpStorageClient::fetch_many_requests`], is built
/// on submit/await and returns responses in request order.
#[derive(Debug)]
pub struct TcpStorageClient {
    stream: TcpStream,
    deadline: Deadline,
    /// Monotonic multiplexing id; 0 is reserved for server-side replies to
    /// frames whose id could not be recovered.
    next_id: u32,
    /// Persists across deadline expiries, so a timed-out read resumes the
    /// same frame exactly where the budget ran out. Between frames it holds
    /// no buffer.
    frame: FrameReader,
    /// Reusable request-encode buffer: steady-state sends are
    /// allocation-free.
    send_buf: Vec<u8>,
    /// Reusable buffer `submit_all` glues a batch's frames into.
    batch_buf: Vec<u8>,
    /// The read timeout the socket currently has (a new socket has none),
    /// so it is set again only when it changes.
    read_timeout: Option<Duration>,
    /// Ids submitted and not yet claimed, with each request's own expiry
    /// (deadlines are per-request: the budget starts at submit).
    outstanding: HashMap<u32, Option<Instant>>,
    /// Arrived-but-unclaimed completions, keyed by request id.
    completed: HashMap<u32, Response>,
    /// Ids abandoned by a deadline expiry; their late responses are
    /// discarded on arrival instead of accumulating.
    abandoned: HashSet<u32>,
}

impl TcpStorageClient {
    /// Connects to a server (no deadline: reads block until the server
    /// answers or hangs up).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpStorageClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpStorageClient {
            stream,
            deadline: Deadline::NONE,
            next_id: 1,
            frame: FrameReader::default(),
            send_buf: Vec::new(),
            batch_buf: Vec::new(),
            read_timeout: None,
            outstanding: HashMap::new(),
            completed: HashMap::new(),
            abandoned: HashSet::new(),
        })
    }

    /// Sets the per-request time budget. Every subsequent submit starts a
    /// fresh budget for that request; expiry surfaces as
    /// [`ClientError::DeadlineExceeded`] from the await that hits it.
    pub fn with_deadline(mut self, deadline: Deadline) -> TcpStorageClient {
        self.deadline = deadline;
        self
    }

    /// Encodes `req` into `send_buf` under a fresh request id, and returns
    /// the id.
    fn encode(&mut self, req: &Request) -> u32 {
        let id = self.next_id;
        // Skip the reserved id 0 on wrap.
        self.next_id = self.next_id.checked_add(1).unwrap_or(1);
        wire::encode_request_into(id, req, &mut self.send_buf);
        id
    }

    /// Sends `req` and registers its id as outstanding, its deadline budget
    /// (if any) starting now.
    fn send_framed(&mut self, req: &Request) -> Result<u32, ClientError> {
        let id = self.encode(req);
        write_frame_vectored(&mut self.stream, &self.send_buf)
            .map_err(|_| ClientError::Disconnected)?;
        self.outstanding.insert(id, self.deadline.expiry_from_now());
        Ok(id)
    }

    /// Submits one fetch without waiting, returning the id to await. The
    /// request's deadline budget (if any) starts now.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Disconnected`] on socket failures.
    pub fn submit(&mut self, req: FetchRequest) -> Result<u32, ClientError> {
        self.send_framed(&Request::Fetch(req))
    }

    /// Submits a whole batch of fetches in one write: every frame is
    /// encoded back-to-back into a single buffer and pushed through one
    /// syscall, so a pipelined batch costs one kernel crossing (and one
    /// server wakeup) instead of one per request. Deadline budgets start
    /// when the batch hits the socket.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Disconnected`] on socket failures; no ids
    /// are registered if the batch write fails.
    pub fn submit_all(&mut self, requests: &[FetchRequest]) -> Result<Vec<u32>, ClientError> {
        let mut ids = Vec::with_capacity(requests.len());
        self.batch_buf.clear();
        for req in requests {
            let id = self.encode(&Request::Fetch(*req));
            self.batch_buf.extend_from_slice(&(self.send_buf.len() as u32).to_le_bytes());
            self.batch_buf.extend_from_slice(&self.send_buf);
            ids.push(id);
        }
        self.stream.write_all(&self.batch_buf).map_err(|_| ClientError::Disconnected)?;
        for &id in &ids {
            self.outstanding.insert(id, self.deadline.expiry_from_now());
        }
        Ok(ids)
    }

    /// Number of submitted-but-unclaimed requests on this connection.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Reads one frame, resuming any partial frame from a previous expired
    /// call, giving up when `expiry` passes.
    fn read_frame_within(&mut self, expiry: Option<Instant>) -> Result<Vec<u8>, ClientError> {
        let mut socket =
            BudgetedRead { stream: &self.stream, read_timeout: &mut self.read_timeout, expiry };
        loop {
            match self.frame.poll(&mut socket) {
                ReadStatus::Frame => return Ok(self.frame.take_frame()),
                ReadStatus::WouldBlock if expiry.is_some_and(|at| Instant::now() >= at) => {
                    return Err(ClientError::DeadlineExceeded)
                }
                // The socket timeout ran out a hair before the budget did.
                ReadStatus::WouldBlock => {}
                ReadStatus::Closed => return Err(ClientError::Disconnected),
                ReadStatus::OverCap => {
                    return Err(ClientError::Wire(WireError::Invalid("frame length over cap")))
                }
            }
        }
    }

    /// Receives one framed response.
    fn recv_framed_within(
        &mut self,
        expiry: Option<Instant>,
    ) -> Result<(u32, Response), ClientError> {
        Ok(decode_received(self.read_frame_within(expiry)?)?)
    }

    /// Blocks until the response for `id` arrives, buffering other
    /// completions for their own awaits. On deadline expiry the id is
    /// abandoned: a late response is discarded instead of poisoning a
    /// later exchange.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on socket failures, malformed responses,
    /// deadline expiry, or a server-reported failure for this request.
    pub fn await_response(&mut self, id: u32) -> Result<FetchResponse, ClientError> {
        match self.await_any(id)? {
            Response::Data(d) => Ok(d),
            Response::Error { sample_id, message } => {
                Err(ClientError::Server { sample_id, message })
            }
            Response::Configured => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Claims the raw protocol response for `id`.
    fn await_any(&mut self, id: u32) -> Result<Response, ClientError> {
        loop {
            if let Some(resp) = self.completed.remove(&id) {
                self.outstanding.remove(&id);
                return Ok(resp);
            }
            let expiry = self.outstanding.get(&id).copied().flatten();
            match self.recv_framed_within(expiry) {
                Ok((rid, resp)) => {
                    if self.outstanding.contains_key(&rid) {
                        self.completed.insert(rid, resp);
                    } else {
                        // A stray: either an id abandoned by an expired
                        // await or something the server invented. Drop it.
                        self.abandoned.remove(&rid);
                    }
                }
                Err(ClientError::DeadlineExceeded) => {
                    self.abandon(id);
                    return Err(ClientError::DeadlineExceeded);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Forgets an outstanding id; its late response (if any) is dropped.
    fn abandon(&mut self, id: u32) {
        if self.outstanding.remove(&id).is_some() {
            self.abandoned.insert(id);
        }
        self.completed.remove(&id);
    }

    /// Configures the session pipeline; must precede fetches (configure
    /// is a full round-trip, so the server's session is ready before any
    /// pipelined fetch lands).
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on socket failures, malformed responses, or
    /// server-side errors.
    pub fn configure(
        &mut self,
        dataset_seed: u64,
        pipeline: PipelineSpec,
    ) -> Result<(), ClientError> {
        let id =
            self.send_framed(&Request::Configure(crate::SessionConfig { dataset_seed, pipeline }))?;
        match self.await_any(id)? {
            Response::Configured => Ok(()),
            Response::Error { sample_id, message } => {
                Err(ClientError::Server { sample_id, message })
            }
            Response::Data(_) => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetches one sample with an offload directive.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] on socket failures, malformed responses, or a
    /// server-reported failure for this sample.
    pub fn fetch(
        &mut self,
        sample_id: u64,
        epoch: u64,
        split: SplitPoint,
    ) -> Result<StageData, ClientError> {
        let id = self.submit(FetchRequest::new(sample_id, epoch, split))?;
        Ok(self.await_response(id)?.data)
    }

    /// Fetches with full request control (offload split plus optional
    /// transfer-time re-compression), blocking for the response.
    ///
    /// # Errors
    ///
    /// Same conditions as `fetch`.
    pub fn fetch_request(&mut self, req: FetchRequest) -> Result<FetchResponse, ClientError> {
        let id = self.submit(req)?;
        self.await_response(id)
    }

    /// Pipelined batch fetch with full request control: every request is
    /// submitted before the first response is awaited, so the whole batch
    /// is in flight on one connection at once. Responses return in
    /// request order. On the first failure the batch's remaining ids are
    /// abandoned — late arrivals are discarded, never mis-claimed by a
    /// retry.
    ///
    /// # Errors
    ///
    /// Returns the first failure; [`ClientError::DeadlineExceeded`] when a
    /// request's per-submit budget runs out first.
    pub fn fetch_many_requests(
        &mut self,
        requests: &[FetchRequest],
    ) -> Result<Vec<FetchResponse>, ClientError> {
        let ids = self.submit_all(requests)?;
        let mut out = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            match self.await_response(*id) {
                Ok(resp) => out.push(resp),
                Err(e) => {
                    for rest in &ids[i..] {
                        self.abandon(*rest);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }
}

/// Decodes a response frame as the client received it. The allocation
/// becomes the storage of an encoded payload, which is a slice of it; an
/// image or tensor is copied out, and the allocation dropped.
fn decode_received(frame: Vec<u8>) -> Result<(u32, Response), WireError> {
    wire::decode_response_shared(&Bytes::from(frame))
}

/// The client's socket under one request's expiry: every read first
/// checks the budget and gives the socket what remains of it as its read
/// timeout, so a response trickling in cannot outlast its deadline.
struct BudgetedRead<'a> {
    stream: &'a TcpStream,
    /// The timeout the socket currently has, so it is set again only when
    /// it changes.
    read_timeout: &'a mut Option<Duration>,
    expiry: Option<Instant>,
}

impl Read for BudgetedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = match self.expiry {
            None => None,
            Some(at) => match at.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => Some(left),
                _ => return Err(io::ErrorKind::TimedOut.into()),
            },
        };
        if timeout != *self.read_timeout {
            self.stream.set_read_timeout(timeout)?;
            *self.read_timeout = timeout;
        }
        self.stream.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Bandwidth;

    fn spawn_server(n: u64, cores: usize) -> (TcpStorageServer, datasets::DatasetSpec) {
        let ds = datasets::DatasetSpec::mini(n, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..n);
        let server = TcpStorageServer::bind(
            store,
            ServerConfig {
                cores,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        (server, ds)
    }

    #[test]
    fn fetch_over_real_sockets() {
        let (server, ds) = spawn_server(3, 2);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let raw = client.fetch(0, 0, SplitPoint::NONE).unwrap();
        assert!(raw.as_encoded().is_some());
        let cropped = client.fetch(1, 0, SplitPoint::new(2)).unwrap();
        assert_eq!(cropped.byte_len(), 150_528);
        assert!(server.response_bytes() > 150_528);
        server.shutdown();
    }

    #[test]
    fn pipelined_fetches_over_tcp() {
        let (server, ds) = spawn_server(4, 3);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let reqs: Vec<_> =
            (0..4u64).map(|id| FetchRequest::new(id, 0, SplitPoint::new(2))).collect();
        let responses = client.fetch_many_requests(&reqs).unwrap();
        assert_eq!(responses.len(), 4);
        // Request order, not arrival order.
        let ids: Vec<_> = responses.iter().map(|r| r.sample_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        server.shutdown();
    }

    #[test]
    fn submit_await_multiplexes_out_of_order_claims() {
        let (server, ds) = spawn_server(6, 3);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let ids: Vec<u32> = (0..6u64)
            .map(|s| client.submit(FetchRequest::new(s, 0, SplitPoint::NONE)).unwrap())
            .collect();
        assert_eq!(client.in_flight(), 6);
        // Claim in reverse submission order: muxing must route each id.
        for (i, id) in ids.iter().enumerate().rev() {
            let resp = client.await_response(*id).unwrap();
            assert_eq!(resp.sample_id, i as u64);
        }
        assert_eq!(client.in_flight(), 0);
        server.shutdown();
    }

    #[test]
    fn duplicate_sample_ids_resolve_by_request_id() {
        // The same sample requested twice in one batch: correlation by
        // request id keeps both callers satisfied (by-sample matching
        // could only claim one).
        let (server, ds) = spawn_server(2, 2);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let reqs = vec![
            FetchRequest::new(1, 0, SplitPoint::NONE),
            FetchRequest::new(1, 0, SplitPoint::NONE),
            FetchRequest::new(0, 0, SplitPoint::NONE),
        ];
        let out = client.fetch_many_requests(&reqs).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].sample_id, 1);
        assert_eq!(out[1].sample_id, 1);
        assert_eq!(out[2].sample_id, 0);
        server.shutdown();
    }

    #[test]
    fn two_concurrent_clients() {
        let (server, ds) = spawn_server(2, 2);
        let addr = server.local_addr();
        let seed = ds.seed;
        let threads: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = TcpStorageClient::connect(addr).unwrap();
                    client.configure(seed, PipelineSpec::standard_train()).unwrap();
                    let data = client.fetch(1, 3, SplitPoint::new(2)).unwrap();
                    data.as_image().unwrap().as_raw().to_vec()
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        // Same sample, same epoch, same split: identical bytes for both
        // clients (deterministic near-storage execution).
        assert_eq!(results[0], results[1]);
        server.shutdown();
    }

    #[test]
    fn unconfigured_fetch_errors_over_tcp() {
        let (server, _ds) = spawn_server(1, 1);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        let err = client.fetch(0, 0, SplitPoint::NONE).unwrap_err();
        assert!(err.to_string().contains("not configured"));
        server.shutdown();
    }

    #[test]
    fn unparsable_form_request_is_answered_under_its_own_id() {
        let (server, ds) = spawn_server(1, 1);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        // A raw fetch whose quality byte asks for a re-encode, sealed again
        // under a valid CRC: only the structural parser rejects it.
        let mut frame = Vec::new();
        wire::encode_request_into(
            77,
            &Request::Fetch(FetchRequest::new(0, 0, SplitPoint::NONE)),
            &mut frame,
        );
        let body = frame.len() - 4;
        frame[body - 1] = 85;
        let crc = wire::crc32(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_le_bytes());
        write_frame_vectored(&mut client.stream, &frame).unwrap();
        let (id, response) = decode_received(client.read_frame_within(None).unwrap()).unwrap();
        assert_eq!(id, 77);
        assert!(
            matches!(&response, Response::Error { sample_id: None, message }
                if message.contains("reencode of a raw serve")),
            "{response:?}"
        );
        assert!(client.fetch(0, 0, SplitPoint::NONE).is_ok());
        server.shutdown();
    }

    #[test]
    fn zero_cores_or_zero_in_flight_is_invalid_input() {
        for config in [
            ServerConfig { cores: 0, ..ServerConfig::default() },
            ServerConfig { max_in_flight: 0, ..ServerConfig::default() },
        ] {
            let err =
                TcpStorageServer::bind(ObjectStore::new(), config, "127.0.0.1:0").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{config:?}");
        }
    }

    #[test]
    fn in_flight_bound_applies_backpressure_without_loss() {
        // 4x the per-connection bound submitted at once: the server
        // stops reading past the bound, TCP pushes back, and every
        // response still arrives as earlier ones drain.
        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let server = TcpStorageServer::bind(
            store,
            ServerConfig {
                cores: 2,
                bandwidth: Bandwidth::from_gbps(10.0),
                max_in_flight: 4,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        let reqs: Vec<_> =
            (0..16u64).map(|i| FetchRequest::new(i % 2, i / 2, SplitPoint::NONE)).collect();
        let out = client.fetch_many_requests(&reqs).unwrap();
        assert_eq!(out.len(), 16);
        server.shutdown();
    }

    // -- The event loop, observed through its turn counter ------------------
    //
    // `loop_turns` counts wakes from the readiness wait. No assertion below
    // compares clock readings: a sleep only gives a loop that spins, or
    // ticks, the time to show it on the counter.

    /// A server whose worker pool is the test itself: jobs arrive on the
    /// receiver and [`answer`] replies the way a worker does.
    fn hand_worked_server(
        max_in_flight: usize,
    ) -> (TcpStorageServer, Arc<JobQueue<Job>>, Sender<Reply>) {
        let config = ServerConfig {
            cores: 1,
            bandwidth: Bandwidth::from_gbps(10.0),
            max_in_flight,
            ..ServerConfig::default()
        };
        TcpStorageServer::start_loop(config, "127.0.0.1:0", None).unwrap()
    }

    const ANSWER_BYTES: usize = 64;

    fn answer(server: &TcpStorageServer, reply_tx: &Sender<Reply>, job: &Job) {
        let Request::Fetch(req) = &job.request else { panic!("these tests only fetch") };
        let response = Response::Data(FetchResponse {
            sample_id: req.sample_id,
            form: req.form,
            data: StageData::Encoded(vec![7u8; ANSWER_BYTES].into()),
        });
        let reply = Reply {
            conn: job.conn,
            request_id: job.request_id,
            response,
            fault: None,
            payload_crc: None,
        };
        reply_tx.send(reply).unwrap();
        server.waker.wake();
    }

    fn configured_clients(
        server: &TcpStorageServer,
        ds: &datasets::DatasetSpec,
        n: usize,
    ) -> Vec<TcpStorageClient> {
        (0..n)
            .map(|_| {
                let mut c = TcpStorageClient::connect(server.local_addr()).unwrap();
                c.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
                c
            })
            .collect()
    }

    #[test]
    fn idle_connections_do_not_turn_the_loop() {
        let (server, ds) = spawn_server(1, 1);
        let idle = configured_clients(&server, &ds, 256);
        let before = server.loop_turns();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(server.loop_turns(), before, "an idle server woke up");
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn turns_per_fetch_do_not_grow_with_idle_connections() {
        const FETCHES: u64 = 40;
        // One when all goes well (the request is readable, and the loop
        // answers a raw fetch in that turn), plus writable rounds if a
        // response outgrows the socket buffer.
        const TURNS_PER_FETCH: u64 = 8;
        let (server, ds) = spawn_server(2, 1);
        let mut active = configured_clients(&server, &ds, 1).remove(0);
        let mut turns_for_fetches = || {
            let before = server.loop_turns();
            for i in 0..FETCHES {
                active.fetch(i % 2, i, SplitPoint::NONE).unwrap();
            }
            server.loop_turns() - before
        };
        let alone = turns_for_fetches();
        let idle = configured_clients(&server, &ds, 128);
        let crowded = turns_for_fetches();
        assert!(alone <= TURNS_PER_FETCH * FETCHES, "{alone} turns for {FETCHES} fetches");
        assert!(crowded <= TURNS_PER_FETCH * FETCHES, "{crowded} turns beside 128 idle");
        drop(idle);
        server.shutdown();
    }

    #[test]
    fn connection_parked_at_its_in_flight_bound_does_not_spin() {
        let (server, jobs, replies) = hand_worked_server(2);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        // Offloaded, so each one waits for the hand-worked pool.
        let reqs: Vec<_> = (0..6u64).map(|i| FetchRequest::new(i, 0, SplitPoint::new(2))).collect();
        let ids = client.submit_all(&reqs).unwrap();
        // Two jobs out is the bound: four requests stay unread in the
        // kernel buffer, where a level-triggered set keeps reporting them.
        let mut in_hand = VecDeque::from([jobs.take().unwrap(), jobs.take().unwrap()]);
        let parked = server.loop_turns();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.loop_turns(), parked, "the loop spun on a socket it may not read");
        assert!(jobs.lock().0.is_empty(), "read past the in-flight bound");
        // Each answer frees a slot, and reading resumes where it stopped.
        for _ in 0..reqs.len() {
            let job = in_hand.pop_front().unwrap_or_else(|| jobs.take().unwrap());
            answer(&server, &replies, &job);
        }
        for (id, req) in ids.into_iter().zip(&reqs) {
            assert_eq!(client.await_response(id).unwrap().sample_id, req.sample_id);
        }
        server.shutdown();
    }

    #[test]
    fn delayed_frame_is_released_by_the_timer() {
        use crate::chaos::{FaultKind, FaultPlan, ServerFaultInjector};

        let ds = datasets::DatasetSpec::mini(1, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..1);
        let plan = FaultPlan::quiet(1).script(0, 0, 0, FaultKind::Delay(Duration::from_millis(30)));
        let injector = Arc::new(ServerFaultInjector::new(0, plan));
        let server = TcpStorageServer::bind_with_chaos(
            store,
            ServerConfig {
                cores: 1,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
            Some(Arc::clone(&injector)),
        )
        .unwrap();
        let mut client = configured_clients(&server, &ds, 1).remove(0);
        let before = server.loop_turns();
        // No deadline and no other traffic: once the request is answered,
        // on the loop, only the wait's timeout can end the frame's hold.
        client.fetch(0, 0, SplitPoint::NONE).unwrap();
        let turns = server.loop_turns() - before;
        assert_eq!(injector.log().len(), 1);
        assert!(turns <= 16, "held by a spin, not a timer: {turns} turns");
        server.shutdown();
    }

    #[test]
    fn half_closed_client_gets_its_response_and_is_reaped() {
        let (server, jobs, replies) = hand_worked_server(4);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        let id = client.submit(FetchRequest::new(3, 0, SplitPoint::new(2))).unwrap();
        let job = jobs.take().unwrap();
        let before = server.loop_turns();
        client.stream.shutdown(std::net::Shutdown::Write).unwrap();
        while server.loop_turns() == before {
            std::thread::yield_now(); // until the loop has seen the end of stream
        }
        let parked = server.loop_turns();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.loop_turns(), parked, "the loop spun on an end of stream");
        answer(&server, &replies, &job);
        let resp = client.await_response(id).unwrap();
        assert_eq!((resp.sample_id, resp.data.byte_len()), (3, ANSWER_BYTES as u64));
        // Nothing left to compute or flush: the server drops its end.
        assert!(matches!(client.read_frame_within(None), Err(ClientError::Disconnected)));
        server.shutdown();
    }

    #[test]
    fn raw_fetches_never_cross_the_worker_pool() {
        const N: u64 = 6;
        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let server = TcpStorageServer::bind(
            store.clone(),
            ServerConfig { cores: 1, bandwidth: Bandwidth::from_gbps(10.0), ..Default::default() },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = configured_clients(&server, &ds, 1).remove(0);
        assert_eq!(server.pool_jobs(), 1, "the configure is the pool's one job so far");
        for i in 0..N {
            let whole = client.fetch(i % 2, i, SplitPoint::NONE).unwrap();
            assert_eq!(whole.as_encoded().unwrap(), &store.get(i % 2).unwrap()[..]);
        }
        assert_eq!(server.pool_jobs(), 1, "a raw fetch crossed the pool");
        for i in 0..N {
            client.fetch(i % 2, i, SplitPoint::new(2)).unwrap();
        }
        assert_eq!(server.pool_jobs(), 1 + N, "one pool job per offloaded fetch");
        server.shutdown();
    }

    #[test]
    fn the_meter_counts_every_response_a_client_holds() {
        // Read right after each response arrives, with nothing else in
        // flight, the meter must already hold that response's frame.
        const FETCHES: u64 = 200;
        let ds = datasets::DatasetSpec::mini(1, 62);
        let server = TcpStorageServer::bind(
            ObjectStore::materialize_dataset(&ds, 0..1),
            ServerConfig { cores: 1, bandwidth: Bandwidth::from_gbps(10.0), ..Default::default() },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = configured_clients(&server, &ds, 1).remove(0);
        let configured = server.meter().snapshot("node");
        assert_eq!(configured.messages, 1, "the configure reply");
        let mut frame = 0;
        for i in 1..=FETCHES {
            client.fetch(0, i, SplitPoint::NONE).unwrap();
            let read = server.meter().snapshot("node");
            assert_eq!(read.messages - configured.messages, i, "fetch {i}");
            if i == 1 {
                frame = read.bytes - configured.bytes;
            }
            assert_eq!(read.bytes - configured.bytes, i * frame, "fetch {i}");
        }
        server.shutdown();
    }

    /// A one-core hand-worked server whose connection `client` is
    /// configured from `store`, the test answering the `Configure` job.
    fn hand_configured(
        store: &ObjectStore,
        seed: u64,
    ) -> (TcpStorageServer, Arc<JobQueue<Job>>, Sender<Reply>, TcpStorageClient) {
        let (server, jobs, replies) = hand_worked_server(8);
        // The deadline only bounds a failure: a request that waits for the
        // pool waits for the test, which may never answer it.
        let mut client = TcpStorageClient::connect(server.local_addr())
            .unwrap()
            .with_deadline(Deadline::after(Duration::from_secs(10)));
        let config =
            crate::SessionConfig { dataset_seed: seed, pipeline: PipelineSpec::standard_train() };
        let configure = client.send_framed(&Request::Configure(config)).unwrap();
        replies.send(run_job(jobs.take().unwrap(), store, None)).unwrap();
        server.waker.wake();
        assert_eq!(client.await_any(configure).unwrap(), Response::Configured);
        (server, jobs, replies, client)
    }

    #[test]
    fn raw_fetch_is_answered_while_the_pool_is_full() {
        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let (server, jobs, replies, mut client) = hand_configured(&store, ds.seed);
        // One core: a pool of `dispatch_cap` = 2 jobs, one with the
        // worker (the test) and one queued behind it.
        let offloaded: Vec<u32> = (0..2)
            .map(|i| client.submit(FetchRequest::new(i, 0, SplitPoint::new(2))).unwrap())
            .collect();
        let held = jobs.take().unwrap();
        let raw = client.fetch(0, 0, SplitPoint::NONE).unwrap();
        assert_eq!(raw.as_encoded().unwrap(), &store.get(0).unwrap()[..]);
        assert_eq!(server.pool_jobs(), 3, "only the configure and the offloaded fetches");
        // A third offloaded fetch finds the pool full and waits for a slot;
        // the raw fetch behind it waits with it, and both go once one
        // offloaded reply frees a slot.
        let third = client.submit(FetchRequest::new(1, 1, SplitPoint::new(2))).unwrap();
        let behind = client.submit(FetchRequest::new(1, 1, SplitPoint::NONE)).unwrap();
        // Both read (the configure, two offloaded fetches and a raw one
        // before them) before a slot frees, so the third one parks.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.requests() < 6 {
            assert!(Instant::now() < deadline, "the loop never read the last two requests");
            std::thread::sleep(Duration::from_millis(1));
        }
        answer(&server, &replies, &held);
        assert_eq!(client.await_response(behind).unwrap().sample_id, 1);
        assert_eq!(server.pool_jobs(), 4, "the parked fetch entered the pool");
        for _ in 0..2 {
            answer(&server, &replies, &jobs.take().unwrap());
        }
        for id in offloaded.into_iter().chain([third]) {
            assert_eq!(client.await_response(id).unwrap().data.byte_len(), ANSWER_BYTES as u64);
        }
        server.shutdown();
    }

    #[test]
    fn a_raw_fetch_sent_before_the_configured_reply_may_find_no_session() {
        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let (server, jobs, replies) = hand_worked_server(8);
        let mut client = TcpStorageClient::connect(server.local_addr())
            .unwrap()
            .with_deadline(Deadline::after(Duration::from_secs(10)));
        let config = crate::SessionConfig {
            dataset_seed: ds.seed,
            pipeline: PipelineSpec::standard_train(),
        };
        let configure = client.send_framed(&Request::Configure(config)).unwrap();
        // Pipelined behind the configure, which the pool (the test) holds:
        // the loop answers the raw fetch at once, from no session.
        let err = client.fetch(0, 0, SplitPoint::NONE).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server { message, .. } if message == "session not configured"),
            "{err:?}"
        );
        replies.send(run_job(jobs.take().unwrap(), &store, None)).unwrap();
        server.waker.wake();
        assert_eq!(client.await_any(configure).unwrap(), Response::Configured);
        assert!(client.fetch(0, 0, SplitPoint::NONE).is_ok());
        server.shutdown();
    }

    #[test]
    fn a_client_that_never_reads_holds_at_most_its_bound_of_responses() {
        const BOUND: usize = 4;
        const SUBMITTED: u64 = 200;
        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        let server = TcpStorageServer::bind(
            store,
            ServerConfig {
                cores: 1,
                bandwidth: Bandwidth::from_gbps(10.0),
                max_in_flight: BOUND,
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
        )
        .unwrap();
        let mut client = configured_clients(&server, &ds, 1).remove(0);
        // Every offloaded response of this pipeline is one 224x224 raster
        // frame, so the bytes on the wire count the frames that left.
        let frame_len = |response: &Response| {
            let mut frame = Vec::new();
            wire::encode_response_into(0, response, &mut frame);
            frame.len() as u64
        };
        let configured = frame_len(&Response::Configured);
        let frame = frame_len(&data_response(StageData::Image(imagery::RasterImage::filled(
            224,
            224,
            imagery::Rgb::gray(0),
        ))));
        let admitted = || server.requests();
        let admitted_before = admitted();
        let reqs: Vec<_> =
            (0..SUBMITTED).map(|i| FetchRequest::new(i % 2, i, SplitPoint::new(2))).collect();
        let ids = client.submit_all(&reqs).unwrap();
        // Until the loop stands still: socket buffers full, reading stopped.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut last = server.loop_turns();
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let now = server.loop_turns();
            if now == last {
                break;
            }
            assert!(Instant::now() < deadline, "the loop never settled");
            last = now;
        }
        // The meter counts a frame for the write that may complete it and
        // takes it back when that write stops short: read once the loop
        // stands still, with no write under way.
        let taken = admitted() - admitted_before;
        let sent = server.response_bytes() - configured;
        assert_eq!(sent % frame, 0, "{sent} bytes are not whole frames of {frame}");
        assert!(taken < SUBMITTED, "read all {SUBMITTED} requests from a client that never reads");
        // What was read and not handed whole to the kernel is held here.
        assert_eq!(taken - sent / frame, BOUND as u64, "{taken} admitted, {sent} bytes sent");
        for (id, req) in ids.into_iter().zip(&reqs) {
            assert_eq!(client.await_response(id).unwrap().sample_id, req.sample_id);
        }
        assert_eq!(admitted() - admitted_before, SUBMITTED);
        server.shutdown();
    }

    #[test]
    fn shutdown_body_is_a_bad_request_and_serving_goes_on() {
        let (server, ds) = spawn_server(1, 1);
        let mut other = configured_clients(&server, &ds, 1).remove(0);
        let mut sender = TcpStorageClient::connect(server.local_addr()).unwrap();
        // The retired `0x03` body, sealed like any request under request
        // id 9.
        let mut body = vec![wire::WIRE_VERSION];
        body.extend_from_slice(&9u32.to_le_bytes());
        body.push(0x03);
        let crc = wire::crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        write_frame_vectored(&mut sender.stream, &body).unwrap();
        let (id, response) = decode_received(sender.read_frame_within(None).unwrap()).unwrap();
        assert_eq!(id, 9);
        assert!(
            matches!(&response, Response::Error { sample_id: None, message }
                if message.starts_with("bad request")),
            "{response:?}"
        );
        assert!(other.fetch(0, 0, SplitPoint::NONE).is_ok());
        sender.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        assert!(sender.fetch(0, 1, SplitPoint::new(2)).is_ok());
        server.shutdown();
    }

    #[test]
    fn chaos_on_a_raw_fetch_looks_as_it_does_on_an_offloaded_one() {
        use crate::chaos::{FaultKind, FaultPlan, ServerFaultInjector};

        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        for kind in [FaultKind::Error, FaultKind::Drop, FaultKind::Truncate, FaultKind::BitFlip] {
            // Sample 0's first response is served raw, sample 1's offloaded.
            let plan = FaultPlan::quiet(3).script(0, 0, 0, kind).script(1, 0, 0, kind);
            let injector = Arc::new(ServerFaultInjector::new(0, plan));
            let server = TcpStorageServer::bind_with_chaos(
                store.clone(),
                ServerConfig {
                    cores: 1,
                    bandwidth: Bandwidth::from_gbps(10.0),
                    ..ServerConfig::default()
                },
                "127.0.0.1:0",
                Some(Arc::clone(&injector)),
            )
            .unwrap();
            let seen = |sample: u64, split: SplitPoint| {
                let mut client = TcpStorageClient::connect(server.local_addr())
                    .unwrap()
                    .with_deadline(Deadline::after(Duration::from_millis(300)));
                client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
                let err = client.fetch(sample, 0, split).unwrap_err();
                // The fault was the first attempt's only: a retry is clean.
                client.fetch(sample, 0, split).unwrap();
                err
            };
            let raw = seen(0, SplitPoint::NONE);
            let jobs_before_offloaded = server.pool_jobs();
            let offloaded = seen(1, SplitPoint::new(2));
            let name = kind.name();
            match (&raw, &offloaded) {
                (
                    ClientError::Server { message: raw_msg, .. },
                    ClientError::Server { message: off_msg, .. },
                ) => assert_eq!(raw_msg, off_msg, "{name}"),
                _ => assert_eq!(raw, offloaded, "{name}"),
            }
            assert_eq!(injector.log().len(), 2, "{name}: one fault per scripted response");
            // The configure, the faulted fetch and its retry.
            assert_eq!(server.pool_jobs() - jobs_before_offloaded, 3, "{name}");
            assert_eq!(jobs_before_offloaded, 1, "{name}: only the configure crossed the pool");
            server.shutdown();
        }
    }

    #[test]
    fn teardown_wakes_an_idle_loop() {
        // A loop blocked with no timeout leaves `shutdown` hanging in its
        // join, and a dropped server's connections open, unless woken.
        let (server, _ds) = spawn_server(1, 2);
        let _idle = TcpStorageClient::connect(server.local_addr()).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            done_tx.send(()).unwrap();
        });
        done_rx.recv_timeout(Duration::from_secs(30)).expect("shutdown of an idle server hung");

        let (server, _ds) = spawn_server(1, 1);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        drop(server);
        assert!(matches!(client.read_frame_within(None), Err(ClientError::Disconnected)));
    }

    #[test]
    fn shared_job_queue_hands_out_work_while_a_job_is_held() {
        const WAIT: Duration = Duration::from_secs(30);
        let jobs = Arc::new(JobQueue::new());
        let (took_tx, took) = mpsc::channel::<(char, Option<u32>)>();
        let (release_tx, release) = mpsc::channel::<()>();
        // Each worker reports every job it takes, and `None` when its loop
        // ends; A holds its first job until released.
        let worker = |name: char, hold: Option<Receiver<()>>| {
            let jobs = Arc::clone(&jobs);
            let took = took_tx.clone();
            std::thread::spawn(move || {
                while let Some(job) = jobs.take() {
                    took.send((name, Some(job))).unwrap();
                    if let Some(hold) = &hold {
                        hold.recv().unwrap();
                    }
                }
                took.send((name, None)).unwrap();
            })
        };
        let a = worker('A', Some(release));
        jobs.push(1);
        assert_eq!(took.recv_timeout(WAIT), Ok(('A', Some(1))));
        let b = worker('B', None);
        // Pushed from another thread: a queue locked while A holds its job
        // would block the push, and this test must fail, not hang.
        let pusher = {
            let jobs = Arc::clone(&jobs);
            std::thread::spawn(move || jobs.push(2))
        };
        assert_eq!(took.recv_timeout(WAIT), Ok(('B', Some(2))), "B waited for A's job");
        pusher.join().unwrap();
        release_tx.send(()).unwrap();
        // Closing the queue, as dropping the event loop does, ends both
        // loops.
        jobs.close();
        let mut ended = [took.recv_timeout(WAIT).unwrap(), took.recv_timeout(WAIT).unwrap()];
        ended.sort_unstable();
        assert_eq!(ended, [('A', None), ('B', None)]);
        a.join().unwrap();
        b.join().unwrap();
    }

    #[test]
    fn client_sets_the_read_timeout_only_when_it_changes() {
        let (server, ds) = spawn_server(1, 1);
        let mut client = configured_clients(&server, &ds, 1).remove(0);
        client.fetch(0, 0, SplitPoint::NONE).unwrap();
        assert_eq!(client.read_timeout, None, "no deadline, so never set");
        assert_eq!(client.stream.read_timeout().unwrap(), None);
        client.deadline = Deadline::after(Duration::from_secs(5));
        client.fetch(0, 1, SplitPoint::NONE).unwrap();
        assert!(client.read_timeout.is_some() && client.stream.read_timeout().unwrap().is_some());
        // Back to blocking reads: the remembered value tracks the socket.
        client.deadline = Deadline::NONE;
        client.fetch(0, 2, SplitPoint::NONE).unwrap();
        assert_eq!(client.stream.read_timeout().unwrap(), None);
        server.shutdown();
    }

    // -- The frame reader, alone and at each end of a connection -----------

    /// `payload` behind its length prefix, as it goes on the wire.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame_vectored(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frame_roundtrip_and_cap() {
        let bytes = framed(b"hello frame");
        assert_eq!(bytes[..4], 11u32.to_le_bytes());
        let mut reader = FrameReader::default();
        assert_eq!(reader.poll(&mut &bytes[..]), ReadStatus::Frame);
        assert_eq!(reader.take_frame(), b"hello frame");
        // An over-cap declared length is refused before any allocation.
        let mut reader = FrameReader::default();
        let prefix = (wire::MAX_PAYLOAD + 1).to_le_bytes();
        assert_eq!(reader.poll(&mut &prefix[..]), ReadStatus::OverCap);
        assert_eq!(reader.payload.capacity(), 0);
        // Oversized outbound payloads error instead of panicking.
        let big = vec![0u8; (wire::MAX_PAYLOAD as usize) + 1];
        assert!(write_frame_vectored(&mut Vec::new(), &big).is_err());
    }

    #[test]
    fn each_frame_gets_one_allocation_of_exactly_its_length() {
        let long = vec![0xab; 4096];
        let mut stream = framed(&long);
        for i in 0..50u8 {
            stream.extend(framed(&[i; 8]));
        }
        let mut cursor = &stream[..];
        let mut reader = FrameReader::default();
        assert_eq!(reader.poll(&mut cursor), ReadStatus::Frame);
        let frame = reader.take_frame();
        assert_eq!((&frame[..], frame.capacity()), (&long[..], long.len()));
        // Nothing of the long frame is kept for the short ones.
        assert_eq!(reader.payload.capacity(), 0);
        for i in 0..50u8 {
            assert_eq!(reader.poll(&mut cursor), ReadStatus::Frame);
            let frame = reader.take_frame();
            assert_eq!((&frame[..], frame.capacity()), (&[i; 8][..], 8));
        }
        assert_eq!(reader.poll(&mut cursor), ReadStatus::Closed);
    }

    /// Hands out up to `chunk` bytes per read, each read behind a stall
    /// that alternates between `WouldBlock` (a nonblocking socket) and
    /// `TimedOut` (a socket read timeout).
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
        at: usize,
        stalls: usize,
        stalled: bool,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], chunk: usize) -> Trickle<'a> {
            Trickle { bytes, chunk, at: 0, stalls: 0, stalled: false }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.stalled = !self.stalled;
            if self.stalled {
                self.stalls += 1;
                let kind = if self.stalls.is_multiple_of(2) {
                    io::ErrorKind::WouldBlock
                } else {
                    io::ErrorKind::TimedOut
                };
                return Err(kind.into());
            }
            let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_delivered_one_byte_per_read_resumes_across_stalls() {
        let mut bytes = framed(b"first frame");
        bytes.extend(framed(b"2nd"));
        let mut trickle = Trickle::new(&bytes, 1);
        let mut reader = FrameReader::default();
        for want in [&b"first frame"[..], b"2nd"] {
            let mut stalls = 0;
            let status = loop {
                match reader.poll(&mut trickle) {
                    ReadStatus::WouldBlock => stalls += 1,
                    other => break other,
                }
            };
            assert_eq!(status, ReadStatus::Frame);
            assert_eq!(reader.take_frame(), want);
            assert_eq!(stalls, 4 + want.len(), "one stall before every byte");
        }
        assert_eq!(reader.poll(&mut trickle), ReadStatus::WouldBlock);
        assert_eq!(reader.poll(&mut trickle), ReadStatus::Closed);
    }

    /// `payload` framed, then read back from a [`Trickle`] of `chunk`-byte
    /// reads. After every stall the frame's allocation is checked to stay
    /// within the frame and within one growth step of what has arrived.
    fn read_in_chunks(payload: &[u8], chunk: usize) -> Vec<u8> {
        let bytes = framed(payload);
        let mut trickle = Trickle::new(&bytes, chunk);
        let mut reader = FrameReader::default();
        loop {
            match reader.poll(&mut trickle) {
                ReadStatus::WouldBlock => {
                    let (got, cap) = (reader.payload.len(), reader.payload.capacity());
                    assert!(
                        cap <= payload.len(),
                        "{cap} reserved for a {}-byte frame",
                        payload.len()
                    );
                    let ahead = if got == 0 { 0 } else { got.max(READ_STEP) };
                    assert!(cap <= got + ahead, "{cap} reserved with {got} arrived");
                }
                ReadStatus::Frame => {
                    let frame = reader.take_frame();
                    assert_eq!(frame.capacity(), frame.len(), "chunks of {chunk}");
                    return frame;
                }
                other => panic!("chunks of {chunk}: {other:?}"),
            }
        }
    }

    /// A response frame, as the server encodes it.
    fn response_frame(id: u32, response: &Response) -> Vec<u8> {
        let mut frame = Vec::new();
        wire::encode_response_into(id, response, &mut frame);
        frame
    }

    fn data_response(data: StageData) -> Response {
        Response::Data(FetchResponse { sample_id: 41, form: SplitPoint::new(2).into(), data })
    }

    /// Deterministic bytes with no short period.
    fn blob(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 57) as u8).collect()
    }

    #[test]
    fn frames_read_in_chunks_of_every_size_decode_as_one_shot_reads_do() {
        let img = imagery::RasterImage::filled(7, 5, imagery::Rgb::new(9, 8, 7));
        let tensor = imagery::Tensor::from_image(&imagery::RasterImage::filled(
            4,
            3,
            imagery::Rgb::gray(200),
        ));
        let responses = [
            ("raw", data_response(StageData::Encoded(blob(700).into()))),
            ("image", data_response(StageData::Image(img))),
            ("tensor", data_response(StageData::Tensor(tensor))),
            ("error", Response::Error { sample_id: Some(3), message: "unknown sample 3".into() }),
        ];
        for (kind, response) in &responses {
            let frame = response_frame(77, response);
            let want = decode_received(read_in_chunks(&frame, frame.len() + 4)).unwrap();
            assert_eq!(&want, &(77, response.clone()), "{kind}, one shot");
            for chunk in 1..=frame.len() + 4 {
                let got = decode_received(read_in_chunks(&frame, chunk)).unwrap();
                assert_eq!(got, want, "{kind}, chunks of {chunk}");
            }
        }
        let form = ServeForm::Prefix { split: SplitPoint::new(2), reencode: Some(70) };
        let request = Request::Fetch(FetchRequest { sample_id: 5, epoch: 2, form });
        let mut frame = Vec::new();
        wire::encode_request_into(9, &request, &mut frame);
        let want = wire::decode_request_framed(&read_in_chunks(&frame, frame.len() + 4)).unwrap();
        assert_eq!(want, (9, request));
        for chunk in 1..=frame.len() + 4 {
            let got = wire::decode_request_framed(&read_in_chunks(&frame, chunk)).unwrap();
            assert_eq!(got, want, "request, chunks of {chunk}");
        }
    }

    #[test]
    fn a_frame_longer_than_a_step_grows_its_allocation_with_the_bytes() {
        let response = data_response(StageData::Encoded(blob(3 * READ_STEP + 17).into()));
        let frame = response_frame(5, &response);
        for chunk in [4093, 65_536, READ_STEP + 1, frame.len() + 4] {
            let (id, got) = decode_received(read_in_chunks(&frame, chunk)).unwrap();
            assert_eq!((id, &got), (5, &response), "chunks of {chunk}");
        }
    }

    #[test]
    fn over_cap_prefix_fails_before_any_allocation_at_every_chunk_size() {
        let mut bytes = (wire::MAX_PAYLOAD + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0x5a; 64]);
        for chunk in 1..=bytes.len() {
            let mut trickle = Trickle::new(&bytes, chunk);
            let mut reader = FrameReader::default();
            let status = loop {
                match reader.poll(&mut trickle) {
                    ReadStatus::WouldBlock => {}
                    other => break other,
                }
            };
            assert_eq!(status, ReadStatus::OverCap, "chunks of {chunk}");
            assert_eq!(reader.payload.capacity(), 0, "chunks of {chunk}");
        }
    }

    #[test]
    fn client_raw_payload_lies_inside_the_one_allocation_it_received() {
        let stored = Bytes::from(blob(150_000));
        let frame = response_frame(8, &data_response(StageData::Encoded(stored.clone())));
        let mut reader = FrameReader::default();
        let wire_bytes = framed(&frame);
        assert_eq!(reader.poll(&mut &wire_bytes[..]), ReadStatus::Frame);
        let received = reader.take_frame();
        assert_eq!(received.capacity(), frame.len(), "one allocation of exactly the frame");
        let (start, end) =
            (received.as_ptr() as usize, received.as_ptr() as usize + received.len());
        let (_, response) = decode_received(received).unwrap();
        let Response::Data(FetchResponse { data: StageData::Encoded(payload), .. }) = response
        else {
            panic!("a raw response decodes to an encoded payload")
        };
        assert_eq!(payload, stored);
        let at = payload.as_ptr() as usize;
        assert!(start < at && at + payload.len() < end, "payload copied out of the frame");
    }

    #[test]
    fn client_keeps_no_payload_buffer_after_a_large_fetch() {
        let object = Bytes::from(blob(400_000));
        let store = ObjectStore::from_objects([(0, object.clone())]);
        let server = TcpStorageServer::bind(store, ServerConfig::default(), "127.0.0.1:0").unwrap();
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        client.configure(61, PipelineSpec::standard_train()).unwrap();
        let data = client.fetch(0, 0, SplitPoint::NONE).unwrap();
        assert_eq!(data.as_encoded(), Some(&object[..]));
        assert_eq!(client.frame.payload.capacity(), 0, "the client kept a receive buffer");
        server.shutdown();
    }

    #[test]
    fn server_sends_the_stored_object_as_the_frame_body() {
        let ds = datasets::DatasetSpec::mini(1, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..1);
        let stored = store.get(0).unwrap();
        let executor = NearStorageExecutor::new(
            store,
            crate::SessionConfig {
                dataset_seed: ds.seed,
                pipeline: PipelineSpec::standard_train(),
            },
        );
        let response =
            Response::Data(executor.execute(FetchRequest::new(0, 0, SplitPoint::NONE)).unwrap());
        // As the loop queues a raw serve: with the stored object's CRC.
        let out = OutFrame {
            request_id: 3,
            response,
            fault: None,
            payload_crc: Some(wire::crc32(&stored)),
            not_before: Instant::now(),
        };
        let frame = WireFrame::encode(&out, Vec::new());
        assert_eq!(frame.body.as_ref().map(|(b, _)| b.as_ptr()), Some(stored.as_ptr()));
        let glued = response_frame(3, &out.response);
        assert_eq!(frame.payload_len(), glued.len());
        assert!(frame.head.len() < 32, "the head carries no payload bytes");
        let crc = frame.body.as_ref().map(|(_, crc)| *crc);
        assert_eq!(crc.as_ref().map(|c| &c[..]), Some(&glued[glued.len() - 4..]));
        // A bit-flip fault mutates a glued copy, leaving the store alone.
        let flipped =
            OutFrame { fault: Some(FaultDirective { kind: FaultKind::BitFlip, salt: 5 }), ..out };
        let frame = WireFrame::encode(&flipped, Vec::new());
        assert!(frame.body.is_none());
        assert_eq!(frame.head.len(), glued.len());
        assert_ne!(frame.head, glued);
    }

    /// Takes at most `chunk` bytes per vectored write, across the slices it
    /// is offered, and returns `WouldBlock` before every write.
    struct Choppy {
        out: Vec<u8>,
        chunk: usize,
        blocked: bool,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let mut left = self.chunk;
            for buf in bufs {
                let n = left.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.chunk - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_in_parts_resumes_across_would_block_at_every_write_size() {
        let responses = [data_response(StageData::Encoded(blob(300).into())), Response::Configured];
        for response in responses {
            let out = OutFrame {
                request_id: 12,
                response,
                fault: None,
                payload_crc: None,
                not_before: Instant::now(),
            };
            let want = framed(&response_frame(12, &out.response));
            for chunk in 1..=want.len() {
                let mut frame = WireFrame::encode(&out, Vec::new());
                let mut socket = Choppy { out: Vec::new(), chunk, blocked: false };
                while let Err(e) = frame.send(&mut socket) {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                }
                assert_eq!(socket.out, want, "writes of {chunk}");
                assert_eq!(frame.written, want.len());
            }
        }
    }

    #[test]
    fn bare_max_length_headers_pin_no_payload_memory_at_the_server() {
        let config = ServerConfig { cores: 1, ..ServerConfig::default() };
        let (mut el, _jobs, _replies) = EventLoop::bind(config, "127.0.0.1:0", None).unwrap();
        let addr = el.listener.local_addr().unwrap();
        let mut peers: Vec<TcpStream> = (0..64)
            .map(|_| {
                let mut peer = TcpStream::connect(addr).unwrap();
                peer.write_all(&wire::MAX_PAYLOAD.to_le_bytes()).unwrap();
                peer
            })
            .collect();
        let mut events = Events::with_capacity(EVENT_BATCH);
        let give_up = Instant::now() + Duration::from_secs(30);
        let mut turn_until = |el: &mut EventLoop, done: &dyn Fn(&EventLoop) -> bool| {
            while !done(el) {
                assert!(Instant::now() < give_up, "the loop never read what was sent");
                el.turn(&mut events, Some(Instant::now() + Duration::from_millis(10)));
            }
        };
        turn_until(&mut el, &|el| {
            el.conns.len() == 64 && el.conns.values().all(|c| c.reader.expect.is_some())
        });
        for conn in el.conns.values() {
            assert_eq!(conn.reader.payload.capacity(), 0, "a bare header reserved memory");
        }
        // Then memory follows the bytes that arrive, a step ahead at most.
        peers[0].write_all(&vec![0u8; READ_STEP + 1]).unwrap();
        turn_until(&mut el, &|el| {
            el.conns.values().any(|c| c.reader.payload.len() == READ_STEP + 1)
        });
        let grown = el.conns.values().map(|c| c.reader.payload.capacity()).max().unwrap();
        assert_eq!(grown, 2 * READ_STEP);
    }

    #[test]
    fn bare_max_length_header_pins_no_payload_memory_at_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStorageClient::connect(listener.local_addr().unwrap())
            .unwrap()
            .with_deadline(Deadline::after(Duration::from_millis(100)));
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(&wire::MAX_PAYLOAD.to_le_bytes()).unwrap();
        let err = client.fetch(0, 0, SplitPoint::NONE).unwrap_err();
        assert_eq!(err, ClientError::DeadlineExceeded);
        assert_eq!(client.frame.expect, Some(wire::MAX_PAYLOAD as usize));
        assert_eq!(client.frame.payload.capacity(), 0, "a bare header reserved memory");
    }

    #[test]
    fn frame_cut_by_a_client_deadline_resumes_on_the_next_await() {
        const LEN: usize = 1000;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStorageClient::connect(listener.local_addr().unwrap())
            .unwrap()
            .with_deadline(Deadline::after(Duration::from_millis(50)));
        let (expired_tx, expired_rx) = std::sync::mpsc::channel();
        // A hand-written server: it answers each fetch with LEN copies of
        // the sample id's low byte.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::default();
            let mut answer_next = |stream: &mut TcpStream| {
                assert_eq!(reader.poll(stream), ReadStatus::Frame);
                let (id, request) = wire::decode_request_framed(&reader.take_frame()).unwrap();
                let Request::Fetch(req) = request else { panic!("only fetches here") };
                let data = StageData::Encoded(vec![req.sample_id as u8; LEN].into());
                let response = Response::Data(FetchResponse {
                    sample_id: req.sample_id,
                    form: req.form,
                    data,
                });
                let mut payload = Vec::new();
                wire::encode_response_into(id, &response, &mut payload);
                framed(&payload)
            };
            let first = answer_next(&mut stream);
            let cut = first.len() / 2;
            stream.write_all(&first[..cut]).unwrap();
            expired_rx.recv().unwrap();
            let second = answer_next(&mut stream);
            for b in first[cut..].iter().chain(&second) {
                stream.write_all(&[*b]).unwrap();
            }
        });
        // Half of sample 1's frame arrives, then nothing until the budget
        // is gone.
        assert_eq!(
            client.fetch(1, 0, SplitPoint::NONE).unwrap_err(),
            ClientError::DeadlineExceeded
        );
        expired_tx.send(()).unwrap();
        client.deadline = Deadline::NONE;
        // The rest of sample 1's frame comes first, a byte at a time: it is
        // read from where the deadline cut it, discarded as abandoned, and
        // sample 2's frame decodes right after it.
        let data = client.fetch(2, 0, SplitPoint::NONE).unwrap();
        assert_eq!(data.as_encoded().unwrap()[..], [2u8; LEN][..]);
        peer.join().unwrap();
    }

    #[test]
    fn short_frame_after_a_long_one_decodes_exactly_at_both_ends() {
        let (server, ds) = spawn_server(1, 1);
        let mut client = TcpStorageClient::connect(server.local_addr()).unwrap();
        // Server end: 4 KB of junk, then a configure frame of a few dozen
        // bytes through the same scratch. The junk's error reply carries id
        // 0, which this client never issued and so discards.
        client.stream.write_all(&framed(&[0x5a; 4096])).unwrap();
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();
        // Client end: a 150 KB tensor, then a short error reply.
        assert_eq!(client.fetch(0, 0, SplitPoint::new(2)).unwrap().byte_len(), 150_528);
        let err = client.fetch(9, 0, SplitPoint::NONE).unwrap_err();
        assert!(matches!(err, ClientError::Server { sample_id: Some(9), .. }), "{err:?}");
        server.shutdown();
    }

    #[test]
    fn over_cap_prefix_closes_only_that_server_connection() {
        let (server, ds) = spawn_server(1, 1);
        let mut healthy = configured_clients(&server, &ds, 1).remove(0);
        let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
        hostile.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        hostile.write_all(&(wire::MAX_PAYLOAD + 1).to_le_bytes()).unwrap();
        // Nothing in flight, so the server stops reading and hangs up.
        assert_eq!(hostile.read(&mut [0u8; 16]).unwrap(), 0, "connection left open");
        assert!(healthy.fetch(0, 0, SplitPoint::NONE).is_ok());
        server.shutdown();
    }

    #[test]
    fn over_cap_prefix_is_a_typed_error_at_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStorageClient::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(&(wire::MAX_PAYLOAD + 1).to_le_bytes()).unwrap();
        let err = client.fetch(0, 0, SplitPoint::NONE).unwrap_err();
        assert_eq!(err, ClientError::Wire(WireError::Invalid("frame length over cap")));
    }

    #[test]
    fn dropped_response_times_out_and_retry_recovers() {
        use crate::chaos::{FaultKind, FaultPlan, ServerFaultInjector};

        let ds = datasets::DatasetSpec::mini(2, 61);
        let store = ObjectStore::materialize_dataset(&ds, 0..2);
        // Drop sample 0's first response; everything else is clean.
        let plan = FaultPlan::quiet(1).script(0, 0, 0, FaultKind::Drop);
        let injector = Arc::new(ServerFaultInjector::new(0, plan));
        let server = TcpStorageServer::bind_with_chaos(
            store,
            ServerConfig {
                cores: 2,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
            Some(Arc::clone(&injector)),
        )
        .unwrap();
        let mut client = TcpStorageClient::connect(server.local_addr())
            .unwrap()
            .with_deadline(Deadline::after(Duration::from_millis(300)));
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();

        let reqs = vec![FetchRequest::new(0, 0, SplitPoint::NONE)];
        let err = client.fetch_many_requests(&reqs).unwrap_err();
        assert!(matches!(err, ClientError::DeadlineExceeded), "{err:?}");
        // Attempt 1 is clean: the same connection recovers.
        assert_eq!(client.fetch_many_requests(&reqs).unwrap().len(), 1);
        assert_eq!(injector.log().len(), 1);
        server.shutdown();
    }

    #[test]
    fn bit_flipped_response_surfaces_as_corrupted() {
        use crate::chaos::{FaultKind, FaultPlan, ServerFaultInjector};

        let ds = datasets::DatasetSpec::mini(1, 62);
        let store = ObjectStore::materialize_dataset(&ds, 0..1);
        let plan = FaultPlan::quiet(2).script(0, 0, 0, FaultKind::BitFlip);
        let injector = Arc::new(ServerFaultInjector::new(0, plan));
        let server = TcpStorageServer::bind_with_chaos(
            store,
            ServerConfig {
                cores: 1,
                bandwidth: Bandwidth::from_gbps(10.0),
                ..ServerConfig::default()
            },
            "127.0.0.1:0",
            Some(injector),
        )
        .unwrap();
        let mut client = TcpStorageClient::connect(server.local_addr())
            .unwrap()
            .with_deadline(Deadline::after(Duration::from_secs(2)));
        client.configure(ds.seed, PipelineSpec::standard_train()).unwrap();

        let reqs = vec![FetchRequest::new(0, 0, SplitPoint::NONE)];
        let err = client.fetch_many_requests(&reqs).unwrap_err();
        assert!(matches!(err, ClientError::Corrupted), "{err:?}");
        assert_eq!(client.fetch_many_requests(&reqs).unwrap().len(), 1);
        server.shutdown();
    }
}
