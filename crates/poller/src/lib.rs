//! Readiness polling for the serving path: a safe wrapper over Linux
//! `epoll` and `eventfd`, std only.
//!
//! The storage server's event loop blocks in [`Poller::wait`] until a
//! registered socket is ready, a [`Waker`] is signalled from another thread,
//! or a timeout with nanosecond resolution runs out. Registration is
//! level-triggered: a descriptor keeps reporting while the condition holds,
//! so the caller states what it is waiting for through [`Interest`] and
//! drops the interest it cannot act on.
//!
//! This crate holds every `unsafe` block of the serving path's I/O (the
//! other serving-path `unsafe` is `checksum`'s CPU-feature dispatch): four
//! foreign functions declared by hand (no `libc` crate is available offline), each
//! taking only descriptors this crate borrows or owns and buffers it
//! allocates. `epoll_pwait2` needs Linux 5.11 and glibc 2.35; the constants
//! below are the generic Linux values (x86, Arm, RISC-V).

#![deny(unsafe_op_in_unsafe_fn, missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#[cfg(not(target_os = "linux"))]
compile_error!("poller wraps epoll and eventfd and builds on Linux only");

use std::ffi::{c_int, c_long, c_uint, c_void};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EFD_CLOEXEC: c_int = 0o2_000_000;
const EFD_NONBLOCK: c_int = 0o4_000;

/// `struct epoll_event`. The kernel ABI packs it on x86_64 (12 bytes) and
/// leaves it naturally aligned (16 bytes) everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` as the default (non-time64) glibc symbols take it.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// Takes ownership of a descriptor a foreign call just returned.
fn own(fd: c_int) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is non-negative, so the call that produced it succeeded
    // and returned a new descriptor that nothing else owns or will close.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Which conditions of a registered descriptor wake [`Poller::wait`].
///
/// Errors and hang-ups are reported whatever the interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake while there are bytes (or an end of stream, or a pending
    /// connection) to read.
    pub readable: bool,
    /// Wake while the descriptor accepts writes.
    pub writable: bool,
}

impl Interest {
    /// Readable only: listeners, wakers, and connections with nothing
    /// waiting to be written.
    pub const READABLE: Interest = Interest { readable: true, writable: false };

    fn bits(self) -> u32 {
        (if self.readable { EPOLLIN } else { 0 }) | (if self.writable { EPOLLOUT } else { 0 })
    }
}

/// One ready descriptor, named by the token it was registered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller's name for the descriptor.
    pub token: u64,
    /// A read will not block (it may return end of stream).
    pub readable: bool,
    /// A write will not block.
    pub writable: bool,
    /// The descriptor failed or its peer is gone for both directions.
    pub error: bool,
}

/// The buffer [`Poller::wait`] fills; reuse one across calls.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that receives at most `capacity` events per wait (at least
    /// one). Descriptors that did not fit stay ready for the next wait.
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.clamp(1, c_int::MAX as usize);
        Events { buf: vec![EpollEvent { events: 0, data: 0 }; capacity], len: 0 }
    }

    /// The events of the latest wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            let EpollEvent { events, data } = *raw;
            Event {
                token: data,
                readable: events & EPOLLIN != 0,
                writable: events & EPOLLOUT != 0,
                error: events & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }
}

/// A level-triggered readiness set over one epoll instance.
#[derive(Debug)]
pub struct Poller {
    epoll: OwnedFd,
}

impl Poller {
    /// An empty set.
    ///
    /// # Errors
    ///
    /// The operating system's error when no epoll instance can be created
    /// (descriptor or memory limits).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        Ok(Poller { epoll: own(fd)? })
    }

    /// Registers `fd` under `token`. Closing the last handle to the
    /// descriptor removes it from the set.
    ///
    /// # Errors
    ///
    /// The operating system's error, for example when `fd` is already
    /// registered or is a regular file.
    pub fn add(&self, fd: &impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_fd(), token, interest)
    }

    /// Replaces the token and interest `fd` is registered with.
    ///
    /// # Errors
    ///
    /// The operating system's error when `fd` is not registered.
    pub fn modify(&self, fd: &impl AsFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_fd(), token, interest)
    }

    /// Removes `fd` from the set.
    ///
    /// # Errors
    ///
    /// The operating system's error when `fd` is not registered.
    pub fn delete(&self, fd: &impl AsFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_fd(), 0, Interest::default())
    }

    fn ctl(&self, op: c_int, fd: BorrowedFd<'_>, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent { events: interest.bits(), data: token };
        // SAFETY: both descriptors are borrowed from live owners, so they
        // are open for the whole call, and `event` is an initialised
        // `epoll_event` of the kernel's layout that outlives the call.
        let rc = unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd.as_raw_fd(), &mut event) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Blocks until a registered descriptor is ready or `timeout` runs out
    /// (`None` waits without limit), then returns how many events it put
    /// in `events`; zero means the timeout elapsed. The timeout is honoured
    /// to the nanosecond the kernel's timers allow, and a wait interrupted
    /// by a signal resumes with what is left of it.
    ///
    /// # Errors
    ///
    /// The operating system's error; none is expected for a live set.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.len = 0;
        // A timeout too long to add to the clock is no limit at all.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut remaining = deadline.and(timeout);
        loop {
            let spec = remaining.map(|left| Timespec {
                tv_sec: c_long::try_from(left.as_secs()).unwrap_or(c_long::MAX),
                // Below 1e9, so it fits the narrowest `c_long`.
                tv_nsec: left.subsec_nanos() as c_long,
            });
            let spec_ptr = spec.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
            // SAFETY: `events.buf` holds `buf.len()` initialised entries of
            // the kernel's layout and is exclusively borrowed, so the kernel
            // may overwrite up to that many; `spec_ptr` is null or points
            // at `spec`, which lives until the end of this iteration; a
            // null signal mask leaves the thread's mask as it is.
            let n = unsafe {
                epoll_pwait2(
                    self.epoll.as_raw_fd(),
                    events.buf.as_mut_ptr(),
                    events.buf.len() as c_int,
                    spec_ptr,
                    std::ptr::null(),
                )
            };
            if let Ok(n) = usize::try_from(n) {
                events.len = n.min(events.buf.len());
                return Ok(events.len);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
            remaining = deadline.map(|at| at.saturating_duration_since(Instant::now()));
        }
    }
}

/// Wakes a [`Poller::wait`] from another thread: an `eventfd` registered
/// in the set like any descriptor. Clones share the one descriptor.
#[derive(Debug, Clone)]
pub struct Waker {
    event: Arc<File>,
}

impl Waker {
    /// A waker with no wake-up pending. Register it with
    /// [`Interest::READABLE`].
    ///
    /// # Errors
    ///
    /// The operating system's error when no descriptor can be created.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: `eventfd` takes no pointers.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        Ok(Waker { event: Arc::new(File::from(own(fd)?)) })
    }

    /// Makes the waker readable until the next [`Waker::drain`]. Wake-ups
    /// before a drain coalesce into one.
    pub fn wake(&self) {
        // The only failure of a write to a live nonblocking eventfd is a
        // saturated counter, which means a wake-up is already pending.
        let _ = (&*self.event).write(&1u64.to_ne_bytes());
    }

    /// Consumes the pending wake-ups. Call it before looking at the state
    /// the other threads changed, so a change made after the look raises a
    /// fresh wake-up.
    pub fn drain(&self) {
        // The only failure is `WouldBlock`: nothing was pending.
        let _ = (&*self.event).read(&mut [0u8; 8]);
    }
}

impl AsFd for Waker {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.event.as_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::os::unix::thread::JoinHandleExt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    const NOW: Option<Duration> = Some(Duration::ZERO);

    fn ready(poller: &Poller, events: &mut Events) -> Vec<Event> {
        poller.wait(events, NOW).unwrap();
        events.iter().collect()
    }

    #[test]
    fn cross_thread_waker_wakes_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(&waker, 7, Interest::READABLE).unwrap();
        let (entering, entered) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut events = Events::with_capacity(4);
            entering.send(()).unwrap();
            let n = poller.wait(&mut events, None).unwrap();
            let first = events.iter().next();
            (n, first)
        });
        entered.recv().unwrap();
        waker.clone().wake();
        let (n, event) = waiter.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(event, Some(Event { token: 7, readable: true, writable: false, error: false }));
    }

    #[test]
    fn wakeups_coalesce_and_drain_clears_them() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(&waker, 1, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(4);
        assert!(ready(&poller, &mut events).is_empty());
        waker.wake();
        waker.wake();
        // Level-triggered: pending until drained, however often asked.
        assert_eq!(ready(&poller, &mut events).len(), 1);
        assert_eq!(ready(&poller, &mut events).len(), 1);
        waker.drain();
        assert!(ready(&poller, &mut events).is_empty());
        waker.drain(); // nothing pending: a no-op, not a block
    }

    #[test]
    fn timeout_elapses_with_zero_events() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        poller.add(&b, 0, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(4);
        assert_eq!(poller.wait(&mut events, Some(Duration::from_micros(250))).unwrap(), 0);
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap(), 0);
        assert_eq!(events.iter().count(), 0);
    }

    #[test]
    fn modify_drops_and_rearms_interest_with_bytes_unread() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"unread").unwrap();
        poller.add(&b, 3, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(4);
        let readable = Event { token: 3, readable: true, writable: false, error: false };
        assert_eq!(ready(&poller, &mut events), vec![readable]);
        poller.modify(&b, 3, Interest::default()).unwrap();
        assert!(ready(&poller, &mut events).is_empty());
        poller.modify(&b, 4, Interest { readable: true, writable: true }).unwrap();
        let both = Event { token: 4, readable: true, writable: true, error: false };
        assert_eq!(ready(&poller, &mut events), vec![both]);
        poller.delete(&b).unwrap();
        assert!(ready(&poller, &mut events).is_empty());
        assert!(poller.modify(&b, 3, Interest::READABLE).is_err(), "deleted, so not registered");
    }

    #[test]
    fn closed_descriptor_leaves_the_set() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        poller.add(&b, 9, Interest::READABLE).unwrap();
        let mut events = Events::with_capacity(4);
        assert_eq!(ready(&poller, &mut events).len(), 1);
        drop(b);
        assert!(ready(&poller, &mut events).is_empty());
    }

    #[test]
    fn peer_hangup_is_reported_without_interest() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        poller.add(&b, 5, Interest::default()).unwrap();
        let mut events = Events::with_capacity(4);
        assert!(ready(&poller, &mut events).is_empty());
        drop(a);
        let got = ready(&poller, &mut events);
        assert_eq!(got.len(), 1);
        assert!(got[0].error && got[0].token == 5, "{got:?}");
    }

    #[test]
    fn more_ready_than_capacity_carries_over() {
        let poller = Poller::new().unwrap();
        let wakers: Vec<Waker> = (0..3).map(|_| Waker::new().unwrap()).collect();
        for (token, w) in wakers.iter().enumerate() {
            poller.add(w, token as u64, Interest::READABLE).unwrap();
            w.wake();
        }
        let mut events = Events::with_capacity(2);
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < 3 {
            let batch = ready(&poller, &mut events);
            assert!(!batch.is_empty() && batch.len() <= 2);
            for e in batch {
                wakers[e.token as usize].drain();
                seen.insert(e.token);
            }
        }
    }

    static HANDLED: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn count_signal(_signal: c_int) {
        HANDLED.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn wait_survives_eintr() {
        const SIGUSR1: c_int = 10;
        extern "C" {
            fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
            fn pthread_kill(thread: std::os::unix::thread::RawPthread, sig: c_int) -> c_int;
        }
        // SAFETY: `count_signal` only touches an atomic, which is safe in a
        // signal handler, and stays valid for the life of the process.
        unsafe { signal(SIGUSR1, count_signal) };

        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(&waker, 2, Interest::READABLE).unwrap();
        let (entering, entered) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let mut events = Events::with_capacity(4);
            entering.send(()).unwrap();
            poller.wait(&mut events, Some(Duration::from_secs(3600))).map(|n| (n, events.len))
        });
        entered.recv().unwrap();
        // Each signal interrupts the wait if it has begun; several, spaced
        // out, so that at least the later ones find the thread inside it.
        for round in 1..=5 {
            // SAFETY: the thread is alive (it is not joined until below),
            // so its pthread id is valid.
            assert_eq!(unsafe { pthread_kill(waiter.as_pthread_t(), SIGUSR1) }, 0);
            while HANDLED.load(Ordering::SeqCst) < round {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        waker.wake();
        assert_eq!(waiter.join().unwrap().unwrap(), (1, 1), "only the waker ends the wait");
    }
}
