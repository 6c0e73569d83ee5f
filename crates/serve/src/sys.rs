//! Minimal readiness polling for the event-driven server: a thin, safe
//! wrapper over Linux `epoll`, built directly on [`std::os::fd`] with no
//! external crates.
//!
//! The workspace is dependency-free by charter, and `std` exposes no
//! readiness API — so this module declares the three `epoll` entry points
//! itself (`libc` is already linked by `std` on Linux; declaring the
//! symbols adds no dependency) and confines every `unsafe` block in the
//! crate to the few lines that cross that boundary. Each block upholds the
//! same invariants: file descriptors passed in are borrowed from live
//! `std` owners ([`BorrowedFd`]), buffers passed to the kernel are
//! stack-allocated with their real lengths, and returned descriptors are
//! immediately wrapped in [`OwnedFd`] so closing is never hand-rolled.
//!
//! The abstraction is deliberately small — register / modify / deregister /
//! wait over opaque `u64` tokens, a [`Waker`] for cross-thread wake-ups,
//! and [`set_listen_backlog`] — because the front end the server and the
//! router share (the private `front` module) is the only customer.

use std::io::{self, Write as _};
use std::net::TcpListener;
use std::os::fd::{AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

#[cfg(not(target_os = "linux"))]
compile_error!(
    "flm-serve's readiness loop is built on Linux epoll; \
     port crates/serve/src/sys.rs to this platform's poller to build here"
);

mod ffi {
    use std::os::raw::c_int;

    // The x86_64 kernel ABI packs epoll_event (glibc's __EPOLL_PACKED);
    // other architectures use natural alignment.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    }
}

/// Which readiness a registration asks to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or the peer hangs up).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        // RDHUP rides with readability: a read() observing the FIN is how
        // the state machine learns the peer finished sending. It must NOT
        // be subscribed without EPOLLIN — a half-closed peer would then
        // level-trigger forever on a connection that already saw EOF and
        // deliberately stopped reading.
        let mut bits = 0;
        if self.readable {
            bits |= ffi::EPOLLIN | ffi::EPOLLRDHUP;
        }
        if self.writable {
            bits |= ffi::EPOLLOUT;
        }
        bits
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (includes a half-closed peer: the
    /// pending `read` will observe EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The descriptor is in an error or hang-up state; the connection is
    /// finished whatever else is set.
    pub hangup: bool,
}

/// A level-triggered readiness poller over an epoll instance.
///
/// Level-triggered on purpose: the reactor may legitimately stop reading a
/// ready socket (pipeline cap reached) and come back later — with
/// edge-triggered semantics that would require careful re-arm bookkeeping,
/// with level-triggered semantics it is simply correct.
#[derive(Debug)]
pub struct Poller {
    epoll: OwnedFd,
}

/// How many events one [`Poller::wait`] call can deliver. More ready
/// descriptors than this simply arrive on the next call (level-triggered
/// readiness is never lost).
pub const MAX_EVENTS_PER_WAIT: usize = 1024;

impl Poller {
    /// Creates an epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a non-negative return is
        // a freshly created descriptor this process owns, moved straight
        // into an OwnedFd so it is closed exactly once.
        let raw = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` was just returned by epoll_create1 and is owned by
        // nobody else.
        let epoll = unsafe { OwnedFd::from_raw_fd(raw) };
        Ok(Poller { epoll })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: BorrowedFd<'_>,
        event: u32,
        token: u64,
    ) -> io::Result<()> {
        let mut ev = ffi::EpollEvent {
            events: event,
            data: token,
        };
        // SAFETY: both descriptors are live for the duration of the call
        // (self.epoll is owned, fd is borrowed from a live owner), and the
        // event pointer is a valid stack value the kernel only reads.
        let rc = unsafe {
            ffi::epoll_ctl(
                self.epoll.as_raw_fd(),
                op,
                fd.as_raw_fd(),
                &mut ev as *mut ffi::EpollEvent,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers a descriptor under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (e.g. the fd is already registered).
    pub fn register(&self, fd: BorrowedFd<'_>, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, interest.bits(), token)
    }

    /// Changes a registered descriptor's interest (the token may change
    /// too).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: BorrowedFd<'_>, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, interest.bits(), token)
    }

    /// Removes a descriptor from the poller. Dropping the descriptor also
    /// removes it; this exists for descriptors that outlive their
    /// registration.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn deregister(&self, fd: BorrowedFd<'_>) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` blocks indefinitely), appending up to
    /// [`MAX_EVENTS_PER_WAIT`] events to `events` (which is cleared first).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure; `EINTR` is retried internally.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: std::os::raw::c_int = match timeout {
            None => -1,
            // Round up so a 1ns timeout still sleeps rather than spins.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as std::os::raw::c_int,
        };
        let mut buf = [ffi::EpollEvent { events: 0, data: 0 }; MAX_EVENTS_PER_WAIT];
        let n = loop {
            // SAFETY: the buffer is a live stack array and maxevents is its
            // exact length; the kernel writes at most that many entries.
            let rc = unsafe {
                ffi::epoll_wait(
                    self.epoll.as_raw_fd(),
                    buf.as_mut_ptr(),
                    buf.len() as std::os::raw::c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &buf[..n] {
            let bits = { ev.events };
            events.push(Event {
                token: { ev.data },
                readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                writable: bits & ffi::EPOLLOUT != 0,
                hangup: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

/// Re-issues `listen(2)` on a bound listener with `backlog` pending
/// connections (the kernel clamps it to `net.core.somaxconn`). std's
/// `TcpListener::bind` listens with a backlog of 128; a larger connect
/// burst overflows it, and each dropped SYN costs the client a ~1 s
/// retransmit.
///
/// # Errors
///
/// Propagates `listen` failure.
pub fn set_listen_backlog(listener: &TcpListener, backlog: i32) -> io::Result<()> {
    // SAFETY: the descriptor is borrowed from a live TcpListener for the
    // duration of the call, and listen takes no pointers.
    let rc = unsafe { ffi::listen(listener.as_raw_fd(), backlog) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The write half of a self-wake channel: worker threads call
/// [`Waker::wake`] to pull the reactor out of [`Poller::wait`].
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// Wakes the poller the paired receiver is registered with. Infallible
    /// by design: a full pipe means a wake-up is already pending, which is
    /// all a wake-up means.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// Builds a wake channel: the [`Waker`] for worker threads, and the
/// receiving [`UnixStream`] for the reactor to register (readable whenever
/// a wake is pending) and drain.
///
/// # Errors
///
/// Propagates socketpair creation / option failures.
pub fn wake_channel() -> io::Result<(Waker, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Drains every pending wake byte from a wake channel's receiver. Coalesced
/// wake-ups are fine: one drained byte or sixty all mean "look at the
/// completion queue".
pub fn drain_wakes(rx: &UnixStream) {
    use std::io::Read as _;
    let mut buf = [0u8; 64];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::os::fd::AsFd as _;

    #[test]
    fn readiness_round_trip_over_a_socketpair() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_fd(), 7, Interest::BOTH).unwrap();

        // An idle socket with room in its send buffer: writable, not
        // readable.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].writable && !events[0].readable, "{events:?}");

        // Bytes from the peer: now readable too (level-triggered, so the
        // report repeats until drained).
        (&a).write_all(b"ping").unwrap();
        for _ in 0..2 {
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
        }

        // Narrowing interest to readable-only suppresses the writable
        // report.
        poller.modify(b.as_fd(), 7, Interest::READABLE).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().all(|e| !e.writable), "{events:?}");

        // Draining the bytes clears readability: the wait now times out.
        let mut buf = [0u8; 16];
        assert_eq!((&b).read(&mut buf).unwrap(), 4);
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");

        poller.deregister(b.as_fd()).unwrap();
    }

    #[test]
    fn peer_close_reports_readable() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_fd(), 1, Interest::READABLE).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        // The FIN shows up as readability (the read will observe EOF),
        // possibly with the hangup flag alongside.
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "{events:?}"
        );
        let mut buf = [0u8; 8];
        assert_eq!((&b).read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn wake_channel_crosses_threads_and_coalesces() {
        let poller = Poller::new().unwrap();
        let (waker, rx) = wake_channel().unwrap();
        poller.register(rx.as_fd(), 99, Interest::READABLE).unwrap();

        let handle = std::thread::spawn(move || {
            for _ in 0..32 {
                waker.wake();
            }
            waker
        });
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        let waker = handle.join().unwrap();

        // Draining coalesces every pending wake; the channel then reads as
        // idle until the next wake.
        drain_wakes(&rx);
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
        waker.wake();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
    }
}
