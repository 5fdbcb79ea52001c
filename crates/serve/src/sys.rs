//! Vendored readiness-notification shim: raw `extern "C"` bindings to
//! `epoll(7)` and `poll(2)`, in the workspace's no-dependency
//! tradition (std already links libc, so the symbols are there — this
//! module just declares them instead of pulling in the `libc` crate).
//!
//! The surface is the minimum the event loop needs: a [`Poller`] that
//! registers file descriptors with read/write interest and blocks
//! until some are ready. Two backends:
//!
//! * **epoll** (Linux): O(ready) wakeups, level-triggered — what
//!   [`Poller::new_auto`] picks on Linux;
//! * **poll** (any Unix): O(registered) scans per wakeup — the
//!   portable backend on other Unix hosts, and the one the server's
//!   in-crate protocol test runs on so both stay covered.
//!
//! Level-triggered everywhere: a readiness the loop does not fully
//! consume simply reports again, which keeps the connection state
//! machines simple (no starvation bookkeeping for edge-triggered
//! semantics).

#![cfg(unix)]

use std::io;
use std::os::raw::{c_int, c_ulong};

/// Readiness interest for a registered descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or has hung up).
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event: the registered token plus what fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// Readable (includes peer hang-up: a read will observe EOF).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hang-up condition (the connection should be culled
    /// after a final read attempt drains whatever is left).
    pub error: bool,
}

// ---------------------------------------------------------------- epoll

#[cfg(target_os = "linux")]
mod epoll_sys {
    use super::*;

    // The kernel packs epoll_event on x86-64 only (a 12-byte struct);
    // every other architecture uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// An `epoll(7)` instance (Linux only).
#[cfg(target_os = "linux")]
pub struct Epoll {
    epfd: c_int,
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall; a negative return is errno.
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; Poller::MAX_EVENTS_PER_WAIT],
        })
    }

    fn ctl(&self, op: c_int, fd: c_int, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = epoll_sys::EpollEvent {
            events: interest_bits(interest),
            data: token,
        };
        // SAFETY: `ev` outlives the call; DEL ignores the event ptr.
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd came from epoll_create1 and is owned here.
        unsafe { epoll_sys::close(self.epfd) };
    }
}

#[cfg(target_os = "linux")]
fn interest_bits(interest: Interest) -> u32 {
    let mut bits = 0;
    if interest.read {
        bits |= epoll_sys::EPOLLIN;
    }
    if interest.write {
        bits |= epoll_sys::EPOLLOUT;
    }
    bits
}

// ----------------------------------------------------------------- poll

mod poll_sys {
    use super::*;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

extern "C" {
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
}

/// Widen a listening socket's accept backlog. `std::net::TcpListener`
/// hard-codes `listen(fd, 128)`; with `tcp_syncookies` enabled, a
/// connect burst that overflows the queue gets RST at the final ACK —
/// so a server sized for hundreds of concurrent clients re-listens
/// with a deeper queue. Calling `listen(2)` again on an already
/// listening socket just adjusts the backlog.
pub fn set_backlog(fd: c_int, backlog: c_int) -> io::Result<()> {
    // SAFETY: `listen(2)` takes no pointers and touches no memory of
    // ours; a bad or non-socket `fd` fails with errno.
    match unsafe { listen(fd, backlog) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// A `poll(2)` set: the registration table is rebuilt into a `pollfd`
/// array on every wait (O(n) per call — the portable fallback).
pub struct PollSet {
    registered: Vec<(c_int, u64, Interest)>,
}

/// The readiness backend behind the event loop.
pub enum Poller {
    /// Linux epoll.
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    /// Portable poll(2).
    Poll(PollSet),
}

impl Poller {
    /// Upper bound on events reported per [`Poller::wait`] call.
    pub const MAX_EVENTS_PER_WAIT: usize = 1024;

    /// The production backend: epoll where available, else poll.
    pub fn new_auto() -> Poller {
        #[cfg(target_os = "linux")]
        if let Ok(ep) = Epoll::new() {
            return Poller::Epoll(ep);
        }
        Poller::Poll(PollSet {
            registered: Vec::new(),
        })
    }

    /// Explicit poll(2) backend.
    pub fn new_poll() -> Poller {
        Poller::Poll(PollSet {
            registered: Vec::new(),
        })
    }

    /// Backend label as reported by `/healthz`.
    pub fn label(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    /// Register `fd` under `token` with `interest`.
    pub fn register(&mut self, fd: c_int, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, interest),
            Poller::Poll(ps) => {
                ps.registered.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Change the interest of a registered descriptor.
    pub fn modify(&mut self, fd: c_int, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, interest),
            Poller::Poll(ps) => {
                for slot in ps.registered.iter_mut() {
                    if slot.0 == fd {
                        slot.1 = token;
                        slot.2 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
        }
    }

    /// Remove a descriptor from the set. Call *before* closing the fd
    /// (epoll auto-deregisters on close, poll would report POLLNVAL,
    /// but being explicit keeps both backends identical).
    pub fn deregister(&mut self, fd: c_int) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.ctl(epoll_sys::EPOLL_CTL_DEL, fd, 0, Interest::READ),
            Poller::Poll(ps) => {
                ps.registered.retain(|&(f, _, _)| f != fd);
                Ok(())
            }
        }
    }

    /// Block until readiness or `timeout_ms` (`-1` = forever); append
    /// events to `out`. Returns the number of events delivered.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                // SAFETY: buf is sized MAX_EVENTS_PER_WAIT and outlives
                // the call.
                let n = unsafe {
                    epoll_sys::epoll_wait(
                        ep.epfd,
                        ep.buf.as_mut_ptr(),
                        ep.buf.len() as c_int,
                        timeout_ms,
                    )
                };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                for ev in &ep.buf[..n as usize] {
                    // Copy out of the (possibly packed) struct before
                    // taking references.
                    let events = ev.events;
                    let data = ev.data;
                    out.push(Event {
                        token: data,
                        readable: events & (epoll_sys::EPOLLIN | epoll_sys::EPOLLHUP) != 0,
                        writable: events & epoll_sys::EPOLLOUT != 0,
                        error: events & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0,
                    });
                }
                Ok(n as usize)
            }
            Poller::Poll(ps) => {
                let mut fds: Vec<poll_sys::PollFd> = ps
                    .registered
                    .iter()
                    .map(|&(fd, _, interest)| poll_sys::PollFd {
                        fd,
                        events: {
                            let mut e = 0;
                            if interest.read {
                                e |= poll_sys::POLLIN;
                            }
                            if interest.write {
                                e |= poll_sys::POLLOUT;
                            }
                            e
                        },
                        revents: 0,
                    })
                    .collect();
                if fds.is_empty() {
                    // Nothing registered: honour the timeout as a sleep
                    // so the caller's deadline bookkeeping still runs.
                    if timeout_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
                    }
                    return Ok(0);
                }
                // SAFETY: fds is a live, correctly sized array.
                let n =
                    unsafe { poll_sys::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(err);
                }
                let mut delivered = 0;
                for (slot, fd) in ps.registered.iter().zip(fds.iter()) {
                    if fd.revents == 0 {
                        continue;
                    }
                    delivered += 1;
                    out.push(Event {
                        token: slot.1,
                        readable: fd.revents & (poll_sys::POLLIN | poll_sys::POLLHUP) != 0,
                        writable: fd.revents & poll_sys::POLLOUT != 0,
                        error: fd.revents
                            & (poll_sys::POLLERR | poll_sys::POLLHUP | poll_sys::POLLNVAL)
                            != 0,
                    });
                }
                Ok(delivered)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn exercise(mut poller: Poller) {
        let (mut a, b) = socket_pair();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 42, Interest::READ).unwrap();

        // Nothing readable yet: a zero-timeout wait delivers nothing.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 42 || !e.readable));

        a.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        // Bounded retries: delivery is fast but not synchronous.
        for _ in 0..100 {
            poller.wait(&mut events, 100).unwrap();
            if events.iter().any(|e| e.token == 42 && e.readable) {
                break;
            }
        }
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "readable event for the ping"
        );
        let mut buf = [0u8; 4];
        (&b).read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        // Write interest on an idle socket reports writable.
        poller
            .modify(b.as_raw_fd(), 42, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        poller.deregister(b.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn poll_backend_reports_readiness() {
        exercise(Poller::new_poll());
        assert_eq!(Poller::new_poll().label(), "poll");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_backend_reports_readiness() {
        let poller = Poller::new_auto();
        assert_eq!(poller.label(), "epoll", "epoll available on linux");
        exercise(poller);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn auto_prefers_epoll_on_linux() {
        assert_eq!(Poller::new_auto().label(), "epoll");
    }
}
