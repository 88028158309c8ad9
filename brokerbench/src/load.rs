//! The load sender: one thread, two pipelined connections.
//!
//! Each request is written when its scheduled time comes, whether or
//! not earlier replies have arrived; the broker serves each connection
//! in order, so replies are matched to requests first-in first-out.
//! Latency is measured from the *scheduled* send time, so a stall counts
//! against every request queued behind it, and the sender records how
//! late it actually wrote each request (its own lateness).
//!
//! The thread sleeps in `ppoll(2)` until the next send is due or a reply
//! arrives. The standard library has no readiness API, so the call is
//! declared here by hand; the C library that std links provides it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
use std::time::{Duration, Instant};

use crate::gen::{Op, CONNS};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

const PR_SET_TIMERSLACK: c_int = 29;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const PRIO_PROCESS: c_int = 0;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn setpriority(which: c_int, who: c_uint, prio: c_int) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Words in the CPU masks passed to the affinity calls (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, in order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and the threads it creates from now
/// on, to `cpu`; returns whether that worked.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// CPU time `clock` has counted, in ns.
fn cpu_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec`; the CPU-time clocks
    // of the calling process and thread always exist.
    unsafe { clock_gettime(clock, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of every thread of this process except the calling one, in
/// ns: with the broker in process and the load sent from this thread,
/// the CPU the brokers spent. Time the host steals from the machine is
/// not counted.
pub fn others_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID).saturating_sub(cpu_ns(CLOCK_THREAD_CPUTIME_ID))
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Sets the calling thread's nice level and a 1 ns timer slack, so the
/// sender wakes when a request is due rather than up to 50 µs later,
/// and busy broker threads on the same cores do not delay it. Raising
/// priority needs privilege; returns whether the nice level was set.
pub fn set_sender_priority(nice: c_int) -> bool {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
    // SAFETY: plain syscall wrapper; `who == 0` names the calling thread.
    unsafe { setpriority(PRIO_PROCESS, 0, nice) == 0 }
}

/// Waits until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records whose length is passed as `nfds`; `ts` outlives the
    // call; a null sigmask leaves the signal mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// When the ops of a schedule are sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// At their scheduled times, whatever is still in flight.
    Open,
    /// In schedule order on the first connection, as soon as it has
    /// fewer than this many requests in flight. The sender wakes every
    /// [`CLOSED_TICK`] to collect replies and refill, not on each reply,
    /// so the broker thread runs through the queued requests without
    /// being preempted by the sender after every reply.
    Closed(usize),
}

/// How often the sender wakes under [`Pace::Closed`].
pub const CLOSED_TICK: Duration = Duration::from_millis(1);

/// What happened to one scheduled request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When it was written, ns since the run epoch.
    pub sent_ns: u64,
    /// When its reply was complete, ns since the run epoch; `None` if no
    /// reply arrived before the deadline.
    pub recv_ns: Option<u64>,
    /// The reply payload (JSON text, still undecoded).
    pub reply: Vec<u8>,
}

/// A phase's schedule as driven: due times are absolute (ns since the
/// run epoch) from here on.
pub struct Driven {
    /// Due time of each op, ns since the run epoch.
    pub due_ns: Vec<u64>,
    /// The outcome of each op, index-aligned with the schedule.
    pub outcomes: Vec<Outcome>,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<usize>,
    broken: bool,
}

impl Conn {
    fn flush(&mut self) {
        while self.out_pos < self.out.len() && !self.broken {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.broken = true,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Reads what is available and completes every whole reply frame.
    fn pump(&mut self, now_ns: u64, outcomes: &mut [Outcome]) {
        let mut buf = [0u8; 65536];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.broken = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.broken = true;
                    break;
                }
            }
        }
        let mut pos = 0;
        while self.inbuf.len() - pos >= 4 {
            let len_bytes: [u8; 4] = self.inbuf[pos..pos + 4].try_into().expect("4 bytes");
            let len = u32::from_be_bytes(len_bytes) as usize;
            if self.inbuf.len() - pos - 4 < len {
                break;
            }
            let Some(idx) = self.inflight.pop_front() else {
                // A frame nobody asked for: the stream is out of step.
                self.broken = true;
                break;
            };
            outcomes[idx].recv_ns = Some(now_ns);
            outcomes[idx].reply = self.inbuf[pos + 4..pos + 4 + len].to_vec();
            pos += 4 + len;
        }
        self.inbuf.drain(..pos);
    }
}

/// Two connections to one broker, kept open across phases.
pub struct Sender {
    conns: Vec<Conn>,
    epoch: Instant,
}

impl Sender {
    /// Opens [`CONNS`] connections to `addr`; times are measured from
    /// `epoch`.
    pub fn connect(addr: std::net::SocketAddr, epoch: Instant) -> io::Result<Sender> {
        let mut conns = Vec::new();
        for _ in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                inbuf: Vec::new(),
                inflight: VecDeque::new(),
                broken: false,
            });
        }
        Ok(Sender { conns, epoch })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drives `ops`, starting now, and waits for every reply or until
    /// `grace` after the last send was due. Requests without a reply by
    /// then are reported with `recv_ns: None`.
    ///
    /// With [`Pace::Open`] each op is due at its scheduled time. With
    /// [`Pace::Closed`] the schedule's times are ignored: an op is due as
    /// soon as the first connection has fewer than the given number of
    /// requests in flight, so the broker is kept saturated.
    ///
    /// # Errors
    ///
    /// A failed `ppoll` call.
    pub fn drive(&mut self, ops: &[Op], pace: Pace, grace: Duration) -> io::Result<Driven> {
        let start = self.now_ns();
        let mut due_ns: Vec<u64> = ops.iter().map(|o| start + o.at_ns).collect();
        let mut outcomes = vec![Outcome::default(); ops.len()];
        let grace = grace.as_nanos() as u64;
        let mut deadline = match pace {
            Pace::Open => due_ns.last().copied().unwrap_or(start) + grace,
            Pace::Closed(_) => start + grace,
        };
        let mut next = 0;
        loop {
            let now = self.now_ns();
            while next < ops.len() {
                let c = match pace {
                    Pace::Open => &mut self.conns[ops[next].conn],
                    Pace::Closed(_) => &mut self.conns[0],
                };
                match pace {
                    Pace::Open if due_ns[next] > now => break,
                    Pace::Closed(depth) if c.inflight.len() >= depth && !c.broken => break,
                    Pace::Open => {}
                    Pace::Closed(_) => {
                        due_ns[next] = now;
                        deadline = now + grace;
                    }
                }
                c.out.extend_from_slice(&ops[next].frame);
                c.inflight.push_back(next);
                outcomes[next].sent_ns = now;
                next += 1;
            }
            for c in &mut self.conns {
                c.flush();
            }
            let idle = self.conns.iter().all(|c| c.inflight.is_empty() || c.broken);
            if (next == ops.len() && idle) || now >= deadline {
                break;
            }
            let until = match pace {
                Pace::Open if next < ops.len() => due_ns[next],
                Pace::Open => deadline,
                Pace::Closed(_) => {
                    std::thread::sleep(CLOSED_TICK);
                    let now = self.now_ns();
                    for c in &mut self.conns {
                        c.pump(now, &mut outcomes);
                    }
                    continue;
                }
            };
            let mut fds: Vec<PollFd> = self
                .conns
                .iter()
                .map(|c| PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: if c.broken {
                        0
                    } else if c.out.is_empty() {
                        POLLIN
                    } else {
                        POLLIN | POLLOUT
                    },
                    revents: 0,
                })
                .collect();
            wait(&mut fds, Duration::from_nanos(until.saturating_sub(now)))?;
            let now = self.now_ns();
            for (c, fd) in self.conns.iter_mut().zip(&fds) {
                if fd.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                    c.pump(now, &mut outcomes);
                }
            }
        }
        // Whatever is still in flight will never be matched: start the
        // next phase from a clean stream.
        for c in &mut self.conns {
            if !c.inflight.is_empty() {
                c.broken = true;
            }
        }
        Ok(Driven { due_ns, outcomes })
    }

    /// Whether every connection is still usable.
    pub fn healthy(&self) -> bool {
        self.conns.iter().all(|c| !c.broken)
    }
}
