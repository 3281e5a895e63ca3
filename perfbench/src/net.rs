//! The load generator's two clients over framed loopback TCP.
//!
//! [`open_loop`] offers frames on a fixed schedule (DiPerF style) from
//! one thread on one connection and charges each report's latency from
//! its *due* time, so a stall is charged to every report queued behind
//! it. [`closed_loop`] holds a fixed number of frames in flight on one
//! connection to find the saturation rate.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use inca_wire::frame::FrameBuffer;
use inca_wire::message::ServerResponse;

/// How long the clients wait for outstanding acks after the last send
/// before counting the rest as lost.
pub const ACK_GRACE: Duration = Duration::from_secs(10);

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 1;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const u8,
        ) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Pins the calling thread to the `slot`-th CPU this process may run
/// on (wrapping when there are fewer). Threads spawned afterwards
/// inherit the pin, which is how the server's reactor thread gets its
/// own core: the main thread pins itself before starting the server,
/// then re-pins to the generator's core.
pub fn pin_to(slot: usize) {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[slot % cpus.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask is valid for its full size; pid 0 is the
    // calling thread.
    unsafe {
        sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr());
    }
}

/// The CPUs the process was allowed at its first call (before any pin).
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: the mask buffer is valid for its full size; pid 0 is
        // the calling thread.
        let ok =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) }
                >= 0;
        if !ok {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Waits up to `timeout` for `stream` to become readable.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = sys::PollFd {
        fd: stream.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd and a valid timespec, both outliving the
    // call; a null sigmask keeps the current mask.
    let n = unsafe { sys::ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0 && fd.revents != 0
}

/// Connects with Nagle off (each frame is one logical message).
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// What one client observed.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    /// Per acked report: due (open loop) or send (closed loop) time to
    /// ack, in seconds, in send order.
    pub latency_s: Vec<f64>,
    /// Per sent report: how late the sender reached it, in seconds
    /// (open loop only), less the time since its due time that the
    /// sender spent blocked in writes. A write blocks when the server
    /// stops reading: that delay is the server's, charged to the
    /// reports' latency, not to the sender; it is summed in
    /// `blocked_s`.
    pub lag_s: Vec<f64>,
    /// Seconds the sender spent inside writes (open loop only).
    pub blocked_s: f64,
    pub sent: u64,
    pub acked: u64,
    pub rejected: u64,
    /// Sent but never answered (timeout or connection lost).
    pub lost: u64,
    /// Acks that arrived inside the measured window (closed loop).
    pub acked_in_window: u64,
    /// Wall seconds of the measured window (closed loop).
    pub window_s: f64,
}

impl Observed {
    /// Acks per second inside the measured window (closed loop).
    pub fn rate(&self) -> f64 {
        self.acked_in_window as f64 / self.window_s
    }

    fn answer(&mut self, payload: &[u8]) {
        match ServerResponse::decode(payload) {
            Ok(ServerResponse::Ack) => self.acked += 1,
            _ => self.rejected += 1,
        }
    }
}

/// Reads whatever the socket holds into `inbuf` (the caller knows it is
/// readable). Returns false on EOF or error.
fn fill(stream: &mut TcpStream, inbuf: &mut FrameBuffer, chunk: &mut [u8]) -> bool {
    match stream.read(chunk) {
        Ok(0) => false,
        Ok(n) => {
            inbuf.extend(&chunk[..n]);
            true
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => true,
        Err(_) => false,
    }
}

/// Offers `count` frames at `rate` per second from `start`, on one
/// connection and one thread: the sender writes frame `i` at
/// `start + i / rate` and, between sends, reads acks. `make(i)` gives
/// frame `i` before its due time, so encoding never delays a send; a
/// borrowed frame also keeps freeing it out of the schedule.
///
/// The sender polls instead of sleeping between sends, so timer
/// wake-up latency is not charged as lag; give it a core of its own.
pub fn open_loop<F: AsRef<[u8]>>(
    addr: SocketAddr,
    rate: f64,
    count: usize,
    mut make: impl FnMut(usize) -> F,
) -> std::io::Result<Observed> {
    let mut stream = connect(addr)?;
    // Sized up front: growing a sample vector mid-run is a copy that
    // would make the sender late.
    let mut obs = Observed {
        latency_s: Vec::with_capacity(count),
        lag_s: Vec::with_capacity(count),
        ..Observed::default()
    };
    let mut inbuf = FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut pending: VecDeque<Instant> = VecDeque::with_capacity(count);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut next = 0usize;
    let mut frame = (count > 0).then(|| make(0));
    let mut deadline: Option<Instant> = None;
    // Recent writes, `(start, end, blocked total before it)`, back to
    // the first one that ended after the next send's due time.
    let mut writes: VecDeque<(Instant, Instant, Duration)> = VecDeque::with_capacity(count);
    let mut blocked = Duration::ZERO;
    loop {
        let now = Instant::now();
        if next < count && now >= due(next) {
            let due_at = due(next);
            while writes.front().is_some_and(|w| w.1 <= due_at) {
                writes.pop_front();
            }
            let blocked_since_due = writes
                .front()
                .map_or(Duration::ZERO, |&(start, _, before)| {
                    blocked - before - due_at.saturating_duration_since(start)
                });
            obs.lag_s.push(
                now.saturating_duration_since(due_at)
                    .saturating_sub(blocked_since_due)
                    .as_secs_f64(),
            );
            let bytes = frame.take().expect("frame prepared");
            if stream.write_all(bytes.as_ref()).is_err() {
                obs.lost += (count - next) as u64 + pending.len() as u64;
                obs.sent += (count - next) as u64;
                return Ok(obs);
            }
            let done = Instant::now();
            writes.push_back((now, done, blocked));
            blocked += done - now;
            obs.blocked_s = blocked.as_secs_f64();
            pending.push_back(due(next));
            obs.sent += 1;
            next += 1;
            if next < count {
                frame = Some(make(next));
            }
            continue;
        }
        if next == count && pending.is_empty() {
            return Ok(obs);
        }
        let wake = if next < count {
            due(next)
        } else {
            *deadline.get_or_insert(now + ACK_GRACE)
        };
        if next == count && now >= wake {
            obs.lost += pending.len() as u64;
            return Ok(obs);
        }
        let timeout = if next < count {
            Duration::ZERO
        } else {
            wake.saturating_duration_since(now)
        };
        if wait_readable(&stream, timeout) {
            if !fill(&mut stream, &mut inbuf, &mut chunk) {
                obs.lost += (count - next) as u64 + pending.len() as u64;
                obs.sent += (count - next) as u64;
                return Ok(obs);
            }
            while let Ok(Some(payload)) = inbuf.next_frame() {
                let acked_at = Instant::now();
                let Some(due_at) = pending.pop_front() else {
                    break;
                };
                obs.latency_s
                    .push(acked_at.duration_since(due_at).as_secs_f64());
                obs.answer(&payload);
            }
        }
    }
}

/// Holds `window` frames in flight on one connection for `duration`,
/// then drains. `make()` builds each next frame.
pub fn closed_loop(
    addr: SocketAddr,
    window: usize,
    duration: Duration,
    mut make: impl FnMut() -> Vec<u8>,
) -> std::io::Result<Observed> {
    let mut stream = connect(addr)?;
    let mut obs = Observed::default();
    let mut inbuf = FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut pending: VecDeque<Instant> = VecDeque::new();
    let start = Instant::now();
    let end = start + duration;
    for _ in 0..window {
        stream.write_all(&make())?;
        pending.push_back(Instant::now());
        obs.sent += 1;
    }
    let deadline = end + ACK_GRACE;
    while !pending.is_empty() {
        let now = Instant::now();
        if now >= deadline || !wait_readable(&stream, deadline - now) {
            break;
        }
        if !fill(&mut stream, &mut inbuf, &mut chunk) {
            break;
        }
        let mut refill = 0;
        while let Ok(Some(payload)) = inbuf.next_frame() {
            let acked_at = Instant::now();
            let Some(sent_at) = pending.pop_front() else {
                break;
            };
            obs.latency_s
                .push(acked_at.duration_since(sent_at).as_secs_f64());
            obs.answer(&payload);
            if acked_at < end {
                obs.acked_in_window += 1;
                refill += 1;
            }
        }
        for _ in 0..refill {
            stream.write_all(&make())?;
            pending.push_back(Instant::now());
            obs.sent += 1;
        }
    }
    obs.window_s = duration.as_secs_f64();
    obs.lost += pending.len() as u64;
    Ok(obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_wire::frame::{read_frame, write_frame};
    use std::net::TcpListener;

    /// A fake server that acks every frame, except that it stops
    /// reading for `stall` once `stall_after` frames have arrived.
    fn stalling_server(
        stall_after: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let ack = ServerResponse::Ack.encode();
            let mut seen = 0;
            while read_frame(&mut conn).is_ok() {
                seen += 1;
                if seen == stall_after {
                    std::thread::sleep(stall);
                }
                if write_frame(&mut conn, &ack).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stalled_server_is_charged_to_every_report_queued_behind_it() {
        let _serial = crate::TIMED_TEST.lock().unwrap_or_else(|e| e.into_inner());
        // 1 MiB frames at 100/s: while the server sleeps the kernel
        // buffers fill, the sender blocks and falls behind schedule.
        // Latency must be charged from the due time, so the reports
        // queued behind the stall carry it even though the sender
        // wrote them late; the blocked time is the server's, not the
        // sender's own lag.
        let stall = Duration::from_millis(400);
        let (addr, server) = stalling_server(5, stall);
        let payload = vec![b'x'; 1 << 20];
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let obs = open_loop(addr, 100.0, 60, |_| frame.clone()).unwrap();
        server.join().unwrap();
        assert_eq!(obs.acked, 60);
        assert_eq!(obs.lost, 0);

        assert!(
            obs.blocked_s > 0.2,
            "the stall should block the sender: {}",
            obs.blocked_s
        );
        let own_lag = obs.lag_s.iter().cloned().fold(0.0, f64::max);
        assert!(own_lag < 0.1, "the sender itself kept up: {own_lag}");
        // Reports due during the stall wait for it to end.
        let inflated = obs.latency_s.iter().filter(|&&l| l > 0.1).count();
        assert!(
            inflated >= 10,
            "only {inflated} reports carried the stall: {:?}",
            obs.latency_s
        );
        let before: f64 = obs.latency_s[..4].iter().cloned().fold(0.0, f64::max);
        assert!(before < 0.1, "reports before the stall are fast: {before}");
    }

    #[test]
    fn a_late_generator_makes_the_run_invalid() {
        let _serial = crate::TIMED_TEST.lock().unwrap_or_else(|e| e.into_inner());
        // Building frame 100 takes the sender 30 ms, so the sends due
        // in that time go out late by the sender's own doing.
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let mut frame = 3u32.to_be_bytes().to_vec();
        frame.extend_from_slice(b"abc");
        let obs = open_loop(addr, 2_000.0, 2_000, |i| {
            if i == 100 {
                std::thread::sleep(Duration::from_millis(30));
            }
            frame.clone()
        })
        .unwrap();
        server.join().unwrap();
        assert_eq!(obs.acked, 2_000);
        let late = obs.lag_s.iter().filter(|&&l| l > 0.01).count();
        assert!(late >= 30, "only {late} sends were late");
        let mut tally = crate::outcome::Tally::default();
        crate::outcome::check_schedule(&mut tally, &obs.lag_s, &obs.latency_s);
        assert!(
            tally.notes().iter().any(|n| n.contains("lag p99")),
            "{:?}",
            tally.notes()
        );
    }

    #[test]
    fn closed_loop_counts_every_ack() {
        let _serial = crate::TIMED_TEST.lock().unwrap_or_else(|e| e.into_inner());
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let mut frame = 3u32.to_be_bytes().to_vec();
        frame.extend_from_slice(b"abc");
        let obs = closed_loop(addr, 4, Duration::from_millis(100), || frame.clone()).unwrap();
        server.join().unwrap();
        assert_eq!(obs.acked, obs.sent);
        assert!(obs.rate() > 0.0);
        assert_eq!(obs.lost, 0);
    }
}
