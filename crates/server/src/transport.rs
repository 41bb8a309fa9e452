//! Pluggable byte transport: the network analog of the storage engine's
//! `Vfs` seam (`docs/FAULTS.md`).
//!
//! Production code talks to sockets only through the [`Transport`]
//! trait. [`StdTransport`] forwards to a real `TcpStream`;
//! [`ChaosTransport`] wraps any transport with a seeded, deterministic
//! fault injector so tests can subject both the server's accept path
//! and the client's connect path to the failure modes hostile networks
//! actually produce:
//!
//! * **Delay** — a bounded stall before the operation proceeds.
//! * **Partial write** — a prefix of the bytes reaches the peer, then
//!   the connection dies (mid-frame truncation).
//! * **Byte corruption** — one byte is flipped in transit.
//! * **Disconnect** — the connection dies before any bytes move.
//! * **Blackhole** — writes claim success but nothing is sent (the
//!   peer sees silence until its read timeout fires).
//!
//! Fault scheduling mirrors `FaultVfs`: counter-based triggers armed on
//! the nth read or write, consumed in order, with an optional seeded
//! LCG schedule for randomized-but-reproducible matrices. No wall-clock
//! or OS randomness is involved anywhere, so a failing seed replays
//! exactly.

use perftrack_store::sync::Mutex;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A bidirectional byte stream the server and client speak frames over.
///
/// The surface is the minimal slice of `TcpStream` the wire layer uses;
/// anything implementing it can carry the protocol.
pub trait Transport: Send {
    /// Read up to `buf.len()` bytes; `Ok(0)` means the peer closed.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write the whole buffer or fail.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Bound how long a single `read` may block.
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Disable Nagle batching (best effort).
    fn set_nodelay(&self, on: bool) -> io::Result<()>;
}

/// Builds the [`Transport`] for each accepted or dialed connection.
/// The default (`None` in the configs) wraps the raw `TcpStream` in
/// [`StdTransport`]; tests install factories returning
/// [`ChaosTransport`].
pub type TransportFactory = Arc<dyn Fn(TcpStream) -> Box<dyn Transport> + Send + Sync>;

/// Wrap a raw stream with the configured factory (or [`StdTransport`]).
pub fn wrap_stream(factory: Option<&TransportFactory>, stream: TcpStream) -> Box<dyn Transport> {
    match factory {
        Some(f) => f(stream),
        None => Box::new(StdTransport(stream)),
    }
}

/// The production transport: a plain `TcpStream`.
pub struct StdTransport(pub TcpStream);

impl Transport for StdTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.0, buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(dur)
    }

    fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.0.set_nodelay(on)
    }
}

/// What a triggered fault does to the operation it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Stall for this many milliseconds, then proceed normally.
    Delay(u64),
    /// (Writes) deliver only the first `keep` bytes, then fail the
    /// operation as a broken pipe. On reads, behaves like
    /// [`NetFault::Disconnect`].
    PartialWrite(usize),
    /// Deliver the bytes with one byte XOR-flipped (offset chosen by
    /// the injector's seeded stream).
    CorruptByte,
    /// Fail immediately with a connection reset; nothing moves.
    Disconnect,
    /// (Writes) claim success without sending anything. On reads,
    /// return a timeout — the caller's bounded-read contract is what
    /// turns silence into a typed error instead of a hang.
    Blackhole,
}

/// When a fault fires: on the nth read or nth write (1-based, counted
/// per injector across every connection sharing it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetTrigger {
    /// The nth `read` call observed by the injector.
    NthRead(u64),
    /// The nth `write_all` call observed by the injector.
    NthWrite(u64),
}

#[derive(Debug)]
struct Rule {
    trigger: NetTrigger,
    fault: NetFault,
    /// `Some(n)`: fire n more times then disarm; `None`: fire forever.
    remaining: Option<u64>,
}

/// Deterministic network-fault injector shared (via `Arc`) by every
/// [`ChaosTransport`] a test wires up. Rules are armed up front;
/// read/write counters decide when they fire. All decisions derive from
/// the seed and the counters — never from time or OS randomness.
pub struct ChaosInjector {
    rules: Mutex<Vec<Rule>>,
    reads: AtomicU64,
    writes: AtomicU64,
    faults_fired: AtomicU64,
    rng: AtomicU64,
}

impl ChaosInjector {
    /// An injector with no rules armed; `seed` feeds the corruption
    /// offset stream (and nothing else).
    pub fn new(seed: u64) -> Arc<ChaosInjector> {
        Arc::new(ChaosInjector {
            rules: Mutex::new(Vec::new()),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            faults_fired: AtomicU64::new(0),
            rng: AtomicU64::new(seed | 1),
        })
    }

    /// Arm `fault` to fire once when `trigger` matches.
    pub fn fault_once(self: &Arc<Self>, trigger: NetTrigger, fault: NetFault) -> Arc<Self> {
        self.rules.lock().push(Rule {
            trigger,
            fault,
            remaining: Some(1),
        });
        Arc::clone(self)
    }

    /// Arm `fault` without a firing limit. An nth-operation trigger
    /// fires at most once per counter pass, so this matters when
    /// [`Self::reset_counters`] re-arms the schedule between rounds.
    pub fn fault_always(self: &Arc<Self>, trigger: NetTrigger, fault: NetFault) -> Arc<Self> {
        self.rules.lock().push(Rule {
            trigger,
            fault,
            remaining: None,
        });
        Arc::clone(self)
    }

    /// Total faults that have fired (test assertions).
    pub fn faults_fired(&self) -> u64 {
        self.faults_fired.load(Ordering::Relaxed)
    }

    /// Reads observed so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Writes observed so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Zero the read/write counters so armed nth-operation rules can
    /// match again (a "new round" in matrix tests).
    pub fn reset_counters(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }

    /// A [`TransportFactory`] wrapping each new connection's
    /// [`StdTransport`] with this injector.
    pub fn factory(self: &Arc<Self>) -> TransportFactory {
        let inj = Arc::clone(self);
        Arc::new(move |stream| {
            Box::new(ChaosTransport {
                inner: StdTransport(stream),
                injector: Arc::clone(&inj),
            })
        })
    }

    /// Next value of the seeded corruption stream (Numerical Recipes
    /// LCG constants; period 2^64).
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng.store(x, Ordering::Relaxed);
        x
    }

    /// If a rule matches this operation, consume it and return the fault.
    fn check(&self, trigger: NetTrigger) -> Option<NetFault> {
        let mut rules = self.rules.lock();
        for rule in rules.iter_mut() {
            if rule.trigger == trigger {
                match &mut rule.remaining {
                    Some(0) => continue,
                    Some(n) => *n -= 1,
                    None => {}
                }
                self.faults_fired.fetch_add(1, Ordering::Relaxed);
                return Some(rule.fault);
            }
        }
        None
    }

    fn on_read(&self) -> Option<NetFault> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        self.check(NetTrigger::NthRead(n))
    }

    fn on_write(&self) -> Option<NetFault> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        self.check(NetTrigger::NthWrite(n))
    }
}

impl std::fmt::Debug for ChaosInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosInjector")
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .field("faults_fired", &self.faults_fired())
            .finish()
    }
}

/// A transport that consults a shared [`ChaosInjector`] before
/// delegating to the wrapped transport.
pub struct ChaosTransport<T: Transport> {
    inner: T,
    injector: Arc<ChaosInjector>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wrap `inner` with `injector`'s fault schedule.
    pub fn new(inner: T, injector: Arc<ChaosInjector>) -> ChaosTransport<T> {
        ChaosTransport { inner, injector }
    }
}

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: connection reset")
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.injector.on_read() {
            None => self.inner.read(buf),
            Some(NetFault::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.read(buf)
            }
            Some(NetFault::CorruptByte) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let off = (self.injector.next_rand() as usize) % n;
                    if let Some(b) = buf.get_mut(off) {
                        *b ^= 0x20;
                    }
                }
                Ok(n)
            }
            Some(NetFault::PartialWrite(_)) | Some(NetFault::Disconnect) => Err(reset_err()),
            Some(NetFault::Blackhole) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "chaos: blackholed read",
            )),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.injector.on_write() {
            None => self.inner.write_all(buf),
            Some(NetFault::Delay(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write_all(buf)
            }
            Some(NetFault::CorruptByte) => {
                let mut copy = buf.to_vec();
                if !copy.is_empty() {
                    let off = (self.injector.next_rand() as usize) % copy.len();
                    if let Some(b) = copy.get_mut(off) {
                        *b ^= 0x20;
                    }
                }
                self.inner.write_all(&copy)
            }
            Some(NetFault::PartialWrite(keep)) => {
                let keep = keep.min(buf.len());
                self.inner.write_all(buf.get(..keep).unwrap_or_default())?;
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos: connection died mid-write",
                ))
            }
            Some(NetFault::Disconnect) => Err(reset_err()),
            Some(NetFault::Blackhole) => Ok(()),
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }

    fn set_nodelay(&self, on: bool) -> io::Result<()> {
        self.inner.set_nodelay(on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory transport for exercising the injector without
    /// sockets: reads drain a script, writes append to a log.
    struct MemTransport {
        to_read: Vec<u8>,
        written: Vec<u8>,
    }

    impl Transport for MemTransport {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.to_read.len().min(buf.len());
            buf[..n].copy_from_slice(&self.to_read[..n]);
            self.to_read.drain(..n);
            Ok(n)
        }

        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.written.extend_from_slice(buf);
            Ok(())
        }

        fn set_read_timeout(&self, _dur: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn set_nodelay(&self, _on: bool) -> io::Result<()> {
            Ok(())
        }
    }

    fn mem(script: &[u8]) -> MemTransport {
        MemTransport {
            to_read: script.to_vec(),
            written: Vec::new(),
        }
    }

    #[test]
    fn unarmed_injector_is_transparent() {
        let inj = ChaosInjector::new(7);
        let mut t = ChaosTransport::new(mem(b"hello"), Arc::clone(&inj));
        t.write_all(b"abc").unwrap();
        let mut buf = [0u8; 8];
        let n = t.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello");
        assert_eq!(t.inner.written, b"abc");
        assert_eq!(inj.faults_fired(), 0);
        assert_eq!((inj.reads(), inj.writes()), (1, 1));
    }

    #[test]
    fn nth_write_disconnect_fires_once() {
        let inj = ChaosInjector::new(7);
        inj.fault_once(NetTrigger::NthWrite(2), NetFault::Disconnect);
        let mut t = ChaosTransport::new(mem(b""), Arc::clone(&inj));
        t.write_all(b"one").unwrap();
        let err = t.write_all(b"two").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        t.write_all(b"three").unwrap();
        assert_eq!(t.inner.written, b"onethree");
        assert_eq!(inj.faults_fired(), 1);
    }

    #[test]
    fn partial_write_keeps_prefix_then_breaks() {
        let inj = ChaosInjector::new(7);
        inj.fault_once(NetTrigger::NthWrite(1), NetFault::PartialWrite(4));
        let mut t = ChaosTransport::new(mem(b""), Arc::clone(&inj));
        let err = t.write_all(b"abcdefgh").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(t.inner.written, b"abcd");
    }

    #[test]
    fn corrupt_byte_is_deterministic_per_seed() {
        let run = |seed| {
            let inj = ChaosInjector::new(seed);
            inj.fault_once(NetTrigger::NthWrite(1), NetFault::CorruptByte);
            let mut t = ChaosTransport::new(mem(b""), inj);
            t.write_all(b"abcdefgh").unwrap();
            t.inner.written.clone()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same corruption");
        assert_ne!(a, b"abcdefgh".to_vec(), "exactly one byte differs");
        assert_eq!(a.iter().zip(b"abcdefgh").filter(|(x, y)| x != y).count(), 1);
    }

    #[test]
    fn blackhole_swallows_writes_and_times_out_reads() {
        let inj = ChaosInjector::new(7);
        inj.fault_once(NetTrigger::NthWrite(1), NetFault::Blackhole)
            .fault_once(NetTrigger::NthRead(1), NetFault::Blackhole);
        let mut t = ChaosTransport::new(mem(b"data"), Arc::clone(&inj));
        t.write_all(b"vanishes").unwrap();
        assert!(t.inner.written.is_empty(), "blackholed write sent nothing");
        let err = t.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(inj.faults_fired(), 2);
    }

    #[test]
    fn delay_then_proceeds() {
        let inj = ChaosInjector::new(7);
        inj.fault_once(NetTrigger::NthRead(1), NetFault::Delay(1));
        let mut t = ChaosTransport::new(mem(b"xy"), inj);
        let mut buf = [0u8; 2];
        assert_eq!(t.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf, b"xy");
    }

    #[test]
    fn reset_counters_rearms_nth_triggers() {
        let inj = ChaosInjector::new(7);
        inj.fault_always(NetTrigger::NthWrite(1), NetFault::Disconnect);
        let mut t = ChaosTransport::new(mem(b""), Arc::clone(&inj));
        assert!(t.write_all(b"a").is_err());
        assert!(t.write_all(b"b").is_ok(), "write 2 does not match");
        inj.reset_counters();
        assert!(t.write_all(b"c").is_err(), "rearmed after reset");
    }
}
