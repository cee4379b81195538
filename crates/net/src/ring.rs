//! A bounded single-producer/single-consumer ring buffer with doorbell
//! batching — the hot data-path transport of the streaming pipeline.
//!
//! Modeled on SmartNIC descriptor rings: the producer writes slots and
//! publishes them with a single atomic "doorbell" per batch instead of
//! taking a lock and signalling a condvar per send (what
//! `std::sync::mpsc::sync_channel` does). Design:
//!
//! - **Preallocated slots, atomic indices.** `capacity` slots are allocated
//!   up front. `tail` counts published items, `head` consumed items (both
//!   monotonic `u64`; slot index is `counter % capacity`). Head and tail
//!   live on separate cache lines so producer and consumer do not false-
//!   share.
//! - **Safe-Rust slot protocol.** The workspace denies `unsafe_code`, so
//!   slots are `Mutex<Option<T>>` rather than `UnsafeCell`: the SPSC
//!   publication protocol guarantees each lock is uncontended (the producer
//!   touches a slot only in `(tail, head+capacity]`, the consumer only in
//!   `(head, tail]`), making each slot access two uncontended atomic RMWs —
//!   no syscalls, no waiting. The `Release` store of `tail` after the slot
//!   write and the consumer's `Acquire` load form the happens-before edge
//!   that makes the payload visible; head works symmetrically for slot
//!   reuse.
//! - **Doorbell batching: published when full, or when the consumer
//!   asked.** `send` stages items locally and stores the shared `tail`
//!   (plus a possible consumer wakeup) once per `doorbell_batch` items —
//!   or at once when it takes the consumer's `hungry` request, see below —
//!   and on [`Producer::doorbell`], before blocking, and on drop. One
//!   synchronization point amortizes a whole batch while the consumer is
//!   busy; a consumer with nothing to do gets a batch of one.
//! - **Spin-then-park waiting, and the consumer keeps the time.** An empty
//!   consumer (or full producer) spins briefly, then registers itself in a
//!   `Waiter` and parks. The waker checks a `parked` flag — a single
//!   load in the common (running) case. The waiter re-checks the ring
//!   *after* registering and before parking, and `Thread::unpark` carries a
//!   token, so wakeups cannot be lost. [`Consumer::recv`] first parks for
//!   one `DWELL` only; if the ring is still empty when the dwell ends it
//!   raises the ring's `hungry` flag and parks untimed. The producer pays
//!   one relaxed load for this ([`Producer::take_hungry`]) and never reads
//!   a clock: under load the consumer never sits out a dwell, the flag is
//!   never raised and batches fill exactly as before; at low rate an item
//!   leaves within one dwell plus one wake of the next `send`; a silent
//!   source costs no wake-up after the first dwell. The flag is a polled
//!   level, not an edge: a source that stops with items staged is flushed
//!   by its next `send`, a `doorbell` or its drop, not by a timer.
//! - **Bounded, with backpressure or drop.** [`Producer::send`] blocks when
//!   the ring is full (after ringing the doorbell so the consumer can
//!   drain); [`Producer::try_send`] returns the item instead — the recycle
//!   paths use it to drop frames rather than block.
//!
//! Every atomic, fence, park and unpark below comes from the private
//! `sync` shim (`ring/sync.rs`): plain `std` outside tests, and inside a
//! test that installs a scheduler a yield to the deterministic schedule
//! explorer of `ring/explore.rs`, which `ring/model.rs` drives over every
//! producer / consumer / dwell-timeout interleaving of small rings.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use sync::{fence, AtomicBool, AtomicU64, Ordering, Thread};

#[cfg(test)]
mod explore;
#[cfg(test)]
mod model;
mod sync;

/// Spin iterations (CPU `pause`) before yielding while waiting.
const SPINS: u32 = 64;

/// `yield_now` rounds after spinning before parking. Kept small: on a
/// single-core host the peer cannot run while we spin, so parking early is
/// cheaper than burning the core.
const YIELDS: u32 = 4;

/// How long an empty consumer parks before it asks the producer for a
/// partial batch. One futex wake costs 5–10 CPU-µs, so a wake per
/// millisecond of idleness is under 1% of a core; a shorter dwell buys
/// little latency (the wake itself is ~0.1 ms away at 10 kHz) for more
/// wakes, a longer one is latency with nothing saved.
const DWELL: Duration = Duration::from_millis(1);

/// The spin → yield rungs of a wait, shared by both sides of the ring.
struct Backoff {
    spins: u32,
    yields: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff {
            spins: sync::polls(SPINS),
            yields: sync::polls(YIELDS),
        }
    }

    /// Burns one poll interval; `false` once it is time to park instead.
    fn snooze(&mut self) -> bool {
        if self.spins > 0 {
            self.spins -= 1;
            std::hint::spin_loop();
        } else if self.yields > 0 {
            self.yields -= 1;
            std::thread::yield_now();
        } else {
            return false;
        }
        true
    }
}

/// Error returned by [`Producer::send`] when the consumer is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Producer::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The ring is full; the item is handed back.
    Full(T),
    /// The consumer is gone; the item is handed back.
    Disconnected(T),
}

/// Error returned by [`Consumer::recv`] when the producer is gone and the
/// ring is drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Consumer::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// No published item right now.
    Empty,
    /// The producer is gone and everything published has been drained.
    Disconnected,
}

/// Pads a value to its own cache line to prevent false sharing between the
/// producer-owned and consumer-owned indices.
#[repr(align(64))]
struct CachePadded<T>(T);

/// One side's park/wake handle.
///
/// Protocol: the waiting side calls [`Waiter::register_current`], re-checks
/// the condition it is waiting on, and only then parks; the waking side
/// calls [`Waiter::notify`] after publishing. `notify` clears the `parked`
/// flag with a swap, so at most one unpark is issued per registration, and
/// the re-check plus `unpark`'s token guarantee a registration between
/// publish and park still wakes.
///
/// Each side stores one location and then loads the other (waiter: `parked`
/// then the condition; waker: the condition then `parked`). Release/acquire
/// alone lets both loads run ahead of both stores — on x86 too, out of the
/// store buffer — and then the waiter parks on a stale condition while the
/// waker skips the unpark: a lost wakeup. A `SeqCst` fence between the
/// store and the load on *both* sides (end of `register_current`, start of
/// `notify`) forbids that outcome: at least one side sees the other's store.
#[derive(Debug, Default)]
struct Waiter {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// Registers the calling thread as the parked waiter. The caller MUST
    /// re-check its wait condition after this call and before parking.
    fn register_current(&self) {
        *lock(&self.thread) = Some(sync::current());
        self.parked.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
    }

    /// Withdraws a registration (the condition turned true before parking).
    fn cancel(&self) {
        self.parked.store(false, Ordering::Release);
    }

    /// Parks the calling thread until notified (or spuriously woken — the
    /// caller loops on its condition either way).
    fn park(&self) {
        sync::park();
    }

    /// Parks for at most one [`DWELL`]; `true` when the whole dwell passed.
    fn park_dwell(&self) -> bool {
        sync::park_timeout(DWELL)
    }

    /// Wakes the registered waiter, if one is parked. A fence and a single
    /// flag load in the common nobody-parked case.
    fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Acquire) && self.parked.swap(false, Ordering::AcqRel) {
            // Cloned out first: the wake is a syscall, and nothing may wait
            // for the handle's lock behind it.
            let thread = lock(&self.thread).clone();
            if let Some(t) = thread {
                t.unpark();
            }
        }
    }
}

/// Uncontended-by-protocol slot lock; a poisoned mutex (peer panicked) just
/// yields the data — the disconnect flags handle the failure.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Consumed count (owned by the consumer, read by the producer).
    head: CachePadded<AtomicU64>,
    /// Published count (owned by the producer, read by the consumer).
    tail: CachePadded<AtomicU64>,
    producer_open: AtomicBool,
    consumer_open: AtomicBool,
    /// Consumer-side wake handle; `Arc` so `recv` can hold it across its
    /// `&mut self` re-check of the ring.
    consumer_waiter: Arc<Waiter>,
    producer_waiter: Waiter,
    /// Raised by a consumer that sat out a whole [`DWELL`] on an empty ring
    /// and is about to park untimed; lowered by the producer that takes
    /// it. `Relaxed` throughout: it publishes no data, and the producer
    /// polls it on every `send`, so a stale read costs one `send` of delay
    /// and is never a lost request. On its own line so the producer's poll
    /// stays a cache hit while the consumer moves `head`.
    hungry: CachePadded<AtomicBool>,
}

impl<T> Shared<T> {
    fn capacity(&self) -> u64 {
        self.slots.len() as u64
    }
}

/// The sending half of a ring. Not cloneable: strictly single-producer.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local item count including staged (not yet published) items.
    tail: u64,
    /// Value last stored to the shared tail.
    published: u64,
    /// Last observed consumer head (refreshed on demand).
    cached_head: u64,
    batch: u64,
}

/// The receiving half of a ring. Not cloneable: strictly single-consumer.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    head: u64,
    cached_tail: u64,
}

/// Creates a bounded SPSC ring of `capacity` slots whose doorbell fires
/// every `doorbell_batch` sends (both clamped to ≥ 1; the batch is also
/// clamped to the capacity).
pub fn channel<T: Send>(capacity: usize, doorbell_batch: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1);
    // Allocated before the slots and the shared block: the order decides
    // what the waiter's `parked` flag shares a cache line with, and the
    // `multitenant_shared` workload reads ~5% slower the other way round.
    let consumer_waiter = Arc::new(Waiter::default());
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        producer_open: AtomicBool::new(true),
        consumer_open: AtomicBool::new(true),
        consumer_waiter,
        producer_waiter: Waiter::default(),
        hungry: CachePadded(AtomicBool::new(false)),
    });
    (
        Producer {
            shared: shared.clone(),
            tail: 0,
            published: 0,
            cached_head: 0,
            batch: (doorbell_batch.max(1) as u64).min(capacity as u64),
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Publishes all staged items (stores the shared tail) and wakes the
    /// consumer if it is parked. A no-op when nothing is staged.
    ///
    /// Callers that are about to *wait* for the consumer (an ack handshake,
    /// a join) must ring the doorbell first; [`Producer::send`] does so
    /// itself before blocking on a full ring, and drop does too.
    pub fn doorbell(&mut self) {
        if self.published != self.tail {
            self.shared.tail.0.store(self.tail, Ordering::Release);
            self.published = self.tail;
            self.shared.consumer_waiter.notify();
        }
    }

    /// Items staged but not yet published.
    pub fn staged(&self) -> u64 {
        self.tail - self.published
    }

    /// Takes the consumer's request for an early batch, if it raised one:
    /// `true` at most once per request, and only after the consumer sat out
    /// a whole dwell on an empty ring (see the module documentation). A
    /// caller that batches *above* the ring — the shard pool fills frames —
    /// polls this to learn that its partial batch is wanted now. One
    /// relaxed load when nothing was asked.
    pub fn take_hungry(&mut self) -> bool {
        let hungry = &self.shared.hungry.0;
        hungry.load(Ordering::Relaxed) && hungry.swap(false, Ordering::Relaxed)
    }

    /// Sends one item, blocking while the ring is full (backpressure).
    /// Publishes when the doorbell batch is full or the consumer asked.
    /// Fails only when the consumer is gone, handing the item back.
    pub fn send(&mut self, item: T) -> Result<(), SendError<T>> {
        if self.wait_for_slot().is_err() {
            return Err(SendError(item));
        }
        self.write(item);
        if self.take_hungry() || self.staged() >= self.batch {
            self.doorbell();
        }
        Ok(())
    }

    /// Sends and immediately rings the doorbell — for control messages that
    /// must be visible to the consumer before the caller blocks on a
    /// response.
    pub fn send_now(&mut self, item: T) -> Result<(), SendError<T>> {
        self.send(item)?;
        self.doorbell();
        Ok(())
    }

    /// Non-blocking send: hands the item back instead of waiting when the
    /// ring is full. Always publishes immediately on success (the drop-able
    /// recycle paths want published-or-gone, never staged).
    pub fn try_send(&mut self, item: T) -> Result<(), TrySendError<T>> {
        if !self.shared.consumer_open.load(Ordering::Acquire) {
            return Err(TrySendError::Disconnected(item));
        }
        if self.tail - self.cached_head >= self.shared.capacity() {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.tail - self.cached_head >= self.shared.capacity() {
                return Err(TrySendError::Full(item));
            }
        }
        self.write(item);
        self.doorbell();
        Ok(())
    }

    fn write(&mut self, item: T) {
        let idx = (self.tail % self.shared.capacity()) as usize;
        *lock(&self.shared.slots[idx]) = Some(item);
        self.tail += 1;
    }

    /// Blocks until a slot is free. Err when the consumer disconnected.
    fn wait_for_slot(&mut self) -> Result<(), ()> {
        if self.tail - self.cached_head < self.shared.capacity() {
            // Fast path: known-free slot, one branch, no shared access.
            return if self.shared.consumer_open.load(Ordering::Acquire) {
                Ok(())
            } else {
                Err(())
            };
        }
        self.cached_head = self.shared.head.0.load(Ordering::Acquire);
        if self.tail - self.cached_head >= self.shared.capacity() {
            // Genuinely full: everything staged must become visible or the
            // consumer can never drain us.
            self.doorbell();
        }
        let mut backoff = Backoff::new();
        loop {
            if !self.shared.consumer_open.load(Ordering::Acquire) {
                return Err(());
            }
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.tail - self.cached_head < self.shared.capacity() {
                return Ok(());
            }
            if !backoff.snooze() {
                self.shared.producer_waiter.register_current();
                self.cached_head = self.shared.head.0.load(Ordering::Acquire);
                if self.tail - self.cached_head < self.shared.capacity()
                    || !self.shared.consumer_open.load(Ordering::Acquire)
                {
                    self.shared.producer_waiter.cancel();
                    continue;
                }
                self.shared.producer_waiter.park();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.doorbell();
        self.shared.producer_open.store(false, Ordering::Release);
        self.shared.consumer_waiter.notify();
    }
}

impl<T> Consumer<T> {
    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        if self.head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                if self.shared.producer_open.load(Ordering::Acquire) {
                    return Err(TryRecvError::Empty);
                }
                // The producer rings the doorbell before closing; re-read
                // the tail after observing the close so that final batch is
                // never missed.
                self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
                if self.head == self.cached_tail {
                    return Err(TryRecvError::Disconnected);
                }
            }
        }
        let idx = (self.head % self.shared.capacity()) as usize;
        let item = lock(&self.shared.slots[idx])
            .take()
            .expect("SPSC protocol: published slot is filled");
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        self.shared.producer_waiter.notify();
        Ok(item)
    }

    /// Blocking receive: spins briefly, parks for one dwell, then asks the
    /// producer for whatever it has staged (`hungry`) and parks until its
    /// doorbell. Err when the producer is gone and the ring is drained.
    pub fn recv(&mut self) -> Result<T, RecvError> {
        let mut backoff = Backoff::new();
        // Whether this call already sat out a whole dwell on an empty ring.
        let mut dwelt = false;
        loop {
            match self.try_recv() {
                Ok(item) => return Ok(item),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {}
            }
            if backoff.snooze() {
                continue;
            }
            let waiter = self.shared.consumer_waiter.clone();
            waiter.register_current();
            if dwelt {
                self.shared.hungry.0.store(true, Ordering::Relaxed);
            }
            match self.try_recv() {
                Ok(item) => {
                    waiter.cancel();
                    return Ok(item);
                }
                Err(TryRecvError::Disconnected) => {
                    waiter.cancel();
                    return Err(RecvError);
                }
                Err(TryRecvError::Empty) if dwelt => waiter.park(),
                Err(TryRecvError::Empty) => dwelt = waiter.park_dwell(),
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_open.store(false, Ordering::Release);
        self.shared.producer_waiter.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_in_order_with_wraparound() {
        let (mut tx, mut rx) = channel::<u64>(4, 1);
        for round in 0..8u64 {
            for i in 0..4u64 {
                tx.send(round * 4 + i).unwrap();
            }
            for i in 0..4u64 {
                assert_eq!(rx.recv().unwrap(), round * 4 + i);
            }
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn doorbell_batches_publication() {
        let (mut tx, mut rx) = channel::<u32>(8, 3);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Two staged, batch of three: not yet visible.
        assert_eq!(tx.staged(), 2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // Third send crosses the threshold: all three publish at once.
        tx.send(3).unwrap();
        assert_eq!(tx.staged(), 0);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
        // Explicit doorbell publishes a partial batch.
        tx.send(4).unwrap();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.doorbell();
        assert_eq!(rx.try_recv(), Ok(4));
    }

    #[test]
    fn try_send_reports_full_and_drops_nothing_silently() {
        let (mut tx, mut rx) = channel::<u32>(2, 1);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(4).unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(4));
    }

    #[test]
    fn producer_drop_flushes_staged_then_disconnects() {
        let (mut tx, mut rx) = channel::<u32>(8, 8);
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        drop(tx); // staged items must survive the drop
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Ok(8));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn consumer_drop_fails_sends() {
        let (mut tx, rx) = channel::<u32>(2, 1);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        assert_eq!(tx.try_send(2), Err(TrySendError::Disconnected(2)));
    }

    #[test]
    fn blocking_send_applies_backpressure_across_threads() {
        let (mut tx, mut rx) = channel::<u64>(2, 1);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i).unwrap();
            }
        });
        let mut next = 0u64;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, next);
            next += 1;
        }
        assert_eq!(next, 10_000);
        producer.join().unwrap();
    }

    #[test]
    fn parked_consumer_is_woken_by_late_producer() {
        let (mut tx, mut rx) = channel::<u32>(4, 1);
        let consumer = std::thread::spawn(move || rx.recv());
        // Give the consumer time to spin out and park.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Ok(42));
    }

    /// Polls until the consumer thread has raised `hungry`, under a
    /// watchdog: the flag is the only thing a parked consumer shows.
    fn wait_until_hungry<T>(tx: &Producer<T>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !tx.shared.hungry.0.load(Ordering::Relaxed) {
            assert!(std::time::Instant::now() < deadline, "consumer never asked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn consumer_asks_once_after_a_whole_dwell_and_not_before() {
        let (mut tx, mut rx) = channel::<u32>(8, 4);
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let consumer = std::thread::spawn(move || {
            // Busy: not in `recv` until told to look.
            gone.recv().expect("test thread lives");
            let first = rx.recv();
            gone.recv().expect("test thread lives");
            (first, rx.recv())
        });
        // A busy consumer never asks, however long it stays busy.
        std::thread::sleep(DWELL * 3);
        assert!(!tx.take_hungry());
        // One that waits asks on its own, with nothing sent — and not
        // before a whole dwell has passed since it could first have parked.
        // (Late observation can hide an early raise, never invent one.)
        let waiting_since = std::time::Instant::now();
        go.send(()).unwrap();
        wait_until_hungry(&tx);
        assert!(
            waiting_since.elapsed() >= DWELL,
            "asked before the dwell was over"
        );
        // Take-once: the first poll sees the request, the second does not,
        // and a consumer parked untimed does not repeat it.
        assert!(tx.take_hungry());
        assert!(!tx.take_hungry());
        std::thread::sleep(DWELL * 3);
        assert!(!tx.take_hungry());
        // The request is used up and the consumer, served, is busy again:
        // the next send is an ordinary staged one.
        tx.send_now(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.staged(), 1, "no request, no early publication");
        // Back in `recv` it finds nothing published, dwells, asks again.
        go.send(()).unwrap();
        wait_until_hungry(&tx);
        tx.doorbell();
        assert_eq!(consumer.join().unwrap(), (Ok(1), Ok(2)));
    }

    #[test]
    fn send_that_takes_the_request_publishes_a_batch_of_one() {
        let (mut tx, mut rx) = channel::<u32>(8, 4);
        let consumer = std::thread::spawn(move || (rx.recv(), rx));
        wait_until_hungry(&tx);
        // One item against a doorbell batch of four: published at once,
        // because the consumer asked, and the request is used up.
        tx.send(7).unwrap();
        assert_eq!(tx.staged(), 0);
        let (got, mut rx) = consumer.join().unwrap();
        assert_eq!(got, Ok(7));
        // The consumer is busy now (not in `recv`): batching is back.
        tx.send(8).unwrap();
        assert_eq!(tx.staged(), 1);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }
}
