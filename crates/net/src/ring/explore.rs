//! A deterministic schedule explorer for the ring's synchronization — an
//! in-tree stand-in for a loom-style model checker, like the vendored
//! `proptest` stand-in: no dependency, only what [`super::model`] needs.
//!
//! **Execution.** A scenario is a few closures, each run on an OS thread of
//! its own, of which exactly one runs at a time. Every load, store and
//! read-modify-write of the [`super::sync`] shim is a *scheduling point*:
//! the running thread takes the execution's lock, the explorer decides who
//! performs the next operation, and a thread that was not chosen waits for
//! its turn. Fences, `park` and `unpark` are not scheduling points, because
//! nothing another thread can observe separates "just before" from "just
//! after" them: what they do to memory is drain the caller's store buffer,
//! and whether a buffered store is seen is already decided at the access
//! that looks (see the memory model below); a park additionally blocks,
//! which is a decision of its own. The code under test is the real
//! `ring.rs`, compiled once.
//!
//! **Exploration.** Depth-first over the decisions of an execution, by
//! replay: each execution follows a recorded prefix of choices and takes
//! the first option at every later decision; afterwards the deepest
//! decision with an untried option inside the bounds becomes the next
//! prefix. The first option is always the cheap one — keep running the
//! current thread, let a store become visible at once — so the first
//! execution is the unpreempted sequentially consistent one, and two bounds
//! ([`Bounds`]) cap how far a schedule departs from it:
//!
//! - *preemptions*: switching away from a thread that could have gone on
//!   (switching because it parked, idled or ended is free), or a source
//!   resuming before a dwell that could have ended first;
//! - *delays*: reading past a store still in another thread's store buffer,
//!   or a wake landing so late in a dwell that the dwell counts as over.
//!
//! Everything is a function of the scenario and the bounds: the same
//! schedules, in the same order, every run.
//!
//! **Memory model: x86-TSO.** Each thread has a FIFO store buffer. A store
//! goes into it; the thread's own loads see it there; other threads see it
//! only once it has drained to memory. A `SeqCst` fence or store, a
//! read-modify-write, `park`, `unpark` (`std`'s parker does a locked
//! read-modify-write in both) and the end of the thread drain the buffer.
//! In between, draining is decided lazily, where it can first be observed:
//! when another thread accesses a location that has a buffered store, it
//! either sees memory as it is (a *delay*) or the buffer drains, in order,
//! through that store first. This is the store→load reordering that x86
//! performs and that lost a wakeup in `Waiter` before PR 13's fences. Load
//! →load and store→store reorderings of weaker machines are not modelled:
//! `Release`/`Acquire` are taken at their TSO strength.
//!
//! **Time.** A dwell is long against any bounded computation, so a timed
//! park times out only *at rest*: when no thread can run and none has an
//! unpark token waiting. A thread in [`idle`] — the model's stand-in for a
//! source between packets — may resume at any decision, but that is the
//! costed option: by default it stays idle while anybody runs and until
//! every dwell has ended. At rest the scenario's `at_rest` check sees which
//! thread is doing what, with every store buffer drained: the place to
//! assert that nobody sleeps on work that is already there.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{self, AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A shimmed atomic's memory cell (`bool`s are 0 / 1).
pub(super) type Mem = Arc<atomic::AtomicU64>;

/// Operations one execution may take before it is declared a livelock.
const STEP_LIMIT: u32 = 10_000;

/// `pause`s a thread spends watching for its turn before it sleeps on its
/// condvar. Most turns come back within a few operations of the other
/// thread; a futex round trip per handoff would be most of the run time.
const TURN_SPINS: u32 = 100_000;

/// How far a schedule may depart from the unpreempted sequentially
/// consistent one (see the module documentation).
#[derive(Clone, Copy, Debug)]
pub(super) struct Bounds {
    pub preemptions: u32,
    pub delays: u32,
}

/// What a thread that cannot run is doing, as `at_rest` sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Rest {
    /// In an untimed park with no token waiting.
    Parked,
    /// In a timed park with no token waiting.
    Dwelling,
    /// In [`idle`].
    Idle,
    /// Returned.
    Finished,
}

/// A check run whenever the execution is at rest.
pub(super) type AtRest = Box<dyn FnMut(&[Rest]) -> Result<(), String> + Send>;

/// One execution's worth of a scenario, built afresh for every schedule.
pub(super) struct Scenario {
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    pub at_rest: AtRest,
    /// Run on the exploring thread once every thread has returned.
    pub verdict: Box<dyn FnOnce() -> Result<(), String>>,
}

/// What the schedules of one exploration did, summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Seen {
    pub schedules: u64,
    /// Timed / untimed parks that actually blocked, per thread index 0 / 1+.
    pub timed_parks: u64,
    pub untimed_parks: [u64; 2],
    pub dwells_fired: u64,
    /// Accesses that read past a buffered store.
    pub stale_reads: u64,
}

impl Seen {
    pub fn absorb(&mut self, other: &Seen) {
        self.schedules += other.schedules;
        self.timed_parks += other.timed_parks;
        self.dwells_fired += other.dwells_fired;
        self.stale_reads += other.stale_reads;
        for (a, b) in self.untimed_parks.iter_mut().zip(other.untimed_parks) {
            *a += b;
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Parked { timed: bool },
    Idle,
    Finished,
}

/// What taking any option but the first costs at a decision.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cost {
    Free,
    Preemption,
    Delay,
}

struct Decision {
    options: u32,
    taken: u32,
    cost: Cost,
}

struct State {
    status: Vec<Status>,
    token: Vec<bool>,
    /// How each thread's last timed park ended.
    timed_out: Vec<bool>,
    /// The step at which each thread last stopped running.
    rested_at: Vec<u32>,
    buffers: Vec<VecDeque<(Mem, u64)>>,
    /// Threads asleep on their `turn` condvar (the rest are spinning).
    asleep: Vec<bool>,
    replay: Vec<u32>,
    path: Vec<Decision>,
    steps: u32,
    failure: Option<String>,
    seen: Seen,
    at_rest: AtRest,
}

struct Exec {
    state: Mutex<State>,
    /// One per thread, signalled when `whose` becomes that thread (or the
    /// execution aborts) while it is `asleep`.
    turn: Vec<Condvar>,
    /// The thread whose turn it is, and whether the execution was aborted.
    /// Written only under the lock; atomics so that a thread waiting for
    /// its turn can watch them without it.
    whose: AtomicUsize,
    aborted: AtomicBool,
}

thread_local! {
    /// The execution and thread index of a thread the explorer runs.
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

/// The payload a thread of an aborted execution unwinds with.
struct Aborted;

impl State {
    fn enabled(&self, t: usize) -> bool {
        match self.status[t] {
            Status::Runnable => true,
            Status::Parked { .. } => self.token[t],
            Status::Idle | Status::Finished => false,
        }
    }

    /// What thread `t`, which is not runnable, is doing.
    fn rest(&self, t: usize) -> Rest {
        match self.status[t] {
            Status::Parked { timed: false } => Rest::Parked,
            Status::Parked { timed: true } => Rest::Dwelling,
            Status::Idle => Rest::Idle,
            Status::Finished => Rest::Finished,
            Status::Runnable => unreachable!("asked of a thread that can run"),
        }
    }

    /// Records a decision among `options` and returns the one to take.
    fn choose(&mut self, options: usize, cost: Cost) -> usize {
        if options < 2 {
            return 0;
        }
        let taken = self.replay.get(self.path.len()).copied().unwrap_or(0);
        self.path.push(Decision {
            options: options as u32,
            taken,
            cost,
        });
        taken as usize
    }

    /// Commits `t`'s buffered stores to memory, oldest first, through
    /// index `through`.
    fn drain_through(&mut self, t: usize, through: usize) {
        for (cell, v) in self.buffers[t].drain(..=through) {
            cell.store(v, Ordering::SeqCst);
        }
    }

    fn drain(&mut self, t: usize) {
        if let Some(last) = self.buffers[t].len().checked_sub(1) {
            self.drain_through(t, last);
        }
    }

    /// `me` is about to access `cell` in memory: for every other thread
    /// with a store to it still buffered, either that buffer drains through
    /// the store first or (a delay) the access goes past it.
    fn settle(&mut self, me: usize, cell: &Mem) {
        for t in (0..self.buffers.len()).filter(|&t| t != me) {
            let newest = self.buffers[t]
                .iter()
                .rposition(|(c, _)| Arc::ptr_eq(c, cell));
            if let Some(newest) = newest {
                if self.choose(2, Cost::Delay) == 0 {
                    self.drain_through(t, newest);
                } else {
                    self.seen.stale_reads += 1;
                }
            }
        }
    }

    /// Picks the thread that performs the next operation and applies what
    /// made it runnable. `current` is the deciding thread, if it is one of
    /// the execution's. `Err` when nothing can ever run again.
    fn decide(&mut self, current: Option<usize>) -> Result<usize, String> {
        let n = self.status.len();
        let staying = current.filter(|&c| self.enabled(c));
        let mut options: Vec<usize> = staying.into_iter().collect();
        options.extend((0..n).filter(|&t| Some(t) != staying && self.enabled(t)));
        let at_rest = options.is_empty();
        if at_rest {
            // Parks and idles drained their buffers on the way in.
            let rest: Vec<Rest> = (0..n).map(|t| self.rest(t)).collect();
            (self.at_rest)(&rest)?;
            // Time passes: a dwell ends before a source resumes, unless the
            // source cuts it short (costed like the preemption it is below).
            options.extend((0..n).filter(|&t| self.status[t] == Status::Parked { timed: true }));
        }
        // A source resumes when it likes.
        options.extend((0..n).filter(|&t| self.status[t] == Status::Idle));
        if options.is_empty() {
            return Err("deadlock: every unfinished thread is parked with no wake coming".into());
        }
        let cost = if staying.is_some() || at_rest {
            Cost::Preemption
        } else {
            Cost::Free
        };
        let next = options[self.choose(options.len(), cost)];
        if let Status::Parked { timed } = self.status[next] {
            self.timed_out[next] = !self.token[next];
            self.token[next] = false;
            if timed && self.timed_out[next] {
                self.seen.dwells_fired += 1;
            }
        }
        self.status[next] = Status::Runnable;
        Ok(next)
    }
}

impl Exec {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ends the execution as failed and releases every waiting thread.
    fn abort(&self, st: &mut State, why: String) {
        st.failure.get_or_insert(why);
        self.aborted.store(true, Ordering::SeqCst);
        for turn in &self.turn {
            turn.notify_all();
        }
    }

    /// Makes `next` the running thread.
    fn pass(&self, st: &mut State, next: usize) {
        self.whose.store(next, Ordering::SeqCst);
        if st.asleep[next] {
            self.turn[next].notify_one();
        }
    }

    /// A thread of an aborted execution stops where it stands — unless it
    /// is already unwinding (its drops still run shim operations), in which
    /// case `None` tells the operation to act on memory directly.
    fn bail<T>(&self, st: MutexGuard<'_, State>) -> Option<T> {
        drop(st);
        if std::thread::panicking() {
            None
        } else {
            resume_unwind(Box::new(Aborted))
        }
    }

    /// Hands the execution to `next` and waits until it is `me`'s turn.
    fn switch<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: usize,
        next: usize,
    ) -> Option<MutexGuard<'a, State>> {
        if next != me {
            self.pass(&mut st, next);
        }
        let waiting =
            || self.whose.load(Ordering::SeqCst) != me && !self.aborted.load(Ordering::SeqCst);
        if waiting() {
            drop(st);
            for _ in 0..TURN_SPINS {
                if !waiting() {
                    break;
                }
                std::hint::spin_loop();
            }
            st = self.lock();
            while waiting() {
                st.asleep[me] = true;
                st = self.turn[me]
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.asleep[me] = false;
            }
        }
        if self.aborted.load(Ordering::SeqCst) {
            return self.bail(st);
        }
        Some(st)
    }

    /// Takes the lock for an operation of `me` that is not a scheduling
    /// point (see the module documentation for which are not, and why).
    fn enter(&self) -> Option<MutexGuard<'_, State>> {
        let st = self.lock();
        if self.aborted.load(Ordering::SeqCst) {
            return self.bail(st);
        }
        Some(st)
    }

    /// Lets the explorer pick who goes next; returns, holding the lock, when
    /// that is `me` again.
    fn reschedule<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: usize,
    ) -> Option<MutexGuard<'a, State>> {
        let next = if st.steps > STEP_LIMIT {
            Err(format!("livelock: more than {STEP_LIMIT} operations"))
        } else {
            st.decide(Some(me))
        };
        match next {
            Ok(next) => self.switch(st, me, next),
            Err(why) => {
                self.abort(&mut st, why);
                self.bail(st)
            }
        }
    }

    /// A scheduling point: returns, holding the lock, when `me` is the
    /// thread that performs the next operation.
    fn step(&self, me: usize) -> Option<MutexGuard<'_, State>> {
        let mut st = self.enter()?;
        st.steps += 1;
        self.reschedule(st, me)
    }

    /// Blocks `me` as `status` until the explorer makes it runnable again.
    fn block<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: usize,
        status: Status,
    ) -> Option<MutexGuard<'a, State>> {
        st.drain(me);
        st.status[me] = status;
        // Ticks the clock, so "rested before that reading" is `<=`.
        st.steps += 1;
        st.rested_at[me] = st.steps;
        self.reschedule(st, me)
    }

    /// Runs one thread of the execution to its end.
    fn run(self: &Arc<Self>, me: usize, body: Box<dyn FnOnce() + Send>) {
        CURRENT.with(|c| *c.borrow_mut() = Some((self.clone(), me)));
        let st = self.lock();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if self.switch(st, me, me).is_some() {
                body();
            }
        }));
        CURRENT.with(|c| *c.borrow_mut() = None);
        let mut st = self.lock();
        if let Err(payload) = outcome {
            if !payload.is::<Aborted>() {
                let why = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_else(|| "a thread panicked".into());
                self.abort(&mut st, format!("thread {me}: {why}"));
            }
        }
        if self.aborted.load(Ordering::SeqCst) {
            return;
        }
        st.drain(me);
        st.status[me] = Status::Finished;
        st.rested_at[me] = st.steps;
        if st.status.iter().all(|s| *s == Status::Finished) {
            return;
        }
        match st.decide(None) {
            Ok(next) => self.pass(&mut st, next),
            Err(why) => self.abort(&mut st, why),
        }
    }
}

/// Runs `f` on the calling thread's execution, if the explorer runs it.
fn with_exec<T>(f: impl FnOnce(&Exec, usize) -> T) -> Option<T> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(exec, me)| f(exec, *me)))
}

/// The calling thread's index in its execution, if the explorer runs it.
pub(super) fn me() -> Option<usize> {
    with_exec(|_, me| me)
}

/// A shimmed load: `None` when the caller should do the real thing.
pub(super) fn load(cell: &Mem) -> Option<u64> {
    with_exec(|exec, me| {
        let mut st = exec.step(me)?;
        let own = st.buffers[me]
            .iter()
            .rev()
            .find(|(c, _)| Arc::ptr_eq(c, cell))
            .map(|(_, v)| *v);
        Some(own.unwrap_or_else(|| {
            st.settle(me, cell);
            cell.load(Ordering::SeqCst)
        }))
    })
    .flatten()
}

/// A shimmed store: `false` when the caller should do the real thing.
pub(super) fn store(cell: &Mem, v: u64, order: Ordering) -> bool {
    with_exec(|exec, me| {
        let Some(mut st) = exec.step(me) else {
            return false;
        };
        st.buffers[me].push_back((cell.clone(), v));
        if order == Ordering::SeqCst {
            st.drain(me);
        }
        true
    })
    .unwrap_or(false)
}

/// A shimmed read-modify-write.
pub(super) fn swap(cell: &Mem, v: u64) -> Option<u64> {
    with_exec(|exec, me| {
        let mut st = exec.step(me)?;
        st.drain(me);
        st.settle(me, cell);
        Some(cell.swap(v, Ordering::SeqCst))
    })
    .flatten()
}

/// A shimmed fence: only `SeqCst` does anything under TSO.
pub(super) fn fence(order: Ordering) -> bool {
    with_exec(|exec, me| {
        let Some(mut st) = exec.enter() else {
            return false;
        };
        if order == Ordering::SeqCst {
            st.drain(me);
        }
        true
    })
    .unwrap_or(false)
}

/// A shimmed park; `Some(true)` when a timed one ran out its dwell. In an
/// aborted execution it returns at once: nothing would ever wake it.
pub(super) fn park(timed: bool) -> Option<bool> {
    with_exec(|exec, me| {
        let Some(mut st) = exec.enter() else {
            return false;
        };
        if st.token[me] {
            st.drain(me);
            st.token[me] = false;
            st.timed_out[me] = false;
        } else {
            if timed {
                st.seen.timed_parks += 1;
            } else {
                st.seen.untimed_parks[me.min(1)] += 1;
            }
            match exec.block(st, me, Status::Parked { timed }) {
                Some(woken) => st = woken,
                None => return false,
            }
        }
        // A wake may land at the very end of the dwell: woken, and the
        // whole dwell has passed too.
        let late = timed && !st.timed_out[me] && st.choose(2, Cost::Delay) == 1;
        if late {
            st.seen.dwells_fired += 1;
        }
        st.timed_out[me] || late
    })
}

/// A shimmed unpark of thread `target` of the caller's execution.
pub(super) fn unpark(target: usize) {
    with_exec(|exec, me| {
        if let Some(mut st) = exec.enter() {
            st.drain(me);
            st.token[target] = true;
        }
    });
}

/// The source stops: the calling thread rests until the explorer resumes
/// it, which it may do at any decision.
pub(super) fn idle() {
    with_exec(|exec, me| {
        if let Some(st) = exec.enter() {
            exec.block(st, me, Status::Idle);
        }
    });
}

/// The execution's operation count so far: a logical clock.
pub(super) fn clock() -> u32 {
    with_exec(|exec, _| exec.lock().steps).unwrap_or(0)
}

/// What thread `t` is doing, and since which [`clock`] reading, if it
/// cannot run (a parked thread with a token waiting can).
pub(super) fn resting(t: usize) -> Option<(Rest, u32)> {
    with_exec(|exec, _| {
        let st = exec.lock();
        (!st.enabled(t)).then(|| (st.rest(t), st.rested_at[t]))
    })
    .flatten()
}

/// Dwells that ran out so far in the calling thread's execution.
pub(super) fn dwells_fired() -> u64 {
    with_exec(|exec, _| exec.lock().seen.dwells_fired).unwrap_or(0)
}

/// The next replay prefix after an execution that took `path`: the deepest
/// decision with an untried option that stays inside `bounds`.
fn backtrack(mut path: Vec<Decision>, bounds: Bounds) -> Option<Vec<u32>> {
    while let Some(last) = path.pop() {
        let spent = |cost| {
            path.iter()
                .filter(|d| d.cost == cost && d.taken > 0)
                .count() as u32
        };
        let affordable = match last.cost {
            Cost::Free => true,
            Cost::Preemption => spent(Cost::Preemption) < bounds.preemptions,
            Cost::Delay => spent(Cost::Delay) < bounds.delays,
        };
        if last.taken + 1 < last.options && affordable {
            let mut replay: Vec<u32> = path.iter().map(|d| d.taken).collect();
            replay.push(last.taken + 1);
            return Some(replay);
        }
    }
    None
}

/// Receives like `recv`, but watches the channel for a while first: what
/// it waits for is usually microseconds away, a futex sleep is not.
fn recv_soon<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..TURN_SPINS {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
    rx.recv().ok()
}

/// The OS threads executions run on besides the exploring thread itself
/// (which runs thread 0), kept across schedules: spawning them per
/// schedule would cost more than the schedule.
struct Crew {
    hands: Vec<(Sender<Job>, JoinHandle<()>)>,
    /// One message per hand that has left its execution.
    left_tx: Sender<()>,
    left: Receiver<()>,
}

type Job = (Arc<Exec>, usize, Box<dyn FnOnce() + Send>);

impl Crew {
    fn new() -> Self {
        let (left_tx, left) = channel();
        Crew {
            hands: Vec::new(),
            left_tx,
            left,
        }
    }

    /// Runs `threads` as one execution and returns when all have left it.
    fn run(&mut self, exec: &Arc<Exec>, threads: Vec<Box<dyn FnOnce() + Send>>) {
        let mut threads = threads.into_iter().enumerate();
        let first = threads.next();
        let mut hired = 0;
        for (me, body) in threads {
            if hired == self.hands.len() {
                let (tx, jobs) = channel::<Job>();
                let left = self.left_tx.clone();
                let hand = std::thread::spawn(move || {
                    while let Some((exec, me, body)) = recv_soon(&jobs) {
                        exec.run(me, body);
                        let _ = left.send(());
                    }
                });
                self.hands.push((tx, hand));
            }
            self.hands[hired]
                .0
                .send((exec.clone(), me, body))
                .expect("hands live until the crew is dropped");
            hired += 1;
        }
        {
            let mut st = exec.lock();
            match st.decide(None) {
                Ok(first) => exec.pass(&mut st, first),
                Err(why) => exec.abort(&mut st, why),
            }
        }
        if let Some((me, body)) = first {
            exec.run(me, body);
        }
        for _ in 0..hired {
            recv_soon(&self.left).expect("the crew holds a sender");
        }
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        for (jobs, hand) in self.hands.drain(..) {
            drop(jobs);
            // A body's panic was caught and recorded by `Exec::run`.
            let _ = hand.join();
        }
    }
}

/// Runs every schedule of `scenario` inside `bounds`. `Err` carries the
/// first failing schedule's reason and the decisions that led to it.
pub(super) fn explore(
    bounds: Bounds,
    mut scenario: impl FnMut() -> Scenario,
) -> Result<Seen, String> {
    let mut crew = Crew::new();
    let mut seen = Seen::default();
    let mut replay = Vec::new();
    loop {
        let Scenario {
            threads,
            at_rest,
            verdict,
        } = scenario();
        let n = threads.len();
        let exec = Arc::new(Exec {
            state: Mutex::new(State {
                status: vec![Status::Runnable; n],
                token: vec![false; n],
                timed_out: vec![false; n],
                rested_at: vec![0; n],
                buffers: vec![VecDeque::new(); n],
                asleep: vec![false; n],
                replay,
                path: Vec::new(),
                steps: 0,
                failure: None,
                seen: Seen::default(),
                at_rest,
            }),
            turn: (0..n).map(|_| Condvar::new()).collect(),
            whose: AtomicUsize::new(usize::MAX),
            aborted: AtomicBool::new(false),
        });
        crew.run(&exec, threads);
        let mut st = exec.lock();
        seen.schedules += 1;
        seen.absorb(&st.seen);
        let path = std::mem::take(&mut st.path);
        let failure = st.failure.take().or_else(|| verdict().err());
        drop(st);
        if let Some(why) = failure {
            let taken: Vec<u32> = path.iter().map(|d| d.taken).collect();
            return Err(format!(
                "schedule {} failed: {why}\n  decisions taken: {taken:?}",
                seen.schedules
            ));
        }
        match backtrack(path, bounds) {
            Some(next) => replay = next,
            None => return Ok(seen),
        }
    }
}
