//! The ring under the schedule explorer ([`super::explore`]): every
//! producer / consumer / dwell-timeout interleaving of small rings, inside
//! stated bounds, checked schedule by schedule.
//!
//! **What is covered.** Capacity 1 and 2 × doorbell batch 1 and 2 (the
//! constructor clamps the batch to the capacity, so the 1 × 2 ring *is* the
//! 1 × 1 ring and explores identically) × three producers: a *stream*
//! (three `send`s back to back, then the drop), a *paced* source (it goes
//! [`explore::idle`] before each of its two items and once more before it
//! drops) and a *lossy* one (three `try_send`s, which drop on full). Between them every schedule family
//! the ring has occurs, and the test asserts that each did: the consumer
//! parks timed and is woken inside the dwell, the dwell fires, the
//! consumer raises `hungry` and parks untimed, the producer blocks on a
//! full ring, a hungry consumer is served early, a load reads past a
//! buffered store; the producer's drop ends every schedule. Bounds: 2
//! preemptions and 2 delays per schedule ([`BOUNDS`]); ~65,000 schedules,
//! the same count every run (printed, and the first plan is explored
//! twice and compared).
//!
//! **What is asserted on every schedule.**
//! - Every item sent (accepted, for `try_send`) is received exactly once,
//!   in order, and then the consumer sees the disconnect.
//! - Every thread returns: no schedule ends with a thread parked.
//! - Nobody sleeps on work that is already there: whenever no thread can
//!   run, a parked consumer (timed *or* untimed) faces an empty published
//!   ring and a parked producer a full one. A lost wakeup that the dwell's
//!   timer would paper over — the consumer dwelling next to a published
//!   item — fails here, not after a millisecond in production.
//! - `hungry` is taken at most once per raise and a stale one costs at most
//!   one early batch: early publications never outnumber fired dwells.
//! - A hungry consumer is served by the next `send`: a `send` that starts
//!   after the consumer parked untimed leaves nothing staged, and the
//!   consumer is never found parked untimed with its request taken and
//!   items still staged.
//!
//! **That it bites.** Each mutation below was made by hand in `ring.rs`,
//! this test run, and the edit reverted; quoted is the first failing
//! schedule (plans are capacity × batch, source).
//!
//! | mutation | first failure |
//! |---|---|
//! | `recv` parks without the re-check after `register_current` | 1 × 1 stream, schedule 37: "the consumer is Dwelling next to 1 published items" |
//! | `wait_for_slot` parks without that re-check | 1 × 1 stream, schedule 233: "the producer is parked on a ring with 0 of 1 slots taken" |
//! | `Producer::doorbell` drops its `notify` | 1 × 1 stream, schedule 1: "the consumer is Dwelling next to 1 published items" |
//! | `try_recv` drops its `notify` of the producer | 1 × 1 stream, schedule 1: "the producer is parked on a ring with 0 of 1 slots taken" |
//! | the consumer parks untimed straight after raising `hungry`, without the re-check | 1 × 1 paced, schedule 5252: "the consumer is Parked next to 1 published items" |
//! | the `SeqCst` fence of `register_current` removed | 1 × 1 stream, schedule 278: "the producer is parked on a ring with 0 of 1 slots taken" |
//! | the `SeqCst` fence of `notify` removed | 1 × 1 stream, schedule 415: same |
//! | `send` does not consult `take_hungry` | 2 × 2 paced, schedule 1: "send 0 left 1 staged under a consumer parked untimed" |
//! | `take_hungry` loads but never lowers the flag | 2 × 2 paced, schedule 457: "2 early publications for 1 fired dwells" |
//! | `recv` raises `hungry` without having dwelt | 2 × 2 stream, schedule 1: "1 early publications for 0 fired dwells" |
//!
//! Two of these deserve a note. The hungry-stage re-check looks redundant
//! — the registration made before the dwell is usually still armed when
//! the consumer parks untimed, and `unpark`'s token covers the gap — and
//! it takes five thousand schedules to show that it is not: a notify for
//! an item the consumer had already polled out lands at the very end of
//! the next dwell, which both ends the dwell and disarms the registration;
//! the producer then publishes and finds nobody parked; and only the
//! re-check stands between that and a consumer parked for good. And the
//! two fence mutations are found **only** through the store-buffer model:
//! with the delay bound at 0 (sequential consistency) every schedule of
//! both passes — the PR 13 lost wakeup is invisible to an
//! interleaving-only checker.
//!
//! The memory model is x86-TSO, not the full C++ one (see
//! [`super::explore`]): a bug that needs a load→load or store→store
//! reordering is outside what this test can see.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::explore::{self, Bounds, Rest, Scenario, Seen};
use super::{channel, TrySendError};

const PRODUCER: usize = 0;
const CONSUMER: usize = 1;

/// The stated bounds of the exploration.
const BOUNDS: Bounds = Bounds {
    preemptions: 2,
    delays: 2,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// `send`s back to back.
    Stream,
    /// Idles before every item and before the drop.
    Paced,
    /// `try_send`s back to back.
    Lossy,
}

#[derive(Clone, Copy, Debug)]
struct Plan {
    capacity: usize,
    batch: usize,
    items: u64,
    source: Source,
}

/// One execution of `plan`; `early` counts early publications across the
/// whole exploration.
fn scenario(plan: Plan, early: &Arc<AtomicU64>) -> Scenario {
    let (mut tx, mut rx) = channel::<u64>(plan.capacity, plan.batch);
    let shared = tx.shared.clone();
    let batch = tx.batch;
    // Harness state, not the ring's: plain `std`, never a scheduling point.
    let staged = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(Mutex::new(Vec::new()));
    let got = Arc::new(Mutex::new(Vec::new()));

    let producer = {
        let (staged, accepted, early) = (staged.clone(), accepted.clone(), early.clone());
        move || {
            let mut early_here = 0;
            for i in 0..plan.items {
                if plan.source == Source::Paced {
                    explore::idle();
                }
                let (before, started) = (tx.staged(), explore::clock());
                match plan.source {
                    Source::Lossy => match tx.try_send(i) {
                        Ok(()) => accepted.lock().unwrap().push(i),
                        Err(TrySendError::Full(_)) => {}
                        Err(TrySendError::Disconnected(_)) => panic!("consumer left early"),
                    },
                    _ => {
                        tx.send(i).expect("consumer lives until the disconnect");
                        accepted.lock().unwrap().push(i);
                        if tx.staged() == 0 && before + 1 < batch {
                            early_here += 1;
                        }
                    }
                }
                staged.store(tx.staged(), Ordering::SeqCst);
                if let Some((Rest::Parked, since)) = explore::resting(CONSUMER) {
                    assert!(
                        tx.staged() == 0 || since > started,
                        "send {i} left {} staged under a consumer parked untimed since {since} \
                         (the send began at {started})",
                        tx.staged()
                    );
                }
            }
            if plan.source == Source::Paced {
                explore::idle();
            }
            assert!(
                early_here <= explore::dwells_fired(),
                "{early_here} early publications for {} fired dwells",
                explore::dwells_fired()
            );
            early.fetch_add(early_here, Ordering::SeqCst);
            staged.store(0, Ordering::SeqCst);
        }
    };
    let consumer = {
        let got = got.clone();
        move || {
            while let Ok(v) = rx.recv() {
                got.lock().unwrap().push(v);
            }
        }
    };
    let at_rest = move |rest: &[Rest]| {
        let (tail, head) = (shared.tail.0.peek(), shared.head.0.peek());
        let sleeping = |r: Rest| matches!(r, Rest::Parked | Rest::Dwelling);
        if sleeping(rest[CONSUMER]) && tail != head {
            return Err(format!(
                "the consumer is {:?} next to {} published items",
                rest[CONSUMER],
                tail - head
            ));
        }
        if sleeping(rest[PRODUCER]) && tail - head < shared.capacity() {
            return Err(format!(
                "the producer is parked on a ring with {} of {} slots taken",
                tail - head,
                shared.capacity()
            ));
        }
        let staged = staged.load(Ordering::SeqCst);
        if rest[CONSUMER] == Rest::Parked
            && rest[PRODUCER] == Rest::Idle
            && staged > 0
            && !shared.hungry.0.peek()
        {
            return Err(format!(
                "the consumer's request was taken, {staged} items are still staged"
            ));
        }
        Ok(())
    };
    let verdict = move || {
        let (got, accepted) = (got.lock().unwrap(), accepted.lock().unwrap());
        if plan.source != Source::Lossy && accepted.len() as u64 != plan.items {
            return Err(format!("only {} sends returned", accepted.len()));
        }
        if *got != *accepted {
            return Err(format!("sent {accepted:?}, received {got:?}"));
        }
        Ok(())
    };
    Scenario {
        threads: vec![Box::new(producer), Box::new(consumer)],
        at_rest: Box::new(at_rest),
        verdict: Box::new(verdict),
    }
}

fn run(plan: Plan, early: &Arc<AtomicU64>) -> Seen {
    explore::explore(BOUNDS, || scenario(plan, early))
        .unwrap_or_else(|why| panic!("{plan:?}: {why}"))
}

#[test]
fn every_schedule_of_small_rings_keeps_the_protocol() {
    let early = Arc::new(AtomicU64::new(0));
    let mut total = Seen::default();
    let mut first = None;
    for capacity in [1, 2] {
        for batch in [1, 2] {
            for (source, items) in [(Source::Stream, 3), (Source::Paced, 2), (Source::Lossy, 3)] {
                let plan = Plan {
                    capacity,
                    batch,
                    items,
                    source,
                };
                let seen = run(plan, &early);
                println!("ring model: {plan:?}: {} schedules", seen.schedules);
                total.absorb(&seen);
                first.get_or_insert((plan, seen));
            }
        }
    }
    let early = early.load(Ordering::SeqCst);
    println!(
        "ring model: {} schedules in all (≤ {} preemptions, ≤ {} delays each): {total:?}, \
         {early} early publications",
        total.schedules, BOUNDS.preemptions, BOUNDS.delays
    );
    // The same schedules every run: the first plan again, count for count.
    let (plan, seen) = first.expect("plans ran");
    assert_eq!(
        run(plan, &Arc::default()),
        seen,
        "{plan:?} explored differently"
    );
    // Every schedule family the ring has was walked, not just allowed.
    assert!(
        total.timed_parks > total.dwells_fired,
        "no wake inside a dwell"
    );
    assert!(total.dwells_fired > 0, "no dwell fired");
    assert!(
        total.untimed_parks[CONSUMER] > 0,
        "the consumer never parked untimed"
    );
    assert!(
        total.untimed_parks[PRODUCER] > 0,
        "the producer never blocked on a full ring"
    );
    assert!(total.stale_reads > 0, "no load read past a buffered store");
    assert!(early > 0, "no hungry consumer was ever served early");
}
