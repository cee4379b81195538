//! The one place [`super`] gets its synchronization from: atomics, fences,
//! park / unpark and the timed park of the dwell.
//!
//! Outside tests this is `std` and nothing else. Under `cfg(test)` every
//! operation first asks whether the calling thread runs under the schedule
//! explorer (`explore.rs`); if so the explorer performs it — most are
//! scheduling points — otherwise, in every ordinary unit test, it is the
//! same `std` call. The ring itself is compiled once and cannot tell.

use std::time::{Duration, Instant};

pub(super) use imp::*;
pub(super) use std::sync::atomic::Ordering;

/// Parks for at most `dwell`; `true` when all of it passed (as opposed to
/// an unpark, a stale token or a spurious return cutting it short).
fn std_park_timeout(dwell: Duration) -> bool {
    let parked_at = Instant::now();
    std::thread::park_timeout(dwell);
    parked_at.elapsed() >= dwell
}

#[cfg(not(test))]
mod imp {
    pub use std::sync::atomic::{fence, AtomicBool, AtomicU64};
    pub use std::thread::{current, park, Thread};

    pub fn park_timeout(dwell: std::time::Duration) -> bool {
        super::std_park_timeout(dwell)
    }

    /// How many of a wait's `n` polls to make before parking: all of them.
    pub fn polls(n: u32) -> u32 {
        n
    }
}

#[cfg(test)]
mod imp {
    use std::sync::atomic::{self, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use super::super::explore::{self, Mem};

    /// A `u64` cell the explorer can buffer stores to; `bool`s are 0 / 1.
    #[derive(Debug, Default)]
    pub struct AtomicU64(Mem);

    impl AtomicU64 {
        pub fn new(v: u64) -> Self {
            AtomicU64(Arc::new(atomic::AtomicU64::new(v)))
        }

        pub fn load(&self, order: Ordering) -> u64 {
            explore::load(&self.0).unwrap_or_else(|| self.0.load(order))
        }

        pub fn store(&self, v: u64, order: Ordering) {
            if !explore::store(&self.0, v, order) {
                self.0.store(v, order);
            }
        }

        pub fn swap(&self, v: u64, order: Ordering) -> u64 {
            explore::swap(&self.0, v).unwrap_or_else(|| self.0.swap(v, order))
        }

        /// What is in memory now, not a scheduling point: for the model's
        /// checks on threads at rest.
        pub fn peek(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[derive(Debug, Default)]
    pub struct AtomicBool(AtomicU64);

    impl AtomicBool {
        pub fn new(v: bool) -> Self {
            AtomicBool(AtomicU64::new(u64::from(v)))
        }

        pub fn load(&self, order: Ordering) -> bool {
            self.0.load(order) != 0
        }

        pub fn store(&self, v: bool, order: Ordering) {
            self.0.store(u64::from(v), order);
        }

        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            self.0.swap(u64::from(v), order) != 0
        }

        pub fn peek(&self) -> bool {
            self.0.peek() != 0
        }
    }

    pub fn fence(order: Ordering) {
        if !explore::fence(order) {
            atomic::fence(order);
        }
    }

    /// A parked thread's handle: a real one, or a thread of the explorer's
    /// current execution.
    #[derive(Clone, Debug)]
    pub enum Thread {
        Std(std::thread::Thread),
        Model(usize),
    }

    impl Thread {
        pub fn unpark(&self) {
            match self {
                Thread::Std(t) => t.unpark(),
                Thread::Model(t) => explore::unpark(*t),
            }
        }
    }

    pub fn current() -> Thread {
        explore::me().map_or_else(|| Thread::Std(std::thread::current()), Thread::Model)
    }

    pub fn park() {
        if explore::park(false).is_none() {
            std::thread::park();
        }
    }

    pub fn park_timeout(dwell: Duration) -> bool {
        explore::park(true).unwrap_or_else(|| super::std_park_timeout(dwell))
    }

    /// Under the explorer a wait goes straight to its register / re-check /
    /// park protocol: the polls before it are the same `try_recv` and only
    /// lengthen every schedule.
    pub fn polls(n: u32) -> u32 {
        if explore::me().is_some() {
            0
        } else {
            n
        }
    }
}
