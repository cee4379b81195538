//! The process-wide monotonic clock: every stage and every run reports on
//! the time base of [`monotonic_ns`] instead of scattering independent
//! `Instant::now()` pairs.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide monotonic anchor (first call).
///
/// The anchor is a [`std::time::Instant`], so the value is monotonic and
/// immune to wall-clock adjustments. Every component that timestamps reads
/// this one source.
pub fn monotonic_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = ANCHOR.get_or_init(Instant::now);
    // u64 nanoseconds cover ~584 years of process uptime.
    anchor.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
