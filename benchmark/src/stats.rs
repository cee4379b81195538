//! Measurement helpers that know nothing about SuperFE: order statistics,
//! the order-independent output digest, the Little's-law latency mean, and
//! the `/proc` readers behind `cpu_s_per_mpkt` and `peak_rss_mb`.

use std::time::Instant;

use crate::spec::Better;

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// same rule the driver applies across runs, applied here across the
/// repetitions of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values`; a single value is its own median and quartiles.
    /// Panics on an empty sample: every caller measures at least once.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        // CPython's integer arithmetic, including its clamp of the lower
        // neighbour to 1..n-1 (which extrapolates when n == 2).
        let at = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }
}

/// One reported number. Quartiles are over the repetitions of this run and
/// absent for single measurements.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub spread: Option<Quartiles>,
}

impl Metric {
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            spread: None,
        }
    }

    pub fn median(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        let q = Quartiles::of(values);
        Metric {
            name: name.to_string(),
            unit,
            value: q.median,
            spread: Some(q),
        }
    }

    /// The quartile on the better side: the median of the less disturbed
    /// half of the repetitions. On a shared host interference only ever
    /// slows a repetition, so the worse half carries the neighbours' noise,
    /// not the program's. The plain median and both quartiles stay in the
    /// detail line.
    pub fn better_half(name: &str, unit: &'static str, values: &[f64], better: Better) -> Metric {
        let q = Quartiles::of(values);
        Metric {
            name: name.to_string(),
            unit,
            value: match better {
                Better::Higher => q.q3,
                Better::Lower => q.q1,
            },
            spread: Some(q),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words: one xor-multiply per word instead of per byte,
/// so digesting a 115-value vector inside a NIC shard's sink costs ~0.1 µs
/// rather than ~1 µs of the shard's time.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    pub fn finish(self) -> u64 {
        // One more round so a trailing zero word still changes the result.
        (self.0 ^ (self.0 >> 32)).wrapping_mul(FNV_PRIME)
    }
}

/// Order-independent digest of a multiset of items: the wrapping sum of the
/// items' hashes plus their count. Shards may emit in any interleaving and
/// two digests merge by addition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub sum: u64,
    pub count: u64,
}

impl Digest {
    pub fn add(&mut self, item_hash: u64) {
        self.sum = self.sum.wrapping_add(item_hash);
        self.count += 1;
    }

    pub fn merge(&mut self, other: Digest) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }
}

/// Mean sojourn time from arrival and departure times that need not be
/// paired: Σ departures − Σ arrivals over N (Little's law on a drained
/// system). Valid only when every arrival departed, which the caller
/// asserts by comparing counts; reordering departures leaves it unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sojourn {
    pub arrivals_ns: u128,
    pub departures_ns: u128,
    pub arrived: u64,
    pub departed: u64,
}

impl Sojourn {
    pub fn arrive(&mut self, t_ns: u64, count: u64) {
        self.arrivals_ns += u128::from(t_ns) * u128::from(count);
        self.arrived += count;
    }

    pub fn depart(&mut self, t_ns: u64, count: u64) {
        self.departures_ns += u128::from(t_ns) * u128::from(count);
        self.departed += count;
    }

    /// Mean sojourn in milliseconds, or `None` when arrivals and departures
    /// do not balance (something was lost, so the sums do not pair up).
    pub fn mean_ms(&self) -> Option<f64> {
        if self.arrived == 0 || self.arrived != self.departed {
            return None;
        }
        let total = self.departures_ns as f64 - self.arrivals_ns as f64;
        Some(total / self.arrived as f64 / 1e6)
    }
}

/// A monotonic clock with one origin per process, so timestamps taken on
/// different threads subtract.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Process CPU seconds (user + system, all threads) from the text of
/// `/proc/self/stat`. The command name may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str, ticks_per_s: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state is field 3, utime 14, stime 15 (1-based).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / ticks_per_s)
}

/// Peak resident set in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture Rust targets.
const USER_HZ: f64 = 100.0;

pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s, USER_HZ))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Resets the kernel's high-water mark of this process's resident set, so
/// the next [`peak_rss_mb`] reads the peak since now. False where the kernel
/// refuses (then `VmHWM` stays the peak since process start).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = Quartiles::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let one = Quartiles::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    }

    fn item(words: &[u64]) -> u64 {
        let mut h = Fnv::new();
        for w in words {
            h.word(*w);
        }
        h.finish()
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let items = [item(&[1, 2, 3]), item(&[4]), item(&[5, 6]), item(&[0])];
        let mut a = Digest::default();
        items.iter().for_each(|i| a.add(*i));
        let mut b = Digest::default();
        items.iter().rev().for_each(|i| b.add(*i));
        assert_eq!(a, b);
        // Two shards merging equals one shard seeing everything.
        let (mut s0, mut s1) = (Digest::default(), Digest::default());
        s0.add(items[2]);
        s0.add(items[0]);
        s1.add(items[3]);
        s1.add(items[1]);
        s0.merge(s1);
        assert_eq!(s0, a);
        // A changed value, a dropped item and a swapped word order all show.
        let mut c = Digest::default();
        [item(&[1, 2, 4]), items[1], items[2], items[3]]
            .iter()
            .for_each(|i| c.add(*i));
        assert_ne!(a, c);
        let mut d = Digest::default();
        items[..3].iter().for_each(|i| d.add(*i));
        assert_ne!(a, d);
        assert_ne!(item(&[1, 2]), item(&[2, 1]));
        assert_ne!(item(&[1]), item(&[1, 0]));
    }

    #[test]
    fn fnv_bytes_separates_lengths() {
        let h = |b: &[u8]| {
            let mut f = Fnv::new();
            f.bytes(b);
            f.finish()
        };
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 3, 0]));
        assert_eq!(h(b"flow"), h(b"flow"));
    }

    #[test]
    fn sojourn_is_the_mean_and_survives_reordered_departures() {
        // Arrivals at 0, 10, 20, 30 ms; each waits 5, 7, 1, 3 ms.
        let arrivals = [0u64, 10, 20, 30].map(|ms| ms * 1_000_000);
        let waits = [5u64, 7, 1, 3].map(|ms| ms * 1_000_000);
        let departures: Vec<u64> = arrivals.iter().zip(waits).map(|(a, w)| a + w).collect();
        let mut s = Sojourn::default();
        arrivals.iter().for_each(|a| s.arrive(*a, 1));
        departures.iter().for_each(|d| s.depart(*d, 1));
        assert!((s.mean_ms().unwrap() - 4.0).abs() < 1e-9);
        // Same departures, emitted in another order (two shards interleave).
        let mut r = Sojourn::default();
        arrivals.iter().for_each(|a| r.arrive(*a, 1));
        for i in [2, 0, 3, 1] {
            r.depart(departures[i], 1);
        }
        assert_eq!(r.mean_ms(), s.mean_ms());
        // Weighted form: four arrivals stamped once, one joint departure.
        let mut w = Sojourn::default();
        w.arrive(1_000_000, 4);
        w.depart(3_000_000, 4);
        assert!((w.mean_ms().unwrap() - 2.0).abs() < 1e-9);
        // A lost vector invalidates the identity instead of biasing it.
        let mut lost = Sojourn::default();
        lost.arrive(0, 2);
        lost.depart(5, 1);
        assert_eq!(lost.mean_ms(), None);
    }

    #[test]
    fn proc_stat_survives_hostile_command_names() {
        let stat = "4242 (bench) mark (x) S 1 4242 4242 0 -1 4194304 \
                    1000 0 0 0 250 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        // utime 250 + stime 50 ticks at 100 Hz.
        assert_eq!(parse_stat_cpu_s(stat, 100.0), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage", 100.0), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2", 100.0), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_readers_work_on_this_host() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
