//! Corpus-scale streaming workloads: millions of flows, never materialized.
//!
//! The Table 2 presets in [`crate::workload`] build a `Vec` of every packet,
//! which caps them at the 40–60k-packet regime the repository's tests use.
//! Production means *millions of concurrent flows* churning through the MGPV
//! cache and the NIC group tables, under load that is anything but flat:
//! diurnal curves, flash crowds, and attack bursts injected mid-stream.
//!
//! [`ScaleWorkload`] generates that regime as an **iterator** — packets are
//! synthesized on demand in timestamp order and the generator's live state is
//! bounded by [`ScaleConfig::active_cap`] concurrent flows, independent of
//! the total flow count. Everything is deterministic per seed: flow launch
//! times come from inverting the closed-form cumulative load curve, and each
//! flow carries its own 8-byte splitmix64 RNG keyed by `(seed, flow index)`,
//! so a flow's packets do not depend on how flows interleave.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use superfe_net::{Direction, PacketRecord, Protocol};

/// A tiny deterministic RNG (splitmix64): 8 bytes of state per flow, so a
/// full [`ScaleConfig::active_cap`] of live flows stays cheap.
#[derive(Clone, Copy, Debug)]
struct Mix64(u64);

impl Mix64 {
    fn new(seed: u64) -> Self {
        Mix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` excluding 0 (safe for `ln`).
    fn next_unit_pos(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// A standard normal via Box–Muller.
    fn next_normal(&mut self) -> f64 {
        let u1 = self.next_unit_pos();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// An exponential sample with the given mean.
    fn next_exp(&mut self, mean: f64) -> f64 {
        -self.next_unit_pos().ln() * mean
    }
}

/// Sinusoidal day/night load modulation of the flow-arrival rate.
///
/// The instantaneous arrival rate at trace fraction `x ∈ [0, 1]` is
/// `1 + amplitude · sin(2π · periods · x − π/2)` — the trace starts at the
/// trough ("night"), peaks mid-period, and completes `periods` full cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Diurnal {
    /// Peak-to-mean swing in `[0, 1)`; 0 disables modulation.
    pub amplitude: f64,
    /// Full day cycles over the trace.
    pub periods: f64,
}

impl Default for Diurnal {
    fn default() -> Self {
        Diurnal {
            amplitude: 0.6,
            periods: 1.0,
        }
    }
}

/// A flash crowd: an additive boost to the flow-arrival rate inside a
/// window of the trace (e.g. a link failover dumping users onto this path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowd {
    /// Window start as a fraction of the trace duration.
    pub start_frac: f64,
    /// Window end as a fraction of the trace duration.
    pub end_frac: f64,
    /// Additional arrival rate inside the window, in multiples of the mean
    /// background rate (3.0 = 4× total during the crowd).
    pub boost: f64,
}

/// An attack burst injected mid-stream: many short flows from random
/// sources converging on one victim (a Mirai-style SYN/UDP flood shape),
/// which is exactly the adversarial key-cardinality pattern that used to
/// grow the NIC DRAM overflow table without bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackBurst {
    /// Window start as a fraction of the trace duration.
    pub start_frac: f64,
    /// Window end as a fraction of the trace duration.
    pub end_frac: f64,
    /// Number of attack flows launched inside the window.
    pub flows: usize,
    /// Packets per attack flow (short, fixed — floods do not converse).
    pub pkts_per_flow: u32,
    /// Victim address (attack flows all target this host).
    pub victim: u32,
}

impl Default for AttackBurst {
    fn default() -> Self {
        AttackBurst {
            start_frac: 0.55,
            end_frac: 0.65,
            flows: 0,
            pkts_per_flow: 4,
            victim: 0xC0A8_0001,
        }
    }
}

/// Configuration of a corpus-scale stream.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Total background flows over the trace.
    pub flows: usize,
    /// Mean packets per background flow (log-normal, heavy-tailed).
    pub mean_flow_len: f64,
    /// Log-normal sigma of the flow-length distribution.
    pub flow_sigma: f64,
    /// RNG seed; every derived stream is a pure function of the config.
    pub seed: u64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Maximum concurrently *live* flows inside the generator — the memory
    /// bound. Launches beyond the cap are deferred until a slot frees (their
    /// start is clamped forward so the stream stays time-sorted).
    pub active_cap: usize,
    /// Day/night arrival-rate modulation.
    pub diurnal: Diurnal,
    /// Flash-crowd windows (additive arrival-rate boosts).
    pub flash_crowds: Vec<FlashCrowd>,
    /// Optional attack burst injected mid-stream.
    pub attack: Option<AttackBurst>,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            flows: 10_000,
            mean_flow_len: 6.0,
            flow_sigma: 1.4,
            seed: 1,
            duration_s: 60.0,
            active_cap: 65_536,
            diurnal: Diurnal::default(),
            flash_crowds: vec![FlashCrowd {
                start_frac: 0.30,
                end_frac: 0.34,
                boost: 3.0,
            }],
            attack: Some(AttackBurst::default()),
        }
    }
}

/// Builder for corpus-scale streams. Start from [`ScaleWorkload::flows`] or
/// a preset, then chain setters.
#[derive(Clone, Debug)]
pub struct ScaleWorkload {
    cfg: ScaleConfig,
}

impl ScaleWorkload {
    /// A stream with `flows` background flows and an attack burst sized to
    /// 10% of the background (the default corpus shape used by
    /// `bench --bin scale`).
    pub fn flows(flows: usize) -> Self {
        let mut cfg = ScaleConfig {
            flows,
            ..ScaleConfig::default()
        };
        if let Some(a) = &mut cfg.attack {
            a.flows = flows / 10;
        }
        ScaleWorkload { cfg }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the mean background flow length (packets).
    pub fn mean_flow_len(mut self, len: f64) -> Self {
        self.cfg.mean_flow_len = len.max(1.0);
        self
    }

    /// Sets the trace duration in seconds.
    pub fn duration_s(mut self, s: f64) -> Self {
        self.cfg.duration_s = s.max(0.001);
        self
    }

    /// Sets the live-flow cap (generator memory bound).
    pub fn active_cap(mut self, cap: usize) -> Self {
        self.cfg.active_cap = cap.max(1);
        self
    }

    /// Replaces the diurnal curve.
    pub fn diurnal(mut self, d: Diurnal) -> Self {
        self.cfg.diurnal = d;
        self
    }

    /// Replaces the flash-crowd windows.
    pub fn flash_crowds(mut self, crowds: Vec<FlashCrowd>) -> Self {
        self.cfg.flash_crowds = crowds;
        self
    }

    /// Replaces (or removes) the attack burst.
    pub fn attack(mut self, attack: Option<AttackBurst>) -> Self {
        self.cfg.attack = attack;
        self
    }

    /// The resolved configuration.
    pub fn config(&self) -> &ScaleConfig {
        &self.cfg
    }

    /// Expected packet count (background mean × flows + attack packets) —
    /// an estimate for sizing benchmark runs, not a promise.
    pub fn expected_packets(&self) -> usize {
        let bg = (self.cfg.flows as f64 * self.cfg.mean_flow_len) as usize;
        let atk = self
            .cfg
            .attack
            .as_ref()
            .map_or(0, |a| a.flows * a.pkts_per_flow as usize);
        bg + atk
    }

    /// Starts streaming. The iterator's live state is bounded by
    /// [`ScaleConfig::active_cap`] flows regardless of `flows`.
    pub fn stream(&self) -> ScaleStream {
        ScaleStream::new(self.cfg.clone())
    }
}

/// Cumulative (unnormalized) arrival mass of the background curve on
/// `[0, x]`: the diurnal sinusoid integrates in closed form and each flash
/// crowd adds `boost × overlap`.
fn arrival_mass(cfg: &ScaleConfig, x: f64) -> f64 {
    let d = cfg.diurnal;
    let mut m = x;
    if d.amplitude > 0.0 && d.periods > 0.0 {
        let w = 2.0 * std::f64::consts::PI * d.periods;
        let phi = -std::f64::consts::FRAC_PI_2;
        // ∫ A·sin(w·t + φ) dt = −A/w · (cos(w·x + φ) − cos φ)
        m -= d.amplitude / w * ((w * x + phi).cos() - phi.cos());
    }
    for c in &cfg.flash_crowds {
        let lo = c.start_frac.clamp(0.0, 1.0);
        let hi = c.end_frac.clamp(0.0, 1.0);
        m += c.boost * (x.min(hi) - lo).max(0.0);
    }
    m
}

/// Bisection steps of one inversion.
const BISECT_STEPS: usize = 52;

/// The inverse of the normalized arrival mass, by bisection. Flows launch
/// in index order, so consecutive targets are close and their bisections
/// visit the same midpoints for a prefix of steps: the last path's
/// `(mid, mass)` pairs are kept and a midpoint seen before is read back,
/// not recomputed. `arrival_mass` is a pure function of the midpoint, so
/// the result is bit-identical to a cold bisection.
#[derive(Clone, Debug)]
struct ArrivalInverse {
    /// `arrival_mass(cfg, 1.0)`.
    total: f64,
    /// The last bisection's midpoint and its mass at each step.
    path: [(f64, f64); BISECT_STEPS],
    /// Inversions made, for the launch-once regression test.
    inversions: u64,
}

impl ArrivalInverse {
    fn new(cfg: &ScaleConfig) -> Self {
        ArrivalInverse {
            total: arrival_mass(cfg, 1.0),
            // No midpoint is NaN, so the empty path matches nothing.
            path: [(f64::NAN, 0.0); BISECT_STEPS],
            inversions: 0,
        }
    }

    /// The trace fraction `x` with `mass(x)/mass(1) = u`.
    fn invert(&mut self, cfg: &ScaleConfig, u: f64) -> f64 {
        self.inversions += 1;
        let target = u * self.total;
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for step in &mut self.path {
            let mid = 0.5 * (lo + hi);
            if step.0.to_bits() != mid.to_bits() {
                *step = (mid, arrival_mass(cfg, mid));
            }
            if step.1 < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// One live flow inside the generator.
#[derive(Clone, Debug)]
struct ActiveFlow {
    rng: Mix64,
    remaining: u32,
    next_ts: u64,
    mean_ipt_ns: f64,
    client: u32,
    server: u32,
    client_port: u16,
    server_port: u16,
    tcp: bool,
    attack: bool,
}

/// Live statistics of a stream (updated as packets are drawn).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Background flows launched so far.
    pub flows_launched: usize,
    /// Attack flows launched so far.
    pub attack_flows_launched: usize,
    /// Packets emitted so far.
    pub packets: u64,
    /// Attack packets emitted so far.
    pub attack_packets: u64,
    /// High-water mark of concurrently live flows (the generator's memory
    /// bound in action — never exceeds [`ScaleConfig::active_cap`]).
    pub peak_active: usize,
}

/// The streaming iterator over a [`ScaleWorkload`]. Yields packets in
/// non-decreasing timestamp order; memory is `O(active_cap)`.
pub struct ScaleStream {
    cfg: ScaleConfig,
    duration_ns: u64,
    /// Min-heap of `(next packet ts, slot)` over live flows.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    slots: Vec<Option<ActiveFlow>>,
    free: Vec<u32>,
    /// Next background flow index to launch (stratified start times).
    next_bg: usize,
    /// `(next_bg, its start)`: a flow held back by the cap keeps its start
    /// across the packets it waits behind.
    bg_start: Option<(usize, u64)>,
    curve: ArrivalInverse,
    /// Next attack flow index to launch.
    next_attack: usize,
    last_ts: u64,
    stats: ScaleStats,
}

impl ScaleStream {
    fn new(cfg: ScaleConfig) -> Self {
        let duration_ns = (cfg.duration_s * 1e9) as u64;
        ScaleStream {
            duration_ns,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_bg: 0,
            bg_start: None,
            curve: ArrivalInverse::new(&cfg),
            next_attack: 0,
            last_ts: 0,
            stats: ScaleStats::default(),
            cfg,
        }
    }

    /// Current stream statistics.
    pub fn stats(&self) -> ScaleStats {
        self.stats
    }

    /// Start timestamp of the next pending background flow, if any; the
    /// arrival curve is inverted once per flow.
    fn next_bg_start(&mut self) -> Option<u64> {
        if self.next_bg >= self.cfg.flows {
            return None;
        }
        if let Some((idx, start)) = self.bg_start {
            if idx == self.next_bg {
                return Some(start);
            }
        }
        let u = (self.next_bg as f64 + 0.5) / self.cfg.flows as f64;
        let x = self.curve.invert(&self.cfg, u);
        let start = (x * self.duration_ns as f64) as u64;
        self.bg_start = Some((self.next_bg, start));
        Some(start)
    }

    /// Start timestamp of the next pending attack flow, if any.
    fn next_attack_start(&self) -> Option<u64> {
        let a = self.cfg.attack.as_ref()?;
        if self.next_attack >= a.flows {
            return None;
        }
        let u = (self.next_attack as f64 + 0.5) / a.flows as f64;
        let x = a.start_frac + u * (a.end_frac - a.start_frac).max(0.0);
        Some((x.clamp(0.0, 1.0) * self.duration_ns as f64) as u64)
    }

    fn live(&self) -> usize {
        self.heap.len()
    }

    fn take_slot(&mut self, flow: ActiveFlow) -> u32 {
        let ts = flow.next_ts;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(flow);
                s
            }
            None => {
                self.slots.push(Some(flow));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((ts, slot)));
        self.stats.peak_active = self.stats.peak_active.max(self.live());
        slot
    }

    fn launch_background(&mut self, start: u64) {
        let idx = self.next_bg;
        self.next_bg += 1;
        self.stats.flows_launched += 1;
        // Per-flow RNG keyed by (seed, index): packets are independent of
        // how flows interleave, so tweaking the cap never changes content.
        let mut rng = Mix64::new(self.cfg.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9));
        let mu = self.cfg.mean_flow_len.ln() - self.cfg.flow_sigma * self.cfg.flow_sigma / 2.0;
        let len = (mu + self.cfg.flow_sigma * rng.next_normal()).exp();
        let remaining = (len.round() as u32).clamp(1, 10_000);
        let client = 0x0A00_0000 | (rng.next_u64() as u32 & 0x00FF_FFFF);
        let server = loop {
            let s = rng.next_u64() as u32;
            if s & 0xFF00_0000 != 0x0A00_0000 {
                break s;
            }
        };
        let server_port = [80u16, 443, 53, 123, 8080, 22][(rng.next_u64() % 6) as usize];
        let client_port = 1024 + (rng.next_u64() % (65536 - 1024)) as u16;
        let tcp = rng.next_f64() < 0.8;
        // Pace the flow so it ends inside the trace.
        let budget = (self.duration_ns.saturating_sub(start)) as f64;
        let mean_ipt_ns = 1_000_000.0f64.min((budget / (f64::from(remaining) + 1.0)).max(1000.0));
        self.take_slot(ActiveFlow {
            rng,
            remaining,
            next_ts: start.max(self.last_ts),
            mean_ipt_ns,
            client,
            server,
            client_port,
            server_port,
            tcp,
            attack: false,
        });
    }

    fn launch_attack(&mut self, start: u64) {
        let a = *self.cfg.attack.as_ref().expect("attack configured");
        let idx = self.next_attack;
        self.next_attack += 1;
        self.stats.attack_flows_launched += 1;
        let mut rng =
            Mix64::new(self.cfg.seed ^ 0xA77A_C4B0 ^ (idx as u64).wrapping_mul(0x2545_F491));
        // Spoofed-looking sources: high-entropy addresses, one per flow.
        let client = rng.next_u64() as u32 | 0x0100_0000;
        let client_port = 1024 + (rng.next_u64() % (65536 - 1024)) as u16;
        self.take_slot(ActiveFlow {
            rng,
            remaining: a.pkts_per_flow.max(1),
            next_ts: start.max(self.last_ts),
            mean_ipt_ns: 50_000.0, // 50 µs — flood pacing
            client,
            server: a.victim,
            client_port,
            server_port: 80,
            tcp: true,
            attack: true,
        });
    }

    /// Launches every pending flow that should start at or before `horizon`
    /// (or at least one flow when nothing is live), respecting the cap.
    fn launch_due(&mut self, horizon: Option<u64>) {
        loop {
            if self.live() >= self.cfg.active_cap {
                return;
            }
            let bg = self.next_bg_start();
            let atk = self.next_attack_start();
            let (start, is_attack) = match (bg, atk) {
                (None, None) => return,
                (Some(b), None) => (b, false),
                (None, Some(a)) => (a, true),
                (Some(b), Some(a)) => {
                    if a < b {
                        (a, true)
                    } else {
                        (b, false)
                    }
                }
            };
            match horizon {
                Some(h) if start > h && self.live() > 0 => return,
                _ => {}
            }
            if is_attack {
                self.launch_attack(start);
            } else {
                self.launch_background(start);
            }
        }
    }
}

impl Iterator for ScaleStream {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        let horizon = self.heap.peek().map(|Reverse((ts, _))| *ts);
        self.launch_due(horizon);
        let Reverse((ts, slot)) = self.heap.pop()?;
        let flow = self.slots[slot as usize].as_mut().expect("live slot");

        // Emit one packet of this flow.
        let ingress = flow.attack || flow.rng.next_f64() < 0.6;
        let size: u16 = if flow.attack {
            64
        } else {
            match flow.rng.next_f64() {
                x if x < 0.30 => 1500,
                x if x < 0.80 => 64,
                _ => 600,
            }
        };
        let ts = ts.max(self.last_ts);
        let (src_ip, dst_ip, src_port, dst_port, dir) = if ingress {
            // Client → server is the monitored ingress direction here.
            (
                flow.client,
                flow.server,
                flow.client_port,
                flow.server_port,
                Direction::Ingress,
            )
        } else {
            (
                flow.server,
                flow.client,
                flow.server_port,
                flow.client_port,
                Direction::Egress,
            )
        };
        let mut rec = if flow.tcp {
            PacketRecord::tcp(ts, size, src_ip, src_port, dst_ip, dst_port)
        } else {
            PacketRecord::udp(ts, size, src_ip, src_port, dst_ip, dst_port)
        };
        rec.direction = dir;
        debug_assert_eq!(
            rec.proto,
            if flow.tcp {
                Protocol::Tcp
            } else {
                Protocol::Udp
            }
        );

        self.last_ts = ts;
        self.stats.packets += 1;
        if flow.attack {
            self.stats.attack_packets += 1;
        }
        flow.remaining -= 1;
        if flow.remaining == 0 {
            self.slots[slot as usize] = None;
            self.free.push(slot);
        } else {
            let gap = flow.rng.next_exp(flow.mean_ipt_ns) as u64 + 1;
            flow.next_ts = ts.saturating_add(gap);
            let next = flow.next_ts;
            self.heap.push(Reverse((next, slot)));
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> ScaleWorkload {
        ScaleWorkload::flows(2_000).seed(7).duration_s(10.0)
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<PacketRecord> = small().stream().collect();
        let b: Vec<PacketRecord> = small().stream().collect();
        assert_eq!(a, b);
        let c: Vec<PacketRecord> = small().seed(8).stream().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn stream_is_time_sorted() {
        let pkts: Vec<PacketRecord> = small().stream().collect();
        assert!(pkts.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn launches_every_flow() {
        let mut s = small().stream();
        let n = s.by_ref().count();
        let st = s.stats();
        assert_eq!(st.flows_launched, 2_000);
        assert_eq!(st.attack_flows_launched, 200);
        assert_eq!(st.packets as usize, n);
        assert!(st.attack_packets > 0);
    }

    #[test]
    fn distinct_flow_cardinality_matches() {
        let mut s = ScaleWorkload::flows(5_000).seed(3).stream();
        let mut tuples: HashSet<(u32, u32, u16, u16)> = HashSet::new();
        for p in s.by_ref() {
            let t = if p.direction == Direction::Ingress {
                (p.src_ip, p.dst_ip, p.src_port, p.dst_port)
            } else {
                (p.dst_ip, p.src_ip, p.dst_port, p.src_port)
            };
            tuples.insert(t);
        }
        let launched = s.stats().flows_launched + s.stats().attack_flows_launched;
        // Birthday collisions on random endpoints are possible but rare.
        assert!(tuples.len() > launched * 99 / 100, "{}", tuples.len());
    }

    #[test]
    fn active_cap_bounds_generator_state() {
        let mut s = ScaleWorkload::flows(20_000)
            .seed(5)
            .active_cap(256)
            .stream();
        let n = s.by_ref().count();
        let st = s.stats();
        assert!(st.peak_active <= 256, "peak {}", st.peak_active);
        assert_eq!(st.flows_launched, 20_000);
        assert!(n > 20_000);
    }

    #[test]
    fn diurnal_curve_shifts_launch_mass() {
        // With a single-period diurnal starting at the trough, the first
        // quarter of the trace must launch well under a quarter of flows.
        let cfg = ScaleWorkload::flows(10_000)
            .seed(2)
            .attack(None)
            .flash_crowds(Vec::new())
            .diurnal(Diurnal {
                amplitude: 0.9,
                periods: 1.0,
            });
        let dur_ns = (cfg.config().duration_s * 1e9) as u64;
        let mut s = cfg.stream();
        let mut early = 0usize;
        let mut total = 0usize;
        for p in s.by_ref() {
            total += 1;
            if p.ts_ns < dur_ns / 4 {
                early += 1;
            }
        }
        assert!(
            (early as f64) < total as f64 * 0.15,
            "early {early} of {total}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let no_crowd = ScaleWorkload::flows(8_000)
            .seed(11)
            .attack(None)
            .diurnal(Diurnal {
                amplitude: 0.0,
                periods: 0.0,
            })
            .flash_crowds(Vec::new());
        let crowd = no_crowd.clone().flash_crowds(vec![FlashCrowd {
            start_frac: 0.40,
            end_frac: 0.44,
            boost: 20.0,
        }]);
        let dur_ns = (crowd.config().duration_s * 1e9) as u64;
        let in_window = |w: &ScaleWorkload| {
            w.stream()
                .filter(|p| p.ts_ns >= dur_ns * 40 / 100 && p.ts_ns < dur_ns * 44 / 100)
                .count()
        };
        assert!(in_window(&crowd) > in_window(&no_crowd) * 3);
    }

    #[test]
    fn attack_burst_targets_victim_inside_window() {
        let victim = 0xC0A8_0001;
        let w = ScaleWorkload::flows(4_000).seed(9);
        let dur_ns = (w.config().duration_s * 1e9) as u64;
        let atk = *w.config().attack.as_ref().unwrap();
        let hits: Vec<u64> = w
            .stream()
            .filter(|p| p.dst_ip == victim && p.size == 64)
            .map(|p| p.ts_ns)
            .collect();
        assert!(!hits.is_empty());
        let lo = (atk.start_frac * dur_ns as f64) as u64;
        let hi = (atk.end_frac * dur_ns as f64) as u64;
        // Attack flows start inside the window; their few packets tail off
        // shortly after (50 µs pacing), so allow a small overhang.
        let slack = dur_ns / 20;
        assert!(hits.iter().all(|&t| t + slack >= lo && t <= hi + slack));
    }

    #[test]
    fn expected_packets_is_a_sane_estimate() {
        let w = small();
        let est = w.expected_packets();
        let actual = w.stream().count();
        let err = (actual as f64 - est as f64).abs() / est as f64;
        assert!(err < 0.5, "estimate {est}, actual {actual}");
    }

    /// FNV-1a over 64-bit words: every field of every packet, in order.
    fn fold(stream: impl Iterator<Item = PacketRecord>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in stream {
            for w in [
                p.ts_ns,
                u64::from(p.size),
                u64::from(p.src_ip),
                u64::from(p.dst_ip),
                u64::from(p.src_port),
                u64::from(p.dst_port),
                u64::from(p.proto.number()),
                u64::from(p.tcp_flags),
                u64::from(p.direction == Direction::Ingress),
            ] {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The streams' bytes, pinned. The two capped streams have more flows
    /// than their cap, so launches wait on freed slots; the cap changes no
    /// content, so the 10k stream folds the same with and without it.
    #[test]
    fn stream_bytes_are_pinned() {
        let ten_k = ScaleWorkload::flows(10_000).seed(4);
        assert_eq!(fold(ten_k.stream()), 0x5757_0d06_0700_b2b9);
        assert_eq!(
            fold(ten_k.active_cap(1_024).stream()),
            0x5757_0d06_0700_b2b9
        );
        let capped = ScaleWorkload::flows(20_000).seed(5).active_cap(256);
        assert_eq!(fold(capped.stream()), 0xec8f_85b3_f548_00d4);
    }

    /// The benchmark's own corpus (`scale_churn`: 100k flows over 60 s),
    /// pinned at two seeds, with the stream's cost printed per packet.
    /// Slow in debug builds, so opt-in and a named `ci.sh` step:
    /// `cargo test --release -p superfe-trafficgen -- --ignored corpus`.
    #[test]
    #[ignore = "streams 1.3M packets in all; run in release"]
    fn corpus_bytes_are_pinned() {
        for (seed, want) in [(4, 0xebae_fc38_29df_0cd1), (11, 0x377a_ca57_4f75_a92d)] {
            let w = ScaleWorkload::flows(100_000).duration_s(60.0).seed(seed);
            let t0 = std::time::Instant::now();
            let mut s = w.stream();
            let h = fold(s.by_ref());
            let ns = t0.elapsed().as_nanos() as f64;
            let pkts = s.stats().packets;
            println!(
                "scale corpus seed {seed}: {pkts} packets, {:.0} ns/packet",
                ns / pkts as f64
            );
            assert_eq!(h, want, "seed {seed}: {h:016x}");
        }
    }

    #[test]
    fn mass_inversion_round_trips() {
        let cfg = ScaleConfig::default();
        let mut curve = ArrivalInverse::new(&cfg);
        // Out of order, so the kept path is reused, abandoned and rebuilt:
        // every answer must carry the bits of a cold bisection.
        for i in (0..50).map(|i| (i * 17) % 50) {
            let u = f64::from(i) / 50.0;
            let x = curve.invert(&cfg, u);
            let cold = ArrivalInverse::new(&cfg).invert(&cfg, u);
            assert_eq!(x.to_bits(), cold.to_bits(), "u {u}");
            let back = arrival_mass(&cfg, x) / arrival_mass(&cfg, 1.0);
            assert!((back - u).abs() < 1e-9, "u {u} x {x} back {back}");
        }
    }

    /// A flow held back by the cap keeps its start: the curve is inverted
    /// once per background flow, not once per packet it waits behind.
    #[test]
    fn each_flow_inverts_the_arrival_curve_once() {
        let mut s = ScaleWorkload::flows(20_000)
            .seed(5)
            .active_cap(256)
            .stream();
        let packets = s.by_ref().count();
        assert!(packets > 20_000);
        assert!(
            s.curve.inversions <= 20_000 + 1,
            "{} inversions",
            s.curve.inversions
        );
    }
}
