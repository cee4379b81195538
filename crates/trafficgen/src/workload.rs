//! Workload traces matching the paper's Table 2.
//!
//! | Preset | Avg flow length | Avg packet size | Character |
//! |---|---|---|---|
//! | `MawiIxp` | 104 pkt/flow | 1246 B | IX backbone: long flows, MTU-sized packets |
//! | `Enterprise` | 9.2 pkt/flow | 739 B | cloud gateway: short flows, mixed sizes |
//! | `Campus` | 58 pkt/flow | 135 B | department core: chatty small packets |
//!
//! Flow lengths are log-normal (heavy-tailed, like real traces); packet
//! sizes come from a three-point mixture (MTU / tiny / mid) whose weights are
//! calibrated to the target average. Everything is deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use superfe_net::{Direction, FiveTuple, PacketRecord, Protocol};

use crate::dist::{weighted_index, Exponential, LogNormal};

/// The three Table 2 trace profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadPreset {
    /// Internet-exchange backbone (MAWI-like).
    MawiIxp,
    /// Cloud-gateway enterprise traffic.
    Enterprise,
    /// Campus core-router traffic.
    Campus,
}

impl WorkloadPreset {
    /// Human-readable name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadPreset::MawiIxp => "MAWI-IXP",
            WorkloadPreset::Enterprise => "ENTERPRISE",
            WorkloadPreset::Campus => "CAMPUS",
        }
    }

    /// All presets, in paper order.
    pub fn all() -> [WorkloadPreset; 3] {
        [
            WorkloadPreset::MawiIxp,
            WorkloadPreset::Enterprise,
            WorkloadPreset::Campus,
        ]
    }

    /// Target mean flow length (packets per flow, Table 2).
    pub fn mean_flow_len(self) -> f64 {
        match self {
            WorkloadPreset::MawiIxp => 104.0,
            WorkloadPreset::Enterprise => 9.2,
            WorkloadPreset::Campus => 58.0,
        }
    }

    /// Target mean packet size (bytes, Table 2).
    pub fn mean_pkt_size(self) -> f64 {
        match self {
            WorkloadPreset::MawiIxp => 1246.0,
            WorkloadPreset::Enterprise => 739.0,
            WorkloadPreset::Campus => 135.0,
        }
    }

    /// Log-normal sigma of the flow-length distribution (tail heaviness).
    fn flow_sigma(self) -> f64 {
        match self {
            WorkloadPreset::MawiIxp => 1.8,
            WorkloadPreset::Enterprise => 1.2,
            WorkloadPreset::Campus => 1.6,
        }
    }

    /// Size-mixture weights for (MTU 1500, tiny 64, mid) and the mid size,
    /// solved so the expected size hits [`Self::mean_pkt_size`].
    fn size_mixture(self) -> ([f64; 3], u16) {
        match self {
            // 0.805*1500 + 0.15*64 + 0.045*600 = 1244.1
            WorkloadPreset::MawiIxp => ([0.805, 0.150, 0.045], 600),
            // 0.423*1500 + 0.45*64 + 0.127*600 = 739.5
            WorkloadPreset::Enterprise => ([0.423, 0.450, 0.127], 600),
            // 0.030*1500 + 0.92*64 + 0.05*600 = 133.9
            WorkloadPreset::Campus => ([0.030, 0.920, 0.050], 600),
        }
    }

    /// Fraction of TCP flows (remainder UDP).
    fn tcp_fraction(self) -> f64 {
        match self {
            WorkloadPreset::MawiIxp => 0.85,
            WorkloadPreset::Enterprise => 0.75,
            WorkloadPreset::Campus => 0.60,
        }
    }
}

/// Builder for synthetic workload traces.
#[derive(Clone, Debug)]
pub struct Workload {
    preset: WorkloadPreset,
    packets: usize,
    seed: u64,
    duration_s: f64,
}

impl Workload {
    /// Starts a builder for the given preset with sane defaults
    /// (100k packets, 10 s duration, seed 1).
    pub fn preset(preset: WorkloadPreset) -> Self {
        Workload {
            preset,
            packets: 100_000,
            seed: 1,
            duration_s: 10.0,
        }
    }

    /// Shorthand for [`WorkloadPreset::MawiIxp`].
    pub fn mawi() -> Self {
        Self::preset(WorkloadPreset::MawiIxp)
    }

    /// Shorthand for [`WorkloadPreset::Enterprise`].
    pub fn enterprise() -> Self {
        Self::preset(WorkloadPreset::Enterprise)
    }

    /// Shorthand for [`WorkloadPreset::Campus`].
    pub fn campus() -> Self {
        Self::preset(WorkloadPreset::Campus)
    }

    /// Sets the approximate number of packets to generate.
    pub fn packets(mut self, n: usize) -> Self {
        self.packets = n;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trace duration in seconds.
    pub fn duration_s(mut self, s: f64) -> Self {
        self.duration_s = s.max(0.001);
        self
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = self.preset;
        let flow_len = LogNormal::with_mean(p.mean_flow_len(), p.flow_sigma())
            .expect("preset parameters are valid");
        let (weights, mid_size) = p.size_mixture();
        let duration_ns = (self.duration_s * 1e9) as u64;

        let mut records: Vec<PacketRecord> = Vec::with_capacity(self.packets + 1024);
        while records.len() < self.packets {
            let len = (flow_len.sample(&mut rng).round() as usize).max(1);
            let remaining = self.packets - records.len();
            let len = len.min(remaining.max(1));

            // Endpoints: internal client in 10.0.0.0/8, external server.
            let client: u32 = 0x0A00_0000 | (rng.random::<u32>() & 0x00FF_FFFF);
            let server: u32 = loop {
                let s = rng.random::<u32>();
                if s & 0xFF00_0000 != 0x0A00_0000 {
                    break s;
                }
            };
            let proto = if rng.random::<f64>() < p.tcp_fraction() {
                Protocol::Tcp
            } else {
                Protocol::Udp
            };
            let server_port = *[80u16, 443, 53, 123, 8080, 22]
                .get(weighted_index(&mut rng, &[30.0, 45.0, 10.0, 5.0, 5.0, 5.0]))
                .expect("index in range");
            let client_port: u16 = rng.random_range(1024..=65535);

            // Packet timing: flow starts uniformly in the trace; inter-packet
            // gaps are exponential around a preset-specific mean (real flows
            // are paced at millisecond scale, not spread over the capture),
            // clamped so the flow still ends inside the trace window.
            let start = rng.random_range(0..duration_ns.max(1));
            let preset_ipt_ns: f64 = match p {
                WorkloadPreset::MawiIxp => 1_000_000.0,    // 1 ms
                WorkloadPreset::Enterprise => 3_000_000.0, // 3 ms
                WorkloadPreset::Campus => 2_000_000.0,     // 2 ms
            };
            let mean_ipt_ns =
                preset_ipt_ns.min(((duration_ns - start) as f64 / (len as f64 + 1.0)).max(1000.0));
            let ipt = Exponential::new(1.0 / mean_ipt_ns).expect("positive rate");

            let mut ts = start;
            for _ in 0..len {
                let ingress = rng.random::<f64>() < 0.6;
                let size = match weighted_index(&mut rng, &weights) {
                    0 => 1500u16,
                    1 => 64,
                    _ => mid_size,
                };
                let (src_ip, dst_ip, src_port, dst_port, dir) = if ingress {
                    (server, client, server_port, client_port, Direction::Ingress)
                } else {
                    (client, server, client_port, server_port, Direction::Egress)
                };
                let mut rec = match proto {
                    Protocol::Tcp => {
                        PacketRecord::tcp(ts, size, src_ip, src_port, dst_ip, dst_port)
                    }
                    _ => PacketRecord::udp(ts, size, src_ip, src_port, dst_ip, dst_port),
                };
                rec.direction = dir;
                records.push(rec);
                ts = ts.saturating_add(ipt.sample(&mut rng) as u64 + 1);
            }
        }
        records.sort_by_key(|r| r.ts_ns);
        Trace { records }
    }
}

/// A generated packet trace, sorted by timestamp.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The packets, in arrival order.
    pub records: Vec<PacketRecord>,
}

/// Summary statistics of a trace (the Table 2 columns).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceStats {
    /// Total packets.
    pub packets: usize,
    /// Distinct canonical 5-tuples.
    pub flows: usize,
    /// Mean packets per flow.
    pub avg_flow_len: f64,
    /// Mean packet size in bytes.
    pub avg_pkt_size: f64,
    /// Total bytes on the wire.
    pub total_bytes: u64,
    /// Trace duration in nanoseconds.
    pub duration_ns: u64,
}

impl Trace {
    /// Creates a trace from records (sorting by timestamp).
    pub fn from_records(mut records: Vec<PacketRecord>) -> Self {
        records.sort_by_key(|r| r.ts_ns);
        Trace { records }
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TraceStats {
        use std::collections::HashSet;
        let mut flows: HashSet<FiveTuple> = HashSet::new();
        let mut total_bytes = 0u64;
        let (mut first, mut last) = (u64::MAX, 0u64);
        for r in &self.records {
            flows.insert(FiveTuple::of(r).canonical().0);
            total_bytes += u64::from(r.size);
            first = first.min(r.ts_ns);
            last = last.max(r.ts_ns);
        }
        let packets = self.records.len();
        let nflows = flows.len().max(1);
        // Earliest to latest: a loaded trace need not be time-sorted.
        let duration_ns = last.saturating_sub(first);
        TraceStats {
            packets,
            flows: flows.len(),
            avg_flow_len: packets as f64 / nflows as f64,
            avg_pkt_size: if packets == 0 {
                0.0
            } else {
                total_bytes as f64 / packets as f64
            },
            total_bytes,
            duration_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_hit_table2_averages() {
        for preset in WorkloadPreset::all() {
            let trace = Workload::preset(preset).packets(60_000).seed(3).generate();
            let s = trace.stats();
            let size_err = (s.avg_pkt_size - preset.mean_pkt_size()).abs() / preset.mean_pkt_size();
            assert!(
                size_err < 0.05,
                "{}: avg size {} vs target {}",
                preset.name(),
                s.avg_pkt_size,
                preset.mean_pkt_size()
            );
            // Flow length is noisier (heavy tail + truncation at trace end):
            // require the right order of magnitude and correct ordering.
            let len_err = (s.avg_flow_len - preset.mean_flow_len()).abs() / preset.mean_flow_len();
            assert!(
                len_err < 0.5,
                "{}: avg flow len {} vs target {}",
                preset.name(),
                s.avg_flow_len,
                preset.mean_flow_len()
            );
        }
    }

    #[test]
    fn flow_length_ordering_matches_table2() {
        let lens: Vec<f64> = WorkloadPreset::all()
            .iter()
            .map(|&p| {
                Workload::preset(p)
                    .packets(50_000)
                    .seed(9)
                    .generate()
                    .stats()
                    .avg_flow_len
            })
            .collect();
        // MAWI > CAMPUS > ENTERPRISE.
        assert!(lens[0] > lens[2] && lens[2] > lens[1], "{lens:?}");
    }

    #[test]
    fn trace_is_sorted_and_sized() {
        let trace = Workload::enterprise().packets(5_000).seed(1).generate();
        assert!(trace.len() >= 5_000);
        assert!(trace.records.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn an_unsorted_trace_spans_earliest_to_latest() {
        // A loaded trace need not be time-sorted: reversed, it spans the
        // same time and its stats do not underflow.
        let mut trace = Workload::campus().packets(500).seed(2).generate();
        let sorted = trace.stats();
        trace.records.reverse();
        assert_eq!(trace.stats(), sorted);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::campus().packets(2_000).seed(5).generate();
        let b = Workload::campus().packets(2_000).seed(5).generate();
        assert_eq!(a.records, b.records);
        let c = Workload::campus().packets(2_000).seed(6).generate();
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn directions_are_mixed() {
        let trace = Workload::mawi().packets(10_000).seed(2).generate();
        let ingress = trace
            .records
            .iter()
            .filter(|r| r.direction == Direction::Ingress)
            .count();
        let frac = ingress as f64 / trace.len() as f64;
        assert!((0.5..0.7).contains(&frac), "ingress fraction {frac}");
    }

    #[test]
    fn internal_addresses_respected() {
        let trace = Workload::mawi().packets(2_000).seed(2).generate();
        for r in &trace.records {
            let internal_src = r.src_ip & 0xFF00_0000 == 0x0A00_0000;
            let internal_dst = r.dst_ip & 0xFF00_0000 == 0x0A00_0000;
            assert!(internal_src ^ internal_dst, "exactly one endpoint inside");
        }
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::default();
        let s = t.stats();
        assert_eq!(s.packets, 0);
        assert_eq!(s.flows, 0);
        assert_eq!(s.avg_pkt_size, 0.0);
    }

    #[test]
    fn from_records_sorts() {
        let r1 = PacketRecord::tcp(100, 64, 1, 2, 3, 4);
        let r2 = PacketRecord::tcp(50, 64, 1, 2, 3, 4);
        let t = Trace::from_records(vec![r1, r2]);
        assert_eq!(t.records[0].ts_ns, 50);
    }
}
