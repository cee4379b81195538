//! The Netronome NFP-4000 architecture model (Fig. 8 of the paper).

/// One level of the NFP's hierarchical memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Cluster Local Scratch: tiny, per-island, fastest.
    Cls,
    /// Cluster Target Memory: per-island.
    Ctm,
    /// Internal memory: shared by all islands.
    Imem,
    /// External memory cache: shared, backed by DRAM.
    Emem,
    /// External DRAM: effectively unbounded, slowest.
    Dram,
}

impl MemLevel {
    /// All levels, fastest first.
    pub fn all() -> [MemLevel; 5] {
        [
            MemLevel::Cls,
            MemLevel::Ctm,
            MemLevel::Imem,
            MemLevel::Emem,
            MemLevel::Dram,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MemLevel::Cls => "CLS",
            MemLevel::Ctm => "CTM",
            MemLevel::Imem => "IMEM",
            MemLevel::Emem => "EMEM",
            MemLevel::Dram => "DRAM",
        }
    }
}

/// Properties of one memory level as seen by a processing core.
#[derive(Clone, Copy, Debug)]
pub struct MemSpec {
    /// Which level this is.
    pub level: MemLevel,
    /// Access latency in core cycles (`l_m` in Eq. 3).
    pub latency_cycles: u64,
    /// Capacity in bytes (per island for CLS/CTM; total otherwise).
    pub capacity_bytes: usize,
    /// Maximum data-bus width per access in bytes (`w_m` in Eq. 5).
    pub bus_bytes: usize,
}

/// The SoC model: cores, threads, clock, and the memory hierarchy.
#[derive(Clone, Debug)]
pub struct NfpModel {
    /// Processing islands on one NIC.
    pub islands: usize,
    /// Flow-processing cores per island.
    pub cores_per_island: usize,
    /// Hardware threads per core.
    pub threads_per_core: usize,
    /// Core clock in Hz.
    pub freq_hz: f64,
    /// Cycles for a hardware context switch (§6.2: 2 cycles).
    pub ctx_switch_cycles: u64,
    /// Cycles for the compiler's soft division (§6.2: ~1500).
    pub soft_div_cycles: u64,
    /// The memory hierarchy, fastest first.
    pub memories: Vec<MemSpec>,
}

impl NfpModel {
    /// The NFP-4000 as configured in the paper's testbed (one NIC:
    /// 60 flow-processing cores; two NICs give the 120-core Fig. 16 sweep).
    pub fn nfp4000() -> Self {
        NfpModel {
            islands: 5,
            cores_per_island: 12,
            threads_per_core: 8,
            freq_hz: 800e6,
            ctx_switch_cycles: 2,
            soft_div_cycles: 1500,
            memories: vec![
                MemSpec {
                    level: MemLevel::Cls,
                    latency_cycles: 30,
                    capacity_bytes: 64 * 1024,
                    bus_bytes: 64,
                },
                MemSpec {
                    level: MemLevel::Ctm,
                    latency_cycles: 80,
                    capacity_bytes: 256 * 1024,
                    bus_bytes: 64,
                },
                MemSpec {
                    level: MemLevel::Imem,
                    latency_cycles: 200,
                    capacity_bytes: 4 * 1024 * 1024,
                    bus_bytes: 64,
                },
                MemSpec {
                    level: MemLevel::Emem,
                    latency_cycles: 300,
                    capacity_bytes: 3 * 1024 * 1024,
                    bus_bytes: 64,
                },
                MemSpec {
                    level: MemLevel::Dram,
                    latency_cycles: 500,
                    capacity_bytes: 2 * 1024 * 1024 * 1024,
                    bus_bytes: 64,
                },
            ],
        }
    }

    /// Total cores on one NIC.
    pub fn total_cores(&self) -> usize {
        self.islands * self.cores_per_island
    }

    /// Looks up a memory level's spec.
    pub fn memory(&self, level: MemLevel) -> Option<&MemSpec> {
        self.memories.iter().find(|m| m.level == level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfp4000_matches_paper_parameters() {
        let m = NfpModel::nfp4000();
        assert_eq!(m.total_cores(), 60);
        assert_eq!(m.threads_per_core, 8);
        assert_eq!(m.total_cores() * m.threads_per_core, crate::MAX_WORKERS);
        assert_eq!(m.freq_hz, 800e6);
        assert_eq!(m.ctx_switch_cycles, 2);
        assert_eq!(m.soft_div_cycles, 1500);
    }

    #[test]
    fn memory_hierarchy_latency_increases() {
        let m = NfpModel::nfp4000();
        let lats: Vec<u64> = m.memories.iter().map(|s| s.latency_cycles).collect();
        assert!(lats.windows(2).all(|w| w[0] < w[1]), "{lats:?}");
    }

    #[test]
    fn memory_capacities_span_the_hierarchy() {
        // CLS is the smallest, DRAM the largest; EMEM is a 3 MB cache in
        // front of DRAM, so capacity is not strictly monotone in the middle.
        let m = NfpModel::nfp4000();
        let cls = m.memory(MemLevel::Cls).unwrap().capacity_bytes;
        let dram = m.memory(MemLevel::Dram).unwrap().capacity_bytes;
        assert!(m.memories.iter().all(|s| s.capacity_bytes >= cls));
        assert!(m.memories.iter().all(|s| s.capacity_bytes <= dram));
    }

    #[test]
    fn lookup_by_level() {
        let m = NfpModel::nfp4000();
        assert_eq!(m.memory(MemLevel::Cls).unwrap().latency_cycles, 30);
        assert_eq!(m.memory(MemLevel::Dram).unwrap().latency_cycles, 500);
        assert_eq!(MemLevel::all().len(), 5);
        assert_eq!(MemLevel::Imem.name(), "IMEM");
    }
}
