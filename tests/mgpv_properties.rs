//! Property-based tests of the MGPV cache invariants.
//!
//! 1. **Conservation**: every inserted record is evicted exactly once.
//! 2. **Order preservation**: within any finest-granularity group, records
//!    reach the NIC in arrival order (the paper's key correctness property
//!    of MGPV vs naive multi-granularity eviction).
//! 3. **FG consistency**: every record's FG index resolves on the NIC.

use proptest::prelude::*;

use superfe::net::{Granularity, GroupKey, PacketRecord};
use superfe::switch::{CgEvictPolicy, MgpvCache, MgpvConfig, SwitchEvent};

#[derive(Clone, Debug)]
struct PktSpec {
    host: u8,
    port: u8,
    gap_us: u32,
    size: u16,
}

/// Gaps are mostly intra-flow scale (< 2 ms), with one in eight drawn up to
/// 200 ms: longer than a full probe scan of every table below, so the
/// one-scan cap and the cursor wrap are exercised.
fn pkt_strategy() -> impl Strategy<Value = PktSpec> {
    (0u8..12, 0u8..4, 0u8..8, 0u32..200_000, 64u16..1500).prop_map(
        |(host, port, long_gap, gap_us, size)| PktSpec {
            host,
            port,
            gap_us: if long_gap == 0 {
                gap_us
            } else {
                gap_us % 2_000
            },
            size,
        },
    )
}

fn cache_strategy() -> impl Strategy<Value = MgpvConfig> {
    (
        // Half the tables small enough to collide constantly, half up to 200
        // slots: past one and three words of the occupancy bitmap.
        prop_oneof![1usize..32, 1usize..=200],
        1usize..6,
        0usize..8,
        2usize..12,
        1usize..32,
        0u8..3,
        0u8..3,
    )
        .prop_map(
            |(short_count, short_size, long_count, long_size, fg_size, aging, policy)| MgpvConfig {
                short_count,
                short_size,
                long_count,
                long_size,
                fg_table_size: fg_size,
                aging_t_ns: match aging {
                    0 => None,
                    1 => Some(1_000_000),
                    _ => Some(100_000_000),
                },
                probes_per_packet: 2,
                probe_rate_hz: 100_000.0,
                activity_window_ns: 10_000_000,
                policy: match policy {
                    0 => CgEvictPolicy::DirectMapped,
                    1 => CgEvictPolicy::RandomWay { ways: 2, seed: 7 },
                    _ => CgEvictPolicy::RandomWay { ways: 4, seed: 11 },
                },
            },
        )
}

fn run_cache(cfg: MgpvConfig, specs: &[PktSpec]) -> (Vec<SwitchEvent>, usize) {
    let mut cache = MgpvCache::new(cfg).expect("valid config");
    let mut events = Vec::new();
    let mut ts = 0u64;
    for s in specs {
        ts += u64::from(s.gap_us) * 1_000;
        let p = PacketRecord::tcp(
            ts,
            s.size,
            u32::from(s.host) + 1,
            1000 + u16::from(s.port),
            99,
            443,
        );
        let cg = Granularity::Host.key_of(&p);
        let fg = if cfg.fg_table_size > 0 {
            Some(Granularity::Socket.key_of(&p))
        } else {
            None
        };
        events.extend(cache.insert(&p, cg, fg));
    }
    events.extend(cache.flush());
    (events, specs.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_conserved(cfg in cache_strategy(), specs in proptest::collection::vec(pkt_strategy(), 1..400)) {
        let (events, inserted) = run_cache(cfg, &specs);
        let evicted: usize = events
            .iter()
            .filter_map(|e| match e {
                SwitchEvent::Mgpv(m) => Some(m.records.len()),
                _ => None,
            })
            .sum();
        prop_assert_eq!(evicted, inserted);
    }

    #[test]
    fn per_group_timestamps_in_order(
        cfg in cache_strategy(),
        specs in proptest::collection::vec(pkt_strategy(), 1..400),
    ) {
        let (events, _) = run_cache(cfg, &specs);
        // Replay the event stream, mirroring the FG table, and check that
        // each FG group's record timestamps never go backwards.
        let mut mirror: Vec<Option<GroupKey>> = vec![None; cfg.fg_table_size];
        let mut last_ts: std::collections::HashMap<GroupKey, u32> = Default::default();
        for e in &events {
            match e {
                SwitchEvent::FgUpdate(u) => {
                    mirror[u.idx as usize] = Some(u.key);
                }
                SwitchEvent::Mgpv(m) => {
                    for r in &m.records {
                        let group = if cfg.fg_table_size > 0 {
                            mirror[r.fg_idx as usize].expect("resolvable")
                        } else {
                            m.cg_key
                        };
                        let prev = last_ts.entry(group).or_insert(0);
                        prop_assert!(
                            r.tstamp_us >= *prev,
                            "group {:?}: ts {} after {}", group, r.tstamp_us, *prev
                        );
                        *prev = r.tstamp_us;
                    }
                }
            }
        }
    }

    #[test]
    fn fg_indices_always_resolve(
        cfg in cache_strategy(),
        specs in proptest::collection::vec(pkt_strategy(), 1..300),
    ) {
        prop_assume!(cfg.fg_table_size > 0);
        let (events, _) = run_cache(cfg, &specs);
        let mut mirror: Vec<Option<GroupKey>> = vec![None; cfg.fg_table_size];
        for e in &events {
            match e {
                SwitchEvent::FgUpdate(u) => mirror[u.idx as usize] = Some(u.key),
                SwitchEvent::Mgpv(m) => {
                    for r in &m.records {
                        let k = mirror[r.fg_idx as usize];
                        prop_assert!(k.is_some(), "unresolved fg_idx {}", r.fg_idx);
                        // The resolved key must project onto the CG key.
                        prop_assert_eq!(
                            k.expect("checked").project(Granularity::Host),
                            Some(m.cg_key)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn messages_are_never_empty(
        cfg in cache_strategy(),
        specs in proptest::collection::vec(pkt_strategy(), 1..300),
    ) {
        let (events, _) = run_cache(cfg, &specs);
        for e in &events {
            if let SwitchEvent::Mgpv(m) = e {
                prop_assert!(!m.records.is_empty());
                prop_assert!(m.records.len() <= cfg.short_size + cfg.long_size);
            }
        }
    }
}
