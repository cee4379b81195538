//! Cross-commit compatibility of the NIC engine's snapshot. How an engine
//! lays its groups out in memory is free to change; the bytes
//! `FeNic::save_state` writes are not (`SFSN` v2 embeds them). The hash
//! below was taken at commit `8ca5d0b`, before groups were split into a
//! shared plan and per-group lanes, by running this same file there.

use superfe::apps::policies::KITSUNE;
use superfe::net::snap::{StateReader, StateWriter};
use superfe::nic::FeNic;
use superfe::policy::{compile, dsl, CompiledPolicy};
use superfe::switch::{FeSwitch, MgpvConfig, SwitchEvent};
use superfe::trafficgen::intrusion::{generate, IntrusionConfig, Scenario};

/// FNV-1a (64-bit) of `FeNic::save_state` after [`mirai_events`], at the
/// parent of the plan/lanes change.
const PARENT_SNAPSHOT_FNV1A: u64 = 0xc67e_b21a_a71c_7cdc;

fn kitsune() -> CompiledPolicy {
    compile(&dsl::parse(KITSUNE).unwrap()).unwrap()
}

/// What the switch emits for a seeded 2,000-packet Mirai trace, flush
/// included.
fn mirai_events(compiled: &CompiledPolicy) -> Vec<SwitchEvent> {
    let packets = generate(&IntrusionConfig {
        scenario: Scenario::Mirai,
        benign_packets: 1_500,
        attack_packets: 500,
        seed: 4,
    })
    .trace()
    .records;
    assert_eq!(packets.len(), 2_000);
    let mut sw = FeSwitch::new(compiled.switch.clone()).unwrap();
    let mut events = Vec::new();
    for p in &packets {
        sw.process_into(p, &mut events);
    }
    sw.flush_into(&mut events);
    events
}

fn engine(compiled: &CompiledPolicy) -> FeNic {
    FeNic::new(compiled, MgpvConfig::default().fg_table_size).unwrap()
}

fn snapshot(nic: &FeNic) -> Vec<u8> {
    let mut w = StateWriter::new();
    nic.save_state(&mut w);
    w.into_bytes()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn snapshot_bytes_are_those_of_the_parent_commit() {
    let compiled = kitsune();
    let mut nic = engine(&compiled);
    // The 2,000 pending per-packet vectors stay in the engine, so the hash
    // covers every emitted value as well as every group's state.
    nic.handle_all(&mirai_events(&compiled));
    assert_eq!(nic.stats().vectors, 2_000);
    let bytes = snapshot(&nic);
    assert_eq!(
        fnv1a(&bytes),
        PARENT_SNAPSHOT_FNV1A,
        "{} snapshot bytes hash to {:#018x}",
        bytes.len(),
        fnv1a(&bytes)
    );
}

#[test]
fn restore_and_resume_equals_uninterrupted() {
    let compiled = kitsune();
    let events = mirai_events(&compiled);
    let (head, tail) = events.split_at(events.len() / 2);

    let mut whole = engine(&compiled);
    whole.handle_all(&events);

    let mut first = engine(&compiled);
    first.handle_all(head);
    let saved = snapshot(&first);
    let mut resumed = engine(&compiled);
    let mut r = StateReader::new(&saved);
    resumed.load_state(&mut r).expect("own snapshot loads");
    assert!(r.is_empty());
    resumed.handle_all(tail);

    assert_eq!(snapshot(&resumed), snapshot(&whole));
    let bits = |nic: &mut FeNic| -> Vec<Vec<u64>> {
        nic.take_packet_vectors()
            .iter()
            .map(|v| v.values().iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&mut resumed), bits(&mut whole));
}
