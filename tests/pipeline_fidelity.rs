//! Cross-crate fidelity: the switch+NIC pipeline must produce the same
//! features as the single-server software reference for every application
//! policy, across workload traces.

use std::collections::HashMap;

use superfe::apps::all_apps;
use superfe::net::GroupKey;
use superfe::nic::FeatureVector;
use superfe::trafficgen::{Workload, WorkloadPreset};
use superfe::{SoftwareExtractor, SuperFe};

fn by_key(vs: Vec<FeatureVector>) -> HashMap<GroupKey, Vec<f64>> {
    vs.into_iter().map(|v| (v.key, v.values)).collect()
}

/// Truncates timestamps to the MGPV metadata resolution (32-bit µs), so the
/// software reference sees exactly what the pipeline's records carry and the
/// comparison isolates pipeline machinery from intended quantization.
fn truncate_us(p: &superfe::net::PacketRecord) -> superfe::net::PacketRecord {
    let mut c = *p;
    c.ts_ns = (c.ts_ns / 1_000) * 1_000;
    c
}

fn assert_close(app: &str, key: &GroupKey, a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len(), "{app}: dimension mismatch for {key:?}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let denom = x.abs().max(1.0);
        assert!(
            (x - y).abs() / denom <= tol,
            "{app}: feature {i} of {key:?}: software {x} vs pipeline {y}"
        );
    }
}

/// Group-collect policies: per-group vectors must match the reference.
#[test]
fn group_policies_match_software_reference() {
    let trace = Workload::enterprise().packets(20_000).seed(77).generate();
    for app in all_apps() {
        // Per-packet (collect(pkt)) apps are covered by the next test.
        if ["N-BaIoT", "HELAD", "Kitsune"].contains(&app.name) {
            continue;
        }
        let mut sw = SoftwareExtractor::new(&app.policy()).expect("builds");
        let mut hw = SuperFe::new(&app.policy()).expect("deploys");
        for p in &trace.records {
            sw.push(&truncate_us(p));
            hw.push(p);
        }
        let (sw_groups, _) = sw.finish();
        let hw_out = hw.finish();
        let sw_map = by_key(sw_groups);
        let hw_map = by_key(hw_out.group_vectors);
        assert_eq!(
            sw_map.len(),
            hw_map.len(),
            "{}: group count mismatch",
            app.name
        );
        for (key, sv) in &sw_map {
            let hv = hw_map
                .get(key)
                .unwrap_or_else(|| panic!("{}: pipeline missing group {key:?}", app.name));
            assert_close(app.name, key, sv, hv, 1e-6);
        }
    }
}

/// Per-packet policies: vector streams must match (key, occurrence) wise.
#[test]
fn per_packet_policies_match_software_reference() {
    let trace = Workload::campus().packets(8_000).seed(78).generate();
    for app in all_apps() {
        if !["N-BaIoT", "Kitsune"].contains(&app.name) {
            continue;
        }
        let mut sw = SoftwareExtractor::new(&app.policy()).expect("builds");
        let mut hw = SuperFe::new(&app.policy()).expect("deploys");
        for p in &trace.records {
            sw.push(&truncate_us(p));
            hw.push(p);
        }
        let (_, sw_pkts) = sw.finish();
        let hw_pkts = hw.finish().packet_vectors;
        assert_eq!(sw_pkts.len(), hw_pkts.len(), "{}", app.name);

        let index = |vs: &[FeatureVector]| {
            let mut occ: HashMap<GroupKey, usize> = HashMap::new();
            let mut map: HashMap<(GroupKey, usize), Vec<f64>> = HashMap::new();
            for v in vs {
                let n = occ.entry(v.key).or_insert(0);
                map.insert((v.key, *n), v.values.to_vec());
                *n += 1;
            }
            map
        };
        let si = index(&sw_pkts);
        let hi = index(&hw_pkts);
        let mut checked = 0;
        for (k, sv) in &si {
            let hv = hi
                .get(k)
                .unwrap_or_else(|| panic!("{}: missing {k:?}", app.name));
            assert_close(app.name, &k.0, sv, hv, 1e-6);
            checked += 1;
        }
        assert_eq!(checked, sw_pkts.len());
    }
}

/// Against the *full-precision* reference, the only divergence is the µs
/// metadata quantization, which must stay within the paper's Fig. 10 bound.
#[test]
fn quantization_error_stays_below_4_percent() {
    let trace = Workload::enterprise().packets(10_000).seed(81).generate();
    let app = all_apps()
        .into_iter()
        .find(|a| a.name == "PeerShark")
        .expect("present");
    let mut sw = SoftwareExtractor::new(&app.policy()).expect("builds");
    let mut hw = SuperFe::new(&app.policy()).expect("deploys");
    for p in &trace.records {
        sw.push(p); // full-precision timestamps
        hw.push(p);
    }
    let sw_map = by_key(sw.finish().0);
    let hw_map = by_key(hw.finish().group_vectors);
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (key, sv) in &sw_map {
        let hv = &hw_map[key];
        for (x, y) in sv.iter().zip(hv) {
            num += (x - y).abs();
            den += x.abs();
        }
    }
    let err = num / den.max(1e-9);
    assert!(err < 0.04, "aggregate quantization error {err}");
}

/// The pipeline must behave identically whether fed parsed records or raw
/// frames (the parser path is lossless for well-formed traffic).
#[test]
fn frame_and_record_paths_agree() {
    let trace = Workload::mawi().packets(5_000).seed(79).generate();
    let app = &all_apps()[7]; // NPOD
    let mut via_records = SuperFe::new(&app.policy()).expect("deploys");
    let mut via_frames = SuperFe::new(&app.policy()).expect("deploys");
    for p in &trace.records {
        via_records.push(p);
        let frame = superfe::net::wire::build_frame(p);
        via_frames
            .push_frame(&frame, p.ts_ns, p.direction)
            .expect("well-formed");
    }
    let a = by_key(via_records.finish().group_vectors);
    let b = by_key(via_frames.finish().group_vectors);
    assert_eq!(a, b);
}

/// The aggregate byte reduction promise holds for every preset with the
/// most demanding policy (Kitsune).
#[test]
fn aggregation_reduction_holds_across_presets() {
    let app = all_apps()
        .into_iter()
        .find(|a| a.name == "Kitsune")
        .expect("present");
    for preset in WorkloadPreset::all() {
        let trace = Workload::preset(preset).packets(20_000).seed(80).generate();
        let mut fe = SuperFe::new(&app.policy()).expect("deploys");
        for p in &trace.records {
            fe.push(p);
        }
        let out = fe.finish();
        assert!(
            out.switch_stats.byte_aggregation_ratio() < 0.2,
            "{}: {}",
            preset.name(),
            out.switch_stats.byte_aggregation_ratio()
        );
    }
}
