//! The names the benchmark is judged by: workloads, end-to-end metrics and
//! the per-layer metrics every workload reports. `BENCHMARK.json` at the
//! repository root lists the same names; a test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Mirrored in `BENCHMARK.json`; only the test that keeps the two in
    /// step reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before it
    /// counts as a regression. Per-layer metrics carry none.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "flowstats_solo",
        why: "NPOD on small CAMPUS packets fed as raw frames: parse, MGPV insert/evict, ring hop and finalize dominate",
    },
    WorkloadSpec {
        name: "kitsune_extract",
        why: "115-dim per-packet Kitsune vectors over three granularities: switch multi-granularity path and damped reducers dominate, ring idle",
    },
    WorkloadSpec {
        name: "kitsune_inline",
        why: "Kitsune with the SF09xx-certified KitNET scored inside the NIC shard: ml scoring is the majority of the work",
    },
    WorkloadSpec {
        name: "multitenant_shared",
        why: "four light tenants (one prefix-shared, one fused) on the shared CtrlPlane executor: plane overhead is what is measured",
    },
    WorkloadSpec {
        name: "scale_churn",
        why: "100k-flow corpus through single-threaded FeSwitch and a 16k-entry budgeted FeNic: table insert/evict churn, no ring",
    },
    WorkloadSpec {
        name: "kitsune_paced",
        why: "open loop at 10k pkt/s into the Kitsune pipeline: ring, frame and doorbell batching seen as latency and idle CPU",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the datapath sees. `failed_share` is the sixth: the driver
/// contract carries it as `failed` / `attempted` rather than as a metric,
/// because it is 0 at every accepted commit.
///
/// The bounds are the widest the contract allows. On the shared 2-vCPU host
/// the same binary's spread over ten seeds moves between 2% and 12% of the
/// median depending on what the neighbours do (README, "Noise"), so a
/// tighter bound would reject the benchmark itself on a bad hour.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("pkts_per_s", "pkt/s", Better::Higher, 0.25),
    e2e("cpu_s_per_mpkt", "s/Mpkt", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("vector_latency_mean_ms", "ms", Better::Lower, 0.25),
];

/// Per-layer metrics that exist on every workload. Layers are crate names.
/// Metrics that exist on some workloads only (`ml.*`, `ctrl.*`, `detect.*`,
/// `net.parse_ns_per_pkt`, …) are reported in the traced run's detail line
/// and documented in the README.
pub const PER_LAYER: [MetricSpec; 18] = [
    layer("trafficgen.gen_s", "s", Better::Lower),
    layer("policy.gate_ms", "ms", Better::Lower),
    layer("core.deploy_ms", "ms", Better::Lower),
    layer("core.single_thread_ns_per_pkt", "ns/pkt", Better::Lower),
    layer("core.pipeline_speedup", "ratio", Better::Higher),
    layer("core.residual_share", "ratio", Better::Lower),
    layer("net.ring_ns_per_frame", "ns/frame", Better::Lower),
    layer("switch.process_ns_per_pkt", "ns/pkt", Better::Lower),
    layer("switch.flush_ms", "ms", Better::Lower),
    layer("switch.events_per_kpkt", "count", Better::Lower),
    layer("switch.records_per_msg", "count", Better::Higher),
    layer("switch.aging_evict_share", "ratio", Better::Lower),
    layer("switch.fg_updates_per_kpkt", "count", Better::Lower),
    layer("nic.handle_ns_per_pkt", "ns/pkt", Better::Lower),
    layer("nic.finalize_us_per_vector", "us/vector", Better::Lower),
    layer("nic.evicted_per_kpkt", "count", Better::Lower),
    layer("nic.model_cycles_per_record", "cycles", Better::Lower),
    layer("bench.trace_overhead_share", "ratio", Better::Lower),
];

/// The driver's limits on names and units.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_unit("CPU-s per Mpkt") && valid_unit("pkt/s"));
    }

    fn check_metrics(listed: &Json, specs: &[MetricSpec], keys: usize) {
        let listed = listed.as_array().unwrap();
        assert_eq!(listed.len(), specs.len());
        for (j, s) in listed.iter().zip(specs) {
            assert_eq!(j.members().unwrap().len(), keys, "{}", s.name);
            assert_eq!(j.get("name").unwrap().as_str(), Some(s.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(s.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(s.better.as_str()));
            assert_eq!(j.get("bound").and_then(Json::as_f64), s.bound);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program emits. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
        }
        check_metrics(doc.get("end_to_end").unwrap(), &END_TO_END, 4);
        check_metrics(doc.get("per_layer").unwrap(), &PER_LAYER, 3);
        let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }
}
