//! Kitsune feature-extraction variants and the Fig. 10 fidelity comparison.
//!
//! Three implementations of the same 115-dimension feature definition:
//!
//! 1. **Standard** — the exact definition: 64-bit floats, full-nanosecond
//!    timestamps, evaluated by the software reference extractor.
//! 2. **SuperFE** — the switch+NIC pipeline: metadata timestamps truncated
//!    to 32-bit microseconds (the MGPV record format), streaming reducers.
//! 3. **AfterImage** — Kitsune's original incremental implementation style:
//!    32-bit floating point state with timestamps in (32-bit) seconds, whose
//!    `SS/w − μ²` variance form loses precision on low-variance/high-mean
//!    streams. This stands in for the "original Kitsune implementation
//!    applying approximate algorithms" the paper measures.
//!
//! [`feature_error`] aligns per-packet vectors across variants and reports
//! the relative error per statistic family, reproducing Fig. 10's shape:
//! SuperFE error well below the paper's 4% bound and below AfterImage's.

use std::collections::HashMap;

use superfe_core::{SoftwareExtractor, SuperFe};
use superfe_net::{Granularity, GroupKey};
use superfe_nic::FeatureVector;
use superfe_trafficgen::Trace;

use crate::policies::KITSUNE;

/// The statistic families of the 115-dim Kitsune vector.
pub const FAMILIES: [&str; 7] = ["weight", "mean", "std", "magnitude", "radius", "cov", "pcc"];

/// Block layout of the 115-dim vector: `(is_quad, lambdas)` per reduce.
/// socket: triple, quad; channel: triple, quad, triple; host: triple, triple.
const BLOCKS: [bool; 7] = [false, true, false, true, false, false, false];

/// Maps a feature index to its statistic family.
pub fn family_of(mut idx: usize) -> &'static str {
    for &is_quad in &BLOCKS {
        let block_len = if is_quad { 20 } else { 15 };
        if idx < block_len {
            let within = idx % if is_quad { 4 } else { 3 };
            return if is_quad {
                ["magnitude", "radius", "cov", "pcc"][within]
            } else {
                ["weight", "mean", "std"][within]
            };
        }
        idx -= block_len;
    }
    "weight"
}

/// Exact ("standard definition") per-packet vectors, in arrival order.
pub fn exact_packet_vectors(trace: &Trace) -> Vec<FeatureVector> {
    let mut sw = SoftwareExtractor::from_dsl(KITSUNE).expect("kitsune policy valid");
    for p in &trace.records {
        sw.push(p);
    }
    let (_, pkts) = sw.finish();
    pkts
}

/// SuperFE pipeline per-packet vectors (eviction order).
pub fn superfe_packet_vectors(trace: &Trace) -> Vec<FeatureVector> {
    let mut fe = SuperFe::from_dsl(KITSUNE).expect("kitsune policy valid");
    for p in &trace.records {
        fe.push(p);
    }
    fe.finish().packet_vectors
}

// ---------------------------------------------------------------------------
// AfterImage-style f32 implementation.
// ---------------------------------------------------------------------------

const LAMBDAS: [f32; 5] = [5.0, 3.0, 1.0, 0.1, 0.01];

#[derive(Clone, Copy, Default)]
struct AiStat {
    w: f32,
    ls: f32,
    ss: f32,
    last_t: f32,
    seen: bool,
}

impl AiStat {
    fn update(&mut self, lambda: f32, x: f32, t: f32) {
        if self.seen && t > self.last_t {
            let d = (2.0f32).powf(-lambda * (t - self.last_t));
            self.w *= d;
            self.ls *= d;
            self.ss *= d;
        }
        self.last_t = self.last_t.max(t);
        self.seen = true;
        self.w += 1.0;
        self.ls += x;
        self.ss += x * x;
    }

    fn mean(&self) -> f32 {
        if self.w <= 0.0 {
            0.0
        } else {
            self.ls / self.w
        }
    }

    fn var(&self) -> f32 {
        if self.w <= 0.0 {
            0.0
        } else {
            (self.ss / self.w - self.mean() * self.mean()).abs()
        }
    }

    fn triple(&self) -> [f32; 3] {
        [self.w, self.mean(), self.var().sqrt()]
    }
}

#[derive(Clone, Copy, Default)]
struct AiPair {
    a: AiStat,
    b: AiStat,
    sr: f32,
    w3: f32,
    res_a: f32,
    res_b: f32,
    last_t: f32,
    seen: bool,
}

impl AiPair {
    fn decay_joint(&mut self, lambda: f32, t: f32) {
        if self.seen && t > self.last_t {
            let d = (2.0f32).powf(-lambda * (t - self.last_t));
            self.sr *= d;
            self.w3 *= d;
        }
        self.last_t = self.last_t.max(t);
        self.seen = true;
    }

    fn update(&mut self, lambda: f32, x: f32, t: f32, ingress: bool) {
        self.decay_joint(lambda, t);
        if ingress {
            self.a.update(lambda, x, t);
            self.res_a = x - self.a.mean();
        } else {
            self.b.update(lambda, x, t);
            self.res_b = x - self.b.mean();
        }
        self.sr += self.res_a * self.res_b;
        self.w3 += 1.0;
    }

    fn quad(&self) -> [f32; 4] {
        let ma = self.a.mean();
        let mb = self.b.mean();
        let va = self.a.var();
        let vb = self.b.var();
        let mag = (ma * ma + mb * mb).sqrt();
        let radius = (va * va + vb * vb).sqrt();
        let cov = if self.w3 <= 0.0 {
            0.0
        } else {
            self.sr / self.w3
        };
        let denom = va.sqrt() * vb.sqrt();
        let pcc = if denom <= 1e-12 { 0.0 } else { cov / denom };
        [mag, radius, cov, pcc]
    }
}

#[derive(Clone, Default)]
struct AiSocket {
    size: [AiStat; 5],
    size2d: [AiPair; 5],
}

#[derive(Clone, Default)]
struct AiChannel {
    size: [AiStat; 5],
    size2d: [AiPair; 5],
    jitter: [AiStat; 5],
    last_ts: Option<f32>,
}

#[derive(Clone, Default)]
struct AiHost {
    size_a: [AiStat; 5],
    size_b: [AiStat; 5],
}

/// AfterImage-style per-packet vectors, in arrival order.
pub fn afterimage_packet_vectors(trace: &Trace) -> Vec<FeatureVector> {
    let mut sockets: HashMap<GroupKey, AiSocket> = HashMap::new();
    let mut channels: HashMap<GroupKey, AiChannel> = HashMap::new();
    let mut hosts: HashMap<GroupKey, AiHost> = HashMap::new();
    let mut out = Vec::with_capacity(trace.len());

    for p in &trace.records {
        let t = p.ts_ns as f32 / 1e9; // f32 seconds, like the original
        let x = f32::from(p.size);
        let ingress = p.direction_factor() > 0;
        let mut values = Vec::with_capacity(115);

        // Socket level: size triples + quads.
        let sk = Granularity::Socket.key_of(p);
        let s = sockets.entry(sk).or_default();
        for (i, l) in LAMBDAS.iter().enumerate() {
            s.size[i].update(*l, x, t);
        }
        for (i, l) in LAMBDAS.iter().enumerate() {
            s.size2d[i].update(*l, x, t, ingress);
        }
        for st in &s.size {
            values.extend(st.triple().iter().map(|&v| f64::from(v)));
        }
        for pr in &s.size2d {
            values.extend(pr.quad().iter().map(|&v| f64::from(v)));
        }

        // Channel level: size triples + quads + IPT (jitter) triples.
        let ck = Granularity::Channel.key_of(p);
        let c = channels.entry(ck).or_default();
        let ipt = c.last_ts.map(|prev| (t - prev).max(0.0));
        c.last_ts = Some(t);
        for (i, l) in LAMBDAS.iter().enumerate() {
            c.size[i].update(*l, x, t);
            c.size2d[i].update(*l, x, t, ingress);
            if let Some(j) = ipt {
                // The exact path measures IPT in nanoseconds.
                c.jitter[i].update(*l, j * 1e9, t);
            }
        }
        for st in &c.size {
            values.extend(st.triple().iter().map(|&v| f64::from(v)));
        }
        for pr in &c.size2d {
            values.extend(pr.quad().iter().map(|&v| f64::from(v)));
        }
        for st in &c.jitter {
            values.extend(st.triple().iter().map(|&v| f64::from(v)));
        }

        // Host level: two size triples (MAC-IP and IP in the original).
        let hk = Granularity::Host.key_of(p);
        let h = hosts.entry(hk).or_default();
        for (i, l) in LAMBDAS.iter().enumerate() {
            h.size_a[i].update(*l, x, t);
            h.size_b[i].update(*l, x, t);
        }
        for st in h.size_a.iter().chain(h.size_b.iter()) {
            values.extend(st.triple().iter().map(|&v| f64::from(v)));
        }

        out.push(FeatureVector { key: sk, values });
    }
    out
}

// ---------------------------------------------------------------------------
// Fig. 10: relative feature error per statistic family.
// ---------------------------------------------------------------------------

/// One Fig. 10 row.
#[derive(Clone, Copy, Debug)]
pub struct ErrorRow {
    /// Statistic family.
    pub family: &'static str,
    /// SuperFE's aggregate relative error vs the standard definition.
    pub superfe: f64,
    /// AfterImage's aggregate relative error vs the standard definition.
    pub afterimage: f64,
}

fn index_vectors(vectors: &[FeatureVector]) -> HashMap<(GroupKey, usize), &FeatureVector> {
    let mut counts: HashMap<GroupKey, usize> = HashMap::new();
    let mut map = HashMap::new();
    for v in vectors {
        let n = counts.entry(v.key).or_insert(0);
        map.insert((v.key, *n), v);
        *n += 1;
    }
    map
}

/// Aggregate relative error per family: `Σ|x − ref| / Σ|ref|`.
fn family_errors(
    reference: &[FeatureVector],
    candidate: &HashMap<(GroupKey, usize), &FeatureVector>,
) -> HashMap<&'static str, f64> {
    let mut num: HashMap<&'static str, f64> = HashMap::new();
    let mut den: HashMap<&'static str, f64> = HashMap::new();
    let mut counts: HashMap<GroupKey, usize> = HashMap::new();
    for r in reference {
        let n = counts.entry(r.key).or_insert(0);
        let key = (r.key, *n);
        *n += 1;
        let Some(c) = candidate.get(&key) else {
            continue;
        };
        for (i, (x, y)) in r.values.iter().zip(&c.values).enumerate() {
            let fam = family_of(i);
            *num.entry(fam).or_insert(0.0) += (x - y).abs();
            *den.entry(fam).or_insert(0.0) += x.abs();
        }
    }
    FAMILIES
        .iter()
        .map(|&f| {
            let n = num.get(f).copied().unwrap_or(0.0);
            let d = den.get(f).copied().unwrap_or(0.0);
            (f, if d <= 1e-9 { 0.0 } else { n / d })
        })
        .collect()
}

/// Capture-start offset applied before the comparison: real traces carry
/// absolute (epoch-relative) timestamps, and a large time base is exactly
/// where 32-bit-float seconds lose their precision (an epoch-scale base
/// would be worse still; 1000 s keeps the MGPV 32-bit-µs field in range).
pub const CAPTURE_EPOCH_NS: u64 = 1_000_000_000_000;

/// Computes the Fig. 10 comparison on a trace.
pub fn feature_error(trace: &Trace) -> Vec<ErrorRow> {
    let shifted = Trace {
        records: trace
            .records
            .iter()
            .map(|p| {
                let mut c = *p;
                c.ts_ns += CAPTURE_EPOCH_NS;
                c
            })
            .collect(),
    };
    let trace = &shifted;
    let exact = exact_packet_vectors(trace);
    let superfe = superfe_packet_vectors(trace);
    let afterimage = afterimage_packet_vectors(trace);
    let sf = index_vectors(&superfe);
    let ai = index_vectors(&afterimage);
    let e_sf = family_errors(&exact, &sf);
    let e_ai = family_errors(&exact, &ai);
    FAMILIES
        .iter()
        .map(|&f| ErrorRow {
            family: f,
            superfe: e_sf.get(f).copied().unwrap_or(0.0),
            afterimage: e_ai.get(f).copied().unwrap_or(0.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_trafficgen::Workload;

    fn trace() -> Trace {
        Workload::enterprise().packets(4_000).seed(5).generate()
    }

    #[test]
    fn family_layout_covers_115() {
        let fams: Vec<&str> = (0..115).map(family_of).collect();
        assert_eq!(fams.len(), 115);
        assert_eq!(fams[0], "weight");
        assert_eq!(fams[1], "mean");
        assert_eq!(fams[2], "std");
        assert_eq!(fams[15], "magnitude");
        assert_eq!(fams[18], "pcc");
        // Host tail is all triples.
        assert_eq!(fams[114], "std");
    }

    #[test]
    fn variants_produce_aligned_vectors() {
        let t = trace();
        let exact = exact_packet_vectors(&t);
        let ai = afterimage_packet_vectors(&t);
        assert_eq!(exact.len(), t.len());
        assert_eq!(ai.len(), t.len());
        assert!(exact.iter().all(|v| v.values.len() == 115));
        assert!(ai.iter().all(|v| v.values.len() == 115));
        // Same keys in the same per-packet order.
        assert!(exact.iter().zip(&ai).all(|(a, b)| a.key == b.key));
    }

    #[test]
    fn superfe_error_below_paper_bound() {
        let rows = feature_error(&trace());
        for r in &rows {
            assert!(
                r.superfe < 0.04,
                "{}: SuperFE error {} above 4%",
                r.family,
                r.superfe
            );
        }
    }

    #[test]
    fn superfe_beats_afterimage_overall() {
        let rows = feature_error(&trace());
        let sf: f64 = rows.iter().map(|r| r.superfe).sum();
        let ai: f64 = rows.iter().map(|r| r.afterimage).sum();
        assert!(
            sf < ai,
            "SuperFE total error {sf} should be below AfterImage {ai}"
        );
        // And the gap is structural, not noise: the f32-seconds time base
        // degrades the original's damped statistics measurably.
        assert!(ai > 5.0 * sf, "AfterImage {ai} vs SuperFE {sf}");
    }
}
