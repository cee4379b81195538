//! The libm results behind the pinned digests, held in every build profile.
//!
//! `f_skew` divides by `var.powf(1.5)` (`streaming::moments`), `f_card`
//! estimates through `ln` (`streaming::hll`), and `ft_histlog` bins through
//! `log` (`streaming::hist`); `f_kur` rides along as plain arithmetic over
//! the same moments. The trace comes from the generators' `ln`, `cos` and
//! `exp`, and `f_card` hashes the group key. An optimizing build
//! may rewrite a libm call into a different one, as it once rewrote the
//! damped decay's `pow(2, x)` into `exp2(x)`, and glibc's two answers can
//! differ in the last bit. `ci.sh` runs this file in the test and the
//! release profile; the digest below is the test profile's, so a rewrite in
//! either one fails here.

use superfe::net::GroupKey;
use superfe::trafficgen::Workload;
use superfe::SuperFe;

/// Skewness, kurtosis and a 16-bucket HyperLogLog over sizes and
/// inter-packet times, and a 12-bin log2 histogram of sizes, per socket.
const POLICY: &str = "pktstream
.groupby(socket)
.map(ipt, tstamp, f_ipt)
.reduce(size, [f_skew, f_kur, f_card{4}, ft_histlog{1, 2, 12}])
.reduce(ipt, [f_skew, f_kur, f_card{4}])
.collect(socket)";

/// FNV-1a over every group vector of [`POLICY`] on a seeded ENTERPRISE
/// trace: key bytes, then value bits.
const DIGEST: u64 = 0x6337_5b19_bafc_1106;

#[test]
fn skew_kurtosis_and_cardinality_digest_is_pinned() {
    let trace = Workload::enterprise().packets(20_000).seed(12).generate();
    let mut fe = SuperFe::from_dsl(POLICY).expect("deploys");
    for p in &trace.records {
        fe.push(p);
    }
    let vectors = fe.finish().group_vectors;

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    let (mut skews, mut cards) = (0, 0);
    for v in &vectors {
        let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
        let len = v.key.write_bytes(&mut buf);
        fold(&buf[..len]);
        let values = v.values.as_slice();
        assert_eq!(values.len(), 18);
        skews += usize::from(values[0].is_finite() && values[0] != 0.0);
        cards += usize::from(values[2] > 1.0);
        for x in values {
            fold(&x.to_bits().to_le_bytes());
        }
    }
    assert!(
        skews > 100 && cards > 100,
        "the trace must exercise powf and ln"
    );
    assert_eq!(h, DIGEST, "digest {h:#018x}");
}
