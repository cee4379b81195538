//! `benchmark compare <a.json> <b.json>`: judges run `b` against baseline
//! `a`, metric by metric and workload by workload, with the bounds of
//! [`crate::spec::END_TO_END`].

use crate::json::Json;
use crate::spec::{Better, MetricSpec, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Within,
    /// Either side's own quartile spread exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: its median and within-run spread.
#[derive(Clone, Copy)]
struct Reading {
    value: f64,
    spread: f64,
}

fn reading(detail: &Json, metric: &str) -> Option<Reading> {
    let m = detail.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    // Quartile distance over the median of the run's repetitions; metrics
    // measured once per run have neither.
    let median = m.get("median").and_then(Json::as_f64).unwrap_or(value);
    let spread = match (m.get("q1"), m.get("q3")) {
        (Some(q1), Some(q3)) if median != 0.0 => (q3.as_f64()? - q1.as_f64()?) / median.abs(),
        _ => 0.0,
    };
    Some(Reading { value, spread })
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative when `b` is better).
fn worsening(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    match spec.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn judge(spec: &MetricSpec, a: Reading, b: Reading) -> Verdict {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worsening(spec, a.value, b.value) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

pub struct Report {
    pub text: String,
    pub worse: usize,
    pub unresolved: usize,
}

/// Compares two documents written by the all-workloads mode.
pub fn compare(a: &Json, b: &Json) -> Result<Report, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::members)
        .ok_or("baseline has no workloads object")?;
    let mut report = Report {
        text: String::new(),
        worse: 0,
        unresolved: 0,
    };
    let row = |report: &mut Report, w: &str, m: &str, v: Verdict, note: String| {
        report.worse += usize::from(v == Verdict::Worse);
        report.unresolved += usize::from(v == Verdict::Unresolved);
        report
            .text
            .push_str(&format!("{:<10} {w:<20} {m:<24} {note}\n", v.as_str()));
    };
    for (name, a_runs) in workloads {
        let a_run = a_runs
            .get("untraced")
            .ok_or(format!("{name}: baseline has no untraced run"))?;
        let b_run = b
            .get("workloads")
            .and_then(|w| w.get(name))
            .and_then(|w| w.get("untraced"))
            .ok_or(format!("{name}: missing from the second document"))?;
        for spec in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(a_run, spec.name), reading(b_run, spec.name))
            else {
                return Err(format!("{name}: {} missing on one side", spec.name));
            };
            let note = format!(
                "{:.6} -> {:.6} {} ({:+.1}% worse, bound {:.0}%, spread {:.1}% / {:.1}%)",
                ra.value,
                rb.value,
                spec.unit,
                worsening(spec, ra.value, rb.value) * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                ra.spread * 100.0,
                rb.spread * 100.0
            );
            row(&mut report, name, spec.name, judge(spec, ra, rb), note);
        }
        // failed_share may not increase at all.
        let share = |run: &Json| run.get("failed_share").and_then(Json::as_f64);
        let (Some(fa), Some(fb)) = (share(a_run), share(b_run)) else {
            return Err(format!("{name}: failed_share missing on one side"));
        };
        let verdict = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Within
        };
        row(
            &mut report,
            name,
            "failed_share",
            verdict,
            format!("{fa} -> {fb} (no increase allowed)"),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(pkts: f64, q1: f64, q3: f64, failed_share: f64) -> Json {
        let metrics = format!(
            r#"{{"setup_s":{{"value":1.0,"unit":"s","q1":1.0,"q3":1.0,"n":3}},
                "pkts_per_s":{{"value":{pkts},"unit":"pkt/s","q1":{q1},"q3":{q3},"n":12}},
                "cpu_s_per_mpkt":{{"value":2.0,"unit":"s/Mpkt"}},
                "peak_rss_mb":{{"value":100.0,"unit":"MiB"}},
                "vector_latency_mean_ms":{{"value":5.0,"unit":"ms","q1":5.0,"q3":5.0,"n":12}}}}"#
        );
        parse(&format!(
            r#"{{"workloads":{{"w":{{"untraced":{{"failed_share":{failed_share},"metrics":{metrics}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn applies_bound_direction_and_spread() {
        let bound = END_TO_END[1].bound.unwrap();
        assert_eq!(END_TO_END[1].name, "pkts_per_s");
        // A run at `rate` whose repetitions' quartiles sit 1% either side.
        let tight = |rate: f64, failed: f64| doc(rate, rate * 0.99, rate * 1.01, failed);
        let base = tight(1000.0, 0.0);
        // pkts_per_s is higher-better: half the bound down is within, any
        // amount up is within, more than the bound down is worse.
        let same = compare(&base, &tight(1000.0 * (1.0 - bound / 2.0), 0.0)).unwrap();
        assert_eq!((same.worse, same.unresolved), (0, 0));
        let faster = compare(&base, &tight(2000.0, 0.0)).unwrap();
        assert_eq!((faster.worse, faster.unresolved), (0, 0));
        let slower = compare(&base, &tight(1000.0 * (1.0 - bound - 0.02), 0.0)).unwrap();
        assert_eq!((slower.worse, slower.unresolved), (1, 0));
        assert!(slower.text.contains("worse      w"));
        // A side whose own quartiles are further apart than the bound hides
        // even a halving.
        let noisy = doc(500.0, 500.0 * (1.0 - bound), 500.0 * (1.0 + bound), 0.0);
        let hidden = compare(&base, &noisy).unwrap();
        assert_eq!((hidden.worse, hidden.unresolved), (0, 1));
        // Any increase of failed_share is a regression.
        let failing = compare(&base, &tight(1000.0, 0.001)).unwrap();
        assert_eq!(failing.worse, 1);
    }

    #[test]
    fn lower_is_better_metrics_worsen_upward() {
        let spec = &END_TO_END[0];
        assert_eq!(spec.name, "setup_s");
        assert!(worsening(spec, 1.0, 1.5) > 0.0);
        assert!(worsening(spec, 1.0, 0.5) < 0.0);
    }

    #[test]
    fn missing_workload_is_an_error() {
        let base = doc(1000.0, 990.0, 1010.0, 0.0);
        let empty = parse(r#"{"workloads":{}}"#).unwrap();
        assert!(compare(&base, &empty).is_err());
    }
}
