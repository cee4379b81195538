//! The deployment gate: compile → static analysis, shared by every path
//! that turns a [`Policy`] into a runnable deployment.
//!
//! [`SuperFe`](crate::SuperFe), [`StreamingPipeline`](crate::StreamingPipeline),
//! and the multi-tenant control plane (`superfe-ctrl`) all refuse to deploy
//! a policy whose static analysis reports an error-severity finding — the
//! hardware could not actually run the program. Centralizing the gate keeps
//! the three paths agreeing on what "deployable" means.

use superfe_policy::{compile, CompiledPolicy, Policy, PolicyError};

use crate::pipeline::SuperFeConfig;

/// Compiles and analyzes `policy` under `cfg`, returning the compiled
/// halves only if the analysis is clean of errors. Error findings surface as
/// [`PolicyError::Infeasible`] with the rendered report (the same text
/// `superfe check` prints).
pub fn gate(policy: &Policy, cfg: &SuperFeConfig) -> Result<CompiledPolicy, PolicyError> {
    let analyze_cfg = crate::analyze::AnalyzeConfig {
        cache: cfg.cache,
        ..crate::analyze::AnalyzeConfig::default()
    };
    let compiled = compile(policy)?;
    let report = crate::analyze::analyze(policy, &analyze_cfg);
    if report.has_errors() {
        return Err(PolicyError::Infeasible(report.render()));
    }
    Ok(compiled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_policy::dsl;
    use superfe_switch::MgpvConfig;

    const POLICY: &str =
        "pktstream\n.groupby(host)\n.reduce(size, [f_sum, f_mean])\n.collect(host)";

    #[test]
    fn clean_policy_passes_the_gate() {
        let policy = dsl::parse(POLICY).unwrap();
        let compiled = gate(&policy, &SuperFeConfig::default()).unwrap();
        assert_eq!(compiled.switch.levels.len(), 1);
    }

    #[test]
    fn infeasible_configuration_is_refused_with_report() {
        let policy = dsl::parse(POLICY).unwrap();
        let cfg = SuperFeConfig {
            cache: MgpvConfig {
                short_count: 4_000_000,
                ..MgpvConfig::default()
            },
            ..SuperFeConfig::default()
        };
        match gate(&policy, &cfg).map(|_| ()) {
            Err(PolicyError::Infeasible(report)) => {
                assert!(report.contains("SF0303"), "{report}");
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }
}
