//! The Table-1 findings sweep shared by the `analyze` binary and the
//! byte-stability tests.
//!
//! One sweep analyzes the generic framework graph under the normalized
//! default bounds plus every Table-1 dataset's measured signal bounds.
//! Each configuration contributes two findings families to one canonical
//! document:
//!
//! * per-cell **range/overflow** verdicts from the abstract interpreter
//!   ([`xpro_analyze::analysis`]), at real cell indices;
//! * **timing/energy** verdicts from the static calculus
//!   ([`xpro_analyze::timing`], [`xpro_analyze::energy`]) for the
//!   generator's cross-end cut under the default runtime configuration,
//!   in both retry regimes, at synthetic cell indices
//!   ([`xpro_analyze::gate::TIMING_CELL_BASE`]).
//!
//! Everything in the sweep is deterministic — fixed dataset seed, default
//! configs, closed-form bounds — so rendering the findings twice yields
//! byte-identical documents; `analysis-baseline.json` records them for the
//! CI gate.

use crate::cli::Stdout;
use std::io::Write;
use xpro_analyze::gate::findings_for_report;
use xpro_analyze::timing::RetryRegime;
use xpro_analyze::{analyze_approx_budget, approx_finding, ApproxBudget, Finding, SignalBounds};
use xpro_core::analysis::{analyze_graph, cell_specs};
use xpro_core::approx::{assignment_for_graph, ApproxLevel};
use xpro_core::builder::{build_full_cell_graph, BuildOptions};
use xpro_core::config::SystemConfig;
use xpro_core::generator::XProGenerator;
use xpro_core::instance::XProInstance;
use xpro_core::XProError;
use xpro_data::{generate_case_sized, CaseId};
use xpro_runtime::{deployment_bounds, RuntimeConfig};

/// Knobs of one Table-1 sweep. The defaults match the `analyze` binary's
/// defaults (and the checked-in baseline).
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// SVM bases in the framework graph.
    pub bases: usize,
    /// Support vectors per base.
    pub sv: usize,
    /// Dataset size (segments) for the Table-1 cases.
    pub segments: usize,
    /// Segment length priced into the deployment (the framework default).
    pub segment_len: usize,
    /// Print one human-readable progress line per config to stdout
    /// ([`crate::cli::Stdout`]: a closed pipe silences them).
    pub verbose: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            bases: 4,
            sv: 40,
            segments: 80,
            segment_len: 128,
            verbose: false,
        }
    }
}

/// Runs the full sweep and returns whether every *range* verdict is
/// overflow-free, plus the combined findings (range + timing + energy)
/// for every configuration.
///
/// # Errors
///
/// Returns [`XProError`] when an instance cannot be priced or the
/// generator finds no feasible cut — both unreachable for the framework
/// graph under default options, but surfaced rather than panicking.
pub fn table1_findings(opts: &SweepOptions) -> Result<(bool, Vec<Finding>), XProError> {
    let mut findings = Vec::new();
    let mut all_proven = true;
    let run_cfg = RuntimeConfig::default();

    let mut analyze_config = |config: &str, bounds: SignalBounds| -> Result<(), XProError> {
        let built = build_full_cell_graph(&BuildOptions::default(), opts.bases, opts.sv);
        let report = analyze_graph(&built.graph, bounds, &Default::default());
        if opts.verbose {
            writeln!(
                Stdout::lock(),
                "config {config}: bounds [{:.3}, {:.3}], {} cells, {} may overflow, {} demoted by affine",
                bounds.lo,
                bounds.hi,
                report.cells.len(),
                report.overflowing().len(),
                report.demoted().len(),
            )?;
        }
        all_proven &= report.is_overflow_free();
        findings.extend(findings_for_report(config, &report));

        // Timing/energy verdicts for the generator's cross-end cut under
        // the default fleet. The instance prices the same graph the range
        // analysis just covered (overflowing configs still price — their
        // verdicts are in the range rows; the gate tracks both families).
        let instance = XProInstance::try_with_bounds(
            built,
            SystemConfig::default(),
            opts.segment_len,
            bounds,
        )?;
        let partition = XProGenerator::new(&instance).generate()?;
        for regime in [RetryRegime::FaultFree, RetryRegime::WorstCaseRetry] {
            let (timing, energy) = deployment_bounds(&instance, &partition, &run_cfg, regime)?;
            if opts.verbose {
                writeln!(
                    Stdout::lock(),
                    "  {} wcrt {}, queue bound {}, peak util {:.3}, epoch energy {:.2e} pJ",
                    regime.tag(),
                    timing
                        .wcrt_s
                        .map_or("unprovable".to_string(), |w| format!("{:.3} ms", w * 1e3)),
                    timing
                        .queue_bound
                        .map_or("unprovable".to_string(), |q| q.to_string()),
                    timing.peak_utilization(),
                    energy.per_epoch_pj,
                )?;
            }
            findings.extend(timing.findings(config));
            findings.push(energy.finding(config));
        }

        // Approximation-budget verdicts for the precision ladder (the
        // partitioner's third axis): one row per rung at synthetic cells
        // from `APPROX_CELL_BASE`, proving or refusing the rung's
        // worst-case fused-decision deviation under these signal bounds.
        for (slot, level) in ApproxLevel::ALL.iter().enumerate() {
            let assignment = assignment_for_graph(instance.built(), *level);
            if assignment.is_empty() {
                continue;
            }
            let analysis = analyze_approx_budget(
                &cell_specs(&instance.built().graph),
                bounds,
                &Default::default(),
                &assignment,
                &ApproxBudget::default(),
            )
            .map_err(|e| XProError::config(e.to_string()))?;
            if opts.verbose {
                writeln!(
                    Stdout::lock(),
                    "  approx@{level}: {} (fused deviation {:.2})",
                    analysis.verdict,
                    analysis.fused_dev
                )?;
            }
            findings.push(approx_finding(config, slot, level.name(), &analysis));
        }
        Ok(())
    };

    analyze_config("default", SignalBounds::default())?;
    for case in CaseId::ALL {
        let data = generate_case_sized(case, opts.segments, 42);
        let (lo, hi) = data.signal_range();
        analyze_config(case.symbol(), SignalBounds::new(lo, hi))?;
    }
    Ok((all_proven, findings))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // tests fail loudly by design

    use super::*;
    use xpro_analyze::gate::TIMING_CELL_BASE;
    use xpro_analyze::{render_findings, Severity};

    #[test]
    fn sweep_emits_both_findings_families_per_config() {
        // A small graph keeps the test fast; determinism and coverage are
        // what matter, not the full baseline shape.
        let opts = SweepOptions {
            bases: 1,
            sv: 4,
            segments: 8,
            ..SweepOptions::default()
        };
        let (_, findings) = table1_findings(&opts).unwrap();
        // 7 configs (default + 6 cases), each with range rows at real
        // cells, 8 timing/energy rows and 4 approximation-ladder rows at
        // synthetic cells.
        let configs: std::collections::BTreeSet<&str> =
            findings.iter().map(|f| f.config.as_str()).collect();
        assert_eq!(configs.len(), 7, "{configs:?}");
        for config in configs {
            let synthetic: Vec<&Finding> = findings
                .iter()
                .filter(|f| f.config == config && f.cell >= TIMING_CELL_BASE)
                .collect();
            assert_eq!(synthetic.len(), 12, "{config}: {synthetic:?}");
            // The default fleet is lightly loaded, so every *fault-free*
            // verdict must be proven. The worst-case-retry regime may
            // honestly refuse a proof on upload-heavy cuts (contraction
            // over 1) — that is a recorded verdict, not a sweep failure.
            assert!(
                synthetic
                    .iter()
                    .filter(|f| f.label.ends_with("@ff"))
                    .all(|f| f.severity == Severity::Proven),
                "{config}: {synthetic:?}"
            );
            assert!(
                synthetic.iter().all(|f| {
                    f.rule.starts_with("timing.")
                        || f.rule.starts_with("energy.")
                        || f.rule.starts_with("approx.")
                }),
                "{config}: {synthetic:?}"
            );
            let approx: Vec<&&Finding> = synthetic
                .iter()
                .filter(|f| f.rule.starts_with("approx."))
                .collect();
            assert_eq!(approx.len(), 4, "{config}: {approx:?}");
            // The mildest rung must be provable on this tiny graph.
            assert!(
                approx.iter().any(|f| f.rule == "approx.budget_proven"),
                "{config}: {approx:?}"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic_in_process() {
        let opts = SweepOptions {
            bases: 1,
            sv: 4,
            segments: 8,
            ..SweepOptions::default()
        };
        let (a_proven, a) = table1_findings(&opts).unwrap();
        let (b_proven, b) = table1_findings(&opts).unwrap();
        assert_eq!(a_proven, b_proven);
        assert_eq!(render_findings(&a), render_findings(&b));
    }
}
