//! `design_sweep`: the six Table-1 cases × 3 process nodes × 3 radios.
//!
//! Each design point prices an `XProInstance`, plans it cold with the
//! certified λ-sweep, verifies the plan, hits the warm plan cache and
//! classifies the case's segments through the chosen cut in Q16.16. Each
//! case also runs one approximate plan, and each pass one Table-1
//! findings sweep gated against the checked-in baseline. No executor runs.

use crate::fleet::{probe_metrics, Fleet, Kind};
use crate::out::{median, quantile, Outcome};
use crate::plan::{kernel_probes, plan_deployment, train_case, Case};
use crate::trace::Tracer;
use crate::{Measured, Size};
use std::time::Instant;
use xpro::analyze::{diff_findings, parse_findings, Finding};
use xpro::core::config::SystemConfig;
use xpro::core::{plan_approximate, ApproxPlanOptions, PlanCache};
use xpro::data::CaseId;
use xpro::hw::ProcessNode;
use xpro::sweep::{table1_findings, SweepOptions};
use xpro::wireless::TransceiverModel;

struct Grid {
    cases: Vec<CaseId>,
    nodes: Vec<ProcessNode>,
    radios: Vec<TransceiverModel>,
    segments: usize,
}

impl Grid {
    fn new(size: Size) -> Self {
        let radios = vec![
            TransceiverModel::model1(),
            TransceiverModel::model2(),
            TransceiverModel::model3(),
        ];
        match size {
            Size::Full => Grid {
                cases: CaseId::ALL.to_vec(),
                nodes: ProcessNode::ALL.to_vec(),
                radios,
                segments: 60,
            },
            Size::Tiny => Grid {
                cases: vec![CaseId::C1, CaseId::E1],
                nodes: vec![ProcessNode::N90],
                radios: radios[1..].to_vec(),
                segments: 30,
            },
        }
    }

    fn points(&self) -> usize {
        self.cases.len() * self.nodes.len() * self.radios.len()
    }
}

/// What one measured pass produced.
struct Pass {
    sweep_s: f64,
    plan_ms: Vec<f64>,
    classified: u64,
    classify_s: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn pass(
    grid: &Grid,
    cases: &[Case],
    baseline: &[Finding],
    cache: &mut PlanCache,
    tr: &mut Tracer,
    out: &mut Outcome,
    validate: bool,
) -> Pass {
    let before = cache.stats();
    let start = Instant::now();
    let mut plan_ms = Vec::with_capacity(grid.points());
    let mut classified = 0u64;
    let mut classify_s = 0.0;
    for case in cases {
        let segs = &case.data.segments;
        let n = segs.len() as u64;
        tr.next_group();
        kernel_probes(case, tr);
        for &node in &grid.nodes {
            for radio in &grid.radios {
                tr.next_group();
                let config = SystemConfig {
                    node,
                    radio: radio.clone(),
                    ..SystemConfig::default()
                };
                tr.span("design.point", 1, |tr| {
                    let plan = plan_deployment(case, config, cache, tr, out);
                    plan_ms.push(plan.plan_s * 1e3);
                    let t0 = Instant::now();
                    let labels: Vec<f64> = tr.span("pipeline.classify_q16", n, |_| {
                        segs.iter()
                            .map(|s| case.pipeline.classify_partitioned_q16(s, &plan.partition))
                            .collect()
                    });
                    classify_s += t0.elapsed().as_secs_f64();
                    classified += n;
                    out.check(labels.iter().all(|l| l.abs() == 1.0), || {
                        format!("{}: Q16.16 classification produced a non-label", case.id.symbol())
                    });
                    if validate {
                        for (i, s) in segs.iter().enumerate() {
                            let float = case.pipeline.classify_partitioned(s, &plan.partition);
                            let mono = case.pipeline.classify(s);
                            out.check(float == mono, || {
                                format!(
                                    "{} segment {i}: classify_partitioned {float} != classify {mono}",
                                    case.id.symbol()
                                )
                            });
                        }
                    }
                });
            }
        }
        let approx = tr.span("approx.plan", 1, |_| {
            plan_approximate(
                &case.pipeline,
                &case.data,
                SystemConfig::default(),
                &ApproxPlanOptions::default(),
            )
        });
        out.check(approx.is_ok(), || {
            format!(
                "{}: plan_approximate failed: {:?}",
                case.id.symbol(),
                approx.err()
            )
        });
    }
    tr.next_group();
    let findings = tr.span("analyze.table1", 1, |_| {
        table1_findings(&SweepOptions::default())
    });
    match findings {
        Ok((_, current)) => {
            let regressions = diff_findings(baseline, &current);
            out.check(regressions.is_empty(), || {
                format!(
                    "table1_findings regressed against the baseline: {}",
                    regressions[0]
                )
            });
        }
        Err(e) => out.check(false, || format!("table1_findings failed: {e}")),
    }
    let after = cache.stats();
    Pass {
        sweep_s: start.elapsed().as_secs_f64(),
        plan_ms,
        classified,
        classify_s,
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
    }
}

/// Generates the datasets and trains every case of the grid; returns the
/// cases and the wall time it took.
fn setup(grid: &Grid, seed: u64, tr: &mut Tracer) -> (Vec<Case>, f64) {
    let start = Instant::now();
    let cases = grid
        .cases
        .iter()
        .map(|&id| train_case(id, grid.segments, seed, tr))
        .collect();
    (cases, start.elapsed().as_secs_f64())
}

/// Runs the workload: set-up, one validating warm-up pass, then measured
/// passes for `seconds`, each after a repeated set-up.
pub fn run(seed: u64, seconds: f64, traced: bool, size: Size, out: &mut Outcome) -> Measured {
    let grid = Grid::new(size);
    let mut tr = Tracer::default();
    tr.set_enabled(traced);
    let (cases, first_setup_s) = setup(&grid, seed, &mut tr);
    tr.set_enabled(false);
    let mut setup_s = vec![first_setup_s];

    let baseline = match std::fs::read_to_string("analysis-baseline.json")
        .map_err(|e| e.to_string())
        .and_then(|text| parse_findings(&text))
    {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || format!("analysis-baseline.json unreadable: {e}"));
            Vec::new()
        }
    };

    let mut cache = PlanCache::new(1);
    pass(&grid, &cases, &baseline, &mut cache, &mut tr, out, true);
    // The sweep runs no executor; its traced run prices the executor-side
    // layers on a small probe fleet of the first case, the tiny
    // `fleet_chaos` configuration, so every layer is timed on every workload.
    let mut probe_fleet =
        traced.then(|| Fleet::new(Kind::Chaos, Size::Tiny, &cases[0], seed, &mut tr, out));

    let mut passes: Vec<Pass> = Vec::new();
    let mut traced_s = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    while passes.len() < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        // Set-ups spread over the run, so their median samples all of it.
        setup_s.push(setup(&grid, seed, &mut tr).1);
        passes.push(pass(
            &grid, &cases, &baseline, &mut cache, &mut tr, out, false,
        ));
        if let Some(fleet) = &mut probe_fleet {
            tr.set_enabled(true);
            setup(&grid, seed, &mut tr);
            let p = pass(&grid, &cases, &baseline, &mut cache, &mut tr, out, false);
            probes.push(fleet.traced_iteration(seed, &mut tr, out));
            tr.set_enabled(false);
            traced_s.push(p.sweep_s);
        }
    }

    let plan_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.plan_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.classified as f64 / p.classify_s)
        .collect();
    let sweep_s: Vec<f64> = passes.iter().map(|p| p.sweep_s).collect();
    let last = passes.last().expect("at least one measured pass");

    let mut m = Measured::default();
    m.e2e.insert("setup_s", median(&setup_s));
    // The slow quartile of the passes: see `fleet::run`.
    m.e2e.insert("segments_per_s_p25", quantile(&rates, 0.25));
    m.e2e.insert("pass_s_p75", quantile(&sweep_s, 0.75));
    // Each design point's fastest cold plan of the run, then the median
    // over the points.
    let best: Vec<f64> = (0..grid.points())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.plan_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    m.e2e.insert("plan_ms_best", median(&best));
    m.e2e.insert("plan_ms_p90", quantile(&plan_ms, 0.9));
    m.layer.insert("plancache.hits", last.cache_hits as f64);
    m.layer.insert("plancache.misses", last.cache_misses as f64);
    if traced {
        m.layer
            .insert("trace.overhead_ratio", median(&traced_s) / median(&sweep_s));
        probe_metrics(&mut m, &probes, &tr);
    }
    m.tracer = tr;

    out.meta("design_points", grid.points());
    out.meta("passes", passes.len());
    out.meta("plan_samples", plan_ms.len());
    out.meta("threads", 1);
    m
}
