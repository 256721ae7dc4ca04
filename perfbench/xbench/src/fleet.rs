//! `fleet_bulk` and `fleet_chaos`: the C1 cross-end plan streamed through
//! `FleetExecutor::run`.
//!
//! A pass plans the deployment (pricing plus a cold certified plan), runs
//! the fleet at the pinned shard count, renders the report JSON, checks
//! the report against the static bounds and, when timesteps are recorded,
//! round-trips them through the `.xpc` encoding.

use crate::out::{fnv1a, median, quantile, Outcome};
use crate::plan::{kernel_probes, mix, plan_deployment, train_case, Case, Plan};
use crate::trace::Tracer;
use crate::{Measured, Size};
use std::time::Instant;
use xpro::analyze::timing::RetryRegime;
use xpro::core::config::SystemConfig;
use xpro::core::{plan_approximate, ApproxPlanOptions, PlanCache};
use xpro::data::CaseId;
use xpro::runtime::{
    check_report, check_tenant_report, deployment_bounds, node_columns, summarize_timesteps,
    tenant_bounds, ColumnBatch, ExecutorBuilder, FleetSpec, QuantileSketch, RunHandle,
    RuntimeConfig, TenantSpec,
};
use xpro::sweep::{table1_findings, SweepOptions};

/// Which fleet workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Bulk,
    Chaos,
}

fn config(kind: Kind, size: Size, seed: u64) -> RuntimeConfig {
    let tiny = size == Size::Tiny;
    let b = RuntimeConfig::builder().seed(mix(seed, 3));
    let cfg = match kind {
        Kind::Bulk => b
            .nodes(if tiny { 400 } else { 20_000 })
            .duration_s(if tiny { 1.0 } else { 3.0 })
            .drop_rate(0.05),
        Kind::Chaos => {
            let (tenants, per) = if tiny { (4, 8) } else { (8, 32) };
            // Even tenants are plain; odd ones are quota-metered with a
            // breaker and may degrade. A node offers ~25 segments/s, so a
            // 20 Hz-per-node quota meters the bursts, not the steady state.
            let specs = (0..tenants)
                .map(|i| {
                    let t = TenantSpec::new(format!("t{i}"), per);
                    if i % 2 == 0 {
                        t.weight(2)
                    } else {
                        t.quota_hz(20.0 * per as f64)
                            .quota_burst(per as u32)
                            .degrade(true)
                            .breaker_rounds(3)
                            .cooldown_s(2.0)
                    }
                })
                .collect();
            b.nodes(tenants * per)
                .duration_s(if tiny { 10.0 } else { 120.0 })
                .drop_rate(0.05)
                .burst_bad_rate(0.9)
                .burst_p_enter(0.05)
                .burst_p_exit(0.3)
                .burst_slot_s(0.1)
                .mtbf_s(30.0)
                .mttr_s(2.0)
                .reboot_warmup_s(0.5)
                .agg_outage_period_s(10.0)
                .agg_outage_s(0.5)
                .agg_inbox(64)
                .tenants(specs)
                .adaptive(true)
                .adaptive_window(64)
                .min_dwell_s(0.5)
        }
    };
    cfg.build().expect("the fixed fleet configuration is valid")
}

fn run_fleet(plan: &Plan, cfg: &RuntimeConfig, shards: usize, record: bool) -> RunHandle {
    let spec = FleetSpec::new(&plan.instance, &plan.partition, cfg.clone())
        .expect("the planned partition fits its instance");
    ExecutorBuilder::new(spec)
        .shards(shards)
        .record_timesteps(record)
        .build()
        .expect("a validated spec builds")
        .run()
}

/// What one pass measured.
#[derive(Clone, Copy)]
struct Pass {
    pass_s: f64,
    run_s: f64,
    plan_s: f64,
    offered: u64,
    hash: u64,
    violations: usize,
}

/// Shards of the measured passes. One thread keeps the passes off the
/// scheduler: on a small shared host a second shard thread makes every
/// barrier wait for whichever vCPU a neighbour is slowing, so multi-shard
/// pass times spread far more between runs than the program's own cost.
/// The shard count never changes the report (checked at construction),
/// and the traced run still prices the multi-shard executor.
const SHARDS: usize = 1;

/// Cold plans of the deployment timed after each pass, besides the one
/// inside it, so the 90th percentile has tens of samples beyond it.
const REPLANS_PER_PASS: usize = 7;

/// A fleet workload: its deployment, configuration and plan cache.
pub struct Fleet<'a> {
    kind: Kind,
    case: &'a Case,
    cfg: RuntimeConfig,
    /// Shards of the traced speed-up probe: `min(nproc, 2)`.
    probe_shards: usize,
    cache: PlanCache,
    /// The deployment planned at construction; the probe reruns it.
    plan: Plan,
    /// Node-sized latency sketches for the merge probe, built on first use.
    sketches: Vec<QuantileSketch>,
}

/// What one traced iteration measured.
pub struct Probe {
    pass: Pass,
    /// Run time of the same fleet at `probe_shards`.
    probe_s: f64,
    rounds: usize,
}

impl<'a> Fleet<'a> {
    /// Plans `case`'s deployment, filling the plan cache, and checks that
    /// the shard count does not change the report (an untimed validation).
    pub fn new(
        kind: Kind,
        size: Size,
        case: &'a Case,
        seed: u64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut cache = PlanCache::new(1);
        let plan = plan_deployment(case, SystemConfig::default(), &mut cache, tr, out);
        let cfg = config(kind, size, seed);
        let one = run_fleet(&plan, &cfg, 1, false).report.to_json();
        let two = run_fleet(&plan, &cfg, 2, false).report.to_json();
        out.check(one == two, || {
            "report JSON differs between 1 and 2 shards".into()
        });
        Fleet {
            kind,
            case,
            cfg,
            probe_shards: nproc.min(2),
            cache,
            plan,
            sketches: Vec::new(),
        }
    }

    /// Prices and cold-plans the deployment again, outside the pass;
    /// returns the plan latency in milliseconds.
    fn replan_ms(&mut self, tr: &mut Tracer, out: &mut Outcome) -> f64 {
        plan_deployment(self.case, SystemConfig::default(), &mut self.cache, tr, out).plan_s * 1e3
    }

    /// Whether passes record timesteps.
    fn records(&self) -> bool {
        self.kind == Kind::Chaos
    }

    fn pass(&mut self, tr: &mut Tracer, out: &mut Outcome) -> (Pass, RunHandle) {
        tr.next_group();
        tr.span("fleet.pass", 1, |tr| self.pass_body(tr, out))
    }

    /// One pass under the caller's (enabled) tracer, then probes outside
    /// the pass time: the same plan at `probe_shards`, for the shard
    /// speed-up, and a merge of node-sized latency sketches.
    pub fn traced_iteration(&mut self, seed: u64, tr: &mut Tracer, out: &mut Outcome) -> Probe {
        let (pass, handle) = self.pass(tr, out);
        let t0 = Instant::now();
        std::hint::black_box(run_fleet(
            &self.plan,
            &self.cfg,
            self.probe_shards,
            self.records(),
        ));
        let probe_s = t0.elapsed().as_secs_f64();
        if self.sketches.is_empty() {
            let f = &handle.report.fleet;
            let nodes = self.cfg.nodes.min(1024);
            self.sketches =
                node_sketches(nodes, 256, f.p50_s.max(1e-6) / 4.0, f.max_s.max(1e-5), seed);
        }
        tr.span("sketch.merge", self.sketches.len() as u64, |_| {
            let mut all = QuantileSketch::new();
            for s in &self.sketches {
                all.merge(s);
            }
            std::hint::black_box(all);
        });
        Probe {
            pass,
            probe_s,
            rounds: rounds(&handle),
        }
    }

    fn pass_body(&mut self, tr: &mut Tracer, out: &mut Outcome) -> (Pass, RunHandle) {
        let start = Instant::now();
        let plan = plan_deployment(self.case, SystemConfig::default(), &mut self.cache, tr, out);
        let t0 = Instant::now();
        let handle = tr.span("executor.run", 1, |_| {
            run_fleet(&plan, &self.cfg, SHARDS, self.records())
        });
        let run_s = t0.elapsed().as_secs_f64();
        let report = &handle.report;
        let json = tr.span("report.to_json", 1, |_| report.to_json());
        // The pass exports its telemetry as `.xpc`, as `runtime --export`
        // does: the per-node columns, plus the timesteps when recorded.
        let nodes = node_columns(report);
        let batches: Vec<&ColumnBatch> = std::iter::once(&nodes)
            .chain(handle.timesteps.as_ref())
            .collect();
        let decoded: Vec<_> = batches
            .iter()
            .map(|b| {
                let bytes = tr.span("columnar.encode", 1, |_| b.to_bytes());
                tr.span("columnar.decode", 1, |_| ColumnBatch::from_bytes(&bytes))
            })
            .collect();
        let violations = tr.span("soundness.check", 1, |_| {
            let regime = RetryRegime::WorstCaseRetry;
            let (timing, energy) =
                deployment_bounds(&plan.instance, &plan.partition, &self.cfg, regime)?;
            let mut v = check_report(report, &timing, &energy).len();
            if !self.cfg.tenants.is_empty() {
                let (_, tb) = tenant_bounds(&plan.instance, &plan.partition, &self.cfg, regime)?;
                v += check_tenant_report(report, &tb).len();
            }
            Ok::<_, xpro::core::XProError>(v)
        });
        let pass_s = start.elapsed().as_secs_f64();

        // Output checks, outside the timed pass.
        out.check(violations.as_ref().is_ok_and(|&v| v == 0), || {
            format!("the report breaks its static bounds: {violations:?}")
        });
        let violations = violations.unwrap_or(0);
        let offered: u64 = report.nodes.iter().map(|n| n.segments_offered).sum();
        let bad = report
            .nodes
            .iter()
            .find(|n| n.segments_offered != n.segments_completed + n.segments_lost());
        out.check(bad.is_none(), || {
            format!(
                "node {:?} breaks offered == completed + lost",
                bad.map(|n| n.node)
            )
        });
        for (batch, back) in batches.iter().zip(&decoded) {
            out.check(back.as_ref().is_ok_and(|d| d == *batch), || {
                "a column batch does not survive the .xpc round trip".into()
            });
        }
        if let Some(Ok(ts)) = decoded.get(1) {
            let summary = summarize_timesteps(ts);
            out.check(
                summary.as_ref().is_ok_and(|s| {
                    s.offered == offered
                        && s.completed == report.total_completed()
                        && s.lost == report.total_lost()
                }),
                || format!("timestep totals disagree with the report: {summary:?}"),
            );
        }
        let pass = Pass {
            pass_s,
            run_s,
            plan_s: plan.plan_s,
            offered,
            hash: fnv1a(json.as_bytes()),
            violations,
        };
        (pass, handle)
    }
}

/// Latency sketches shaped like per-node telemetry, for timing merges.
fn node_sketches(
    count: usize,
    samples: usize,
    lo_s: f64,
    hi_s: f64,
    seed: u64,
) -> Vec<QuantileSketch> {
    let mut state = mix(seed, 4);
    let span = (hi_s / lo_s).max(1.0 + 1e-9).ln();
    (0..count)
        .map(|_| {
            QuantileSketch::from_samples((0..samples).map(|_| {
                state = mix(state, 5);
                lo_s * (span * (state >> 11) as f64 / (1u64 << 53) as f64).exp()
            }))
        })
        .collect()
}

/// Barrier rounds of a run: one row per round when timesteps were
/// recorded; a run without barriers drains in a single round.
fn rounds(handle: &RunHandle) -> usize {
    handle.timesteps.as_ref().map_or(1, ColumnBatch::rows)
}

/// The deterministic per-layer counts of one pass.
fn counts(m: &mut Measured, p: &Pass, handle: &RunHandle) {
    let r = &handle.report;
    let sensor_pj: f64 = r.nodes.iter().map(|n| n.total_pj()).sum();
    let rows = [
        ("executor.rounds", rounds(handle) as f64),
        ("aggregator.batches", r.aggregator.batches as f64),
        ("aggregator.peak_inbox", r.aggregator.peak_inbox as f64),
        (
            "aggregator.inbox_overflows",
            r.aggregator.inbox_overflows as f64,
        ),
        ("controller.switches", r.partition_switches.len() as f64),
        ("plancache.hits", r.plan_cache.hits as f64),
        ("plancache.misses", r.plan_cache.misses as f64),
        (
            "tenant.admission_rejected",
            r.aggregator.admission_rejected as f64,
        ),
        (
            "tenant.quarantine_dropped",
            r.aggregator.quarantine_dropped as f64,
        ),
        ("soundness.violations", p.violations as f64),
        ("sim.segments_offered", p.offered as f64),
        ("sim.segments_completed", r.total_completed() as f64),
        (
            "sim.frame_attempts",
            r.nodes.iter().map(|n| n.frame_attempts).sum::<u64>() as f64,
        ),
        ("sim.retries", r.total_retries() as f64),
        ("sim.latency_p50_ms", r.fleet.p50_s * 1e3),
        ("sim.latency_p99_ms", r.fleet.p99_s * 1e3),
        ("sim.channel_utilization", r.channel_utilization),
        (
            "sim.sensor_uj_per_segment",
            sensor_pj / p.offered.max(1) as f64 / 1e6,
        ),
        (
            "telemetry.bytes_per_node",
            handle.telemetry_bytes as f64 / r.nodes.len().max(1) as f64,
        ),
    ];
    for (k, v) in rows {
        m.layer.insert(k, v);
    }
}

/// Set-up: generates the datasets and trains C1; returns the case and the
/// wall time it took.
fn setup(seed: u64, tr: &mut Tracer) -> (Case, f64) {
    let start = Instant::now();
    let case = train_case(CaseId::C1, 60, seed, tr);
    (case, start.elapsed().as_secs_f64())
}

/// Executor-side per-layer metrics of the traced iterations: the 1-shard
/// pass run time over the probe's `probe_shards` run time, and run self
/// time per barrier round.
pub fn probe_metrics(m: &mut Measured, probes: &[Probe], tr: &Tracer) {
    let run_s: Vec<f64> = probes.iter().map(|p| p.pass.run_s).collect();
    let probe_s: Vec<f64> = probes.iter().map(|p| p.probe_s).collect();
    m.layer
        .insert("executor.shard_speedup", median(&run_s) / median(&probe_s));
    let layers = tr.layer_times();
    if let (Some(p), Some((_, t))) = (
        probes.first(),
        layers.iter().find(|(n, _)| *n == "executor.run"),
    ) {
        m.layer.insert(
            "executor.round_us",
            t.self_ns as f64 / 1e3 / t.calls as f64 / p.rounds as f64,
        );
    }
}

/// Runs the workload: set-up, an untimed validation, a warm-up pass, then
/// measured passes for `seconds`, each after a repeated set-up.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    out: &mut Outcome,
) -> Measured {
    let mut tr = Tracer::default();
    tr.set_enabled(traced);
    let (case, first_setup_s) = setup(seed, &mut tr);
    tr.set_enabled(false);
    let mut setup_s = vec![first_setup_s];

    let mut fleet = Fleet::new(kind, size, &case, seed, &mut tr, out);
    let (warm, warm_handle) = fleet.pass(&mut tr, out);
    let mut m = Measured::default();
    counts(&mut m, &warm, &warm_handle);
    // Reports are dropped at once: holding them would count against peak
    // RSS.
    drop(warm_handle);
    let mut passes: Vec<Pass> = Vec::new();
    let mut plan_ms = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    while passes.len() < crate::MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        // Set-ups spread over the run, so their median samples all of it.
        setup_s.push(setup(seed, &mut tr).1);
        let (p, _) = fleet.pass(&mut tr, out);
        out.check(p.hash == warm.hash, || {
            "same-seed passes simulated different reports".into()
        });
        passes.push(p);
        plan_ms.push(p.plan_s * 1e3);
        for _ in 0..REPLANS_PER_PASS {
            plan_ms.push(fleet.replan_ms(&mut tr, out));
        }
        if traced {
            tr.set_enabled(true);
            setup(seed, &mut tr);
            probes.push(fleet.traced_iteration(seed, &mut tr, out));
            // The deployment's other layers, on the segments it streams.
            kernel_probes(&case, &mut tr);
            let partition = &fleet.plan.partition;
            tr.span(
                "pipeline.classify_q16",
                case.data.segments.len() as u64,
                |_| {
                    for s in &case.data.segments {
                        std::hint::black_box(case.pipeline.classify_partitioned_q16(s, partition));
                    }
                },
            );
            let approx = tr.span("approx.plan", 1, |_| {
                plan_approximate(
                    &case.pipeline,
                    &case.data,
                    SystemConfig::default(),
                    &ApproxPlanOptions::default(),
                )
            });
            out.check(approx.is_ok(), || "C1: plan_approximate failed".into());
            let findings = tr.span("analyze.table1", 1, |_| {
                table1_findings(&SweepOptions::default())
            });
            out.check(findings.is_ok(), || "table1_findings failed".into());
            tr.set_enabled(false);
        }
    }

    let pass_s: Vec<f64> = passes.iter().map(|p| p.pass_s).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.offered as f64 / p.run_s).collect();

    m.e2e.insert("setup_s", median(&setup_s));
    // The slow quartile of the passes, not their median. The shared host's
    // cache is contended in phases of seconds to minutes that slow a pass
    // by up to 45 %; a run's median lands in whichever phase held most of
    // it, while the contended phase recurs in nearly every run, so the
    // quartile that sits in it moves less from run to run.
    m.e2e.insert("segments_per_s_p25", quantile(&rates, 0.25));
    m.e2e.insert("pass_s_p75", quantile(&pass_s, 0.75));
    // The fleet plans one design point: its fastest cold plan of the run.
    m.e2e.insert("plan_ms_best", quantile(&plan_ms, 0.0));
    m.e2e.insert("plan_ms_p90", quantile(&plan_ms, 0.9));
    if traced {
        let traced_s: Vec<f64> = probes.iter().map(|p| p.pass.pass_s).collect();
        m.layer
            .insert("trace.overhead_ratio", median(&traced_s) / median(&pass_s));
        probe_metrics(&mut m, &probes, &tr);
    }
    m.tracer = tr;

    out.meta("shards", SHARDS);
    out.meta("probe_shards", fleet.probe_shards);
    out.meta("nodes", fleet.cfg.nodes);
    out.meta("virtual_s", fleet.cfg.duration_s);
    out.meta("passes", passes.len());
    out.meta("plan_samples", plan_ms.len());
    out.meta("threads", SHARDS);
    out.meta("report_fnv1a", format!("{:016x}", warm.hash));
    m
}
