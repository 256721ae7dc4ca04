//! Executor determinism under fault injection and sharding.
//!
//! The whole point of seeding every fault stream (delivery draws, burst
//! chain, per-node crash schedules) is that a run is a pure function of
//! `(instance, partition, RuntimeConfig)`. These properties pin that: two
//! executors built from equal inputs must produce *byte-identical* JSON
//! reports — including under channel bursts, node crashes, battery
//! depletion, aggregator outages and the adaptive controller, whose
//! replanning decisions depend on everything upstream of them.
//!
//! The sharded engine adds a second axis: the shard count is an execution
//! knob, never a simulation input, so the same spec run on 1, 2, 4 or 8
//! event wheels must also agree byte-for-byte.

#![allow(clippy::unwrap_used)] // tests fail loudly by design

use proptest::prelude::*;
use std::collections::BTreeMap;
use xpro_core::builder::BuiltGraph;
use xpro_core::cellgraph::{Cell, CellGraph, PortRef};
use xpro_core::config::SystemConfig;
use xpro_core::generator::{Engine, XProGenerator};
use xpro_core::instance::XProInstance;
use xpro_core::layout::Domain;
use xpro_core::partition::Partition;
use xpro_hw::ModuleKind;
use xpro_runtime::{
    ExecutorBuilder, FleetSpec, QuantileSketch, RunReport, RuntimeConfig, TenantSpec,
};
use xpro_signal::stats::FeatureKind;

/// A small instance: four time-domain features over the raw window, one
/// SVM whose size varies with the seed, and a fusion cell (the same shape
/// as the crate's unit-test fixture, rebuilt here because integration
/// tests cannot see it).
fn tiny_instance(seed: u64) -> XProInstance {
    let mut graph = CellGraph::new(128);
    let mut feature_cells = BTreeMap::new();
    let kinds = [
        FeatureKind::Max,
        FeatureKind::Var,
        FeatureKind::Skew,
        FeatureKind::Kurt,
    ];
    for (i, &kind) in kinds.iter().enumerate() {
        let id = graph.add_cell(Cell {
            module: ModuleKind::Feature {
                kind,
                input_len: 128,
                reuses_var: false,
            },
            domain: Domain::Time,
            output_samples: vec![1],
            inputs: vec![PortRef::RAW],
            label: format!("f{i}"),
        });
        feature_cells.insert(i, id);
    }
    let svm = graph.add_cell(Cell {
        module: ModuleKind::Svm {
            support_vectors: 10 + (seed % 40) as usize,
            dims: 4,
            rbf: true,
        },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: (0..4).map(|i| PortRef::cell(feature_cells[&i])).collect(),
        label: "svm".into(),
    });
    let fusion = graph.add_cell(Cell {
        module: ModuleKind::ScoreFusion { bases: 1 },
        domain: Domain::Time,
        output_samples: vec![1],
        inputs: vec![PortRef::cell(svm)],
        label: "fusion".into(),
    });
    let built = BuiltGraph {
        graph,
        feature_cells,
        svm_cells: vec![svm],
        fusion_cell: fusion,
    };
    XProInstance::try_new(built, SystemConfig::default(), 100).expect("valid test instance")
}

fn cross_end(inst: &XProInstance) -> Partition {
    XProGenerator::new(inst)
        .partition_for(Engine::CrossEnd)
        .unwrap()
}

fn run_sharded(
    inst: &XProInstance,
    partition: &Partition,
    cfg: &RuntimeConfig,
    shards: usize,
) -> RunReport {
    ExecutorBuilder::new(FleetSpec::new(inst, partition, cfg.clone()).unwrap())
        .shards(shards)
        .build()
        .unwrap()
        .run()
        .report
}

fn assert_reproducible(inst: &XProInstance, partition: &Partition, cfg: &RuntimeConfig) {
    let a = run_sharded(inst, partition, cfg, 1);
    let b = run_sharded(inst, partition, cfg, 1);
    assert_eq!(a, b, "structurally unequal reports for {cfg:?}");
    assert_eq!(a.to_json(), b.to_json(), "JSON reports differ for {cfg:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn equal_configs_give_byte_identical_reports(
        seed in 0u64..10_000,
        nodes in 1usize..5,
        drop in 0.0f64..0.5,
        bursty in any::<bool>(),
        crashy in any::<bool>(),
        adaptive in any::<bool>(),
    ) {
        let inst = tiny_instance(seed % 7);
        let partition = cross_end(&inst);
        let mut b = RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(1.5)
            .drop_rate(drop)
            .seed(seed)
            .adaptive(adaptive)
            .adaptive_window(16)
            .min_dwell_s(0.1);
        if bursty {
            b = b
                .burst_bad_rate(0.85)
                .burst_p_enter(0.2)
                .burst_p_exit(0.3)
                .burst_slot_s(0.1)
                .max_retries(5);
        }
        if crashy {
            b = b.mtbf_s(0.6).mttr_s(0.2).reboot_warmup_s(0.05);
        }
        let cfg = b.build().unwrap();
        let a = run_sharded(&inst, &partition, &cfg, 1);
        let c = run_sharded(&inst, &partition, &cfg, 1);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(a.to_json(), c.to_json());
    }

    /// The acceptance property of the sharded engine: randomized fleets
    /// with the full fault stack and adaptive replanning produce
    /// byte-identical JSON for every shard count in {1, 2, 4, 8}.
    #[test]
    fn report_is_byte_identical_across_shard_counts(
        seed in 0u64..10_000,
        nodes in 1usize..9,
        drop in 0.0f64..0.4,
        adaptive in any::<bool>(),
    ) {
        let inst = tiny_instance(seed % 5);
        let partition = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(1.5)
            .drop_rate(drop)
            .burst_bad_rate(0.85)
            .burst_p_enter(0.2)
            .burst_p_exit(0.3)
            .burst_slot_s(0.1)
            .max_retries(5)
            .mtbf_s(0.6)
            .mttr_s(0.2)
            .reboot_warmup_s(0.05)
            .adaptive(adaptive)
            .adaptive_window(16)
            .min_dwell_s(0.1)
            .seed(seed)
            .build()
            .unwrap();
        let baseline = run_sharded(&inst, &partition, &cfg, 1);
        let json = baseline.to_json();
        for shards in [2usize, 4, 8] {
            let sharded = run_sharded(&inst, &partition, &cfg, shards);
            prop_assert_eq!(&baseline, &sharded,
                "{} shards diverged structurally", shards);
            prop_assert_eq!(&json, &sharded.to_json(),
                "{} shards diverged in JSON", shards);
        }
    }

    /// Multi-tenant admission — token buckets, weighted-fair inbox
    /// shares, degradation tiers and the circuit breaker — is part of
    /// the simulation, not the execution strategy: randomized overloaded
    /// tenant tables (the quota is far below the ~20 Hz per-node offered
    /// rate, so rejection, degradation and quarantine all fire) must
    /// still produce byte-identical reports for every shard count.
    #[test]
    fn tenant_reports_are_byte_identical_across_shard_counts(
        seed in 0u64..10_000,
        quota in 0.5f64..5.0,
        degrade in any::<bool>(),
        drop in 0.0f64..0.3,
    ) {
        let inst = tiny_instance(seed % 5);
        let partition = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(6)
            .duration_s(2.0)
            .drop_rate(drop)
            .seed(seed)
            .agg_inbox(16)
            .tenants(vec![
                TenantSpec::new("steady", 2).degrade(false),
                TenantSpec::new("greedy", 4)
                    .quota_hz(quota)
                    .quota_burst(1)
                    .degrade(degrade)
                    .breaker_rounds(2)
                    .cooldown_s(0.5),
            ])
            .build()
            .unwrap();
        let baseline = run_sharded(&inst, &partition, &cfg, 1);
        let greedy = &baseline.tenants[1];
        prop_assert!(
            greedy.admission_rejected + greedy.quarantine_dropped > 0,
            "the overloaded tenant must actually be throttled"
        );
        let json = baseline.to_json();
        for shards in [2usize, 4, 8] {
            let sharded = run_sharded(&inst, &partition, &cfg, shards);
            prop_assert_eq!(&baseline, &sharded,
                "{} shards diverged structurally under tenancy", shards);
            prop_assert_eq!(&json, &sharded.to_json(),
                "{} shards diverged in JSON under tenancy", shards);
        }
    }
}

/// Latency samples in the range the executor actually produces (plus a
/// tail poking past the sketch's cap so the guard buckets are exercised).
fn latency_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..80.0, 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sketch merging is commutative: `a ⊕ b == b ⊕ a`, bit for bit —
    /// including the digested quantiles.
    #[test]
    fn sketch_merge_is_commutative(a in latency_samples(), b in latency_samples()) {
        let sa = QuantileSketch::from_samples(a.iter().copied());
        let sb = QuantileSketch::from_samples(b.iter().copied());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(ab.quantile(q).to_bits(), ba.quantile(q).to_bits());
        }
        prop_assert_eq!(ab.mean().to_bits(), ba.mean().to_bits());
    }

    /// Sketch merging is associative: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`.
    /// Together with commutativity this is what makes any shard merge
    /// tree digest to the same answer.
    #[test]
    fn sketch_merge_is_associative(
        a in latency_samples(),
        b in latency_samples(),
        c in latency_samples(),
    ) {
        let sa = QuantileSketch::from_samples(a.iter().copied());
        let sb = QuantileSketch::from_samples(b.iter().copied());
        let sc = QuantileSketch::from_samples(c.iter().copied());
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// The shard-partition invariant at the sketch level: splitting the
    /// samples round-robin across {1, 2, 4, 8} shards, sketching each
    /// shard independently and merging in shard order yields a sketch
    /// bit-identical to sketching everything in one pass.
    #[test]
    fn sketch_is_invariant_under_shard_partitioning(samples in latency_samples()) {
        let bulk = QuantileSketch::from_samples(samples.iter().copied());
        for shards in [1usize, 2, 4, 8] {
            let mut parts = vec![QuantileSketch::new(); shards];
            for (i, &v) in samples.iter().enumerate() {
                parts[i % shards].record(v);
            }
            let mut merged = QuantileSketch::new();
            for p in &parts {
                merged.merge(p);
            }
            prop_assert_eq!(&merged, &bulk, "{} shards diverged", shards);
            for q in [0.5, 0.95, 0.99] {
                prop_assert_eq!(
                    merged.quantile(q).to_bits(),
                    bulk.quantile(q).to_bits()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The executor-level corollary: under the full fault stack the
    /// digested latency statistics — fleet-wide and per-node, all
    /// produced by merging per-node sketches — are bit-identical for
    /// every shard count in {1, 2, 4, 8}.
    #[test]
    fn sketch_digests_are_bit_identical_across_shard_counts(
        seed in 0u64..10_000,
        nodes in 1usize..7,
    ) {
        let inst = tiny_instance(seed % 5);
        let partition = cross_end(&inst);
        let cfg = RuntimeConfig::builder()
            .nodes(nodes)
            .duration_s(1.5)
            .drop_rate(0.2)
            .burst_bad_rate(0.85)
            .burst_p_enter(0.2)
            .burst_p_exit(0.3)
            .burst_slot_s(0.1)
            .max_retries(5)
            .mtbf_s(0.6)
            .mttr_s(0.2)
            .reboot_warmup_s(0.05)
            .seed(seed)
            .build()
            .unwrap();
        let baseline = run_sharded(&inst, &partition, &cfg, 1);
        for shards in [2usize, 4, 8] {
            let sharded = run_sharded(&inst, &partition, &cfg, shards);
            let (a, b) = (baseline.fleet, sharded.fleet);
            prop_assert_eq!(a.count, b.count);
            for (x, y) in [
                (a.mean_s, b.mean_s),
                (a.p50_s, b.p50_s),
                (a.p95_s, b.p95_s),
                (a.p99_s, b.p99_s),
                (a.max_s, b.max_s),
            ] {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "fleet digest diverged at {} shards", shards);
            }
            for (n, m) in baseline.nodes.iter().zip(&sharded.nodes) {
                prop_assert_eq!(n.latency, m.latency,
                    "node {} digest diverged at {} shards", n.node, shards);
            }
        }
    }
}

/// The full chaos stack at once — bursts, crashes, battery budget, outage,
/// bounded inbox, adaptive controller — still reproduces byte-for-byte.
#[test]
fn chaos_run_is_byte_identical_across_executions() {
    let inst = tiny_instance(3);
    let partition = cross_end(&inst);
    let cfg = RuntimeConfig::builder()
        .nodes(6)
        .duration_s(3.0)
        .drop_rate(0.1)
        .burst_bad_rate(0.9)
        .burst_p_enter(0.15)
        .burst_p_exit(0.25)
        .burst_slot_s(0.1)
        .mtbf_s(0.8)
        .mttr_s(0.3)
        .reboot_warmup_s(0.1)
        .battery_budget_pj(5e7)
        .agg_outage_period_s(1.0)
        .agg_outage_s(0.2)
        .agg_inbox(8)
        .adaptive(true)
        .adaptive_window(24)
        .min_dwell_s(0.2)
        .max_retries(6)
        .seed(2026)
        .build()
        .unwrap();
    assert_reproducible(&inst, &partition, &cfg);
}

/// Different seeds must actually change a faulty run (no accidentally
/// seed-independent streams).
#[test]
fn different_seeds_diverge_under_faults() {
    let inst = tiny_instance(4);
    let partition = cross_end(&inst);
    let build = |seed: u64| {
        RuntimeConfig::builder()
            .nodes(4)
            .duration_s(2.0)
            .drop_rate(0.3)
            .mtbf_s(0.5)
            .mttr_s(0.2)
            .seed(seed)
            .build()
            .unwrap()
    };
    let a = run_sharded(&inst, &partition, &build(1), 1);
    let b = run_sharded(&inst, &partition, &build(2), 1);
    assert_ne!(a, b, "seeds 1 and 2 produced identical faulty runs");
}

/// FNV-1a over a report's JSON bytes: a compact fingerprint to pin.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixed fleets whose report digests are pinned across commits — a
/// plain lossy fleet, the CI chaos scenario and the CI tenant scenario
/// (`examples/tenants.json`), all on the test instance — with the FNV-1a
/// of their report JSON. The digests were recorded before the executor
/// moved from one shard-wide event heap to per-node queues with a
/// barrier every period.
fn pinned_fleets() -> [(&'static str, RuntimeConfig, u64); 3] {
    let lossy = RuntimeConfig::builder()
        .nodes(64)
        .duration_s(2.0)
        .drop_rate(0.05)
        .seed(11)
        .build()
        .unwrap();
    let chaos = RuntimeConfig::builder()
        .nodes(8)
        .duration_s(30.0)
        .drop_rate(0.2)
        .burst_bad_rate(0.95)
        .burst_p_enter(0.3)
        .burst_p_exit(0.05)
        .mtbf_s(30.0)
        .mttr_s(2.0)
        .adaptive(true)
        .min_dwell_s(1.0)
        .seed(7)
        .build()
        .unwrap();
    let tenants = RuntimeConfig::builder()
        .nodes(8)
        .duration_s(30.0)
        .drop_rate(0.2)
        .burst_bad_rate(0.95)
        .burst_p_enter(0.3)
        .burst_p_exit(0.05)
        .tenants(vec![
            TenantSpec::new("health", 4).weight(2).degrade(false),
            TenantSpec::new("fitness", 2)
                .quota_hz(6.0)
                .quota_burst(4)
                .degrade(true)
                .breaker_rounds(3)
                .cooldown_s(2.0),
            TenantSpec::new("telemetry", 2)
                .quota_hz(2.0)
                .quota_burst(2)
                .degrade(true)
                .breaker_rounds(2)
                .cooldown_s(4.0),
        ])
        .seed(7)
        .build()
        .unwrap();
    [
        ("lossy", lossy, 0x5ef0_72d3_b2d7_47d5),
        ("chaos", chaos, 0x640d_4da3_72ac_47bd),
        ("tenants", tenants, 0x7319_be27_a276_59bc),
    ]
}

/// Shard counts only ever get compared with each other above; this pins
/// the reports themselves, so any change to what a run simulates — not
/// only a shard-count divergence — fails here.
#[test]
fn report_digests_are_pinned_across_commits() {
    let inst = tiny_instance(3);
    let partition = cross_end(&inst);
    for (name, cfg, pin) in pinned_fleets() {
        for shards in [1usize, 4] {
            let report = run_sharded(&inst, &partition, &cfg, shards);
            // Each fleet exercises what it is pinned for.
            match name {
                "lossy" => assert!(report.total_retries() > 0),
                "chaos" => assert!(!report.partition_switches.is_empty()),
                _ => assert!(report.tenants.iter().any(|t| t.admission_rejected > 0)),
            }
            let digest = fnv1a(report.to_json().as_bytes());
            assert_eq!(
                digest, pin,
                "{name} fleet at {shards} shards: digest {digest:#018x}"
            );
        }
    }
}
