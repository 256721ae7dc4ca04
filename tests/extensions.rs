//! Integration tests for the §5.7 extensions and auxiliary substrates
//! through the facade crate: multi-classification, multi-node BSNs, the
//! heuristic baselines, area estimation and link non-idealities all
//! composing with the core engine.

use xpro::core::builder::BuildOptions;
use xpro::core::config::SystemConfig;
use xpro::core::generator::Engine;
use xpro::core::heuristics::{greedy_migration, topological_sweep};
use xpro::core::instance::XProInstance;
use xpro::core::multiclass::MulticlassPipeline;
use xpro::core::multinode::BsnSystem;
use xpro::core::partition::evaluate;
use xpro::core::pipeline::{PipelineConfig, XProPipeline};
use xpro::core::XProGenerator;
use xpro::data::grasps::generate_grasps;
use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;

fn subspace() -> SubspaceConfig {
    SubspaceConfig {
        candidates: 10,
        keep_fraction: 0.3,
        min_keep: 3,
        folds: 2,
        ..SubspaceConfig::default()
    }
}

fn binary_instance(case: CaseId, seed: u64) -> XProInstance {
    let data = generate_case_sized(case, 90, seed);
    let cfg = PipelineConfig::builder()
        .subspace(subspace())
        .seed(seed)
        .build()
        .expect("valid config");
    let p = XProPipeline::train(&data, &cfg).expect("trains");
    let len = p.segment_len();
    XProInstance::try_new(p.into_built(), SystemConfig::default(), len).expect("valid instance")
}

#[test]
fn multiclass_pipeline_flows_through_the_generator() {
    let data = generate_grasps(160, 9);
    let p = MulticlassPipeline::train(&data, &subspace(), &BuildOptions::default(), 9)
        .expect("multi-class trains");
    let len = p.segment_len();
    let inst = XProInstance::try_new(p.into_built(), SystemConfig::default(), len)
        .expect("valid instance");
    let generator = XProGenerator::new(&inst);
    let c = generator
        .evaluate_engine(Engine::CrossEnd)
        .expect("evaluates");
    let limit = generator.default_delay_limit();
    assert!(c.delay.total_s() <= limit * (1.0 + 1e-9));
    assert!(c.sensor.total_pj() > 0.0);
}

#[test]
fn mixed_bsn_prefers_cross_end() {
    let mut bsn = BsnSystem::new();
    bsn.add_node(binary_instance(CaseId::C1, 1))
        .add_node(binary_instance(CaseId::E1, 2));
    let cross = bsn.evaluate(Engine::CrossEnd).expect("evaluates");
    let agg = bsn.evaluate(Engine::InAggregator).expect("evaluates");
    assert!(cross.weakest_sensor_hours() > agg.weakest_sensor_hours());
    assert!(cross.channel_utilization < agg.channel_utilization);
    assert!(cross.aggregator_battery_hours > agg.aggregator_battery_hours);
}

#[test]
fn heuristic_baselines_never_beat_the_generator_on_trained_graphs() {
    let inst = binary_instance(CaseId::M2, 3);
    let generator = XProGenerator::new(&inst);
    let limit = generator.default_delay_limit();
    let cut = evaluate(&inst, &generator.generate().expect("partition"))
        .sensor
        .total_pj();
    for heuristic in [
        greedy_migration(&inst, limit),
        topological_sweep(&inst, limit),
    ] {
        let e = evaluate(&inst, &heuristic).sensor.total_pj();
        assert!(cut <= e + 1e-6, "generator {cut} beaten by heuristic {e}");
    }
}

#[test]
fn area_model_composes_with_trained_instances() {
    use xpro::hw::{cell_area_ge, total_area_ge};
    let inst = binary_instance(CaseId::E2, 4);
    let cells = inst.built().graph.cells();
    let total = total_area_ge(cells.iter().map(|c| (&c.module, xpro::hw::AluMode::Serial)));
    let max_single = cells
        .iter()
        .map(|c| cell_area_ge(&c.module, xpro::hw::AluMode::Serial))
        .fold(0.0f64, f64::max);
    assert!(total > max_single);
    assert!((1.0e4..5.0e6).contains(&total), "engine area {total} GE");
}

#[test]
fn noisy_link_raises_but_does_not_reorder_costs() {
    use xpro::wireless::{Link, LinkConfig, TransceiverModel};
    let clean = Link::new(TransceiverModel::model2(), LinkConfig::ideal());
    let noisy = Link::new(
        TransceiverModel::model2(),
        LinkConfig {
            mtu_payload_bits: 2048,
            bit_error_rate: 1e-5,
        },
    );
    // Raw upload vs feature upload: the cross-end advantage survives link
    // non-idealities.
    let raw_bits = 128 * 32;
    let feature_bits = 36 * 32;
    assert!(noisy.tx_payload_pj(raw_bits) > clean.tx_payload_pj(raw_bits));
    assert!(noisy.tx_payload_pj(feature_bits) < noisy.tx_payload_pj(raw_bits) / 2.0);
}
