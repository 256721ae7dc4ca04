//! Set-up (dataset generation and training) and the certified planning
//! sequence shared by every workload.

use crate::out::Outcome;
use crate::trace::Tracer;
use std::time::Instant;
use xpro::core::config::SystemConfig;
use xpro::core::instance::XProInstance;
use xpro::core::layout::{DWT_INPUT_LEN, DWT_LEVELS};
use xpro::core::pipeline::{extract_features, PipelineConfig, XProPipeline};
use xpro::core::{verify_plan, Partition, PlanCache, XProGenerator};
use xpro::data::{generate_case_sized, CaseId, Dataset};
use xpro::ml::SubspaceConfig;
use xpro::signal::dwt::dwt_multilevel;
use xpro::signal::window::fit_length;

/// One trained Table-1 case.
#[derive(Debug)]
pub struct Case {
    pub id: CaseId,
    /// Segments the workload classifies, generated from the seed.
    pub data: Dataset,
    pub pipeline: XProPipeline,
}

/// Seed of the training sets. The trained pipelines are the deployment
/// under test, fixed like the `runtime` CLI's; the workload seed drives
/// the inputs that flow through them (evaluation segments, fleet faults
/// and traffic), so a run's cost does not hinge on how large one seed's
/// ensemble came out.
const TRAIN_SEED: u64 = 42;

/// Mixes the workload seed with a salt (splitmix64 finalizer), so every
/// input the benchmark derives from one seed gets its own stream.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Trains `case`'s pipeline with the small ensemble the `runtime` CLI
/// uses and generates `segments` evaluation segments from the seed.
pub fn train_case(id: CaseId, segments: usize, seed: u64, tr: &mut Tracer) -> Case {
    let (train, data) = tr.span("data.generate", 2, |_| {
        (
            generate_case_sized(id, segments, TRAIN_SEED),
            generate_case_sized(id, segments, mix(seed, 1)),
        )
    });
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: 2,
            ..SubspaceConfig::default()
        })
        .build()
        .expect("the fixed pipeline configuration is valid");
    let pipeline = tr.span("ml.train", 1, |_| {
        XProPipeline::train(&train, &cfg).expect("synthetic Table-1 data trains")
    });
    Case { id, data, pipeline }
}

/// A priced, certified deployment.
#[derive(Debug)]
pub struct Plan {
    pub instance: XProInstance,
    pub partition: Partition,
    /// Wall time of pricing plus the cold certified plan, in seconds.
    pub plan_s: f64,
}

/// Prices `case` under `config`, plans it cold with the certified
/// λ-sweep and checks the plan: the certificate verifies and a warm
/// plan-cache lookup returns the same cut. Also times one plain min-cut
/// and the cache key, for the per-layer table.
pub fn plan_deployment(
    case: &Case,
    config: SystemConfig,
    cache: &mut PlanCache,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Plan {
    let start = Instant::now();
    let instance = tr.span("instance.price", 1, |_| {
        XProInstance::try_new(
            case.pipeline.built().clone(),
            config,
            case.pipeline.segment_len(),
        )
        .expect("a trained graph prices under every Table-1 system")
    });
    let generator = XProGenerator::new(&instance);
    let (limit, cold) = tr.span("generator.sweep", 1, |_| {
        let limit = generator.default_delay_limit();
        (limit, generator.delay_constrained_cut_certified(limit))
    });
    let plan_s = start.elapsed().as_secs_f64();
    let (partition, cert) = match cold {
        Ok(p) => p,
        Err(e) => {
            out.check(false, || {
                format!("{}: cold plan failed: {e}", case.id.symbol())
            });
            (generator.trivial_cut(), None)
        }
    };
    let verified = tr.span("certificate.verify", 1, |_| {
        verify_plan(&instance, &partition, cert.as_ref(), limit)
    });
    out.check(verified.is_ok(), || {
        format!("{}: plan fails verify_plan: {verified:?}", case.id.symbol())
    });
    tr.span("graph.min_cut", 1, |_| {
        std::hint::black_box(generator.unconstrained_cut());
    });
    tr.span("plancache.key", 1, |_| {
        std::hint::black_box(PlanCache::key(&instance, limit));
    });
    // The warm-up pass fills the cache, so measured passes hit.
    let cached = tr.span("plancache.hit", 1, |_| cache.plan_for(&instance, limit));
    out.check(matches!(&cached, Ok((p, _)) if *p == partition), || {
        format!(
            "{}: plan cache disagrees with the cold plan",
            case.id.symbol()
        )
    });
    Plan {
        instance,
        partition,
        plan_s,
    }
}

/// Times the per-segment kernels on the case's segments: the multi-level
/// DWT, feature extraction and the float classifier.
pub fn kernel_probes(case: &Case, tr: &mut Tracer) {
    let segs = &case.data.segments;
    let n = segs.len() as u64;
    let wavelet = case.pipeline.wavelet();
    tr.span("signal.dwt", n, |_| {
        for s in segs {
            std::hint::black_box(dwt_multilevel(
                &fit_length(s, DWT_INPUT_LEN),
                DWT_LEVELS,
                wavelet,
            ));
        }
    });
    tr.span("signal.features", n, |_| {
        for s in segs {
            std::hint::black_box(extract_features(s, wavelet));
        }
    });
    tr.span("pipeline.classify", n, |_| {
        for s in segs {
            std::hint::black_box(case.pipeline.classify(s));
        }
    });
}
