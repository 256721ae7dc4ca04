//! # XPro — a cross-end processing architecture for data analytics in wearables
//!
//! A from-scratch Rust reproduction of *XPro: A Cross-End Processing
//! Architecture for Data Analytics in Wearables* (Wang, Chen, Xu — ISCA
//! 2017). XPro embeds a generic biosignal classification engine into a
//! body-sensor-network system by splitting it into fine-grained functional
//! cells distributed between the wearable sensor and the data aggregator;
//! an Automatic XPro Generator finds the minimum-sensor-energy partition
//! under a system delay constraint by reduction to s-t min-cut.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`signal`] — Q16.16 fixed point, statistical features, DWT;
//! * [`ml`] — SMO-trained SVMs, random-subspace ensembles, score fusion;
//! * [`data`] — synthetic ECG/EEG/EMG datasets matching the paper's Table 1;
//! * [`hw`] — functional-cell energy/delay library (ALU modes, TSMC nodes);
//! * [`wireless`] — the three medical-implant radio models;
//! * [`battery`] — Polymer Li-Ion lifetime model;
//! * [`graph`] — Dinic max-flow / min-cut and DAG critical paths;
//! * [`core`] — the XPro engine itself: cell graphs, the Automatic XPro
//!   Generator, the four engine designs and system evaluation;
//! * [`runtime`] — streaming cross-end executor: fleets of sensor nodes
//!   over a lossy shared channel, fault injection, an adaptive partition
//!   controller, metrics and run reports (the single-event tracer lives at
//!   [`runtime::trace`]).
//!
//! # Quick start
//!
//! ```
//! use xpro::prelude::*;
//! use xpro::data::{generate_case_sized, CaseId};
//! use xpro::ml::SubspaceConfig;
//!
//! # fn main() -> Result<(), XProError> {
//! // 1. A workload: the paper's C1 case (TwoLeadECG), subsampled.
//! let data = generate_case_sized(CaseId::C1, 80, 42);
//!
//! // 2. Train the generic classification pipeline.
//! let cfg = PipelineConfig::builder()
//!     .subspace(SubspaceConfig { candidates: 8, folds: 2, ..Default::default() })
//!     .build()?;
//! let pipeline = XProPipeline::train(&data, &cfg)?;
//!
//! // 3. Price the functional cells under the paper's default system
//! //    (90 nm sensor, wireless Model 2, Cortex-A8 aggregator).
//! let segment_len = pipeline.segment_len();
//! let instance =
//!     XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len)?;
//!
//! // 4. Let the Automatic XPro Generator place the cut and compare engines.
//! let cmp = EngineComparison::evaluate("C1", &instance)?;
//! assert!(cmp.lifetime_gain_over(Engine::InAggregator) >= 1.0);
//!
//! // 5. Stream it: a 4-node fleet over a 5 % lossy link, sharded
//! //    across the available cores (the report does not depend on the
//! //    shard count).
//! let partition = XProGenerator::new(&instance).generate()?;
//! let run_cfg = RuntimeConfig::builder()
//!     .nodes(4)
//!     .duration_s(1.0)
//!     .drop_rate(0.05)
//!     .build()?;
//! let handle = ExecutorBuilder::new(FleetSpec::new(&instance, &partition, run_cfg)?)
//!     .shards(ShardCount::Auto)
//!     .build()?
//!     .run();
//! assert!(handle.report.total_completed() > 0);
//! # Ok(())
//! # }
//! ```

pub mod cli;
pub mod sweep;

pub use xpro_analyze as analyze;
pub use xpro_battery as battery;
pub use xpro_core as core;
pub use xpro_data as data;
pub use xpro_graph as graph;
pub use xpro_hw as hw;
pub use xpro_ml as ml;
pub use xpro_runtime as runtime;
pub use xpro_signal as signal;
pub use xpro_wireless as wireless;

/// One-import surface for the common workflow: everything from
/// [`xpro_core::prelude`] plus the streaming executor types.
///
/// The deprecated `Executor` facade is intentionally absent: new code
/// builds a [`FleetSpec`](xpro_runtime::FleetSpec) and runs it through
/// [`ExecutorBuilder`](xpro_runtime::ExecutorBuilder).
pub mod prelude {
    pub use xpro_core::prelude::*;
    pub use xpro_runtime::{
        ExecutorBuilder, FleetExecutor, FleetSpec, RunHandle, RunReport, RuntimeConfig, ShardCount,
        TenantSpec,
    };
}
