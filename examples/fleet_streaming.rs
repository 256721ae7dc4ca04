//! A fleet of wearables streaming through one aggregator over a lossy
//! link.
//!
//! Trains the paper's C1 workload, places the delay-constrained cross-end
//! cut, then runs an 8-node fleet for 10 simulated seconds at three link
//! qualities to show graceful degradation: retries and latency grow with
//! the drop rate while the stream keeps flowing. The last run also
//! records per-round columnar telemetry, writes it as an `.xpc` file and
//! reads one column back through the footer index — the same pipeline
//! `runtime --export <dir>` drives.
//!
//! Run: `cargo run --release --example fleet_streaming`

use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::prelude::*;
use xpro::runtime::{summarize_timesteps, ColumnData, ColumnIndex};

fn main() -> Result<(), XProError> {
    let data = generate_case_sized(CaseId::C1, 60, 42);
    let cfg = PipelineConfig::builder()
        .subspace(SubspaceConfig {
            candidates: 10,
            keep_fraction: 0.3,
            min_keep: 3,
            folds: 2,
            ..SubspaceConfig::default()
        })
        .build()?;
    let pipeline = XProPipeline::train(&data, &cfg)?;
    let segment_len = pipeline.segment_len();
    let instance =
        XProInstance::try_new(pipeline.into_built(), SystemConfig::default(), segment_len)?;
    let partition = XProGenerator::new(&instance).generate()?;
    println!(
        "C1 cross-end cut: {} of {} cells on the sensor\n",
        partition.sensor_count(),
        instance.num_cells()
    );

    for drop_rate in [0.0, 0.1, 0.3] {
        let record = drop_rate >= 0.3; // telemetry demo on the harshest link
        let run_cfg = RuntimeConfig::builder()
            .nodes(8)
            .duration_s(10.0)
            .drop_rate(drop_rate)
            .max_retries(4)
            .seed(7)
            .build()?;
        let handle = ExecutorBuilder::new(FleetSpec::new(&instance, &partition, run_cfg)?)
            .record_timesteps(record)
            .build()?
            .run();
        let report = &handle.report;
        let fleet = &report.fleet;
        println!(
            "drop rate {:>4.0} % — {} completed, {} lost, {} retries, p99 {:.3} ms",
            drop_rate * 100.0,
            report.total_completed(),
            report.total_lost(),
            report.total_retries(),
            fleet.p99_s * 1e3
        );
        if let Some(batch) = &handle.timesteps {
            // Round-trip through the on-disk format, then slice a single
            // column back out via the footer index — no full-file scan.
            let path = std::env::temp_dir().join("fleet_streaming_timesteps.xpc");
            batch.write(&path)?;
            let bytes = std::fs::read(&path).map_err(XProError::from)?;
            let Some(ColumnData::U64(completed)) =
                ColumnIndex::parse(&bytes)?.read_column(&bytes, "completed")?
            else {
                unreachable!("the recorder always emits a completed column")
            };
            let summary = summarize_timesteps(batch)?;
            println!(
                "\ntelemetry: {} rounds exported to {} ({} bytes of sketches, \
                 not per-sample buffers)",
                summary.rows,
                path.display(),
                handle.telemetry_bytes
            );
            println!(
                "completed per round (footer-index read): first {:?} ... total {}",
                &completed[..completed.len().min(8)],
                summary.completed
            );
        }
    }
    Ok(())
}
