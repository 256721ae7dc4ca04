//! `xbench` — one workload of the XPro benchmark in its own process.
//!
//! Usage: `xbench --workload <fleet_bulk|fleet_chaos|design_sweep>
//! --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! [--spans <file>]`
//!
//! Prints one JSON object: the output checks (`correct`, `attempted`,
//! `failed`), the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`), run metadata and, for a traced run, the
//! self-time table. `perfbench/run.py` builds and drives it.

mod design;
mod fleet;
mod out;
mod plan;
mod trace;

use out::{peak_rss_mb, Outcome};
use std::collections::BTreeMap;
use trace::Tracer;

/// Measured passes per process, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Input sizes: `Full` is the benchmark, `Tiny` a seconds-long smoke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Metric values a workload measured, by name.
#[derive(Debug, Default)]
pub struct Measured {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
}

/// End-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("segments_per_s_p25", "1/s"),
    ("pass_s_p75", "s"),
    ("plan_ms_best", "ms"),
    ("plan_ms_p90", "ms"),
];

/// Per-layer metrics taken from span self time: metric, span, unit and
/// nanoseconds per unit. The value is self time per work item.
const SPAN_LAYERS: &[(&str, &str, &str, f64)] = &[
    ("graph.min_cut_us", "graph.min_cut", "us", 1e3),
    ("generator.sweep_ms", "generator.sweep", "ms", 1e6),
    ("certificate.verify_us", "certificate.verify", "us", 1e3),
    ("instance.price_ms", "instance.price", "ms", 1e6),
    ("plancache.key_us", "plancache.key", "us", 1e3),
    ("plancache.hit_us", "plancache.hit", "us", 1e3),
    ("approx.plan_ms", "approx.plan", "ms", 1e6),
    ("analyze.table1_ms", "analyze.table1", "ms", 1e6),
    ("signal.dwt_us", "signal.dwt", "us", 1e3),
    ("signal.features_us", "signal.features", "us", 1e3),
    ("pipeline.classify_us", "pipeline.classify", "us", 1e3),
    (
        "pipeline.classify_q16_us",
        "pipeline.classify_q16",
        "us",
        1e3,
    ),
    ("ml.train_s", "ml.train", "s", 1e9),
    ("data.generate_ms", "data.generate", "ms", 1e6),
    ("sketch.merge_us", "sketch.merge", "us", 1e3),
    ("report.to_json_ms", "report.to_json", "ms", 1e6),
    ("columnar.encode_ms", "columnar.encode", "ms", 1e6),
    ("columnar.decode_ms", "columnar.decode", "ms", 1e6),
    ("soundness.check_ms", "soundness.check", "ms", 1e6),
];

/// Per-layer metrics computed by the workloads, with units.
const COMPUTED_LAYERS: &[(&str, &str)] = &[
    ("executor.round_us", "us"),
    ("executor.shard_speedup", "x"),
    ("telemetry.bytes_per_node", "B"),
    ("trace.overhead_ratio", "x"),
    ("executor.rounds", "count"),
    ("aggregator.batches", "count"),
    ("aggregator.peak_inbox", "count"),
    ("aggregator.inbox_overflows", "count"),
    ("controller.switches", "count"),
    ("plancache.hits", "count"),
    ("plancache.misses", "count"),
    ("tenant.admission_rejected", "count"),
    ("tenant.quarantine_dropped", "count"),
    ("soundness.violations", "count"),
    ("sim.segments_offered", "count"),
    ("sim.segments_completed", "count"),
    ("sim.frame_attempts", "count"),
    ("sim.retries", "count"),
    ("sim.latency_p50_ms", "virtual_ms"),
    ("sim.latency_p99_ms", "virtual_ms"),
    ("sim.channel_utilization", "ratio"),
    ("sim.sensor_uj_per_segment", "uJ"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        size: Size::Full,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                };
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, got {v}")),
                };
            }
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let mut m = match args.workload.as_str() {
        "fleet_bulk" | "fleet_chaos" => {
            let kind = if args.workload == "fleet_bulk" {
                fleet::Kind::Bulk
            } else {
                fleet::Kind::Chaos
            };
            fleet::run(
                kind,
                args.seed,
                args.seconds,
                args.traced,
                args.size,
                &mut out,
            )
        }
        "design_sweep" => design::run(args.seed, args.seconds, args.traced, args.size, &mut out),
        other => {
            eprintln!("xbench: unknown workload {other:?}");
            return std::process::ExitCode::from(2);
        }
    };
    m.e2e.insert("peak_rss_mb", peak_rss_mb());

    if args.traced {
        let tracer = &m.tracer;
        let layers = tracer.layer_times();
        for &(name, span, unit, ns_per_unit) in SPAN_LAYERS {
            let value = layers
                .iter()
                .find(|(n, _)| *n == span)
                .map_or(0.0, |(_, t)| {
                    t.self_ns as f64 / ns_per_unit / t.items.max(1) as f64
                });
            out.metric(name, value, unit);
        }
        for &(name, unit) in COMPUTED_LAYERS {
            out.metric(name, m.layer.get(name).copied().unwrap_or(0.0), unit);
        }
        out.set_layers(tracer);
        if let Some(path) = &args.spans {
            match std::fs::write(path, tracer.to_jsonl()) {
                Ok(()) => out.meta("spans_file", path),
                Err(e) => out.check(false, || format!("cannot write spans to {path}: {e}")),
            }
        }
        out.meta("spans", tracer.spans().len());
    } else {
        for &(name, unit) in END_TO_END {
            out.metric(name, m.e2e[name], unit);
        }
    }
    out.meta("workload", &args.workload);
    out.meta("seed", args.seed);
    out.meta(
        "size",
        if args.size == Size::Full {
            "full"
        } else {
            "tiny"
        },
    );
    out.meta(
        "nproc",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    out.meta(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    println!("{}", out.to_json());
    std::process::ExitCode::SUCCESS
}
