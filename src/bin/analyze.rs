//! `analyze` — static range & overflow report for the fixed-point cell
//! dataflow.
//!
//! By default the tool analyzes the *generic framework* graph (full DWT
//! chain, every feature on every domain, an RBF SVM ensemble) over the
//! normalized `[-1, 1]` input range and prints a per-cell verdict table.
//! Input bounds can instead be taken from a Table-1 dataset's metadata
//! (`--case`), widened explicitly (`--lo/--hi/--scale`), and the analysis
//! can run against a trained pipeline's graph rather than the framework
//! superset (`--trained`).
//!
//! For CI the tool also speaks a machine-readable dialect: `--table1`
//! analyzes the framework graph under every Table-1 dataset's signal
//! bounds — per-cell range/overflow verdicts plus the static
//! timing/energy verdicts (WCRT, queue, utilization, energy budget) of
//! the generator's cross-end cut under the default fleet — `--json` emits
//! the findings in the canonical byte-stable baseline format,
//! `--write-baseline` records them to a file, and `--gate` diffs the
//! current findings against a checked-in baseline and fails on any
//! severity regression.
//!
//! Exit status: 0 on success, 1 on bad usage, 2 if `--fail-on-overflow`
//! was given and some cell may overflow, 3 if `--gate` found a verdict
//! regression against the baseline.

use std::io::Write;
use std::process::ExitCode;
use xpro::analyze::gate::findings_for_report;
use xpro::analyze::{diff_findings, parse_findings, render_findings, Finding, SignalBounds};
use xpro::cli::Stdout;
use xpro::core::builder::{build_full_cell_graph, BuildOptions};
use xpro::core::config::SystemConfig;
use xpro::core::generator::XProGenerator;
use xpro::core::instance::XProInstance;
use xpro::core::pipeline::{PipelineConfig, XProPipeline};
use xpro::core::XProError;
use xpro::data::{generate_case_sized, CaseId};
use xpro::ml::SubspaceConfig;
use xpro::sweep::{table1_findings, SweepOptions};

const USAGE: &str = "\
usage: analyze [options]

Static range & overflow analysis of the Q16.16 functional-cell dataflow.

options:
  --case <SYM>          take input bounds from a Table-1 dataset
                        (C1, C2, E1, E2, M1, M2)
  --segments <N>        dataset size for --case (default 80)
  --lo <X> --hi <Y>     explicit input bounds (default -1 1)
  --scale <S>           shorthand for --lo -S --hi S
  --bases <N>           SVM bases in the framework graph (default 4)
  --sv <N>              support vectors per base (default 40)
  --trained             with --case: train the pipeline on the dataset and
                        analyze the trained graph instead of the framework
                        superset (also reports the generator's verdict)
  --fail-on-overflow    exit with status 2 if any cell may overflow
  --table1              analyze the framework graph under the normalized
                        default bounds plus every Table-1 dataset's signal
                        bounds, one findings set per config (range rows
                        plus static timing/energy verdicts per regime)
  --json                print the machine-readable findings document
                        instead of the human verdict table
  --gate <FILE>         diff the findings against the baseline in FILE and
                        exit with status 3 on any severity regression
  --write-baseline <FILE>
                        write the findings to FILE in baseline format

exit status: 0 ok, 1 usage or config error, 2 may-overflow under
--fail-on-overflow, 3 baseline regression under --gate";

struct Args {
    case: Option<CaseId>,
    segments: usize,
    lo: Option<f64>,
    hi: Option<f64>,
    scale: Option<f64>,
    bases: usize,
    sv: usize,
    trained: bool,
    fail_on_overflow: bool,
    table1: bool,
    json: bool,
    gate: Option<String>,
    write_baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        case: None,
        segments: 80,
        lo: None,
        hi: None,
        scale: None,
        bases: 4,
        sv: 40,
        trained: false,
        fail_on_overflow: false,
        table1: false,
        json: false,
        gate: None,
        write_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--case" => {
                let sym = value("--case")?;
                args.case = Some(
                    CaseId::ALL
                        .into_iter()
                        .find(|c| c.symbol().eq_ignore_ascii_case(&sym))
                        .ok_or_else(|| format!("unknown case {sym:?}"))?,
                );
            }
            "--segments" => {
                args.segments = value("--segments")?
                    .parse()
                    .map_err(|e| format!("--segments: {e}"))?;
            }
            "--lo" => args.lo = Some(value("--lo")?.parse().map_err(|e| format!("--lo: {e}"))?),
            "--hi" => args.hi = Some(value("--hi")?.parse().map_err(|e| format!("--hi: {e}"))?),
            "--scale" => {
                args.scale = Some(
                    value("--scale")?
                        .parse()
                        .map_err(|e| format!("--scale: {e}"))?,
                );
            }
            "--bases" => {
                args.bases = value("--bases")?
                    .parse()
                    .map_err(|e| format!("--bases: {e}"))?;
            }
            "--sv" => args.sv = value("--sv")?.parse().map_err(|e| format!("--sv: {e}"))?,
            "--trained" => args.trained = true,
            "--fail-on-overflow" => args.fail_on_overflow = true,
            "--table1" => args.table1 = true,
            "--json" => args.json = true,
            "--gate" => args.gate = Some(value("--gate")?),
            "--write-baseline" => args.write_baseline = Some(value("--write-baseline")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.trained && args.case.is_none() {
        return Err("--trained requires --case".into());
    }
    if args.table1 {
        if args.case.is_some() || args.trained {
            return Err("--table1 conflicts with --case/--trained".into());
        }
        if args.lo.is_some() || args.hi.is_some() || args.scale.is_some() {
            return Err("--table1 conflicts with explicit bounds".into());
        }
        if args.fail_on_overflow {
            return Err("--table1 analyzes overflowing configs by design; gate with --gate".into());
        }
    }
    Ok(args)
}

/// Analyzes the framework graph under the normalized default bounds plus
/// every Table-1 dataset's measured signal bounds, one findings set per
/// config — range/overflow rows per cell plus the timing/energy verdicts
/// of the generator's cross-end cut. Configs that may overflow are
/// reported, not refused — the baseline records their severity so the
/// gate can catch regressions. The sweep itself lives in [`xpro::sweep`]
/// so the byte-stability tests exercise the same code path.
fn run_table1(args: &Args) -> Result<(bool, Vec<Finding>), XProError> {
    table1_findings(&SweepOptions {
        bases: args.bases,
        sv: args.sv,
        segments: args.segments,
        verbose: !args.json,
        ..SweepOptions::default()
    })
}

fn run(args: &Args, out: &mut impl Write) -> Result<(bool, Vec<Finding>), XProError> {
    if args.table1 {
        return run_table1(args);
    }
    // Resolve input bounds: explicit flags beat dataset metadata beats the
    // normalized default.
    let dataset = args
        .case
        .map(|case| generate_case_sized(case, args.segments, 42));
    let mut bounds = match &dataset {
        Some(data) => {
            let (lo, hi) = data.signal_range();
            if !args.json {
                writeln!(
                    out,
                    "dataset {} ({}): {} segments of {} samples, range [{lo:.3}, {hi:.3}]",
                    data.symbol,
                    data.name,
                    data.len(),
                    data.segment_len
                )?;
            }
            SignalBounds::new(lo, hi)
        }
        None => SignalBounds::default(),
    };
    if let Some(s) = args.scale {
        if s <= 0.0 {
            return Err(XProError::config("--scale must be positive"));
        }
        bounds = SignalBounds::new(-s, s);
    }
    if args.lo.is_some() || args.hi.is_some() {
        let (lo, hi) = (args.lo.unwrap_or(bounds.lo), args.hi.unwrap_or(bounds.hi));
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(XProError::config(format!(
                "invalid bounds: --lo {lo} --hi {hi}"
            )));
        }
        bounds = SignalBounds::new(lo, hi);
    }

    let (built, segment_len, label) = if args.trained {
        let data = dataset.as_ref().expect("--trained requires --case");
        let cfg = PipelineConfig::builder()
            .subspace(SubspaceConfig {
                candidates: 10,
                keep_fraction: 0.3,
                min_keep: 3,
                folds: 2,
                ..SubspaceConfig::default()
            })
            .build()?;
        let pipeline = XProPipeline::train(data, &cfg)?;
        let len = pipeline.segment_len();
        (pipeline.into_built(), len, "trained pipeline graph")
    } else {
        (
            build_full_cell_graph(&BuildOptions::default(), args.bases, args.sv),
            128,
            "generic framework graph",
        )
    };

    if !args.json {
        writeln!(out, "analyzing {label} ({} cells)", built.graph.len())?;
    }
    let instance =
        XProInstance::try_with_bounds(built, SystemConfig::default(), segment_len, bounds)?;
    let report = instance.analysis();
    if !args.json {
        writeln!(out, "{report}")?;
    }

    if args.trained && !args.json {
        let generator = XProGenerator::new(&instance);
        let cut = generator.generate()?;
        writeln!(
            out,
            "generator: cross-end cut maps {} of {} cells to the sensor; numerically valid: {}",
            cut.sensor_count(),
            instance.num_cells(),
            generator.numerically_valid(&cut)
        )?;
    }

    let config = args.case.map_or("default", |c| c.symbol());
    let findings = findings_for_report(config, report);
    Ok((report.is_overflow_free(), findings))
}

fn main() -> ExitCode {
    let mut out = Stdout::lock();
    let result = match parse_args() {
        Ok(args) => analyze(&args, &mut out),
        Err(msg) if msg.is_empty() => writeln!(out, "{USAGE}")
            .map(|()| ExitCode::SUCCESS)
            .map_err(XProError::from),
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the analysis, emits the findings and applies the gates; returns
/// the exit status.
fn analyze(args: &Args, out: &mut impl Write) -> Result<ExitCode, XProError> {
    let (overflow_free, findings) = run(args, out)?;
    let document = render_findings(&findings);
    if args.json {
        write!(out, "{document}")?;
    }
    if let Some(path) = &args.write_baseline {
        if let Err(e) = std::fs::write(path, &document) {
            eprintln!("error: cannot write baseline {path:?}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        if !args.json {
            writeln!(
                out,
                "baseline written to {path} ({} findings)",
                findings.len()
            )?;
        }
    }
    if let Some(path) = &args.gate {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read baseline {path:?}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let baseline = match parse_findings(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("error: baseline {path:?}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        let regressions = diff_findings(&baseline, &findings);
        if !regressions.is_empty() {
            eprintln!(
                "error: {} verdict regression(s) against baseline {path}:",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  {r}");
            }
            return Ok(ExitCode::from(3));
        }
        if !args.json {
            writeln!(
                out,
                "gate: {} findings match baseline {path}, no regressions",
                findings.len()
            )?;
        }
    }
    out.flush()?;
    if !overflow_free && args.fail_on_overflow {
        eprintln!("error: some cells may overflow (see report above)");
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}
