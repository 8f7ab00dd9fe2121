//! The single `optpower` command-line front-end. Every retired report
//! binary survives as an `optpower <kind>` subcommand with its legacy
//! flag set and byte-identical stdout.
//!
//! ```text
//! optpower list                         # the job catalogue
//! optpower spec <kind>                  # the kind's default JobSpec JSON
//! optpower run <spec.json> [--workers N] [--out DIR] [--json|--csv]
//! optpower <kind> [flags]               # run one kind directly
//! optpower ab-initio --glitch-sweep     # the legacy flag set still works
//! ```
//!
//! `optpower run` is the wire-format path: the file (or `-` for
//! stdin) holds a `optpower-job/v1` JSON spec — exactly what
//! [`crate::JobSpec::to_json`] emits and what a service front-end
//! would POST.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use optpower_explore::Workers;
use optpower_report::{glitch_rows_to_csv, glitch_rows_to_json, GlitchSweep};

use crate::artifact::{Artifact, Payload};
use crate::error::{SpecError, WorkloadError};
use crate::runtime::Runtime;
use crate::spec::{AbInitioSpec, GlitchSweepSpec, JobSpec, JOB_KINDS};
use crate::wire::{ErrorBody, WireFormat};

/// Entry point of the `optpower` binary: parses `args` (without the
/// program name), runs, prints, and maps errors through the frozen
/// wire surface — the exit code is [`ErrorBody::exit_code`] (2 =
/// client error, 3 = job failed, 4 = host failure), the same
/// classification the job service sends as HTTP statuses.
pub fn main_with_args(args: Vec<String>) -> ExitCode {
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let body = ErrorBody::of(&e);
            eprintln!("error: {e}");
            ExitCode::from(body.exit_code())
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), WorkloadError> {
    let Some(command) = args.first() else {
        print!("{}", usage());
        return Ok(());
    };
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        "list" => {
            println!("job kinds (run one with `optpower run <spec.json>` or `optpower <kind>`):");
            for &(kind, summary) in JOB_KINDS {
                println!("  {kind:<18} {summary}");
            }
            println!("\ndefault specs are printable with `optpower spec <kind>`");
            Ok(())
        }
        "spec" => {
            let kind = args
                .get(1)
                .ok_or_else(|| SpecError::new("usage: optpower spec <kind>"))?;
            let spec = JobSpec::default_for(kind).ok_or_else(|| {
                SpecError::new(format!("unknown job kind {kind:?} (see `optpower list`)"))
            })?;
            println!("{}", spec.to_json());
            Ok(())
        }
        "run" => run_command(&args[1..]),
        "lint" => run_lint(&args[1..]),
        "sta" => run_sta(&args[1..]),
        "prune-delta" => run_prune_delta(&args[1..]),
        // Every legacy binary name (and its kebab-case spelling) is an
        // `optpower` subcommand with the legacy flag set.
        other => {
            let kind = other.replace('-', "_");
            if is_legacy_kind(&kind) {
                run_legacy(&kind, &args[1..])
            } else {
                Err(SpecError::new(format!(
                    "unknown command {other:?}; try `optpower list` or `optpower help`"
                ))
                .into())
            }
        }
    }
}

fn usage() -> String {
    "optpower - declarative workloads over the Schuster et al. (DATE'06) reproduction\n\
     \n\
     usage:\n\
     \x20 optpower list                                   the job catalogue\n\
     \x20 optpower spec <kind>                            print a kind's default JobSpec JSON\n\
     \x20 optpower run <spec.json|-> [--workers N] [--cache N]\n\
     \x20               [--out DIR] [--json] [--csv]      execute a JSON JobSpec\n\
     \x20 optpower lint [--arch NAME]* [--width N]*\n\
     \x20               [--out DIR] [--json] [--csv]      structural netlist lint gate\n\
     \x20 optpower sta  [--arch NAME]* [--width N] [--items N] [--seed N]\n\
     \x20               [--workers N] [--out DIR]\n\
     \x20               [--json] [--csv]                  integer-tick STA + glitch bound\n\
     \x20 optpower prune-delta [--arch NAME]* [--width N]* [--items N] [--seed N]\n\
     \x20               [--workers N] [--out DIR]\n\
     \x20               [--json] [--csv]                  raw-vs-pruned power delta\n\
     \x20 optpower <kind> [flags]                         run one kind with its legacy flags\n\
     \n\
     kinds double as legacy binary names: table1..table4, scaling, sensitivity,\n\
     ablation, figure1, figure2, figure34, ab-initio [--smoke --workers N\n\
     --glitch-sweep --freq-points N], export, pareto [--freq-points N], activity\n\
     [--arch NAME --width N --engine E --items N --seed N]\n"
        .to_string()
}

fn run_command(args: &[String]) -> Result<(), WorkloadError> {
    let mut source: Option<String> = None;
    let mut workers = Workers::Auto;
    let mut cache: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut format = WireFormat::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => workers = Workers::Fixed(parse_count(it.next(), "--workers")?),
            "--cache" => cache = Some(parse_count(it.next(), "--cache")?),
            "--out" => {
                out_dir =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        SpecError::new("--out needs a directory argument")
                    })?));
            }
            "--json" => format = WireFormat::Json,
            "--csv" => format = WireFormat::Csv,
            other if source.is_none() && !other.starts_with("--") => {
                source = Some(other.to_string());
            }
            other => {
                return Err(
                    SpecError::new(format!("unknown `optpower run` argument {other:?}")).into(),
                )
            }
        }
    }
    let source =
        source.ok_or_else(|| SpecError::new("usage: optpower run <spec.json|-> [flags]"))?;
    let text = if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| WorkloadError::io("<stdin>", e))?;
        buf
    } else {
        std::fs::read_to_string(&source).map_err(|e| WorkloadError::io(&source, e))?
    };
    let spec = JobSpec::from_json(&text)?;
    let mut runtime = Runtime::new(workers);
    if let Some(capacity) = cache {
        // Batch members recurse through the runtime, so one `--cache`
        // flag gives repeated members artifact-cache hits and
        // overlapping characterizations row-cache hits.
        runtime = runtime.with_cache(capacity);
    }
    let artifact = runtime.run(&spec)?;
    emit(&artifact, format, out_dir.as_deref())
}

/// `optpower lint [--arch NAME]* [--width N]* [--json|--csv] [--out DIR]`.
/// No `--arch` means all 13 architectures; no `--width` means every
/// supported width per architecture (the CI gate shape).
fn run_lint(args: &[String]) -> Result<(), WorkloadError> {
    let mut spec = crate::spec::LintSpec::default();
    let mut format = WireFormat::Text;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--arch" => {
                let name = it
                    .next()
                    .ok_or_else(|| SpecError::new("--arch needs a name"))?;
                spec.archs.get_or_insert_with(Vec::new).push(name.clone());
            }
            "--width" => {
                let w = parse_count(it.next(), "--width")?;
                spec.widths.get_or_insert_with(Vec::new).push(w);
            }
            "--json" => format = WireFormat::Json,
            "--csv" => format = WireFormat::Csv,
            "--out" => out_dir = Some(parse_path(it.next(), "--out")?),
            other => {
                return Err(SpecError::new(format!(
                    "unknown argument {other:?} \
                     (try --arch NAME / --width N / --json / --csv / --out DIR)"
                ))
                .into())
            }
        }
    }
    let artifact = Runtime::new(Workers::Auto).run(&JobSpec::Lint(spec))?;
    emit(&artifact, format, out_dir.as_deref())?;
    // The subcommand is a gate: emit the full report first, then fail
    // the invocation if any netlist carried an error-severity
    // diagnostic, so `optpower lint` works as a CI tripwire.
    if let crate::artifact::Payload::Lint(rows) = &artifact.payload {
        let errors: usize = rows.iter().map(|r| r.report.error_count()).sum();
        if errors > 0 {
            return Err(SpecError::new(format!(
                "lint found {errors} error-severity diagnostic(s); see the report above"
            ))
            .into());
        }
    }
    Ok(())
}

/// `optpower sta [--arch NAME]* [--width N] [--items N] [--seed N]
/// [--workers N] [--json|--csv] [--out DIR]`. `--items 0` skips the
/// measured (timed-simulation) leg and reports static columns only.
fn run_sta(args: &[String]) -> Result<(), WorkloadError> {
    let mut spec = crate::spec::StaSpec::default();
    let mut format = WireFormat::Text;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--arch" => {
                let name = it
                    .next()
                    .ok_or_else(|| SpecError::new("--arch needs a name"))?;
                spec.archs.get_or_insert_with(Vec::new).push(name.clone());
            }
            "--width" => spec.width = parse_count(it.next(), "--width")?,
            "--items" => spec.items = parse_count(it.next(), "--items")? as u64,
            "--seed" => spec.seed = parse_count(it.next(), "--seed")? as u64,
            "--workers" => spec.workers = Some(parse_count(it.next(), "--workers")?),
            "--json" => format = WireFormat::Json,
            "--csv" => format = WireFormat::Csv,
            "--out" => out_dir = Some(parse_path(it.next(), "--out")?),
            other => {
                return Err(SpecError::new(format!(
                    "unknown argument {other:?} (try --arch NAME / --width N / --items N \
                     / --seed N / --workers N / --json / --csv / --out DIR)"
                ))
                .into())
            }
        }
    }
    let artifact = Runtime::new(Workers::Auto).run(&JobSpec::Sta(spec))?;
    emit(&artifact, format, out_dir.as_deref())
}

/// `optpower prune-delta [--arch NAME]* [--width N]* [--items N]
/// [--seed N] [--workers N] [--json|--csv] [--out DIR]`. Explicit
/// `--width` flags replace the default {4, 8, 16, 24, 32} axis.
fn run_prune_delta(args: &[String]) -> Result<(), WorkloadError> {
    let mut spec = crate::spec::PruneDeltaSpec::default();
    let mut widths: Vec<usize> = Vec::new();
    let mut format = WireFormat::Text;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--arch" => {
                let name = it
                    .next()
                    .ok_or_else(|| SpecError::new("--arch needs a name"))?;
                spec.archs.get_or_insert_with(Vec::new).push(name.clone());
            }
            "--width" => widths.push(parse_count(it.next(), "--width")?),
            "--items" => spec.items = parse_count(it.next(), "--items")? as u64,
            "--seed" => spec.seed = parse_count(it.next(), "--seed")? as u64,
            "--workers" => spec.workers = Some(parse_count(it.next(), "--workers")?),
            "--json" => format = WireFormat::Json,
            "--csv" => format = WireFormat::Csv,
            "--out" => out_dir = Some(parse_path(it.next(), "--out")?),
            other => {
                return Err(SpecError::new(format!(
                    "unknown argument {other:?} (try --arch NAME / --width N / --items N \
                     / --seed N / --workers N / --json / --csv / --out DIR)"
                ))
                .into())
            }
        }
    }
    if !widths.is_empty() {
        spec.widths = widths;
    }
    let artifact = Runtime::new(Workers::Auto).run(&JobSpec::PruneDelta(spec))?;
    emit(&artifact, format, out_dir.as_deref())
}

/// Prints the artifact in the chosen format and optionally writes the
/// `<kind>.{json,csv,txt}` triple to `out_dir`.
fn emit(
    artifact: &Artifact,
    format: WireFormat,
    out_dir: Option<&Path>,
) -> Result<(), WorkloadError> {
    match format {
        WireFormat::Text => println!("{}", artifact.render_text()),
        WireFormat::Json => println!("{}", artifact.to_json()),
        WireFormat::Csv => print!("{}", artifact.to_csv()),
    }
    if let Some(dir) = out_dir {
        let written = write_artifact_files(artifact, dir)?;
        eprintln!("wrote {} artifact files to {}", written, dir.display());
    }
    Ok(())
}

/// Writes `<kind>.{json,csv,txt}` for the artifact (batch members get
/// an index prefix, and the batch envelope itself lands in
/// `batch.json`). Returns the number of files written.
pub fn write_artifact_files(artifact: &Artifact, dir: &Path) -> Result<usize, WorkloadError> {
    std::fs::create_dir_all(dir).map_err(|e| WorkloadError::io(dir.display().to_string(), e))?;
    let mut written = 0usize;
    let mut write = |name: String, contents: String| -> Result<(), WorkloadError> {
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| WorkloadError::io(path.display().to_string(), e))?;
        written += 1;
        Ok(())
    };
    match &artifact.payload {
        Payload::Batch(members) => {
            write("batch.json".to_string(), artifact.to_json())?;
            for (i, member) in members.iter().enumerate() {
                let stem = format!("{:02}_{}", i, member.kind());
                write(format!("{stem}.json"), member.to_json())?;
                write(format!("{stem}.csv"), member.to_csv())?;
                write(format!("{stem}.txt"), member.render_text())?;
            }
        }
        _ => {
            let stem = artifact.kind();
            write(format!("{stem}.json"), artifact.to_json())?;
            write(format!("{stem}.csv"), artifact.to_csv())?;
            write(format!("{stem}.txt"), artifact.render_text())?;
        }
    }
    Ok(written)
}

fn is_legacy_kind(kind: &str) -> bool {
    matches!(
        kind,
        "table1"
            | "table2"
            | "table3"
            | "table4"
            | "scaling"
            | "sensitivity"
            | "ablation"
            | "figure1"
            | "figure2"
            | "figure34"
            | "ab_initio"
            | "export"
            | "pareto"
            | "activity"
    )
}

/// Runs one legacy binary's workload with its legacy argument
/// conventions and prints its exact legacy stdout.
pub fn run_legacy(kind: &str, args: &[String]) -> Result<(), WorkloadError> {
    match kind {
        // The simple binaries took no arguments (and ignored any).
        "table1" => print_spec(&JobSpec::Table1Sweep { archs: None }, Workers::Auto),
        "table2" => print_spec(&JobSpec::Table2, Workers::Auto),
        "table3" => print_spec(&JobSpec::Table3, Workers::Auto),
        "table4" => print_spec(&JobSpec::Table4, Workers::Auto),
        "scaling" => print_spec(
            &JobSpec::default_for("scaling_study").expect("known kind"),
            Workers::Auto,
        ),
        "sensitivity" => print_spec(&JobSpec::Sensitivity, Workers::Auto),
        "ablation" => print_spec(
            &JobSpec::default_for("ablation").expect("known kind"),
            Workers::Auto,
        ),
        "figure1" => print_spec(&JobSpec::Figure1 { samples: 256 }, Workers::Auto),
        "figure2" => print_spec(&JobSpec::Figure2 { samples: 601 }, Workers::Auto),
        "figure34" => print_spec(
            &JobSpec::Figure34 {
                width: 16,
                items: 200,
            },
            Workers::Auto,
        ),
        "export" => print_spec(&JobSpec::Export, Workers::Auto),
        "pareto" => {
            let mut freq_points = 9usize;
            let mut workers = Workers::Auto;
            let mut it = args.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--freq-points" => freq_points = parse_count(it.next(), "--freq-points")?,
                    "--workers" => workers = Workers::Fixed(parse_count(it.next(), "--workers")?),
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown argument {other:?} (try --freq-points N / --workers N)"
                        ))
                        .into())
                    }
                }
            }
            print_spec(&JobSpec::Pareto { freq_points }, workers)
        }
        "activity" => {
            let mut spec = crate::spec::ActivitySpec::default();
            let mut it = args.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--arch" => {
                        spec.arch = it
                            .next()
                            .ok_or_else(|| SpecError::new("--arch needs a name"))?
                            .clone();
                    }
                    "--width" => spec.width = parse_count(it.next(), "--width")?,
                    "--engine" => {
                        let name = it
                            .next()
                            .ok_or_else(|| SpecError::new("--engine needs a name"))?;
                        spec.engine = crate::spec::engine_from_name(name).ok_or_else(|| {
                            SpecError::new(format!(
                                "unknown engine {name:?} \
                                 (zero_delay | timed | timed_scalar | bit_parallel \
                                 | bit_parallel_256 | bit_parallel_512)"
                            ))
                        })?;
                    }
                    "--items" => spec.items = parse_count(it.next(), "--items")? as u64,
                    "--seed" => spec.seed = parse_count(it.next(), "--seed")? as u64,
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown argument {other:?} \
                             (try --arch NAME / --width N / --engine E / --items N / --seed N)"
                        ))
                        .into())
                    }
                }
            }
            print_spec(&JobSpec::ActivityMeasure(spec), Workers::Auto)
        }
        "ab_initio" => run_legacy_ab_initio(args),
        other => Err(SpecError::new(format!("unknown legacy binary {other:?}")).into()),
    }
}

/// The legacy `ab_initio` flag set, faithfully: `--smoke`,
/// `--workers N`, `--glitch-sweep`, `--freq-points N`. Unknown
/// arguments panic with the legacy message (the old binary did).
fn run_legacy_ab_initio(args: &[String]) -> Result<(), WorkloadError> {
    let mut smoke = false;
    let mut glitch_sweep = false;
    let mut freq_points: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--glitch-sweep" => glitch_sweep = true,
            "--freq-points" => freq_points = Some(parse_count(it.next(), "--freq-points")?),
            "--workers" => workers = Some(parse_count(it.next(), "--workers")?),
            other => panic!(
                "unknown argument {other:?} \
                 (try --smoke / --workers N / --glitch-sweep / --freq-points N)"
            ),
        }
    }
    let base = if smoke {
        AbInitioSpec::smoke()
    } else {
        AbInitioSpec::default()
    };
    let runtime = Runtime::new(Workers::Auto);
    if !glitch_sweep {
        let spec = JobSpec::AbInitio(AbInitioSpec { workers, ..base });
        println!("{}", runtime.run(&spec)?.render_text());
        return Ok(());
    }
    let spec = JobSpec::GlitchSweep(GlitchSweepSpec {
        archs: base.archs,
        widths: vec![16],
        lanes: base.lanes,
        engine: base.engine,
        plane: base.plane,
        items: base.items,
        seed: base.seed,
        freq_points: freq_points.unwrap_or(if smoke { 3 } else { 9 }),
        workers,
    });
    let artifact = runtime.run(&spec)?;
    println!("{}", artifact.render_text());
    let Payload::Glitch(sweep) = &artifact.payload else {
        unreachable!("glitch_sweep jobs produce Payload::Glitch")
    };
    let dir = runtime.artifact_dir().to_path_buf();
    write_legacy_glitch_artifacts(sweep, &dir)?;
    println!(
        "wrote glitch characterization + sweep CSV/JSON to {}",
        dir.display()
    );
    Ok(())
}

/// Writes the six legacy `ab_initio --glitch-sweep` artifact files.
pub fn write_legacy_glitch_artifacts(sweep: &GlitchSweep, dir: &Path) -> Result<(), WorkloadError> {
    std::fs::create_dir_all(dir).map_err(|e| WorkloadError::io(dir.display().to_string(), e))?;
    let write = |name: &str, contents: String| -> Result<(), WorkloadError> {
        let path = dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|e| WorkloadError::io(path.display().to_string(), e))
    };
    write("abinitio_glitch.csv", glitch_rows_to_csv(&sweep.rows))?;
    write("abinitio_glitch.json", glitch_rows_to_json(&sweep.rows))?;
    write("sweep_glitch_aware.csv", sweep.glitch_aware.to_csv())?;
    write("sweep_glitch_aware.json", sweep.glitch_aware.to_json())?;
    write("sweep_glitch_free.csv", sweep.glitch_free.to_csv())?;
    write("sweep_glitch_free.json", sweep.glitch_free.to_json())?;
    Ok(())
}

fn print_spec(spec: &JobSpec, workers: Workers) -> Result<(), WorkloadError> {
    let artifact = Runtime::new(workers).run(spec)?;
    println!("{}", artifact.render_text());
    Ok(())
}

fn parse_count(arg: Option<&String>, flag: &str) -> Result<usize, WorkloadError> {
    arg.and_then(|v| v.parse().ok())
        .ok_or_else(|| SpecError::new(format!("{flag} needs an unsigned integer")).into())
}

fn parse_path(arg: Option<&String>, flag: &str) -> Result<PathBuf, WorkloadError> {
    arg.map(PathBuf::from)
        .ok_or_else(|| SpecError::new(format!("{flag} needs a directory argument")).into())
}
