//! End-to-end benchmark of the optpower workspace.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_cold|characterize_sharded|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every metric is printed as one
//! `metric` line with its unit and sample count; the last line is the
//! JSON result. With `--trace 0` the whole window is measured with
//! tracing off and the result carries the end-to-end metrics. With
//! `--trace 1` the first half of the window repeats the untraced
//! measurement and the second half replays the same jobs with spans
//! around every layer call; the result carries the per-layer metrics,
//! `other` and the tracing overhead.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use optpower_workload::Json;

use crate::layers::Given;
use crate::trace::{breakdown, to_jsonl, Tracer};

mod batch;
mod env;
mod inputs;
mod layers;
mod replay;
mod serve_mix;
mod sharded;
mod stats;
mod trace;

/// The benchmark's error type.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// End-to-end metrics: every workload reports each of them, measured
/// with tracing off.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "job_ms.p50",
    "job_ms.tail",
    "jobs_per_s",
    "rss_peak_mb",
];

/// How many times set-up runs in one invocation; `setup_s` is their
/// median.
pub const SETUPS: usize = 5;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// The untraced window: the whole run, or its first half when
    /// traced.
    pub fn untraced_window(&self) -> Duration {
        Duration::from_secs_f64(if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }

    /// The traced window (second half of a traced run).
    pub fn traced_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
    /// How it was taken, when the name alone does not say.
    pub note: String,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused, failed or with mismatching output.
    pub failed: u64,
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
    /// `key=value` lines describing the run.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.noted(name, unit, value, n, "");
    }

    /// Adds a metric with a note.
    pub fn noted(&mut self, name: &str, unit: &'static str, value: f64, n: usize, note: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n,
            note: note.to_string(),
        });
    }

    /// Adds `<base>.p50` and `<base>.<tail>` of a latency sample
    /// (ms): the median and the highest percentile up to `p` with at
    /// least ten samples beyond it.
    pub fn latency(&mut self, base: &str, tail_name: &str, samples: &[f64], p: f64) {
        if samples.is_empty() {
            return;
        }
        let s = stats::sorted(samples.iter().copied());
        self.metric(&format!("{base}.p50"), "ms", stats::median(&s), s.len());
        let t = stats::tail(&s, p);
        let note = format!("p{}", t.pct);
        self.noted(
            &format!("{base}.{tail_name}"),
            "ms",
            t.value,
            s.len(),
            &note,
        );
    }

    /// Adds a `key=value` info line.
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }
}

/// Adds the shared end-to-end job metrics: `job_ms.p50`, `job_ms.tail`
/// (p90 or the highest percentile below it with ten samples beyond)
/// and `jobs_per_s`, completed jobs over the window. Failed jobs enter
/// the latencies as infinite: they miss every latency limit.
pub fn job_metrics(out: &mut Outcome, prefix: &str, latencies_ms: &[f64], window: Duration) {
    out.latency(&format!("{prefix}job_ms"), "tail", latencies_ms, 90.0);
    let completed = latencies_ms.iter().filter(|l| l.is_finite()).count();
    out.metric(
        &format!("{prefix}jobs_per_s"),
        "1/s",
        completed as f64 / window.as_secs_f64(),
        completed,
    );
}

/// Runs `setup(k)` for k in 0..[`SETUPS`], keeping the last result;
/// records the median set-up time as `setup_s`.
pub fn timed_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> Result<T, Error>,
) -> Result<T, Error> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        // The previous set-up is torn down outside the timed interval.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(k)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let s = stats::sorted(times);
    out.metric("setup_s", "s", stats::median(&s), s.len());
    Ok(last.expect("SETUPS > 0"))
}

/// Repeats `op` until `window` has elapsed (or the inputs run out);
/// returns the window actually measured.
pub fn closed_loop(window: Duration, mut op: impl FnMut(usize) -> bool) -> Duration {
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window && op(i) {
        i += 1;
    }
    start.elapsed()
}

/// Shared tail of every traced run: write the spans out, report the
/// per-layer metrics, the traced job latency and the tracing overhead.
pub fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    tracer: Tracer,
    window: Duration,
    untraced_ms: &[f64],
    mut given: Given,
) -> Result<(), Error> {
    let spans = tracer.into_spans();
    let path = env::out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(env::out_dir())?;
    std::fs::write(&path, to_jsonl(&spans))?;
    out.info("spans", spans.len());
    out.info("spans_file", path.display());
    let jobs = breakdown(&spans);
    let traced_ms: Vec<f64> = jobs
        .values()
        .filter(|j| j.wall_ns > 0)
        .map(|j| j.wall_ns as f64 / 1e6)
        .collect();
    job_metrics(out, "traced.", &traced_ms, window);
    if !traced_ms.is_empty() && !untraced_ms.is_empty() {
        let med = |v: &[f64]| stats::median(&stats::sorted(v.iter().copied()));
        given
            .entry("trace.overhead_ms")
            .or_insert((med(&traced_ms) - med(untraced_ms), traced_ms.len()));
    }
    layers::report(out, &jobs, &given);
    Ok(())
}

fn print(out: &Outcome, args: &Args) {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in env::provenance().iter().map(|(k, v)| (k.to_string(), v)) {
        println!("# {k}={v}");
    }
    for (k, v) in &out.info {
        println!("# {k}={v}");
    }
    println!(
        "metric fail_frac {} ratio n={} (failed {} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        };
        println!("metric {} {} {} n={}{}", m.name, m.value, m.unit, m.n, note);
    }
}

fn result_json(out: &Outcome, names: &[&str]) -> Result<String, Error> {
    let mut metrics = Vec::new();
    for &name in names {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::UInt(out.attempted)),
        ("failed", Json::UInt(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string())
}

fn run(args: &Args) -> Result<(Outcome, String), Error> {
    let out = match args.workload.as_str() {
        "batch_cold" => batch::run(args)?,
        "characterize_sharded" => sharded::run(args)?,
        "serve_mix" => serve_mix::run(args)?,
        other => return Err(format!("unknown workload {other}").into()),
    };
    let names: Vec<&str> = if args.trace {
        layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    let json = result_json(&out, &names)?;
    Ok((out, json))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((out, json)) => {
            print(&out, &args);
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
