//! `characterize_sharded`: one job is the default 13-architecture,
//! width-16, 200-item ab-initio characterization (the paper's Table 1′)
//! under a fresh seed, submitted by one caller through
//! `optpower_dist::Cluster` to two in-process loopback workers, each on
//! one worker thread. Nothing is cached, so `sim`, `sta`, `core` and
//! the `dist` wire and merge carry the job; HTTP and the artifact cache
//! do no work.

use std::time::Instant;

use optpower::reference::TABLE1;
use optpower_dist::{spawn, Cluster, WorkerHandle};
use optpower_explore::Workers;
use optpower_workload::{fnv1a_64, JobSpec, Payload, Runtime};

use crate::layers::Given;
use crate::stats::{median, sorted};
use crate::trace::Tracer;
use crate::{
    closed_loop, env, finish_trace, inputs, job_metrics, replay, timed_setup, Args, Error, Outcome,
};

/// Loopback worker hosts, one shard each.
const HOSTS: usize = 2;

/// Most jobs one run can reach.
const MAX_JOBS: usize = 1024;

/// Two workers and the coordinator in front of them. Dropping it stops
/// the workers' accept loops.
struct Up {
    cluster: Cluster,
    _workers: Vec<WorkerHandle>,
}

fn start() -> Result<Up, Error> {
    let workers = (0..HOSTS)
        .map(|_| spawn("127.0.0.1:0", Runtime::new(Workers::Fixed(1))))
        .collect::<Result<Vec<_>, _>>()?;
    let hosts = workers.iter().map(|w| w.addr().to_string()).collect();
    Ok(Up {
        cluster: Cluster::new(hosts),
        _workers: workers,
    })
}

/// The single-host run the merged cluster payload must equal, on as
/// many workers as the cluster has.
fn single_host(spec: &JobSpec) -> Result<String, Error> {
    Ok(Runtime::new(Workers::Fixed(HOSTS))
        .run(spec)?
        .payload_json())
}

/// Mean |ab-initio Ptot − paper Ptot| / paper Ptot over the rows, %.
fn model_err_pct(payload: &Payload) -> Option<f64> {
    let Payload::AbInitio(rows) = payload else {
        return None;
    };
    let errs: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            let paper = TABLE1.iter().find(|p| p.name == r.arch.paper_name())?;
            Some((r.ptot_uw - paper.ptot_uw).abs() / paper.ptot_uw * 100.0)
        })
        .collect();
    (errs.len() == rows.len() && !errs.is_empty())
        .then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let mut jobs = inputs::characterize_jobs(args.seed, MAX_JOBS + crate::SETUPS);
    let warm = jobs.split_off(MAX_JOBS);
    out.info("inputs", jobs.len());
    out.info(
        "inputs_fnv",
        inputs::fingerprint(jobs.iter().map(|s| (s, ""))),
    );

    // Set-up: spawn the workers and push one warm-up job through them.
    let up = timed_setup(&mut out, |k| {
        let up = start()?;
        up.cluster.run(&warm[k])?;
        Ok(up)
    })?;

    // (job index, merged payload hash, model error)
    let mut done: Vec<(usize, u64, f64)> = Vec::new();
    let mut lat = Vec::new();
    let mut retries = 0;
    let cpu0 = env::cpu_seconds();
    let window = closed_loop(args.untraced_window(), |i| {
        let Some(spec) = jobs.get(i) else {
            return false;
        };
        out.attempted += 1;
        let t = Instant::now();
        let result = up.cluster.run(spec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(run) => {
                retries += run.stats.retries;
                let err = run
                    .artifact
                    .as_ref()
                    .and_then(|a| model_err_pct(&a.payload));
                done.push((
                    i,
                    fnv1a_64(run.payload_json.as_bytes()),
                    err.unwrap_or(f64::NAN),
                ));
                lat.push(ms);
            }
            Err(_) => {
                out.failed += 1;
                lat.push(f64::INFINITY);
            }
        }
        true
    });
    let pool_util = env::pool_util(cpu0, window);
    out.metric("rss_peak_mb", "MiB", env::rss_peak_mb(), 1);
    job_metrics(&mut out, "", &lat, window);

    // Output check, outside the window: every merged payload equals
    // the single-host payload of the same spec.
    for &(i, hash, err) in &done {
        if err.is_nan() || fnv1a_64(single_host(&jobs[i])?.as_bytes()) != hash {
            out.failed += 1;
        }
    }
    let errs = sorted(done.iter().map(|d| d.2).filter(|e| !e.is_nan()));
    if !errs.is_empty() {
        out.noted(
            "model_err_pct",
            "%",
            median(&errs),
            errs.len(),
            "median over jobs of mean |Ptot - paper Table 1 Ptot| / paper Ptot",
        );
    }
    out.info("dist_retries", retries);

    if args.trace {
        traced(args, &mut out, &up, &jobs, pool_util, &lat)?;
    }
    Ok(out)
}

/// The traced half: per job, the cluster run and an equal-worker local
/// run (their difference is `dist.overhead_ms`), then the job replayed
/// layer by layer; all three payloads must agree.
fn traced(
    args: &Args,
    out: &mut Outcome,
    up: &Up,
    jobs: &[JobSpec],
    pool_util: f64,
    untraced_ms: &[f64],
) -> Result<(), Error> {
    let tracer = Tracer::new();
    let mut overhead = Vec::new();
    let mut retries = 0;
    let mut attempted = 0;
    let mut failed = 0;
    let window = closed_loop(args.traced_window(), |i| {
        let Some(spec) = jobs.get(i) else {
            return false;
        };
        attempted += 1;
        let t = Instant::now();
        let cluster = up.cluster.run(spec);
        let cluster_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let local = single_host(spec);
        let local_ms = t.elapsed().as_secs_f64() * 1e3;
        let replayed = tracer.job(i as u32, |ctx| {
            replay::sharded(ctx, spec, up.cluster.hosts())
        });
        match (cluster, local, replayed) {
            (Ok(c), Ok(l), Ok(r)) if c.payload_json == l && l == r => {
                retries += c.stats.retries;
                overhead.push(cluster_ms - local_ms);
            }
            _ => failed += 1,
        }
        true
    });
    out.attempted += attempted;
    out.failed += failed;
    let overhead = sorted(overhead);
    let mut given = Given::from([
        ("explore.pool_util", (pool_util, 1)),
        ("dist.retries", (retries as f64, overhead.len())),
    ]);
    if !overhead.is_empty() {
        given.insert("dist.overhead_ms", (median(&overhead), overhead.len()));
    }
    finish_trace(args, out, tracer, window, untraced_ms, given)
}
