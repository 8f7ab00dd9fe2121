//! `batch_cold`: one job is one full pass of the CI smoke batch
//! through `Runtime::run`, on a fresh runtime with a fresh 64-slot
//! cache each pass (`optpower run --cache 64`), seeded members
//! re-seeded per pass. This is the user's `optpower run` wait; it
//! bypasses `serve`, `dist` and cross-job cache hits.

use std::path::Path;
use std::time::Instant;

use optpower_explore::Workers;
use optpower_workload::{Artifact, JobSpec, Payload, Runtime};

use crate::layers::Given;
use crate::trace::Tracer;
use crate::{
    closed_loop, env, finish_trace, inputs, job_metrics, replay, timed_setup, Args, Error, Outcome,
};

/// Artifact cache size, as CI runs the batch.
const CACHE: usize = 64;

/// Most passes one run can reach (~180 s of passes).
const MAX_PASSES: usize = 256;

/// The golden Table 2 payload the batch's `table2` member must match.
const GOLDEN: &str = "tests/golden/table2_payload.json";

fn runtime(dir: &Path) -> Runtime {
    Runtime::new(Workers::Auto).with_artifact_dir(dir)
}

/// The batch's `table2` member payload, as the golden file stores it.
fn table2_payload(batch: &Artifact) -> Option<String> {
    let Payload::Batch(members) = &batch.payload else {
        return None;
    };
    members
        .iter()
        .find(|a| a.spec == JobSpec::Table2)
        .map(|a| format!("{}\n", a.payload_json()))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let dir = env::out_dir().join("export");
    let golden = std::fs::read_to_string(GOLDEN)?;

    let mut passes = inputs::batch_passes(args.seed, MAX_PASSES + crate::SETUPS);
    let warm = passes.split_off(MAX_PASSES);
    // Set-up: one warm-up pass (on inputs beyond the measured ones), so
    // page faults and lazy statics are paid before the window.
    timed_setup(&mut out, |k| {
        runtime(&dir).with_cache(CACHE).run(&warm[k])?;
        Ok(())
    })?;
    out.info("inputs", passes.len());
    out.info(
        "inputs_fnv",
        inputs::fingerprint(passes.iter().map(|s| (s, ""))),
    );

    let mut lat = Vec::new();
    let cpu0 = env::cpu_seconds();
    let window = closed_loop(args.untraced_window(), |i| {
        let Some(pass) = passes.get(i) else {
            return false;
        };
        out.attempted += 1;
        let t = Instant::now();
        let result = runtime(&dir).with_cache(CACHE).run(pass);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result.ok().and_then(|a| table2_payload(&a)) {
            Some(p) if p == golden => lat.push(ms),
            _ => {
                out.failed += 1;
                lat.push(f64::INFINITY);
            }
        }
        true
    });
    let pool_util = env::pool_util(cpu0, window);
    out.metric("rss_peak_mb", "MiB", env::rss_peak_mb(), 1);
    job_metrics(&mut out, "", &lat, window);

    if args.trace {
        traced(args, &mut out, &passes, &dir, pool_util, &lat)?;
    }
    Ok(out)
}

/// The traced half: the same passes from the first, each replayed
/// layer call by layer call inside a job span.
fn traced(
    args: &Args,
    out: &mut Outcome,
    passes: &[JobSpec],
    dir: &Path,
    pool_util: f64,
    untraced_ms: &[f64],
) -> Result<(), Error> {
    let tracer = Tracer::new();
    let mut failures = 0;
    let mut attempted = 0;
    let window = closed_loop(args.traced_window(), |i| {
        let Some(pass) = passes.get(i) else {
            return false;
        };
        attempted += 1;
        // Members repeated within the pass are served from the cache
        // the first occurrence filled; fill it before the job starts.
        let hits = runtime(dir).with_cache(CACHE);
        let JobSpec::Batch(jobs) = pass else {
            return false;
        };
        for (k, job) in jobs.iter().enumerate() {
            if jobs[..k].contains(job) && hits.run(job).is_err() {
                failures += 1;
            }
        }
        let empty = runtime(dir).with_cache(CACHE);
        let rt = runtime(dir);
        if tracer
            .job(i as u32, |ctx| replay::batch(ctx, pass, &rt, &empty, &hits))
            .is_err()
        {
            failures += 1;
        }
        true
    });
    out.attempted += attempted;
    out.failed += failures;
    finish_trace(
        args,
        out,
        tracer,
        window,
        untraced_ms,
        Given::from([("explore.pool_util", (pool_util, 1))]),
    )
}
