//! `serve_mix`: an in-process `optpower serve` (default config,
//! ephemeral port) driven as a closed loop by two client threads, one
//! connection per request — every real caller waits for its reply.
//! About four in five requests repeat a hot set of mixed payload sizes,
//! warmed during set-up, with `Accept` rotating over JSON/CSV/text; the
//! rest are fresh-seed `activity_measure` misses. Over a run the
//! distinct specs outnumber the 64-slot artifact cache, so FIFO
//! eviction is exercised. `serve` transport, `workload` cache lookup
//! and render, and the job queue carry this workload; `sim` and `sta`
//! do almost nothing.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use optpower_explore::Workers;
use optpower_serve::{client, start, Config, ServerHandle};
use optpower_workload::{fnv1a_64, JobSpec, Json, Runtime, WireFormat};

use crate::inputs::{self, Request, ACCEPTS};
use crate::layers::Given;
use crate::replay;
use crate::stats::{median, sorted};
use crate::trace::{Tracer, JOB};
use crate::{finish_trace, job_metrics, timed_setup, Args, Error, Outcome};

/// Client threads (and so connections in flight).
const CLIENTS: u64 = 2;

/// Requests generated per client (~3 minutes of requests).
const MAX_REQUESTS: usize = 20_000;

/// Per-request socket timeout.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The service, drained and joined when dropped.
struct Server(Option<ServerHandle>);

impl Server {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").addr()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.drain();
            handle.join();
        }
    }
}

fn submit(addr: &str, spec: &JobSpec, accept: usize) -> std::io::Result<client::HttpReply> {
    client::request(
        addr,
        "POST",
        "/v1/jobs",
        &[("Accept", ACCEPTS[accept])],
        spec.to_json().as_bytes(),
        TIMEOUT,
    )
}

/// One answered request.
#[derive(Debug, Clone)]
struct Sample {
    client: usize,
    index: usize,
    ms: f64,
    ok: bool,
    hit: bool,
    /// FNV of the payload bytes (a JSON envelope without its `meta`).
    hash: u64,
    /// The server's own `meta.wall_ms` (JSON replies only).
    wall_ms: Option<f64>,
}

/// Splits a JSON envelope into its payload document and `meta.wall_ms`:
/// the envelope is the payload document with `meta` appended last.
fn split_meta(body: &str) -> Option<(String, f64)> {
    let at = body.rfind(",\"meta\":")?;
    let meta = Json::parse(&body[at + 8..body.len() - 1]).ok()?;
    let wall = meta.get("wall_ms")?.as_f64()?;
    Some((format!("{}}}", &body[..at]), wall))
}

fn sample(
    client: usize,
    index: usize,
    ms: f64,
    reply: std::io::Result<client::HttpReply>,
) -> Sample {
    let mut s = Sample {
        client,
        index,
        ms,
        ok: false,
        hit: false,
        hash: 0,
        wall_ms: None,
    };
    let Ok(reply) = reply else {
        return s;
    };
    s.ok = reply.status == 200;
    s.hit = reply.header("x-optpower-cache") == Some("hit");
    let body = reply.body_text();
    s.hash = match split_meta(&body) {
        Some((payload, wall)) => {
            s.wall_ms = Some(wall);
            fnv1a_64(payload.as_bytes())
        }
        None => fnv1a_64(body.as_bytes()),
    };
    s
}

/// Drives both clients until `window` elapses; `after` runs in the
/// client thread after each request (the traced replay).
fn drive(
    addr: &str,
    reqs: &[Vec<Request>],
    window: Duration,
    tracer: Option<&Tracer>,
    after: &(dyn Fn(usize, usize, &Request, bool) + Sync),
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .iter()
            .enumerate()
            .map(|(c, list)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (k, req) in list.iter().enumerate() {
                        if start.elapsed() >= window {
                            break;
                        }
                        let t0 = tracer.map(Tracer::now);
                        let t = Instant::now();
                        let reply = submit(addr, &req.spec, req.accept);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let (Some(tr), Some(t0)) = (tracer, t0) {
                            tr.record(JOB, job_id(c, k), None, t0, 0);
                        }
                        let s = sample(c, k, ms, reply);
                        after(c, k, req, s.hit);
                        out.push(s);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = start.elapsed();
    samples.sort_by_key(|s| (s.client, s.index));
    (samples, elapsed)
}

fn job_id(client: usize, index: usize) -> u32 {
    (client * MAX_REQUESTS + index) as u32
}

/// The service's counters.
fn counters(addr: &str) -> Result<Json, Error> {
    let reply = client::request(addr, "GET", "/metrics", &[], b"", TIMEOUT)?;
    Ok(Json::parse(&reply.body_text())?)
}

fn delta(before: &Json, after: &Json, key: &str) -> f64 {
    let get = |j: &Json| j.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    get(after) - get(before)
}

/// Latencies in ms; refused or failed requests count as infinitely
/// late, so they miss every latency limit.
fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    samples
        .map(|s| if s.ok { s.ms } else { f64::INFINITY })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let hot = inputs::hot_set(args.seed);
    let reqs: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| inputs::serve_requests(args.seed, c, &hot, MAX_REQUESTS))
        .collect();
    out.info("inputs", reqs.iter().map(Vec::len).sum::<usize>());
    out.info(
        "inputs_fnv",
        inputs::fingerprint(reqs.iter().flatten().map(|r| (&r.spec, ACCEPTS[r.accept]))),
    );

    let server = timed_setup(&mut out, |_| up(&hot))?;
    let addr = server.addr().to_string();

    let cpu0 = crate::env::cpu_seconds();
    let (samples, window) = drive(&addr, &reqs, args.untraced_window(), None, &|_, _, _, _| {});
    let pool_util = crate::env::pool_util(cpu0, window);
    out.metric("rss_peak_mb", "MiB", crate::env::rss_peak_mb(), 1);
    job_metrics(&mut out, "", &latencies(samples.iter()), window);
    split_metrics(&mut out, "", &samples);
    check(&mut out, &reqs, &samples)?;

    drop(server);
    if args.trace {
        // The traced half starts from the same service state.
        let server = up(&hot)?;
        let addr = server.addr().to_string();
        traced(args, &mut out, &addr, &reqs, &hot, &samples, pool_util)?;
    }
    Ok(out)
}

/// Set-up: start the service and warm the hot set into its cache.
fn up(hot: &[JobSpec]) -> Result<Server, Error> {
    let config = Config {
        addr: "127.0.0.1:0".to_string(),
        ..Config::default()
    };
    let server = Server(Some(start(config)?));
    let addr = server.addr().to_string();
    for spec in hot {
        if submit(&addr, spec, 0)?.status != 200 {
            return Err("warming the hot set failed".into());
        }
    }
    Ok(server)
}

/// `hit_ms`, `miss_ms`, `req_per_s` and the hit share of one phase.
fn split_metrics(out: &mut Outcome, prefix: &str, samples: &[Sample]) {
    let hits = latencies(samples.iter().filter(|s| s.ok && s.hit));
    let misses = latencies(samples.iter().filter(|s| !(s.ok && s.hit)));
    out.latency(&format!("{prefix}hit_ms"), "p99", &hits, 99.0);
    out.latency(&format!("{prefix}miss_ms"), "p90", &misses, 90.0);
    out.metric(
        &format!("{prefix}hit_share"),
        "ratio",
        hits.len() as f64 / samples.len().max(1) as f64,
        samples.len(),
    );
}

/// Output check, outside the window: every served payload equals a
/// direct `Runtime::run` of the same spec rendered the same way (a JSON
/// envelope minus its `meta` is `payload_json`).
fn check(out: &mut Outcome, reqs: &[Vec<Request>], samples: &[Sample]) -> Result<(), Error> {
    let rt = Runtime::new(Workers::Auto);
    let mut expected: BTreeMap<(String, usize), u64> = BTreeMap::new();
    out.attempted += samples.len() as u64;
    for s in samples {
        let req = &reqs[s.client][s.index];
        let key = (req.spec.canonical_key(), req.accept);
        if !expected.contains_key(&key) {
            let artifact = rt.run(&req.spec)?;
            let text = match WireFormat::from_accept(ACCEPTS[req.accept]) {
                Some(WireFormat::Json) => artifact.payload_json(),
                Some(WireFormat::Csv) => artifact.to_csv(),
                _ => artifact.render_text(),
            };
            expected.insert(key.clone(), fnv1a_64(text.as_bytes()));
        }
        if !s.ok || expected[&key] != s.hash {
            out.failed += 1;
        }
    }
    Ok(())
}

/// The traced half: the same request sequence, each request a job
/// span, followed in the client thread by the in-server layer calls
/// replayed from outside — spec parse, cache lookup against a runtime
/// warmed with the hot set, and the render of a hit.
fn traced(
    args: &Args,
    out: &mut Outcome,
    addr: &str,
    reqs: &[Vec<Request>],
    hot: &[JobSpec],
    untraced: &[Sample],
    pool_util: f64,
) -> Result<(), Error> {
    let mirror = Runtime::new(Workers::Auto).with_cache(64);
    for spec in hot {
        mirror.run(spec)?;
    }
    let tracer = Tracer::new();
    let before = counters(addr)?;
    let (samples, window) = drive(
        addr,
        reqs,
        args.traced_window(),
        Some(&tracer),
        &|c, k, req: &Request, served_hit| {
            let ctx = tracer.detached(job_id(c, k));
            let Ok(spec) = replay::parse(&ctx, &req.spec.to_json()) else {
                return;
            };
            let artifact = replay::lookup(&ctx, &mirror, &spec);
            if let (true, Some(a), Some(fmt)) = (
                served_hit,
                artifact,
                WireFormat::from_accept(ACCEPTS[req.accept]),
            ) {
                replay::render(&ctx, || vec![fmt.render(&a)]);
            }
        },
    );
    let after = counters(addr)?;
    split_metrics(out, "traced.", &samples);
    check(out, reqs, &samples)?;

    // Transport is the client latency the server's own wall time does
    // not explain; on a miss the excess over a hit's is queue wait.
    let excess = |hit: bool, set: &[Sample]| {
        sorted(
            set.iter()
                .filter(|s| s.ok && s.hit == hit)
                .filter_map(|s| s.wall_ms.map(|w| s.ms - w)),
        )
    };
    let hit_excess = excess(true, &samples);
    let miss_excess = excess(false, &samples);
    let hit_wall = sorted(
        samples
            .iter()
            .filter(|s| s.ok && s.hit)
            .filter_map(|s| s.wall_ms),
    );
    let hits_traced = sorted(latencies(samples.iter().filter(|s| s.ok && s.hit)));
    let hits_untraced = sorted(latencies(untraced.iter().filter(|s| s.ok && s.hit)));
    let lookups = delta(&before, &after, "cache_hits") + delta(&before, &after, "cache_misses");
    let mut given = Given::from([
        ("explore.pool_util", (pool_util, 1)),
        (
            "workload.cache_hit_ratio",
            (
                delta(&before, &after, "cache_hits") / lookups.max(1.0),
                lookups as usize,
            ),
        ),
        (
            "serve.rejected",
            (
                delta(&before, &after, "rejected_queue_full")
                    + delta(&before, &after, "rejected_other"),
                samples.len(),
            ),
        ),
    ]);
    // Every JSON hit contributes to all three hit samples below.
    if !hit_excess.is_empty() {
        let transport = median(&hit_excess);
        given.insert("serve.transport_ms", (transport, hit_excess.len()));
        given.insert(
            "other_ms",
            (
                median(&hits_traced) - transport - median(&hit_wall),
                hit_wall.len(),
            ),
        );
        if !miss_excess.is_empty() {
            given.insert(
                "serve.queue_wait_ms",
                (median(&miss_excess) - transport, miss_excess.len()),
            );
        }
        if !hits_untraced.is_empty() {
            given.insert(
                "trace.overhead_ms",
                (
                    median(&hits_traced) - median(&hits_untraced),
                    hits_traced.len(),
                ),
            );
        }
    }
    finish_trace(args, out, tracer, window, &[], given)
}
