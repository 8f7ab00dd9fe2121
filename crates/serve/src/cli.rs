//! The `optpower` front-end with service verbs: `serve` boots the
//! job service, `submit` is the wire client, and every other
//! subcommand delegates to the workload CLI unchanged — one binary,
//! one command surface.

use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use optpower_explore::Workers;
use optpower_workload::WireFormat;

use crate::client;
use crate::server::{self, Config};

/// Entry point of the `optpower` binary: service verbs here,
/// everything else forwarded to the workload CLI. `run` stays a
/// workload command unless `--hosts` asks for the cluster path.
pub fn main_with_args(args: Vec<String>) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("serve") => run_serve(&args[1..]),
        Some("submit") => run_submit(&args[1..]),
        Some("worker") => run_worker(&args[1..]),
        Some("run") if args.iter().any(|a| a == "--hosts") => run_dist(&args[1..]),
        None | Some("help" | "--help" | "-h") => {
            let code = optpower_workload::cli::main_with_args(args);
            print!("{}", serve_usage());
            code
        }
        _ => optpower_workload::cli::main_with_args(args),
    }
}

fn serve_usage() -> String {
    "\nservice verbs (crates/serve):\n\
     \x20 optpower serve  [--addr HOST:PORT] [--queue N] [--executors N]\n\
     \x20                 [--workers N|HOST:PORT,...] [--shards N] [--cache N]\n\
     \x20                 [--timeout-ms N]\n\
     \x20                 [--out DIR] [--drain-on-stdin-eof]          boot the job service\n\
     \x20 optpower submit <spec.json|-> [--addr HOST:PORT]\n\
     \x20                 [--format text|json|csv] [--async]\n\
     \x20                 [--timeout-ms N]                            POST a spec, print the artifact\n\
     \ndistributed execution (crates/dist):\n\
     \x20 optpower worker [--addr HOST:PORT] [--workers N] [--cache N]\n\
     \x20                                                             serve shards over TCP\n\
     \x20 optpower run <spec.json|-> --hosts HOST:PORT,... [--shards N]\n\
     \x20                 [--timeout-ms N] [--workers N] [--out DIR]\n\
     \x20                 [--json] [--csv]                            run one job across workers\n"
        .to_string()
}

fn usage_error(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}

fn run_serve(args: &[String]) -> ExitCode {
    let mut config = Config::default();
    let mut drain_on_stdin_eof = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut count = |flag: &str| -> Result<usize, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{flag} needs an unsigned integer"))
        };
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(addr) => config.addr = addr.clone(),
                None => return usage_error("--addr needs HOST:PORT"),
            },
            "--queue" => match count("--queue") {
                Ok(n) => config.queue_capacity = n,
                Err(e) => return usage_error(e),
            },
            "--executors" => match count("--executors") {
                Ok(n) => config.executors = n,
                Err(e) => return usage_error(e),
            },
            // `--workers 4` is a thread count; `--workers h1:1,h2:1`
            // is a worker-host list for distributed execution. A bare
            // count parses as usize first, so the two spellings cannot
            // collide.
            "--workers" => match it.next() {
                Some(value) => match value.parse::<usize>() {
                    Ok(n) => config.workers = Workers::Fixed(n),
                    Err(_) => config.hosts = parse_host_list(value),
                },
                None => return usage_error("--workers needs a count or a HOST:PORT list"),
            },
            "--shards" => match count("--shards") {
                Ok(n) => config.shards = n,
                Err(e) => return usage_error(e),
            },
            "--cache" => match count("--cache") {
                Ok(n) => config.cache_capacity = n,
                Err(e) => return usage_error(e),
            },
            "--store" => match count("--store") {
                Ok(n) => config.store_capacity = n,
                Err(e) => return usage_error(e),
            },
            "--timeout-ms" => match count("--timeout-ms") {
                Ok(n) => config.request_timeout_ms = n as u64,
                Err(e) => return usage_error(e),
            },
            "--retry-after" => match count("--retry-after") {
                Ok(n) => config.retry_after_s = n as u64,
                Err(e) => return usage_error(e),
            },
            "--max-body" => match count("--max-body") {
                Ok(n) => config.max_body_bytes = n,
                Err(e) => return usage_error(e),
            },
            "--out" => match it.next() {
                Some(dir) => config.artifact_dir = Some(PathBuf::from(dir)),
                None => return usage_error("--out needs a directory argument"),
            },
            "--drain-on-stdin-eof" => drain_on_stdin_eof = true,
            other => return usage_error(format!("unknown `optpower serve` argument {other:?}")),
        }
    }

    let handle = match server::start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: could not start the server: {e}");
            return ExitCode::from(4);
        }
    };
    println!("optpower serve listening on http://{}", handle.addr());
    let _ = io::stdout().flush();
    if drain_on_stdin_eof {
        // No signal handler (the workspace forbids `unsafe`), so a
        // supervisor that can't POST /v1/shutdown may simply close
        // our stdin to trigger the same graceful drain.
        let drainer = handle.drainer();
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = io::stdin().read_to_end(&mut sink);
            drainer.drain();
        });
    }
    handle.join();
    println!("optpower serve drained; exiting");
    ExitCode::SUCCESS
}

fn parse_host_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .collect()
}

/// `optpower worker [--addr HOST:PORT] [--workers N] [--cache N]`:
/// the blocking shard server behind a coordinator.
fn run_worker(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = Workers::Auto;
    let mut cache: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage_error("--addr needs HOST:PORT"),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = Workers::Fixed(n),
                None => return usage_error("--workers needs an unsigned integer"),
            },
            "--cache" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cache = Some(n),
                None => return usage_error("--cache needs an unsigned integer"),
            },
            other => return usage_error(format!("unknown `optpower worker` argument {other:?}")),
        }
    }
    let mut runtime = optpower_workload::Runtime::new(workers);
    if let Some(capacity) = cache {
        // A cached runtime makes a shard resubmitted after a
        // coordinator-side retry an artifact-cache hit, and lets
        // overlapping shards share characterization rows.
        runtime = runtime.with_cache(capacity);
    }
    match optpower_dist::serve(addr.as_str(), runtime) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: could not start the worker: {e}");
            ExitCode::from(4)
        }
    }
}

/// `optpower run <spec> --hosts HOST:PORT,...`: the coordinator path
/// of the ordinary run verb. Output and exit codes match the local
/// `optpower run` byte for byte — distribution only shows in
/// `meta.dist`.
fn run_dist(args: &[String]) -> ExitCode {
    let mut source: Option<String> = None;
    let mut hosts: Vec<String> = Vec::new();
    let mut shards: Option<usize> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut workers = Workers::Auto;
    let mut out_dir: Option<PathBuf> = None;
    let mut format = WireFormat::Text;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--hosts" => match it.next() {
                Some(list) => hosts = parse_host_list(list),
                None => return usage_error("--hosts needs HOST:PORT,..."),
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => shards = Some(n),
                None => return usage_error("--shards needs an unsigned integer"),
            },
            "--timeout-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => timeout_ms = Some(ms),
                None => return usage_error("--timeout-ms needs an unsigned integer"),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => workers = Workers::Fixed(n),
                None => return usage_error("--workers needs an unsigned integer"),
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => return usage_error("--out needs a directory argument"),
            },
            "--json" => format = WireFormat::Json,
            "--csv" => format = WireFormat::Csv,
            other if source.is_none() && !other.starts_with("--") => {
                source = Some(other.to_string());
            }
            other => {
                return usage_error(format!("unknown `optpower run --hosts` argument {other:?}"))
            }
        }
    }
    let Some(source) = source else {
        return usage_error("usage: optpower run <spec.json|-> --hosts HOST:PORT,... [flags]");
    };
    if hosts.is_empty() {
        return usage_error("--hosts needs at least one HOST:PORT");
    }
    let text = if source == "-" {
        let mut buf = String::new();
        if let Err(e) = io::stdin().read_to_string(&mut buf) {
            eprintln!("error: reading stdin: {e}");
            return ExitCode::from(2);
        }
        buf
    } else {
        match std::fs::read_to_string(&source) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: reading {source}: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let spec = match optpower_workload::JobSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(optpower_workload::ErrorBody::of(&e).exit_code());
        }
    };
    let mut cluster = optpower_dist::Cluster::new(hosts).with_workers(workers);
    if let Some(n) = shards {
        cluster = cluster.with_shards(n);
    }
    if let Some(ms) = timeout_ms {
        cluster = cluster.with_timeout_ms(ms);
    }
    let run = match cluster.run(&spec) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(e.error_body().exit_code());
        }
    };
    match format {
        WireFormat::Text => println!("{}", run.text),
        WireFormat::Json => println!("{}", run.json),
        WireFormat::Csv => print!("{}", run.csv),
    }
    if let (Some(dir), Some(artifact)) = (out_dir, &run.artifact) {
        match optpower_workload::cli::write_artifact_files(artifact, &dir) {
            Ok(n) => eprintln!("wrote {} artifact files to {}", n, dir.display()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(4);
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_submit(args: &[String]) -> ExitCode {
    let mut source: Option<String> = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut format = WireFormat::Json;
    let mut mode_async = false;
    let mut timeout = Duration::from_millis(120_000);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(a) => addr = a.clone(),
                None => return usage_error("--addr needs HOST:PORT"),
            },
            "--format" => match it.next().and_then(|n| WireFormat::from_name(n)) {
                Some(f) => format = f,
                None => return usage_error("--format needs text | json | csv"),
            },
            "--async" => mode_async = true,
            "--timeout-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => timeout = Duration::from_millis(ms),
                None => return usage_error("--timeout-ms needs an unsigned integer"),
            },
            other if source.is_none() && !other.starts_with("--") => {
                source = Some(other.to_string());
            }
            other => return usage_error(format!("unknown `optpower submit` argument {other:?}")),
        }
    }
    let Some(source) = source else {
        return usage_error("usage: optpower submit <spec.json|-> [flags]");
    };
    let body = if source == "-" {
        let mut buf = String::new();
        if let Err(e) = io::stdin().read_to_string(&mut buf) {
            eprintln!("error: reading stdin: {e}");
            return ExitCode::from(2);
        }
        buf
    } else {
        match std::fs::read_to_string(&source) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: reading {source}: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let accept = match format {
        WireFormat::Text => "text/plain",
        WireFormat::Json => "application/json",
        WireFormat::Csv => "text/csv",
    };
    let target = if mode_async {
        "/v1/jobs?mode=async"
    } else {
        "/v1/jobs"
    };
    let reply = match client::request(
        &addr,
        "POST",
        target,
        &[("Accept", accept)],
        body.as_bytes(),
        timeout,
    ) {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("error: request to {addr} failed: {e}");
            return ExitCode::from(4);
        }
    };
    if matches!(reply.status, 200 | 202) {
        if let Some(cache) = reply.header("x-optpower-cache") {
            eprintln!("cache: {cache}");
        }
        print!("{}", reply.body_text());
        if !reply.body.ends_with(b"\n") {
            println!();
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("error: HTTP {}: {}", reply.status, reply.body_text());
        // Mirror ErrorBody::exit_code: 422 job failures are 3, other
        // client-side statuses 2, host-side 4.
        ExitCode::from(match reply.status {
            422 => 3,
            400..=499 => 2,
            _ => 4,
        })
    }
}
