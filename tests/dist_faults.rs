//! Fault injection for the coordinator/worker cluster: a worker that
//! dies mid-shard (socket dropped right after accepting the Assign)
//! must never change the merged artifact — the retried run's
//! `payload_json` and CSV must be byte-identical to both a fault-free
//! cluster run and the single-host run, with the death visible only
//! in `meta.dist.retries` and the per-host shard counts. Plus the
//! retry/cache composition: resubmitting after the fault through a
//! shard cache answers every shard without touching a worker. And a
//! hostile worker — one that answers a shard with a non-object, a
//! truncated document or another spec's artifact — must fail the job
//! with `invalid_spec`, never panic the coordinator or serve another
//! job's bytes.

use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};

use optpower_dist::{plan_hosts, spawn, Cluster, DistError};
use optpower_explore::Workers;
use optpower_workload::{AbInitioSpec, Artifact, JobSpec, Runtime, ShardFrame, ShardResult, Store};
use proptest::prelude::*;

/// A worker that speaks just enough protocol to be assigned work and
/// then dies: accept, Hello, read the first Assign, drop the socket.
/// From the coordinator's side this is a worker crashing mid-shard.
fn spawn_faulty_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind faulty worker");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = ShardFrame::Hello {
                host: addr.to_string(),
            }
            .write_to(&mut stream);
            let _ = ShardFrame::read_from(&mut stream);
            // Dropping the stream here is the mid-shard death: the
            // coordinator sees EOF where a Heartbeat/Result was due.
        }
    });
    addr
}

fn small_suite() -> JobSpec {
    JobSpec::AbInitio(AbInitioSpec {
        archs: Some(vec![
            "RCA".to_string(),
            "RCA parallel".to_string(),
            "Wallace".to_string(),
            "Wallace parallel".to_string(),
        ]),
        items: 16,
        ..AbInitioSpec::default()
    })
}

#[test]
fn worker_death_mid_shard_retries_without_changing_a_byte() {
    let spec = small_suite();
    let shard_keys: Vec<String> = spec
        .shard(4)
        .expect("shardable")
        .iter()
        .map(|s| s.canonical_key())
        .collect();

    let healthy = spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("healthy worker");

    // The load-capped placement plan is deterministic in (shard keys,
    // host set), so bind fresh faulty listeners until one is actually
    // planned a shard — then the death is guaranteed to happen.
    let (faulty, hosts) = loop {
        let candidate = spawn_faulty_worker();
        let hosts = vec![healthy.addr().to_string(), candidate.to_string()];
        let victim = candidate.to_string();
        if plan_hosts(&hosts, &shard_keys).contains(&victim.as_str()) {
            break (victim, hosts);
        }
    };
    let planned_deaths = plan_hosts(&hosts, &shard_keys)
        .into_iter()
        .filter(|&h| h == faulty)
        .count() as u64;

    // Baselines: single-host, and a fault-free two-worker cluster.
    let local = Runtime::new(Workers::Fixed(1))
        .run(&spec)
        .expect("local run");
    let spare = spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("spare worker");
    let fault_free = Cluster::new(vec![healthy.addr().to_string(), spare.addr().to_string()])
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .run(&spec)
        .expect("fault-free cluster run");

    let faulted = Cluster::new(hosts)
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_timeout_ms(5_000)
        .run(&spec)
        .expect("faulted cluster run survives the death");

    // Byte identity against both baselines.
    assert_eq!(faulted.payload_json, local.payload_json());
    assert_eq!(faulted.csv, local.to_csv());
    assert_eq!(faulted.text, local.render_text());
    assert_eq!(faulted.payload_json, fault_free.payload_json);
    assert_eq!(faulted.csv, fault_free.csv);

    // The death is recorded — and only in the metadata.
    assert_eq!(faulted.stats.retries, planned_deaths);
    assert_eq!(faulted.stats.per_host.get(&faulty), Some(&0));
    let artifact = faulted.artifact.expect("typed merge");
    let dist = artifact.meta.dist.expect("dist meta stamped");
    assert_eq!(dist.retries, planned_deaths);
    assert_eq!((dist.hosts, dist.shards), (2, 4));
    let clean = fault_free.artifact.expect("typed merge");
    assert_eq!(clean.meta.dist.expect("dist meta").retries, 0);
}

/// The retry/cache composition: a coordinator that survived a worker
/// death fills its shard cache, so resubmitting the same job answers
/// every shard from the cache — zero worker traffic, same bytes.
#[test]
fn resubmission_after_a_fault_is_a_pure_shard_cache_hit() {
    let spec = small_suite();
    let shard_keys: Vec<String> = spec
        .shard(4)
        .expect("shardable")
        .iter()
        .map(|s| s.canonical_key())
        .collect();
    let healthy = spawn(
        "127.0.0.1:0",
        Runtime::new(Workers::Fixed(1)).with_cache(16),
    )
    .expect("healthy worker");
    let hosts = loop {
        let candidate = spawn_faulty_worker();
        let hosts = vec![healthy.addr().to_string(), candidate.to_string()];
        let victim = candidate.to_string();
        if plan_hosts(&hosts, &shard_keys).contains(&victim.as_str()) {
            break hosts;
        }
    };

    let cache = Store::new(64);
    let first = Cluster::new(hosts)
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_timeout_ms(5_000)
        .with_cache(cache.clone())
        .run(&spec)
        .expect("first run survives the death");
    assert!(first.stats.retries >= 1);
    assert_eq!(first.stats.shard_cache_hits, 0);

    // Resubmit against a cluster whose only "worker" address is a
    // dead port: every shard must come from the cache, or this run
    // could not succeed at all.
    let resubmit = Cluster::new(vec!["127.0.0.1:1".to_string()])
        .with_shards(4)
        .with_workers(Workers::Fixed(1))
        .with_cache(cache.clone())
        .run(&spec)
        .expect("cache-only run");
    assert_eq!(resubmit.stats.shard_cache_hits, 4);
    assert_eq!(resubmit.stats.shard_cache_misses, 0);
    assert_eq!(resubmit.payload_json, first.payload_json);
    assert_eq!(resubmit.csv, first.csv);
    assert_eq!(
        resubmit.artifact.expect("typed merge").meta.dist,
        Some(optpower_workload::DistMeta {
            hosts: 1,
            shards: 4,
            retries: 0,
        })
    );
}

/// A worker that speaks the protocol but lies: Hello, then every
/// Assign is answered with a well-framed `Result` whose
/// `payload_json` is `answer(shard spec)`.
/// The thread ends when the coordinator hangs up.
fn spawn_hostile_worker(answer: fn(&JobSpec) -> String) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind hostile worker");
    let addr = listener.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = ShardFrame::Hello {
                host: addr.to_string(),
            }
            .write_to(&mut stream);
            while let Ok(ShardFrame::Assign { shard, spec }) = ShardFrame::read_from(&mut stream) {
                let result = result_for(shard, answer(&spec));
                if ShardFrame::Result(Box::new(result))
                    .write_to(&mut stream)
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    (addr, handle)
}

fn result_for(shard: String, payload_json: String) -> ShardResult {
    ShardResult {
        shard,
        payload_json,
        csv: "forged,csv\n".to_string(),
        text: "forged text".to_string(),
        wall_ms: 1.0,
        cache: None,
        row_cache: None,
    }
}

fn payload_of(spec: &JobSpec) -> String {
    Runtime::new(Workers::Fixed(1))
        .run(spec)
        .expect("local run")
        .payload_json()
}

/// Runs `spec` against one hostile worker through a shard cache and
/// requires a typed `invalid_spec` failure that left the cache empty.
fn assert_rejected(spec: &JobSpec, answer: fn(&JobSpec) -> String) {
    let cache = Store::new(16);
    let (addr, worker) = spawn_hostile_worker(answer);
    let err = Cluster::new(vec![addr.to_string()])
        .with_workers(Workers::Fixed(1))
        .with_timeout_ms(5_000)
        .with_cache(cache.clone())
        .run(spec)
        .expect_err("a hostile answer must fail the job");
    worker.join().expect("hostile worker thread");
    assert!(matches!(err, DistError::Workload(_)), "{err:?}");
    assert_eq!(err.error_body().code, "invalid_spec", "{err}");
    for shard in spec.shard(2).expect("shardable") {
        assert!(
            cache.get(&shard.canonical_json()).is_none(),
            "a rejected result was cached"
        );
    }
}

#[test]
fn hostile_non_object_payload_is_invalid_spec() {
    assert_rejected(&JobSpec::Table2, |_| "1".to_string());
}

#[test]
fn hostile_array_for_a_batch_member_is_invalid_spec() {
    let spec = JobSpec::Batch(vec![JobSpec::Table2, JobSpec::Sensitivity]);
    assert_rejected(&spec, |_| "[]".to_string());
}

#[test]
fn hostile_artifact_of_another_spec_is_invalid_spec() {
    // A complete, valid artifact document — of `table3`, answering a
    // `table2` shard.
    assert_rejected(&JobSpec::Table2, |_| payload_of(&JobSpec::Table3));
    // Same kind, other spec: a `table1_sweep` shard answered with
    // another row subset's document.
    let spec = JobSpec::Table1Sweep {
        archs: Some(vec!["Wallace".to_string()]),
    };
    assert_rejected(&spec, |_| {
        r#"{"schema":"optpower-workload/v1","job":"table1_sweep","spec":{"schema":"optpower-job/v1","job":"table1_sweep","archs":["RCA"]},"payload":{"title":"t","rows":[]}}"#.to_string()
    });
}

#[test]
fn hostile_truncated_document_is_invalid_spec() {
    assert_rejected(&JobSpec::Table2, |spec| {
        let full = payload_of(spec);
        full[..full.len() / 2].to_string()
    });
}

/// Every strict prefix of a valid shard document is rejected, for a
/// rendered and for a typed kind.
#[test]
fn every_truncation_of_a_shard_document_is_rejected() {
    let typed = JobSpec::Table1Sweep {
        archs: Some(vec!["RCA".to_string()]),
    };
    for spec in [JobSpec::Table2, typed] {
        let full = payload_of(&spec);
        let whole =
            Artifact::from_shard_result(&spec, &result_for(spec.canonical_key(), full.clone()))
                .expect("the untruncated document converts");
        assert_eq!(whole.payload_json(), full);
        for cut in (0..full.len()).filter(|&i| full.is_char_boundary(i)) {
            let r = result_for(spec.canonical_key(), full[..cut].to_string());
            assert!(
                Artifact::from_shard_result(&spec, &r).is_err(),
                "{} accepted a {cut}-byte prefix",
                spec.kind()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes as a shard's payload document never convert and
    /// never panic, for a rendered and a typed shard kind.
    #[test]
    fn arbitrary_payload_bytes_are_rejected(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        for spec in [JobSpec::Table2, JobSpec::AbInitio(AbInitioSpec::default())] {
            let r = result_for(spec.canonical_key(), text.clone());
            prop_assert!(Artifact::from_shard_result(&spec, &r).is_err());
        }
    }
}
