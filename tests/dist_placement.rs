//! Cluster-level placement regression: the paper's Table 1′
//! characterization (all 13 architectures, two shards) on a
//! two-worker cluster must put exactly one shard on each worker,
//! whatever the seed — a worker running both shards back to back while
//! the other idles nearly doubles the job's latency. Per-shard
//! rendezvous placement stacked both shards on one worker for about
//! half of all (seed, port) pairs; the load-capped plan never does.

use optpower_dist::{spawn, Cluster};
use optpower_explore::Workers;
use optpower_workload::{AbInitioSpec, JobSpec, Runtime};

#[test]
fn two_shards_on_two_workers_never_stack() {
    let workers: Vec<_> = (0..2)
        .map(|_| {
            spawn("127.0.0.1:0", Runtime::new(Workers::Fixed(1))).expect("bind loopback worker")
        })
        .collect();
    let hosts: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let cluster = Cluster::new(hosts.clone()).with_workers(Workers::Fixed(1));
    for seed in 1..=16 {
        let spec = JobSpec::AbInitio(AbInitioSpec {
            items: 4,
            seed,
            ..AbInitioSpec::default()
        });
        let run = cluster.run(&spec).expect("cluster run");
        assert_eq!((run.stats.shards, run.stats.retries), (2, 0));
        let per_host: Vec<u64> = hosts.iter().map(|h| run.stats.per_host[h]).collect();
        assert_eq!(per_host, [1, 1], "seed {seed} stacked the shards");
    }
}
