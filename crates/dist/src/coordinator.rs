//! The coordinator side: shard a spec, fan the shards out over TCP to
//! worker processes, survive worker death, and merge the results back
//! into the single-host envelope bit for bit.
//!
//! There is one merge path for every kind: each worker result is
//! turned into an [`Artifact`] as it arrives
//! ([`Artifact::from_shard_result`], which rejects a document that
//! answers any spec but the assigned shard), and the shard artifacts
//! go through [`Artifact::merge_shards`]. The coordinator stamps only
//! `meta.wall_ms`, `meta.row_cache` and `meta.dist`.
//!
//! Three rules keep the merged artifact deterministic whatever the
//! cluster does:
//!
//! * **deterministic, load-capped assignment** — each round plans all
//!   pending shards at once ([`plan_hosts`]): walking them in shard
//!   order, each goes to its rendezvous-hash winner ([`assign_host`])
//!   among the *alive* hosts still holding fewer than
//!   `ceil(pending / alive)` shards. No host stacks two shards while
//!   another idles, two coordinators with the same host list agree
//!   whatever its order, and losing a host only re-plans that host's
//!   unfinished shards;
//! * **result identity by shard position** — in-flight results are
//!   held by their shard's position and merged in shard order, so
//!   retries and arrival order cannot change the payload;
//! * **failure taxonomy** — a worker *death* (connect failure, EOF,
//!   heartbeat silence past the timeout) retries the unfinished
//!   shards elsewhere and is visible only in `meta.dist.retries`,
//!   while a *deterministic* shard error (the job itself is invalid
//!   or unsolvable) fails the whole run immediately: retrying a pure
//!   function cannot change its answer.

use std::collections::BTreeMap;
use std::fmt;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use optpower_explore::Workers;
use optpower_workload::{
    fnv1a_64, Artifact, CacheStatus, DistMeta, ErrorBody, JobSpec, RowCacheStats, ShardFrame,
    ShardResult, SpecError, Store, WorkloadError,
};

/// Default per-shard silence window before a worker is declared dead.
/// Workers heartbeat every [`crate::HEARTBEAT_MS`], so this bounds
/// death *detection* latency, not shard compute time.
pub const DEFAULT_SHARD_TIMEOUT_MS: u64 = 10_000;

/// How a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// Local sharding/merge/validation failure.
    Workload(WorkloadError),
    /// A shard failed deterministically on a worker — the job is at
    /// fault, so the coordinator did not retry.
    Shard(ErrorBody),
    /// Every worker host died before the job completed.
    AllHostsDead {
        /// What happened to the last host.
        detail: String,
    },
}

impl From<WorkloadError> for DistError {
    fn from(e: WorkloadError) -> Self {
        DistError::Workload(e)
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Workload(e) => e.fmt(f),
            DistError::Shard(body) => write!(f, "shard failed: {}", body.message),
            DistError::AllHostsDead { detail } => {
                write!(f, "all worker hosts died ({detail})")
            }
        }
    }
}

impl std::error::Error for DistError {}

impl DistError {
    /// The frozen machine-readable form, for front-ends that signal
    /// through `optpower-error/v1`.
    pub fn error_body(&self) -> ErrorBody {
        match self {
            DistError::Workload(e) => ErrorBody::of(e),
            DistError::Shard(body) => body.clone(),
            DistError::AllHostsDead { detail } => ErrorBody::new(500, "worker_failed", detail),
        }
    }
}

/// Scheduling facts of one distributed run, for `/metrics` and logs.
#[derive(Debug, Clone, Default)]
pub struct DistStats {
    /// Completed shards per host address (every configured host
    /// present, zero included).
    pub per_host: BTreeMap<String, u64>,
    /// Shards reassigned after a worker death or timeout.
    pub retries: u64,
    /// Shards the job was split into.
    pub shards: usize,
    /// Configured worker hosts.
    pub hosts: usize,
    /// Shards served from the coordinator's shard cache.
    pub shard_cache_hits: u64,
    /// Shards that had to travel to a worker.
    pub shard_cache_misses: u64,
    /// Worker artifact-cache hits across shards.
    pub cache_hits: u64,
    /// Worker artifact-cache misses across shards.
    pub cache_misses: u64,
    /// Worker row-cache counters summed across shards, when any
    /// worker reported them.
    pub row_cache: Option<RowCacheStats>,
    /// Coordinator wall clock of the whole run, in milliseconds.
    pub wall_ms: f64,
}

/// A merged distributed run: the merged artifact, its three
/// renderings, and the scheduling stats.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// The merged artifact with `meta.dist` stamped. Every run merges
    /// through [`Artifact::merge_shards`], so this is always `Some`;
    /// it stays an `Option` only because the benchmark harness reads
    /// it as one, and flattening it waits for a benchmark change.
    pub artifact: Option<Artifact>,
    /// The full JSON envelope (payload + `meta` incl. `dist`).
    pub json: String,
    /// The deterministic payload document — byte-identical to the
    /// single-host [`Artifact::payload_json`].
    pub payload_json: String,
    /// The CSV rendering — byte-identical to the single-host one.
    pub csv: String,
    /// The console rendering — byte-identical to the single-host one.
    pub text: String,
    /// Scheduling facts of the run.
    pub stats: DistStats,
}

/// The deterministic shard → host map: highest-random-weight
/// (rendezvous) hash of `"{shard_key}|{host}"` over the alive host
/// set; ties break to the lexicographically smallest host. Removing a
/// dead host only remaps that host's shards — everything else keeps
/// its assignment, which is what makes retry placement stable and
/// testable.
pub fn assign_host<'a>(hosts: &'a [String], shard_key: &str) -> &'a str {
    let i = rendezvous_winner(hosts.iter().enumerate(), shard_key)
        .expect("assign_host requires a non-empty host list");
    &hosts[i]
}

/// The position of the rendezvous winner for `shard_key` among the
/// `(position, host)` candidates — the one weight definition behind
/// [`assign_host`] and [`plan_hosts`].
fn rendezvous_winner<'a>(
    candidates: impl Iterator<Item = (usize, &'a String)>,
    shard_key: &str,
) -> Option<usize> {
    candidates
        .max_by(|(_, a), (_, b)| {
            let wa = fnv1a_64(format!("{shard_key}|{a}").as_bytes());
            let wb = fnv1a_64(format!("{shard_key}|{b}").as_bytes());
            wa.cmp(&wb).then_with(|| b.cmp(a))
        })
        .map(|(i, _)| i)
}

/// The load-capped shard → host plan for one round (rendezvous hashing
/// with bounded loads, Mirrokni–Thorup–Zadimoghaddam, SODA 2018).
/// Shards are walked in the given order; each goes to the host
/// [`assign_host`] would pick among the hosts still holding fewer than
/// `ceil(shards / hosts)` shards. So with no more shards than hosts
/// every shard gets its own host, and no host ever carries more than
/// its share. The plan depends only on the hosts and the key
/// sequence, not on the order `hosts` lists them in.
///
/// # Panics
///
/// If `hosts` is empty while `shard_keys` is not.
pub fn plan_hosts<'a, K: AsRef<str>>(hosts: &'a [String], shard_keys: &[K]) -> Vec<&'a str> {
    let cap = shard_keys.len().div_ceil(hosts.len().max(1));
    let mut load = vec![0usize; hosts.len()];
    shard_keys
        .iter()
        .map(|key| {
            let open = hosts.iter().enumerate().filter(|&(i, _)| load[i] < cap);
            let i = rendezvous_winner(open, key.as_ref())
                .expect("plan_hosts requires a non-empty host list");
            load[i] += 1;
            hosts[i].as_str()
        })
        .collect()
}

/// A coordinator over a fixed set of worker addresses.
#[derive(Clone)]
pub struct Cluster {
    hosts: Vec<String>,
    shards: usize,
    timeout_ms: u64,
    workers: Workers,
    cache: Option<Store<ShardResult>>,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("hosts", &self.hosts)
            .field("shards", &self.shards)
            .field("timeout_ms", &self.timeout_ms)
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl Cluster {
    /// A cluster over `hosts` (worker `host:port` addresses),
    /// targeting one shard per host and the default timeout.
    pub fn new(hosts: Vec<String>) -> Self {
        let shards = hosts.len().max(1);
        Self {
            hosts,
            shards,
            timeout_ms: DEFAULT_SHARD_TIMEOUT_MS,
            workers: Workers::Auto,
            cache: None,
        }
    }

    /// Overrides the target shard count (the `n` handed to
    /// [`JobSpec::shard`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-shard silence timeout.
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = timeout_ms.max(1);
        self
    }

    /// Worker policy of the coordinator's own (small) compute steps —
    /// currently only the glitch-sweep rebuild from merged rows.
    pub fn with_workers(mut self, workers: Workers) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches a shard-result [`Store`], keyed by each shard spec's
    /// canonical JSON, consulted before fan-out and filled after
    /// every completed shard. A shard resubmitted after a retry (or
    /// by the next job sharing grid cells) then never travels to a
    /// worker while resident; clones of the store share its entries.
    pub fn with_cache(mut self, cache: Store<ShardResult>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The configured worker addresses.
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// Runs one job across the cluster: shard, assign, execute with
    /// retry-on-death, merge. The merged `payload_json`/`csv`/`text`
    /// are byte-identical to the single-host run; distribution shows
    /// up only in `meta.dist` and [`DistStats`].
    ///
    /// # Errors
    ///
    /// [`DistError`] — spec/merge problems, a deterministic shard
    /// failure, or the whole cluster dying.
    pub fn run(&self, spec: &JobSpec) -> Result<DistRun, DistError> {
        let started = Instant::now();
        if self.hosts.is_empty() {
            return Err(WorkloadError::from(SpecError::new(
                "a cluster needs at least one worker host",
            ))
            .into());
        }
        // A glitch sweep always decomposes (its payload has no typed
        // single-document re-parser, but its ab-initio cells do), and
        // so does a batch, so that its members come back as separate
        // artifacts, as on one host. Every other kind honours the
        // requested count, including the n = 1 pass-through.
        let target = match spec {
            JobSpec::GlitchSweep(_) | JobSpec::Batch(_) => self.shards.max(2),
            _ => self.shards,
        };
        let keyed: Vec<(String, JobSpec)> = spec
            .shard(target)?
            .into_iter()
            .map(|s| (s.canonical_key(), s))
            .collect();
        let mut stats = DistStats {
            per_host: self.hosts.iter().map(|h| (h.clone(), 0)).collect(),
            shards: keyed.len(),
            hosts: self.hosts.len(),
            ..DistStats::default()
        };
        // Every result becomes an `Artifact` the moment it arrives, so
        // a malformed or foreign answer fails the run before it can
        // reach the shard cache.
        let mut results: Vec<Option<Artifact>> = keyed.iter().map(|_| None).collect();
        if let Some(cache) = &self.cache {
            for ((_, shard), slot) in keyed.iter().zip(&mut results) {
                match cache.get(&shard.canonical_json()) {
                    Some(r) => {
                        *slot = Some(Artifact::from_shard_result(shard, &r)?);
                        stats.shard_cache_hits += 1;
                    }
                    None => stats.shard_cache_misses += 1,
                }
            }
        }
        let mut alive = self.hosts.clone();
        let mut last_death = String::from("no host contacted");
        loop {
            let pending: Vec<usize> = (0..keyed.len()).filter(|&i| results[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            if alive.is_empty() {
                return Err(DistError::AllHostsDead { detail: last_death });
            }
            let pending_keys: Vec<&str> = pending.iter().map(|&i| keyed[i].0.as_str()).collect();
            let mut assignment: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (&i, host) in pending.iter().zip(plan_hosts(&alive, &pending_keys)) {
                assignment.entry(host).or_default().push(i);
            }
            let timeout_ms = self.timeout_ms;
            let keyed = &keyed;
            let round: Vec<(String, usize, HostOutcome)> = thread::scope(|scope| {
                let handles: Vec<_> = assignment
                    .iter()
                    .map(|(&host, shards)| {
                        scope.spawn(move || {
                            (
                                host.to_string(),
                                shards.len(),
                                run_host(host, keyed, shards, timeout_ms),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("host thread does not panic"))
                    .collect()
            });
            for (host, assigned, outcome) in round {
                let completed = outcome.completed.len() as u64;
                *stats.per_host.entry(host.clone()).or_insert(0) += completed;
                for (i, r) in outcome.completed {
                    let shard = &keyed[i].1;
                    results[i] = Some(Artifact::from_shard_result(shard, &r)?);
                    if let Some(cache) = &self.cache {
                        cache.insert(shard.canonical_json(), r);
                    }
                }
                if let Some(body) = outcome.failed {
                    return Err(DistError::Shard(body));
                }
                if outcome.died {
                    stats.retries += assigned as u64 - completed;
                    last_death = format!("{host} stopped responding");
                    alive.retain(|h| h != &host);
                }
            }
        }
        // Everything below is pure merging, already in shard order, so
        // arrival order is irrelevant.
        let ordered: Vec<Artifact> = results
            .into_iter()
            .map(|r| r.expect("loop exits only when complete"))
            .collect();
        for shard in &ordered {
            match shard.meta.cache {
                Some(CacheStatus::Hit) => stats.cache_hits += 1,
                Some(CacheStatus::Miss) => stats.cache_misses += 1,
                None => {}
            }
            if let Some(rc) = shard.meta.row_cache {
                let sum = stats.row_cache.get_or_insert_with(RowCacheStats::default);
                sum.hits += rc.hits;
                sum.misses += rc.misses;
            }
        }
        let mut artifact = Artifact::merge_shards(spec, ordered, self.workers)?;
        stats.wall_ms = started.elapsed().as_secs_f64() * 1e3;
        artifact.meta.wall_ms = stats.wall_ms;
        artifact.meta.row_cache = stats.row_cache;
        artifact.meta.dist = Some(DistMeta {
            hosts: self.hosts.len(),
            shards: keyed.len(),
            retries: stats.retries,
        });
        Ok(DistRun {
            json: artifact.to_json(),
            payload_json: artifact.payload_json(),
            csv: artifact.to_csv(),
            text: artifact.render_text(),
            artifact: Some(artifact),
            stats,
        })
    }
}

#[derive(Default)]
struct HostOutcome {
    /// Completed shards, each with its position in the shard list.
    completed: Vec<(usize, ShardResult)>,
    failed: Option<ErrorBody>,
    died: bool,
}

/// Drives one host through its assigned shards (positions into
/// `keyed`) over one connection. Any transport irregularity — connect
/// failure, missing Hello, EOF, a read timing out past the heartbeat
/// window — marks the host dead; only an explicit Error frame is a
/// deterministic job failure.
fn run_host(
    host: &str,
    keyed: &[(String, JobSpec)],
    shards: &[usize],
    timeout_ms: u64,
) -> HostOutcome {
    let mut out = HostOutcome::default();
    let mut stream = match TcpStream::connect(host) {
        Ok(s) => s,
        Err(_) => {
            out.died = true;
            return out;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(timeout_ms)));
    let _ = stream.set_nodelay(true);
    match ShardFrame::read_from(&mut stream) {
        Ok(ShardFrame::Hello { .. }) => {}
        _ => {
            out.died = true;
            return out;
        }
    }
    for &i in shards {
        let (key, spec) = &keyed[i];
        let assign = ShardFrame::Assign {
            shard: key.clone(),
            spec: spec.clone(),
        };
        if assign.write_to(&mut stream).is_err() {
            out.died = true;
            return out;
        }
        loop {
            match ShardFrame::read_from(&mut stream) {
                Ok(ShardFrame::Heartbeat { .. }) => continue,
                Ok(ShardFrame::Result(r)) if r.shard == *key => {
                    out.completed.push((i, *r));
                    break;
                }
                Ok(ShardFrame::Error { error, .. }) => {
                    out.failed = Some(error);
                    return out;
                }
                Ok(_) | Err(_) => {
                    out.died = true;
                    return out;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rendezvous assignment is deterministic, total, and minimally
    /// disruptive: removing a host only remaps that host's shards.
    #[test]
    fn rendezvous_assignment_is_stable_under_host_loss() {
        let hosts: Vec<String> = ["h1:1", "h2:1", "h3:1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let keys: Vec<String> = (0..64).map(|i| format!("{i:016x}")).collect();
        let full: Vec<&str> = keys.iter().map(|k| assign_host(&hosts, k)).collect();
        // Deterministic: same inputs, same answers.
        for (k, &h) in keys.iter().zip(&full) {
            assert_eq!(assign_host(&hosts, k), h);
        }
        // Every host gets some work on a 64-shard axis.
        for h in &hosts {
            assert!(full.iter().any(|&a| a == h), "{h} got nothing");
        }
        // Minimal disruption: dropping h2 remaps only h2's shards.
        let reduced: Vec<String> = hosts.iter().filter(|h| *h != "h2:1").cloned().collect();
        for (k, &before) in keys.iter().zip(&full) {
            let after = assign_host(&reduced, k);
            if before != "h2:1" {
                assert_eq!(after, before, "{k} moved needlessly");
            } else {
                assert_ne!(after, "h2:1");
            }
        }
    }

    fn hosts(n: usize) -> Vec<String> {
        (1..=n).map(|i| format!("h{i}:1")).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("{:016x}", i * 0x9e37)).collect()
    }

    /// With no more shards than hosts every shard gets its own host,
    /// and the first shard always lands on its unconstrained
    /// rendezvous winner.
    #[test]
    fn plan_spreads_shards_that_fit() {
        for h in 1..=6 {
            let hosts = hosts(h);
            for n in 1..=h {
                let keys = keys(n);
                let plan = plan_hosts(&hosts, &keys);
                assert_eq!(plan.len(), n);
                let distinct: std::collections::BTreeSet<&str> = plan.iter().copied().collect();
                assert_eq!(distinct.len(), n, "{h} hosts, {n} shards: {plan:?}");
                assert_eq!(plan[0], assign_host(&hosts, &keys[0]));
            }
        }
    }

    /// More shards than hosts: every host's load stays within
    /// `ceil(n / h)`, and a single host takes everything.
    #[test]
    fn plan_caps_every_host_load() {
        let hosts = hosts(3);
        let keys = keys(10);
        let plan = plan_hosts(&hosts, &keys);
        for h in &hosts {
            let load = plan.iter().filter(|&&p| p == h).count();
            assert!(load <= 4, "{h} carries {load} of 10");
        }
        let one = hosts[..1].to_vec();
        assert!(plan_hosts(&one, &keys).iter().all(|&p| p == "h1:1"));
        assert!(plan_hosts(&one, &Vec::<String>::new()).is_empty());
        // A host listed twice is two slots, so the plan stays total.
        let twice = vec!["h1:1".to_string(), "h1:1".to_string()];
        assert!(plan_hosts(&twice, &keys).iter().all(|&p| p == "h1:1"));
    }

    /// The plan is a function of the host *set*: listing the hosts in
    /// another order changes nothing.
    #[test]
    fn plan_ignores_host_list_order() {
        let hosts = hosts(4);
        let keys = keys(7);
        let plan = plan_hosts(&hosts, &keys);
        let reversed: Vec<String> = hosts.iter().rev().cloned().collect();
        assert_eq!(plan_hosts(&reversed, &keys), plan);
        let rotated: Vec<String> = hosts[2..].iter().chain(&hosts[..2]).cloned().collect();
        assert_eq!(plan_hosts(&rotated, &keys), plan);
    }

    /// A cluster with no hosts fails fast with a typed error.
    #[test]
    fn empty_cluster_is_a_spec_error() {
        let err = Cluster::new(Vec::new())
            .run(&JobSpec::Table2)
            .expect_err("no hosts");
        assert!(matches!(err, DistError::Workload(WorkloadError::Spec(_))));
        assert_eq!(err.error_body().code, "invalid_spec");
    }
}
