//! Seed → input generation. Every input a workload submits is a pure
//! function of the workload seed, generated here; the program only
//! receives the resulting specs. [`fingerprint`] hashes a generated
//! input list so two runs can be shown to have had identical inputs.

use optpower_workload::{fnv1a_64, JobSpec};

/// Spec of one `batch_cold` pass: the CI smoke batch, frozen here so
/// the benchmark's workload does not drift with the CI file.
const BATCH_COLD: &str = include_str!("../batch_cold.json");

/// SplitMix64: a tiny, well-mixed, dependency-free generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of the workload seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a fingerprint of an input list, over each spec's canonical
/// JSON plus whatever per-input tag the workload attaches.
pub fn fingerprint<'a>(inputs: impl IntoIterator<Item = (&'a JobSpec, &'a str)>) -> String {
    let mut text = String::new();
    for (spec, tag) in inputs {
        text.push_str(&spec.canonical_json());
        text.push('|');
        text.push_str(tag);
        text.push('\n');
    }
    format!("{:016x}", fnv1a_64(text.as_bytes()))
}

/// The `batch_cold` passes: the smoke batch with every seeded member
/// re-seeded per pass. One seed serves a whole pass, as in CI, so the
/// repeated member stays an artifact-cache hit and overlapping
/// characterizations stay row-cache hits.
pub fn batch_passes(seed: u64, n: usize) -> Vec<JobSpec> {
    let template = JobSpec::from_json(BATCH_COLD).expect("the frozen batch spec parses");
    let mut rng = Rng::new(seed, 1);
    (0..n).map(|_| reseed(&template, rng.next_u64())).collect()
}

fn reseed(spec: &JobSpec, seed: u64) -> JobSpec {
    let mut spec = spec.clone();
    match &mut spec {
        JobSpec::Batch(jobs) => *jobs = jobs.iter().map(|j| reseed(j, seed)).collect(),
        JobSpec::Ablation { seed: s, .. } => *s = seed,
        JobSpec::AbInitio(s) => s.seed = seed,
        JobSpec::GlitchSweep(s) => s.seed = seed,
        JobSpec::ActivityMeasure(s) => s.seed = seed,
        JobSpec::Sta(s) => s.seed = seed,
        JobSpec::PruneDelta(s) => s.seed = seed,
        _ => {}
    }
    spec
}

/// The `characterize_sharded` jobs: the default 13-architecture,
/// width-16, 200-item ab-initio spec under fresh seeds.
pub fn characterize_jobs(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            let mut spec = JobSpec::default_for("ab_initio").expect("ab_initio is a job kind");
            if let JobSpec::AbInitio(s) = &mut spec {
                s.seed = rng.next_u64();
            }
            spec
        })
        .collect()
}

/// Response formats `serve_mix` rotates its `Accept` header over.
pub const ACCEPTS: [&str; 3] = ["application/json", "text/csv", "text/plain"];

/// One `serve_mix` request: a spec body and an `Accept` index.
#[derive(Debug, Clone)]
pub struct Request {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Index into [`ACCEPTS`].
    pub accept: usize,
}

/// The `serve_mix` hot set: mixed payload sizes, warmed during set-up.
pub fn hot_set(seed: u64) -> Vec<JobSpec> {
    let glitch = format!(
        r#"{{"job":"glitch_sweep","archs":["RCA"],"widths":[8],"items":20,"freq_points":3,"seed":{}}}"#,
        Rng::new(seed, 3).next_u64()
    );
    [
        r#"{"job":"table2"}"#,
        r#"{"job":"table1_sweep"}"#,
        r#"{"job":"pareto","freq_points":6}"#,
        glitch.as_str(),
    ]
    .iter()
    .map(|body| JobSpec::from_json(body).expect("hot-set specs parse"))
    .collect()
}

/// Architectures the fresh-seed misses measure (small, fast netlists).
const MISS_ARCHS: [&str; 3] = ["RCA", "Wallace", "Sequential"];

/// Share of `serve_mix` requests drawn from the hot set, in percent.
const HOT_PERCENT: u64 = 80;

/// Client `client`'s request sequence: about four in five repeat the
/// hot set, the rest are fresh-seed `activity_measure` misses.
pub fn serve_requests(seed: u64, client: u64, hot: &[JobSpec], n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 16 + client);
    (0..n)
        .map(|_| {
            let accept = rng.below(ACCEPTS.len() as u64) as usize;
            if rng.below(100) < HOT_PERCENT {
                let i = rng.below(hot.len() as u64) as usize;
                Request {
                    spec: hot[i].clone(),
                    accept,
                }
            } else {
                let arch = MISS_ARCHS[rng.below(MISS_ARCHS.len() as u64) as usize];
                let body = format!(
                    r#"{{"job":"activity_measure","arch":"{arch}","width":8,"engine":"bit_parallel","items":16,"seed":{}}}"#,
                    rng.next_u64()
                );
                Request {
                    spec: JobSpec::from_json(&body).expect("miss specs parse"),
                    accept,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_fp(seed: u64) -> String {
        let passes = batch_passes(seed, 4);
        fingerprint(passes.iter().map(|s| (s, "")))
    }

    #[test]
    fn the_same_seed_generates_the_same_inputs() {
        assert_eq!(batch_fp(7), batch_fp(7));
        let a = characterize_jobs(7, 8);
        let b = characterize_jobs(7, 8);
        assert_eq!(a, b);
        let hot = hot_set(7);
        assert_eq!(hot, hot_set(7));
        let r1 = serve_requests(7, 0, &hot, 64);
        let r2 = serve_requests(7, 0, &hot, 64);
        let fp = |r: &[Request]| fingerprint(r.iter().map(|q| (&q.spec, ACCEPTS[q.accept])));
        assert_eq!(fp(&r1), fp(&r2));
        // Clients draw different streams.
        assert_ne!(fp(&r1), fp(&serve_requests(7, 1, &hot, 64)));
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        assert_ne!(batch_fp(7), batch_fp(8));
        assert_ne!(characterize_jobs(7, 1), characterize_jobs(8, 1));
        assert_ne!(hot_set(7), hot_set(8));
    }

    #[test]
    fn passes_reseed_every_seeded_member_and_keep_the_repeat() {
        let passes = batch_passes(11, 2);
        let JobSpec::Batch(jobs) = &passes[0] else {
            panic!("a pass is a batch");
        };
        let template = JobSpec::from_json(BATCH_COLD).expect("parses");
        let JobSpec::Batch(orig) = &template else {
            panic!("the template is a batch");
        };
        assert_eq!(jobs.len(), orig.len());
        // The smoke batch repeats its last ab_initio member verbatim.
        let keys: Vec<String> = jobs.iter().map(JobSpec::canonical_key).collect();
        let last = keys.last().expect("non-empty");
        assert!(keys[..keys.len() - 1].contains(last));
        assert_ne!(passes[0], passes[1]);
        assert_ne!(passes[0], template);
    }

    #[test]
    fn about_four_in_five_requests_are_hot() {
        let hot = hot_set(3);
        let reqs = serve_requests(3, 0, &hot, 10_000);
        let n_hot = reqs.iter().filter(|r| hot.contains(&r.spec)).count();
        assert!((7_500..8_500).contains(&n_hot), "{n_hot}");
        // Every fresh miss is distinct.
        let mut misses: Vec<String> = reqs
            .iter()
            .filter(|r| !hot.contains(&r.spec))
            .map(|r| r.spec.canonical_key())
            .collect();
        let n = misses.len();
        misses.sort();
        misses.dedup();
        assert_eq!(misses.len(), n);
    }
}
