//! The traced run's span recorder: name, start, end, parent span and
//! job id per span, kept in memory and written out when the run ends.
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; the program itself is not
//! instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::self_time;

/// Name of a job's root span.
pub const JOB: &str = "job";

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`sta.lint`, `sim.timed`, …) or [`JOB`].
    pub name: &'static str,
    /// The job (operation) this span belongs to.
    pub job: u32,
    /// Unique span id.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Work units done inside the span (vectors simulated, bytes
    /// rendered, …); 0 where the layer has no natural count.
    pub work: u64,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&self, name: &'static str, job: u32, parent: Option<u32>, start: u64, work: u64) {
        let id = self.fresh_id();
        self.push(Span {
            name,
            job,
            id,
            parent,
            start,
            end: self.now(),
            work,
        });
    }

    fn fresh_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
    }

    /// Runs `f` as job `job`'s root span; layer calls made through the
    /// handed context become its children.
    pub fn job<R>(&self, job: u32, f: impl FnOnce(&Ctx<'_>) -> R) -> R {
        let id = self.fresh_id();
        let start = self.now();
        let r = f(&Ctx {
            tracer: self,
            job,
            parent: Some(id),
        });
        self.push(Span {
            name: JOB,
            job,
            id,
            parent: None,
            start,
            end: self.now(),
            work: 0,
        });
        r
    }

    /// A context for layer calls that belong to job `job` but happen
    /// outside its root span (the spans get no parent).
    pub fn detached(&self, job: u32) -> Ctx<'_> {
        Ctx {
            tracer: self,
            job,
            parent: None,
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no thread panics while holding the span list")
    }
}

/// A job's recording context; shareable across the threads a job
/// fans out to.
pub struct Ctx<'t> {
    tracer: &'t Tracer,
    job: u32,
    parent: Option<u32>,
}

impl Ctx<'_> {
    /// Times `f` as a span named `name`.
    pub fn layer<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.counted(name, || (f(), 0))
    }

    /// Times `f` as a span named `name`; `f` also returns the work it
    /// did.
    pub fn counted<R>(&self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let start = self.tracer.now();
        // The value leaves the span opaque to the optimiser, so a
        // result the caller drops is still computed inside it.
        let (r, work) = std::hint::black_box(f());
        self.tracer.record(name, self.job, self.parent, start, work);
        r
    }
}

/// One layer's share of one job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
    /// Summed work units.
    pub work: u64,
}

/// One job's breakdown: root wall time, the part no layer span
/// covers (`other`), and per-layer self time.
#[derive(Debug, Clone, Default)]
pub struct JobBreakdown {
    /// Duration of the job's root span, ns (0 when it has none).
    pub wall_ns: u64,
    /// Root span duration minus the union of its children, ns.
    pub other_ns: u64,
    /// Per-layer totals keyed by span name.
    pub layers: BTreeMap<&'static str, LayerTotals>,
}

/// Groups spans by job and computes every span's self time.
pub fn breakdown(spans: &[Span]) -> BTreeMap<u32, JobBreakdown> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut jobs: BTreeMap<u32, JobBreakdown> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let own = self_time((s.start, s.end), kids);
        let job = jobs.entry(s.job).or_default();
        if s.name == JOB {
            job.wall_ns = s.end - s.start;
            job.other_ns = own;
        } else {
            let t = job.layers.entry(s.name).or_default();
            t.self_ns += own;
            t.count += 1;
            t.work += s.work;
        }
    }
    jobs
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"job\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
            s.name, s.job, s.id, parent, s.start, s.end, s.work
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, job: u32, id: u32, parent: Option<u32>, s: u64, e: u64) -> Span {
        Span {
            name,
            job,
            id,
            parent,
            start: s,
            end: e,
            work: 1,
        }
    }

    #[test]
    fn breakdown_attributes_self_time_and_other() {
        let spans = [
            span(JOB, 7, 0, None, 0, 100),
            // Two threads overlap on [20, 30): counted once in `other`.
            span("sim.timed", 7, 1, Some(0), 10, 30),
            span("sim.timed", 7, 2, Some(0), 20, 40),
            span("sta.lint", 7, 3, Some(0), 50, 60),
            // A nested span's time leaves its parent's self time.
            span("mult.generate", 7, 4, Some(3), 52, 55),
            span(JOB, 8, 5, None, 200, 210),
        ];
        let jobs = breakdown(&spans);
        let j = &jobs[&7];
        assert_eq!(j.wall_ns, 100);
        assert_eq!(j.other_ns, 100 - 30 - 10);
        assert_eq!(
            j.layers["sim.timed"],
            LayerTotals {
                self_ns: 40,
                count: 2,
                work: 2
            }
        );
        assert_eq!(j.layers["sta.lint"].self_ns, 7);
        assert_eq!(j.layers["mult.generate"].self_ns, 3);
        assert_eq!(jobs[&8].other_ns, 10);
        assert!(jobs[&8].layers.is_empty());
    }

    #[test]
    fn tracer_records_nested_layers_under_the_job() {
        let tracer = Tracer::new();
        let v = tracer.job(3, |ctx| ctx.counted("sim.timed", || (41 + 1, 640)));
        assert_eq!(v, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == JOB).expect("root span");
        let leaf = spans.iter().find(|s| s.name == "sim.timed").expect("leaf");
        assert_eq!(leaf.parent, Some(root.id));
        assert_eq!((leaf.job, leaf.work), (3, 640));
        assert!(root.start <= leaf.start && leaf.end <= root.end);
    }
}
