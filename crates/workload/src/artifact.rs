//! The uniform result envelope every workload returns: a typed
//! payload plus run metadata, with schema-versioned JSON, CSV and
//! console-text renderings.
//!
//! Three invariants:
//!
//! * **typed first** — the payload is the workload's real data
//!   structure ([`optpower_report::RowComparison`],
//!   [`optpower_report::AbInitioRow`], …), not a bag of strings; the
//!   JSON/CSV forms are derived views;
//! * **deterministic payloads** — [`Artifact::payload_json`],
//!   [`Artifact::to_csv`] and [`Artifact::render_text`] depend only on
//!   the spec (seed included), never on worker count or wall time.
//!   Run metadata (wall time, resolved workers) lives in a separate
//!   `meta` object that only [`Artifact::to_json`] includes;
//! * **legacy-faithful text** — [`Artifact::render_text`] is exactly
//!   the stdout of the retired bespoke binary for the same job, so
//!   `optpower <kind>` prints what that binary printed.

use optpower_report::ablation::{FitRangeResult, GlitchAblationRow, OptimizerAblationRow};
use optpower_report::extended::{render_scaling, render_sensitivities, ScalingRow, SensitivityRow};
use optpower_report::{
    glitch_rows_to_csv, pareto_front_csv, render_ab_initio, render_figure1, render_figure2,
    render_figure34, render_glitch_factors, render_pareto, render_rows, AbInitioRow, Figure1,
    Figure2, Figure34, GlitchSweep, ParetoFigure, RowComparison,
};
use optpower_sim::ActivityReport;

use crate::json::Json;
use crate::spec::{engine_name, ActivitySpec, JobSpec};

/// Schema tag of the artifact envelope.
pub const ARTIFACT_SCHEMA: &str = "optpower-workload/v1";

/// One published STM CMOS09 flavour's parameters (the typed form of
/// Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct FlavorRow {
    /// Flavour abbreviation (`ULL`, `LL`, `HS`).
    pub flavor: &'static str,
    /// Nominal supply \[V\].
    pub vdd_nom_v: f64,
    /// Nominal threshold \[V\].
    pub vth0_nom_v: f64,
    /// Off current \[µA\].
    pub io_ua: f64,
    /// Total switched capacitance scale \[pF\].
    pub zeta_pf: f64,
    /// Velocity-saturation exponent.
    pub alpha: f64,
    /// Subthreshold slope factor.
    pub n: f64,
}

/// One linted netlist: the architecture/width coordinates plus the
/// full structural report.
#[derive(Debug, Clone, PartialEq)]
pub struct LintSummary {
    /// Paper name of the architecture.
    pub arch: String,
    /// Operand width in bits.
    pub width: usize,
    /// The structural lint report.
    pub report: optpower_sta::LintReport,
}

/// One architecture's static-analysis row: integer-tick STA numbers
/// plus the static glitch bound, optionally paired with the measured
/// glitch factor for the static-vs-measured correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct StaRow {
    /// Paper name of the architecture.
    pub arch: String,
    /// Operand width in bits.
    pub width: usize,
    /// Logic cell count (the paper's `N`).
    pub cells: usize,
    /// Picosecond ticks per stride unit of the shared time base.
    pub stride_ticks: u64,
    /// Longest endpoint path in gate units (the paper's `LD`).
    pub logical_depth: f64,
    /// Shortest endpoint path in gate units.
    pub shortest_path: f64,
    /// `LD − shortest` in gate units.
    pub path_spread: f64,
    /// Mean multi-input arrival skew in gate units.
    pub mean_input_skew: f64,
    /// Cells on the reconstructed critical path.
    pub critical_path_cells: usize,
    /// The static glitch factor — the static analogue of the measured
    /// `a(timed)/a(zero-delay)` ratio (a ranking statistic, correlated
    /// but not a bound on the ratio).
    pub static_glitch_factor: f64,
    /// The simulated glitch factor, when the spec ran the measured
    /// leg (`items > 0`).
    pub measured_glitch_factor: Option<f64>,
    /// The *provable* ceiling: mean per-cell transition bound per data
    /// item (per-cycle bound × cycles per item). Measured timed
    /// activity can never exceed this.
    pub static_activity_bound: f64,
    /// The simulated timed activity (transitions per logic cell per
    /// data item), when the spec ran the measured leg.
    pub measured_activity: Option<f64>,
}

/// One (architecture, width) before/after row of the dead-cone prune
/// delta study: the same design generated raw (no pruning) and through
/// the production [`optpower_mult::Architecture::generate`] path, each
/// characterized through the identical timed-simulation flow.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneDeltaRow {
    /// Paper name of the architecture.
    pub arch: String,
    /// Operand width in bits.
    pub width: usize,
    /// Logic cell count before pruning (the paper's `N`, raw).
    pub cells_before: usize,
    /// Logic cell count after pruning.
    pub cells_after: usize,
    /// DFF count before pruning.
    pub dffs_before: usize,
    /// DFF count after pruning.
    pub dffs_after: usize,
    /// Measured timed activity per logic cell per item, raw netlist.
    pub activity_before: f64,
    /// Measured timed activity per logic cell per item, pruned netlist.
    pub activity_after: f64,
    /// Optimised total power in µW, raw netlist.
    pub ptot_uw_before: f64,
    /// Optimised total power in µW, pruned netlist.
    pub ptot_uw_after: f64,
}

impl PruneDeltaRow {
    /// Cells the prune removed (logic + DFFs).
    pub fn cells_removed(&self) -> usize {
        (self.cells_before - self.cells_after) + (self.dffs_before - self.dffs_after)
    }

    /// Relative total-power change in percent (negative = pruning
    /// lowered power).
    pub fn ptot_delta_pct(&self) -> f64 {
        if self.ptot_uw_before == 0.0 {
            0.0
        } else {
            100.0 * (self.ptot_uw_after - self.ptot_uw_before) / self.ptot_uw_before
        }
    }
}

/// What the export job wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportListing {
    /// Directory the files went to.
    pub dir: String,
    /// File names written, in write order.
    pub files: Vec<String>,
}

/// Whether an artifact came out of the runtime's content-addressed
/// cache or was computed fresh. Lives in [`RunMeta`] because cache
/// residency is a scheduling fact, never part of the deterministic
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache without re-executing the job.
    Hit,
    /// Executed fresh (and, when a cache is attached, inserted).
    Miss,
}

impl CacheStatus {
    /// The wire spelling (`"hit"` / `"miss"`) used in the JSON `meta`
    /// object and the `X-Optpower-Cache` response header.
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }
}

/// Hit/miss counters of the runtime's incremental row cache for one
/// run: how many per-architecture [`AbInitioRow`]s were served from
/// the cache versus characterized fresh. Lives in [`RunMeta`] because
/// cache residency never changes the payload — a served row is
/// bit-identical to the recomputation it replaced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowCacheStats {
    /// Rows served from the cache without re-simulating.
    pub hits: u64,
    /// Rows characterized fresh (and inserted).
    pub misses: u64,
}

/// How a distributed run was scheduled: the cluster shape plus how
/// many shards had to be reassigned after a worker died. Lives in
/// [`RunMeta`] because fan-out is scheduling — a merged artifact's
/// payload is bit-identical to the single-host run whatever `hosts`,
/// `shards` and `retries` say.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistMeta {
    /// Worker hosts the coordinator fanned out to.
    pub hosts: usize,
    /// Shards the job was split into.
    pub shards: usize,
    /// Shards reassigned after a worker death or timeout.
    pub retries: u64,
}

/// Run metadata: how an artifact was produced. Everything here is
/// either scheduling or wall-clock — never part of the deterministic
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// The stimulus seed the job ran with, when it has one.
    pub seed: Option<u64>,
    /// The resolved worker count the runtime scheduled with.
    pub workers: usize,
    /// The simulation engine involved, when the job has one.
    pub engine: Option<&'static str>,
    /// Wall-clock duration of the run in milliseconds.
    pub wall_ms: f64,
    /// Cache disposition, when the runtime ran with a cache attached
    /// (`None` for cacheless runtimes, which keeps the legacy CLI
    /// envelope unchanged).
    pub cache: Option<CacheStatus>,
    /// Row-cache counters, when the runtime ran with a cache attached
    /// *and* the job characterizes architectures (`None` otherwise,
    /// which keeps every other envelope unchanged).
    pub row_cache: Option<RowCacheStats>,
    /// Distributed-run shape, when a coordinator merged this artifact
    /// from worker shards (`None` for every single-host run, which
    /// keeps the legacy envelope unchanged).
    pub dist: Option<DistMeta>,
}

/// The typed payload of one executed job.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Paper-vs-reproduction comparison rows (Tables 1/3/4) with the
    /// table's console title.
    Rows {
        /// Console title of the table.
        title: String,
        /// The comparison rows.
        rows: Vec<RowComparison>,
    },
    /// The published flavour parameters (Table 2).
    Flavors(Vec<FlavorRow>),
    /// The scaling study, both ports.
    Scaling {
        /// Wire-dominated port (capacitance does not scale).
        unscaled: Vec<ScalingRow>,
        /// Full gate-capacitance scaling (×0.7 per node).
        scaled: Vec<ScalingRow>,
    },
    /// Eq. 13 sensitivities per architecture.
    Sensitivity(Vec<SensitivityRow>),
    /// The three ablation studies.
    Ablation {
        /// The α the fit-range ablation ran at.
        alpha: f64,
        /// Fit-range sensitivity rows.
        fit: Vec<FitRangeResult>,
        /// Optimiser-strategy rows.
        optimizer: Vec<OptimizerAblationRow>,
        /// Glitch-contribution rows.
        glitch: Vec<GlitchAblationRow>,
    },
    /// Ab-initio characterization rows (Table 1′).
    AbInitio(Vec<AbInitioRow>),
    /// The glitch-aware design-space sweep.
    Glitch(GlitchSweep),
    /// One activity measurement (spec echoed for context).
    Activity {
        /// The measurement definition.
        spec: ActivitySpec,
        /// The measured report.
        report: ActivityReport,
    },
    /// Figure 1.
    Figure1(Figure1),
    /// Figure 2.
    Figure2(Figure2),
    /// Figures 3/4.
    Figure34(Figure34),
    /// The Pareto figure.
    Pareto(ParetoFigure),
    /// The export listing.
    Export(ExportListing),
    /// One lint report per (architecture, width).
    Lint(Vec<LintSummary>),
    /// One static-analysis row per architecture.
    Sta(Vec<StaRow>),
    /// One raw-vs-pruned characterization row per (arch, width).
    PruneDelta(Vec<PruneDeltaRow>),
    /// One artifact per batch member, in batch order.
    Batch(Vec<Artifact>),
    /// A shard result of a kind without a typed re-parser, kept as the
    /// worker rendered it. Re-rendering reproduces the worker's bytes,
    /// so a coordinator merges it like any typed payload.
    Rendered {
        /// The `payload` value of the worker's artifact document.
        payload: Json,
        /// The worker's [`Artifact::to_csv`].
        csv: String,
        /// The worker's [`Artifact::render_text`].
        text: String,
    },
}

/// The uniform envelope: spec + payload + run metadata.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The spec that produced this artifact.
    pub spec: JobSpec,
    /// The typed result.
    pub payload: Payload,
    /// Run metadata (scheduling and wall time only).
    pub meta: RunMeta,
}

impl Artifact {
    /// The job kind tag.
    pub fn kind(&self) -> &'static str {
        self.spec.kind()
    }

    /// The console rendering — byte-identical to the stdout the
    /// retired bespoke binary printed for the same job
    /// (`optpower <kind>` prints exactly this through one `println!`).
    pub fn render_text(&self) -> String {
        match &self.payload {
            Payload::Rows { title, rows } => render_rows(title, rows),
            Payload::Flavors(rows) => {
                // Derived from the typed payload (like the JSON/CSV
                // views), in the legacy binary's exact layout.
                let mut t = optpower_report::Table::new(&[
                    "flavor",
                    "Vdd nom [V]",
                    "Vth0 nom [V]",
                    "Io [uA]",
                    "zeta [pF]",
                    "alpha",
                    "n",
                ]);
                for r in rows {
                    t.row(&[
                        r.flavor.to_string(),
                        format!("{:.1}", r.vdd_nom_v),
                        format!("{:.3}", r.vth0_nom_v),
                        format!("{:.2}", r.io_ua),
                        format!("{:.1}", r.zeta_pf),
                        format!("{:.2}", r.alpha),
                        format!("{:.2}", r.n),
                    ]);
                }
                format!("Table 2 - STM CMOS09 technology flavours\n{t}")
            }
            Payload::Scaling { unscaled, scaled } => format!(
                "== wire-dominated port (capacitance does not scale) ==\n{}\n\
                 == full gate-capacitance scaling (x0.7 per node) ==\n{}",
                render_scaling(unscaled),
                render_scaling(scaled)
            ),
            Payload::Sensitivity(rows) => render_sensitivities(rows),
            Payload::Ablation {
                alpha,
                fit,
                optimizer,
                glitch,
            } => format!(
                "{}\n{}\n{}",
                optpower_report::ablation::render_fit_ranges(*alpha, fit),
                optpower_report::ablation::render_optimizer(optimizer),
                optpower_report::ablation::render_glitch(glitch)
            ),
            Payload::AbInitio(rows) => render_ab_initio(rows),
            Payload::Glitch(sweep) => {
                let (ga, gf) = (sweep.glitch_aware.summary(), sweep.glitch_free.summary());
                format!(
                    "{}\n{}\nGlitch-aware sweep: {} points ({} closed); glitch-free: {} closed; \
                     design-space glitch cost {:.2} uW over jointly closed points",
                    render_ab_initio(&sweep.rows),
                    render_glitch_factors(&sweep.rows),
                    ga.points,
                    ga.closed,
                    gf.closed,
                    sweep.total_glitch_cost_w() * 1e6,
                )
            }
            Payload::Activity { spec, report } => format!(
                "Activity - {} at {} bits, {} engine, {} items (seed {})\n\
                 a = {:.4} ({} transitions over {} measured items x {} cells)",
                spec.arch,
                spec.width,
                engine_name(spec.engine),
                spec.items,
                spec.seed,
                report.activity,
                report.transitions,
                report.items,
                report.cells,
            ),
            Payload::Figure1(fig) => {
                let mut out = render_figure1(fig);
                out.push_str("\nvdd_v,activity,ptot_w");
                for curve in &fig.curves {
                    for &(v, p) in &curve.points {
                        out.push_str(&format!("\n{v},{},{p}", curve.activity));
                    }
                }
                out
            }
            Payload::Figure2(fig) => {
                let mut out = render_figure2(fig);
                out.push_str("\nvdd_v,exact,approx");
                for &(v, e, a) in &fig.points {
                    out.push_str(&format!("\n{v},{e},{a}"));
                }
                out
            }
            Payload::Figure34(fig) => render_figure34(fig),
            Payload::Pareto(fig) => render_pareto(fig),
            Payload::Export(listing) => format!(
                "wrote Verilog/DOT for 13 architectures + rca.vcd to {}",
                listing.dir
            ),
            Payload::Lint(summaries) => {
                let errors: usize = summaries.iter().map(|s| s.report.error_count()).sum();
                let warnings: usize = summaries.iter().map(|s| s.report.warning_count()).sum();
                let mut out = format!(
                    "Lint - {} netlist(s), {} error(s), {} warning(s)\n",
                    summaries.len(),
                    errors,
                    warnings
                );
                for s in summaries {
                    out.push_str(&s.report.render_text());
                }
                out
            }
            Payload::Sta(rows) => {
                let mut t = optpower_report::Table::new(&[
                    "arch",
                    "width",
                    "cells",
                    "stride",
                    "LD",
                    "shortest",
                    "spread",
                    "skew",
                    "cp cells",
                    "g_static",
                    "g_measured",
                    "a_bound",
                    "a_measured",
                ]);
                let opt = |v: Option<f64>| match v {
                    Some(g) => format!("{g:.3}"),
                    None => "-".to_string(),
                };
                for r in rows {
                    t.row(&[
                        r.arch.clone(),
                        r.width.to_string(),
                        r.cells.to_string(),
                        r.stride_ticks.to_string(),
                        format!("{:.2}", r.logical_depth),
                        format!("{:.2}", r.shortest_path),
                        format!("{:.2}", r.path_spread),
                        format!("{:.3}", r.mean_input_skew),
                        r.critical_path_cells.to_string(),
                        format!("{:.3}", r.static_glitch_factor),
                        opt(r.measured_glitch_factor),
                        format!("{:.3}", r.static_activity_bound),
                        opt(r.measured_activity),
                    ]);
                }
                let mut out = format!("Static timing + glitch bound\n{t}");
                let pairs: Vec<(f64, f64)> = rows
                    .iter()
                    .filter_map(|r| {
                        r.measured_glitch_factor
                            .map(|m| (r.static_glitch_factor, m))
                    })
                    .collect();
                match optpower_report::pearson_correlation(&pairs) {
                    Some(r) => out.push_str(&format!(
                        "static-vs-measured glitch correlation r = {:.3} over {} architecture(s)\n",
                        r,
                        pairs.len()
                    )),
                    None => out.push_str("static-vs-measured glitch correlation: n/a\n"),
                }
                out
            }
            Payload::PruneDelta(rows) => {
                let mut t = optpower_report::Table::new(&[
                    "arch",
                    "width",
                    "N raw",
                    "N pruned",
                    "removed",
                    "a raw",
                    "a pruned",
                    "Ptot raw [uW]",
                    "Ptot pruned [uW]",
                    "dPtot [%]",
                ]);
                for r in rows {
                    t.row(&[
                        r.arch.clone(),
                        r.width.to_string(),
                        (r.cells_before + r.dffs_before).to_string(),
                        (r.cells_after + r.dffs_after).to_string(),
                        r.cells_removed().to_string(),
                        format!("{:.4}", r.activity_before),
                        format!("{:.4}", r.activity_after),
                        format!("{:.3}", r.ptot_uw_before),
                        format!("{:.3}", r.ptot_uw_after),
                        format!("{:+.2}", r.ptot_delta_pct()),
                    ]);
                }
                let removed: usize = rows.iter().map(PruneDeltaRow::cells_removed).sum();
                format!(
                    "Dead-cone prune delta - {} row(s), {} cell(s) removed\n{t}",
                    rows.len(),
                    removed
                )
            }
            Payload::Batch(artifacts) => artifacts
                .iter()
                .map(Artifact::render_text)
                .collect::<Vec<_>>()
                .join("\n"),
            Payload::Rendered { text, .. } => text.clone(),
        }
    }

    /// The deterministic document: schema, job kind, the spec that ran
    /// and the typed payload — everything except run metadata. Two
    /// runs of the same spec produce identical bytes whatever the
    /// worker count (golden-file friendly).
    pub fn payload_json(&self) -> String {
        self.payload_value().to_string()
    }

    /// The full envelope: [`Artifact::payload_json`] plus the `meta`
    /// object (wall time, resolved workers).
    pub fn to_json(&self) -> String {
        let mut doc = match self.payload_value() {
            Json::Obj(pairs) => pairs,
            _ => unreachable!("payload_value is always an object"),
        };
        let mut meta = vec![
            (
                "seed".to_string(),
                self.meta.seed.map(Json::UInt).unwrap_or(Json::Null),
            ),
            ("workers".to_string(), Json::UInt(self.meta.workers as u64)),
            (
                "engine".to_string(),
                self.meta.engine.map(Json::str).unwrap_or(Json::Null),
            ),
            ("wall_ms".to_string(), Json::num(self.meta.wall_ms)),
            (
                "cache".to_string(),
                self.meta
                    .cache
                    .map(|c| Json::str(c.label()))
                    .unwrap_or(Json::Null),
            ),
        ];
        // Emitted only when the run actually consulted the row cache,
        // so cacheless envelopes stay byte-identical to the legacy
        // shape.
        if let Some(rc) = self.meta.row_cache {
            meta.push((
                "row_cache".to_string(),
                Json::obj([
                    ("hits", Json::UInt(rc.hits)),
                    ("misses", Json::UInt(rc.misses)),
                ]),
            ));
        }
        // Same only-when-present rule as `row_cache`: single-host runs
        // keep the exact legacy meta shape.
        if let Some(d) = self.meta.dist {
            meta.push((
                "dist".to_string(),
                Json::obj([
                    ("hosts", Json::UInt(d.hosts as u64)),
                    ("shards", Json::UInt(d.shards as u64)),
                    ("retries", Json::UInt(d.retries)),
                ]),
            ));
        }
        doc.push(("meta".to_string(), Json::Obj(meta)));
        Json::Obj(doc).to_string()
    }

    fn payload_value(&self) -> Json {
        Json::obj([
            ("schema", Json::str(ARTIFACT_SCHEMA)),
            ("job", Json::str(self.kind())),
            ("spec", self.spec.to_json_value()),
            ("payload", payload_data(&self.payload)),
        ])
    }

    /// The CSV rendering of the payload's primary table.
    pub fn to_csv(&self) -> String {
        match &self.payload {
            Payload::Rows { rows, .. } => {
                let mut out = String::from(
                    "name,paper_vdd_v,vdd_v,paper_vth_v,vth_v,paper_ptot_uw,ptot_uw,\
                     paper_eq13_uw,eq13_uw,paper_err_pct,err_pct\n",
                );
                for r in rows {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{},{},{},{},{}\n",
                        csv_field(&r.name),
                        r.paper_vdd,
                        r.our_vdd,
                        r.paper_vth,
                        r.our_vth,
                        r.paper_ptot_uw,
                        r.our_ptot_uw,
                        r.paper_eq13_uw,
                        r.our_eq13_uw,
                        r.paper_err_pct,
                        r.our_err_pct,
                    ));
                }
                out
            }
            Payload::Flavors(rows) => {
                let mut out = String::from("flavor,vdd_nom_v,vth0_nom_v,io_ua,zeta_pf,alpha,n\n");
                for r in rows {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{}\n",
                        r.flavor, r.vdd_nom_v, r.vth0_nom_v, r.io_ua, r.zeta_pf, r.alpha, r.n,
                    ));
                }
                out
            }
            Payload::Scaling { unscaled, scaled } => {
                let mut out = String::from("port,f_mhz,node,ptot_uw,winner\n");
                for (port, rows) in [("wire_dominated", unscaled), ("scaled", scaled)] {
                    for r in rows {
                        for (node, p) in &r.ptot_uw {
                            out.push_str(&format!(
                                "{port},{},{node},{},{}\n",
                                r.f_mhz,
                                if p.is_finite() {
                                    p.to_string()
                                } else {
                                    String::new()
                                },
                                r.winner.unwrap_or(""),
                            ));
                        }
                    }
                }
                out
            }
            Payload::Sensitivity(rows) => {
                let mut out =
                    String::from("arch,s_activity,s_cells,s_logical_depth,s_frequency,s_io\n");
                for r in rows {
                    out.push_str(&format!(
                        "{},{},{},{},{},{}\n",
                        csv_field(r.name),
                        r.sens.activity,
                        r.sens.cells,
                        r.sens.logical_depth,
                        r.sens.frequency,
                        r.sens.io,
                    ));
                }
                out
            }
            Payload::Ablation {
                fit,
                optimizer,
                glitch,
                ..
            } => {
                let mut out = String::from("section,label,v1,v2,v3,v4\n");
                for r in fit {
                    out.push_str(&format!(
                        "fit_range,{:.2}-{:.2},{},{},{},\n",
                        r.lo, r.hi, r.a, r.b, r.max_error
                    ));
                }
                for r in optimizer {
                    out.push_str(&format!(
                        "optimizer,{},{},{},,\n",
                        csv_field(&r.strategy),
                        r.ptot_uw,
                        r.excess_pct
                    ));
                }
                for r in glitch {
                    out.push_str(&format!(
                        "glitch,{},{},{},{},{}\n",
                        csv_field(&r.name),
                        r.activity_timed,
                        r.activity_zero_delay,
                        r.ptot_timed_uw,
                        r.ptot_zero_delay_uw,
                    ));
                }
                out
            }
            Payload::AbInitio(rows) => glitch_rows_to_csv(rows),
            Payload::Glitch(sweep) => glitch_rows_to_csv(&sweep.rows),
            Payload::Activity { spec, report } => format!(
                "arch,width,engine,items,warmup,seed,activity,transitions,measured_items,cells\n\
                 {},{},{},{},{},{},{},{},{},{}\n",
                csv_field(&spec.arch),
                spec.width,
                engine_name(spec.engine),
                spec.items,
                spec.warmup,
                spec.seed,
                report.activity,
                report.transitions,
                report.items,
                report.cells,
            ),
            Payload::Figure1(fig) => {
                let mut out = String::from("vdd_v,activity,ptot_w\n");
                for curve in &fig.curves {
                    for &(v, p) in &curve.points {
                        out.push_str(&format!("{v},{},{p}\n", curve.activity));
                    }
                }
                out
            }
            Payload::Figure2(fig) => {
                let mut out = String::from("vdd_v,exact,approx\n");
                for &(v, e, a) in &fig.points {
                    out.push_str(&format!("{v},{e},{a}\n"));
                }
                out
            }
            Payload::Figure34(fig) => {
                let mut out = String::from(
                    "style,stages,registers,logical_depth,path_spread,mean_input_skew,\
                     activity_timed,activity_zero_delay,glitch_factor\n",
                );
                for s in &fig.summaries {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{},{},{}\n",
                        s.style,
                        s.stages,
                        s.registers,
                        s.logical_depth,
                        s.path_spread,
                        s.mean_input_skew,
                        s.activity_timed,
                        s.activity_zero_delay,
                        s.glitch_factor(),
                    ));
                }
                out
            }
            Payload::Pareto(fig) => pareto_front_csv(fig),
            Payload::Export(listing) => {
                let mut out = String::from("file\n");
                for f in &listing.files {
                    out.push_str(&csv_field(f));
                    out.push('\n');
                }
                out
            }
            Payload::Lint(summaries) => {
                let mut out =
                    String::from("arch,width,cells,nets,severity,rule_id,rule,cell,net,message\n");
                for s in summaries {
                    if s.report.is_clean() {
                        out.push_str(&format!(
                            "{},{},{},{},clean,,,,,\n",
                            csv_field(&s.arch),
                            s.width,
                            s.report.cell_count(),
                            s.report.net_count(),
                        ));
                        continue;
                    }
                    for d in s.report.diagnostics() {
                        out.push_str(&format!(
                            "{},{},{},{},{},{},{},{},{},{}\n",
                            csv_field(&s.arch),
                            s.width,
                            s.report.cell_count(),
                            s.report.net_count(),
                            d.rule.severity().label(),
                            d.rule.id(),
                            d.rule.name(),
                            d.cell.map(|c| c.index().to_string()).unwrap_or_default(),
                            d.net.map(|n| n.index().to_string()).unwrap_or_default(),
                            csv_field(&d.message),
                        ));
                    }
                }
                out
            }
            Payload::Sta(rows) => {
                let mut out = String::from(
                    "arch,width,cells,stride_ticks,logical_depth,shortest_path,path_spread,\
                     mean_input_skew,critical_path_cells,static_glitch_factor,\
                     measured_glitch_factor,static_activity_bound,measured_activity\n",
                );
                for r in rows {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                        csv_field(&r.arch),
                        r.width,
                        r.cells,
                        r.stride_ticks,
                        r.logical_depth,
                        r.shortest_path,
                        r.path_spread,
                        r.mean_input_skew,
                        r.critical_path_cells,
                        r.static_glitch_factor,
                        r.measured_glitch_factor
                            .map(|g| g.to_string())
                            .unwrap_or_default(),
                        r.static_activity_bound,
                        r.measured_activity
                            .map(|a| a.to_string())
                            .unwrap_or_default(),
                    ));
                }
                out
            }
            Payload::PruneDelta(rows) => {
                let mut out = String::from(
                    "arch,width,cells_before,cells_after,cells_removed,dffs_before,dffs_after,\
                     activity_before,activity_after,ptot_uw_before,ptot_uw_after,ptot_delta_pct\n",
                );
                for r in rows {
                    out.push_str(&format!(
                        "{},{},{},{},{},{},{},{},{},{},{},{}\n",
                        csv_field(&r.arch),
                        r.width,
                        r.cells_before,
                        r.cells_after,
                        r.cells_removed(),
                        r.dffs_before,
                        r.dffs_after,
                        r.activity_before,
                        r.activity_after,
                        r.ptot_uw_before,
                        r.ptot_uw_after,
                        r.ptot_delta_pct(),
                    ));
                }
                out
            }
            Payload::Batch(artifacts) => {
                let mut out = String::new();
                for a in artifacts {
                    out.push_str(&format!("# job: {}\n", a.kind()));
                    out.push_str(&a.to_csv());
                }
                out
            }
            Payload::Rendered { csv, .. } => csv.clone(),
        }
    }
}

/// Quotes a CSV field when it contains a separator, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The typed payload as a JSON tree.
fn payload_data(payload: &Payload) -> Json {
    match payload {
        Payload::Rows { title, rows } => Json::obj([
            ("title", Json::str(title.clone())),
            (
                "rows",
                Json::Arr(rows.iter().map(comparison_value).collect()),
            ),
        ]),
        Payload::Flavors(rows) => Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("flavor", Json::str(r.flavor)),
                        ("vdd_nom_v", Json::num(r.vdd_nom_v)),
                        ("vth0_nom_v", Json::num(r.vth0_nom_v)),
                        ("io_ua", Json::num(r.io_ua)),
                        ("zeta_pf", Json::num(r.zeta_pf)),
                        ("alpha", Json::num(r.alpha)),
                        ("n", Json::num(r.n)),
                    ])
                })
                .collect(),
        ),
        Payload::Scaling { unscaled, scaled } => Json::obj([
            ("unscaled", scaling_value(unscaled)),
            ("scaled", scaling_value(scaled)),
        ]),
        Payload::Sensitivity(rows) => Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("arch", Json::str(r.name)),
                        ("s_activity", Json::num(r.sens.activity)),
                        ("s_cells", Json::num(r.sens.cells)),
                        ("s_logical_depth", Json::num(r.sens.logical_depth)),
                        ("s_frequency", Json::num(r.sens.frequency)),
                        ("s_io", Json::num(r.sens.io)),
                    ])
                })
                .collect(),
        ),
        Payload::Ablation {
            alpha,
            fit,
            optimizer,
            glitch,
        } => Json::obj([
            ("alpha", Json::num(*alpha)),
            (
                "fit_ranges",
                Json::Arr(
                    fit.iter()
                        .map(|r| {
                            Json::obj([
                                ("lo_v", Json::num(r.lo)),
                                ("hi_v", Json::num(r.hi)),
                                ("a", Json::num(r.a)),
                                ("b", Json::num(r.b)),
                                ("max_error", Json::num(r.max_error)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "optimizer",
                Json::Arr(
                    optimizer
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("strategy", Json::str(r.strategy.clone())),
                                ("ptot_uw", Json::num(r.ptot_uw)),
                                ("excess_pct", Json::num(r.excess_pct)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "glitch",
                Json::Arr(
                    glitch
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("arch", Json::str(r.name.clone())),
                                ("activity_timed", Json::num(r.activity_timed)),
                                ("activity_zero_delay", Json::num(r.activity_zero_delay)),
                                ("ptot_timed_uw", Json::num(r.ptot_timed_uw)),
                                ("ptot_zero_delay_uw", Json::num(r.ptot_zero_delay_uw)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Payload::AbInitio(rows) => Json::obj([(
            "rows",
            Json::Arr(rows.iter().map(ab_initio_value).collect()),
        )]),
        Payload::Glitch(sweep) => Json::obj([
            (
                "rows",
                Json::Arr(sweep.rows.iter().map(ab_initio_value).collect()),
            ),
            (
                "frequencies_hz",
                Json::Arr(
                    sweep
                        .frequencies
                        .iter()
                        .map(|f| Json::num(f.value()))
                        .collect(),
                ),
            ),
            ("glitch_aware", result_set_value(&sweep.glitch_aware)),
            ("glitch_free", result_set_value(&sweep.glitch_free)),
            (
                "total_glitch_cost_w",
                Json::num(sweep.total_glitch_cost_w()),
            ),
        ]),
        Payload::Activity { spec, report } => Json::obj([
            ("arch", Json::str(spec.arch.clone())),
            ("width", Json::UInt(spec.width as u64)),
            ("engine", Json::str(engine_name(spec.engine))),
            ("activity", Json::num(report.activity)),
            ("transitions", Json::UInt(report.transitions)),
            ("measured_items", Json::UInt(report.items)),
            ("cells", Json::UInt(report.cells as u64)),
        ]),
        Payload::Figure1(fig) => Json::obj([(
            "curves",
            Json::Arr(
                fig.curves
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("activity", Json::num(c.activity)),
                            ("vdd_opt_v", Json::num(c.optimum.vdd().value())),
                            ("vth_opt_v", Json::num(c.optimum.vth().value())),
                            ("ptot_opt_w", Json::num(c.optimum.ptot().value())),
                            ("dyn_static_ratio", Json::num(c.dyn_static_ratio)),
                            (
                                "points",
                                Json::Arr(
                                    c.points
                                        .iter()
                                        .map(|&(v, p)| Json::Arr(vec![Json::num(v), Json::num(p)]))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Payload::Figure2(fig) => Json::obj([
            (
                "fit",
                Json::obj([
                    ("alpha", Json::num(fig.fit.alpha())),
                    ("a", Json::num(fig.fit.a())),
                    ("b", Json::num(fig.fit.b())),
                    ("max_error", Json::num(fig.fit.max_error())),
                    ("lo_v", Json::num(fig.fit.lo().value())),
                    ("hi_v", Json::num(fig.fit.hi().value())),
                ]),
            ),
            (
                "points",
                Json::Arr(
                    fig.points
                        .iter()
                        .map(|&(v, e, a)| Json::Arr(vec![Json::num(v), Json::num(e), Json::num(a)]))
                        .collect(),
                ),
            ),
        ]),
        Payload::Figure34(fig) => Json::obj([
            ("width", Json::UInt(fig.width as u64)),
            (
                "summaries",
                Json::Arr(
                    fig.summaries
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("style", Json::str(s.style)),
                                ("stages", Json::UInt(u64::from(s.stages))),
                                ("registers", Json::UInt(s.registers as u64)),
                                ("logical_depth", Json::num(s.logical_depth)),
                                ("path_spread", Json::num(s.path_spread)),
                                ("mean_input_skew", Json::num(s.mean_input_skew)),
                                ("activity_timed", Json::num(s.activity_timed)),
                                ("activity_zero_delay", Json::num(s.activity_zero_delay)),
                                ("glitch_factor", Json::num(s.glitch_factor())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Payload::Pareto(fig) => Json::obj([
            (
                "frequencies_hz",
                Json::Arr(
                    fig.frequencies
                        .iter()
                        .map(|f| Json::num(f.value()))
                        .collect(),
                ),
            ),
            ("result", result_set_value(&fig.result)),
            (
                "front",
                Json::Arr(
                    fig.front_points()
                        .into_iter()
                        .map(|(f, tech, arch, ptot)| {
                            Json::obj([
                                ("frequency_hz", Json::num(f)),
                                ("tech", Json::str(tech)),
                                ("arch", Json::str(arch)),
                                ("ptot_w", Json::num(ptot)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Payload::Export(listing) => Json::obj([
            ("dir", Json::str(listing.dir.clone())),
            (
                "files",
                Json::Arr(listing.files.iter().map(Json::str).collect()),
            ),
        ]),
        Payload::Lint(summaries) => {
            // Aggregated per-rule totals over the whole sweep, with
            // every rule ID present even at zero — CI greps for
            // `"L001":0` / `"L002":0` as the dead-logic tripwire.
            const RULE_IDS: [&str; 7] = ["L001", "L002", "L003", "L004", "L005", "L006", "L007"];
            let mut counts = [0u64; RULE_IDS.len()];
            for s in summaries {
                for d in s.report.diagnostics() {
                    if let Some(i) = RULE_IDS.iter().position(|&id| id == d.rule.id()) {
                        counts[i] += 1;
                    }
                }
            }
            let rule_counts = Json::Obj(
                RULE_IDS
                    .iter()
                    .zip(counts)
                    .map(|(&id, n)| (id.to_string(), Json::UInt(n)))
                    .collect(),
            );
            Json::obj([
                ("rule_counts", rule_counts),
                (
                    "netlists",
                    Json::Arr(
                        summaries
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("arch", Json::str(s.arch.clone())),
                                    ("width", Json::UInt(s.width as u64)),
                                    ("cells", Json::UInt(s.report.cell_count() as u64)),
                                    ("nets", Json::UInt(s.report.net_count() as u64)),
                                    ("errors", Json::UInt(s.report.error_count() as u64)),
                                    ("warnings", Json::UInt(s.report.warning_count() as u64)),
                                    (
                                        "diagnostics",
                                        Json::Arr(
                                            s.report
                                                .diagnostics()
                                                .iter()
                                                .map(|d| {
                                                    Json::obj([
                                                        ("id", Json::str(d.rule.id())),
                                                        ("rule", Json::str(d.rule.name())),
                                                        (
                                                            "severity",
                                                            Json::str(d.rule.severity().label()),
                                                        ),
                                                        (
                                                            "cell",
                                                            d.cell
                                                                .map(|c| {
                                                                    Json::UInt(c.index() as u64)
                                                                })
                                                                .unwrap_or(Json::Null),
                                                        ),
                                                        (
                                                            "net",
                                                            d.net
                                                                .map(|n| {
                                                                    Json::UInt(n.index() as u64)
                                                                })
                                                                .unwrap_or(Json::Null),
                                                        ),
                                                        ("message", Json::str(d.message.clone())),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
        Payload::Sta(rows) => {
            let pairs: Vec<(f64, f64)> = rows
                .iter()
                .filter_map(|r| {
                    r.measured_glitch_factor
                        .map(|m| (r.static_glitch_factor, m))
                })
                .collect();
            Json::obj([
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj([
                                    ("arch", Json::str(r.arch.clone())),
                                    ("width", Json::UInt(r.width as u64)),
                                    ("cells", Json::UInt(r.cells as u64)),
                                    ("stride_ticks", Json::UInt(r.stride_ticks)),
                                    ("logical_depth", Json::num(r.logical_depth)),
                                    ("shortest_path", Json::num(r.shortest_path)),
                                    ("path_spread", Json::num(r.path_spread)),
                                    ("mean_input_skew", Json::num(r.mean_input_skew)),
                                    (
                                        "critical_path_cells",
                                        Json::UInt(r.critical_path_cells as u64),
                                    ),
                                    ("static_glitch_factor", Json::num(r.static_glitch_factor)),
                                    (
                                        "measured_glitch_factor",
                                        r.measured_glitch_factor
                                            .map(Json::num)
                                            .unwrap_or(Json::Null),
                                    ),
                                    ("static_activity_bound", Json::num(r.static_activity_bound)),
                                    (
                                        "measured_activity",
                                        r.measured_activity.map(Json::num).unwrap_or(Json::Null),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "static_vs_measured_r",
                    optpower_report::pearson_correlation(&pairs)
                        .map(Json::num)
                        .unwrap_or(Json::Null),
                ),
            ])
        }
        Payload::PruneDelta(rows) => Json::obj([(
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("arch", Json::str(r.arch.clone())),
                            ("width", Json::UInt(r.width as u64)),
                            ("cells_before", Json::UInt(r.cells_before as u64)),
                            ("cells_after", Json::UInt(r.cells_after as u64)),
                            ("cells_removed", Json::UInt(r.cells_removed() as u64)),
                            ("dffs_before", Json::UInt(r.dffs_before as u64)),
                            ("dffs_after", Json::UInt(r.dffs_after as u64)),
                            ("activity_before", Json::num(r.activity_before)),
                            ("activity_after", Json::num(r.activity_after)),
                            ("ptot_uw_before", Json::num(r.ptot_uw_before)),
                            ("ptot_uw_after", Json::num(r.ptot_uw_after)),
                            ("ptot_delta_pct", Json::num(r.ptot_delta_pct())),
                        ])
                    })
                    .collect(),
            ),
        )]),
        Payload::Batch(artifacts) => Json::Arr(
            artifacts
                .iter()
                .map(|a| {
                    Json::obj([
                        ("job", Json::str(a.kind())),
                        ("spec", a.spec.to_json_value()),
                        ("payload", payload_data(&a.payload)),
                    ])
                })
                .collect(),
        ),
        Payload::Rendered { payload, .. } => payload.clone(),
    }
}

fn comparison_value(r: &RowComparison) -> Json {
    Json::obj([
        ("name", Json::str(r.name.clone())),
        ("paper_vdd_v", Json::num(r.paper_vdd)),
        ("vdd_v", Json::num(r.our_vdd)),
        ("paper_vth_v", Json::num(r.paper_vth)),
        ("vth_v", Json::num(r.our_vth)),
        ("paper_ptot_uw", Json::num(r.paper_ptot_uw)),
        ("ptot_uw", Json::num(r.our_ptot_uw)),
        ("paper_eq13_uw", Json::num(r.paper_eq13_uw)),
        ("eq13_uw", Json::num(r.our_eq13_uw)),
        ("paper_err_pct", Json::num(r.paper_err_pct)),
        ("err_pct", Json::num(r.our_err_pct)),
    ])
}

fn scaling_value(rows: &[ScalingRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("f_mhz", Json::num(r.f_mhz)),
                    (
                        "ptot_uw",
                        Json::Arr(
                            r.ptot_uw
                                .iter()
                                .map(|&(node, p)| {
                                    Json::obj([
                                        ("node", Json::str(node)),
                                        ("ptot_uw", Json::num(p)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("winner", r.winner.map(Json::str).unwrap_or(Json::Null)),
                ])
            })
            .collect(),
    )
}

fn ab_initio_value(r: &AbInitioRow) -> Json {
    Json::obj([
        ("arch", Json::str(r.arch.paper_name())),
        ("width", Json::UInt(r.width as u64)),
        ("cells", Json::UInt(r.cells as u64)),
        ("area_um2", Json::num(r.area_um2)),
        ("activity_timed", Json::num(r.activity)),
        ("activity_zero_delay", Json::num(r.activity_zero_delay)),
        ("glitch_factor", Json::num(r.glitch_factor())),
        ("ld_eff", Json::num(r.ld_eff)),
        ("cap_per_cell_f", Json::num(r.cap_per_cell_f)),
        ("vdd_v", Json::num(r.vdd)),
        ("vth_v", Json::num(r.vth)),
        ("ptot_uw", Json::num(r.ptot_uw)),
        ("eq13_uw", Json::num(r.eq13_uw)),
    ])
}

fn result_set_value(rs: &optpower_explore::ResultSet) -> Json {
    Json::obj([(
        "records",
        Json::Arr(
            rs.records()
                .iter()
                .map(|r| {
                    let mut pairs = vec![
                        ("tech".to_string(), Json::str(r.tech)),
                        ("arch".to_string(), Json::str(r.arch.clone())),
                        ("frequency_hz".to_string(), Json::num(r.frequency.value())),
                        ("status".to_string(), Json::str(r.status())),
                    ];
                    if let Some(opt) = r.optimum() {
                        let b = opt.breakdown();
                        pairs.extend([
                            ("vdd_v".to_string(), Json::num(opt.vdd().value())),
                            ("vth_v".to_string(), Json::num(opt.vth().value())),
                            ("pdyn_w".to_string(), Json::num(b.pdyn().value())),
                            ("pstat_w".to_string(), Json::num(b.pstat().value())),
                            ("ptot_w".to_string(), Json::num(opt.ptot().value())),
                            (
                                "energy_per_op_j".to_string(),
                                Json::num(opt.energy_per_item(r.frequency)),
                            ),
                        ]);
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        ),
    )])
}
