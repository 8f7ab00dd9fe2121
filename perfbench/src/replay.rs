//! The traced run's view inside a job: the layer entry points a job
//! reaches, called from outside with that job's inputs, in the order
//! the job calls them, each inside a span named after its crate.
//!
//! Every function here mirrors a step of `optpower_workload::Runtime`
//! (or of the dist worker and coordinator) using only public items, so
//! its results are bit-identical to the job's. The benchmark checks
//! that on every traced job it can compare.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;

use optpower::{ArchParams, PowerModel};
use optpower_dist::assign_host;
use optpower_explore::{
    available_workers, measure_timed_activity_pooled, par_map, TimedPoolConfig, Workers,
};
use optpower_mult::{Architecture, MultiplierDesign};
use optpower_netlist::{Library, NetlistStats};
use optpower_report::extended::{scaling_study_parallel, sensitivity_report_parallel};
use optpower_report::{
    figure_pareto, glitch_sweep_from_rows, table1_parallel, AbInitioRow, CharacterizeConfig,
};
use optpower_sim::{measure_activity, Engine, VcdRecorder, ZeroDelaySim};
use optpower_sta::{GlitchProfile, LintReport, TimingAnalysis};
use optpower_tech::{Flavor, Technology};
use optpower_units::{Farads, Hertz};
use optpower_workload::{AbInitioSpec, Artifact, JobSpec, Payload, RunMeta, Runtime};

use crate::trace::Ctx;
use crate::Error;

/// `Architecture::generate` (incl. the dead-cone prune).
pub const GENERATE: &str = "mult.generate";
/// `LintReport::lint`.
pub const LINT: &str = "sta.lint";
/// `TimingAnalysis::analyze`.
pub const ANALYZE: &str = "sta.analyze";
/// `measure_timed_activity_pooled`.
pub const TIMED: &str = "sim.timed";
/// `measure_activity` on the glitch-free baseline engine.
pub const BITPARALLEL: &str = "sim.bitparallel";
/// `PowerModel::optimize`.
pub const OPTIMIZE: &str = "core.optimize";
/// The pooled design-space sweeps.
pub const SWEEP: &str = "explore.sweep";
/// `Runtime::cache_lookup`.
pub const CACHE_LOOKUP: &str = "workload.cache_lookup";
/// `JobSpec::from_json` + `canonical_key`.
pub const SPEC_PARSE: &str = "workload.spec_parse";
/// `Artifact::payload_json` / `to_json` / `to_csv` / `render_text`.
pub const RENDER: &str = "workload.render";
/// `JobSpec::shard`.
pub const SHARD: &str = "dist.shard";
/// `Artifact::from_payload_json` + `Artifact::merge_shards`.
pub const MERGE: &str = "dist.merge";
/// Report-layer jobs that reach no other named layer (tables 2–4,
/// figures, ablation), run whole through a cacheless `Runtime`.
pub const REPORT: &str = "report.run";

/// The paper's working point, as the runtime characterizes at it.
const FREQ_HZ: f64 = 31.25e6;

/// Row-cache identity: everything in [`CharacterizeConfig`] that
/// decides a row, except scheduling.
type RowKey = (Architecture, usize, u32, String, String, u64, u64);

fn row_key(arch: Architecture, c: &CharacterizeConfig) -> RowKey {
    (
        arch,
        c.width,
        c.lanes,
        format!("{:?}", c.baseline),
        format!("{:?}", c.plane),
        c.items,
        c.seed,
    )
}

/// Rows a job has already characterized — the runtime's incremental
/// row cache, as seen from outside.
pub type Rows = HashMap<RowKey, AbInitioRow>;

/// Resolves a spec's architecture list (`None` = all thirteen).
pub fn archs(names: &Option<Vec<String>>) -> Result<Vec<Architecture>, Error> {
    match names {
        None => Ok(Architecture::ALL.to_vec()),
        Some(names) => names
            .iter()
            .map(|n| {
                Architecture::from_paper_name(n).ok_or_else(|| format!("unknown arch {n}").into())
            })
            .collect(),
    }
}

fn generate(ctx: &Ctx<'_>, arch: Architecture, width: usize) -> Result<MultiplierDesign, Error> {
    Ok(ctx.counted(GENERATE, || (arch.generate(width), 1))?)
}

/// The runtime's lint preflight on a fresh netlist.
fn preflight(ctx: &Ctx<'_>, arch: Architecture, width: usize) -> Result<(), Error> {
    let design = generate(ctx, arch, width)?;
    let report = ctx.layer(LINT, || LintReport::lint(&design.netlist));
    report
        .gate()
        .map_err(|_| format!("{} fails lint", design.netlist.name()).into())
}

/// One architecture's characterization, step by step as
/// `characterize_design_with` runs it.
fn characterize_design(
    ctx: &Ctx<'_>,
    design: &MultiplierDesign,
    config: &CharacterizeConfig,
) -> Result<AbInitioRow, Error> {
    let lib = Library::cmos13();
    let tech = Technology::stm_cmos09(Flavor::LowLeakage);
    let (baseline_engine, baseline_items) = config.resolved_baseline()?;
    let stats = NetlistStats::measure(&design.netlist, &lib);
    let sta = ctx.layer(ANALYZE, || TimingAnalysis::analyze(&design.netlist, &lib));
    let native = match config.baseline {
        Engine::BitParallel => Some(64),
        Engine::BitParallel256 => Some(256),
        Engine::BitParallel512 => Some(512),
        _ => None,
    };
    let timed_items = native.map_or(config.items, |n| config.items * n / 64);
    let timed_config = TimedPoolConfig {
        lanes: config.lanes,
        items_per_lane: timed_items.div_ceil(u64::from(config.lanes)).max(1),
        cycles_per_item: design.cycles_per_item,
        warmup: 4,
        seed: config.seed,
        workers: config.workers,
    };
    let timed = ctx.counted(TIMED, || {
        let r = measure_timed_activity_pooled(&design.netlist, &lib, &timed_config);
        let n = r.as_ref().map_or(0, |r| r.items);
        (r, n)
    })?;
    let zd = ctx.counted(BITPARALLEL, || {
        let r = measure_activity(
            &design.netlist,
            &lib,
            baseline_engine,
            baseline_items,
            design.cycles_per_item,
            4,
            config.seed,
        );
        let n = r.as_ref().map_or(0, |r| r.items);
        (r, n)
    })?;
    let ld_eff = design.effective_logical_depth(sta.logical_depth());
    let params = ArchParams::builder(design.arch.paper_name())
        .cells(stats.logic_cells as u32)
        .activity(timed.activity)
        .logical_depth(ld_eff)
        .cap_per_cell(Farads::new(stats.avg_switched_cap_f))
        .build()?;
    let model = PowerModel::from_technology(tech, params, Hertz::new(FREQ_HZ))?;
    let opt = ctx.layer(OPTIMIZE, || model.optimize())?;
    let eq13_uw = model
        .closed_form()
        .map(|cf| cf.ptot.value() * 1e6)
        .unwrap_or(f64::NAN);
    Ok(AbInitioRow {
        arch: design.arch,
        width: design.width,
        cells: stats.logic_cells,
        area_um2: stats.area_um2,
        activity: timed.activity,
        activity_zero_delay: zd.activity,
        cap_per_cell_f: stats.avg_switched_cap_f,
        ld_eff,
        vdd: opt.vdd().value(),
        vth: opt.vth().value(),
        ptot_uw: opt.ptot().value() * 1e6,
        eq13_uw,
    })
}

/// `characterize_parallel_with` behind the row cache: rows already
/// in `rows` are reused, the rest run with the runtime's two-level
/// worker split (architectures outside, timed lanes inside).
fn characterize(
    ctx: &Ctx<'_>,
    list: &[Architecture],
    config: &CharacterizeConfig,
    rows: &mut Rows,
) -> Result<Vec<AbInitioRow>, Error> {
    let missing: Vec<Architecture> = list
        .iter()
        .copied()
        .filter(|&a| !rows.contains_key(&row_key(a, config)))
        .collect();
    let total = match config.workers {
        Workers::Auto => available_workers(),
        Workers::Fixed(n) => n.max(1),
    };
    let outer = total.clamp(1, missing.len().max(1));
    let inner = CharacterizeConfig {
        workers: Workers::Fixed((total / outer).max(1)),
        ..*config
    };
    let fresh = par_map(&missing, outer, |&arch| {
        let design = generate(ctx, arch, config.width)?;
        characterize_design(ctx, &design, &inner)
    });
    for row in fresh {
        let row = row?;
        rows.insert(row_key(row.arch, config), row);
    }
    Ok(list
        .iter()
        .map(|&a| rows[&row_key(a, config)].clone())
        .collect())
}

/// The `ab_initio` job: preflight every architecture, characterize.
pub fn ab_initio(
    ctx: &Ctx<'_>,
    s: &AbInitioSpec,
    workers: Workers,
    rows: &mut Rows,
) -> Result<Vec<AbInitioRow>, Error> {
    let list = archs(&s.archs)?;
    for &arch in &list {
        preflight(ctx, arch, s.width)?;
    }
    let config = CharacterizeConfig {
        width: s.width,
        lanes: s.lanes,
        baseline: s.engine,
        plane: s.plane,
        items: s.items,
        seed: s.seed,
        workers: s.workers.map_or(workers, Workers::Fixed),
    };
    characterize(ctx, &list, &config, rows)
}

/// One batch member, replayed. `rt` is a cacheless runtime for the
/// report-layer members.
pub fn member(ctx: &Ctx<'_>, spec: &JobSpec, rt: &Runtime, rows: &mut Rows) -> Result<(), Error> {
    let workers = rt.pool().policy();
    match spec {
        JobSpec::Table1Sweep { archs: None } => {
            ctx.layer(SWEEP, || table1_parallel(workers))?;
        }
        JobSpec::ScalingStudy { frequencies_mhz } => ctx
            .layer(SWEEP, || {
                scaling_study_parallel(frequencies_mhz, false, workers)
                    .and_then(|_| scaling_study_parallel(frequencies_mhz, true, workers))
            })
            .map(drop)?,
        JobSpec::Sensitivity => {
            ctx.layer(SWEEP, || sensitivity_report_parallel(workers))?;
        }
        JobSpec::Pareto { freq_points } => {
            ctx.layer(SWEEP, || figure_pareto(*freq_points, workers))?;
        }
        JobSpec::AbInitio(s) => {
            ab_initio(ctx, s, workers, rows)?;
        }
        JobSpec::GlitchSweep(s) => {
            let list = archs(&s.archs)?;
            let mut all = Vec::new();
            for &width in &s.widths {
                let subset: Vec<Architecture> = list
                    .iter()
                    .copied()
                    .filter(|a| s.archs.is_some() || a.supports_width(width))
                    .collect();
                for &arch in &subset {
                    preflight(ctx, arch, width)?;
                }
                let config = CharacterizeConfig {
                    width,
                    lanes: s.lanes,
                    baseline: s.engine,
                    plane: s.plane,
                    items: s.items,
                    seed: s.seed,
                    workers: s.workers.map_or(workers, Workers::Fixed),
                };
                all.extend(characterize(ctx, &subset, &config, rows)?);
            }
            ctx.layer(SWEEP, || {
                glitch_sweep_from_rows(all, s.freq_points, workers)
            })?;
        }
        JobSpec::ActivityMeasure(s) => {
            let arch = Architecture::from_paper_name(&s.arch).ok_or("unknown arch")?;
            let design = generate(ctx, arch, s.width)?;
            ctx.layer(LINT, || LintReport::lint(&design.netlist));
            let name = match s.engine {
                Engine::Timed | Engine::TimedScalar => TIMED,
                _ => BITPARALLEL,
            };
            ctx.counted(name, || {
                let r = measure_activity(
                    &design.netlist,
                    &Library::cmos13(),
                    s.engine,
                    s.items,
                    design.cycles_per_item,
                    s.warmup,
                    s.seed,
                );
                let n = r.as_ref().map_or(0, |r| r.items);
                (r, n)
            })?;
        }
        JobSpec::Lint(s) => {
            let widths = s.widths.clone().unwrap_or_else(|| (2..=32).collect());
            for arch in archs(&s.archs)? {
                for &width in widths.iter().filter(|&&w| arch.supports_width(w)) {
                    let design = generate(ctx, arch, width)?;
                    ctx.layer(LINT, || LintReport::lint(&design.netlist));
                }
            }
        }
        JobSpec::Sta(s) => {
            let list = archs(&s.archs)?;
            if s.items > 0 {
                let config = CharacterizeConfig {
                    width: s.width,
                    lanes: s.lanes,
                    baseline: Engine::BitParallel,
                    plane: optpower_report::PlaneTiling::Fixed(64),
                    items: s.items,
                    seed: s.seed,
                    workers: s.workers.map_or(workers, Workers::Fixed),
                };
                characterize(ctx, &list, &config, rows)?;
            }
            let lib = Library::cmos13();
            for arch in list {
                let design = generate(ctx, arch, s.width)?;
                ctx.layer(LINT, || LintReport::lint(&design.netlist));
                let sta = ctx.layer(ANALYZE, || {
                    TimingAnalysis::try_analyze(&design.netlist, &lib)
                })?;
                black_box(GlitchProfile::compute(&design.netlist, &sta));
                black_box(sta.critical_path(&design.netlist, &lib));
            }
        }
        JobSpec::Export => export(ctx, rt)?,
        _ => {
            ctx.layer(REPORT, || rt.run(spec))?;
        }
    }
    Ok(())
}

/// The export job: Verilog + DOT per architecture and a short VCD,
/// written under the runtime's artifact directory.
fn export(ctx: &Ctx<'_>, rt: &Runtime) -> Result<(), Error> {
    let dir = rt.artifact_dir();
    std::fs::create_dir_all(dir)?;
    for arch in Architecture::ALL {
        let design = generate(ctx, arch, 16)?;
        let stem = design.netlist.name().to_string();
        std::fs::write(
            dir.join(format!("{stem}.v")),
            optpower_netlist::to_verilog(&design.netlist),
        )?;
        std::fs::write(
            dir.join(format!("{stem}.dot")),
            optpower_netlist::to_dot(&design.netlist, |_| None),
        )?;
    }
    let design = generate(ctx, Architecture::Rca, 16)?;
    let mut sim = ZeroDelaySim::new(&design.netlist);
    let mut vcd = VcdRecorder::all_nets(&design.netlist);
    for i in 0..32u64 {
        sim.set_input_bits("a", (i * 2654435761) & 0xFFFF);
        sim.set_input_bits("b", (i * 40503) & 0xFFFF);
        sim.step();
        vcd.sample(&sim);
    }
    std::fs::write(dir.join("rca.vcd"), vcd.finish())?;
    Ok(())
}

/// A `batch_cold` pass, replayed member by member against a runtime
/// whose cache starts empty: `hits` holds the artifacts of members that
/// repeat within the pass (computed before the job so the repeat's
/// lookup finds them), `empty` stands for the cache a first occurrence
/// misses in.
pub fn batch(
    ctx: &Ctx<'_>,
    pass: &JobSpec,
    rt: &Runtime,
    empty: &Runtime,
    hits: &Runtime,
) -> Result<(), Error> {
    let JobSpec::Batch(jobs) = pass else {
        return Err("a batch_cold pass is a batch".into());
    };
    lookup(ctx, empty, pass);
    let mut seen = HashSet::new();
    let mut rows = Rows::new();
    for job in jobs {
        if !seen.insert(job.canonical_key()) {
            lookup(ctx, hits, job).ok_or("a repeated member is a cache hit")?;
            continue;
        }
        lookup(ctx, empty, job);
        member(ctx, job, rt, &mut rows)?;
    }
    Ok(())
}

/// A dist worker's handling of one assigned shard: parse it, run it on
/// a one-worker runtime, render the shard result.
fn worker_shard(ctx: &Ctx<'_>, part: &JobSpec) -> Result<String, Error> {
    let part = parse(ctx, &part.to_json())?;
    let JobSpec::AbInitio(s) = &part else {
        return Err("ab_initio shards are ab_initio specs".into());
    };
    let rows = ab_initio(ctx, s, Workers::Fixed(1), &mut Rows::new())?;
    let artifact = Artifact {
        spec: part.clone(),
        payload: Payload::AbInitio(rows),
        meta: RunMeta {
            seed: Some(s.seed),
            workers: 1,
            engine: None,
            wall_ms: 0.0,
            cache: None,
            row_cache: None,
            dist: None,
        },
    };
    let mut out = render(ctx, || {
        vec![
            artifact.payload_json(),
            artifact.to_csv(),
            artifact.render_text(),
        ]
    });
    Ok(out.swap_remove(0))
}

/// `Runtime::cache_lookup`, counting a hit as one unit of work.
pub fn lookup(ctx: &Ctx<'_>, rt: &Runtime, spec: &JobSpec) -> Option<Artifact> {
    ctx.counted(CACHE_LOOKUP, || {
        let hit = rt.cache_lookup(spec);
        let n = u64::from(hit.is_some());
        (hit, n)
    })
}

/// `JobSpec::from_json` + `canonical_key`, as the server does with a
/// request body and a worker with an assigned shard.
pub fn parse(ctx: &Ctx<'_>, text: &str) -> Result<JobSpec, Error> {
    Ok(ctx.layer(SPEC_PARSE, || {
        JobSpec::from_json(text).inspect(|s| {
            black_box(s.canonical_key());
        })
    })?)
}

/// Renders an artifact as the server or a worker does, counting the
/// bytes produced.
pub fn render(ctx: &Ctx<'_>, parts: impl FnOnce() -> Vec<String>) -> Vec<String> {
    ctx.counted(RENDER, || {
        let out = parts();
        let n = out.iter().map(|s| s.len() as u64).sum();
        (out, n)
    })
}

/// One `characterize_sharded` job, replayed: the coordinator shards
/// and places each shard on a host by rendezvous hash; each host's
/// worker, on its own thread, parses, characterizes and renders its
/// shards one after another; the coordinator re-parses and merges the
/// shard payloads and renders the result. Returns the merged payload
/// JSON.
pub fn sharded(ctx: &Ctx<'_>, spec: &JobSpec, hosts: &[String]) -> Result<String, Error> {
    let placed = ctx.layer(SHARD, || -> Result<Vec<Vec<JobSpec>>, Error> {
        let mut placed = vec![Vec::new(); hosts.len()];
        for part in spec.shard(hosts.len())? {
            let host = assign_host(hosts, &part.canonical_key());
            let h = hosts.iter().position(|x| x == host).expect("a listed host");
            placed[h].push(part);
        }
        Ok(placed)
    })?;
    let per_host = par_map(&placed, hosts.len(), |parts| {
        parts
            .iter()
            .map(|part| worker_shard(ctx, part))
            .collect::<Result<Vec<String>, Error>>()
    });
    // Merge order does not matter: rows are keyed by grid coordinates.
    let mut payloads = Vec::new();
    for host in per_host {
        payloads.extend(host?);
    }
    let merged = ctx.layer(MERGE, || {
        let parts = payloads
            .iter()
            .map(|p| Artifact::from_payload_json(p))
            .collect::<Result<Vec<_>, _>>()?;
        Artifact::merge_shards(spec, parts, Workers::Auto)
    })?;
    let mut out = render(ctx, || {
        vec![
            merged.payload_json(),
            merged.to_json(),
            merged.to_csv(),
            merged.render_text(),
        ]
    });
    Ok(out.swap_remove(0))
}
