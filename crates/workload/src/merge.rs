//! Reassembling shard artifacts into the single-host envelope.
//!
//! The inverse of [`JobSpec::shard`]: given the artifacts the shard
//! specs produced — in *any* order — rebuild the artifact the
//! unsharded spec would have produced, bit for bit. A coordinator
//! first turns each worker's [`ShardResult`] into an [`Artifact`]
//! ([`Artifact::from_shard_result`]), so every kind takes the one
//! merge path, [`Artifact::merge_shards`]. Three properties carry the
//! whole module:
//!
//! * **typed reconstruction** — `ab_initio` and `table1_sweep` shard
//!   payloads are re-parsed into the real row types ([`AbInitioRow`],
//!   [`RowComparison`]), and because the JSON writer uses
//!   shortest-round-trip float formatting, `parse(write(x)) == x`
//!   exactly, so the merged rendering is byte-identical to the
//!   single-host one;
//! * **rendered pass-through** — every other kind comes back as
//!   [`Payload::Rendered`], the worker's own payload value, CSV and
//!   text. Such a shard is always a whole job or a whole batch member,
//!   so its bytes are reused as they are, never recombined;
//! * **spec-derived order** — the merge orders rows by the original
//!   spec's resolution order (the same order [`JobSpec::shard`] cut
//!   along), never by shard arrival order, so a retried or reordered
//!   shard cannot change the output.
//!
//! The underlying combination rules are the worker-count-invariant
//! ones the rest of the workspace already exposes: row union for the
//! characterization grids, and the frequency sweep rebuilt from merged
//! rows via [`glitch_sweep_from_rows`] (whose
//! [`optpower_explore::ResultSet`] grids are themselves concatenations
//! of contiguous slices — see `ResultSet::concat`).

use std::collections::HashMap;

use optpower_explore::Workers;
use optpower_mult::Architecture;
use optpower_report::{glitch_sweep_from_rows, table1_names, AbInitioRow, RowComparison};

use crate::artifact::{Artifact, Payload, RunMeta, ARTIFACT_SCHEMA};
use crate::error::{SpecError, WorkloadError};
use crate::json::Json;
use crate::runtime::{resolve_archs, resolve_table1_names, resolved, TABLE1_TITLE};
use crate::shard::glitch_cells;
use crate::spec::{engine_name, JobSpec};
use crate::wire::ShardResult;

impl Artifact {
    /// Merges shard artifacts back into the artifact `spec` would have
    /// produced on one host. `shards` may arrive in any order and may
    /// contain duplicates (a raced retry); rows are keyed by their
    /// grid coordinates and emitted in the spec's own resolution
    /// order, so the merged [`Artifact::payload_json`] /
    /// [`Artifact::to_csv`] / [`Artifact::render_text`] are
    /// byte-identical to the single-host run. A single shard whose
    /// spec is the whole job (a batch included) passes through as it
    /// is; only its `meta.workers` is restamped.
    ///
    /// Meta is rebuilt from the spec (seed/engine as the runtime
    /// stamps them) with `wall_ms` zero and no cache/dist fields — the
    /// coordinator owns those.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] when the shard set does not cover the
    /// spec's grid, covers cells the spec never asked for, or carries
    /// payloads of the wrong kind.
    pub fn merge_shards(
        spec: &JobSpec,
        mut shards: Vec<Artifact>,
        workers: Workers,
    ) -> Result<Artifact, WorkloadError> {
        let mut meta = blank_meta(resolved(workers));
        let payload = match spec {
            JobSpec::AbInitio(s) => {
                meta.seed = Some(s.seed);
                meta.engine = Some(engine_name(s.engine));
                let order: Vec<(usize, String)> = resolve_archs(&s.archs)?
                    .iter()
                    .map(|a| (s.width, a.paper_name().to_string()))
                    .collect();
                Payload::AbInitio(collect_rows(&order, shards)?)
            }
            JobSpec::GlitchSweep(s) => {
                meta.seed = Some(s.seed);
                meta.engine = Some(engine_name(s.engine));
                let rows = collect_rows(&glitch_cells(s)?, shards)?;
                Payload::Glitch(glitch_sweep_from_rows(rows, s.freq_points, workers)?)
            }
            JobSpec::Table1Sweep { archs } => {
                let order: Vec<String> = match archs {
                    Some(names) => {
                        resolve_table1_names(names)?;
                        names.clone()
                    }
                    None => table1_names().iter().map(|&s| s.to_string()).collect(),
                };
                let mut by_name: HashMap<String, RowComparison> = HashMap::new();
                for shard in shards {
                    let Payload::Rows { rows, .. } = shard.payload else {
                        return Err(wrong_kind(spec, &shard).into());
                    };
                    for row in rows {
                        by_name.entry(row.name.clone()).or_insert(row);
                    }
                }
                let rows = order
                    .iter()
                    .map(|name| {
                        by_name.remove(name).ok_or_else(|| {
                            SpecError::new(format!("shard results missing row {name:?}"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Payload::Rows {
                    title: TABLE1_TITLE.to_string(),
                    rows,
                }
            }
            // The n = 1 path of every other kind: the single shard IS
            // the artifact.
            _ if shards.len() == 1 && shards[0].spec.canonical_json() == spec.canonical_json() => {
                let mut whole = shards.remove(0);
                whole.meta.workers = meta.workers;
                return Ok(whole);
            }
            JobSpec::Batch(jobs) => {
                let mut by_key: HashMap<String, Artifact> = HashMap::new();
                for shard in shards {
                    by_key.entry(shard.spec.canonical_json()).or_insert(shard);
                }
                let members = jobs
                    .iter()
                    .map(|job| {
                        by_key.get(&job.canonical_json()).cloned().ok_or_else(|| {
                            SpecError::new(format!(
                                "shard results missing batch member {:?}",
                                job.kind()
                            ))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Payload::Batch(members)
            }
            _ => {
                return Err(SpecError::new(format!(
                    "job {:?} does not shard; expected exactly one shard result for it",
                    spec.kind()
                ))
                .into())
            }
        };
        Ok(Artifact {
            spec: spec.clone(),
            payload,
            meta,
        })
    }

    /// Re-parses an [`Artifact::payload_json`] document back into a
    /// typed artifact — the coordinator's inverse of the wire
    /// rendering, for the kinds whose shards merge row by row
    /// (`ab_initio` characterization rows and `table1_sweep`
    /// comparison rows). Numbers round-trip exactly (the writer uses
    /// shortest-round-trip formatting and `null` encodes NaN), so
    /// re-rendering the parsed artifact reproduces the input bytes.
    /// Meta is zeroed: the payload document never carried any.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] on schema mismatch, a kind without a
    /// typed re-parser, or malformed rows.
    pub fn from_payload_json(text: &str) -> Result<Artifact, WorkloadError> {
        let (spec, payload) = parse_document(text)?;
        typed_artifact(spec, &payload)
    }

    /// Turns one worker's [`ShardResult`] for the assigned `shard` spec
    /// into an artifact [`Artifact::merge_shards`] accepts. An
    /// `ab_initio` or `table1_sweep` shard re-parses typed, as in
    /// [`Artifact::from_payload_json`]; every other kind becomes a
    /// [`Payload::Rendered`] of the worker's payload value, CSV and
    /// text. Meta carries the worker's wall time and cache counters.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Spec`] when the payload document is malformed,
    /// has another schema, or answers any spec but `shard` — a worker
    /// can never make the coordinator serve another job's bytes.
    pub fn from_shard_result(
        shard: &JobSpec,
        result: &ShardResult,
    ) -> Result<Artifact, WorkloadError> {
        let (spec, payload) = parse_document(&result.payload_json)?;
        if spec.canonical_json() != shard.canonical_json() {
            return Err(SpecError::new(format!(
                "shard result answers a {:?} spec ({}), not the assigned {:?} shard ({})",
                spec.kind(),
                spec.canonical_key(),
                shard.kind(),
                shard.canonical_key()
            ))
            .into());
        }
        let mut artifact = match spec {
            JobSpec::AbInitio(_) | JobSpec::Table1Sweep { .. } => typed_artifact(spec, &payload)?,
            spec => Artifact {
                spec,
                payload: Payload::Rendered {
                    payload,
                    csv: result.csv.clone(),
                    text: result.text.clone(),
                },
                meta: blank_meta(1),
            },
        };
        artifact.meta.wall_ms = result.wall_ms;
        artifact.meta.cache = result.cache;
        artifact.meta.row_cache = result.row_cache;
        Ok(artifact)
    }
}

/// Splits an artifact payload document into its spec and its
/// `payload` value, checking the schema tag.
fn parse_document(text: &str) -> Result<(JobSpec, Json), WorkloadError> {
    let doc = Json::parse(text).map_err(|e| SpecError::new(e.to_string()))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != ARTIFACT_SCHEMA {
        return Err(SpecError::new(format!(
            "unsupported artifact schema {schema:?} (expected {ARTIFACT_SCHEMA:?})"
        ))
        .into());
    }
    let spec = JobSpec::from_json_value(
        doc.get("spec")
            .ok_or_else(|| SpecError::new("artifact document needs a \"spec\" object"))?,
    )?;
    let payload = doc
        .get("payload")
        .cloned()
        .ok_or_else(|| SpecError::new("artifact document needs a \"payload\" field"))?;
    Ok((spec, payload))
}

/// The typed artifact of a row-merged kind's payload value.
fn typed_artifact(spec: JobSpec, payload: &Json) -> Result<Artifact, WorkloadError> {
    let typed = match &spec {
        JobSpec::AbInitio(_) => Payload::AbInitio(
            rows_array(payload)?
                .iter()
                .map(ab_initio_row)
                .collect::<Result<Vec<_>, _>>()?,
        ),
        JobSpec::Table1Sweep { .. } => {
            let title = payload
                .get("title")
                .and_then(Json::as_str)
                .ok_or_else(|| SpecError::new("rows payload needs a string \"title\""))?
                .to_string();
            Payload::Rows {
                title,
                rows: rows_array(payload)?
                    .iter()
                    .map(comparison_row)
                    .collect::<Result<Vec<_>, _>>()?,
            }
        }
        other => {
            return Err(SpecError::new(format!(
                "job kind {:?} has no typed shard re-parser",
                other.kind()
            ))
            .into())
        }
    };
    Ok(Artifact {
        spec,
        payload: typed,
        meta: blank_meta(1),
    })
}

/// Run metadata with nothing stamped but the worker count.
fn blank_meta(workers: usize) -> RunMeta {
    RunMeta {
        seed: None,
        workers,
        engine: None,
        wall_ms: 0.0,
        cache: None,
        row_cache: None,
        dist: None,
    }
}

/// Pools ab-initio rows from every shard and emits them in grid
/// order. Duplicate coverage (a raced retry) keeps the first copy —
/// all copies are bit-identical by determinism.
fn collect_rows(
    order: &[(usize, String)],
    shards: Vec<Artifact>,
) -> Result<Vec<AbInitioRow>, WorkloadError> {
    let mut by_cell: HashMap<(usize, String), AbInitioRow> = HashMap::new();
    for shard in shards {
        let Payload::AbInitio(rows) = shard.payload else {
            return Err(SpecError::new(format!(
                "shard for job {:?} returned a non-characterization payload",
                shard.spec.kind()
            ))
            .into());
        };
        for row in rows {
            by_cell
                .entry((row.width, row.arch.paper_name().to_string()))
                .or_insert(row);
        }
    }
    order
        .iter()
        .map(|cell| {
            by_cell.remove(cell).ok_or_else(|| {
                SpecError::new(format!(
                    "shard results missing {} at width {}",
                    cell.1, cell.0
                ))
                .into()
            })
        })
        .collect()
}

fn wrong_kind(spec: &JobSpec, shard: &Artifact) -> SpecError {
    SpecError::new(format!(
        "shard artifact of kind {:?} does not belong to job {:?}",
        shard.spec.kind(),
        spec.kind()
    ))
}

fn rows_array(payload: &Json) -> Result<&[Json], WorkloadError> {
    payload
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| SpecError::new("payload needs a \"rows\" array").into())
}

/// Reads a numeric row field, decoding the writer's `null` as NaN.
fn f64_or_nan(row: &Json, key: &str) -> Result<f64, WorkloadError> {
    match row.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SpecError::new(format!("row field {key:?} must be a number")).into()),
        None => Err(SpecError::new(format!("row is missing field {key:?}")).into()),
    }
}

fn uint(row: &Json, key: &str) -> Result<u64, WorkloadError> {
    row.get(key).and_then(Json::as_u64).ok_or_else(|| {
        SpecError::new(format!("row field {key:?} must be an unsigned integer")).into()
    })
}

/// One `ab_initio` payload row back to the typed form. The derived
/// `glitch_factor` field is skipped — it re-derives from the parsed
/// activities.
fn ab_initio_row(row: &Json) -> Result<AbInitioRow, WorkloadError> {
    let name = row
        .get("arch")
        .and_then(Json::as_str)
        .ok_or_else(|| SpecError::new("row needs a string \"arch\""))?;
    let arch = Architecture::from_paper_name(name).ok_or_else(|| {
        SpecError::new(format!(
            "unknown architecture {name:?} (Table 1 paper names expected)"
        ))
    })?;
    Ok(AbInitioRow {
        arch,
        width: uint(row, "width")? as usize,
        cells: uint(row, "cells")? as usize,
        area_um2: f64_or_nan(row, "area_um2")?,
        activity: f64_or_nan(row, "activity_timed")?,
        activity_zero_delay: f64_or_nan(row, "activity_zero_delay")?,
        cap_per_cell_f: f64_or_nan(row, "cap_per_cell_f")?,
        ld_eff: f64_or_nan(row, "ld_eff")?,
        vdd: f64_or_nan(row, "vdd_v")?,
        vth: f64_or_nan(row, "vth_v")?,
        ptot_uw: f64_or_nan(row, "ptot_uw")?,
        eq13_uw: f64_or_nan(row, "eq13_uw")?,
    })
}

/// One comparison payload row back to the typed form.
fn comparison_row(row: &Json) -> Result<RowComparison, WorkloadError> {
    Ok(RowComparison {
        name: row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError::new("row needs a string \"name\""))?
            .to_string(),
        paper_vdd: f64_or_nan(row, "paper_vdd_v")?,
        our_vdd: f64_or_nan(row, "vdd_v")?,
        paper_vth: f64_or_nan(row, "paper_vth_v")?,
        our_vth: f64_or_nan(row, "vth_v")?,
        paper_ptot_uw: f64_or_nan(row, "paper_ptot_uw")?,
        our_ptot_uw: f64_or_nan(row, "ptot_uw")?,
        paper_eq13_uw: f64_or_nan(row, "paper_eq13_uw")?,
        our_eq13_uw: f64_or_nan(row, "eq13_uw")?,
        paper_err_pct: f64_or_nan(row, "paper_err_pct")?,
        our_err_pct: f64_or_nan(row, "err_pct")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AbInitioSpec;
    use optpower_explore::Workers;

    /// A synthetic characterization row (no simulation needed: every
    /// field is public and the merge never recomputes).
    fn row(arch: Architecture, width: usize, salt: f64) -> AbInitioRow {
        AbInitioRow {
            arch,
            width,
            cells: 100 + width,
            area_um2: 1234.5 + salt,
            activity: 1.5 + salt,
            activity_zero_delay: 1.1 + salt,
            cap_per_cell_f: 1.9e-15,
            ld_eff: 12.0 + salt,
            vdd: 0.5,
            vth: 0.3,
            ptot_uw: 10.0 + salt,
            eq13_uw: if arch == Architecture::Sequential {
                f64::NAN
            } else {
                9.0 + salt
            },
        }
    }

    fn shard_artifact(spec: JobSpec, payload: Payload) -> Artifact {
        Artifact {
            spec,
            payload,
            meta: RunMeta {
                seed: None,
                workers: 1,
                engine: None,
                wall_ms: 7.0,
                cache: None,
                row_cache: None,
                dist: None,
            },
        }
    }

    /// Shard order never matters: merging in any permutation (and with
    /// a duplicated shard, as after a raced retry) yields byte-equal
    /// renderings.
    #[test]
    fn ab_initio_merge_is_order_invariant() {
        let spec = JobSpec::AbInitio(AbInitioSpec {
            archs: Some(vec![
                "RCA".to_string(),
                "Wallace".to_string(),
                "Sequential".to_string(),
            ]),
            ..AbInitioSpec::default()
        });
        let shards = spec.shard(3).unwrap();
        let make = |i: usize| {
            let JobSpec::AbInitio(s) = &shards[i] else {
                panic!()
            };
            let names = s.archs.as_ref().unwrap();
            let rows = names
                .iter()
                .map(|n| row(Architecture::from_paper_name(n).unwrap(), s.width, i as f64))
                .collect();
            shard_artifact(shards[i].clone(), Payload::AbInitio(rows))
        };
        let forward =
            Artifact::merge_shards(&spec, vec![make(0), make(1), make(2)], Workers::Fixed(1))
                .unwrap();
        let shuffled = Artifact::merge_shards(
            &spec,
            vec![make(2), make(0), make(1), make(0)],
            Workers::Fixed(2),
        )
        .unwrap();
        assert_eq!(forward.payload_json(), shuffled.payload_json());
        assert_eq!(forward.to_csv(), shuffled.to_csv());
        assert_eq!(forward.render_text(), shuffled.render_text());
        // NaN eq13 survives the round trip through the payload parser.
        let reparsed = Artifact::from_payload_json(&forward.payload_json()).unwrap();
        assert_eq!(reparsed.payload_json(), forward.payload_json());
        // A missing architecture is a typed error, not a short table.
        let err = Artifact::merge_shards(&spec, vec![make(0)], Workers::Fixed(1)).unwrap_err();
        assert!(matches!(err, WorkloadError::Spec(_)), "{err:?}");
    }

    /// Table 1 shards reassemble in published-row order regardless of
    /// arrival order, under the full-table spec (`archs: None`).
    #[test]
    fn table1_merge_orders_rows_by_the_published_table() {
        let spec = JobSpec::Table1Sweep { archs: None };
        let shards = spec.shard(4).unwrap();
        let mut artifacts: Vec<Artifact> = shards
            .iter()
            .map(|shard| {
                let JobSpec::Table1Sweep { archs: Some(names) } = shard else {
                    panic!()
                };
                let rows = names
                    .iter()
                    .map(|n| RowComparison {
                        name: n.clone(),
                        paper_vdd: 1.0,
                        our_vdd: 1.0,
                        paper_vth: 0.3,
                        our_vth: 0.3,
                        paper_ptot_uw: 50.0,
                        our_ptot_uw: 51.0,
                        paper_eq13_uw: 49.0,
                        our_eq13_uw: 50.0,
                        paper_err_pct: 2.0,
                        our_err_pct: 2.0,
                    })
                    .collect();
                shard_artifact(
                    shard.clone(),
                    Payload::Rows {
                        title: "partial".to_string(),
                        rows,
                    },
                )
            })
            .collect();
        let forward = Artifact::merge_shards(&spec, artifacts.clone(), Workers::Fixed(1)).unwrap();
        artifacts.reverse();
        let backward = Artifact::merge_shards(&spec, artifacts, Workers::Fixed(1)).unwrap();
        assert_eq!(forward.payload_json(), backward.payload_json());
        assert_eq!(forward.to_csv(), backward.to_csv());
        let Payload::Rows { title, rows } = &forward.payload else {
            panic!()
        };
        assert_eq!(title, TABLE1_TITLE);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, table1_names());
    }

    /// Batch merge maps unique shard results back onto the member
    /// list, cloning for repeated members.
    #[test]
    fn batch_merge_clones_repeated_members() {
        let member = JobSpec::Figure2 { samples: 8 };
        let spec = JobSpec::Batch(vec![member.clone(), JobSpec::Table2, member.clone()]);
        let shards = spec.shard(4).unwrap();
        assert_eq!(shards.len(), 2);
        let results: Vec<Artifact> = shards
            .iter()
            .map(|shard| {
                // Payload contents are irrelevant to the mapping; use
                // an empty batch payload as a stand-in.
                shard_artifact(shard.clone(), Payload::Batch(Vec::new()))
            })
            .collect();
        let merged = Artifact::merge_shards(&spec, results, Workers::Fixed(1)).unwrap();
        let Payload::Batch(members) = &merged.payload else {
            panic!()
        };
        assert_eq!(members.len(), 3);
        assert_eq!(members[0].spec, member);
        assert_eq!(members[2].spec, member);
        assert_eq!(members[1].spec, JobSpec::Table2);
        // A single shard whose spec is the whole batch passes through.
        let whole = shard_artifact(spec.clone(), Payload::Batch(Vec::new()));
        let passed = Artifact::merge_shards(&spec, vec![whole], Workers::Fixed(1)).unwrap();
        assert_eq!(passed.spec, spec);
        assert!(matches!(&passed.payload, Payload::Batch(m) if m.is_empty()));
    }

    /// Indivisible jobs round-trip through the merge as a single
    /// shard; a foreign shard or a wrong count is a typed error.
    #[test]
    fn indivisible_jobs_expect_exactly_one_matching_shard() {
        let spec = JobSpec::Table2;
        let ok = shard_artifact(spec.clone(), Payload::Flavors(Vec::new()));
        let merged = Artifact::merge_shards(&spec, vec![ok.clone()], Workers::Fixed(1)).unwrap();
        assert_eq!(merged.spec, spec);
        assert!(Artifact::merge_shards(&spec, Vec::new(), Workers::Fixed(1)).is_err());
        assert!(Artifact::merge_shards(&spec, vec![ok.clone(), ok], Workers::Fixed(1)).is_err());
        let foreign = shard_artifact(JobSpec::Table3, Payload::Flavors(Vec::new()));
        assert!(Artifact::merge_shards(&spec, vec![foreign], Workers::Fixed(1)).is_err());
    }
}
