//! `large`: `exp gen` then `exp sweep --graph-file`, at n = 1e6.
//!
//! Builds `regular/8` and `powerlaw/2.1` with the sweep's graph seed,
//! writes each with `io::write_graph_to_path`, loads it back with
//! `sweep::FileGraph::load`, and runs `sweep::run_with_file` (`mis/luby`,
//! 2 seeds, 2 threads). Then `ruling/two-two` runs on `regular/8` at
//! n = 1e5: its ruling-set check in `AlgoRun::verify` is O(|S|·n), which
//! keeps it from finishing within 300 s at 1e6, and the time it takes at
//! 1e5 shows in `core.verify_s`.

use crate::common::{build_instance, count_run, fnv64, Ctx, Unit};
use crate::replay;
use localavg_bench::sweep::{self, FileGraph, SweepSpec};
use localavg_bench::{cell, emit};
use localavg_core::algo::{registry, RunSpec};
use localavg_graph::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const THREADS: usize = 2;
const FILE_FAMILIES: [&str; 2] = ["regular/8", "powerlaw/2.1"];
const FILE_N: usize = 1_000_000;
const FILE_ALGO: &str = "mis/luby";
const FILE_SEEDS: u64 = 2;
const RULING: (&str, usize, &str) = ("regular/8", 100_000, "ruling/two-two");

pub struct Inputs {
    master_seed: u64,
    n: usize,
    ruling_n: usize,
}

fn file_path(cx: &Ctx, family: &str) -> PathBuf {
    cx.tmp.join(format!("{}.csr", family.replace('/', "-")))
}

fn file_spec(master_seed: u64, f: &FileGraph) -> SweepSpec {
    SweepSpec {
        algorithms: vec![FILE_ALGO.to_string()],
        generators: vec![f.family.to_string()],
        sizes: vec![f.graph.n()],
        seeds: FILE_SEEDS,
        master_seed,
        params: Vec::new(),
    }
}

pub fn setup(seed: u64) -> Inputs {
    Inputs {
        master_seed: seed,
        n: FILE_N,
        ruling_n: RULING.1,
    }
}

/// The whole pipeline at n = 2e4, under master seed 0.
pub fn warm_up(tmp: &Path) -> Result<(), String> {
    let warm = Inputs {
        master_seed: 0,
        n: 20_000,
        ruling_n: 2_000,
    };
    let unit = run(&warm, &Ctx::new(false, tmp.to_path_buf()));
    if unit.failed > 0 {
        return Err(format!("warm-up failed: {:?}", unit.errors));
    }
    Ok(())
}

pub fn run(inp: &Inputs, cx: &Ctx) -> Unit {
    pass(inp, cx, false)
}

/// The traced pass: the same pipeline, with each `run_with_file` call
/// walked through the layers by [`replay::sweep`]. Its outputs must be
/// the main pass's.
pub fn attribute(inp: &Inputs, cx: &Ctx, main: &Unit) -> Unit {
    let mut unit = pass(inp, cx, true);
    let same = unit.digests == main.digests;
    unit.check(same, || {
        "the replayed pipeline's outputs differ from the main pass's".into()
    });
    unit
}

fn pass(inp: &Inputs, cx: &Ctx, replayed: bool) -> Unit {
    let mut unit = Unit::default();
    let t0 = Instant::now();
    for (k, family) in FILE_FAMILIES.iter().enumerate() {
        let t = Instant::now();
        let r = file_pipeline(inp, cx, &mut unit, family, k as u64, replayed);
        unit.check(r.is_ok(), || format!("{family}: {}", r.unwrap_err()));
        unit.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let r = ruling(inp, cx, &mut unit);
    unit.check(r.is_ok(), || format!("{}: {}", RULING.2, r.unwrap_err()));
    unit.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    unit.wall_s = t0.elapsed().as_secs_f64();
    unit
}

/// gen → write → load → sweep for one family.
fn file_pipeline(
    inp: &Inputs,
    cx: &Ctx,
    unit: &mut Unit,
    family: &str,
    req: u64,
    replayed: bool,
) -> Result<(), String> {
    let tr = &cx.tr;
    let g = build_instance(
        cx,
        family,
        inp.n,
        cell::graph_seed(inp.master_seed, family, inp.n),
        req,
    )?;
    let hash = tr.span("graph.io.hash", req, || io::content_hash(&g));
    let path = file_path(cx, family);
    let written = tr
        .span("graph.io.write", req, || io::write_graph_to_path(&path, &g))
        .map_err(|e| format!("write: {e}"))?;
    cx.counts.add("graph.io.write_bytes", written);
    drop(g);
    let path_str = path.to_str().ok_or("non-UTF-8 scratch path")?;
    let f = tr.span("graph.io.read", req, || FileGraph::load(path_str))?;
    cx.counts.add("graph.io.read_bytes", written);
    if cell::parse_file_family(f.family) != Some(hash) {
        return Err(format!(
            "read-back hash {} differs from the built graph's {hash:016x}",
            f.family
        ));
    }
    let spec = file_spec(inp.master_seed, &f);
    let report = if replayed {
        let (report, invalid) = replay::sweep(cx, &spec, THREADS, Some(&f), req)?;
        if invalid > 0 {
            return Err(format!("{invalid} invalid outputs"));
        }
        report
    } else {
        tr.span("bench.sweep.run_with_file", req, || {
            catch_unwind(AssertUnwindSafe(|| {
                sweep::run_with_file(&spec, THREADS, Some(&f))
            }))
        })
        .map_err(|_| "a cell failed verification".to_string())?
        .map_err(|e| e.to_string())?
    };
    unit.cells += report.cells.len();
    let json = tr.span("bench.emit.json", req, || emit::to_json(&report));
    cx.counts.add("bench.emit.bytes", json.len() as u64);
    unit.digests
        .insert(format!("report.{family}"), fnv64(json.as_bytes()));
    unit.digests.insert(format!("graph.{family}"), hash);
    Ok(())
}

/// `ruling/two-two` on `regular/8` at n = 1e5, verified.
fn ruling(inp: &Inputs, cx: &Ctx, unit: &mut Unit) -> Result<(), String> {
    let (family, _, algo_key) = RULING;
    let n = inp.ruling_n;
    let req = FILE_FAMILIES.len() as u64;
    let g = build_instance(
        cx,
        family,
        n,
        cell::graph_seed(inp.master_seed, family, n),
        req,
    )?;
    let algo = registry().get(algo_key).ok_or("unregistered algorithm")?;
    let seed = cell::algo_seed(inp.master_seed, family, n, algo_key, 0);
    let run = cx.tr.tagged("sim.execute", algo_key, req, || {
        algo.execute(&g, &RunSpec::new(seed))
    });
    count_run(cx, algo_key, &run);
    cx.tr
        .span("core.verify", req, || run.verify(&g))
        .map_err(|e| e.to_string())?;
    let times = cx.tr.span("core.metrics", req, || run.completion_times(&g));
    unit.cells += 1;
    unit.digests
        .insert("ruling.rounds".into(), run.transcript.rounds as u64);
    unit.digests.insert(
        "ruling.node_time_sum".into(),
        times.node.iter().map(|&t| t as u64).sum(),
    );
    Ok(())
}
