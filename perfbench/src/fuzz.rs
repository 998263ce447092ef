//! `fuzz`: a seeded list of cells over the default `FuzzSpec` domain,
//! each run through `fuzz::run` in `exact` mode, as
//! `exp fuzz --exact ...` replays one cell.
//!
//! `matching/det` is left out: three `matching/det × lb/lift/2` cells took
//! 127 s of a 140 s `exp fuzz --cases 256` session (`lb/lift/2` builds
//! 3840 nodes with Δ = 128 whatever size is asked for). Each pair runs
//! once sequentially and once on the pool with 2 threads; parameters stay
//! at their defaults.

use crate::common::{build_instance, count_run, execute_span, fnv64, Ctx, Unit};
use localavg_bench::fuzz::{self, ExactCell, FuzzSpec};
use localavg_bench::{generators, sweep};
use localavg_core::algo::{registry, DynAlgorithm, Exec, RunSpec, TranscriptPolicy, Workspace};
use localavg_core::check;
use localavg_core::metrics::Distribution;
use localavg_graph::io;
use localavg_graph::rng::Rng;
use std::time::Instant;

/// Cells per (family, algorithm) pair of the domain in a measured unit.
const PER_PAIR: usize = 2;
const EXCLUDED: &str = "matching/det";

/// The tail of a unit is a handful of `lb/lift/2` cells, several on the
/// 2-thread pool, whose time jitters with every stall of a barrier; a
/// run reports the median over at least two units.
pub const MIN_UNITS: usize = 2;

struct Cell {
    generator: &'static str,
    n: usize,
    algo: &'static dyn DynAlgorithm,
    policy: TranscriptPolicy,
    threads: usize,
    seed: u64,
}

pub struct Inputs {
    master_seed: u64,
    cells: Vec<Cell>,
}

/// Every (family, algorithm) pair of the default domain `PER_PAIR`
/// times, once per executor. Sizes and transcript policies rotate with
/// the cell's index, so the mix of work is the same for every seed; the
/// seed draws the instances (as the master seed) and each run seed.
fn sample(seed: u64) -> Result<Vec<Cell>, String> {
    let spec = FuzzSpec::default();
    let root = Rng::seed_from(seed);
    let policies = [
        TranscriptPolicy::Full,
        TranscriptPolicy::CompletionsOnly,
        TranscriptPolicy::None,
    ];
    let mut cells = Vec::new();
    for name in &spec.generators {
        let fam = generators::registry()
            .get(name)
            .ok_or_else(|| format!("unknown generator `{name}`"))?;
        for algo in registry().iter().filter(|a| a.name() != EXCLUDED) {
            let sizes: Vec<usize> = spec
                .sizes
                .iter()
                .copied()
                .filter(|&n| {
                    algo.problem().min_degree() <= fam.min_degree(n)
                        && (!algo.requires_tree() || fam.is_tree())
                })
                .collect();
            if sizes.is_empty() {
                continue;
            }
            for r in 0..PER_PAIR {
                let i = cells.len();
                cells.push(Cell {
                    generator: fam.name(),
                    n: sizes[i % sizes.len()],
                    algo,
                    policy: policies[i % policies.len()],
                    threads: [0, 2][r % 2],
                    seed: root.fork(i as u64).next_u64() % 1_000_000,
                });
            }
        }
    }
    Ok(cells)
}

fn exact_spec(master_seed: u64, c: &Cell) -> FuzzSpec {
    FuzzSpec {
        cases: 1,
        master_seed,
        algorithms: vec![c.algo.name().to_string()],
        generators: vec![c.generator.to_string()],
        sizes: vec![c.n],
        exact: Some(ExactCell {
            seed: c.seed,
            policy: c.policy,
            threads: c.threads,
            params: Vec::new(),
        }),
    }
}

pub fn setup(seed: u64) -> Result<Inputs, String> {
    Ok(Inputs {
        master_seed: seed,
        cells: sample(seed)?,
    })
}

/// A fixed short session through the library's own sampler.
pub fn warm_up() -> Result<(), String> {
    let mut warm = FuzzSpec {
        cases: 12,
        ..FuzzSpec::default()
    };
    warm.algorithms.retain(|a| a != EXCLUDED);
    warm.generators.retain(|g| !g.starts_with("lb/lift"));
    let report = fuzz::run(&warm).map_err(|e| e.to_string())?;
    if let Some(f) = report.failure {
        return Err(format!("warm-up fuzz failed: {}", f.message));
    }
    Ok(())
}

pub fn run(inp: &Inputs, cx: &Ctx) -> Unit {
    let mut unit = Unit::default();
    let mut outcome = String::new();
    let t0 = Instant::now();
    for (i, c) in inp.cells.iter().enumerate() {
        let spec = exact_spec(inp.master_seed, c);
        let t = Instant::now();
        let r = cx
            .tr
            .span("bench.fuzz.exact", i as u64, || fuzz::run(&spec));
        unit.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(report) => {
                let failure = report.failure.as_ref().map(|f| f.message.clone());
                unit.check(failure.is_none(), || {
                    format!(
                        "{} n={} {}: {}",
                        c.generator,
                        c.n,
                        c.algo.name(),
                        failure.unwrap_or_default()
                    )
                });
                outcome.push_str(&format!(
                    "{} {};",
                    report.brute_checked, report.mutations_checked
                ));
                unit.cells += 1;
            }
            Err(e) => unit.check(false, || e.to_string()),
        }
    }
    unit.wall_s = t0.elapsed().as_secs_f64();
    unit.digests
        .insert("legs".into(), fnv64(outcome.as_bytes()));
    unit
}

/// Walks each cell's main legs through the public functions `fuzz::run`
/// calls: instance build, the fast run, both validators, the metrics
/// oracle, the canonical and one-node-per-chunk re-runs, the CSR round
/// trip, and the brute-force bounds on tiny instances.
pub fn attribute(inp: &Inputs, cx: &Ctx, _main: &Unit) -> Unit {
    let mut unit = Unit::default();
    cx.tr.span("bench.fuzz.replay", 0, || {
        for (i, c) in inp.cells.iter().enumerate() {
            let r = replay_cell(cx, inp.master_seed, c, i as u64);
            unit.check(r.is_ok(), || {
                format!(
                    "{} n={} {}: {}",
                    c.generator,
                    c.n,
                    c.algo.name(),
                    r.unwrap_err()
                )
            });
        }
    });
    unit
}

fn replay_cell(cx: &Ctx, master_seed: u64, c: &Cell, req: u64) -> Result<(), String> {
    let tr = &cx.tr;
    let name = c.algo.name();
    let g = build_instance(
        cx,
        c.generator,
        c.n,
        sweep::graph_seed(master_seed, c.generator, c.n),
        req,
    )?;
    let exec = match c.threads {
        0 => Exec::Sequential,
        threads => Exec::Parallel { threads },
    };
    let fast = RunSpec::new(c.seed)
        .with_exec(exec)
        .with_transcript(c.policy);
    let mut ws = Workspace::new();
    let run = tr.tagged(execute_span(c.threads), name, req, || {
        c.algo.execute_in(&g, &fast, &mut ws)
    });
    count_run(cx, name, &run);
    tr.span("core.verify", req, || run.verify(&g))
        .map_err(|e| e.to_string())?;
    tr.span("core.check", req, || {
        check::verify_solution(&g, &run.solution).and_then(|()| check::check_metrics(&g, &run))
    })?;
    let times = tr.span("core.metrics", req, || {
        let times = run.completion_times(&g);
        std::hint::black_box((
            Distribution::from_rounds(&times.node),
            Distribution::from_rounds(&times.edge),
        ));
        times
    });
    let canon = tr.tagged("sim.execute", name, req, || {
        c.algo.execute(&g, &RunSpec::new(c.seed))
    });
    count_run(cx, name, &canon);
    if canon.solution != run.solution || canon.completion_times(&g) != times {
        return Err("canonical re-run differs".into());
    }
    let shredded = tr.tagged(execute_span(c.threads), name, req, || {
        c.algo
            .execute_in(&g, &fast.clone().with_chunk_nodes(Some(1)), &mut ws)
    });
    count_run(cx, name, &shredded);
    if shredded.solution != run.solution || shredded.transcript != run.transcript {
        return Err("one-node chunks diverge".into());
    }
    let st = ws.stats();
    cx.counts.add("sim.workspace.runs", st.runs as u64);
    cx.counts.add("sim.workspace.reuses", st.reuses as u64);
    let mut bytes = Vec::new();
    tr.span("graph.io.write", req, || io::write_graph(&mut bytes, &g))
        .map_err(|e| e.to_string())?;
    let back = tr
        .span("graph.io.read", req, || io::read_graph(bytes.as_slice()))
        .map_err(|e| e.to_string())?;
    cx.counts.add("graph.io.read_bytes", bytes.len() as u64);
    if back != g {
        return Err("CSR round trip differs".into());
    }
    if g.n() <= check::BRUTE_MAX_NODES {
        tr.span("core.check.brute", req, || {
            check::check_brute_bounds(&g, &run.solution)
        })?;
    }
    Ok(())
}
