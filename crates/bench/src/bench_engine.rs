//! Round-engine micro-benchmark (`exp bench-engine`).
//!
//! Times registry algorithms through both executors on named graph
//! families and emits a machine-readable `localavg-bench/v1` JSON
//! document (hand-rolled like [`crate::emit`]). The committed
//! `BENCH_<pr>.json` artifacts pin the before/after evidence for engine
//! optimisations: pass `--baseline FILE` (a previous run of the same
//! subcommand) and the emitted document embeds the baseline cells plus a
//! `speedups` section computed per matching cell.
//!
//! Methodology: one graph instance per `(generator, n)` pair (built
//! outside the timed region with the sweep's content-addressed seed),
//! `reps` timed repetitions per cell, and `best_ms` (the metric the
//! speedup uses — least scheduler noise), `mean_ms`, and `total_ms`
//! (per-cell wall-clock over the repetitions) recorded. The timed region
//! is exactly `DynAlgorithm::execute_in`: the round engine plus the
//! O(n + m) transcript-to-solution conversion, i.e. the work a sweep
//! cell pays per run. `--policy` sets the [`TranscriptPolicy`] of the
//! timed runs and `--reuse-workspace` keeps one [`Workspace`] across a
//! cell's repetitions — together they measure the RunSpec-era fast path
//! against the PR 3 defaults (full transcript, fresh arenas).

use crate::cell::{self, CellKey};
use crate::emit::json_escape;
use crate::serve::protocol::Json;
use crate::sweep::{self, SweepError, SweepSpec};
use localavg_core::algo::{Exec, RunSpec, TranscriptPolicy, Workspace};
use localavg_graph::Graph;
use std::fmt::Write as _;
use std::time::Instant;

/// What `exp bench-engine` measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSpec {
    /// Algorithm registry keys to time.
    pub algorithms: Vec<String>,
    /// Generator registry keys to time on.
    pub generators: Vec<String>,
    /// Target sizes.
    pub sizes: Vec<usize>,
    /// Executors to time.
    pub executors: Vec<Exec>,
    /// Timed repetitions per cell (after one untimed warm-up run).
    pub reps: usize,
    /// Master seed for the content-addressed graph/run seeds.
    pub master_seed: u64,
    /// Free-form label recorded in the report (e.g. a refactor name).
    pub label: String,
    /// Transcript retention during the timed runs (`--policy`).
    pub policy: TranscriptPolicy,
    /// Whether the repetitions of one cell share a [`Workspace`]
    /// (`--reuse-workspace`); `false` reallocates arenas per run, which
    /// is what the pre-`Workspace` engine always paid.
    pub reuse_workspace: bool,
    /// String-keyed parameter overrides (`--param family/name:key=value`),
    /// validated like the sweep's.
    pub params: Vec<sweep::ParamOverride>,
}

impl Default for BenchSpec {
    /// The grid the committed `BENCH_*.json` artifacts use: Luby's MIS on
    /// `regular/8` and `gnp/deg8` at n ∈ {10³, 10⁴, 10⁵}, sequential and
    /// 2-thread parallel executors, full transcripts, fresh arenas per
    /// run (the PR 3 baseline semantics).
    fn default() -> Self {
        BenchSpec {
            algorithms: vec!["mis/luby".into()],
            generators: vec!["regular/8".into(), "gnp/deg8".into()],
            sizes: vec![1_000, 10_000, 100_000],
            executors: vec![Exec::Sequential, Exec::Parallel { threads: 2 }],
            reps: 5,
            master_seed: 0,
            label: "unlabelled".into(),
            policy: TranscriptPolicy::Full,
            reuse_workspace: false,
            params: Vec::new(),
        }
    }
}

/// One timed (algorithm, generator, n, executor) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// Algorithm registry key.
    pub algorithm: String,
    /// Generator registry key.
    pub generator: String,
    /// Target size.
    pub n: usize,
    /// Realized node count.
    pub nodes: usize,
    /// Realized edge count.
    pub edges: usize,
    /// Wall-clock to build the cell's instance — or to load it, for a
    /// `--graph-file` pseudo-family — in milliseconds. Shared by every
    /// cell of one `(generator, n)` pair; tracked separately from the
    /// run timings so a regression in graph construction is visible on
    /// its own.
    pub graph_build_ms: f64,
    /// In-memory CSR footprint of the instance, in bytes
    /// ([`Graph::memory_bytes`]).
    pub graph_bytes: usize,
    /// Executor label: `"sequential"` or `"parallel/<threads>"`.
    pub executor: String,
    /// Timed repetitions.
    pub reps: usize,
    /// Fastest repetition, in milliseconds.
    pub best_ms: f64,
    /// Mean over the repetitions, in milliseconds.
    pub mean_ms: f64,
    /// Total wall-clock over all timed repetitions of this cell, in
    /// milliseconds (the per-cell cost a sweep over this grid would pay).
    pub total_ms: f64,
    /// Rounds the run took (identical across reps — same seed).
    pub rounds: usize,
}

impl BenchCell {
    /// The identity a `--baseline` comparison matches on: the canonical
    /// [`CellKey`] string of the defaults tuple plus the executor label.
    /// The policy is intentionally pinned to the default in this key so
    /// a `--policy none` fast-path run still matches a Full-policy
    /// baseline (that comparison *is* the fast-path measurement), and
    /// the executor stays outside the tuple — it is a scheduling knob,
    /// exactly as in `exp fuzz`.
    fn key(&self) -> (String, String) {
        (
            CellKey::new(self.generator.clone(), self.n, 0, self.algorithm.clone()).canonical(),
            self.executor.clone(),
        )
    }
}

/// A complete benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The spec that produced it.
    pub spec: BenchSpec,
    /// One timed result per cell, in expansion order.
    pub cells: Vec<BenchCell>,
    /// Wall-clock of the whole grid (graph building, warm-ups, and timed
    /// repetitions), in milliseconds.
    pub wall_ms: f64,
}

fn exec_label(exec: Exec) -> String {
    match exec {
        Exec::Sequential => "sequential".to_string(),
        Exec::Parallel { threads } => format!("parallel/{threads}"),
    }
}

/// Runs the benchmark grid, expanded like a one-seed sweep
/// ([`SweepSpec::cells_with`], including its domain filter).
///
/// # Errors
///
/// The sweep's [`SweepError`]s: expansion or graph-construction failures.
pub fn run(spec: &BenchSpec) -> Result<BenchReport, SweepError> {
    run_with_file(spec, None)
}

/// [`run`] with an optional file-backed pseudo-family (`--graph-file`):
/// a generator key equal to `file.family` resolves to the loaded
/// instance (its `load_ms` reported as the cell's `graph_build_ms`)
/// instead of a timed registry build.
///
/// # Errors
///
/// Same conditions as [`run`].
pub fn run_with_file(
    spec: &BenchSpec,
    file: Option<&sweep::FileGraph>,
) -> Result<BenchReport, SweepError> {
    let grid = SweepSpec {
        algorithms: spec.algorithms.clone(),
        generators: spec.generators.clone(),
        sizes: spec.sizes.clone(),
        seeds: 1,
        master_seed: spec.master_seed,
        params: spec.params.clone(),
    };
    let grid_start = Instant::now();
    let (planned, algos) = grid.expand(file)?;
    let mut cells = Vec::new();
    // Expansion order is (generator, n, algorithm): one instance per run
    // of equal (generator, n).
    for pair in planned.chunk_by(|a, b| (a.generator, a.n) == (b.generator, b.n)) {
        let (gname, n) = (pair[0].generator, pair[0].n);
        let mut owned: Option<Graph> = None;
        let (g, graph_build_ms): (&Graph, f64) = match file {
            Some(f) if f.family == gname => (&f.graph, f.load_ms),
            _ => {
                let build_start = Instant::now();
                let built = cell::build_instance(gname, n, spec.master_seed)?;
                let ms = build_start.elapsed().as_secs_f64() * 1e3;
                (&*owned.insert(built), ms)
            }
        };
        for c in pair {
            let algo = &algos[c.algorithm];
            let seed = cell::bench_seed(spec.master_seed, c.algorithm, n);
            for &exec in &spec.executors {
                let run_spec = RunSpec::new(seed)
                    .with_exec(exec)
                    .with_transcript(spec.policy);
                let mut ws = Workspace::new();
                let warm = algo.execute_in(g, &run_spec, &mut ws);
                let rounds = warm.worst_case();
                let mut best = f64::INFINITY;
                let mut total = 0.0;
                for _ in 0..spec.reps.max(1) {
                    if !spec.reuse_workspace {
                        // Fresh arenas every repetition — the cost
                        // every run paid before `Workspace` existed.
                        ws = Workspace::new();
                    }
                    let t0 = Instant::now();
                    let run = algo.execute_in(g, &run_spec, &mut ws);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(
                        run.worst_case(),
                        rounds,
                        "non-deterministic round count in a fixed-seed benchmark at {}",
                        c.key()
                    );
                    best = best.min(ms);
                    total += ms;
                }
                cells.push(BenchCell {
                    algorithm: c.algorithm.to_string(),
                    generator: gname.to_string(),
                    n,
                    nodes: g.n(),
                    edges: g.m(),
                    graph_build_ms,
                    graph_bytes: g.memory_bytes(),
                    executor: exec_label(exec),
                    reps: spec.reps.max(1),
                    best_ms: best,
                    mean_ms: total / spec.reps.max(1) as f64,
                    total_ms: total,
                    rounds,
                });
            }
        }
    }
    Ok(BenchReport {
        spec: spec.clone(),
        cells,
        wall_ms: grid_start.elapsed().as_secs_f64() * 1e3,
    })
}

fn fmt_ms(x: f64) -> String {
    if x.is_finite() {
        format!("{:.3}", x)
    } else {
        "null".to_string()
    }
}

fn cell_json(c: &BenchCell) -> String {
    format!(
        "{{\"algorithm\": \"{}\", \"generator\": \"{}\", \"n\": {}, \"nodes\": {}, \
         \"edges\": {}, \"graph_build_ms\": {}, \"graph_bytes\": {}, \"executor\": \"{}\", \
         \"reps\": {}, \"best_ms\": {}, \"mean_ms\": {}, \"total_ms\": {}, \"rounds\": {}}}",
        json_escape(&c.algorithm),
        json_escape(&c.generator),
        c.n,
        c.nodes,
        c.edges,
        fmt_ms(c.graph_build_ms),
        c.graph_bytes,
        json_escape(&c.executor),
        c.reps,
        fmt_ms(c.best_ms),
        fmt_ms(c.mean_ms),
        fmt_ms(c.total_ms),
        c.rounds
    )
}

fn push_cells(out: &mut String, cells: &[BenchCell], indent: &str) {
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "{indent}{}{}",
            cell_json(c),
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
}

/// Serializes a report to the `localavg-bench/v1` JSON document.
///
/// When `baseline` is given, its cells are embedded under `"baseline"`
/// and a `"speedups"` array records `baseline best_ms / current best_ms`
/// for every cell present in both reports.
pub fn to_json(report: &BenchReport, baseline: Option<&BenchReport>) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"localavg-bench/v1\",\n");
    let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(&report.spec.label));
    let _ = writeln!(
        out,
        "  \"spec\": {{\"reps\": {}, \"master_seed\": {}, \"policy\": \"{}\", \
         \"reuse_workspace\": {}}},",
        report.spec.reps,
        report.spec.master_seed,
        report.spec.policy.label(),
        report.spec.reuse_workspace
    );
    let _ = writeln!(out, "  \"wall_ms\": {},", fmt_ms(report.wall_ms));
    out.push_str("  \"cells\": [\n");
    push_cells(&mut out, &report.cells, "    ");
    out.push_str("  ]");
    if let Some(base) = baseline {
        out.push_str(",\n  \"baseline\": {\n");
        let _ = writeln!(out, "    \"label\": \"{}\",", json_escape(&base.spec.label));
        out.push_str("    \"cells\": [\n");
        push_cells(&mut out, &base.cells, "      ");
        let _ = writeln!(
            out,
            "    ],\n    \"unmatched_cells\": {}\n  }},",
            unmatched_baseline_cells(report, base).len()
        );
        out.push_str("  \"speedups\": [\n");
        let pairs: Vec<(&BenchCell, &BenchCell)> = report
            .cells
            .iter()
            .filter_map(|c| {
                base.cells
                    .iter()
                    .find(|b| b.key() == c.key())
                    .map(|b| (c, b))
            })
            .collect();
        for (i, (c, b)) in pairs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"algorithm\": \"{}\", \"generator\": \"{}\", \"n\": {}, \
                 \"executor\": \"{}\", \"baseline_best_ms\": {}, \"best_ms\": {}, \
                 \"speedup\": {}}}{}",
                json_escape(&c.algorithm),
                json_escape(&c.generator),
                c.n,
                json_escape(&c.executor),
                fmt_ms(b.best_ms),
                fmt_ms(c.best_ms),
                fmt_ms(b.best_ms / c.best_ms),
                if i + 1 < pairs.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
    } else {
        out.push_str("\n}\n");
    }
    out
}

/// Number of current cells with no key-matching baseline cell (and thus
/// absent from [`to_json`]'s `speedups` section). The cell key includes
/// the executor label (`"parallel/<threads>"`), so comparing runs made
/// with different `--threads` drops the parallel rows — callers should
/// surface this count instead of letting the rows vanish silently.
pub fn baseline_coverage_gap(current: &BenchReport, baseline: &BenchReport) -> usize {
    current
        .cells
        .iter()
        .filter(|c| !baseline.cells.iter().any(|b| b.key() == c.key()))
        .count()
}

/// Baseline cells with no key-matching counterpart in the current run —
/// the mirror of [`baseline_coverage_gap`]. These rows used to vanish
/// from a `--baseline` comparison without a trace (a shrunk grid or a
/// renamed generator silently compared against nothing); callers should
/// warn per cell and the JSON document records the count.
pub fn unmatched_baseline_cells<'a>(
    current: &BenchReport,
    baseline: &'a BenchReport,
) -> Vec<&'a BenchCell> {
    baseline
        .cells
        .iter()
        .filter(|b| !current.cells.iter().any(|c| c.key() == b.key()))
        .collect()
}

/// CI perf-regression tripwire: for every `(algorithm, generator, n)`
/// group timed on both the sequential executor and a parallel one, the
/// parallel `best_ms` may exceed the sequential `best_ms` by at most
/// `pct` percent. A persistent-pool executor that loses more than that
/// to coordination overhead on a quick-scale cell is a regression, not
/// noise — `exp bench-engine --tripwire PCT` exits nonzero on it.
///
/// Returns one human-readable line per comparison; `Err` carries the
/// first offending line. Groups without both executors are skipped (a
/// sequential-only grid trips nothing).
pub fn tripwire(report: &BenchReport, pct: f64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for c in &report.cells {
        if c.executor == "sequential" {
            continue;
        }
        let Some(seq) = report.cells.iter().find(|b| {
            b.executor == "sequential"
                && b.algorithm == c.algorithm
                && b.generator == c.generator
                && b.n == c.n
        }) else {
            continue;
        };
        let ratio = c.best_ms / seq.best_ms;
        let line = format!(
            "tripwire: {} on {} n={} — {} {:.3} ms vs sequential {:.3} ms \
             (ratio {:.2}, limit {:.2})",
            c.algorithm,
            c.generator,
            c.n,
            c.executor,
            c.best_ms,
            seq.best_ms,
            ratio,
            1.0 + pct / 100.0
        );
        if ratio > 1.0 + pct / 100.0 {
            return Err(format!(
                "{line}: the parallel executor is more than {pct}% slower than sequential"
            ));
        }
        lines.push(line);
    }
    Ok(lines)
}

/// Parses the cells of a previously written `localavg-bench/v1` document.
///
/// Reads the document with the workspace's one JSON reader
/// ([`Json`]) and keeps only the top-level `"cells"`, so a document that
/// itself embeds a baseline round-trips to its *current* cells only.
/// Returns `None` for text that is not JSON, does not carry the
/// `localavg-bench/v1` schema, or has no `"cells"` array — pointing
/// `--baseline` at the wrong file must be an error, not an empty
/// comparison.
///
/// Fields that predate the `v1` additions of this release (`total_ms`,
/// `wall_ms`, the spec's `policy`/`reuse_workspace`, and the
/// `graph_build_ms`/`graph_bytes` columns) are optional, so older
/// committed artifacts (e.g. `BENCH_3.json`) still load as baselines: a
/// missing `total_ms` is reconstructed as `mean_ms * reps`, missing
/// build-cost columns load as zero.
pub fn parse_report(text: &str) -> Option<BenchReport> {
    let doc = Json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != "localavg-bench/v1" {
        return None;
    }
    let cells = doc.get("cells")?.as_array()?;
    let spec = |key: &str| doc.get("spec").and_then(|s| s.get(key));
    Some(BenchReport {
        spec: BenchSpec {
            label: doc
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            policy: spec("policy")
                .and_then(Json::as_str)
                .and_then(TranscriptPolicy::parse)
                .unwrap_or(TranscriptPolicy::Full),
            reuse_workspace: spec("reuse_workspace")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            ..BenchSpec::default()
        },
        cells: cells.iter().map(parse_cell).collect::<Option<_>>()?,
        wall_ms: doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// One `cells` entry of a `localavg-bench/v1` document (see
/// [`parse_report`] for the optional fields).
fn parse_cell(c: &Json) -> Option<BenchCell> {
    let text = |key: &str| c.get(key).and_then(Json::as_str).map(str::to_string);
    let ms = |key: &str| c.get(key).and_then(Json::as_f64);
    let count = |key: &str| c.get(key).and_then(Json::as_u64).map(|v| v as usize);
    let reps = count("reps")?;
    let mean_ms = ms("mean_ms")?;
    Some(BenchCell {
        algorithm: text("algorithm")?,
        generator: text("generator")?,
        n: count("n")?,
        nodes: count("nodes")?,
        edges: count("edges")?,
        graph_build_ms: ms("graph_build_ms").unwrap_or(0.0),
        graph_bytes: count("graph_bytes").unwrap_or(0),
        executor: text("executor")?,
        reps,
        best_ms: ms("best_ms")?,
        mean_ms,
        total_ms: ms("total_ms").unwrap_or(mean_ms * reps as f64),
        rounds: count("rounds")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> BenchSpec {
        BenchSpec {
            algorithms: vec!["mis/luby".into()],
            generators: vec!["regular/4".into()],
            sizes: vec![64],
            executors: vec![Exec::Sequential, Exec::Parallel { threads: 2 }],
            reps: 2,
            master_seed: 3,
            label: "test".into(),
            policy: TranscriptPolicy::Full,
            reuse_workspace: false,
            params: Vec::new(),
        }
    }

    #[test]
    fn bench_runs_and_reports_every_executor() {
        let report = run(&tiny_spec()).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].executor, "sequential");
        assert_eq!(report.cells[1].executor, "parallel/2");
        let mut cell_total = 0.0;
        for c in &report.cells {
            assert!(c.best_ms.is_finite() && c.best_ms >= 0.0);
            assert!(c.mean_ms >= c.best_ms);
            assert!((c.total_ms - c.mean_ms * c.reps as f64).abs() < 1e-6);
            assert!(c.rounds > 0);
            assert_eq!(c.nodes, 64);
            assert!(c.graph_build_ms >= 0.0);
            assert!(c.graph_bytes > 0);
            cell_total += c.total_ms;
        }
        // Both cells time the same (generator, n) instance, so the build
        // cost and footprint are shared.
        assert_eq!(report.cells[0].graph_bytes, report.cells[1].graph_bytes);
        assert_eq!(
            report.cells[0].graph_build_ms.to_bits(),
            report.cells[1].graph_build_ms.to_bits()
        );
        // The grid wall-clock covers at least the timed repetitions.
        assert!(report.wall_ms >= cell_total);
    }

    #[test]
    fn policy_and_reuse_produce_identical_rounds() {
        // The fast path (no audit, reused arenas) must not change the
        // simulated execution — only its cost.
        let full = run(&tiny_spec()).unwrap();
        let mut spec = tiny_spec();
        spec.policy = TranscriptPolicy::None;
        spec.reuse_workspace = true;
        let fast = run(&spec).unwrap();
        assert_eq!(full.cells.len(), fast.cells.len());
        for (a, b) in full.cells.iter().zip(&fast.cells) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.rounds, b.rounds);
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let mut spec = tiny_spec();
        spec.algorithms = vec!["mis/lubby".into()];
        assert!(matches!(
            run(&spec),
            Err(SweepError::UnknownAlgorithm { .. })
        ));
        let mut spec = tiny_spec();
        spec.generators = vec!["regullar/4".into()];
        assert!(matches!(
            run(&spec),
            Err(SweepError::UnknownGenerator { .. })
        ));
    }

    #[test]
    fn tree_only_algorithms_are_skipped_on_cyclic_families() {
        let mut spec = tiny_spec();
        spec.algorithms = vec!["mis/luby".into(), "mis/tree-rc".into()];
        spec.generators = vec!["regular/8".into(), "tree/random".into()];
        spec.executors = vec![Exec::Sequential];
        let report = run(&spec).unwrap();
        let pairs: Vec<(&str, &str)> = report
            .cells
            .iter()
            .map(|c| (c.algorithm.as_str(), c.generator.as_str()))
            .collect();
        assert_eq!(
            pairs,
            [
                ("mis/luby", "regular/8"),
                ("mis/luby", "tree/random"),
                ("mis/tree-rc", "tree/random"),
            ]
        );
        // Nothing left to time: the sweep's typed error, not a panic.
        spec.algorithms = vec!["mis/tree-rc".into()];
        spec.generators = vec!["regular/8".into()];
        assert!(matches!(
            run(&spec),
            Err(SweepError::NotATree {
                algorithm: "mis/tree-rc",
                ..
            })
        ));
    }

    #[test]
    fn json_roundtrips_through_parse_report() {
        let mut spec = tiny_spec();
        spec.policy = TranscriptPolicy::CompletionsOnly;
        spec.reuse_workspace = true;
        let report = run(&spec).unwrap();
        let json = to_json(&report, None);
        assert!(json.contains("\"schema\": \"localavg-bench/v1\""));
        assert!(json.contains("\"policy\": \"completions\""));
        assert!(json.contains("\"reuse_workspace\": true"));
        assert!(json.contains("\"wall_ms\""));
        let parsed = parse_report(&json).expect("parse back");
        assert_eq!(parsed.spec.label, "test");
        assert_eq!(parsed.spec.policy, TranscriptPolicy::CompletionsOnly);
        assert!(parsed.spec.reuse_workspace);
        assert!(parsed.wall_ms > 0.0);
        assert_eq!(parsed.cells.len(), report.cells.len());
        for (a, b) in parsed.cells.iter().zip(&report.cells) {
            assert_eq!(a.key(), b.key());
            assert_eq!(a.rounds, b.rounds);
            assert!((a.best_ms - b.best_ms).abs() < 1e-3);
            assert!((a.total_ms - b.total_ms).abs() < 1e-3);
            assert!((a.graph_build_ms - b.graph_build_ms).abs() < 1e-3);
            assert_eq!(a.graph_bytes, b.graph_bytes);
        }
    }

    #[test]
    fn file_backed_cells_use_the_loaded_instance() {
        use localavg_graph::{gen, io, rng::Rng};
        let g = gen::random_regular(64, 4, &mut Rng::seed_from(2)).unwrap();
        let file = sweep::FileGraph {
            family: Box::leak(cell::file_family(io::content_hash(&g)).into_boxed_str()),
            graph: g,
            load_ms: 1.5,
        };
        let mut spec = tiny_spec();
        spec.generators = vec![file.family.to_string()];
        let report = run_with_file(&spec, Some(&file)).unwrap();
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            assert_eq!(c.generator, file.family);
            assert_eq!(c.nodes, 64);
            assert_eq!(c.edges, 128);
            // The load time stands in for the build time.
            assert_eq!(c.graph_build_ms, 1.5);
            assert_eq!(c.graph_bytes, file.graph.memory_bytes());
        }
        // Without the file, the pseudo-family is unknown.
        assert!(matches!(
            run(&spec),
            Err(SweepError::UnknownGenerator { .. })
        ));
    }

    #[test]
    fn parse_report_accepts_pre_total_ms_documents() {
        // The committed BENCH_3.json predates total_ms/wall_ms/policy;
        // it must keep loading as a --baseline.
        let legacy = "{\n  \"schema\": \"localavg-bench/v1\",\n  \"label\": \"old\",\n  \
                      \"spec\": {\"reps\": 5, \"master_seed\": 0},\n  \"cells\": [\n    \
                      {\"algorithm\": \"mis/luby\", \"generator\": \"regular/8\", \"n\": 1000, \
                      \"nodes\": 1000, \"edges\": 4000, \"executor\": \"sequential\", \
                      \"reps\": 5, \"best_ms\": 1.000, \"mean_ms\": 2.000, \"rounds\": 23}\n  \
                      ]\n}\n";
        let parsed = parse_report(legacy).expect("legacy document parses");
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.spec.policy, TranscriptPolicy::Full);
        assert!(!parsed.spec.reuse_workspace);
        assert_eq!(parsed.wall_ms, 0.0);
        // total_ms reconstructed as mean * reps.
        assert!((parsed.cells[0].total_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn committed_bench_artifacts_parse() {
        for (text, cells) in [
            (include_str!("../../../BENCH_3.json"), 12),
            (include_str!("../../../BENCH_4.json"), 12),
            (include_str!("../../../BENCH_5.json"), 16),
            (include_str!("../../../BENCH_6.json"), 24),
        ] {
            let parsed = parse_report(text).expect("committed artifact parses");
            assert_eq!(parsed.cells.len(), cells);
            assert!(parsed.cells.iter().all(|c| c.reps > 0 && c.rounds > 0));
            // A wrong schema is an error, not an empty comparison.
            let other = text.replace("localavg-bench/v1", "localavg-sweep/v1");
            assert!(parse_report(&other).is_none());
        }
        assert!(parse_report("{\"schema\": \"localavg-bench/v1\"}").is_none());
    }

    #[test]
    fn labels_are_json_escaped() {
        let mut report = run(&tiny_spec()).unwrap();
        report.spec.label = "quo\"te".into();
        let json = to_json(&report, Some(&report));
        assert!(json.contains(r#""label": "quo\"te""#));
    }

    #[test]
    fn baseline_coverage_gap_counts_unmatched_cells() {
        let report = run(&tiny_spec()).unwrap();
        assert_eq!(baseline_coverage_gap(&report, &report), 0);
        let mut other = report.clone();
        other.cells[1].executor = "parallel/7".into();
        assert_eq!(baseline_coverage_gap(&report, &other), 1);
    }

    #[test]
    fn unmatched_baseline_cells_are_counted_and_recorded() {
        let report = run(&tiny_spec()).unwrap();
        assert!(unmatched_baseline_cells(&report, &report).is_empty());
        let mut base = report.clone();
        base.cells[0].generator = "regular/8".into(); // no counterpart now
        let dropped = unmatched_baseline_cells(&report, &base);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].generator, "regular/8");
        // The emitted document carries the nonzero count.
        let json = to_json(&report, Some(&base));
        assert!(json.contains("\"unmatched_cells\": 1"));
        let clean = to_json(&report, Some(&report));
        assert!(clean.contains("\"unmatched_cells\": 0"));
    }

    #[test]
    fn tripwire_trips_only_on_a_real_slowdown() {
        let mut report = run(&tiny_spec()).unwrap();
        // Pin the timings: parallel exactly 20% slower than sequential.
        report.cells[0].best_ms = 10.0;
        report.cells[1].best_ms = 12.0;
        let lines = tripwire(&report, 25.0).expect("within the limit");
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("ratio 1.20"));
        // 35% slower trips a 25% limit with a clear message.
        report.cells[1].best_ms = 13.5;
        let err = tripwire(&report, 25.0).expect_err("beyond the limit");
        assert!(err.contains("more than 25% slower"), "{err}");
        assert!(err.contains("mis/luby"), "{err}");
        // A sequential-only report has nothing to compare.
        report.cells.truncate(1);
        assert_eq!(tripwire(&report, 25.0).unwrap().len(), 0);
    }

    #[test]
    fn baseline_produces_speedups_section() {
        let report = run(&tiny_spec()).unwrap();
        let json = to_json(&report, Some(&report));
        assert!(json.contains("\"baseline\""));
        assert!(json.contains("\"speedups\""));
        assert!(json.contains("\"speedup\": 1.000"));
        // A doc with an embedded baseline parses back to the current cells.
        let parsed = parse_report(&json).expect("parse back");
        assert_eq!(parsed.cells.len(), report.cells.len());
    }
}
