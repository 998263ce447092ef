//! Sharded parallel sweep engine (DESIGN.md §6).
//!
//! A [`SweepSpec`] describes a full measurement grid — registry algorithm
//! keys × named graph families × target sizes × seeds — and [`run`]
//! expands it into cells, shards the cells across `std::thread::scope`
//! workers, and collects a [`SweepReport`] that the [`crate::emit`]
//! module serializes to JSON and CSV.
//!
//! # Determinism
//!
//! Parallel and sequential execution produce *byte-identical* reports:
//!
//! * every cell's randomness is derived from the master seed through the
//!   [`localavg_graph::rng::Rng::fork`] substream discipline, keyed by the
//!   cell's **content** (generator key, target size, seed index, algorithm
//!   key) — never by scheduling order or worker id;
//! * each `(generator, n)` pair names one fixed graph instance, built
//!   once up front, so every algorithm and every seed of a group runs on
//!   the same topology (that is what makes the per-group
//!   [`RunAggregate`] an estimate of Appendix A's expected complexities);
//! * results are written into a slot indexed by cell position and
//!   serialized in expansion order, so thread interleaving never shows.
//!
//! Deterministic algorithms ignore their seed, so the sweep collapses
//! their seed axis to a single run per group.

use crate::cell::{self, CellKey, Measured};
use crate::generators;
use localavg_core::algo::{registry, DynAlgorithm, RunSpec};
use localavg_core::metrics::{CompletionTimes, Distribution, RunAggregate};
use localavg_graph::analysis::{is_forest, topology_stats, TopologyStats};
use localavg_graph::gen::NamedGenerator;
use localavg_graph::Graph;
use localavg_sim::workspace::Workspace;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::experiments::Scale;

/// A pre-built instance loaded from a `localavg-csr/v1` file
/// (`--graph-file`), presented to the engines as a pseudo-family named
/// `file/<content-hash>` (see [`crate::cell::file_family`]). The hash
/// comes from the file's verified checksum footer, so cell keys — and
/// through them goldens, seeds, and the serve cache — stay
/// content-addressed: the *graph*, not the path, names the cells.
#[derive(Debug)]
pub struct FileGraph {
    /// The `file/<hash>` pseudo-family key. Leaked to `&'static str` so
    /// [`SweepCell`] stays `Copy` — one short string per loaded file.
    pub family: &'static str,
    /// The loaded, fully validated instance.
    pub graph: Graph,
    /// Wall-clock of the load, in milliseconds (reported by
    /// `exp bench-engine` as the instance's `graph_build_ms`).
    pub load_ms: f64,
}

impl FileGraph {
    /// Loads and validates a `localavg-csr/v1` file.
    ///
    /// # Errors
    ///
    /// Returns the rendered [`localavg_graph::io::ReadError`], prefixed
    /// with the path.
    pub fn load(path: &str) -> Result<FileGraph, String> {
        let t0 = Instant::now();
        let (graph, hash) = localavg_graph::io::read_graph_from_path_with_hash(path)
            .map_err(|e| format!("cannot load graph file {path}: {e}"))?;
        Ok(FileGraph {
            family: Box::leak(cell::file_family(hash).into_boxed_str()),
            graph,
            load_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// One string-keyed parameter override, applied to every cell of the
/// named algorithm (the `--param family/name:key=value` CLI flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamOverride {
    /// Algorithm registry key the override applies to.
    pub algorithm: String,
    /// Parameter key (validated by the algorithm's `set_param`).
    pub key: String,
    /// Parameter value (validated by the algorithm's `set_param`).
    pub value: String,
}

impl ParamOverride {
    /// Parses the CLI form `family/name:key=value`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the shape is wrong (the
    /// key/value semantics are validated later, by the algorithm).
    pub fn parse(s: &str) -> Result<ParamOverride, String> {
        let (algorithm, kv) = s
            .split_once(':')
            .ok_or_else(|| format!("`{s}`: expected `family/name:key=value`"))?;
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("`{s}`: expected `family/name:key=value`"))?;
        if algorithm.is_empty() || key.is_empty() || value.is_empty() {
            return Err(format!("`{s}`: expected `family/name:key=value`"));
        }
        Ok(ParamOverride {
            algorithm: algorithm.to_string(),
            key: key.to_string(),
            value: value.to_string(),
        })
    }
}

/// A full measurement grid: algorithms × graph families × sizes × seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Algorithm registry keys (see [`localavg_core::algo::registry`]).
    pub algorithms: Vec<String>,
    /// Generator registry keys (see [`localavg_graph::gen::registry`]).
    pub generators: Vec<String>,
    /// Target graph sizes (families round to their nearest legal size).
    pub sizes: Vec<usize>,
    /// Seeds per (algorithm, generator, size) group; deterministic
    /// algorithms collapse this axis to 1.
    pub seeds: u64,
    /// Master seed every per-cell substream is forked from.
    pub master_seed: u64,
    /// String-keyed parameter overrides, applied per algorithm over the
    /// defaults (empty = defaults everywhere).
    pub params: Vec<ParamOverride>,
}

impl SweepSpec {
    /// The default grid for a [`Scale`]: every registered algorithm on a
    /// representative family set. `Quick` stays sub-second for tests;
    /// `Full` is the EXPERIMENTS.md grid.
    pub fn for_scale(scale: Scale) -> SweepSpec {
        let algorithms: Vec<String> = registry().names().map(str::to_string).collect();
        match scale {
            Scale::Quick => SweepSpec {
                algorithms,
                generators: vec!["regular/4".into(), "gnp/deg8".into(), "tree/random".into()],
                sizes: vec![64, 128],
                seeds: 2,
                master_seed: 0,
                params: Vec::new(),
            },
            Scale::Full => SweepSpec {
                algorithms,
                generators: vec![
                    "regular/3".into(),
                    "regular/4".into(),
                    "regular/8".into(),
                    "regular/16".into(),
                    "gnp/0.05".into(),
                    "gnp/deg8".into(),
                    "tree/random".into(),
                    "grid".into(),
                    "hypercube".into(),
                ],
                sizes: vec![256, 1024, 4096],
                seeds: 3,
                master_seed: 0,
                params: Vec::new(),
            },
        }
    }

    /// Expands the grid into cells in canonical order (generator, size,
    /// algorithm, seed), applying the static domain filter
    /// ([`cell::check_domain`] on each family's guarantee): an algorithm
    /// is skipped where its problem needs a larger minimum degree, or
    /// where it only runs on forests and the family is not a tree family.
    ///
    /// # Errors
    ///
    /// Fails on unknown algorithm or generator keys (with a closest-match
    /// suggestion), rejected parameter overrides, empty grid axes, and
    /// with [`SweepError::NotATree`] when the forest restriction alone
    /// leaves the grid empty.
    pub fn cells(&self) -> Result<Vec<SweepCell>, SweepError> {
        self.cells_with(None)
    }

    /// [`SweepSpec::cells`] with an optional file-backed pseudo-family:
    /// a generator key equal to `file.family` resolves to the loaded
    /// instance (its realized minimum degree drives the domain filter)
    /// instead of the registry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepSpec::cells`].
    pub fn cells_with(&self, file: Option<&FileGraph>) -> Result<Vec<SweepCell>, SweepError> {
        self.expand(file).map(|(cells, _)| cells)
    }

    /// [`SweepSpec::cells_with`] plus the configured algorithm table the
    /// cells run with (shared with `exp bench-engine`).
    pub(crate) fn expand(
        &self,
        file: Option<&FileGraph>,
    ) -> Result<(Vec<SweepCell>, Algorithms), SweepError> {
        if self.algorithms.is_empty()
            || self.generators.is_empty()
            || self.sizes.is_empty()
            || self.seeds == 0
        {
            return Err(SweepError::EmptyAxis);
        }
        let algos = configure(&self.algorithms, &self.params)?;
        enum Gen<'a> {
            Registry(&'static NamedGenerator),
            File(&'a FileGraph),
        }
        let gens = self
            .generators
            .iter()
            .map(|name| match file.filter(|f| f.family == name.as_str()) {
                Some(f) => Ok(Gen::File(f)),
                None => cell::generator(name).map(Gen::Registry),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cells = Vec::new();
        let mut tree_skip = None;
        for g in &gens {
            for &n in &self.sizes {
                // Registry families pass their guarantee, the loaded
                // instance its realized values.
                let (gname, min_degree) = match g {
                    Gen::Registry(g) => (g.name(), g.min_degree(n)),
                    Gen::File(f) => (f.family, f.graph.min_degree()),
                };
                for name in &self.algorithms {
                    let a = &algos[name.as_str()];
                    let is_tree = || match g {
                        Gen::Registry(g) => g.is_tree(),
                        Gen::File(f) => is_forest(&f.graph),
                    };
                    match cell::check_domain(&**a, gname, n, min_degree, is_tree) {
                        Ok(()) => {}
                        Err(e @ SweepError::NotATree { .. }) => {
                            tree_skip.get_or_insert(e);
                            continue;
                        }
                        Err(_) => continue,
                    }
                    let seeds = if a.deterministic() { 1 } else { self.seeds };
                    cells.extend((0..seeds).map(|seed| SweepCell {
                        algorithm: a.name(),
                        generator: gname,
                        n,
                        seed,
                    }));
                }
            }
        }
        match tree_skip {
            Some(e) if cells.is_empty() => Err(e),
            _ => Ok((cells, algos)),
        }
    }
}

/// One grid cell: a single (algorithm, family, size, seed) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Algorithm registry key.
    pub algorithm: &'static str,
    /// Generator registry key.
    pub generator: &'static str,
    /// Target size (the family may round it).
    pub n: usize,
    /// Seed index within the cell's group.
    pub seed: u64,
}

impl SweepCell {
    /// The canonical [`CellKey`] of this cell under defaults (no param
    /// overrides, `Full` policy — what a sweep without `--param` runs).
    /// Callers expanding a spec with overrides attach them via
    /// [`CellKey::with_params`].
    pub fn key(&self) -> CellKey {
        CellKey::new(self.generator, self.n, self.seed, self.algorithm)
    }
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// An algorithm key is not in the registry.
    UnknownAlgorithm {
        /// The offending key.
        name: String,
        /// Closest registered key, if any is plausible.
        suggestion: Option<String>,
    },
    /// A generator key is not in the registry.
    UnknownGenerator {
        /// The offending key.
        name: String,
        /// Closest registered key, if any is plausible — same
        /// [`localavg_graph::suggest`] policy as algorithm keys.
        suggestion: Option<String>,
    },
    /// Some grid axis is empty.
    EmptyAxis,
    /// A graph family failed to build an instance.
    GraphBuild {
        /// Generator registry key.
        generator: String,
        /// Target size.
        n: usize,
        /// Error rendered by the generator.
        message: String,
    },
    /// A `--param` override was rejected (unknown key, invalid value, or
    /// an algorithm not part of the sweep).
    Param {
        /// Human-readable rejection (from the algorithm's validation).
        message: String,
    },
    /// An algorithm's problem needs a larger minimum degree than the
    /// family guarantees (or a loaded graph has).
    MinDegree {
        /// The algorithm.
        algorithm: &'static str,
        /// The family it was paired with.
        generator: String,
        /// Target size.
        n: usize,
        /// Minimum degree the algorithm's problem needs.
        need: usize,
        /// Minimum degree the instance offers.
        have: usize,
    },
    /// No selected (family, algorithm) pair is compatible: every chosen
    /// algorithm's domain requirement exceeds every chosen family's
    /// minimum-degree guarantee (`exp fuzz` sampling).
    NoCompatibleCells,
    /// A `*/tree-rc` algorithm was paired only with non-tree families
    /// (its domain is restricted to forests), leaving the grid empty.
    NotATree {
        /// The tree-restricted algorithm.
        algorithm: &'static str,
        /// A non-tree family it was paired with.
        generator: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::UnknownAlgorithm { name, suggestion } => {
                write!(f, "unknown algorithm `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " — did you mean `{s}`?")?;
                }
                Ok(())
            }
            SweepError::UnknownGenerator { name, suggestion } => {
                write!(f, "unknown generator `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " — did you mean `{s}`?")?;
                }
                let names: Vec<&str> = generators::registry().names().collect();
                write!(f, " (known: {})", names.join(", "))
            }
            SweepError::EmptyAxis => f.write_str("sweep grid has an empty axis"),
            SweepError::GraphBuild {
                generator,
                n,
                message,
            } => write!(f, "generator `{generator}` failed at n={n}: {message}"),
            SweepError::Param { message } => write!(f, "invalid --param: {message}"),
            SweepError::MinDegree {
                algorithm,
                generator,
                n,
                need,
                have,
            } => write!(
                f,
                "`{algorithm}` needs minimum degree {need} but `{generator}` only offers \
                 {have} at n={n}"
            ),
            SweepError::NoCompatibleCells => f.write_str(
                "no compatible (generator, algorithm) cells: every selected algorithm's \
                 domain requirement (min degree) exceeds every selected family's guarantee",
            ),
            SweepError::NotATree {
                algorithm,
                generator,
            } => {
                let trees: Vec<&str> = generators::registry()
                    .iter()
                    .filter(|g| g.is_tree())
                    .map(|g| g.name())
                    .collect();
                write!(
                    f,
                    "`{algorithm}` only runs on forests but `{generator}` is not a tree \
                     family — did you mean one of: {}?",
                    trees.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Measured result of one cell (one verified run).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that was run.
    pub cell: SweepCell,
    /// Realized node count of the instance.
    pub nodes: usize,
    /// Realized edge count of the instance.
    pub edges: usize,
    /// Minimum degree of the instance.
    pub min_degree: usize,
    /// Maximum degree of the instance.
    pub max_degree: usize,
    /// `AVG_V` — node-averaged complexity (Definition 1).
    pub node_averaged: f64,
    /// `AVG_E` — edge-averaged complexity (Definition 1).
    pub edge_averaged: f64,
    /// Edge average under the relaxed one-endpoint convention (fn. 2).
    pub edge_averaged_one_endpoint: f64,
    /// Maximum node completion time.
    pub node_worst: usize,
    /// Total rounds until global termination (classic worst case).
    pub rounds: usize,
    /// Peak CONGEST message size observed, in bits — `None` when the
    /// run's transcript policy skipped the audit pass entirely (the
    /// sweep always audits; lean policies surface here through `exp
    /// serve` and replay paths).
    pub peak_message_bits: Option<usize>,
}

impl CellResult {
    /// The `localavg-sweep/v1` wire view of this result (see
    /// [`crate::emit::cell_json`]).
    pub fn row(&self) -> crate::emit::CellRow<'_> {
        crate::emit::CellRow {
            algorithm: self.cell.algorithm,
            generator: self.cell.generator,
            n: self.cell.n,
            seed: self.cell.seed,
            nodes: self.nodes,
            edges: self.edges,
            min_degree: self.min_degree,
            max_degree: self.max_degree,
            node_averaged: self.node_averaged,
            edge_averaged: self.edge_averaged,
            edge_averaged_one_endpoint: self.edge_averaged_one_endpoint,
            node_worst: self.node_worst,
            rounds: self.rounds,
            peak_message_bits: self.peak_message_bits,
        }
    }
}

/// Distributional summaries of a group, pooled over the seed axis
/// (every run of a group executes on the same fixed instance, so the
/// pooled sample is `runs × n` node observations drawn from the same
/// topology).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDistributions {
    /// Node completion times (Definition 1), pooled across the runs.
    pub node_time: Distribution,
    /// Edge completion times (Definition 1), pooled across the runs.
    pub edge_time: Distribution,
    /// Per-node bits sent over the whole execution, pooled across the
    /// runs. `None` unless **every** run in the group was audited — a
    /// partially audited group would silently under-count.
    pub node_bits_sent: Option<Distribution>,
}

/// Per-group aggregate over the seed axis: Appendix A's expected
/// complexities on the group's fixed graph instance.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// Algorithm registry key.
    pub algorithm: String,
    /// Generator registry key.
    pub generator: String,
    /// Target size of the group's instance.
    pub n: usize,
    /// Number of aggregated runs (1 for deterministic algorithms).
    pub runs: usize,
    /// Mean of the per-run node-averaged complexities (estimates `AVG_V`).
    pub node_averaged: f64,
    /// Mean of the per-run edge-averaged complexities (estimates `AVG_E`).
    pub edge_averaged: f64,
    /// `EXP_V = max_v E[T_v]` (Appendix A).
    pub node_expected: f64,
    /// `EXP_E = max_e E[T_e]` (Appendix A).
    pub edge_expected: f64,
    /// Mean worst case over the runs.
    pub worst_case: f64,
    /// Whether Appendix A's `AVG ≤ AVG^w ≤ EXP ≤ WORST` chain held.
    pub chain_holds: bool,
    /// Pooled completion-time and message-volume distributions.
    pub distributions: GroupDistributions,
    /// Structural statistics of the group's fixed instance.
    pub topology: TopologyStats,
}

/// A complete sweep: the spec that produced it, every cell in canonical
/// order, and the per-group aggregates.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The grid that was run.
    pub spec: SweepSpec,
    /// One verified result per cell, in expansion order.
    pub cells: Vec<CellResult>,
    /// Per-(generator, size, algorithm) aggregates, in expansion order.
    pub groups: Vec<GroupResult>,
}

/// [`crate::cell::graph_seed`], re-exported only because `perfbench/`
/// calls it by this path.
pub use crate::cell::graph_seed;

/// [`crate::cell::algo_seed`] of a sweep cell, kept only because
/// `perfbench/` calls it.
pub fn algo_seed(master: u64, cell: &SweepCell) -> u64 {
    cell::algo_seed(master, cell.generator, cell.n, cell.algorithm, cell.seed)
}

/// Algorithm key → configured algorithm, as [`configure`] builds it.
pub(crate) type Algorithms = BTreeMap<&'static str, Box<dyn DynAlgorithm>>;

/// The override plumbing of [`SweepSpec::cells_with`]: maps
/// every algorithm key to a `DynAlgorithm` carrying its overrides
/// (defaults when none name it).
///
/// # Errors
///
/// Fails on unknown algorithm keys, on key/value pairs the algorithm's
/// validation rejects, and on overrides naming algorithms outside the
/// spec.
fn configure(algorithms: &[String], params: &[ParamOverride]) -> Result<Algorithms, SweepError> {
    let mut algos = Algorithms::new();
    for name in algorithms {
        let kvs: Vec<(String, String)> = params
            .iter()
            .filter(|p| &p.algorithm == name)
            .map(|p| (p.key.clone(), p.value.clone()))
            .collect();
        let algo = cell::algorithm(name, &kvs)?;
        algos.insert(algo.name(), algo);
    }
    if let Some(p) = params.iter().find(|p| !algorithms.contains(&p.algorithm)) {
        return Err(SweepError::Param {
            message: format!(
                "`{}:{}={}` names an algorithm that is not part of this sweep",
                p.algorithm, p.key, p.value
            ),
        });
    }
    Ok(algos)
}

/// Runs the sweep over `threads` workers.
///
/// The report is byte-for-byte independent of `threads` (see the module
/// docs); `threads` is clamped to `1..=cells`. Each worker reuses one
/// [`Workspace`] across its cells, so arena allocation is paid per
/// (worker, instance shape, algorithm) instead of per run.
///
/// # Errors
///
/// Returns [`SweepError`] for invalid specs, rejected parameter
/// overrides, or graph-construction failures.
///
/// # Panics
///
/// Panics if a registered algorithm produces an output that fails
/// verification — that is a bug in the algorithm, not in the caller.
pub fn run(spec: &SweepSpec, threads: usize) -> Result<SweepReport, SweepError> {
    run_with_file(spec, threads, None)
}

/// [`run`] with an optional file-backed pseudo-family (`--graph-file`):
/// cells whose generator key equals `file.family` execute on the loaded
/// instance; everything else — seeding, sharding, aggregation, and the
/// byte-identical-across-threads guarantee — is unchanged.
///
/// # Errors
///
/// Same conditions as [`run`].
///
/// # Panics
///
/// Same conditions as [`run`].
pub fn run_with_file(
    spec: &SweepSpec,
    threads: usize,
    file: Option<&FileGraph>,
) -> Result<SweepReport, SweepError> {
    let (cells, algos) = spec.expand(file)?;
    // Build every (generator, n) instance once, up front and sequentially
    // — deterministic, and workers then share read-only graphs.
    let mut graphs: BTreeMap<(&'static str, usize), Graph> = BTreeMap::new();
    for c in &cells {
        if file.is_some_and(|f| f.family == c.generator) || graphs.contains_key(&(c.generator, c.n))
        {
            continue;
        }
        let g = cell::build_instance(c.generator, c.n, spec.master_seed)?;
        graphs.insert((c.generator, c.n), g);
    }
    // The file-backed instance never clones: cells borrow it directly.
    let instance = |generator: &'static str, n: usize| -> &Graph {
        match file {
            Some(f) if f.family == generator => &f.graph,
            _ => &graphs[&(generator, n)],
        }
    };

    let threads = threads.clamp(1, cells.len().max(1));
    let slots: Vec<Mutex<Option<Measured>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // One workspace per worker: cells for the same instance
                // and algorithm reuse arenas instead of reallocating.
                let mut ws = Workspace::new();
                let mut last_algorithm = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let cell = cells[i];
                    // Cells come in (generator, n, algorithm, seed) order,
                    // so an algorithm this worker has moved past never
                    // returns on the current shape: drop the arenas.
                    if last_algorithm.is_some_and(|a| a != cell.algorithm) {
                        ws.clear();
                    }
                    last_algorithm = Some(cell.algorithm);
                    let seed = cell::algo_seed(
                        spec.master_seed,
                        cell.generator,
                        cell.n,
                        cell.algorithm,
                        cell.seed,
                    );
                    let measured = cell::measure(
                        cell,
                        &*algos[cell.algorithm],
                        instance(cell.generator, cell.n),
                        &RunSpec::new(seed),
                        &mut ws,
                    )
                    .unwrap_or_else(|e| panic!("{} produced an invalid output: {e}", cell.key()));
                    *slots[i].lock().expect("result slot") = Some(measured);
                }
            });
        }
    });
    let outcomes: Vec<Measured> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every cell ran")
        })
        .collect();

    // Group aggregation over the seed axis, preserving expansion order.
    let mut groups: Vec<GroupResult> = Vec::new();
    let mut i = 0;
    while i < outcomes.len() {
        let head = &outcomes[i].result.cell;
        let mut j = i;
        while j < outcomes.len() {
            let c = &outcomes[j].result.cell;
            if (c.algorithm, c.generator, c.n) != (head.algorithm, head.generator, head.n) {
                break;
            }
            j += 1;
        }
        let group = &outcomes[i..j];
        let times: Vec<CompletionTimes> = group.iter().map(|o| o.times.clone()).collect();
        let rounds: Vec<usize> = group.iter().map(|o| o.result.rounds).collect();
        let agg = RunAggregate::from_times(&times, &rounds);
        let pooled_node: Vec<_> = times.iter().flat_map(|t| t.node.iter().copied()).collect();
        let pooled_edge: Vec<_> = times.iter().flat_map(|t| t.edge.iter().copied()).collect();
        let node_bits_sent = group
            .iter()
            .map(|o| o.node_bits_sent.as_deref())
            .collect::<Option<Vec<&[u64]>>>()
            .map(|per_run| Distribution::from_values(&per_run.concat()));
        groups.push(GroupResult {
            algorithm: head.algorithm.to_string(),
            generator: head.generator.to_string(),
            n: head.n,
            runs: agg.runs,
            node_averaged: agg.node_averaged,
            edge_averaged: agg.edge_averaged,
            node_expected: agg.node_expected,
            edge_expected: agg.edge_expected,
            worst_case: agg.worst_case,
            chain_holds: agg.inequality_chain_holds(),
            distributions: GroupDistributions {
                node_time: Distribution::from_rounds(&pooled_node),
                edge_time: Distribution::from_rounds(&pooled_edge),
                node_bits_sent,
            },
            topology: topology_stats(instance(head.generator, head.n)),
        });
        i = j;
    }

    Ok(SweepReport {
        spec: spec.clone(),
        cells: outcomes.into_iter().map(|o| o.result).collect(),
        groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            algorithms: vec![
                "mis/luby".into(),
                "mis/greedy".into(),
                "ruling/two-two".into(),
            ],
            generators: vec!["regular/4".into(), "tree/random".into()],
            sizes: vec![32, 64],
            seeds: 2,
            master_seed: 7,
            params: Vec::new(),
        }
    }

    #[test]
    fn cells_expand_in_canonical_order_with_domain_filter() {
        let spec = SweepSpec {
            algorithms: vec!["orientation/rand".into(), "mis/luby".into()],
            generators: vec!["regular/3".into(), "tree/random".into()],
            sizes: vec![32],
            seeds: 2,
            master_seed: 0,
            params: Vec::new(),
        };
        let cells = spec.cells().unwrap();
        // Orientation (min degree 3) runs on regular/3 but not on trees.
        assert!(cells
            .iter()
            .any(|c| c.algorithm == "orientation/rand" && c.generator == "regular/3"));
        assert!(!cells
            .iter()
            .any(|c| c.algorithm == "orientation/rand" && c.generator == "tree/random"));
        assert!(cells
            .iter()
            .any(|c| c.algorithm == "mis/luby" && c.generator == "tree/random"));
    }

    #[test]
    fn tree_rc_cells_expand_only_on_tree_families() {
        let spec = SweepSpec {
            algorithms: vec!["mis/tree-rc".into(), "mis/luby".into()],
            generators: vec!["regular/4".into(), "tree/spider".into()],
            sizes: vec![32],
            seeds: 2,
            master_seed: 0,
            params: Vec::new(),
        };
        let cells = spec.cells().unwrap();
        assert!(cells
            .iter()
            .any(|c| c.algorithm == "mis/tree-rc" && c.generator == "tree/spider"));
        assert!(!cells
            .iter()
            .any(|c| c.algorithm == "mis/tree-rc" && c.generator == "regular/4"));
        assert!(cells
            .iter()
            .any(|c| c.algorithm == "mis/luby" && c.generator == "regular/4"));
    }

    #[test]
    fn forcing_tree_rc_onto_cyclic_families_errors_with_tree_suggestions() {
        let spec = SweepSpec {
            algorithms: vec!["coloring/tree-rc".into()],
            generators: vec!["regular/4".into(), "gnp/deg8".into()],
            sizes: vec![32],
            seeds: 1,
            master_seed: 0,
            params: Vec::new(),
        };
        let err = spec.cells().unwrap_err();
        let SweepError::NotATree {
            algorithm,
            ref generator,
        } = err
        else {
            panic!("expected NotATree, got {err}");
        };
        assert_eq!(algorithm, "coloring/tree-rc");
        assert_eq!(generator, "regular/4");
        let msg = err.to_string();
        assert!(msg.contains("only runs on forests"), "{msg}");
        assert!(msg.contains("tree/caterpillar"), "{msg}");
    }

    #[test]
    fn deterministic_algorithms_collapse_the_seed_axis() {
        let spec = SweepSpec {
            algorithms: vec!["mis/greedy".into(), "mis/luby".into()],
            generators: vec!["regular/4".into()],
            sizes: vec![32],
            seeds: 3,
            master_seed: 0,
            params: Vec::new(),
        };
        let cells = spec.cells().unwrap();
        let greedy = cells.iter().filter(|c| c.algorithm == "mis/greedy").count();
        let luby = cells.iter().filter(|c| c.algorithm == "mis/luby").count();
        assert_eq!(greedy, 1);
        assert_eq!(luby, 3);
    }

    #[test]
    fn unknown_keys_are_rejected_with_suggestions() {
        let mut spec = tiny_spec();
        spec.algorithms.push("mis/lubby".into());
        match spec.cells() {
            Err(SweepError::UnknownAlgorithm { name, suggestion }) => {
                assert_eq!(name, "mis/lubby");
                assert_eq!(suggestion.as_deref(), Some("mis/luby"));
            }
            other => panic!("expected UnknownAlgorithm, got {other:?}"),
        }
        let mut spec = tiny_spec();
        spec.generators.push("regullar/4".into());
        match spec.cells() {
            Err(SweepError::UnknownGenerator { name, suggestion }) => {
                assert_eq!(name, "regullar/4");
                assert_eq!(suggestion.as_deref(), Some("regular/4"));
            }
            other => panic!("expected UnknownGenerator, got {other:?}"),
        }
        let mut spec = tiny_spec();
        spec.generators.push("lb/lifft/1".into());
        match spec.cells() {
            Err(SweepError::UnknownGenerator { suggestion, .. }) => {
                assert_eq!(suggestion.as_deref(), Some("lb/lift/1"));
            }
            other => panic!("expected UnknownGenerator, got {other:?}"),
        }
        let mut spec = tiny_spec();
        spec.sizes.clear();
        assert_eq!(spec.cells(), Err(SweepError::EmptyAxis));
    }

    #[test]
    fn parallel_report_is_identical_to_sequential() {
        let spec = tiny_spec();
        let a = run(&spec, 1).unwrap();
        let b = run(&spec, 8).unwrap();
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.node_averaged.to_bits(), y.node_averaged.to_bits());
            assert_eq!(x.rounds, y.rounds);
        }
        for (x, y) in a.groups.iter().zip(&b.groups) {
            assert_eq!(x.node_expected.to_bits(), y.node_expected.to_bits());
            assert_eq!(x.chain_holds, y.chain_holds);
        }
    }

    #[test]
    fn groups_share_one_instance_and_satisfy_appendix_a() {
        let report = run(&tiny_spec(), 4).unwrap();
        assert!(!report.groups.is_empty());
        for g in &report.groups {
            assert!(
                g.chain_holds,
                "{}/{} n={} chain broken",
                g.algorithm, g.generator, g.n
            );
        }
        // All cells of one group report the same instance stats.
        for w in report.cells.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if (a.cell.algorithm, a.cell.generator, a.cell.n)
                == (b.cell.algorithm, b.cell.generator, b.cell.n)
            {
                assert_eq!(a.edges, b.edges);
                assert_eq!(a.nodes, b.nodes);
            }
        }
    }

    #[test]
    fn hard_families_sweep_is_thread_count_independent() {
        // The lb/* and tree/* workloads behave like any other family:
        // domain-filtered, content-addressed seeding, byte-identical
        // reports at any worker count.
        let spec = SweepSpec {
            algorithms: vec![
                "mis/luby".into(),
                "matching/det".into(),
                "orientation/rand".into(),
            ],
            generators: vec![
                "lb/lift/1".into(),
                "lb/doubled/1".into(),
                "tree/spider".into(),
            ],
            sizes: vec![64],
            seeds: 2,
            master_seed: 3,
            params: Vec::new(),
        };
        let a = run(&spec, 1).unwrap();
        let b = run(&spec, 8).unwrap();
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.node_averaged.to_bits(), y.node_averaged.to_bits());
            assert_eq!(x.edge_averaged.to_bits(), y.edge_averaged.to_bits());
            assert_eq!(x.rounds, y.rounds);
        }
        // Sinkless orientation runs on the hard families (min degree ≥ 8)
        // but is filtered off the tree family.
        assert!(a
            .cells
            .iter()
            .any(|c| c.cell.algorithm == "orientation/rand" && c.cell.generator == "lb/lift/1"));
        assert!(!a
            .cells
            .iter()
            .any(|c| c.cell.algorithm == "orientation/rand" && c.cell.generator == "tree/spider"));
        for g in &a.groups {
            assert!(
                g.chain_holds,
                "{}/{} chain broken",
                g.algorithm, g.generator
            );
        }
    }

    #[test]
    fn param_override_parse_accepts_cli_shape() {
        let p = ParamOverride::parse("mis/luby:mark-factor=0.75").unwrap();
        assert_eq!(p.algorithm, "mis/luby");
        assert_eq!(p.key, "mark-factor");
        assert_eq!(p.value, "0.75");
        for bad in ["mis/luby", "mis/luby:mark-factor", ":k=v", "a:=v", "a:k="] {
            assert!(ParamOverride::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn param_overrides_retarget_only_the_named_algorithm() {
        let mut spec = tiny_spec();
        let base = run(&spec, 2).unwrap();
        spec.params
            .push(ParamOverride::parse("mis/luby:mark-factor=1.0").unwrap());
        let tuned = run(&spec, 2).unwrap();
        assert_eq!(base.cells.len(), tuned.cells.len());
        let mut luby_changed = false;
        for (a, b) in base.cells.iter().zip(&tuned.cells) {
            assert_eq!(a.cell, b.cell);
            if a.cell.algorithm == "mis/luby" {
                luby_changed |= a.node_averaged.to_bits() != b.node_averaged.to_bits();
            } else {
                // Untouched algorithms are byte-identical.
                assert_eq!(
                    a.node_averaged.to_bits(),
                    b.node_averaged.to_bits(),
                    "{} drifted without an override",
                    a.cell.algorithm
                );
            }
        }
        assert!(luby_changed, "the override should change mis/luby cells");
    }

    #[test]
    fn param_overrides_are_validated_up_front() {
        let mut spec = tiny_spec();
        spec.params
            .push(ParamOverride::parse("mis/luby:mark-facotr=0.5").unwrap());
        match run(&spec, 1) {
            Err(SweepError::Param { message }) => {
                assert!(message.contains("did you mean"), "got: {message}")
            }
            other => panic!("expected Param error, got {other:?}"),
        }
        let mut spec = tiny_spec();
        spec.params
            .push(ParamOverride::parse("coloring/trial:extra-colors=2").unwrap());
        match run(&spec, 1) {
            Err(SweepError::Param { message }) => {
                assert!(message.contains("not part of this sweep"), "got: {message}")
            }
            other => panic!("expected Param error, got {other:?}"),
        }
    }

    #[test]
    fn file_backed_cells_run_from_the_loaded_instance() {
        use localavg_graph::{gen, io};
        // A path has realized minimum degree 1, so the file's *actual*
        // degree (not a registry formula) must filter the min-degree-3
        // orientation algorithm off the file cells while it still runs
        // on the 4-regular registry family.
        let g = gen::path(64);
        let file = FileGraph {
            family: Box::leak(cell::file_family(io::content_hash(&g)).into_boxed_str()),
            graph: g,
            load_ms: 0.0,
        };
        let spec = SweepSpec {
            algorithms: vec!["mis/luby".into(), "orientation/rand".into()],
            generators: vec![file.family.to_string(), "regular/4".into()],
            sizes: vec![64],
            seeds: 2,
            master_seed: 5,
            params: Vec::new(),
        };
        let a = run_with_file(&spec, 1, Some(&file)).unwrap();
        let b = run_with_file(&spec, 8, Some(&file)).unwrap();
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.cell, y.cell);
            assert_eq!(x.node_averaged.to_bits(), y.node_averaged.to_bits());
            assert_eq!(x.rounds, y.rounds);
        }
        // File cells ran on the loaded instance (a 64-path → 63 edges,
        // min degree 1) and the realized degree filtered orientation off
        // the file family but not off the 4-regular registry family.
        let file_cells: Vec<_> = a
            .cells
            .iter()
            .filter(|c| c.cell.generator == file.family)
            .collect();
        assert!(!file_cells.is_empty());
        for c in &file_cells {
            assert_eq!(c.edges, 63);
            assert_eq!(c.min_degree, 1);
        }
        assert!(!file_cells
            .iter()
            .any(|c| c.cell.algorithm == "orientation/rand"));
        assert!(a
            .cells
            .iter()
            .any(|c| c.cell.algorithm == "orientation/rand" && c.cell.generator == "regular/4"));
        // An unknown family is still rejected when it is not the file's.
        let mut bad = spec.clone();
        bad.generators = vec!["file/doesnotexist00".into()];
        assert!(matches!(
            run_with_file(&bad, 1, Some(&file)),
            Err(SweepError::UnknownGenerator { .. })
        ));
    }

    #[test]
    fn seeding_is_content_addressed() {
        // The graph seed ignores the algorithm; the algo seed does not.
        assert_eq!(
            graph_seed(1, "regular/4", 64),
            graph_seed(1, "regular/4", 64)
        );
        assert_ne!(
            graph_seed(1, "regular/4", 64),
            graph_seed(1, "regular/4", 128)
        );
        assert_ne!(
            graph_seed(1, "regular/4", 64),
            graph_seed(2, "regular/4", 64)
        );
        let c1 = SweepCell {
            algorithm: "mis/luby",
            generator: "regular/4",
            n: 64,
            seed: 0,
        };
        let c2 = SweepCell {
            algorithm: "mis/greedy",
            ..c1
        };
        assert_ne!(algo_seed(1, &c1), algo_seed(1, &c2));
        assert_eq!(algo_seed(1, &c1), algo_seed(1, &c1.clone()));
    }
}
