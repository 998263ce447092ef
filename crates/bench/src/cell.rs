//! The canonical cell identity, and the one per-cell path every
//! measurement front end runs.
//!
//! A *cell* — the unit of work everywhere in this crate — is fully
//! determined by the tuple `(family, n, seed, algo, params, policy)`
//! (the sweep goldens and the `exp fuzz` canonical-re-run leg prove
//! it). [`CellKey`] is the one canonical representation of that tuple:
//!
//! * [`CellKey::canonical`] is the stable string form — the `exp serve`
//!   content-addressed cache key, the identity printed in sweep/fuzz
//!   failure messages, and (via [`CellKey::replay_flags`]) the
//!   `exp fuzz --exact` replay command are all the same code path;
//! * [`CellKey::hash`] folds the canonical string through the same
//!   iterated-SplitMix64 digest ([`key_tag`]) the seeding discipline
//!   uses;
//! * [`graph_seed`] / [`algo_seed`] are the content-addressed seed
//!   derivations (DESIGN.md §7). `exp sweep` and `exp serve` use both;
//!   `exp fuzz` and `exp bench-engine` share the graph seeds only (fuzz
//!   runs its sampled seed verbatim, bench-engine uses [`bench_seed`]).
//!
//! Every per-cell decision lives here once, for all four front ends:
//! [`algorithm`], [`generator`], the domain rule [`check_domain`],
//! [`build_instance`] and the verified run [`measure`].
//!
//! Canonicalization rules: parameter overrides are sorted by key (the
//! CLI/protocol order never matters), and the policy is rendered by its
//! stable [`TranscriptPolicy::label`]. Two requests that differ only in
//! param order or policy spelling therefore collapse to one cache entry.

use crate::generators;
use crate::sweep::{CellResult, SweepCell, SweepError};
use localavg_core::algo::{
    registry, DynAlgorithm, RunSpec, TranscriptPolicy, ViolationError, Workspace,
};
use localavg_core::metrics::CompletionTimes;
use localavg_graph::gen::NamedGenerator;
use localavg_graph::rng::{splitmix64, Rng};
use localavg_graph::Graph;
use std::fmt;

/// Hashes a registry key (or any canonical string) into a substream tag:
/// iterated SplitMix64 over the bytes. Part of the content-addressed
/// seeding discipline — cell seeds depend on *what* runs, never on
/// *where* or *when*.
pub fn key_tag(s: &str) -> u64 {
    let mut acc = 0x5EED0F5EED ^ s.len() as u64;
    for &b in s.as_bytes() {
        let mut st = acc ^ u64::from(b);
        acc = splitmix64(&mut st);
    }
    acc
}

/// The seed a `(family, n)` instance is built from: forked from the
/// master seed by generator key and target size only, so every algorithm
/// and every seed index sees the same topology.
pub fn graph_seed(master: u64, family: &str, n: usize) -> u64 {
    Rng::seed_from(master)
        .fork(key_tag(family))
        .fork(n as u64)
        .next_u64()
}

/// The seed a cell's algorithm run draws from: additionally forked by
/// algorithm key and seed index.
pub fn algo_seed(master: u64, family: &str, n: usize, algo: &str, seed: u64) -> u64 {
    Rng::seed_from(master)
        .fork(key_tag(family))
        .fork(n as u64)
        .fork(key_tag(algo))
        .fork(seed)
        .next_u64()
}

/// The run seed `exp bench-engine` times an `(algo, n)` pair with,
/// unchanged so committed `BENCH_*.json` round counts stay comparable.
pub fn bench_seed(master: u64, algo: &str, n: usize) -> u64 {
    graph_seed(master ^ 0xBE7C, algo, n)
}

/// Resolves an algorithm registry key and applies `params` (a
/// [`CellKey::params`] list) over its defaults.
///
/// # Errors
///
/// [`SweepError::UnknownAlgorithm`] (with the closest registered key)
/// or [`SweepError::Param`] when the algorithm rejects a parameter.
pub fn algorithm(
    name: &str,
    params: &[(String, String)],
) -> Result<Box<dyn DynAlgorithm>, SweepError> {
    let kvs: Vec<(&str, &str)> = params
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    registry()
        .get(name)
        .ok_or_else(|| SweepError::UnknownAlgorithm {
            name: name.to_string(),
            suggestion: registry().suggest(name).map(str::to_string),
        })?
        .with_params(&kvs)
        .map_err(|e| SweepError::Param {
            message: e.to_string(),
        })
}

/// Resolves a generator key in the composed [`generators::registry`].
///
/// # Errors
///
/// [`SweepError::UnknownGenerator`] with the closest registered key.
pub fn generator(name: &str) -> Result<&'static NamedGenerator, SweepError> {
    generators::registry()
        .get(name)
        .ok_or_else(|| SweepError::UnknownGenerator {
            name: name.to_string(),
            suggestion: generators::registry().suggest(name).map(str::to_string),
        })
}

/// The domain rule: whether `algo` may run on `generator` at size `n`.
/// A registry family passes its guarantee, a built graph its realized
/// values; `is_tree` is only called for forest-only algorithms.
///
/// # Errors
///
/// [`SweepError::MinDegree`], else [`SweepError::NotATree`].
pub fn check_domain(
    algo: &dyn DynAlgorithm,
    generator: &str,
    n: usize,
    min_degree: usize,
    is_tree: impl FnOnce() -> bool,
) -> Result<(), SweepError> {
    let need = algo.problem().min_degree();
    if need > min_degree {
        return Err(SweepError::MinDegree {
            algorithm: algo.name(),
            generator: generator.to_string(),
            n,
            need,
            have: min_degree,
        });
    }
    if algo.requires_tree() && !is_tree() {
        return Err(SweepError::NotATree {
            algorithm: algo.name(),
            generator: generator.to_string(),
        });
    }
    Ok(())
}

/// Builds the `(family, n)` instance from its [`graph_seed`].
///
/// # Errors
///
/// [`SweepError::UnknownGenerator`] or [`SweepError::GraphBuild`].
pub fn build_instance(family: &str, n: usize, master_seed: u64) -> Result<Graph, SweepError> {
    generator(family)?
        .build(n, graph_seed(master_seed, family, n))
        .map_err(|e| SweepError::GraphBuild {
            generator: family.to_string(),
            n,
            message: format!("{e:?}"),
        })
}

/// One verified run of a cell (see [`measure`]).
#[derive(Debug, Clone)]
pub struct Measured {
    /// The cell's emitted metrics.
    pub result: CellResult,
    /// Completion times (the sweep pools them per group).
    pub times: CompletionTimes,
    /// Per-node bits sent, `None` when the run was not audited.
    pub node_bits_sent: Option<Vec<u64>>,
}

/// Runs `algo` on `g` in `ws`, verifies the output, and measures the
/// Definition 1 metrics of `cell`.
///
/// # Errors
///
/// The [`ViolationError`] of an invalid output (an algorithm bug).
pub fn measure(
    cell: SweepCell,
    algo: &dyn DynAlgorithm,
    g: &Graph,
    spec: &RunSpec,
    ws: &mut Workspace,
) -> Result<Measured, ViolationError> {
    let mut run = algo.execute_in(g, spec, ws);
    run.verify(g)?;
    let times = run.completion_times(g);
    let result = CellResult {
        cell,
        nodes: g.n(),
        edges: g.m(),
        min_degree: g.min_degree(),
        max_degree: g.degrees().max().unwrap_or(0),
        node_averaged: times.node_mean(),
        edge_averaged: times.edge_mean(),
        edge_averaged_one_endpoint: times.edge_one_endpoint_mean(),
        node_worst: times.node_max(),
        rounds: run.worst_case(),
        peak_message_bits: run.transcript.peak_message_bits(),
    };
    let node_bits_sent = run
        .transcript
        .audited()
        .then(|| std::mem::take(&mut run.transcript.node_bits_sent));
    Ok(Measured {
        result,
        times,
        node_bits_sent,
    })
}

/// The pseudo-family key of a file-backed instance: `file/<hash>`, where
/// `<hash>` is the 16-hex-digit `localavg_graph::io::content_hash` of
/// the loaded graph (identical to the `localavg-csr/v1` checksum
/// footer). `--graph-file` cells use this as their `family` component,
/// so the canonical cell string — and therefore goldens and the serve
/// cache — stays content-addressed: two files holding the same graph
/// name the same cells, a different graph names different ones, and no
/// registry-family canonical form changes (registry keys never start
/// with `file/`).
pub fn file_family(content_hash: u64) -> String {
    format!("file/{content_hash:016x}")
}

/// Recovers the content hash from a [`file_family`] key, or `None` for
/// registry families.
pub fn parse_file_family(family: &str) -> Option<u64> {
    let hex = family.strip_prefix("file/")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The canonical `(family, n, seed, algo, params, policy)` cell tuple
/// (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Generator registry key.
    pub family: String,
    /// Target size (the family may round it).
    pub n: usize,
    /// Seed index within the cell's group.
    pub seed: u64,
    /// Algorithm registry key.
    pub algo: String,
    /// String-keyed parameter overrides, sorted by key (empty =
    /// defaults). Kept sorted by the constructors.
    pub params: Vec<(String, String)>,
    /// Transcript policy the run executes under (a pure performance
    /// knob — metrics are policy-independent — but part of the tuple so
    /// a cache entry records exactly what was asked).
    pub policy: TranscriptPolicy,
}

impl CellKey {
    /// A defaults-identity key: no parameter overrides, `Full` policy.
    pub fn new(family: impl Into<String>, n: usize, seed: u64, algo: impl Into<String>) -> CellKey {
        CellKey {
            family: family.into(),
            n,
            seed,
            algo: algo.into(),
            params: Vec::new(),
            policy: TranscriptPolicy::Full,
        }
    }

    /// Attaches parameter overrides, sorting them into canonical order.
    #[must_use]
    pub fn with_params(mut self, mut params: Vec<(String, String)>) -> CellKey {
        params.sort();
        self.params = params;
        self
    }

    /// Sets the transcript policy.
    #[must_use]
    pub fn with_policy(mut self, policy: TranscriptPolicy) -> CellKey {
        self.policy = policy;
        self
    }

    /// The stable string form — the `exp serve` cache key. Params appear
    /// sorted, the policy by its stable label.
    pub fn canonical(&self) -> String {
        let params = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "family={};n={};seed={};algo={};params=[{}];policy={}",
            self.family,
            self.n,
            self.seed,
            self.algo,
            params,
            self.policy.label()
        )
    }

    /// [`key_tag`] of the canonical string: the content-addressed hash of
    /// the whole tuple.
    pub fn hash(&self) -> u64 {
        key_tag(&self.canonical())
    }

    /// The run seed of this cell's algorithm execution.
    pub fn algo_seed(&self, master: u64) -> u64 {
        algo_seed(master, &self.family, self.n, &self.algo, self.seed)
    }

    /// The `exp fuzz --exact` flags that replay this cell verbatim —
    /// the same canonical tuple, rendered as CLI arguments (`threads` is
    /// an executor knob, not part of the tuple, so it is passed in).
    pub fn replay_flags(&self, master_seed: u64, threads: usize) -> String {
        let mut flags = format!(
            "--master-seed {} --generators {} --algorithms {} --sizes {} --seed {} \
             --policy {} --threads {}",
            master_seed,
            self.family,
            self.algo,
            self.n,
            self.seed,
            self.policy.label(),
            threads
        );
        for (k, v) in &self.params {
            flags.push_str(&format!(" --param {}:{}={}", self.algo, k, v));
        }
        flags
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_stable_and_param_order_independent() {
        // Params arrive in either order, canonicalize identically.
        let a = CellKey::new("regular/4", 64, 1, "mis/luby")
            .with_params(vec![("b".into(), "2".into()), ("a".into(), "1".into())]);
        let b = CellKey::new("regular/4", 64, 1, "mis/luby")
            .with_params(vec![("a".into(), "1".into()), ("b".into(), "2".into())]);
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.hash(), b.hash());
        assert_eq!(
            a.canonical(),
            "family=regular/4;n=64;seed=1;algo=mis/luby;params=[a=1,b=2];policy=full"
        );
    }

    #[test]
    fn distinct_tuples_have_distinct_canonical_forms() {
        let base = CellKey::new("regular/4", 64, 0, "mis/luby");
        let by_seed = CellKey::new("regular/4", 64, 1, "mis/luby");
        let by_policy = base.clone().with_policy(TranscriptPolicy::None);
        let by_params = base
            .clone()
            .with_params(vec![("mark-factor".into(), "0.5".into())]);
        for other in [&by_seed, &by_policy, &by_params] {
            assert_ne!(base.canonical(), other.canonical());
            assert_ne!(base.hash(), other.hash());
        }
    }

    #[test]
    fn seeds_match_the_sweep_discipline() {
        // cell::graph_seed/algo_seed are the seeding functions the sweep
        // engine re-exports; the golden bytes pin this indirectly, this
        // test pins it directly.
        let key = CellKey::new("regular/4", 64, 2, "mis/luby");
        assert_eq!(
            key.algo_seed(7),
            algo_seed(7, "regular/4", 64, "mis/luby", 2)
        );
        assert_ne!(key.algo_seed(7), key.algo_seed(8));
    }

    #[test]
    fn file_family_round_trips_and_stays_out_of_the_registry_namespace() {
        let fam = file_family(0x0123_4567_89ab_cdef);
        assert_eq!(fam, "file/0123456789abcdef");
        assert_eq!(parse_file_family(&fam), Some(0x0123_4567_89ab_cdef));
        assert_eq!(parse_file_family("file/abc"), None);
        assert_eq!(parse_file_family("regular/4"), None);
        // A file-backed cell canonicalizes like any other — the hash is
        // simply part of the family string.
        let key = CellKey::new(file_family(7), 64, 0, "mis/luby");
        assert_eq!(
            key.canonical(),
            "family=file/0000000000000007;n=64;seed=0;algo=mis/luby;params=[];policy=full"
        );
    }

    #[test]
    fn replay_flags_round_trip_the_tuple() {
        let key = CellKey::new("path", 8, 3, "mis/luby")
            .with_policy(TranscriptPolicy::None)
            .with_params(vec![("mark-factor".into(), "0.5".into())]);
        let flags = key.replay_flags(5, 2);
        assert_eq!(
            flags,
            "--master-seed 5 --generators path --algorithms mis/luby --sizes 8 --seed 3 \
             --policy none --threads 2 --param mis/luby:mark-factor=0.5"
        );
    }
}
