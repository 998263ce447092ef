//! The serve worker pool: jobs, shared state, and the cell executor.
//!
//! A [`Pool`] owns everything the daemon's worker threads share — the
//! bounded [`JobQueue`], the content-addressed [`CellCache`], a
//! single-flight [`GraphStore`] of built instances, the master seed,
//! and the service counters. Connection handlers enqueue one [`Job`]
//! per submitted cell; each worker thread runs [`Pool::worker_loop`]
//! with a private reusable [`Workspace`] until the queue closes.
//!
//! Execution runs the sweep engine's own cell path — the [`crate::cell`]
//! resolvers, domain rule, instance build and measured run, with the
//! same content-addressed seeds ([`CellKey::algo_seed`]) — and renders
//! the result through [`crate::emit::cell_json`], so a served line is
//! byte-identical to the same cell's line in an `exp sweep` report (the
//! serve goldens pin this).
//!
//! Liveness: workers never push onto the bounded queue and reply over
//! unbounded mpsc channels, so the only blocking edges are connection
//! threads → queue (relieved by workers popping) and waiter-workers →
//! in-flight cache leaders (always another worker actively executing).
//! The wait-for graph is acyclic and every sink makes progress.

use super::cache::{Acquire, CellCache};
use super::protocol::ServeStats;
use super::queue::JobQueue;
use crate::cell::{self, CellKey};
use crate::emit::cell_json;
use crate::sweep::SweepCell;
use localavg_core::algo::RunSpec;
use localavg_graph::Graph;
use localavg_sim::workspace::Workspace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// One unit of work: answer `key` and send the outcome back tagged
/// with the submission `index`.
#[derive(Debug)]
pub struct Job {
    /// The cell to answer.
    pub key: CellKey,
    /// Position of the cell in its batch (results are streamed back in
    /// submission order).
    pub index: usize,
    /// Reply channel of the submitting connection (unbounded, so
    /// workers never block sending).
    pub reply: Sender<JobReply>,
}

/// A worker's answer to one [`Job`].
#[derive(Debug)]
pub struct JobReply {
    /// The job's batch position.
    pub index: usize,
    /// The finished `localavg-sweep/v1` cell line, or a human-readable
    /// error.
    pub line: Result<String, String>,
}

#[derive(Debug)]
enum GraphSlot {
    Building,
    Ready(Arc<Graph>),
}

/// Single-flight store of built `(family, n)` instances.
///
/// The graph seed ignores algorithm and seed index, so every cell of a
/// `(family, n)` pair shares one instance — exactly the sweep engine's
/// "one fixed graph per group" rule. The first worker to need an
/// instance builds it; concurrent requests for the same pair wait on a
/// condvar instead of duplicating the build. Build errors are not
/// cached (they are deterministic, so retries fail identically, but
/// keeping failures out of the store keeps its invariant trivial).
#[derive(Debug, Default)]
pub struct GraphStore {
    slots: Mutex<HashMap<(String, usize), GraphSlot>>,
    built: Condvar,
}

impl GraphStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        GraphStore::default()
    }

    /// Returns the instance for `(key.family, key.n)`, building it on
    /// first use from the cell's content-addressed graph seed.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown families (with a
    /// closest-match suggestion) or generator failures.
    pub fn get(&self, key: &CellKey, master_seed: u64) -> Result<Arc<Graph>, String> {
        let store_key = (key.family.clone(), key.n);
        let mut slots = self.slots.lock().expect("graph store poisoned");
        loop {
            match slots.get(&store_key) {
                Some(GraphSlot::Ready(g)) => return Ok(Arc::clone(g)),
                Some(GraphSlot::Building) => {
                    slots = self.built.wait(slots).expect("graph store poisoned");
                }
                None => {
                    slots.insert(store_key.clone(), GraphSlot::Building);
                    break;
                }
            }
        }
        drop(slots);
        let built = cell::build_instance(&key.family, key.n, master_seed)
            .map(Arc::new)
            .map_err(|e| e.to_string());
        let mut slots = self.slots.lock().expect("graph store poisoned");
        match &built {
            Ok(g) => {
                slots.insert(store_key, GraphSlot::Ready(Arc::clone(g)));
            }
            Err(_) => {
                slots.remove(&store_key);
            }
        }
        drop(slots);
        self.built.notify_all();
        built
    }

    /// Number of instances currently resident.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("graph store poisoned").len()
    }

    /// Whether no instance has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything the daemon's threads share (see the module docs).
#[derive(Debug)]
pub struct Pool {
    /// Bounded job queue connection handlers feed.
    pub queue: JobQueue<Job>,
    /// Content-addressed result cache.
    pub cache: CellCache,
    /// Shared built instances.
    pub graphs: GraphStore,
    /// The master seed every cell seed is derived from (fixed at
    /// startup, so the cache key is exactly the cell tuple).
    pub master_seed: u64,
    threads: usize,
    executed: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    ws_runs: AtomicU64,
    ws_reuses: AtomicU64,
}

impl Pool {
    /// Creates the shared state for a pool of `threads` workers with the
    /// given cache/queue bounds (each clamped to ≥ 1 by its owner).
    pub fn new(
        threads: usize,
        cache_capacity: usize,
        queue_capacity: usize,
        master_seed: u64,
    ) -> Pool {
        Pool {
            queue: JobQueue::new(queue_capacity),
            cache: CellCache::new(cache_capacity),
            graphs: GraphStore::new(),
            master_seed,
            threads: threads.max(1),
            executed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            ws_runs: AtomicU64::new(0),
            ws_reuses: AtomicU64::new(0),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Drains jobs until the queue closes. Run by each worker thread;
    /// owns one reusable [`Workspace`] across all its cells.
    pub fn worker_loop(&self) {
        let mut ws = Workspace::new();
        while let Some(job) = self.queue.pop() {
            let line = self.answer(&job.key, &mut ws);
            self.served.fetch_add(1, Ordering::Relaxed);
            if line.is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            // A send error means the submitting connection hung up;
            // the work is cached either way, so drop the reply.
            let _ = job.reply.send(JobReply {
                index: job.index,
                line,
            });
        }
    }

    /// Answers one cell: cache hit, or lead the execution and publish.
    fn answer(&self, key: &CellKey, ws: &mut Workspace) -> Result<String, String> {
        match self.cache.acquire(key) {
            Acquire::Hit(line) => Ok(line),
            Acquire::Lead => {
                let before = ws.stats();
                let outcome = execute_cell(key, self.master_seed, &self.graphs, ws);
                let after = ws.stats();
                self.ws_runs
                    .fetch_add((after.runs - before.runs) as u64, Ordering::Relaxed);
                self.ws_reuses
                    .fetch_add((after.reuses - before.reuses) as u64, Ordering::Relaxed);
                match outcome {
                    Ok(line) => {
                        self.executed.fetch_add(1, Ordering::Relaxed);
                        self.cache.complete(key, line.clone());
                        Ok(line)
                    }
                    Err(e) => {
                        self.cache.abandon(key);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Point-in-time service counters (the `stats` response).
    pub fn stats(&self) -> ServeStats {
        let c = self.cache.stats();
        ServeStats {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            entries: c.entries,
            capacity: c.capacity,
            executed: self.executed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            workspace_runs: self.ws_runs.load(Ordering::Relaxed),
            workspace_reuses: self.ws_reuses.load(Ordering::Relaxed),
            threads: self.threads,
            master_seed: self.master_seed,
        }
    }
}

/// Runs one cell end to end through the [`crate::cell`] path —
/// algorithm and generator resolution, the domain rule on the family's
/// guarantee, the shared instance, the measured run — and renders the
/// `localavg-sweep/v1` line.
///
/// This is the serve-side twin of the sweep engine's per-cell body
/// ([`crate::sweep::run`]); the serve goldens assert the two produce
/// byte-identical lines for every golden cell.
///
/// # Errors
///
/// Returns a human-readable message for unknown registry keys (with
/// closest-match suggestions), rejected params, domain violations,
/// generator failures, and outputs that fail verification.
pub fn execute_cell(
    key: &CellKey,
    master_seed: u64,
    graphs: &GraphStore,
    ws: &mut Workspace,
) -> Result<String, String> {
    let algo = cell::algorithm(&key.algo, &key.params).map_err(|e| e.to_string())?;
    let family = cell::generator(&key.family).map_err(|e| e.to_string())?;
    cell::check_domain(
        &*algo,
        family.name(),
        key.n,
        family.min_degree(key.n),
        || family.is_tree(),
    )
    .map_err(|e| e.to_string())?;
    let g = graphs.get(key, master_seed)?;
    let sweep_cell = SweepCell {
        algorithm: algo.name(),
        generator: family.name(),
        n: key.n,
        seed: key.seed,
    };
    let spec = RunSpec::new(key.algo_seed(master_seed)).with_transcript(key.policy);
    let measured = cell::measure(sweep_cell, &*algo, &g, &spec, ws)
        .map_err(|e| format!("{key} produced an invalid output: {e}"))?;
    Ok(cell_json(&measured.result.row()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run as sweep_run, SweepSpec};
    use std::sync::mpsc::channel;

    fn pool() -> Pool {
        Pool::new(2, 64, 8, 7)
    }

    #[test]
    fn execute_cell_matches_the_sweep_engine_bytes() {
        let spec = SweepSpec {
            algorithms: vec!["mis/luby".into()],
            generators: vec!["regular/4".into()],
            sizes: vec![32],
            seeds: 2,
            master_seed: 7,
            params: Vec::new(),
        };
        let report = sweep_run(&spec, 1).unwrap();
        let graphs = GraphStore::new();
        let mut ws = Workspace::new();
        for result in &report.cells {
            let line = execute_cell(&result.cell.key(), 7, &graphs, &mut ws).unwrap();
            assert_eq!(line, cell_json(&result.row()), "cell {}", result.cell.key());
        }
        assert_eq!(graphs.len(), 1, "one shared (family, n) instance");
    }

    #[test]
    fn execute_cell_reports_unknown_keys_with_suggestions() {
        let graphs = GraphStore::new();
        let mut ws = Workspace::new();
        let bad_algo = CellKey::new("regular/4", 32, 0, "mis/lubby");
        let err = execute_cell(&bad_algo, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("mis/luby"), "got: {err}");
        let bad_gen = CellKey::new("regullar/4", 32, 0, "mis/luby");
        let err = execute_cell(&bad_gen, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("regular/4"), "got: {err}");
    }

    #[test]
    fn execute_cell_enforces_the_domain_filter() {
        let graphs = GraphStore::new();
        let mut ws = Workspace::new();
        // Sinkless orientation needs min degree 3; trees have leaves.
        let key = CellKey::new("tree/random", 32, 0, "orientation/rand");
        let err = execute_cell(&key, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("minimum degree"), "got: {err}");
        // Rake-and-compress only runs on forests: a typed error naming
        // the tree families, not a panic inside the algorithm.
        let key = CellKey::new("regular/4", 64, 0, "mis/tree-rc");
        let err = execute_cell(&key, 0, &graphs, &mut ws).unwrap_err();
        assert!(err.contains("only runs on forests"), "got: {err}");
        assert!(err.contains("tree/random"), "got: {err}");
        assert!(graphs.is_empty(), "a rejected cell builds no instance");
    }

    #[test]
    fn worker_loop_serves_jobs_and_counts_hits() {
        let p = pool();
        let (tx, rx) = channel();
        let key = CellKey::new("regular/4", 32, 0, "mis/luby");
        for index in 0..3 {
            p.queue
                .push(Job {
                    key: key.clone(),
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        p.queue.close();
        std::thread::scope(|s| {
            s.spawn(|| p.worker_loop());
            s.spawn(|| p.worker_loop());
        });
        drop(tx);
        let replies: Vec<JobReply> = rx.iter().collect();
        assert_eq!(replies.len(), 3);
        let lines: Vec<&String> = replies.iter().map(|r| r.line.as_ref().unwrap()).collect();
        assert!(lines.windows(2).all(|w| w[0] == w[1]));
        let s = p.stats();
        assert_eq!(s.executed, 1, "duplicates must coalesce or hit");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.served, 3);
        assert_eq!(s.errors, 0);
        assert!(s.workspace_runs >= 1);
    }

    #[test]
    fn worker_loop_streams_errors_without_caching_them() {
        let p = pool();
        let (tx, rx) = channel();
        let key = CellKey::new("tree/random", 32, 0, "orientation/rand");
        p.queue
            .push(Job {
                key: key.clone(),
                index: 0,
                reply: tx.clone(),
            })
            .unwrap();
        p.queue
            .push(Job {
                key,
                index: 1,
                reply: tx,
            })
            .unwrap();
        p.queue.close();
        std::thread::scope(|s| {
            s.spawn(|| p.worker_loop());
        });
        let replies: Vec<JobReply> = rx.iter().collect();
        assert_eq!(replies.len(), 2);
        assert!(replies.iter().all(|r| r.line.is_err()));
        let s = p.stats();
        assert_eq!(s.errors, 2);
        assert_eq!(s.executed, 0);
        assert_eq!(s.entries, 0, "failures must not be cached");
    }

    #[test]
    fn out_of_domain_tree_cells_leave_the_worker_serving() {
        // A tree-only algorithm on a cyclic family must come back as an
        // error reply: a worker that died here would strand its cache
        // reservation and every later job.
        let p = Pool::new(1, 64, 8, 7);
        let (tx, rx) = channel();
        let bad = CellKey::new("regular/4", 64, 0, "mis/tree-rc");
        let good = CellKey::new("path", 32, 0, "mis/luby");
        for (index, key) in [&bad, &bad, &good].into_iter().enumerate() {
            p.queue
                .push(Job {
                    key: key.clone(),
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        drop(tx);
        p.queue.close();
        std::thread::scope(|s| {
            s.spawn(|| p.worker_loop());
        });
        let mut replies: Vec<JobReply> = rx.iter().collect();
        replies.sort_by_key(|r| r.index);
        assert_eq!(replies.len(), 3);
        assert!(replies[0].line.is_err() && replies[1].line.is_err());
        assert!(replies[2].line.is_ok());
        let s = p.stats();
        assert_eq!(s.errors, 2);
        assert_eq!(s.executed, 1);
        assert_eq!(s.served, 3);
        assert!(p.cache.get(&bad).is_none(), "failures must not be cached");
        assert!(p.cache.get(&good).is_some());
    }
}
