//! Shared plumbing of the workloads: the run context, exact counters,
//! the per-unit outcome, and the traced wrappers around the layer calls
//! more than one workload makes.

use crate::trace::Tracer;
use localavg_core::algo::AlgoRun;
use localavg_graph::Graph;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Exact counters, summed by name. They are a pure function of the
/// workload and its seed, so they must repeat bit-for-bit across runs.
#[derive(Default)]
pub struct Counts(Mutex<BTreeMap<String, u64>>);

impl Counts {
    pub fn add(&self, name: &str, v: u64) {
        *self
            .0
            .lock()
            .expect("counter map poisoned")
            .entry(name.to_string())
            .or_insert(0) += v;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.0.lock().expect("counter map poisoned").clone()
    }
}

/// What a workload call needs besides its inputs.
pub struct Ctx {
    pub tr: Tracer,
    pub counts: Counts,
    /// Scratch directory inside the checkout for files the workload writes.
    pub tmp: PathBuf,
}

impl Ctx {
    pub fn new(trace: bool, tmp: PathBuf) -> Ctx {
        Ctx {
            tr: Tracer::new(trace),
            counts: Counts::default(),
            tmp,
        }
    }
}

/// The outcome of one measured unit of a workload.
#[derive(Debug, Default)]
pub struct Unit {
    /// Wall time of the unit, seconds.
    pub wall_s: f64,
    /// Latency of every request the unit made, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Cells (algorithm runs on an instance) the unit completed.
    pub cells: usize,
    /// Checked operations and how many of them failed.
    pub attempted: usize,
    pub failed: usize,
    /// Output digests that must repeat on every run with the same seed.
    pub digests: BTreeMap<String, u64>,
    /// Layer readings that depend on scheduling, so are not exact.
    pub gauges: BTreeMap<String, f64>,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl Unit {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }
}

/// 64-bit FNV-1a, the digest of every byte output the gates compare.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of `xs` (`q` in (0, 1]); 0 for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 2;
    if v.len() % 2 == 1 {
        v[k]
    } else {
        (v[k - 1] + v[k]) / 2.0
    }
}

/// Builds a registry instance. Lower-bound families are attributed to
/// the `lowerbound` layer, all others to `graph.gen`.
pub fn build_instance(
    cx: &Ctx,
    family: &str,
    n: usize,
    seed: u64,
    request: u64,
) -> Result<Graph, String> {
    let gen = localavg_bench::generators::registry()
        .get(family)
        .ok_or_else(|| format!("unknown generator `{family}`"))?;
    let name = if family.starts_with("lb/") {
        "lowerbound.build"
    } else {
        "graph.gen.build"
    };
    let g = cx
        .tr
        .span(name, request, || gen.build(n, seed))
        .map_err(|e| format!("{family} at n={n}: {e:?}"))?;
    cx.counts.add("graph.bytes", g.memory_bytes() as u64);
    Ok(g)
}

/// Adds one run's engine counters: rounds, messages, and live-node
/// rounds (the area under the live-frontier curve).
pub fn count_run(cx: &Ctx, algo: &str, run: &AlgoRun) {
    let t = &run.transcript;
    let live: usize = t.live_after_round.iter().sum();
    cx.counts.add("sim.rounds", t.rounds as u64);
    cx.counts.add("sim.messages", t.messages_sent as u64);
    cx.counts.add("sim.live_node_rounds", live as u64);
    cx.counts.add(
        &format!("core.algo.{}.rounds", metric_key(algo)),
        t.rounds as u64,
    );
}

/// An algorithm key as a metric name component (`/` becomes `-`).
pub fn metric_key(algo: &str) -> String {
    algo.replace('/', "-")
}

/// The span name of an engine execution under `threads` pool workers.
pub fn execute_span(threads: usize) -> &'static str {
    if threads == 0 {
        "sim.execute"
    } else {
        "sim.execute_par"
    }
}
