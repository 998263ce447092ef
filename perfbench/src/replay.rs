//! The traced replay of `localavg_bench::sweep::run_with_file`.
//!
//! `sweep::run` is one call, so spans around it cannot say where its time
//! goes. The attribution pass instead walks the same cells through the
//! public functions the sweep itself calls — instance build, the
//! registry's `execute_in`, `AlgoRun::verify`, the completion-time
//! metrics, group aggregation and `topology_stats` — with a span around
//! each, on the same number of worker threads. The report it assembles
//! must serialize to the same bytes as the library's, which the callers
//! check; that is what makes its spans a faithful breakdown.

use crate::common::{build_instance, count_run, Ctx};
use localavg_bench::sweep::{
    self, CellResult, FileGraph, GroupDistributions, GroupResult, SweepReport, SweepSpec,
};
use localavg_core::algo::{registry, DynAlgorithm, RunSpec, Workspace};
use localavg_core::metrics::{CompletionTimes, Distribution, RunAggregate};
use localavg_graph::analysis::topology_stats;
use localavg_graph::Graph;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Outcome {
    result: CellResult,
    times: CompletionTimes,
    node_bits_sent: Option<Vec<u64>>,
}

/// Replays `sweep::run_with_file(spec, threads, file)` under spans.
/// Returns the report and the number of cells whose output failed
/// verification (the library panics on those; the replay counts them).
pub fn sweep(
    cx: &Ctx,
    spec: &SweepSpec,
    threads: usize,
    file: Option<&FileGraph>,
    request: u64,
) -> Result<(SweepReport, usize), String> {
    cx.tr.span("bench.sweep.replay", request, || {
        let cells = spec.cells_with(file).map_err(|e| e.to_string())?;
        let mut algos: BTreeMap<&str, &'static dyn DynAlgorithm> = BTreeMap::new();
        for name in &spec.algorithms {
            let a = registry()
                .get(name)
                .ok_or_else(|| format!("unknown algorithm `{name}`"))?;
            algos.insert(a.name(), a);
        }
        let mut graphs: BTreeMap<(&'static str, usize), Graph> = BTreeMap::new();
        for c in &cells {
            if file.is_some_and(|f| f.family == c.generator)
                || graphs.contains_key(&(c.generator, c.n))
            {
                continue;
            }
            let seed = sweep::graph_seed(spec.master_seed, c.generator, c.n);
            graphs.insert(
                (c.generator, c.n),
                build_instance(cx, c.generator, c.n, seed, request)?,
            );
        }
        let instance = |generator: &'static str, n: usize| -> &Graph {
            match file {
                Some(f) if f.family == generator => &f.graph,
                _ => &graphs[&(generator, n)],
            }
        };

        let threads = threads.clamp(1, cells.len().max(1));
        let slots: Vec<Mutex<Option<Outcome>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        let invalid = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        let parent = cx.tr.current();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    cx.tr.adopt(parent, || {
                        cx.tr.span("bench.sweep.worker", request, || {
                            let mut ws = Workspace::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= cells.len() {
                                    break;
                                }
                                let cell = cells[i];
                                let g = instance(cell.generator, cell.n);
                                let algo = algos[cell.algorithm];
                                let rs = RunSpec::new(sweep::algo_seed(spec.master_seed, &cell));
                                let req = i as u64;
                                let run = cx.tr.tagged("sim.execute", algo.name(), req, || {
                                    algo.execute_in(g, &rs, &mut ws)
                                });
                                count_run(cx, algo.name(), &run);
                                if cx.tr.span("core.verify", req, || run.verify(g)).is_err() {
                                    invalid.fetch_add(1, Ordering::Relaxed);
                                }
                                let outcome = cx.tr.span("core.metrics", req, || {
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
                                        .then(|| run.transcript.node_bits_sent.clone());
                                    Outcome {
                                        result,
                                        times,
                                        node_bits_sent,
                                    }
                                });
                                *slots[i].lock().expect("result slot") = Some(outcome);
                            }
                            let st = ws.stats();
                            cx.counts.add("sim.workspace.runs", st.runs as u64);
                            cx.counts.add("sim.workspace.reuses", st.reuses as u64);
                        })
                    })
                });
            }
        });
        let outcomes: Vec<Outcome> = slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot")
                    .expect("every cell ran")
            })
            .collect();

        let mut groups = Vec::new();
        let mut i = 0;
        while i < outcomes.len() {
            let head = outcomes[i].result.cell;
            let j = i + outcomes[i..]
                .iter()
                .take_while(|o| {
                    let c = &o.result.cell;
                    (c.algorithm, c.generator, c.n) == (head.algorithm, head.generator, head.n)
                })
                .count();
            let group = &outcomes[i..j];
            let times: Vec<CompletionTimes> = group.iter().map(|o| o.times.clone()).collect();
            let rounds: Vec<usize> = group.iter().map(|o| o.result.rounds).collect();
            let pooled_node: Vec<_> = times.iter().flat_map(|t| t.node.iter().copied()).collect();
            let pooled_edge: Vec<_> = times.iter().flat_map(|t| t.edge.iter().copied()).collect();
            let pooled_bits = group
                .iter()
                .map(|o| o.node_bits_sent.as_deref())
                .collect::<Option<Vec<&[u64]>>>()
                .map(|per_run| per_run.concat());
            let (agg, distributions) = cx.tr.span("core.metrics", request, || {
                let d = GroupDistributions {
                    node_time: Distribution::from_rounds(&pooled_node),
                    edge_time: Distribution::from_rounds(&pooled_edge),
                    node_bits_sent: pooled_bits.as_deref().map(Distribution::from_values),
                };
                (RunAggregate::from_times(&times, &rounds), d)
            });
            let topology = cx.tr.span("graph.analysis.topology", request, || {
                topology_stats(instance(head.generator, head.n))
            });
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
                distributions,
                topology,
            });
            i = j;
        }
        let report = SweepReport {
            spec: spec.clone(),
            cells: outcomes.into_iter().map(|o| o.result).collect(),
            groups,
        };
        Ok((report, invalid.into_inner()))
    })
}
