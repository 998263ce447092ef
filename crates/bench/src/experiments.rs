//! The per-theorem experiments (DESIGN.md §5 index).
//!
//! Every function is deterministic given its scale and drives the
//! workspace through the *unified* algorithm API: experiments look
//! algorithms up in [`localavg_core::algo::registry`] and consume the
//! shared [`AlgoRun`] result type, so adding an algorithm family never
//! requires touching the harness. `Scale::Quick` keeps each experiment in
//! the sub-second range (used by `cargo bench` and tests); `Scale::Full`
//! produces the EXPERIMENTS.md numbers.

use crate::cell;
use crate::table::{f2, Table};
use localavg_core::algo::{registry, AlgoRun, Algorithm, DetRulingSpec, RulingDet, RunSpec};
use localavg_core::metrics::{CompletionTimes, RunAggregate};
use localavg_core::subroutines::log_star;
use localavg_graph::rng::Rng;
use localavg_graph::{analysis, gen, lift, Graph};
use localavg_lowerbound::base_graph::{BaseGraph, LiftedGk};
use localavg_lowerbound::cluster_tree::ClusterTree;
use localavg_lowerbound::constructions::{DoubledGk, TreeView};
use localavg_lowerbound::isomorphism;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small instances for benches and smoke tests.
    Quick,
    /// The sizes recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    fn ns(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![128, 512],
            Scale::Full => vec![256, 1024, 4096, 16384],
        }
    }

    fn seeds(&self) -> u64 {
        match self {
            Scale::Quick => 2,
            Scale::Full => 5,
        }
    }
}

fn regular(n: usize, d: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from(seed ^ 0xD15EA5E);
    gen::random_regular(n, d, &mut rng).expect("regular graph")
}

/// Looks an algorithm up by registry key (experiments only reference
/// algorithms through their string keys).
fn algo(name: &str) -> &'static dyn localavg_core::algo::DynAlgorithm {
    registry()
        .get(name)
        .unwrap_or_else(|| panic!("algorithm {name} not registered"))
}

/// Runs `name` on a fresh graph per seed and averages `K` metrics
/// extracted from each verified run — one run per seed, however many
/// scalars the caller wants out of it.
fn mean_metrics<const K: usize>(
    scale: Scale,
    name: &str,
    graph_of: impl Fn(u64) -> Graph,
    seed_of: impl Fn(u64) -> u64,
    metrics: impl Fn(&Graph, &AlgoRun) -> [f64; K],
) -> [f64; K] {
    let a = algo(name);
    let s = scale.seeds();
    let mut acc = [0.0f64; K];
    for i in 0..s {
        let g = graph_of(i);
        let run = a.execute(&g, &RunSpec::new(seed_of(i)));
        run.verify(&g).expect("registered algorithm must be valid");
        for (slot, x) in acc.iter_mut().zip(metrics(&g, &run)) {
            *slot += x / s as f64;
        }
    }
    acc
}

/// E1 — Figure 1: cluster-tree skeleton structure for k = 0..3.
pub fn e1_figure1(_scale: Scale) -> Table {
    let mut t = Table::new(
        "E1 (Figure 1) — cluster tree skeletons CT_k",
        &[
            "k",
            "nodes",
            "internal",
            "leaves",
            "directed edges (incl. self-loops)",
        ],
    );
    for k in 0..=3 {
        let ct = ClusterTree::new(k);
        let internal = ct.nodes().filter(|(_, n)| n.internal).count();
        t.row(vec![
            k.to_string(),
            ct.node_count().to_string(),
            internal.to_string(),
            (ct.node_count() - internal).to_string(),
            ct.edges().len().to_string(),
        ]);
    }
    t.note("CT_0 has 2 nodes and 3 labeled edges; every non-c0 node carries a self-loop (Obs. 7).");
    t
}

/// E2 — Theorem 2: the (2,2)-ruling set has node-averaged complexity O(1).
pub fn e2_two_two_ruling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E2 (Theorem 2) — randomized (2,2)-ruling set: node-averaged complexity is flat",
        &["n", "d", "node-avg", "worst-case", "log* n"],
    );
    for &n in &scale.ns() {
        for d in [4usize, 16] {
            if d >= n {
                continue;
            }
            let [avg, worst] = mean_metrics(
                scale,
                "ruling/two-two",
                |s| regular(n, d, s),
                |s| s + 1,
                |g, run| [run.report(g).node_averaged, run.worst_case() as f64],
            );
            t.row(vec![
                n.to_string(),
                d.to_string(),
                f2(avg),
                f2(worst),
                log_star(n as f64).to_string(),
            ]);
        }
    }
    t.note(
        "Theorem 2 claim: node-averaged O(1) — the node-avg column should not grow with n or d.",
    );
    t
}

/// E3 — Theorem 3: deterministic ruling sets, node-averaged ≈ O(log* n).
pub fn e3_det_ruling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3 (Theorem 3) — deterministic (2,β)-ruling set",
        &["n", "d", "variant", "β bound", "node-avg", "worst-case"],
    );
    for &n in &scale.ns() {
        let d = 4usize;
        if d >= n {
            continue;
        }
        let g = regular(n, d, 7);
        for (name, spec) in [
            ("log Δ", DetRulingSpec::LogDelta),
            ("log log n", DetRulingSpec::LogLogN),
        ] {
            let run = RulingDet.execute_with(&g, &RunSpec::new(0), &spec);
            run.verify(&g).expect("valid ruling set");
            let beta = match run.solution {
                localavg_core::algo::Solution::RulingSet { beta, .. } => beta,
                ref other => panic!("ruling/det produced {other:?}"),
            };
            let rep = run.report(&g);
            t.row(vec![
                n.to_string(),
                d.to_string(),
                name.to_string(),
                beta.to_string(),
                f2(rep.node_averaged),
                rep.rounds.to_string(),
            ]);
        }
    }
    t.note("Node-avg should stay near-flat (log* n); worst-case includes the Linial finisher.");
    t
}

/// E4 — Theorem 4: randomized maximal matching, edge-averaged O(1).
pub fn e4_luby_matching(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4 (Theorem 4) — randomized maximal matching",
        &["n", "d", "edge-avg", "node-avg", "worst-case", "log2 n"],
    );
    let a = algo("matching/luby");
    for &n in &scale.ns() {
        let d = 8usize;
        if d >= n {
            continue;
        }
        let (mut ea, mut na, mut wc) = (0.0, 0.0, 0.0);
        let seeds = scale.seeds();
        for s in 0..seeds {
            let g = regular(n, d, s);
            let run = a.execute(&g, &RunSpec::new(s + 3));
            let rep = run.report(&g);
            ea += rep.edge_averaged / seeds as f64;
            na += rep.node_averaged / seeds as f64;
            wc += rep.rounds as f64 / seeds as f64;
        }
        t.row(vec![
            n.to_string(),
            d.to_string(),
            f2(ea),
            f2(na),
            f2(wc),
            f2((n as f64).log2()),
        ]);
    }
    t.note("Edge-avg stays flat (O(1)); the worst case tracks log n.");
    t
}

/// E5 — Theorem 5: deterministic maximal matching.
pub fn e5_det_matching(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5 (Theorem 5) — deterministic maximal matching",
        &["n", "d", "edge-avg", "node-avg", "worst-case"],
    );
    let ns = match scale {
        Scale::Quick => vec![64, 128],
        Scale::Full => vec![256, 1024, 4096],
    };
    let a = algo("matching/det");
    for &n in &ns {
        for d in [4usize, 8] {
            if d >= n {
                continue;
            }
            let g = regular(n, d, 11);
            let run = a.execute(&g, &RunSpec::new(0));
            let rep = run.report(&g);
            t.row(vec![
                n.to_string(),
                d.to_string(),
                f2(rep.edge_averaged),
                f2(rep.node_averaged),
                rep.rounds.to_string(),
            ]);
        }
    }
    t.note("Paper: edge-avg O(log²Δ + log* n), node-avg O(log³Δ + log* n) — flat in n, growing mildly in Δ.");
    t
}

/// E6 — §3.1: MIS upper bounds (Luby vs degree-guided).
pub fn e6_mis_upper(scale: Scale) -> Table {
    let mut t = Table::new(
        "E6 (§3.1) — MIS node-averaged upper bounds on regular graphs",
        &[
            "n",
            "d",
            "algorithm",
            "node-avg",
            "edge-avg (1-endpoint)",
            "worst-case",
        ],
    );
    let n = match scale {
        Scale::Quick => 256,
        Scale::Full => 4096,
    };
    for d in [4usize, 16, 64] {
        if d >= n {
            continue;
        }
        for name in ["mis/luby", "mis/degree-guided"] {
            let a = algo(name);
            let (mut na, mut ea, mut wc) = (0.0, 0.0, 0.0);
            let seeds = scale.seeds();
            for s in 0..seeds {
                let g = regular(n, d, s + 17);
                let run = a.execute(&g, &RunSpec::new(s + 1));
                let rep = run.report(&g);
                na += rep.node_averaged / seeds as f64;
                ea += rep.edge_averaged_one_endpoint / seeds as f64;
                wc += rep.rounds as f64 / seeds as f64;
            }
            t.row(vec![
                n.to_string(),
                d.to_string(),
                name.to_string(),
                f2(na),
                f2(ea),
                f2(wc),
            ]);
        }
    }
    t.note("Luby's one-endpoint edge-average stays O(1); node-averages grow slowly with Δ (§1.1's O(log Δ / log log Δ)).");
    t
}

/// E7 — Theorem 6: deterministic sinkless orientation.
pub fn e7_det_orientation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7 (Theorem 6) — deterministic sinkless orientation on random 3-regular graphs",
        &["n", "node-avg", "worst-case", "log* n", "log2 n"],
    );
    let ns = match scale {
        Scale::Quick => vec![64, 256],
        Scale::Full => vec![128, 512, 2048, 8192],
    };
    let a = algo("orientation/det");
    for &n in &ns {
        let (mut na, mut wc) = (0.0, 0.0);
        let seeds = scale.seeds();
        for s in 0..seeds {
            let g = regular(n, 3, s + 5);
            let run = a.execute(&g, &RunSpec::new(0));
            let rep = run.report(&g);
            na += rep.node_averaged / seeds as f64;
            wc += rep.rounds as f64 / seeds as f64;
        }
        t.row(vec![
            n.to_string(),
            f2(na),
            f2(wc),
            log_star(n as f64).to_string(),
            f2((n as f64).log2()),
        ]);
    }
    t.note("Node-avg near-flat; worst case may grow like log n (the deterministic lower bound).");
    t.note("Clustering uses a measured greedy sweep instead of Linial's constant-heavy O(log* n) MIS (see DESIGN.md).");
    t
}

/// E8 — §1.2/\[GS17a\]: randomized sinkless orientation, node-avg O(1).
pub fn e8_rand_orientation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8 ([GS17a]) — randomized sinkless orientation",
        &["n", "d", "node-avg", "worst-case"],
    );
    let ns = match scale {
        Scale::Quick => vec![64, 256],
        Scale::Full => vec![256, 1024, 4096],
    };
    for &n in &ns {
        for d in [3usize, 6] {
            let [avg, wc] = mean_metrics(
                scale,
                "orientation/rand",
                |s| regular(n, d, s + 23),
                |s| s + 2,
                |g, run| [run.report(g).node_averaged, run.worst_case() as f64],
            );
            t.row(vec![n.to_string(), d.to_string(), f2(avg), f2(wc)]);
        }
    }
    t.note("Node-averaged complexity stays O(1) across n.");
    t
}

/// Builds a lifted lower-bound graph.
fn lifted_gk(k: usize, beta: u64, q: usize, seed: u64) -> LiftedGk {
    let base = BaseGraph::build(k, beta, 8_000_000).expect("base graph");
    let mut rng = Rng::seed_from(seed);
    LiftedGk::build(base, q, &mut rng)
}

/// E9 — Theorem 16: node-averaged MIS lower bound on the KMW graphs.
pub fn e9_mis_lower_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9 (Theorem 16) — MIS on the lifted cluster-tree graphs G̃_k",
        &[
            "k",
            "β",
            "q",
            "n",
            "algo",
            "node-avg",
            "S0 undecided @ round 3k",
            "(2,2)-RS node-avg",
        ],
    );
    let configs: Vec<(usize, u64, usize)> = match scale {
        Scale::Quick => vec![(1, 4, 2)],
        Scale::Full => vec![(1, 4, 4), (1, 8, 4), (2, 4, 2), (2, 4, 4)],
    };
    for (k, beta, q) in configs {
        let lg = lifted_gk(k, beta, q, 42 + k as u64);
        let g = lg.graph();
        let s0 = lg.s0();
        for name in ["mis/luby", "mis/degree-guided"] {
            let run = algo(name).execute(g, &RunSpec::new(9));
            let rep = run.report(g);
            let threshold = 3 * k; // the engine uses ~3 rounds per Luby iteration
            let undecided = s0
                .iter()
                .filter(|&&v| run.transcript.node_commit_round[v] > threshold)
                .count() as f64
                / s0.len() as f64;
            let rs_avg = algo("ruling/two-two")
                .execute(g, &RunSpec::new(9))
                .report(g)
                .node_averaged;
            t.row(vec![
                k.to_string(),
                beta.to_string(),
                q.to_string(),
                g.n().to_string(),
                name.to_string(),
                f2(rep.node_averaged),
                f2(undecided),
                f2(rs_avg),
            ]);
        }
    }
    t.note("Theorem 16: most of S(c0) cannot decide within k rounds, so the MIS node-average grows with k while the (2,2)-ruling set stays O(1) (Theorem 2's separation).");
    t
}

/// E10 — Theorem 16 (trees): MIS on extracted tree views.
pub fn e10_tree_mis(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10 (Theorem 16, trees) — randomized MIS on extracted radius-k tree views",
        &["k", "tree n", "Luby rounds", "greedy rounds"],
    );
    let configs: Vec<(usize, u64, usize)> = match scale {
        Scale::Quick => vec![(1, 4, 8)],
        Scale::Full => vec![(1, 4, 16), (2, 4, 4)],
    };
    for (k, beta, q) in configs {
        let lg = lifted_gk(k, beta, q, 77);
        let g = lg.graph();
        let Some(v0) = lg
            .s0()
            .into_iter()
            .find(|&v| analysis::view_is_tree(g, v, k))
        else {
            t.note(format!("k={k}: no tree-like S(c0) node at q={q}"));
            continue;
        };
        let tv = TreeView::extract(g, v0, k).expect("tree view");
        let luby = algo("mis/luby").execute(&tv.tree, &RunSpec::new(3));
        let greedy = algo("mis/greedy").execute(&tv.tree, &RunSpec::new(0));
        t.row(vec![
            k.to_string(),
            tv.tree.n().to_string(),
            luby.worst_case().to_string(),
            greedy.worst_case().to_string(),
        ]);
    }
    t.note("The paper proves any randomized tree MIS needs Ω(k) rounds on these instances.");
    t
}

/// E11 — Theorem 17: maximal matching on the doubled construction.
pub fn e11_matching_lower_bound(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11 (Theorem 17) — maximal matching on the doubled KMW graphs",
        &[
            "k",
            "β",
            "q",
            "n",
            "node-avg",
            "cross edges in matching",
            "cross decided @ round 4k",
        ],
    );
    let configs: Vec<(usize, u64, usize)> = match scale {
        Scale::Quick => vec![(1, 4, 1)],
        Scale::Full => vec![(1, 4, 2), (1, 8, 2), (2, 4, 2)],
    };
    for (k, beta, q) in configs {
        let lg = lifted_gk(k, beta, q, 5);
        let d = DoubledGk::build(&lg);
        let run = algo("matching/luby").execute(&d.graph, &RunSpec::new(13));
        let rep = run.report(&d.graph);
        let in_matching = run.solution.matching().expect("matching output");
        let cross = d.cross_fraction(in_matching);
        let threshold = 4 * k; // ~4 rounds per matching iteration
        let early = d
            .cross_edges
            .iter()
            .filter(|&&e| run.transcript.edge_commit_round[e] <= threshold)
            .count() as f64
            / d.cross_edges.len() as f64;
        t.row(vec![
            k.to_string(),
            beta.to_string(),
            q.to_string(),
            d.graph.n().to_string(),
            f2(rep.node_averaged),
            f2(cross),
            f2(early),
        ]);
    }
    t.note("Maximal matchings must take almost all cross edges, yet almost none are decided within k rounds — the node-average grows with k.");
    t
}

/// E12 — Theorem 11 / Algorithm 1: view indistinguishability.
pub fn e12_isomorphism(scale: Scale) -> Table {
    let mut t = Table::new(
        "E12 (Theorem 11) — Algorithm 1 view isomorphism between S(c0) and S(c1)",
        &[
            "k",
            "β",
            "q",
            "S0 tree-like frac",
            "pair found",
            "|view|",
            "verified",
        ],
    );
    let configs: Vec<(usize, u64, usize)> = match scale {
        Scale::Quick => vec![(1, 4, 8)],
        Scale::Full => vec![(1, 4, 16), (2, 4, 4)],
    };
    for (k, beta, q) in configs {
        let lg = lifted_gk(k, beta, q, 21);
        let frac = lg.s0_tree_like_fraction(k);
        match isomorphism::tree_like_pair(&lg, k) {
            None => t.row(vec![
                k.to_string(),
                beta.to_string(),
                q.to_string(),
                f2(frac),
                "no".into(),
                "-".into(),
                "-".into(),
            ]),
            Some((v0, v1)) => {
                let phi = isomorphism::find_isomorphism(&lg, k, v0, v1).expect("Algorithm 1");
                let ok = isomorphism::verify_isomorphism(&lg, k, v0, v1, &phi).is_ok();
                t.row(vec![
                    k.to_string(),
                    beta.to_string(),
                    q.to_string(),
                    f2(frac),
                    "yes".into(),
                    phi.len().to_string(),
                    ok.to_string(),
                ]);
            }
        }
    }
    t.note("Tree-like S(c0)/S(c1) nodes have isomorphic radius-k views: a k-round algorithm cannot tell them apart.");
    t
}

/// E13 — Lemma 12 / Corollary 15: random-lift statistics.
pub fn e13_lift_statistics(scale: Scale) -> Table {
    let mut t = Table::new(
        "E13 (Lemma 12) — random lift short-cycle statistics (base: K4, Δ=3, ℓ=3)",
        &["q", "measured fraction on ≤3-cycle", "Lemma 12 bound Δ^ℓ/q"],
    );
    let qs: Vec<usize> = match scale {
        Scale::Quick => vec![4, 16],
        Scale::Full => vec![4, 16, 64, 256],
    };
    let base = gen::complete(4);
    for q in qs {
        let mut rng = Rng::seed_from(31 + q as u64);
        let lifted = lift::lift(&base, q, &mut rng);
        let measured = lift::short_cycle_fraction(&lifted, 3);
        let bound = 27.0 / q as f64;
        t.row(vec![q.to_string(), f2(measured), f2(bound.min(1.0))]);
    }
    t.note("Lifting the K_{β,2} gadget graphs makes most S(c0) views tree-like (Cor. 15).");
    t
}

/// E14 — Appendix A: the complexity-measure inequality chain.
pub fn e14_appendix_a(scale: Scale) -> Table {
    let mut t = Table::new(
        "E14 (Appendix A) — AVG_V ≤ AVG^w_V ≤ EXP_V ≤ WORST for Luby MIS",
        &[
            "graph",
            "AVG_V",
            "adversarial AVG^w_V",
            "EXP_V",
            "E[WORST]",
            "chain holds",
        ],
    );
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 1024,
    };
    let a = algo("mis/luby");
    for (name, g) in [
        ("4-regular", regular(n, 4, 3)),
        ("G(n, 8/n)", {
            let mut rng = Rng::seed_from(4);
            gen::gnp(n, 8.0 / n as f64, &mut rng)
        }),
    ] {
        let runs: Vec<AlgoRun> = (0..10u64)
            .map(|s| a.execute(&g, &RunSpec::new(s)))
            .collect();
        let times: Vec<CompletionTimes> = runs.iter().map(|r| r.completion_times(&g)).collect();
        let rounds: Vec<usize> = runs.iter().map(|r| r.worst_case()).collect();
        let agg = RunAggregate::from_times(&times, &rounds);
        t.row(vec![
            name.to_string(),
            f2(agg.node_averaged),
            f2(agg.adversarial_weighted_node_averaged()),
            f2(agg.node_expected),
            f2(agg.worst_case),
            agg.inequality_chain_holds().to_string(),
        ]);
    }
    t
}

/// E15 — §1.2: randomized (Δ+1)-coloring, node-avg O(1).
pub fn e15_coloring(scale: Scale) -> Table {
    let mut t = Table::new(
        "E15 (§1.2) — randomized (Δ+1)-coloring by color trials",
        &["n", "d", "node-avg", "worst-case"],
    );
    for &n in &scale.ns() {
        let d = 8usize;
        if d >= n {
            continue;
        }
        let [avg, wc] = mean_metrics(
            scale,
            "coloring/trial",
            |s| regular(n, d, s + 31),
            |s| s + 1,
            |g, run| [run.report(g).node_averaged, run.worst_case() as f64],
        );
        t.row(vec![n.to_string(), d.to_string(), f2(avg), f2(wc)]);
    }
    t.note("Every node keeps a proposed color with constant probability: node-avg O(1), worst case Θ(log n).");
    t
}

/// E16 — footnote 2: the two edge-completion conventions for MIS.
pub fn e16_footnote2(scale: Scale) -> Table {
    let mut t = Table::new(
        "E16 (footnote 2) — Luby MIS edge-averaged: one-endpoint vs Definition 1",
        &[
            "graph",
            "edge-avg (1-endpoint)",
            "edge-avg (Def. 1)",
            "node-avg",
        ],
    );
    let (k, beta, q) = match scale {
        Scale::Quick => (1, 4u64, 2usize),
        Scale::Full => (2, 4u64, 2usize),
    };
    let a = algo("mis/luby");
    let lg = lifted_gk(k, beta, q, 3);
    let g = lg.graph();
    let rep = a.execute(g, &RunSpec::new(7)).report(g);
    t.row(vec![
        format!("G̃_{k} (β={beta}, q={q})"),
        f2(rep.edge_averaged_one_endpoint),
        f2(rep.edge_averaged),
        f2(rep.node_averaged),
    ]);
    let n = match scale {
        Scale::Quick => 256,
        Scale::Full => 2048,
    };
    let g = regular(n, 8, 2);
    let rep = a.execute(&g, &RunSpec::new(7)).report(&g);
    t.row(vec![
        format!("8-regular n={n}"),
        f2(rep.edge_averaged_one_endpoint),
        f2(rep.edge_averaged),
        f2(rep.node_averaged),
    ]);
    t.note("Under the relaxed convention Luby is O(1); under Definition 1 the edge average is pinned to node decisions (Theorem 16 lower-bounds it on G̃_k).");
    t
}

/// E17 — the unified-API sweep: every registered algorithm, one line each.
///
/// The generic driver the redesign enables: no per-family code at all —
/// the registry decides what runs, the shared [`AlgoRun`] provides the
/// metrics, and problems whose domain excludes the instance (sinkless
/// orientation needs min degree 3) are skipped by their own declaration.
pub fn e17_registry_sweep(scale: Scale) -> Table {
    let mut t = Table::new(
        "E17 (unified API) — every registered algorithm on one regular graph",
        &[
            "algorithm",
            "problem",
            "det",
            "node-avg",
            "edge-avg",
            "worst-case",
            "peak msg bits",
        ],
    );
    let n = match scale {
        Scale::Quick => 128,
        Scale::Full => 1024,
    };
    let g = regular(n, 4, 19);
    let tree = gen::random_tree(n, &mut Rng::seed_from(19 ^ 0xD15EA5E));
    for a in registry().iter() {
        // Tree-restricted algorithms run on a same-size random tree
        // (and are flagged as such in the notes below).
        let (g, family) = if a.requires_tree() {
            (&tree, "tree/random")
        } else {
            (&g, "regular/4")
        };
        if let Err(e) = cell::check_domain(a, family, n, g.min_degree(), || analysis::is_forest(g))
        {
            t.note(format!("{} skipped: {e}", a.name()));
            continue;
        }
        let run = a.execute(g, &RunSpec::new(7));
        run.verify(g).expect("registered algorithm must be valid");
        let rep = run.report(g);
        t.row(vec![
            a.name().to_string(),
            a.problem().label().to_string(),
            a.deterministic().to_string(),
            f2(rep.node_averaged),
            f2(rep.edge_averaged),
            rep.rounds.to_string(),
            run.transcript
                .peak_message_bits()
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
        ]);
    }
    t.note("d=4 keeps sinkless orientation in scope (its domain needs min degree 3).");
    t.note("*/tree-rc rows ran on a same-size random tree (their domain is forests).");
    t
}

/// All experiments in index order.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![
        e1_figure1(scale),
        e2_two_two_ruling(scale),
        e3_det_ruling(scale),
        e4_luby_matching(scale),
        e5_det_matching(scale),
        e6_mis_upper(scale),
        e7_det_orientation(scale),
        e8_rand_orientation(scale),
        e9_mis_lower_bound(scale),
        e10_tree_mis(scale),
        e11_matching_lower_bound(scale),
        e12_isomorphism(scale),
        e13_lift_statistics(scale),
        e14_appendix_a(scale),
        e15_coloring(scale),
        e16_footnote2(scale),
        e17_registry_sweep(scale),
    ]
}

/// Experiment ids accepted by the `exp` binary, with their runners.
pub fn by_id(id: &str, scale: Scale) -> Option<Table> {
    let f: fn(Scale) -> Table = match id {
        "e1" => e1_figure1,
        "e2" => e2_two_two_ruling,
        "e3" => e3_det_ruling,
        "e4" => e4_luby_matching,
        "e5" => e5_det_matching,
        "e6" => e6_mis_upper,
        "e7" => e7_det_orientation,
        "e8" => e8_rand_orientation,
        "e9" => e9_mis_lower_bound,
        "e10" => e10_tree_mis,
        "e11" => e11_matching_lower_bound,
        "e12" => e12_isomorphism,
        "e13" => e13_lift_statistics,
        "e14" => e14_appendix_a,
        "e15" => e15_coloring,
        "e16" => e16_footnote2,
        "e17" => e17_registry_sweep,
        _ => return None,
    };
    Some(f(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_rows() {
        for table in all(Scale::Quick) {
            assert!(
                !table.rows.is_empty() || !table.notes.is_empty(),
                "experiment {} produced nothing",
                table.title
            );
        }
    }

    #[test]
    fn registry_sweep_covers_every_family() {
        let t = e17_registry_sweep(Scale::Quick);
        for family in ["mis/", "ruling/", "matching/", "orientation/", "coloring/"] {
            assert!(
                t.rows.iter().any(|r| r[0].starts_with(family)),
                "family {family} missing from the sweep"
            );
        }
    }

    #[test]
    fn by_id_knows_every_experiment() {
        assert!(by_id("e1", Scale::Quick).is_some());
        assert!(by_id("e17", Scale::Quick).is_some());
        assert!(by_id("e99", Scale::Quick).is_none());
    }
}
