//! Algorithm 1: `FindIsomorphism` (paper §C.1, Theorem 11).
//!
//! Given a cluster-tree graph and two nodes `v0 ∈ S(c0)`, `v1 ∈ S(c1)`
//! whose radius-k views are trees, the algorithm walks both views in
//! lockstep, bucketing neighbors by their directional edge label `β^i`
//! (Definition 8, self-loop edges sorted first) and zipping the buckets;
//! the single possible length mismatch (Lemma 19: the two histories) is
//! repaired by matching the two leftover nodes. The result is an
//! isomorphism between the radius-k views — the indistinguishability that
//! drives the Ω(min{log Δ/log log Δ, √(log n/log log n)}) lower bound.

use crate::base_graph::LiftedGk;
use localavg_graph::analysis::{bfs_distances, view_is_tree, UNREACHED};
use localavg_graph::NodeId;
use std::collections::HashMap;
use std::fmt;

/// Why `FindIsomorphism` failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsoError {
    /// A precondition failed: one of the views is not a tree.
    ViewNotTree(NodeId),
    /// Bucket lengths differed in an unrepairable way (more than the one
    /// history mismatch allowed by Lemma 19).
    BucketMismatch {
        /// Node on the `v0` side where the mismatch occurred.
        at: NodeId,
        /// Node on the `v1` side.
        at_other: NodeId,
    },
}

impl fmt::Display for IsoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsoError::ViewNotTree(v) => write!(f, "radius-k view of node {v} is not a tree"),
            IsoError::BucketMismatch { at, at_other } => {
                write!(f, "unrepairable bucket mismatch at pair ({at}, {at_other})")
            }
        }
    }
}

impl std::error::Error for IsoError {}

/// Runs Algorithm 1 on the lifted graph, producing the partial map
/// `φ : V(view_k(v0)) → V(view_k(v1))`.
///
/// # Errors
///
/// Returns [`IsoError::ViewNotTree`] when a precondition fails and
/// [`IsoError::BucketMismatch`] if the walk encounters an inconsistency
/// (which Theorem 11 proves cannot happen on valid inputs).
pub fn find_isomorphism(
    lg: &LiftedGk,
    k: usize,
    v0: NodeId,
    v1: NodeId,
) -> Result<HashMap<NodeId, NodeId>, IsoError> {
    let g = lg.graph();
    if !view_is_tree(g, v0, k) {
        return Err(IsoError::ViewNotTree(v0));
    }
    if !view_is_tree(g, v1, k) {
        return Err(IsoError::ViewNotTree(v1));
    }
    let mut phi = HashMap::new();
    phi.insert(v0, v1);
    walk(lg, k, v0, v1, None, k, &mut phi)?;
    Ok(phi)
}

/// One neighbor entry: (is_self, neighbor id) — self edges sort first.
fn buckets(lg: &LiftedGk, k: usize, v: NodeId, prev: Option<NodeId>) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<(bool, NodeId)>> = vec![Vec::new(); k + 2];
    for u in lg.graph().neighbor_ids(v) {
        if Some(u) == prev {
            continue;
        }
        let (exp, is_self) = lg.out_label(v, u);
        debug_assert!(exp < k + 2, "labels are β^0..β^{{k+1}}");
        out[exp].push((!is_self, u)); // false sorts first: self edges lead
    }
    out.iter_mut().for_each(|b| b.sort_unstable());
    out.into_iter()
        .map(|b| b.into_iter().map(|(_, u)| u).collect())
        .collect()
}

fn walk(
    lg: &LiftedGk,
    k: usize,
    v: NodeId,
    w: NodeId,
    prev: Option<(NodeId, NodeId)>,
    depth: usize,
    phi: &mut HashMap<NodeId, NodeId>,
) -> Result<(), IsoError> {
    if depth == 0 {
        return Ok(());
    }
    let nv = buckets(lg, k, v, prev.map(|(p, _)| p));
    let nw = buckets(lg, k, w, prev.map(|(_, q)| q));

    // Map zipped buckets (Algorithm 1's Map routine).
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..nv.len() {
        for (a, b) in nv[i].iter().zip(nw[i].iter()) {
            pairs.push((*a, *b));
        }
    }
    let longer_v: Vec<usize> = (0..nv.len())
        .filter(|&i| nv[i].len() > nw[i].len())
        .collect();
    let longer_w: Vec<usize> = (0..nv.len())
        .filter(|&i| nw[i].len() > nv[i].len())
        .collect();
    match (longer_v.len(), longer_w.len()) {
        (0, 0) => {}
        (1, 1)
            if nv[longer_v[0]].len() == nw[longer_v[0]].len() + 1
                && nw[longer_w[0]].len() == nv[longer_w[0]].len() + 1 =>
        {
            // Lemma 19's history mismatch: pair the two leftovers.
            let a = *nv[longer_v[0]].last().expect("nonempty");
            let b = *nw[longer_w[0]].last().expect("nonempty");
            pairs.push((a, b));
        }
        _ => {
            return Err(IsoError::BucketMismatch { at: v, at_other: w });
        }
    }
    for &(a, b) in &pairs {
        phi.insert(a, b);
    }
    for (a, b) in pairs {
        walk(lg, k, a, b, Some((v, w)), depth - 1, phi)?;
    }
    Ok(())
}

/// Verifies that `phi` is an isomorphism between the radius-`k` views of
/// `v0` and `v1` (Theorem 11 is about *unlabeled* views — the LOCAL model
/// sees topology only; the construction's β-labels guide the algorithm
/// but need not be preserved, e.g. the Lemma 19 repair maps across
/// exponents):
///
/// * `φ` is injective and distance-preserving,
/// * every view edge at an interior node maps to an edge,
/// * interior nodes (distance `< k`) have matching degrees.
pub fn verify_isomorphism(
    lg: &LiftedGk,
    k: usize,
    v0: NodeId,
    v1: NodeId,
    phi: &HashMap<NodeId, NodeId>,
) -> Result<(), String> {
    let g = lg.graph();
    let d0 = bfs_distances(g, v0, k);
    let d1 = bfs_distances(g, v1, k);
    // Injectivity.
    let mut seen = HashMap::new();
    for (&a, &b) in phi {
        if let Some(prev) = seen.insert(b, a) {
            return Err(format!("φ not injective: {prev} and {a} both map to {b}"));
        }
    }
    for (&a, &b) in phi {
        if d0[a] == UNREACHED || d1[b] == UNREACHED {
            return Err(format!("pair ({a}, {b}) outside the views"));
        }
        if d0[a] != d1[b] {
            return Err(format!(
                "distance mismatch: d(v0, {a}) = {} but d(v1, {b}) = {}",
                d0[a], d1[b]
            ));
        }
        if d0[a] < k && g.degree(a) != g.degree(b) {
            return Err(format!(
                "degree mismatch at interior pair ({a}, {b}): {} vs {}",
                g.degree(a),
                g.degree(b)
            ));
        }
        // Edge and label preservation for interior nodes.
        if d0[a] < k {
            for x in g.neighbor_ids(a) {
                let Some(&y) = phi.get(&x) else {
                    return Err(format!("neighbor {x} of interior node {a} unmapped"));
                };
                if !g.has_edge(b, y) {
                    return Err(format!("edge {{{a}, {x}}} maps to non-edge {{{b}, {y}}}"));
                }
            }
        }
    }
    Ok(())
}

/// Convenience: finds a pair `(v0 ∈ S(c0), v1 ∈ S(c1))` with tree-like
/// radius-`k` views, if one exists.
pub fn tree_like_pair(lg: &LiftedGk, k: usize) -> Option<(NodeId, NodeId)> {
    let g = lg.graph();
    let v0 = lg.s0().into_iter().find(|&v| view_is_tree(g, v, k))?;
    let v1 = lg
        .cluster_nodes(1)
        .into_iter()
        .find(|&v| view_is_tree(g, v, k))?;
    Some((v0, v1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_graph::BaseGraph;
    use localavg_graph::rng::Rng;

    fn lifted(k: usize, beta: u64, q: usize, seed: u64) -> LiftedGk {
        let base = BaseGraph::build(k, beta, 4_000_000).expect("base graph");
        let mut rng = Rng::seed_from(seed);
        LiftedGk::build(base, q, &mut rng)
    }

    #[test]
    fn isomorphism_exists_for_k1() {
        let lg = lifted(1, 4, 16, 3);
        let (v0, v1) = tree_like_pair(&lg, 1).expect("tree-like pair at q=16");
        let phi = find_isomorphism(&lg, 1, v0, v1).expect("Algorithm 1 succeeds");
        verify_isomorphism(&lg, 1, v0, v1, &phi).expect("φ is a labeled isomorphism");
        // The radius-1 view of an S(c0) node has 1 + degree nodes.
        assert_eq!(phi.len(), 1 + lg.graph().degree(v0));
    }

    #[test]
    fn isomorphism_is_nontrivial_across_clusters() {
        let lg = lifted(1, 4, 16, 4);
        let (v0, v1) = tree_like_pair(&lg, 1).expect("pair");
        assert_eq!(lg.cluster_of(v0), 0);
        assert_eq!(lg.cluster_of(v1), 1);
        // Same degree despite different clusters: indistinguishability.
        assert_eq!(lg.graph().degree(v0), lg.graph().degree(v1));
    }

    #[test]
    fn rejects_non_tree_views() {
        // Radius-1 views are always trees (edges between two distance-1
        // nodes are excluded by the paper's view definition), but radius-2
        // views of the unlifted base contain the K_{β,2} gadget 4-cycles.
        let lg = lifted(1, 4, 1, 5);
        let v0 = lg.s0()[0];
        let v1 = lg.cluster_nodes(1)[0];
        let err = find_isomorphism(&lg, 2, v0, v1).unwrap_err();
        assert!(matches!(err, IsoError::ViewNotTree(_)));
    }

    #[test]
    fn error_display() {
        let e = IsoError::ViewNotTree(3);
        assert!(e.to_string().contains("not a tree"));
        let e2 = IsoError::BucketMismatch { at: 1, at_other: 2 };
        assert!(e2.to_string().contains("mismatch"));
    }

    #[test]
    fn deeper_views_with_larger_lift() {
        // k=2 construction at β=4, q=4: no radius-2 view of an S(c0) or an
        // S(c1) node is a tree (the count stays 0 at q = 8, 16 and 32 too),
        // so there is no pair for Algorithm 1 and `tree_like_pair` must say
        // so. Radius-2 `ViewNotTree` rejection is covered by
        // `rejects_non_tree_views`.
        let lg = lifted(2, 4, 4, 7);
        let g = lg.graph();
        assert_eq!(lg.s0().len(), 4096);
        assert_eq!(lg.cluster_nodes(1).len(), 2048);
        assert!(!lg.s0().into_iter().any(|v| view_is_tree(g, v, 2)));
        assert!(!lg
            .cluster_nodes(1)
            .into_iter()
            .any(|v| view_is_tree(g, v, 2)));
        assert_eq!(tree_like_pair(&lg, 2), None);
    }
}
