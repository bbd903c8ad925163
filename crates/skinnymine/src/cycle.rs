//! Frequent odd-cycle seed patterns `C_{2l+1}` — the minimal **non-path**
//! constraint-satisfying patterns of the skinny constraint.
//!
//! For diameter length `l`, the odd cycle on `2l + 1` vertices has diameter
//! exactly `l`, and every one-edge or one-vertex reduction changes that
//! diameter — so `C_{2l+1}` is a genuinely minimal pattern of the `(l, δ)`
//! constraint for `δ >= 1` (e.g. C₅ for `l = 2`), and Stage II can never
//! reach it by growing a path seed: each intermediate would violate the
//! canonical-diameter invariant.  Definition-8 completeness on adversarial
//! inputs therefore needs these cycles seeded directly.
//!
//! A `C_{2l+1}` occurrence is exactly two length-`l` paths that start at the
//! cycle's smallest vertex, are otherwise disjoint, and end at the two
//! endpoints of one data edge.  For an anti-monotone support measure both
//! halves of a frequent cycle are frequent paths, so
//! [`DiamMine::cycles_from_level`](crate::diam_mine::DiamMine::cycles_from_level)
//! derives every frequent cycle by a self-join of a length-`l` level.  Under
//! the measures that are not anti-monotone a frequent cycle can have an
//! infrequent half, and the cycles are closed from the frequent length-`2l`
//! paths instead;
//! [`DiamMine::cycle_seeds_with_stats`](crate::diam_mine::DiamMine::cycle_seeds_with_stats)
//! picks the route.
//!
//! A labeled cycle has `2m` symmetries (`m` rotations × 2 directions);
//! [`CyclePattern::canonicalize`] quotients them out so each undirected cycle
//! occurrence is stored exactly once under one canonical key, and
//! [`CyclePattern::dedup`] sorts the rows, so the stored bytes depend only on
//! the occurrence set and not on the route that found it.

use serde::{Deserialize, Serialize};
use skinny_graph::{GraphView, Label, LabeledGraph, OccurrenceStore, SupportMeasure, VertexId};
use std::collections::HashMap;

/// The canonical identity of a labeled cycle: vertex labels in cyclic order
/// plus edge labels, minimized over all rotations and reflections.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CycleKey {
    /// Vertex labels around the cycle (length = cycle length `m`).
    pub vertex_labels: Vec<Label>,
    /// Edge labels around the cycle: `edge_labels[i]` labels the edge between
    /// cyclic positions `i` and `(i + 1) mod m`.
    pub edge_labels: Vec<Label>,
}

impl CycleKey {
    /// Cycle length in edges (= vertices).
    pub fn len(&self) -> usize {
        self.vertex_labels.len()
    }

    /// True for the degenerate empty key.
    pub fn is_empty(&self) -> bool {
        self.vertex_labels.is_empty()
    }

    /// The diameter length `l` of the odd cycle `C_{2l+1}` this key
    /// describes.
    pub fn diameter_len(&self) -> usize {
        self.len() / 2
    }

    /// A cheap order-sensitive 64-bit fingerprint of the canonical label
    /// sequences, using the same deterministic mixer as the graph-level
    /// canonical fingerprints ([`skinny_graph::canon::mix`]).  Equal keys
    /// always collide; cycle accumulation buckets on this and compares full
    /// keys only inside a bucket — the cycle-side instance of the
    /// fingerprint → full-key funnel.
    pub fn fingerprint(&self) -> u64 {
        let mut h = skinny_graph::canon::mix(self.vertex_labels.len() as u64);
        for &l in &self.vertex_labels {
            h = skinny_graph::canon::mix(h.rotate_left(1) ^ l.0 as u64);
        }
        for &l in &self.edge_labels {
            h = skinny_graph::canon::mix(h.rotate_left(3) ^ l.0 as u64);
        }
        h
    }
}

/// A frequent cycle pattern with its occurrences in columnar layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CyclePattern {
    /// Canonical identity of the cycle.
    pub key: CycleKey,
    /// Occurrences, one row per undirected cycle occurrence; row vertices
    /// follow the key's canonical cyclic orientation.
    pub embeddings: OccurrenceStore,
}

impl CyclePattern {
    /// Creates an empty pattern for a key.
    pub fn new(key: CycleKey) -> Self {
        let arity = key.vertex_labels.len();
        CyclePattern { key, embeddings: OccurrenceStore::new(arity) }
    }

    /// Cycle length in edges (= vertices).
    pub fn cycle_len(&self) -> usize {
        self.key.len()
    }

    /// The diameter length `l` of this `C_{2l+1}` seed.
    pub fn diameter_len(&self) -> usize {
        self.key.diameter_len()
    }

    /// Support of the pattern under the chosen measure.
    pub fn support(&self, measure: SupportMeasure) -> usize {
        self.embeddings.support(measure)
    }

    /// Adds a canonicalized occurrence (as produced by
    /// [`CyclePattern::canonicalize`]).
    pub fn push_occurrence(&mut self, t: usize, vertices: &[VertexId]) {
        self.embeddings.push_row(t, vertices);
    }

    /// Sorts the occurrences by `(transaction, vertices)` and removes exact
    /// duplicates (a route that discovers the same undirected cycle more than
    /// once, e.g. once per length-`2l` sub-path, canonicalizes every
    /// discovery to the same row).  The sorted order makes the stored rows a
    /// function of the occurrence set alone.
    pub fn dedup(&mut self) {
        let s = &self.embeddings;
        let mut order: Vec<usize> = (0..s.len()).collect();
        order.sort_unstable_by(|&a, &b| (s.transaction(a), s.row(a)).cmp(&(s.transaction(b), s.row(b))));
        order.dedup_by(|a, b| s.get(*a) == s.get(*b));
        let mut sorted = OccurrenceStore::with_capacity(s.arity(), order.len());
        for i in order {
            sorted.push_row(s.transaction(i), s.row(i));
        }
        self.embeddings = sorted;
    }

    /// Canonicalizes one cycle occurrence given as a directed *path* vertex
    /// sequence `v_0 … v_{m-1}` (in path order) whose endpoints are joined by
    /// a data edge labeled `closing`.
    ///
    /// Returns the canonical [`CycleKey`] (label sequences minimized over all
    /// `2m` rotations/reflections) and the occurrence's vertex sequence
    /// rewritten into that canonical cyclic orientation (ties among
    /// label-equal symmetries broken by the smaller vertex-id sequence, so
    /// every symmetry of the same undirected occurrence maps to one row).
    pub fn canonicalize<G: GraphView>(
        view: &G,
        path_vertices: &[VertexId],
        closing: Label,
    ) -> (CycleKey, Vec<VertexId>) {
        let m = path_vertices.len();
        debug_assert!(m >= 3, "a cycle needs at least 3 vertices");
        let vlabels: Vec<Label> = path_vertices.iter().map(|&v| view.label(v)).collect();
        let mut elabels: Vec<Label> = path_vertices
            .windows(2)
            .map(|w| view.edge_label(w[0], w[1]).unwrap_or(Label::DEFAULT_EDGE))
            .collect();
        elabels.push(closing);

        let mut best: Option<(Vec<Label>, Vec<Label>, Vec<VertexId>)> = None;
        let mut cand_v = Vec::with_capacity(m);
        let mut cand_e = Vec::with_capacity(m);
        let mut cand_ids = Vec::with_capacity(m);
        for rot in 0..m {
            for dir in [1isize, -1] {
                cand_v.clear();
                cand_e.clear();
                cand_ids.clear();
                for j in 0..m {
                    let pos = (rot as isize + dir * j as isize).rem_euclid(m as isize) as usize;
                    cand_v.push(vlabels[pos]);
                    cand_ids.push(path_vertices[pos]);
                    // edge between cyclic positions j and j+1 of the candidate
                    let edge_pos =
                        if dir == 1 { pos } else { (pos as isize - 1).rem_euclid(m as isize) as usize };
                    cand_e.push(elabels[edge_pos]);
                }
                let better = match &best {
                    None => true,
                    Some((bv, be, bids)) => (&cand_v, &cand_e, &cand_ids) < (bv, be, bids),
                };
                if better {
                    best = Some((cand_v.clone(), cand_e.clone(), cand_ids.clone()));
                }
            }
        }
        let (vertex_labels, edge_labels, vertices) = best.expect("m >= 3 yields candidates");
        (CycleKey { vertex_labels, edge_labels }, vertices)
    }

    /// Materializes the pattern as a standalone cycle-shaped
    /// [`LabeledGraph`] whose vertices `0..m` carry the canonical labels in
    /// cyclic order, with edges `(i, i+1)` and `(m-1, 0)`.
    pub fn to_graph(&self) -> LabeledGraph {
        let m = self.cycle_len();
        let mut g = LabeledGraph::with_capacity(m);
        for &l in &self.key.vertex_labels {
            g.add_vertex(l);
        }
        for i in 0..m {
            let j = (i + 1) % m;
            g.add_edge(VertexId(i as u32), VertexId(j as u32), self.key.edge_labels[i])
                .expect("cycle edges are always valid");
        }
        g
    }
}

/// Accumulates canonicalized cycle occurrences by key on the cycle-key
/// fingerprint funnel: an occurrence is routed by the cheap 64-bit
/// [`CycleKey::fingerprint`] and the full key is compared only inside a
/// bucket, so the per-occurrence path neither clones a key nor walks an
/// ordered map.
#[derive(Debug, Default)]
pub(crate) struct CycleTable {
    patterns: Vec<CyclePattern>,
    by_fp: HashMap<u64, Vec<u32>>,
}

impl CycleTable {
    /// Adds the cycle occurrence given as a directed path `path_vertices`
    /// whose endpoints are joined by a data edge labeled `closing`.
    pub(crate) fn push<G: GraphView>(
        &mut self,
        view: &G,
        t: usize,
        path_vertices: &[VertexId],
        closing: Label,
    ) {
        let (key, canonical_vertices) = CyclePattern::canonicalize(view, path_vertices, closing);
        let bucket = self.by_fp.entry(key.fingerprint()).or_default();
        let patterns = &mut self.patterns;
        let idx = match bucket.iter().copied().find(|&i| patterns[i as usize].key == key) {
            Some(i) => i,
            None => {
                let i = patterns.len() as u32;
                patterns.push(CyclePattern::new(key));
                bucket.push(i);
                i
            }
        };
        patterns[idx as usize].push_occurrence(t, &canonical_vertices);
    }

    /// The accumulated cycles with support `>= sigma`, each deduplicated
    /// into sorted row order, in key order.
    pub(crate) fn into_frequent(self, measure: SupportMeasure, sigma: usize) -> Vec<CyclePattern> {
        let mut out: Vec<CyclePattern> = self
            .patterns
            .into_iter()
            .map(|mut c| {
                c.dedup();
                c
            })
            .filter(|c| c.support(measure) >= sigma)
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u32) -> Label {
        Label(x)
    }

    /// An unlabeled-edge pentagon with the given vertex labels.
    fn pentagon(labels: [u32; 5]) -> LabeledGraph {
        let labels: Vec<Label> = labels.iter().map(|&x| l(x)).collect();
        LabeledGraph::from_unlabeled_edges(&labels, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap()
    }

    fn v(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn canonicalize_is_symmetry_invariant() {
        let g = pentagon([3, 1, 4, 1, 5]);
        // every rotation/reflection of the same undirected pentagon, given as
        // a path (closing edge between first and last), canonicalizes to the
        // same key and the same stored vertex sequence
        let symmetries: Vec<Vec<VertexId>> = (0..5)
            .flat_map(|rot| {
                [1isize, -1].map(|dir| {
                    (0..5)
                        .map(|j| VertexId(((rot as isize + dir * j).rem_euclid(5)) as u32))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let (key0, verts0) = CyclePattern::canonicalize(&g, &symmetries[0], Label::DEFAULT_EDGE);
        for s in &symmetries[1..] {
            let (key, verts) = CyclePattern::canonicalize(&g, s, Label::DEFAULT_EDGE);
            assert_eq!(key, key0);
            assert_eq!(verts, verts0);
        }
        // the canonical label sequence is minimal among the symmetries:
        // starting points labeled 1 are positions 1 and 3; walking from
        // position 1 towards position 0 reads [1, 3, 5, 1, 4]
        assert_eq!(key0.vertex_labels, vec![l(1), l(3), l(5), l(1), l(4)]);
        assert_eq!(key0.len(), 5);
        assert_eq!(key0.diameter_len(), 2);
    }

    #[test]
    fn canonicalize_ties_break_by_vertex_ids() {
        // all-equal labels: every symmetry matches, the id-smallest sequence
        // must win so dedup collapses all discoveries
        let g = pentagon([7, 7, 7, 7, 7]);
        let (_, verts) = CyclePattern::canonicalize(&g, &v(&[2, 3, 4, 0, 1]), Label::DEFAULT_EDGE);
        assert_eq!(verts[0], VertexId(0));
        let (_, verts2) = CyclePattern::canonicalize(&g, &v(&[4, 3, 2, 1, 0]), Label::DEFAULT_EDGE);
        assert_eq!(verts, verts2);
    }

    #[test]
    fn pattern_accumulates_and_dedups() {
        let g = pentagon([0, 0, 0, 0, 0]);
        let (key, verts) = CyclePattern::canonicalize(&g, &v(&[0, 1, 2, 3, 4]), Label::DEFAULT_EDGE);
        let mut p = CyclePattern::new(key.clone());
        p.push_occurrence(0, &verts);
        let (_, verts_again) = CyclePattern::canonicalize(&g, &v(&[1, 2, 3, 4, 0]), Label::DEFAULT_EDGE);
        p.push_occurrence(0, &verts_again);
        p.dedup();
        assert_eq!(p.embeddings.len(), 1);
        assert_eq!(p.cycle_len(), 5);
        assert_eq!(p.diameter_len(), 2);
        assert_eq!(p.support(SupportMeasure::DistinctVertexSets), 1);
    }

    #[test]
    fn dedup_sorts_rows_by_transaction_then_vertices() {
        let mut p = CyclePattern::new(CycleKey { vertex_labels: vec![l(0); 3], edge_labels: vec![l(0); 3] });
        for (t, ids) in [(1, [0, 1, 2]), (0, [3, 4, 5]), (0, [0, 4, 5]), (1, [0, 1, 2]), (0, [3, 4, 5])] {
            p.push_occurrence(t, &v(&ids));
        }
        p.dedup();
        let rows: Vec<(usize, Vec<VertexId>)> =
            p.embeddings.iter().map(|r| (r.transaction, r.vertices.to_vec())).collect();
        assert_eq!(rows, vec![(0, v(&[0, 4, 5])), (0, v(&[3, 4, 5])), (1, v(&[0, 1, 2]))]);
    }

    #[test]
    fn to_graph_builds_the_cycle() {
        let g = pentagon([3, 1, 4, 1, 5]);
        let (key, _) = CyclePattern::canonicalize(&g, &v(&[0, 1, 2, 3, 4]), Label::DEFAULT_EDGE);
        let p = CyclePattern::new(key);
        let cg = p.to_graph();
        assert_eq!(cg.vertex_count(), 5);
        assert_eq!(cg.edge_count(), 5);
        assert!(cg.vertices().all(|x| cg.degree(x) == 2));
        // isomorphic to the original pentagon
        assert!(skinny_graph::are_isomorphic(&cg, &g));
    }
}
