//! The data being mined, in the one form every mining pass sweeps.
//!
//! The paper defines the problem in the single-graph setting and notes that
//! "the corresponding version for graph transaction setting can be easily
//! derived".  [`MiningData`] is that derivation: both settings expose the
//! data as a list of transaction graphs (a single graph is a one-transaction
//! database), and embeddings always carry their transaction index.
//!
//! The transactions are the per-transaction CSR graphs of a frozen
//! [`CsrSnapshot`] (built with [`CsrSnapshot::from_graph`] or
//! [`CsrSnapshot::from_database`]); [`MiningData::view`] hands out a
//! [`CsrGraph`], so the hot loops call its columnar accessors directly.

use skinny_graph::{CsrGraph, CsrSnapshot};

/// The data being mined: a single large graph or a transaction database,
/// frozen into per-transaction CSR snapshots.
#[derive(Debug, Clone, Copy)]
pub enum MiningData<'a> {
    /// Either setting; the snapshot remembers which one it was frozen from.
    Snapshot(&'a CsrSnapshot),
}

impl<'a> MiningData<'a> {
    /// The underlying snapshot.
    #[inline]
    fn snapshot(self) -> &'a CsrSnapshot {
        let MiningData::Snapshot(s) = self;
        s
    }

    /// Number of transactions (1 in the single-graph setting).
    pub fn transaction_count(&self) -> usize {
        self.snapshot().len()
    }

    /// The CSR graph of transaction `t`.
    ///
    /// # Panics
    /// Panics when `t` is out of range; all transaction indices produced by
    /// this type are valid.
    #[inline]
    pub fn view(&self, t: usize) -> &'a CsrGraph {
        self.snapshot().graph(t)
    }

    /// Iterates over `(transaction index, graph)` pairs.
    pub fn transactions(&self) -> impl ExactSizeIterator<Item = (usize, &'a CsrGraph)> {
        let data = *self;
        (0..data.transaction_count()).map(move |t| (t, data.view(t)))
    }

    /// Total number of vertices across transactions.
    pub fn total_vertices(&self) -> usize {
        self.transactions().map(|(_, g)| g.vertex_count()).sum()
    }

    /// True when there is no vertex at all.
    pub fn is_empty(&self) -> bool {
        self.total_vertices() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinny_graph::{GraphDatabase, Label, LabeledGraph};

    fn graph() -> LabeledGraph {
        LabeledGraph::from_unlabeled_edges(&[Label(0), Label(1), Label(0)], [(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn single_graph_view() {
        let g = graph();
        let snapshot = CsrSnapshot::from_graph(&g);
        let data = MiningData::Snapshot(&snapshot);
        assert_eq!(data.transaction_count(), 1);
        assert_eq!(data.total_vertices(), 3);
        assert!(data.view(0).parity_with(&g));
        assert!(!data.is_empty());
    }

    #[test]
    fn transaction_view() {
        let db = GraphDatabase::from_graphs(vec![graph(), graph(), graph()]);
        let snapshot = CsrSnapshot::from_database(&db);
        let data = MiningData::Snapshot(&snapshot);
        assert_eq!(data.transaction_count(), 3);
        assert_eq!(data.total_vertices(), 9);
        let mut it = data.transactions();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
        let ids: Vec<usize> = data.transactions().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(data.view(1).vertex_count(), 3);
        assert!(std::ptr::eq(data.snapshot(), &snapshot));
    }

    #[test]
    fn empty_database_is_empty() {
        let snapshot = CsrSnapshot::from_database(&GraphDatabase::new());
        let data = MiningData::Snapshot(&snapshot);
        assert!(data.is_empty());
        assert_eq!(data.transaction_count(), 0);
    }
}
