use crate::{CompactId, Graph, GraphError, VertexId};

/// Incremental builder for [`Graph`].
///
/// The builder accepts undirected edges in any order, rejects self-loops and
/// out-of-range endpoints, and produces a CSR [`Graph`] with sorted adjacency
/// lists on [`GraphBuilder::build`].
///
/// Edges are kept in one flat buffer of `(u32, u32)` pairs, 8 bytes per
/// edge, exactly as they were added: duplicates and both orientations of an
/// edge are stored as given and collapsed only at [`GraphBuilder::build`].
/// `build` is a counting sort: it counts degrees into the CSR offsets,
/// scatters both arcs of every edge into one compact adjacency array, then
/// sorts and deduplicates each vertex's slice in place. A slice that is
/// already strictly increasing skips the sort. That is the common case for
/// generators that emit edges row by row (as [`crate::generators::gnp`]
/// does), so their graphs are assembled in `O(n + m)`.
///
/// # Example
///
/// ```
/// use mis_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// b.add_edge(2, 1); // duplicate of (1, 2); collapsed by build()
/// let g = b.build();
/// assert_eq!(g.m(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Validated edges in insertion order (both endpoints `< n`, no loops).
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices (ids `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`: the CSR stores vertex ids compactly
    /// as `u32` (see [`crate::CompactId`]).
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "the compact CSR supports at most u32::MAX vertices, got {n}"
        );
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices of the graph being built.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is `>= n`. Use
    /// [`GraphBuilder::try_add_edge`] for a fallible version.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.try_add_edge(u, v).expect("invalid edge");
    }

    /// Adds the undirected edge `{u, v}`, returning an error instead of
    /// panicking on invalid input.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if `u == v`, [`GraphError::VertexOutOfRange`]
    /// if either endpoint is `>= n`.
    pub fn try_add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        // Both ids are < n <= u32::MAX (checked in `new`).
        self.edges.push((u as u32, v as u32));
        Ok(())
    }

    /// Appends edges a generator has already validated (endpoints `< n`, no
    /// self-loops), without re-checking each one.
    pub(crate) fn extend_valid(&mut self, edges: Vec<(u32, u32)>) {
        debug_assert!(edges
            .iter()
            .all(|&(u, v)| u != v && (u as usize) < self.n && (v as usize) < self.n));
        if self.edges.is_empty() {
            self.edges = edges;
        } else {
            self.edges.extend_from_slice(&edges);
        }
    }

    /// Finalizes the builder into an immutable CSR [`Graph`].
    ///
    /// Duplicate edges are collapsed here (adjacency lists are sorted and
    /// deduplicated), so calling `add_edge(u, v)` twice yields a single edge.
    pub fn build(self) -> Graph {
        let n = self.n;
        // Counting sort: degrees into offsets[u + 1], prefix sums, then
        // scatter both arcs of every edge in insertion order.
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in &self.edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut adjacency = vec![CompactId(0); offsets[n]];
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize]] = CompactId(v);
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = CompactId(u);
            cursor[v as usize] += 1;
        }

        // Sort (unless already strictly increasing) and deduplicate each
        // slice, compacting the array towards the front as we go.
        let mut write = 0;
        for u in 0..n {
            let (start, end) = (offsets[u], offsets[u + 1]);
            offsets[u] = write;
            let list = &mut adjacency[start..end];
            if list.windows(2).all(|w| w[0] < w[1]) {
                if write != start {
                    adjacency.copy_within(start..end, write);
                }
                write += end - start;
                continue;
            }
            list.sort_unstable();
            let mut last = None;
            for i in start..end {
                let id = adjacency[i];
                if last != Some(id) {
                    adjacency[write] = id;
                    write += 1;
                    last = Some(id);
                }
            }
        }
        offsets[n] = write;
        adjacency.truncate(write);
        debug_assert!(write % 2 == 0, "every undirected edge must appear twice");
        Graph::from_compact_parts(offsets, adjacency, write / 2)
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_collapses_duplicates() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(2, 3);
        b.add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(0).to_vec(), vec![1]);
        assert_eq!(g.neighbors(2).to_vec(), vec![3]);
    }

    #[test]
    fn try_add_edge_rejects_self_loop_without_mutating() {
        let mut b = GraphBuilder::new(2);
        assert!(b.try_add_edge(0, 0).is_err());
        let g = b.build();
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn add_edge_panics_on_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5);
    }

    #[test]
    fn extend_adds_edges() {
        let mut b = GraphBuilder::new(5);
        b.extend([(0, 1), (1, 2), (3, 4)]);
        let g = b.build();
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn empty_builder_builds_edgeless_graph() {
        let g = GraphBuilder::new(7).build();
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
    }

    proptest! {
        /// Building from a random edge list always yields sorted, symmetric,
        /// loop-free adjacency, and the edge count matches the number of
        /// distinct unordered pairs supplied.
        #[test]
        fn builder_invariants(edges in proptest::collection::vec((0usize..20, 0usize..20), 0..200)) {
            let n = 20;
            let mut b = GraphBuilder::new(n);
            let mut distinct = std::collections::HashSet::new();
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v);
                    distinct.insert((u.min(v), u.max(v)));
                }
            }
            let g = b.build();
            prop_assert_eq!(g.m(), distinct.len());
            for u in g.vertices() {
                let nbrs = g.neighbors(u).to_vec();
                // sorted, no duplicates, no self loops
                prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(!nbrs.contains(&u));
                // symmetry
                for &v in &nbrs {
                    prop_assert!(g.neighbors(v).contains(u));
                }
            }
        }
    }
}
