//! Rank-to-node placement.
//!
//! The paper's cluster has 8-core nodes; its scalability settings place
//! 4–64 ranks on 4–8 nodes. Placement decides which communications cross
//! the network and which stay inside a node's shared memory.

/// Mapping from ranks to nodes.
#[derive(Debug, Clone)]
pub struct Topology {
    node_of: Vec<usize>,
    n_nodes: usize,
}

impl Topology {
    /// Block placement: ranks `0..k` on node 0, the next `k` on node 1,
    /// and so on — how `mpirun` fills hosts by default and what the
    /// paper's "64 rank / 8 node" setting means.
    pub fn block(n_ranks: usize, n_nodes: usize) -> Self {
        assert!(n_ranks > 0 && n_nodes > 0);
        assert!(
            n_ranks.is_multiple_of(n_nodes),
            "ranks ({n_ranks}) must divide evenly over nodes ({n_nodes})"
        );
        let per = n_ranks / n_nodes;
        Topology {
            node_of: (0..n_ranks).map(|r| r / per).collect(),
            n_nodes,
        }
    }

    /// One rank per node (the micro-benchmark layouts: ping-pong uses
    /// two processes on different nodes).
    pub fn one_per_node(n_ranks: usize) -> Self {
        Topology::block(n_ranks, n_ranks)
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.node_of.len()
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of[a] == self.node_of[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let t = Topology::block(64, 8);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.node_of(63), 7);
        assert!(t.same_node(0, 7));
        assert!(!t.same_node(7, 8));
    }

    #[test]
    fn one_per_node_is_all_remote() {
        let t = Topology::one_per_node(2);
        assert!(!t.same_node(0, 1));
        assert_eq!(t.n_nodes(), 2);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_block_rejected() {
        Topology::block(10, 3);
    }
}
