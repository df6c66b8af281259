//! The 1024-bit H-tree connecting the 32 crossbars inside one CIM core.
//!
//! The H-tree is a binary reduction/concatenation tree: its leaves are
//! crossbars and every internal node either *reduces* (adds partial sums —
//! data volume stays constant as it moves up) or *concatenates* (stacks
//! outputs — data volume doubles). Concatenation near the leaves therefore
//! stresses the narrow lower levels, which is exactly what the intra-core DP
//! mapping (§4.3.2, implemented in `ouro-mapping`) minimises. This module
//! provides the tree geometry and the bandwidth-pressure accounting that DP
//! optimises.

/// The intra-core H-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HTree {
    /// Number of leaf crossbars (32 in the paper; must be a power of two).
    pub leaves: usize,
    /// Link width in bits at every level (1024 in the paper).
    pub link_bits: usize,
}

impl Default for HTree {
    fn default() -> Self {
        HTree { leaves: 32, link_bits: 1024 }
    }
}

impl HTree {
    /// The paper's 32-leaf, 1024-bit H-tree.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is not a power of two or is zero.
    pub fn new(leaves: usize, link_bits: usize) -> HTree {
        assert!(leaves > 0 && leaves.is_power_of_two(), "H-tree needs a power-of-two leaf count");
        HTree { leaves, link_bits }
    }

    /// Depth of the tree (number of internal levels): log2(leaves).
    pub fn depth(&self) -> usize {
        self.leaves.trailing_zeros() as usize
    }

    /// Traffic (in partial-sum words) crossing the node at `depth_from_leaf`
    /// when the nodes below it performed `concats` concatenations out of the
    /// `depth_from_leaf` merge steps on the path, for a per-crossbar output
    /// of `words` partial sums.
    ///
    /// Every concatenation on the way up doubles the payload; reductions
    /// keep it constant.
    pub fn node_traffic_words(&self, words: u64, concats: u32) -> u64 {
        words << concats
    }

    /// The DP objective weight of §4.3.2 for a node: `depth × weight` where
    /// weight is 1 for a concatenation node and 0 for a reduction node, and
    /// `depth` is counted from the *root* (deep nodes near the leaves are the
    /// expensive place to concatenate).
    pub fn dp_cost(&self, depth_from_root: usize, is_concat: bool) -> u64 {
        if is_concat {
            depth_from_root as u64
        } else {
            0
        }
    }

    /// Cycles needed to move `words` 32-bit partial-sum words through one
    /// H-tree link.
    pub fn link_cycles(&self, words: u64) -> u64 {
        let bits = words * 32;
        bits.div_ceil(self.link_bits as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_htree_shape() {
        let t = HTree::default();
        assert_eq!(t.leaves, 32);
        assert_eq!(t.depth(), 5);
        assert_eq!(t.link_bits, 1024);
    }

    #[test]
    fn concatenation_doubles_traffic() {
        let t = HTree::default();
        assert_eq!(t.node_traffic_words(128, 0), 128);
        assert_eq!(t.node_traffic_words(128, 1), 256);
        assert_eq!(t.node_traffic_words(128, 3), 1024);
    }

    #[test]
    fn reduction_nodes_are_free_in_the_dp() {
        let t = HTree::default();
        assert_eq!(t.dp_cost(4, false), 0);
        assert_eq!(t.dp_cost(4, true), 4);
        assert!(t.dp_cost(5, true) > t.dp_cost(1, true));
    }

    #[test]
    fn link_cycles_round_up() {
        let t = HTree::default();
        // 32 words of 32 bits = 1024 bits = exactly one beat.
        assert_eq!(t.link_cycles(32), 1);
        assert_eq!(t.link_cycles(33), 2);
        assert_eq!(t.link_cycles(0), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_leaves_rejected() {
        HTree::new(33, 1024);
    }
}
