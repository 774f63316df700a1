//! Barrier checkpoints of sharded array state.
//!
//! When a fault plan names node kills, the machine captures the entire
//! sharded array state at the start of every superstep — exactly the
//! state a bulk-synchronous barrier guarantees consistent, since no
//! message is in flight there. Killing a node then costs one restore of
//! the snapshot plus a replay of the interrupted superstep; because the
//! superstep is a pure function of the checkpointed state, the replay
//! reproduces the fault-free values **bit for bit**.
//!
//! The snapshot is value-complete but deliberately simple: it carries
//! every live array's handle, bounds and elements, plus the
//! allocation cursor (so replayed allocations reuse the same handles).
//! Entries are kept sorted by handle, making two snapshots of one state
//! structurally equal — the determinism tests lean on that.

use crate::shard::ShardMap;

/// One array's state inside a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// The raw array handle.
    pub id: usize,
    /// Global dims.
    pub dims: Vec<usize>,
    /// Per-axis lower bounds.
    pub lower: Vec<i64>,
    /// The elements, row-major (the nodes' slabs in node order).
    pub data: Vec<f64>,
}

/// A consistent snapshot of every sharded array at one barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    entries: Vec<CheckpointEntry>,
    next_id: usize,
}

impl Checkpoint {
    /// Assemble a snapshot from entries (sorted by handle here, so the
    /// caller's iteration order cannot leak into comparisons) and the
    /// machine's allocation cursor.
    pub fn new(mut entries: Vec<CheckpointEntry>, next_id: usize) -> Self {
        entries.sort_by_key(|e| e.id);
        Checkpoint { entries, next_id }
    }

    /// The captured arrays, ascending by handle.
    pub fn entries(&self) -> &[CheckpointEntry] {
        &self.entries
    }

    /// The captured allocation cursor.
    pub fn next_id(&self) -> usize {
        self.next_id
    }

    /// Snapshot payload in bytes (8 per element).
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.data.len() as u64 * 8).sum()
    }

    /// Bytes of node `k`'s slabs on the `nodes`-node machine the
    /// snapshot was cut from — what a restore of that node must move.
    pub fn node_bytes(&self, k: usize, nodes: usize) -> u64 {
        let slab = |e: &CheckpointEntry| {
            let rows = e.dims.first().copied().unwrap_or(1);
            ShardMap::new(rows, nodes).elems(k, e.data.len() / rows.max(1))
        };
        self.entries.iter().map(|e| slab(e).len() as u64 * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: usize, data: Vec<f64>) -> CheckpointEntry {
        CheckpointEntry {
            id,
            dims: vec![data.len()],
            lower: vec![1],
            data,
        }
    }

    #[test]
    fn entries_are_canonically_ordered() {
        let a = Checkpoint::new(vec![entry(3, vec![1.0]), entry(1, vec![2.0])], 4);
        let b = Checkpoint::new(vec![entry(1, vec![2.0]), entry(3, vec![1.0])], 4);
        assert_eq!(a, b);
        assert_eq!(a.entries()[0].id, 1);
    }

    #[test]
    fn byte_accounting_sums_shards() {
        // Eight rows over two nodes, then over three: 4 + 4, 2 + 3 + 3.
        let c = Checkpoint::new(vec![entry(0, vec![0.0; 8])], 1);
        assert_eq!(c.bytes(), 64);
        assert_eq!(c.node_bytes(0, 2), 32);
        assert_eq!(c.node_bytes(1, 2), 32);
        assert_eq!(c.node_bytes(0, 3), 16);
        assert_eq!(c.node_bytes(2, 3), 24);
        let per_node: u64 = (0..3).map(|k| c.node_bytes(k, 3)).sum();
        assert_eq!(per_node, c.bytes());
    }
}
