//! The shard map: how one CM array is laid across the MIMD nodes.
//!
//! Every array is sharded along its **outermost axis** into contiguous
//! row-major slabs — node `k` of `n` owns rows `[k·d₀/n, (k+1)·d₀/n)`
//! of an array whose outer extent is `d₀`. Two consequences the rest of
//! the engine leans on:
//!
//! * the slabs in node order *are* the row-major array, so the engine
//!   keeps each array as one row-major buffer in which node `k` owns
//!   the element range [`ShardMap::elems`]: reductions in canonical
//!   order and whole-array reads need no permutation, and a node is
//!   lent its slab as a disjoint `&mut` range ([`ShardMap::split_mut`]);
//! * arrays of the same shape shard identically, so an elementwise
//!   dispatch never needs communication — each node already holds
//!   matching slabs of every argument.

/// The slab decomposition of `rows` outer-axis rows over `nodes` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    rows: usize,
    nodes: usize,
}

impl ShardMap {
    /// The balanced decomposition (slab sizes differ by at most one
    /// row, smaller slabs last).
    pub fn new(rows: usize, nodes: usize) -> Self {
        assert!(nodes > 0, "a machine has at least one node");
        ShardMap { rows, nodes }
    }

    /// Outer-axis rows in total.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// First row of node `k`'s slab.
    pub fn row_start(&self, k: usize) -> usize {
        k * self.rows / self.nodes
    }

    /// One past the last row of node `k`'s slab.
    pub fn row_end(&self, k: usize) -> usize {
        (k + 1) * self.rows / self.nodes
    }

    /// Rows in node `k`'s slab (possibly zero when there are more
    /// nodes than rows).
    pub fn rows_of(&self, k: usize) -> usize {
        self.row_end(k) - self.row_start(k)
    }

    /// Node `k`'s element range in the row-major buffer of an array
    /// whose rows hold `inner` elements each. The ranges of nodes
    /// `0..nodes` tile `0..rows·inner` in order.
    pub fn elems(&self, k: usize, inner: usize) -> std::ops::Range<usize> {
        self.row_start(k) * inner..self.row_end(k) * inner
    }

    /// Carve such a buffer into the nodes' disjoint ranges, node order.
    ///
    /// # Panics
    ///
    /// Panics when `data` is not `rows·inner` elements long.
    pub fn split_mut<'a>(&self, inner: usize, data: &'a mut [f64]) -> Vec<&'a mut [f64]> {
        assert_eq!(data.len(), self.rows * inner, "buffer must hold the array");
        let mut rest = data;
        (0..self.nodes)
            .map(|k| {
                let (own, tail) =
                    std::mem::take(&mut rest).split_at_mut(self.elems(k, inner).len());
                rest = tail;
                own
            })
            .collect()
    }

    /// The node owning row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn owner(&self, r: usize) -> usize {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        // The start boundaries are non-decreasing: the owner is the
        // last node whose slab starts at or before r.
        let k = (r * self.nodes + self.nodes - 1) / self.rows.max(1);
        // Floor arithmetic can land one node high or low at slab
        // boundaries; settle locally.
        let mut k = k.min(self.nodes - 1);
        while self.row_start(k) > r {
            k -= 1;
        }
        while self.row_end(k) <= r {
            k += 1;
        }
        k
    }
}

/// Messages an outer-axis shift of `shift` over `rows` rows sharded
/// across `nodes` nodes exchanges: one `Halo` message per distinct
/// (owner → needer) node pair, exactly as the engine's shift step
/// batches them. `wrap` is `true` for `CSHIFT` (rows wrap around) and
/// `false` for `EOSHIFT` (end-off rows are boundary-filled locally and
/// never travel).
///
/// This is the static side of the plan↔trace reconciliation: the
/// engine counts these messages by running; this function counts them
/// from geometry alone, and the two must always agree.
pub fn halo_messages(rows: usize, nodes: usize, shift: i64, wrap: bool) -> usize {
    let map = ShardMap::new(rows, nodes);
    let mut pairs = 0;
    for k in 0..nodes {
        let mut owners: Vec<usize> = Vec::new();
        for a in map.row_start(k)..map.row_end(k) {
            let src_row = a as i64 + shift;
            if !wrap && (src_row < 0 || src_row >= rows as i64) {
                continue;
            }
            let r = src_row.rem_euclid(rows.max(1) as i64) as usize;
            let owner = map.owner(r);
            if owner != k && !owners.contains(&owner) {
                owners.push(owner);
            }
        }
        pairs += owners.len();
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slabs_partition_the_rows() {
        for rows in [0usize, 1, 5, 16, 17, 100] {
            for nodes in [1usize, 2, 4, 16, 64] {
                let m = ShardMap::new(rows, nodes);
                let mut covered = 0;
                for k in 0..nodes {
                    assert_eq!(m.row_start(k), covered, "rows={rows} nodes={nodes} k={k}");
                    covered = m.row_end(k);
                }
                assert_eq!(covered, rows);
            }
        }
    }

    #[test]
    fn slabs_are_balanced() {
        let m = ShardMap::new(100, 16);
        let sizes: Vec<usize> = (0..16).map(|k| m.rows_of(k)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced slabs: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn halo_messages_matches_the_engine() {
        use crate::config::MimdConfig;
        use crate::machine::MimdMachine;
        use f90y_backend::Machine;

        for nodes in [1usize, 2, 4, 8, 16] {
            for rows in [4usize, 8, 16, 17] {
                for shift in [-5i64, -1, 1, 2, 7] {
                    for wrap in [true, false] {
                        let mut m = MimdMachine::new(MimdConfig::new(nodes));
                        let id = m.alloc(&[rows, 3]);
                        let before = m.stats().messages;
                        let shifted = if wrap {
                            m.cshift(id, 0, shift).unwrap()
                        } else {
                            m.eoshift(id, 0, shift, 0.0).unwrap()
                        };
                        let observed = m.stats().messages - before;
                        let predicted = halo_messages(rows, nodes, shift, wrap) as u64;
                        assert_eq!(
                            predicted, observed,
                            "rows={rows} nodes={nodes} shift={shift} wrap={wrap}"
                        );
                        m.free(shifted).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn owner_inverts_the_slab_ranges() {
        for rows in [1usize, 7, 16, 100] {
            for nodes in [1usize, 2, 8, 64] {
                let m = ShardMap::new(rows, nodes);
                for r in 0..rows {
                    let k = m.owner(r);
                    assert!(
                        m.row_start(k) <= r && r < m.row_end(k),
                        "rows={rows} nodes={nodes} r={r} → k={k}"
                    );
                }
            }
        }
    }
}
