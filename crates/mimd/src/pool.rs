//! A deterministic scoped thread pool for superstep compute phases.
//!
//! The MIMD engine's supersteps are bulk-synchronous: between two
//! barriers every simulated node computes independently, and nothing is
//! observable until the barrier merges the results. [`run_indexed_mut`]
//! exploits exactly that window — it maps a pure function over the
//! nodes' own state on up to `host_threads` host workers and returns the
//! results **in index order**, so the caller's merge loop is identical
//! to the sequential one and every downstream artifact (finals,
//! telemetry, trace digests) stays bit-identical at any thread count.
//!
//! Determinism comes from the structure, not from luck:
//!
//! * each worker owns a *contiguous* chunk of the index space
//!   (`[w·n/workers, (w+1)·n/workers)`), carved out of the items and
//!   the result buffer with `split_at_mut` — no sharing, no locks, no
//!   atomics;
//! * workers never touch shared mutable state; the closure gets an
//!   index and that index's own item, and returns a value;
//! * the scope joins every worker before results are read, and results
//!   are consumed in index order regardless of which worker finished
//!   first.
//!
//! With `host_threads <= 1` (the default) no threads are spawned at
//! all — the sequential path is the exact same closure applied in the
//! exact same order. The same path runs a superstep too small to pay
//! for its threads ([`PAR_MIN_ELEMS`]), at any `host_threads`.

/// The superstep size, in array elements, below which the pool runs
/// inline: spawning and joining scoped workers costs more than
/// splitting so little work saves. Chosen from the measured crossover
/// (EXPERIMENTS.md, "Host clock — PR 14"); a constant, not a setting —
/// like the thread count it decides only where the closure runs, never
/// what it computes.
pub const PAR_MIN_ELEMS: usize = 65_536;

/// Map `f` over per-index state, computing on up to `host_threads`
/// workers, and return the results **in index order**: index `i` gets
/// `&mut items[i]` and nothing else, so each simulated node can update
/// its own storage in place. `elems` is the superstep's size in array
/// elements, all nodes together.
///
/// `f` must be `Sync` (shared by reference across workers) and its
/// results `Send` (moved back to the caller). Panics in `f` propagate
/// to the caller, as with sequential iteration.
pub fn run_indexed_mut<T, R, F>(host_threads: usize, elems: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if host_threads <= 1 || n <= 1 || elems < PAR_MIN_ELEMS {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let workers = host_threads.min(n);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let mut rest: &mut [Option<R>] = &mut slots;
        let mut rest_items: &mut [T] = items;
        let mut start = 0usize;
        for w in 0..workers {
            // Contiguous chunk [start, end): same partition shape the
            // row-slab ShardMap uses, so load skew stays bounded.
            let end = (w + 1) * n / workers;
            let (chunk, tail) = rest.split_at_mut(end - start);
            rest = tail;
            let (chunk_items, tail_items) = rest_items.split_at_mut(end - start);
            rest_items = tail_items;
            let f = &f;
            scope.spawn(move || {
                for (offset, (slot, item)) in chunk.iter_mut().zip(chunk_items).enumerate() {
                    *slot = Some(f(start + offset, item));
                }
            });
            start = end;
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every index is owned by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool over bare indices, sized so the workers really spawn.
    fn run_indexed<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        run_indexed_mut(threads, PAR_MIN_ELEMS, &mut vec![(); n], |i, ()| f(i))
    }

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(threads, 37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        // Floating-point results must be the identical bits, not just
        // approximately equal: each index's computation is independent,
        // so the thread count cannot perturb it.
        let f = |i: usize| (i as f64).sin() * 1.0e9 + (i as f64).sqrt();
        let seq: Vec<u64> = run_indexed(1, 100, f).iter().map(|x| x.to_bits()).collect();
        for threads in [2, 4, 7, 16] {
            let par: Vec<u64> = run_indexed(threads, 100, f)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn each_index_mutates_only_its_own_item() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<Vec<usize>> = (0..11).map(|i| vec![i]).collect();
            let out = run_indexed_mut(threads, PAR_MIN_ELEMS, &mut items, |i, item| {
                item.push(i * 10);
                item.len()
            });
            assert_eq!(out, vec![2; 11], "threads={threads}");
            for (i, item) in items.iter().enumerate() {
                assert_eq!(item, &vec![i, i * 10], "threads={threads}");
            }
        }
    }

    #[test]
    fn handles_edge_sizes() {
        assert!(run_indexed::<usize, _>(4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(4, 1, |i| i + 10), vec![10]);
        assert_eq!(run_indexed(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn results_carry_errors_not_panics() {
        // The engine maps fallible node bodies; errors ride the value
        // channel and the first one (in node order) wins at the merge.
        let out = run_indexed(4, 8, |i| if i == 5 { Err(i) } else { Ok(i) });
        let first_err = out.into_iter().find_map(|r| r.err());
        assert_eq!(first_err, Some(5));
    }
}
