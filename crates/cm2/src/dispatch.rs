//! The data plane every machine's PEAC dispatch shares.
//!
//! The slab kernel ([`f90y_peac::threaded`]) wants one slab per
//! *distinct* argument array plus an argument→slab map: [`SlabArgs`].
//! [`common`] is the argument validation with its messages, and
//! [`dispatch_in_place`] runs a routine over a single-image machine's
//! own storage. What is left to a machine is what it charges.

use std::fmt::Debug;

use f90y_peac::isa::Routine;

use crate::Cm2Error;

/// The distinct arrays of a dispatch and, per pointer argument, which of
/// them it streams. An array passed through several arguments (separate
/// load and store streams of one variable) gets one slab, just as it has
/// one region of machine memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlabArgs<Id> {
    /// Distinct array handles, in order of first appearance.
    pub ids: Vec<Id>,
    /// For each pointer argument, its index into `ids`.
    pub slab_of_arg: Vec<usize>,
}

impl<Id: Copy + PartialEq> SlabArgs<Id> {
    /// Map `ptr_args` onto distinct slabs. Linear scans: a routine has
    /// at most sixteen pointer arguments.
    pub fn new(ptr_args: &[Id]) -> Self {
        let mut ids: Vec<Id> = Vec::with_capacity(ptr_args.len());
        let slab_of = |id: &Id| {
            ids.iter().position(|known| known == id).unwrap_or_else(|| {
                ids.push(*id);
                ids.len() - 1
            })
        };
        let slab_of_arg = ptr_args.iter().map(slab_of).collect();
        SlabArgs { ids, slab_of_arg }
    }
}

/// What every pointer argument of a dispatch must agree on, as `measure`
/// reports it: the `"element count"` on the single-image machines, the
/// whole `"shape"` where arrays are sharded (`consequence` says why).
///
/// # Errors
///
/// Fails when there is no array argument, when `measure` does (a stale
/// handle), or when an argument's measure differs from the first's.
pub fn common<Id: Copy, T: PartialEq + Debug>(
    ptr_args: &[Id],
    mut measure: impl FnMut(Id) -> Result<T, Cm2Error>,
    what: &str,
    consequence: &str,
) -> Result<T, Cm2Error> {
    let Some(&first) = ptr_args.first() else {
        return Err(Cm2Error::Runtime(
            "dispatch needs at least one array argument".into(),
        ));
    };
    let agreed = measure(first)?;
    for &id in ptr_args {
        let theirs = measure(id)?;
        if theirs != agreed {
            return Err(Cm2Error::Runtime(format!(
                "dispatch arguments disagree on {what} ({theirs:?} vs {agreed:?}){consequence}"
            )));
        }
    }
    Ok(agreed)
}

/// The length check of a whole-array `write`, with its message — shared
/// with `assign`, which must fail exactly as the `write` it stands for.
///
/// # Errors
///
/// Fails when `writing` elements would land in an array of `have`.
pub fn check_write(writing: usize, have: usize) -> Result<(), Cm2Error> {
    if writing == have {
        return Ok(());
    }
    Err(Cm2Error::Runtime(format!(
        "write of {writing} elements into array of {have}"
    )))
}

/// A machine that keeps each array as one contiguous buffer.
pub trait ArrayStore {
    /// The machine's array handle.
    type Id: Copy + PartialEq;

    /// The elements of a live array.
    ///
    /// # Errors
    ///
    /// Fails on a stale handle.
    fn data_mut(&mut self, id: Self::Id) -> Result<&mut Vec<f64>, Cm2Error>;
}

/// Validate a dispatch and run `routine` in place over the store's own
/// buffers. Blockwise layouts tile the row-major element space
/// contiguously and the body is elementwise, so one pass over the whole
/// space computes exactly what the lockstep nodes compute. Returns the
/// element count.
///
/// # Errors
///
/// Fails on stale handles, mismatched element counts or PEAC faults; a
/// fault leaves every array as it was.
pub fn dispatch_in_place<S: ArrayStore>(
    store: &mut S,
    routine: &Routine,
    ptr_args: &[S::Id],
    scalar_args: &[f64],
) -> Result<usize, Cm2Error> {
    let len_of = |id| Ok(store.data_mut(id)?.len());
    let total = common(ptr_args, len_of, "element count", "")?;
    let args = SlabArgs::new(ptr_args);
    // The kernel needs every buffer mutably at once and the store hands
    // out one at a time: take them out for the run, then put them back.
    let mut lent = Vec::with_capacity(args.ids.len());
    for &id in &args.ids {
        lent.push(std::mem::take(store.data_mut(id).expect("measured above")));
    }
    let mut slabs: Vec<&mut [f64]> = lent.iter_mut().map(Vec::as_mut_slice).collect();
    let ran = routine
        .kernel()
        .run_slabs(&mut slabs, &args.slab_of_arg, scalar_args, total);
    for (&id, buffer) in args.ids.iter().zip(lent) {
        *store.data_mut(id).expect("measured above") = buffer;
    }
    ran?;
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_arguments_share_a_slab() {
        let args = SlabArgs::new(&[7, 3, 7, 9, 3]);
        assert_eq!(args.ids, [7, 3, 9]);
        assert_eq!(args.slab_of_arg, [0, 1, 0, 2, 1]);
        assert!(SlabArgs::<u8>::new(&[]).ids.is_empty());
    }

    #[test]
    fn common_reports_the_first_disagreement_against_the_first_argument() {
        let lens = [4usize, 4, 2];
        let measure = |i: usize| Ok(lens[i]);
        assert_eq!(common(&[0, 1], measure, "element count", ""), Ok(4));
        assert_eq!(
            common(&[0, 2], measure, "element count", ""),
            Err(Cm2Error::Runtime(
                "dispatch arguments disagree on element count (2 vs 4)".into()
            ))
        );
        assert_eq!(
            common(&[], measure, "element count", ""),
            Err(Cm2Error::Runtime(
                "dispatch needs at least one array argument".into()
            ))
        );
    }
}
