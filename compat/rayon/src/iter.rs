//! Parallel iterator adaptors over the [`runtime`](crate::runtime) core.
//!
//! Sources ([`ParIter`]) materialize their item sequence eagerly (item
//! counts here are block counts — hundreds to thousands — so this is a
//! pointer-sized `Vec`, not the data itself); structural adaptors
//! (`zip`, `enumerate`) restructure that sequence cheaply; [`map`]
//! stays lazy and executes on the worker crew at the terminal call
//! (`collect` / `for_each` / `try_for_each`). Output order always equals
//! input order.
//!
//! [`map`]: ParIter::map

use crate::runtime::run_map;

/// An ordered parallel iterator over an eagerly materialized sequence.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    pub(crate) fn from_vec(items: Vec<T>) -> Self {
        Self { items }
    }

    /// Pairs each item with its index (mirrors rayon's indexed
    /// `enumerate`: indices are positions in the original order).
    #[must_use]
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter::from_vec(self.items.into_iter().enumerate().collect())
    }

    /// Zips with another parallel sequence, truncating to the shorter.
    #[must_use]
    pub fn zip<I>(self, other: I) -> ParIter<(T, I::Item)>
    where
        I: IntoParallelIterator,
        I::Item: Send,
    {
        ParIter::from_vec(
            self.items
                .into_iter()
                .zip(other.into_par_iter().items)
                .collect(),
        )
    }

    /// Lazily maps each item through `f`; `f` runs on the worker crew at
    /// the terminal call.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Applies `f` to every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_map(self.items, f);
    }

    /// Applies the fallible `f` to every item in parallel. Like
    /// `Result` collection, the error of the *lowest-index* failure wins,
    /// so the result is deterministic under any scheduling.
    pub fn try_for_each<E, F>(self, f: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(T) -> Result<(), E> + Sync,
    {
        run_map(self.items, f).into_iter().collect()
    }

    /// Collects the items into `C`, preserving order.
    pub fn collect<C: FromParallelIterator<T>>(self) -> C {
        C::from_ordered(self.items)
    }

    /// Sums the items. Reduction of already-materialized scalars is
    /// memory-bound, so this folds sequentially.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }
}

/// A lazy parallel `map` pending a terminal call.
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Runs the map on the worker crew and collects into `C` in input
    /// order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_ordered(run_map(self.items, self.f))
    }
}

impl<T: Send> IntoIterator for ParIter<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

/// Conversion into a [`ParIter`] (mirrors
/// `rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator: IntoIterator + Sized
where
    Self::Item: Send,
{
    /// Materializes the sequence as a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item> {
        ParIter::from_vec(self.into_iter().collect())
    }
}

impl<I: IntoIterator + Sized> IntoParallelIterator for I where I::Item: Send {}

/// Collecting parallel results in input order (mirrors
/// `rayon::iter::FromParallelIterator`).
pub trait FromParallelIterator<T>: Sized {
    /// Builds `Self` from the ordered item sequence.
    fn from_ordered(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered(items: Vec<T>) -> Self {
        items
    }
}

/// `Result` collection: the error for the *lowest input index* wins, so
/// failures are deterministic under any scheduling. (Unlike upstream
/// rayon this does not short-circuit siblings already in flight; every
/// item's work is bounded here, so the cost is latency, not safety.)
impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Borrowing parallel iteration over slices (mirrors rayon's
/// `par_iter`/`par_chunks` on `[T]`).
pub trait ParallelSlice<T: Sync> {
    /// Per-element parallel iterator.
    fn par_iter(&self) -> ParIter<&T>;
    /// Parallel iterator over `chunk_size`-sized pieces (last may be
    /// shorter).
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter::from_vec(self.iter().collect())
    }

    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        ParIter::from_vec(self.chunks(chunk_size).collect())
    }
}

/// Mutably borrowing parallel iteration over slices (mirrors rayon's
/// `par_iter_mut`/`par_chunks_mut`). The chunk split happens up front,
/// yielding disjoint `&mut` borrows that are safe to farm out.
pub trait ParallelSliceMut<T: Send> {
    /// Per-element mutable parallel iterator.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel iterator over disjoint mutable `chunk_size`-sized pieces.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter::from_vec(self.iter_mut().collect())
    }

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter::from_vec(self.chunks_mut(chunk_size).collect())
    }
}
