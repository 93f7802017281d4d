//! Per-request scratch memory, recycled between requests.
//!
//! A request's searches need label stores, tree arrays and overlays sized
//! by the network. Allocating and filling them per request costs O(n) or
//! O(m) however little a search touches, so they are lent from one
//! [`Pool`] per buffer type instead. [`Loan::take`] hands out a free buffer
//! of the wanted size, or makes one when none is free; dropping the loan
//! gives it back. A pool therefore holds as many buffers as were ever on
//! loan at once — its size follows peak concurrency, with nothing to
//! configure — and buffers made for different sizes (two cities in one
//! process) are never handed to each other.
//!
//! A buffer goes back clean: [`Scratch::clean`] undoes what the loan
//! wrote in time proportional to what it touched — by its own record of
//! the touched entries, or by generation stamps — never by refilling it.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};

/// A buffer sized by a vertex or edge count that can be lent out again.
pub(crate) trait Scratch: Default + Send + 'static {
    /// The one pool buffers of this type are recycled through.
    fn pool() -> &'static Pool<Self>;
    /// A clean buffer for `size` vertices or edges.
    fn with_size(size: usize) -> Self;
    /// The size it was made for: the key a pool lends it by.
    fn size(&self) -> usize;
    /// Restores the clean state, touching only what was written since.
    fn clean(&mut self);
}

/// The free buffers of one type.
pub(crate) struct Pool<T>(Mutex<Vec<T>>);

impl<T> Pool<T> {
    /// An empty pool.
    pub(crate) const fn new() -> Pool<T> {
        Pool(Mutex::new(Vec::new()))
    }
}

/// A clean buffer on loan: from its pool ([`Loan::take`]), going back
/// clean when dropped, or made for one owner ([`Loan::fresh`]) and freed
/// with it.
#[derive(Debug)]
pub(crate) struct Loan<T: Scratch> {
    buffer: T,
    pooled: bool,
}

impl<T: Scratch> Loan<T> {
    /// A free buffer of `size` from the pool, or a new one when none is.
    pub(crate) fn take(size: usize) -> Loan<T> {
        let free = {
            let mut free = T::pool().0.lock().unwrap_or_else(PoisonError::into_inner);
            let found = free.iter().rposition(|b| b.size() == size);
            found.map(|i| free.swap_remove(i))
        };
        Loan {
            buffer: free.unwrap_or_else(|| T::with_size(size)),
            pooled: true,
        }
    }

    /// A new buffer of `size` that never joins the pool.
    pub(crate) fn fresh(size: usize) -> Loan<T> {
        Loan {
            buffer: T::with_size(size),
            pooled: false,
        }
    }

    /// A clean buffer of `size` lent the same way as this one.
    pub(crate) fn sibling<U: Scratch>(&self, size: usize) -> Loan<U> {
        if self.pooled {
            Loan::take(size)
        } else {
            Loan::fresh(size)
        }
    }
}

impl<T: Scratch> Deref for Loan<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.buffer
    }
}

impl<T: Scratch> DerefMut for Loan<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.buffer
    }
}

impl<T: Scratch> Drop for Loan<T> {
    fn drop(&mut self) {
        if self.pooled {
            let mut buffer = std::mem::take(&mut self.buffer);
            buffer.clean();
            let mut free = T::pool().0.lock().unwrap_or_else(PoisonError::into_inner);
            free.push(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A column that records which entries it set.
    #[derive(Default)]
    struct Marks {
        set: Vec<bool>,
        touched: Vec<usize>,
    }

    impl Scratch for Marks {
        fn pool() -> &'static Pool<Marks> {
            static POOL: Pool<Marks> = Pool::new();
            &POOL
        }
        fn with_size(size: usize) -> Marks {
            Marks {
                set: vec![false; size],
                touched: Vec::new(),
            }
        }
        fn size(&self) -> usize {
            self.set.len()
        }
        fn clean(&mut self) {
            for &i in &self.touched {
                self.set[i] = false;
            }
            self.touched.clear();
        }
    }

    fn free_sizes() -> Vec<usize> {
        let free = Marks::pool().0.lock().unwrap();
        free.iter().map(Marks::size).collect()
    }

    #[test]
    fn a_loan_comes_back_clean_and_only_to_its_own_size() {
        // Sizes no other test uses: the pool is process-wide.
        let (small, large) = (7_001, 7_002);
        {
            let mut a = Loan::<Marks>::take(small);
            let b = Loan::<Marks>::take(small);
            let _c = Loan::<Marks>::take(large);
            a.set[3] = true;
            a.touched.push(3);
            drop(b);
        }
        // Three were on loan at once, so three are kept; a fresh buffer
        // never joins them.
        drop(Loan::<Marks>::fresh(small));
        let mut sizes = free_sizes();
        sizes.retain(|&s| s == small || s == large);
        sizes.sort_unstable();
        assert_eq!(sizes, [small, small, large]);
        // Two loans of the small size, both clean, and the pool does not
        // grow while they come and go one at a time.
        for _ in 0..3 {
            let a = Loan::<Marks>::take(small);
            let b = Loan::<Marks>::take(small);
            assert!(a.set.iter().chain(&b.set).all(|&s| !s));
            assert_eq!((a.size(), b.size()), (small, small));
        }
        let kept = free_sizes().iter().filter(|&&s| s == small).count();
        assert_eq!(kept, 2);
    }
}
