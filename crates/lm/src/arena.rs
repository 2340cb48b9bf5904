//! The flat result layout of every inference call: one contiguous
//! `rows × vocab` buffer the caller owns and reuses.
//!
//! The packed kernel ([`crate::MlpLm::infer`]) appends logits rows to a
//! [`LogitsArena`] and reports the index of the first one; readers
//! borrow rows back by index ([`ArenaRows`]). A decode step or a serving
//! tick clears the arena and refills it, so after the first few steps no
//! inference call allocates — the kernel's per-input activations live
//! beside the rows for the same reason.

/// A growable `rows × width` buffer of logits rows.
#[derive(Debug, Clone, Default)]
pub struct LogitsArena {
    width: usize,
    /// Floats in use; `data` keeps its high-water length across
    /// [`LogitsArena::clear`], so a refill initializes nothing twice.
    used: usize,
    data: Vec<f32>,
    /// The kernel's per-input working memory (hidden state and residual
    /// block), kept with the rows so a call that fits allocates nothing.
    scratch: Vec<f32>,
}

impl LogitsArena {
    /// An empty arena; the row width is fixed by the first row written.
    pub const fn new() -> Self {
        LogitsArena {
            width: 0,
            used: 0,
            data: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Drops every row, keeping the buffer for the next fill.
    pub fn clear(&mut self) {
        self.used = 0;
    }

    /// Number of rows currently held.
    pub fn rows(&self) -> usize {
        self.used.checked_div(self.width).unwrap_or(0)
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[..self.used][i * self.width..(i + 1) * self.width]
    }

    /// A view whose row `0` is this arena's row `base`.
    pub fn rows_from(&self, base: usize) -> ArenaRows<'_> {
        ArenaRows { arena: self, base }
    }

    /// Appends a copy of `row`, returning its index — how sessions
    /// without a flat kernel hand their nested results over.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the rows already held.
    pub fn push_row(&mut self, row: &[f32]) -> usize {
        let index = self.rows();
        self.grow(row.len(), 1).copy_from_slice(row);
        index
    }

    /// Appends `n` rows of `width` and returns them for the kernel to
    /// overwrite (their contents are unspecified: zeros the first time
    /// the buffer reaches this far, stale rows after a clear).
    pub(crate) fn grow(&mut self, width: usize, n: usize) -> &mut [f32] {
        self.grow_with_scratch(width, n, 0).0
    }

    /// [`LogitsArena::grow`], plus `scratch` floats of working memory
    /// (contents unspecified) for the kernel that fills the rows.
    pub(crate) fn grow_with_scratch(
        &mut self,
        width: usize,
        n: usize,
        scratch: usize,
    ) -> (&mut [f32], &mut [f32]) {
        if self.used == 0 {
            self.width = width;
        }
        assert_eq!(width, self.width, "arena rows must share one width");
        let start = self.used;
        self.used += n * width;
        if self.data.len() < self.used {
            self.data.resize(self.used, 0.0);
        }
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0.0);
        }
        (
            &mut self.data[start..self.used],
            &mut self.scratch[..scratch],
        )
    }

    /// The rows as one flat vector (a one-row arena is that row).
    pub fn into_vec(mut self) -> Vec<f32> {
        self.data.truncate(self.used);
        self.data
    }
}

/// Borrowed rows of a [`LogitsArena`], re-based so that one call's
/// result reads as rows `0..`.
#[derive(Debug, Clone, Copy)]
pub struct ArenaRows<'a> {
    arena: &'a LogitsArena,
    base: usize,
}

impl<'a> ArenaRows<'a> {
    /// Row `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if the arena holds no such row.
    pub fn row(&self, i: usize) -> &'a [f32] {
        self.arena.row(self.base + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_append_and_rebase() {
        let mut a = LogitsArena::new();
        assert_eq!(a.rows(), 0);
        assert_eq!(a.push_row(&[1.0, 2.0]), 0);
        assert_eq!(a.push_row(&[3.0, 4.0]), 1);
        a.grow(2, 2).copy_from_slice(&[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.rows(), 4);
        assert_eq!(a.row(2), &[5.0, 6.0]);
        assert_eq!(a.rows_from(1).row(2), &[7.0, 8.0]);
        a.clear();
        assert_eq!(a.rows(), 0);
        // A cleared arena takes a new width.
        assert_eq!(a.push_row(&[9.0, 9.0, 9.0]), 0);
        assert_eq!(a.into_vec(), vec![9.0, 9.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "one width")]
    fn mixed_widths_are_rejected() {
        let mut a = LogitsArena::new();
        a.push_row(&[1.0, 2.0]);
        a.push_row(&[1.0]);
    }
}
