//! The flat result layout of every inference call: one contiguous
//! `rows × vocab` buffer the caller owns and reuses.
//!
//! The packed kernel ([`crate::MlpLm::infer`]) appends logits rows to a
//! [`LogitsArena`] and reports the index of the first one; readers
//! borrow rows back by index ([`ArenaRows`]). A decode step or a serving
//! tick clears the arena and refills it, so after the first few steps no
//! inference call allocates.
//!
//! Beside its rows the kernel **keeps each input's trunk activation**
//! (the last hidden state every head reads): the kernel writes one row
//! per input, and each kernel row's block holds the activation of the
//! input the row was written for. Every Medusa head is evaluated from
//! such a kept block ([`crate::DecodeSession::head_rows_into`], or
//! [`crate::DecodeSession::head_row_until`] as far as a decode step
//! reads it) — bit for bit the row the one-pass forward would have
//! written. A decode step evaluates its head rows from its own arena:
//! a base row a server's fused pass forwarded is copied there with its
//! block ([`LogitsArena::push_kept`]).

/// A growable `rows × width` buffer of logits rows.
#[derive(Debug, Clone, Default)]
pub struct LogitsArena {
    width: usize,
    /// Floats in use; `data` keeps its high-water length across
    /// [`LogitsArena::clear`], so a refill initializes nothing twice.
    used: usize,
    data: Vec<f32>,
    /// Floats per kept activation (the hidden width of the model whose
    /// kernel fills this arena); fixed by the first kernel call after
    /// a clear, 0 until then.
    act_width: usize,
    /// One `act_width` block per row up to the last row the kernel's
    /// trunk wrote: each kernel row's block is the trunk activation of
    /// its input, every other block (copied-in and head-only rows
    /// before it) is unspecified.
    acts: Vec<f32>,
    /// Working memory for a head's residual block, kept with the rows
    /// so a call that fits allocates nothing.
    scratch: Vec<f32>,
}

impl LogitsArena {
    /// An empty arena; the row width is fixed by the first row written.
    pub const fn new() -> Self {
        LogitsArena {
            width: 0,
            used: 0,
            data: Vec::new(),
            act_width: 0,
            acts: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Drops every row, keeping the buffer for the next fill.
    pub fn clear(&mut self) {
        self.used = 0;
        self.act_width = 0;
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

    /// The trunk activation kept in kernel row `row`'s block.
    ///
    /// # Panics
    ///
    /// Panics if the arena holds no `row`, and may if the row was not
    /// written by the kernel's trunk; a row that was not (one copied in
    /// bare, one evaluated from an activation kept elsewhere) reads
    /// unspecified floats otherwise.
    pub(crate) fn activation(&self, row: usize) -> &[f32] {
        assert!(row < self.rows(), "no row {row} to keep an activation for");
        &self.acts[row * self.act_width..(row + 1) * self.act_width]
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

    /// Appends a copy of `kept`'s row `0` **and of its block** — for a
    /// kernel row, its input's trunk activation — returning its index:
    /// the copy of a kernel row is as good a kept position here
    /// ([`crate::DecodeSession::head_rows_into`]) as the row was in its
    /// own arena. A row with no activation block — one no kernel trunk
    /// wrote — is copied without one.
    ///
    /// # Panics
    ///
    /// Panics if the row's width, or its activation's, differs from
    /// what this arena already holds.
    pub fn push_kept(&mut self, kept: ArenaRows<'_>) -> usize {
        let (from, act) = (kept.arena, kept.arena.act_width);
        let block = from.acts.get(kept.base * act..(kept.base + 1) * act);
        let Some(block) = block.filter(|b| !b.is_empty()) else {
            return self.push_row(kept.row(0));
        };
        let index = self.rows();
        let (row, acts) = self.grow_for_kernel(from.width, 1, act);
        row.copy_from_slice(kept.row(0));
        acts.copy_from_slice(block);
        index
    }

    /// Appends `n` rows of `width` and returns them for the kernel to
    /// overwrite (their contents are unspecified: zeros the first time
    /// the buffer reaches this far, stale rows after a clear).
    pub(crate) fn grow(&mut self, width: usize, n: usize) -> &mut [f32] {
        if self.used == 0 {
            self.width = width;
        }
        assert_eq!(width, self.width, "arena rows must share one width");
        let start = self.used;
        self.used += n * width;
        if self.data.len() < self.used {
            self.data.resize(self.used, 0.0);
        }
        &mut self.data[start..self.used]
    }

    /// [`LogitsArena::grow`] with `scratch` floats of working memory
    /// (contents unspecified), for rows evaluated from activations kept
    /// elsewhere: they keep none of their own, so an arena that only
    /// ever holds such rows holds no activation blocks.
    pub(crate) fn grow_with_scratch(
        &mut self,
        width: usize,
        n: usize,
        scratch: usize,
    ) -> (&mut [f32], &mut [f32]) {
        let start = self.used;
        self.grow(width, n);
        if self.scratch.len() < scratch {
            self.scratch.resize(scratch, 0.0);
        }
        (
            &mut self.data[start..self.used],
            &mut self.scratch[..scratch],
        )
    }

    /// [`LogitsArena::grow`] for the kernel's trunk: the `n` new rows and
    /// their `n` activation blocks of `act_width` floats (all contents
    /// unspecified).
    pub(crate) fn grow_for_kernel(
        &mut self,
        width: usize,
        n: usize,
        act_width: usize,
    ) -> (&mut [f32], &mut [f32]) {
        if self.act_width == 0 {
            self.act_width = act_width;
        }
        assert_eq!(
            act_width, self.act_width,
            "arena activations must share one width"
        );
        let first = self.rows();
        self.grow(width, n);
        let acts = first * act_width..(first + n) * act_width;
        if self.acts.len() < acts.end {
            self.acts.resize(acts.end, 0.0);
        }
        (
            &mut self.data[first * width..self.used],
            &mut self.acts[acts],
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

    /// The arena index of the view's row `0`.
    pub fn base(&self) -> usize {
        self.base
    }

    /// The view whose row `0` is this view's row `i`.
    pub fn rows_from(&self, i: usize) -> ArenaRows<'a> {
        ArenaRows {
            arena: self.arena,
            base: self.base + i,
        }
    }

    /// The trunk activation kept with the view's row `0` (see
    /// [`LogitsArena::activation`]).
    pub(crate) fn activation(&self) -> &'a [f32] {
        self.arena.activation(self.base)
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
    fn kept_rows_are_copied_with_their_activation() {
        let mut from = LogitsArena::new();
        from.push_row(&[0.0, 0.0]);
        let (rows, acts) = from.grow_for_kernel(2, 2, 3);
        rows.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        acts.copy_from_slice(&[5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let mut to = LogitsArena::new();
        to.push_row(&[0.5, 0.5]);
        let at = to.push_kept(from.rows_from(1).rows_from(1));
        assert_eq!((at, to.rows()), (1, 2));
        assert_eq!(to.row(at), &[3.0, 4.0]);
        assert_eq!(to.rows_from(at).activation(), &[8.0, 9.0, 10.0]);
        // A row no trunk wrote is copied bare, into an arena that then
        // holds no activation blocks at all.
        let mut bare = LogitsArena::new();
        bare.push_row(&[1.0]);
        to.clear();
        assert_eq!(to.push_kept(bare.rows_from(0)), 0);
        assert_eq!((to.row(0), to.act_width), (&[1.0][..], 0));
    }

    #[test]
    #[should_panic(expected = "one width")]
    fn mixed_widths_are_rejected() {
        let mut a = LogitsArena::new();
        a.push_row(&[1.0, 2.0]);
        a.push_row(&[1.0]);
    }
}
