//! A model load holds at most ten bytes per weight.
//!
//! `serde_json::from_slice::<MlpLm>` parses the file into a `Value` tree
//! and decodes each tensor's string from it, so at its peak the tree's
//! copy of every tensor string and the decoded `f32`s are live at once:
//! 5 bytes of Z85 text and 4 bytes of `f32` per weight, plus the tree's
//! few small nodes. Eight hex digits a value made that 12 bytes per
//! weight; that text is also the file, which the caller holds beside
//! the load.
//!
//! The model has the benchmark's Ours and Medusa shape (vocabulary 480,
//! `d_emb` 10, `d_hidden` 32, context 16, 6 Medusa heads: 126,976
//! weights). The test holds its JSON to 5 bytes per weight plus 2 KiB,
//! and the peak of live bytes its thread allocates inside `from_slice`,
//! above what was live when the call began, to 10 bytes per weight.
//!
//! The counting allocator below is this test binary's own; the library
//! holds no `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use verispec_lm::{MlpLm, MlpLmConfig};

thread_local! {
    /// Bytes allocated on this thread and not yet freed.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting the live bytes each thread allocates and their
/// peak.
struct Counting;

fn grow(bytes: usize) {
    // A const-initialised `Cell` has no destructor, so this never
    // allocates, and `try_with` only fails while the thread exits.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    // A block freed on another thread than its own may take a count
    // below zero; saturating keeps the count meaningful for the thread
    // that measures.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts a new peak at what is live now, and returns that.
fn reset_peak() -> usize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The benchmark's Ours and Medusa model shape.
const OURS: MlpLmConfig = MlpLmConfig {
    vocab: 480,
    d_emb: 10,
    d_hidden: 32,
    context: 16,
    n_heads: 6,
    seed: 17,
};

#[test]
fn a_model_load_holds_at_most_ten_bytes_per_weight() {
    let model = MlpLm::new(OURS);
    let weights = model.param_count();
    assert_eq!(weights, 126_976, "the benchmark's Ours shape");
    let json = serde_json::to_vec(&model).expect("serializes");

    let before = reset_peak();
    let loaded: MlpLm = serde_json::from_slice(&json).expect("deserializes");
    let peak = PEAK.with(Cell::get) - before;

    println!(
        "{weights} weights: file {} B ({:.2} B/weight), load peak {peak} B ({:.2} B/weight)",
        json.len(),
        json.len() as f64 / weights as f64,
        peak as f64 / weights as f64
    );
    assert!(
        json.len() <= 5 * weights + 2048,
        "a model file of {} bytes for {weights} weights",
        json.len()
    );
    assert!(
        peak <= 10 * weights,
        "loading {weights} weights peaked at {peak} live bytes"
    );
    // What was measured is a whole load: the model writes back the same
    // bytes.
    assert_eq!(serde_json::to_vec(&loaded).expect("serializes"), json);
}
