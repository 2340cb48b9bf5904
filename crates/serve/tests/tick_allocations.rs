//! A warm tick allocates only its step traces.
//!
//! `TickBuffers` keeps what a tick reads and writes across ticks, the
//! stepper refills its shape slots in place, and the scheduler keeps its
//! working lists, so once an engine is warm a tick's heap allocations
//! are exactly these:
//!
//! * one per committed step — the committed span, allocated at its
//!   final length and moved into the request's `StepTrace`;
//! * the doublings of each request's growing vectors: its tokens (the
//!   output's and its session's) and, per step, its step traces, its
//!   step ticks and its acceptance history's ring.
//!
//! A vector whose length goes from `a ≥ 1` to `b` in amortised doubling
//! reallocates at most `⌊log₂(b / a)⌋ + 1` times (none when `b == a`):
//! its capacity starts at `a` or more, and its `k`-th reallocation comes
//! only once the length has passed `2^(k−1) · a`. The test counts every
//! allocation and reallocation its thread makes over a run of ticks and
//! holds it to the sum of those two terms.
//!
//! The engine runs under the benchmark's `fleet_shared` configuration —
//! prefix cache, EDF, a 24-position tick capacity that defers members,
//! concurrency 8 — with NTP, Medusa-tree and Ours-tree `[2, 2, 1]`
//! members, greedy and at temperature 0.05, whose budgets run past the
//! counted window. Grammar members are out of scope: their
//! candidate-tree builder keeps its own allocations.
//!
//! The counting allocator below is this test binary's own; the library
//! holds no `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use verispec_core::DecodeConfig;
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, Sampling, TokenId};
use verispec_serve::{EngineChoice, Request, ServeConfig, ServeEngine, TickOrder};

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation per thread.
struct Counting;

fn count() {
    // A const-initialised `Cell` has no destructor, so this never
    // allocates, and `try_with` only fails while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Reallocations a vector growing from `from ≥ 1` to `to` entries may
/// make (see the module doc).
fn growths(from: usize, to: usize) -> usize {
    assert!(from >= 1, "a warm vector holds something");
    if to <= from {
        0
    } else {
        (to / from).ilog2() as usize + 1
    }
}

/// Ticks before counting: every member has stepped many times, and the
/// tick's buffers have seen their largest batch.
const WARM_TICKS: u64 = 150;
/// Ticks counted.
const COUNTED_TICKS: u64 = 100;

#[test]
fn a_warm_tick_allocates_only_its_step_traces() {
    let model = MlpLm::new(MlpLmConfig {
        vocab: 64,
        d_emb: 8,
        d_hidden: 32,
        context: 16,
        n_heads: 3,
        seed: 7,
    });
    let cost = GpuCostModel::codellama_like();
    let cfg = ServeConfig {
        prefix_cache: true,
        ingest_rate: Some(8),
        session_cap: Some(32),
        order: TickOrder::Edf,
        tick_capacity: Some(24),
        shed_depth: Some(32),
        ..ServeConfig::concurrency(8)
    };
    let tree = vec![2, 2, 1];
    let engines = [
        EngineChoice::Ntp,
        EngineChoice::MedusaTree(tree.clone()),
        EngineChoice::SyntaxAligned { tree: Some(tree) },
    ];
    let stem: Vec<TokenId> = (0..24).map(|i| 5 + (i * 7) % 50).collect();
    let mut engine = ServeEngine::new(&model, cfg);
    let mut requests = Vec::new();
    for (id, (engine_choice, sampling)) in engines
        .iter()
        .flat_map(|e| [(e, Sampling::Greedy), (e, Sampling::temperature(0.05))])
        .enumerate()
    {
        let mut prompt = stem.clone();
        prompt.extend([10 + id as TokenId, 20 + id as TokenId]);
        let req = Request::new(
            id as u64,
            prompt,
            engine_choice.clone(),
            DecodeConfig {
                max_tokens: 600,
                sampling,
                // No end-of-sequence: every request runs to its budget.
                eos: TokenId::MAX,
                seed: 11 + id as u64,
                ..Default::default()
            },
        )
        .with_deadline(400 + 40 * id as u64);
        requests.push(req.clone());
        engine.submit(req);
    }

    for _ in 0..WARM_TICKS {
        assert!(engine.tick(&cost));
    }
    let before = allocations();
    for _ in 0..COUNTED_TICKS {
        assert!(engine.tick(&cost));
    }
    let counted = allocations() - before;
    let (from, to) = (WARM_TICKS, WARM_TICKS + COUNTED_TICKS);

    // What each request did by a tick, read back off its completion.
    let report = engine.run(&cost);
    assert_eq!(report.completions.len(), requests.len());
    let (mut steps, mut growth) = (0, 0);
    for c in &report.completions {
        assert!(
            c.finished > to,
            "request {} finished inside the window",
            c.id
        );
        let prompt = requests[c.id as usize].prompt.len();
        let at = |tick: u64| {
            let steps = c.step_ticks.iter().take_while(|&&t| t <= tick).count();
            let tokens: usize = c.output.trace[..steps]
                .iter()
                .map(|s| s.committed.len())
                .sum();
            (steps, tokens)
        };
        let ((steps_from, tokens_from), (steps_to, tokens_to)) = (at(from), at(to));
        assert!(
            steps_from >= 1,
            "request {} never stepped while warming",
            c.id
        );
        steps += steps_to - steps_from;
        // Output and session tokens; step traces, step ticks and the
        // acceptance history's ring, which is never longer than the
        // steps taken.
        growth += growths(tokens_from, tokens_to)
            + growths(prompt + tokens_from, prompt + tokens_to)
            + 3 * growths(steps_from, steps_to);
    }
    assert!(
        steps >= COUNTED_TICKS as usize,
        "the window committed steps"
    );
    assert!(
        counted <= steps + growth,
        "{counted} allocations over {COUNTED_TICKS} ticks, for {steps} committed steps \
         and at most {growth} vector doublings"
    );
}
