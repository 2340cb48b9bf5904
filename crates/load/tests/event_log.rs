//! Golden event-log CI: the `eviction_churn` corpus trace (the same
//! committed `ArrivalTrace` the trace-replay regression suite pins)
//! replayed through the prefix cache — the shared stem warmed, a tight
//! session cap churning its LRU leaves — with a collecting [`EventLog`]
//! attached, and its serialized event stream asserted
//! **byte-identical** to the committed golden log
//! `tests/traces/eviction_churn.events.json`.
//!
//! Events are stamped in tick space only, so the log is a pure
//! function of the trace — any diff means a scheduling, admission,
//! eviction, or speculation change reached the serving path. When a
//! change is intended, regenerate and review the event-level diff (it
//! shows *which phase of which request* moved):
//!
//! ```text
//! cargo test -p verispec-load --test event_log -- --ignored regenerate
//! ```

use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, NgramLm, TokenId};
use verispec_load::ArrivalTrace;
use verispec_serve::ServeConfig;
use verispec_trace::{log_from_json, log_to_json, EventKind, EventLog, TraceEvent};

/// The pinned corpus model (same seed as `trace_corpus.rs`).
fn model() -> MlpLm {
    MlpLm::new(MlpLmConfig {
        vocab: 16,
        d_emb: 6,
        d_hidden: 12,
        context: 4,
        n_heads: 3,
        seed: 0xC0FFEE,
    })
}

/// The pinned corpus draft model.
fn draft() -> NgramLm {
    let mut lm = NgramLm::new(2, 16);
    let seq: Vec<TokenId> = (0..240).map(|i| 4 + (i % 7) as TokenId).collect();
    lm.train_sequence(&seq);
    lm
}

/// The `eviction_churn` case's pinned engine configuration.
fn churn_cfg() -> ServeConfig {
    ServeConfig {
        session_cap: Some(3),
        prefix_cache: true,
        ..ServeConfig::concurrency(2)
    }
}

/// The corpus mixes' shared prompt stem, warmed into the prefix cache.
const SHARED_PREFIX: [TokenId; 2] = [5, 6];

fn traces_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/traces")
}

/// Replays the committed `eviction_churn` trace with a collecting sink
/// and returns the captured event stream.
fn replay_churn_events() -> Vec<TraceEvent> {
    let body = std::fs::read_to_string(traces_dir().join("eviction_churn.json"))
        .expect("tests/traces/eviction_churn.json is committed");
    let trace = ArrivalTrace::from_json(&body).expect("trace parses");
    let m = model();
    let d = draft();
    let cost = GpuCostModel::codellama_like();
    let log = EventLog::new();
    let mut engine = verispec_serve::ServeEngine::new(&m, churn_cfg())
        .with_draft(&d)
        .with_sink(&log);
    assert!(engine.warm_prefix(&SHARED_PREFIX));
    for req in trace.replay() {
        engine.submit(req);
    }
    engine.run(&cost);
    log.into_events()
}

#[test]
fn eviction_churn_event_log_replays_byte_identically() {
    let golden = std::fs::read_to_string(traces_dir().join("eviction_churn.events.json"))
        .expect("tests/traces/eviction_churn.events.json is committed");

    // The committed log round-trips through the typed schema without
    // drifting a byte (serialization itself is part of the contract).
    let parsed = log_from_json(&golden).expect("golden event log parses");
    assert_eq!(
        log_to_json(&parsed),
        golden,
        "golden event log does not round-trip byte-identically"
    );

    // Replaying the trace reproduces the committed stream byte for
    // byte — and a second replay reproduces the first.
    let a = replay_churn_events();
    let b = replay_churn_events();
    assert_eq!(
        log_to_json(&a),
        log_to_json(&b),
        "event stream not deterministic across replays"
    );
    assert_eq!(
        log_to_json(&a),
        golden,
        "replayed event log diverged from the committed golden — a \
         behavior change reached the serving path (regenerate only if \
         intended and review the event-level diff)"
    );

    // The log stays interesting: the churn case must keep exercising
    // prefix-cache eviction, and every lifecycle class must appear.
    let evictions = a
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PrefixEvicted))
        .count();
    assert!(evictions >= 3, "churn log stopped evicting ({evictions})");
    for (what, present) in [
        (
            "Submitted",
            a.iter()
                .any(|e| matches!(e.kind, EventKind::Submitted { .. })),
        ),
        (
            "Admitted",
            a.iter()
                .any(|e| matches!(e.kind, EventKind::Admitted { .. })),
        ),
        (
            "Step",
            a.iter().any(|e| matches!(e.kind, EventKind::Step { .. })),
        ),
        (
            "Batch",
            a.iter().any(|e| matches!(e.kind, EventKind::Batch { .. })),
        ),
        (
            "Finished",
            a.iter()
                .any(|e| matches!(e.kind, EventKind::Finished { .. })),
        ),
    ] {
        assert!(present, "churn log lost its `{what}` events");
    }
}

/// Rewrites the committed golden event log from the committed trace
/// and current engine behavior. Run only after an *intended* behavior
/// change, then review the diff:
///
/// ```text
/// cargo test -p verispec-load --test event_log -- --ignored regenerate
/// ```
#[test]
#[ignore = "writes tests/traces/eviction_churn.events.json; run explicitly"]
fn regenerate() {
    let events = replay_churn_events();
    std::fs::write(
        traces_dir().join("eviction_churn.events.json"),
        log_to_json(&events),
    )
    .expect("golden event log written");
}
