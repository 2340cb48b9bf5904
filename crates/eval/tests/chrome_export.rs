//! Acceptance test for the Chrome trace-event exporter: a 4-worker
//! paced dispatch run's event stream must export to schema-valid
//! trace-event JSON — it parses, every entry carries a known phase
//! (`ph`) with the fields that phase requires, all four workers appear
//! as processes, and on every request track the complete spans nest
//! properly (any two overlapping spans are parent/child, never
//! partially overlapping). Every `step` instant carries its event's
//! shape in the event log's JSON form.

use serde::{Deserialize, Value};
use verispec_core::{DecodeConfig, SpecShape};
use verispec_lm::{GpuCostModel, MlpLm, MlpLmConfig, TokenId};
use verispec_load::{run_fleet_open_loop, ArrivalProcess, PromptFamily, RequestMix, Workload};
use verispec_serve::{Backend, EngineChoice, FleetRuntime, RoutePolicy, ServeConfig};
use verispec_trace::chrome_trace;
use verispec_trace::EventKind;

fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::UInt(u) => Some(u),
        Value::Int(i) => u64::try_from(i).ok(),
        _ => None,
    }
}

fn field<'a>(item: &'a Value, name: &str) -> Option<&'a Value> {
    item.field(name).ok()
}

/// Complete spans per (pid, tid) track: `(name, start, end)` in
/// ticks-as-microseconds.
type SpanTracks = std::collections::BTreeMap<(u64, u64), Vec<(String, u64, u64)>>;

#[test]
fn four_worker_paced_run_exports_schema_valid_chrome_trace() {
    let model = MlpLm::new(MlpLmConfig {
        vocab: 16,
        d_emb: 6,
        d_hidden: 12,
        context: 4,
        n_heads: 3,
        seed: 0xC0FFEE,
    });
    let cost = GpuCostModel::codellama_like();
    let shared: Vec<TokenId> = vec![5, 6];

    let workload = Workload {
        process: ArrivalProcess::Poisson { rate: 1.0 },
        mix: RequestMix {
            engines: vec![
                (EngineChoice::Ntp, 1.0),
                (EngineChoice::MedusaTree(vec![2, 2]), 1.0),
                (
                    EngineChoice::SyntaxAligned {
                        tree: Some(vec![2, 2]),
                    },
                    2.0,
                ),
            ],
            families: vec![(
                PromptFamily {
                    name: "short".into(),
                    prompts: vec![(vec![5, 6, 7], 6), (vec![5, 6, 8], 9)],
                },
                1.0,
            )],
            greedy_fraction: 0.5,
            temperature: (0.4, 1.0),
            base: DecodeConfig::default(),
            deadline_slack: Some(4.0),
        },
        count: 16,
        seed: 0xC480_3E17,
    };

    let cfg = ServeConfig {
        prefix_cache: true,
        ..ServeConfig::concurrency(2)
    };
    let fleet = FleetRuntime::new(
        &model,
        cfg,
        4,
        RoutePolicy::JoinShortestQueue,
        Backend::Lockstep,
    )
    .warm_prefix(&shared);
    let run = run_fleet_open_loop(fleet, workload.requests(), &cost);
    assert!(!run.events.is_empty(), "paced run produced no events");

    let json = chrome_trace(&run.events);
    let doc: Value = serde_json::from_str(&json).expect("export is valid JSON");
    let items = match doc.field("traceEvents").expect("traceEvents key") {
        Value::Seq(items) => items,
        other => panic!("traceEvents is {}, not an array", other.kind()),
    };
    assert!(!items.is_empty(), "export has no trace entries");

    // Per-entry schema: a known phase and the fields it requires.
    let mut processes = std::collections::BTreeSet::new();
    let mut spans = SpanTracks::new();
    for (i, item) in items.iter().enumerate() {
        let ph = field(item, "ph")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry {i}: `ph` missing"));
        let name = field(item, "name")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry {i}: `name` missing"));
        let pid = field(item, "pid")
            .and_then(as_u64)
            .unwrap_or_else(|| panic!("entry {i}: `pid` missing"));
        let tid = field(item, "tid")
            .and_then(as_u64)
            .unwrap_or_else(|| panic!("entry {i}: `tid` missing"));
        match ph {
            "M" => {
                if name == "process_name" {
                    processes.insert(pid);
                }
                assert!(field(item, "args").is_some(), "entry {i}: metadata args");
            }
            "X" => {
                let ts = field(item, "ts").and_then(as_u64).expect("span ts");
                let dur = field(item, "dur").and_then(as_u64).expect("span dur");
                spans
                    .entry((pid, tid))
                    .or_default()
                    .push((name.to_string(), ts, ts + dur));
            }
            "i" => {
                assert!(field(item, "ts").and_then(as_u64).is_some(), "instant ts");
                assert_eq!(
                    field(item, "s").and_then(Value::as_str),
                    Some("t"),
                    "entry {i}: instant scope"
                );
            }
            "C" => {
                assert!(field(item, "ts").and_then(as_u64).is_some(), "counter ts");
                assert!(field(item, "args").is_some(), "entry {i}: counter args");
            }
            other => panic!("entry {i}: unknown phase `{other}`"),
        }
    }
    assert_eq!(
        processes,
        (0u64..4).collect(),
        "all four workers must appear as processes"
    );

    // Per-track nesting: any two overlapping spans must be strictly
    // nested (one contains the other) — a partially overlapping pair
    // means the timeline reconstruction emitted a malformed hierarchy.
    let mut request_tracks = 0;
    for ((pid, tid), track) in &spans {
        assert!(
            track.iter().any(|(n, _, _)| n == "request"),
            "track {pid}/{tid} has phase spans but no `request` parent"
        );
        request_tracks += 1;
        let (_, rs, re) = track
            .iter()
            .find(|(n, _, _)| n == "request")
            .expect("request span");
        for (name, s, e) in track {
            assert!(
                rs <= s && e <= re,
                "track {pid}/{tid}: `{name}` span [{s}, {e}) escapes its \
                 `request` parent [{rs}, {re})"
            );
        }
        for (a, (an, a0, a1)) in track.iter().enumerate() {
            for (bn, b0, b1) in &track[a + 1..] {
                let overlap = a0 < b1 && b0 < a1;
                let nested = (a0 <= b0 && b1 <= a1) || (b0 <= a0 && a1 <= b1);
                assert!(
                    !overlap || nested,
                    "track {pid}/{tid}: `{an}` [{a0}, {a1}) and `{bn}` \
                     [{b0}, {b1}) partially overlap"
                );
            }
        }
    }
    assert_eq!(
        request_tracks,
        run.report.completions.len(),
        "every served request must have a span track"
    );

    // Step instants follow the log's order, and each one's `shape`
    // reads back as its event's shape.
    let exported: Vec<SpecShape> = items
        .iter()
        .filter(|item| field(item, "name").and_then(Value::as_str) == Some("step"))
        .map(|item| {
            let shape = field(item, "args")
                .and_then(|args| field(args, "shape"))
                .expect("step instant carries a shape");
            SpecShape::from_value(shape).expect("a step's shape is the event log's JSON form")
        })
        .collect();
    let logged: Vec<&SpecShape> = run
        .events
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::Step { shape, .. } => Some(shape),
            _ => None,
        })
        .collect();
    assert!(
        logged.iter().any(|s| s.depth == 0) && logged.iter().any(|s| !s.widths.is_empty()),
        "the run steps NTP and tree requests"
    );
    assert_eq!(exported.len(), logged.len(), "one step instant per step");
    for (i, (got, want)) in exported.iter().zip(&logged).enumerate() {
        assert_eq!(got, *want, "step {i}'s exported shape");
    }
}
