//! `trace-report`'s phase-time shares are shares of wall time: a nested
//! span (`phase/a/b`) must not be added to its parent in the denominator,
//! and the wall time no top-level phase covers shows as `untracked`.

use std::collections::BTreeMap;
use std::process::Command;

use telemetry::{HistogramSummary, MetricsSnapshot, TraceEvent, TraceLine};

fn phase(sum: f64) -> HistogramSummary {
    HistogramSummary {
        count: 1,
        sum,
        min: sum,
        max: sum,
        p50: sum,
        p90: sum,
        p99: sum,
    }
}

/// The share column of the phase table's row for `name`.
fn share_of(stdout: &str, name: &str) -> String {
    stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().find(|t| t.ends_with('%')))
        .unwrap_or_else(|| panic!("no `{name}` phase row in:\n{stdout}"))
        .to_string()
}

#[test]
fn phase_shares_are_of_wall_time_with_an_untracked_row() {
    let dir = std::env::temp_dir().join(format!("ansor-phase-shares-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");

    // 1 s of wall: evolution 0.7 s, half of it in a nested predict span,
    // and measurement 0.2 s. 0.1 s is in no phase at all.
    let histograms: BTreeMap<String, HistogramSummary> = [
        ("phase/evolution", 0.7),
        ("phase/evolution/model_predict", 0.35),
        ("phase/measurement", 0.2),
    ]
    .into_iter()
    .map(|(k, s)| (k.to_string(), phase(s)))
    .collect();
    let profile = TraceLine {
        seq: 0,
        t_ms: 1000.0,
        event: TraceEvent::PhaseProfile {
            snapshot: MetricsSnapshot {
                histograms,
                ..Default::default()
            },
        },
    };
    std::fs::write(
        &trace,
        serde_json::to_string(&profile).expect("trace line serializes") + "\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_trace-report"))
        .arg(&trace)
        .output()
        .expect("run trace-report");
    assert!(
        out.status.success(),
        "trace-report exits 0: {:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert_eq!(share_of(&stdout, "evolution"), "70.0%");
    assert_eq!(share_of(&stdout, "evolution/model_predict"), "35.0%");
    assert_eq!(share_of(&stdout, "measurement"), "20.0%");
    assert_eq!(share_of(&stdout, "untracked"), "10.0%");

    std::fs::remove_dir_all(&dir).ok();
}
