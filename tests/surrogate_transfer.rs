//! Cross-class transfer through the warm store's surrogate: a donor
//! session on one operator class trains the store-wide step-sequence
//! model, and a *different* class warm-started from it must reach the
//! cold run's final quality in no more trials than the cold run took.
//!
//! Also pins the golden-trace guarantee from the other side: with the
//! prerank stage off (the default) a traced run emits no
//! `SurrogateCalibration` events and no `surrogate/*` counters, so
//! enabling the subsystem cannot perturb existing traces.
//!
//! Within one task, paired prerank-off/on sessions pin the stage's two
//! deterministic outcomes: how many GBDT scorings it skips, and how close
//! the final best stays to the full path's.

use ansor::core::{SearchTask, StepSequenceModel, TuningOptions, TuningRecord, TuningSession};
use ansor::prelude::*;
use ansor::serve::{JobSpec, WarmStore};
use ansor::workloads::build_case;
use telemetry::{read_trace, SharedBuf, Telemetry, TraceEvent};

const DONOR_TRIALS: usize = 96;
const PROBE_TRIALS: usize = 64;

fn donor_spec(seed: u64) -> JobSpec {
    JobSpec {
        op: "GMM".into(),
        shape: 0,
        batch: 1,
        target: "intel".into(),
        trials: DONOR_TRIALS,
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

/// Runs a donor job exactly as the daemon would and absorbs its log into
/// the store (which trains the store-wide surrogate).
fn run_donor_into(store: &WarmStore, seed: u64) {
    let spec = donor_spec(seed);
    let dag = build_case(&spec.op, spec.shape, spec.batch).expect("known case");
    let target = HardwareTarget::by_name(&spec.target).expect("known target");
    let task = SearchTask::new(spec.task_name(), dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: spec.trials,
        seed: spec.seed,
        ..Default::default()
    };
    let mut session = TuningSession::new(task, options, Measurer::new(target), "donor");
    session.run(|_| true);
    store.absorb(&spec, "none", session.log());
}

/// Tunes the probe class (GMM shape 2 — never absorbed into the store),
/// optionally warm-started with the transferred surrogate, and returns
/// the tuning history.
fn run_probe(surrogate: Option<StepSequenceModel>) -> Vec<TuningRecord> {
    let dag = build_case("GMM", 2, 1).expect("GMM shape 2 exists");
    let target = HardwareTarget::by_name("intel").expect("intel target");
    let task = SearchTask::new("GMM:s2b1", dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: PROBE_TRIALS,
        seed: 1,
        prerank_keep: surrogate.is_some().then_some(0.25),
        ..Default::default()
    };
    let mut session = TuningSession::new(task, options, Measurer::new(target), "probe");
    if let Some(sur) = surrogate {
        session.install_surrogate(sur);
    }
    session.run(|_| true);
    session.into_result().history
}

/// First trial at which the running best reached `target` seconds.
fn trials_to_reach(history: &[TuningRecord], target: f64) -> Option<u64> {
    history
        .iter()
        .find(|r| r.best_seconds <= target)
        .map(|r| r.trial)
}

#[test]
fn transferred_surrogate_reaches_cold_quality_in_no_more_trials() {
    let store = WarmStore::in_memory();
    for seed in [0, 1] {
        run_donor_into(&store, seed);
    }
    let surrogate = store.surrogate();
    assert!(
        surrogate.is_trained(),
        "store surrogate must train from absorbed donor jobs ({} updates)",
        surrogate.num_updates()
    );

    let cold = run_probe(None);
    let warm = run_probe(Some(surrogate));

    // Both runs are measured against the same bar: the cold run's final
    // quality on a class the store never saw.
    let bar = cold.last().expect("cold probe ran").best_seconds;
    let cold_trials = trials_to_reach(&cold, bar).expect("cold reaches its own best");
    let warm_trials = trials_to_reach(&warm, bar).unwrap_or(u64::MAX);
    assert!(
        warm_trials <= cold_trials,
        "cross-class warm start must not slow convergence: \
         warm {warm_trials} trials vs cold {cold_trials} to reach {bar:e}s"
    );
}

#[test]
fn prerank_off_emits_no_surrogate_trace_events_or_counters() {
    let buf = SharedBuf::new();
    let tel = Telemetry::to_writer(Box::new(buf.clone()));
    let dag = build_case("GMM", 2, 1).expect("GMM shape 2 exists");
    let target = HardwareTarget::by_name("intel").expect("intel target");
    let task = SearchTask::new("GMM:s2b1", dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: 48,
        seed: 1,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(tel.clone());
    let mut session = TuningSession::new(task, options, measurer, "prerank-off");
    session.run(|_| true);
    tel.flush();

    let (lines, skipped) = read_trace(buf.contents().as_slice()).expect("readable trace");
    assert_eq!(skipped, 0, "trace must be fully parseable");
    assert!(
        !lines
            .iter()
            .any(|l| matches!(l.event, TraceEvent::SurrogateCalibration { .. })),
        "prerank off must not emit SurrogateCalibration events"
    );
    for (name, _) in telemetry::report::final_counters(&lines) {
        assert!(
            !name.starts_with("surrogate/"),
            "prerank off must not create surrogate counters (found {name})"
        );
    }
}

/// One GMM s0 session at `trials`; returns (best seconds, cold GBDT
/// evaluations). Every cold evaluation is a score-cache miss, and the
/// candidates the prerank stage drops never reach the GBDT.
fn prerank_session(trials: usize, seed: u64, prerank_keep: Option<f64>) -> (f64, u64) {
    let dag = build_case("GMM", 0, 1).expect("GMM shape 0 exists");
    let target = HardwareTarget::by_name("intel").expect("intel target");
    let task = SearchTask::new("GMM:s0b1", dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: trials,
        seed,
        prerank_keep,
        ..Default::default()
    };
    let mut session = TuningSession::new(task, options, Measurer::new(target), "prerank");
    session.run(|_| true);
    (session.best_seconds(), session.cache_stats().score_misses)
}

#[test]
fn prerank_keeps_quality_and_skips_scoring() {
    // 96 trials is the smallest budget at which prerank skips anything:
    // at 32, 48 and 64 trials both sessions make the same GBDT scorings.
    // At this budget the skip fraction is 0.3824 and the median off/on
    // ratio 1.000; the floors allow 25% fewer skips and 0.02 less ratio.
    const TRIALS: usize = 96;
    const SKIP_FLOOR: f64 = 0.75 * 0.3824;
    const RATIO_FLOOR: f64 = 1.0 - 0.02;

    let mut misses = [0u64; 2];
    let mut ratios = Vec::new();
    for seed in [7, 9, 11] {
        let (best_off, misses_off) = prerank_session(TRIALS, seed, None);
        let (best_on, misses_on) = prerank_session(TRIALS, seed, Some(0.25));
        misses[0] += misses_off;
        misses[1] += misses_on;
        // Off over on seconds: above 1 when prerank found a faster program.
        ratios.push(best_off / best_on);
    }
    ratios.sort_by(f64::total_cmp);

    let skip = 1.0 - misses[1] as f64 / misses[0].max(1) as f64;
    assert!(
        skip >= SKIP_FLOOR,
        "prerank skipped {skip:.4} of GBDT scorings (misses off/on {misses:?}), floor {SKIP_FLOOR:.4}"
    );
    let ratio = ratios[1];
    assert!(
        ratio >= RATIO_FLOOR,
        "median off/on best-seconds ratio {ratio:.4} ({ratios:?}), floor {RATIO_FLOOR:.2}"
    );
}
