//! The tuning workloads.
//!
//! - `tune-op`: fig6 C2D shape 0, batch 1, on `intel`, tuned through
//!   `TuningSession` at 1 runtime thread with a checkpoint saved after
//!   every round, as `ansor-tune --checkpoint` does.
//! - `tune-net`: the `bert` network's tasks through `TaskScheduler` at 2
//!   runtime threads, no checkpoint.
//!
//! Each run tunes one seeded *job* after another until `--seconds` have
//! passed. A job is a fresh run on a new search seed followed by a
//! repeat of the same seed that shares the fresh run's measurement and
//! featurization caches, as the serving daemon's warm store does. The
//! repeat must reproduce the fresh run exactly.

use std::sync::Arc;
use std::time::Instant;

use ansor_core::{
    best_record, log_fingerprint, single_fingerprint, single_task_name, Objective, SearchTask,
    SessionCacheStats, TaskScheduler, TaskSchedulerConfig, TuneCheckpoint, TuneTask, TuningOptions,
    TuningRecordLog, TuningSession, CHECKPOINT_VERSION,
};
use hwsim::{HardwareTarget, Measurer};
use serde_json::Value;
use telemetry::Telemetry;

use crate::layers::{self, LayerInputs};
use crate::probe::Probe;
use crate::report::{num, obj, Outcome};
use crate::spans::{phase_seconds, Shares, Spans};
use crate::stats::{geomean, median, ratio, tail};
use crate::{checks, peak_heap_mb, Ctx};

/// tune-op: operator class, shape index, batch, target.
pub const OP: (&str, usize, i64, &str) = ("C2D", 0, 1, "intel");
/// tune-op: measurement trials per session.
pub const OP_TRIALS: usize = 512;
/// tune-net: network, target and scheduling units per run.
pub const NET: (&str, &str) = ("bert", "intel");
pub const NET_UNITS: usize = 12;
/// Nominal seconds of one job (fresh run plus repeat) on a 2-core box;
/// `--seconds` divided by it gives the jobs a run measures.
const OP_JOB_S: f64 = 3.4;
const NET_JOB_S: f64 = 3.6;
/// Set-ups timed back to back before the loop; `setup_s` is their
/// median.
const SETUP_REPS: usize = 15;
/// Seed-stream tags.
const TAG_SEARCH: u64 = 1;
const TAG_SETUP: u64 = 2;
const TAG_PROBE: u64 = 3;
/// Fault plan every workload measures under (`hwsim::FaultPlan::parse`
/// syntax; the repository's canonical stress plan).
pub const FAULTS: &str = "default";

/// One tuning run of a job, fresh or repeat.
struct Run {
    wall_s: f64,
    trials: u64,
    rounds: u64,
    /// Measurement attempts: trials plus fault retries.
    attempts: u64,
    /// Attempts that failed: retried faults plus failed trials.
    failed_attempts: u64,
}

/// Measurement-attempt counters of a measurer's telemetry handle.
fn attempt_counters(tel: &Telemetry) -> (u64, u64) {
    let retries = tel.counter_value("measure/retries");
    let failed = tel.counter_value("measure/failed");
    let valid = tel.counter_value("measure/valid");
    (valid + failed + retries, failed + retries)
}

/// What the loop of either tuning workload collected.
#[derive(Default)]
struct Loop {
    setups: Vec<f64>,
    fresh: Vec<Run>,
    repeat: Vec<Run>,
    loop_wall_s: f64,
    /// Per fresh run: best seconds, flop count and weight of each task.
    best: Vec<Vec<(f64, f64, f64)>>,
    rpc: Vec<f64>,
    rpc_errors: u64,
}

impl Loop {
    /// End-to-end metrics shared by both tuning workloads.
    fn finish(&self, out: &mut Outcome) {
        let fresh_wall: f64 = self.fresh.iter().map(|r| r.wall_s).sum();
        let fresh_trials: u64 = self.fresh.iter().map(|r| r.trials).sum();
        let runs = || self.fresh.iter().chain(&self.repeat);
        let trials: u64 = runs().map(|r| r.trials).sum();
        let attempts: u64 = runs().map(|r| r.attempts).sum();
        let failed: u64 = runs().map(|r| r.failed_attempts).sum();
        out.attempted += attempts + self.rpc.len() as u64 + self.rpc_errors;
        out.failed += self.rpc_errors;
        out.set("setup_s", median(&self.setups));
        out.set("trial_ms", fresh_wall * 1e3 / fresh_trials as f64);
        // Per run: geometric mean GFLOP/s over its tasks, and the
        // weighted latency of its tasks.
        let gflops: Vec<f64> = self
            .best
            .iter()
            .map(|tasks| {
                geomean(
                    &tasks
                        .iter()
                        .map(|&(secs, flops, _)| flops / secs / 1e9)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let latency: Vec<f64> = self
            .best
            .iter()
            .map(|tasks| tasks.iter().map(|&(s, _, w)| s * w).sum::<f64>() * 1e3)
            .collect();
        out.set("best_gflops", geomean(&gflops));
        out.set("net_latency_ms", median(&latency));
        out.set("peak_heap_mb", peak_heap_mb());
        out.set(
            "jobs_per_s",
            (self.fresh.len() + self.repeat.len()) as f64 / self.loop_wall_s,
        );
        let ms = |runs: &[Run]| runs.iter().map(|r| r.wall_s * 1e3).collect::<Vec<_>>();
        out.set("fresh_job_ms_p50", median(&ms(&self.fresh)));
        out.set("repeat_job_ms_p50", median(&ms(&self.repeat)));
        let all: Vec<f64> = runs().map(|r| r.wall_s * 1e3).collect();
        out.set_tail("job_ms_tail", tail(&all));
        if !self.rpc.is_empty() {
            out.set("rpc_ms_p50", median(&self.rpc));
            out.set_tail("rpc_ms_tail", tail(&self.rpc));
        }
        // Scrape and checkpoint counts depend on speed, so `fail_share`
        // counts against measurement attempts, jobs and checks only; any
        // failure still counts.
        let runs_n = (self.fresh.len() + self.repeat.len()) as u64;
        out.set(
            "fail_share",
            ratio(
                (failed + out.failed) as f64,
                (attempts + runs_n + out.checks) as f64,
            ),
        );
        out.detail("fresh_jobs", num(self.fresh.len() as f64));
        out.detail("repeat_jobs", num(self.repeat.len() as f64));
        out.detail("trials", num(trials as f64));
        out.detail("measurement_attempts", num(attempts as f64));
        out.detail("failed_attempts", num(failed as f64));
        out.detail("setups", num(self.setups.len() as f64));
        out.detail("rpcs", num(self.rpc.len() as f64));
        out.detail(
            "fresh_job_ms",
            Value::Array(self.fresh.iter().map(|r| num(r.wall_s * 1e3)).collect()),
        );
        out.detail(
            "best_gflops_per_job",
            Value::Array(gflops.iter().map(|&g| num(g)).collect()),
        );
    }
}

fn telemetry_for(trace: bool) -> Telemetry {
    if trace {
        Telemetry::with_metrics()
    } else {
        Telemetry::disabled()
    }
}

/// The measurer's handle: the run's own when traced, else a
/// metrics-only one, so fault retries and failures are counted in every
/// run. The search itself stays untraced.
fn measurer_telemetry(tel: &Telemetry) -> Telemetry {
    if tel.is_enabled() {
        tel.clone()
    } else {
        Telemetry::with_metrics()
    }
}

// ---------------------------------------------------------------- tune-op

fn op_session(
    seed: u64,
    tel: &Telemetry,
    mtel: &Telemetry,
) -> (TuningSession, Arc<tensor_ir::ComputeDag>, f64) {
    let t0 = Instant::now();
    let (op, shape, batch, target_name) = OP;
    let dag = ansor_workloads::build_case(op, shape, batch).expect("fig6 case exists");
    let target = HardwareTarget::by_name(target_name).expect("target exists");
    let task = SearchTask::new(
        single_task_name(op, shape, batch),
        dag.clone(),
        target.clone(),
    );
    let options = TuningOptions {
        num_measure_trials: OP_TRIALS,
        seed,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(mtel.clone());
    let fingerprint = single_fingerprint(op, shape, batch, target_name, FAULTS, seed);
    let session = TuningSession::new(task, options, measurer, fingerprint);
    (session, dag, t0.elapsed().as_secs_f64())
}

/// Steps a session to its budget, saving a checkpoint after each round.
fn op_run(
    session: &mut TuningSession,
    ckpt: &std::path::Path,
    spans: &mut Spans,
    job: &str,
    mtel: &Telemetry,
    out: &mut Outcome,
) -> Run {
    let (a0, f0) = attempt_counters(mtel);
    let t0 = Instant::now();
    loop {
        let measured = spans.time("step", Some(job), || session.step());
        if measured == 0 {
            break;
        }
        let saved = spans.time("checkpoint_save", Some(job), || {
            session.checkpoint().save(ckpt)
        });
        out.attempted += 1;
        if let Err(e) = saved {
            out.failed += 1;
            out.check_failures
                .push(format!("{job}: checkpoint save: {e}"));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, f1) = attempt_counters(mtel);
    Run {
        wall_s,
        trials: session.trials(),
        rounds: session.rounds(),
        attempts: a1 - a0,
        failed_attempts: f1 - f0,
    }
}

pub fn tune_op(ctx: &Ctx) -> Outcome {
    ansor_runtime::set_threads(1);
    let mut out = Outcome::default();
    let mut lp = Loop::default();
    let ckpt = ctx.scratch.join("tune-op.ckpt");
    let tel = telemetry_for(ctx.trace);
    let mtel = measurer_telemetry(&tel);
    let mut spans = Spans::new(ctx.trace, ctx.origin, 0);

    // One untimed warm-up, then the timed set-ups.
    for i in 0..=SETUP_REPS {
        let (_, _, s) = op_session(ctx.derive(TAG_SETUP, i as u64), &tel, &mtel);
        if i > 0 {
            lp.setups.push(s);
        }
    }
    let probe = (!ctx.trace).then(|| Probe::start(ctx.derive(TAG_PROBE, 0)));
    let before = tel.live_snapshot();
    let loop_start = Instant::now();
    let mut records: Vec<TuningRecordLog> = Vec::new();
    let mut cache_stats = Vec::new();
    let mut task = None;
    for job in 0..ctx.jobs(OP_JOB_S, 1) as u64 {
        let seed = ctx.derive(TAG_SEARCH, job);
        let name = format!("job-{job}");
        let (mut fresh, dag, _) =
            spans.time("setup", Some(&name), || op_session(seed, &tel, &mtel));
        let run = op_run(&mut fresh, &ckpt, &mut spans, &name, &mtel, &mut out);
        let (mut repeat, _, _) = spans.time("setup", Some(&name), || op_session(seed, &tel, &mtel));
        repeat.share_measure_cache(fresh.measurer().result_cache());
        repeat.share_feature_cache(fresh.model().feature_cache());
        let shared_before = repeat.cache_stats();
        let rerun = op_run(&mut repeat, &ckpt, &mut spans, &name, &mtel, &mut out);

        let target = &fresh.task().target;
        out.check(
            log_fingerprint(repeat.log()) == log_fingerprint(fresh.log()),
            || format!("{name}: repeat log differs from the fresh run"),
        );
        match best_record(fresh.log(), &fresh.task().name) {
            Some(best) => {
                out.check(best.seconds == fresh.best_seconds(), || {
                    format!("{name}: best record is not the session's best")
                });
                checks::best_program(&mut out, &name, &dag, target, &best.steps, best.seconds);
            }
            None => out.check(false, || format!("{name}: no valid measurement")),
        }
        lp.best
            .push(vec![(fresh.best_seconds(), dag.flop_count(), 1.0)]);
        if job == 0 {
            records = fresh.log().to_vec();
            task = Some(fresh.task().clone());
        }
        cache_stats.push(fresh.cache_stats());
        cache_stats.push(repeat.cache_stats().since(&shared_before));
        lp.fresh.push(run);
        lp.repeat.push(rerun);
    }
    lp.loop_wall_s = loop_start.elapsed().as_secs_f64();
    if let Some(p) = probe {
        (lp.rpc, lp.rpc_errors) = p.finish();
    }
    lp.finish(&mut out);

    // Traced runs then time the first fresh session untraced, the
    // denominator of `telemetry.overhead_ratio`.
    let untraced_wall = ctx.trace.then(|| {
        let quiet_tel = Telemetry::with_metrics();
        let (mut s, _, _) = op_session(
            ctx.derive(TAG_SEARCH, 0),
            &Telemetry::disabled(),
            &quiet_tel,
        );
        let mut quiet = Spans::new(false, ctx.origin, 0);
        op_run(
            &mut s,
            &ckpt,
            &mut quiet,
            "untraced",
            &quiet_tel,
            &mut Outcome::default(),
        )
        .wall_s
    });

    if ctx.trace {
        let task = task.expect("at least one job ran");
        let after = tel.live_snapshot();
        trace_metrics(
            &mut out,
            &lp,
            &spans,
            &cache_stats,
            &tel,
            before.as_ref().zip(after.as_ref()),
            untraced_wall.expect("traced runs time an untraced twin"),
        );
        let bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
        out.set("checkpoint.bytes", bytes as f64);
        out.set(
            "checkpoint.save_ms",
            median(&spans.durations("checkpoint_save")) * 1e3,
        );
        layers::measure(
            ctx,
            &LayerInputs {
                tasks: vec![(task, records, 1.0)],
                threads: 1,
                checkpoint: None,
            },
            &mut out,
        );
        out.spans = Some(spans.to_json());
    }
    let _ = std::fs::remove_file(&ckpt);
    out
}

// --------------------------------------------------------------- tune-net

fn net_tasks() -> Vec<TuneTask> {
    let (net, target_name) = NET;
    let target = HardwareTarget::by_name(target_name).expect("target exists");
    ansor_workloads::network(net, 1)
        .expect("network exists")
        .into_iter()
        .map(|t| TuneTask {
            task: SearchTask::new(t.name, t.dag, target.clone()),
            weight: t.weight,
            dnn: 0,
        })
        .collect()
}

fn net_scheduler(seed: u64, tel: &Telemetry, mtel: &Telemetry) -> (TaskScheduler, Measurer, f64) {
    let t0 = Instant::now();
    let tasks = net_tasks();
    let target = tasks[0].task.target.clone();
    let mut sched = TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        TuningOptions {
            seed,
            telemetry: tel.clone(),
            ..Default::default()
        },
        TaskSchedulerConfig {
            seed,
            ..Default::default()
        },
    );
    sched.set_planned_units(NET_UNITS);
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(mtel.clone());
    (sched, measurer, t0.elapsed().as_secs_f64())
}

fn net_run(
    sched: &mut TaskScheduler,
    measurer: &mut Measurer,
    spans: &mut Spans,
    job: &str,
    mtel: &Telemetry,
) -> Run {
    let (a0, f0) = attempt_counters(mtel);
    let t0 = Instant::now();
    let mut rounds = 0;
    for _ in 0..NET_UNITS {
        if spans
            .time("step", Some(job), || sched.step(measurer))
            .is_none()
        {
            break;
        }
        rounds += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, f1) = attempt_counters(mtel);
    Run {
        wall_s,
        trials: sched.total_trials(),
        rounds,
        attempts: a1 - a0,
        failed_attempts: f1 - f0,
    }
}

/// Cache counters of a scheduler's shared model and its measurer.
fn net_cache_stats(sched: &TaskScheduler, measurer: &Measurer) -> SessionCacheStats {
    let (measure_hits, measure_misses) = measurer.cache_stats();
    let (score_hits, score_misses) = sched.model.cache_stats();
    let (feature_hits, feature_misses) = sched.model.feature_cache_stats();
    SessionCacheStats {
        measure_hits,
        measure_misses,
        score_hits,
        score_misses,
        feature_hits,
        feature_misses,
    }
}

/// Per-task logs of a finished scheduler run (read from its checkpoint,
/// the only public view of the policies' logs).
fn net_logs(sched: &TaskScheduler) -> Vec<Vec<TuningRecordLog>> {
    sched
        .checkpoint()
        .policies
        .into_iter()
        .map(|p| p.log)
        .collect()
}

pub fn tune_net(ctx: &Ctx) -> Outcome {
    ansor_runtime::set_threads(2);
    let mut out = Outcome::default();
    let mut lp = Loop::default();
    let tel = telemetry_for(ctx.trace);
    let mtel = measurer_telemetry(&tel);
    let mut spans = Spans::new(ctx.trace, ctx.origin, 0);

    for i in 0..=SETUP_REPS {
        let (_, _, s) = net_scheduler(ctx.derive(TAG_SETUP, i as u64), &tel, &mtel);
        if i > 0 {
            lp.setups.push(s);
        }
    }
    let probe = (!ctx.trace).then(|| Probe::start(ctx.derive(TAG_PROBE, 0)));
    let before = tel.live_snapshot();
    let loop_start = Instant::now();
    let mut first: Option<(TaskScheduler, Vec<Vec<TuningRecordLog>>)> = None;
    let mut cache_stats = Vec::new();
    for job in 0..ctx.jobs(NET_JOB_S, 1) as u64 {
        let seed = ctx.derive(TAG_SEARCH, job);
        let name = format!("job-{job}");
        let (mut fresh, mut fm, _) =
            spans.time("setup", Some(&name), || net_scheduler(seed, &tel, &mtel));
        let run = net_run(&mut fresh, &mut fm, &mut spans, &name, &mtel);
        let (mut repeat, mut rm, _) =
            spans.time("setup", Some(&name), || net_scheduler(seed, &tel, &mtel));
        rm.set_result_cache(fm.result_cache());
        repeat.model.set_feature_cache(fresh.model.feature_cache());
        let shared_before = net_cache_stats(&repeat, &rm);
        let rerun = net_run(&mut repeat, &mut rm, &mut spans, &name, &mtel);

        let same = fresh.dnn_latencies()[0].to_bits() == repeat.dnn_latencies()[0].to_bits()
            && (0..fresh.tasks.len()).all(|i| {
                fresh.best_individual(i).map(|b| b.signature())
                    == repeat.best_individual(i).map(|b| b.signature())
            });
        out.check(same, || {
            format!("{name}: repeat differs from the fresh run")
        });
        let best = fresh.best_latencies();
        for (i, t) in fresh.tasks.iter().enumerate() {
            match fresh.best_individual(i) {
                Some(b) => checks::best_program(
                    &mut out,
                    &format!("{name}/{}", t.task.name),
                    &t.task.dag,
                    &t.task.target,
                    &b.state.steps,
                    best[i],
                ),
                None => out.check(false, || {
                    format!("{name}/{}: no valid program", t.task.name)
                }),
            }
        }
        cache_stats.push(net_cache_stats(&fresh, &fm));
        cache_stats.push(net_cache_stats(&repeat, &rm).since(&shared_before));
        lp.best.push(
            fresh
                .tasks
                .iter()
                .zip(&best)
                .map(|(t, &s)| (s, t.task.dag.flop_count(), t.weight))
                .collect(),
        );
        if job == 0 {
            let logs = net_logs(&fresh);
            first = Some((fresh, logs));
        }
        lp.fresh.push(run);
        lp.repeat.push(rerun);
    }
    lp.loop_wall_s = loop_start.elapsed().as_secs_f64();
    if let Some(p) = probe {
        (lp.rpc, lp.rpc_errors) = p.finish();
    }
    lp.finish(&mut out);
    let (first, logs) = first.expect("at least one job ran");
    let untraced_wall = ctx.trace.then(|| {
        let quiet_tel = Telemetry::with_metrics();
        let (mut s, mut m, _) = net_scheduler(
            ctx.derive(TAG_SEARCH, 0),
            &Telemetry::disabled(),
            &quiet_tel,
        );
        let mut quiet = Spans::new(false, ctx.origin, 0);
        net_run(&mut s, &mut m, &mut quiet, "untraced", &quiet_tel).wall_s
    });
    out.detail("net_latency_ms_dnn0", num(first.dnn_latencies()[0] * 1e3));

    if ctx.trace {
        let after = tel.live_snapshot();
        trace_metrics(
            &mut out,
            &lp,
            &spans,
            &cache_stats,
            &tel,
            before.as_ref().zip(after.as_ref()),
            untraced_wall.expect("traced runs time an untraced twin"),
        );
        out.set(
            "task_scheduler.unit_ms_p50",
            median(&spans.durations("step")) * 1e3,
        );
        let ck = TuneCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: format!("network:{}:b1:target={}:faults={FAULTS}", NET.0, NET.1),
            measurer_trials: first.total_trials(),
            sim_fault_nanos: 0,
            records_flushed: 0,
            single: None,
            scheduler: Some(first.checkpoint()),
        };
        let tasks = first
            .tasks
            .iter()
            .zip(logs)
            .map(|(t, log)| (t.task.clone(), log, t.weight))
            .collect();
        layers::measure(
            ctx,
            &LayerInputs {
                tasks,
                threads: 2,
                checkpoint: Some(ck),
            },
            &mut out,
        );
        out.spans = Some(spans.to_json());
    }
    out
}

/// Per-layer metrics read from a traced tuning loop: round times, cache
/// ratios, counts and phase shares.
fn trace_metrics(
    out: &mut Outcome,
    lp: &Loop,
    spans: &Spans,
    cache_stats: &[SessionCacheStats],
    tel: &Telemetry,
    snaps: Option<(&telemetry::Snapshot, &telemetry::Snapshot)>,
    untraced_wall: f64,
) {
    out.set(
        "session.round_ms_p50",
        median(&spans.durations("step")) * 1e3,
    );
    let sum =
        |f: fn(&SessionCacheStats) -> u64| -> f64 { cache_stats.iter().map(f).sum::<u64>() as f64 };
    out.set(
        "features.cache_hit_ratio",
        ratio(
            sum(|c| c.feature_hits),
            sum(|c| c.feature_hits + c.feature_misses),
        ),
    );
    out.set(
        "cost_model.score_hit_ratio",
        ratio(
            sum(|c| c.score_hits),
            sum(|c| c.score_hits + c.score_misses),
        ),
    );
    out.set(
        "hwsim.cache_hit_ratio",
        ratio(
            sum(|c| c.measure_hits),
            sum(|c| c.measure_hits + c.measure_misses),
        ),
    );
    let runs = || lp.fresh.iter().chain(&lp.repeat);
    let trials: u64 = runs().map(|r| r.trials).sum();
    out.set("count.trials", trials as f64);
    out.set("count.rounds", runs().map(|r| r.rounds).sum::<u64>() as f64);
    out.set(
        "count.model_predictions",
        tel.counter_value("model/predictions") as f64,
    );
    out.set(
        "hwsim.failed_ratio",
        ratio(
            runs().map(|r| r.failed_attempts).sum::<u64>() as f64,
            runs().map(|r| r.attempts).sum::<u64>() as f64,
        ),
    );
    out.set(
        "telemetry.overhead_ratio",
        lp.fresh[0].wall_s / untraced_wall,
    );

    // Shares of the loop's wall time: benchmark `setup`, `step` and
    // `checkpoint_save` spans are the roots; sketch generation nests
    // under `setup`, the program's other phases under `step`.
    let wall = lp.loop_wall_s;
    let mut shares = Shares::new(wall);
    let phases = snaps.map(|(b, a)| phase_seconds(b, a)).unwrap_or_default();
    let under = shares.add_registry(&phases, 1.0, |name| {
        if name == "sketch_generation" {
            "setup"
        } else {
            "step"
        }
    });
    for root in ["setup", "step"] {
        let incl = spans.root_total(root);
        let nested = under.get(root).copied().unwrap_or(0.0);
        shares.add(root, incl, incl - nested, true);
    }
    let ck = spans.root_total("checkpoint_save");
    shares.add("checkpoint_save", ck, ck, true);
    for (name, v) in shares.metrics() {
        out.set(&name, v);
    }
    out.detail(
        "phase_seconds",
        obj(phases.iter().map(|(k, v)| (k.as_str(), num(*v))).collect()),
    );
}
