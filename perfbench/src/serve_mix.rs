//! The `serve-mix` workload: an in-process `ansor-serve` daemon on real
//! loopback TCP (2 workers, 1 runtime thread each) with a file-backed
//! warm store and journal, pre-filled during set-up through
//! `WarmStore::absorb`/`save`.
//!
//! Two client threads, one connection each, run a closed loop — submit,
//! poll `status`, fetch `result` — over seeded job lists that alternate
//! *fresh* specs (new seeds: they measure, absorb new records and grow the
//! store file) with *repeat* specs (an earlier fresh spec of the same
//! client, served from the measurement and featurization caches).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ansor_core::{
    best_record, log_fingerprint, SearchTask, TuneCheckpoint, TuningOptions, TuningRecordLog,
    TuningSession,
};
use ansor_serve::{Client, JobResult, JobSpec, ServeConfig, Server, WarmStore};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use serde_json::Value;
use telemetry::Telemetry;

use crate::layers::{self, LayerInputs};
use crate::report::{num, Outcome};
use crate::spans::{Shares, Spans};
use crate::stats::{geomean, median, ratio, tail};
use crate::tune::FAULTS;
use crate::{checks, peak_heap_mb, Ctx};

/// Small fig6 classes whose best programs the interpreter checks in
/// seconds: (operator, shape index).
pub const CLASSES: [(&str, usize); 4] = [("C1D", 0), ("DEP", 2), ("CAP", 2), ("NRM", 2)];
pub const TARGET: &str = "intel";
/// Trials per served job and per pre-fill session.
pub const JOB_TRIALS: usize = 64;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Jobs each client runs at least: its first fresh job of every class
/// and their repeats.
const MIN_JOBS_PER_CLIENT: usize = 2 * CLASSES.len();
/// Nominal seconds per job of one client on a 2-core box; `--seconds`
/// divided by it gives each client's job count.
const CLIENT_JOB_S: f64 = 0.5;
const POLL: Duration = Duration::from_millis(20);
const SETUP_REPS: usize = 7;
const TAG_PREFILL: u64 = 11;
const TAG_JOBS: u64 = 12;

/// The spec of a served job.
pub fn spec(class: usize, seed: u64) -> JobSpec {
    let (op, shape) = CLASSES[class];
    JobSpec {
        op: op.into(),
        shape,
        batch: 1,
        target: TARGET.into(),
        trials: JOB_TRIALS,
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

/// Tunes `spec` cold in this process, exactly as the daemon runs a job.
pub fn cold_session(spec: &JobSpec, tel: &Telemetry) -> TuningSession {
    let dag = ansor_workloads::build_case(&spec.op, spec.shape, spec.batch).expect("class exists");
    let target = HardwareTarget::by_name(&spec.target).expect("target exists");
    let task = SearchTask::new(spec.task_name(), dag, target.clone());
    let options = TuningOptions {
        num_measure_trials: spec.trials,
        seed: spec.seed,
        telemetry: tel.clone(),
        ..Default::default()
    };
    let mut measurer = Measurer::new(target);
    measurer.set_telemetry(tel.clone());
    TuningSession::new(task, options, measurer, spec.fingerprint(FAULTS))
}

/// One client's seeded job list: fresh specs cycle through the classes
/// in a seeded order, each followed by a repeat of a seeded earlier
/// fresh spec of the same client.
fn job_list(ctx: &Ctx, client: usize, len: usize) -> Vec<(bool, JobSpec)> {
    let mut rng = StdRng::seed_from_u64(ctx.derive(TAG_JOBS, client as u64));
    let mut order: Vec<usize> = (0..CLASSES.len()).collect();
    let mut fresh: Vec<JobSpec> = Vec::new();
    let mut out = Vec::new();
    while out.len() < len {
        if fresh.len().is_multiple_of(CLASSES.len()) {
            order.shuffle(&mut rng);
        }
        let class = order[fresh.len() % CLASSES.len()];
        let s = spec(class, rng.gen());
        fresh.push(s.clone());
        out.push((true, s));
        // The first round repeats each fresh job at once, so every class
        // has a repeat among the guaranteed jobs.
        let pick = if fresh.len() <= CLASSES.len() {
            fresh.len() - 1
        } else {
            rng.gen_range(0..fresh.len())
        };
        out.push((false, fresh[pick].clone()));
    }
    out
}

/// One completed (or failed) job as the client saw it.
struct Job {
    client: usize,
    fresh: bool,
    spec: JobSpec,
    latency_ms: f64,
    rounds: u64,
    result: Option<JobResult>,
}

/// What one client thread brings back.
struct ClientRun {
    jobs: Vec<Job>,
    rpc_ms: Vec<f64>,
    rpc_errors: u64,
    spans: Spans,
}

fn client_loop(ctx: &Ctx, addr: &str, client: usize, n_jobs: usize, trace: bool) -> ClientRun {
    let mut run = ClientRun {
        jobs: Vec::new(),
        rpc_ms: Vec::new(),
        rpc_errors: 0,
        spans: Spans::new(trace, ctx.origin, client + 1),
    };
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            run.rpc_errors += 1;
            return run;
        }
    };
    let list = job_list(ctx, client, n_jobs);
    for (fresh, spec) in list {
        let t0 = Instant::now();
        let rpc = |run: &mut ClientRun, job: Option<&str>, f: &mut dyn FnMut() -> bool| {
            let id = run.spans.begin("rpc", job);
            let t = Instant::now();
            let ok = f();
            run.rpc_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.spans.end(id);
            if !ok {
                run.rpc_errors += 1;
            }
            ok
        };
        let mut id = None;
        rpc(&mut run, None, &mut || {
            id = conn.submit(spec.clone()).ok();
            id.is_some()
        });
        let mut job = Job {
            client,
            fresh,
            spec,
            latency_ms: 0.0,
            rounds: 0,
            result: None,
        };
        if let Some(id) = id {
            loop {
                run.spans
                    .time("poll_wait", Some(&id), || std::thread::sleep(POLL));
                let mut status = None;
                rpc(&mut run, Some(&id), &mut || {
                    status = conn.status(&id).ok();
                    status.is_some()
                });
                let Some(status) = status else { break };
                if matches!(status.state.as_str(), "done" | "failed" | "cancelled") {
                    job.rounds = status.rounds;
                    break;
                }
            }
            let mut result = None;
            rpc(&mut run, Some(&id), &mut || {
                result = conn.result(&id).ok();
                result.is_some()
            });
            job.result = result;
        }
        job.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        run.jobs.push(job);
    }
    run
}

/// Records of one seeded pre-fill session per class.
fn prefill_logs(ctx: &Ctx) -> Vec<(JobSpec, Vec<TuningRecordLog>)> {
    (0..CLASSES.len())
        .map(|c| {
            let s = spec(c, ctx.derive(TAG_PREFILL, c as u64));
            let mut session = cold_session(&s, &Telemetry::disabled());
            session.run(|_| true);
            (s, session.log().to_vec())
        })
        .collect()
}

/// Fills a fresh store file and starts a daemon on it.
fn set_up(
    dir: &Path,
    prefill: &[(JobSpec, Vec<TuningRecordLog>)],
    tel: &Telemetry,
    spans: &mut Spans,
) -> Server {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory is writable");
    let store_path = dir.join("store.json");
    {
        let (store, _) = WarmStore::open(&store_path).expect("empty store opens");
        spans.time("store_absorb", None, || {
            for (s, log) in prefill {
                store.absorb(s, FAULTS, log);
            }
        });
        spans
            .time("store_save", None, || store.save())
            .expect("store saves to the scratch directory");
    }
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        queue_cap: 64,
        store_path: Some(store_path.display().to_string()),
        faults: FAULTS.into(),
        threads: 1,
        store_budget: None,
        telemetry: tel.clone(),
        trace_dir: None,
        journal_path: None,
    })
    .expect("daemon starts on a loopback port")
}

fn stop(server: Server) {
    server.shutdown(false);
    server.wait();
}

/// Everything one measured loop produced.
struct Pass {
    setup_s: Vec<f64>,
    wall_s: f64,
    setup_wall_s: f64,
    clients: Vec<ClientRun>,
    store_bytes: f64,
    spans: Spans,
}

fn pass(
    ctx: &Ctx,
    prefill: &[(JobSpec, Vec<TuningRecordLog>)],
    dir: &Path,
    n_jobs: usize,
    trace: bool,
) -> Pass {
    let tel = if trace {
        Telemetry::with_metrics()
    } else {
        Telemetry::disabled()
    };
    let mut spans = Spans::new(trace, ctx.origin, 0);
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut setup_wall_s = 0.0;
    for rep in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            stop(s);
        }
        let last = rep + 1 == SETUP_REPS;
        let mut quiet = Spans::new(false, ctx.origin, 0);
        let sp = if last { &mut spans } else { &mut quiet };
        let t0 = Instant::now();
        let id = sp.begin("setup", None);
        server = Some(set_up(dir, prefill, &tel, sp));
        sp.end(id);
        setup_wall_s = t0.elapsed().as_secs_f64();
        setup_s.push(setup_wall_s);
    }
    let server = server.expect("set up at least once");
    let addr = server.local_addr().to_string();
    let start = Instant::now();
    let clients: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.as_str();
                scope.spawn(move || client_loop(ctx, addr, c, n_jobs, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    stop(server);
    let store_bytes = std::fs::metadata(dir.join("store.json")).map_or(0.0, |m| m.len() as f64);
    Pass {
        setup_s,
        wall_s,
        setup_wall_s,
        clients,
        store_bytes,
        spans,
    }
}

pub fn serve_mix(ctx: &Ctx) -> Outcome {
    ansor_runtime::set_threads(1);
    let mut out = Outcome::default();
    let prefill = prefill_logs(ctx);
    let dir = ctx.scratch.join("serve");

    let p = pass(
        ctx,
        &prefill,
        &dir,
        ctx.jobs(CLIENT_JOB_S, MIN_JOBS_PER_CLIENT),
        ctx.trace,
    );
    // Traced runs then make a short untraced pass over the guaranteed
    // jobs, the denominator of `telemetry.overhead_ratio`.
    let untraced = ctx
        .trace
        .then(|| pass(ctx, &prefill, &dir, MIN_JOBS_PER_CLIENT, false));
    let jobs: Vec<&Job> = p.clients.iter().flat_map(|c| &c.jobs).collect();
    let rpc_ms: Vec<f64> = p
        .clients
        .iter()
        .flat_map(|c| c.rpc_ms.iter().copied())
        .collect();
    let rpc_errors: u64 = p.clients.iter().map(|c| c.rpc_errors).sum();
    out.attempted += rpc_ms.len() as u64 + jobs.len() as u64;
    out.failed += rpc_errors;

    // Checks: every job done, every repeat equal to its fresh job.
    let mut fresh_by_seed: BTreeMap<(String, u64), &JobResult> = BTreeMap::new();
    let mut results: Vec<(&Job, &JobResult)> = Vec::new();
    for job in &jobs {
        match &job.result {
            Some(r) if r.state == "done" => results.push((job, r)),
            _ => {
                out.failed += 1;
                out.check_failures.push(format!(
                    "client {}: {} job {:?} did not finish",
                    job.client,
                    if job.fresh { "fresh" } else { "repeat" },
                    job.spec.task_name()
                ));
            }
        }
    }
    for (job, r) in &results {
        if job.fresh {
            fresh_by_seed.insert((job.spec.op.clone(), job.spec.seed), r);
        }
    }
    for (job, r) in results.iter().filter(|(j, _)| !j.fresh) {
        let key = (job.spec.op.clone(), job.spec.seed);
        let same = fresh_by_seed.get(&key).is_some_and(|f| {
            f.log_fingerprint == r.log_fingerprint && f.best_signature == r.best_signature
        });
        out.check(same, || {
            format!(
                "repeat of {} seed {} differs from its fresh job",
                job.spec.op, job.spec.seed
            )
        });
    }

    // Reference jobs: client 0's first fresh job of each class. Each must
    // equal a cold in-process session of the same spec.
    let check_tel = if ctx.trace {
        Telemetry::with_metrics()
    } else {
        Telemetry::disabled()
    };
    let mut check_spans = Spans::new(ctx.trace, ctx.origin, 0);
    let mut cold_logs = Vec::new();
    let mut checkpoint: Option<TuneCheckpoint> = None;
    for (op, _) in CLASSES {
        let Some((job, r)) = results
            .iter()
            .find(|(j, _)| j.client == 0 && j.fresh && j.spec.op == op)
        else {
            out.check(false, || format!("no finished fresh job of {op}"));
            continue;
        };
        let mut cold = cold_session(&job.spec, &check_tel);
        while check_spans.time("step", None, || cold.step()) > 0 {}
        out.check(log_fingerprint(cold.log()) == r.log_fingerprint, || {
            format!(
                "served {} differs from a cold session",
                job.spec.task_name()
            )
        });
        match (best_record(cold.log(), &cold.task().name), r.best_seconds) {
            (Some(best), Some(secs)) if best.seconds == secs => checks::best_program(
                &mut out,
                &job.spec.task_name(),
                &cold.task().dag,
                &cold.task().target,
                &best.steps,
                secs,
            ),
            _ => out.check(false, || {
                format!(
                    "{}: best program disagrees with the cold run",
                    job.spec.task_name()
                )
            }),
        }
        if checkpoint.is_none() {
            checkpoint = Some(cold.checkpoint());
        }
        cold_logs.push((cold.task().clone(), cold.log().to_vec(), 1.0));
    }

    // End-to-end metrics.
    let fresh_results = || results.iter().filter(|(j, _)| j.fresh).map(|(_, r)| r);
    let fresh_run_ms: f64 = fresh_results().map(|r| r.wall_ms).sum();
    let fresh_trials: u64 = fresh_results().map(|r| r.trials).sum();
    let trials: u64 = results.iter().map(|(_, r)| r.trials).sum();
    // Measurement attempts: trials plus fault retries; failed attempts:
    // retried faults plus failed trials.
    let retries: u64 = results.iter().map(|(_, r)| r.counters.fault_retries).sum();
    let failed_trials: u64 = results.iter().map(|(_, r)| r.counters.trials_failed).sum();
    let failed_attempts = failed_trials + retries;
    out.attempted += trials + retries;
    out.set("setup_s", median(&p.setup_s));
    out.set("trial_ms", fresh_run_ms / fresh_trials.max(1) as f64);
    // Search quality over every fresh job: geometric-mean GFLOP/s, and
    // the summed median best latency of the classes.
    let gflops: Vec<f64> = fresh_results().filter_map(|r| r.best_gflops).collect();
    if !gflops.is_empty() {
        out.set("best_gflops", geomean(&gflops));
    }
    let mut class_ms = Vec::new();
    for (op, _) in CLASSES {
        let ms: Vec<f64> = results
            .iter()
            .filter(|(j, _)| j.fresh && j.spec.op == op)
            .filter_map(|(_, r)| r.best_seconds.map(|s| s * 1e3))
            .collect();
        if !ms.is_empty() {
            class_ms.push(median(&ms));
        }
    }
    if class_ms.len() == CLASSES.len() {
        out.set("net_latency_ms", class_ms.iter().sum());
    }
    out.set("peak_heap_mb", peak_heap_mb());
    out.set("jobs_per_s", results.len() as f64 / p.wall_s);
    let lat = |fresh: Option<bool>| -> Vec<f64> {
        results
            .iter()
            .filter(|(j, _)| fresh.is_none_or(|f| j.fresh == f))
            .map(|(j, _)| j.latency_ms)
            .collect()
    };
    out.set("fresh_job_ms_p50", median(&lat(Some(true))));
    out.set("repeat_job_ms_p50", median(&lat(Some(false))));
    out.set_tail("job_ms_tail", tail(&lat(None)));
    out.set("rpc_ms_p50", median(&rpc_ms));
    out.set_tail("rpc_ms_tail", tail(&rpc_ms));
    out.set(
        "fail_share",
        ratio(
            (failed_attempts + out.failed) as f64,
            // Status polls depend on speed: a job counts once, with its
            // submit and result calls, whatever its poll count.
            (trials + retries + 3 * jobs.len() as u64 + out.checks) as f64,
        ),
    );
    out.detail("jobs", num(jobs.len() as f64));
    out.detail("fresh_jobs", num(lat(Some(true)).len() as f64));
    out.detail("repeat_jobs", num(lat(Some(false)).len() as f64));
    out.detail("rpcs", num(rpc_ms.len() as f64));
    out.detail("trials", num(trials as f64));
    out.detail("measurement_attempts", num((trials + retries) as f64));
    out.detail("failed_attempts", num(failed_attempts as f64));
    out.detail("setups", num(p.setup_s.len() as f64));

    if ctx.trace {
        let sum = |f: fn(&JobResult) -> u64| results.iter().map(|(_, r)| f(r)).sum::<u64>() as f64;
        out.set(
            "features.cache_hit_ratio",
            ratio(
                sum(|r| r.warm.feature_hits),
                sum(|r| r.warm.feature_hits + r.warm.feature_misses),
            ),
        );
        out.set(
            "cost_model.score_hit_ratio",
            ratio(
                sum(|r| r.warm.score_hits),
                sum(|r| r.warm.score_hits + r.warm.score_misses),
            ),
        );
        out.set(
            "hwsim.cache_hit_ratio",
            ratio(
                sum(|r| r.warm.measure_hits),
                sum(|r| r.warm.measure_hits + r.warm.measure_misses),
            ),
        );
        out.set(
            "hwsim.failed_ratio",
            ratio(failed_attempts as f64, (trials + retries) as f64),
        );
        out.set("count.trials", trials as f64);
        out.set(
            "count.rounds",
            jobs.iter().map(|j| j.rounds).sum::<u64>() as f64,
        );
        out.set(
            "count.model_predictions",
            check_tel.counter_value("model/predictions") as f64,
        );
        out.set(
            "session.round_ms_p50",
            median(&check_spans.durations("step")) * 1e3,
        );
        let q: Vec<f64> = results.iter().map(|(_, r)| r.queue_wait_ms).collect();
        let run: Vec<f64> = results.iter().map(|(_, r)| r.wall_ms).collect();
        let outside: Vec<f64> = results
            .iter()
            .map(|(j, r)| j.latency_ms - r.queue_wait_ms - r.wall_ms)
            .collect();
        out.set("server.queue_wait_ms_p50", median(&q));
        out.set("server.run_ms_p50", median(&run));
        out.set("server.outside_ms_p50", median(&outside));
        out.set(
            "store.absorb_ms",
            median(&p.spans.durations("store_absorb")) * 1e3,
        );
        out.set(
            "store.save_ms",
            median(&p.spans.durations("store_save")) * 1e3,
        );
        out.set("store.bytes", p.store_bytes);
        // Client latency of the same guaranteed jobs, traced over untraced.
        let u = untraced.expect("traced runs make an untraced pass");
        let first_jobs = |clients: &[ClientRun]| -> f64 {
            clients
                .iter()
                .flat_map(|c| c.jobs.iter().take(MIN_JOBS_PER_CLIENT))
                .map(|j| j.latency_ms)
                .sum()
        };
        out.set(
            "telemetry.overhead_ratio",
            first_jobs(&p.clients) / first_jobs(&u.clients),
        );
        shares(&mut out, &p, &results);
        layers::measure(
            ctx,
            &LayerInputs {
                tasks: cold_logs,
                threads: 1,
                checkpoint,
            },
            &mut out,
        );
        let mut all = vec![p.spans.to_json()];
        all.extend(p.clients.iter().map(|c| c.spans.to_json()));
        out.spans = Some(Value::Array(
            all.into_iter()
                .flat_map(|v| match v {
                    Value::Array(a) => a,
                    other => vec![other],
                })
                .collect(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Shares of the traced pass's wall time (set-up plus loop). Client
/// spans are averaged over the clients; the daemon's job phases are
/// shares of worker time and run concurrently with the clients, so they
/// are reported but count towards no root.
fn shares(out: &mut Outcome, p: &Pass, results: &[(&Job, &JobResult)]) {
    let wall = p.setup_wall_s + p.wall_s;
    let mut s = Shares::new(wall);
    // The store spans all nest in the traced pass's last set-up.
    let store: f64 = ["store_absorb", "store_save"]
        .iter()
        .flat_map(|n| p.spans.durations(n))
        .sum();
    let setup = p.spans.root_total("setup");
    s.add("setup", setup, setup - store, true);
    s.add("store", store, store, false);
    let k = CLIENTS as f64;
    for c in &p.clients {
        let rpc: f64 = c.spans.durations("rpc").iter().sum::<f64>() / k;
        let wait: f64 = c.spans.durations("poll_wait").iter().sum::<f64>() / k;
        s.add("rpc", rpc, rpc, true);
        s.add("poll_wait", wait, wait, true);
    }
    let mut phases: BTreeMap<String, f64> = BTreeMap::new();
    for (_, r) in results {
        for (name, secs) in &r.counters.phase_seconds {
            *phases.entry(name.clone()).or_default() += secs;
        }
    }
    s.add_registry(&phases, 1.0 / WORKERS as f64, |_| "step");
    for (name, v) in s.metrics() {
        out.set(&name, v);
    }
    out.detail(
        "job_phase_seconds",
        Value::Object(phases.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
    );
}

/// A short served-job probe for workloads without a daemon of their own:
/// three sequential jobs of the first class on an in-memory daemon.
/// Sets `server.queue_wait_ms_p50`, `server.run_ms_p50` and
/// `server.outside_ms_p50`.
pub fn server_probe(ctx: &Ctx, out: &mut Outcome) {
    let server = Server::start(ServeConfig {
        workers: 1,
        threads: 1,
        ..Default::default()
    })
    .expect("daemon starts on a loopback port");
    let addr = server.local_addr().to_string();
    let mut conn = Client::connect(&addr).expect("client connects to the daemon");
    let (mut q, mut run, mut outside) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..3 {
        let t0 = Instant::now();
        let id = conn
            .submit(spec(0, ctx.derive(TAG_JOBS, 100 + i)))
            .expect("probe job is accepted");
        let r = conn.wait(&id).expect("probe job finishes");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        q.push(r.queue_wait_ms);
        run.push(r.wall_ms);
        outside.push(ms - r.queue_wait_ms - r.wall_ms);
    }
    drop(conn);
    stop(server);
    out.set("server.queue_wait_ms_p50", median(&q));
    out.set("server.run_ms_p50", median(&run));
    out.set("server.outside_ms_p50", median(&outside));
}
