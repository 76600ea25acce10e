//! Per-layer micro-timings of a traced run.
//!
//! Every timing runs on fixed inputs taken from the workload's own run:
//! its tasks and the tuning records its first job produced. Metrics a
//! workload already measured on its live path (round times, checkpoint
//! and store costs, server times) are left as the workload set them.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use ansor_core::annotate::{annotate_state, gpu_limits_ok, instantiate_steps};
use ansor_core::{
    evolutionary_search_with_stats, generate_sketches, produce_generation, sample_program,
    AnnotationConfig, CostModel, EvolutionConfig, EvolutionScratch, Individual, LearnedCostModel,
    Objective, SearchTask, TaskScheduler, TaskSchedulerConfig, TuneCheckpoint, TuneTask,
    TuningOptions, TuningRecordLog,
};
use ansor_serve::{JobJournal, JobResult, JobSpec, JournalEvent, Response, WarmStore};
use hwsim::Measurer;
use rand::prelude::*;
use tensor_ir::{lower, State};

use crate::report::Outcome;
use crate::stats::median;
use crate::Ctx;

/// Records replayed into states for the per-item timings.
const MAX_STATES: usize = 256;
/// Timing repetitions; the median repetition is reported.
const REPS: usize = 3;
/// Records per cost-model update, as one tuning round measures.
const UPDATE_BATCH: usize = 64;
/// Population of the evolution timings.
const POPULATION: usize = 64;

/// The fixed inputs of one workload.
pub struct LayerInputs {
    /// Tasks with the records tuned for them and their weights.
    pub tasks: Vec<(SearchTask, Vec<TuningRecordLog>, f64)>,
    /// The workload's runtime thread count.
    pub threads: usize,
    /// A checkpoint of the workload's own run, to time saving it; `None`
    /// when the workload timed its own saves.
    pub checkpoint: Option<TuneCheckpoint>,
}

/// Median over [`REPS`] of `f`'s seconds divided by `items`, in µs.
fn per_item_us(items: usize, mut f: impl FnMut()) -> f64 {
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        f();
        reps.push(t0.elapsed().as_secs_f64() * 1e6 / items.max(1) as f64);
    }
    median(&reps)
}

pub fn measure(ctx: &Ctx, inp: &LayerInputs, out: &mut Outcome) {
    ansor_runtime::set_threads(inp.threads);
    let mut rng = StdRng::seed_from_u64(ctx.derive(0x1A7E, 0));

    // Records → (task index, state, record) over every task, evenly.
    let per_task = MAX_STATES / inp.tasks.len().max(1);
    let picked: Vec<(usize, &TuningRecordLog)> = inp
        .tasks
        .iter()
        .enumerate()
        .flat_map(|(i, (_, log, _))| log.iter().take(per_task).map(move |r| (i, r)))
        .collect();
    let replay = || -> Vec<(usize, State, &TuningRecordLog)> {
        picked
            .iter()
            .filter_map(|&(i, r)| Some((i, r.replay(inp.tasks[i].0.dag.clone()).ok()?, r)))
            .collect()
    };
    out.set(
        "tensor_ir.replay_us",
        per_item_us(picked.len(), || {
            black_box(replay());
        }),
    );
    let states = replay();
    let n = states.len();
    out.set(
        "tensor_ir.clone_us",
        per_item_us(n, || {
            for (_, s, _) in &states {
                black_box(s.clone());
            }
        }),
    );
    out.set(
        "tensor_ir.signature_us",
        per_item_us(n, || {
            for (_, s, _) in &states {
                black_box(s.signature());
            }
        }),
    );
    out.set(
        "tensor_ir.lower_us",
        per_item_us(n, || {
            for (_, s, _) in &states {
                let _ = black_box(lower(s));
            }
        }),
    );
    let programs: Vec<_> = states
        .iter()
        .filter_map(|(_, s, _)| lower(s).ok())
        .collect();
    out.set(
        "features.extract_us",
        per_item_us(programs.len(), || {
            for p in &programs {
                black_box(ansor_features::extract_program_matrix(p));
            }
        }),
    );
    out.set(
        "hwsim.measure_us",
        per_item_us(n, || {
            let mut measurers: Vec<Measurer> = inp
                .tasks
                .iter()
                .map(|(t, _, _)| Measurer::new(t.target.clone()))
                .collect();
            for (i, s, _) in &states {
                black_box(measurers[*i].measure(s));
            }
        }),
    );

    // Cost model: feed the records in round-sized batches, as tuning does.
    let tel = telemetry::Telemetry::with_metrics();
    let mut model = LearnedCostModel::new();
    model.set_telemetry(tel.clone());
    let mut update_ms = Vec::new();
    for (ti, (task, _, _)) in inp.tasks.iter().enumerate() {
        let mine: Vec<&(usize, State, &TuningRecordLog)> =
            states.iter().filter(|(i, _, _)| *i == ti).collect();
        for chunk in mine.chunks(UPDATE_BATCH) {
            let batch: Vec<State> = chunk.iter().map(|(_, s, _)| s.clone()).collect();
            let secs: Vec<f64> = chunk.iter().map(|(_, _, r)| r.seconds).collect();
            let t0 = Instant::now();
            model.update(task, &batch, &secs);
            update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    out.set("cost_model.update_ms", median(&update_ms));
    let snap = tel.snapshot().expect("metrics telemetry");
    let train = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.ends_with("/gbdt_train"))
        .fold((0.0, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
    out.set("gbdt.train_ms", train.0 * 1e3 / train.1.max(1) as f64);
    // Features of the training states are cached and the retrain cleared
    // the score cache, so this times the GBDT itself.
    let task0 = &inp.tasks[0].0;
    let refs: Vec<&State> = states
        .iter()
        .filter(|(i, _, _)| *i == 0)
        .map(|(_, s, _)| s)
        .collect();
    let t0 = Instant::now();
    black_box(model.predict_refs(task0, &refs));
    out.set(
        "gbdt.predict_us",
        t0.elapsed().as_secs_f64() * 1e6 / refs.len().max(1) as f64,
    );

    // Sketches and annotation.
    let mut sketch_us = Vec::new();
    let mut attempts = 0usize;
    let mut valid = 0usize;
    let mut sample_s = 0.0;
    let cfg = AnnotationConfig::default();
    for (task, _, _) in &inp.tasks {
        let t0 = Instant::now();
        let sketches = black_box(generate_sketches(task));
        sketch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        for a in 0..64 {
            let sk = &sketches[a % sketches.len()];
            let steps = instantiate_steps(sk, task, &cfg, &mut rng);
            let ok = State::replay(task.dag.clone(), &steps).is_ok_and(|mut s| {
                annotate_state(&mut s, task, &cfg, &mut rng).is_ok()
                    && gpu_limits_ok(&s, task, &cfg)
            });
            attempts += 1;
            valid += usize::from(ok);
        }
        sample_s += t0.elapsed().as_secs_f64();
    }
    out.set("sketch.generate_us", median(&sketch_us));
    out.set("annotate.sample_us", sample_s * 1e6 / attempts as f64);
    out.set("annotate.valid_ratio", valid as f64 / attempts as f64);

    // Evolution on a sampled population of the first task, scored by the
    // model trained above.
    let sketches = generate_sketches(task0);
    let mut pop = Vec::new();
    for k in 0..POPULATION * 4 {
        if pop.len() == POPULATION {
            break;
        }
        let id = k % sketches.len();
        if let Some(s) = sample_program(&sketches[id], task0, &cfg, &mut rng) {
            pop.push(Individual::new(s, id));
        }
    }
    let pop_refs: Vec<&State> = pop.iter().map(|p| &p.state).collect();
    let t0 = Instant::now();
    let scores = model.predict_refs(task0, &pop_refs);
    out.set(
        "cost_model.predict_us",
        t0.elapsed().as_secs_f64() * 1e6 / pop.len().max(1) as f64,
    );
    let evo = EvolutionConfig {
        population: POPULATION,
        generations: 2,
        ..Default::default()
    };
    let scratch = EvolutionScratch::new(POPULATION);
    let gen_seed = ctx.derive(0x1A7E, 1);
    out.set(
        "evolution.offspring_us",
        per_item_us(POPULATION, || {
            let mut r = StdRng::seed_from_u64(gen_seed);
            black_box(produce_generation(
                task0, &sketches, &pop, &scores, &model, &evo, gen_seed, &scratch, &mut r,
            ));
        }),
    );
    let banned = HashSet::new();
    let pass_ms = |threads: usize| {
        ansor_runtime::set_threads(threads);
        per_item_us(1, || {
            let mut r = StdRng::seed_from_u64(gen_seed);
            black_box(evolutionary_search_with_stats(
                task0,
                &sketches,
                pop.clone(),
                &model,
                &evo,
                UPDATE_BATCH,
                &banned,
                gen_seed,
                &mut r,
            ));
        }) / 1e3
    };
    let serial = pass_ms(1);
    let parallel = pass_ms(2);
    out.set("runtime.speedup", serial / parallel);
    out.set(
        "evolution.pass_ms",
        if inp.threads > 1 { parallel } else { serial },
    );

    ansor_runtime::set_threads(inp.threads);
    let items = vec![0u64; 256];
    let calls = 200;
    out.set(
        "runtime.map_overhead_us",
        per_item_us(calls, || {
            for _ in 0..calls {
                black_box(ansor_runtime::parallel_map_indexed(&items, |i, x| {
                    i as u64 + x
                }));
            }
        }),
    );

    // Checkpoint, store, journal and protocol on this run's data.
    if let Some(ck) = &inp.checkpoint {
        let path = ctx.scratch.join("layer.ckpt");
        let mut save_ms = Vec::new();
        for _ in 0..REPS {
            let t0 = Instant::now();
            ck.save(&path)
                .expect("checkpoint saves to the scratch directory");
            save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.set("checkpoint.save_ms", median(&save_ms));
        out.set("checkpoint.bytes", file_len(&path));
    }
    if !out.metrics.contains_key("store.absorb_ms") {
        let path = ctx.scratch.join("layer-store.json");
        let (store, _) = WarmStore::open(&path).expect("fresh store opens");
        let t0 = Instant::now();
        for (task, log, _) in &inp.tasks {
            store.absorb(&spec_for(task, ctx.seed), crate::tune::FAULTS, log);
        }
        let absorb_ms = t0.elapsed().as_secs_f64() * 1e3 / inp.tasks.len() as f64;
        let t0 = Instant::now();
        store.save().expect("store saves to the scratch directory");
        out.set("store.absorb_ms", absorb_ms);
        out.set("store.save_ms", t0.elapsed().as_secs_f64() * 1e3);
        out.set("store.bytes", file_len(&path));
    }
    if !out.metrics.contains_key("journal.append_us") {
        let path = ctx.scratch.join("layer-journal.jsonl");
        let (mut journal, _) = JobJournal::open(&path).expect("fresh journal opens");
        let events = 256;
        out.set(
            "journal.append_us",
            per_item_us(events, || {
                for round in 0..events as u64 {
                    journal
                        .append(&JournalEvent::Round {
                            job: "job-1".into(),
                            round,
                            trials: round * 64,
                            best_seconds: Some(1e-3),
                        })
                        .expect("journal appends to the scratch directory");
                }
            }),
        );
    }
    let line = {
        let mut resp = Response::success(1);
        resp.result = Some(sample_result(inp));
        resp
    };
    let reps = 2000;
    out.set(
        "proto.roundtrip_us",
        per_item_us(reps, || {
            for _ in 0..reps {
                let text = ansor_serve::proto::encode(&line);
                black_box(ansor_serve::proto::decode_response(&text).expect("round trip"));
            }
        }),
    );
    if !out.metrics.contains_key("server.run_ms_p50") {
        crate::serve_mix::server_probe(ctx, out);
    }
    if !out.metrics.contains_key("task_scheduler.unit_ms_p50") {
        out.set("task_scheduler.unit_ms_p50", scheduler_unit_ms(ctx, inp));
    }
}

fn file_len(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// A job spec naming a task, for store timings on tasks that are not
/// fig6 classes (the store keys records by the spec's class).
fn spec_for(task: &SearchTask, seed: u64) -> JobSpec {
    JobSpec {
        op: task.name.clone(),
        shape: 0,
        batch: 1,
        target: "intel".into(),
        trials: 64,
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

/// A `JobResult` shaped like the first task's outcome.
fn sample_result(inp: &LayerInputs) -> JobResult {
    let (task, log, _) = &inp.tasks[0];
    let best = log
        .iter()
        .filter(|r| r.is_valid())
        .map(|r| r.seconds)
        .fold(f64::INFINITY, f64::min);
    JobResult {
        job: "job-1".into(),
        task: task.name.clone(),
        state: "done".into(),
        trials: log.len() as u64,
        best_seconds: Some(best),
        best_gflops: Some(task.dag.flop_count() / best / 1e9),
        best_signature: Some(7),
        log_records: log.len() as u64,
        log_fingerprint: ansor_core::log_fingerprint(log),
        warm: Default::default(),
        wall_ms: 100.0,
        queue_wait_ms: 1.0,
        counters: Default::default(),
        error: None,
    }
}

/// Median scheduling-unit time of a short scheduler run over the
/// workload's tasks: one cold unit per task plus one more.
fn scheduler_unit_ms(ctx: &Ctx, inp: &LayerInputs) -> f64 {
    let tasks: Vec<TuneTask> = inp
        .tasks
        .iter()
        .map(|(t, _, w)| TuneTask {
            task: t.clone(),
            weight: *w,
            dnn: 0,
        })
        .collect();
    let units = tasks.len() + 1;
    let target = tasks[0].task.target.clone();
    let mut sched = TaskScheduler::new(
        tasks,
        Objective::WeightedSum,
        TuningOptions {
            seed: ctx.derive(0x1A7E, 2),
            ..Default::default()
        },
        TaskSchedulerConfig::default(),
    );
    let mut measurer = Measurer::new(target);
    let mut ms = Vec::new();
    for _ in 0..units {
        let t0 = Instant::now();
        if sched.step(&mut measurer).is_none() {
            break;
        }
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}
