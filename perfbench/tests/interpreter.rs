//! The best programs the benchmark's workloads tune compute what their
//! naive programs compute, checked on the interpreter with seeded random
//! inputs.
//!
//! `cargo test --release` runs the serve-mix classes (seconds each). The
//! tune-op operator takes minutes on the interpreter and is ignored by
//! default: `cargo test --release -- --ignored`.

use ansor_core::best_record;
use perfbench::serve_mix::{cold_session, spec, CLASSES};
use perfbench::tune::FAULTS;
use telemetry::Telemetry;

fn install_fault_plan() {
    hwsim::set_default_plan(Some(
        hwsim::FaultPlan::parse(FAULTS).expect("the fault plan parses"),
    ));
}

#[test]
fn serve_mix_best_programs_match_the_naive_program() {
    install_fault_plan();
    for (class, (op, shape)) in CLASSES.iter().enumerate() {
        let mut session = cold_session(&spec(class, 7), &Telemetry::disabled());
        session.run(|_| true);
        let task = session.task().clone();
        let best = best_record(session.log(), &task.name).expect("a valid program was measured");
        let state = best.replay(task.dag.clone()).expect("best record replays");
        let worst = perfbench::checks::interpreter(&task.dag, &state, 11)
            .unwrap_or_else(|e| panic!("{op} shape {shape}: {e}"));
        eprintln!("{op} shape {shape}: largest difference {worst}");
    }
}

#[test]
#[ignore = "minutes on the interpreter; run with --ignored"]
fn tune_op_best_program_matches_the_naive_program() {
    install_fault_plan();
    let (op, shape, batch, target) = perfbench::tune::OP;
    let mut s = spec(0, 7);
    s.op = op.into();
    s.shape = shape;
    s.batch = batch;
    s.target = target.into();
    s.trials = perfbench::tune::OP_TRIALS;
    let mut session = cold_session(&s, &Telemetry::disabled());
    session.run(|_| true);
    let task = session.task().clone();
    let best = best_record(session.log(), &task.name).expect("a valid program was measured");
    let state = best.replay(task.dag.clone()).expect("best record replays");
    let worst = perfbench::checks::interpreter(&task.dag, &state, 11)
        .unwrap_or_else(|e| panic!("{op} shape {shape}: {e}"));
    eprintln!("{op} shape {shape}: largest difference {worst}");
}
