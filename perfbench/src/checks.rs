//! Output checks shared by the workloads: a reported best program must
//! rebuild from its recorded steps and re-measure to the reported time.

use std::sync::Arc;

use hwsim::{HardwareTarget, Measurer};
use tensor_ir::{lower, ComputeDag, State, Step};

use crate::report::Outcome;

/// Replays `steps` on `dag`, validates and lowers the program, and
/// re-measures it on a fresh measurer: the time must equal `seconds`
/// bit for bit (the simulated measurement is deterministic).
pub fn best_program(
    out: &mut Outcome,
    what: &str,
    dag: &Arc<ComputeDag>,
    target: &HardwareTarget,
    steps: &[Step],
    seconds: f64,
) {
    let rebuilt = State::replay(Arc::clone(dag), steps)
        .map_err(|e| format!("replay: {e}"))
        .and_then(|s| {
            s.validate()
                .map(|()| s)
                .map_err(|e| format!("validate: {e}"))
        })
        .and_then(|s| lower(&s).map(|_| s).map_err(|e| format!("lower: {e}")));
    match rebuilt {
        Ok(state) => {
            let again = Measurer::new(target.clone()).measure(&state);
            out.check(again.seconds.to_bits() == seconds.to_bits(), || {
                format!(
                    "{what}: best program re-measures to {} s, reported {seconds} s",
                    again.seconds
                )
            });
        }
        Err(e) => out.check(false, || {
            format!("{what}: best program does not rebuild: {e}")
        }),
    }
}

/// Runs a scheduled program of `dag` on the interpreter and compares
/// every output with the naive (unscheduled) program on seeded random
/// inputs. Returns the largest absolute difference, or why the check
/// could not run or failed.
pub fn interpreter(dag: &Arc<ComputeDag>, state: &State, seed: u64) -> Result<f32, String> {
    use tensor_ir::interp;
    let program = lower(state).map_err(|e| format!("lower: {e}"))?;
    let raw = interp::random_inputs(dag, seed);
    let reference = interp::run_naive(dag, &raw).map_err(|e| format!("naive run: {e}"))?;
    // Cache and rfactor stages shift node ids, so inputs and outputs are
    // matched by node name.
    let mut inputs = std::collections::HashMap::new();
    for (id, data) in &raw {
        let name = &dag.nodes[*id].name;
        let mapped = program
            .dag
            .node_id(name)
            .ok_or_else(|| format!("input {name} missing from the scheduled program"))?;
        inputs.insert(mapped, data.clone());
    }
    let got = interp::run(&program, &inputs).map_err(|e| format!("scheduled run: {e}"))?;
    let mut worst = 0.0f32;
    for out in dag.outputs() {
        let name = &dag.nodes[out].name;
        let mapped = program
            .dag
            .node_id(name)
            .ok_or_else(|| format!("output {name} missing from the scheduled program"))?;
        let (want, have) = (reference.get(out), got.get(mapped));
        if want.len() != have.len() {
            return Err(format!(
                "output {name}: {} values, expected {}",
                have.len(),
                want.len()
            ));
        }
        for (i, (a, b)) in have.iter().zip(want).enumerate() {
            let diff = (a - b).abs();
            if diff > 1e-3 * b.abs().max(1.0) {
                return Err(format!("output {name}[{i}] = {a}, naive program gives {b}"));
            }
            worst = worst.max(diff);
        }
    }
    Ok(worst)
}
