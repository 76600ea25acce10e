//! `perfbench`: the tuner's benchmark.
//!
//! ```text
//! perfbench --workload <tune-op|tune-net|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root, prints a table of every
//! metric with its unit and direction, writes a result file under
//! `.perfbench/results/`, and prints one JSON object as its last line:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::report::{num, obj, per_layer, Better, Outcome, END_TO_END};
use perfbench::{provenance, serve_mix, tune, Ctx, WORKLOADS};
use serde_json::Value;

#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).map(String::as_str)
    };
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")
        .unwrap_or("0")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes a whole number"));
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .unwrap_or_else(|_| usage("--seconds takes a number"));
    if !(seconds > 0.0 && seconds <= 120.0) {
        usage("--seconds must be in (0, 120]");
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let args = parse();
    let plan = hwsim::FaultPlan::parse(tune::FAULTS).expect("the fault plan parses");
    hwsim::set_default_plan(Some(plan));
    let root = PathBuf::from(".perfbench");
    let scratch = root.join(format!("tmp-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
        origin: Instant::now(),
    };
    let out = match args.workload.as_str() {
        "tune-op" => tune::tune_op(&ctx),
        "tune-net" => tune::tune_net(&ctx),
        _ => serve_mix::serve_mix(&ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let catalogue: Vec<(String, &'static str, Better)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect()
    };
    print_table(&args, &out, &catalogue);
    write_result_file(&root, &args, &out, &catalogue);
    let names: Vec<(String, &'static str)> =
        catalogue.iter().map(|(n, u, _)| (n.clone(), *u)).collect();
    println!(
        "{}",
        serde_json::to_string(&out.result_line(&names)).expect("result serializes")
    );
    if !out.correct() {
        std::process::exit(1);
    }
}

fn print_table(args: &Args, out: &Outcome, catalogue: &[(String, &'static str, Better)]) {
    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, unit, better) in catalogue {
        let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!(
            "  {name:<30} {v:>16.6} {unit:<8} {} is better",
            better.as_str()
        );
    }
    println!(
        "  checks {} run, {} failed; {} operations attempted, {} failed",
        out.checks,
        out.check_failures.len(),
        out.attempted,
        out.failed
    );
    for f in &out.check_failures {
        println!("  CHECK FAILED: {f}");
    }
}

/// Writes `.perfbench/results/<workload>-seed<n>-trace<t>.json`: every
/// metric with unit and direction, provenance, sample counts and, for
/// traced runs, the benchmark's spans.
fn write_result_file(
    root: &std::path::Path,
    args: &Args,
    out: &Outcome,
    catalogue: &[(String, &'static str, Better)],
) {
    let dir = root.join("results");
    let metrics: Vec<(&str, Value)> = catalogue
        .iter()
        .map(|(n, u, b)| {
            let v = out.metrics.get(n).copied().unwrap_or(f64::NAN);
            (
                n.as_str(),
                obj(vec![
                    ("value", num(v)),
                    ("unit", Value::String(u.to_string())),
                    ("better", Value::String(b.as_str().into())),
                ]),
            )
        })
        .collect();
    let threads = match args.workload.as_str() {
        "tune-net" => 2,
        _ => 1,
    };
    let doc = obj(vec![
        ("workload", Value::String(args.workload.clone())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("runtime_threads", num(threads as f64)),
        ("provenance", provenance::collect()),
        ("correct", Value::Bool(out.correct())),
        ("attempted", num(out.attempted as f64)),
        ("failed", num(out.failed as f64)),
        ("checks", num(out.checks as f64)),
        (
            "check_failures",
            Value::Array(
                out.check_failures
                    .iter()
                    .cloned()
                    .map(Value::String)
                    .collect(),
            ),
        ),
        ("metrics", obj(metrics)),
        (
            "details",
            Value::Object(out.details.clone().into_iter().collect()),
        ),
        ("spans", out.spans.clone().unwrap_or(Value::Null)),
    ]);
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("result file serializes"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
