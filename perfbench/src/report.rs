//! Metric catalogue, the result of one run, and its JSON forms.

use std::collections::BTreeMap;

use serde_json::{Map, Number, Value};

use crate::spans::PHASES;

/// A JSON number (non-finite values become `null`).
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(Number::Float(v))
    } else {
        Value::Null
    }
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// End-to-end metrics, printed by the untraced run: name, unit, direction.
pub const END_TO_END: [(&str, &str, Better); 12] = [
    ("setup_s", "s", Better::Lower),
    ("trial_ms", "ms", Better::Lower),
    ("best_gflops", "GFLOP/s", Better::Higher),
    ("net_latency_ms", "ms", Better::Lower),
    ("peak_heap_mb", "MB", Better::Lower),
    ("fail_share", "ratio", Better::Lower),
    ("jobs_per_s", "1/s", Better::Higher),
    ("fresh_job_ms_p50", "ms", Better::Lower),
    ("repeat_job_ms_p50", "ms", Better::Lower),
    ("job_ms_tail", "ms", Better::Lower),
    ("rpc_ms_p50", "ms", Better::Lower),
    ("rpc_ms_tail", "ms", Better::Lower),
];

/// Per-layer metrics other than the phase shares: name, unit, direction.
pub const LAYERS: [(&str, &str, Better); 37] = [
    ("tensor_ir.clone_us", "us", Better::Lower),
    ("tensor_ir.signature_us", "us", Better::Lower),
    ("tensor_ir.replay_us", "us", Better::Lower),
    ("tensor_ir.lower_us", "us", Better::Lower),
    ("features.extract_us", "us", Better::Lower),
    ("features.cache_hit_ratio", "ratio", Better::Higher),
    ("gbdt.train_ms", "ms", Better::Lower),
    ("gbdt.predict_us", "us", Better::Lower),
    ("cost_model.update_ms", "ms", Better::Lower),
    ("cost_model.predict_us", "us", Better::Lower),
    ("cost_model.score_hit_ratio", "ratio", Better::Higher),
    ("sketch.generate_us", "us", Better::Lower),
    ("annotate.sample_us", "us", Better::Lower),
    ("annotate.valid_ratio", "ratio", Better::Higher),
    ("evolution.offspring_us", "us", Better::Lower),
    ("evolution.pass_ms", "ms", Better::Lower),
    ("runtime.map_overhead_us", "us", Better::Lower),
    ("runtime.speedup", "x", Better::Higher),
    ("session.round_ms_p50", "ms", Better::Lower),
    ("task_scheduler.unit_ms_p50", "ms", Better::Lower),
    ("checkpoint.save_ms", "ms", Better::Lower),
    ("checkpoint.bytes", "bytes", Better::Lower),
    ("hwsim.measure_us", "us", Better::Lower),
    ("hwsim.cache_hit_ratio", "ratio", Better::Higher),
    ("hwsim.failed_ratio", "ratio", Better::Lower),
    ("store.absorb_ms", "ms", Better::Lower),
    ("store.save_ms", "ms", Better::Lower),
    ("store.bytes", "bytes", Better::Lower),
    ("journal.append_us", "us", Better::Lower),
    ("proto.roundtrip_us", "us", Better::Lower),
    ("server.queue_wait_ms_p50", "ms", Better::Lower),
    ("server.run_ms_p50", "ms", Better::Lower),
    ("server.outside_ms_p50", "ms", Better::Lower),
    ("count.trials", "count", Better::Higher),
    ("count.rounds", "count", Better::Higher),
    ("count.model_predictions", "count", Better::Higher),
    ("telemetry.overhead_ratio", "x", Better::Lower),
];

/// Every per-layer metric in catalogue order: name, unit, direction.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<_> = LAYERS
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for p in PHASES {
        out.push((format!("share.{p}.self"), "share", Better::Lower));
        out.push((format!("share.{p}.incl"), "share", Better::Lower));
    }
    out.push(("share.untracked".into(), "share", Better::Lower));
    out
}

/// What one run measured, checked and counted.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (measurements, jobs, RPCs, checks).
    pub attempted: u64,
    /// Operations that failed the benchmark: failed jobs, RPC errors and
    /// failed output checks. Failed measurements are part of search and
    /// count only in `fail_share`.
    pub failed: u64,
    /// One line per failed check.
    pub check_failures: Vec<String>,
    /// Output checks run.
    pub checks: u64,
    /// Extra facts for the result file: sample counts, tail percentiles.
    pub details: BTreeMap<String, Value>,
    /// Benchmark spans, written to the result file.
    pub spans: Option<Value>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.insert(key.to_string(), value);
    }

    /// Records a tail metric with the percentile and count it used.
    pub fn set_tail(&mut self, name: &str, t: crate::stats::Tail) {
        self.set(name, t.value);
        self.detail(
            name,
            obj(vec![
                ("percentile", num(t.percentile)),
                ("samples", num(t.samples as f64)),
            ]),
        );
    }

    /// Runs one output check, counting it as an attempted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The stdout result line for the metrics `names`.
    pub fn result_line(&self, names: &[(String, &'static str)]) -> Value {
        let mut metrics = Map::new();
        for (name, unit) in names {
            let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
            metrics.insert(
                name.clone(),
                obj(vec![
                    ("value", num(v)),
                    ("unit", Value::String(unit.to_string())),
                ]),
            );
        }
        obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(Number::PosInt(self.attempted))),
            ("failed", Value::Number(Number::PosInt(self.failed))),
            ("metrics", Value::Object(metrics)),
        ])
    }
}
