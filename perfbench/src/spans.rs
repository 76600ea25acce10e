//! Benchmark spans and phase shares.
//!
//! The benchmark records its own spans around each public call it makes
//! into the program (`step()`, checkpoint `save`, `submit`/`status`/
//! `result`, store `absorb`/`save`). They are kept in memory and written
//! to the result file when the run ends. The program's own phase spans
//! (`evolution`, `evolution/model_predict`, `model_retrain`, …) are read
//! from its telemetry registry, where nesting is encoded in the path.
//!
//! [`Shares`] combines both into self and inclusive shares of wall time:
//! a span's self time is its inclusive time minus the time its children
//! cover, so summing self shares never counts a nested span twice, and
//! `share.untracked` is the part of wall time no root span covers.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::report::{num, obj};

/// One finished benchmark span. Times are seconds since the run's origin.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Thread (client) the span ran on; 0 is the main thread.
    pub thread: usize,
    /// Job or session the span belongs to, when it belongs to one.
    pub job: Option<String>,
}

/// In-memory span recorder for one thread. Disabled recorders keep
/// nothing, so untraced runs pay one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    thread: usize,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, origin: Instant, thread: usize) -> Spans {
        Spans {
            enabled,
            origin,
            thread,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, job: Option<&str>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.recs.push(SpanRec {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            thread: self.thread,
            job: job.map(str::to_string),
        });
        let id = self.recs.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes the span `id` (must be the innermost open span).
    pub fn end(&mut self, id: usize) {
        if id == usize::MAX {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.recs[id].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, job: Option<&str>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, job);
        let r = f();
        self.end(id);
        r
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.end - r.start)
            .collect()
    }

    /// Summed inclusive seconds of root spans called `name`.
    pub fn root_total(&self, name: &str) -> f64 {
        self.recs
            .iter()
            .filter(|r| r.name == name && r.parent.is_none())
            .map(|r| r.end - r.start)
            .sum()
    }

    /// Every span as JSON, for the result file.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.recs
                .iter()
                .map(|r| {
                    obj(vec![
                        ("name", Value::String(r.name.into())),
                        ("start_s", num(r.start)),
                        ("end_s", num(r.end)),
                        ("parent", r.parent.map_or(Value::Null, |p| num(p as f64))),
                        ("thread", num(r.thread as f64)),
                        ("job", r.job.clone().map_or(Value::Null, Value::String)),
                    ])
                })
                .collect(),
        )
    }
}

/// Phases reported as `share.<phase>.self` / `share.<phase>.incl`.
/// The first five are benchmark spans, the rest the program's own.
pub const PHASES: [&str; 15] = [
    "setup",
    "step",
    "checkpoint_save",
    "rpc",
    "poll_wait",
    "store",
    "sketch_generation",
    "annotation_sampling",
    "evolution",
    "model_predict",
    "feature_extraction",
    "model_retrain",
    "gbdt_train",
    "measurement",
    "lowering",
];

/// Program phases that run on worker threads when the runtime has more
/// than one thread. On a worker the span stack starts empty, so these
/// appear as registry roots although they ran inside a main-thread span;
/// their time is reported but not subtracted from any parent.
const WORKER_PHASES: [&str; 1] = ["lowering"];

/// Self and inclusive seconds per phase, against one wall time.
#[derive(Debug, Default)]
pub struct Shares {
    wall: f64,
    incl: BTreeMap<String, f64>,
    self_time: BTreeMap<String, f64>,
    roots: f64,
}

impl Shares {
    pub fn new(wall: f64) -> Shares {
        Shares {
            wall,
            ..Shares::default()
        }
    }

    /// Adds a phase occurrence. `root` marks spans that sit directly
    /// under the run's wall time; their inclusive time is what
    /// `share.untracked` is computed from.
    pub fn add(&mut self, phase: &str, incl: f64, self_time: f64, root: bool) {
        *self.incl.entry(phase.to_string()).or_default() += incl;
        *self.self_time.entry(phase.to_string()).or_default() += self_time;
        if root {
            self.roots += incl;
        }
    }

    /// Adds the program's phase histograms (`phase/<a>/<b>` → summed
    /// seconds), nesting each registry root under the benchmark span
    /// that `parent_of` names. Returns the seconds of main-thread
    /// registry roots per benchmark parent, to subtract from its self
    /// time.
    pub fn add_registry(
        &mut self,
        phases: &BTreeMap<String, f64>,
        scale: f64,
        parent_of: impl Fn(&str) -> &'static str,
    ) -> BTreeMap<&'static str, f64> {
        let mut under: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (path, &incl) in phases {
            let children: f64 = phases
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(path.as_str())
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .map(|(_, s)| *s)
                .sum();
            let name = path.rsplit('/').next().unwrap_or(path);
            self.add(
                name,
                incl * scale,
                (incl - children).max(0.0) * scale,
                false,
            );
            let is_root = !path.contains('/');
            if is_root && !WORKER_PHASES.contains(&name) {
                *under.entry(parent_of(name)).or_default() += incl * scale;
            }
        }
        under
    }

    /// `share.*` metrics: every phase of [`PHASES`] (0 when it did not
    /// occur) plus `share.untracked`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for p in PHASES {
            let incl = self.incl.get(p).copied().unwrap_or(0.0);
            let slf = self.self_time.get(p).copied().unwrap_or(0.0);
            out.push((format!("share.{p}.self"), slf / self.wall));
            out.push((format!("share.{p}.incl"), incl / self.wall));
        }
        out.push((
            "share.untracked".into(),
            (1.0 - self.roots / self.wall).max(0.0),
        ));
        out
    }
}

/// Summed seconds per `phase/…` histogram path (prefix stripped) between
/// two registry snapshots.
pub fn phase_seconds(
    before: &telemetry::Snapshot,
    after: &telemetry::Snapshot,
) -> BTreeMap<String, f64> {
    let d = after.delta(before);
    d.histograms
        .iter()
        .filter_map(|(k, h)| Some((k.strip_prefix("phase/")?.to_string(), h.sum)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_registry_phases_are_not_double_counted() {
        let mut phases = BTreeMap::new();
        phases.insert("evolution".to_string(), 6.0);
        phases.insert("evolution/model_predict".to_string(), 4.0);
        phases.insert("measurement".to_string(), 1.0);
        phases.insert("lowering".to_string(), 0.5);
        let mut s = Shares::new(10.0);
        let under = s.add_registry(&phases, 1.0, |_| "step");
        assert_eq!(
            under["step"], 7.0,
            "worker-thread lowering is not a main root"
        );
        s.add("step", 9.0, 9.0 - under["step"], true);
        let m: BTreeMap<String, f64> = s.metrics().into_iter().collect();
        assert_eq!(m["share.evolution.self"], 0.2);
        assert_eq!(m["share.evolution.incl"], 0.6);
        assert_eq!(m["share.step.self"], 0.2);
        assert!((m["share.untracked"] - 0.1).abs() < 1e-12);
        let main_self: f64 = ["step", "evolution", "model_predict", "measurement"]
            .iter()
            .map(|p| m[&format!("share.{p}.self")])
            .sum();
        assert!((main_self + m["share.untracked"] - 1.0).abs() < 1e-12);
    }
}
