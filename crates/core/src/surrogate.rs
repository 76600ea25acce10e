//! Step-sequence surrogate model: cheap candidate scoring without lowering.
//!
//! Every candidate the GBDT scores pays the full lower+featurize path
//! (`features.extract_us` in `perfbench`'s per-layer metrics)
//! before a single tree is evaluated. The [`StepSequenceModel`] sidesteps
//! that cost by featurizing a schedule **purely from its transform-step
//! history** — the same rule chains and step parameters the lineage
//! machinery records — so an evolution population can be pre-ranked in
//! microseconds and only the top `prerank_keep` slice lowered for the GBDT
//! (see `docs/COST_MODEL.md`, "Two-stage scoring").
//!
//! Because the features never look at the lowered program, the model also
//! **transfers across tasks**: a `Split` into 4×8 tiles or a
//! `Parallel`-annotated outer loop means roughly the same thing on a
//! matmul and a convolution. The serve warm store exploits this by keeping
//! one store-wide surrogate absorbed from every completed job and handing
//! it to new sessions whose class key has never been seen (cross-class
//! warm-starting, `docs/SERVING.md`).
//!
//! # Determinism contract
//!
//! Scoring is a pure function of `(model state, steps)`: features are
//! accumulated in fixed coordinate order and the dot product runs over a
//! fixed-length dense vector, so batch scoring through
//! [`ansor_runtime::parallel_map`] is bit-identical at every thread count.
//! Training is deterministic in record-insertion order — per-coordinate
//! ridge accumulators, no RNG, no wall clock — so two stores that absorbed
//! the same records in the same order hold bit-identical models.

use serde::{Deserialize, Serialize};
use tensor_ir::{Annotation, Step};

/// Version stamp persisted with every serialized model. Bumping it
/// invalidates persisted surrogates (they reset to untrained on load)
/// without breaking checkpoint or store deserialization.
pub const SURROGATE_VERSION: u32 = 1;

/// Hashed n-gram buckets over the step-kind chain.
const NGRAM_DIM: usize = 192;
/// Dense numeric-knob slots (tile sizes, unroll factors, annotation
/// counts, …) appended after the n-gram buckets.
const KNOB_DIM: usize = 20;
/// Total feature dimensionality of [`StepSequenceModel::featurize`].
pub const FEATURE_DIM: usize = NGRAM_DIM + KNOB_DIM;

/// Updates required before the model considers itself trained enough to
/// pre-rank a population (below this, staged scorers fall back to the
/// full path).
const MIN_UPDATES: u64 = 8;

/// FNV-1a over a token stream, used to bucket step-kind n-grams.
fn fnv1a(tokens: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in tokens {
        h ^= t as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Small integer id of a step kind (the n-gram alphabet).
fn step_token(step: &Step) -> u8 {
    match step {
        Step::Split { .. } => 1,
        Step::Fuse { .. } => 2,
        Step::Reorder { .. } => 3,
        Step::ComputeAt { .. } => 4,
        Step::ComputeInline { .. } => 5,
        Step::ComputeRoot { .. } => 6,
        Step::CacheWrite { .. } => 7,
        Step::Rfactor { .. } => 8,
        Step::Annotate { .. } => 9,
        Step::Pragma { .. } => 10,
        Step::LayoutRewrite { .. } => 11,
    }
}

/// `log2(1 + |v|)` — compresses tile sizes and unroll factors into a
/// feature-friendly range.
fn log2p1(v: i64) -> f64 {
    (1.0 + v.unsigned_abs() as f64).log2()
}

/// A linear model over hashed step-sequence features, trained online on
/// (steps, measured throughput) pairs.
///
/// The update rule is per-coordinate ridge regression: for feature `i`
/// the weight is `w_i = Σ(x_i·y) / (λ + Σ(x_i²))`, with target
/// `y = task_best_seconds / seconds` (1.0 = the best program seen for the
/// task, → 0 for slow ones, 0 for failures) matching the GBDT's
/// throughput normalization. Both sums are plain accumulators, so updates
/// are deterministic in insertion order and two models trained on the
/// same record stream are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepSequenceModel {
    /// Format version ([`SURROGATE_VERSION`]); mismatches reset to default.
    pub version: u32,
    /// Ridge regularizer λ.
    lambda: f64,
    /// Per-coordinate Σ(x_i²).
    sxx: Vec<f64>,
    /// Per-coordinate Σ(x_i·y).
    sxy: Vec<f64>,
    /// Number of (steps, seconds) pairs absorbed.
    updates: u64,
    /// Running best (minimum) measured seconds per task, for target
    /// normalization. Sorted by task name; linear scan (task counts are
    /// small).
    task_best: Vec<(String, f64)>,
}

impl Default for StepSequenceModel {
    fn default() -> Self {
        StepSequenceModel {
            version: SURROGATE_VERSION,
            lambda: 1.0,
            sxx: vec![0.0; FEATURE_DIM],
            sxy: vec![0.0; FEATURE_DIM],
            updates: 0,
            task_best: Vec::new(),
        }
    }
}

impl StepSequenceModel {
    /// A fresh, untrained model.
    pub fn new() -> StepSequenceModel {
        StepSequenceModel::default()
    }

    /// Validates a deserialized model: wrong version or malformed vectors
    /// reset to an untrained model instead of poisoning scores. Call this
    /// on every model loaded from a checkpoint or store file.
    pub fn validated(self) -> StepSequenceModel {
        if self.version != SURROGATE_VERSION
            || self.sxx.len() != FEATURE_DIM
            || self.sxy.len() != FEATURE_DIM
        {
            return StepSequenceModel::default();
        }
        self
    }

    /// Number of (steps, seconds) pairs this model has absorbed.
    pub fn num_updates(&self) -> u64 {
        self.updates
    }

    /// Whether the model has seen enough data to pre-rank a population.
    pub fn is_trained(&self) -> bool {
        self.updates >= MIN_UPDATES
    }

    /// Featurizes a transform-step history: hashed uni/bi/tri-grams of the
    /// step-kind chain plus dense numeric knobs (tile sizes, unroll
    /// factors, parallel granularity, annotation counts). Never lowers the
    /// program — cost is linear in the step count.
    pub fn featurize(steps: &[Step]) -> Vec<f64> {
        let mut f = vec![0.0; FEATURE_DIM];
        let tokens: Vec<u8> = steps.iter().map(step_token).collect();
        for n in 1..=3usize {
            for w in tokens.windows(n) {
                let mut buf = [0u8; 4];
                buf[0] = n as u8;
                buf[1..1 + n].copy_from_slice(w);
                f[(fnv1a(&buf[..1 + n]) % NGRAM_DIM as u64) as usize] += 1.0;
            }
        }
        let knobs = &mut f[NGRAM_DIM..];
        knobs[0] = steps.len() as f64 / 16.0;
        for step in steps {
            match step {
                Step::Split { lengths, .. } => {
                    knobs[1] += 1.0;
                    for &len in lengths {
                        knobs[2] += log2p1(len);
                        knobs[3] = knobs[3].max(log2p1(len));
                    }
                    if let Some(&outer) = lengths.first() {
                        // Outer tile length ≈ parallel granularity.
                        knobs[4] += log2p1(outer);
                    }
                }
                Step::Fuse { iters, .. } => knobs[5] += iters.len() as f64,
                Step::Reorder { .. } => knobs[6] += 1.0,
                Step::ComputeAt { prefix_len, .. } => {
                    knobs[7] += 1.0;
                    knobs[8] += *prefix_len as f64;
                }
                Step::ComputeInline { .. } => knobs[9] += 1.0,
                Step::ComputeRoot { .. } => knobs[10] += 1.0,
                Step::CacheWrite { .. } => knobs[11] += 1.0,
                Step::Rfactor { factor, .. } => {
                    knobs[12] += 1.0;
                    knobs[13] += log2p1(*factor);
                }
                Step::Annotate { ann, .. } => match ann {
                    Annotation::Parallel => knobs[14] += 1.0,
                    Annotation::Vectorize => knobs[15] += 1.0,
                    Annotation::Unroll => knobs[16] += 1.0,
                    _ => knobs[17] += 1.0,
                },
                Step::Pragma { max_unroll, .. } => {
                    knobs[18] += log2p1(*max_unroll);
                }
                Step::LayoutRewrite { .. } => knobs[19] += 1.0,
            }
        }
        f
    }

    /// Absorbs one measured program. `seconds` is the measured time
    /// (`f64::INFINITY` or NaN for failures, which train toward a zero
    /// target so the surrogate learns to down-rank broken step patterns).
    pub fn update(&mut self, task: &str, steps: &[Step], seconds: f64) {
        let y = if seconds.is_finite() && seconds > 0.0 {
            let best = match self.task_best.iter_mut().find(|(t, _)| t == task) {
                Some((_, b)) => {
                    if seconds < *b {
                        *b = seconds;
                    }
                    *b
                }
                None => {
                    self.task_best.push((task.to_string(), seconds));
                    self.task_best.sort_by(|a, b| a.0.cmp(&b.0));
                    seconds
                }
            };
            best / seconds
        } else {
            0.0
        };
        let x = Self::featurize(steps);
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                self.sxx[i] += xi * xi;
                self.sxy[i] += xi * y;
            }
        }
        self.updates += 1;
    }

    /// Predicted relative throughput of a step sequence (higher = faster).
    /// Pure in `(self, steps)` — safe to batch through `parallel_map`.
    pub fn score(&self, steps: &[Step]) -> f64 {
        let x = Self::featurize(steps);
        let mut acc = 0.0;
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                acc += xi * self.sxy[i] / (self.lambda + self.sxx[i]);
            }
        }
        acc
    }

    /// Scores a batch on the runtime's worker threads, preserving input
    /// order (bit-identical at every thread count).
    pub fn score_batch(&self, steps: &[&[Step]]) -> Vec<f64> {
        ansor_runtime::parallel_map(steps, |s| self.score(s))
    }

    /// Indices of `scores` ordered best-first, ties broken by input index
    /// (fully deterministic).
    pub fn rank_indices(scores: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(len: i64) -> Step {
        Step::Split {
            node: "C".into(),
            iter: "i".into(),
            lengths: vec![len, 4],
        }
    }

    fn ann(a: Annotation) -> Step {
        Step::Annotate {
            node: "C".into(),
            iter: "i".into(),
            ann: a,
        }
    }

    fn train(model: &mut StepSequenceModel) {
        // Parallel-annotated big tiles are fast; unannotated small tiles
        // are slow; a cursed pattern fails outright.
        for k in 0..8 {
            let fast = vec![split(16 + k), ann(Annotation::Parallel)];
            let slow = vec![split(2)];
            model.update("t", &fast, 1e-3);
            model.update("t", &slow, 8e-3);
        }
        model.update("t", &[ann(Annotation::Unroll)], f64::INFINITY);
    }

    #[test]
    fn learns_to_rank_fast_patterns_first() {
        let mut m = StepSequenceModel::new();
        assert!(!m.is_trained());
        train(&mut m);
        assert!(m.is_trained());
        let fast = vec![split(16), ann(Annotation::Parallel)];
        let slow = vec![split(2)];
        assert!(m.score(&fast) > m.score(&slow));
    }

    #[test]
    fn scoring_is_bit_identical_across_thread_counts() {
        let mut m = StepSequenceModel::new();
        train(&mut m);
        let programs: Vec<Vec<Step>> = (0..64)
            .map(|k| vec![split(k % 32), ann(Annotation::Parallel), split(2 + k)])
            .collect();
        let refs: Vec<&[Step]> = programs.iter().map(|p| p.as_slice()).collect();
        let mut runs = Vec::new();
        for threads in [1usize, 4, 8] {
            ansor_runtime::set_threads(threads);
            let scores = m.score_batch(&refs);
            ansor_runtime::set_threads(0);
            runs.push((
                StepSequenceModel::rank_indices(&scores),
                scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
            ));
        }
        assert_eq!(runs[0], runs[1], "threads=1 vs threads=4");
        assert_eq!(runs[1], runs[2], "threads=4 vs threads=8");
    }

    #[test]
    fn training_is_deterministic_in_insertion_order() {
        let mut a = StepSequenceModel::new();
        let mut b = StepSequenceModel::new();
        train(&mut a);
        train(&mut b);
        assert_eq!(a, b);
        let probe = vec![split(8), ann(Annotation::Vectorize)];
        assert_eq!(a.score(&probe).to_bits(), b.score(&probe).to_bits());
    }

    #[test]
    fn serde_round_trip_preserves_scores_exactly() {
        let mut m = StepSequenceModel::new();
        train(&mut m);
        let json = serde_json::to_string(&m).unwrap();
        let back: StepSequenceModel = serde_json::from_str(&json).unwrap();
        let back = back.validated();
        assert_eq!(m, back);
        let probe = vec![split(8), ann(Annotation::Parallel)];
        assert_eq!(m.score(&probe).to_bits(), back.score(&probe).to_bits());
    }

    #[test]
    fn version_mismatch_resets_to_untrained() {
        let mut m = StepSequenceModel::new();
        train(&mut m);
        m.version = SURROGATE_VERSION + 1;
        let m = m.validated();
        assert_eq!(m, StepSequenceModel::default());
    }

    #[test]
    fn rank_indices_breaks_ties_by_input_index() {
        assert_eq!(
            StepSequenceModel::rank_indices(&[1.0, 2.0, 1.0, 2.0]),
            vec![1, 3, 0, 2]
        );
    }

    #[test]
    fn failures_train_toward_zero() {
        let mut m = StepSequenceModel::new();
        for _ in 0..8 {
            m.update("t", &[ann(Annotation::Unroll)], f64::INFINITY);
            m.update("t", &[ann(Annotation::Parallel)], 1e-3);
        }
        assert!(m.score(&[ann(Annotation::Parallel)]) > m.score(&[ann(Annotation::Unroll)]));
    }
}
