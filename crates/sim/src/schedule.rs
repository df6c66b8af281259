//! Trace → pipeline schedule construction for the three granularities.
//!
//! The scheduler turns a request trace into per-stage work and feeds the
//! timing engines of [`crate::engine`]:
//!
//! * **Sequence-grained** — one pipeline unit per request; a stage holds the
//!   request for its entire token stream, so long requests stall short ones
//!   (the exact recurrence captures the resulting bubbles).
//! * **Token-grained (TGP)** — one unit per token; thanks to the causal mask
//!   every token's attention runs as soon as its K/V exist, so stage times
//!   are uniform per token and bubbles vanish (streaming engine).
//! * **Token-grained with block** — non-attention stages stay token-grained
//!   while attention degrades to sequence granularity; following §4.2.2 the
//!   only extra bubbles appear when a newly scheduled sequence is longer than
//!   every sequence before it.

use crate::config::ModelConfig;
use crate::engine::{estimate_streaming, simulate_exact};
use crate::granularity::Granularity;
use crate::report::PipelineReport;
use crate::stage::{StageKind, STAGES_PER_BLOCK};
use ouro_workload::Trace;

/// Prices one token's work in each pipeline stage on some hardware.
///
/// `attended` is the number of KV positions the token attends to (context
/// length including itself); FFN-class stages ignore it.
pub trait StageTimeModel {
    /// Service time, in seconds, of one token in the given stage kind.
    fn token_time_s(&self, kind: StageKind, attended: usize) -> f64;

    /// Service time of an entire sequence of `len` tokens in the given stage,
    /// when the stage operates at sequence granularity. The default
    /// implementation sums the per-token times under a causal-style context
    /// growth from `start_ctx + 1` to `start_ctx + len`.
    fn sequence_time_s(&self, kind: StageKind, len: usize, start_ctx: usize) -> f64 {
        (0..len).map(|i| self.token_time_s(kind, start_ctx + i + 1)).sum()
    }
}

/// A memo of a pure function of the attended length: `rows[n]` is what
/// the function returned for a token attending to `n` positions, filled in
/// order the first time a length at or beyond `n` is asked for.
///
/// A token's stage times depend only on the stage kind and how many
/// positions it attends to, so a replay or an engine run that prices the
/// same context length over and over evaluates the [`StageTimeModel`] once
/// per length. The offline replayer keeps the six per-kind times per row
/// (`R = [f64; 6]`); the serving engine keeps the `(latency, bottleneck)`
/// pair it prices a step with. Rows are only valid for the function that
/// filled them: a caller whose model changes must [`clear`](Self::clear)
/// the table.
#[derive(Debug, Clone)]
pub struct StageTimeTable<R> {
    rows: Vec<R>,
}

/// Rows the table grows by at a time. An engine's table lives as long as
/// its run, so growing exactly (in chunks) rather than by doubling keeps
/// its footprint at about one row per context length reached.
const TABLE_CHUNK: usize = 64;

impl<R: Copy> StageTimeTable<R> {
    /// An empty table.
    pub fn new() -> StageTimeTable<R> {
        StageTimeTable { rows: Vec::new() }
    }

    /// Rows `0..=max_attended`, evaluating `price` at each length the table
    /// does not hold yet, in increasing order.
    pub(crate) fn rows_through(&mut self, max_attended: usize, mut price: impl FnMut(usize) -> R) -> &[R] {
        let len = self.rows.len();
        if max_attended >= len {
            let target = (max_attended + 1).next_multiple_of(TABLE_CHUNK);
            self.rows.reserve_exact(target - len);
            self.rows.extend((len..=max_attended).map(&mut price));
        }
        &self.rows[..=max_attended]
    }

    /// The row of one length (see `rows_through`).
    pub fn row(&mut self, attended: usize, price: impl FnMut(usize) -> R) -> R {
        self.rows_through(attended, price)[attended]
    }

    /// Forgets every row (the function that filled them changed).
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

impl<R: Copy> Default for StageTimeTable<R> {
    fn default() -> StageTimeTable<R> {
        StageTimeTable::new()
    }
}

/// Builds pipeline reports for a model + trace at a chosen granularity.
#[derive(Debug, Clone)]
pub struct PipelineScheduler<'a, T: StageTimeModel> {
    model: &'a ModelConfig,
    times: &'a T,
}

impl<'a, T: StageTimeModel> PipelineScheduler<'a, T> {
    /// Creates a scheduler for `model` with hardware stage times `times`.
    pub fn new(model: &'a ModelConfig, times: &'a T) -> Self {
        PipelineScheduler { model, times }
    }

    /// Total number of pipeline stages (6 stages per transformer block).
    pub(crate) fn num_stages(&self) -> usize {
        STAGES_PER_BLOCK * self.model.blocks
    }

    /// Runs the trace at the requested granularity.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is invalid for the model (plain TGP on a
    /// bidirectional-mask model).
    pub fn run(&self, trace: &Trace, granularity: Granularity) -> PipelineReport {
        assert!(granularity.is_valid_for(self.model), "{granularity} is not valid for {}", self.model.name);
        match granularity {
            Granularity::Sequence => self.run_sequence_grained(trace),
            Granularity::Token => self.run_token_grained(trace, 0.0),
            Granularity::TokenWithBlock => {
                let extra = self.blocking_bubble_s(trace);
                self.run_token_grained(trace, extra)
            }
        }
    }

    fn stage_kind(stage_index: usize) -> StageKind {
        StageKind::ALL[stage_index % STAGES_PER_BLOCK]
    }

    /// Sequence-grained: exact pipeline recurrence over requests.
    fn run_sequence_grained(&self, trace: &Trace) -> PipelineReport {
        let stages = self.num_stages();
        let units = trace.len();
        let seq_time = |unit: usize, stage: usize| -> f64 {
            let req = &trace.requests[unit];
            let kind = Self::stage_kind(stage);
            // The stage first streams the prompt (context grows from 1 to
            // prompt_len) and then the decode tokens (context keeps growing).
            self.times.sequence_time_s(kind, req.prompt_len, 0)
                + self.times.sequence_time_s(kind, req.decode_len, req.prompt_len)
        };
        let (makespan, busy) = simulate_exact(units, stages, seq_time);
        PipelineReport {
            makespan_s: makespan,
            stage_busy_s: Self::fold_stage_busy(&busy),
            num_stages: stages,
            units,
            total_tokens: trace.total_tokens(),
            output_tokens: trace.total_decode_tokens(),
        }
    }

    /// Token-grained: streaming estimate over the token stream, with an
    /// optional extra serial bubble (used by the blocked encoder variant).
    fn run_token_grained(&self, trace: &Trace, extra_bubble_s: f64) -> PipelineReport {
        let stages = self.num_stages();
        let mut kind_totals = [0.0f64; STAGES_PER_BLOCK];
        let mut first_token_times = [0.0f64; STAGES_PER_BLOCK];
        let mut first = true;
        let mut table = StageTimeTable::new();
        let rows = table.rows_through(trace.max_total_tokens(), |attended| {
            StageKind::ALL.map(|k| self.times.token_time_s(k, attended))
        });
        for req in &trace.requests {
            // Token `t` of a request attends to `t + 1` positions.
            for row in &rows[1..=req.total_tokens()] {
                for (k, &time) in row.iter().enumerate() {
                    kind_totals[k] += time;
                    if first {
                        first_token_times[k] = time;
                    }
                }
                first = false;
            }
        }
        // Every block repeats the same six stage kinds and every stage of
        // every block sees every token, so each stage's total busy time is
        // its kind's total.
        let stage_totals: Vec<f64> = (0..stages).map(|s| kind_totals[s % STAGES_PER_BLOCK]).collect();
        let firsts: Vec<f64> = (0..stages).map(|s| first_token_times[s % STAGES_PER_BLOCK]).collect();
        let (mut makespan, busy) = estimate_streaming(&stage_totals, &firsts);
        makespan += extra_bubble_s;
        PipelineReport {
            makespan_s: makespan,
            stage_busy_s: Self::fold_stage_busy(&busy),
            num_stages: stages,
            units: trace.total_tokens() as usize,
            total_tokens: trace.total_tokens(),
            output_tokens: trace.total_decode_tokens(),
        }
    }

    /// Extra serial time introduced by sequence-level blocking of the
    /// attention stages (§4.2.2): a newly scheduled sequence only bubbles the
    /// pipeline when it is longer than every previously scheduled sequence,
    /// by the length differential.
    fn blocking_bubble_s(&self, trace: &Trace) -> f64 {
        let mut running_max = 0usize;
        let mut bubble_tokens = 0usize;
        for req in &trace.requests {
            let len = req.total_tokens();
            if len > running_max {
                bubble_tokens += len - running_max;
                running_max = len;
            }
        }
        // Each bubbled token stalls the attention stages for roughly one
        // bottleneck token-slot.
        let bottleneck = StageKind::ALL
            .iter()
            .map(|&k| self.times.token_time_s(k, running_max.max(1)))
            .fold(0.0f64, f64::max);
        bubble_tokens as f64 * bottleneck
    }

    /// Folds the per-stage busy times (6 × blocks entries) into six per-kind
    /// totals summed across blocks.
    fn fold_stage_busy(busy: &[f64]) -> Vec<f64> {
        let mut folded = vec![0.0f64; STAGES_PER_BLOCK];
        for (s, b) in busy.iter().enumerate() {
            folded[s % STAGES_PER_BLOCK] += b;
        }
        folded
    }

    /// Bytes of intermediate-activation buffering required per stage at the
    /// given granularity, for the trace's longest request.
    #[cfg(test)]
    pub(crate) fn activation_buffer_bytes(&self, trace: &Trace, granularity: Granularity) -> u64 {
        let tokens = granularity.activation_tokens_per_stage(trace.max_total_tokens()) as u64;
        tokens * self.model.activation_bytes_per_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use ouro_workload::{LengthConfig, TraceGenerator};

    /// A trivially simple stage-time model: a constant time per token for
    /// non-attention stages plus a per-attended-position increment for
    /// attention stages. It prices the pipeline in isolation from real
    /// hardware.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ConstantStageTimes {
        /// Base seconds per token per stage.
        base_s: f64,
        /// Additional seconds per attended position in the attention stages.
        per_context_s: f64,
    }

    impl StageTimeModel for ConstantStageTimes {
        fn token_time_s(&self, kind: StageKind, attended: usize) -> f64 {
            if kind.scales_with_context() {
                self.base_s + self.per_context_s * attended as f64
            } else {
                self.base_s
            }
        }
    }

    fn constant() -> ConstantStageTimes {
        ConstantStageTimes { base_s: 1e-6, per_context_s: 1e-9 }
    }

    fn small_llama() -> ModelConfig {
        // A LLaMA-shaped model with few blocks so exact simulation stays fast.
        ModelConfig { blocks: 4, ..zoo::llama_13b() }
    }

    #[test]
    fn tgp_outperforms_sequence_grained_on_variable_lengths() {
        let model = small_llama();
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(11).generate(&LengthConfig::wikitext2_like(), 40);
        let seq = sched.run(&trace, Granularity::Sequence);
        let tok = sched.run(&trace, Granularity::Token);
        assert!(
            tok.makespan_s < seq.makespan_s,
            "TGP {} should beat sequence-grained {}",
            tok.makespan_s,
            seq.makespan_s
        );
        assert!(tok.bubble_fraction() < seq.bubble_fraction());
    }

    #[test]
    fn tgp_and_sequence_converge_for_uniform_single_request_stream() {
        // With one request there is no imbalance to exploit; the two
        // granularities should be within the pipeline-fill difference.
        let model = small_llama();
        let times = ConstantStageTimes { base_s: 1e-6, per_context_s: 0.0 };
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(1).generate(&LengthConfig::fixed(64, 64), 1);
        let seq = sched.run(&trace, Granularity::Sequence);
        let tok = sched.run(&trace, Granularity::Token);
        // Token-grained can only be faster.
        assert!(tok.makespan_s <= seq.makespan_s * 1.01);
    }

    #[test]
    fn tgp_utilization_is_near_one_for_long_streams() {
        let model = small_llama();
        let times = ConstantStageTimes { base_s: 1e-6, per_context_s: 0.0 };
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(2).generate(&LengthConfig::fixed(32, 32), 200);
        let rep = sched.run(&trace, Granularity::Token);
        assert!(rep.utilization() > 0.95, "got {}", rep.utilization());
    }

    #[test]
    fn sequence_grained_bubbles_grow_with_length_variability() {
        let model = small_llama();
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let uniform = TraceGenerator::new(3).generate(&LengthConfig::fixed(256, 256), 30);
        let variable = TraceGenerator::new(3).generate(&LengthConfig::wikitext2_like(), 30);
        let u = sched.run(&uniform, Granularity::Sequence);
        let v = sched.run(&variable, Granularity::Sequence);
        assert!(
            v.bubble_fraction() > u.bubble_fraction(),
            "variable {} vs uniform {}",
            v.bubble_fraction(),
            u.bubble_fraction()
        );
    }

    #[test]
    fn plain_tgp_panics_on_encoder_models() {
        let model = zoo::bert_large();
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(4).generate(&LengthConfig::fixed(128, 0), 4);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sched.run(&trace, Granularity::Token)));
        assert!(result.is_err());
    }

    #[test]
    fn blocked_tgp_close_to_plain_tgp_for_decoders() {
        // §6.4: decoder models lose only ~5% with blocking enabled.
        let model = small_llama();
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(5).generate(&LengthConfig::wikitext2_like(), 60);
        let plain = sched.run(&trace, Granularity::Token);
        let blocked = sched.run(&trace, Granularity::TokenWithBlock);
        let ratio = blocked.makespan_s / plain.makespan_s;
        assert!((1.0..1.15).contains(&ratio), "got {ratio}");
    }

    #[test]
    fn blocked_tgp_beats_sequence_grained_for_encoders() {
        // §6.4: TGP-with-block is far better than sequence granularity.
        let model = ModelConfig { blocks: 4, ..zoo::bert_large() };
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(6).generate(&LengthConfig::wikitext2_like(), 40);
        let seq = sched.run(&trace, Granularity::Sequence);
        let blocked = sched.run(&trace, Granularity::TokenWithBlock);
        assert!(blocked.makespan_s < seq.makespan_s);
    }

    #[test]
    fn activation_buffer_shrinks_under_tgp() {
        let model = small_llama();
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(7).generate(&LengthConfig::fixed(1024, 1024), 4);
        let seq = sched.activation_buffer_bytes(&trace, Granularity::Sequence);
        let tok = sched.activation_buffer_bytes(&trace, Granularity::Token);
        assert_eq!(seq / tok, 2048);
    }

    #[test]
    fn finest_granularity_runs_for_causal_and_bidirectional_models() {
        let llama = small_llama();
        let bert = ModelConfig { blocks: 2, ..zoo::bert_large() };
        let times = constant();
        let trace = TraceGenerator::new(8).generate(&LengthConfig::fixed(64, 32), 8);
        let l = PipelineScheduler::new(&llama, &times).run(&trace, Granularity::finest_for(&llama));
        let b = PipelineScheduler::new(&bert, &times).run(&trace, Granularity::finest_for(&bert));
        assert!(l.makespan_s > 0.0 && b.makespan_s > 0.0);
    }

    #[test]
    fn stage_time_table_evaluates_each_length_once() {
        let calls = std::cell::Cell::new(Vec::new());
        let price = |attended: usize| {
            let mut seen = calls.take();
            seen.push(attended);
            calls.set(seen);
            constant().token_time_s(StageKind::Score, attended)
        };
        let mut table = StageTimeTable::new();
        assert_eq!(table.row(3, price), constant().token_time_s(StageKind::Score, 3));
        assert_eq!(table.rows_through(5, price).len(), 6);
        assert_eq!(table.row(2, price), constant().token_time_s(StageKind::Score, 2));
        assert_eq!(calls.take(), [0, 1, 2, 3, 4, 5], "each length once, in order");
        table.clear();
        table.row(1, price);
        assert_eq!(calls.take(), [0, 1], "a cleared table re-evaluates");
    }

    #[test]
    fn throughput_reported_in_output_tokens() {
        let model = small_llama();
        let times = constant();
        let sched = PipelineScheduler::new(&model, &times);
        let trace = TraceGenerator::new(9).generate(&LengthConfig::fixed(128, 128), 16);
        let rep = sched.run(&trace, Granularity::Token);
        assert_eq!(rep.output_tokens, 16 * 128);
        assert!(rep.output_tokens_per_s() > 0.0);
    }
}
