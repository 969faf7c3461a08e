//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ic-sample-heavy|lt-select-heavy|stream-updates> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing attached to the
//! program. `--trace 1` measures untraced answers for half the time, then
//! traced answers (layer wrappers plus a device metrics sink) for the other
//! half, and reports the per-layer metrics and the tracing overhead. The
//! last stdout line is the result object; the line before it is the full
//! record with provenance. See `perfbench/README.md` for the workloads.

mod batch;
mod host;
mod input;
mod layers;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::process::ExitCode;

use eim_diffusion::DiffusionModel;
use serde_json::{Map, Value};

use crate::input::InputSpec;
use crate::layers::GpuTotals;
use crate::stats::{median, min_max, tail};

const IC_SAMPLE_HEAVY: InputSpec = InputSpec {
    dataset: "SPR",
    scale: 0.012,
    model: DiffusionModel::IndependentCascade,
    k: 10,
    epsilon: 0.1,
};

const LT_SELECT_HEAVY: InputSpec = InputSpec {
    dataset: "EE",
    scale: 0.08,
    model: DiffusionModel::LinearThreshold,
    k: 100,
    epsilon: 0.1,
};

const WORKLOADS: [&str; 3] = ["ic-sample-heavy", "lt-select-heavy", "stream-updates"];

/// Untimed answers an untraced run takes at least, so the tail has ten
/// samples beyond it.
pub const MIN_TIMED_ANSWERS: usize = stats::TAIL_BEYOND + 1;

/// Largest accepted |layer sum / traced answer - 1|.
const LAYER_SUM_TOLERANCE: f64 = 0.02;

/// Reported with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("answer_s", "s"),
    ("answer_tail_s", "s"),
    ("setup_s", "s"),
    ("sim_answer_ms", "ms"),
    ("device_peak_mb", "MB"),
    ("host_peak_rss_mb", "MB"),
    ("spread_est", "vertices"),
    ("success_rate", "fraction"),
];

/// Reported with `--trace 1`. A layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("graph.parse_s", "s"),
    ("graph.delta_s", "s"),
    ("bitpack.csc_pack_s", "s"),
    ("bitpack.csc_bytes", "bytes"),
    ("core.engine_new_s", "s"),
    ("core.sample_s", "s"),
    ("core.sample_calls", "count"),
    ("core.samples_per_s", "1/s"),
    ("core.sample_sim_ms", "ms"),
    ("core.kept_frac", "fraction"),
    ("core.select_s", "s"),
    ("core.select_calls", "count"),
    ("core.select_sim_ms", "ms"),
    ("core.resample_s", "s"),
    ("core.resample_sets", "count"),
    ("core.resample_refresh_s", "s"),
    ("core.resample_sim_ms", "ms"),
    ("imm.driver_self_s", "s"),
    ("imm.logical_samples", "count"),
    ("imm.stored_sets", "count"),
    ("imm.store_elements", "count"),
    ("imm.store_bytes", "bytes"),
    ("imm.stream.update_self_s", "s"),
    ("imm.stream.warm_replay_s", "s"),
    ("imm.stream.changed_heads", "count"),
    ("imm.stream.resampled_sets", "count"),
    ("imm.stream.decoded_sets", "count"),
    ("imm.stream.fresh_sets", "count"),
    ("imm.stream.resampled_frac", "fraction"),
    ("gpusim.kernel_launches", "count"),
    ("gpusim.kernel_cycles", "cycles"),
    ("gpusim.transfer_bytes", "bytes"),
    ("gpusim.mem_peak_bytes", "bytes"),
    ("trace.answer_s", "s"),
    ("trace.untraced_answer_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_sum_frac", "fraction"),
    ("error_rate", "fraction"),
];

/// One invocation's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured and which checks failed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    details: Map,
    untraced_answer_s: f64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: impl Into<Value>) {
        self.details.insert(key, value);
    }

    /// A failed check that is not an answer of its own.
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: FAILED: {msg}");
        self.problems.push(msg);
    }

    /// A failed answer: an engine error or a failed correctness check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problem(msg);
    }

    /// `answer_s` (median of the untraced `walls`), `answer_tail_s` (over
    /// `tail_samples`) and their sample statistics.
    pub fn answer_times(&mut self, walls: &[f64], tail_samples: &[f64]) {
        let m = median(walls);
        self.untraced_answer_s = m;
        self.set("answer_s", m);
        let (lo, hi) = min_max(walls);
        self.detail("answer_samples", walls.len() as u64);
        self.detail("answer_min_s", lo);
        self.detail("answer_max_s", hi);
        self.detail("answer_tail_samples", tail_samples.len() as u64);
        if let Some((value, pct)) = tail(tail_samples) {
            self.set("answer_tail_s", value);
            self.detail("answer_tail_percentile", pct);
        }
    }

    /// `host_peak_rss_mb` as of now.
    pub fn host_peak_rss(&mut self) {
        let bytes = host::peak_rss_bytes().unwrap_or(0);
        self.set("host_peak_rss_mb", bytes as f64 / 1e6);
    }

    pub fn gpu(&mut self, g: &GpuTotals) {
        self.set("gpusim.kernel_launches", g.kernel_launches as f64);
        self.set("gpusim.kernel_cycles", g.kernel_cycles as f64);
        self.set("gpusim.transfer_bytes", g.transfer_bytes as f64);
        self.set("gpusim.mem_peak_bytes", g.mem_peak_bytes as f64);
    }

    /// Traced answer time, tracing overhead against the untraced answers,
    /// and the check that the layers sum to the traced answer. The
    /// residual layer (`imm.driver_self_s` or `imm.stream.update_self_s`)
    /// must not be negative.
    pub fn trace_accounting(&mut self, traced_walls: &[f64], layer_sums: &[f64], residual: f64) {
        let traced = median(traced_walls);
        let sum_frac = median(layer_sums);
        self.set("trace.answer_s", traced);
        self.set("trace.untraced_answer_s", self.untraced_answer_s);
        self.set("trace.overhead_s", traced - self.untraced_answer_s);
        self.set("trace.layer_sum_frac", sum_frac);
        self.detail("traced_samples", traced_walls.len() as u64);
        if (sum_frac - 1.0).abs() > LAYER_SUM_TOLERANCE {
            self.problem(format!(
                "layers sum to {sum_frac:.4} of the traced answer (tolerance {LAYER_SUM_TOLERANCE})"
            ));
        }
        if residual < 0.0 {
            self.problem(format!("residual layer is negative: {residual:.6} s"));
        }
    }
}

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be in 1..=3600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    match run.workload.as_str() {
        "ic-sample-heavy" => batch::run(&IC_SAMPLE_HEAVY, &run, &mut r),
        "lt-select-heavy" => batch::run(&LT_SELECT_HEAVY, &run, &mut r),
        _ => stream::run(&run, &mut r),
    }
    let attempted = r.attempted.max(1);
    let error_rate = r.failed as f64 / attempted as f64;
    r.set("success_rate", 1.0 - error_rate);
    r.set("error_rate", error_rate);
    if !r.metrics.contains_key("host_peak_rss_mb") {
        r.host_peak_rss();
    }
    let correct = r.problems.is_empty() && r.failed == 0;

    let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Map::new();
    for &(name, unit) in table {
        let mut m = Map::new();
        m.insert("value", r.metrics.get(name).copied().unwrap_or(0.0));
        m.insert("unit", unit);
        metrics.insert(name, m);
    }
    let mut all = Map::new();
    for (&name, &value) in &r.metrics {
        all.insert(name, value);
    }
    let mut record = Map::new();
    record.insert("benchmark", "perfbench");
    record.insert("workload", run.workload.as_str());
    record.insert("seed", run.seed);
    record.insert("seconds", run.seconds);
    record.insert("trace", run.trace);
    record.insert("provenance", host::provenance());
    record.insert("details", Value::Object(r.details));
    record.insert("measured", Value::Object(all));
    record.insert(
        "problems",
        r.problems
            .iter()
            .map(|p| Value::from(p.as_str()))
            .collect::<Vec<_>>(),
    );
    let mut result = Map::new();
    result.insert("correct", correct);
    result.insert("attempted", attempted);
    result.insert("failed", r.failed);
    result.insert("metrics", metrics);
    let mut wrapped = Map::new();
    wrapped.insert("record", record);
    println!(
        "{}",
        serde_json::to_string(&Value::Object(wrapped)).expect("serialize record")
    );
    println!(
        "{}",
        serde_json::to_string(&Value::Object(result)).expect("serialize result")
    );
    ExitCode::SUCCESS
}
