//! The streaming workload: one answer is one `StreamingImmEngine::apply_update`
//! batch with a `DeviceResampler`. A pass sets the engine up from the edge
//! list and applies the whole update stream; every pass replays the same
//! stream, so every pass must reproduce the gated first pass exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use eim_bitpack::PackedCsc;
use eim_core::{DeviceResampler, EimEngine, ScanStrategy};
use eim_diffusion::DiffusionModel;
use eim_gpusim::MetricsRegistry;
use eim_graph::generators::{update_stream, UpdateStreamSpec};
use eim_graph::{Graph, GraphDelta, VertexId};
use eim_imm::{run_imm, ImmConfig, RrrSets, StreamingImmEngine};

use crate::host;
use crate::input::{self, InputSpec, WEIGHTS};
use crate::layers::{self, GpuTotals, ProbedResampler, ResampleLayers};
use crate::stats::median;
use crate::{Report, Run};

pub const SPEC: InputSpec = InputSpec {
    dataset: "WV",
    scale: 0.6,
    model: DiffusionModel::IndependentCascade,
    k: 16,
    epsilon: 0.25,
};
const BATCHES: usize = 40;
const EDGES_PER_BATCH: usize = 48;
const INSERT_FRACTION: f64 = 0.5;

/// What one batch returns that must repeat exactly in every pass.
#[derive(Clone, Debug, PartialEq)]
struct Outputs {
    seeds: Vec<VertexId>,
    sim_us: f64,
    spread: f64,
    changed_heads: usize,
    resampled_sets: usize,
    decoded_sets: usize,
    fresh_sets: usize,
    resampled_frac: f64,
}

/// Layer readings of one traced batch.
struct Traced {
    delta_s: f64,
    resample_s: f64,
    resample_sets: u64,
    refresh_s: f64,
    warm_replay_s: f64,
}

struct Batch {
    /// Position in the update stream.
    index: usize,
    wall_s: f64,
    out: Outputs,
    traced: Option<Traced>,
}

impl Batch {
    fn traced(&self) -> &Traced {
        self.traced.as_ref().expect("traced batch")
    }

    /// `apply_update` time not spent in the resampler or the graph delta.
    fn update_self_s(&self) -> f64 {
        let t = self.traced();
        self.wall_s - t.resample_s - t.refresh_s - t.delta_s
    }
}

/// Store counts and device counters at the end of a pass.
#[derive(Clone, Debug, PartialEq)]
struct PassCounts {
    slots: usize,
    stored_sets: usize,
    store_elements: usize,
    store_bytes: usize,
    gpu_per_batch: Option<GpuTotals>,
    csc_bytes: usize,
}

struct Pass {
    setup_s: f64,
    parse_s: f64,
    batches: Vec<Batch>,
    counts: PassCounts,
    pack_s: f64,
}

/// Seeds and device peak of a cold `EimEngine` + `run_imm` on `g`.
fn cold(g: &Graph, cfg: &ImmConfig) -> Result<(Vec<VertexId>, usize), String> {
    let device = layers::device(None, "eim");
    let mut engine =
        EimEngine::new(g, *cfg, device, ScanStrategy::ThreadPerSet).map_err(|e| e.to_string())?;
    let result = run_imm(&mut engine, cfg).map_err(|e| e.to_string())?;
    Ok((result.seeds, engine.footprint().peak_bytes))
}

/// A seed's inputs: the edge list, the update stream, the IMM config and
/// the seed for inserted-edge weights.
struct Inputs {
    text: Vec<u8>,
    deltas: Vec<GraphDelta>,
    cfg: ImmConfig,
    weight_seed: u64,
}

/// One pass over the update stream. With `gate`, the correctness gate
/// runs after the first and last batch and stores the cold engine's device
/// peak there.
fn pass(inputs: &Inputs, traced: bool, mut gate: Option<&mut usize>) -> Result<Pass, String> {
    let Inputs {
        text,
        deltas,
        cfg,
        weight_seed,
    } = inputs;
    let weight_seed = *weight_seed;
    let probe = Rc::new(RefCell::new(ResampleLayers::default()));
    let registry = traced.then(MetricsRegistry::new);
    let device = layers::device(registry.as_ref(), "streaming");

    let t = Instant::now();
    let (g, parse_s) = input::parse(text)?;
    let resampler = ProbedResampler::new(
        DeviceResampler::new(device, &g, cfg.model, cfg.seed),
        probe.clone(),
        traced,
    );
    let mut engine = StreamingImmEngine::new(g, *cfg, WEIGHTS, weight_seed, resampler);
    engine
        .replay()
        .map_err(|e| format!("initial replay: {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();

    let gpu_after_setup = registry.as_ref().map(GpuTotals::read);
    let (pack_s, csc_bytes) = if traced {
        let t = Instant::now();
        let csc = std::hint::black_box(PackedCsc::from_graph(engine.graph()));
        (t.elapsed().as_secs_f64(), csc.bytes())
    } else {
        (0.0, 0)
    };
    let mut shadow = traced.then(|| engine.graph().clone());
    let n = engine.graph().num_vertices() as f64;

    let mut batches = Vec::with_capacity(deltas.len());
    for (i, delta) in deltas.iter().enumerate() {
        let before = *probe.borrow();
        let t = Instant::now();
        let report = engine
            .apply_update(delta)
            .map_err(|e| format!("batch {}: {e}", i + 1))?;
        let wall_s = t.elapsed().as_secs_f64();
        let after = *probe.borrow();
        let out = Outputs {
            seeds: report.result.seeds.clone(),
            sim_us: after.sim_us - before.sim_us,
            spread: n * report.result.coverage,
            changed_heads: report.changed_heads,
            resampled_sets: report.resampled_slots.len(),
            decoded_sets: report.decoded_sets,
            fresh_sets: report.fresh_slots,
            resampled_frac: report.resampled_fraction(),
        };
        let traced = match shadow.as_mut() {
            None => None,
            Some(shadow) => {
                // The same batch on a shadow copy times `Graph::apply_delta`;
                // an extra replay times the warm replay `apply_update` ends
                // with. Both run outside the answer.
                let t = Instant::now();
                shadow.apply_delta(delta, WEIGHTS, weight_seed);
                let delta_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let replay = engine.replay().map_err(|e| format!("warm replay: {e}"))?;
                let warm_replay_s = t.elapsed().as_secs_f64();
                if replay.seeds != out.seeds {
                    return Err(format!("batch {}: warm replay changed the seeds", i + 1));
                }
                Some(Traced {
                    delta_s,
                    resample_s: after.sample_s - before.sample_s,
                    resample_sets: after.sets - before.sets,
                    refresh_s: after.refresh_s - before.refresh_s,
                    warm_replay_s,
                })
            }
        };
        if let Some(gate) = gate.as_deref_mut() {
            if i == 0 || i + 1 == deltas.len() {
                let (seeds, peak) = cold(engine.graph(), cfg)?;
                if seeds != out.seeds {
                    return Err(format!(
                        "gate: batch {}: streaming seeds {:?} differ from a cold EimEngine's {seeds:?}",
                        i + 1,
                        out.seeds
                    ));
                }
                *gate = peak;
            }
        }
        batches.push(Batch {
            index: i,
            wall_s,
            out,
            traced,
        });
    }
    let store = engine.store();
    let counts = PassCounts {
        slots: engine.slots(),
        stored_sets: store.num_sets(),
        store_elements: store.total_elements(),
        store_bytes: store.bytes(),
        gpu_per_batch: registry.as_ref().map(|r| {
            let d = GpuTotals::read(r).since(&gpu_after_setup.expect("traced pass"));
            let per = |x: u64| x / deltas.len().max(1) as u64;
            GpuTotals {
                kernel_launches: per(d.kernel_launches),
                kernel_cycles: per(d.kernel_cycles),
                transfer_bytes: per(d.transfer_bytes),
                mem_peak_bytes: d.mem_peak_bytes,
            }
        }),
        csc_bytes,
    };
    Ok(Pass {
        setup_s,
        parse_s,
        batches,
        counts,
        pack_s,
    })
}

/// Runs passes for `budget_s` seconds and at least `min` times. A pass
/// that errs fails its remaining batches; a batch whose outputs differ
/// from the reference pass's is failed.
fn measure(
    inputs: &Inputs,
    budget_s: f64,
    min: usize,
    traced: bool,
    reference: &Pass,
    r: &mut Report,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut tries = 0;
    while tries < min || start.elapsed().as_secs_f64() < budget_s {
        tries += 1;
        match pass(inputs, traced, None) {
            Ok(p) => {
                r.attempted += p.batches.len() as u64;
                let mut kept = Vec::with_capacity(p.batches.len());
                for (i, (b, want)) in p.batches.into_iter().zip(&reference.batches).enumerate() {
                    if b.out == want.out {
                        kept.push(b);
                    } else {
                        r.fail(format!(
                            "pass {tries} batch {} (traced={traced}) drifted from the gated pass: {:?} vs {:?}",
                            i + 1,
                            b.out,
                            want.out
                        ));
                    }
                }
                passes.push(Pass { batches: kept, ..p });
            }
            Err(e) => {
                r.attempted += BATCHES as u64;
                r.failed += BATCHES as u64;
                r.problem(format!("pass {tries} (traced={traced}): {e}"));
            }
        }
    }
    passes
}

pub fn run(run: &Run, r: &mut Report) {
    let text = SPEC.edge_list(run.seed);
    let g0 = match input::parse(&text) {
        Ok((g, _)) => g,
        Err(e) => return r.problem(format!("edge list rejected: {e}")),
    };
    let deltas = update_stream(
        &g0,
        &UpdateStreamSpec {
            batches: BATCHES,
            edges_per_batch: EDGES_PER_BATCH,
            insert_fraction: INSERT_FRACTION,
            seed: run.seed ^ 0x5eed,
        },
    );
    r.detail("vertices", g0.num_vertices() as u64);
    r.detail("edges", g0.num_edges() as u64);
    r.detail("batches", BATCHES as u64);
    r.detail("edges_per_batch", EDGES_PER_BATCH as u64);
    drop(g0);
    let inputs = Inputs {
        text,
        deltas,
        cfg: SPEC.config(run.seed),
        weight_seed: run.seed,
    };

    // First pass: warm-up and correctness gate, untimed. After the first
    // and the last batch the seeds must equal a cold EimEngine's on the
    // mutated graph; every later pass must reproduce this one exactly.
    let mut cold_peak_bytes = 0;
    r.attempted += BATCHES as u64;
    let reference = match pass(&inputs, false, Some(&mut cold_peak_bytes)) {
        Ok(p) => p,
        Err(e) => {
            r.failed += BATCHES as u64;
            return r.problem(format!("gated pass: {e}"));
        }
    };

    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let min = if run.trace { 1 } else { 2 };
    let untraced = measure(&inputs, budget, min, false, &reference, r);
    let walls: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.batches.iter().map(|b| b.wall_s))
        .collect();
    let setups: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
    let per_batch = |f: &dyn Fn(&Outputs) -> f64| -> Vec<f64> {
        reference.batches.iter().map(|b| f(&b.out)).collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    r.set("setup_s", median(&setups));
    r.set("sim_answer_ms", median(&per_batch(&|o| o.sim_us)) / 1e3);
    r.set("device_peak_mb", cold_peak_bytes as f64 / 1e6);
    r.set("spread_est", median(&per_batch(&|o| o.spread)));
    // Every pass repeats the same batches, so raw samples come in groups
    // of identical work. The tail is taken over the batches instead: each
    // batch's median over the passes, which keeps host stalls out of it.
    let by_batch: Vec<f64> = (0..BATCHES)
        .map(|i| {
            let times: Vec<f64> = untraced
                .iter()
                .flat_map(|p| p.batches.iter().filter(|b| b.index == i))
                .map(|b| b.wall_s)
                .collect();
            median(&times)
        })
        .collect();
    r.answer_times(&walls, &by_batch);
    r.detail(
        "final_seeds",
        reference.batches.last().map(|b| b.out.seeds.clone()),
    );
    let outputs: Vec<&Outputs> = reference.batches.iter().map(|b| &b.out).collect();
    r.detail("outputs_digest", host::digest(&format!("{outputs:?}")));
    if !run.trace {
        return;
    }

    let traced = measure(&inputs, budget, 1, true, &reference, r);
    let Some(first) = traced.first() else {
        return r.problem("no traced pass succeeded".into());
    };
    if traced.iter().any(|p| p.counts != first.counts) {
        r.problem("store or device counters drifted between traced passes".into());
    }
    let batches: Vec<&Batch> = traced.iter().flat_map(|p| &p.batches).collect();
    let layer = |f: &dyn Fn(&Batch) -> f64| -> f64 {
        median(&batches.iter().map(|b| f(b)).collect::<Vec<_>>())
    };
    let c = &first.counts;
    r.set(
        "graph.parse_s",
        median(&untraced.iter().map(|p| p.parse_s).collect::<Vec<_>>()),
    );
    r.set("graph.delta_s", layer(&|b| b.traced().delta_s));
    r.set(
        "bitpack.csc_pack_s",
        median(&traced.iter().map(|p| p.pack_s).collect::<Vec<_>>()),
    );
    r.set("bitpack.csc_bytes", c.csc_bytes as f64);
    r.set("core.resample_s", layer(&|b| b.traced().resample_s));
    r.set(
        "core.resample_sets",
        mean(
            first
                .batches
                .iter()
                .map(|b| b.traced().resample_sets as f64)
                .collect(),
        ),
    );
    r.set("core.resample_refresh_s", layer(&|b| b.traced().refresh_s));
    r.set(
        "core.resample_sim_ms",
        median(&per_batch(&|o| o.sim_us)) / 1e3,
    );
    r.set("imm.logical_samples", c.slots as f64);
    r.set("imm.stored_sets", c.stored_sets as f64);
    r.set("imm.store_elements", c.store_elements as f64);
    r.set("imm.store_bytes", c.store_bytes as f64);
    r.set("imm.stream.update_self_s", layer(&|b| b.update_self_s()));
    r.set(
        "imm.stream.warm_replay_s",
        layer(&|b| b.traced().warm_replay_s),
    );
    r.set(
        "imm.stream.changed_heads",
        mean(per_batch(&|o| o.changed_heads as f64)),
    );
    r.set(
        "imm.stream.resampled_sets",
        mean(per_batch(&|o| o.resampled_sets as f64)),
    );
    r.set(
        "imm.stream.decoded_sets",
        mean(per_batch(&|o| o.decoded_sets as f64)),
    );
    r.set(
        "imm.stream.fresh_sets",
        mean(per_batch(&|o| o.fresh_sets as f64)),
    );
    r.set(
        "imm.stream.resampled_frac",
        mean(per_batch(&|o| o.resampled_frac)),
    );
    if let Some(gpu) = &c.gpu_per_batch {
        r.gpu(gpu);
    }
    let layer_sums: Vec<f64> = batches
        .iter()
        .map(|b| {
            let t = b.traced();
            (t.delta_s + t.refresh_s + t.resample_s + b.update_self_s()) / b.wall_s
        })
        .collect();
    let traced_walls: Vec<f64> = batches.iter().map(|b| b.wall_s).collect();
    r.trace_accounting(&traced_walls, &layer_sums, layer(&|b| b.update_self_s()));
}
