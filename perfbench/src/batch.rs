//! Batch workloads: one answer is `EimEngine::new` + `run_imm` on the parsed
//! graph, a fresh simulated device each time.

use std::time::Instant;

use eim_bitpack::PackedCsc;
use eim_core::{EimEngine, ScanStrategy};
use eim_gpusim::MetricsRegistry;
use eim_graph::{Graph, VertexId};
use eim_imm::{run_imm, CpuEngine, CpuParallelism, EngineError, ImmConfig, ImmEngine};

use crate::host;
use crate::input::{self, InputSpec};
use crate::layers::{self, EngineLayers, GpuTotals, TimedEngine};
use crate::stats::median;
use crate::{Report, Run};

/// Everything one answer returns that must repeat exactly: seeds,
/// simulated time, device peak, spread estimate and store counts.
#[derive(Clone, Debug, PartialEq)]
struct Outputs {
    seeds: Vec<VertexId>,
    sim_us: f64,
    peak_bytes: usize,
    spread: f64,
    logical_samples: usize,
    stored_sets: usize,
    store_elements: usize,
    store_bytes: usize,
}

/// Layer readings of one traced answer.
struct Traced {
    new_s: f64,
    run_s: f64,
    engine: EngineLayers,
    gpu: GpuTotals,
    pack_s: f64,
    csc_bytes: usize,
}

impl Traced {
    fn driver_self_s(&self) -> f64 {
        self.run_s - self.engine.sample_s - self.engine.select_s
    }
}

struct Answer {
    wall_s: f64,
    out: Outputs,
    traced: Option<Traced>,
}

fn outputs<E: ImmEngine>(
    engine: &E,
    footprint_peak: usize,
    result: &eim_imm::ImmResult,
) -> Outputs {
    Outputs {
        seeds: result.seeds.clone(),
        sim_us: result.elapsed_us(),
        peak_bytes: footprint_peak,
        spread: result.estimated_spread(engine.n()),
        logical_samples: engine.logical_sets(),
        stored_sets: result.num_sets,
        store_elements: result.total_elements,
        store_bytes: result.store_bytes,
    }
}

fn answer(g: &Graph, cfg: &ImmConfig, traced: bool) -> Result<Answer, EngineError> {
    if !traced {
        let device = layers::device(None, "eim");
        let t = Instant::now();
        let mut engine = EimEngine::new(g, *cfg, device, ScanStrategy::ThreadPerSet)?;
        let result = run_imm(&mut engine, cfg)?;
        let wall_s = t.elapsed().as_secs_f64();
        let out = outputs(&engine, engine.footprint().peak_bytes, &result);
        return Ok(Answer {
            wall_s,
            out,
            traced: None,
        });
    }
    let registry = MetricsRegistry::new();
    let device = layers::device(Some(&registry), "eim");
    let t = Instant::now();
    let engine = EimEngine::new(g, *cfg, device, ScanStrategy::ThreadPerSet)?;
    let new_s = t.elapsed().as_secs_f64();
    let mut engine = TimedEngine::new(engine);
    let t_run = Instant::now();
    let result = run_imm(&mut engine, cfg)?;
    let run_s = t_run.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let out = outputs(&engine, engine.inner.footprint().peak_bytes, &result);
    // Outside the answer: the graph packing `EimEngine::new` performs.
    let t_pack = Instant::now();
    let csc = std::hint::black_box(PackedCsc::from_graph(g));
    let pack_s = t_pack.elapsed().as_secs_f64();
    Ok(Answer {
        wall_s,
        out,
        traced: Some(Traced {
            new_s,
            run_s,
            engine: engine.layers,
            gpu: GpuTotals::read(&registry),
            pack_s,
            csc_bytes: csc.bytes(),
        }),
    })
}

/// One seed's input and the gated reference outputs every answer must
/// reproduce.
struct Subject {
    text: Vec<u8>,
    g: Graph,
    cfg: ImmConfig,
    reference: Outputs,
}

/// Answers repeatedly for `budget_s` seconds and at least `min` times. An
/// answer that errs or whose outputs differ from the reference is failed.
/// After each answer the edge list is parsed once more, outside the
/// answer, so the set-up samples in `parse_s` span the whole run as the
/// answers do.
fn measure(
    s: &Subject,
    budget_s: f64,
    min: usize,
    traced: bool,
    parse_s: &mut Vec<f64>,
    r: &mut Report,
) -> Vec<Answer> {
    let start = Instant::now();
    let mut answers = Vec::new();
    let mut tries = 0;
    while tries < min || start.elapsed().as_secs_f64() < budget_s {
        tries += 1;
        r.attempted += 1;
        match answer(&s.g, &s.cfg, traced) {
            Ok(a) if a.out == s.reference => answers.push(a),
            Ok(a) => r.fail(format!(
                "answer {tries} (traced={traced}) drifted from the gated reference: {:?} vs {:?}",
                a.out, s.reference
            )),
            Err(e) => r.fail(format!("answer {tries} (traced={traced}): {e}")),
        }
        match input::parse(&s.text) {
            Ok((_, secs)) => parse_s.push(secs),
            Err(e) => r.problem(format!("edge list rejected: {e}")),
        }
    }
    answers
}

pub fn run(spec: &InputSpec, run: &Run, r: &mut Report) {
    let text = spec.edge_list(run.seed);
    let (g, first_parse_s) = match input::parse(&text) {
        Ok(parsed) => parsed,
        Err(e) => return r.problem(format!("edge list rejected: {e}")),
    };
    let mut parse_s = vec![first_parse_s];
    let cfg = spec.config(run.seed);
    r.detail("vertices", g.num_vertices() as u64);
    r.detail("edges", g.num_edges() as u64);

    // Warm-up answer: the first query in a process is cold, so it is not
    // timed. It is the correctness gate's subject, and every later answer
    // must reproduce its outputs exactly.
    r.attempted += 1;
    let reference = match answer(&g, &cfg, false) {
        Ok(a) => a.out,
        Err(e) => return r.fail(format!("warm-up answer: {e}")),
    };
    let s = Subject {
        text,
        g,
        cfg,
        reference,
    };

    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let min = if run.trace {
        3
    } else {
        crate::MIN_TIMED_ANSWERS
    };
    let untraced = measure(&s, budget, min, false, &mut parse_s, r);
    let walls: Vec<f64> = untraced.iter().map(|a| a.wall_s).collect();
    r.set("setup_s", median(&parse_s));
    r.set("sim_answer_ms", s.reference.sim_us / 1e3);
    r.set("device_peak_mb", s.reference.peak_bytes as f64 / 1e6);
    r.set("spread_est", s.reference.spread);
    r.answer_times(&walls, &walls);
    r.detail("seeds", s.reference.seeds.clone());
    r.detail(
        "outputs_digest",
        host::digest(&format!("{:?}", s.reference)),
    );
    if run.trace {
        let traced = measure(&s, budget, 3, true, &mut parse_s, r);
        report_layers(&traced, &parse_s, &s.reference, r);
    }
    // The gate runs last so that the peak RSS is the program's alone.
    r.host_peak_rss();
    gate(&s, r);
}

/// The correctness gate: the reference seeds must equal `CpuEngine`
/// (rayon) seeds on the same graph and config. Every answer reproduced the
/// reference, so if the gate fails, every answer failed.
fn gate(s: &Subject, r: &mut Report) {
    let mut cpu = CpuEngine::new(&s.g, s.cfg, CpuParallelism::Rayon);
    let verdict = match run_imm(&mut cpu, &s.cfg) {
        Ok(c) if c.seeds == s.reference.seeds => return,
        Ok(c) => format!(
            "gate: eIM seeds {:?} differ from CpuEngine seeds {:?}",
            s.reference.seeds, c.seeds
        ),
        Err(e) => format!("gate: CpuEngine: {e}"),
    };
    r.failed = r.attempted;
    r.problem(verdict);
}

fn report_layers(traced: &[Answer], parse_s: &[f64], reference: &Outputs, r: &mut Report) {
    let Some(first) = traced.first().and_then(|a| a.traced.as_ref()) else {
        return r.problem("no traced answer succeeded".into());
    };
    for a in traced {
        let t = a.traced.as_ref().expect("traced answer");
        let same = t.gpu == first.gpu
            && t.engine.sample_calls == first.engine.sample_calls
            && t.engine.select_calls == first.engine.select_calls
            && t.engine.sample_sim_us == first.engine.sample_sim_us
            && t.engine.select_sim_us == first.engine.select_sim_us
            && t.csc_bytes == first.csc_bytes;
        if !same {
            r.problem("simulated or count layer metrics drifted between traced answers".into());
            break;
        }
    }
    r.set("graph.parse_s", median(parse_s));
    let layer = |f: &dyn Fn(&Traced) -> f64| -> f64 {
        median(
            &traced
                .iter()
                .map(|a| f(a.traced.as_ref().expect("traced answer")))
                .collect::<Vec<_>>(),
        )
    };
    let logical = reference.logical_samples as f64;
    r.set("bitpack.csc_pack_s", layer(&|t| t.pack_s));
    r.set("bitpack.csc_bytes", first.csc_bytes as f64);
    r.set("core.engine_new_s", layer(&|t| t.new_s));
    r.set("core.sample_s", layer(&|t| t.engine.sample_s));
    r.set("core.sample_calls", first.engine.sample_calls as f64);
    r.set(
        "core.samples_per_s",
        layer(&|t| logical / t.engine.sample_s),
    );
    r.set("core.sample_sim_ms", first.engine.sample_sim_us / 1e3);
    r.set(
        "core.kept_frac",
        reference.stored_sets as f64 / reference.logical_samples as f64,
    );
    r.set("core.select_s", layer(&|t| t.engine.select_s));
    r.set("core.select_calls", first.engine.select_calls as f64);
    r.set("core.select_sim_ms", first.engine.select_sim_us / 1e3);
    r.set("imm.driver_self_s", layer(&|t| t.driver_self_s()));
    r.set("imm.logical_samples", logical);
    r.set("imm.stored_sets", reference.stored_sets as f64);
    r.set("imm.store_elements", reference.store_elements as f64);
    r.set("imm.store_bytes", reference.store_bytes as f64);
    r.gpu(&first.gpu);
    let layer_sums: Vec<f64> = traced
        .iter()
        .map(|a| {
            let t = a.traced.as_ref().expect("traced answer");
            (t.new_s + t.engine.sample_s + t.engine.select_s + t.driver_self_s()) / a.wall_s
        })
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|a| a.wall_s).collect();
    r.trace_accounting(&traced_walls, &layer_sums, layer(&|t| t.driver_self_s()));
}
