//! `eim-bench` — host wall-clock performance benchmarks with JSON output,
//! plus a randomized fault-injection soak harness.
//!
//! ```text
//! eim-bench perf [OPTIONS]
//!
//! Options:
//!   --json <file>      write results as JSON (default: stdout summary only)
//!   --baseline <file>  embed a previous run's numbers as `before`, mirror
//!                      this run's under `after`, and emit speedups
//!   --smoke            small, CI-sized workloads (seconds, not minutes)
//!   --seed <n>         base RNG seed (default 190)
//!   --no-overlap       force-serialize the devices' copy streams; outputs
//!                      are identical, only simulated time differs
//!   --metrics <file>   write the simulated hardware counters of the
//!                      benchmarked device work in Prometheus text format
//!   --digest <file>    write a deterministic JSON digest of every bench's
//!                      *outputs* (RRR-set/coverage hashes, counters, cycle
//!                      totals, selected seeds) with no wall times — two
//!                      runs at the same seed must produce byte-identical
//!                      digests, which CI checks with `cmp`
//!
//! eim-bench chaos [OPTIONS]
//!
//! Options:
//!   --plans <n>        randomized fault plans to soak (default 12)
//!   --seed <n>         base RNG seed for plan generation (default 190)
//!   --devices <n>      simulated devices per run (default 4)
//!   --json <file>      write the soak summary as JSON
//!   --metrics <file>   write the aggregated device/recovery counters of
//!                      the whole soak in Prometheus text format
//!
//! eim-bench updates [OPTIONS]
//!
//! Options:
//!   --json <file>      write the streaming-vs-recompute report as JSON
//!   --smoke            CI-sized workload
//!   --seed <n>         base RNG seed (default 190)
//!   --metrics <file>   write the per-batch invalidation counters
//!                      (`eim_stream_*`, phase `stream-update`) in
//!                      Prometheus text format
//! ```
//!
//! All `--metrics` files are written atomically (tmp-then-rename), and every
//! JSON report root embeds a `provenance` header (schema version, toolchain,
//! dataset, seed, `git describe`) so checked-in `BENCH_*.json` lineage is
//! self-describing.
//!
//! `perf` measures the host wall-clock hot paths on fixed seeds: RRR-set
//! sampling (`sample_batch`), greedy seed selection (`select_seeds`, and
//! the device engines' priced `select_on_device` on the same store), and an
//! end-to-end `run_imm`. Simulated cycle counts are byte-stable and covered
//! by the test suite; this harness tracks the *real* time the reproduction
//! takes, so performance wins are provable and regressions visible. The checked-in `BENCH_pr3.json` / `BENCH_pr6.json`
//! at the repo root are this tool's output with `--baseline` pointing at a
//! pre-optimization capture; CI's `perf-smoke` job reruns `--smoke` and
//! fails on a >2x regression versus `BENCH_smoke_baseline.json` (>1.5x for
//! the sampler, the fused critical path), and `cmp`s the `--digest` output
//! of two runs.
//!
//! `chaos` generates N deterministic fault plans mixing every injection
//! class (kernel, transfer, device_fail, link_flap, straggler, pressure),
//! runs each against the multi-GPU engine under the retry/evict recovery
//! policy, and asserts the survivors return the clean run's seed set byte
//! for byte with bounded simulated-time overhead. Runs that lose every
//! device must fail with the typed exhaustion error — anything else is a
//! soak failure and a nonzero exit.

use std::path::PathBuf;
use std::time::Instant;

use eim_bitpack::PackedCsc;
use eim_core::sampler::sample_batch;
use eim_core::select::select_on_device;
use eim_core::{EimEngine, MultiGpuEimEngine, PackedDeviceGraph, ScanStrategy};
use eim_diffusion::DiffusionModel;
use eim_gpusim::{
    provenance, write_metrics_file, Device, DeviceSpec, FaultSpec, MetricsRegistry, MetricsSink,
    RunTrace,
};
use eim_graph::{generators, Dataset, WeightModel};
use eim_imm::{
    run_imm, run_imm_recovering, select_seeds, CpuEngine, CpuParallelism, EngineError,
    HostResampler, ImmConfig, ImmEngine as _, PlainRrrStore, RecoveryPolicy, RrrStoreBuilder,
    StreamingImmEngine,
};
use rand::{Rng, SeedableRng};
use serde_json::{Map, Value};

struct Args {
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    smoke: bool,
    seed: u64,
    no_overlap: bool,
    metrics: Option<PathBuf>,
    digest: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        json: None,
        baseline: None,
        smoke: false,
        seed: 190,
        no_overlap: false,
        metrics: None,
        digest: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--baseline" => args.baseline = Some(PathBuf::from(value("--baseline"))),
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--no-overlap" => args.no_overlap = true,
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--digest" => args.digest = Some(PathBuf::from(value("--digest"))),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option {other}");
                usage_and_exit(1);
            }
        }
    }
    args
}

fn usage_and_exit(code: i32) -> ! {
    println!(
        "eim-bench perf  [--json FILE] [--baseline FILE] [--smoke] [--seed N] [--no-overlap] \
         [--metrics FILE] [--digest FILE]\n\
         eim-bench chaos [--plans N] [--seed N] [--devices N] [--json FILE] [--metrics FILE]\n\
         eim-bench updates [--json FILE] [--smoke] [--seed N] [--metrics FILE]"
    );
    std::process::exit(code);
}

struct UpdatesArgs {
    json: Option<PathBuf>,
    smoke: bool,
    seed: u64,
    metrics: Option<PathBuf>,
}

fn parse_updates_args() -> UpdatesArgs {
    let mut args = UpdatesArgs {
        json: None,
        smoke: false,
        seed: 190,
        metrics: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--smoke" => args.smoke = true,
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option {other}");
                usage_and_exit(1);
            }
        }
    }
    args
}

/// `updates`: the streaming-vs-recompute benchmark on the WV stand-in. Each
/// batch of edge updates is applied twice — incrementally (invalidate +
/// patch + warm replay) and as a cold full `run_imm` on the mutated graph —
/// with the seeds byte-compared so the timing comparison is honest. Reports
/// the resampled-set fraction per batch and the patch-vs-recompute wall
/// speedup; CI's `streaming-smoke` job gates both against `BENCH_pr9.json`.
fn run_updates(args: UpdatesArgs) -> ! {
    let (scale, k, eps, batches, edges) = if args.smoke {
        (0.15, 8usize, 0.3, 4usize, 24usize)
    } else {
        (0.6, 16, 0.25, 6, 48)
    };
    let dataset = Dataset::by_abbrev("WV").expect("WV registry entry");
    let g0 = dataset.generate(scale, WeightModel::WeightedCascade, args.seed);
    let config = ImmConfig::paper_default()
        .with_k(k)
        .with_epsilon(eps)
        .with_seed(args.seed)
        .with_packed(false);
    let deltas = generators::update_stream(
        &g0,
        &generators::UpdateStreamSpec {
            batches,
            edges_per_batch: edges,
            insert_fraction: 0.5,
            seed: args.seed ^ 0x5eed,
        },
    );
    println!(
        "eim-bench updates — mode: {}, WV x {scale}, {} vertices / {} edges, \
         {batches} batches x {edges} updates",
        if args.smoke { "smoke" } else { "full" },
        g0.num_vertices(),
        g0.num_edges(),
    );

    let registry = MetricsRegistry::new();
    let stream_sink = if args.metrics.is_some() {
        registry.set_phase("stream-update");
        registry.sink().with_engine("streaming")
    } else {
        MetricsSink::disabled()
    };

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut engine = StreamingImmEngine::new(
        g0.clone(),
        config,
        WeightModel::WeightedCascade,
        args.seed,
        HostResampler::new(config.model, config.seed),
    );
    let t = Instant::now();
    engine.replay().expect("initial replay");
    let initial_ms = ms(t);

    let mut cold_graph = g0.clone();
    let mut rows: Vec<Value> = Vec::new();
    let mut patch_total = 0.0f64;
    let mut recompute_total = 0.0f64;
    let mut fraction_sum = 0.0f64;
    for delta in &deltas {
        let t = Instant::now();
        let report = engine.apply_update(delta).expect("incremental update");
        let patch_ms = ms(t);
        cold_graph.apply_delta(delta, WeightModel::WeightedCascade, args.seed);
        let t = Instant::now();
        let mut cold = CpuEngine::new(&cold_graph, config, CpuParallelism::Rayon);
        let cold_result = run_imm(&mut cold, &config).expect("cold recompute");
        let recompute_ms = ms(t);
        assert_eq!(
            report.result.seeds, cold_result.seeds,
            "batch {}: incremental diverged from cold recompute",
            report.batch
        );
        let fraction = report.resampled_fraction();
        println!(
            "batch {}: resampled {:>6} / {:<6} ({:>5.1}%)  patch {patch_ms:>8.2} ms  \
             recompute {recompute_ms:>8.2} ms  ({:.2}x)",
            report.batch,
            report.resampled_slots.len(),
            report.slots - report.fresh_slots,
            100.0 * fraction,
            recompute_ms / patch_ms,
        );
        patch_total += patch_ms;
        recompute_total += recompute_ms;
        fraction_sum += fraction;
        stream_sink.counter_add("eim_stream_batches_total", &[], 1);
        stream_sink.counter_add(
            "eim_stream_changed_heads_total",
            &[],
            report.changed_heads as u64,
        );
        stream_sink.counter_add(
            "eim_stream_invalidated_slots_total",
            &[],
            report.resampled_slots.len() as u64,
        );
        stream_sink.counter_add(
            "eim_stream_fresh_sets_total",
            &[],
            report.fresh_slots as u64,
        );
        let mut row = Map::new();
        row.insert("batch", Value::from(report.batch));
        row.insert("changed_heads", Value::from(report.changed_heads));
        row.insert("resampled_sets", Value::from(report.resampled_slots.len()));
        row.insert("fresh_sets", Value::from(report.fresh_slots));
        row.insert("slots", Value::from(report.slots));
        row.insert("resampled_fraction", Value::from(fraction));
        row.insert("patch_ms", Value::from(patch_ms));
        row.insert("recompute_ms", Value::from(recompute_ms));
        rows.push(Value::Object(row));
    }
    let n_batches = deltas.len().max(1) as f64;
    let fraction_mean = fraction_sum / n_batches;
    let speedup = recompute_total / patch_total.max(1e-9);
    println!(
        "total: patch {patch_total:.2} ms vs recompute {recompute_total:.2} ms \
         -> {speedup:.2}x; mean resampled fraction {:.1}% (initial build {initial_ms:.2} ms)",
        100.0 * fraction_mean
    );

    if let Some(path) = &args.metrics {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        write_metrics_file(&registry, path).expect("write metrics");
        println!("wrote {}", path.display());
    }

    let mut root = Map::new();
    root.insert("schema", Value::from("eim-bench-updates-v1"));
    root.insert("provenance", provenance(Some("WV"), Some(args.seed)));
    root.insert(
        "mode",
        Value::from(if args.smoke { "smoke" } else { "full" }),
    );
    root.insert("seed", Value::from(args.seed));
    root.insert("dataset", Value::from("WV"));
    root.insert("scale", Value::from(scale));
    root.insert("k", Value::from(k));
    root.insert("epsilon", Value::from(eps));
    root.insert("vertices", Value::from(g0.num_vertices()));
    root.insert("edges", Value::from(g0.num_edges()));
    root.insert("batches", Value::from(batches));
    root.insert("edges_per_batch", Value::from(edges));
    root.insert("initial_ms", Value::from(initial_ms));
    root.insert("checkpoints", Value::Array(rows));
    root.insert("resampled_fraction_mean", Value::from(fraction_mean));
    root.insert("patch_ms_total", Value::from(patch_total));
    root.insert("recompute_ms_total", Value::from(recompute_total));
    root.insert("patch_speedup", Value::from(speedup));
    root.insert("seeds_match", Value::from(true));
    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        std::fs::write(path, text).expect("write json");
        println!("wrote {}", path.display());
    }
    std::process::exit(0);
}

struct ChaosArgs {
    plans: u64,
    seed: u64,
    devices: usize,
    json: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

fn parse_chaos_args() -> ChaosArgs {
    let mut args = ChaosArgs {
        plans: 12,
        seed: 190,
        devices: 4,
        json: None,
        metrics: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match arg.as_str() {
            "--plans" => args.plans = value("--plans").parse().expect("plans"),
            "--seed" => args.seed = value("--seed").parse().expect("seed"),
            "--devices" => args.devices = value("--devices").parse().expect("devices"),
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics"))),
            "--help" | "-h" => usage_and_exit(0),
            other => {
                eprintln!("unknown option {other}");
                usage_and_exit(1);
            }
        }
    }
    assert!(args.devices >= 1, "--devices must be at least 1");
    args
}

/// Workload sizes for one mode. Full mode mirrors the set counts a default
/// `reproduce` sweep reaches on the mid-size networks; smoke mode is sized
/// for CI.
struct Workload {
    /// Selection: vertices in the store.
    sel_n: usize,
    /// Selection: RRR sets in the store.
    sel_sets: usize,
    /// Selection: seeds to pick.
    sel_k: usize,
    /// Sampler: graph vertices / edges.
    smp_n: usize,
    smp_m: usize,
    /// Sampler: sets per batch.
    smp_count: usize,
    /// End-to-end: graph vertices / edges.
    e2e_n: usize,
    e2e_m: usize,
    e2e_k: usize,
    e2e_eps: f64,
    /// Timing repetitions (best-of).
    reps: usize,
}

impl Workload {
    fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                sel_n: 5_000,
                sel_sets: 40_000,
                sel_k: 16,
                smp_n: 5_000,
                smp_m: 30_000,
                smp_count: 8_000,
                e2e_n: 600,
                e2e_m: 3_600,
                e2e_k: 4,
                e2e_eps: 0.3,
                reps: 2,
            }
        } else {
            Self {
                sel_n: 20_000,
                sel_sets: 400_000,
                sel_k: 50,
                smp_n: 20_000,
                smp_m: 120_000,
                smp_count: 50_000,
                e2e_n: 2_000,
                e2e_m: 12_000,
                e2e_k: 8,
                e2e_eps: 0.2,
                reps: 3,
            }
        }
    }
}

/// FNV-1a 64-bit — a tiny dependency-free hash for the `--digest` output.
/// Not cryptographic; it only needs to make accidental output divergence
/// between two runs overwhelmingly visible.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// A store shaped like a reproduce-scale sampling result: heavy-tailed set
/// lengths, ties everywhere.
fn random_store(n: usize, sets: usize, seed: u64) -> PlainRrrStore {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut store = PlainRrrStore::new(n);
    for _ in 0..sets {
        let len = rng.gen_range(1..16);
        let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
        set.sort_unstable();
        set.dedup();
        store.append_set(&set);
    }
    store
}

fn bench_entry(wall_ms: f64, detail: &[(&str, Value)]) -> Value {
    let mut m = Map::new();
    m.insert("wall_ms".to_string(), Value::from(wall_ms));
    for (k, v) in detail {
        m.insert((*k).to_string(), v.clone());
    }
    Value::Object(m)
}

fn run_benches(
    w: &Workload,
    seed: u64,
    overlap: bool,
    metrics: &MetricsSink,
    digests: &mut Map,
) -> Map {
    let mut benches = Map::new();
    // Metrics-only telemetry: the trace recorder stays disabled (no event
    // buffering on the hot paths), but an attached sink still collects the
    // simulated hardware counters of every launch and transfer.
    let make_device = |spec: DeviceSpec| {
        Device::with_run_trace(spec, RunTrace::disabled().with_metrics(metrics.clone()))
            .with_copy_overlap(overlap)
    };

    // Sampler: one big batch on a scale-free graph, over the log-encoded
    // view the eIM engine samples from under `paper_default`.
    let g = generators::rmat(
        w.smp_n,
        w.smp_m,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        seed,
    );
    let dg = PackedDeviceGraph::new(PackedCsc::from_graph(&g));
    let device = make_device(DeviceSpec::rtx_a6000());
    let mut sampled_sets = 0usize;
    let mut last_batch = None;
    let smp_ms = time_ms(w.reps, || {
        let batch = sample_batch(
            &device,
            &dg,
            DiffusionModel::IndependentCascade,
            seed,
            0,
            w.smp_count,
            true,
        )
        .expect("no fault plan");
        sampled_sets = batch.counters.sampled;
        std::hint::black_box(&batch.stats);
        last_batch = Some(batch);
    });
    let batch = last_batch.expect("reps >= 1");
    let mut sets_hash = Fnv::new();
    for slot in batch.sets.iter() {
        match slot {
            Some(set) => {
                sets_hash.byte(1);
                set.iter().for_each(|&v| sets_hash.u32(v));
            }
            None => sets_hash.byte(0),
        }
    }
    let mut cov_hash = Fnv::new();
    batch.coverage.iter().for_each(|&c| cov_hash.u32(c));
    let mut smp_digest = Map::new();
    smp_digest.insert("sets_fnv64".to_string(), Value::from(sets_hash.hex()));
    smp_digest.insert("coverage_fnv64".to_string(), Value::from(cov_hash.hex()));
    smp_digest.insert(
        "sampled".to_string(),
        Value::from(batch.counters.sampled as u64),
    );
    smp_digest.insert(
        "singletons".to_string(),
        Value::from(batch.counters.singletons as u64),
    );
    smp_digest.insert(
        "discarded".to_string(),
        Value::from(batch.counters.discarded as u64),
    );
    smp_digest.insert(
        "total_cycles".to_string(),
        Value::from(batch.stats.total_cycles),
    );
    smp_digest.insert(
        "max_block_cycles".to_string(),
        Value::from(batch.stats.max_block_cycles),
    );
    smp_digest.insert(
        "num_blocks".to_string(),
        Value::from(batch.stats.num_blocks as u64),
    );
    digests.insert("sampler".to_string(), Value::Object(smp_digest));
    drop(batch);
    benches.insert(
        "sampler".to_string(),
        bench_entry(
            smp_ms,
            &[
                ("graph_n", Value::from(w.smp_n as u64)),
                ("graph_m", Value::from(w.smp_m as u64)),
                ("sets", Value::from(sampled_sets as u64)),
            ],
        ),
    );
    println!("sampler        {smp_ms:>10.2} ms   ({sampled_sets} sets)");

    // Selection at reproduce-scale set counts.
    let store = random_store(w.sel_n, w.sel_sets, seed ^ 0x5e1ec7);
    let mut covered = 0usize;
    let mut sel_seeds = Vec::new();
    let sel_ms = time_ms(w.reps, || {
        let sel = select_seeds(&store, w.sel_k);
        covered = sel.covered_sets;
        std::hint::black_box(&sel);
        sel_seeds = sel.seeds;
    });
    let mut sel_digest = Map::new();
    sel_digest.insert(
        "seeds".to_string(),
        Value::from(sel_seeds.iter().map(|&v| v as u64).collect::<Vec<_>>()),
    );
    sel_digest.insert("covered_sets".to_string(), Value::from(covered as u64));
    digests.insert("selection".to_string(), Value::Object(sel_digest));
    benches.insert(
        "selection".to_string(),
        bench_entry(
            sel_ms,
            &[
                ("n", Value::from(w.sel_n as u64)),
                ("sets", Value::from(w.sel_sets as u64)),
                ("k", Value::from(w.sel_k as u64)),
                ("covered_sets", Value::from(covered as u64)),
            ],
        ),
    );
    println!(
        "selection      {sel_ms:>10.2} ms   ({} sets, k={}, covered={covered})",
        w.sel_sets, w.sel_k
    );

    // The device engines' selection (eIM's thread-per-set scan, priced by
    // the simulator) on the same store, timed next to `select_seeds`.
    let sel_device = make_device(DeviceSpec::rtx_a6000());
    let mut dev_sel = None;
    let dev_ms = time_ms(w.reps, || {
        let r = select_on_device(&sel_device, &store, w.sel_k, ScanStrategy::ThreadPerSet);
        std::hint::black_box(&r);
        dev_sel = Some(r);
    });
    let dev_sel = dev_sel.expect("reps >= 1");
    assert_eq!(
        dev_sel.selection.seeds, sel_seeds,
        "device and host seeds agree"
    );
    let mut dev_digest = Map::new();
    dev_digest.insert(
        "total_cycles".to_string(),
        Value::from(dev_sel.total_cycles),
    );
    dev_digest.insert("launches".to_string(), Value::from(dev_sel.launches));
    digests.insert("device_selection".to_string(), Value::Object(dev_digest));
    benches.insert(
        "device_selection".to_string(),
        bench_entry(
            dev_ms,
            &[
                ("n", Value::from(w.sel_n as u64)),
                ("sets", Value::from(w.sel_sets as u64)),
                ("k", Value::from(w.sel_k as u64)),
                (
                    "covered_sets",
                    Value::from(dev_sel.selection.covered_sets as u64),
                ),
            ],
        ),
    );
    println!(
        "device_select  {dev_ms:>10.2} ms   ({} sets, k={}, thread-per-set)",
        w.sel_sets, w.sel_k
    );

    // End-to-end run_imm on the simulated device.
    let eg = generators::rmat(
        w.e2e_n,
        w.e2e_m,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        seed ^ 0xe2e,
    );
    let cfg = ImmConfig::paper_default()
        .with_k(w.e2e_k)
        .with_epsilon(w.e2e_eps)
        .with_seed(seed);
    let mut num_sets = 0usize;
    let mut e2e_seeds = Vec::new();
    let e2e_ms = time_ms(w.reps, || {
        let device = make_device(DeviceSpec::rtx_a6000_with_mem(512 << 20));
        let mut engine =
            EimEngine::new(&eg, cfg, device, ScanStrategy::ThreadPerSet).expect("engine fits");
        let r = run_imm(&mut engine, &cfg).expect("no faults scheduled");
        num_sets = r.num_sets;
        std::hint::black_box(&r.seeds);
        e2e_seeds = r.seeds;
    });
    let mut e2e_digest = Map::new();
    e2e_digest.insert(
        "seeds".to_string(),
        Value::from(e2e_seeds.iter().map(|&v| v as u64).collect::<Vec<_>>()),
    );
    e2e_digest.insert("rrr_sets".to_string(), Value::from(num_sets as u64));
    digests.insert("end_to_end".to_string(), Value::Object(e2e_digest));
    benches.insert(
        "end_to_end".to_string(),
        bench_entry(
            e2e_ms,
            &[
                ("graph_n", Value::from(w.e2e_n as u64)),
                ("k", Value::from(w.e2e_k as u64)),
                ("eps", Value::from(w.e2e_eps)),
                ("rrr_sets", Value::from(num_sets as u64)),
            ],
        ),
    );
    println!("end_to_end     {e2e_ms:>10.2} ms   ({num_sets} sets)");

    benches
}

/// Draws one randomized-but-deterministic fault spec mixing every
/// injection class. Probabilities are kept low enough that most plans
/// leave survivors, high enough that the soak regularly exercises
/// retries, stragglers, flaps, and full device loss.
fn random_fault_spec(rng: &mut rand_chacha::ChaCha8Rng) -> String {
    let mut spec = format!("seed={}", rng.gen::<u64>());
    if rng.gen_bool(0.7) {
        spec.push_str(&format!(",kernel=0.{:02}", rng.gen_range(1..40u32)));
    }
    if rng.gen_bool(0.5) {
        spec.push_str(&format!(",transfer=0.{:02}", rng.gen_range(1..30u32)));
    }
    if rng.gen_bool(0.5) {
        spec.push_str(&format!(",device_fail=0.0{:02}", rng.gen_range(1..30u32)));
    }
    if rng.gen_bool(0.4) {
        spec.push_str(&format!(",link_flap=0.{:02}", rng.gen_range(1..25u32)));
    }
    if rng.gen_bool(0.5) {
        let from = rng.gen_range(0..32u64);
        let len = rng.gen_range(1..64u64);
        let mult = 1.0 + rng.gen_range(1..80u32) as f64 / 10.0;
        spec.push_str(&format!(",straggler={mult}@{from}:{}", from + len));
    }
    if rng.gen_bool(0.3) {
        let from = rng.gen_range(0..32u64);
        let len = rng.gen_range(1..48u64);
        spec.push_str(&format!(
            ",pressure=0.{:02}@{from}:{}",
            rng.gen_range(30..95u32),
            from + len
        ));
    }
    spec
}

/// Ceiling on how much simulated time a surviving chaos run may cost
/// relative to the clean run. Generous — exponential backoff across many
/// retried rounds is expensive by design — but it still catches runaway
/// retry loops and eviction storms.
const CHAOS_MAX_OVERHEAD: f64 = 200.0;

fn run_chaos(args: ChaosArgs) -> ! {
    println!(
        "eim-bench chaos — {} plans, seed {}, {} devices",
        args.plans, args.seed, args.devices
    );
    let g = generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        31,
    );
    let cfg = ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.3)
        .with_seed(args.seed);
    let spec_dev = DeviceSpec::rtx_a6000_with_mem(256 << 20);
    let registry = MetricsRegistry::new();
    // The soak's aggregate trace: device kernels/transfers and recovery
    // actions from every fault plan land in one registry, written out at
    // the end when --metrics asks for it. The clean run stays untraced so
    // the counters describe only the faulted work.
    let trace = if args.metrics.is_some() {
        RunTrace::disabled().with_metrics(registry.sink().with_engine("multigpu"))
    } else {
        RunTrace::disabled()
    };
    let make_engine = || MultiGpuEimEngine::new(&g, cfg, spec_dev, args.devices).expect("fits");
    let make_soak_engine = || {
        MultiGpuEimEngine::with_telemetry(&g, cfg, spec_dev, args.devices, &trace, true)
            .expect("fits")
    };

    let (clean_seeds, clean_sets, clean_time) = {
        let mut e = make_engine();
        let r = run_imm(&mut e, &cfg).expect("clean run");
        (r.seeds, r.num_sets, e.elapsed_us())
    };
    println!("clean          {clean_time:>10.1} us   ({clean_sets} sets, seeds {clean_seeds:?})");

    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed);
    let policy = RecoveryPolicy::retry().with_max_retries(8);
    let mut plans = Vec::new();
    let (mut converged, mut died, mut failures) = (0u64, 0u64, 0u64);
    let (mut evictions, mut redistributed, mut retries) = (0u64, 0u64, 0u64);
    let mut max_overhead: f64 = 1.0;
    for i in 0..args.plans {
        let spec_str = random_fault_spec(&mut rng);
        let spec = FaultSpec::parse(&spec_str).expect("generated specs parse");
        let mut e = make_soak_engine().with_faults(&spec);
        let mut entry = Map::new();
        entry.insert("plan", Value::from(i));
        entry.insert("spec", Value::from(spec_str.clone()));
        match run_imm_recovering(&mut e, &cfg, &policy, &trace) {
            Ok(r) => {
                let overhead = e.elapsed_us() / clean_time;
                let seeds_ok = r.seeds == clean_seeds && r.num_sets == clean_sets;
                let bounded = overhead <= CHAOS_MAX_OVERHEAD;
                if seeds_ok && bounded {
                    converged += 1;
                } else {
                    failures += 1;
                }
                evictions += r.recovery.devices_evicted as u64;
                redistributed += r.recovery.redistributed_sets;
                retries += r.recovery.retries as u64;
                max_overhead = max_overhead.max(overhead);
                entry.insert("outcome", Value::from("converged"));
                entry.insert("seeds_match", Value::from(seeds_ok));
                entry.insert("overhead", Value::from(overhead));
                entry.insert("overhead_bounded", Value::from(bounded));
                entry.insert(
                    "devices_evicted",
                    Value::from(r.recovery.devices_evicted as u64),
                );
                entry.insert("retries", Value::from(r.recovery.retries as u64));
                println!(
                    "plan {i:>3}  converged  overhead {overhead:>7.2}x  evicted {}  \
                     retries {:>3}  {}",
                    r.recovery.devices_evicted,
                    r.recovery.retries,
                    if seeds_ok {
                        "seeds ok"
                    } else {
                        "SEEDS DIVERGED"
                    }
                );
                if !seeds_ok {
                    eprintln!("plan {i}: spec {spec_str:?} changed the answer");
                }
                if !bounded {
                    eprintln!(
                        "plan {i}: spec {spec_str:?} overhead {overhead:.1}x \
                         exceeds {CHAOS_MAX_OVERHEAD}x"
                    );
                }
            }
            Err(EngineError::RetriesExhausted { attempts, .. }) => {
                died += 1;
                entry.insert("outcome", Value::from("retries_exhausted"));
                entry.insert("attempts", Value::from(attempts as u64));
                println!("plan {i:>3}  all devices lost (typed failure, {attempts} attempts)");
            }
            Err(other) => {
                failures += 1;
                entry.insert("outcome", Value::from("unexpected_error"));
                entry.insert("error", Value::from(other.to_string()));
                eprintln!("plan {i}: spec {spec_str:?} unexpected error: {other}");
            }
        }
        plans.push(Value::Object(entry));
    }

    println!(
        "chaos summary  {converged} converged, {died} died typed, {failures} failures; \
         {evictions} evictions, {redistributed} re-sharded sets, {retries} retries, \
         max overhead {max_overhead:.2}x"
    );

    if let Some(path) = &args.metrics {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        write_metrics_file(&registry, path).expect("write metrics");
        println!("wrote {}", path.display());
    }

    if let Some(path) = &args.json {
        let mut root = Map::new();
        root.insert("schema", Value::from("eim-bench-chaos-v1"));
        root.insert("provenance", provenance(None, Some(args.seed)));
        root.insert("seed", Value::from(args.seed));
        root.insert("devices", Value::from(args.devices as u64));
        root.insert(
            "clean_seeds",
            Value::from(clean_seeds.iter().map(|&v| v as u64).collect::<Vec<_>>()),
        );
        root.insert("clean_sets", Value::from(clean_sets as u64));
        root.insert("clean_time_us", Value::from(clean_time));
        root.insert("converged", Value::from(converged));
        root.insert("died_typed", Value::from(died));
        root.insert("failures", Value::from(failures));
        root.insert("evictions", Value::from(evictions));
        root.insert("redistributed_sets", Value::from(redistributed));
        root.insert("retries", Value::from(retries));
        root.insert("max_overhead", Value::from(max_overhead));
        root.insert("plans", Value::from(plans));
        let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        std::fs::write(path, text).expect("write json");
        println!("wrote {}", path.display());
    }

    std::process::exit(if failures == 0 { 0 } else { 1 });
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    match cmd.as_str() {
        "--help" | "-h" => usage_and_exit(0),
        "perf" => {}
        "chaos" => run_chaos(parse_chaos_args()),
        "updates" => run_updates(parse_updates_args()),
        other => {
            eprintln!("unknown subcommand {other:?}");
            usage_and_exit(1);
        }
    }
    let args = parse_args();
    let w = Workload::new(args.smoke);
    println!(
        "eim-bench perf — mode: {}, seed {}",
        if args.smoke { "smoke" } else { "full" },
        args.seed
    );
    let registry = MetricsRegistry::new();
    let sink = if args.metrics.is_some() {
        registry.sink().with_engine("bench")
    } else {
        MetricsSink::disabled()
    };
    let mut digests = Map::new();
    let benches = run_benches(&w, args.seed, !args.no_overlap, &sink, &mut digests);

    let mut root = Map::new();
    root.insert(
        "schema".to_string(),
        Value::from("eim-bench-perf-v2".to_string()),
    );
    root.insert("provenance".to_string(), provenance(None, Some(args.seed)));
    root.insert(
        "mode".to_string(),
        Value::from(if args.smoke { "smoke" } else { "full" }),
    );
    root.insert("seed".to_string(), Value::from(args.seed));
    root.insert("copy_overlap".to_string(), Value::from(!args.no_overlap));
    if let Some(path) = &args.baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
        let base: Value = serde_json::from_str(&text).expect("baseline is JSON");
        let base_benches = base["benches"]
            .as_object()
            .cloned()
            .expect("baseline has benches");
        let mut speedup = Map::new();
        for (name, entry) in benches.iter() {
            let (Some(after), Some(before)) = (
                entry["wall_ms"].as_f64(),
                base_benches
                    .get(name.as_str())
                    .and_then(|b| b["wall_ms"].as_f64()),
            ) else {
                continue;
            };
            let s = before / after;
            speedup.insert(name.clone(), Value::from(s));
            println!("speedup        {s:>10.2} x    ({name}: {before:.2} -> {after:.2} ms)");
        }
        root.insert("before".to_string(), Value::Object(base_benches));
        // The measured post-change numbers, mirrored under an explicit key
        // so before/after reads don't depend on knowing that `benches` is
        // the "after" side of the comparison.
        root.insert("after".to_string(), Value::Object(benches.clone()));
        root.insert("speedup".to_string(), Value::Object(speedup));
    }
    root.insert("benches".to_string(), Value::Object(benches));

    if let Some(path) = &args.metrics {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        write_metrics_file(&registry, path).expect("write metrics");
        println!("wrote {}", path.display());
    }

    if let Some(path) = &args.digest {
        // Deterministic by construction: only simulated quantities and
        // output hashes, no wall times. Two runs at the same seed must
        // write byte-identical files (CI compares them with `cmp`).
        let mut d = Map::new();
        d.insert(
            "schema".to_string(),
            Value::from("eim-bench-digest-v1".to_string()),
        );
        d.insert(
            "mode".to_string(),
            Value::from(if args.smoke { "smoke" } else { "full" }),
        );
        d.insert("seed".to_string(), Value::from(args.seed));
        d.insert("digests".to_string(), Value::Object(digests));
        let text = serde_json::to_string_pretty(&Value::Object(d)).expect("serialize");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        std::fs::write(path, text).expect("write digest");
        println!("wrote {}", path.display());
    }

    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serialize");
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create output dir");
            }
        }
        std::fs::write(path, text).expect("write json");
        println!("wrote {}", path.display());
    }
}
