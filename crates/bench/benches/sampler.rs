//! RRR-sampling throughput: the eIM device sampler (global-memory queue)
//! on plain vs packed graphs, with and without source elimination, against
//! the CPU reference sampler. Ablation #1 of DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eim_bitpack::PackedCsc;
use eim_core::sampler::sample_batch;
use eim_core::{PackedDeviceGraph, PlainDeviceGraph};
use eim_diffusion::DiffusionModel;
use eim_gpusim::{Device, DeviceSpec};
use eim_graph::{generators, Graph, WeightModel};
use eim_imm::{CpuEngine, CpuParallelism, ImmConfig, ImmEngine};

fn graph() -> Graph {
    generators::rmat(
        20_000,
        160_000,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        9,
    )
}

fn bench_device_sampler(c: &mut Criterion) {
    let g = graph();
    let plain = PlainDeviceGraph::new(&g);
    let packed = PackedDeviceGraph::new(PackedCsc::from_graph(&g));
    let device = Device::new(DeviceSpec::rtx_a6000());
    let batch = 4_096usize;
    let mut group = c.benchmark_group("sampler/device_ic");
    group.throughput(criterion::Throughput::Elements(batch as u64));
    group.bench_function(BenchmarkId::new("plain", batch), |b| {
        b.iter(|| {
            black_box(sample_batch(
                &device,
                &plain,
                DiffusionModel::IndependentCascade,
                7,
                0,
                batch,
                false,
            ))
        })
    });
    group.bench_function(BenchmarkId::new("packed", batch), |b| {
        b.iter(|| {
            black_box(sample_batch(
                &device,
                &packed,
                DiffusionModel::IndependentCascade,
                7,
                0,
                batch,
                false,
            ))
        })
    });
    group.bench_function(BenchmarkId::new("packed+elim", batch), |b| {
        b.iter(|| {
            black_box(sample_batch(
                &device,
                &packed,
                DiffusionModel::IndependentCascade,
                7,
                0,
                batch,
                true,
            ))
        })
    });
    group.finish();
}

fn bench_cpu_sampler(c: &mut Criterion) {
    let g = graph();
    let batch = 4_096usize;
    let cfg = ImmConfig::paper_default()
        .with_k(1)
        .with_epsilon(0.5)
        .with_packed(false)
        .with_source_elimination(false);
    let mut group = c.benchmark_group("sampler/cpu_ic");
    group.throughput(criterion::Throughput::Elements(batch as u64));
    for (name, par) in [
        ("serial", CpuParallelism::Serial),
        ("rayon", CpuParallelism::Rayon),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut e = CpuEngine::new(&g, cfg, par);
                e.extend_to(batch).unwrap();
                black_box(e.store().num_sets())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_device_sampler, bench_cpu_sampler
}
criterion_main!(benches);
