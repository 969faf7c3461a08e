//! Device-capacity behaviour across engines — the mechanism behind the
//! OOM cells of Tables 2-5 and cuRipples' "scales but slowly" story.

use eim::baselines::{CuRipplesEngine, GimEngine, HostSpec};
use eim::core::{EimEngine, ScanStrategy};
use eim::gpusim::{Device, DeviceSpec};
use eim::graph::generators;
use eim::imm::{run_imm, EngineError, ImmConfig};
use eim::prelude::*;

fn graph() -> Graph {
    generators::rmat(
        1_500,
        12_000,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        31,
    )
}

fn config() -> ImmConfig {
    ImmConfig::paper_default()
        .with_k(10)
        .with_epsilon(0.1)
        .with_seed(5)
}

/// Smallest device (in MB steps) on which the closure completes.
fn min_viable_mb(run: impl Fn(usize) -> bool) -> usize {
    for mb in 1..=256 {
        if run(mb << 20) {
            return mb;
        }
    }
    257
}

/// Log encoding and source elimination each lower the OOM onset. The
/// packed-vs-plain pair holds source elimination on, so the gap it shows is
/// the store and graph layout alone: the residency gate on real sampler
/// output.
#[test]
fn eim_defaults_survive_smaller_devices_than_stripped_eim() {
    let g = graph();
    let onset = |c: ImmConfig| {
        min_viable_mb(|mem| {
            EimEngine::new(
                &g,
                c,
                Device::new(DeviceSpec::rtx_a6000_with_mem(mem)),
                ScanStrategy::ThreadPerSet,
            )
            .and_then(|mut e| run_imm(&mut e, &c))
            .is_ok()
        })
    };
    let full = onset(config());
    let plain = onset(config().with_packed(false));
    let stripped = onset(config().with_packed(false).with_source_elimination(false));
    assert!(
        full < plain,
        "packed eIM needs {full} MB, plain eIM needs {plain} MB"
    );
    assert!(
        full < stripped,
        "eIM defaults need {full} MB, stripped needs {stripped} MB"
    );
}

#[test]
fn gim_needs_more_memory_than_eim() {
    let g = graph();
    let eim_mb = min_viable_mb(|mem| {
        let c = config();
        EimEngine::new(
            &g,
            c,
            Device::new(DeviceSpec::rtx_a6000_with_mem(mem)),
            ScanStrategy::ThreadPerSet,
        )
        .and_then(|mut e| run_imm(&mut e, &c))
        .is_ok()
    });
    let gim_mb = min_viable_mb(|mem| {
        let c = config().with_packed(false).with_source_elimination(false);
        GimEngine::new(&g, c, Device::new(DeviceSpec::rtx_a6000_with_mem(mem)))
            .and_then(|mut e| run_imm(&mut e, &c))
            .is_ok()
    });
    assert!(gim_mb > eim_mb, "gIM {gim_mb} MB vs eIM {eim_mb} MB");
}

#[test]
fn curipples_survives_where_gim_ooms() {
    let g = graph();
    let c = config().with_packed(false).with_source_elimination(false);
    // Pick a capacity just above cuRipples' floor (graph + scratch only)
    // but below gIM's needs.
    let floor = min_viable_mb(|mem| {
        CuRipplesEngine::new(
            &g,
            c,
            Device::new(DeviceSpec::rtx_a6000_with_mem(mem)),
            HostSpec::default(),
        )
        .and_then(|mut e| run_imm(&mut e, &c))
        .is_ok()
    });
    let mem = (floor + 1) << 20;
    let cu_ok = CuRipplesEngine::new(
        &g,
        c,
        Device::new(DeviceSpec::rtx_a6000_with_mem(mem)),
        HostSpec::default(),
    )
    .and_then(|mut e| run_imm(&mut e, &c))
    .is_ok();
    assert!(cu_ok);
    let gim = GimEngine::new(&g, c, Device::new(DeviceSpec::rtx_a6000_with_mem(mem)))
        .and_then(|mut e| run_imm(&mut e, &c));
    assert!(
        matches!(gim, Err(EngineError::OutOfMemory { .. })),
        "expected gIM OOM at {} MB",
        mem >> 20
    );
}

#[test]
fn oom_error_carries_capacity_context() {
    let g = graph();
    let c = config();
    let err = EimEngine::new(
        &g,
        c,
        Device::new(DeviceSpec::rtx_a6000_with_mem(64 << 10)),
        ScanStrategy::ThreadPerSet,
    )
    .err()
    .expect("64 KB cannot hold the graph");
    match err {
        EngineError::OutOfMemory {
            requested,
            in_use,
            capacity,
        } => {
            assert_eq!(capacity, 64 << 10);
            assert!(requested > 0);
            // Nothing was resident yet: the graph upload is the first alloc.
            assert_eq!(in_use, 0);
            assert!(requested > capacity - in_use);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}
