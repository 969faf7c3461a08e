//! Checkpoint / kill / resume, end to end.
//!
//! The contract under test: a run interrupted after any checkpoint and
//! resumed from disk produces the *same bytes* as the uninterrupted run —
//! identical seed sets, sample counts, and (for fault-free runs) a
//! bit-identical simulated clock. The guarantee must hold across store
//! layouts (plain and packed), host thread schedules, and device losses.

use std::path::PathBuf;
use std::process::Command;

use eim::core::MultiGpuEimEngine;
use eim::gpusim::{DeviceSpec, FaultSpec, RunTrace};
use eim::graph::{generators, Graph, WeightModel};
use eim::imm::{
    run_fingerprint, run_imm_checkpointed, run_imm_recovering, run_stream, Checkpointing,
    EngineError, HostResampler, ImmConfig, ImmEngine as _, RecoveryPolicy, RunCheckpoint,
    StreamCheckpoint, StreamCheckpointing, StreamingImmEngine,
};

fn graph() -> Graph {
    generators::rmat(
        400,
        2_400,
        generators::RmatParams::GRAPH500,
        WeightModel::WeightedCascade,
        31,
    )
}

fn config(packed: bool) -> ImmConfig {
    ImmConfig::paper_default()
        .with_k(4)
        .with_epsilon(0.2) // tight enough for several estimation rounds
        .with_seed(17)
        .with_packed(packed)
}

fn engine<'g>(g: &'g Graph, c: ImmConfig) -> MultiGpuEimEngine<'g> {
    MultiGpuEimEngine::new(g, c, DeviceSpec::rtx_a6000_with_mem(256 << 20), 4).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eim-ckpt-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Clean run vs kill-after-first-checkpoint + resume, over
/// {plain, packed} × {1, 4} rayon threads. Seeds, set counts, and the
/// simulated clock must all survive the round trip bit for bit.
#[test]
fn kill_and_resume_reproduce_the_clean_run_exactly() {
    let g = graph();
    for packed in [false, true] {
        let c = config(packed);
        let fp = run_fingerprint(&c, g.num_vertices(), "multigpu", 4);
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (clean, killed_err, resumed) = pool.install(|| {
                let mut e = engine(&g, c);
                let clean =
                    run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
                        .unwrap();
                let clean = (clean.seeds, clean.num_sets, e.elapsed_us().to_bits());

                let dir = temp_dir(&format!("kr-{packed}-{threads}"));
                let mut e = engine(&g, c);
                let killed_err = run_imm_checkpointed(
                    &mut e,
                    &c,
                    &RecoveryPolicy::retry(),
                    &RunTrace::disabled(),
                    &Checkpointing {
                        dir: Some(dir.clone()),
                        resume: None,
                        kill_after: Some(1),
                        fingerprint: fp,
                    },
                )
                .unwrap_err();

                let cp = RunCheckpoint::load(&dir).unwrap();
                let mut e = engine(&g, c);
                let r = run_imm_checkpointed(
                    &mut e,
                    &c,
                    &RecoveryPolicy::retry(),
                    &RunTrace::disabled(),
                    &Checkpointing {
                        dir: Some(dir.clone()),
                        resume: Some(cp),
                        kill_after: None,
                        fingerprint: fp,
                    },
                )
                .unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                let resumed = (
                    r.seeds,
                    r.num_sets,
                    e.elapsed_us().to_bits(),
                    r.recovery.resumes,
                );
                (clean, killed_err, resumed)
            });
            assert!(
                matches!(
                    killed_err,
                    EngineError::Interrupted {
                        checkpoints_written: 1
                    }
                ),
                "packed={packed} threads={threads}: {killed_err}"
            );
            assert_eq!(
                (resumed.0, resumed.1, resumed.2),
                clean,
                "packed={packed} threads={threads}: resume diverged from the clean run"
            );
            assert_eq!(resumed.3, 1, "resume counter");
        }
    }
}

/// A run that loses devices mid-flight, and a kill/resume of that same
/// faulted run, must both return the clean answer byte for byte (timing is
/// allowed to differ — retries and re-sharding cost simulated time).
#[test]
fn device_loss_with_kill_and_resume_preserves_the_answer() {
    let g = graph();
    for packed in [false, true] {
        let c = config(packed);
        let fp = run_fingerprint(&c, g.num_vertices(), "multigpu", 4);
        let clean = {
            let mut e = engine(&g, c);
            let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
                .unwrap();
            (r.seeds, r.num_sets)
        };
        // Deterministic sweep for a plan that kills at least one device but
        // leaves survivors.
        let mut exercised = false;
        for fault_seed in 1..40u64 {
            let spec = FaultSpec::parse(&format!("seed={fault_seed},device_fail=0.02")).unwrap();
            let run = |ckpt: &Checkpointing| {
                let mut e = engine(&g, c).with_faults(&spec);
                run_imm_checkpointed(
                    &mut e,
                    &c,
                    &RecoveryPolicy::retry(),
                    &RunTrace::disabled(),
                    ckpt,
                )
            };
            let full = match run(&Checkpointing::disabled()) {
                Ok(r) => r,
                Err(EngineError::RetriesExhausted { .. }) => continue, // all four died
                Err(e) => panic!("unexpected: {e}"),
            };
            if full.recovery.devices_evicted == 0 {
                continue;
            }
            assert_eq!(
                full.seeds, clean.0,
                "seed={fault_seed}: eviction moved the answer"
            );
            assert_eq!(full.num_sets, clean.1);

            let dir = temp_dir(&format!("loss-{packed}-{fault_seed}"));
            let killed = run(&Checkpointing {
                dir: Some(dir.clone()),
                resume: None,
                kill_after: Some(1),
                fingerprint: fp,
            });
            assert!(matches!(killed, Err(EngineError::Interrupted { .. })));
            let cp = RunCheckpoint::load(&dir).unwrap();
            let resumed = run(&Checkpointing {
                dir: Some(dir.clone()),
                resume: Some(cp),
                kill_after: None,
                fingerprint: fp,
            })
            .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                resumed.seeds, clean.0,
                "seed={fault_seed}: resume moved the answer"
            );
            assert_eq!(resumed.num_sets, clean.1);
            exercised = true;
            break;
        }
        assert!(
            exercised,
            "packed={packed}: no fault seed produced an eviction"
        );
    }
}

/// Straggler windows slow a device down without killing it: answers match
/// the clean run exactly and only the simulated clock moves.
#[test]
fn straggler_run_matches_clean_and_costs_time() {
    let g = graph();
    let c = config(false);
    let (clean, clean_time) = {
        let mut e = engine(&g, c);
        let r = run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled())
            .unwrap();
        ((r.seeds, r.num_sets), e.elapsed_us())
    };
    let spec = FaultSpec::parse("seed=3,straggler=6.0@0:48").unwrap();
    let mut e = engine(&g, c).with_faults(&spec);
    let r =
        run_imm_recovering(&mut e, &c, &RecoveryPolicy::retry(), &RunTrace::disabled()).unwrap();
    assert_eq!((r.seeds, r.num_sets), clean);
    assert!(
        e.elapsed_us() > clean_time,
        "straggler cost no simulated time ({} vs {})",
        e.elapsed_us(),
        clean_time
    );
}

/// A streaming run killed mid-update-stream and resumed from its checkpoint
/// finishes with bit-identical seeds and store bytes. The checkpoint's delta
/// cursor decides where the resume picks up, and its store digest gates the
/// replayed state — both must survive the JSON round trip.
#[test]
fn streaming_kill_and_resume_reproduce_the_clean_run() {
    let g = graph();
    let c = config(false).with_epsilon(0.3);
    let deltas = generators::update_stream(
        &g,
        &generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 10,
            insert_fraction: 0.5,
            seed: 41,
        },
    );
    let fresh = || {
        StreamingImmEngine::new(
            g.clone(),
            c,
            WeightModel::WeightedCascade,
            7,
            HostResampler::new(c.model, c.seed),
        )
    };

    let mut clean_engine = fresh();
    let clean = run_stream(&mut clean_engine, &deltas, &StreamCheckpointing::disabled()).unwrap();
    assert_eq!(clean.len(), deltas.len());

    // Kill after the second checkpoint: the initial run and batch 1 are
    // committed, batches 2..3 are still pending — a genuine mid-stream kill.
    let dir = temp_dir("stream");
    let killed = run_stream(
        &mut fresh(),
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: false,
            kill_after: Some(2),
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            killed,
            EngineError::Interrupted {
                checkpoints_written: 2
            }
        ),
        "{killed}"
    );
    let cp = StreamCheckpoint::load(&dir).unwrap();
    assert_eq!(cp.delta_cursor, 1, "one batch was applied before the kill");

    let mut resumed_engine = fresh();
    let resumed = run_stream(
        &mut resumed_engine,
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap();
    assert_eq!(resumed.len(), deltas.len() - 1, "resume skips batch 1");
    for (r, c_) in resumed.iter().zip(&clean[1..]) {
        assert_eq!(r.batch, c_.batch);
        assert_eq!(r.result, c_.result, "batch {}: resume diverged", r.batch);
        assert_eq!(r.resampled_slots, c_.resampled_slots, "batch {}", r.batch);
    }
    assert_eq!(resumed_engine.store_digest(), clean_engine.store_digest());
    assert_eq!(resumed_engine.delta_cursor(), clean_engine.delta_cursor());

    // A tampered store digest must be refused: the digest field is what
    // proves the deterministic replay reconstructed the checkpointed state.
    let bad = StreamCheckpoint {
        store_digest: cp.store_digest ^ 1,
        ..cp
    };
    bad.save(&dir).unwrap();
    let err = run_stream(
        &mut fresh(),
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::CheckpointMismatch { .. }),
        "{err}"
    );

    // And a mismatched run config must be refused by the fingerprint.
    cp.save(&dir).unwrap();
    let c2 = c.with_k(5);
    let mut other = StreamingImmEngine::new(
        g.clone(),
        c2,
        WeightModel::WeightedCascade,
        7,
        HostResampler::new(c2.model, c2.seed),
    );
    let err = run_stream(
        &mut other,
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::CheckpointMismatch { .. }),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against a shorter update stream than the checkpoint's cursor is
/// a clean [`EngineError::CheckpointMismatch`], not a slice panic. The store
/// digest cannot be relied on to catch this: the missing trailing batches
/// may have been structural no-ops, leaving the digests equal.
#[test]
fn streaming_resume_rejects_a_shorter_stream() {
    let g = graph();
    let c = config(false).with_epsilon(0.3);
    let deltas = generators::update_stream(
        &g,
        &generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 10,
            insert_fraction: 0.5,
            seed: 47,
        },
    );
    let fresh = || {
        StreamingImmEngine::new(
            g.clone(),
            c,
            WeightModel::WeightedCascade,
            7,
            HostResampler::new(c.model, c.seed),
        )
    };
    let dir = temp_dir("stream-short");
    run_stream(
        &mut fresh(),
        &deltas,
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: false,
            kill_after: None,
        },
    )
    .unwrap();
    assert_eq!(StreamCheckpoint::load(&dir).unwrap().delta_cursor, 3);

    let err = run_stream(
        &mut fresh(),
        &deltas[..1],
        &StreamCheckpointing {
            dir: Some(dir.clone()),
            resume: true,
            kill_after: None,
        },
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::CheckpointMismatch {
                expected: 1,
                found: 3
            }
        ),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the same contract through the binary ----

fn eim_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eim"))
}

const CLI_BASE: [&str; 15] = [
    "--dataset",
    "WV",
    "--scale",
    "0.02",
    "--k",
    "4",
    "--eps",
    "0.3",
    "--seed",
    "9",
    "--engine",
    "multigpu",
    "--devices",
    "4",
    "--json",
];

#[test]
fn cli_kill_and_resume_reproduce_the_clean_run() {
    let dir = temp_dir("cli");
    let dir_s = dir.to_str().unwrap();

    let clean = eim_cli().args(CLI_BASE).output().unwrap();
    assert!(clean.status.success());
    let clean_v: serde_json::Value = serde_json::from_slice(&clean.stdout).unwrap();

    let killed = eim_cli()
        .args(CLI_BASE)
        .args(["--checkpoint", dir_s, "--ckpt-kill-after", "1"])
        .output()
        .unwrap();
    assert_eq!(
        killed.status.code(),
        Some(3),
        "interrupted runs exit 3 (resumable): {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    let killed_v: serde_json::Value = serde_json::from_slice(&killed.stdout).unwrap();
    assert_eq!(killed_v["error"]["kind"], "interrupted");
    assert_eq!(killed_v["error"]["checkpoints_written"], 1);

    let resumed = eim_cli()
        .args(CLI_BASE)
        .args(["--checkpoint", dir_s, "--resume"])
        .output()
        .unwrap();
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&resumed.stdout).unwrap();
    assert_eq!(v["seeds"], clean_v["seeds"]);
    assert_eq!(v["rrr_sets"], clean_v["rrr_sets"]);
    assert_eq!(v["simulated_device_ms"], clean_v["simulated_device_ms"]);
    assert_eq!(v["recovery"]["resumes"], 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_resume_requires_a_checkpoint_dir() {
    let out = eim_cli().args(CLI_BASE).arg("--resume").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "usage error");
}

#[test]
fn cli_resume_with_mismatched_config_is_rejected() {
    let dir = temp_dir("cli-mismatch");
    let dir_s = dir.to_str().unwrap();
    let killed = eim_cli()
        .args(CLI_BASE)
        .args(["--checkpoint", dir_s, "--ckpt-kill-after", "1"])
        .output()
        .unwrap();
    assert_eq!(killed.status.code(), Some(3));
    // Same checkpoint, different k: the fingerprint must refuse it.
    let mut args: Vec<&str> = CLI_BASE.to_vec();
    args[5] = "5";
    let out = eim_cli()
        .args(&args)
        .args(["--checkpoint", dir_s, "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}
