#![warn(missing_docs)]

//! # eim-imm
//!
//! The Influence Maximization via Martingales (IMM) framework of Tang,
//! Shi & Xiao (SIGMOD '15) — the algorithmic skeleton every implementation
//! in this workspace (CPU, eIM, gIM, cuRipples) instantiates:
//!
//! 1. **Estimate theta** ([`bounds`], [`run_imm`]): iteratively halve a
//!    guess `x = n / 2^i`, sampling `lambda' / x` RRR sets each round, until
//!    the greedy seed set covers enough of them; derive the lower bound `LB`
//!    and the final requirement `theta = lambda* / LB`.
//! 2. **Sample** ([`ImmEngine::extend_to`]): generate RRR sets up to `theta`.
//! 3. **Select seeds** ([`select_seeds`]): greedy max-coverage over the
//!    collected sets.
//!
//! The RRR sets live in an [`RrrSets`] store — plain (`u32` flat array) or
//! log-encoded ([`PackedRrrStore`], the paper's §3.1 layout: one flat packed
//! array `R`, an offset array `O`, a count array `C`).
//!
//! [`CpuEngine`] is the reference backend (serial or rayon-parallel — the
//! Ripples-style CPU baseline); the GPU-model backends live in `eim-core`
//! and `eim-baselines`.

pub mod bounds;
mod checkpoint;
mod config;
mod engine;
mod martingale;
mod recovery;
mod rrrstore;
mod selection;
mod source_elim;
mod spill;
pub mod streaming;

pub use checkpoint::{
    run_fingerprint, store_digest, CheckpointPhase, Checkpointing, DeviceManifest, EngineManifest,
    RunCheckpoint, CHECKPOINT_FILE,
};
pub use config::ImmConfig;
pub use engine::{CpuEngine, CpuParallelism};
pub use martingale::{
    run_imm, run_imm_checkpointed, run_imm_recovering, run_imm_traced, EngineError, Eviction,
    ImmEngine, ImmResult, PhaseBreakdown,
};
pub use recovery::{MartingaleCheckpoint, RecoveryMode, RecoveryPolicy, RecoveryReport};
pub use rrrstore::{AnyRrrStore, PackedRrrStore, PlainRrrStore, RrrSets, RrrStoreBuilder};
pub use selection::{select_seeds, select_seeds_with_gains, Selection};
pub use source_elim::apply_source_elimination;
pub use spill::PackedRrrBatch;
pub use streaming::{
    run_stream, HostResampler, Resampler, StreamCheckpoint, StreamCheckpointing, StreamRunResult,
    StreamingImmEngine, UpdateReport,
};
