//! Streaming IMM: incremental RRR maintenance under edge updates.
//!
//! Every engine in the workspace samples set `i` from an RNG stream that is
//! a pure function of `(config.seed, i)` — the invariant the replay and
//! checkpoint machinery already rely on. Streaming exploits it harder: when
//! the graph mutates, a sample changes **iff its traversal crossed a changed
//! in-row**, and reverse-influence traversals scan the full in-row of every
//! vertex they visit. So sample `i` must be redrawn after a batch of edge
//! updates exactly when some changed head `v` (a vertex whose in-row
//! changed) lies in `i`'s *footprint* — the visited-vertex set the sampler
//! produced, which is the stored RRR content plus the source under source
//! elimination. Samples whose footprints miss every changed row are
//! untouched byte for byte, because their `(seed, i)` streams replay the
//! same draws against identical rows.
//!
//! [`StreamingImmEngine`] maintains, across a [`GraphDelta`] stream:
//!
//! * the RRR store (plain or packed) with slot = sample index,
//!   patched in place via the backends' `patch_sets`;
//! * the *postings*: for every vertex, the sorted slot ids whose stored set
//!   contains it — the transpose of the store, so it doubles as the
//!   selection inverted index: the warm replay runs the same CELF core as
//!   [`crate::select_seeds`] on binary-searched posting prefixes, without
//!   decoding a single stored set;
//! * the *source slots*: for every vertex, the slots drawn from it. A
//!   footprint is the stored set plus the source, so the postings and
//!   source slots together map a delta batch to the exact set of
//!   invalidated slots by a union over its changed heads. The source
//!   slots are what covers the source's own in-row when elimination
//!   dropped the source from the stored set.
//!
//! After patching, the martingale driver is replayed arithmetically
//! (identical float ops to [`crate::run_imm`]) with selection restricted to
//! the logical prefix each estimation iteration would have seen; the store
//! only grows when the mutated graph's coverage demands more samples than
//! any earlier run drew. The correctness bar is differential: at every
//! update checkpoint, seeds are byte-identical to a cold full recompute on
//! the mutated graph (`tests/streaming_updates.rs` enforces this across
//! engines, store backends, and thread pools).

use std::path::{Path, PathBuf};

use rand::Rng;
use rayon::prelude::*;

use eim_diffusion::{sample_rng, sample_rrr, DiffusionModel};
use eim_graph::{Graph, GraphDelta, VertexId, WeightModel};

use crate::bounds::{
    adjusted_ell, epsilon_prime, lambda_prime, lambda_star, max_estimation_iterations,
};
use crate::checkpoint::{run_fingerprint, store_digest};
use crate::config::ImmConfig;
use crate::martingale::EngineError;
use crate::rrrstore::{AnyRrrStore, RrrSets, RrrStoreBuilder};
use crate::selection::{lazy_greedy, Selection};

/// Draws RRR samples for explicit `(seed, index)` slots against the current
/// graph. Implementations must return, per index, the source vertex and the
/// full pre-elimination visited footprint (sorted ascending, containing the
/// source) — identical content to what every batch engine stores for the
/// same index, which is what makes incremental seeds match cold engines.
pub trait Resampler {
    /// Label folded into the stream fingerprint.
    fn name(&self) -> &'static str;

    /// The graph mutated; `changed_heads` are the vertices whose in-rows
    /// changed. Device-side implementations refresh their packed rows and
    /// weight thresholds here.
    fn graph_changed(
        &mut self,
        graph: &Graph,
        changed_heads: &[VertexId],
    ) -> Result<(), EngineError>;

    /// Samples the given logical indices against the current graph.
    fn sample(
        &mut self,
        graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError>;
}

/// Host (rayon) resampler: the CPU reference sampler, one deterministic
/// RNG stream per index.
pub struct HostResampler {
    model: DiffusionModel,
    seed: u64,
}

impl HostResampler {
    /// A resampler drawing under `model` from run seed `seed`.
    pub fn new(model: DiffusionModel, seed: u64) -> Self {
        Self { model, seed }
    }
}

impl Resampler for HostResampler {
    fn name(&self) -> &'static str {
        "host"
    }

    fn graph_changed(&mut self, _graph: &Graph, _heads: &[VertexId]) -> Result<(), EngineError> {
        Ok(()) // samples read the graph directly; nothing cached
    }

    fn sample(
        &mut self,
        graph: &Graph,
        indices: &[u64],
    ) -> Result<Vec<(VertexId, Vec<VertexId>)>, EngineError> {
        let n = graph.num_vertices() as u32;
        Ok(indices
            .par_iter()
            .map(|&i| {
                let mut rng = sample_rng(self.seed, i);
                let source: VertexId = rng.gen_range(0..n);
                (source, sample_rrr(graph, self.model, source, &mut rng))
            })
            .collect())
    }
}

/// The martingale replay's outcome at one update checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamRunResult {
    /// The seed set, in selection order — byte-identical to a cold run on
    /// the current graph.
    pub seeds: Vec<VertexId>,
    /// Final coverage fraction over the selected prefix.
    pub coverage: f64,
    /// Kept (non-eliminated) sets in the selected prefix — what a cold
    /// engine's store would hold.
    pub num_sets: usize,
    /// Logical samples the final selection ranged over.
    pub cutoff: usize,
    /// The theoretical requirement `ceil(lambda* / LB)`.
    pub theta: usize,
    /// The coverage lower bound the estimation replay produced.
    pub lower_bound: f64,
}

/// What one [`StreamingImmEngine::apply_update`] did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// 1-based position of this batch in the stream.
    pub batch: u64,
    /// Heads whose in-rows actually changed (net effect).
    pub changed_heads: usize,
    /// Slots the invalidation index marked stale — exactly the slots
    /// redrawn. Sorted ascending.
    pub resampled_slots: Vec<u32>,
    /// Fresh slots appended because the replay needed more samples than any
    /// earlier run had drawn.
    pub fresh_slots: usize,
    /// Stored sets decoded while patching (the redrawn slots' old contents,
    /// read to unindex them). Zero for a no-op batch.
    pub decoded_sets: usize,
    /// Logical slots materialized after the update (including fresh ones).
    pub slots: usize,
    /// The replayed run at this checkpoint.
    pub result: StreamRunResult,
}

impl UpdateReport {
    /// Fraction of the pre-extension sample universe this update redrew —
    /// the headline streaming win when it stays well below 1.
    pub fn resampled_fraction(&self) -> f64 {
        let base = self.slots - self.fresh_slots;
        if base == 0 {
            0.0
        } else {
            self.resampled_slots.len() as f64 / base as f64
        }
    }
}

/// Entries `< cutoff` in an ascending slice — binary search, no decode.
#[inline]
fn below(sorted: &[u32], cutoff: usize) -> usize {
    sorted.partition_point(|&s| (s as usize) < cutoff)
}

/// Inserts `slot` into an ascending vec (no-op if present).
fn insert_sorted(v: &mut Vec<u32>, slot: u32) {
    if let Err(pos) = v.binary_search(&slot) {
        v.insert(pos, slot);
    }
}

/// Removes `slot` from an ascending vec (no-op if absent).
fn remove_sorted(v: &mut Vec<u32>, slot: u32) {
    if let Ok(pos) = v.binary_search(&slot) {
        v.remove(pos);
    }
}

/// Discriminant of a weight model, with any model parameters folded in, so
/// the fingerprint separates every distinct update-weight semantics.
fn weight_model_tag(model: WeightModel) -> u64 {
    match model {
        WeightModel::WeightedCascade => 1,
        WeightModel::Uniform(p) => 2 ^ (p as f64).to_bits().rotate_left(16),
        WeightModel::Trivalency => 3,
        WeightModel::Random => 4,
        WeightModel::Preserve => 5,
    }
}

/// Incremental IMM over an edge-update stream. See the module docs for the
/// invalidation model; construction wires a graph, a config, the weight
/// model driving update-time weight assignment, and a [`Resampler`].
pub struct StreamingImmEngine<R: Resampler> {
    graph: Graph,
    config: ImmConfig,
    weight_model: WeightModel,
    weight_seed: u64,
    resampler: R,
    /// Slot `i` holds sample `i`'s *stored* content (post-elimination);
    /// eliminated slots hold the empty set.
    store: AnyRrrStore,
    /// Per-slot source vertex (sample `i`'s first RNG draw).
    sources: Vec<VertexId>,
    /// Ascending slot ids discarded by source elimination.
    discarded: Vec<u32>,
    /// Per-vertex ascending slot ids whose stored set contains the vertex —
    /// the transpose of the store, and the warm selection index.
    postings: Vec<Vec<u32>>,
    /// Per-vertex ascending slot ids whose source is the vertex. With
    /// `postings` it covers every footprint: a sample's source always
    /// visits (and scans the in-row of) itself, even when elimination
    /// dropped it from the stored set.
    source_slots: Vec<Vec<u32>>,
    /// Update batches applied so far.
    delta_cursor: u64,
    /// The most recent replay, reused verbatim for no-op batches.
    last: Option<StreamRunResult>,
}

impl<R: Resampler> StreamingImmEngine<R> {
    /// A fresh engine owning `graph`. `weight_model` and `weight_seed`
    /// drive weight assignment for inserted edges (see
    /// [`Graph::apply_delta`]); they should match how the graph was built.
    pub fn new(
        graph: Graph,
        config: ImmConfig,
        weight_model: WeightModel,
        weight_seed: u64,
        resampler: R,
    ) -> Self {
        let n = graph.num_vertices();
        config.validate(n);
        Self {
            graph,
            config,
            weight_model,
            weight_seed,
            resampler,
            store: AnyRrrStore::new(n, config.packed),
            sources: Vec::new(),
            discarded: Vec::new(),
            postings: vec![Vec::new(); n],
            source_slots: vec![Vec::new(); n],
            delta_cursor: 0,
            last: None,
        }
    }

    /// The current (mutated) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The patched store. Slot = logical sample index; eliminated slots are
    /// empty (a cold engine would simply not have stored them).
    pub fn store(&self) -> &AnyRrrStore {
        &self.store
    }

    /// Logical samples currently materialized.
    pub fn slots(&self) -> usize {
        self.sources.len()
    }

    /// Update batches applied so far.
    pub fn delta_cursor(&self) -> u64 {
        self.delta_cursor
    }

    /// The most recent replay result, if any run has happened.
    pub fn last_result(&self) -> Option<&StreamRunResult> {
        self.last.as_ref()
    }

    /// Digest of the maintained store (slot-indexed, empties included).
    pub fn store_digest(&self) -> u64 {
        store_digest(&self.store)
    }

    /// Fingerprint binding config, initial-graph size, resampler, weight
    /// model, and weight stream — what a streaming checkpoint must match to
    /// resume. The weight model matters even at cursor zero: resuming under
    /// a different one would silently change update-weight semantics for
    /// every batch applied after the resume.
    pub fn fingerprint(&self) -> u64 {
        let base = run_fingerprint(&self.config, self.graph.num_vertices(), "streaming", 0);
        let mut h = base ^ self.weight_seed.rotate_left(17);
        h ^= weight_model_tag(self.weight_model).wrapping_mul(0x0000_0100_0000_01b3);
        for b in self.resampler.name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Stored (post-elimination) content for a footprint drawn with
    /// `source`: under elimination the source is dropped and sets that
    /// contained nothing else are discarded (stored empty).
    fn stored_of(&self, source: VertexId, footprint: &[VertexId]) -> Vec<VertexId> {
        if !self.config.source_elimination {
            return footprint.to_vec();
        }
        if footprint.len() <= 1 {
            return Vec::new();
        }
        footprint.iter().copied().filter(|&v| v != source).collect()
    }

    /// Indexes a freshly drawn sample's stored set at `slot` into the
    /// postings and bookkeeping (store append/patch is the caller's
    /// business). Only elimination stores an empty set.
    fn index_sample(&mut self, slot: u32, source: VertexId, stored: &[VertexId]) {
        for &v in stored {
            insert_sorted(&mut self.postings[v as usize], slot);
        }
        insert_sorted(&mut self.source_slots[source as usize], slot);
        if stored.is_empty() {
            insert_sorted(&mut self.discarded, slot);
        } else {
            remove_sorted(&mut self.discarded, slot);
        }
    }

    /// Extends the sample universe to `target` logical slots with fresh
    /// draws against the current graph. Returns how many were added.
    fn ensure_slots(&mut self, target: usize) -> Result<usize, EngineError> {
        let have = self.slots();
        if target <= have {
            return Ok(0);
        }
        let indices: Vec<u64> = (have as u64..target as u64).collect();
        let drawn = self.resampler.sample(&self.graph, &indices)?;
        for (offset, (source, footprint)) in drawn.into_iter().enumerate() {
            let slot = (have + offset) as u32;
            self.sources.push(source);
            let stored = self.stored_of(source, &footprint);
            self.store.append_set(&stored);
            self.index_sample(slot, source, &stored);
        }
        Ok(target - have)
    }

    /// Kept (non-eliminated) slots below `cutoff` — the set count a cold
    /// engine's store would report at that logical prefix.
    fn kept_below(&self, cutoff: usize) -> usize {
        cutoff - below(&self.discarded, cutoff)
    }

    /// Greedy max-coverage over the kept multiset of slots `< cutoff`:
    /// [`lazy_greedy`] over the postings cut at the prefix, so it selects
    /// exactly as [`crate::select_seeds`] on a cold store with the same
    /// content. Eliminated slots are in no posting run. Zero store decodes.
    fn select_prefix(&self, cutoff: usize, k: usize) -> Selection {
        let postings = &self.postings;
        let run = |v: usize| &postings[v][..below(&postings[v], cutoff)];
        lazy_greedy(postings.len(), cutoff, self.kept_below(cutoff), k, run).0
    }

    /// Replays the martingale driver against the maintained sample
    /// universe: identical arithmetic to [`crate::run_imm`], with each
    /// estimation iteration selecting over the logical prefix `theta_i` a
    /// cold run would have held. Extends the universe only when the
    /// mutated graph's coverage demands more samples than any earlier run
    /// drew. Returns the run result and caches it for no-op batches.
    pub fn replay(&mut self) -> Result<StreamRunResult, EngineError> {
        let n = self.graph.num_vertices();
        let k = self.config.k;
        let eps = self.config.epsilon;
        let ell = adjusted_ell(self.config.ell, n);
        let lp = lambda_prime(n, k, eps, ell);
        let ls = lambda_star(n, k, eps, ell);
        let eps_p = epsilon_prime(eps);
        let n_f = n as f64;

        let mut lower_bound = f64::NAN;
        let mut last_coverage = 0.0f64;
        let mut cutoff = 0usize;
        for i in 1..=max_estimation_iterations(n) {
            let x = n_f / 2f64.powi(i as i32);
            let theta_i = (lp / x).ceil().max(1.0) as usize;
            self.ensure_slots(theta_i)?;
            cutoff = theta_i;
            let sel = self.select_prefix(theta_i, k);
            last_coverage = sel.coverage_fraction();
            if n_f * last_coverage >= (1.0 + eps_p) * x {
                lower_bound = (n_f * last_coverage / (1.0 + eps_p)).max(1.0);
                break;
            }
        }
        if lower_bound.is_nan() {
            lower_bound = (n_f * last_coverage / (1.0 + eps_p)).max(1.0);
        }

        let theta = (ls / lower_bound).ceil().max(1.0) as usize;
        // Mirror the cold driver's guard: when every estimation sample was
        // eliminated, further sampling cannot add coverage, so the final
        // extension is skipped and selection stays on the estimation prefix.
        if (self.kept_below(cutoff) > 0 || cutoff == 0) && theta > cutoff {
            self.ensure_slots(theta)?;
            cutoff = theta;
        }
        let sel = self.select_prefix(cutoff, k);
        let result = StreamRunResult {
            seeds: sel.seeds.clone(),
            coverage: sel.coverage_fraction(),
            num_sets: sel.num_sets,
            cutoff,
            theta,
            lower_bound,
        };
        self.last = Some(result.clone());
        Ok(result)
    }

    /// The slots a delta would invalidate, computed from the index without
    /// touching the graph: the union of postings and source slots over the
    /// heads whose in-row membership the batch actually changes (net
    /// effect, like [`Graph::apply_delta`]). Sorted ascending.
    pub fn predict_invalidated(&self, delta: &GraphDelta) -> Vec<u32> {
        let mut heads: Vec<VertexId> = delta
            .inserts
            .iter()
            .chain(&delta.deletes)
            .map(|&(_, v)| v)
            .collect();
        heads.sort_unstable();
        heads.dedup();
        let mut out: Vec<u32> = Vec::new();
        for &head in &heads {
            let old: Vec<VertexId> = self.graph.in_neighbors(head).to_vec();
            let mut new: Vec<VertexId> = old
                .iter()
                .copied()
                .filter(|&u| !delta.deletes.contains(&(u, head)))
                .collect();
            for &(u, v) in &delta.inserts {
                if v == head && !new.contains(&u) {
                    new.push(u);
                }
            }
            new.sort_unstable();
            if new != old {
                out.extend_from_slice(&self.postings[head as usize]);
                out.extend_from_slice(&self.source_slots[head as usize]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Applies one update batch: mutates the graph, invalidates exactly the
    /// slots whose footprints crossed a changed in-row, redraws them,
    /// patches the store/postings/histogram in place, and replays the
    /// martingale driver. A batch with no net structural effect is a no-op:
    /// zero decodes, zero resamples, cached result returned.
    pub fn apply_update(&mut self, delta: &GraphDelta) -> Result<UpdateReport, EngineError> {
        let applied = self
            .graph
            .apply_delta(delta, self.weight_model, self.weight_seed);
        self.delta_cursor += 1;
        let batch = self.delta_cursor;
        if applied.changed_heads.is_empty() {
            let result = match &self.last {
                Some(r) => r.clone(),
                None => self.replay()?,
            };
            return Ok(UpdateReport {
                batch,
                changed_heads: 0,
                resampled_slots: Vec::new(),
                fresh_slots: 0,
                decoded_sets: 0,
                slots: self.slots(),
                result,
            });
        }
        self.resampler
            .graph_changed(&self.graph, &applied.changed_heads)?;

        // Invalidate: every footprint holding a changed head.
        let mut stale: Vec<u32> = Vec::new();
        for &head in &applied.changed_heads {
            stale.extend_from_slice(&self.postings[head as usize]);
            stale.extend_from_slice(&self.source_slots[head as usize]);
        }
        stale.sort_unstable();
        stale.dedup();

        let mut decoded_sets = 0usize;
        if !stale.is_empty() {
            let indices: Vec<u64> = stale.iter().map(|&s| s as u64).collect();
            let drawn = self.resampler.sample(&self.graph, &indices)?;
            let mut patches: Vec<(usize, Vec<VertexId>)> = Vec::with_capacity(stale.len());
            for (&slot, (source, footprint)) in stale.iter().zip(drawn) {
                debug_assert_eq!(
                    source, self.sources[slot as usize],
                    "slot {slot}: source is a pure function of (seed, index)"
                );
                decoded_sets += 1;
                for v in self.store.set_members(slot as usize) {
                    remove_sorted(&mut self.postings[v as usize], slot);
                }
                let stored = self.stored_of(source, &footprint);
                self.index_sample(slot, source, &stored);
                patches.push((slot as usize, stored));
            }
            self.store.patch_sets(&patches);
        }

        let before = self.slots();
        let result = self.replay()?;
        Ok(UpdateReport {
            batch,
            changed_heads: applied.changed_heads.len(),
            resampled_slots: stale,
            fresh_slots: self.slots() - before,
            decoded_sets,
            slots: self.slots(),
            result,
        })
    }
}

/// Streaming checkpoint: enough to resume a killed update-stream run by
/// deterministic replay — the fingerprint pins config/graph/resampler, the
/// cursor says how many batches were applied, and the digest proves the
/// regenerated store is the one the checkpoint saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// [`StreamingImmEngine::fingerprint`] of the run that wrote this.
    pub fingerprint: u64,
    /// Update batches applied when the checkpoint was written.
    pub delta_cursor: u64,
    /// Logical slots materialized at that point.
    pub slots: u64,
    /// FNV digest of the slot-indexed store.
    pub store_digest: u64,
}

/// File name inside the checkpoint directory.
const STREAM_CHECKPOINT_FILE: &str = "eim-stream-checkpoint.json";

impl StreamCheckpoint {
    /// Serializes to the checkpoint JSON (format 1).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "format": 1,
            "kind": "eim-stream-checkpoint",
            "fingerprint": self.fingerprint,
            "delta_cursor": self.delta_cursor,
            "slots": self.slots,
            "store_digest": self.store_digest,
        })
    }

    /// Parses the checkpoint JSON.
    pub fn from_json(v: &serde_json::Value) -> Option<Self> {
        if v.get("format")?.as_u64()? != 1 || v.get("kind")?.as_str()? != "eim-stream-checkpoint" {
            return None;
        }
        Some(Self {
            fingerprint: v.get("fingerprint")?.as_u64()?,
            delta_cursor: v.get("delta_cursor")?.as_u64()?,
            slots: v.get("slots")?.as_u64()?,
            store_digest: v.get("store_digest")?.as_u64()?,
        })
    }

    /// Atomically persists into `dir` (write temp, then rename).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!("{STREAM_CHECKPOINT_FILE}.tmp"));
        std::fs::write(&tmp, self.to_json().to_string())?;
        std::fs::rename(tmp, dir.join(STREAM_CHECKPOINT_FILE))
    }

    /// Loads from `dir`, if a well-formed checkpoint exists.
    pub fn load(dir: &Path) -> Option<Self> {
        let raw = std::fs::read_to_string(dir.join(STREAM_CHECKPOINT_FILE)).ok()?;
        Self::from_json(&serde_json::from_str(&raw).ok()?)
    }
}

/// Checkpoint policy for a streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamCheckpointing {
    /// Where checkpoints live; `None` disables checkpointing.
    pub dir: Option<PathBuf>,
    /// Resume from the directory's checkpoint instead of starting cold.
    pub resume: bool,
    /// Deterministic kill: stop with [`EngineError::Interrupted`] after
    /// this many checkpoints written *by this process*.
    pub kill_after: Option<u32>,
}

impl StreamCheckpointing {
    /// No checkpointing at all.
    pub fn disabled() -> Self {
        Self::default()
    }
}

/// Runs `engine` over `deltas` under `ckpt`: an initial cold replay, then
/// one [`StreamingImmEngine::apply_update`] per batch, with a
/// [`StreamCheckpoint`] written after the initial run and after every
/// batch. On resume, the engine re-derives the checkpointed state by
/// deterministic replay (initial run + the first `delta_cursor` batches,
/// no checkpoint writes), digest-verifies the store, then continues.
/// Returns the per-batch reports of everything this call executed.
pub fn run_stream<R: Resampler>(
    engine: &mut StreamingImmEngine<R>,
    deltas: &[GraphDelta],
    ckpt: &StreamCheckpointing,
) -> Result<Vec<UpdateReport>, EngineError> {
    assert_eq!(
        engine.delta_cursor(),
        0,
        "run_stream drives a fresh engine from batch zero"
    );
    let fp = engine.fingerprint();
    let mut written: u32 = 0;
    let mut start = 0usize;
    if ckpt.resume {
        let dir = ckpt.dir.as_deref().expect("resume requires a directory");
        let cp = StreamCheckpoint::load(dir).ok_or(EngineError::CheckpointIo)?;
        if cp.fingerprint != fp {
            return Err(EngineError::CheckpointMismatch {
                expected: fp,
                found: cp.fingerprint,
            });
        }
        // A checkpoint from a longer stream cannot resume against this one:
        // the cursor would point past the provided batches. The digest
        // check alone does not catch this when the missing trailing batches
        // were structural no-ops.
        if cp.delta_cursor as usize > deltas.len() {
            return Err(EngineError::CheckpointMismatch {
                expected: deltas.len() as u64,
                found: cp.delta_cursor,
            });
        }
        engine.replay()?;
        for delta in deltas.iter().take(cp.delta_cursor as usize) {
            engine.apply_update(delta)?;
        }
        let digest = engine.store_digest();
        if digest != cp.store_digest {
            return Err(EngineError::CheckpointMismatch {
                expected: cp.store_digest,
                found: digest,
            });
        }
        start = cp.delta_cursor as usize;
    } else {
        engine.replay()?;
        write_stream_checkpoint(engine, ckpt, &mut written)?;
    }

    let mut reports = Vec::with_capacity(deltas.len() - start);
    for delta in &deltas[start..] {
        reports.push(engine.apply_update(delta)?);
        write_stream_checkpoint(engine, ckpt, &mut written)?;
    }
    Ok(reports)
}

fn write_stream_checkpoint<R: Resampler>(
    engine: &StreamingImmEngine<R>,
    ckpt: &StreamCheckpointing,
    written: &mut u32,
) -> Result<(), EngineError> {
    let Some(dir) = &ckpt.dir else {
        return Ok(());
    };
    let cp = StreamCheckpoint {
        fingerprint: engine.fingerprint(),
        delta_cursor: engine.delta_cursor(),
        slots: engine.slots() as u64,
        store_digest: engine.store_digest(),
    };
    cp.save(dir).map_err(|_| EngineError::CheckpointIo)?;
    *written += 1;
    if ckpt.kill_after.is_some_and(|limit| *written >= limit) {
        return Err(EngineError::Interrupted {
            checkpoints_written: *written,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CpuEngine, CpuParallelism};
    use crate::martingale::run_imm;
    use eim_graph::generators;

    fn graph() -> Graph {
        generators::rmat(
            200,
            1_200,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            13,
        )
    }

    fn config() -> ImmConfig {
        ImmConfig::paper_default()
            .with_k(4)
            .with_epsilon(0.3)
            .with_seed(42)
    }

    fn cold_seeds(g: &Graph, c: ImmConfig) -> Vec<VertexId> {
        let mut e = CpuEngine::new(g, c, CpuParallelism::Rayon);
        run_imm(&mut e, &c).unwrap().seeds
    }

    #[test]
    fn initial_replay_matches_cold_cpu_run() {
        let g = graph();
        for elim in [false, true] {
            let c = config().with_source_elimination(elim);
            let mut s = StreamingImmEngine::new(
                g.clone(),
                c,
                WeightModel::WeightedCascade,
                7,
                HostResampler::new(c.model, c.seed),
            );
            let r = s.replay().unwrap();
            assert_eq!(r.seeds, cold_seeds(&g, c), "elim={elim}");
        }
    }

    #[test]
    fn updates_track_cold_recompute() {
        let g = graph();
        let c = config();
        let spec = generators::UpdateStreamSpec {
            batches: 3,
            edges_per_batch: 12,
            insert_fraction: 0.5,
            seed: 5,
        };
        let deltas = generators::update_stream(&g, &spec);
        let mut s = StreamingImmEngine::new(
            g.clone(),
            c,
            WeightModel::WeightedCascade,
            7,
            HostResampler::new(c.model, c.seed),
        );
        s.replay().unwrap();
        let mut cold_graph = g.clone();
        for delta in &deltas {
            let predicted = s.predict_invalidated(delta);
            let report = s.apply_update(delta).unwrap();
            assert_eq!(report.resampled_slots, predicted);
            cold_graph.apply_delta(delta, WeightModel::WeightedCascade, 7);
            assert_eq!(
                report.result.seeds,
                cold_seeds(&cold_graph, c),
                "batch {}",
                report.batch
            );
            assert!(
                report.resampled_slots.len() < s.slots(),
                "incremental must redraw a strict subset"
            );
        }
    }

    /// Rebuilds the index from the store and the sources and asserts the
    /// maintained one equals it.
    fn assert_index_is_transpose<R: Resampler>(s: &StreamingImmEngine<R>, ctx: &str) {
        let n = s.graph.num_vertices();
        let mut postings = vec![Vec::new(); n];
        let mut source_slots = vec![Vec::new(); n];
        let mut discarded = Vec::new();
        for slot in 0..s.slots() {
            let members = s.store.set_members(slot);
            for &v in &members {
                postings[v as usize].push(slot as u32);
            }
            source_slots[s.sources[slot] as usize].push(slot as u32);
            if members.is_empty() {
                discarded.push(slot as u32);
            }
        }
        assert_eq!(s.postings, postings, "postings, {ctx}");
        assert_eq!(s.source_slots, source_slots, "source slots, {ctx}");
        assert_eq!(s.discarded, discarded, "discarded, {ctx}");
    }

    #[test]
    fn index_stays_the_transpose_of_the_store() {
        let g = graph();
        let spec = generators::UpdateStreamSpec {
            batches: 4,
            edges_per_batch: 12,
            insert_fraction: 0.5,
            seed: 9,
        };
        let deltas = generators::update_stream(&g, &spec);
        for elim in [false, true] {
            let c = config().with_source_elimination(elim);
            let mut s = StreamingImmEngine::new(
                g.clone(),
                c,
                WeightModel::WeightedCascade,
                7,
                HostResampler::new(c.model, c.seed),
            );
            s.replay().unwrap();
            assert_index_is_transpose(&s, &format!("elim={elim}, initial"));
            assert_eq!(!s.discarded.is_empty(), elim, "elim={elim}");
            for delta in &deltas {
                let report = s.apply_update(delta).unwrap();
                assert!(!report.resampled_slots.is_empty());
                assert_index_is_transpose(&s, &format!("elim={elim}, batch {}", report.batch));
            }
        }
    }

    #[test]
    fn fingerprint_binds_weight_model() {
        let g = graph();
        let c = config();
        let fp = |wm: WeightModel| {
            StreamingImmEngine::new(g.clone(), c, wm, 7, HostResampler::new(c.model, c.seed))
                .fingerprint()
        };
        let models = [
            WeightModel::WeightedCascade,
            WeightModel::Uniform(0.1),
            WeightModel::Uniform(0.2),
            WeightModel::Trivalency,
            WeightModel::Random,
            WeightModel::Preserve,
        ];
        let fps: Vec<u64> = models.iter().map(|&m| fp(m)).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{:?} vs {:?}", models[i], models[j]);
            }
        }
    }

    #[test]
    fn checkpoint_roundtrips_json() {
        let cp = StreamCheckpoint {
            fingerprint: 0xdead_beef,
            delta_cursor: 3,
            slots: 1234,
            store_digest: 42,
        };
        assert_eq!(StreamCheckpoint::from_json(&cp.to_json()), Some(cp));
    }
}
