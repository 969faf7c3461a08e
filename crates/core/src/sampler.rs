//! eIM RRR-set sampling kernels (§3.2–§3.4, Algorithm 2).
//!
//! One warp per block performs a probabilistic BFS (IC) or threshold walk
//! (LT). eIM's distinguishing choices, all modelled here:
//!
//! * the BFS queue `Q` lives in a pre-allocated **global-memory pool**, so
//!   no dynamic allocation ever happens mid-traversal and the finished
//!   queue doubles as the RRR set;
//! * set indices are assigned to blocks round-robin through a shared
//!   counter, balancing unpredictable traversal lengths;
//! * each set is sorted ascending before publication so selection can
//!   binary search (§3.2);
//! * with source elimination on (§3.4), the source is dropped in place and
//!   empty results are discarded entirely.
//!
//! [`sample_batch`] is the **fused kernel**: traversal writes directly into
//! the block's output arena (the queue *is* the RRR set — there is no
//! separate Q→R copy pass), the sort and source elimination happen in
//! place on that arena segment, the visited-bitmap reset is folded into the
//! same epilogue walk, and the per-vertex coverage histogram `C` is updated
//! in flight (the publish step's scattered atomics). Frontier expansion is
//! vectorized and threshold-first: each dequeued vertex's threshold slice
//! ([`DeviceGraph::in_row`]) is scanned in chunks against raw RNG keystream
//! words ([`rand_chacha::ChaCha8Rng`]'s SIMD block refill) using
//! precomputed integer acceptance thresholds
//! ([`crate::device_graph::weight_threshold`]) — bit-identical to the
//! per-edge float draw of the reference path — and a neighbor id is
//! decoded ([`DeviceGraph::neighbor_at`]) only for an edge the draw
//! accepts. Under weighted cascade a row's weights sum to 1, so about one
//! edge per row is decoded however long the row is. The simulated warp
//! still loads every neighbor id, so the cycle charges are unchanged; the
//! saving is host time only.
//!
//! The test build keeps the pre-fusion three-pass kernel (traverse into a
//! scratch queue with per-edge float draws, sort, copy out) as the
//! differential oracle: both paths consume identical RNG streams and
//! produce byte-identical [`FlatSampleSets`], identical
//! [`SamplerCounters`], and identical coverage histograms.
//!
//! Blocks do the traversal work for real and charge warp-level costs; the
//! resulting sets are bit-identical across runs because every set index
//! owns a deterministic RNG stream.
//!
//! Host-side, the batch mirrors the device layout: every block appends its
//! finished sets into one flat offsets + data arena (no per-set `Vec`), the
//! visited bitmap `M` lives in a per-worker arena reused across blocks
//! ([`eim_gpusim::Device::launch_with_scratch`]), and the merged
//! [`FlatSampleSets`] is ordered by sample index, so its bytes are
//! independent of grid layout and thread count.

use eim_diffusion::{sample_rng, DiffusionModel};
use eim_gpusim::{Device, LaunchStats, Op, SimFault, WARP_SIZE};
use eim_graph::VertexId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::device_graph::DeviceGraph;

/// Outcome counters of one sampling batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerCounters {
    /// Sets whose traversal visited only the source (pre-elimination) —
    /// the x-axis of Figure 5.
    pub singletons: usize,
    /// Samples discarded by source elimination.
    pub discarded: usize,
    /// Samples drawn in total.
    pub sampled: usize,
}

impl SamplerCounters {
    /// Debug-checks the accounting invariants the Figure 5 reading depends
    /// on: a sample can be discarded at most once (`discarded <= sampled`),
    /// singletons are counted pre-elimination (`singletons <= sampled`),
    /// and — since elimination discards exactly the traversals that visited
    /// only their source — `discarded` is either zero (elimination off) or
    /// equal to `singletons`.
    #[inline]
    pub fn debug_check(&self, source_elim: bool) {
        debug_assert!(
            self.discarded <= self.sampled,
            "discarded {} > sampled {}",
            self.discarded,
            self.sampled
        );
        debug_assert!(
            self.singletons <= self.sampled,
            "singletons {} > sampled {}",
            self.singletons,
            self.sampled
        );
        if source_elim {
            debug_assert_eq!(
                self.discarded, self.singletons,
                "elimination must discard exactly the singleton traversals"
            );
        } else {
            debug_assert_eq!(self.discarded, 0, "no discards without elimination");
        }
    }

    fn add(&mut self, other: &SamplerCounters) {
        self.singletons += other.singletons;
        self.discarded += other.discarded;
        self.sampled += other.sampled;
    }
}

/// One batch's RRR sets in flat CSR-style storage: a shared element arena
/// plus per-sample offsets, with a kept/discarded flag per sample. Sample
/// `i` of the batch occupies `data[offsets[i]..offsets[i + 1]]`; discarded
/// samples (source elimination, §3.4) own an empty range. The layout is
/// canonical — built in sample-index order — so equality is byte equality
/// regardless of the grid that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatSampleSets {
    /// `len + 1` element offsets into `data`.
    offsets: Vec<usize>,
    /// All kept sets' elements, concatenated in sample order.
    data: Vec<VertexId>,
    /// Whether sample `i` was kept (false = discarded by elimination).
    kept: Vec<bool>,
}

impl FlatSampleSets {
    /// Number of samples in the batch (kept and discarded).
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Sample `i`'s sorted RRR set: `None` if elimination discarded it or
    /// `i` is out of range (bounds-checked like [`slice::get`]).
    pub fn get(&self, i: usize) -> Option<&[VertexId]> {
        (*self.kept.get(i)?).then(|| &self.data[self.offsets[i]..self.offsets[i + 1]])
    }

    /// Iterates samples in index order ([`FlatSampleSets::get`] per slot).
    pub fn iter(&self) -> impl Iterator<Item = Option<&[VertexId]>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Total elements across all kept sets.
    pub fn total_elements(&self) -> usize {
        self.data.len()
    }

    /// The element arena: every kept set's members concatenated in sample
    /// order — exactly what a store appends, in append order.
    pub fn arena(&self) -> &[VertexId] {
        &self.data
    }

    /// Lengths of the kept sets in sample order (discarded slots skipped).
    pub fn kept_lens(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len())
            .filter(|&i| self.kept[i])
            .map(|i| self.offsets[i + 1] - self.offsets[i])
    }
}

/// Result of one batch launch.
pub struct SampleBatch {
    /// The batch's RRR sets, indexed by offset within the batch.
    pub sets: FlatSampleSets,
    /// Per-vertex coverage histogram over the batch: `coverage[v]` counts
    /// the kept sets containing `v` — the batch's delta to the store's `C`
    /// array, aggregated during sampling so selection warm-starts its
    /// inverted index and CELF heap from ready-made counts.
    pub coverage: Vec<u32>,
    /// Launch timing.
    pub stats: LaunchStats,
    /// Outcome counters.
    pub counters: SamplerCounters,
}

/// One simulated block's share of the batch, in local (round-robin) order:
/// local position `p` holds global slot `block_id + p * num_blocks`.
struct BlockOutput {
    offsets: Vec<usize>,
    data: Vec<VertexId>,
    kept: Vec<bool>,
    counters: SamplerCounters,
}

impl BlockOutput {
    fn with_capacity(local: usize) -> Self {
        let mut out = Self {
            offsets: Vec::with_capacity(local + 1),
            data: Vec::new(),
            kept: Vec::with_capacity(local),
            counters: SamplerCounters::default(),
        };
        out.offsets.push(0);
        out
    }
}

/// Samples RRR sets for indices `start..start + count` of run `seed` on
/// `device`, under `model` — the fused kernel. Grid size is `4x` the SM
/// count (persistent blocks, one warp each), with indices interleaved
/// across blocks — the paper's round-robin assignment.
///
/// Fails only when the device's fault plan schedules a transient launch
/// fault; sample content is untouched by retries (every set index owns a
/// deterministic RNG stream), so callers can simply re-invoke.
pub fn sample_batch<G: DeviceGraph>(
    device: &Device,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    start: u64,
    count: usize,
    source_elim: bool,
) -> Result<SampleBatch, SimFault> {
    let n = graph.n();
    let blocks = (device.spec().num_sms * 4).min(count.max(1));
    device.check_kernel_fault("eim_sample")?;
    let result = device.launch_with_scratch(
        "eim_sample",
        blocks,
        // The visited bitmap `M`, one per rayon worker chunk: all-false
        // between sets (Algorithm 2 line 27 restores it) and reused across
        // every block the worker executes.
        || vec![false; n],
        |ctx, visited| {
            let b = ctx.block_id();
            // Each block zeroes its own M (Algorithm 2): the simulated cost
            // is per block even though the host bitmap is a worker arena.
            ctx.charge_warp_sweep(n.div_ceil(32), ctx.spec().costs.global_access); // memset M
            let local = count.saturating_sub(b).div_ceil(blocks);
            let mut out = BlockOutput::with_capacity(local);
            let mut j = b;
            while j < count {
                let idx = start + j as u64;
                fused_sample_one(ctx, graph, model, seed, idx, source_elim, visited, &mut out);
                j += blocks;
            }
            out
        },
    );
    Ok(merge_blocks(result, blocks, count, n, source_elim))
}

/// Samples RRR sets for an explicit list of logical `indices` of run `seed`
/// — the streaming resample kernel. Identical traversal, RNG streams, and
/// cost model to [`sample_batch`]; only the index assignment differs: block
/// `b` takes `indices[b]`, `indices[b + blocks]`, … round-robin, and the
/// merged batch is ordered by *position in `indices`* (slot `j` of the
/// result is sample `indices[j]`).
///
/// Because every set index owns a deterministic RNG stream, redrawing index
/// `i` here against a mutated graph yields exactly the set a cold batch run
/// would produce for `i` on that graph.
pub fn sample_indices<G: DeviceGraph>(
    device: &Device,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    indices: &[u64],
    source_elim: bool,
) -> Result<SampleBatch, SimFault> {
    let n = graph.n();
    let count = indices.len();
    let blocks = (device.spec().num_sms * 4).min(count.max(1));
    device.check_kernel_fault("eim_sample")?;
    let result = device.launch_with_scratch(
        "eim_sample",
        blocks,
        || vec![false; n],
        |ctx, visited| {
            let b = ctx.block_id();
            ctx.charge_warp_sweep(n.div_ceil(32), ctx.spec().costs.global_access); // memset M
            let local = count.saturating_sub(b).div_ceil(blocks);
            let mut out = BlockOutput::with_capacity(local);
            let mut j = b;
            while j < count {
                let idx = indices[j];
                fused_sample_one(ctx, graph, model, seed, idx, source_elim, visited, &mut out);
                j += blocks;
            }
            out
        },
    );
    Ok(merge_blocks(result, blocks, count, n, source_elim))
}

/// Merges per-block outputs into the canonical sample-index order and
/// aggregates the batch coverage histogram. The round-robin deal is
/// invertible — global slot j lives in block j % blocks at local position
/// j / blocks — so one sizing pass plus one copy pass produces the
/// canonical layout with no per-set allocation. Shared by both sampler
/// paths, so their results are comparable field by field.
fn merge_blocks(
    result: eim_gpusim::LaunchResult<BlockOutput>,
    blocks: usize,
    count: usize,
    n: usize,
    source_elim: bool,
) -> SampleBatch {
    let mut counters = SamplerCounters::default();
    let mut lens = vec![0usize; count];
    let mut kept = vec![false; count];
    for (b, block) in result.outputs.iter().enumerate() {
        block.counters.debug_check(source_elim);
        counters.add(&block.counters);
        for p in 0..block.kept.len() {
            let slot = b + p * blocks;
            lens[slot] = block.offsets[p + 1] - block.offsets[p];
            kept[slot] = block.kept[p];
        }
    }
    counters.debug_check(source_elim);
    let mut offsets = Vec::with_capacity(count + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &l in &lens {
        acc += l;
        offsets.push(acc);
    }
    let mut data = vec![0 as VertexId; acc];
    for (b, block) in result.outputs.iter().enumerate() {
        for p in 0..block.kept.len() {
            let slot = b + p * blocks;
            let src = &block.data[block.offsets[p]..block.offsets[p + 1]];
            data[offsets[slot]..offsets[slot] + src.len()].copy_from_slice(src);
        }
    }
    // The batch's C deltas. On the device these land via the publish step's
    // scattered atomics while sets are still in flight; the host mirror
    // materializes them from the canonical arena so the histogram is
    // deterministic and grid-independent like the sets themselves.
    let mut coverage = vec![0u32; n];
    for &v in &data {
        coverage[v as usize] += 1;
    }
    SampleBatch {
        sets: FlatSampleSets {
            offsets,
            data,
            kept,
        },
        stats: result.stats,
        counters,
        coverage,
    }
}

/// One fused sample: traverse directly into the block's output arena, sort
/// and source-eliminate in place, reset `M`, and publish — a single pass
/// over the queue segment with no Q→R copy.
#[allow(clippy::too_many_arguments)]
fn fused_sample_one<G: DeviceGraph>(
    ctx: &mut eim_gpusim::BlockCtx,
    graph: &G,
    model: DiffusionModel,
    seed: u64,
    idx: u64,
    source_elim: bool,
    visited: &mut [bool],
    out: &mut BlockOutput,
) {
    let mut rng = sample_rng(seed, idx);
    let n = graph.n();
    let source: VertexId = rng.gen_range(0..n as VertexId);
    // Thread 0 seeds the queue (Algorithm 2 lines 5–10).
    ctx.charge(Op::Rng, 1);
    ctx.charge(Op::GlobalAccess, 1);
    let set_start = out.data.len();
    out.data.push(source);
    visited[source as usize] = true;
    match model {
        DiffusionModel::IndependentCascade => {
            ic_traverse_fused(ctx, graph, &mut rng, visited, &mut out.data, set_start)
        }
        DiffusionModel::LinearThreshold => {
            // The LT reverse walk touches only the arena tail, so it runs
            // on the output segment directly.
            lt_traverse(ctx, graph, &mut rng, visited, &mut out.data)
        }
    }
    let q = out.data.len() - set_start;
    out.counters.sampled += 1;
    if q == 1 {
        out.counters.singletons += 1;
    }
    // Sort ascending in place (warp bitonic sort in shared memory) so
    // selection can binary-search.
    if q > 1 {
        charge_sort(ctx, q);
        out.data[set_start..].sort_unstable();
    }
    // Fused epilogue: one walk of the segment resets M (Algorithm 2 line
    // 27). The queue already IS R, so elimination is an in-place delete of
    // the source, not a filtered copy.
    for &v in &out.data[set_start..] {
        visited[v as usize] = false;
    }
    ctx.charge(Op::GlobalAccess, q as u64);
    let kept = if source_elim {
        if q <= 1 {
            out.counters.discarded += 1;
            out.data.truncate(set_start);
            false
        } else {
            let pos = set_start
                + out.data[set_start..]
                    .binary_search(&source)
                    .expect("source must appear exactly once");
            out.data.copy_within(pos + 1.., pos);
            out.data.truncate(out.data.len() - 1);
            true
        }
    } else {
        true
    };
    if kept {
        charge_publish(ctx, out.data.len() - set_start);
    }
    out.offsets.push(out.data.len());
    out.kept.push(kept);
}

/// Vectorized warp-wide probabilistic BFS (IC), fused variant: every
/// dequeued vertex's threshold slice is scanned in chunks sized by the
/// RNG's buffered keystream, comparing raw 24-bit draws against the
/// precomputed integer thresholds — decision-identical to the reference
/// path's per-edge float draw, word for word. A neighbor id is decoded only
/// when its draw accepts the edge; the warp sweep is still charged for the
/// whole row, since the device loads every neighbor id.
fn ic_traverse_fused<G: DeviceGraph>(
    ctx: &mut eim_gpusim::BlockCtx,
    graph: &G,
    rng: &mut ChaCha8Rng,
    visited: &mut [bool],
    data: &mut Vec<VertexId>,
    set_start: usize,
) {
    let costs = *ctx.spec();
    let wave_cost = costs.costs.global_access + costs.costs.rng + costs.costs.alu;
    let mut head = set_start;
    while head < data.len() {
        let u = data[head];
        head += 1;
        ctx.charge(Op::GlobalAccess, 1); // Q.front() + head bump
        let (first, thresholds) = graph.in_row(u);
        let d = thresholds.len();
        ctx.charge_warp_sweep(d, wave_cost);
        let mut i = 0usize;
        while i < d {
            let words = rng.peek_words();
            let take = (d - i).min(words.len());
            for (k, (&w, &t)) in words[..take]
                .iter()
                .zip(&thresholds[i..i + take])
                .enumerate()
            {
                // One keystream word per edge: accept iff the 24-bit draw
                // clears the threshold (exactly `r <= p` in float form).
                if w >> 8 <= t {
                    let v = graph.neighbor_at(first + i + k);
                    if !visited[v as usize] {
                        // Mark in M, then atomically enqueue (§3.2).
                        visited[v as usize] = true;
                        data.push(v);
                        ctx.charge(Op::AtomicGlobal, 2); // enqueue slot + tail bump
                    }
                }
            }
            rng.consume(take);
            i += take;
        }
    }
}

/// LT reverse walk: each step draws a threshold and selects at most one
/// in-neighbor via the warp shuffle prefix scan (§3.3), costing
/// `O(log d)` shuffle rounds per 32-lane wave instead of `O(d)` serialized
/// atomics. Walks the tail of `queue`, so it serves both sampler paths
/// (the fused arena segment is just a queue with a nonzero start).
fn lt_traverse<G: DeviceGraph>(
    ctx: &mut eim_gpusim::BlockCtx,
    graph: &G,
    rng: &mut impl Rng,
    visited: &mut [bool],
    queue: &mut Vec<VertexId>,
) {
    let mut u = *queue.last().expect("queue seeded with source");
    loop {
        let d = graph.in_degree(u);
        if d == 0 {
            break;
        }
        ctx.charge(Op::Rng, 1); // tau, shared across the warp
        let tau: f32 = rng.gen();
        // Prefix-scan the weights wave by wave until the threshold falls.
        let waves = d.div_ceil(WARP_SIZE);
        let mut acc = 0.0f32;
        let mut chosen: Option<VertexId> = None;
        'waves: for w in 0..waves {
            ctx.charge(Op::GlobalAccess, 1); // coalesced weight load
            ctx.charge_shuffle_scan();
            let lo = w * WARP_SIZE;
            let hi = (lo + WARP_SIZE).min(d);
            for i in lo..hi {
                let p = graph.in_weight(u, i);
                let inclusive = acc + p;
                // First neighbor whose inclusive sum crosses tau while the
                // exclusive sum is still below it (§3.3).
                if inclusive >= tau && acc < tau {
                    chosen = Some(graph.in_neighbor(u, i));
                    break 'waves;
                }
                acc = inclusive;
            }
        }
        match chosen {
            Some(v) if !visited[v as usize] => {
                visited[v as usize] = true;
                queue.push(v);
                ctx.charge(Op::AtomicGlobal, 2);
                u = v;
            }
            _ => break,
        }
    }
}

/// Charges the in-place ascending sort (warp bitonic sort in shared
/// memory): `q log^2 q` comparator stages over 32 lanes.
fn charge_sort(ctx: &mut eim_gpusim::BlockCtx, q: usize) {
    let lg = (usize::BITS - (q - 1).leading_zeros()) as u64;
    ctx.charge_cycles(
        (q as u64 * lg * lg).div_ceil(WARP_SIZE as u64) * ctx.spec().costs.shared_access,
    );
}

/// Charges publishing a finished set of `len` elements (Algorithm 2 lines
/// 21–28 minus the element copy, which the fused kernel does not perform):
/// the offset bump, the `O` write, and the in-flight per-vertex coverage
/// count updates.
fn charge_publish(ctx: &mut eim_gpusim::BlockCtx, len: usize) {
    ctx.charge(Op::AtomicGlobal, 1); // atomicAdd(offset, |R_i|)
    ctx.charge(Op::GlobalAccess, 1); // O[count + 1] write
    ctx.charge(Op::AtomicGlobal, len as u64); // C[v] updates (scattered)
    ctx.charge(Op::AtomicGlobal, 1); // count bump
}

/// The pre-fusion kernel, kept in the test build as the differential
/// oracle of [`sample_batch`].
#[cfg(test)]
mod reference {
    use super::*;

    /// The pre-fusion sampler: traverse into a scratch queue, sort, then copy
    /// into the block output in a separate pass (charging the Q→R copy sweep
    /// the fused kernel eliminates). Retained as the differential-testing
    /// oracle — identical RNG consumption, [`FlatSampleSets`] bytes,
    /// [`SamplerCounters`], and coverage histogram as [`sample_batch`].
    pub(super) fn sample_batch_reference<G: DeviceGraph>(
        device: &Device,
        graph: &G,
        model: DiffusionModel,
        seed: u64,
        start: u64,
        count: usize,
        source_elim: bool,
    ) -> Result<SampleBatch, SimFault> {
        let n = graph.n();
        let blocks = (device.spec().num_sms * 4).min(count.max(1));
        device.check_kernel_fault("eim_sample")?;
        let result = device.launch_with_scratch(
            "eim_sample",
            blocks,
            || (vec![false; n], Vec::new()),
            |ctx, (visited, queue)| {
                let b = ctx.block_id();
                ctx.charge_warp_sweep(n.div_ceil(32), ctx.spec().costs.global_access); // memset M
                let local = count.saturating_sub(b).div_ceil(blocks);
                let mut out = BlockOutput::with_capacity(local);
                let mut j = b;
                while j < count {
                    let idx = start + j as u64;
                    let source = reference_sample_one(ctx, graph, model, seed, idx, visited, queue);
                    let set = &*queue;
                    out.counters.sampled += 1;
                    if set.len() == 1 {
                        out.counters.singletons += 1;
                    }
                    // Copy Q into the block's flat output, applying source
                    // elimination during the copy (§3.4): drop the source, and
                    // discard samples that reduce to empty.
                    let kept = if source_elim {
                        if set.len() <= 1 {
                            debug_assert!(set.is_empty() || set[0] == source);
                            out.counters.discarded += 1;
                            false
                        } else {
                            let before = out.data.len();
                            for &v in set {
                                if v != source {
                                    out.data.push(v);
                                }
                            }
                            debug_assert_eq!(
                                out.data.len() - before,
                                set.len() - 1,
                                "source must appear exactly once"
                            );
                            true
                        }
                    } else {
                        out.data.extend_from_slice(set);
                        true
                    };
                    if kept {
                        let len = out.data.len() - out.offsets.last().copied().unwrap_or(0);
                        // The unfused kernel re-walks Q to write R.
                        ctx.charge_warp_sweep(len, ctx.spec().costs.global_access);
                        charge_publish(ctx, len);
                    }
                    out.offsets.push(out.data.len());
                    out.kept.push(kept);
                    j += blocks;
                }
                out
            },
        );
        Ok(merge_blocks(result, blocks, count, n, source_elim))
    }

    /// Traverses one RRR set into `queue` via the unfused per-edge float path,
    /// leaving it sorted ascending, and returns the sample's source vertex.
    /// `visited` must be all-false on entry and is restored before returning.
    fn reference_sample_one<G: DeviceGraph>(
        ctx: &mut eim_gpusim::BlockCtx,
        graph: &G,
        model: DiffusionModel,
        seed: u64,
        idx: u64,
        visited: &mut [bool],
        queue: &mut Vec<VertexId>,
    ) -> VertexId {
        let mut rng = sample_rng(seed, idx);
        let n = graph.n();
        let source: VertexId = rng.gen_range(0..n as VertexId);
        // Thread 0 seeds the queue (Algorithm 2 lines 5–10).
        ctx.charge(Op::Rng, 1);
        ctx.charge(Op::GlobalAccess, 1);
        queue.clear();
        queue.push(source);
        visited[source as usize] = true;
        match model {
            DiffusionModel::IndependentCascade => ic_traverse(ctx, graph, &mut rng, visited, queue),
            DiffusionModel::LinearThreshold => lt_traverse(ctx, graph, &mut rng, visited, queue),
        }
        let q = queue.len();
        if q > 1 {
            charge_sort(ctx, q);
            queue.sort_unstable();
        }
        // Reset M for the vertices we touched (Algorithm 2 line 27).
        for &v in queue.iter() {
            visited[v as usize] = false;
        }
        ctx.charge(Op::GlobalAccess, q as u64);
        source
    }

    /// Warp-wide probabilistic BFS (IC), unfused reference: every dequeued
    /// vertex's in-neighbor list is swept 32 lanes at a time; each lane draws a
    /// uniform and activates its neighbor with probability `p_vu` (Algorithm 2
    /// lines 11–20).
    fn ic_traverse<G: DeviceGraph>(
        ctx: &mut eim_gpusim::BlockCtx,
        graph: &G,
        rng: &mut impl Rng,
        visited: &mut [bool],
        queue: &mut Vec<VertexId>,
    ) {
        let costs = *ctx.spec();
        let wave_cost = costs.costs.global_access + costs.costs.rng + costs.costs.alu;
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            ctx.charge(Op::GlobalAccess, 1); // Q.front() + head bump
            let d = graph.in_degree(u);
            ctx.charge_warp_sweep(d, wave_cost);
            for i in 0..d {
                let v = graph.in_neighbor(u, i);
                let p = graph.in_weight(u, i);
                let r: f32 = rng.gen();
                if r <= p && !visited[v as usize] {
                    // Mark in M, then atomically enqueue (order matters; §3.2).
                    visited[v as usize] = true;
                    queue.push(v);
                    ctx.charge(Op::AtomicGlobal, 2); // enqueue slot + tail bump
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::sample_batch_reference;
    use super::*;
    use crate::device_graph::{hub_graph, PackedDeviceGraph, PlainDeviceGraph};
    use eim_bitpack::PackedCsc;
    use eim_gpusim::DeviceSpec;
    use eim_graph::{generators, Graph, WeightModel};

    fn device() -> Device {
        Device::new(DeviceSpec::test_small())
    }

    #[test]
    fn batch_produces_sorted_unique_sets_containing_structure() {
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            5,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch = sample_batch(
            &d,
            &dg,
            DiffusionModel::IndependentCascade,
            42,
            0,
            100,
            false,
        )
        .unwrap();
        assert_eq!(batch.sets.len(), 100);
        assert_eq!(batch.counters.sampled, 100);
        assert_eq!(batch.counters.discarded, 0);
        for set in batch.sets.iter() {
            let s = set.expect("no discards without elimination");
            assert!(!s.is_empty());
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            assert!(s.iter().all(|&v| (v as usize) < 200));
        }
        assert!(batch.stats.elapsed_us > 0.0);
    }

    #[test]
    fn deterministic_across_launches_and_grid_sizes() {
        let g = generators::rmat(
            150,
            900,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            8,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d1 = Device::new(DeviceSpec::test_small());
        let mut big = DeviceSpec::test_small();
        big.num_sms = 13; // different grid -> different block assignment
        let d2 = Device::new(big);
        let b1 = sample_batch(
            &d1,
            &dg,
            DiffusionModel::IndependentCascade,
            3,
            10,
            64,
            false,
        )
        .unwrap();
        let b2 = sample_batch(
            &d2,
            &dg,
            DiffusionModel::IndependentCascade,
            3,
            10,
            64,
            false,
        )
        .unwrap();
        assert_eq!(b1.sets, b2.sets, "content independent of grid layout");
        assert_eq!(b1.coverage, b2.coverage, "histogram independent of grid");
        let b3 = sample_batch(
            &d1,
            &dg,
            DiffusionModel::IndependentCascade,
            3,
            10,
            64,
            false,
        )
        .unwrap();
        assert_eq!(b1.sets, b3.sets);
        assert_eq!(b1.stats, b3.stats, "timing deterministic per device");
    }

    #[test]
    fn source_elimination_discards_singletons() {
        // In-star: every leaf's reverse BFS is a singleton.
        let g = generators::star_in(64, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 1, 0, 200, true).unwrap();
        assert_eq!(batch.counters.sampled, 200);
        assert!(batch.counters.singletons > 150, "mostly singletons");
        assert_eq!(batch.counters.discarded, batch.counters.singletons);
        for (i, set) in batch.sets.iter().enumerate() {
            if let Some(s) = set {
                // Hub sets: source was the hub, members are leaves only.
                assert!(!s.is_empty(), "set {i} empty but kept");
            }
        }
    }

    #[test]
    fn elimination_removes_exactly_the_source() {
        let g = generators::path(20, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let with =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 9, 0, 50, false).unwrap();
        let without =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 9, 0, 50, true).unwrap();
        for (a, b) in with.sets.iter().zip(without.sets.iter()) {
            let a = a.unwrap();
            match b {
                Some(b) => {
                    assert_eq!(b.len(), a.len() - 1);
                    assert!(b.iter().all(|v| a.contains(v)));
                }
                None => assert_eq!(a.len(), 1),
            }
        }
    }

    #[test]
    fn ic_on_deterministic_path_reaches_all_ancestors() {
        let g = generators::path(30, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 2, 0, 40, false).unwrap();
        for set in batch.sets.iter().map(|s| s.unwrap()) {
            // A set rooted at source s on the path must be exactly {0..=s}.
            let src = *set.last().unwrap();
            assert_eq!(set.len() as u32, src + 1);
            assert_eq!(set[0], 0);
        }
    }

    #[test]
    fn lt_sets_are_paths() {
        let g = generators::rmat(
            100,
            600,
            generators::RmatParams::MILD,
            WeightModel::WeightedCascade,
            4,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::LinearThreshold, 6, 0, 80, false).unwrap();
        for set in batch.sets.iter().map(|s| s.unwrap()) {
            assert!(!set.is_empty());
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(batch.counters.sampled == 80);
    }

    #[test]
    fn lt_walk_terminates_on_cycle() {
        let g = generators::cycle(8, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::LinearThreshold, 7, 0, 10, false).unwrap();
        for set in batch.sets.iter().map(|s| s.unwrap()) {
            assert_eq!(set.len(), 8, "full lap then stop");
        }
    }

    #[test]
    fn load_imbalance_is_visible_in_stats() {
        // Heavy-tailed graph: some traversals are long -> max block cycles
        // well above the mean.
        let g = generators::barabasi_albert(500, 4, WeightModel::WeightedCascade, 3);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch = sample_batch(
            &d,
            &dg,
            DiffusionModel::IndependentCascade,
            11,
            0,
            64,
            false,
        )
        .unwrap();
        let mean = batch.stats.total_cycles / batch.stats.num_blocks.max(1) as u64;
        assert!(batch.stats.max_block_cycles >= mean);
    }

    #[test]
    fn get_is_bounds_checked() {
        let g = generators::path(10, WeightModel::WeightedCascade);
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 1, 0, 5, false).unwrap();
        let len = batch.sets.len();
        assert_eq!(len, 5);
        assert!(batch.sets.get(len - 1).is_some());
        assert!(batch.sets.get(len).is_none(), "index == len");
        assert!(batch.sets.get(len + 1).is_none(), "index == len + 1");
        let empty =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 1, 0, 0, false).unwrap();
        assert!(empty.sets.is_empty());
        assert!(empty.sets.get(0).is_none(), "empty batch");
        assert!(empty.sets.get(1).is_none());
    }

    #[test]
    fn coverage_histogram_matches_kept_sets() {
        let g = generators::rmat(
            180,
            1_100,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            12,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        for elim in [false, true] {
            let batch = sample_batch(
                &d,
                &dg,
                DiffusionModel::IndependentCascade,
                21,
                0,
                150,
                elim,
            )
            .unwrap();
            let mut expect = vec![0u32; 180];
            for set in batch.sets.iter().flatten() {
                for &v in set {
                    expect[v as usize] += 1;
                }
            }
            assert_eq!(batch.coverage, expect);
            let total: u32 = batch.coverage.iter().sum();
            assert_eq!(total as usize, batch.sets.total_elements());
        }
    }

    #[test]
    fn arena_and_kept_lens_describe_the_layout() {
        let g = generators::rmat(
            120,
            700,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            6,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let batch =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 4, 0, 90, true).unwrap();
        let lens: Vec<usize> = batch.sets.kept_lens().collect();
        assert_eq!(lens.iter().sum::<usize>(), batch.sets.arena().len());
        let mut cursor = 0usize;
        let mut li = 0usize;
        for set in batch.sets.iter().flatten() {
            assert_eq!(set.len(), lens[li]);
            assert_eq!(set, &batch.sets.arena()[cursor..cursor + set.len()]);
            cursor += set.len();
            li += 1;
        }
        assert_eq!(li, lens.len());
    }

    // ---- fused vs reference differential suite ------------------------

    fn assert_batches_identical(a: &SampleBatch, b: &SampleBatch, what: &str) {
        assert_eq!(a.sets, b.sets, "{what}: FlatSampleSets bytes differ");
        assert_eq!(a.counters, b.counters, "{what}: counters differ");
        assert_eq!(a.coverage, b.coverage, "{what}: coverage differs");
    }

    fn graphs_under_test() -> Vec<(&'static str, Graph)> {
        vec![
            (
                "rmat",
                generators::rmat(
                    300,
                    2_000,
                    generators::RmatParams::GRAPH500,
                    WeightModel::WeightedCascade,
                    17,
                ),
            ),
            (
                "ba",
                generators::barabasi_albert(250, 4, WeightModel::WeightedCascade, 5),
            ),
            (
                "star",
                generators::star_in(80, WeightModel::WeightedCascade),
            ),
            ("path", generators::path(40, WeightModel::WeightedCascade)),
            ("cycle", generators::cycle(12, WeightModel::WeightedCascade)),
            ("hubs", hub_graph()),
            (
                "trivalency",
                generators::rmat(
                    200,
                    1_400,
                    generators::RmatParams::MILD,
                    WeightModel::Trivalency,
                    23,
                ),
            ),
        ]
    }

    #[test]
    fn fused_matches_reference_across_graphs_models_and_flags() {
        let d = device();
        for (name, g) in graphs_under_test() {
            let dg = PlainDeviceGraph::new(&g);
            for model in [
                DiffusionModel::IndependentCascade,
                DiffusionModel::LinearThreshold,
            ] {
                for elim in [false, true] {
                    for (seed, start, count) in [(3u64, 0u64, 120usize), (91, 57, 64), (7, 5, 1)] {
                        let fused = sample_batch(&d, &dg, model, seed, start, count, elim).unwrap();
                        let reference =
                            sample_batch_reference(&d, &dg, model, seed, start, count, elim)
                                .unwrap();
                        assert_batches_identical(
                            &fused,
                            &reference,
                            &format!("{name}/{model:?}/elim={elim}/seed={seed}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_matches_reference_on_packed_graph() {
        // Plain, packed and packed derived-weight views of the same graph
        // must sample identically and charge identical cycles: the packed
        // views decode only accepted neighbors, but the simulated warp
        // still loads every one. The hub graph's long rows cross keystream
        // refills mid-row and its ids straddle packed words.
        let rmat = generators::rmat(
            400,
            2_400,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            31,
        );
        let d = device();
        for (name, g) in [("rmat", rmat), ("hubs", hub_graph())] {
            let plain = PlainDeviceGraph::new(&g);
            let packed = PackedDeviceGraph::new(PackedCsc::from_graph(&g));
            let derived = PackedDeviceGraph::new(PackedCsc::from_graph_derived(&g));
            for model in [
                DiffusionModel::IndependentCascade,
                DiffusionModel::LinearThreshold,
            ] {
                for elim in [false, true] {
                    let views = [
                        ("plain", fused_and_reference(&d, &plain, model, elim)),
                        ("packed", fused_and_reference(&d, &packed, model, elim)),
                        ("derived", fused_and_reference(&d, &derived, model, elim)),
                    ];
                    let (plain_fused, plain_ref) = &views[0].1;
                    for (view, (fused, reference)) in &views {
                        let what = format!("{name}/{view}/{model:?}/elim={elim}");
                        assert_batches_identical(fused, reference, &what);
                        assert_batches_identical(fused, plain_fused, &what);
                        assert_eq!(fused.stats, plain_fused.stats, "{what}: fused cycles");
                        assert_eq!(reference.stats, plain_ref.stats, "{what}: reference cycles");
                    }
                }
            }
        }
    }

    fn fused_and_reference<G: DeviceGraph>(
        d: &Device,
        g: &G,
        model: DiffusionModel,
        elim: bool,
    ) -> (SampleBatch, SampleBatch) {
        (
            sample_batch(d, g, model, 13, 0, 150, elim).unwrap(),
            sample_batch_reference(d, g, model, 13, 0, 150, elim).unwrap(),
        )
    }

    #[test]
    fn fused_results_independent_of_rayon_pool_size() {
        let g = generators::rmat(
            250,
            1_500,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            41,
        );
        let dg = PlainDeviceGraph::new(&g);
        let run = || {
            let d = device();
            let b =
                sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 5, 0, 130, true).unwrap();
            (b.sets, b.coverage, b.counters, b.stats)
        };
        let baseline = run();
        for threads in [1usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let pooled = pool.install(run);
            assert_eq!(baseline.0, pooled.0, "{threads}-thread sets");
            assert_eq!(baseline.1, pooled.1, "{threads}-thread coverage");
            assert_eq!(baseline.2, pooled.2, "{threads}-thread counters");
            assert_eq!(baseline.3, pooled.3, "{threads}-thread stats");
        }
    }

    #[test]
    fn faulted_launch_replays_to_identical_batch() {
        use eim_gpusim::{FaultPlan, FaultSpec};
        use std::sync::Arc;
        let g = generators::rmat(
            200,
            1_200,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            19,
        );
        let dg = PlainDeviceGraph::new(&g);
        let clean = sample_batch(
            &device(),
            &dg,
            DiffusionModel::IndependentCascade,
            29,
            0,
            100,
            true,
        )
        .unwrap();
        let spec = FaultSpec {
            seed: 77,
            kernel_fault_prob: 0.6,
            ..FaultSpec::default()
        };
        let faulty =
            Device::new(DeviceSpec::test_small()).with_fault_plan(Arc::new(FaultPlan::new(spec)));
        let mut faults = 0usize;
        let replayed = loop {
            match sample_batch(
                &faulty,
                &dg,
                DiffusionModel::IndependentCascade,
                29,
                0,
                100,
                true,
            ) {
                Ok(b) => break b,
                Err(_) => {
                    faults += 1;
                    assert!(faults < 64, "fault schedule never clears");
                }
            }
        };
        assert!(faults > 0, "fault plan scheduled no faults");
        assert_batches_identical(&clean, &replayed, "replay after faults");
    }

    #[test]
    fn fused_charges_strictly_less_than_reference() {
        // The fused kernel drops the Q->R copy sweep; everything else is
        // charged identically, so its cycle total must be strictly lower on
        // any batch that keeps at least one set.
        let g = generators::rmat(
            220,
            1_300,
            generators::RmatParams::GRAPH500,
            WeightModel::WeightedCascade,
            3,
        );
        let dg = PlainDeviceGraph::new(&g);
        let d = device();
        let fused =
            sample_batch(&d, &dg, DiffusionModel::IndependentCascade, 8, 0, 80, false).unwrap();
        let reference =
            sample_batch_reference(&d, &dg, DiffusionModel::IndependentCascade, 8, 0, 80, false)
                .unwrap();
        assert!(
            fused.stats.total_cycles < reference.stats.total_cycles,
            "fused {} vs reference {}",
            fused.stats.total_cycles,
            reference.stats.total_cycles
        );
        assert_eq!(fused.sets, reference.sets);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn counter_invariants_hold_on_random_graphs(
                gseed in 2usize..12,
                seed in 0u64..1 << 20,
                count in 1usize..96,
                elim in any::<bool>(),
            ) {
                let g = generators::rmat(
                    60 + gseed * 13,
                    400 + gseed * 80,
                    generators::RmatParams::GRAPH500,
                    WeightModel::WeightedCascade,
                    gseed as u64,
                );
                let dg = PlainDeviceGraph::new(&g);
                let d = device();
                let batch = sample_batch(
                    &d,
                    &dg,
                    DiffusionModel::IndependentCascade,
                    seed,
                    0,
                    count,
                    elim,
                )
                .unwrap();
                // Release-mode re-statement of SamplerCounters::debug_check.
                prop_assert_eq!(batch.counters.sampled, count);
                prop_assert!(batch.counters.discarded <= batch.counters.sampled);
                prop_assert!(batch.counters.singletons <= batch.counters.sampled);
                if elim {
                    prop_assert_eq!(batch.counters.discarded, batch.counters.singletons);
                } else {
                    prop_assert_eq!(batch.counters.discarded, 0);
                }
                // Singletons are a pre-elimination count: recompute them
                // from an elimination-off run of the same indices.
                let pre = sample_batch(
                    &d,
                    &dg,
                    DiffusionModel::IndependentCascade,
                    seed,
                    0,
                    count,
                    false,
                )
                .unwrap();
                let pre_singletons = pre
                    .sets
                    .iter()
                    .filter(|s| s.is_some_and(|s| s.len() == 1))
                    .count();
                prop_assert_eq!(batch.counters.singletons, pre_singletons);
                // Differential check rides along on every case.
                let reference = sample_batch_reference(
                    &d,
                    &dg,
                    DiffusionModel::IndependentCascade,
                    seed,
                    0,
                    count,
                    elim,
                )
                .unwrap();
                prop_assert_eq!(&batch.sets, &reference.sets);
                prop_assert_eq!(batch.counters, reference.counters);
            }
        }
    }
}
