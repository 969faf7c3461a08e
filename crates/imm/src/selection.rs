//! Greedy max-coverage seed selection (§3.5, Algorithm 3 — CPU reference).
//!
//! Two host implementations, byte-identical in output:
//!
//! * [`select_seeds`] — the production path. A rayon-built CSR inverted
//!   index (vertex → ids of the sets containing it) feeds CELF lazy greedy:
//!   stale heap entries carry upper bounds (submodularity), so each pick
//!   touches only the few vertices whose bound still competes, and those
//!   are revalidated in parallel. Replaces the per-pick full rescan of
//!   every RRR set with `O(|run|)` work per touched vertex.
//! * [`select_seeds_reference`] — the direct Algorithm 3 transcription:
//!   repeat `k` times, take the vertex appearing in the most *uncovered*
//!   RRR sets, mark every set containing it covered (one task per set,
//!   membership by binary search — structurally identical to the paper's
//!   thread-based GPU scan), and decrement the counts of all vertices in
//!   the newly covered sets. Kept as the differential-testing oracle; the
//!   GPU-model variant with cost accounting lives in `eim-core`.
//!
//! Both break gain ties toward the smallest vertex id, so seed sets are
//! deterministic and interchangeable between the two paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use eim_graph::VertexId;
use rayon::prelude::*;

use crate::rrrstore::RrrSets;

/// Result of seed selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Selection {
    /// Selected vertices, in selection (descending-marginal-gain) order.
    pub seeds: Vec<VertexId>,
    /// RRR sets covered by the seeds.
    pub covered_sets: usize,
    /// Total sets considered.
    pub num_sets: usize,
}

impl Selection {
    /// Fraction of RRR sets covered — `F_R(S)`, the martingale estimator of
    /// `E[I(S)] / n`.
    pub fn coverage_fraction(&self) -> f64 {
        if self.num_sets == 0 {
            0.0
        } else {
            self.covered_sets as f64 / self.num_sets as f64
        }
    }
}

/// CSR inverted index over an RRR store: for every vertex, the ids of the
/// sets containing it — the transpose of the store's `R`/`O` layout. The
/// per-vertex run starts are the exclusive prefix sum of the store's count
/// array `C`. The postings fill streams the store's sets block-wise
/// ([`RrrSets::for_each_set_in`]): sequentially with plain cursors on a
/// single-threaded pool, or in set-range chunks claiming slots through
/// per-vertex atomic cursors when real parallelism is available — the
/// one-task-per-set atomic fill costs 5-6x the sequential pass when there
/// is only one thread to run it. Posting order within a run is
/// scheduling-dependent under the parallel fill, but every consumer is
/// order-independent (counting and bit-marking), so selection results stay
/// deterministic.
struct InvertedIndex {
    /// `starts[v]..starts[v + 1]` bounds vertex `v`'s posting run.
    starts: Vec<usize>,
    /// Set ids, grouped by vertex.
    postings: Vec<u32>,
}

impl InvertedIndex {
    fn build<S: RrrSets + ?Sized>(store: &S) -> Self {
        let n = store.num_vertices();
        let counts = store.counts();
        let mut starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &c in counts {
            acc += c as usize;
            starts.push(acc);
        }
        let num_sets = store.num_sets();
        let postings = if rayon::current_num_threads() <= 1 {
            let mut cursors: Vec<usize> = starts[..n].to_vec();
            let mut postings = vec![0u32; acc];
            store.for_each_set_in(0, num_sets, &mut |i, members| {
                for &v in members {
                    let cursor = &mut cursors[v as usize];
                    postings[*cursor] = i as u32;
                    *cursor += 1;
                }
            });
            postings
        } else {
            let cursors: Vec<AtomicUsize> =
                starts[..n].iter().map(|&s| AtomicUsize::new(s)).collect();
            let postings: Vec<AtomicU32> = (0..acc).map(|_| AtomicU32::new(0)).collect();
            let chunk = 4096; // sets per rayon task
            (0..num_sets.div_ceil(chunk)).into_par_iter().for_each(|c| {
                let (from, to) = (c * chunk, ((c + 1) * chunk).min(num_sets));
                store.for_each_set_in(from, to, &mut |i, members| {
                    for &v in members {
                        let pos = cursors[v as usize].fetch_add(1, Ordering::Relaxed);
                        postings[pos].store(i as u32, Ordering::Relaxed);
                    }
                });
            });
            postings.into_iter().map(AtomicU32::into_inner).collect()
        };
        Self { starts, postings }
    }

    /// Ids of the sets containing `v`.
    fn run(&self, v: usize) -> &[u32] {
        &self.postings[self.starts[v]..self.starts[v + 1]]
    }
}

/// Cap on heap entries revalidated per lazy round; bounds the scratch the
/// revalidation batch holds.
const REVALIDATE_BATCH: usize = 1024;

/// Minimum summed posting-run length before a revalidation batch goes to the
/// thread pool — below this, spawning workers costs more than the counting.
const REVALIDATE_PAR_WORK: usize = 1 << 16;

/// Greedy max-coverage over `store`, choosing `k` seeds. Ties break toward
/// the smallest vertex id, making the result deterministic.
pub fn select_seeds<S: RrrSets + ?Sized>(store: &S, k: usize) -> Selection {
    select_seeds_with_gains(store, k).0
}

/// [`select_seeds`] plus the marginal gain of each pick: element `i` of the
/// gains vector is how many *additional* RRR sets seed `i` covered — the
/// submodular diminishing-returns curve applications plot when choosing a
/// budget.
pub fn select_seeds_with_gains<S: RrrSets + ?Sized>(
    store: &S,
    k: usize,
) -> (Selection, Vec<usize>) {
    let n = store.num_vertices();
    let num_sets = store.num_sets();
    assert!(k <= n, "k exceeds vertex count");
    let index = InvertedIndex::build(store);
    // Covered flags, one bit per set (the paper's binary array F).
    let mut covered = vec![0u32; num_sets.div_ceil(32)];
    let mut covered_count = 0usize;
    // Heap of (gain upper bound, Reverse(vertex), round validated). Exactly
    // one entry per vertex at all times, so the `(gain desc, id asc)` order
    // reproduces the reference tie-break: an equal-gain smaller-id entry —
    // stale or not — always pops before a larger-id one can be selected.
    let mut heap: BinaryHeap<(u32, Reverse<u32>, u32)> = store
        .counts()
        .iter()
        .enumerate()
        .map(|(v, &c)| (c, Reverse(v as u32), 0u32))
        .collect();
    let mut seeds: Vec<VertexId> = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    let mut round: u32 = 0;
    let mut stale: Vec<(u32, Reverse<u32>, u32)> = Vec::new();
    while seeds.len() < k {
        let Some(top) = heap.pop() else { break };
        if top.2 == round {
            // Bound is current: select, mark the vertex's run covered.
            let v = top.1 .0;
            let mut gain = 0usize;
            for &i in index.run(v as usize) {
                let (word, bit) = ((i / 32) as usize, 1u32 << (i % 32));
                if covered[word] & bit == 0 {
                    covered[word] |= bit;
                    gain += 1;
                }
            }
            debug_assert_eq!(gain as u32, top.0, "validated gain was not exact");
            covered_count += gain;
            seeds.push(v);
            gains.push(gain);
            round += 1;
        } else {
            // Drain the stale prefix of the heap (up to the batch cap) and
            // recompute those bounds against the current coverage in one
            // parallel pass — CELF's lazy step, batched.
            stale.clear();
            stale.push(top);
            let mut work = index.starts[top.1 .0 as usize + 1] - index.starts[top.1 .0 as usize];
            while stale.len() < REVALIDATE_BATCH {
                match heap.peek() {
                    Some(&(_, Reverse(v), validated)) if validated != round => {
                        work += index.starts[v as usize + 1] - index.starts[v as usize];
                        stale.push(heap.pop().expect("peeked entry"));
                    }
                    _ => break,
                }
            }
            let covered_ref = &covered;
            let revalidate = |&(_, Reverse(v), _): &(u32, Reverse<u32>, u32)| {
                let fresh = index
                    .run(v as usize)
                    .iter()
                    .filter(|&&i| covered_ref[(i / 32) as usize] & (1u32 << (i % 32)) == 0)
                    .count() as u32;
                (fresh, Reverse(v), round)
            };
            if work >= REVALIDATE_PAR_WORK && rayon::current_num_threads() > 1 {
                let fresh: Vec<_> = stale.par_iter().map(revalidate).collect();
                heap.extend(fresh);
            } else {
                heap.extend(stale.iter().map(revalidate));
            }
        }
    }

    (
        Selection {
            seeds,
            covered_sets: covered_count,
            num_sets,
        },
        gains,
    )
}

/// Reusable buffers for the reference selector, so repeated calls (the IMM
/// driver selects once per estimation iteration) stop cloning the counts
/// array and covered flags into fresh allocations every time.
#[derive(Default)]
pub struct SelectionWorkspace {
    counts: Vec<AtomicU32>,
    flags: Vec<AtomicU32>,
    candidates: Vec<u32>,
}

impl SelectionWorkspace {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows `buf` to `len` slots and stores `value` in the first `len`.
    fn reset(buf: &mut Vec<AtomicU32>, len: usize, values: impl Iterator<Item = u32>) {
        if buf.len() < len {
            buf.resize_with(len, || AtomicU32::new(0));
        }
        for (slot, v) in buf.iter().zip(values) {
            slot.store(v, Ordering::Relaxed);
        }
    }
}

/// The reference greedy selector — [`select_seeds_reference_with_gains`]
/// with a throwaway workspace.
pub fn select_seeds_reference<S: RrrSets + ?Sized>(store: &S, k: usize) -> Selection {
    select_seeds_reference_with_gains(store, k, &mut SelectionWorkspace::new()).0
}

/// Algorithm 3 as written: per pick, a parallel argmax over the still
/// unselected vertices (a compacted candidate list, so already-selected ids
/// cost nothing) followed by a thread-parallel membership scan over every
/// RRR set. Byte-identical to [`select_seeds_with_gains`]; quadratically
/// slower at scale, which is exactly what makes it a useful oracle.
pub fn select_seeds_reference_with_gains<S: RrrSets + ?Sized>(
    store: &S,
    k: usize,
    ws: &mut SelectionWorkspace,
) -> (Selection, Vec<usize>) {
    let n = store.num_vertices();
    let num_sets = store.num_sets();
    assert!(k <= n, "k exceeds vertex count");
    SelectionWorkspace::reset(&mut ws.counts, n, store.counts().iter().copied());
    SelectionWorkspace::reset(
        &mut ws.flags,
        num_sets.div_ceil(32),
        std::iter::repeat_n(0, num_sets.div_ceil(32)),
    );
    ws.candidates.clear();
    ws.candidates.extend(0..n as u32);
    let (counts, flags) = (&ws.counts, &ws.flags);
    let covered = AtomicUsize::new(0);
    let mut seeds = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);

    for _ in 0..k {
        // argmax_u C[u] over the candidate list (parallel reduce, ties to
        // the smallest id).
        let candidates = &ws.candidates;
        let best = (0..candidates.len())
            .into_par_iter()
            .map(|pos| {
                let v = candidates[pos];
                (counts[v as usize].load(Ordering::Relaxed), v, pos)
            })
            .reduce(
                || (0u32, u32::MAX, usize::MAX),
                |a, b| {
                    if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                        b
                    } else {
                        a
                    }
                },
            );
        if best.2 == usize::MAX {
            break; // fewer than k vertices exist
        }
        let vid = best.1;
        ws.candidates.swap_remove(best.2);
        seeds.push(vid);
        let covered_before = covered.load(Ordering::Relaxed);
        // Thread-parallel scan: one task per set (Algorithm 3).
        (0..num_sets).into_par_iter().for_each(|i| {
            let (word, bit) = (i / 32, 1u32 << (i % 32));
            if flags[word].load(Ordering::Relaxed) & bit != 0 {
                return;
            }
            if store.contains(i, vid) {
                // First marker wins; others skip the decrement.
                if flags[word].fetch_or(bit, Ordering::Relaxed) & bit == 0 {
                    covered.fetch_add(1, Ordering::Relaxed);
                    let (s, e) = store.set_bounds(i);
                    for idx in s..e {
                        let u = store.element(idx) as usize;
                        counts[u].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        });
        gains.push(covered.load(Ordering::Relaxed) - covered_before);
    }

    (
        Selection {
            seeds,
            covered_sets: covered.into_inner(),
            num_sets,
        },
        gains,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrrstore::{PlainRrrStore, RrrStoreBuilder};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn store_from(sets: &[&[u32]], n: usize) -> PlainRrrStore {
        let mut s = PlainRrrStore::new(n);
        for set in sets {
            s.append_set(set);
        }
        s
    }

    #[test]
    fn picks_max_coverage_vertex_first() {
        // Vertex 2 covers three sets; nothing else covers more than one.
        let s = store_from(&[&[0, 2], &[1, 2], &[2, 3], &[4]], 5);
        let sel = select_seeds(&s, 1);
        assert_eq!(sel.seeds, vec![2]);
        assert_eq!(sel.covered_sets, 3);
        assert!((sel.coverage_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn second_seed_maximizes_marginal_gain() {
        // After 2 covers {0,1,2}, the marginal winner is 4 (covers the last
        // set), not 0/1/3 (whose sets are already covered).
        let s = store_from(&[&[0, 2], &[1, 2], &[2, 3], &[4]], 5);
        let sel = select_seeds(&s, 2);
        assert_eq!(sel.seeds, vec![2, 4]);
        assert_eq!(sel.covered_sets, 4);
        assert_eq!(sel.coverage_fraction(), 1.0);
    }

    #[test]
    fn ties_break_to_smallest_id() {
        let s = store_from(&[&[3], &[1], &[1, 3]], 5);
        let sel = select_seeds(&s, 1);
        assert_eq!(sel.seeds, vec![1]);
    }

    #[test]
    fn empty_store_selects_lowest_ids() {
        let s = store_from(&[], 5);
        let sel = select_seeds(&s, 3);
        assert_eq!(sel.seeds, vec![0, 1, 2]);
        assert_eq!(sel.covered_sets, 0);
        assert_eq!(sel.coverage_fraction(), 0.0);
    }

    #[test]
    fn k_larger_than_useful_still_returns_k() {
        let s = store_from(&[&[0]], 4);
        let sel = select_seeds(&s, 3);
        assert_eq!(sel.seeds.len(), 3);
        assert_eq!(sel.seeds[0], 0);
        assert_eq!(sel.covered_sets, 1);
    }

    #[test]
    fn never_selects_same_vertex_twice() {
        let s = store_from(&[&[0], &[0], &[0], &[0]], 3);
        let sel = select_seeds(&s, 3);
        let mut sorted = sel.seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn gains_sum_to_coverage_and_decrease() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let n = 80;
        let mut store = PlainRrrStore::new(n);
        for _ in 0..300 {
            let len = rng.gen_range(1..8);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let (sel, gains) = super::select_seeds_with_gains(&store, 8);
        assert_eq!(gains.len(), sel.seeds.len());
        assert_eq!(gains.iter().sum::<usize>(), sel.covered_sets);
        // Submodularity of coverage: marginal gains never increase.
        assert!(gains.windows(2).all(|w| w[0] >= w[1]), "{gains:?}");
    }

    #[test]
    fn coverage_is_monotone_in_k() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let n = 40;
        let mut store = PlainRrrStore::new(n);
        for _ in 0..100 {
            let len = rng.gen_range(1..6);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let mut prev = 0;
        for k in 1..10 {
            let sel = select_seeds(&store, k);
            assert!(sel.covered_sets >= prev);
            prev = sel.covered_sets;
        }
    }

    #[test]
    fn selection_deterministic_under_parallelism() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let n = 200;
        let mut store = PlainRrrStore::new(n);
        for _ in 0..500 {
            let len = rng.gen_range(1..10);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        let a = select_seeds(&store, 10);
        let b = select_seeds(&store, 10);
        assert_eq!(a, b);
    }

    /// A random store with `sets` sets over `n` vertices; `max_len = 1`
    /// makes it tie-heavy (every count collides with dozens of others).
    fn random_store(n: usize, sets: usize, max_len: usize, seed: u64) -> PlainRrrStore {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut store = PlainRrrStore::new(n);
        for _ in 0..sets {
            let len = rng.gen_range(1..max_len + 1);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        store
    }

    fn assert_paths_identical(store: &PlainRrrStore, k: usize, ctx: &str) {
        let (fast, fast_gains) = select_seeds_with_gains(store, k);
        let (reference, ref_gains) =
            select_seeds_reference_with_gains(store, k, &mut SelectionWorkspace::new());
        assert_eq!(fast, reference, "{ctx}");
        assert_eq!(fast_gains, ref_gains, "{ctx}");
    }

    #[test]
    fn indexed_matches_reference_on_random_stores() {
        for trial in 0..10 {
            let store = random_store(120, 400, 10, 100 + trial);
            for k in [1, 5, 17, 120] {
                assert_paths_identical(&store, k, &format!("trial {trial} k {k}"));
            }
        }
    }

    #[test]
    fn indexed_matches_reference_on_tie_heavy_stores() {
        // Singleton sets over few vertices: nearly every gain value is
        // shared by many vertices, so every pick exercises the tie-break.
        for trial in 0..10 {
            let store = random_store(12, 300, 1, 200 + trial);
            for k in [1, 3, 12] {
                assert_paths_identical(&store, k, &format!("tie trial {trial} k {k}"));
            }
        }
    }

    #[test]
    fn indexed_matches_reference_on_empty_and_exhausted_stores() {
        // No sets at all: both paths must fall back to ascending ids.
        assert_paths_identical(&store_from(&[], 9), 4, "empty store");
        // Fewer useful vertices than k: both pad with ascending zero-gain ids.
        assert_paths_identical(&store_from(&[&[5], &[5], &[7]], 10), 6, "exhausted");
    }

    #[test]
    fn workspace_reuse_does_not_leak_state_between_stores() {
        let mut ws = SelectionWorkspace::new();
        // Big store first, then a smaller one: stale counts/flags from the
        // first call must not bleed into the second.
        let big = random_store(100, 500, 8, 7);
        let small = random_store(30, 40, 4, 8);
        let _ = select_seeds_reference_with_gains(&big, 20, &mut ws);
        let reused = select_seeds_reference_with_gains(&small, 5, &mut ws);
        let fresh = select_seeds_reference_with_gains(&small, 5, &mut SelectionWorkspace::new());
        assert_eq!(reused.0, fresh.0);
        assert_eq!(reused.1, fresh.1);
    }

    #[test]
    fn deterministic_under_varying_thread_counts() {
        let store = random_store(150, 2_000, 12, 77);
        let baseline = select_seeds_with_gains(&store, 20);
        for threads in [1, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| select_seeds_with_gains(&store, 20));
            assert_eq!(got.0, baseline.0, "threads = {threads}");
            assert_eq!(got.1, baseline.1, "threads = {threads}");
            let reference = pool.install(|| {
                select_seeds_reference_with_gains(&store, 20, &mut SelectionWorkspace::new())
            });
            assert_eq!(reference.0, baseline.0, "reference, threads = {threads}");
        }
    }

    /// Proptest generator: a sorted-unique set over `0..n`.
    fn arb_set(n: u32) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(0..n, 1..10).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Differential property: the indexed/lazy selector is
        /// byte-identical to the reference greedy — seeds, coverage, and
        /// per-pick gains — on arbitrary stores, including tie-heavy ones
        /// (tiny vertex ranges force count collisions).
        #[test]
        fn indexed_selector_equals_reference(
            n in 1usize..40,
            sets in proptest::collection::vec(arb_set(40), 0..60),
            k_frac in 0.0f64..1.0,
        ) {
            let mut store = PlainRrrStore::new(n.max(40));
            for set in &sets {
                store.append_set(set);
            }
            let k = ((store.num_vertices() as f64) * k_frac) as usize;
            assert_paths_identical(&store, k, "proptest");
        }
    }
}
