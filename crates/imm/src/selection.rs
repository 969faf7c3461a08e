//! Greedy max-coverage seed selection (§3.5, Algorithm 3 — CPU reference).
//!
//! One host implementation: [`lazy_greedy`], CELF lazy greedy that
//! revalidates one stale heap entry at a time. Stale entries carry upper
//! bounds (submodularity), so each pick recounts only the few vertices
//! whose bound still competes, with `O(|run|)` work per recount instead of
//! a rescan of every RRR set. It reads sets through an inverted index
//! (vertex → ids of the sets containing it): [`select_seeds`] builds a CSR
//! one over a store, and the streaming engine passes its maintained
//! postings cut at a prefix. Gain ties break toward the smallest vertex
//! id, so seed sets are deterministic.
//!
//! The direct Algorithm 3 transcription — per pick, take the vertex in the
//! most *uncovered* sets, mark every set containing it covered (one task
//! per set, membership by binary search) and decrement the counts of the
//! newly covered sets' members — lives in this file's tests as the
//! differential oracle. The GPU-model variant with cost accounting lives in
//! `eim-core`.

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
    lazy_greedy(n, num_sets, num_sets, k, |v| index.run(v))
}

/// CELF lazy greedy, the one host max-coverage loop. `run(v)` lists the
/// ids (all `< id_bound`) of the sets containing vertex `v`; its length is
/// `v`'s initial gain. `num_sets` is the set count reported in the
/// [`Selection`] — `id_bound` when every id names a set, fewer when the id
/// space has empty holes (streaming's eliminated slots).
///
/// The heap holds exactly one `(gain upper bound, Reverse(vertex), picks
/// when validated)` entry per vertex. A popped entry validated since the
/// last pick is exact and selected; a stale one is recounted against the
/// current coverage and pushed back (submodularity keeps the stale value an
/// upper bound). The `(gain desc, id asc)` order reproduces the reference
/// tie-break: an equal-gain smaller-id entry — stale or not — always pops
/// before a larger-id one can be selected.
pub(crate) fn lazy_greedy<'a>(
    n: usize,
    id_bound: usize,
    num_sets: usize,
    k: usize,
    run: impl Fn(usize) -> &'a [u32],
) -> (Selection, Vec<usize>) {
    // Covered flags, one bit per set id (the paper's binary array F).
    let mut covered = vec![0u32; id_bound.div_ceil(32)];
    let mut covered_count = 0usize;
    let mut heap: BinaryHeap<(u32, Reverse<u32>, u32)> = (0..n)
        .map(|v| (run(v).len() as u32, Reverse(v as u32), 0u32))
        .collect();
    let mut seeds: Vec<VertexId> = Vec::with_capacity(k);
    let mut gains = Vec::with_capacity(k);
    while seeds.len() < k {
        let Some((bound, Reverse(v), validated)) = heap.pop() else {
            break;
        };
        let picks = seeds.len() as u32;
        if validated == picks {
            let mut gain = 0usize;
            for &i in run(v as usize) {
                let (word, bit) = ((i / 32) as usize, 1u32 << (i % 32));
                if covered[word] & bit == 0 {
                    covered[word] |= bit;
                    gain += 1;
                }
            }
            debug_assert_eq!(gain as u32, bound, "validated gain was not exact");
            covered_count += gain;
            seeds.push(v);
            gains.push(gain);
        } else {
            let fresh = run(v as usize)
                .iter()
                .filter(|&&i| covered[(i / 32) as usize] & (1u32 << (i % 32)) == 0)
                .count() as u32;
            heap.push((fresh, Reverse(v), picks));
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

/// Algorithm 3 as written, the differential-testing oracle for
/// [`lazy_greedy`]: per pick, a parallel argmax over the still unselected
/// vertices (a compacted candidate list, so already-selected ids cost
/// nothing) followed by a thread-parallel membership scan over every RRR
/// set. Byte-identical to [`select_seeds_with_gains`]; quadratically slower
/// at scale, which is exactly what makes it a useful oracle.
#[cfg(test)]
mod reference {
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    use rayon::prelude::*;

    use super::Selection;
    use crate::rrrstore::RrrSets;

    /// [`select_seeds_reference_with_gains`] without the gains.
    pub(super) fn select_seeds_reference<S: RrrSets + ?Sized>(store: &S, k: usize) -> Selection {
        select_seeds_reference_with_gains(store, k).0
    }

    /// The reference selector: seeds, coverage and per-pick gains.
    pub(super) fn select_seeds_reference_with_gains<S: RrrSets + ?Sized>(
        store: &S,
        k: usize,
    ) -> (Selection, Vec<usize>) {
        let n = store.num_vertices();
        let num_sets = store.num_sets();
        assert!(k <= n, "k exceeds vertex count");
        let counts: Vec<AtomicU32> = store.counts().iter().map(|&c| AtomicU32::new(c)).collect();
        let flags: Vec<AtomicU32> = (0..num_sets.div_ceil(32))
            .map(|_| AtomicU32::new(0))
            .collect();
        let mut candidates: Vec<u32> = (0..n as u32).collect();
        let covered = AtomicUsize::new(0);
        let mut seeds = Vec::with_capacity(k);
        let mut gains = Vec::with_capacity(k);

        for _ in 0..k {
            // argmax_u C[u] over the candidate list (parallel reduce, ties
            // to the smallest id).
            let cands = &candidates;
            let best = (0..cands.len())
                .into_par_iter()
                .map(|pos| {
                    let v = cands[pos];
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
            candidates.swap_remove(best.2);
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
}

#[cfg(test)]
mod tests {
    use super::reference::{select_seeds_reference, select_seeds_reference_with_gains};
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
        let (reference, ref_gains) = select_seeds_reference_with_gains(store, k);
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
            let reference = pool.install(|| select_seeds_reference(&store, 20));
            assert_eq!(reference, baseline.0, "reference, threads = {threads}");
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
