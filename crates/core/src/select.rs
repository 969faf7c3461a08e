//! Device seed selection (§3.5, Algorithm 3) with cost accounting.
//!
//! Greedy max-coverage, as in the CPU reference, but executed under the
//! device cost model with one of two workload-distribution strategies:
//!
//! * [`ScanStrategy::ThreadPerSet`] — eIM's choice: one *thread* per RRR
//!   set. `T_n = 32 W_n` slots, each paying the full serial binary-search
//!   cost `C_t`.
//! * [`ScanStrategy::WarpPerSet`] — the alternative the paper measures
//!   against (Figure 3): one *warp* per set. `W_n` slots, each set cheaper
//!   (`C_w < C_t`, coalesced loads + cooperative probing) but far fewer
//!   slots, so serialization grows with the number of sets.
//!
//! The makespan of each scan is `max over slots of its summed per-set
//! costs` under round-robin assignment — exactly the
//! `ceil(N / slots) * C` analysis of §3.5.
//!
//! # Host cost
//!
//! Each greedy pick is one fused pass: a serial argmax over `C` (ties
//! toward the smallest id), then one parallel fold over warps of scan slots
//! (slot `s` owns sets `s, s + slots, …`) that probes every uncovered set
//! once and folds its price straight into the slot, warp and kernel
//! totals, then decrements of the members of the sets it newly covered.
//! Nothing is allocated per set and no decoded copy of the store is made.
//! [`select_on_any_store`] resolves the [`AnyRrrStore`] backend once per
//! call, so each backend runs its own [`RrrSets::contains_with_probes`].

use std::ops::Range;

use eim_gpusim::{Device, KernelHw, GLOBAL_TRANSACTION_BYTES, WARP_SIZE};
use eim_graph::VertexId;
use eim_imm::{AnyRrrStore, RrrSets, Selection};
use parking_lot::Mutex;
use rayon::prelude::*;

/// Workload distribution for the selection scans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanStrategy {
    /// One thread per RRR set (eIM).
    ThreadPerSet,
    /// One warp (32 threads) per RRR set.
    WarpPerSet,
}

/// How many warp-cooperative probes amortize one thread probe: a warp
/// searches a sorted run 32-ary instead of binary, cutting probe rounds by
/// `log2(32) = 5x`, but pays intra-warp coordination — net ~4x per set.
const WARP_SEARCH_SPEEDUP: u64 = 4;

/// Sets one parallel work item of the membership scan covers, at least:
/// enough items to balance the pool, few enough that per-item bookkeeping
/// stays off the per-warp path.
const SETS_PER_SCAN_ITEM: usize = 4096;

/// One greedy iteration's simulated cost: its argmax reduction plus its
/// membership scan. `cycles` and `launches` sum exactly to the parent
/// [`DeviceSelection`] totals; `elapsed_us` is the span duration for a
/// per-iteration trace event (Figure 3's warp-vs-thread crossover is only
/// visible iteration by iteration — later iterations scan mostly-covered
/// sets and cost far less than the first).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectIteration {
    /// Simulated cycles of this iteration's launches.
    pub cycles: u64,
    /// Simulated kernel launches this iteration (2, or 1 for a final
    /// argmax that found every vertex already selected).
    pub launches: u64,
    /// This iteration's simulated duration, microseconds (cycle time plus
    /// launch overheads).
    pub elapsed_us: f64,
    /// Simulated hardware counters for this iteration's launches: occupancy
    /// from slot imbalance, divergence from intra-warp makespans
    /// (ThreadPerSet) or partial tail waves (WarpPerSet), and memory
    /// traffic from the probe and count-update transactions.
    pub hw: KernelHw,
}

/// Result of a device selection: the selection itself plus its simulated
/// time.
#[derive(Clone, Debug)]
pub struct DeviceSelection {
    /// Seeds and coverage.
    pub selection: Selection,
    /// Simulated device time of all k scan iterations, microseconds.
    pub elapsed_us: f64,
    /// Total simulated cycles across all argmax + membership-scan launches.
    pub total_cycles: u64,
    /// Number of simulated kernel launches (two per greedy iteration).
    pub launches: u64,
    /// Per-greedy-iteration cost breakdown, in selection order.
    pub iterations: Vec<SelectIteration>,
}

/// [`select_on_device`] over a runtime-selected store. The backend is
/// resolved here, once per call, so the membership scan runs over the
/// concrete store type instead of dispatching every probe through
/// [`AnyRrrStore`].
pub fn select_on_any_store(
    device: &Device,
    store: &AnyRrrStore,
    k: usize,
    strategy: ScanStrategy,
) -> DeviceSelection {
    match store {
        AnyRrrStore::Plain(s) => select_on_device(device, s, k, strategy),
        AnyRrrStore::Packed(s) => select_on_device(device, s, k, strategy),
    }
}

/// Runs greedy max-coverage over `store` on `device`, charging simulated
/// time for the argmax reductions and the per-set membership scans.
/// Produces bit-identical seeds to [`eim_imm::select_seeds`].
pub fn select_on_device<S: RrrSets + ?Sized>(
    device: &Device,
    store: &S,
    k: usize,
    strategy: ScanStrategy,
) -> DeviceSelection {
    let spec = *device.spec();
    let costs = spec.costs;
    let n = store.num_vertices();
    let num_sets = store.num_sets();
    let mut counts: Vec<u32> = store.counts().to_vec();
    let mut covered_flags = vec![false; num_sets];
    let mut covered = 0usize;
    let mut selected = vec![false; n];
    let mut seeds: Vec<VertexId> = Vec::with_capacity(k);
    let mut total_cycles: u64 = 0;
    let mut launches = 0u64;
    let mut iterations: Vec<SelectIteration> = Vec::with_capacity(k);

    let slots = match strategy {
        ScanStrategy::ThreadPerSet => spec.thread_slots(),
        ScanStrategy::WarpPerSet => spec.warp_slots(),
    };
    // Round-robin assignment only ever lands sets on the first
    // `min(slots, num_sets)` slots; the rest stay empty and would only pad
    // the makespan scan with zeros.
    let used_slots = slots.min(num_sets.max(1));
    // Split the warps into work items of about `SETS_PER_SCAN_ITEM` sets
    // each (slot `s` owns `ceil((num_sets - s) / used_slots)` of them).
    let num_warps = used_slots.div_ceil(WARP_SIZE);
    let warp_sets = |w: usize| -> usize {
        (w * WARP_SIZE..((w + 1) * WARP_SIZE).min(used_slots))
            .map(|s| num_sets.saturating_sub(s).div_ceil(used_slots))
            .sum()
    };
    let mut items: Vec<ScanItem> = Vec::new();
    let mut first = 0;
    while first < num_warps {
        let (mut end, mut owned) = (first, 0);
        while end < num_warps && owned < SETS_PER_SCAN_ITEM {
            owned += warp_sets(end);
            end += 1;
        }
        items.push(ScanItem {
            warps: first..end,
            owned,
            newly_covered: Mutex::default(),
        });
        first = end;
    }
    let (probes_per_round, lanes_per_wave) = match strategy {
        ScanStrategy::ThreadPerSet => (1, 1),
        ScanStrategy::WarpPerSet => (WARP_SEARCH_SPEEDUP, WARP_SIZE as u64),
    };
    // Set `i`'s scan cycles for seed `v` when `i` is still uncovered; its
    // traffic and atomics go into `fold`, and the set into `newly` if `v`
    // covers it.
    let price = |v: VertexId, i: usize, fold: &mut ScanFold, newly: &mut Vec<usize>| {
        // Each search round is a dependent, uncoalesced load into R.
        let (found, probes) = store.contains_with_probes(i, v);
        let rounds = (probes as u64).div_ceil(probes_per_round);
        let mut cycles = costs.alu + rounds * costs.global_latency;
        fold.transactions += rounds;
        if found {
            // Decrement every member's count: serially by a thread, or in
            // 32-lane waves by a warp whose final partial wave predicates
            // off its unused lanes.
            let len = store.set_len(i) as u64;
            let waves = len.div_ceil(lanes_per_wave);
            cycles += costs.atomic_global * waves + costs.global_access;
            fold.transactions += waves + 1;
            fold.atomics += len;
            fold.tail_idle += (waves * lanes_per_wave - len) * costs.atomic_global;
            debug_assert!(newly.len() < newly.capacity());
            newly.push(i);
        }
        cycles
    };
    // Probes and prices every set owned by the slots of `item`'s warps
    // (warp `w` is slots `32w .. 32w + 32`).
    let scan = |v: VertexId, covered: &[bool], item: &ScanItem| {
        let mut fold = ScanFold::default();
        let mut newly = item.newly_covered.lock();
        for w in item.warps.clone() {
            let first = w * WARP_SIZE;
            let width = WARP_SIZE.min(used_slots - first);
            let mut lanes = [0u64; WARP_SIZE];
            for base in (first..num_sets).step_by(used_slots) {
                for (lane, i) in lanes.iter_mut().zip(base..(base + width).min(num_sets)) {
                    // A covered set costs its F[i] load only (coalesced).
                    *lane += if covered[i] {
                        costs.alu
                    } else {
                        price(v, i, &mut fold, &mut newly)
                    };
                }
            }
            let wmax = lanes.iter().copied().max().unwrap_or(0);
            fold.makespan = fold.makespan.max(wmax);
            fold.warp_max_sum += wmax;
            fold.slot_sum += lanes.iter().sum::<u64>();
        }
        fold
    };

    let iteration = |cycles: u64, launches: u64, hw: KernelHw| SelectIteration {
        cycles,
        launches,
        elapsed_us: spec.cycles_to_us(cycles) + launches as f64 * costs.kernel_launch_us,
        hw,
    };

    let warp_slots = spec.warp_slots() as u64;
    for _ in 0..k {
        // argmax_u C[u]: a grid-stride reduction over n counts.
        let argmax_cycles = (n as u64).div_ceil(spec.thread_slots() as u64) * costs.global_access
            + 10 * costs.shuffle;
        total_cycles += argmax_cycles;
        launches += 1;
        // The argmax is uniform grid-stride work: every warp slot busy for
        // the whole launch, no divergence; one coalesced 32-wide load per
        // warp over the n counts.
        let mut hw = KernelHw {
            occ_busy_cycles: argmax_cycles * warp_slots,
            occ_capacity_cycles: argmax_cycles * warp_slots,
            active_lane_cycles: WARP_SIZE as u64 * argmax_cycles,
            global_transactions: (n as u64).div_ceil(WARP_SIZE as u64),
            ..KernelHw::default()
        };
        hw.global_bytes = hw.global_transactions * GLOBAL_TRANSACTION_BYTES;
        let mut best: Option<(u32, usize)> = None;
        for (u, &c) in counts.iter().enumerate() {
            if !selected[u] && best.is_none_or(|(bc, _)| c > bc) {
                best = Some((c, u));
            }
        }
        let Some((gain, best)) = best else {
            // The dangling argmax still launched: give it its own entry so
            // the breakdown sums to the totals.
            iterations.push(iteration(argmax_cycles, 1, hw));
            break;
        };
        let v = best as VertexId;
        selected[best] = true;
        seeds.push(v);

        // Membership scan (Algorithm 3), folded over warps of slots. The
        // pick newly covers exactly `gain` sets, so each item's list is sized
        // for that here, on this thread: lists grown on the workers raised
        // the process's peak RSS.
        for item in &mut items {
            let newly = item.newly_covered.get_mut();
            newly.clear();
            newly.reserve(item.owned.min(gain as usize));
        }
        let fold = items
            .par_iter()
            .map(|item| scan(v, &covered_flags, item))
            .reduce(ScanFold::default, ScanFold::merge);
        total_cycles += fold.makespan;
        launches += 1;

        match strategy {
            ScanStrategy::ThreadPerSet => {
                // 32 consecutive thread slots form a warp; the warp is
                // resident until its slowest lane drains, and every cycle a
                // lane waits under that makespan is divergence.
                hw.occ_busy_cycles += fold.warp_max_sum;
                hw.active_lane_cycles += fold.slot_sum;
                hw.idle_lane_cycles += WARP_SIZE as u64 * fold.warp_max_sum - fold.slot_sum;
            }
            ScanStrategy::WarpPerSet => {
                // Each warp slot is busy for its summed per-set cycles; the
                // only predicated-off lanes are the atomic tail waves.
                hw.occ_busy_cycles += fold.slot_sum;
                hw.active_lane_cycles +=
                    (WARP_SIZE as u64 * fold.slot_sum).saturating_sub(fold.tail_idle);
                hw.idle_lane_cycles += fold.tail_idle;
            }
        }
        hw.occ_capacity_cycles += warp_slots * fold.makespan;
        hw.global_transactions += fold.transactions;
        hw.global_bytes += fold.transactions * GLOBAL_TRANSACTION_BYTES;
        hw.atomics += fold.atomics;

        // Apply the updates the scan performed (host mirror of the device
        // writes): mark covered sets, decrement member counts.
        for &i in items
            .iter_mut()
            .flat_map(|item| item.newly_covered.get_mut().iter())
        {
            covered_flags[i] = true;
            covered += 1;
            let (s, e) = store.set_bounds(i);
            for idx in s..e {
                counts[store.element(idx) as usize] -= 1;
            }
        }
        iterations.push(iteration(argmax_cycles + fold.makespan, 2, hw));
    }

    DeviceSelection {
        selection: Selection {
            seeds,
            covered_sets: covered,
            num_sets,
        },
        elapsed_us: spec.cycles_to_us(total_cycles) + launches as f64 * costs.kernel_launch_us,
        total_cycles,
        launches,
        iterations,
    }
}

/// Membership-scan totals of one pick over a range of warps. Every field is
/// an integer sum or max, so any split of the warps folds to the same
/// totals.
#[derive(Default)]
struct ScanFold {
    /// The busiest slot's summed cycles: the scan's makespan.
    makespan: u64,
    /// Sum over warps of the warp's busiest-slot cycles.
    warp_max_sum: u64,
    /// Sum over slots of each slot's summed cycles.
    slot_sum: u64,
    transactions: u64,
    atomics: u64,
    /// Lane-cycles predicated off in partial decrement waves.
    tail_idle: u64,
}

impl ScanFold {
    fn merge(mut self, o: ScanFold) -> ScanFold {
        self.makespan = self.makespan.max(o.makespan);
        self.warp_max_sum += o.warp_max_sum;
        self.slot_sum += o.slot_sum;
        self.transactions += o.transactions;
        self.atomics += o.atomics;
        self.tail_idle += o.tail_idle;
        self
    }
}

/// One parallel work item of the membership scan: a range of warps, the
/// number of sets they own, and the sets its latest scan newly covered.
/// Only the worker scanning the item takes its lock.
struct ScanItem {
    warps: Range<usize>,
    owned: usize,
    newly_covered: Mutex<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eim_gpusim::DeviceSpec;
    use eim_imm::{select_seeds, PlainRrrStore, RrrStoreBuilder};
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, sets: usize, seed: u64) -> PlainRrrStore {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut store = PlainRrrStore::new(n);
        for _ in 0..sets {
            let len = rng.gen_range(1..12);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            store.append_set(&set);
        }
        store
    }

    #[test]
    fn matches_cpu_reference_selection() {
        let store = random_store(120, 400, 5);
        let device = Device::new(DeviceSpec::test_small());
        for k in [1, 5, 10] {
            let dev = select_on_device(&device, &store, k, ScanStrategy::ThreadPerSet);
            let cpu = select_seeds(&store, k);
            assert_eq!(dev.selection, cpu, "k = {k}");
        }
    }

    #[test]
    fn strategies_agree_on_seeds_but_not_time() {
        let store = random_store(200, 3_000, 9);
        let device = Device::new(DeviceSpec::test_small());
        let t = select_on_device(&device, &store, 8, ScanStrategy::ThreadPerSet);
        let w = select_on_device(&device, &store, 8, ScanStrategy::WarpPerSet);
        assert_eq!(t.selection, w.selection);
        assert_ne!(t.elapsed_us, w.elapsed_us);
    }

    #[test]
    fn figure3_crossover_thread_wins_at_scale() {
        // Small N: warps win (cheaper per set, enough slots). Large N:
        // threads win. Mirrors Figure 3 with k fixed.
        let device = Device::new(DeviceSpec::rtx_a6000());
        let small = random_store(100, 2_000, 1);
        let ts = select_on_device(&device, &small, 3, ScanStrategy::ThreadPerSet);
        let ws = select_on_device(&device, &small, 3, ScanStrategy::WarpPerSet);
        assert!(
            ws.elapsed_us <= ts.elapsed_us,
            "small N: warp {} vs thread {}",
            ws.elapsed_us,
            ts.elapsed_us
        );
        let large = random_store(100, 600_000, 2);
        let tl = select_on_device(&device, &large, 3, ScanStrategy::ThreadPerSet);
        let wl = select_on_device(&device, &large, 3, ScanStrategy::WarpPerSet);
        assert!(
            tl.elapsed_us < wl.elapsed_us,
            "large N: thread {} vs warp {}",
            tl.elapsed_us,
            wl.elapsed_us
        );
    }

    #[test]
    fn covered_sets_cost_almost_nothing_in_later_iterations() {
        // One dominating vertex: after seed 1 everything is covered, so
        // iteration 2's scan must be much cheaper than iteration 1's.
        let mut store = PlainRrrStore::new(50);
        for i in 0..2_000u32 {
            store.append_set(&[7, 10 + (i % 3)]);
        }
        let device = Device::new(DeviceSpec::test_small());
        let one = select_on_device(&device, &store, 1, ScanStrategy::ThreadPerSet);
        let two = select_on_device(&device, &store, 2, ScanStrategy::ThreadPerSet);
        let second_iter = two.elapsed_us - one.elapsed_us;
        assert!(
            second_iter < one.elapsed_us,
            "first {} second {}",
            one.elapsed_us,
            second_iter
        );
        assert_eq!(two.selection.covered_sets, 2_000);
    }

    #[test]
    fn empty_store_selects_lowest_ids_quickly() {
        let store = PlainRrrStore::new(10);
        let device = Device::new(DeviceSpec::test_small());
        let r = select_on_device(&device, &store, 3, ScanStrategy::ThreadPerSet);
        assert_eq!(r.selection.seeds, vec![0, 1, 2]);
        assert_eq!(r.selection.covered_sets, 0);
    }

    #[test]
    fn iteration_breakdown_sums_to_totals() {
        let store = random_store(150, 2_000, 21);
        let device = Device::new(DeviceSpec::test_small());
        for strategy in [ScanStrategy::ThreadPerSet, ScanStrategy::WarpPerSet] {
            let r = select_on_device(&device, &store, 7, strategy);
            assert_eq!(r.iterations.len(), 7);
            assert_eq!(
                r.iterations.iter().map(|i| i.cycles).sum::<u64>(),
                r.total_cycles
            );
            assert_eq!(
                r.iterations.iter().map(|i| i.launches).sum::<u64>(),
                r.launches
            );
            for it in &r.iterations {
                assert_eq!(it.launches, 2);
                assert!(it.cycles > 0);
                assert!(it.elapsed_us > 0.0);
            }
        }
    }

    #[test]
    fn exhausted_vertices_yield_a_dangling_argmax_iteration() {
        // k > n: after n picks every vertex is selected and the final
        // argmax launches but selects nothing.
        let store = PlainRrrStore::new(3);
        let device = Device::new(DeviceSpec::test_small());
        let r = select_on_device(&device, &store, 5, ScanStrategy::ThreadPerSet);
        assert_eq!(r.selection.seeds, vec![0, 1, 2]);
        assert_eq!(r.iterations.len(), 4);
        assert_eq!(r.iterations.last().unwrap().launches, 1);
        assert_eq!(
            r.iterations.iter().map(|i| i.cycles).sum::<u64>(),
            r.total_cycles
        );
        assert_eq!(
            r.iterations.iter().map(|i| i.launches).sum::<u64>(),
            r.launches
        );
    }

    #[test]
    fn deterministic() {
        let store = random_store(80, 500, 13);
        let device = Device::new(DeviceSpec::test_small());
        let a = select_on_device(&device, &store, 6, ScanStrategy::ThreadPerSet);
        let b = select_on_device(&device, &store, 6, ScanStrategy::ThreadPerSet);
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.elapsed_us, b.elapsed_us);
    }
}
