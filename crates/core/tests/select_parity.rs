//! Parity of the fused device selection with its oracle.
//!
//! [`oracle_select`] is the original transcription of the selection cost
//! model: it probes every set, collects one `(cycles, found, transactions,
//! atomics, tail-idle)` tuple per set, then folds the tuples into slot sums
//! and counters in a separate serial pass. `select_on_device` and
//! `select_on_any_store` price the same work in one fused pass per pick;
//! every simulated output, down to each iteration's `KernelHw` and the bit
//! pattern of each `elapsed_us`, must match the oracle exactly.

use eim_core::select::{
    select_on_any_store, select_on_device, DeviceSelection, ScanStrategy, SelectIteration,
};
use eim_gpusim::{Device, DeviceSpec, KernelHw, GLOBAL_TRANSACTION_BYTES, WARP_SIZE};
use eim_graph::VertexId;
use eim_imm::{AnyRrrStore, RrrSets, RrrStoreBuilder, Selection};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// The oracle's copy of the warp-search amortization factor.
const WARP_SEARCH_SPEEDUP: u64 = 4;

/// Runs greedy max-coverage over `store` on `device`, charging simulated
/// time for the argmax reductions and the per-set membership scans.
fn oracle_select<S: RrrSets + ?Sized>(
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
    // Rayon with a single worker still pays per-call pool dispatch; the
    // simulated cost model is identical either way, so take the serial
    // path outright (the same convention as `eim_imm::select_seeds`).
    let serial = rayon::current_num_threads() <= 1;

    let push_iteration =
        |total_cycles: u64, launches: u64, hw: KernelHw, iters: &mut Vec<SelectIteration>| {
            let done: u64 = iters.iter().map(|it| it.cycles).sum();
            let done_launches: u64 = iters.iter().map(|it| it.launches).sum();
            let cycles = total_cycles - done;
            let l = launches - done_launches;
            iters.push(SelectIteration {
                cycles,
                launches: l,
                elapsed_us: spec.cycles_to_us(cycles) + l as f64 * costs.kernel_launch_us,
                hw,
            });
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
        let best = if serial {
            let mut best = (0u32, usize::MAX);
            for (v, &c) in counts.iter().enumerate() {
                if !selected[v] && (best.1 == usize::MAX || c > best.0) {
                    best = (c, v);
                }
            }
            best
        } else {
            (0..n)
                .into_par_iter()
                .filter(|&v| !selected[v])
                .map(|v| (counts[v], v))
                .reduce(
                    || (0u32, usize::MAX),
                    |a, b| {
                        if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                            b
                        } else {
                            a
                        }
                    },
                )
        };
        if best.1 == usize::MAX {
            // The dangling argmax still launched: give it its own entry so
            // the breakdown sums to the totals.
            push_iteration(total_cycles, launches, hw, &mut iterations);
            break;
        }
        let v = best.1 as VertexId;
        selected[best.1] = true;
        seeds.push(v);

        // Membership scan (Algorithm 3): per-set cost depends on covered
        // state, probe count, and — when found — the count-update work.
        // Each entry: (cycles, found, global transactions, atomics,
        // tail-wave idle lane-cycles for WarpPerSet).
        let scan_set = |i: usize| {
            {
                if covered_flags[i] {
                    // F[i] load only (coalesced).
                    return (costs.alu, false, 0, 0, 0);
                }
                let (found, probes) = store.contains_with_probes(i, v);
                let len = store.set_len(i) as u64;
                let (cycles, txns, atomics, tail_idle) = match strategy {
                    ScanStrategy::ThreadPerSet => {
                        // Each probe is a dependent, uncoalesced load into R.
                        let search = probes as u64 * costs.global_latency;
                        if found {
                            // Serial decrement of every member's count.
                            let c = search + costs.atomic_global * len + costs.global_access;
                            (c, probes as u64 + len + 1, len, 0)
                        } else {
                            (search, probes as u64, 0, 0)
                        }
                    }
                    ScanStrategy::WarpPerSet => {
                        let rounds = (probes as u64).div_ceil(WARP_SEARCH_SPEEDUP);
                        let search = rounds * costs.global_latency;
                        if found {
                            // 32 lanes decrement cooperatively; the final
                            // partial wave predicates off its unused lanes.
                            let waves = len.div_ceil(WARP_SIZE as u64);
                            let c = search + costs.atomic_global * waves + costs.global_access;
                            let idle = (waves * WARP_SIZE as u64 - len) * costs.atomic_global;
                            (c, rounds + waves + 1, len, idle)
                        } else {
                            (search, rounds, 0, 0)
                        }
                    }
                };
                (costs.alu + cycles, found, txns, atomics, tail_idle)
            }
        };
        let per_set: Vec<(u64, bool, u64, u64, u64)> = if serial {
            (0..num_sets).map(scan_set).collect()
        } else {
            (0..num_sets).into_par_iter().map(scan_set).collect()
        };
        // Round-robin slot assignment (the §3.5 schedule): the scan drains
        // when the busiest slot does; the per-slot sums also feed the
        // occupancy and divergence counters below.
        let mut slot_sums = vec![0u64; used_slots];
        for (i, &(c, ..)) in per_set.iter().enumerate() {
            slot_sums[i % used_slots] += c;
        }
        let scan_makespan = slot_sums.iter().copied().max().unwrap_or(0);
        total_cycles += scan_makespan;
        launches += 1;

        match strategy {
            ScanStrategy::ThreadPerSet => {
                // 32 consecutive thread slots form a warp; the warp is
                // resident until its slowest lane drains, and every cycle a
                // lane waits under that makespan is divergence.
                for warp in slot_sums.chunks(WARP_SIZE) {
                    let wmax = warp.iter().copied().max().unwrap_or(0);
                    let wsum: u64 = warp.iter().sum();
                    hw.occ_busy_cycles += wmax;
                    hw.active_lane_cycles += wsum;
                    hw.idle_lane_cycles += WARP_SIZE as u64 * wmax - wsum;
                }
            }
            ScanStrategy::WarpPerSet => {
                // Each warp slot is busy for its summed per-set cycles; the
                // only predicated-off lanes are the atomic tail waves.
                let scanned: u64 = slot_sums.iter().sum();
                let tail_idle: u64 = per_set.iter().map(|&(.., idle)| idle).sum();
                hw.occ_busy_cycles += scanned;
                hw.active_lane_cycles += (WARP_SIZE as u64 * scanned).saturating_sub(tail_idle);
                hw.idle_lane_cycles += tail_idle;
            }
        }
        hw.occ_capacity_cycles += warp_slots * scan_makespan;
        let scan_txns: u64 = per_set.iter().map(|&(_, _, t, ..)| t).sum();
        hw.global_transactions += scan_txns;
        hw.global_bytes += scan_txns * GLOBAL_TRANSACTION_BYTES;
        hw.atomics += per_set.iter().map(|&(_, _, _, a, _)| a).sum::<u64>();

        // Apply the updates the scan performed (host mirror of the device
        // writes): mark covered sets, decrement member counts.
        for (i, &(_, found, ..)) in per_set.iter().enumerate() {
            if found {
                covered_flags[i] = true;
                covered += 1;
                let (s, e) = store.set_bounds(i);
                for idx in s..e {
                    counts[store.element(idx) as usize] -= 1;
                }
            }
        }
        push_iteration(total_cycles, launches, hw, &mut iterations);
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

/// Byte equality of two device selections: every integer, every counter,
/// and every `elapsed_us` down to its bit pattern.
fn assert_identical(got: &DeviceSelection, want: &DeviceSelection, ctx: &str) {
    assert_eq!(got.selection, want.selection, "{ctx}: selection");
    assert_eq!(got.total_cycles, want.total_cycles, "{ctx}: total_cycles");
    assert_eq!(got.launches, want.launches, "{ctx}: launches");
    assert_eq!(
        got.elapsed_us.to_bits(),
        want.elapsed_us.to_bits(),
        "{ctx}: elapsed_us {} vs {}",
        got.elapsed_us,
        want.elapsed_us
    );
    assert_eq!(
        got.iterations.len(),
        want.iterations.len(),
        "{ctx}: iterations"
    );
    for (j, (g, w)) in got.iterations.iter().zip(&want.iterations).enumerate() {
        assert_eq!(g.cycles, w.cycles, "{ctx}: iteration {j} cycles");
        assert_eq!(g.launches, w.launches, "{ctx}: iteration {j} launches");
        assert_eq!(
            g.elapsed_us.to_bits(),
            w.elapsed_us.to_bits(),
            "{ctx}: iteration {j} elapsed_us"
        );
        assert_eq!(g.hw, w.hw, "{ctx}: iteration {j} hw");
    }
}

/// `test_small` (1,024 thread slots, 32 warp slots) and an odd device
/// whose 15 warp slots are not a multiple of 32 and whose clock makes
/// `cycles_to_us` inexact.
fn devices() -> Vec<(&'static str, Device)> {
    let odd = DeviceSpec {
        num_sms: 3,
        warps_per_sm: 5,
        clock_ghz: 1.41,
        ..DeviceSpec::test_small()
    };
    vec![
        ("test_small", Device::new(DeviceSpec::test_small())),
        ("odd", Device::new(odd)),
    ]
}

fn random_sets(n: usize, sets: usize, max_len: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..sets)
        .map(|_| {
            let len = rng.gen_range(1..max_len + 1);
            let mut set: Vec<u32> = (0..len).map(|_| rng.gen_range(0..n as u32)).collect();
            set.sort_unstable();
            set.dedup();
            set
        })
        .collect()
}

/// The same sets in the Plain and Packed backends.
fn backends(n: usize, sets: &[Vec<u32>]) -> Vec<(&'static str, AnyRrrStore)> {
    let mut plain = AnyRrrStore::new(n, false);
    let mut packed = AnyRrrStore::new(n, true);
    for set in sets {
        plain.append_set(set);
        packed.append_set(set);
    }
    vec![("plain", plain), ("packed", packed)]
}

/// Checks both entry points of the fused selection against the oracle on
/// every backend, device and strategy, under rayon pools of 1, 2 and 4
/// threads.
fn check(n: usize, sets: &[Vec<u32>], ks: &[usize], ctx: &str) {
    let pools: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap();
            (t, pool)
        })
        .collect();
    for (backend, store) in backends(n, sets) {
        for (dev_name, device) in devices() {
            for strategy in [ScanStrategy::ThreadPerSet, ScanStrategy::WarpPerSet] {
                for &k in ks {
                    let want = oracle_select(&device, &store, k, strategy);
                    for (threads, pool) in &pools {
                        let ctx = format!(
                            "{ctx}: {backend} on {dev_name}, {strategy:?}, k {k}, {threads} threads"
                        );
                        let any =
                            pool.install(|| select_on_any_store(&device, &store, k, strategy));
                        assert_identical(&any, &want, &ctx);
                        let generic =
                            pool.install(|| select_on_device(&device, &store, k, strategy));
                        assert_identical(&generic, &want, &format!("{ctx} (generic)"));
                    }
                }
            }
        }
    }
}

#[test]
fn random_stores_match_the_oracle() {
    for trial in 0..3 {
        let sets = random_sets(150, 600 + 700 * trial, 12, 40 + trial as u64);
        check(150, &sets, &[1, 7, 25], &format!("random trial {trial}"));
    }
}

#[test]
fn tie_heavy_stores_match_the_oracle() {
    // Singletons over 12 vertices: nearly every count collides, so every
    // argmax exercises the smallest-id tie-break.
    for trial in 0..3 {
        let sets = random_sets(12, 300, 1, 70 + trial);
        check(12, &sets, &[1, 3, 12], &format!("tie trial {trial}"));
    }
}

#[test]
fn empty_store_matches_the_oracle() {
    check(10, &[], &[0, 3, 10], "empty");
}

#[test]
fn dangling_argmax_matches_the_oracle() {
    // k > n: once every vertex is selected, the last argmax launches alone.
    check(3, &[vec![0, 2], vec![1], vec![2]], &[5], "k > n");
    let sets = random_sets(6, 40, 3, 91);
    check(6, &sets, &[9], "k > n random");
}

#[test]
fn slot_shapes_match_the_oracle() {
    // 1,000 sets on 1,024 thread slots: `used_slots` is 1,000, not a
    // multiple of 32, and its last warp is partial. 5,000 sets exceed every
    // device's slots, so slots own several sets each.
    for (sets, seed) in [(1_000, 3), (5_000, 4)] {
        let sets_v = random_sets(300, sets, 9, seed);
        check(300, &sets_v, &[4, 40], &format!("{sets} sets"));
    }
}

#[test]
fn realistic_device_matches_the_oracle() {
    // The benchmark's device: 129,024 thread slots, 4,032 warp slots.
    let device = Device::new(DeviceSpec::rtx_a6000());
    let sets = random_sets(400, 20_000, 10, 8);
    for (backend, store) in backends(400, &sets) {
        for strategy in [ScanStrategy::ThreadPerSet, ScanStrategy::WarpPerSet] {
            let want = oracle_select(&device, &store, 30, strategy);
            let got = select_on_any_store(&device, &store, 30, strategy);
            assert_identical(&got, &want, &format!("rtx_a6000 {backend} {strategy:?}"));
        }
    }
}

fn arb_set(n: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..n, 1..10).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary stores, including tie-heavy ones and k beyond n.
    #[test]
    fn fused_selection_equals_the_oracle(
        n in 1usize..40,
        sets in proptest::collection::vec(arb_set(40), 0..120),
        k_frac in 0.0f64..1.3,
    ) {
        let n = n.max(40);
        let k = (n as f64 * k_frac) as usize;
        check(n, &sets, &[k], "proptest");
    }
}
