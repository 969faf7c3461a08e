//! Ablation #3: binary search vs linear scan for set-membership tests in
//! the selection phase — the reason eIM pays to sort every queue before
//! the copy to R (§3.2), on both plain and packed stores.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eim_imm::{PackedRrrStore, PlainRrrStore, RrrSets, RrrStoreBuilder};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const N: usize = 1 << 16;
const SETS: usize = 20_000;

fn build<S: RrrStoreBuilder>(store: &mut S, set_len: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..SETS {
        let mut set: Vec<u32> = (0..set_len).map(|_| rng.gen_range(0..N as u32)).collect();
        set.sort_unstable();
        set.dedup();
        store.append_set(&set);
    }
}

/// Linear-scan membership, the gIM-era alternative.
fn contains_linear<S: RrrSets>(store: &S, i: usize, v: u32) -> bool {
    let (s, e) = store.set_bounds(i);
    (s..e).any(|idx| store.element(idx) == v)
}

fn bench_membership(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership");
    for set_len in [8usize, 64, 256] {
        let mut plain = PlainRrrStore::new(N);
        build(&mut plain, set_len, 3);
        let mut packed = PackedRrrStore::new(N);
        build(&mut packed, set_len, 3);
        let probes: Vec<u32> = {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            (0..SETS).map(|_| rng.gen_range(0..N as u32)).collect()
        };
        group.bench_with_input(BenchmarkId::new("binary/plain", set_len), &plain, |b, s| {
            b.iter(|| {
                let mut hits = 0;
                for (i, &p) in probes.iter().enumerate() {
                    if s.contains(i, black_box(p)) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        group.bench_with_input(BenchmarkId::new("linear/plain", set_len), &plain, |b, s| {
            b.iter(|| {
                let mut hits = 0;
                for (i, &p) in probes.iter().enumerate() {
                    if contains_linear(s, i, black_box(p)) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("binary/packed", set_len),
            &packed,
            |b, s| {
                b.iter(|| {
                    let mut hits = 0;
                    for (i, &p) in probes.iter().enumerate() {
                        if s.contains(i, black_box(p)) {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_membership
}
criterion_main!(benches);
