//! The bits of fixed GBR fits, pinned.
//!
//! Every fit below is hashed through the bits of its predictions on its
//! own rows and on probes mixed from their coordinates. The constant was captured before the
//! tree builder was rewritten and must never move: a change to how a
//! fit is computed fails here in seconds, long before the records that
//! embed a Yala or SLOMO prediction are regenerated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yala_ml::{Dataset, GbrParams, GradientBoostingRegressor, TreeParams};

/// FNV-1a over 64-bit words.
fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fit's predictions on every row of `ds` and on `probes` random
/// points, folded into `hash`.
fn fold_fit(hash: u64, ds: &Dataset, params: &GbrParams, seed: u64, probes: usize) -> u64 {
    let model = GradientBoostingRegressor::fit(ds, params, seed);
    let mut hash = fold(hash, model.n_stages() as u64);
    for (x, _) in ds.rows() {
        hash = fold(hash, model.predict(x).to_bits());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
    let width = ds.n_features();
    for _ in 0..probes {
        // A probe takes each coordinate from a random training row, so it
        // lands on the grid the thresholds cut, off any one row.
        let x: Vec<f64> = (0..width)
            .map(|f| ds.feature(rng.gen_range(0..ds.len()), f))
            .collect();
        hash = fold(hash, model.predict(&x).to_bits());
    }
    hash
}

/// The memory model's shape: four contention counters, three traffic
/// attributes on a coarse grid, three derived features; ~240 rows.
fn memory_shape(rng: &mut StdRng) -> Dataset {
    let mut ds = Dataset::new(10);
    for _ in 0..242 {
        let car = rng.gen_range(0.0..250.0);
        let wss = rng.gen_range(0.0..64.0);
        let l2 = rng.gen_range(0.0..1.0);
        let ipc = rng.gen_range(0.2..2.5);
        let flows = [1e3, 1e4, 1e5, 1e6][rng.gen_range(0..4)];
        let size = [64.0, 256.0, 512.0, 1500.0][rng.gen_range(0..4)];
        let mtu = f64::from(rng.gen_range(0..3u32));
        let x = [
            car,
            wss,
            l2,
            ipc,
            flows,
            size,
            mtu,
            car * l2,
            (wss + 1.0).ln(),
            flows.log10() * size,
        ];
        let y = 9e6 / (1.0 + car / 80.0 + wss / (40.0 + flows.log10()))
            + size * 1e3
            + rng.gen_range(-5e4..5e4);
        ds.push(&x, y);
    }
    ds
}

/// SLOMO's shape: seven counters and a solo anchor at the origin.
fn slomo_shape(rng: &mut StdRng) -> Dataset {
    let mut ds = Dataset::new(7);
    ds.push(&[0.0; 7], 8e6);
    for _ in 0..48 {
        let x: Vec<f64> = (0..7)
            .map(|f| rng.gen_range(0.0..(f + 1) as f64 * 30.0))
            .collect();
        let y = 8e6 / (1.0 + x[0] / 50.0 + x[3] / 120.0) + rng.gen_range(-1e4..1e4);
        ds.push(&x, y);
    }
    ds
}

/// Heavy ties: four values per feature, `0.0` and `-0.0` mixed, and a
/// target that is constant on whole blocks.
fn tied(rng: &mut StdRng) -> Dataset {
    let grid = [0.0, -0.0, 0.5, 1.0];
    let mut ds = Dataset::new(3);
    for _ in 0..180 {
        let x: Vec<f64> = (0..3).map(|_| grid[rng.gen_range(0..4)]).collect();
        let y = if x[0] > 0.25 {
            4.0
        } else {
            1.0 + f64::from(rng.gen_range(0..3u32))
        };
        ds.push(&x, y);
    }
    ds
}

#[test]
fn fixed_fits_keep_their_bits() {
    let mut rng = StdRng::seed_from_u64(0x0060_1DE4);
    let production = GbrParams {
        n_estimators: 300,
        learning_rate: 0.05,
        ..GbrParams::default()
    };
    let memory = memory_shape(&mut rng);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    hash = fold_fit(hash, &memory, &production, 23, 64);
    hash = fold_fit(hash, &slomo_shape(&mut rng), &production, 5, 64);
    let sampled = GbrParams {
        n_estimators: 120,
        subsample: 0.7,
        ..GbrParams::default()
    };
    hash = fold_fit(hash, &memory, &sampled, 41, 64);
    let deep = GbrParams {
        n_estimators: 80,
        learning_rate: 0.3,
        tree: TreeParams {
            max_depth: 5,
            min_samples_leaf: 2,
            ..TreeParams::default()
        },
        ..GbrParams::default()
    };
    hash = fold_fit(hash, &tied(&mut rng), &deep, 7, 32);
    assert_eq!(
        hash, 0xd8f5_5718_caff_41e4,
        "GBR golden moved: {hash:#018x}"
    );
}
