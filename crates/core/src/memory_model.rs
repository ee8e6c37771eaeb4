//! Black-box memory-subsystem model (§4.1.2): gradient-boosting regression
//! over the competitors' aggregate Table 11 counters, optionally augmented
//! with the target's traffic-attribute vector (§5.1.2).

use yala_ml::{CellMemo, Dataset, GbrParams, GradientBoostingRegressor};
use yala_sim::CounterSample;
use yala_traffic::TrafficProfile;

/// Number of counter features (Table 11).
pub const N_COUNTER_FEATURES: usize = 7;
/// Number of traffic-attribute features (flows, packet size, MTBR).
pub const N_TRAFFIC_FEATURES: usize = 3;

/// The trained memory model. It retains its training dataset and fit
/// hyper-parameters so audited in-production observations can be
/// *absorbed* later ([`Self::absorb_rows`]): refinement re-fits the GBR
/// on the extended dataset with the original parameters and seed, so a
/// refined model is a pure function of `(training data, absorbed rows)`
/// — bit-identical wherever and whenever the refit runs.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    gbr: GradientBoostingRegressor,
    traffic_aware: bool,
    dataset: Dataset,
    params: GbrParams,
    seed: u64,
    refits: u32,
}

impl MemoryModel {
    /// Fits the model from a profiling dataset. Feature width must be 7
    /// (fixed traffic) or 10 (traffic-aware).
    ///
    /// # Panics
    ///
    /// Panics on any other feature width or an empty dataset.
    pub fn fit(ds: &Dataset, params: &GbrParams, seed: u64) -> Self {
        let traffic_aware = match ds.n_features() {
            N_COUNTER_FEATURES => false,
            w if w == N_COUNTER_FEATURES + N_TRAFFIC_FEATURES => true,
            w => panic!("memory model expects 7 or 10 features, got {w}"),
        };
        Self {
            gbr: GradientBoostingRegressor::fit(ds, params, seed),
            traffic_aware,
            dataset: ds.clone(),
            params: *params,
            seed,
            refits: 0,
        }
    }

    /// Whether the model consumes traffic attributes.
    pub fn is_traffic_aware(&self) -> bool {
        self.traffic_aware
    }

    /// Absorbs observation rows into the training set and re-fits.
    /// Returns the number of rows absorbed; an empty `rows` is a strict
    /// no-op (no refit, version unchanged), so absorbing nothing leaves
    /// the model bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `rows`' feature width differs from the model's.
    pub fn absorb_rows(&mut self, rows: &Dataset) -> usize {
        if rows.is_empty() {
            return 0;
        }
        self.dataset.extend_from(rows);
        self.gbr = GradientBoostingRegressor::fit(&self.dataset, &self.params, self.seed);
        self.refits += 1;
        rows.len()
    }

    /// How many refit passes the model has absorbed (0 = the offline
    /// train-once state).
    pub fn refits(&self) -> u32 {
        self.refits
    }

    /// Training rows currently backing the fit (offline + absorbed).
    pub fn n_samples(&self) -> usize {
        self.dataset.len()
    }

    /// Predicts the target's throughput under memory contention described
    /// by the competitors' aggregate counters.
    ///
    /// # Panics
    ///
    /// Panics if the model is traffic-aware and `traffic` is `None`.
    pub fn predict(&self, competitors: &CounterSample, traffic: Option<&TrafficProfile>) -> f64 {
        let (x, width) = self.row(competitors, traffic);
        self.gbr.predict(&x[..width]).max(0.0)
    }

    /// Words of a cell key: the counter features first, then (a
    /// traffic-aware model's) the traffic attributes.
    pub fn cell_width(&self) -> usize {
        if self.traffic_aware {
            N_COUNTER_FEATURES + N_TRAFFIC_FEATURES
        } else {
            N_COUNTER_FEATURES
        }
    }

    /// The counter words of a cell: where the competitors' aggregate
    /// `counters` fall on this fit's thresholds.
    pub fn counter_words(&self, counters: &CounterSample) -> [u32; N_COUNTER_FEATURES] {
        let x = counters.as_features();
        std::array::from_fn(|f| self.gbr.rank(f, x[f]))
    }

    /// The traffic words of a cell: where the target's `traffic` falls
    /// on this fit's thresholds. Zeros for a fixed-traffic model, whose
    /// cells have none.
    pub fn traffic_words(&self, traffic: &TrafficProfile) -> [u32; N_TRAFFIC_FEATURES] {
        if !self.traffic_aware {
            return [0; N_TRAFFIC_FEATURES];
        }
        let x = traffic.as_vector();
        std::array::from_fn(|f| self.gbr.rank(N_COUNTER_FEATURES + f, x[f]))
    }

    /// [`Self::predict`] for a caller that assembled the question's cell
    /// itself ([`Self::counter_words`], then [`Self::traffic_words`];
    /// [`Self::cell_width`] words in all), through a caller-owned memo of
    /// this model's answers by cell: the same bits, and `competitors` is
    /// called, and the forest walked, only when the cell was not answered
    /// before. Whoever calls [`Self::absorb_rows`] must clear `memo` — a
    /// refit grows another forest.
    pub fn predict_cell(
        &self,
        cell: &[u32],
        competitors: impl FnOnce() -> CounterSample,
        traffic: Option<&TrafficProfile>,
        memo: &mut CellMemo,
    ) -> f64 {
        self.gbr
            .predict_cell(cell, memo, || {
                let (x, width) = self.row(&competitors(), traffic);
                self.gbr.predict(&x[..width])
            })
            .max(0.0)
    }

    /// The feature row of a question, and how many of its features the
    /// model reads.
    fn row(
        &self,
        competitors: &CounterSample,
        traffic: Option<&TrafficProfile>,
    ) -> ([f64; N_COUNTER_FEATURES + N_TRAFFIC_FEATURES], usize) {
        let mut x = [0.0; N_COUNTER_FEATURES + N_TRAFFIC_FEATURES];
        x[..N_COUNTER_FEATURES].copy_from_slice(&competitors.as_features());
        if self.traffic_aware {
            let t = traffic.expect("traffic-aware model needs a traffic profile");
            x[N_COUNTER_FEATURES..].copy_from_slice(&t.as_vector());
        }
        (x, self.cell_width())
    }
}

/// Builds the feature row for one traffic-aware profiling sample.
pub fn traffic_aware_features(
    bench_counters: &CounterSample,
    traffic: &TrafficProfile,
) -> [f64; N_COUNTER_FEATURES + N_TRAFFIC_FEATURES] {
    let mut x = [0.0; N_COUNTER_FEATURES + N_TRAFFIC_FEATURES];
    x[..N_COUNTER_FEATURES].copy_from_slice(&bench_counters.as_features());
    x[N_COUNTER_FEATURES..].copy_from_slice(&traffic.as_vector());
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(car: f64, wss: f64) -> CounterSample {
        CounterSample {
            l2crd: car / 2.0,
            l2cwr: car / 2.0,
            wss,
            memrd: car * 0.05,
            memwr: car * 0.05,
            ipc: 0.5,
            irt: car * 2.0,
        }
    }

    #[test]
    fn fixed_traffic_model_learns_car_dependence() {
        let mut ds = Dataset::new(7);
        for i in 0..60 {
            let car = 1e7 + i as f64 * 5e6;
            let tput = 2e6 - car * 3e-3; // linear degradation
            ds.push(&counters(car, 4e6).as_features(), tput);
        }
        let model = MemoryModel::fit(&ds, &GbrParams::default(), 1);
        assert!(!model.is_traffic_aware());
        let lo = model.predict(&counters(2e7, 4e6), None);
        let hi = model.predict(&counters(2.5e8, 4e6), None);
        assert!(lo > hi, "more CAR must predict lower throughput");
    }

    #[test]
    fn traffic_aware_model_uses_flow_count() {
        let mut ds = Dataset::new(10);
        for flows in [4_000u32, 16_000, 64_000, 256_000] {
            for i in 0..20 {
                let car = 1e7 + i as f64 * 1e7;
                let t = TrafficProfile::new(flows, 1500, 600.0);
                // Throughput falls with both CAR and flow count.
                let tput = 2e6 / (1.0 + flows as f64 / 3e4) - car * 1e-3;
                ds.push(&traffic_aware_features(&counters(car, 4e6), &t), tput);
            }
        }
        let model = MemoryModel::fit(&ds, &GbrParams::default(), 2);
        assert!(model.is_traffic_aware());
        let few = model.predict(
            &counters(5e7, 4e6),
            Some(&TrafficProfile::new(4_000, 1500, 600.0)),
        );
        let many = model.predict(
            &counters(5e7, 4e6),
            Some(&TrafficProfile::new(256_000, 1500, 600.0)),
        );
        assert!(few > many * 1.5, "flow count must matter: {few} vs {many}");
    }

    #[test]
    #[should_panic(expected = "expects 7 or 10 features")]
    fn wrong_width_panics() {
        let mut ds = Dataset::new(4);
        ds.push(&[1.0, 2.0, 3.0, 4.0], 1.0);
        MemoryModel::fit(&ds, &GbrParams::default(), 0);
    }

    #[test]
    #[should_panic(expected = "needs a traffic profile")]
    fn traffic_aware_without_traffic_panics() {
        let mut ds = Dataset::new(10);
        ds.push(&[0.0; 10], 1.0);
        ds.push(&[1.0; 10], 2.0);
        let model = MemoryModel::fit(&ds, &GbrParams::default(), 0);
        model.predict(&CounterSample::default(), None);
    }

    #[test]
    fn absorb_rows_refits_toward_new_evidence() {
        // Offline data says throughput is flat at 2e6; production
        // observations at high CAR say it collapses. The refit must pull
        // the prediction toward the observed regime.
        let mut ds = Dataset::new(7);
        for i in 0..30 {
            ds.push(&counters(1e7 + i as f64 * 1e6, 4e6).as_features(), 2e6);
        }
        let mut model = MemoryModel::fit(&ds, &GbrParams::default(), 3);
        let before = model.predict(&counters(3e8, 4e6), None);
        let mut obs = Dataset::new(7);
        for i in 0..30 {
            obs.push(&counters(2.9e8 + i as f64 * 1e6, 4e6).as_features(), 4e5);
        }
        assert_eq!(model.absorb_rows(&obs), 30);
        assert_eq!(model.refits(), 1);
        assert_eq!(model.n_samples(), 60);
        let after = model.predict(&counters(3e8, 4e6), None);
        assert!(
            after < before * 0.5,
            "refit must track the observed collapse: {before} -> {after}"
        );
    }

    #[test]
    fn absorb_empty_is_a_bitwise_noop() {
        let mut ds = Dataset::new(7);
        ds.push(&[0.0; 7], 1.0);
        ds.push(&[1.0; 7], 2.0);
        let mut model = MemoryModel::fit(&ds, &GbrParams::default(), 0);
        let frozen = model.clone();
        assert_eq!(model.absorb_rows(&Dataset::new(7)), 0);
        assert_eq!(model, frozen, "empty absorb must not refit");
        assert_eq!(model.refits(), 0);
    }

    #[test]
    fn absorb_is_deterministic() {
        let mut ds = Dataset::new(7);
        for i in 0..20 {
            ds.push(&counters(1e7 * (i + 1) as f64, 4e6).as_features(), 1e6);
        }
        let mut obs = Dataset::new(7);
        obs.push(&counters(2e8, 8e6).as_features(), 3e5);
        let mut a = MemoryModel::fit(&ds, &GbrParams::default(), 5);
        let mut b = MemoryModel::fit(&ds, &GbrParams::default(), 5);
        a.absorb_rows(&obs);
        b.absorb_rows(&obs);
        assert_eq!(a, b, "same state + same rows = bit-identical refit");
    }

    #[test]
    fn predictions_are_non_negative() {
        let mut ds = Dataset::new(7);
        ds.push(&[0.0; 7], -5.0);
        ds.push(&[1.0; 7], -5.0);
        let model = MemoryModel::fit(&ds, &GbrParams::default(), 0);
        assert_eq!(model.predict(&CounterSample::default(), None), 0.0);
    }
}
