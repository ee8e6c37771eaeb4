//! Traffic profiles: the three attributes Yala's traffic-aware models use.

use rand::Rng;

/// Minimum packet size we generate (Ethernet minimum).
pub const MIN_PACKET_SIZE: u32 = 64;
/// Maximum packet size we generate (standard MTU frame).
pub const MAX_PACKET_SIZE: u32 = 1500;
/// Largest flow count the evaluation sweeps (paper tests up to 500 K).
pub const MAX_FLOW_COUNT: u32 = 500_000;
/// Largest MTBR the evaluation sweeps (paper's diagnosis study reaches
/// 1100 matches/MB).
pub const MAX_MTBR: f64 = 1200.0;

/// A traffic profile `(flow count, packet size, MTBR)` — the paper denotes
/// the default as the vector `(16000, 1500, 600)` (§5.1).
///
/// # Example
///
/// ```
/// use yala_traffic::TrafficProfile;
/// let p = TrafficProfile::default();
/// assert_eq!(p.flow_count, 16_000);
/// assert_eq!(p.packet_size, 1500);
/// assert_eq!(p.mtbr, 600.0);
/// assert_eq!(p.as_vector(), [16_000.0, 1500.0, 600.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    /// Number of distinct flows in the stream.
    pub flow_count: u32,
    /// Wire length of each packet in bytes (headers + payload).
    pub packet_size: u32,
    /// Match-to-byte ratio of payloads, in matches per MB.
    pub mtbr: f64,
}

impl Default for TrafficProfile {
    /// The paper's default profile: 16 K flows, 1500 B packets,
    /// 600 matches/MB.
    fn default() -> Self {
        Self {
            flow_count: 16_000,
            packet_size: 1500,
            mtbr: 600.0,
        }
    }
}

impl TrafficProfile {
    /// Creates a profile, clamping values into the supported ranges.
    pub fn new(flow_count: u32, packet_size: u32, mtbr: f64) -> Self {
        Self {
            flow_count: flow_count.clamp(1, MAX_FLOW_COUNT),
            packet_size: packet_size.clamp(MIN_PACKET_SIZE, MAX_PACKET_SIZE),
            mtbr: mtbr.clamp(0.0, MAX_MTBR),
        }
    }

    /// The profile as the feature vector `(flows, pkt size, MTBR)` appended
    /// to the memory model's inputs (§5.1.2).
    pub fn as_vector(&self) -> [f64; 3] {
        [self.flow_count as f64, self.packet_size as f64, self.mtbr]
    }

    /// A uniformly random profile, used for the "100 distinct traffic
    /// profiles" experiments (§7.4). Flow count up to `max_flows`.
    pub fn random<R: Rng>(rng: &mut R, max_flows: u32) -> Self {
        let flow_count = rng.gen_range(1_000..=max_flows.max(1_000));
        let packet_size = rng.gen_range(MIN_PACKET_SIZE..=MAX_PACKET_SIZE);
        let mtbr = rng.gen_range(0.0..=MAX_MTBR);
        Self::new(flow_count, packet_size, mtbr)
    }

    /// The nine evaluation profiles used for Table 2 ("9 distinct traffic
    /// profiles for each NF"): the cross product of three flow counts and
    /// three (packet size, MTBR) pairs around the default.
    pub fn evaluation_grid() -> Vec<TrafficProfile> {
        let mut out = Vec::with_capacity(9);
        for &flows in &[4_000u32, 16_000, 64_000] {
            for &(size, mtbr) in &[(512u32, 200.0f64), (1024, 600.0), (1500, 1000.0)] {
                out.push(TrafficProfile::new(flows, size, mtbr));
            }
        }
        out
    }

    /// Linear interpolation between two profiles at `t ∈ [0, 1]`
    /// (clamped): the drift trajectories of a live fleet move an NF's
    /// traffic smoothly from one profile to another over its lifetime.
    /// `t = 0` returns `self` exactly and `t = 1` returns `other`
    /// exactly; every attribute is monotone in `t`.
    ///
    /// # Example
    ///
    /// ```
    /// use yala_traffic::TrafficProfile;
    /// let a = TrafficProfile::new(4_000, 512, 100.0);
    /// let b = TrafficProfile::new(64_000, 1500, 1100.0);
    /// assert_eq!(a.lerp(&b, 0.0), a);
    /// assert_eq!(a.lerp(&b, 1.0), b);
    /// assert_eq!(a.lerp(&b, 0.5).flow_count, 34_000);
    /// ```
    pub fn lerp(&self, other: &TrafficProfile, t: f64) -> TrafficProfile {
        let t = if t.is_finite() {
            t.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // Pin the endpoints: `a + (b - a) * 1.0` can miss `b` by an ulp.
        let mix = |a: f64, b: f64| {
            if t <= 0.0 {
                a
            } else if t >= 1.0 {
                b
            } else {
                a + (b - a) * t
            }
        };
        TrafficProfile::new(
            mix(self.flow_count as f64, other.flow_count as f64).round() as u32,
            mix(self.packet_size as f64, other.packet_size as f64).round() as u32,
            mix(self.mtbr, other.mtbr),
        )
    }

    /// Bytes of payload per packet once headers are subtracted.
    pub fn payload_size(&self) -> u32 {
        self.packet_size
            .saturating_sub(crate::packet::HEADER_BYTES)
            .max(1)
    }

    /// Per-attribute relative changes from `self` to `now`, in
    /// `(flow count, packet size, MTBR)` order:
    /// `|now - base| / max(|base|, 1)` per attribute. The unit floor in
    /// the denominator keeps near-zero attributes (an MTBR of 0.01)
    /// from flagging drift on every epoch.
    pub fn relative_changes(&self, now: &TrafficProfile) -> [f64; 3] {
        let rel = |a: f64, b: f64| (b - a).abs() / a.abs().max(1.0);
        [
            rel(self.flow_count as f64, now.flow_count as f64),
            rel(self.packet_size as f64, now.packet_size as f64),
            rel(self.mtbr, now.mtbr),
        ]
    }

    /// The drift metric every threshold check in the workspace shares:
    /// the largest per-attribute relative change from `self` to `now`.
    /// Re-profile triggers compare this against a threshold, and
    /// [`crate::TrafficQuantizer`] sizes its buckets from the same
    /// metric — one source of truth for "how far has traffic moved".
    ///
    /// # Example
    ///
    /// ```
    /// use yala_traffic::TrafficProfile;
    /// let base = TrafficProfile::new(10_000, 1000, 100.0);
    /// let now = TrafficProfile::new(11_000, 1000, 100.0);
    /// assert!((base.relative_change(&now) - 0.1).abs() < 1e-12);
    /// ```
    pub fn relative_change(&self, now: &TrafficProfile) -> f64 {
        self.relative_changes(now)
            .into_iter()
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_matches_paper() {
        let p = TrafficProfile::default();
        assert_eq!((p.flow_count, p.packet_size), (16_000, 1500));
        assert_eq!(p.mtbr, 600.0);
    }

    #[test]
    fn new_clamps() {
        let p = TrafficProfile::new(0, 9999, -5.0);
        assert_eq!(p.flow_count, 1);
        assert_eq!(p.packet_size, MAX_PACKET_SIZE);
        assert_eq!(p.mtbr, 0.0);
    }

    #[test]
    fn random_profiles_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let p = TrafficProfile::random(&mut rng, 500_000);
            assert!(p.flow_count >= 1_000 && p.flow_count <= 500_000);
            assert!(p.packet_size >= MIN_PACKET_SIZE && p.packet_size <= MAX_PACKET_SIZE);
            assert!(p.mtbr >= 0.0 && p.mtbr <= MAX_MTBR);
        }
    }

    #[test]
    fn evaluation_grid_has_nine_distinct() {
        let grid = TrafficProfile::evaluation_grid();
        assert_eq!(grid.len(), 9);
        for i in 0..9 {
            for j in i + 1..9 {
                assert_ne!(grid[i], grid[j]);
            }
        }
    }

    #[test]
    fn lerp_endpoints_are_exact() {
        let a = TrafficProfile::new(4_000, 512, 100.0);
        let b = TrafficProfile::new(64_000, 1500, 1_100.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(b.lerp(&a, 0.0), b);
        assert_eq!(b.lerp(&a, 1.0), a);
        // Out-of-range and non-finite t clamp to the endpoints.
        assert_eq!(a.lerp(&b, -3.0), a);
        assert_eq!(a.lerp(&b, 7.5), b);
        assert_eq!(a.lerp(&b, f64::NAN), a);
    }

    #[test]
    fn lerp_is_monotone_in_t() {
        let a = TrafficProfile::new(1_000, 64, 0.0);
        let b = TrafficProfile::new(500_000, 1500, 1_200.0);
        let mut prev = a;
        for step in 1..=100 {
            let p = a.lerp(&b, step as f64 / 100.0);
            assert!(p.flow_count >= prev.flow_count);
            assert!(p.packet_size >= prev.packet_size);
            assert!(p.mtbr >= prev.mtbr);
            prev = p;
        }
        assert_eq!(prev, b);
    }

    #[test]
    fn lerp_stays_in_supported_ranges() {
        let a = TrafficProfile::new(1, MIN_PACKET_SIZE, 0.0);
        let b = TrafficProfile::new(MAX_FLOW_COUNT, MAX_PACKET_SIZE, MAX_MTBR);
        for step in 0..=20 {
            let p = a.lerp(&b, step as f64 / 20.0);
            assert!(p.flow_count >= 1 && p.flow_count <= MAX_FLOW_COUNT);
            assert!(p.packet_size >= MIN_PACKET_SIZE && p.packet_size <= MAX_PACKET_SIZE);
            assert!(p.mtbr >= 0.0 && p.mtbr <= MAX_MTBR);
        }
    }

    #[test]
    fn relative_change_is_max_over_attributes() {
        let base = TrafficProfile::new(10_000, 1000, 100.0);
        let now = TrafficProfile::new(10_500, 1200, 101.0);
        let rels = base.relative_changes(&now);
        assert!((rels[0] - 0.05).abs() < 1e-12);
        assert!((rels[1] - 0.2).abs() < 1e-12);
        assert!((rels[2] - 0.01).abs() < 1e-12);
        assert!((base.relative_change(&now) - 0.2).abs() < 1e-12);
        assert_eq!(base.relative_change(&base), 0.0);
    }

    #[test]
    fn relative_change_floors_small_denominators_at_one() {
        // MTBR 0.2 -> 0.5 is a 0.3 *absolute* move, not a 1.5x relative
        // one: the unit floor in the denominator keeps tiny attributes
        // from dominating the drift metric.
        let base = TrafficProfile::new(1_000, 64, 0.2);
        let now = TrafficProfile::new(1_000, 64, 0.5);
        assert!((base.relative_change(&now) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn payload_size_subtracts_headers() {
        let p = TrafficProfile::new(1000, 1500, 0.0);
        assert_eq!(p.payload_size(), 1500 - crate::packet::HEADER_BYTES);
        let tiny = TrafficProfile::new(1000, 64, 0.0);
        assert!(tiny.payload_size() >= 1);
    }
}
