//! Hardware performance counters (paper Table 11): the seven signals the
//! memory-subsystem models train on. SmartNIC accelerators expose *no*
//! fine-grained counters (§4.1.1) — that asymmetry is why Yala models them
//! white-box — so none are emitted here.

/// One sample of the Table 11 counters for a single NF.
///
/// | Counter | Definition |
/// |---------|------------|
/// | IPC     | Instructions per cycle |
/// | IRT     | Instructions retired (per second) |
/// | L2CRD   | L2 data cache read accesses (per second) |
/// | L2CWR   | L2 data cache write accesses (per second) |
/// | MEMRD   | Data memory read accesses (per second) |
/// | MEMWR   | Data memory write accesses (per second) |
/// | WSS     | Working set size (bytes) |
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSample {
    /// Instructions per cycle.
    pub ipc: f64,
    /// Instructions retired per second.
    pub irt: f64,
    /// L2 cache read accesses per second.
    pub l2crd: f64,
    /// L2 cache write accesses per second.
    pub l2cwr: f64,
    /// DRAM read accesses per second.
    pub memrd: f64,
    /// DRAM write accesses per second.
    pub memwr: f64,
    /// Working set size in bytes.
    pub wss: f64,
}

impl CounterSample {
    /// Cache access rate: L2 read + write accesses per second. This is the
    /// "competing CAR" the paper sweeps in Figs. 3/5/6.
    pub fn car(&self) -> f64 {
        self.l2crd + self.l2cwr
    }

    /// The 7-dimensional feature vector used by SLOMO-style models, in
    /// Table 11 order.
    pub fn as_features(&self) -> [f64; 7] {
        [
            self.ipc, self.irt, self.l2crd, self.l2cwr, self.memrd, self.memwr, self.wss,
        ]
    }

    /// Element-wise sum — used to aggregate the contentiousness of a set of
    /// competitors into one feature vector (as SLOMO composes competing
    /// workloads).
    pub fn aggregate<'a, I: IntoIterator<Item = &'a CounterSample>>(samples: I) -> Self {
        let mut out = CounterSample::default();
        for s in samples {
            out.ipc += s.ipc;
            out.irt += s.irt;
            out.l2crd += s.l2crd;
            out.l2cwr += s.l2cwr;
            out.memrd += s.memrd;
            out.memwr += s.memwr;
            out.wss += s.wss;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn car_is_read_plus_write() {
        let c = CounterSample {
            l2crd: 3.0,
            l2cwr: 4.0,
            ..Default::default()
        };
        assert_eq!(c.car(), 7.0);
    }

    #[test]
    fn feature_vector_order() {
        let c = CounterSample {
            ipc: 1.0,
            irt: 2.0,
            l2crd: 3.0,
            l2cwr: 4.0,
            memrd: 5.0,
            memwr: 6.0,
            wss: 7.0,
        };
        assert_eq!(c.as_features(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn aggregate_sums() {
        let a = CounterSample {
            ipc: 1.0,
            wss: 10.0,
            ..Default::default()
        };
        let b = CounterSample {
            ipc: 0.5,
            wss: 20.0,
            ..Default::default()
        };
        let s = CounterSample::aggregate([&a, &b]);
        assert_eq!(s.ipc, 1.5);
        assert_eq!(s.wss, 30.0);
    }

    #[test]
    fn aggregate_empty_is_zero() {
        let s = CounterSample::aggregate(std::iter::empty());
        assert_eq!(s.as_features(), [0.0; 7]);
    }
}
