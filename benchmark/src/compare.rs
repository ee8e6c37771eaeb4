//! `compare A B`: is run set B worse than run set A? One row per
//! workload × end-to-end metric, judged by the metric's own bound.

use std::collections::BTreeMap;
use std::path::Path;

use crate::metrics::{flat_num, flat_str, Better, MetricDef, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound, and B does not
    /// beat A run for run: the pair cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from the two sides' runs. `bound` is a share of
/// A's median; `0.0` tolerates no worsening.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of A's median.
    let worsening = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    } / ma.abs().max(f64::MIN_POSITIVE);
    let b_beats_a_everywhere = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if (spread(a) > bound || spread(b) > bound) && bound > 0.0 && !b_beats_a_everywhere {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

type RunSet = BTreeMap<String, Vec<String>>;

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let w = flat_str(line, "workload")
            .ok_or_else(|| format!("{}: line without a workload", path.display()))?;
        set.entry(w).or_default().push(line.to_string());
    }
    Ok(set)
}

fn column(lines: &[String], d: &MetricDef) -> Result<Vec<f64>, String> {
    lines
        .iter()
        .map(|l| flat_num(l, d.name).ok_or_else(|| format!("run without {}", d.name)))
        .collect()
}

fn seeds(lines: &[String]) -> Vec<u64> {
    let mut s: Vec<u64> = lines
        .iter()
        .filter_map(|l| flat_num(l, "seed"))
        .map(|v| v as u64)
        .collect();
    s.sort_unstable();
    s
}

/// Prints the table; `Ok(false)` when any row is `worse`.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B"
    );
    let mut clean = true;
    for (w, la) in &sa {
        let lb = sb
            .get(w)
            .ok_or_else(|| format!("{} has no runs of {w}", b.display()))?;
        if la.len() < 3 || lb.len() < 3 {
            println!(
                "note: {w}: {} vs {} runs; spreads need at least 3 a side",
                la.len(),
                lb.len()
            );
        }
        let same_seeds = seeds(la) == seeds(lb);
        for d in &END_TO_END {
            let (xa, xb) = (column(la, d)?, column(lb, d)?);
            // A deterministic metric measured on the same seeds has no
            // noise to allow for.
            let bound = if d.exact && same_seeds { 0.0 } else { d.bound };
            let v = judge(&xa, &xb, d.better, bound);
            clean &= v != Verdict::Worse;
            let (ma, mb) = (median(&xa), median(&xb));
            println!(
                "{:<18} {:<20} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>6.1}%  {}",
                w,
                d.name,
                ma,
                mb,
                (mb - ma) / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                spread(&xa) * 100.0,
                spread(&xb) * 100.0,
                v.name()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let noisy = [80.0, 130.0, 95.0, 120.0, 100.0];
        assert_eq!(judge(&steady, &same, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Direction matters: more events per second is not a regression.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.10),
            Verdict::Worse
        );
        // A noisy side that still wins every pairing resolves.
        let fast_noisy = [40.0, 70.0, 50.0, 65.0, 55.0];
        assert_eq!(
            judge(&steady, &fast_noisy, Better::Lower, 0.10),
            Verdict::Ok
        );
        // An exact metric on the same seeds tolerates nothing.
        assert_eq!(
            judge(&[2.0, 2.0], &[2.0, 2.0], Better::Lower, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[2.0, 2.0], &[2.01, 2.01], Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[2.0, 2.0], &[1.9, 1.9], Better::Lower, 0.0),
            Verdict::Ok
        );
    }
}
