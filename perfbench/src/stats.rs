//! Sample statistics: exact percentiles over raw samples, with
//! censoring for operations cut by the wall-clock cap.

use std::time::Duration;

/// Raw timing samples of one operation kind. A sample pushed with
/// [`Samples::push_censored`] is a lower bound (the operation hit the
/// cap); a percentile that lands on one is reported as `≥ value`.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    censored: usize,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn push_censored(&mut self, cap: f64) {
        self.values.push(cap);
        self.censored += 1;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.censored += other.censored;
    }

    /// The samples, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Samples strictly above the `q` percentile's rank: how much the
    /// tail estimate rests on.
    pub fn beyond(&self, q: f64) -> usize {
        let rank = (q * self.values.len() as f64).ceil() as usize;
        self.values.len().saturating_sub(rank)
    }

    /// True when the `q` percentile falls among the censored samples
    /// (censored samples sort last: they sit at the cap).
    pub fn quantile_censored(&self, q: f64) -> bool {
        self.censored > 0 && self.beyond(q) < self.censored
    }

    /// Geometric mean (of positive samples).
    pub fn geomean(&self) -> f64 {
        (self.values.iter().map(|v| v.ln()).sum::<f64>() / self.values.len() as f64).exp()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// `p50 … (n=…)` rendering for the human-readable tables.
    pub fn describe(&self, q: f64, unit: &str) -> String {
        let ge = if self.quantile_censored(q) {
            "≥ "
        } else {
            ""
        };
        format!(
            "{ge}{:.4} {unit} (n={}, {} beyond)",
            self.quantile(q),
            self.len(),
            self.beyond(q)
        )
    }
}

/// Times of a fixed list of operations, each run once per pass over the
/// list. An operation's time is its minimum over the passes: the work is
/// the same every pass, so the minimum filters out the slowdowns that
/// other tenants of a shared machine impose (which only ever add time).
#[derive(Debug, Clone)]
pub struct Repeated {
    best: Vec<f64>,
    /// Every pass's summed operation time.
    pub pass_sums: Vec<f64>,
    /// Every individual time, all passes.
    pub raw: Samples,
}

impl Repeated {
    pub fn new(ops: usize) -> Repeated {
        Repeated {
            best: vec![f64::INFINITY; ops],
            pass_sums: Vec::new(),
            raw: Samples::default(),
        }
    }

    pub fn record(&mut self, op: usize, value: f64) {
        self.best[op] = self.best[op].min(value);
        self.raw.push(value);
    }

    /// Close a pass whose operation times summed to `sum`.
    pub fn end_pass(&mut self, sum: f64) {
        self.pass_sums.push(sum);
    }

    pub fn ops(&self) -> usize {
        self.best.len()
    }

    pub fn passes(&self) -> usize {
        self.pass_sums.len()
    }

    /// Per-operation minimum times; a minimum at or above `cap` is
    /// censored (every pass hit the cap).
    pub fn best(&self, cap: f64) -> Samples {
        let mut s = Samples::default();
        for &v in &self.best {
            if v >= cap {
                s.push_censored(cap);
            } else {
                s.push(v);
            }
        }
        s
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of a non-empty slice of measurements.
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tail_counts() {
        let mut s = Samples::default();
        for v in 1..=200 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 100.0);
        assert_eq!(s.quantile(0.99), 198.0);
        assert_eq!(s.beyond(0.99), 2);
        assert!(!s.quantile_censored(0.99));
    }

    #[test]
    fn censored_tail_is_flagged() {
        let mut s = Samples::default();
        for _ in 0..97 {
            s.push(1.0);
        }
        for _ in 0..3 {
            s.push_censored(30_000.0);
        }
        assert!(s.quantile_censored(0.99));
        assert!(!s.quantile_censored(0.5));
        assert!(s.describe(0.99, "ms").starts_with("≥ "));
    }
}
