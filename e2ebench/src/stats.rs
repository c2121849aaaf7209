//! Order statistics and closed-loop accounting.

/// Median of `xs` (mean of the two middle values for an even count, as
/// Python's `statistics.median`). `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A copy of `xs` in ascending order.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile of the reported sample, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: in ascending order, the sample at 0-based rank
/// `n − 11` is the highest one with ten samples after it; its
/// nearest-rank percentile is `(n − 10) / n`. Fewer than eleven samples
/// have no tail.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: s[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them. `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread
/// the benchmark's bounds are checked against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// How each attempted job of a closed loop ended. Every attempted job
/// lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answered with the reference score (and, for alignments, columns
    /// that re-score to it).
    pub ok: u64,
    /// Accepted, but ended without a result (error, deadline, panic).
    pub failed: u64,
    /// Refused at admission.
    pub refused: u64,
    /// Answered, but with a wrong score or inconsistent columns.
    pub wrong: u64,
}

/// The verdict on one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Failed(String),
    Refused(String),
    Wrong(String),
}

impl Tally {
    /// Jobs the clients sent.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed + self.refused + self.wrong
    }

    /// Jobs that did not end `Ok`.
    pub fn not_ok(&self) -> u64 {
        self.attempted() - self.ok
    }

    /// Count one verdict.
    pub fn add(&mut self, v: &Verdict) {
        match v {
            Verdict::Ok => self.ok += 1,
            Verdict::Failed(_) => self.failed += 1,
            Verdict::Refused(_) => self.refused += 1,
            Verdict::Wrong(_) => self.wrong += 1,
        }
    }

    /// Sum two tallies.
    pub fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&[]), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        // Only the minimum has ten samples above it.
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_rank_with_ten_beyond() {
        // Shuffled 1..=100: the 90th value has exactly ten above it.
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        let t1000 = tail(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t1000.value, t1000.percentile), (990.0, 99.0));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn every_attempt_lands_in_one_bucket() {
        let verdicts = [
            Verdict::Ok,
            Verdict::Refused("overloaded".into()),
            Verdict::Ok,
            Verdict::Failed("deadline".into()),
            Verdict::Wrong("score 3 != 4".into()),
            Verdict::Ok,
        ];
        let mut t = Tally::default();
        verdicts.iter().for_each(|v| t.add(v));
        assert_eq!(t.ok + t.failed + t.refused + t.wrong, t.attempted());
        assert_eq!(t.attempted(), verdicts.len() as u64);
        assert_eq!((t.ok, t.failed, t.refused, t.wrong), (3, 1, 1, 1));
        assert_eq!(t.not_ok(), 3);
        let mut sum = t;
        sum.merge(&t);
        assert_eq!(sum.attempted(), 2 * t.attempted());
    }
}
