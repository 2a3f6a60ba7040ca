//! Metric math: order statistics over repetitions, guarded ratios, the
//! setup / stream / teardown split of one runner call, and span self time.

/// Percentiles considered for the tail report, in per mille, highest first.
const TAIL_LADDER: [usize; 4] = [999, 990, 900, 750];

/// Samples a reported tail percentile must leave above it.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle samples for an even count).
/// `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples above it, as `(percentile, nearest-rank value)`. `None` when
/// the run has too few samples for any of them.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&pm| {
        // Nearest rank: the smallest sample with at least pm per mille of
        // the samples at or below it.
        let k = (pm * n).div_ceil(1000);
        (k >= 1 && n - k >= TAIL_SAMPLES_BEYOND).then(|| (pm as f64 / 10.0, v[k - 1]))
    })
}

/// `num / den`, or `0.0` when the denominator is zero (a layer the
/// workload never reached reads 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wall time of one runner call split into its three phases (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Runner call until the first rank program is entered.
    pub setup_s: f64,
    /// First rank program entered until the last rank program is done.
    pub stream_s: f64,
    /// Last rank program done until the runner returns.
    pub teardown_s: f64,
    /// The whole runner call.
    pub wall_s: f64,
}

/// Split a runner call from its four stamps (nanoseconds on one clock).
/// Stamps outside `[call, ret]` are clamped into it so the phases always
/// sum to the wall time.
pub fn split_phases(call: u64, first_entry: u64, last_done: u64, ret: u64) -> Phases {
    let ret = ret.max(call);
    let entry = first_entry.clamp(call, ret);
    let done = last_done.clamp(entry, ret);
    let s = |a: u64, b: u64| (b - a) as f64 / 1e9;
    Phases {
        setup_s: s(call, entry),
        stream_s: s(entry, done),
        teardown_s: s(done, ret),
        wall_s: s(call, ret),
    }
}

/// A half-open time interval `[start, end)` in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start stamp.
    pub start: u64,
    /// End stamp (not before `start`).
    pub end: u64,
}

impl Interval {
    /// Length in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// How much of `parent` the union of `children` covers, in nanoseconds.
/// Overlapping children count once; parts outside `parent` do not count.
pub fn covered(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut total = 0;
    let mut cur: Option<Interval> = None;
    for c in clipped {
        cur = match cur {
            Some(mut run) if c.start <= run.end => {
                run.end = run.end.max(c.end);
                Some(run)
            }
            Some(run) => {
                total += run.len();
                Some(c)
            }
            None => Some(c),
        };
    }
    total + cur.map_or(0, |r| r.len())
}

/// A span's self time: its duration minus what its children cover.
/// `children` are contiguous child spans (their union counts); `busy` is
/// the summed duration of aggregated child spans, whose calls are disjoint
/// from each other and from the contiguous children (they run on the
/// parent's thread one at a time). Never negative.
pub fn self_time(span: Interval, children: &[Interval], busy: u64) -> u64 {
    span.len()
        .saturating_sub(covered(span, children))
        .saturating_sub(busy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: u64, end: u64) -> Interval {
        Interval { start, end }
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: p75 has ceil(14.25) = 15 at or below, 4 beyond.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        // 40 samples: p75 -> rank 30, 10 beyond; p90 -> rank 36, 4 beyond.
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&forty), Some((75.0, 30.0)));
        // 100 samples: p90 -> rank 90, 10 beyond; p99 leaves only 1.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99 -> rank 990, 10 beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&[]), None);
    }

    #[test]
    fn ratio_with_zero_denominator_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn phases_from_stamps() {
        let p = split_phases(1_000, 3_000, 9_000, 10_000);
        assert_eq!(p.setup_s, 2e-6);
        assert_eq!(p.stream_s, 6e-6);
        assert_eq!(p.teardown_s, 1e-6);
        assert_eq!(p.wall_s, 9e-6);
        assert!((p.setup_s + p.stream_s + p.teardown_s - p.wall_s).abs() < 1e-15);
    }

    #[test]
    fn phases_clamp_stamps_outside_the_call() {
        // No rank entered (a launch error): entry and done stamps stay at
        // their sentinels and collapse onto the call's end.
        let p = split_phases(100, u64::MAX, 0, 400);
        assert_eq!(p.setup_s, 300e-9);
        assert_eq!(p.stream_s, 0.0);
        assert_eq!(p.teardown_s, 0.0);
        assert_eq!(p.wall_s, 300e-9);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let parent = iv(10, 100);
        assert_eq!(covered(parent, &[]), 0);
        // [0,20) clips to [10,20); [15,30) overlaps it; [50,60) disjoint;
        // [90,200) clips to [90,100).
        let kids = [iv(50, 60), iv(0, 20), iv(15, 30), iv(90, 200)];
        assert_eq!(covered(parent, &kids), 20 + 10 + 10);
        // Fully nested children count once.
        assert_eq!(covered(parent, &[iv(20, 80), iv(30, 40)]), 60);
        // Touching children merge without double counting.
        assert_eq!(covered(parent, &[iv(20, 30), iv(30, 40)]), 20);
    }

    #[test]
    fn self_time_subtracts_children_and_busy() {
        let span = iv(0, 1_000);
        assert_eq!(self_time(span, &[], 0), 1_000);
        assert_eq!(self_time(span, &[iv(100, 300), iv(200, 400)], 0), 700);
        assert_eq!(self_time(span, &[iv(100, 300)], 250), 550);
        // Over-attributed children never make self time negative.
        assert_eq!(self_time(span, &[iv(0, 1_000)], 10), 0);
    }
}
