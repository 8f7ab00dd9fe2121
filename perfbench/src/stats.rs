//! Order statistics and interval arithmetic behind every reported
//! number.

/// How many samples must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of an ascending slice.
///
/// # Panics
///
/// On an empty slice: every caller reports a sample count of at least
/// one.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// The median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    // Multiply before dividing so whole-number ranks stay exact.
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n) - 1
}

/// A tail percentile as reported: the value and the percentile it
/// actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// The percentile reported (at most the one asked for).
    pub pct: f64,
}

/// Percentile `p`, or — when fewer than [`MIN_BEYOND`] samples lie
/// beyond it — the highest percentile that keeps that many beyond it.
/// Never reported below the median: with fewer than `2 × MIN_BEYOND`
/// samples the median stands in for the tail.
pub fn tail(sorted: &[f64], p: f64) -> Tail {
    let n = sorted.len();
    let mid = rank(n, 50.0);
    let mut idx = rank(n, p);
    if n - 1 - idx < MIN_BEYOND {
        idx = (n - 1).saturating_sub(MIN_BEYOND).max(mid);
    }
    Tail {
        value: sorted[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
    }
}

/// Sorts a copy ascending (timings are never NaN).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Total length covered by a set of half-open `[start, end)`
/// intervals, counting overlaps once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the union of its children's
/// intervals, each clipped to the span (children on other threads may
/// overlap each other).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v, 99.0),
            Tail {
                value: 990.0,
                pct: 99.0
            }
        );
        // 50 samples: p90 (rank 45) has only 5 beyond, so the tail
        // falls back to rank 40, the highest with 10 beyond.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v, 90.0);
        assert_eq!(t.value, 40.0);
        assert_eq!(t.pct, 80.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), MIN_BEYOND);
        // 100 samples: p90 has exactly 10 beyond and is kept.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&v, 90.0),
            Tail {
                value: 90.0,
                pct: 90.0
            }
        );
        // Too few samples for any tail: the median stands in.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(
            tail(&v, 90.0),
            Tail {
                value: 6.0,
                pct: 50.0
            }
        );
        assert_eq!(
            tail(&[3.0], 90.0),
            Tail {
                value: 3.0,
                pct: 100.0
            }
        );
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (10, 12)]), 17);
        assert_eq!(union_len(&[(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(&[(4, 4)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (two threads) cover [10, 40).
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(0, 10), (90, 100)]), 80);
        // A child reaching outside the span is clipped to it.
        assert_eq!(self_time((50, 100), &[(40, 60), (95, 120)]), 35);
        // No children: the whole duration is self time.
        assert_eq!(self_time((5, 9), &[]), 4);
    }
}
