//! Percentiles under the benchmark's reporting rule.

/// The highest percentile reported: a tail percentile is capped here even
/// when the sample supports more.
const TAIL_CAP: f64 = 99.0;

/// Samples that must lie beyond a reported percentile.
const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of ascending `sorted` values.
///
/// # Panics
///
/// Panics if `sorted` is empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    sorted[rank(p, n).clamp(1, n) - 1]
}

/// Nearest rank of percentile `p` among `n` samples, computed on the
/// percentile's 0.1 grid in integers so that float rounding cannot move it.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// The highest percentile, capped at p99 and on a 0.1 grid, that still has
/// at least [`TAIL_SUPPORT`] samples strictly beyond its rank, with its
/// value: `(percentile, value)`. `None` when the sample is too small to
/// support any percentile.
fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    // rank = ceil(p/100 * n) must leave n - rank >= TAIL_SUPPORT samples.
    let max_rank = n - TAIL_SUPPORT;
    let cap = (TAIL_CAP * 10.0) as usize;
    let tenths = (max_rank * 1000 / n).min(cap);
    let p = tenths as f64 / 10.0;
    debug_assert!(rank(p, n) <= max_rank);
    Some((p, percentile(sorted, p)))
}

/// Block sizes of [`block_tail`], largest first: a block of 1000 supports
/// p99, one of 100 supports p90, each with [`TAIL_SUPPORT`] samples beyond.
pub const TAIL_BLOCKS: [usize; 2] = [1000, 100];

/// The tail of a sample given in arrival order: the median, over
/// consecutive blocks, of each block's [`tail`], so that one burst of host
/// noise moves one block and not the estimate. Blocks are the largest of
/// [`TAIL_BLOCKS`] that the sample fills at least twice; leftover samples
/// join the last block. A sample too small for two blocks of the smallest
/// size falls back to the [`tail`] of the whole sample.
pub fn block_tail(in_order: &[f64]) -> Option<(f64, f64)> {
    let Some(&size) = TAIL_BLOCKS.iter().find(|&&b| in_order.len() >= 2 * b) else {
        return tail(&sorted(in_order.to_vec()));
    };
    let blocks = in_order.len() / size;
    let mut tails = Vec::with_capacity(blocks);
    let mut p = 0.0;
    for b in 0..blocks {
        let end = if b + 1 == blocks {
            in_order.len()
        } else {
            (b + 1) * size
        };
        let (pb, v) = tail(&sorted(in_order[b * size..end].to_vec()))?;
        // Name the percentile of a full block, not of the longer last one.
        if b == 0 {
            p = pb;
        }
        tails.push(v);
    }
    Some((p, median(&tails)))
}

/// Sorts a sample ascending; infinities (failed operations) sort last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_p99_once_the_sample_supports_it() {
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(5000)), Some((99.0, 4950.0)));
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        let (p, v) = tail(&ramp(500)).unwrap();
        assert_eq!((p, v), (98.0, 490.0));
        let (p, v) = tail(&ramp(100)).unwrap();
        assert_eq!((p, v), (90.0, 90.0));
        for n in [11, 37, 250, 333, 999, 1001] {
            let (p, v) = tail(&ramp(n)).unwrap();
            let beyond = n - v as usize;
            assert!(beyond >= TAIL_SUPPORT, "n={n} p={p}: {beyond} beyond");
            // One grid step higher would leave fewer than ten beyond.
            if p < TAIL_CAP {
                let up = percentile(&ramp(n), p + 0.1);
                assert!(
                    n - (up as usize) < TAIL_SUPPORT,
                    "n={n}: p{p} is not the highest"
                );
            }
        }
    }

    #[test]
    fn block_tail_shrugs_off_one_bad_block() {
        // Three blocks of 1..=1000; a burst makes the second block's tail
        // huge, the other two keep theirs.
        let mut v: Vec<f64> = ramp(1000).into_iter().cycle().take(3000).collect();
        for x in &mut v[1500..1600] {
            *x = 1e6;
        }
        assert_eq!(block_tail(&v), Some((99.0, 990.0)));
        // The whole-sample p99 would have reported the burst.
        assert_eq!(tail(&sorted(v.clone())).unwrap().1, 1e6);
        // Under two blocks of 1000, blocks of 100 carry p90 each.
        let short: Vec<f64> = ramp(100).into_iter().cycle().take(1999).collect();
        assert_eq!(block_tail(&short), Some((90.0, 90.0)));
        // Under two blocks of 100 the rule falls back to the whole sample.
        assert_eq!(block_tail(&v[..199]), tail(&sorted(v[..199].to_vec())));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_operations_sort_last_and_reach_the_tail() {
        let mut v = ramp(1000);
        for x in v.iter_mut().skip(985) {
            *x = f64::INFINITY;
        }
        let s = sorted(v);
        assert!(tail(&s).unwrap().1.is_infinite());
        assert_eq!(percentile(&s, 50.0), 500.0);
    }
}
