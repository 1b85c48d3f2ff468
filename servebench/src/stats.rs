//! Order statistics over latency samples.

/// The `q`-quantile (0 < q < 1) of `samples` by the nearest-rank rule.
///
/// Refuses (returns `Err`) unless at least ten samples lie strictly
/// beyond the chosen rank: a tail percentile read off fewer samples is
/// one or two outliers, not a property of the system. The median is
/// held to the same rule, so every reported order statistic rests on
/// at least ten samples on each side.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return Err("no samples".into());
    }
    // Nearest rank: the smallest sample with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < 10 {
        return Err(format!(
            "p{} needs at least ten samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// The `q`-quantile of each group of samples (each held to
/// `quantile`'s rule), then the trimmed mean of those.
///
/// A group is a stretch of consecutive rounds. A shared virtual host
/// can switch between a fast and a slow speed from one stretch of
/// seconds to the next, and a run gets a varying share of each. A
/// percentile over the run's pooled samples, or a median over the
/// groups, jumps from one speed to the other as that share crosses a
/// threshold; a mean over the groups moves in proportion to it.
pub fn grouped_quantile(groups: &[Vec<f64>], q: f64) -> Result<f64, String> {
    let per_group = groups
        .iter()
        .map(|g| quantile(g, q))
        .collect::<Result<Vec<f64>, String>>()?;
    trimmed_mean(&per_group)
}

/// The mean of per-round (or per-group) figures without the highest and
/// the lowest tenth of them: a round that hit a stall of the host moves
/// it no more than any other round that was kept.
pub fn trimmed_mean(samples: &[f64]) -> Result<f64, String> {
    let cut = samples.len() / 10;
    if samples.len() <= 2 * cut {
        return Err("no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[cut..sorted.len() - cut];
    Ok(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// The median of a small set of whole-run samples (set-up times,
/// restarts, cold opens), averaging the two middle values of an even
/// count. Used where each sample is itself a whole cold path and the
/// sample count is fixed by the workload, not a latency tail.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Ok(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_refused_with_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is rank 90: nine samples beyond it.
        assert!(quantile(&xs, 0.9).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9).unwrap(), 90.0);
        // A median needs ten on the far side too.
        assert!(quantile(&xs[..19], 0.5).is_err());
        assert_eq!(quantile(&xs[..20], 0.5).unwrap(), 10.0);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0].repeat(10);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn grouped_quantile_is_the_trimmed_mean_of_the_groups_percentiles() {
        let fast: Vec<f64> = (1..=100).map(f64::from).collect();
        let slow: Vec<f64> = fast.iter().map(|x| x * 2.0).collect();
        let groups = [fast.clone(), slow.clone(), fast, slow.clone()];
        assert_eq!(grouped_quantile(&groups, 0.9).unwrap(), 135.0);
        // One group too small to give the percentile refuses the whole.
        assert!(grouped_quantile(&[slow, vec![1.0; 50]], 0.9).is_err());
        assert!(grouped_quantile(&[], 0.5).is_err());
    }

    #[test]
    fn trimmed_mean_drops_the_outer_tenths() {
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]).unwrap(), 3.0);
        // Of ten figures, the highest and the lowest go.
        let mut xs = vec![5.0; 8];
        xs.extend([1000.0, 0.0]);
        assert_eq!(trimmed_mean(&xs).unwrap(), 5.0);
        assert!(trimmed_mean(&[]).is_err());
    }
}
