//! Order statistics over timing samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a `p` share of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above the `p` percentile — the tail a
/// percentile rests on (the benchmark wants at least ten beyond p99).
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// Sorts samples ascending (they are finite timings).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    values
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values.to_vec());
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean; zero for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Indices (ascending) of the calm items among `(steal, weight)` pairs:
/// every item that accrued no hypervisor steal (a `steal` equal to its
/// default), or — when those weigh less than `min_weight` — the
/// least-stolen items, quietest first, until they do. A shared virtual
/// machine loses its vCPUs to other tenants for milliseconds at a time;
/// timing only calm stretches measures the program rather than its
/// neighbours.
pub fn calm<S: Ord + Copy + Default>(items: &[(S, u64)], min_weight: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (items[i].0, i));
    let mut chosen = Vec::new();
    let mut weight = 0;
    for i in order {
        if items[i].0 != S::default() && weight >= min_weight {
            break;
        }
        chosen.push(i);
        weight += items[i].1;
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calm_keeps_every_unstolen_item_and_tops_up_with_the_quietest() {
        let items = [(0, 10), (3, 10), (0, 10), (1, 10), (5, 10)];
        // Unstolen items outweigh the minimum: all of them, nothing else.
        assert_eq!(calm(&items, 15), vec![0, 2]);
        // Too little unstolen weight: add the quietest until it suffices.
        assert_eq!(calm(&items, 35), vec![0, 1, 2, 3]);
        // Everything stolen: the quietest first.
        assert_eq!(calm(&[(2, 1), (1, 1), (4, 1)], 1), vec![1]);
        assert_eq!(calm::<u64>(&[], 5), Vec::<usize>::new());
        // Ordered keys rank lexicographically: (0, 3) is quieter than (1, 0).
        assert_eq!(
            calm(&[((1, 0), 5), ((0, 3), 5), ((0, 0), 5)], 10),
            vec![1, 2]
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_beyond_a_percentile_counts_strictly_larger_samples() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(beyond(&samples, 0.99), 20);
        // Ties at the cut are not beyond it.
        assert_eq!(beyond(&[1.0, 2.0, 2.0, 2.0], 0.5), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
