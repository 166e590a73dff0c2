//! Federated averaging (Eqn. 4): `ω_{k+1} = Σ_i (D_i/D)·ω_i`.

/// Data-weighted average of flat parameter vectors.
///
/// `updates` pairs each participant's flattened model with its data weight;
/// weights are re-normalized over the participants (so partial
/// participation still produces a convex combination).
///
/// # Panics
///
/// Panics if `updates` is empty, the vectors have unequal lengths, or any
/// weight is non-positive.
///
/// # Examples
///
/// ```
/// use chiron_fedsim::fedavg::aggregate;
///
/// let a = vec![0.0_f32, 2.0];
/// let b = vec![2.0_f32, 4.0];
/// let avg = aggregate(&[(&a, 1.0), (&b, 1.0)]);
/// assert_eq!(avg, vec![1.0, 3.0]);
/// ```
pub fn aggregate(updates: &[(&[f32], f64)]) -> Vec<f32> {
    assert!(!updates.is_empty(), "aggregate needs at least one update");
    let mut out = vec![0.0f32; updates[0].0.len()];
    aggregate_into(&mut out, updates);
    out
}

/// In-place server-side model replacement: accumulates the weighted
/// average in a reused per-thread f64 buffer and writes the result
/// straight into `global` — no intermediate `Vec` per round, unlike the
/// obvious `global.copy_from_slice(&aggregate(..))` formulation which
/// allocates (and copies) twice. The accumulation loop order is identical
/// to [`aggregate`]'s historical one, so results are bitwise-unchanged.
///
/// # Panics
///
/// Panics under the same conditions as [`aggregate`], or if `global`'s
/// length differs from the updates'.
pub fn aggregate_into(global: &mut [f32], updates: &[(&[f32], f64)]) {
    assert!(!updates.is_empty(), "aggregate needs at least one update");
    let len = global.len();
    let mut total_weight = 0.0f64;
    for (i, (params, w)) in updates.iter().enumerate() {
        assert_eq!(
            params.len(),
            len,
            "update {i} has {} params, expected {len}",
            params.len()
        );
        assert!(*w > 0.0, "update {i} has non-positive weight {w}");
        total_weight += w;
    }
    thread_local! {
        /// f64 accumulator, retained across rounds (the scratch arena is
        /// f32-only, so the wide accumulator keeps its own slot).
        static ACC: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    ACC.with(|acc| {
        let mut acc = acc.borrow_mut();
        acc.clear();
        acc.resize(len, 0.0f64);
        for (params, w) in updates {
            let scale = w / total_weight;
            for (slot, &p) in acc.iter_mut().zip(*params) {
                *slot += scale * f64::from(p);
            }
        }
        for (dst, &x) in global.iter_mut().zip(acc.iter()) {
            *dst = x as f32;
        }
    });
}

/// Two-level (clustered) federated averaging: updates are partitioned
/// into `clusters` contiguous edge clusters, each cluster accumulates its
/// weighted partial sum independently, and the partials are combined in
/// cluster order before the single global normalization.
///
/// This is the edge-aggregation topology hierarchical FL deployments use
/// (nodes report to their edge server, edge servers report to the cloud),
/// and it parallelizes: the per-cluster partials fan out through a named
/// [`chiron_tensor::pool::map`] region while the cluster-order join keeps
/// the result bitwise-identical at every thread count. `clusters == 1`
/// delegates to [`aggregate_into`] and is bitwise-identical to it;
/// `clusters > updates.len()` is clamped.
///
/// # Panics
///
/// Panics under the same conditions as [`aggregate_into`], or if
/// `clusters` is zero.
pub fn aggregate_clustered_into(global: &mut [f32], updates: &[(&[f32], f64)], clusters: usize) {
    assert!(clusters > 0, "need at least one cluster");
    if clusters == 1 {
        return aggregate_into(global, updates);
    }
    assert!(!updates.is_empty(), "aggregate needs at least one update");
    let len = global.len();
    for (i, (params, w)) in updates.iter().enumerate() {
        assert_eq!(
            params.len(),
            len,
            "update {i} has {} params, expected {len}",
            params.len()
        );
        assert!(*w > 0.0, "update {i} has non-positive weight {w}");
    }
    let clusters = clusters.min(updates.len());
    let ranges: Vec<(usize, usize)> = (0..clusters)
        .map(|c| {
            (
                c * updates.len() / clusters,
                (c + 1) * updates.len() / clusters,
            )
        })
        .collect();
    // Level 1: per-cluster unnormalized weighted sums, in f64. Each
    // cluster is one task of a named region; results come back in
    // cluster order.
    let partials: Vec<(Vec<f64>, f64)> =
        chiron_tensor::pool::map("fedavg.clusters", &ranges, |_, &(start, end)| {
            let mut acc = vec![0.0f64; len];
            let mut weight = 0.0f64;
            for (params, w) in &updates[start..end] {
                weight += w;
                for (slot, &p) in acc.iter_mut().zip(*params) {
                    *slot += w * f64::from(p);
                }
            }
            (acc, weight)
        });
    // Level 2: global combine, sequential over clusters (the cluster
    // count is small and fixed, so this join order — not the thread
    // schedule — defines the floating-point result).
    let total_weight: f64 = partials.iter().map(|(_, w)| w).sum();
    let mut acc = vec![0.0f64; len];
    for (partial, _) in &partials {
        for (slot, &x) in acc.iter_mut().zip(partial) {
            *slot += x;
        }
    }
    for (dst, &x) in global.iter_mut().zip(&acc) {
        *dst = (x / total_weight) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_give_plain_mean() {
        let a = vec![1.0f32, 2.0, 3.0];
        let b = vec![3.0f32, 2.0, 1.0];
        let avg = aggregate(&[(&a, 0.5), (&b, 0.5)]);
        assert_eq!(avg, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn weights_are_renormalized() {
        let a = vec![0.0f32];
        let b = vec![10.0f32];
        // Weights 1 and 3 (sum 4) ⇒ 0·0.25 + 10·0.75 = 7.5.
        let avg = aggregate(&[(&a, 1.0), (&b, 3.0)]);
        assert!((avg[0] - 7.5).abs() < 1e-6);
    }

    #[test]
    fn single_update_is_identity() {
        let a = vec![5.0f32, -1.0];
        assert_eq!(aggregate(&[(&a, 0.3)]), a);
    }

    #[test]
    fn matches_paper_weighting() {
        // Eqn. 4 with D_1 = 100, D_2 = 300: ω = 0.25·ω₁ + 0.75·ω₂.
        let w1 = vec![4.0f32];
        let w2 = vec![8.0f32];
        let avg = aggregate(&[(&w1, 100.0), (&w2, 300.0)]);
        assert!((avg[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn aggregate_into_overwrites_global() {
        let mut global = vec![0.0f32, 0.0];
        let a = vec![2.0f32, 4.0];
        aggregate_into(&mut global, &[(&a, 1.0)]);
        assert_eq!(global, a);
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn zero_weight_rejected() {
        let a = vec![1.0f32];
        let _ = aggregate(&[(&a, 0.0)]);
    }

    #[test]
    fn clustered_matches_flat_within_tolerance() {
        let updates: Vec<Vec<f32>> = (0..13)
            .map(|i| {
                (0..32)
                    .map(|j| ((i * 31 + j * 7) % 11) as f32 * 0.25 - 1.0)
                    .collect()
            })
            .collect();
        let refs: Vec<(&[f32], f64)> = updates
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_slice(), 1.0 + i as f64))
            .collect();
        let mut flat = vec![0.0f32; 32];
        aggregate_into(&mut flat, &refs);
        for clusters in [2, 3, 4, 13, 64] {
            let mut two_level = vec![0.0f32; 32];
            aggregate_clustered_into(&mut two_level, &refs, clusters);
            for (a, b) in flat.iter().zip(&two_level) {
                assert!((a - b).abs() < 1e-5, "clusters={clusters}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn one_cluster_is_bitwise_flat() {
        let a = vec![0.3f32, -2.5, 7.0];
        let b = vec![1.5f32, 0.25, -0.125];
        let refs: Vec<(&[f32], f64)> = vec![(&a, 2.0), (&b, 5.0)];
        let mut flat = vec![0.0f32; 3];
        aggregate_into(&mut flat, &refs);
        let mut clustered = vec![0.0f32; 3];
        aggregate_clustered_into(&mut clustered, &refs, 1);
        let flat_bits: Vec<u32> = flat.iter().map(|x| x.to_bits()).collect();
        let clustered_bits: Vec<u32> = clustered.iter().map(|x| x.to_bits()).collect();
        assert_eq!(flat_bits, clustered_bits);
    }

    #[test]
    fn clustered_result_is_independent_of_cluster_execution_order() {
        // The cluster-order join defines the result; running the same
        // inputs twice must be bitwise-stable.
        let updates: Vec<Vec<f32>> = (0..9).map(|i| vec![i as f32 * 0.5; 16]).collect();
        let refs: Vec<(&[f32], f64)> = updates.iter().map(|p| (p.as_slice(), 1.0)).collect();
        let mut first = vec![0.0f32; 16];
        aggregate_clustered_into(&mut first, &refs, 3);
        let mut second = vec![0.0f32; 16];
        aggregate_clustered_into(&mut second, &refs, 3);
        let fb: Vec<u32> = first.iter().map(|x| x.to_bits()).collect();
        let sb: Vec<u32> = second.iter().map(|x| x.to_bits()).collect();
        assert_eq!(fb, sb);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_rejected() {
        let a = vec![1.0f32];
        let mut out = vec![0.0f32];
        aggregate_clustered_into(&mut out, &[(&a, 1.0)], 0);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn length_mismatch_rejected() {
        let a = vec![1.0f32];
        let b = vec![1.0f32, 2.0];
        let _ = aggregate(&[(&a, 1.0), (&b, 1.0)]);
    }
}
