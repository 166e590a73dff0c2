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
    #[should_panic(expected = "expected")]
    fn length_mismatch_rejected() {
        let a = vec![1.0f32];
        let b = vec![1.0f32, 2.0];
        let _ = aggregate(&[(&a, 1.0), (&b, 1.0)]);
    }
}
