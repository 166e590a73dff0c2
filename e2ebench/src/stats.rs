//! Order statistics for the reported timings, and the metric-name rule.

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail of a sample: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Its percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Sample count `n`.
    pub samples: usize,
}

/// The tail of `xs`, or `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist (no value then has ten samples beyond it).
///
/// # Panics
///
/// Panics if `xs` holds a NaN.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    Some(Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// The tail value of `xs`, or its maximum when it is too small to have a
/// tail (0 when empty).
pub fn tail_or_max(xs: &[f64]) -> f64 {
    tail(xs).map_or_else(|| xs.iter().copied().fold(0.0, f64::max), |t| t.value)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    s
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_exactly_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&xs).expect("200 samples have a tail");
        assert_eq!(t.value, 190.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.samples, 200);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let t = tail(&[xs.as_slice(), &[10.0]].concat()).expect("eleven suffice");
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "op_p50_ms",
            "tensor.kernel.calls",
            "serve.rejected_share",
            "a-1",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "has space", "ms/op", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }
}
