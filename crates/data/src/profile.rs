//! Dataset profiles: geometry, difficulty, and reference learning curves.

use serde::{Deserialize, Serialize};

/// Which paper dataset a profile emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// MNIST: 1×28×28, easy — accuracy saturates quickly.
    MnistLike,
    /// Fashion-MNIST: 1×28×28, moderate difficulty.
    FashionLike,
    /// CIFAR-10: 3×32×32, hard — slow curve, low asymptote (LeNet-scale).
    Cifar10Like,
    /// A tiny synthetic task used by fast tests, not a paper dataset.
    Tiny,
}

impl DatasetKind {
    /// All paper datasets, in the order the evaluation presents them.
    pub const PAPER_DATASETS: [DatasetKind; 3] = [
        DatasetKind::MnistLike,
        DatasetKind::FashionLike,
        DatasetKind::Cifar10Like,
    ];

    /// Parses a dataset name as the CLI and the serve API accept it:
    /// `mnist`, `fashion` (or `fashion-mnist`), `cifar` (or `cifar-10`,
    /// `cifar10`) and `tiny`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "mnist" => Some(DatasetKind::MnistLike),
            "fashion" | "fashion-mnist" => Some(DatasetKind::FashionLike),
            "cifar" | "cifar-10" | "cifar10" => Some(DatasetKind::Cifar10Like),
            "tiny" => Some(DatasetKind::Tiny),
            _ => None,
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DatasetKind::MnistLike => "mnist",
            DatasetKind::FashionLike => "fashion-mnist",
            DatasetKind::Cifar10Like => "cifar-10",
            DatasetKind::Tiny => "tiny",
        };
        f.write_str(s)
    }
}

/// Knobs controlling how separable the synthetic classes are.
///
/// Lower `noise_std` and fewer `modes_per_class` make classification easier;
/// `prototype_scale` sets the distance between class prototypes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Difficulty {
    /// Standard deviation of additive per-pixel noise.
    pub noise_std: f32,
    /// Distance scale between class prototypes.
    pub prototype_scale: f32,
    /// Number of distinct sub-modes (intra-class variations) per class.
    pub modes_per_class: usize,
    /// Probability that a sample's label is replaced by a uniformly random
    /// one. Calibrated per profile so the Bayes-optimal test accuracy
    /// `(1 − p) + p/classes` matches the emulated dataset's asymptote
    /// (`LearningCurve::a_max`) — real MNIST/Fashion-MNIST/CIFAR-10 never
    /// reach 100 % with the paper's architectures, and neither should the
    /// synthetic stand-ins.
    pub label_noise: f32,
}

/// The reference accuracy-vs-rounds curve
/// `A(k) = a_max − (a_max − a_0)·exp(−rate·k)` used to calibrate the fast
/// accuracy oracle in `chiron-fedsim`.
///
/// The MNIST parameters are fitted to the paper's Table I (accuracy 0.916
/// after 16 rounds rising to 0.943 after 34 rounds ⇒ `a_max ≈ 0.96`,
/// `rate ≈ 0.05` per round at σ = 5 local epochs); Fashion-MNIST and
/// CIFAR-10 use the well-known asymptotes of the paper's architectures
/// (≈ 0.85 for the small CNN, ≈ 0.62 for LeNet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearningCurve {
    /// Asymptotic accuracy.
    pub a_max: f64,
    /// Accuracy at zero training (random guessing).
    pub a_0: f64,
    /// Exponential rate per unit of effective training (one full round of
    /// σ local epochs on all data ⇒ one unit).
    pub rate: f64,
}

impl LearningCurve {
    /// Accuracy after `effective_rounds` units of training.
    pub fn accuracy(&self, effective_rounds: f64) -> f64 {
        self.a_max - (self.a_max - self.a_0) * (-self.rate * effective_rounds).exp()
    }

    /// Inverse of [`LearningCurve::accuracy`]: the effective rounds needed
    /// to reach `accuracy` (which must lie in `[a_0, a_max)`).
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is outside `[a_0, a_max)`.
    pub fn rounds_to_reach(&self, accuracy: f64) -> f64 {
        assert!(
            accuracy >= self.a_0 && accuracy < self.a_max,
            "accuracy {accuracy} outside [{}, {})",
            self.a_0,
            self.a_max
        );
        -((self.a_max - accuracy) / (self.a_max - self.a_0)).ln() / self.rate
    }
}

/// A complete dataset profile: geometry, size, difficulty, and the
/// reference curve.
///
/// # Examples
///
/// ```
/// use chiron_data::DatasetSpec;
///
/// let spec = DatasetSpec::cifar10_like();
/// assert_eq!(spec.channels, 3);
/// assert_eq!(spec.bits_per_sample(), 3 * 32 * 32 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which paper dataset this emulates.
    pub kind: DatasetKind,
    /// Image channels (1 for MNIST-like, 3 for CIFAR-like).
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Canonical training-set size of the emulated dataset.
    pub train_size: usize,
    /// Difficulty knobs for the synthetic generator.
    pub difficulty: Difficulty,
    /// Reference learning curve for oracle calibration.
    pub curve: LearningCurve,
}

impl DatasetSpec {
    /// MNIST profile: 1×28×28, 10 classes, easy.
    pub fn mnist_like() -> Self {
        Self {
            kind: DatasetKind::MnistLike,
            channels: 1,
            height: 28,
            width: 28,
            classes: 10,
            train_size: 60_000,
            difficulty: Difficulty {
                noise_std: 0.25,
                prototype_scale: 1.0,
                modes_per_class: 1,
                label_noise: 0.033, // Bayes ceiling ≈ 0.97
            },
            curve: LearningCurve {
                a_max: 0.97,
                a_0: 0.10,
                rate: 0.16,
            },
        }
    }

    /// Fashion-MNIST profile: 1×28×28, 10 classes, moderate.
    pub fn fashion_like() -> Self {
        Self {
            kind: DatasetKind::FashionLike,
            channels: 1,
            height: 28,
            width: 28,
            classes: 10,
            train_size: 60_000,
            difficulty: Difficulty {
                noise_std: 0.45,
                prototype_scale: 0.8,
                modes_per_class: 2,
                label_noise: 0.144, // Bayes ceiling ≈ 0.87
            },
            curve: LearningCurve {
                a_max: 0.87,
                a_0: 0.10,
                rate: 0.12,
            },
        }
    }

    /// CIFAR-10 profile: 3×32×32, 10 classes, hard (LeNet-scale asymptote).
    pub fn cifar10_like() -> Self {
        Self {
            kind: DatasetKind::Cifar10Like,
            channels: 3,
            height: 32,
            width: 32,
            classes: 10,
            train_size: 50_000,
            difficulty: Difficulty {
                noise_std: 0.8,
                prototype_scale: 0.6,
                modes_per_class: 3,
                label_noise: 0.422, // Bayes ceiling ≈ 0.62
            },
            curve: LearningCurve {
                a_max: 0.62,
                a_0: 0.10,
                rate: 0.055,
            },
        }
    }

    /// A small, fast profile for unit tests: 1×8×8, 4 classes.
    pub fn tiny() -> Self {
        Self {
            kind: DatasetKind::Tiny,
            channels: 1,
            height: 8,
            width: 8,
            classes: 4,
            train_size: 400,
            difficulty: Difficulty {
                noise_std: 0.2,
                prototype_scale: 1.2,
                modes_per_class: 1,
                label_noise: 0.067, // Bayes ceiling ≈ 0.95
            },
            curve: LearningCurve {
                a_max: 0.95,
                a_0: 0.25,
                rate: 0.5,
            },
        }
    }

    /// Builds the profile for a [`DatasetKind`].
    pub fn for_kind(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::MnistLike => Self::mnist_like(),
            DatasetKind::FashionLike => Self::fashion_like(),
            DatasetKind::Cifar10Like => Self::cifar10_like(),
            DatasetKind::Tiny => Self::tiny(),
        }
    }

    /// Flattened pixel count per sample.
    pub fn pixels(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Bits of training data per sample (8-bit pixels), the `d` in the
    /// paper's computational model `T = σ·c·d/ζ`.
    pub fn bits_per_sample(&self) -> u64 {
        (self.pixels() as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        let m = DatasetSpec::mnist_like();
        assert_eq!((m.channels, m.height, m.width, m.classes), (1, 28, 28, 10));
        let c = DatasetSpec::cifar10_like();
        assert_eq!((c.channels, c.height, c.width, c.classes), (3, 32, 32, 10));
        assert_eq!(m.bits_per_sample(), 6272);
        assert_eq!(c.bits_per_sample(), 24_576);
    }

    #[test]
    fn curve_is_monotone_with_diminishing_returns() {
        let curve = DatasetSpec::mnist_like().curve;
        let a1 = curve.accuracy(1.0);
        let a2 = curve.accuracy(2.0);
        let a10 = curve.accuracy(10.0);
        let a11 = curve.accuracy(11.0);
        assert!(a2 > a1);
        assert!(a11 > a10);
        // Marginal effect: early improvement beats late improvement.
        assert!((a2 - a1) > (a11 - a10));
        assert!((curve.accuracy(0.0) - curve.a_0).abs() < 1e-12);
        assert!(curve.accuracy(1e9) <= curve.a_max);
    }

    #[test]
    fn curve_ordering_matches_dataset_difficulty() {
        let m = DatasetSpec::mnist_like().curve;
        let f = DatasetSpec::fashion_like().curve;
        let c = DatasetSpec::cifar10_like().curve;
        for k in [5.0, 20.0, 50.0] {
            assert!(m.accuracy(k) > f.accuracy(k));
            assert!(f.accuracy(k) > c.accuracy(k));
        }
    }

    #[test]
    fn rounds_to_reach_inverts_accuracy() {
        let curve = DatasetSpec::fashion_like().curve;
        let k = curve.rounds_to_reach(0.8);
        assert!((curve.accuracy(k) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn mnist_curve_consistent_with_table_one_shape() {
        // Table I reports accuracy 0.916@16 → 0.943@34 rounds at 100 nodes.
        // The small-scale curve is faster but must preserve the band:
        // high accuracy in tens of rounds, visible marginal effect.
        let curve = DatasetSpec::mnist_like().curve;
        assert!(curve.accuracy(16.0) > 0.88);
        assert!(curve.accuracy(34.0) > curve.accuracy(16.0));
        assert!(curve.accuracy(34.0) < 0.97);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rounds_to_reach_validates_range() {
        let curve = DatasetSpec::mnist_like().curve;
        let _ = curve.rounds_to_reach(0.999);
    }

    #[test]
    fn display_names() {
        assert_eq!(DatasetKind::MnistLike.to_string(), "mnist");
        assert_eq!(DatasetKind::Cifar10Like.to_string(), "cifar-10");
    }
}
