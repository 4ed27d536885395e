//! Pulse trains: the temporal sequence of binary input vectors a crossbar
//! consumes.

use std::sync::OnceLock;

use membit_tensor::{Tensor, TensorError};

use crate::Result;

/// Structural class of a [`PulseTrain`], used by execution engines to
/// pick specialized evaluation paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// No structure guaranteed beyond the [`PulseTrain`] invariants.
    Generic,
    /// Unit-weight train whose pulses are *nested*: per element, every
    /// pulse entry is ±1 and the sequence is monotonically non-increasing
    /// (`+1…+1, −1…−1`), so each element switches `+1 → −1` at most once.
    /// Thermometer/unary codes have exactly this shape (paper Eq. 3),
    /// which lets an engine evaluate pulse `t+1` as a sparse delta on
    /// pulse `t`. Such trains are stored as one high count per element
    /// (see [`PulseTrain::high_counts`]).
    NestedUnary,
}

/// Largest pulse count a [nested-unary](TrainKind::NestedUnary) train can
/// carry: its per-element high counts are stored as `u16`. The
/// thermometer-family encoders reject longer codes at construction.
pub const MAX_UNARY_PULSES: usize = u16::MAX as usize;

/// How a train stores its pulses.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// One tensor per pulse.
    Dense(Vec<Tensor>),
    /// Nested unary: per element, its number of leading `+1` pulses.
    Counts { shape: Vec<usize>, counts: Vec<u16> },
}

/// A sequence of same-shaped ±1 pulse tensors plus their accumulation
/// weights.
///
/// For thermometer coding all weights are 1; for bit slicing they are
/// `2^i`. The decoded value is `Σ w_i·x_i / Σ w_i`, and a crossbar
/// executes one analog MVM per pulse.
///
/// A [nested-unary](TrainKind::NestedUnary) train stores only its shape,
/// its pulse count and one high count per element — pulse `i` drives
/// `+1` exactly where `i < count`. [`pulses`](Self::pulses) and
/// [`iter`](Self::iter) are views: on such a train the dense pulse
/// tensors are materialized once, on first call, and cached.
#[derive(Debug, Clone)]
pub struct PulseTrain {
    repr: Repr,
    weights: Vec<f32>,
    /// Dense view of a count-backed train, built on first request.
    dense: OnceLock<Vec<Tensor>>,
}

impl PartialEq for PulseTrain {
    fn eq(&self, other: &Self) -> bool {
        // the cached dense view is derived state, not identity
        self.repr == other.repr && self.weights == other.weights
    }
}

impl PulseTrain {
    /// Bundles pulses with their weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty train, a
    /// weight-count mismatch, or inconsistent pulse shapes.
    pub fn new(pulses: Vec<Tensor>, weights: Vec<f32>) -> Result<Self> {
        check_dense(&pulses, weights.len())?;
        Ok(Self {
            repr: Repr::Dense(pulses),
            weights,
            dense: OnceLock::new(),
        })
    }

    /// Bundles unit-weight pulses as a [`TrainKind::NestedUnary`] train,
    /// validating the nesting invariant (every entry ±1, per-element
    /// monotonically non-increasing over pulses) and converting the
    /// pulses to per-element high counts.
    ///
    /// # Errors
    ///
    /// Returns the [`new`](Self::new) errors, plus
    /// [`TensorError::InvalidArgument`] when the pulses are not nested
    /// unary or number more than [`MAX_UNARY_PULSES`].
    pub fn nested_unary(pulses: Vec<Tensor>) -> Result<Self> {
        check_dense(&pulses, pulses.len())?;
        if pulses.len() > MAX_UNARY_PULSES {
            return Err(TensorError::InvalidArgument(format!(
                "nested unary trains carry at most {MAX_UNARY_PULSES} pulses, got {}",
                pulses.len()
            )));
        }
        let mut counts = vec![0u16; pulses[0].len()];
        for (pi, pulse) in pulses.iter().enumerate() {
            for (flat, (&v, count)) in pulse.as_slice().iter().zip(&mut counts).enumerate() {
                if v != 1.0 && v != -1.0 {
                    return Err(TensorError::InvalidArgument(format!(
                        "nested unary train has non-binary entry {v} (pulse {pi})"
                    )));
                }
                if v == 1.0 {
                    if usize::from(*count) != pi {
                        return Err(TensorError::InvalidArgument(format!(
                            "nested unary train rises at pulse {pi}, element {flat}"
                        )));
                    }
                    *count += 1;
                }
            }
        }
        let shape = pulses[0].shape();
        Ok(Self::from_high_counts(shape, pulses.len(), counts))
    }

    /// A [`TrainKind::NestedUnary`] train of `num_pulses` unit-weight
    /// pulses over `shape`, where element `j` is `+1` on pulses
    /// `0..counts[j]` and `−1` after. Callers guarantee
    /// `1 <= num_pulses <= MAX_UNARY_PULSES`, one count per element and
    /// `counts[j] <= num_pulses`.
    pub(crate) fn from_high_counts(shape: &[usize], num_pulses: usize, counts: Vec<u16>) -> Self {
        debug_assert!((1..=MAX_UNARY_PULSES).contains(&num_pulses));
        debug_assert_eq!(counts.len(), shape.iter().product::<usize>());
        debug_assert!(counts.iter().all(|&c| usize::from(c) <= num_pulses));
        Self {
            repr: Repr::Counts {
                shape: shape.to_vec(),
                counts,
            },
            weights: vec![1.0; num_pulses],
            dense: OnceLock::new(),
        }
    }

    /// The structural class of this train: [`TrainKind::NestedUnary`]
    /// exactly when it is stored as high counts.
    pub fn kind(&self) -> TrainKind {
        match self.repr {
            Repr::Dense(_) => TrainKind::Generic,
            Repr::Counts { .. } => TrainKind::NestedUnary,
        }
    }

    /// Per-element high counts (number of leading `+1` pulses, row-major
    /// over [`shape`](Self::shape)) of a [nested-unary](TrainKind::NestedUnary)
    /// train; `None` for a generic one.
    pub fn high_counts(&self) -> Option<&[u16]> {
        match &self.repr {
            Repr::Dense(_) => None,
            Repr::Counts { counts, .. } => Some(counts),
        }
    }

    /// Number of pulses (crossbar time steps).
    pub fn num_pulses(&self) -> usize {
        self.weights.len()
    }

    /// Shape of each pulse tensor.
    pub fn shape(&self) -> &[usize] {
        match &self.repr {
            Repr::Dense(pulses) => pulses[0].shape(),
            Repr::Counts { shape, .. } => shape,
        }
    }

    /// The pulse tensors, in temporal order. A count-backed train builds
    /// them on the first call and keeps them.
    pub fn pulses(&self) -> &[Tensor] {
        match &self.repr {
            Repr::Dense(pulses) => pulses,
            Repr::Counts { shape, counts } => self.dense.get_or_init(|| {
                (0..self.num_pulses())
                    .map(|i| {
                        let data = counts
                            .iter()
                            .map(|&c| if i < usize::from(c) { 1.0 } else { -1.0 })
                            .collect();
                        Tensor::from_vec(data, shape).expect("counts match the shape")
                    })
                    .collect()
            }),
        }
    }

    /// The accumulation weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Sum of the accumulation weights (the decode normalizer).
    pub fn weight_norm(&self) -> f32 {
        self.weights.iter().sum()
    }

    /// Iterates `(weight, pulse)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f32, &Tensor)> {
        self.weights.iter().copied().zip(self.pulses())
    }

    /// Decodes the train back to values: `Σ w_i·x_i / Σ w_i`.
    ///
    /// A count-backed train decodes without building its pulses: its
    /// pulse sum is `2·count − p`, the integer the pulse-by-pulse sum
    /// reaches exactly, so both forms are bitwise equal.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible for a validated train).
    pub fn decode(&self) -> Result<Tensor> {
        let scale = 1.0 / self.weight_norm();
        match &self.repr {
            Repr::Dense(_) => {
                let mut acc = Tensor::zeros(self.shape());
                for (w, p) in self.iter() {
                    acc.axpy(w, p)?;
                }
                Ok(acc.mul_scalar(scale))
            }
            Repr::Counts { shape, counts } => {
                let p = self.num_pulses() as i32;
                let data = counts
                    .iter()
                    .map(|&c| (2 * i32::from(c) - p) as f32 * scale)
                    .collect();
                Tensor::from_vec(data, shape)
            }
        }
    }

    /// Total pulse-weighted latency proxy: the number of pulses (all
    /// pulses take one time step regardless of weight).
    pub fn latency(&self) -> usize {
        self.num_pulses()
    }
}

/// The [`PulseTrain::new`] invariants: a non-empty train of same-shaped
/// pulses, one weight each.
fn check_dense(pulses: &[Tensor], num_weights: usize) -> Result<()> {
    let Some(first) = pulses.first() else {
        return Err(TensorError::InvalidArgument(
            "pulse train cannot be empty".into(),
        ));
    };
    if pulses.len() != num_weights {
        return Err(TensorError::InvalidArgument(format!(
            "{} pulses but {num_weights} weights",
            pulses.len()
        )));
    }
    if let Some(bad) = pulses.iter().find(|p| p.shape() != first.shape()) {
        return Err(TensorError::ShapeMismatch {
            op: "pulse train",
            lhs: first.shape().to_vec(),
            rhs: bad.shape().to_vec(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    #[test]
    fn validates_construction() {
        assert!(PulseTrain::new(vec![], vec![]).is_err());
        assert!(PulseTrain::new(vec![t(&[1.0])], vec![1.0, 2.0]).is_err());
        assert!(PulseTrain::new(vec![t(&[1.0]), t(&[1.0, 1.0])], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn decode_weighted_average() {
        let train = PulseTrain::new(
            vec![t(&[1.0, -1.0]), t(&[1.0, 1.0]), t(&[-1.0, 1.0])],
            vec![1.0, 2.0, 4.0],
        )
        .unwrap();
        let d = train.decode().unwrap();
        // (1+2−4)/7, (−1+2+4)/7
        assert!(d.allclose(&t(&[-1.0 / 7.0, 5.0 / 7.0]), 1e-6));
        assert_eq!(train.latency(), 3);
        assert_eq!(train.weight_norm(), 7.0);
    }

    #[test]
    fn nested_unary_tags_and_validates() {
        // monotone +1→−1 per element: valid
        let train = PulseTrain::nested_unary(vec![
            t(&[1.0, 1.0]),
            t(&[1.0, -1.0]),
            t(&[-1.0, -1.0]),
        ])
        .unwrap();
        assert_eq!(train.kind(), TrainKind::NestedUnary);
        assert_eq!(train.weights(), &[1.0, 1.0, 1.0]);
        // the plain constructor never claims structure
        let generic = PulseTrain::new(vec![t(&[1.0]), t(&[-1.0])], vec![1.0, 1.0]).unwrap();
        assert_eq!(generic.kind(), TrainKind::Generic);
        // rising sequence rejected
        assert!(PulseTrain::nested_unary(vec![t(&[-1.0]), t(&[1.0])]).is_err());
        // non-binary entry rejected
        assert!(PulseTrain::nested_unary(vec![t(&[0.5])]).is_err());
        // empty rejected (inherits the base validation)
        assert!(PulseTrain::nested_unary(vec![]).is_err());
    }

    #[test]
    fn iter_pairs_weights_with_pulses() {
        let train = PulseTrain::new(vec![t(&[1.0]), t(&[-1.0])], vec![0.5, 1.5]).unwrap();
        let collected: Vec<f32> = train.iter().map(|(w, p)| w * p.at(0)).collect();
        assert_eq!(collected, vec![0.5, -1.5]);
    }
}
