//! The common interface of all streaming estimators.

/// A one-pass, bounded-state estimator over a stream of numeric samples.
///
/// Every reducing function of the SuperFE policy language is backed by a
/// `Reducer`. The SmartNIC engine drives reducers with one [`update`] per
/// packet-metadata record and calls [`finalize`] when the owning group's
/// feature vector is collected.
///
/// [`update`]: Reducer::update
/// [`finalize`]: Reducer::finalize
pub trait Reducer {
    /// Feeds one sample into the estimator.
    fn update(&mut self, x: f64);

    /// Produces the estimator's feature values.
    ///
    /// The length must equal [`Reducer::feature_len`] regardless of how many
    /// samples were observed (empty streams yield well-defined defaults,
    /// typically zeros).
    fn finalize(&self) -> Vec<f64>;

    /// Number of features [`Reducer::finalize`] emits.
    fn feature_len(&self) -> usize;

    /// Bytes of state the estimator holds right now.
    ///
    /// Streaming estimators are O(1); the [`crate::naive`] baselines grow
    /// with the stream, which is exactly what Fig. 15 measures.
    fn state_bytes(&self) -> usize;

    /// Resets the estimator to its initial (empty) state.
    fn reset(&mut self);
}

/// Extends a reducer over all samples of an iterator: the feeder of the
/// reducers' unit tests.
#[cfg(test)]
pub(crate) fn update_all<R: Reducer + ?Sized>(r: &mut R, xs: impl IntoIterator<Item = f64>) {
    for x in xs {
        r.update(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::welford::Welford;

    #[test]
    fn update_all_feeds_every_sample() {
        let mut w = Welford::new();
        update_all(&mut w, [1.0, 2.0, 3.0]);
        assert_eq!(w.count(), 3);
    }

    #[test]
    fn trait_object_is_usable() {
        let mut r: Box<dyn Reducer> = Box::new(Welford::new());
        r.update(5.0);
        assert_eq!(r.finalize().len(), r.feature_len());
    }
}
