//! A small fully-connected autoencoder trained with SGD.
//!
//! This is the building block of Kitsune's KitNET detector: a single hidden
//! layer with sigmoid activations, trained to reconstruct its (normalized)
//! input; the anomaly score is the reconstruction RMSE.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// A `d → h → d` autoencoder.
#[derive(Clone, Debug)]
pub struct Autoencoder {
    d: usize,
    h: usize,
    /// Encoder weights, `h × d`, row-major.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Decoder weights, `d × h`, row-major.
    w2: Vec<f64>,
    b2: Vec<f64>,
    lr: f64,
}

impl Autoencoder {
    /// Creates an autoencoder with `d` inputs and `h` hidden units.
    ///
    /// Returns `None` when either dimension is zero.
    pub fn new(d: usize, h: usize, lr: f64, seed: u64) -> Option<Self> {
        if d == 0 || h == 0 || lr <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = 1.0 / (d as f64).sqrt();
        let mut init = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
                .collect()
        };
        Some(Autoencoder {
            d,
            h,
            w1: init(h * d),
            b1: vec![0.0; h],
            w2: init(d * h),
            b2: vec![0.0; d],
            lr,
        })
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.d
    }

    /// Hidden dimension.
    pub(crate) fn hidden_dim(&self) -> usize {
        self.h
    }

    /// The trained weights `(w1, b1, w2, b2)` — encoder `h × d` row-major,
    /// decoder `d × h` row-major.
    pub(crate) fn weights(&self) -> (&[f64], &[f64], &[f64], &[f64]) {
        (&self.w1, &self.b1, &self.w2, &self.b2)
    }

    /// `out[i] = σ(b[i] + w[i, ·] · x)` over the row-major `w`.
    fn layer(w: &[f64], b: &[f64], x: &[f64], out: &mut [f64]) {
        for ((o, &b), row) in out.iter_mut().zip(b).zip(w.chunks_exact(x.len())) {
            let mut a = b;
            for (&w, &xj) in row.iter().zip(x) {
                a += w * xj;
            }
            *o = sigmoid(a);
        }
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut hid = vec![0.0; self.h];
        let mut out = vec![0.0; self.d];
        self.reconstruct(x, &mut hid, &mut out);
        (hid, out)
    }

    /// Encodes `x` into `hid` (`h` values) and decodes it into `out` (`d`).
    fn reconstruct(&self, x: &[f64], hid: &mut [f64], out: &mut [f64]) {
        Self::layer(&self.w1, &self.b1, x, hid);
        Self::layer(&self.w2, &self.b2, hid, out);
    }

    /// Reconstruction RMSE of `x` (expects inputs in `[0, 1]`).
    ///
    /// Inputs of the wrong dimension score `f64::INFINITY`.
    pub fn rmse(&self, x: &[f64]) -> f64 {
        let mut scratch = vec![0.0; self.h + self.d];
        self.rmse_in(x, &mut scratch)
    }

    /// [`Autoencoder::rmse`] with the caller's scratch (at least `h + d`
    /// values, overwritten) in place of two allocations.
    pub(crate) fn rmse_in(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        if x.len() != self.d {
            return f64::INFINITY;
        }
        let (hid, out) = scratch[..self.h + self.d].split_at_mut(self.h);
        self.reconstruct(x, hid, out);
        let mut sum = 0.0;
        for (a, b) in x.iter().zip(&*out) {
            sum += (a - b) * (a - b);
        }
        (sum / self.d as f64).sqrt()
    }

    /// One SGD step on reconstructing `x`; returns the pre-update RMSE.
    pub fn train_step(&mut self, x: &[f64]) -> f64 {
        if x.len() != self.d {
            return f64::INFINITY;
        }
        let (hid, out) = self.forward(x);
        // Output layer deltas: (out - x) * out * (1 - out).
        let delta_out: Vec<f64> = out
            .iter()
            .zip(x)
            .map(|(&o, &t)| (o - t) * o * (1.0 - o))
            .collect();
        // Hidden deltas.
        let mut delta_hid = vec![0.0; self.h];
        for j in 0..self.h {
            let mut s = 0.0;
            for (i, &d_o) in delta_out.iter().enumerate() {
                s += d_o * self.w2[i * self.h + j];
            }
            delta_hid[j] = s * hid[j] * (1.0 - hid[j]);
        }
        // Updates.
        for (i, &d_o) in delta_out.iter().enumerate() {
            for (j, &hj) in hid.iter().enumerate() {
                self.w2[i * self.h + j] -= self.lr * d_o * hj;
            }
            self.b2[i] -= self.lr * d_o;
        }
        for (i, &d_h) in delta_hid.iter().enumerate() {
            for (j, &xj) in x.iter().enumerate() {
                self.w1[i * self.d + j] -= self.lr * d_h * xj;
            }
            self.b1[i] -= self.lr * d_h;
        }
        let mse: f64 = x
            .iter()
            .zip(&out)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / self.d as f64;
        mse.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_dimensions() {
        assert!(Autoencoder::new(0, 2, 0.1, 1).is_none());
        assert!(Autoencoder::new(2, 0, 0.1, 1).is_none());
        assert!(Autoencoder::new(2, 2, 0.0, 1).is_none());
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut ae = Autoencoder::new(4, 2, 0.5, 7).unwrap();
        let patterns = [vec![0.9, 0.1, 0.9, 0.1], vec![0.1, 0.9, 0.1, 0.9]];
        let before: f64 = patterns.iter().map(|p| ae.rmse(p)).sum();
        for _ in 0..2000 {
            for p in &patterns {
                ae.train_step(p);
            }
        }
        let after: f64 = patterns.iter().map(|p| ae.rmse(p)).sum();
        assert!(after < before * 0.5, "before {before}, after {after}");
    }

    #[test]
    fn anomalies_score_higher_than_normal() {
        let mut ae = Autoencoder::new(4, 2, 0.5, 3).unwrap();
        let normal = vec![0.8, 0.2, 0.8, 0.2];
        for _ in 0..3000 {
            ae.train_step(&normal);
        }
        let anomaly = vec![0.1, 0.9, 0.2, 0.95];
        assert!(
            ae.rmse(&anomaly) > ae.rmse(&normal) * 2.0,
            "anomaly {} vs normal {}",
            ae.rmse(&anomaly),
            ae.rmse(&normal)
        );
    }

    #[test]
    fn wrong_dimension_is_infinite() {
        let mut ae = Autoencoder::new(3, 2, 0.1, 1).unwrap();
        assert_eq!(ae.rmse(&[0.1, 0.2]), f64::INFINITY);
        assert_eq!(ae.train_step(&[0.1]), f64::INFINITY);
    }

    #[test]
    fn deterministic_init_per_seed() {
        let a = Autoencoder::new(4, 2, 0.1, 9).unwrap();
        let b = Autoencoder::new(4, 2, 0.1, 9).unwrap();
        assert_eq!(a.rmse(&[0.5; 4]), b.rmse(&[0.5; 4]));
    }
}
