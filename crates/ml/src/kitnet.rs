//! KitNET: Kitsune's ensemble-of-autoencoders anomaly detector.
//!
//! Features are clustered into small groups (max size `m`) by correlation
//! during a feature-mapping phase; each cluster gets its own autoencoder,
//! and an output autoencoder scores the vector of per-cluster RMSEs. The
//! final anomaly score is the output layer's RMSE.

use std::cell::RefCell;

use crate::autoencoder::Autoencoder;
use crate::norm::MinMaxNorm;

thread_local! {
    /// The scoring thread's scratch: the normalised RMSE vector, one
    /// cluster's inputs and one autoencoder's layers. Not part of the model
    /// (which serving threads share read-only); overwritten by every score.
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Training phases of the online detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Collecting correlation statistics to build the feature map.
    FeatureMapping,
    /// Training the autoencoders on (assumed benign) traffic.
    Training,
    /// Scoring.
    Executing,
}

/// The KitNET detector.
#[derive(Clone, Debug)]
pub struct KitNet {
    m: usize,
    fm_grace: usize,
    train_grace: usize,
    seen: usize,
    phase: Phase,
    /// Correlation accumulators (feature-mapping phase).
    sums: Vec<f64>,
    sqs: Vec<f64>,
    prods: Vec<Vec<f64>>,
    /// Feature clusters (after mapping).
    clusters: Vec<Vec<usize>>,
    ensemble: Vec<Autoencoder>,
    output: Option<Autoencoder>,
    norm: MinMaxNorm,
    out_norm: MinMaxNorm,
    /// Per cluster, its normalised RMSE when that is a constant of the
    /// trained model (every input a flat dimension, so the autoencoder sees
    /// 0.5 throughout whatever the vector). One entry per cluster, `None`
    /// until training ends.
    constants: Vec<Option<f64>>,
    seed: u64,
    dim: usize,
}

impl KitNet {
    /// Creates a detector for `dim`-dimensional features.
    ///
    /// `m` is the maximum cluster size (Kitsune's default is 10);
    /// `fm_grace`/`train_grace` are the instance counts of the
    /// feature-mapping and training phases.
    pub fn new(
        dim: usize,
        m: usize,
        fm_grace: usize,
        train_grace: usize,
        seed: u64,
    ) -> Option<Self> {
        if dim == 0 || m == 0 || fm_grace == 0 || train_grace == 0 {
            return None;
        }
        Some(KitNet {
            m,
            fm_grace,
            train_grace,
            seen: 0,
            phase: Phase::FeatureMapping,
            sums: vec![0.0; dim],
            sqs: vec![0.0; dim],
            prods: vec![vec![0.0; dim]; dim],
            clusters: Vec::new(),
            ensemble: Vec::new(),
            output: None,
            norm: MinMaxNorm::new(),
            out_norm: MinMaxNorm::new(),
            constants: Vec::new(),
            seed,
            dim,
        })
    }

    /// Whether the detector has finished training and is scoring.
    pub fn is_executing(&self) -> bool {
        self.phase == Phase::Executing
    }

    /// Number of ensemble clusters (0 before feature mapping completes).
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Feature-index clusters (structural access for the quantizer).
    pub(crate) fn feature_clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// The per-cluster autoencoders.
    pub(crate) fn ensemble(&self) -> &[Autoencoder] {
        &self.ensemble
    }

    /// The output autoencoder (`None` before feature mapping).
    pub(crate) fn output_layer(&self) -> Option<&Autoencoder> {
        self.output.as_ref()
    }

    /// The input min–max normalizer.
    pub(crate) fn input_norm(&self) -> &MinMaxNorm {
        &self.norm
    }

    /// The RMSE-vector min–max normalizer feeding the output layer.
    pub(crate) fn output_norm(&self) -> &MinMaxNorm {
        &self.out_norm
    }

    /// Input feature dimension.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Processes one feature vector, returning its anomaly score.
    ///
    /// Scores are 0 during the feature-mapping and training phases (the
    /// instance is consumed for statistics/updates), mirroring Kitsune's
    /// grace-period behaviour. Vectors of the wrong dimension return
    /// `f64::INFINITY`.
    pub fn process(&mut self, x: &[f64]) -> f64 {
        if x.len() != self.dim {
            return f64::INFINITY;
        }
        self.seen += 1;
        match self.phase {
            Phase::FeatureMapping => {
                for i in 0..self.dim {
                    self.sums[i] += x[i];
                    self.sqs[i] += x[i] * x[i];
                    for j in (i + 1)..self.dim {
                        self.prods[i][j] += x[i] * x[j];
                    }
                }
                self.norm.observe(x);
                if self.seen >= self.fm_grace {
                    self.build_map();
                    self.phase = Phase::Training;
                }
                0.0
            }
            Phase::Training => {
                let xn = self.norm.observe_transform(x);
                let rmses = self.train_ensemble(&xn);
                let rn = self.out_norm.observe_transform(&rmses);
                if let Some(out) = &mut self.output {
                    out.train_step(&rn);
                }
                if self.seen >= self.fm_grace + self.train_grace {
                    self.phase = Phase::Executing;
                    self.fold_constants();
                }
                0.0
            }
            Phase::Executing => self.score(x),
        }
    }

    /// Scores without updating any state (pure execution), and without
    /// allocating once the thread's scratch has its size.
    pub fn score(&self, x: &[f64]) -> f64 {
        let Some(output) = &self.output else {
            return f64::INFINITY;
        };
        if x.len() != self.dim {
            return f64::INFINITY;
        }
        let n = self.clusters.len();
        // An autoencoder's layers take at most twice its inputs.
        let layers = 2 * self.m.max(n);
        SCRATCH.with_borrow_mut(|scratch| {
            if scratch.len() < n + self.m + layers {
                scratch.resize(n + self.m + layers, 0.0);
            }
            let (rn, rest) = scratch.split_at_mut(n);
            let (sub, layers) = rest.split_at_mut(self.m);
            for (k, (c, ae)) in self.clusters.iter().zip(&self.ensemble).enumerate() {
                rn[k] = match self.constants[k] {
                    Some(constant) => constant,
                    None => {
                        let sub = &mut sub[..c.len()];
                        for (s, &i) in sub.iter_mut().zip(c) {
                            *s = self.norm.scale(i, x[i]);
                        }
                        self.out_norm.scale(k, ae.rmse_in(sub, layers))
                    }
                };
            }
            output.rmse_in(rn, layers)
        })
    }

    /// Records the clusters whose score contribution no vector can move:
    /// the same operations [`KitNet::score`] would run, once.
    fn fold_constants(&mut self) {
        let mut layers = vec![0.0; 2 * self.m];
        self.constants = (self.clusters.iter().zip(&self.ensemble).enumerate())
            .map(|(k, (c, ae))| {
                c.iter().all(|&i| self.norm.is_flat(i)).then(|| {
                    // What a flat dimension scales to, whatever its value.
                    let sub = vec![0.5; c.len()];
                    self.out_norm.scale(k, ae.rmse_in(&sub, &mut layers))
                })
            })
            .collect();
    }

    fn train_ensemble(&mut self, xn: &[f64]) -> Vec<f64> {
        self.clusters
            .iter()
            .zip(self.ensemble.iter_mut())
            .map(|(c, ae)| {
                let sub: Vec<f64> = c.iter().map(|&i| xn[i]).collect();
                ae.train_step(&sub)
            })
            .collect()
    }

    /// Agglomerative correlation clustering capped at `m` features per
    /// cluster (Kitsune's feature mapper, simplified to a greedy pass).
    fn build_map(&mut self) {
        let n = self.seen as f64;
        let dim = self.dim;
        // Correlation distance between feature pairs.
        let corr = |i: usize, j: usize, s: &Self| -> f64 {
            let (a, b) = if i < j { (i, j) } else { (j, i) };
            let cov = s.prods[a][b] / n - (s.sums[a] / n) * (s.sums[b] / n);
            let va = (s.sqs[a] / n - (s.sums[a] / n).powi(2)).max(1e-12);
            let vb = (s.sqs[b] / n - (s.sums[b] / n).powi(2)).max(1e-12);
            (cov / (va * vb).sqrt()).clamp(-1.0, 1.0)
        };
        // Greedy: seed a cluster with the first unassigned feature, then add
        // the most-correlated remaining features up to m.
        let mut assigned = vec![false; dim];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for i in 0..dim {
            if assigned[i] {
                continue;
            }
            assigned[i] = true;
            let mut cluster = vec![i];
            while cluster.len() < self.m {
                let mut best: Option<(usize, f64)> = None;
                for (j, &taken) in assigned.iter().enumerate() {
                    if taken {
                        continue;
                    }
                    // Mean |corr| to the cluster.
                    let score: f64 = cluster.iter().map(|&c| corr(c, j, self).abs()).sum::<f64>()
                        / cluster.len() as f64;
                    if best.map(|(_, s)| score > s).unwrap_or(true) {
                        best = Some((j, score));
                    }
                }
                match best {
                    Some((j, s)) if s > 0.3 => {
                        assigned[j] = true;
                        cluster.push(j);
                    }
                    _ => break,
                }
            }
            clusters.push(cluster);
        }
        self.ensemble = clusters
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let h = (c.len() * 3 / 4).max(1);
                Autoencoder::new(c.len(), h, 0.3, self.seed ^ (k as u64 + 1))
                    .expect("non-empty cluster")
            })
            .collect();
        let h_out = (clusters.len() * 3 / 4).max(1);
        self.output = Some(
            Autoencoder::new(clusters.len(), h_out, 0.3, self.seed ^ 0xDEAD)
                .expect("at least one cluster"),
        );
        self.constants = vec![None; clusters.len()];
        self.clusters = clusters;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn normal_sample(rng: &mut StdRng) -> Vec<f64> {
        // Two correlated pairs + noise.
        let a = rng.random::<f64>();
        let b = rng.random::<f64>();
        vec![
            a,
            a + rng.random::<f64>() * 0.05,
            b,
            b + rng.random::<f64>() * 0.05,
            0.2,
        ]
    }

    #[test]
    fn rejects_bad_config() {
        assert!(KitNet::new(0, 10, 100, 100, 1).is_none());
        assert!(KitNet::new(5, 0, 100, 100, 1).is_none());
    }

    #[test]
    fn phases_progress() {
        let mut k = KitNet::new(5, 3, 50, 50, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..99 {
            k.process(&normal_sample(&mut rng));
        }
        assert!(!k.is_executing());
        k.process(&normal_sample(&mut rng));
        assert!(k.is_executing());
        assert!(k.clusters() >= 1);
    }

    #[test]
    fn correlated_features_cluster_together() {
        let mut k = KitNet::new(5, 3, 200, 10, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..210 {
            k.process(&normal_sample(&mut rng));
        }
        // Features 0,1 correlated; 2,3 correlated. They should share
        // clusters.
        let find = |i: usize| k.clusters.iter().position(|c| c.contains(&i)).unwrap();
        assert_eq!(find(0), find(1));
        assert_eq!(find(2), find(3));
    }

    #[test]
    fn anomalies_score_above_normal() {
        let mut k = KitNet::new(5, 3, 300, 1500, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1800 {
            k.process(&normal_sample(&mut rng));
        }
        assert!(k.is_executing());
        let normal_scores: Vec<f64> = (0..100)
            .map(|_| k.score(&normal_sample(&mut rng)))
            .collect();
        // Anomaly: break the correlation structure hard.
        let anomaly = vec![1.0, 0.0, 0.0, 1.0, 1.0];
        let a = k.score(&anomaly);
        let mean_n = normal_scores.iter().sum::<f64>() / normal_scores.len() as f64;
        assert!(a > mean_n * 2.0, "anomaly {a} vs normal mean {mean_n}");
    }

    /// `KitNet::score` as it was before it folded constants and reused
    /// scratch: the oracle for the test below.
    fn score_unfolded(k: &KitNet, x: &[f64]) -> f64 {
        let xn = k.norm.transform(x);
        let rmses: Vec<f64> = k
            .clusters
            .iter()
            .zip(&k.ensemble)
            .map(|(c, ae)| {
                let sub: Vec<f64> = c.iter().map(|&i| xn[i]).collect();
                ae.rmse(&sub)
            })
            .collect();
        let rn = k.out_norm.transform(&rmses);
        k.output.as_ref().unwrap().rmse(&rn)
    }

    #[test]
    fn folded_score_is_bit_identical_to_the_unfolded_one() {
        let mut rng = StdRng::seed_from_u64(8);
        // Two constant columns among the five of `normal_sample`.
        let sample = |rng: &mut StdRng| {
            let mut x = normal_sample(rng);
            x.extend([3.5, rng.random::<f64>(), -2.0]);
            x
        };
        let mut k = KitNet::new(8, 3, 100, 300, 7).unwrap();
        for _ in 0..400 {
            k.process(&sample(&mut rng));
        }
        assert!(k.is_executing());
        let folded = k.constants.iter().flatten().count();
        assert!(folded >= 1 && folded < k.clusters(), "{:?}", k.constants);
        for i in 0..200 {
            let mut x = sample(&mut rng);
            if i % 4 == 0 {
                x[5] = i as f64 * 1e3; // a constant column that moved
                x[i % 5] = [f64::NAN, f64::INFINITY, -1e12][i % 3];
            }
            assert_eq!(k.score(&x).to_bits(), score_unfolded(&k, &x).to_bits());
        }
    }

    #[test]
    fn wrong_dim_scores_infinite() {
        let mut k = KitNet::new(5, 3, 10, 10, 1).unwrap();
        assert_eq!(k.process(&[0.0; 3]), f64::INFINITY);
        assert_eq!(k.score(&[0.0; 5]), f64::INFINITY, "not yet trained");
    }
}
