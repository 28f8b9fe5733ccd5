//! Lloyd's k-means with k-means++ initialization, multiple restarts and the
//! elbow heuristic for choosing `k` — the paper's template learner (§III-B1,
//! Algorithm 1) and its `k` tuning method (§III-B1, "elbow method").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{dim_mismatch, MlError, MlResult};
use crate::linalg::{sq_dist, Matrix};
use crate::traits::Footprint;

/// Hyper-parameters for [`KMeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters (query templates).
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iter: usize,
    /// Convergence threshold on centroid movement (squared L2).
    pub tol: f64,
    /// Number of k-means++ restarts; the run with the lowest inertia wins.
    pub n_init: usize,
    /// RNG seed for reproducible clustering.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 8, max_iter: 100, tol: 1e-6, n_init: 4, seed: 42 }
    }
}

/// Trained k-means model: centroids plus the inertia of the winning restart.
#[derive(Debug, Clone)]
pub struct KMeans {
    config: KMeansConfig,
    centroids: Option<Matrix>,
    inertia: f64,
    iterations_run: usize,
}

impl KMeans {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config, centroids: None, inertia: f64::INFINITY, iterations_run: 0 }
    }

    /// Convenience constructor with default settings for `k` clusters.
    pub fn with_k(k: usize) -> Self {
        KMeans::new(KMeansConfig { k, ..KMeansConfig::default() })
    }

    /// Fits the model and returns the cluster assignment of each input row.
    ///
    /// # Errors
    /// - [`MlError::InvalidHyperparameter`] when `k == 0` or `k > x.rows()`.
    /// - [`MlError::EmptyInput`] when `x` has no rows/columns.
    pub fn fit(&mut self, x: &Matrix) -> MlResult<Vec<usize>> {
        let n = x.rows();
        let d = x.cols();
        if n == 0 || d == 0 {
            return Err(MlError::EmptyInput("KMeans::fit"));
        }
        let k = self.config.k;
        if k == 0 || k > n {
            return Err(MlError::InvalidHyperparameter(format!(
                "k = {k} must be in 1..={n} (number of samples)"
            )));
        }
        let mut best: Option<(f64, Matrix, Vec<usize>, usize)> = None;
        for restart in 0..self.config.n_init.max(1) {
            let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(restart as u64));
            let (inertia, centroids, labels, iters) = self.run_once(x, &mut rng)?;
            if best.as_ref().is_none_or(|(bi, ..)| inertia < *bi) {
                best = Some((inertia, centroids, labels, iters));
            }
        }
        let (inertia, centroids, labels, iters) = best.expect("n_init >= 1 restart ran");
        self.inertia = inertia;
        self.centroids = Some(centroids);
        self.iterations_run = iters;
        Ok(labels)
    }

    fn run_once(&self, x: &Matrix, rng: &mut StdRng) -> MlResult<(f64, Matrix, Vec<usize>, usize)> {
        let n = x.rows();
        let d = x.cols();
        let k = self.config.k;
        let mut centroids = kmeans_pp_init(x, k, rng);
        let mut labels = vec![0usize; n];
        let mut iters = 0;
        for iter in 0..self.config.max_iter {
            iters = iter + 1;
            // Assignment step.
            for (i, row) in x.row_iter().enumerate() {
                labels[i] = nearest(&centroids, row).0;
            }
            // Update step.
            let mut sums = Matrix::zeros(k, d);
            let mut counts = vec![0usize; k];
            for (row, &l) in x.row_iter().zip(&labels) {
                counts[l] += 1;
                for (s, v) in sums.row_mut(l).iter_mut().zip(row) {
                    *s += v;
                }
            }
            let mut movement = 0.0;
            #[allow(clippy::needless_range_loop)] // c indexes both `counts` and matrix rows
            for c in 0..k {
                if counts[c] == 0 {
                    // Empty cluster: reseed on the point farthest from its centroid.
                    let far = x
                        .row_iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            let da = nearest(&centroids, a).1;
                            let db = nearest(&centroids, b).1;
                            da.partial_cmp(&db).expect("finite distances")
                        })
                        .map(|(i, _)| i)
                        .unwrap_or_else(|| rng.gen_range(0..n));
                    let point = x.row(far).to_vec();
                    movement += sq_dist(centroids.row(c), &point);
                    centroids.row_mut(c).copy_from_slice(&point);
                } else {
                    let inv = 1.0 / counts[c] as f64;
                    let mut new_c = sums.row(c).to_vec();
                    for v in &mut new_c {
                        *v *= inv;
                    }
                    movement += sq_dist(centroids.row(c), &new_c);
                    centroids.row_mut(c).copy_from_slice(&new_c);
                }
            }
            if movement < self.config.tol {
                break;
            }
        }
        // Final assignment + inertia against the final centroids.
        let mut inertia = 0.0;
        for (i, row) in x.row_iter().enumerate() {
            let (l, dist) = nearest(&centroids, row);
            labels[i] = l;
            inertia += dist;
        }
        Ok((inertia, centroids, labels, iters))
    }

    /// Assigns each row of `x` to its nearest learned centroid.
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] before `fit` or a dimension error.
    pub fn predict(&self, x: &Matrix) -> MlResult<Vec<usize>> {
        x.row_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Assigns a single point to its nearest centroid.
    ///
    /// # Errors
    /// Returns [`MlError::NotFitted`] before `fit` or a dimension error.
    pub fn predict_row(&self, row: &[f64]) -> MlResult<usize> {
        let c = self.centroids.as_ref().ok_or(MlError::NotFitted("KMeans"))?;
        if row.len() != c.cols() {
            return Err(dim_mismatch(
                format!("row.len() == {}", c.cols()),
                format!("row.len() == {}", row.len()),
            ));
        }
        Ok(nearest(c, row).0)
    }

    /// Learned centroids (`None` before fit).
    pub fn centroids(&self) -> Option<&Matrix> {
        self.centroids.as_ref()
    }

    /// Sum of squared distances of samples to their nearest centroid for the
    /// winning restart.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of Lloyd iterations the winning restart used.
    pub fn iterations_run(&self) -> usize {
        self.iterations_run
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Serializes the configuration and (if fitted) the centroids.
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure.
    pub fn write_params(&self, w: &mut dyn std::io::Write) -> MlResult<()> {
        use crate::codec as c;
        c::write_usize(w, self.config.k)?;
        c::write_usize(w, self.config.max_iter)?;
        c::write_f64(w, self.config.tol)?;
        c::write_usize(w, self.config.n_init)?;
        c::write_u64(w, self.config.seed)?;
        c::write_f64(w, self.inertia)?;
        c::write_usize(w, self.iterations_run)?;
        c::write_bool(w, self.centroids.is_some())?;
        if let Some(cm) = &self.centroids {
            c::write_matrix(w, cm)?;
        }
        Ok(())
    }

    /// Deserializes a model written by [`KMeans::write_params`].
    ///
    /// # Errors
    /// Returns [`MlError::Codec`] on I/O failure or truncation.
    pub fn read_params(r: &mut dyn std::io::Read) -> MlResult<KMeans> {
        use crate::codec as c;
        let config = KMeansConfig {
            k: c::read_usize(r)?,
            max_iter: c::read_usize(r)?,
            tol: c::read_f64(r)?,
            n_init: c::read_usize(r)?,
            seed: c::read_u64(r)?,
        };
        let inertia = c::read_f64(r)?;
        let iterations_run = c::read_usize(r)?;
        let centroids = if c::read_bool(r)? { Some(c::read_matrix(r)?) } else { None };
        Ok(KMeans { config, centroids, inertia, iterations_run })
    }
}

impl Footprint for KMeans {
    fn num_parameters(&self) -> usize {
        self.centroids.as_ref().map_or(0, |c| c.rows() * c.cols())
    }
}

/// The nearest centroid to `row` and its squared distance: the lowest
/// index among the closest, as a full scan with [`sq_dist`] finds them.
///
/// A centroid's sum stops as soon as it is no longer below the best so far.
/// Each sum adds the same terms in the same order as [`sq_dist`], and adding
/// a non-negative term never lowers a float sum, so a centroid cut short
/// could not have won, and the winner's distance is bit for bit the full
/// sum. A NaN term stops its sum too, as a NaN distance never wins.
fn nearest(centroids: &Matrix, row: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    'centroids: for (c, cr) in centroids.row_iter().enumerate() {
        let mut d = 0.0;
        for (x, y) in cr.iter().zip(row) {
            d += (x - y) * (x - y);
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // a NaN sum must stop too
            if !(d < best.1) {
                continue 'centroids;
            }
        }
        // Rows are at least one wide, so the last term passed the test.
        best = (c, d);
    }
    best
}

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// proportionally to squared distance from the nearest chosen centroid.
fn kmeans_pp_init(x: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = x.rows();
    let d = x.cols();
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(x.row(first));
    let mut dist: Vec<f64> = x.row_iter().map(|r| sq_dist(r, centroids.row(0))).collect();
    for c in 1..k {
        let total: f64 = dist.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &w) in dist.iter().enumerate() {
                if target < w {
                    idx = i;
                    break;
                }
                target -= w;
            }
            idx
        };
        centroids.row_mut(c).copy_from_slice(x.row(chosen));
        for (di, row) in dist.iter_mut().zip(x.row_iter()) {
            let nd = sq_dist(row, centroids.row(c));
            if nd < *di {
                *di = nd;
            }
        }
    }
    centroids
}

/// Runs k-means for each `k` in `ks` and returns `(k, inertia)` pairs — the
/// elbow curve of §III-B1.
///
/// # Errors
/// Propagates fit errors (e.g. a `k` larger than the sample count).
pub fn elbow_curve(x: &Matrix, ks: &[usize], seed: u64) -> MlResult<Vec<(usize, f64)>> {
    let mut out = Vec::with_capacity(ks.len());
    for &k in ks {
        let mut km = KMeans::new(KMeansConfig { k, seed, n_init: 2, ..KMeansConfig::default() });
        km.fit(x)?;
        out.push((k, km.inertia()));
    }
    Ok(out)
}

/// Picks the elbow of an inertia curve by the maximum-distance-to-chord
/// ("kneedle"-style) rule: the point farthest from the straight line joining
/// the first and last curve points.
///
/// # Errors
/// Returns [`MlError::EmptyInput`] when the curve is empty.
pub fn pick_elbow(curve: &[(usize, f64)]) -> MlResult<usize> {
    if curve.is_empty() {
        return Err(MlError::EmptyInput("pick_elbow"));
    }
    if curve.len() < 3 {
        return Ok(curve[0].0);
    }
    let (x0, y0) = (curve[0].0 as f64, curve[0].1);
    let (x1, y1) = (curve[curve.len() - 1].0 as f64, curve[curve.len() - 1].1);
    let dx = x1 - x0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    if norm == 0.0 {
        return Ok(curve[0].0);
    }
    let mut best = (curve[0].0, f64::NEG_INFINITY);
    for &(k, inertia) in curve {
        let d = ((k as f64 - x0) * dy - (inertia - y0) * dx).abs() / norm;
        if d > best.1 {
            best = (k, d);
        }
    }
    Ok(best.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scan `nearest` must match: every centroid's full [`sq_dist`].
    fn full_scan(centroids: &Matrix, row: &[f64]) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for (c, cr) in centroids.row_iter().enumerate() {
            let d = sq_dist(cr, row);
            if d < best.1 {
                best = (c, d);
            }
        }
        best
    }

    /// A coordinate: mostly small integers (so distances tie), else a
    /// fraction, a value whose square overflows, an infinity or NaN.
    fn coordinate(code: u8) -> f64 {
        match code {
            0..=6 => f64::from(code) - 3.0,
            7 => 0.1,
            8 => 1e300,
            9 => f64::INFINITY,
            _ => f64::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn nearest_matches_the_full_scan_in_index_and_bits(
            (palette, picks, row, d) in (1usize..5, 1usize..7, 1usize..12).prop_flat_map(
                |(p, d, k)| (
                    prop::collection::vec(0u8..11, p * d),
                    prop::collection::vec(0usize..p, k),
                    prop::collection::vec(0u8..11, d),
                    Just(d),
                ),
            )
        ) {
            // Centroids drawn from a small palette of rows: duplicates are
            // common, and the lowest index of equals must win.
            let rows: Vec<Vec<f64>> = picks
                .iter()
                .map(|&i| palette[i * d..(i + 1) * d].iter().map(|&c| coordinate(c)).collect())
                .collect();
            let centroids = Matrix::from_rows(&rows).unwrap();
            let row: Vec<f64> = row.into_iter().map(coordinate).collect();
            let (got, want) = (nearest(&centroids, &row), full_scan(&centroids, &row));
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }

    #[test]
    fn nearest_picks_the_lowest_index_among_duplicates() {
        let c = Matrix::from_rows(&[vec![5.0, 5.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert_eq!(nearest(&c, &[1.0, 1.5]), (1, 0.25));
        assert_eq!(nearest(&c, &[1.0, 1.5]), full_scan(&c, &[1.0, 1.5]));
    }

    /// Three well-separated 2-d blobs.
    fn blobs() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut truth = Vec::new();
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut rng = StdRng::seed_from_u64(7);
        for (ci, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                rows.push(vec![cx + rng.gen::<f64>(), cy + rng.gen::<f64>()]);
                truth.push(ci);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), truth)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (x, truth) = blobs();
        let mut km = KMeans::with_k(3);
        let labels = km.fit(&x).unwrap();
        // Every ground-truth blob must map to exactly one k-means label.
        for blob in 0..3 {
            let blob_labels: Vec<usize> =
                labels.iter().zip(&truth).filter(|(_, t)| **t == blob).map(|(l, _)| *l).collect();
            assert!(blob_labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split");
        }
        assert!(km.inertia() < 100.0);
    }

    #[test]
    fn fit_is_deterministic_for_fixed_seed() {
        let (x, _) = blobs();
        let mut a = KMeans::with_k(3);
        let mut b = KMeans::with_k(3);
        assert_eq!(a.fit(&x).unwrap(), b.fit(&x).unwrap());
        assert_eq!(a.inertia(), b.inertia());
    }

    #[test]
    fn predict_matches_fit_labels() {
        let (x, _) = blobs();
        let mut km = KMeans::with_k(3);
        let labels = km.fit(&x).unwrap();
        assert_eq!(km.predict(&x).unwrap(), labels);
    }

    #[test]
    fn handles_k_equals_n() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let mut km = KMeans::with_k(3);
        let labels = km.fit(&x).unwrap();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "each point gets its own cluster");
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(KMeans::with_k(0).fit(&x).is_err());
        assert!(KMeans::with_k(5).fit(&x).is_err());
        assert!(KMeans::with_k(1).fit(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn predict_before_fit_errors() {
        let km = KMeans::with_k(2);
        assert!(matches!(km.predict_row(&[0.0]), Err(MlError::NotFitted(_))));
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let (x, _) = blobs();
        let mut km = KMeans::with_k(3);
        km.fit(&x).unwrap();
        assert!(km.predict_row(&[0.0]).is_err());
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (x, _) = blobs();
        let curve = elbow_curve(&x, &[1, 2, 3, 5], 42).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "inertia must be non-increasing in k");
        }
    }

    #[test]
    fn elbow_picks_true_cluster_count() {
        let (x, _) = blobs();
        let curve = elbow_curve(&x, &[1, 2, 3, 4, 5, 6], 42).unwrap();
        let k = pick_elbow(&curve).unwrap();
        assert_eq!(k, 3);
    }

    #[test]
    fn pick_elbow_edge_cases() {
        assert!(pick_elbow(&[]).is_err());
        assert_eq!(pick_elbow(&[(4, 1.0)]).unwrap(), 4);
        assert_eq!(pick_elbow(&[(1, 5.0), (2, 4.0)]).unwrap(), 1);
    }

    #[test]
    fn footprint_counts_centroid_coordinates() {
        let (x, _) = blobs();
        let mut km = KMeans::with_k(3);
        assert_eq!(km.num_parameters(), 0);
        km.fit(&x).unwrap();
        assert_eq!(km.num_parameters(), 3 * 2);
    }
}
