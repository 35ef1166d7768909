//! CMA-ES: covariance matrix adaptation evolution strategy.
//!
//! The black-box baseline the paper compares against. This is a faithful
//! from-scratch implementation of the standard (μ/μ_w, λ)-CMA-ES with
//! rank-one + rank-μ covariance updates and cumulative step-size adaptation
//! — including its well-known failure mode: per-generation eigendecomposition
//! of the full `N×N` covariance, which is what stops it from scaling to
//! large ONNs.

use rand::Rng;

use photon_linalg::random::standard_normal;
use photon_linalg::{symmetric_eig, LinalgError, RMatrix, RVector};

/// The CMA-ES optimizer state.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_linalg::RVector;
/// use photon_opt::CmaEs;
///
/// // Minimize the sphere function from (3, 3).
/// let mut es = CmaEs::new(&RVector::from_slice(&[3.0, 3.0]), 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// for _ in 0..60 {
///     let xs = es.ask(&mut rng);
///     let losses: Vec<f64> = xs.iter().map(|x| x.norm_sqr()).collect();
///     es.tell(&xs, &losses)?;
/// }
/// assert!(es.best().expect("telled").1 < 1e-3);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CmaEs {
    dim: usize,
    lambda: usize,
    mu: usize,
    weights: Vec<f64>,
    mueff: f64,
    cc: f64,
    cs: f64,
    c1: f64,
    cmu: f64,
    damps: f64,
    chi_n: f64,

    mean: RVector,
    sigma: f64,
    cov: RMatrix,
    pc: RVector,
    ps: RVector,
    eig_vectors: RMatrix,
    eig_sqrt: RVector,
    generations_since_eig: usize,
    eig_gap: usize,
    generation: u64,
    best: Option<(RVector, f64)>,
}

impl CmaEs {
    /// The largest population `λ` an optimizer accepts. It is far above
    /// the default `4 + ⌊3·ln N⌋` (26 at N = 2 080, the K = 32 two-mesh
    /// classifier), and it bounds what a constructor allocates for the
    /// `λ/2` recombination weights and a generation's `λ` candidates.
    pub const MAX_POPULATION: usize = 1 << 16;

    /// Creates an optimizer centered at `initial_mean` with step size
    /// `sigma0` and the default population `λ = 4 + ⌊3·ln N⌋`.
    ///
    /// # Panics
    ///
    /// Panics when the mean is empty or `sigma0 <= 0`.
    pub fn new(initial_mean: &RVector, sigma0: f64) -> Self {
        let n = initial_mean.len();
        let lambda = 4 + (3.0 * (n as f64).ln()).floor() as usize;
        CmaEs::with_population(initial_mean, sigma0, lambda.max(4))
    }

    /// Creates an optimizer with an explicit population size
    /// `2 ≤ λ ≤` [`CmaEs::MAX_POPULATION`].
    ///
    /// # Panics
    ///
    /// Panics when the mean is empty, `sigma0 <= 0`, `lambda < 2` or
    /// `lambda > CmaEs::MAX_POPULATION`.
    pub fn with_population(initial_mean: &RVector, sigma0: f64, lambda: usize) -> Self {
        let n = initial_mean.len();
        assert!(n > 0, "dimension must be positive");
        assert!(sigma0 > 0.0, "initial step size must be positive");
        assert!(lambda >= 2, "population must be at least 2");
        assert!(
            lambda <= Self::MAX_POPULATION,
            "population must be at most CmaEs::MAX_POPULATION"
        );
        let nf = n as f64;
        let mu = lambda / 2;
        // Log-linear recombination weights.
        let raw: Vec<f64> = (0..mu)
            .map(|i| ((lambda as f64 + 1.0) / 2.0).ln() - ((i + 1) as f64).ln())
            .collect();
        let wsum: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / wsum).collect();
        let mueff = 1.0 / weights.iter().map(|w| w * w).sum::<f64>();

        let cc = (4.0 + mueff / nf) / (nf + 4.0 + 2.0 * mueff / nf);
        let cs = (mueff + 2.0) / (nf + mueff + 5.0);
        let c1 = 2.0 / ((nf + 1.3) * (nf + 1.3) + mueff);
        let cmu =
            (1.0 - c1).min(2.0 * (mueff - 2.0 + 1.0 / mueff) / ((nf + 2.0) * (nf + 2.0) + mueff));
        let damps = 1.0 + 2.0 * (0.0f64).max(((mueff - 1.0) / (nf + 1.0)).sqrt() - 1.0) + cs;
        let chi_n = nf.sqrt() * (1.0 - 1.0 / (4.0 * nf) + 1.0 / (21.0 * nf * nf));
        // Lazy eigen-update cadence (standard heuristic).
        let eig_gap = (1.0 / ((c1 + cmu) * nf * 10.0)).ceil().max(1.0) as usize;

        CmaEs {
            dim: n,
            lambda,
            mu,
            weights,
            mueff,
            cc,
            cs,
            c1,
            cmu,
            damps,
            chi_n,
            mean: initial_mean.clone(),
            sigma: sigma0,
            cov: RMatrix::identity(n),
            pc: RVector::zeros(n),
            ps: RVector::zeros(n),
            eig_vectors: RMatrix::identity(n),
            eig_sqrt: RVector::ones(n),
            generations_since_eig: 0,
            eig_gap,
            generation: 0,
            best: None,
        }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Current distribution mean.
    pub fn mean(&self) -> &RVector {
        &self.mean
    }

    /// Current global step size σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Best `(candidate, loss)` seen so far.
    pub fn best(&self) -> Option<(RVector, f64)> {
        self.best.clone()
    }

    /// Generations completed.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Samples one population of λ candidates.
    pub fn ask<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Vec<RVector> {
        (0..self.lambda)
            .map(|_| {
                let z = RVector::from_fn(self.dim, |_| standard_normal(rng));
                // y = B·D·z
                let mut y = RVector::zeros(self.dim);
                for c in 0..self.dim {
                    let zc = self.eig_sqrt[c] * z[c];
                    if zc != 0.0 {
                        for r in 0..self.dim {
                            y[r] += self.eig_vectors[(r, c)] * zc;
                        }
                    }
                }
                let mut x = self.mean.clone();
                x.axpy(self.sigma, &y);
                x
            })
            .collect()
    }

    /// Updates the distribution from evaluated candidates.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures (pathological covariance).
    ///
    /// # Panics
    ///
    /// Panics when `candidates.len() != losses.len()` or the count differs
    /// from λ.
    pub fn tell(&mut self, candidates: &[RVector], losses: &[f64]) -> Result<(), LinalgError> {
        assert_eq!(candidates.len(), losses.len(), "candidate/loss mismatch");
        assert_eq!(candidates.len(), self.lambda, "population size mismatch");

        debug_assert_eq!(self.weights.len(), self.mu, "weights track μ parents");
        let mut order: Vec<usize> = (0..self.lambda).collect();
        // `total_cmp` ranks NaN losses (dropped chip readings on a faulty
        // chip) strictly after +inf — worst of the population — instead of
        // panicking mid-run.
        order.sort_by(|&a, &b| losses[a].total_cmp(&losses[b]));

        if self
            .best
            .as_ref()
            .is_none_or(|(_, b)| losses[order[0]] < *b)
        {
            self.best = Some((candidates[order[0]].clone(), losses[order[0]]));
        }

        let old_mean = self.mean.clone();
        let mut new_mean = RVector::zeros(self.dim);
        for (w, &idx) in self.weights.iter().zip(&order) {
            new_mean.axpy(*w, &candidates[idx]);
        }
        self.mean = new_mean;

        // Mean displacement in "z-space": C^{-1/2}·(m' − m)/σ = B·D⁻¹·Bᵀ·Δ.
        let delta = (&self.mean - &old_mean).scale(1.0 / self.sigma);
        let bt_delta = self.eig_vectors.transpose_mul_vec(&delta)?;
        let mut z_disp = RVector::zeros(self.dim);
        for c in 0..self.dim {
            let scaled = bt_delta[c] / self.eig_sqrt[c].max(1e-30);
            for r in 0..self.dim {
                z_disp[r] += self.eig_vectors[(r, c)] * scaled;
            }
        }

        // Step-size path.
        let cs = self.cs;
        let ps_coef = (cs * (2.0 - cs) * self.mueff).sqrt();
        self.ps = self.ps.scale(1.0 - cs);
        self.ps.axpy(ps_coef, &z_disp);

        let gen_f = (self.generation + 1) as f64;
        let ps_norm = self.ps.norm();
        let hsig_thresh = (1.4 + 2.0 / (self.dim as f64 + 1.0))
            * self.chi_n
            * (1.0 - (1.0 - cs).powf(2.0 * gen_f)).sqrt();
        let hsig = if ps_norm < hsig_thresh { 1.0 } else { 0.0 };

        // Covariance path.
        let cc = self.cc;
        let pc_coef = hsig * (cc * (2.0 - cc) * self.mueff).sqrt();
        self.pc = self.pc.scale(1.0 - cc);
        self.pc.axpy(pc_coef, &delta);

        // Rank-one + rank-μ covariance update.
        let c1 = self.c1;
        let cmu = self.cmu;
        let decay = 1.0 - c1 - cmu;
        let mut new_cov = self.cov.scale(decay);
        let rank1 = RMatrix::outer(&self.pc, &self.pc);
        new_cov.axpy(c1, &rank1);
        if hsig == 0.0 {
            // Compensate the variance loss when pc is stalled.
            new_cov.axpy(c1 * cc * (2.0 - cc), &self.cov);
        }
        for (w, &idx) in self.weights.iter().zip(&order) {
            let y = (&candidates[idx] - &old_mean).scale(1.0 / self.sigma);
            new_cov.axpy(cmu * w, &RMatrix::outer(&y, &y));
        }
        new_cov.symmetrize();
        self.cov = new_cov;

        // Step-size adaptation.
        self.sigma *= ((cs / self.damps) * (ps_norm / self.chi_n - 1.0)).exp();
        self.sigma = self.sigma.clamp(1e-12, 1e12);

        self.generation += 1;
        self.generations_since_eig += 1;
        if self.generations_since_eig >= self.eig_gap {
            self.refresh_eigensystem()?;
            self.generations_since_eig = 0;
        }
        Ok(())
    }

    /// Captures the complete evolving state for serialization.
    ///
    /// Derived constants (recombination weights, cumulation rates, damping,
    /// `χ_N`, eigen-refresh cadence) are *not* captured: they are pure
    /// functions of `(dim, λ)` and are recomputed by [`CmaEs::from_state`],
    /// so the snapshot stays compact and cannot drift out of sync.
    pub fn snapshot(&self) -> CmaEsState {
        CmaEsState {
            lambda: self.lambda,
            mean: self.mean.clone(),
            sigma: self.sigma,
            cov: self.cov.clone(),
            pc: self.pc.clone(),
            ps: self.ps.clone(),
            eig_vectors: self.eig_vectors.clone(),
            eig_sqrt: self.eig_sqrt.clone(),
            generations_since_eig: self.generations_since_eig,
            generation: self.generation,
            best: self.best.clone(),
        }
    }

    /// Reconstructs an optimizer from a snapshot; the result continues the
    /// original trajectory bitwise-identically (given the same RNG stream).
    /// The run journal decodes CMA-ES through it.
    ///
    /// # Errors
    ///
    /// Names the first inconsistency: an empty mean, `lambda` outside
    /// `2..=`[`CmaEs::MAX_POPULATION`], or a vector or matrix whose shape
    /// disagrees with the mean's dimension.
    pub fn from_state(state: CmaEsState) -> Result<Self, &'static str> {
        let n = state.mean.len();
        let square = |m: &RMatrix| m.rows() == n && m.cols() == n;
        let checks = [
            (n > 0, "dimension must be positive"),
            (state.lambda >= 2, "population must be at least 2"),
            (
                state.lambda <= CmaEs::MAX_POPULATION,
                "population must be at most CmaEs::MAX_POPULATION",
            ),
            (
                square(&state.cov),
                "covariance must be square of the mean's dimension",
            ),
            (state.pc.len() == n, "pc length must match dim"),
            (state.ps.len() == n, "ps length must match dim"),
            (
                square(&state.eig_vectors),
                "eigenvectors must be square of the mean's dimension",
            ),
            (state.eig_sqrt.len() == n, "eig_sqrt length must match dim"),
            (
                state.best.as_ref().is_none_or(|(x, _)| x.len() == n),
                "best candidate length must match dim",
            ),
        ];
        if let Some(&(_, message)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(message);
        }
        // Rebuild every derived constant from (dim, λ), then overwrite the
        // evolving fields with the captured values.
        let mut es = CmaEs::with_population(&state.mean, 1.0, state.lambda);
        es.mean = state.mean;
        es.sigma = state.sigma;
        es.cov = state.cov;
        es.pc = state.pc;
        es.ps = state.ps;
        es.eig_vectors = state.eig_vectors;
        es.eig_sqrt = state.eig_sqrt;
        es.generations_since_eig = state.generations_since_eig;
        es.generation = state.generation;
        es.best = state.best;
        Ok(es)
    }

    fn refresh_eigensystem(&mut self) -> Result<(), LinalgError> {
        let eig = symmetric_eig(&self.cov)?;
        self.eig_vectors = eig.vectors;
        self.eig_sqrt = RVector::from_fn(self.dim, |i| eig.values[i].max(1e-20).sqrt());
        Ok(())
    }
}

/// A serializable snapshot of a [`CmaEs`] optimizer's evolving state.
///
/// Produced by [`CmaEs::snapshot`] and consumed by [`CmaEs::from_state`].
/// Only evolving quantities are stored; constants derived from `(dim, λ)`
/// are recomputed on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct CmaEsState {
    /// Population size λ.
    pub lambda: usize,
    /// Distribution mean.
    pub mean: RVector,
    /// Global step size σ.
    pub sigma: f64,
    /// Covariance matrix `C`.
    pub cov: RMatrix,
    /// Covariance evolution path `p_c`.
    pub pc: RVector,
    /// Step-size evolution path `p_σ`.
    pub ps: RVector,
    /// Eigenvector basis `B` of the lazily-refreshed eigensystem.
    pub eig_vectors: RMatrix,
    /// Square roots of the eigenvalues (diagonal `D`).
    pub eig_sqrt: RVector,
    /// Generations since the last eigensystem refresh.
    pub generations_since_eig: usize,
    /// Generations completed.
    pub generation: u64,
    /// Best `(candidate, loss)` seen so far.
    pub best: Option<(RVector, f64)>,
}

/// Replaces non-finite member losses with a penalty strictly worse than the
/// worst finite member, so CMA-ES ranking survives dropped/NaN chip reads.
///
/// Returns the number of members penalized. When *no* member is finite, a
/// large fixed penalty is used for all of them (the generation carries no
/// ranking information, but the update stays finite).
pub fn penalize_non_finite(losses: &mut [f64]) -> u64 {
    let worst_finite = losses
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let penalty = if worst_finite.is_finite() {
        worst_finite.abs() * 10.0 + 1.0
    } else {
        1e30
    };
    let mut hit = 0;
    for v in losses.iter_mut() {
        if !v.is_finite() {
            *v = penalty;
            hit += 1;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn penalize_non_finite_preserves_ranking() {
        let mut losses = [1.0, f64::NAN, -3.0, f64::INFINITY, 7.0];
        let hit = penalize_non_finite(&mut losses);
        assert_eq!(hit, 2);
        assert!(losses.iter().all(|v| v.is_finite()));
        // Penalized entries rank strictly worse than every finite one.
        assert!(losses[1] > 7.0 && losses[3] > 7.0);
        assert_eq!(losses[0], 1.0);
        // All-NaN generations still come back finite.
        let mut all_bad = [f64::NAN, f64::NAN];
        assert_eq!(penalize_non_finite(&mut all_bad), 2);
        assert!(all_bad.iter().all(|v| v.is_finite()));
    }

    /// Runs `generations` ask/tell cycles against `f`, returning the best
    /// `(candidate, loss)`.
    fn run(
        es: &mut CmaEs,
        f: &mut dyn FnMut(&RVector) -> f64,
        generations: usize,
        rng: &mut StdRng,
    ) -> (RVector, f64) {
        for _ in 0..generations {
            let xs = es.ask(rng);
            let losses: Vec<f64> = xs.iter().map(&mut *f).collect();
            es.tell(&xs, &losses).unwrap();
        }
        es.best().expect("at least one generation ran")
    }

    #[test]
    fn sphere_converges() {
        let mut es = CmaEs::new(&RVector::from_slice(&[2.0, -1.5, 3.0]), 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        let (x, loss) = run(&mut es, &mut |t: &RVector| t.norm_sqr(), 120, &mut rng);
        assert!(loss < 1e-6, "loss {loss}");
        assert!(x.norm() < 1e-2);
    }

    #[test]
    fn rosenbrock_2d_converges() {
        let mut rosen = |t: &RVector| {
            let (x, y) = (t[0], t[1]);
            100.0 * (y - x * x).powi(2) + (1.0 - x).powi(2)
        };
        let mut es = CmaEs::with_population(&RVector::from_slice(&[-1.0, 1.0]), 0.5, 12);
        let mut rng = StdRng::seed_from_u64(2);
        let (x, loss) = run(&mut es, &mut rosen, 400, &mut rng);
        assert!(loss < 1e-4, "loss {loss}");
        assert!((x[0] - 1.0).abs() < 0.05 && (x[1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn anisotropic_quadratic_adapts_covariance() {
        // Badly scaled axes: CMA must adapt and still converge.
        let mut f = |t: &RVector| 1000.0 * t[0] * t[0] + t[1] * t[1];
        let mut es = CmaEs::new(&RVector::from_slice(&[1.0, 1.0]), 0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let (_, loss) = run(&mut es, &mut f, 250, &mut rng);
        assert!(loss < 1e-5, "loss {loss}");
    }

    #[test]
    fn best_is_monotone() {
        let mut es = CmaEs::new(&RVector::from_slice(&[5.0; 4]), 1.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            let xs = es.ask(&mut rng);
            let losses: Vec<f64> = xs.iter().map(|x| x.norm_sqr()).collect();
            es.tell(&xs, &losses).unwrap();
            let b = es.best().unwrap().1;
            assert!(b <= last + 1e-12);
            last = b;
        }
    }

    #[test]
    fn default_population_formula() {
        let mut es = CmaEs::new(&RVector::zeros(10), 1.0);
        assert_eq!(
            es.ask(&mut StdRng::seed_from_u64(5)).len(),
            4 + (3.0 * 10f64.ln()).floor() as usize
        );
        assert_eq!(es.dim(), 10);
        assert_eq!(es.generation(), 0);
    }

    #[test]
    fn snapshot_roundtrip_continues_bitwise() {
        let mut es = CmaEs::with_population(&RVector::from_slice(&[2.0, -1.0, 0.5]), 0.7, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..7 {
            let xs = es.ask(&mut rng);
            let losses: Vec<f64> = xs.iter().map(|x| x.norm_sqr()).collect();
            es.tell(&xs, &losses).unwrap();
        }
        let mut restored = CmaEs::from_state(es.snapshot()).unwrap();
        // Two parallel RNG streams seeded identically: both copies must walk
        // the exact same trajectory from here on.
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let xs_a = es.ask(&mut rng_a);
            let xs_b = restored.ask(&mut rng_b);
            let losses_a: Vec<f64> = xs_a.iter().map(|x| x.norm_sqr()).collect();
            let losses_b: Vec<f64> = xs_b.iter().map(|x| x.norm_sqr()).collect();
            es.tell(&xs_a, &losses_a).unwrap();
            restored.tell(&xs_b, &losses_b).unwrap();
        }
        let bits = |v: &RVector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(es.mean()), bits(restored.mean()));
        assert_eq!(es.sigma().to_bits(), restored.sigma().to_bits());
        assert_eq!(es.generation(), restored.generation());
        assert_eq!(es, restored);
    }

    #[test]
    fn from_state_rejects_inconsistent_state() {
        let es = CmaEs::with_population(&RVector::zeros(3), 1.0, 6);
        assert_eq!(CmaEs::from_state(es.snapshot()), Ok(es.clone()));
        let mut state = es.snapshot();
        state.cov = RMatrix::identity(2);
        assert!(CmaEs::from_state(state).unwrap_err().contains("covariance"));
        let mut state = es.snapshot();
        state.lambda = 1;
        assert!(CmaEs::from_state(state).unwrap_err().contains("population"));
        for lambda in [CmaEs::MAX_POPULATION + 1, 1 << 62] {
            let mut state = es.snapshot();
            state.lambda = lambda;
            assert!(CmaEs::from_state(state).unwrap_err().contains("at most"));
        }
        let mut state = es.snapshot();
        state.best = Some((RVector::zeros(2), 0.0));
        assert!(CmaEs::from_state(state).is_err());
    }

    #[test]
    #[should_panic(expected = "population size mismatch")]
    fn tell_rejects_wrong_count() {
        let mut es = CmaEs::with_population(&RVector::zeros(2), 1.0, 6);
        let _ = es.tell(&[RVector::zeros(2)], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "population must be at most")]
    fn oversized_population_rejected() {
        let _ = CmaEs::with_population(&RVector::zeros(2), 1.0, CmaEs::MAX_POPULATION + 1);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn zero_sigma_rejected() {
        let _ = CmaEs::new(&RVector::zeros(2), 0.0);
    }
}
