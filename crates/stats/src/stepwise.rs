//! Forward-selection stepwise regression.
//!
//! Implements the §IV-D procedure of the paper: starting from an
//! intercept-only model, repeatedly add the candidate predictor that
//! maximises R², until adding any candidate would leave a term with a
//! *p*-value above the significance threshold (0.05 by default) or no
//! candidate improves the fit.
//!
//! "Both the total event counts and the rates were made available as
//! candidates to the selection process" — callers provide one
//! [`Candidate`] per variant.
//!
//! # Performance model
//!
//! The paper's error regression scans thousands of candidates (every PMC
//! event and gem5 statistic, as totals and rates). [`forward_select`]
//! therefore evaluates candidates against a shared **Gram matrix**: every
//! candidate column is centred and unit-normalised once (the intercept is
//! projected out analytically), cross-products with the already-selected
//! columns are maintained incrementally, and each candidate is scored by a
//! bordered-Cholesky solve of its (s+1)×(s+1) correlation Gram — O(s³) per
//! candidate instead of a fresh O(n·s²) QR factorisation. The scan is fanned
//! across [`crate::threads::worker_threads`] workers with deterministic
//! reduction order. Each step's *winner* is then refitted through the full
//! QR path ([`Ols::fit`]), so the returned model, R² trajectory and
//! stopping decisions are exactly those of a from-scratch scan that refits
//! every candidate by QR at every step; the unit tests hold the two equal.
//!
//! # Examples
//!
//! ```
//! use gemstone_stats::stepwise::{forward_select, Candidate, StepwiseOptions};
//!
//! // y depends on c0 only; c1 is noise.
//! let y: Vec<f64> = (0..40).map(|i| 2.0 * i as f64 + ((i * 7) % 5) as f64 * 0.01).collect();
//! let cands = vec![
//!     Candidate::new("signal", (0..40).map(|i| i as f64).collect()),
//!     Candidate::new("noise", (0..40).map(|i| ((i * 13) % 11) as f64).collect()),
//! ];
//! let sel = forward_select(&cands, &y, &StepwiseOptions::default()).unwrap();
//! assert_eq!(sel.selected_names(), vec!["signal"]);
//! ```

use crate::dist::student_t_sf2;
use crate::regress::Ols;
use crate::threads::parallel_map;
use crate::{Result, StatsError};

/// A named candidate predictor column.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Predictor name (e.g. `"0x11 rate"` or `"PC_WRITE_SPEC total"`).
    pub name: String,
    /// Observed values, one per observation.
    pub values: Vec<f64>,
}

impl Candidate {
    /// Creates a candidate from a name and its column of values.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Candidate {
            name: name.into(),
            values,
        }
    }
}

/// Options controlling forward selection.
#[derive(Debug, Clone)]
pub struct StepwiseOptions {
    /// Stop when adding any term would push a coefficient's *p*-value above
    /// this threshold (the paper uses 0.05, citing Fisher).
    pub p_threshold: f64,
    /// Minimum R² improvement to accept another term.
    pub min_r2_gain: f64,
    /// Hard cap on the number of selected terms (0 = no cap).
    pub max_terms: usize,
}

impl Default for StepwiseOptions {
    fn default() -> Self {
        StepwiseOptions {
            p_threshold: 0.05,
            min_r2_gain: 1e-4,
            max_terms: 0,
        }
    }
}

/// The result of a forward-selection run.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Indices into the candidate slice, in selection order
    /// ("in order of importance", §IV-D).
    pub selected: Vec<usize>,
    /// Names in selection order.
    names: Vec<String>,
    /// The final fitted model.
    pub model: Ols,
    /// R² trajectory after each accepted term.
    pub r2_path: Vec<f64>,
}

impl Selection {
    /// Selected candidate names in order of importance.
    pub fn selected_names(&self) -> Vec<&str> {
        self.names.iter().map(|s| s.as_str()).collect()
    }
}

/// Input validation for [`forward_select`].
fn validate_inputs(candidates: &[Candidate], y: &[f64]) -> Result<usize> {
    if candidates.is_empty() {
        return Err(StatsError::InvalidArgument(
            "forward_select: no candidates supplied",
        ));
    }
    let n = y.len();
    if n < 4 {
        return Err(StatsError::NotEnoughData {
            needed: 4,
            available: n,
        });
    }
    for c in candidates {
        if c.values.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: "forward_select candidate",
                expected: n,
                actual: c.values.len(),
            });
        }
    }
    Ok(n)
}

/// Refits the current selection plus candidate `ci` through the full QR
/// path.
fn fit_subset(candidates: &[Candidate], y: &[f64], selected: &[usize], ci: usize) -> Result<Ols> {
    let n = y.len();
    let cols: Vec<usize> = selected.iter().copied().chain([ci]).collect();
    let x: Vec<Vec<f64>> = (0..n)
        .map(|row| cols.iter().map(|&c| candidates[c].values[row]).collect())
        .collect();
    let names: Vec<String> = cols.iter().map(|&c| candidates[c].name.clone()).collect();
    Ols::fit(&x, y, &names)
}

/// Per-candidate state shared across every step of the fast scan.
enum CandState {
    /// Centred, unit-normalised column and its correlation with centred y.
    Usable { u: Vec<f64>, ry: f64 },
    /// Zero variance: collinear with the intercept.
    Constant,
    /// Contains NaN/±inf.
    NonFinite,
}

/// Outcome of scoring one candidate against the Gram state.
struct StepEval {
    r2: f64,
    max_p: f64,
}

/// A Cholesky pivot at or below this value (on the unit-diagonal correlation
/// Gram, so pivots live in [0, 1]) marks the candidate as numerically
/// collinear with the selected set.
const GRAM_PIVOT_TOL: f64 = 1e-12;

/// Below this many candidates the scan/update loops run serially — thread
/// fan-out costs more than the work itself.
const PAR_MIN_CANDIDATES: usize = 64;

/// Process-wide count of candidates scored during forward-selection scans
/// (`stepwise.candidate_scans` in the metrics registry).
fn candidate_scans_counter() -> &'static gemstone_obs::Counter {
    static C: std::sync::OnceLock<std::sync::Arc<gemstone_obs::Counter>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| gemstone_obs::Registry::global().counter("stepwise.candidate_scans"))
}

/// `parallel_map` with a small-problem serial shortcut.
fn map_candidates<T: Sync, U: Send>(items: &[T], f: impl Fn(usize, &T) -> U + Sync) -> Vec<U> {
    if items.len() < PAR_MIN_CANDIDATES {
        items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
    } else {
        parallel_map(items, f)
    }
}

/// The returned [`Selection`]: the last accepted model, or the
/// intercept-only model when nothing was selected.
fn finish(
    candidates: &[Candidate],
    y: &[f64],
    selected: Vec<usize>,
    best_model: Option<Ols>,
    r2_path: Vec<f64>,
) -> Result<Selection> {
    let model = match best_model {
        Some(m) => m,
        None => Ols::fit(&vec![vec![]; y.len()], y, &[])?,
    };
    let names = selected
        .iter()
        .map(|&i| candidates[i].name.clone())
        .collect();
    Ok(Selection {
        selected,
        names,
        model,
        r2_path,
    })
}

/// Incrementally-maintained Gram state of the fast scan.
struct GramScan {
    /// Per-candidate standardised columns (index-aligned with `candidates`).
    cand: Vec<CandState>,
    /// Centred sum of squares of y.
    syy: f64,
    /// Lower triangle of the Gram matrix of the selected standardised
    /// columns, in selection order: row p holds entries 0..=p, all that
    /// the Cholesky in `eval` reads.
    sel_gram: Vec<Vec<f64>>,
    /// `uᵀ·yc` of the selected columns, in selection order.
    sel_ry: Vec<f64>,
    /// `crosses[j][p]` = dot of candidate j with the p-th selected column.
    crosses: Vec<Vec<f64>>,
}

impl GramScan {
    fn new(candidates: &[Candidate], y: &[f64]) -> GramScan {
        let n = y.len();
        let ybar = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - ybar).collect();
        let mut syy = 0.0;
        for v in &yc {
            syy += v * v;
        }
        let cand = map_candidates(candidates, |_, c| {
            if c.values.iter().any(|v| !v.is_finite()) {
                return CandState::NonFinite;
            }
            let mean = c.values.iter().sum::<f64>() / n as f64;
            let mut ss = 0.0;
            for v in &c.values {
                let d = v - mean;
                ss += d * d;
            }
            if ss <= 0.0 {
                return CandState::Constant;
            }
            let norm = ss.sqrt();
            let u: Vec<f64> = c.values.iter().map(|v| (v - mean) / norm).collect();
            let mut ry = 0.0;
            for (uv, yv) in u.iter().zip(&yc) {
                ry += uv * yv;
            }
            CandState::Usable { u, ry }
        });
        GramScan {
            crosses: vec![Vec::new(); cand.len()],
            cand,
            syy,
            sel_gram: Vec::new(),
            sel_ry: Vec::new(),
        }
    }

    /// Scores candidate `j` on top of the current selection: R² and the
    /// largest predictor *p*-value of the would-be model, computed from the
    /// Gram state alone (no O(n) work).
    ///
    /// Centring removes the intercept and unit-normalising every column
    /// makes the Gram a correlation matrix, whose conditioning matches the
    /// QR fit closely; predictor *t*/*p*-values are scale-invariant,
    /// so they equal the QR values up to rounding.
    fn eval(&self, j: usize, n: usize) -> Result<StepEval> {
        let (ry_j, cross_j) = match &self.cand[j] {
            CandState::Usable { ry, .. } => (*ry, &self.crosses[j]),
            CandState::Constant => return Err(StatsError::Singular),
            CandState::NonFinite => {
                return Err(StatsError::InvalidArgument(
                    "Ols::fit: non-finite predictor value",
                ))
            }
        };
        let s = self.sel_ry.len();
        let m = s + 1;
        // Bordered correlation Gram of [selected..., candidate j], lower
        // triangle only, and the matching right-hand side uᵀ·yc.
        let mut a = vec![0.0; m * m];
        for (p, row) in self.sel_gram.iter().enumerate() {
            a[p * m..p * m + row.len()].copy_from_slice(row);
            a[s * m + p] = cross_j[p];
        }
        a[s * m + s] = 1.0;
        let mut b = Vec::with_capacity(m);
        b.extend_from_slice(&self.sel_ry);
        b.push(ry_j);

        // In-place Cholesky A = L·Lᵀ (lower triangle of `a`).
        for i in 0..m {
            for k in 0..i {
                let mut sum = a[i * m + k];
                for t in 0..k {
                    sum -= a[i * m + t] * a[k * m + t];
                }
                a[i * m + k] = sum / a[k * m + k];
            }
            let mut piv = a[i * m + i];
            for t in 0..i {
                piv -= a[i * m + t] * a[i * m + t];
            }
            if piv <= GRAM_PIVOT_TOL {
                return Err(StatsError::Singular);
            }
            a[i * m + i] = piv.sqrt();
        }
        // Forward solve L·z = b; the explained sum of squares is ‖z‖².
        let mut z = b;
        for i in 0..m {
            let mut sum = z[i];
            for t in 0..i {
                sum -= a[i * m + t] * z[t];
            }
            z[i] = sum / a[i * m + i];
        }
        let explained: f64 = z.iter().map(|v| v * v).sum();
        // Back solve Lᵀ·beta = z → standardised coefficients.
        let mut beta = z;
        for i in (0..m).rev() {
            let mut sum = beta[i];
            for t in (i + 1)..m {
                sum -= a[t * m + i] * beta[t];
            }
            beta[i] = sum / a[i * m + i];
        }
        // diag(A⁻¹) via the columns of L⁻¹.
        let mut diag = vec![0.0; m];
        let mut col = vec![0.0; m];
        for (w, d) in diag.iter_mut().enumerate() {
            for (i, c) in col.iter_mut().enumerate() {
                *c = if i == w { 1.0 } else { 0.0 };
            }
            for i in w..m {
                let mut sum = col[i];
                for t in w..i {
                    sum -= a[i * m + t] * col[t];
                }
                col[i] = sum / a[i * m + i];
            }
            *d = col[w..].iter().map(|v| v * v).sum();
        }

        let rss = (self.syy - explained).max(0.0);
        let r2 = if self.syy > 0.0 {
            (1.0 - rss / self.syy).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let df = (n - m - 1) as f64;
        let sigma2 = rss / df;
        // Predictor t/p-values exactly as Ols computes them (they are
        // invariant under the centring/scaling applied here).
        let mut max_p = f64::NEG_INFINITY;
        for w in 0..m {
            let se = (sigma2 * diag[w]).max(0.0).sqrt();
            let t = if se > 0.0 {
                beta[w] / se
            } else {
                f64::INFINITY
            };
            let p = student_t_sf2(t, df).unwrap_or(f64::NAN);
            max_p = max_p.max(p);
        }
        Ok(StepEval { r2, max_p })
    }

    /// Folds the accepted candidate `w` into the selected-set Gram state and
    /// extends every candidate's cross-product vector — the only O(n·p)
    /// work per accepted step.
    fn accept(&mut self, w: usize) {
        let uw = match &self.cand[w] {
            CandState::Usable { u, .. } => u.clone(),
            _ => unreachable!("accepted candidate must be usable"),
        };
        let dots = map_candidates(&self.cand, |_, st| match st {
            CandState::Usable { u, .. } => u.iter().zip(&uw).map(|(a, b)| a * b).sum(),
            _ => 0.0,
        });
        let mut new_row = self.crosses[w].clone();
        new_row.push(1.0);
        self.sel_gram.push(new_row);
        if let CandState::Usable { ry, .. } = &self.cand[w] {
            self.sel_ry.push(*ry);
        }
        for (j, d) in dots.into_iter().enumerate() {
            self.crosses[j].push(d);
        }
    }
}

/// Runs forward selection of `candidates` against the response `y`.
///
/// Candidates are scored through the shared Gram state (see the module
/// docs); each accepted term is refitted through [`Ols::fit`], so the
/// returned model and R² path are those of the QR fits of the chosen
/// candidates, bit for bit. A constant response selects nothing and
/// returns the intercept-only model.
///
/// # Errors
///
/// * [`StatsError::InvalidArgument`] — no candidates, or candidate columns of
///   the wrong length.
/// * [`StatsError::NotEnoughData`] — fewer than 4 observations.
/// * Errors from the underlying fits are skipped per-candidate
///   (a collinear candidate simply cannot be selected); if *no* candidate can
///   be fitted on the first step the last error is returned.
pub fn forward_select(
    candidates: &[Candidate],
    y: &[f64],
    opts: &StepwiseOptions,
) -> Result<Selection> {
    let n = validate_inputs(candidates, y)?;
    if y.iter().any(|v| !v.is_finite()) {
        // A QR scan surfaces the error of the last candidate it tried; with
        // a non-finite response every fit fails, on the predictor check
        // when that candidate is itself non-finite and on the response
        // check otherwise.
        let last_nonfinite = candidates
            .last()
            .is_some_and(|c| c.values.iter().any(|v| !v.is_finite()));
        return Err(StatsError::InvalidArgument(if last_nonfinite {
            "Ols::fit: non-finite predictor value"
        } else {
            "Ols::fit: non-finite response value"
        }));
    }

    let mut gram = GramScan::new(candidates, y);
    if gram.syy == 0.0 {
        // A constant response leaves nothing to explain: every fit's t
        // statistics would be rounding noise.
        return finish(candidates, y, Vec::new(), None, Vec::new());
    }
    let mut excluded = vec![false; candidates.len()];
    let mut selected: Vec<usize> = Vec::new();
    let mut best_model: Option<Ols> = None;
    let mut r2_path = Vec::new();
    let mut last_err: Option<StatsError> = None;
    let mut any_fit = false;

    loop {
        if opts.max_terms > 0 && selected.len() >= opts.max_terms {
            break;
        }
        // Out of residual degrees of freedom?
        if n < selected.len() + 3 {
            break;
        }
        let current_r2 = best_model.as_ref().map_or(0.0, |m| m.r_squared);

        // Among all candidates, pick the best-R² one whose fit keeps every
        // term significant (the paper's rule: stop only when *no* addition
        // leaves all p-values below the threshold). The scan fans out across
        // worker threads; the reduction below walks results in candidate
        // order, so the outcome is identical to a serial scan.
        candidate_scans_counter().add(candidates.len() as u64);
        let excluded_ref = &excluded;
        let gram_ref = &gram;
        let evals = map_candidates(candidates, |j, _| {
            if excluded_ref[j] {
                None
            } else {
                Some(gram_ref.eval(j, n))
            }
        });
        let mut best_step: Option<(usize, f64)> = None;
        for (j, ev) in evals.into_iter().enumerate() {
            match ev {
                None => {}
                Some(Err(e)) => last_err = Some(e),
                Some(Ok(ev)) => {
                    any_fit = true;
                    if ev.max_p > opts.p_threshold {
                        continue;
                    }
                    let better = match best_step {
                        None => true,
                        Some((_, best_r2)) => ev.r2 > best_r2,
                    };
                    if better {
                        best_step = Some((j, ev.r2));
                    }
                }
            }
        }

        let Some((ci, _)) = best_step else {
            if best_model.is_none() && !any_fit {
                return Err(last_err.unwrap_or(StatsError::Singular));
            }
            break;
        };

        // Refit the winner through the full QR path: the recorded model and
        // R² trajectory are exactly the QR fits' values.
        let fit = match fit_subset(candidates, y, &selected, ci) {
            Ok(fit) => fit,
            Err(e) => {
                // Numerical disagreement between the Gram score and the QR
                // refit (borderline collinearity): drop the candidate, as a
                // QR scan would have.
                last_err = Some(e);
                excluded[ci] = true;
                continue;
            }
        };

        // Acceptance rule: meaningful R² gain.
        if fit.r_squared - current_r2 < opts.min_r2_gain {
            break;
        }
        selected.push(ci);
        excluded[ci] = true;
        r2_path.push(fit.r_squared);
        best_model = Some(fit);
        gram.accept(ci);
        if selected.len() == candidates.len() {
            break;
        }
    }

    finish(candidates, y, selected, best_model, r2_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::cases::{for_each_case, Cases};

    /// The from-scratch reference: every candidate at every step is refitted
    /// with a fresh QR. It applies the selection rule of [`forward_select`]
    /// directly, so the two must agree on tie-free data.
    fn forward_select_reference(
        candidates: &[Candidate],
        y: &[f64],
        opts: &StepwiseOptions,
    ) -> Result<Selection> {
        let n = validate_inputs(candidates, y)?;
        if GramScan::new(candidates, y).syy == 0.0 {
            return finish(candidates, y, Vec::new(), None, Vec::new());
        }

        let mut selected: Vec<usize> = Vec::new();
        let mut best_model: Option<Ols> = None;
        let mut r2_path = Vec::new();
        let mut last_err: Option<StatsError> = None;
        let mut any_fit = false;

        loop {
            if opts.max_terms > 0 && selected.len() >= opts.max_terms {
                break;
            }
            if n < selected.len() + 3 {
                break;
            }
            let current_r2 = best_model.as_ref().map_or(0.0, |m| m.r_squared);

            let (best_step, step_any_fit, step_err) = scan_step_qr(candidates, y, &selected, opts);
            any_fit |= step_any_fit;
            if let Some(e) = step_err {
                last_err = Some(e);
            }

            let Some((ci, fit)) = best_step else {
                if best_model.is_none() && !any_fit {
                    return Err(last_err.unwrap_or(StatsError::Singular));
                }
                break;
            };
            if fit.r_squared - current_r2 < opts.min_r2_gain {
                break;
            }
            selected.push(ci);
            r2_path.push(fit.r_squared);
            best_model = Some(fit);
            if selected.len() == candidates.len() {
                break;
            }
        }
        finish(candidates, y, selected, best_model, r2_path)
    }

    /// One reference scan step: fit every unselected candidate on top of the
    /// current selection and pick the best significant R².
    fn scan_step_qr(
        candidates: &[Candidate],
        y: &[f64],
        selected: &[usize],
        opts: &StepwiseOptions,
    ) -> (Option<(usize, Ols)>, bool, Option<StatsError>) {
        let mut best_step: Option<(usize, Ols)> = None;
        let mut any_fit = false;
        let mut last_err: Option<StatsError> = None;
        for ci in 0..candidates.len() {
            if selected.contains(&ci) {
                continue;
            }
            match fit_subset(candidates, y, selected, ci) {
                Ok(fit) => {
                    any_fit = true;
                    if let Some(pmax) = fit.max_predictor_p_value() {
                        if pmax > opts.p_threshold {
                            continue;
                        }
                    }
                    let better = match &best_step {
                        None => true,
                        Some((_, b)) => fit.r_squared > b.r_squared,
                    };
                    if better {
                        best_step = Some((ci, fit));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        (best_step, any_fit, last_err)
    }

    fn noise(i: usize) -> f64 {
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        let h = (h ^ (h >> 31)).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        ((h >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
    }

    /// y = 3 a − 2 b + noise; c and d are distractors.
    fn dataset() -> (Vec<Candidate>, Vec<f64>) {
        let n = 80;
        let a: Vec<f64> = (0..n).map(|i| noise(i) * 10.0).collect();
        let b: Vec<f64> = (0..n).map(|i| noise(i + 1_000) * 10.0).collect();
        let c: Vec<f64> = (0..n).map(|i| noise(i + 2_000) * 10.0).collect();
        let d: Vec<f64> = (0..n).map(|i| noise(i + 3_000) * 10.0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 3.0 * a[i] - 2.0 * b[i] + 0.05 * noise(i + 4_000))
            .collect();
        (
            vec![
                Candidate::new("a", a),
                Candidate::new("b", b),
                Candidate::new("c", c),
                Candidate::new("d", d),
            ],
            y,
        )
    }

    #[test]
    fn selects_true_predictors_only() {
        let (cands, y) = dataset();
        let sel = forward_select(&cands, &y, &StepwiseOptions::default()).unwrap();
        let mut names = sel.selected_names();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
        assert!(sel.model.r_squared > 0.999);
    }

    #[test]
    fn selection_order_is_by_importance() {
        let (cands, y) = dataset();
        let sel = forward_select(&cands, &y, &StepwiseOptions::default()).unwrap();
        // a has the larger true coefficient (|3| vs |−2|) on same-scale
        // inputs, so it should be picked first.
        assert_eq!(sel.selected_names()[0], "a");
        // R² path is strictly increasing.
        for w in sel.r2_path.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn max_terms_cap_respected() {
        let (cands, y) = dataset();
        let sel = forward_select(
            &cands,
            &y,
            &StepwiseOptions {
                max_terms: 1,
                ..StepwiseOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sel.selected.len(), 1);
    }

    #[test]
    fn skips_collinear_candidates() {
        let (mut cands, y) = dataset();
        // A perfect copy of "a": collinear once "a" is in the model.
        let copy = Candidate::new("a_copy", cands[0].values.clone());
        cands.push(copy);
        let sel = forward_select(&cands, &y, &StepwiseOptions::default()).unwrap();
        let names = sel.selected_names();
        // Exactly one of a/a_copy may appear.
        let a_like = names.iter().filter(|n| n.starts_with('a')).count();
        assert_eq!(a_like, 1);
        assert!(sel.model.r_squared > 0.999);
    }

    #[test]
    fn pure_noise_selects_nothing_or_little() {
        let n = 60;
        let y: Vec<f64> = (0..n).map(|i| noise(i + 9_999)).collect();
        let cands: Vec<Candidate> = (0..5)
            .map(|c| {
                Candidate::new(
                    format!("junk{c}"),
                    (0..n).map(|i| noise(i + c * 500)).collect(),
                )
            })
            .collect();
        let sel = forward_select(&cands, &y, &StepwiseOptions::default()).unwrap();
        // With p = 0.05 an occasional false positive is possible but the
        // model must stay tiny and weak.
        assert!(sel.selected.len() <= 1);
        assert!(sel.model.r_squared < 0.3);
    }

    #[test]
    fn input_validation() {
        assert!(forward_select(&[], &[1.0; 10], &StepwiseOptions::default()).is_err());
        let c = vec![Candidate::new("x", vec![1.0, 2.0])];
        assert!(forward_select(&c, &[1.0, 2.0], &StepwiseOptions::default()).is_err());
        let c = vec![Candidate::new("x", vec![1.0, 2.0, 3.0])];
        assert!(forward_select(&c, &[1.0; 5], &StepwiseOptions::default()).is_err());
    }

    #[test]
    fn constant_candidates_fall_back_to_intercept() {
        let y = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let c = vec![Candidate::new("const", vec![2.0; 6])];
        // A constant column is collinear with the intercept → Singular on the
        // only candidate → fall back to intercept-only would need best_model
        // None path, which errors because no candidate ever fit.
        let r = forward_select(&c, &y, &StepwiseOptions::default());
        assert!(r.is_err());
        assert!(forward_select_reference(&c, &y, &StepwiseOptions::default()).is_err());
    }

    #[test]
    fn nonfinite_inputs_error_like_reference() {
        let y = vec![1.0, f64::NAN, 3.0, 4.0, 5.0];
        let c = vec![Candidate::new("x", vec![1.0, 2.0, 3.0, 4.0, 5.0])];
        assert_eq!(
            forward_select(&c, &y, &StepwiseOptions::default()).unwrap_err(),
            forward_select_reference(&c, &y, &StepwiseOptions::default()).unwrap_err()
        );
        let y = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let c = vec![Candidate::new("x", vec![1.0, f64::INFINITY, 3.0, 4.0, 5.0])];
        assert_eq!(
            forward_select(&c, &y, &StepwiseOptions::default()).unwrap_err(),
            forward_select_reference(&c, &y, &StepwiseOptions::default()).unwrap_err()
        );
    }

    /// The structural equivalence check behind the whole fast path: same
    /// selection, same order, same (bit-identical) model.
    #[test]
    fn fast_path_matches_reference_selection_and_model() {
        for (extra, max_terms) in [(0usize, 0usize), (7, 0), (7, 1), (19, 3)] {
            let (mut cands, y) = dataset();
            let n = y.len();
            for e in 0..extra {
                cands.push(Candidate::new(
                    format!("extra{e}"),
                    (0..n).map(|i| noise(i + 10_000 + e * 777) * 6.0).collect(),
                ));
            }
            let opts = StepwiseOptions {
                max_terms,
                ..StepwiseOptions::default()
            };
            let fast = forward_select(&cands, &y, &opts).unwrap();
            let slow = forward_select_reference(&cands, &y, &opts).unwrap();
            assert_eq!(fast.selected, slow.selected, "extra={extra}");
            assert_eq!(fast.selected_names(), slow.selected_names());
            assert_eq!(fast.r2_path, slow.r2_path);
            assert_eq!(fast.model.coefficients, slow.model.coefficients);
            assert_eq!(fast.model.r_squared, slow.model.r_squared);
        }
    }

    #[test]
    fn fast_path_handles_constant_response() {
        // Constant y: nothing to explain, so nothing is selected and the
        // model is the intercept alone, on both paths.
        let y = vec![5.0; 12];
        let cands: Vec<Candidate> = (0..3)
            .map(|c| {
                Candidate::new(
                    format!("x{c}"),
                    (0..12).map(|i| noise(i + c * 97)).collect(),
                )
            })
            .collect();
        let fast = forward_select(&cands, &y, &StepwiseOptions::default()).unwrap();
        assert!(fast.selected.is_empty());
        assert!(fast.selected_names().is_empty());
        assert!(fast.r2_path.is_empty());
        let intercept_only = Ols::fit(&vec![vec![]; 12], &y, &[]).unwrap();
        assert_eq!(fast.model.k, 0);
        assert_eq!(fast.model.coefficients, intercept_only.coefficients);
        assert!((fast.model.coefficients[0] - 5.0).abs() < 1e-12);
        let slow = forward_select_reference(&cands, &y, &StepwiseOptions::default()).unwrap();
        assert_eq!(fast.selected, slow.selected);
        assert_eq!(fast.model.coefficients, slow.model.coefficients);
    }

    /// A fixture shaped like the §IV-D error regression: 45 workloads, and
    /// as candidates the totals of 64 base event columns plus their rates
    /// against seven per-row denominators (time, instructions, cycles, …),
    /// with constant, non-finite and duplicate columns mixed in. Event counts scale
    /// with each workload's size, so the totals are strongly correlated,
    /// as they are on the board.
    fn section_iv_d_fixture() -> (Vec<Candidate>, Vec<f64>) {
        const ROWS: usize = 45;
        const BASES: usize = 64;
        const DENOMS: usize = 7;
        let size: Vec<f64> = (0..ROWS)
            .map(|i| 1e7 * (1.0 + 20.0 * (noise(i + 50_000) + 0.5)))
            .collect();
        let denoms: Vec<Vec<f64>> = (0..DENOMS)
            .map(|d| {
                (0..ROWS)
                    .map(|i| size[i] * (0.5 + noise(i * 13 + d * 1_009 + 60_000) + 0.5))
                    .collect()
            })
            .collect();
        let bases: Vec<Vec<f64>> = (0..BASES)
            .map(|b| {
                let per_instr = 1e-3 * (1.0 + b as f64);
                (0..ROWS)
                    .map(|i| size[i] * per_instr * (1.0 + 0.8 * noise(i * 31 + b * 7_919 + 70_000)))
                    .collect()
            })
            .collect();
        let mut cands = Vec::new();
        for (b, col) in bases.iter().enumerate() {
            cands.push(Candidate::new(format!("e{b} (total)"), col.clone()));
            for (d, den) in denoms.iter().enumerate() {
                cands.push(Candidate::new(
                    format!("e{b} (rate/{d})"),
                    col.iter().zip(den).map(|(v, t)| v / t).collect(),
                ));
            }
        }
        for c in 0..3 {
            cands.push(Candidate::new(
                format!("const{c}"),
                vec![1e6 * c as f64; ROWS],
            ));
        }
        let mut nan = bases[3].clone();
        nan[17] = f64::NAN;
        cands.push(Candidate::new("e3 (nan)", nan));
        let mut inf = bases[9].clone();
        inf[0] = f64::INFINITY;
        cands.push(Candidate::new("e9 (inf)", inf));
        // Exact copies of the informative columns, as when two statistics
        // count the same thing: ties the scan must break as the QR scan
        // does, towards the lower index.
        for name in ["e5 (rate/0)", "e40 (rate/3)", "e11 (total)"] {
            let orig = cands.iter().find(|c| c.name == name).unwrap();
            cands.push(Candidate::new(format!("{name} copy"), orig.values.clone()));
        }
        // The time difference: a few rates and a total, plus noise.
        let y = (0..ROWS)
            .map(|i| {
                40.0 * bases[5][i] / denoms[0][i] - 25.0 * bases[40][i] / denoms[3][i]
                    + 2e-7 * bases[11][i]
                    + 0.3 * noise(i + 80_000)
            })
            .collect();
        (cands, y)
    }

    #[test]
    fn section_iv_d_shaped_selection_matches_reference_bitwise() {
        let (cands, y) = section_iv_d_fixture();
        assert!(cands.len() >= 500, "{} candidates", cands.len());
        // The options the error regression runs with.
        let opts = StepwiseOptions {
            p_threshold: 0.05,
            max_terms: 10,
            ..StepwiseOptions::default()
        };
        let fast = forward_select(&cands, &y, &opts).unwrap();
        let slow = forward_select_reference(&cands, &y, &opts).unwrap();
        assert!(fast.selected.len() >= 3, "{:?}", fast.selected_names());
        assert_eq!(fast.selected, slow.selected);
        assert_eq!(fast.selected_names(), slow.selected_names());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast.r2_path), bits(&slow.r2_path));
        assert_eq!(
            bits(&fast.model.coefficients),
            bits(&slow.model.coefficients)
        );
        for name in fast.selected_names() {
            assert!(
                !name.starts_with("const")
                    && !name.ends_with("(nan)")
                    && !name.ends_with("(inf)")
                    && !name.ends_with("copy")
            );
        }
    }

    #[test]
    fn stepwise_fast_matches_reference() {
        for_each_case(256, 0x57A7_5EED, |seed| {
            let mut g = Cases::new(seed);
            let seed_rows: Vec<Vec<f64>> =
                g.vec(12..32, |g| (0..6).map(|_| g.f64_in(-10.0, 10.0)).collect());
            let c0 = g.f64_in(-5.0, 5.0);
            let c1 = g.f64_in(-5.0, 5.0);
            let cands: Vec<Candidate> = (0..6)
                .map(|j| Candidate::new(format!("c{j}"), seed_rows.iter().map(|r| r[j]).collect()))
                .collect();
            let y: Vec<f64> = seed_rows
                .iter()
                .enumerate()
                .map(|(i, r)| c0 * r[0] + c1 * r[1] + (i % 7) as f64 * 0.3)
                .collect();
            let opts = StepwiseOptions::default();
            match (
                forward_select(&cands, &y, &opts),
                forward_select_reference(&cands, &y, &opts),
            ) {
                (Ok(fast), Ok(slow)) => {
                    // Same candidates, in the same order, and the winner refit
                    // makes the recorded model/path bit-identical.
                    assert_eq!(&fast.selected, &slow.selected);
                    assert_eq!(&fast.r2_path, &slow.r2_path);
                    assert_eq!(fast.model.coefficients.len(), slow.model.coefficients.len());
                    for (a, b) in fast.model.coefficients.iter().zip(&slow.model.coefficients) {
                        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!(
                    "paths disagree on success: fast ok = {}, reference ok = {}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        });
    }
}
