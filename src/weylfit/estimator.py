"""Coefficient recovery from shot records.

Maximum-likelihood and weighted least-squares fits of the truncated
characteristic-function models, Fisher-information covariance, linearized
systematic-bias propagation, total-error sweeps over grid designs, and
zero-noise extrapolation over calibrated thermal occupations.

Parameters are real under the hood: order-2 models carry 3 real
coefficients (plus an optional heating parameter), order-3 models are
split into independent real and imaginary subproblems, one per Pauli
basis, which is exact because the joint cost is the sum of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import optimize
from scipy.linalg import block_diag

from . import fockspace, sampler, series
from .series import CoefficientVector
from .errors import (
    DatasetError,
    InvalidParameterError,
    NonConvergenceError,
    RankDeficiencyError,
    UnsupportedOrderError,
)
from .sampler import MeasurementPoint, ShotRecord

# Probability floor inside logs; the clip makes p = 0 or 1 reachable.
EPS_P = 1e-9
# Exit test on the gradient, relative to the cost scale.
GRAD_RTOL = 1e-8


@dataclass(frozen=True)
class ModelSpec:
    """Which truncated model is being fitted."""

    n: int
    n_bar: float = 0.0
    heating: bool = False

    def __post_init__(self):
        if self.n not in (2, 3):
            raise UnsupportedOrderError(f"estimation supports orders 2 and 3, got {self.n}")
        if self.n_bar < 0:
            raise InvalidParameterError("mean occupation must be non-negative")
        if self.heating and self.n != 2:
            raise UnsupportedOrderError("heated model is only defined for order 2")
        if self.n_bar > 0 and self.n != 2:
            raise UnsupportedOrderError("thermal model is only defined for order 2")

    @property
    def nu(self) -> float:
        return 1.0 + 2.0 * self.n_bar

    @property
    def n_coeffs(self) -> int:
        return 3 if self.n == 2 else 4


@dataclass
class FitProblem:
    """Dataset plus model and cost selection."""

    model: ModelSpec
    records: list[ShotRecord]
    theta0: np.ndarray | None = None
    cost: str = "ls"

    def __post_init__(self):
        if not self.records:
            raise DatasetError("fit problem needs a non-empty dataset")
        if self.cost not in ("ls", "ml"):
            raise InvalidParameterError(f"cost must be 'ls' or 'ml', got {self.cost!r}")
        bases = {rec.basis for rec in self.records}
        needed = set(sampler.bases_for_order(self.model.n))
        if not needed <= bases:
            raise DatasetError(f"model order {self.model.n} needs bases {sorted(needed)}, "
                               f"dataset has {sorted(bases)}")
        n_bars = {rec.point.n_bar for rec in self.records}
        if any(not math.isclose(nb, self.model.n_bar, rel_tol=1e-9, abs_tol=1e-12)
               for nb in n_bars):
            raise DatasetError(f"dataset occupations n_B {sorted(n_bars)} differ from the "
                               f"model's n_B = {self.model.n_bar}")

    def subproblems(self) -> list[_Subproblem]:
        """One subproblem per model part, from the records of its basis."""
        subs = []
        for part, (basis, *_) in enumerate(series.PARTS[self.model.n]):
            rows = [rec for rec in self.records if rec.basis == basis]
            subs.append(_subproblem(self.model, part, [rec.point for rec in rows],
                                    [rec.shots for rec in rows],
                                    [rec.frequency for rec in rows]))
        return subs


@dataclass
class EstimationReport:
    """Fit outcome: coefficients, covariance, error budget, diagnostics."""

    model: ModelSpec
    coefficients: CoefficientVector
    covariance: np.ndarray
    std: np.ndarray
    c_h: float | None = None
    c_h_std: float | None = None
    bias_sys: np.ndarray | None = None
    mse: np.ndarray | None = None
    rmse: float | None = None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Subproblems: one clipped linear model per real part of chi
# ---------------------------------------------------------------------------


@dataclass
class _Subproblem:
    """One part of the model (`series.PARTS`) with its measurement rows."""

    n: int
    part: int
    nu: float
    xi: np.ndarray           # complex displacements
    r: np.ndarray
    phase: np.ndarray        # squeeze phase per row
    shots: np.ndarray
    freq: np.ndarray         # empirical +1 frequency per row

    def model_probability(self, theta: np.ndarray, c_h: float = 0.0,
                          with_ch_grad: bool = False):
        """p(+1), dp/dtheta, and dp/dc_h (None unless asked for) at real parameters."""
        value, dvalue, dvalue_ch = series.part_model(self.n, self.part, theta, self.xi, self.r,
                                                     self.phase, self.nu, c_h, with_ch_grad)
        dp_ch = None if dvalue_ch is None else 0.5 * dvalue_ch
        return 0.5 * (1.0 + value), 0.5 * dvalue, dp_ch

    def sigma2(self) -> np.ndarray:
        """LS weights: empirical binomial variance with a 1/(4N^2) floor."""
        raw = self.freq * (1.0 - self.freq) / self.shots
        return np.maximum(raw, 1.0 / (4.0 * self.shots.astype(float) ** 2))


def _subproblem(model: ModelSpec, part: int, points: Sequence[MeasurementPoint],
                shots, freq=None) -> _Subproblem:
    return _Subproblem(
        n=model.n, part=part, nu=model.nu,
        xi=np.array([p.xi for p in points], dtype=complex),
        r=np.array([p.r for p in points], dtype=float),
        phase=np.array([p.theta for p in points], dtype=float),
        shots=np.asarray(shots, dtype=int),
        freq=np.zeros(len(points)) if freq is None else np.asarray(freq, dtype=float),
    )


def _design(model: ModelSpec, points: Sequence[MeasurementPoint], shots,
            chi: np.ndarray | None = None) -> list[_Subproblem]:
    """One subproblem per part on a point design.

    With ``chi`` given, the frequencies are its exact probabilities (the
    infinite-shot limit); otherwise they are left at zero.
    """
    return [_subproblem(model, part, points, _coerce_allocation(shots, len(points), basis),
                        None if chi is None else np.clip(_born(chi, part), 0.0, 1.0))
            for part, (basis, *_) in enumerate(series.PARTS[model.n])]


def _born(chi: np.ndarray, part: int) -> np.ndarray:
    """p(+1) of the part's basis: (1 + Re chi)/2 in x, (1 + Im chi)/2 in y."""
    return 0.5 * (1.0 + (np.real(chi) if part == 0 else np.imag(chi)))


def _jacobian(dp: np.ndarray, dp_ch: np.ndarray | None) -> np.ndarray:
    """dp/dtheta with the dp/dc_h column appended when c_h is fitted."""
    return dp if dp_ch is None else np.hstack([dp, dp_ch[:, None]])


def _pack_theta(model: ModelSpec, theta) -> list[np.ndarray]:
    """Split a CoefficientVector / complex array into per-part real vectors."""
    values = theta.values if isinstance(theta, CoefficientVector) else np.asarray(theta)
    if model.n == 2:
        vec = np.real(values).astype(float)
        return [vec]
    vals = np.asarray(values, dtype=complex)
    return [vals.real.copy(), vals.imag.copy()]


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def _likelihood(sub: _Subproblem, x: np.ndarray, cost: str, n_coeffs: int, fit_ch: bool):
    """The fit cost's building blocks at packed parameters x = (theta[, c_h]).

    Computes p and dp once.  LS returns (residuals, Jacobian) of the
    variance-weighted residuals; ML returns (negative log-likelihood,
    gradient, curvature).  The model is linear in theta inside the clip,
    so the ML curvature is the exact Hessian there; for c_h it is the
    Gauss-Newton part.
    """
    c_h = float(x[n_coeffs]) if fit_ch else 0.0
    p, dp, dp_ch = sub.model_probability(x[:n_coeffs], c_h, with_ch_grad=fit_ch)
    if cost == "ls":
        sigma = np.sqrt(sub.sigma2())
        return (p - sub.freq) / sigma, _jacobian(dp, dp_ch) / sigma[:, None]
    f, shots = sub.freq, sub.shots
    p_safe = np.clip(p, EPS_P, 1.0 - EPS_P)
    nll = -np.sum(shots * (f * np.log(p_safe) + (1.0 - f) * np.log1p(-p_safe)))
    w = -shots * (f / p_safe - (1.0 - f) / (1.0 - p_safe))
    grad = dp.T @ w
    if fit_ch:
        grad = np.append(grad, np.dot(dp_ch, w))
    curv_w = shots * (f / p_safe**2 + (1.0 - f) / (1.0 - p_safe) ** 2)
    jac = _jacobian(dp, dp_ch)
    return float(nll), grad, (jac * curv_w[:, None]).T @ jac


def _cost_grad_curvature(sub: _Subproblem, x: np.ndarray, cost: str,
                         n_coeffs: int, fit_ch: bool):
    """Cost, gradient, and Gauss-Newton curvature at packed parameters x."""
    out = _likelihood(sub, x, cost, n_coeffs, fit_ch)
    if cost == "ml":
        return out
    res, jac = out
    return float(np.sum(res**2)), 2.0 * jac.T @ res, 2.0 * jac.T @ jac


def cost(theta, problem: FitProblem, c_h: float | None = None) -> float:
    """The fit cost of the model against the dataset.

    Weighted least squares when ``problem.cost`` is 'ls', the negative
    log-likelihood when it is 'ml'.
    """
    fit_ch = c_h is not None
    total = 0.0
    for sub, packed in zip(problem.subproblems(), _pack_theta(problem.model, theta)):
        x = np.append(packed, c_h) if fit_ch else packed
        total += _cost_grad_curvature(sub, x, problem.cost, problem.model.n_coeffs, fit_ch)[0]
    return total


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _polish(sub: _Subproblem, x: np.ndarray, cost: str, n_coeffs: int,
            fit_ch: bool, max_iter: int = 60):
    """Damped Newton refinement; exits on the gradient test or stagnation.

    The clipped model makes the cost piecewise smooth, so a minimum can sit
    on an active-set boundary where the one-sided gradient stays finite.
    Exhausting the damping ladder without any relative cost decrease then
    certifies local optimality (the cost-stationary exit).
    """
    cost_val, grad, curv = _cost_grad_curvature(sub, x, cost, n_coeffs, fit_ch)
    lam = 1e-12 * (np.trace(curv) / len(x) + 1.0)
    exit_reason = "max-iterations"
    for _ in range(max_iter):
        if np.linalg.norm(grad) <= GRAD_RTOL * (1.0 + abs(cost_val)):
            exit_reason = "gradient"
            break
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(curv + lam * np.eye(len(x)), -grad)
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-8)
                continue
            trial = x + step
            trial_cost, trial_grad, trial_curv = _cost_grad_curvature(
                sub, trial, cost, n_coeffs, fit_ch)
            if trial_cost <= cost_val * (1.0 - 1e-12) - 1e-300:
                x, cost_val, grad, curv = trial, trial_cost, trial_grad, trial_curv
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam = max(lam * 10.0, 1e-10)
        if not accepted:
            exit_reason = "cost-stationary"
            break
    return x, cost_val, grad, exit_reason


def _solve_subproblem(sub: _Subproblem, n_coeffs: int, cost: str, x0: np.ndarray,
                      fit_ch: bool, center: np.ndarray) -> tuple[np.ndarray, dict]:
    """Minimize one subproblem; multistart fallback guards the clipped region."""

    def run(x_start):
        if cost == "ls":
            sol = optimize.least_squares(
                lambda x: _likelihood(sub, x, cost, n_coeffs, fit_ch)[0], x_start,
                jac=lambda x: _likelihood(sub, x, cost, n_coeffs, fit_ch)[1],
                method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-12, max_nfev=400)
            iterations = sol.nfev
        else:
            sol = optimize.minimize(lambda x: _likelihood(sub, x, cost, n_coeffs, fit_ch)[:2],
                                    x_start, jac=True, method="L-BFGS-B",
                                    options={"ftol": 1e-12, "gtol": 1e-9, "maxiter": 2000})
            iterations = sol.nit
        x, cost_val, grad, reason = _polish(sub, sol.x, cost, n_coeffs, fit_ch)
        return x, cost_val, grad, reason, int(iterations)

    best = None
    starts = [np.asarray(x0, dtype=float)]
    rng = np.random.default_rng(709)
    extra = [center + rng.normal(scale=0.3, size=len(x0)) for _ in range(6)]
    attempts = 0
    for start in starts + extra:
        x, cost_val, grad, reason, nit = run(start)
        attempts += 1
        if best is None or cost_val < best[1]:
            best = (x, cost_val, grad, reason, nit)
        if best[3] in ("gradient", "cost-stationary"):
            break

    x, cost_val, grad, reason, nit = best
    gnorm = float(np.linalg.norm(grad))
    diag = {"cost": cost_val, "grad_norm": gnorm, "iterations": nit,
            "starts": attempts, "exit": reason}
    if reason == "max-iterations":
        diag["best_parameters"] = x.tolist()
        raise NonConvergenceError(
            f"no convergence after {attempts} starts (gradient norm {gnorm:.3e})",
            report=diag,
        )
    return x, diag


def _fit(model: ModelSpec, subs: list[_Subproblem], cost: str, theta0=None):
    """Solve every part's subproblem and reassemble (coefficients, c_h, diagnostics).

    Each part starts from ``theta0`` (zeros by default); the multistart
    fallback scatters around the exact coefficients for the first part and
    around zero for the imaginary one.
    """
    n_coeffs = model.n_coeffs
    center = np.real(series.truth_coefficients(model.n, model.n_bar).values)
    starts = _pack_theta(model, theta0) if theta0 is not None else [np.zeros(n_coeffs)] * len(subs)
    xs, diags = [], []
    for part, sub in enumerate(subs):
        x0, part_center = starts[part], center if part == 0 else np.zeros(n_coeffs)
        if model.heating:
            x0, part_center = np.append(x0, 0.0), np.append(part_center, 0.0)
        x, diag = _solve_subproblem(sub, n_coeffs, cost, x0, model.heating, part_center)
        xs.append(x)
        diags.append(diag)
    theta = xs[0][:n_coeffs] if model.n == 2 else xs[0][:n_coeffs] + 1j * xs[1][:n_coeffs]
    c_h = float(xs[0][n_coeffs]) if model.heating else None
    return CoefficientVector(model.n, theta, n_bar=model.n_bar), c_h, diags


def minimize(problem: FitProblem) -> EstimationReport:
    """Fit the model coefficients to the dataset.

    Order-3 problems are solved as independent real and imaginary
    subproblems.  The report covariance is the inverse Fisher information
    at the fitted parameters under the dataset's shot allocation.
    """
    model = problem.model
    subs = problem.subproblems()
    coeffs, c_h, diags = _fit(model, subs, problem.cost, problem.theta0)
    _, info = _fisher_parts(subs, _pack_theta(model, coeffs), c_h)
    cov, condition = _safe_inverse(info)
    var = np.diag(cov)
    size = model.n_coeffs
    return EstimationReport(
        model=model,
        coefficients=coeffs,
        covariance=cov,
        std=np.sqrt(var[:size]) if model.n == 2 else np.sqrt(var[:size] + var[size:]),
        c_h=c_h,
        c_h_std=float(np.sqrt(var[size])) if model.heating else None,
        diagnostics={"parts": diags, "cost_kind": problem.cost,
                     "n_records": len(problem.records), "fisher_condition": condition},
    )


def _checked_eigh(info: np.ndarray):
    """Eigendecomposition of a Fisher matrix; raises if it is singular."""
    w, v = np.linalg.eigh(info)
    if w[0] <= 1e-12 * max(w[-1], 1.0):
        raise RankDeficiencyError(
            f"Fisher information singular along direction {np.round(v[:, 0], 4)}",
            direction=v[:, 0],
        )
    return w, v


def _safe_inverse(info: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of a Fisher matrix and its condition number w_max / w_min."""
    w, v = _checked_eigh(info)
    return (v / w) @ v.T, float(w[-1] / w[0])


# ---------------------------------------------------------------------------
# Fisher information and systematic bias
# ---------------------------------------------------------------------------


def _coerce_allocation(shots, n_points: int, basis: str | None = None) -> np.ndarray:
    if isinstance(shots, dict):
        shots = shots[basis]
    arr = np.asarray(shots)
    if arr.ndim == 0:
        return np.full(n_points, int(arr), dtype=int)
    if len(arr) != n_points:
        raise InvalidParameterError("shot allocation length does not match grid")
    return arr.astype(int)


def _fisher_parts(subs: list[_Subproblem], packed: list[np.ndarray], c_h: float | None):
    """Per part (p, Fisher-weighted dp), and the total information I = sum_k N_k I_k."""
    fit_ch = c_h is not None
    parts, blocks = [], []
    for sub, theta in zip(subs, packed):
        p, dp, dp_ch = sub.model_probability(theta, c_h or 0.0, with_ch_grad=fit_ch)
        dp = _jacobian(dp, dp_ch)
        p_safe = np.clip(p, EPS_P, 1.0 - EPS_P)
        dp_w = dp * (sub.shots / (p_safe * (1.0 - p_safe)))[:, None]
        parts.append((p, dp_w))
        blocks.append(dp_w.T @ dp)
    return parts, block_diag(*blocks)


def fisher_information(theta: CoefficientVector, points: Sequence[MeasurementPoint],
                       shots, c_h: float | None = None,
                       model: ModelSpec | None = None,
                       check: bool = True) -> np.ndarray:
    """Total Fisher information I = sum_k N_k I_k at the given parameters.

    Real parameter ordering: the 3 (or 4) coefficient components for order
    2 (plus c_h when fitted), or [Re theta..., Im theta...] for order 3.
    Raises RankDeficiencyError naming the flat direction when singular
    (suppressed with ``check=False``).
    """
    model = model or ModelSpec(theta.n, theta.n_bar, heating=c_h is not None)
    _, info = _fisher_parts(_design(model, points, shots), _pack_theta(model, theta), c_h)
    if check:
        _checked_eigh(info)
    return info


def systematic_bias(theta_star: CoefficientVector, points: Sequence[MeasurementPoint],
                    shots, cutoff: int = fockspace.DEFAULT_CUTOFF) -> np.ndarray:
    """Linearized truncation bias I^-1 F (p_exact - p_model) at theta_star.

    The exact probabilities come from the closed forms (order 2) or the
    Fock-space numerics (order 3) at the grid's own thermal occupation.
    """
    return _bias_and_information(theta_star, points, shots, cutoff)[0]


def _bias_and_information(theta_star: CoefficientVector, points: Sequence[MeasurementPoint],
                          shots, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """`systematic_bias` and the Fisher information I it solves against.

    Raises RankDeficiencyError, before any exact chi is computed, when I is
    singular.
    """
    model = ModelSpec(theta_star.n, theta_star.n_bar)
    parts, info = _fisher_parts(_design(model, points, shots), _pack_theta(model, theta_star), None)
    _checked_eigh(info)
    chi_exact = sampler.analytic_chi_grid(points, model.n, cutoff)
    rhs = np.concatenate([dp_w.T @ (_born(chi_exact, part) - p)
                          for part, (p, dp_w) in enumerate(parts)])
    delta = np.linalg.solve(info, rhs)
    if model.n == 2:
        return delta.astype(complex), info
    size = model.n_coeffs
    return delta[:size] + 1j * delta[size:], info


# ---------------------------------------------------------------------------
# Grid builders
# ---------------------------------------------------------------------------


def build_grid(xi_max: float, r_max: float, d_xi: float, d_r: float,
               n_bar: float = 0.0, theta: float = 0.0) -> list[MeasurementPoint]:
    """Square lattice of real displacements: xi in d_xi..xi_max, r in d_r..r_max."""
    if d_xi <= 0 or d_r <= 0:
        raise InvalidParameterError("grid spacings must be positive")
    if xi_max < d_xi or r_max < d_r:
        raise InvalidParameterError("grid maxima must reach at least one spacing")
    xis = d_xi * np.arange(1, int(round(xi_max / d_xi)) + 1)
    rs = d_r * np.arange(1, int(round(r_max / d_r)) + 1)
    return [MeasurementPoint(xi=complex(x), r=float(r), theta=theta, n_bar=n_bar)
            for r in rs for x in xis]


def build_grid_complex(re_max: float, im_max: float, r_max: float,
                       n_re: int = 10, n_im: int = 10, n_r: int = 3,
                       n_bar: float = 0.0, theta: float = 0.0) -> list[MeasurementPoint]:
    """3-D grid over (Re xi, Im xi, r) for the order-3 estimator."""
    if min(n_re, n_im, n_r) < 1:
        raise InvalidParameterError("grid needs at least one point per axis")
    res = np.linspace(0.0, re_max, n_re)
    ims = np.linspace(0.0, im_max, n_im)
    rs = np.linspace(0.0, r_max, n_r)
    return [MeasurementPoint(xi=complex(x, y), r=float(r), theta=theta, n_bar=n_bar)
            for r in rs for y in ims for x in res]


# ---------------------------------------------------------------------------
# Error-budget sweep and zero-noise extrapolation
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    xi_maxes: np.ndarray
    r_maxes: np.ndarray
    rmse: np.ndarray              # shape (len(r_maxes), len(xi_maxes))
    best_xi_max: float
    best_r_max: float
    best_rmse: float


def rmse_sweep(xi_maxes: Sequence[float], r_maxes: Sequence[float], total_shots: int,
               d_xi: float = 0.02, d_r: float = 0.02, n_bar: float = 0.0,
               cutoff: int = fockspace.DEFAULT_CUTOFF) -> SweepResult:
    """Expected total error over grid designs at a fixed shot budget.

    Each cell combines the linearized systematic bias with the Fisher
    covariance: rmse = sqrt(mean_j(bias_j^2 + var_j)).
    """
    theta_star = series.truth_coefficients(2, n_bar)
    xi_maxes = np.asarray(list(xi_maxes), dtype=float)
    r_maxes = np.asarray(list(r_maxes), dtype=float)
    out = np.empty((len(r_maxes), len(xi_maxes)))
    for i, r_max in enumerate(r_maxes):
        for j, xi_max in enumerate(xi_maxes):
            points = build_grid(xi_max, r_max, d_xi, d_r, n_bar=n_bar)
            alloc = sampler.allocate_shots(len(points), total_shots)
            try:
                bias, info = _bias_and_information(theta_star, points, alloc, cutoff)
            except RankDeficiencyError:
                # single-r designs leave c1 and c2 exactly collinear;
                # the expected error along the flat direction is unbounded
                out[i, j] = np.inf
                continue
            mse = np.abs(bias) ** 2 + np.diag(np.linalg.inv(info))
            out[i, j] = math.sqrt(float(np.mean(mse)))
    k = np.unravel_index(np.argmin(out), out.shape)
    return SweepResult(xi_maxes=xi_maxes, r_maxes=r_maxes, rmse=out,
                       best_xi_max=float(xi_maxes[k[1]]), best_r_max=float(r_maxes[k[0]]),
                       best_rmse=float(out[k]))


def zero_noise_extrapolate(reports: Sequence[EstimationReport],
                           n_bars: Sequence[float], degree: int = 2) -> EstimationReport:
    """Polynomial extrapolation of coefficient estimates to zero occupation.

    Fits one degree-`degree` polynomial per coefficient over the supplied
    occupations and evaluates it at zero; the reported variance follows
    from propagating the per-report variances through the evaluation
    weights, so it always exceeds the inputs.
    """
    n_bars = np.asarray(list(n_bars), dtype=float)
    if len(reports) != len(n_bars):
        raise InvalidParameterError("one occupation value per report is required")
    if len(reports) < degree + 1:
        raise InvalidParameterError(
            f"degree {degree} extrapolation needs at least {degree + 1} points")
    if len(set(np.round(n_bars, 12))) != len(n_bars):
        raise InvalidParameterError("occupation values must be distinct")

    model = reports[0].model
    n_coeffs = model.n_coeffs
    vander = np.vander(n_bars, degree + 1, increasing=True)
    # weights of the prediction at 0: e0^T (X^T X)^-1 X^T
    gram_inv = np.linalg.inv(vander.T @ vander)
    weights = gram_inv[0] @ vander.T

    values = np.stack([rep.coefficients.values for rep in reports])      # (M, J)
    variances = np.stack([rep.std**2 for rep in reports])                # (M, J)
    extrap = weights @ values
    var0 = (weights**2) @ variances
    std0 = np.sqrt(var0)

    coeffs = CoefficientVector(model.n, extrap, n_bar=0.0)
    return EstimationReport(
        model=ModelSpec(model.n, 0.0),
        coefficients=coeffs,
        covariance=np.diag(var0),
        std=std0,
        diagnostics={"method": "zero-noise extrapolation", "degree": degree,
                     "n_bars": n_bars.tolist(), "weights": weights.tolist()},
    )


# ---------------------------------------------------------------------------
# Infinite-shot and Monte Carlo fits
# ---------------------------------------------------------------------------


def fit_exact_frequencies(points: Sequence[MeasurementPoint], model: ModelSpec,
                          shots, chi_values: np.ndarray | None = None,
                          cost: str = "ml",
                          cutoff: int = fockspace.DEFAULT_CUTOFF):
    """Fit in the infinite-shot limit, with frequencies set to the exact
    probabilities of the untruncated characteristic function.

    Isolates the systematic (truncation) part of the estimate: the result
    should sit at theta_star plus the linearized bias.
    """
    if chi_values is None:
        chi_values = sampler.analytic_chi_grid(points, model.n, cutoff)
    coeffs, c_h, _ = _fit(model, _design(model, points, shots, chi_values), cost)
    return coeffs, c_h


def monte_carlo_recovery(points: Sequence[MeasurementPoint], model: ModelSpec,
                         total_shots: int, repeats: int, seed: int,
                         chi_values: np.ndarray | None = None, cost: str = "ls",
                         cutoff: int = fockspace.DEFAULT_CUTOFF,
                         theta0: np.ndarray | None = None):
    """Repeated seeded fits against freshly sampled datasets.

    Returns (thetas, c_hs): fitted coefficients of shape (repeats, J) and,
    for heated models, the fitted heating parameters (else None).  Each
    repeat draws all its counts from one child stream of `seed`, which is
    faster than the per-point streams of `generate_dataset` and equally
    reproducible.
    """
    if chi_values is None:
        chi_values = sampler.analytic_chi_grid(points, model.n, cutoff)
    n_parts = len(series.PARTS[model.n])
    alloc = sampler.allocate_shots(len(points) * n_parts, total_shots).reshape(n_parts, -1)
    probs = [np.clip(_born(chi_values, part), 0.0, 1.0) for part in range(n_parts)]
    thetas = np.empty((repeats, model.n_coeffs), dtype=complex)
    c_hs = np.empty(repeats) if model.heating else None
    for m in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
        subs = [_subproblem(model, part, points, alloc[part],
                            rng.binomial(alloc[part], probs[part]) / alloc[part])
                for part in range(n_parts)]
        coeffs, c_h, _ = _fit(model, subs, cost, theta0)
        thetas[m] = coeffs.values
        if model.heating:
            c_hs[m] = c_h
    return thetas, c_hs


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------


def report_rows(report: EstimationReport) -> list[dict]:
    """Per-coefficient rows for the report CSV."""
    rows = []
    values = report.coefficients.values
    bias = report.bias_sys
    mse = report.mse
    for j, name in enumerate(f"c{k + 1}" for k in range(len(values))):
        bias_j = np.nan
        if bias is not None:
            bias_j = float(np.real(bias[j])) if report.model.n == 2 else float(np.abs(bias[j]))
        mse_j = float(mse[j]) if mse is not None else np.nan
        rows.append({
            "name": name,
            "re": float(values[j].real),
            "im": float(values[j].imag),
            "std": float(report.std[j]),
            "bias_sys": bias_j,
            "mse": mse_j,
        })
    if report.c_h is not None:
        rows.append({"name": "c_h", "re": report.c_h, "im": 0.0,
                     "std": report.c_h_std if report.c_h_std is not None else np.nan,
                     "bias_sys": np.nan, "mse": np.nan})
    return rows
