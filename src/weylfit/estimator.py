"""Coefficient recovery from shot records.

Maximum-likelihood and weighted least-squares fits of the truncated
characteristic-function models, Fisher-information covariance, linearized
systematic-bias propagation, total-error sweeps over grid designs, and
zero-noise extrapolation over calibrated thermal occupations.

Parameters are real under the hood: order-2 models carry 3 real
coefficients (plus an optional heating parameter), order-3 models are
split into independent real and imaginary subproblems, one per Pauli
basis, which is exact because the joint cost is the sum of the two.

Every subproblem is solved by one damped Newton loop on the exact cost,
gradient and curvature.  It runs from two deterministic starts, zero and
the subproblem's center (the exact coefficients, zero for an order-3
imaginary part, with c_h = 0), and keeps the lower cost; there is no
further start, so if that fit ends at the iteration limit the solve
raises NonConvergenceError.  The ``iterations`` diagnostic counts accepted
Newton steps over both starts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import charfunc, fockspace, sampler, series
from .series import CoefficientVector
from .errors import (
    DatasetError,
    IdentifiabilityWarning,
    InvalidParameterError,
    NonConvergenceError,
    RankDeficiencyError,
    UnsupportedOrderError,
)
from .sampler import Dataset, Design, MeasurementPoint

# Probability floor inside logs; the clip makes p = 0 or 1 reachable.
EPS_P = 1e-9
# Exit test on the gradient, relative to the cost scale.
GRAD_RTOL = 1e-8
# Newton iterations per start before the fit counts as unconverged.
NEWTON_MAX_ITER = 60
# Largest Fisher condition number of a fit the report calls identifiable.
# At seed 7 the heated protocol-o2 design (2 rays x 100 xi, n_B 0.1, 300
# quanta/s) fits c = (-4.0, 0.0, 3.4) against a truth near (-1.2, -1.2,
# 0.72), at condition 13664 (LS) and 26464 (ML), and 13080-28899 at n_B
# 0.2-0.3.  The heated 3900-point grid, which recovers the truth, reads
# 1149 (LS) and 1280 (ML); the unheated benchmark reports read 87-229.
MAX_FISHER_CONDITION = 5000.0


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
    dataset: Dataset
    cost: str = "ls"

    def __post_init__(self):
        if not len(self.dataset):
            raise DatasetError("fit problem needs a non-empty dataset")
        if self.cost not in ("ls", "ml"):
            raise InvalidParameterError(f"cost must be 'ls' or 'ml', got {self.cost!r}")
        # sets of the distinct values: a plain np.unique would import numpy.ma (about 20 ms)
        bases = {sampler.BASES[code] for code in set(self.dataset.basis.tolist())}
        needed = set(sampler.bases_for_order(self.model.n))
        if not needed <= bases:
            raise DatasetError(f"model order {self.model.n} needs bases {sorted(needed)}, "
                               f"dataset has {sorted(bases)}")
        n_bars = set(self.dataset.points.n_bar.tolist())
        if any(not math.isclose(nb, self.model.n_bar, rel_tol=1e-9, abs_tol=1e-12)
               for nb in n_bars):
            raise DatasetError(f"dataset occupations n_B {sorted(n_bars)} differ from the "
                               f"model's n_B = {self.model.n_bar}")

    def subproblems(self) -> list[_Subproblem]:
        """One subproblem per model part, from the rows of its basis."""
        subs = []
        for part, (basis, *_) in enumerate(series.PARTS[self.model.n]):
            rows = self.dataset.in_basis(basis)
            subs.append(_subproblem(self.model, part, rows.points, rows.shots, rows.frequency))
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
    """One part of the model (`series.PARTS`) with its measurement rows.

    Its packed parameters are the part's real coefficients, followed by
    c_h when the model is heated.
    """

    n: int
    part: int
    nu: float
    heated: bool
    xi: np.ndarray           # complex displacements
    r: np.ndarray
    phase: np.ndarray        # squeeze phase per row
    shots: np.ndarray
    freq: np.ndarray         # empirical +1 frequency per row

    def probability(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p(+1) and its Jacobian over the packed parameters x."""
        theta, c_h = (x[:-1], float(x[-1])) if self.heated else (x, 0.0)
        value, dvalue, dvalue_ch = series.part_model(self.n, self.part, theta, self.xi, self.r,
                                                     self.phase, self.nu, c_h, self.heated)
        jac = dvalue if dvalue_ch is None else np.hstack([dvalue, dvalue_ch[:, None]])
        return 0.5 * (1.0 + value), 0.5 * jac

    def sigma2(self) -> np.ndarray:
        """LS weights: empirical binomial variance with a 1/(4N^2) floor."""
        raw = self.freq * (1.0 - self.freq) / self.shots
        return np.maximum(raw, 1.0 / (4.0 * self.shots.astype(float) ** 2))


def _subproblem(model: ModelSpec, part: int, design: Design, shots, freq=None) -> _Subproblem:
    return _Subproblem(
        n=model.n, part=part, nu=model.nu, heated=model.heating, xi=design.xi, r=design.r,
        phase=design.theta, shots=np.asarray(shots, dtype=int),
        freq=np.zeros(len(design)) if freq is None else np.asarray(freq, dtype=float),
    )


def _part_designs(model: ModelSpec, points) -> list[Design]:
    """The design of each model part: ``points`` for every part, or, when
    ``points`` is a dict keyed by basis, the entry of the part's basis."""
    if isinstance(points, dict):
        return [Design.of(points[basis]) for basis, *_ in series.PARTS[model.n]]
    return [Design.of(points)] * len(series.PARTS[model.n])


def _design(model: ModelSpec, designs: list[Design], shots,
            chis: list[np.ndarray] | None = None) -> list[_Subproblem]:
    """One subproblem per part, on that part's design.

    With ``chis`` given, one per part, the frequencies are their exact
    probabilities (the infinite-shot limit); otherwise they are left at zero.
    """
    return [_subproblem(model, part, design, _coerce_allocation(shots, len(design), basis),
                        None if chis is None else np.clip(_born(chis[part], part), 0.0, 1.0))
            for part, ((basis, *_), design) in enumerate(zip(series.PARTS[model.n], designs))]


def _born(chi: np.ndarray, part: int) -> np.ndarray:
    """p(+1) of the part's basis: (1 + Re chi)/2 in x, (1 + Im chi)/2 in y."""
    return 0.5 * (1.0 + (np.real(chi) if part == 0 else np.imag(chi)))


def _pack_theta(model: ModelSpec, theta, c_h: float = 0.0) -> list[np.ndarray]:
    """Split a CoefficientVector / complex array into per-part packed parameters.

    A heated model's one part carries ``c_h`` after its coefficients.
    """
    values = theta.values if isinstance(theta, CoefficientVector) else np.asarray(theta)
    if model.n == 2:
        vec = np.real(values).astype(float)
        return [np.append(vec, c_h) if model.heating else vec]
    vals = np.asarray(values, dtype=complex)
    return [vals.real.copy(), vals.imag.copy()]


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def _cost_grad_curvature(sub: _Subproblem, x: np.ndarray, cost: str):
    """Cost, gradient and curvature at the subproblem's packed parameters x.

    Computes p and dp once.  LS is the chi-square of the variance-weighted
    residuals, ML the negative log-likelihood.  The model is linear in
    theta inside the clip, so either curvature is the exact Hessian there;
    for c_h it is the Gauss-Newton part.
    """
    p, jac = sub.probability(x)
    if cost == "ls":
        sigma = np.sqrt(sub.sigma2())
        res, jac = (p - sub.freq) / sigma, jac / sigma[:, None]
        return float(np.sum(res**2)), 2.0 * jac.T @ res, 2.0 * jac.T @ jac
    f, shots = sub.freq, sub.shots
    p_safe = np.clip(p, EPS_P, 1.0 - EPS_P)
    nll = -np.sum(shots * (f * np.log(p_safe) + (1.0 - f) * np.log1p(-p_safe)))
    w = -shots * (f / p_safe - (1.0 - f) / (1.0 - p_safe))
    curv_w = shots * (f / p_safe**2 + (1.0 - f) / (1.0 - p_safe) ** 2)
    return float(nll), jac.T @ w, (jac * curv_w[:, None]).T @ jac


def cost(theta, problem: FitProblem) -> float:
    """The fit cost of the model against the dataset.

    Weighted least squares when ``problem.cost`` is 'ls', the negative
    log-likelihood when it is 'ml'.  A heated model is evaluated at c_h = 0.
    """
    return sum(_cost_grad_curvature(sub, x, problem.cost)[0]
               for sub, x in zip(problem.subproblems(), _pack_theta(problem.model, theta)))


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _newton(sub: _Subproblem, x: np.ndarray, cost: str):
    """Damped Newton from x; exits on the gradient test or stagnation.

    The clipped model makes the cost piecewise smooth, so a minimum can sit
    on an active-set boundary where the one-sided gradient stays finite.
    Exhausting the damping ladder without any relative cost decrease then
    certifies local optimality (the cost-stationary exit).  Returns the
    number of accepted steps last.
    """
    cost_val, grad, curv = _cost_grad_curvature(sub, x, cost)
    lam = 1e-12 * (np.trace(curv) / len(x) + 1.0)
    exit_reason = "max-iterations"
    steps = 0
    for _ in range(NEWTON_MAX_ITER):
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
            trial_cost, trial_grad, trial_curv = _cost_grad_curvature(sub, trial, cost)
            if trial_cost <= cost_val * (1.0 - 1e-12) - 1e-300:
                x, cost_val, grad, curv = trial, trial_cost, trial_grad, trial_curv
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                steps += 1
                break
            lam = max(lam * 10.0, 1e-10)
        if not accepted:
            exit_reason = "cost-stationary"
            break
    return x, cost_val, grad, exit_reason, steps


def _solve_subproblem(sub: _Subproblem, cost: str, center: np.ndarray) -> tuple[np.ndarray, dict]:
    """Minimize one subproblem with `_newton`, keeping the lower cost reached.

    The clip makes the cost piecewise with several local minima, so Newton
    runs from zero and from ``center`` (once if they coincide).  Raises
    NonConvergenceError when the kept fit ended at the iteration limit.
    """
    zero = np.zeros_like(center)
    fits = [_newton(sub, start, cost) for start in [zero] + ([center] if center.any() else [])]
    x, cost_val, grad, reason, _ = min(fits, key=lambda fit: fit[1])
    gnorm = float(np.linalg.norm(grad))
    diag = {"cost": cost_val, "grad_norm": gnorm, "iterations": sum(fit[4] for fit in fits),
            "starts": len(fits), "exit": reason}
    if reason == "max-iterations":
        diag["best_parameters"] = x.tolist()
        raise NonConvergenceError(
            f"no convergence after {len(fits)} starts (gradient norm {gnorm:.3e})",
            report=diag,
        )
    return x, diag


def _fit(model: ModelSpec, subs: list[_Subproblem], cost: str):
    """Solve every part's subproblem and reassemble (coefficients, c_h, diagnostics).

    Each part's center is the exact coefficients for the first part and
    zero for the imaginary one, with c_h = 0 for a heated model.
    """
    centers = _pack_theta(model, np.real(series.truth_coefficients(model.n, model.n_bar).values))
    xs, diags = zip(*(_solve_subproblem(sub, cost, center) for sub, center in zip(subs, centers)))
    n_coeffs = model.n_coeffs
    theta = xs[0][:n_coeffs] if model.n == 2 else xs[0][:n_coeffs] + 1j * xs[1][:n_coeffs]
    c_h = float(xs[0][n_coeffs]) if model.heating else None
    return CoefficientVector(model.n, theta, n_bar=model.n_bar), c_h, list(diags)


def minimize(problem: FitProblem) -> EstimationReport:
    """Fit the model coefficients to the dataset.

    Order-3 problems are solved as independent real and imaginary
    subproblems.  The report covariance is the inverse Fisher information
    at the fitted parameters under the dataset's shot allocation.  When
    its condition number exceeds MAX_FISHER_CONDITION the diagnostics
    mark the fit not ``identifiable`` and an IdentifiabilityWarning is
    emitted; the fit is still returned.
    """
    model = problem.model
    subs = problem.subproblems()
    coeffs, c_h, diags = _fit(model, subs, problem.cost)
    _, info = _fisher_parts(subs, _pack_theta(model, coeffs, c_h))
    cov, condition = _safe_inverse(info)
    identifiable = condition <= MAX_FISHER_CONDITION
    if not identifiable:
        warnings.warn(f"Fisher condition number {condition:.0f} exceeds {MAX_FISHER_CONDITION:g}: "
                      "the design does not identify every fitted parameter, so the estimate "
                      "can sit far from the truth", IdentifiabilityWarning, stacklevel=2)
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
                     "n_records": len(problem.dataset), "fisher_condition": condition,
                     "identifiable": identifiable},
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


def _fisher_parts(subs: list[_Subproblem], packed: list[np.ndarray]):
    """Per part (p, Fisher-weighted dp), and the total information I = sum_k N_k I_k."""
    size = len(packed[0])
    parts, info = [], np.zeros((len(subs) * size,) * 2)
    for k, (sub, x) in enumerate(zip(subs, packed)):
        p, dp = sub.probability(x)
        p_safe = np.clip(p, EPS_P, 1.0 - EPS_P)
        dp_w = dp * (sub.shots / (p_safe * (1.0 - p_safe)))[:, None]
        parts.append((p, dp_w))
        info[k * size:(k + 1) * size, k * size:(k + 1) * size] = dp_w.T @ dp
    return parts, info


def fisher_information(theta: CoefficientVector, points: Design | Sequence[MeasurementPoint],
                       shots) -> np.ndarray:
    """Total Fisher information I = sum_k N_k I_k of the unheated model at theta.

    Real parameter ordering: the 3 coefficients for order 2, or
    [Re theta..., Im theta...] for order 3.  ``points`` and ``shots`` may
    each be a dict keyed by basis, giving each part its own rows.  Raises
    RankDeficiencyError naming the flat direction when singular.
    """
    model = ModelSpec(theta.n, theta.n_bar)
    _, info = _fisher_parts(_design(model, _part_designs(model, points), shots),
                            _pack_theta(model, theta))
    _checked_eigh(info)
    return info


def systematic_bias(theta_star: CoefficientVector, points: Design | Sequence[MeasurementPoint],
                    shots, cutoff: int = fockspace.DEFAULT_CUTOFF) -> np.ndarray:
    """Linearized truncation bias I^-1 F (p_exact - p_model) at theta_star.

    The exact probabilities come from the closed forms (order 2) or the
    Fock-space numerics (order 3) at the grid's own thermal occupation.
    ``points`` and ``shots`` may each be a dict keyed by basis, giving each
    part its own rows; parts on equal designs share one exact chi.
    """
    model = ModelSpec(theta_star.n, theta_star.n_bar)
    designs = _part_designs(model, points)

    def exact_chi():
        first = sampler.analytic_chi_grid(designs[0], model.n, cutoff)
        return [first if design == designs[0] else
                sampler.analytic_chi_grid(design, model.n, cutoff) for design in designs]

    return _bias_and_information(theta_star, _design(model, designs, shots), exact_chi)[0]


def _bias_and_information(theta_star: CoefficientVector, subs: list[_Subproblem],
                          exact_chi) -> tuple[np.ndarray, np.ndarray]:
    """`systematic_bias` on the parts' subproblems, and the Fisher information I.

    ``exact_chi()`` returns the untruncated chi of each part's rows; it is
    called only once I has passed the rank check, so a singular design
    raises RankDeficiencyError before any exact chi is computed.
    """
    model = ModelSpec(theta_star.n, theta_star.n_bar)
    parts, info = _fisher_parts(subs, _pack_theta(model, theta_star))
    _checked_eigh(info)
    rhs = np.concatenate([dp_w.T @ (_born(chi, part) - p)
                          for part, ((p, dp_w), chi) in enumerate(zip(parts, exact_chi()))])
    delta = np.linalg.solve(info, rhs)
    if model.n == 2:
        return delta.astype(complex), info
    size = model.n_coeffs
    return delta[:size] + 1j * delta[size:], info


# ---------------------------------------------------------------------------
# Grid builders
# ---------------------------------------------------------------------------


def grid_axes(xi_max: float, r_max: float, d_xi: float,
              d_r: float) -> tuple[np.ndarray, np.ndarray]:
    """The axes of `build_grid`: xi in d_xi..xi_max and r in d_r..r_max.

    Each axis holds the multiples of its spacing up to its maximum, rounded
    to the nearest count, so a smaller design's axes are prefixes of a
    larger one's.
    """
    if d_xi <= 0 or d_r <= 0:
        raise InvalidParameterError("grid spacings must be positive")
    if xi_max < d_xi or r_max < d_r:
        raise InvalidParameterError("grid maxima must reach at least one spacing")
    return (d_xi * np.arange(1, int(round(xi_max / d_xi)) + 1),
            d_r * np.arange(1, int(round(r_max / d_r)) + 1))


def build_grid(xi_max: float, r_max: float, d_xi: float, d_r: float,
               n_bar: float = 0.0) -> Design:
    """Square lattice of real displacements on `grid_axes`, r-major, at squeeze phase 0."""
    xis, rs = grid_axes(xi_max, r_max, d_xi, d_r)
    return Design(np.tile(xis, len(rs)), np.repeat(rs, len(xis)), n_bar=n_bar)


def build_grid_complex(re_max: float, im_max: float, r_max: float,
                       n_re: int = 10, n_im: int = 10, n_r: int = 3,
                       n_bar: float = 0.0) -> Design:
    """3-D grid over (Re xi, Im xi, r) for the order-3 estimator, r-major then
    Im xi, at squeeze phase 0."""
    if min(n_re, n_im, n_r) < 1:
        raise InvalidParameterError("grid needs at least one point per axis")
    res = np.linspace(0.0, re_max, n_re)
    ims = np.linspace(0.0, im_max, n_im)
    rs = np.linspace(0.0, r_max, n_r)
    xi = np.empty(n_r * n_im * n_re, dtype=complex)
    xi.real = np.tile(res, n_r * n_im)
    xi.imag = np.tile(np.repeat(ims, n_re), n_r)
    return Design(xi, np.repeat(rs, n_im * n_re), n_bar=n_bar)


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
    """Expected total error of order-2 designs at a fixed shot budget.

    Each cell is the `build_grid` design at (xi_max, r_max), scored as
    rmse = sqrt(mean_j(bias_j^2 + var_j)) from the linearized systematic
    bias and the Fisher covariance; a rank-deficient cell scores inf.  Every
    cell is a prefix block [:n_r, :n_xi] of the lattice of the largest
    maxima, so that lattice and its exact chi are built once and each cell
    reads slices of them.
    """
    theta_star = series.truth_coefficients(2, n_bar)
    model = ModelSpec(2, n_bar)
    xi_maxes = np.asarray(list(xi_maxes), dtype=float)
    r_maxes = np.asarray(list(r_maxes), dtype=float)
    xi_axis, r_axis = grid_axes(xi_maxes.max(), r_maxes.max(), d_xi, d_r)
    xi_axis = xi_axis.astype(complex)
    chi = np.stack([charfunc.chi_reference(xi_axis, charfunc.SqueezeSpec(n=2, r=float(r)),
                                           n_bar, cutoff) for r in r_axis])
    out = np.empty((len(r_maxes), len(xi_maxes)))
    for i, r_max in enumerate(r_maxes):
        for j, xi_max in enumerate(xi_maxes):
            n_xi, n_r = map(len, grid_axes(xi_max, r_max, d_xi, d_r))
            design = Design(np.tile(xi_axis[:n_xi], n_r), np.repeat(r_axis[:n_r], n_xi))
            alloc = sampler.allocate_shots(n_xi * n_r, total_shots)
            try:
                bias, info = _bias_and_information(theta_star, _design(model, [design], alloc),
                                                   lambda: [chi[:n_r, :n_xi].ravel()])
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
    if degree < 0:
        raise InvalidParameterError(f"extrapolation degree must be non-negative, got {degree}")
    if len({rep.model.n for rep in reports}) > 1:
        raise InvalidParameterError("cannot extrapolate reports of different model orders")
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


def fit_exact_frequencies(points: Design | Sequence[MeasurementPoint], model: ModelSpec,
                          shots, chi_values: np.ndarray | None = None,
                          cost: str = "ml"):
    """Fit in the infinite-shot limit, with frequencies set to the exact
    probabilities of the untruncated characteristic function.

    Isolates the systematic (truncation) part of the estimate: the result
    should sit at theta_star plus the linearized bias.
    """
    design = Design.of(points)
    if chi_values is None:
        chi_values = sampler.analytic_chi_grid(design, model.n)
    n_parts = len(series.PARTS[model.n])
    coeffs, c_h, _ = _fit(model, _design(model, [design] * n_parts, shots,
                                         [chi_values] * n_parts), cost)
    return coeffs, c_h


def monte_carlo_recovery(points: Design | Sequence[MeasurementPoint], model: ModelSpec,
                         total_shots: int, repeats: int, seed: int,
                         chi_values: np.ndarray | None = None, cost: str = "ls"):
    """Repeated seeded fits against freshly sampled datasets.

    Returns (thetas, c_hs): fitted coefficients of shape (repeats, J) and,
    for heated models, the fitted heating parameters (else None).  Each
    repeat draws all its counts from one child stream of `seed`, which is
    faster than the per-point streams of `generate_dataset` and equally
    reproducible.
    """
    design = Design.of(points)
    if chi_values is None:
        chi_values = sampler.analytic_chi_grid(design, model.n)
    n_parts = len(series.PARTS[model.n])
    alloc = sampler.allocate_shots(len(design) * n_parts, total_shots).reshape(n_parts, -1)
    probs = [np.clip(_born(chi_values, part), 0.0, 1.0) for part in range(n_parts)]
    thetas = np.empty((repeats, model.n_coeffs), dtype=complex)
    c_hs = np.empty(repeats) if model.heating else None
    for m in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
        subs = [_subproblem(model, part, design, alloc[part],
                            rng.binomial(alloc[part], probs[part]) / alloc[part])
                for part in range(n_parts)]
        coeffs, c_h, _ = _fit(model, subs, cost)
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
