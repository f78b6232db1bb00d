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
gradient and curvature.  A trial step costs one cost evaluation: the
Jacobian, gradient and curvature are built only for an accepted trial, and
the damping ladder stops once a step no longer moves x.  Unless c_h is
fitted, the model's theta-free terms are built once per subproblem.  The
loop runs from two deterministic starts, zero and the subproblem's center
(the exact coefficients, zero for an order-3 imaginary part, with c_h = 0),
and keeps the lower cost; there is no further start, so if that fit ends
at the iteration limit the solve raises NonConvergenceError.  The
``iterations`` diagnostic counts accepted Newton steps over both starts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import fockspace, sampler, series
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
        series.truth_coefficients(self.n, self.n_bar)  # the order and occupation rules
        if self.heating and self.n != 2:
            raise UnsupportedOrderError("heated model is only defined for order 2")

    @property
    def nu(self) -> float:
        return 1.0 + 2.0 * self.n_bar

    @property
    def n_coeffs(self) -> int:
        return len(series.TruthTable[self.n])


@dataclass
class FitProblem:
    """Dataset plus model and cost selection."""

    model: ModelSpec
    dataset: Dataset
    cost: str = "ls"

    def __post_init__(self):
        if not len(self.dataset):
            raise DatasetError("fit problem needs a non-empty dataset")
        # sets of the distinct values: a plain np.unique would import numpy.ma (about 20 ms)
        bases = {sampler.BASES[code] for code in set(self.dataset.basis.tolist())}
        needed = set(sampler.bases_for_order(self.model.n))
        if needed != bases:
            raise DatasetError(f"model order {self.model.n} fits bases {sorted(needed)} only, "
                               f"dataset has {sorted(bases)}")
        n_bars = set(self.dataset.points.n_bar.tolist())
        if any(not math.isclose(nb, self.model.n_bar, rel_tol=1e-9, abs_tol=1e-12)
               for nb in n_bars):
            raise DatasetError(f"dataset occupations n_B {sorted(n_bars)} differ from the "
                               f"model's n_B = {self.model.n_bar}")

    def subproblems(self) -> list[_Subproblem]:
        """One subproblem per model part, from the rows of its basis in dataset order."""
        data, freq = self.dataset, self.dataset.frequency
        masks = (data.basis == sampler.BASIS_CODES[basis]
                 for basis in sampler.bases_for_order(self.model.n))
        return [_Subproblem(self.model, part, data.points.select(rows), data.shots[rows],
                            freq[rows]) for part, rows in enumerate(masks)]


@dataclass
class EstimationReport:
    """Fit outcome: coefficients, std, error budget, diagnostics."""

    model: ModelSpec
    coefficients: CoefficientVector
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
    c_h when the model is heated.  A scalar ``shots`` fills every row;
    ``freq``, each row's +1 frequency, defaults to zeros.  ``terms``, the
    rows' theta-free `series.part_terms`, are built unless c_h moves them,
    and a `replace` copy keeps them, so it may change only freq or shots.
    """

    model: ModelSpec
    part: int
    design: Design
    shots: np.ndarray
    freq: np.ndarray | None = None
    terms: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m, d = self.model, self.design
        if not len(d):
            raise DatasetError("every model part needs at least one measurement row")
        shots = np.asarray(self.shots)
        if shots.ndim == 0:
            shots = np.full(len(d), int(shots))
        elif len(shots) != len(d):
            raise InvalidParameterError("shot allocation length does not match grid")
        freq = np.zeros(len(d)) if self.freq is None else np.asarray(self.freq, dtype=float)
        if freq.shape != (len(d),):
            raise InvalidParameterError("frequency (or chi) array shape does not match grid")
        self.shots, self.freq = shots.astype(int), freq
        if self.terms is None and not m.heating:
            self.terms = series.part_terms(m.n, d.xi, d.r, d.theta, m.nu)

    def probability(self, x: np.ndarray, jacobian: bool = True):
        """p(+1) and its Jacobian over the packed parameters x (None without ``jacobian``)."""
        model, d = self.model, self.design
        theta, c_h = (x[:-1], float(x[-1])) if model.heating else (x, 0.0)
        value, dvalue, dvalue_ch = series.part_model(model.n, self.part, theta, d.xi, d.r, d.theta,
                                                     model.nu, c_h, model.heating, self.terms,
                                                     jacobian)
        jac = dvalue if dvalue_ch is None else np.hstack([dvalue, dvalue_ch[:, None]])
        return 0.5 * (1.0 + value), None if jac is None else 0.5 * jac

    @cached_property
    def sigma(self) -> np.ndarray:  # LS residual scale: the binomial std, floored at 1/(2N)
        raw = self.freq * (1.0 - self.freq) / self.shots
        return np.sqrt(np.maximum(raw, 1.0 / (4.0 * self.shots.astype(float) ** 2)))


def _exact_subproblems(model: ModelSpec, points, shots, cutoff: int = fockspace.DEFAULT_CUTOFF,
                       chi=None) -> list[_Subproblem]:
    """Each model part's subproblem with its exact p(+1) as ``freq``.

    ``points`` and ``shots`` may each be a dict keyed by basis.  The first
    part's rows read ``chi``, else `sampler.analytic_chi_grid` at Fock
    ``cutoff``; parts on equal designs share it, a part on other rows reads
    its own, and a given ``chi`` is refused if the parts' rows differ.
    """
    designs = [Design.of(rows) for rows in _per_part(model, points)]
    if chi is not None and designs[-1] != designs[0]:
        raise InvalidParameterError(f"the given chi covers the first basis's rows only, but the "
                                    f"{series.PARTS[model.n][-1][0]} basis has other rows")
    chi = sampler.analytic_chi_grid(designs[0], model.n, cutoff) if chi is None else chi
    chis = [chi if d == designs[0] else sampler.analytic_chi_grid(d, model.n, cutoff)
            for d in designs]
    return [_Subproblem(model, part, d, alloc, sampler.born_probabilities(own)[part])
            for part, (d, alloc, own) in enumerate(zip(designs, _per_part(model, shots), chis))]


def _per_part(model: ModelSpec, value) -> list:
    """Each model part's entry: the value of the part's basis when ``value``
    is a dict keyed by basis, else ``value`` itself."""
    return [value[basis] if isinstance(value, dict) else value
            for basis, *_ in series.PARTS[model.n]]


def _pack_theta(model: ModelSpec, theta, c_h: float = 0.0) -> list[np.ndarray]:
    """Split a CoefficientVector / complex array into per-part packed parameters.

    Each part takes (Re, Im) in `series.PARTS` order; a heated model's one
    part carries ``c_h`` after its coefficients.
    """
    values = np.asarray(theta.values if isinstance(theta, CoefficientVector) else theta,
                        dtype=complex)
    return [np.append(part, c_h) if model.heating else part.copy()
            for part in (values.real, values.imag)[:len(series.PARTS[model.n])]]


def _unpack(model: ModelSpec, flat: np.ndarray) -> tuple[np.ndarray, float | None]:
    """`_pack_theta`'s parts, concatenated, as complex coefficients and c_h (None if unheated)."""
    size = model.n_coeffs
    if model.n == 2:
        return flat[:size].astype(complex), float(flat[size]) if model.heating else None
    return flat[:size] + 1j * flat[size:], None


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


def _cost(sub: _Subproblem, p: np.ndarray, cost: str) -> float:
    """The cost at p(+1): LS is the chi-square of the variance-weighted residuals,
    ML the negative log-likelihood."""
    if cost == "ls":
        return float(np.sum(((p - sub.freq) / sub.sigma) ** 2))
    if cost != "ml":
        raise InvalidParameterError(f"cost must be 'ls' or 'ml', got {cost!r}")
    f, p_safe = sub.freq, np.clip(p, EPS_P, 1.0 - EPS_P)
    return float(-np.sum(sub.shots * (f * np.log(p_safe) + (1.0 - f) * np.log1p(-p_safe))))


def _grad_curvature(sub: _Subproblem, p: np.ndarray, jac: np.ndarray, cost: str):
    """`_cost`'s gradient and curvature from p(+1) and its Jacobian: the exact Hessian
    in theta, in which the model is linear inside the clip, Gauss-Newton for c_h."""
    if cost == "ls":
        res, jac = (p - sub.freq) / sub.sigma, jac / sub.sigma[:, None]
        return 2.0 * jac.T @ res, 2.0 * jac.T @ jac
    f, shots, p_safe = sub.freq, sub.shots, np.clip(p, EPS_P, 1.0 - EPS_P)
    w = -shots * (f / p_safe - (1.0 - f) / (1.0 - p_safe))
    curv_w = shots * (f / p_safe**2 + (1.0 - f) / (1.0 - p_safe) ** 2)
    return jac.T @ w, (jac * curv_w[:, None]).T @ jac


def _cost_grad_curvature(sub: _Subproblem, x: np.ndarray, cost: str):
    """Cost, gradient and curvature at the packed parameters x, from one p and dp."""
    p, jac = sub.probability(x)
    return (_cost(sub, p, cost), *_grad_curvature(sub, p, jac, cost))


def cost(theta, problem: FitProblem) -> float:
    """The fit cost of the model against the dataset.

    Weighted least squares when ``problem.cost`` is 'ls', the negative
    log-likelihood when it is 'ml'.  A heated model is evaluated at c_h = 0.
    """
    return sum(_cost(sub, sub.probability(x, jacobian=False)[0], problem.cost)
               for sub, x in zip(problem.subproblems(), _pack_theta(problem.model, theta)))


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _newton(sub: _Subproblem, x: np.ndarray, cost: str):
    """Damped Newton from x; exits on the gradient test or stagnation.

    A trial is scored by its cost alone; the Jacobian, gradient and curvature
    are built only for an accepted one.  The clipped model makes the cost
    piecewise smooth, so a minimum can sit on an active-set boundary where
    the one-sided gradient stays finite.  Exhausting the damping ladder
    without any relative cost decrease (or reaching x + step == x, which no
    larger damping undoes) then certifies local optimality: the
    cost-stationary exit.  Returns the number of accepted steps last.
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
            if np.array_equal(trial, x):  # no larger lam can move x
                break
            p = sub.probability(trial, jacobian=False)[0]
            trial_cost = _cost(sub, p, cost)
            if trial_cost <= cost_val * (1.0 - 1e-12) - 1e-300:
                x, cost_val = trial, trial_cost
                grad, curv = _grad_curvature(sub, p, sub.probability(trial)[1], cost)
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
    theta, c_h = _unpack(model, np.concatenate(xs))
    return CoefficientVector(model.n, theta, n_bar=model.n_bar), c_h, list(diags)


def minimize(problem: FitProblem, cutoff: int = fockspace.DEFAULT_CUTOFF) -> EstimationReport:
    """Fit the model coefficients to the dataset, with their error budget.

    Order-3 problems are solved as independent real and imaginary
    subproblems.  The std comes from the inverse Fisher information at the
    fitted parameters under the dataset's shot allocation.  When its
    condition number exceeds MAX_FISHER_CONDITION the diagnostics mark the
    fit not ``identifiable`` and an IdentifiabilityWarning is emitted; the
    fit is still returned.  An unheated model's report also carries
    `systematic_bias` on each part's rows (order 3 at Fock ``cutoff``),
    mse = |bias|^2 + std^2 and rmse = sqrt(mean(mse)).
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
    var, var_h = _unpack(model, np.diag(cov))
    report = EstimationReport(
        model=model,
        coefficients=coeffs,
        std=np.sqrt(var.real + var.imag),
        c_h=c_h,
        c_h_std=None if var_h is None else float(np.sqrt(var_h)),
        diagnostics={"parts": diags, "cost_kind": problem.cost,
                     "n_records": len(problem.dataset), "fisher_condition": condition,
                     "identifiable": identifiable},
    )
    if not model.heating:
        bases = sampler.bases_for_order(model.n)
        report.bias_sys = systematic_bias(series.truth_coefficients(model.n, model.n_bar),
                                          dict(zip(bases, [sub.design for sub in subs])),
                                          dict(zip(bases, [sub.shots for sub in subs])), cutoff)
        report.mse = np.abs(report.bias_sys) ** 2 + report.std**2
        report.rmse = float(np.sqrt(np.mean(report.mse)))
    return report


def _singular(w: np.ndarray):
    """The rank rule on a Fisher matrix's ascending eigenvalues (stacked along the last axis)."""
    return w[..., 0] <= 1e-12 * np.maximum(w[..., -1], 1.0)


def _checked_eigh(info: np.ndarray):
    """Eigendecomposition of a Fisher matrix; raises if it is singular."""
    w, v = np.linalg.eigh(info)
    if _singular(w):
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


def _fisher_parts(subs: list[_Subproblem], packed: list[np.ndarray]):
    """Per part (p, Fisher-weighted dp), and the total information I = sum_k N_k I_k."""
    size = len(packed[0])
    parts, info = [], np.zeros((len(subs) * size,) * 2)
    for k, (sub, x) in enumerate(zip(subs, packed)):
        p, dp = sub.probability(x)
        dp_w, info[k * size:(k + 1) * size, k * size:(k + 1) * size] = _weighted_information(
            dp, sub.shots, _binomial_variance(p))
        parts.append((p, dp_w))
    return parts, info


def _binomial_variance(p: np.ndarray) -> np.ndarray:
    """p(1 - p) of each row, with p clipped to [EPS_P, 1 - EPS_P]."""
    p_safe = np.clip(p, EPS_P, 1.0 - EPS_P)
    return p_safe * (1.0 - p_safe)


def _weighted_information(dp: np.ndarray, shots, var: np.ndarray):
    """Fisher-weighted dp_w = dp N / var of each row, and the information dp_w^T dp."""
    dp_w = dp * (shots / var)[:, None]
    return dp_w, dp_w.T @ dp


def fisher_information(theta: CoefficientVector, points: Design | Sequence[MeasurementPoint],
                       shots) -> np.ndarray:
    """Total Fisher information I = sum_k N_k I_k of the unheated model at theta.

    Real parameter ordering: the 3 coefficients for order 2, or
    [Re theta..., Im theta...] for order 3.  ``points`` and ``shots`` may
    each be a dict keyed by basis, giving each part its own rows.  Raises
    RankDeficiencyError naming the flat direction when singular.
    """
    model = ModelSpec(theta.n, theta.n_bar)
    subs = [_Subproblem(model, part, Design.of(rows), alloc) for part, (rows, alloc)
            in enumerate(zip(_per_part(model, points), _per_part(model, shots)))]
    _, info = _fisher_parts(subs, _pack_theta(model, theta))
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
    subs = _exact_subproblems(model, points, shots, cutoff)
    parts, info = _fisher_parts(subs, _pack_theta(model, theta_star))
    _checked_eigh(info)
    rhs = np.concatenate([dp_w.T @ (sub.freq - p) for (p, dp_w), sub in zip(parts, subs)])
    return _unpack(model, np.linalg.solve(info, rhs))[0]


# ---------------------------------------------------------------------------
# Grid builders
# ---------------------------------------------------------------------------


def axis_count(maximum: float, spacing: float) -> int:
    """The multiples of ``spacing`` up to ``maximum``, rounded to the nearest count and
    counted before any array exists; a spacing or ratio that gives none is refused."""
    if not spacing > 0:
        raise InvalidParameterError("grid spacings must be positive")
    ratio = maximum / spacing
    if not math.isfinite(ratio):
        raise InvalidParameterError(f"grid axis {maximum} / {spacing} has no finite point count")
    return round(ratio)


def grid_axes(xi_max: float, r_max: float, d_xi: float,
              d_r: float) -> tuple[np.ndarray, np.ndarray]:
    """The axes of `build_grid`: xi in d_xi..xi_max and r in d_r..r_max.

    Each axis holds `axis_count` multiples of its spacing, so a smaller
    design's axes are prefixes of a larger one's.
    """
    n_xi, n_r = axis_count(xi_max, d_xi), axis_count(r_max, d_r)
    if xi_max < d_xi or r_max < d_r:
        raise InvalidParameterError("grid maxima must reach at least one spacing")
    return d_xi * np.arange(1, n_xi + 1), d_r * np.arange(1, n_r + 1)


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


def rmse_sweep(xi_maxes: Sequence[float], r_maxes: Sequence[float], total_shots: int,
               d_xi: float = 0.02, d_r: float = 0.02, n_bar: float = 0.0) -> np.ndarray:
    """Expected total error of order-2 designs at a fixed shot budget.

    Returns rmse[i, j] of the `build_grid` design at (xi_maxes[j],
    r_maxes[i]): sqrt(mean_j(bias_j^2 + var_j)) from the linearized
    systematic bias and the Fisher covariance, inf if rank-deficient.  The
    exact and model p, dp at theta* and p(1 - p) are evaluated once on the
    `build_grid` lattice of the largest maxima; each cell weighs its prefix
    block [:n_r, :n_xi], and the cells' 3x3 systems are solved in one batch.
    """
    if not (len(xi_maxes) and len(r_maxes)):
        raise InvalidParameterError("the sweep needs at least one xi_max and one r_max")
    # the largest design is the whole lattice: refuse it before it is built
    n_xi, n_r = axis_count(max(xi_maxes), d_xi), axis_count(max(r_maxes), d_r)
    if n_xi * n_r > total_shots:
        raise InvalidParameterError(f"a sweep lattice of {n_xi * n_r} points needs at least one "
                                    f"shot per point, but the budget is {total_shots}")
    model = ModelSpec(2, n_bar)
    lattice = build_grid(max(xi_maxes), max(r_maxes), d_xi, d_r, n_bar)
    sub, = _exact_subproblems(model, lattice, 1)
    p, dp = sub.probability(_pack_theta(model, series.truth_coefficients(2, n_bar))[0])
    var, resid = (a.reshape(n_r, n_xi) for a in (_binomial_variance(p), sub.freq - p))
    dp = dp.reshape(n_r, n_xi, -1)  # r-major
    info = np.empty((len(r_maxes), len(xi_maxes), 3, 3))
    rhs = np.empty((len(r_maxes), len(xi_maxes), 3, 1))
    for i, r_max in enumerate(r_maxes):
        for j, xi_max in enumerate(xi_maxes):
            n_xi, n_r = map(len, grid_axes(xi_max, r_max, d_xi, d_r))
            dp_w, info[i, j] = _weighted_information(
                dp[:n_r, :n_xi].reshape(-1, 3), sampler.allocate_shots(n_r * n_xi, total_shots),
                var[:n_r, :n_xi].ravel())
            rhs[i, j, :, 0] = dp_w.T @ resid[:n_r, :n_xi].ravel()
    # single-r designs leave c1, c2 collinear: unbounded error along that direction
    out = np.full(info.shape[:2], np.inf)
    ok = ~_singular(np.linalg.eigh(info).eigenvalues)
    bias = np.linalg.solve(info[ok], rhs[ok])[..., 0]
    mse = bias**2 + np.linalg.inv(info[ok]).diagonal(axis1=-2, axis2=-1)
    out[ok] = np.sqrt(np.mean(mse, axis=-1))
    return out


def zero_noise_extrapolate(reports: Sequence[EstimationReport],
                           n_bars: Sequence[float], degree: int = 2) -> EstimationReport:
    """Polynomial extrapolation of coefficient estimates to zero occupation.

    Fits one degree-`degree` polynomial per coefficient over the supplied
    occupations and evaluates it at zero; the reported variance follows
    from propagating the per-report variances through the evaluation
    weights, so it always exceeds the inputs.  Every input must be finite.
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

    values = np.stack([rep.coefficients.values for rep in reports])      # (M, J)
    variances = np.stack([rep.std**2 for rep in reports])                # (M, J)
    if not all(np.isfinite(a).all() for a in (n_bars, values, variances)):
        raise InvalidParameterError("coefficients, stds and occupations must be finite")

    model = reports[0].model
    vander = np.vander(n_bars, degree + 1, increasing=True)
    # weights of the prediction at 0: e0^T (X^T X)^-1 X^T
    gram_inv = np.linalg.inv(vander.T @ vander)
    weights = gram_inv[0] @ vander.T
    return EstimationReport(
        model=ModelSpec(model.n, 0.0),
        coefficients=CoefficientVector(model.n, weights @ values, n_bar=0.0),
        std=np.sqrt((weights**2) @ variances),
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
    should sit at theta_star plus the linearized bias.  ``points`` and
    ``shots`` may each be a dict keyed by basis, giving each part its own rows.
    """
    coeffs, c_h, _ = _fit(model, _exact_subproblems(model, points, shots, chi=chi_values), cost)
    return coeffs, c_h


def monte_carlo_recovery(points: Design | Sequence[MeasurementPoint], model: ModelSpec,
                         total_shots: int, repeats: int, seed: int,
                         chi_values: np.ndarray | None = None, cost: str = "ls"):
    """Repeated seeded fits against freshly sampled datasets.

    Returns (thetas, c_hs): fitted coefficients of shape (repeats, J) and,
    for heated models, the fitted heating parameters (else None).  Each
    repeat draws all its counts from one child stream of `seed`, in part
    order, as `sampler.generate_dataset` draws a dataset from one stream.
    """
    if repeats < 0 or seed < 0:
        raise InvalidParameterError(f"repeats and seed must be non-negative, got {repeats}, {seed}")
    bases = sampler.bases_for_order(model.n)
    alloc = sampler.allocate_shots(len(points) * len(bases), total_shots).reshape(len(bases), -1)
    exact = _exact_subproblems(model, points, dict(zip(bases, alloc)), chi=chi_values)
    thetas = np.empty((repeats, model.n_coeffs), dtype=complex)
    c_hs = np.empty(repeats) if model.heating else None
    for m in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
        subs = [replace(sub, freq=rng.binomial(sub.shots, sub.freq) / sub.shots) for sub in exact]
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
