"""Truncated series models of the characteristic function.

The model is chi = clip((1 + sum_j theta_j f_j(xi', r, theta)) * chi0(xi')^(1+2nB))
with xi' = xi + c_h xi^2 and chi0 the free Gaussian.  Each real part of chi
is read in one Pauli basis and clipped on its own; `part_model` evaluates
one part with its analytic derivatives, and is the only place the model is
written out.  Inside the clip the model is linear in theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charfunc, fockspace
from .errors import InvalidParameterError, UnsupportedOrderError

TruthTable = {
    2: np.array([-1.0, -1.0, 0.5], dtype=complex),
    3: np.array([-1j / 3.0, -0.5, 1.0 / 6.0, -1.0 / 18.0], dtype=complex),
}

# The real parts of the model per order: (Pauli basis, offset of the series
# bracket, clip range).  Order 2 is real; order 3 splits into Re chi (x
# basis, bracket 1 + ...) and Im chi (y basis, bracket 0 + ...).  The clip
# keeps the Born probabilities well defined without distorting directions
# where the series ratio exceeds one.
PARTS = {
    2: (("x", 1.0, 0.0, 1.0),),
    3: (("x", 1.0, -1.0, 1.0), ("y", 0.0, -1.0, 1.0)),
}


@dataclass(frozen=True)
class CoefficientVector:
    """Expansion coefficients being estimated (real for n=2, complex for n=3)."""

    n: int
    values: np.ndarray
    n_bar: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if self.n not in TruthTable:
            raise UnsupportedOrderError(f"no coefficients for order {self.n}")
        expected = len(TruthTable[self.n])
        if vals.shape != (expected,):
            raise InvalidParameterError(
                f"order {self.n} takes {expected} coefficients, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


def basis_values(n: int, xi: np.ndarray, r, phase) -> np.ndarray:
    """Term values f_j(xi, r, phase), shape xi.shape + (terms,); the constant 1 is implicit.

    Order 2: r Re{xi^2 e^-ip}, r^2 |xi|^2, r^2 (Re{xi^2 e^-ip})^2.
    Order 3: r Im{xi^3 e^-ip}, r^2 |xi|^2, r^2 |xi|^4, r^2 (Im{xi^3 e^-ip})^2.
    ``r`` and ``phase`` broadcast against ``xi``: one value per row or one for all.
    """
    w = np.exp(-1j * phase)
    if n == 2:
        re2 = np.real(xi * xi * w)
        return np.stack([r * re2, r**2 * np.abs(xi) ** 2, r**2 * re2**2], axis=-1)
    if n == 3:
        im3 = np.imag(xi**3 * w)
        a2 = np.abs(xi) ** 2
        return np.stack([r * im3, r**2 * a2, r**2 * a2**2, r**2 * im3**2], axis=-1)
    raise UnsupportedOrderError(f"no term basis for order {n}")


def _basis_ch_derivative(xi_p: np.ndarray, xi2: np.ndarray, r, phase) -> np.ndarray:
    """d f_j / d c_h of the order-2 terms through xi' = xi + c_h xi^2."""
    w = np.exp(-1j * phase)
    re2 = np.real(xi_p * xi_p * w)
    dre2 = np.real(2.0 * xi_p * xi2 * w)
    dabs2 = 2.0 * np.real(np.conj(xi_p) * xi2)
    return np.stack([r * dre2, r**2 * dabs2, 2.0 * r**2 * re2 * dre2], axis=-1)


def part_terms(n: int, xi: np.ndarray, r, phase, nu: float, c_h: float = 0.0):
    """`part_model`'s theta-free factors: xi' = xi + c_h xi^2, f_j(xi') and chi0(xi')^nu."""
    xi_p = charfunc.heated_xi_values(xi, c_h)
    return xi_p, basis_values(n, xi_p, r, phase), np.exp(-0.5 * nu * np.abs(xi_p) ** 2)


def part_model(n: int, part: int, theta: np.ndarray, xi: np.ndarray, r, phase,
               nu: float, c_h: float = 0.0, with_ch_grad: bool = False, terms=None,
               jacobian: bool = True):
    """One clipped real part of the model and its derivatives.

    ``theta`` holds that part's real coefficients and ``nu`` = 1 + 2 n_bar;
    ``terms``, if given, are `part_terms` of the other arguments.  Returns
    (value, d value / d theta, d value / d c_h or None), both derivatives None
    without ``jacobian``; rows where the clip is active carry zero derivatives.
    """
    _, offset, lo, hi = PARTS[n][part]
    xi_p, b, chi0 = part_terms(n, xi, r, phase, nu, c_h) if terms is None else terms
    bracket = offset + b @ theta
    value = bracket * chi0
    if not jacobian:
        return np.clip(value, lo, hi), None, None
    interior = (value > lo) & (value < hi)
    d_theta = chi0[..., None] * b * interior[..., None]
    d_ch = None
    if with_ch_grad:
        if n != 2:
            raise UnsupportedOrderError("heating gradient only defined for order 2")
        xi2 = xi * xi
        db = _basis_ch_derivative(xi_p, xi2, r, phase)
        dchi0 = -nu * np.real(np.conj(xi_p) * xi2) * chi0
        d_ch = (bracket * dchi0 + chi0 * (db @ theta)) * interior
    return np.clip(value, lo, hi), d_theta, d_ch


def truth_coefficients(n: int, n_bar: float = 0.0) -> CoefficientVector:
    """Exact coefficient values, and the model's order and occupation rules:
    order 2 or 3, a finite n_bar >= 0, and n_bar > 0 (thermal) at order 2 only."""
    if n not in TruthTable:
        raise UnsupportedOrderError(f"no exact coefficients for order {n}")
    if not 0 <= n_bar < np.inf:  # also refuses NaN
        raise InvalidParameterError(f"mean occupation {n_bar} must be finite and >= 0")
    if n_bar > 0:
        if n != 2:
            raise UnsupportedOrderError("thermal coefficients only derived for order 2")
        g = 1.0 + 2.0 * n_bar
        vals = np.array([-g, -g, 0.5 * g**2], dtype=complex)
        return CoefficientVector(2, vals, n_bar=n_bar)
    return CoefficientVector(n, TruthTable[n].copy(), n_bar=0.0)


def eval_model(n: int, theta, xi, r: float, phase: float = 0.0,
               n_bar: float = 0.0, c_h: float = 0.0):
    """Truncated-model characteristic function at one or many xi values.

    The heating substitution xi -> xi + c_h xi^2 is applied before both the
    basis terms and the free Gaussian factor; each part of the product of
    the series bracket and chi0^(1+2 n_bar) is clipped at the end.
    """
    values = theta.values if isinstance(theta, CoefficientVector) else np.asarray(theta, dtype=complex)
    xi_in = np.asarray(xi, dtype=complex)
    xi_arr = np.atleast_1d(xi_in)
    nu = 1.0 + 2.0 * n_bar
    parts = [part_model(n, k, comp, xi_arr, r, phase, nu, c_h)[0]
             for k, comp in enumerate((values.real, values.imag)[: len(PARTS[n])])]
    out = parts[0] if n == 2 else parts[0] + 1j * parts[1]
    if xi_in.ndim == 0:
        return complex(out[0]) if n == 3 else float(out[0])
    return out


def truncation_residual(n: int, r: float, xi_grid, n_bar: float = 0.0,
                        cutoff: int = fockspace.DEFAULT_CUTOFF) -> float:
    """Max gap between the truncated model at exact coefficients and the oracle.

    The oracle is `charfunc.chi_reference`: the closed form for n=2 and the
    Fock-space numeric for n=3.
    """
    xi_grid = np.asarray(xi_grid, dtype=complex)
    model = eval_model(n, truth_coefficients(n, n_bar), xi_grid, r, 0.0, n_bar=n_bar)
    oracle = charfunc.chi_reference(xi_grid, charfunc.SqueezeSpec(n=n, r=r), n_bar, cutoff)
    return float(np.max(np.abs(oracle - model)))
