"""Characteristic functions: closed forms, Fock-space numerics and the
heating substitution.

All functions accept plain complex scalars or numpy arrays for the
phase-space argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fockspace
from .errors import InvalidParameterError, UnsupportedOrderError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SqueezeSpec:
    """Squeezing order n, amplitude r >= 0 and phase theta in [0, 2 pi)."""

    n: int
    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise UnsupportedOrderError(f"squeezing order must be 2, 3 or 4, got {self.n}")
        if not 0 <= self.r < np.inf:  # also refuses NaN
            raise InvalidParameterError(f"squeezing amplitude {self.r} must be finite and >= 0")
        if not np.isfinite(self.theta):
            raise InvalidParameterError(f"squeezing phase {self.theta} must be finite")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @property
    def zeta(self) -> complex:
        return self.r * np.exp(1j * self.theta)


def chi_squeezed_exact(xi, spec: SqueezeSpec, n_bar: float = 0.0):
    """Closed-form Weyl function of the order-2 squeezed thermal state.

    Evaluates the vacuum Gaussian at the Bogoliubov-rotated argument pair
    (xi* ch r + xi sh r e^{-i theta}, xi ch r + xi* sh r e^{i theta}) and
    raises it to 1 + 2 n_bar; the result is real and in (0, 1].  A large r
    overflows cosh and sinh; any non-finite value raises
    InvalidParameterError naming r.
    """
    if spec.n != 2:
        raise UnsupportedOrderError("closed form available for order n=2 only")
    if n_bar < 0:
        raise InvalidParameterError("mean occupation must be non-negative")
    return chi_squeezed_rows(xi, spec.r, spec.theta, n_bar)


def chi_squeezed_rows(xi, r, theta, n_bar):
    """`chi_squeezed_exact` at one n_bar >= 0, with r and theta (mod 2 pi) checked as
    `SqueezeSpec` checks them and broadcast against xi; an overflow names the largest r."""
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(r), np.sinh(r)
        u = np.conj(xi) * ch + xi * sh * np.exp(-1j * theta)
        v = xi * ch + np.conj(xi) * sh * np.exp(1j * theta)
        chi = np.real(np.exp(-0.5 * u * v)) ** (1.0 + 2.0 * n_bar)  # chi ** 1.0 is chi
    if not np.isfinite(chi).all():
        raise InvalidParameterError(f"squeezing amplitude r = {np.max(r)} overflows the "
                                    "closed form")
    return chi


def chi_reference(xi, spec: SqueezeSpec, n_bar: float = 0.0,
                  cutoff: int = fockspace.DEFAULT_CUTOFF):
    """Characteristic function of the squeezed thermal state, without series truncation.

    The closed forms at order 2, the Fock-space numerics at the other orders;
    this is the oracle the truncated series models are measured against.
    """
    if spec.n == 2:
        return chi_squeezed_exact(xi, spec, n_bar)
    return chi_numeric_grid(fockspace.thermal_state(n_bar, cutoff), spec, xi)


def chi_numeric_grid(rho: np.ndarray, spec: SqueezeSpec, xis: np.ndarray) -> np.ndarray:
    """Tr{S_n(zeta) rho S_n(zeta)^dag D(xi)} over an array of displacements.

    Computed on the truncated space by `fockspace.weyl_expectation`, with
    `fockspace.squeeze_unitary` at any |zeta|, as the protocol uses it.
    `fockspace.truncation_guard` warns when the squeezed state leans on the
    top Fock levels or some |xi|^2 exceeds cutoff/10; that guard is the
    only limit on zeta.
    """
    s = fockspace.squeeze_unitary(spec.n, complex(spec.zeta), rho.shape[0])
    sigma = s @ rho @ s.conj().T
    fockspace.truncation_guard(sigma, xis)
    return fockspace.weyl_expectation(sigma, xis)


def heated_xi_values(xis: np.ndarray, c_h: float) -> np.ndarray:
    """Leading-order heating distortion xi -> xi + c_h xi^2."""
    z = np.asarray(xis, dtype=complex)
    return z + c_h * (z * z)
