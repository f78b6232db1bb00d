"""Characteristic functions: closed forms, Fock-space numerics and the
heating substitution.

All functions accept plain complex scalars or numpy arrays for the
phase-space argument.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fockspace
from .errors import InvalidParameterError, TruncationWarning, UnsupportedOrderError

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


def chi_vacuum(xi):
    """Ground-state value exp(-|xi|^2 / 2)."""
    return np.exp(-0.5 * np.abs(xi) ** 2)


def chi_squeezed_exact(xi, spec: SqueezeSpec):
    """Closed-form Weyl function of the order-2 squeezed vacuum.

    Evaluates the vacuum Gaussian at the Bogoliubov-rotated argument pair
    (xi* ch r + xi sh r e^{-i theta}, xi ch r + xi* sh r e^{i theta});
    the result is real and in (0, 1].
    """
    if spec.n != 2:
        raise UnsupportedOrderError("closed form available for order n=2 only")
    ch, sh = np.cosh(spec.r), np.sinh(spec.r)
    u = np.conj(xi) * ch + xi * sh * np.exp(-1j * spec.theta)
    v = xi * ch + np.conj(xi) * sh * np.exp(1j * spec.theta)
    return np.real(np.exp(-0.5 * u * v))


def chi_thermal_squeezed_exact(xi, spec: SqueezeSpec, n_bar: float):
    """Squeezed thermal state: zero-T closed form raised to (1 + 2 n_bar)."""
    if spec.n != 2:
        raise UnsupportedOrderError("closed form available for order n=2 only")
    if n_bar < 0:
        raise InvalidParameterError("mean occupation must be non-negative")
    return chi_squeezed_exact(xi, spec) ** (1.0 + 2.0 * n_bar)


def chi_reference(xi, spec: SqueezeSpec, n_bar: float = 0.0,
                  cutoff: int = fockspace.DEFAULT_CUTOFF):
    """Characteristic function of the squeezed thermal state, without series truncation.

    The closed forms at order 2, the Fock-space numerics at the other orders;
    this is the oracle the truncated series models are measured against.
    """
    if spec.n == 2:
        if n_bar > 0:
            return chi_thermal_squeezed_exact(xi, spec, n_bar)
        return chi_squeezed_exact(xi, spec)
    return chi_numeric_grid(fockspace.thermal_state(n_bar, cutoff), spec, xi)


def chi_numeric_grid(rho: np.ndarray, spec: SqueezeSpec, xis: np.ndarray) -> np.ndarray:
    """Tr{S_n(zeta) rho S_n(zeta)^dag D(xi)} over an array of displacements.

    Computed on the truncated space by `fockspace.weyl_expectation`, with
    the cached `fockspace.squeeze_unitary` at any |zeta|, as the protocol
    uses it.  Emits one TruncationWarning when the squeezed state leans on
    the top Fock levels or some |xi|^2 exceeds cutoff/10; that guard is the
    only limit on zeta.
    """
    cutoff = rho.shape[0]
    s = fockspace.squeeze_unitary(spec.n, complex(spec.zeta), cutoff)
    sigma = s @ rho @ s.conj().T
    tail = fockspace.tail_population(sigma)
    max_xi2 = np.abs(np.asarray(xis, dtype=complex)).max(initial=0.0) ** 2
    if tail > fockspace.TAIL_TOLERANCE or max_xi2 > cutoff / 10.0:
        warnings.warn(
            f"truncation guard tripped (tail population {tail:.2e}, "
            f"max |xi|^2 = {max_xi2:.2f})",
            TruncationWarning,
            stacklevel=2,
        )
    return fockspace.weyl_expectation(sigma, xis)


def heated_xi_values(xis: np.ndarray, c_h: float) -> np.ndarray:
    """Leading-order heating distortion xi -> xi + c_h xi^2."""
    z = np.asarray(xis, dtype=complex)
    return z + c_h * (z * z)
