"""Truncated Fock-space linear algebra for a qubit-coupled oscillator.

Everything is dense complex linear algebra on plain numpy arrays in the
number basis |0>, ..., |d-1> with an explicit cutoff d.  Unitaries are
built by eigendecomposition of the Hermitian i*(generator), which keeps
them exactly unitary up to roundoff even when the generator is close to
nilpotent.  Motional heating (jumps a and a^dag at equal rates) has an
exact flow too, `heating_flow`, from one eigendecomposition per diagonal
of rho.  The dense master equation that checks these flows lives with the
tests, as their oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError, UnsupportedOrderError

# Fraction of top Fock levels watched by the truncation guard, and the
# population they may carry before a TruncationWarning is emitted.
TAIL_FRACTION = 0.1
TAIL_TOLERANCE = 1e-8

DEFAULT_CUTOFF = 100


def tail_start(cutoff: int) -> int:
    """First Fock index belonging to the watched top-10% tail."""
    return cutoff - max(1, int(np.ceil(TAIL_FRACTION * cutoff)))


def tail_population(rho: np.ndarray) -> float:
    """Population of the oscillator state rho on the watched top-10% tail."""
    return float(np.sum(np.real(np.diag(rho))[tail_start(rho.shape[0]):]))


def annihilation(cutoff: int) -> np.ndarray:
    """Ladder operator with <n-1|A|n> = sqrt(n)."""
    if cutoff < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ns = np.arange(1, cutoff)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


# Kept while the benchmark's per-layer metrics name it (ROADMAP item 4); no command calls it.
def displacement(xi: complex, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Displacement unitary exp(xi A^dag - xi* A)."""
    xi = complex(xi)
    if not np.isfinite(xi.real) or not np.isfinite(xi.imag):
        raise InvalidParameterError("displacement amplitude must be finite")
    a = annihilation(cutoff)
    w, v = np.linalg.eigh(1j * (xi * a.conj().T - np.conj(xi) * a))
    return (v * np.exp(-1j * w)) @ v.conj().T


@lru_cache(maxsize=8)
def _quadrature_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of the Hermitian quadrature i(A^dag - A)."""
    a = annihilation(cutoff)
    w, v = np.linalg.eigh(1j * (a.conj().T - a))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def weyl_expectation(rho: np.ndarray, xis) -> np.ndarray:
    """Tr(rho D(xi)) on the truncated space, over an array of displacements.

    Uses D(|xi| e^{i phi}) = R V e^{-i|xi| w} V^dag R^dag, with (w, V) the
    eigendecomposition of i(A^dag - A) (one per cutoff) and
    R = e^{i phi A^dag A}.  Each distinct direction phi costs one O(d^3)
    product for diag(V^dag R^dag rho R V); each point then costs O(d).
    Directions are grouped on arg(xi) rounded to 14 decimals, so the points
    of one ray share that product even when their phases differ in the last
    bits.  Agrees with Tr(rho `displacement`(xi)) to roundoff.
    """
    rho = np.asarray(rho)
    w, v = _quadrature_eigh(rho.shape[0])
    z = np.asarray(xis, dtype=complex)
    flat = z.ravel()
    if not np.all(np.isfinite(flat)):
        raise InvalidParameterError("displacement amplitude must be finite")
    phis, ray = np.unique(np.round(np.angle(flat), 14), return_inverse=True)
    mags = np.abs(flat)
    levels = np.arange(rho.shape[0])
    out = np.empty(flat.shape, dtype=complex)
    for k, phi in enumerate(phis):
        rot = np.exp(1j * phi * levels)                      # diagonal of R
        rotated = rot.conj()[:, None] * rho * rot[None, :]   # R^dag rho R
        weights = np.sum(v.conj() * (rotated @ v), axis=0)   # diag(V^dag . V)
        on_ray = ray == k
        out[on_ray] = np.exp(-1j * np.outer(mags[on_ray], w)) @ weights
    return out.reshape(z.shape)


@lru_cache(maxsize=512)
def squeeze_eigh(n: int, zeta: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of i (zeta* A^n - zeta A^dag^n) / n!, read-only.

    exp(f (zeta* A^n - zeta A^dag^n) / n!) = V e^{-i f w} V^dag for every
    real f, so a pulse splits into exact unitary steps of any area.
    """
    if not 2 <= n <= 4:
        raise UnsupportedOrderError(f"squeezing order must be 2, 3 or 4, got {n}")
    an = np.linalg.matrix_power(annihilation(cutoff), n)
    w, v = np.linalg.eigh(1j * ((np.conj(zeta) * an - zeta * an.conj().T) / math.factorial(n)))
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


@lru_cache(maxsize=512)
def squeeze_unitary(n: int, zeta: complex, cutoff: int) -> np.ndarray:
    """Order-n squeezing unitary exp((zeta* A^n - zeta A^dag^n) / n!) at any |zeta|.

    Cached per (n, zeta, cutoff) and returned read-only, so the Fock-space
    characteristic functions and the protocol's exact pulse share one build.
    """
    w, v = squeeze_eigh(n, zeta, cutoff)
    u = (v * np.exp(-1j * w)) @ v.conj().T
    u.flags.writeable = False
    return u


# Kept while the benchmark's per-layer metrics name it (ROADMAP item 4); no command calls it.
def generalized_squeeze(n: int, zeta: complex, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """`squeeze_unitary` within the supported range |zeta| <= 1."""
    zeta = complex(zeta)
    if abs(zeta) > 1.0 + 1e-12:
        raise InvalidParameterError(f"|zeta| = {abs(zeta):.3f} above supported range 1")
    return squeeze_unitary(n, zeta, cutoff)


def thermal_state(n_bar: float, cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """Diagonal Gibbs state with mean occupation n_bar (the vacuum at n_bar = 0).

    Populations follow the geometric law (n_bar/(1+n_bar))^n and are
    renormalized on the truncated space.  Rejects n_bar so large that the
    discarded tail would exceed 1e-10.
    """
    if n_bar < 0:
        raise InvalidParameterError("mean occupation must be non-negative")
    q = n_bar / (1.0 + n_bar)
    if q**cutoff > 1e-10:
        raise InvalidParameterError(
            f"n_bar = {n_bar} leaves tail population {q**cutoff:.2e} beyond cutoff {cutoff}"
        )
    pops = (1.0 - q) * q ** np.arange(cutoff)
    pops /= pops.sum()
    return np.diag(pops.astype(complex))


@lru_cache(maxsize=8)
def _heating_propagator(cutoff: int, rate_time: float) -> np.ndarray:
    """exp(rate_time * T_q) for every diagonal offset q, as one read-only (d, d, d) stack.

    The jumps A and A^dag at equal unit rates map the diagonal rho[i, i+q]
    to itself through the real symmetric tridiagonal T_q; each exponential
    comes from its eigendecomposition and is zero-padded to d x d.
    """
    levels = np.arange(cutoff, dtype=float)
    s = levels + np.append(levels[1:], 0.0)  # diagonal of A^dag A + A A^dag
    prop = np.zeros((cutoff, cutoff, cutoff))
    for q in range(cutoff):
        i, m = levels[1 : cutoff - q], cutoff - q
        off = np.diag(np.sqrt(i * (i + q)), 1)
        lam, vec = np.linalg.eigh(np.diag(-0.5 * (s[:m] + s[q:])) + off + off.T)
        prop[q, :m, :m] = (vec * np.exp(rate_time * lam)) @ vec.T
    prop.flags.writeable = False
    return prop


def heating_flow(rho: np.ndarray, rate_time: float) -> np.ndarray:
    """Hermitian rho after heating (jumps A and A^dag, each at rate gamma) for gamma*t = rate_time.

    Exact and completely positive and trace-preserving on the truncated
    space.  The diagonals of the upper triangle evolve on their own, all in
    one batched matmul; the lower triangle is their conjugate.
    """
    d = rho.shape[0]
    rows, cols = np.triu_indices(d)
    stack = (cols - rows, rows)  # diagonal offset q, position along it
    x = np.zeros((d, d), dtype=complex)
    x[stack] = rho[rows, cols]
    y = _heating_propagator(d, float(rate_time)) @ x.view(float).reshape(d, d, 2)
    y = y.reshape(d, 2 * d).view(complex)[stack]
    out = np.empty_like(x)
    out[cols, rows] = y.conj()
    out[rows, cols] = y
    return out
