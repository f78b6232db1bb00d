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
import warnings
from functools import lru_cache

import numpy as np

from .errors import (InvalidDimensionError, InvalidParameterError, TruncationWarning,
                     UnsupportedOrderError)

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


def truncation_guard(rho: np.ndarray, xis=()) -> bool:
    """Whether chi read from rho at ``xis`` leans on the truncation; warns if so.

    The guard trips when rho's tail population exceeds TAIL_TOLERANCE or
    some |xi|^2 exceeds cutoff/10, and then emits one TruncationWarning.
    """
    tail = tail_population(rho)
    max_xi2 = np.abs(np.asarray(xis, dtype=complex)).max(initial=0.0) ** 2
    tripped = bool(tail > TAIL_TOLERANCE or max_xi2 > rho.shape[0] / 10.0)
    if tripped:
        warnings.warn(f"truncation guard tripped on a prepared state (tail population "
                      f"{tail:.2e}, max |xi|^2 = {max_xi2:.2f})", TruncationWarning, stacklevel=3)
    return tripped


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


# Points evaluated together by `weyl_expectation`; bounds its (points x d) temporaries.
_POINT_BLOCK = 256


def weyl_expectation(rho: np.ndarray, xis) -> np.ndarray:
    """Tr(rho D(xi)) on the truncated space, over an array of displacements.

    rho must be Hermitian.  Uses D(|xi| e^{i phi}) = R V e^{-i|xi| w} V^dag R^dag,
    with (w, V) the eigendecomposition of i(A^dag - A) (one per cutoff) and
    R = e^{i phi A^dag A}.  The weights diag(V^dag R^dag rho R V)_k equal
    G[0, k] + 2 Re sum_{q>0} e^{i phi q} G[q, k], where
    G[q, k] = sum_m conj(V[m, k]) rho[m, m+q] V[m+q, k] sums rho along its
    q-th diagonal (the diagonals below are the conjugates, as rho is
    Hermitian).  So each state costs one O(d^3) pass to build G, each
    distinct direction phi one (d-1)-term row product against G, and each
    point O(d).  Directions are grouped on arg(xi) rounded to 14 decimals,
    so the points of one ray share their weights even when their phases
    differ in the last bits; the points are taken in blocks, sorted by
    direction.  Agrees with Tr(rho `displacement`(xi)) to roundoff.
    """
    rho = np.asarray(rho)
    d = rho.shape[0]
    w, v = _quadrature_eigh(d)
    z = np.asarray(xis, dtype=complex)
    flat = z.ravel()
    if not np.all(np.isfinite(flat)):
        raise InvalidParameterError("displacement amplitude must be finite")
    vc = v.conj()
    g = np.array([rho.diagonal(q) @ (vc[: d - q] * v[q:]) for q in range(d)])
    phis, ray = np.unique(np.round(np.angle(flat), 14), return_inverse=True)
    order = np.argsort(ray, kind="stable")
    mags = np.abs(flat)
    offsets = np.arange(1, d)
    out = np.empty(flat.shape, dtype=complex)
    for start in range(0, flat.size, _POINT_BLOCK):
        idx = order[start : start + _POINT_BLOCK]
        rays = ray[idx]  # sorted, so the block's directions are phis[lo : rays[-1] + 1]
        lo = rays[0]
        phases = np.exp(1j * np.outer(phis[lo : rays[-1] + 1], offsets))
        weights = g[0].real + 2.0 * (phases @ g[1:]).real
        out[idx] = np.einsum("pk,pk->p", np.exp(-1j * np.outer(mags[idx], w)), weights[rays - lo])
    return out.reshape(z.shape)


def squeeze_eigh(n: int, zeta: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of i (zeta* A^n - zeta A^dag^n) / n!.

    exp(f (zeta* A^n - zeta A^dag^n) / n!) = V e^{-i f w} V^dag for every
    real f, so a pulse splits into exact unitary steps of any area.
    """
    if not 2 <= n <= 4:
        raise UnsupportedOrderError(f"squeezing order must be 2, 3 or 4, got {n}")
    an = np.linalg.matrix_power(annihilation(cutoff), n)
    return np.linalg.eigh(1j * ((np.conj(zeta) * an - zeta * an.conj().T) / math.factorial(n)))


def squeeze_unitary(n: int, zeta: complex, cutoff: int) -> np.ndarray:
    """Order-n squeezing unitary exp((zeta* A^n - zeta A^dag^n) / n!) at any |zeta|."""
    w, v = squeeze_eigh(n, zeta, cutoff)
    return (v * np.exp(-1j * w)) @ v.conj().T


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
