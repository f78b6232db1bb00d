"""Truncated Fock-space linear algebra for a qubit-coupled oscillator.

Everything is dense complex linear algebra in the number basis
|0>, ..., |d-1| with an explicit cutoff d.  Unitaries are built by
eigendecomposition of the Hermitian i*(generator), which keeps them
exactly unitary up to roundoff even when the generator is close to
nilpotent.  Motional heating (jumps a and a^dag at equal rates) has an
exact flow too, `heating_flow`, from one eigendecomposition per diagonal
of rho.  The dense master equation, `evolve_lindblad`, is fixed-step RK4,
bit-reproducible for a given step size, and serves as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AccuracyError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidStepError,
    UnsupportedOrderError,
)

# Fraction of top Fock levels watched by the truncation guard, and the
# population they may carry before a result is flagged.
TAIL_FRACTION = 0.1
TAIL_TOLERANCE = 1e-8

# Step-size rule for the RK4 integrator: dt * ||H|| must stay below this.
STEP_RULE = 0.05

DEFAULT_CUTOFF = 100


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense operator on the truncated oscillator space."""

    cutoff: int
    matrix: np.ndarray
    truncation_flagged: bool = False

    def dag(self) -> "TruncatedOperator":
        return TruncatedOperator(self.cutoff, self.matrix.conj().T, self.truncation_flagged)


@dataclass(frozen=True)
class StateVector:
    """Pure state of the truncated oscillator."""

    cutoff: int
    amplitudes: np.ndarray
    truncation_flagged: bool = False

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tail_population(self) -> float:
        k = tail_start(self.cutoff)
        return float(np.sum(np.abs(self.amplitudes[k:]) ** 2))

    def to_density(self) -> "DensityOperator":
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.cutoff, rho, self.truncation_flagged)


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix of the oscillator (d x d) or qubit+oscillator (2d x 2d)."""

    cutoff: int
    matrix: np.ndarray
    truncation_flagged: bool = False

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(op @ self.matrix))

    def tail_population(self) -> float:
        pops = np.real(np.diag(self.matrix))
        if self.matrix.shape[0] == 2 * self.cutoff:
            pops = pops[: self.cutoff] + pops[self.cutoff :]
        k = tail_start(self.cutoff)
        return float(np.sum(pops[k:]))


def tail_start(cutoff: int) -> int:
    """First Fock index belonging to the watched top-10% tail."""
    return cutoff - max(1, int(np.ceil(TAIL_FRACTION * cutoff)))


def annihilation(cutoff: int) -> TruncatedOperator:
    """Ladder operator with <n-1|A|n> = sqrt(n)."""
    if cutoff < 2:
        raise InvalidDimensionError(f"cutoff must be >= 2, got {cutoff}")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ns = np.arange(1, cutoff)
    a[ns - 1, ns] = np.sqrt(ns)
    return TruncatedOperator(cutoff, a)


def number_operator(cutoff: int) -> TruncatedOperator:
    a = annihilation(cutoff)
    return TruncatedOperator(cutoff, a.matrix.conj().T @ a.matrix)


def fock_state(n: int, cutoff: int) -> StateVector:
    if not 0 <= n < cutoff:
        raise InvalidDimensionError(f"Fock index {n} outside cutoff {cutoff}")
    amp = np.zeros(cutoff, dtype=complex)
    amp[n] = 1.0
    return StateVector(cutoff, amp)


def vacuum_state(cutoff: int) -> StateVector:
    return fock_state(0, cutoff)


def displacement(xi: complex, cutoff: int = DEFAULT_CUTOFF) -> TruncatedOperator:
    """Displacement unitary exp(xi A^dag - xi* A).

    The result carries ``truncation_flagged=True`` when |xi|^2 exceeds
    cutoff/10, i.e. when the displaced vacuum starts leaning on the top
    Fock levels; this is a flag, not a hard error.
    """
    xi = complex(xi)
    if not np.isfinite(xi.real) or not np.isfinite(xi.imag):
        raise InvalidParameterError("displacement amplitude must be finite")
    a = annihilation(cutoff).matrix
    w, v = np.linalg.eigh(1j * (xi * a.conj().T - np.conj(xi) * a))
    u = (v * np.exp(-1j * w)) @ v.conj().T
    flagged = abs(xi) ** 2 > cutoff / 10.0
    return TruncatedOperator(cutoff, u, truncation_flagged=flagged)


@lru_cache(maxsize=8)
def _quadrature_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of the Hermitian quadrature i(A^dag - A)."""
    a = annihilation(cutoff).matrix
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
    an = np.linalg.matrix_power(annihilation(cutoff).matrix, n)
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


def generalized_squeeze(n: int, zeta: complex, cutoff: int = DEFAULT_CUTOFF) -> TruncatedOperator:
    """`squeeze_unitary` within the supported range |zeta| <= 1."""
    zeta = complex(zeta)
    if abs(zeta) > 1.0 + 1e-12:
        raise InvalidParameterError(f"|zeta| = {abs(zeta):.3f} above supported range 1")
    return TruncatedOperator(cutoff, squeeze_unitary(n, zeta, cutoff))


def thermal_state(n_bar: float, cutoff: int = DEFAULT_CUTOFF) -> DensityOperator:
    """Diagonal Gibbs state with mean occupation n_bar.

    Populations follow the geometric law (n_bar/(1+n_bar))^n and are
    renormalized on the truncated space.  Rejects n_bar so large that the
    discarded tail would exceed 1e-10.
    """
    if n_bar < 0:
        raise InvalidParameterError("mean occupation must be non-negative")
    if n_bar == 0:
        return vacuum_state(cutoff).to_density()
    q = n_bar / (1.0 + n_bar)
    if q**cutoff > 1e-10:
        raise InvalidParameterError(
            f"n_bar = {n_bar} leaves tail population {q**cutoff:.2e} beyond cutoff {cutoff}"
        )
    pops = (1.0 - q) * q ** np.arange(cutoff)
    pops /= pops.sum()
    return DensityOperator(cutoff, np.diag(pops.astype(complex)))


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


def apply_unitary(u: TruncatedOperator, state: StateVector) -> StateVector:
    amp = u.matrix @ state.amplitudes
    norm = np.linalg.norm(amp)
    if abs(norm**2 - 1.0) > 1e-12:
        raise AccuracyError(f"norm drift {abs(norm**2 - 1.0):.3e} after unitary application")
    out = StateVector(state.cutoff, amp, state.truncation_flagged or u.truncation_flagged)
    if out.tail_population() > TAIL_TOLERANCE:
        out = StateVector(state.cutoff, amp, truncation_flagged=True)
    return out


def qubit_kron(qubit_matrix: np.ndarray, osc_matrix: np.ndarray) -> np.ndarray:
    """Operator on the joint qubit (x) oscillator space, qubit factor first."""
    return np.kron(qubit_matrix, osc_matrix)


# ---------------------------------------------------------------------------
# Lindblad master equation
# ---------------------------------------------------------------------------

HamiltonianTerm = tuple[TruncatedOperator, Callable[[float], float] | None]


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian terms (operator, coefficient schedule) plus jump operators.

    A ``None`` schedule means a constant unit coefficient.  Jump rates are
    in quanta per second.
    """

    hamiltonian: tuple[HamiltonianTerm, ...]
    jumps: tuple[tuple[TruncatedOperator, float], ...] = ()

    def __post_init__(self):
        for _, rate in self.jumps:
            if rate < 0:
                raise InvalidParameterError(f"jump rate must be non-negative, got {rate}")

    def norm_bound(self, times: np.ndarray) -> float:
        """Upper bound on ||H(t)|| over the sampled time grid."""
        bound = 0.0
        for op, coef in self.hamiltonian:
            cmax = 1.0 if coef is None else float(np.max(np.abs([coef(t) for t in times])))
            bound += cmax * float(np.linalg.norm(op.matrix, 2))
        return bound

    def hamiltonian_at(self, t: float, dim: int) -> np.ndarray:
        h = np.zeros((dim, dim), dtype=complex)
        for op, coef in self.hamiltonian:
            c = 1.0 if coef is None else coef(t)
            h += c * op.matrix
        return h


def evolve_lindblad(rho0: DensityOperator, spec: LindbladSpec,
                    t_span: tuple[float, float], dt: float) -> DensityOperator:
    """Fixed-step classic Runge-Kutta integration of the Lindblad master equation.

    Takes the fewest equal steps no longer than ``dt``, which must satisfy
    dt * ||H|| <= 0.05; the trace may drift by at most 1e-8 over the run,
    otherwise an AccuracyError reports the drift.
    """
    t0, tf = t_span
    if tf < t0:
        raise InvalidParameterError("t_span must be ordered")
    if dt <= 0:
        raise InvalidStepError("dt must be positive")
    duration = tf - t0
    if duration == 0:
        return rho0

    n_steps = max(1, int(math.ceil(duration / dt - 1e-12)))
    dt_eff = duration / n_steps
    times = t0 + dt_eff * np.arange(n_steps + 1)

    bound = spec.norm_bound(times)
    if dt_eff * bound > STEP_RULE * (1 + 1e-9):
        raise InvalidStepError(
            f"dt*||H|| = {dt_eff * bound:.3e} violates the {STEP_RULE} step rule"
        )

    dim = rho0.matrix.shape[0]
    jumps = []
    for op, rate in spec.jumps:
        l_mat = op.matrix
        if l_mat.shape[0] != dim:
            raise InvalidDimensionError("jump operator dimension does not match the state")
        jumps.append((l_mat, l_mat.conj().T @ l_mat, rate))

    def rhs(m, t):
        h = spec.hamiltonian_at(t, dim)
        out = -1j * (h @ m - m @ h)
        for l_op, ldl, rate in jumps:
            out += rate * (l_op @ m @ l_op.conj().T - 0.5 * (ldl @ m + m @ ldl))
        return out

    rho = rho0.matrix.astype(complex)
    trace0 = np.trace(rho).real
    for t in times[:-1]:
        k1 = rhs(rho, t)
        k2 = rhs(rho + (0.5 * dt_eff) * k1, t + 0.5 * dt_eff)
        k3 = rhs(rho + (0.5 * dt_eff) * k2, t + 0.5 * dt_eff)
        k4 = rhs(rho + dt_eff * k3, t + dt_eff)
        rho = rho + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    drift = abs(np.trace(rho).real - trace0)
    if drift > 1e-8:
        raise AccuracyError(f"trace drift {drift:.3e} exceeds 1e-8", drift=drift)

    out = DensityOperator(rho0.cutoff, rho)
    if out.tail_population() > TAIL_TOLERANCE:
        out = DensityOperator(rho0.cutoff, rho, truncation_flagged=True)
    return out
