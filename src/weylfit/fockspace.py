"""Truncated Fock-space linear algebra for a qubit-coupled oscillator.

Everything is dense complex linear algebra in the number basis
|0>, ..., |d-1| with an explicit cutoff d.  Unitaries are built by
eigendecomposition of the Hermitian i*(generator), which keeps them
exactly unitary up to roundoff even when the generator is close to
nilpotent.  The master-equation integrator is fixed-step RK4, so runs
are bit-reproducible for a given step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(op @ self.matrix))

    def tail_population(self) -> float:
        pops = np.real(np.diag(self.matrix))
        if self.dim == 2 * self.cutoff:
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


def expm_antihermitian(generator: np.ndarray) -> np.ndarray:
    """exp(K) for anti-Hermitian K, via eigendecomposition of i*K.

    i*K is Hermitian, so the result is unitary up to roundoff regardless
    of the near-nilpotent ladder structure of K.
    """
    h = 1j * generator
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


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
    gen = xi * a.conj().T - np.conj(xi) * a
    u = expm_antihermitian(gen)
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
def squeeze_unitary(n: int, zeta: complex, cutoff: int) -> np.ndarray:
    """Order-n squeezing unitary exp((zeta* A^n - zeta A^dag^n) / n!) at any |zeta|.

    Cached per (n, zeta, cutoff) and returned read-only, so the Fock-space
    characteristic functions and the protocol's exact pulse share one build.
    """
    if not 2 <= n <= 4:
        raise UnsupportedOrderError(f"squeezing order must be 2, 3 or 4, got {n}")
    a = annihilation(cutoff).matrix
    an = np.linalg.matrix_power(a, n)
    gen = (np.conj(zeta) * an - zeta * an.conj().T) / math.factorial(n)
    u = expm_antihermitian(gen)
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


def lindblad_rhs(rho: np.ndarray, h: np.ndarray,
                 jumps: Sequence[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """d rho / dt for given H and precomputed jump tuples (L, L^dag L, rate)."""
    out = -1j * (h @ rho - rho @ h)
    for l_op, ldl, rate in jumps:
        out += rate * (l_op @ rho @ l_op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def rk4(x: np.ndarray, rhs: Callable, duration: float, max_dt: float,
        t_offset: float = 0.0) -> np.ndarray:
    """Fixed-step classic Runge-Kutta for dx/dt = rhs(x, t) over ``duration``.

    Takes the fewest equal steps no longer than ``max_dt``.
    """
    n_steps = max(1, int(math.ceil(duration / max_dt - 1e-12)))
    dt = duration / n_steps
    for i in range(n_steps):
        t = t_offset + i * dt
        k1 = rhs(x, t)
        k2 = rhs(x + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(x + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def evolve_lindblad(rho0: DensityOperator, spec: LindbladSpec,
                    t_span: tuple[float, float], dt: float) -> DensityOperator:
    """Fixed-step `rk4` integration of the Lindblad master equation.

    The step must satisfy dt * ||H|| <= 0.05; the trace may drift by at
    most 1e-8 over the run, otherwise an AccuracyError reports the drift.
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

    rho = rho0.matrix.astype(complex)
    trace0 = np.trace(rho).real
    rho = rk4(rho, lambda m, t: lindblad_rhs(m, spec.hamiltonian_at(t, dim), jumps),
              duration, dt, t_offset=t0)

    drift = abs(np.trace(rho).real - trace0)
    if drift > 1e-8:
        raise AccuracyError(f"trace drift {drift:.3e} exceeds 1e-8", drift=drift)

    out = DensityOperator(rho0.cutoff, rho)
    if out.tail_population() > TAIL_TOLERANCE:
        out = DensityOperator(rho0.cutoff, rho, truncation_flagged=True)
    return out
