"""Reference implementations that no command computes with.

The dense master-equation oracle integrates the full Lindblad equation
with fixed-step RK4 (bit-reproducible for a given step size), so that the
exact flows of `weylfit.sampler` and `weylfit.fockspace` have an
independent check.  Operators and states are plain numpy arrays.

The per-record sampler draws each record from its own
`record_seed_sequence` stream with one numpy Generator per record, the
way `sampler.generate_dataset` is defined; the dataset generator
computes all records in one array pass and must match it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from weylfit import fockspace, sampler
from weylfit.errors import (AccuracyError, InvalidChiError, InvalidDimensionError,
                            InvalidParameterError, WeylfitError)

# Step-size rule for the RK4 integrator: dt * ||H|| must stay below this.
STEP_RULE = 0.05


class InvalidStepError(WeylfitError):
    """Integrator step too coarse for the Hamiltonian scale."""


def qubit_kron(qubit_matrix: np.ndarray, osc_matrix: np.ndarray) -> np.ndarray:
    """Operator on the joint qubit (x) oscillator space, qubit factor first."""
    return np.kron(qubit_matrix, osc_matrix)


HamiltonianTerm = tuple[np.ndarray, Callable[[float], float] | None]


@dataclass(frozen=True)
class LindbladSpec:
    """Hamiltonian terms (operator, coefficient schedule) plus jump operators.

    A ``None`` schedule means a constant unit coefficient.  Jump rates are
    in quanta per second.
    """

    hamiltonian: tuple[HamiltonianTerm, ...]
    jumps: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        for _, rate in self.jumps:
            if rate < 0:
                raise InvalidParameterError(f"jump rate must be non-negative, got {rate}")

    def norm_bound(self, times: np.ndarray) -> float:
        """Upper bound on ||H(t)|| over the sampled time grid."""
        bound = 0.0
        for op, coef in self.hamiltonian:
            cmax = 1.0 if coef is None else float(np.max(np.abs([coef(t) for t in times])))
            bound += cmax * float(np.linalg.norm(op, 2))
        return bound

    def hamiltonian_at(self, t: float, dim: int) -> np.ndarray:
        h = np.zeros((dim, dim), dtype=complex)
        for op, coef in self.hamiltonian:
            c = 1.0 if coef is None else coef(t)
            h += c * op
        return h


def evolve_lindblad(rho0: np.ndarray, spec: LindbladSpec,
                    t_span: tuple[float, float], dt: float) -> np.ndarray:
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

    dim = rho0.shape[0]
    jumps = []
    for l_mat, rate in spec.jumps:
        if l_mat.shape[0] != dim:
            raise InvalidDimensionError("jump operator dimension does not match the state")
        jumps.append((l_mat, l_mat.conj().T @ l_mat, rate))

    def rhs(m, t):
        h = spec.hamiltonian_at(t, dim)
        out = -1j * (h @ m - m @ h)
        for l_op, ldl, rate in jumps:
            out += rate * (l_op @ m @ l_op.conj().T - 0.5 * (ldl @ m + m @ ldl))
        return out

    rho = rho0.astype(complex)
    trace0 = np.trace(rho).real
    for t in times[:-1]:
        k1 = rhs(rho, t)
        k2 = rhs(rho + (0.5 * dt_eff) * k1, t + 0.5 * dt_eff)
        k3 = rhs(rho + (0.5 * dt_eff) * k2, t + 0.5 * dt_eff)
        k4 = rhs(rho + dt_eff * k3, t + dt_eff)
        rho = rho + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    drift = abs(np.trace(rho).real - trace0)
    if drift > 1e-8:
        raise AccuracyError(f"trace drift {drift:.3e} exceeds 1e-8")
    return rho


def probe_joint_hamiltonian(omega_eta: float, dphi: float, cutoff: int) -> np.ndarray:
    """Full qubit (x) oscillator probe Hamiltonian (qubit factor first).

    The spin-dependent force -(J0 a^dag + J0* a) (x) sigma_z / 2 with
    J0 = -i omega_eta e^{i dphi}; the halved conditioning makes the
    interbranch displacement equal to xi = omega_eta * t * e^{i dphi}.
    """
    a = fockspace.annihilation(cutoff)
    j0 = -1j * omega_eta * np.exp(1j * dphi)
    force = j0 * a.conj().T + np.conj(j0) * a
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    return qubit_kron(sigma_z, -0.5 * force)


def dense_probe_chi(point: sampler.MeasurementPoint, n: int,
                    config: sampler.ProtocolConfig) -> complex:
    """chi-hat at one point, with the probe run as the full qubit (x) oscillator Lindblad equation.

    The state is `sampler.prepare_state`; the qubit starts in |+>, heating
    acts on the oscillator as jumps a and a^dag, and chi-hat is twice the
    trace of the off-diagonal qubit block after a probe of duration
    |xi| / omega_eta.
    """
    rho_b = sampler.prepare_state(n, point.r, point.theta, point.n_bar, config)
    cutoff = config.cutoff
    h_joint = probe_joint_hamiltonian(config.omega_eta, float(np.angle(point.xi)), cutoff)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    rho0 = qubit_kron(plus, rho_b)
    jumps = ()
    if config.heating_rate > 0:
        a = fockspace.annihilation(cutoff)
        eye = np.eye(2, dtype=complex)
        jumps = tuple((qubit_kron(eye, l), config.heating_rate) for l in (a, a.conj().T))
    spec = LindbladSpec(hamiltonian=((h_joint, None),), jumps=jumps)
    duration = abs(point.xi) / config.omega_eta
    max_dt = STEP_RULE / max(spec.norm_bound(np.array([0.0])), 1e-12)
    rho_f = evolve_lindblad(rho0, spec, (0.0, duration), max_dt)
    return complex(2.0 * np.trace(rho_f[:cutoff, cutoff:]))


def born_probabilities_scalar(chi: complex) -> tuple[float, float]:
    """(p_x(+1), p_y(+1)) of one chi, in Python complex arithmetic."""
    chi = complex(chi)
    mod = abs(chi)
    if mod > 1.0 + 1e-6:
        raise InvalidChiError(f"|chi| = {mod:.8f} exceeds 1 beyond tolerance")
    if mod > 1.0:
        chi /= mod
    re, im = (0.0 if abs(c) <= 1e-12 else c for c in (chi.real, chi.imag))
    return 0.5 * (1.0 + re), 0.5 * (1.0 + im)


def sample_shots(p_plus: float, n: int, seed) -> int:
    """Exact binomial draw of the +1 count; deterministic for a fixed seed."""
    if not 0.0 <= p_plus <= 1.0:
        raise InvalidParameterError(f"probability {p_plus} outside [0, 1]")
    if n < 1:
        raise InvalidParameterError("shot count must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return int(rng.binomial(n, p_plus))


def record_seed_sequence(master_seed: int, point_index: int, basis: str) -> np.random.SeedSequence:
    """The stream of one record, as `sampler.record_state_words` defines it."""
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=(point_index, sampler.BASIS_CODES[basis]))


def dataset_from_records(records) -> sampler.Dataset:
    """The `sampler.Dataset` of a sequence of `sampler.ShotRecord` rows, in order."""
    records = list(records)
    return sampler.Dataset(sampler.Design.of([rec.point for rec in records]),
                           [sampler.BASIS_CODES[rec.basis] for rec in records],
                           [rec.shots for rec in records], [rec.plus_count for rec in records],
                           [rec.seed for rec in records])


def per_record_dataset(points, total_shots: int, n: int, seed: int,
                       chis: np.ndarray) -> sampler.Dataset:
    """`sampler.generate_dataset` from given chi values, one record at a time."""
    points = list(points)
    bases = sampler.bases_for_order(n)
    alloc = sampler.allocate_shots(len(points) * len(bases), total_shots)
    records = []
    for cell, (basis, i) in enumerate((b, i) for b in bases for i in range(len(points))):
        p_x, p_y = born_probabilities_scalar(chis[i])
        ss = record_seed_sequence(seed, i, basis)
        count = sample_shots(p_x if basis == "x" else p_y, int(alloc[cell]),
                             np.random.default_rng(ss))
        records.append(sampler.ShotRecord(point=points[i], basis=basis, shots=int(alloc[cell]),
                                          plus_count=count,
                                          seed=int(ss.generate_state(1, np.uint64)[0])))
    return dataset_from_records(records)
