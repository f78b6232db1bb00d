"""Ramsey measurement simulation: Born probabilities, finite shots, and a
master-equation model of the trapped-ion protocol.

The protocol has two stages, both run in the oscillator rotating frame:

1. State preparation.  The order-n squeezing interaction
   H = g(t) * Omega_n * (a^n e^{i vartheta} + a^dag^n e^{-i vartheta})
   acts on the oscillator (qubit parked in its +1 conditioning branch)
   with a trapezoidal envelope g(t).  The pulse area fixes the squeezing
   amplitude, r = n! * Omega_n * area, and vartheta = pi/2 - theta fixes
   the phase, so that without heating the pulse is exactly the squeezing
   unitary S_n(zeta) with zeta = r e^{i theta}.  Heating jumps act
   throughout the slot.

2. Ramsey probe.  The qubit starts in |+> and the joint system evolves
   under the spin-dependent force H = -(J0 a^dag + J0* a) (x) sigma_z/2.
   The half-strength conditioning makes the interbranch displacement
   equal xi = Omega*eta*t*e^{i dphi}, so the qubit coherence reads the
   characteristic function at xi directly.

Heating alone keeps a thermal state thermal at n_bar + gamma*t, so the
idle slot is exact, and only the heated squeezing pulse is integrated
(RK4).  The probe is exact too: its coherence is Tr(rho D(xi)), and
equal-rate a/a^dag heating is an additive Gaussian channel that commutes
with displacements, which multiplies that trace by exp(-gamma |xi|^2 T / 3)
for a probe of duration T = |xi| / omega_eta.  `simulate_protocol` can
also run the full qubit (x) oscillator master equation as the oracle for
both.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import charfunc, fockspace, series
from .errors import DatasetError, InvalidChiError, InvalidParameterError, TruncationWarning

OMEGA_ETA_DEFAULT = 2.0 * np.pi * 4.7e3      # phase-space displacement rate, rad/s

BASIS_CODES = {"x": 0, "y": 1}

CSV_FIELDS = ["re_xi", "im_xi", "r", "theta", "n_B", "basis", "shots", "plus_count", "seed"]


@dataclass(frozen=True)
class MeasurementPoint:
    """One experimental configuration at which shots are taken."""

    xi: complex
    r: float
    theta: float = 0.0
    n_bar: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise InvalidParameterError("squeezing amplitude must be non-negative")
        if self.n_bar < 0:
            raise InvalidParameterError("mean occupation must be non-negative")


@dataclass(frozen=True)
class ShotRecord:
    """Raw measurement unit: a point, a Pauli basis, and a +1 outcome count."""

    point: MeasurementPoint
    basis: str
    shots: int
    plus_count: int
    seed: int

    def __post_init__(self):
        if self.basis not in BASIS_CODES:
            raise DatasetError(f"basis must be 'x' or 'y', got {self.basis!r}")
        if not 0 <= self.plus_count <= self.shots:
            raise DatasetError("plus_count must lie in [0, shots]")
        if self.shots < 1:
            raise DatasetError("shots must be at least 1")

    @property
    def frequency(self) -> float:
        return self.plus_count / self.shots


def born_probabilities(chi: complex) -> tuple[float, float]:
    """(p_x(+1), p_y(+1)) = ((1 + Re chi)/2, (1 + Im chi)/2).

    A component within 1e-12 of zero is taken as exactly zero, so p is
    exactly 0.5 there: numpy's binomial draws n - B(n, 1 - p) when p > 0.5,
    and the sign of a roundoff-level component would otherwise pick the draw.
    """
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
    """Independent stream per (master seed, point, basis); schedule-free."""
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=(point_index, BASIS_CODES[basis]))


def allocate_shots(n_points: int, total: int) -> np.ndarray:
    """Split a shot budget equally over points, preserving the total exactly.

    Every point gets floor(total / n) and the first points share the
    remainder.
    """
    if n_points < 1:
        raise DatasetError("cannot allocate shots to an empty grid")
    if total < n_points:
        raise InvalidParameterError("need at least one shot per point")
    base = total // n_points
    alloc = np.full(n_points, base, dtype=int)
    alloc[: total - base * n_points] += 1
    return alloc


def analytic_chi_grid(points: Sequence[MeasurementPoint], n: int,
                      cutoff: int = fockspace.DEFAULT_CUTOFF) -> np.ndarray:
    """Reference chi per point (`charfunc.chi_reference`), one call per state."""
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault((p.r, p.theta, p.n_bar), []).append(i)
    out = np.empty(len(points), dtype=complex)
    for (r, theta, n_bar), idx in groups.items():
        xis = np.array([points[i].xi for i in idx])
        out[idx] = charfunc.chi_reference(xis, charfunc.SqueezeSpec(n=n, r=r, theta=theta),
                                          n_bar, cutoff)
    return out


# ---------------------------------------------------------------------------
# Master-equation protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolConfig:
    """Physical and numerical knobs of the simulated protocol.

    ``heating_rate`` is the phonon growth rate n-bar-dot in quanta/s; it is
    realized as jump operators a and a^dag, each with that rate, which
    gives exactly linear heating with no net amplitude damping.
    ``idle_time`` is the dead time of the sequence (cooling checks, pulse
    programming) between calibration of the initial occupation and the
    squeezing pulse; ``prep_hold`` is the flat-top time of the pulse.
    Both slots collect heating before the probe starts.
    """

    omega_eta: float = OMEGA_ETA_DEFAULT
    heating_rate: float = 0.0
    cutoff: int = fockspace.DEFAULT_CUTOFF
    ramp_time: float = 5.0 / (2.0 * np.pi * 20e3)  # five periods of a 20 kHz detuning
    prep_hold: float = 80e-6
    idle_time: float = 480e-6

    def __post_init__(self):
        if self.heating_rate < 0:
            raise InvalidParameterError("heating rate must be non-negative")
        if self.cutoff < 2:
            raise InvalidParameterError("cutoff must be at least 2")

    @property
    def prep_duration(self) -> float:
        return self.prep_hold + 2.0 * self.ramp_time

    @property
    def prep_area(self) -> float:
        # trapezoid envelope: each linear ramp contributes half its length
        return self.prep_hold + self.ramp_time


def _ramp_envelope(t: float, ramp: float, hold: float) -> float:
    """Trapezoid 0 -> 1 -> 0 over [0, 2*ramp + hold]."""
    if t <= 0.0:
        return 0.0
    if t < ramp:
        return t / ramp
    if t <= ramp + hold:
        return 1.0
    end = 2.0 * ramp + hold
    if t < end:
        return (end - t) / ramp
    return 0.0


class _LadderKernel:
    """Banded applications of a^n / a^dag^n and the heating dissipator.

    The drive and jump operators are all shifted diagonals in the number
    basis, so every term of the master equation is an O(d^2) elementwise
    operation; results agree with the dense-matrix path to roundoff.
    """

    def __init__(self, cutoff: int, n: int, heating_rate: float):
        self.d = cutoff
        self.n = n
        self.rate = heating_rate
        levels = np.arange(cutoff)
        prods = np.ones(cutoff - n)
        for k in range(1, n + 1):
            prods = prods * (levels[: cutoff - n] + k)
        self.wn = np.sqrt(prods)                      # <i|a^n|i+n> weights
        self.w1 = np.sqrt(levels[1:].astype(float))   # <i-1|a|i> weights
        # diagonal of a^dag a and of the truncated a a^dag
        self.k_lower = levels.astype(float)
        self.k_raise = np.concatenate([levels[1:].astype(float), [0.0]])
        self.k_sum = self.rate * (self.k_lower + self.k_raise)

    def lower_left(self, m):
        """a^n @ m"""
        out = np.zeros_like(m)
        out[: self.d - self.n] = self.wn[:, None] * m[self.n :]
        return out

    def raise_left(self, m):
        """a^dag^n @ m"""
        out = np.zeros_like(m)
        out[self.n :] = self.wn[:, None] * m[: self.d - self.n]
        return out

    def lower_right(self, m):
        """m @ a^n"""
        out = np.zeros_like(m)
        out[:, self.n :] = m[:, : self.d - self.n] * self.wn[None, :]
        return out

    def raise_right(self, m):
        """m @ a^dag^n"""
        out = np.zeros_like(m)
        out[:, : self.d - self.n] = m[:, self.n :] * self.wn[None, :]
        return out

    def dissipator(self, m):
        """Jumps a and a^dag, each at the heating rate."""
        if self.rate == 0:
            return 0.0
        out = np.zeros_like(m)
        cross = self.w1[:, None] * self.w1[None, :]
        out[: self.d - 1, : self.d - 1] = cross * m[1:, 1:]        # a m a^dag
        out[1:, 1:] += cross * m[: self.d - 1, : self.d - 1]       # a^dag m a
        out *= self.rate
        out -= 0.5 * (self.k_sum[:, None] * m + m * self.k_sum[None, :])
        return out


def prepare_state(n: int, r: float, theta: float, n_bar: float,
                  config: ProtocolConfig) -> fockspace.DensityOperator:
    """Idle slot plus squeezing pulse on a thermal state, heating included.

    The idle slot, and at r = 0 the whole preparation, leaves a thermal
    state at the grown occupation.  Without heating the pulse Hamiltonian
    commutes with itself at all times, so the pulse is exactly
    S_n(r e^{i theta}) from `fockspace.squeeze_unitary`, at any r; only the
    heated pulse is integrated (RK4).  Emits a TruncationWarning when the
    prepared state leans on the top Fock levels.
    """
    cutoff = config.cutoff
    if r == 0:
        n_grown = n_bar + config.heating_rate * (config.idle_time + config.prep_duration)
        x = fockspace.thermal_state(n_grown, cutoff).matrix
    elif config.heating_rate == 0:
        zeta = charfunc.SqueezeSpec(n=n, r=r, theta=theta).zeta
        s = fockspace.squeeze_unitary(n, complex(zeta), cutoff)
        x = s @ fockspace.thermal_state(n_bar, cutoff).matrix @ s.conj().T
    else:
        n_idle = n_bar + config.heating_rate * config.idle_time
        kern = _LadderKernel(cutoff, n, config.heating_rate)
        vartheta = 0.5 * np.pi - theta
        phase_lo, phase_hi = np.exp(1j * vartheta), np.exp(-1j * vartheta)
        omega_n = r / (math.factorial(n) * config.prep_area)
        ramp, hold = config.ramp_time, config.prep_hold

        def rhs(m, t):
            c = omega_n * _ramp_envelope(t, ramp, hold)
            hm = phase_lo * kern.lower_left(m) + phase_hi * kern.raise_left(m)
            mh = phase_lo * kern.lower_right(m) + phase_hi * kern.raise_right(m)
            return -1j * c * (hm - mh) + kern.dissipator(m)

        h_norm = 2.0 * abs(omega_n) * float(kern.wn[-1])
        jump_norm = 4.0 * config.heating_rate * cutoff
        max_dt = fockspace.STEP_RULE / max(h_norm + jump_norm, 1e-12)
        x = fockspace.rk4(fockspace.thermal_state(n_idle, cutoff).matrix, rhs,
                          config.prep_duration, max_dt)
    rho = fockspace.DensityOperator(cutoff, x)
    tail = rho.tail_population()
    if tail > fockspace.TAIL_TOLERANCE:
        warnings.warn(f"truncation guard tripped on a prepared state (r = {r}, "
                      f"tail population {tail:.2e})", TruncationWarning, stacklevel=2)
        rho = fockspace.DensityOperator(cutoff, x, truncation_flagged=True)
    return rho


def probe_joint_hamiltonian(omega_eta: float, dphi: float, cutoff: int) -> np.ndarray:
    """Full qubit (x) oscillator probe Hamiltonian (qubit factor first).

    The spin-dependent force -(J0 a^dag + J0* a) (x) sigma_z / 2 with
    J0 = -i omega_eta e^{i dphi}; the halved conditioning makes the
    interbranch displacement equal to xi = omega_eta * t * e^{i dphi}.
    """
    a = fockspace.annihilation(cutoff).matrix
    j0 = -1j * omega_eta * np.exp(1j * dphi)
    force = j0 * a.conj().T + np.conj(j0) * a
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    return fockspace.qubit_kron(sigma_z, -0.5 * force)


def probe_coherences(rho_b: fockspace.DensityOperator, config: ProtocolConfig,
                     dphi: float, xi_magnitudes: Sequence[float]) -> np.ndarray:
    """chi-hat at the given |xi| along one drive direction.

    Tr(rho_b D(xi)) from `fockspace.weyl_expectation`, times the heating
    factor exp(-gamma |xi|^2 T / 3) of a probe of duration T = |xi| / omega_eta.
    """
    mags = np.asarray(xi_magnitudes, dtype=float)
    chi = fockspace.weyl_expectation(rho_b.matrix, mags * np.exp(1j * dphi))
    return chi * np.exp(-config.heating_rate * mags**3 / (3.0 * config.omega_eta))


def simulate_protocol(point: MeasurementPoint, n: int, config: ProtocolConfig,
                      full_master_equation: bool = False) -> complex:
    """chi-hat for a single measurement point from the protocol simulation.

    The default path is `probe_coherences`; setting
    ``full_master_equation=True`` runs the complete qubit (x) oscillator
    Lindblad equation of the probe through `fockspace.evolve_lindblad`
    instead (slower, used for cross-checks).
    """
    rho_b = prepare_state(n, point.r, point.theta, point.n_bar, config)
    dphi = float(np.angle(point.xi))
    if not full_master_equation:
        return complex(probe_coherences(rho_b, config, dphi, [abs(point.xi)])[0])

    cutoff = config.cutoff
    h_joint = probe_joint_hamiltonian(config.omega_eta, dphi, cutoff)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    rho0 = fockspace.DensityOperator(cutoff, fockspace.qubit_kron(plus, rho_b.matrix))
    terms = ((fockspace.TruncatedOperator(cutoff, h_joint), None),)
    jumps = ()
    if config.heating_rate > 0:
        a = fockspace.annihilation(cutoff).matrix
        eye = np.eye(2, dtype=complex)
        jumps = tuple((fockspace.TruncatedOperator(cutoff, fockspace.qubit_kron(eye, l)),
                       config.heating_rate) for l in (a, a.conj().T))
    spec = fockspace.LindbladSpec(hamiltonian=terms, jumps=jumps)
    duration = abs(point.xi) / config.omega_eta
    max_dt = fockspace.STEP_RULE / max(spec.norm_bound(np.array([0.0])), 1e-12)
    rho_f = fockspace.evolve_lindblad(rho0, spec, (0.0, duration), max_dt)
    block01 = rho_f.matrix[:cutoff, cutoff:]
    return complex(2.0 * np.trace(block01))


def simulate_chi_grid(points: Sequence[MeasurementPoint], n: int,
                      config: ProtocolConfig, jobs: int = 1) -> np.ndarray:
    """Protocol chi-hat over a grid, one state preparation per (r, theta, n_bar).

    Each prepared state is probed once per drive direction arg(xi) of its
    points.  ``jobs`` > 1 fans the independent preparations out over worker
    threads (BLAS releases the GIL during the matmuls).
    """
    out = np.empty(len(points), dtype=complex)
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault((p.r, p.theta, p.n_bar), []).append(i)

    def run_state(key_idx):
        (r, theta, n_bar), idx = key_idx
        rho_b = prepare_state(n, r, theta, n_bar, config)
        rays: dict[float, list[int]] = {}
        for i in idx:
            rays.setdefault(round(float(np.angle(points[i].xi)), 12), []).append(i)
        for dphi, ray in rays.items():
            out[ray] = probe_coherences(rho_b, config, dphi, [abs(points[i].xi) for i in ray])

    items = list(groups.items())
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_state, items))
    else:
        for item in items:
            run_state(item)
    return out


# ---------------------------------------------------------------------------
# Dataset generation and persistence
# ---------------------------------------------------------------------------


def bases_for_order(n: int) -> tuple[str, ...]:
    """Measurement bases carrying information: x only for n=2, x and y for n=3."""
    return tuple(basis for basis, *_ in series.PARTS[n])


def generate_dataset(points: Sequence[MeasurementPoint], total_shots: int, n: int,
                     seed: int, chi_source: str = "analytic",
                     config: ProtocolConfig | None = None,
                     chi_values: np.ndarray | None = None,
                     jobs: int = 1) -> list[ShotRecord]:
    """Simulate a full shot dataset over the measurement grid.

    ``chi_source`` selects the probability model: 'analytic' closed
    forms / Fock numerics, or 'protocol' for the master-equation
    simulation.  Precomputed ``chi_values`` short-circuit either source.
    The RNG stream of each record depends only on (seed, point index,
    basis), so results are independent of evaluation order.
    """
    if len(points) == 0:
        raise DatasetError("measurement grid is empty")
    bases = bases_for_order(n)
    if chi_values is not None:
        chis = np.asarray(chi_values, dtype=complex)
    elif chi_source == "analytic":
        chis = analytic_chi_grid(points, n, config.cutoff if config else fockspace.DEFAULT_CUTOFF)
    elif chi_source == "protocol":
        chis = simulate_chi_grid(points, n, config or ProtocolConfig(), jobs=jobs)
    else:
        raise InvalidParameterError(f"unknown chi source {chi_source!r}")

    n_cells = len(points) * len(bases)
    alloc = allocate_shots(n_cells, total_shots)
    records = []
    cell = 0
    for basis in bases:
        for i, point in enumerate(points):
            p_x, p_y = born_probabilities(chis[i])
            p_plus = p_x if basis == "x" else p_y
            ss = record_seed_sequence(seed, i, basis)
            rng = np.random.default_rng(ss)
            count = sample_shots(p_plus, int(alloc[cell]), rng)
            records.append(
                ShotRecord(point=point, basis=basis, shots=int(alloc[cell]),
                           plus_count=count, seed=int(ss.generate_state(1, np.uint64)[0]))
            )
            cell += 1
    return records


def _fmt(value: float) -> str:
    return np.format_float_positional(value, precision=12, unique=False,
                                      fractional=False, trim="-")


def dataset_to_csv(records: Sequence[ShotRecord], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_FIELDS)
    for rec in records:
        p = rec.point
        writer.writerow([
            _fmt(p.xi.real), _fmt(p.xi.imag), _fmt(p.r), _fmt(p.theta), _fmt(p.n_bar),
            rec.basis, rec.shots, rec.plus_count, rec.seed,
        ])


def dataset_to_string(records: Sequence[ShotRecord]) -> str:
    buf = io.StringIO()
    dataset_to_csv(records, buf)
    return buf.getvalue()


def dataset_from_csv(stream) -> list[ShotRecord]:
    reader = csv.DictReader(stream)
    if reader.fieldnames != CSV_FIELDS:
        raise DatasetError(f"dataset header {reader.fieldnames} does not match {CSV_FIELDS}")
    records = []
    for row in reader:
        try:
            re_xi, im_xi, r, theta, n_bar = (float(row[k]) for k in CSV_FIELDS[:5])
            if not all(map(math.isfinite, (re_xi, im_xi, r, theta, n_bar))):
                raise ValueError("non-finite value")
            point = MeasurementPoint(xi=complex(re_xi, im_xi), r=r, theta=theta, n_bar=n_bar)
            records.append(ShotRecord(point=point, basis=row["basis"],
                                      shots=int(row["shots"]),
                                      plus_count=int(row["plus_count"]),
                                      seed=int(row["seed"])))
        except (ValueError, KeyError) as exc:
            raise DatasetError(f"malformed dataset row {row}: {exc}") from exc
    if not records:
        raise DatasetError("dataset contains no records")
    return records
