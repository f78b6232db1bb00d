"""Ramsey measurement simulation: Born probabilities, finite shots, and an
exact model of the trapped-ion protocol.

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
idle slot is exact.  The heated squeezing pulse is a Strang composition
of two exact flows, the pulse unitary and `fockspace.heating_flow`, with
the step count chosen by step doubling.  The probe is exact too: its
coherence is Tr(rho D(xi)), and equal-rate a/a^dag heating is an additive
Gaussian channel that commutes with displacements, which multiplies that
trace by exp(-gamma |xi|^2 T / 3) for a probe of duration
T = |xi| / omega_eta.  States are plain (d, d) arrays; the full
qubit (x) oscillator master equation that checks both stages is a test
oracle.
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
from .errors import (AccuracyError, ConfigError, DatasetError, InvalidChiError,
                     InvalidParameterError, TruncationWarning)

OMEGA_ETA_DEFAULT = 2.0 * np.pi * 4.7e3      # phase-space displacement rate, rad/s

# Bound on the step-doubling error estimate max|rho_N - rho_2N| / 3 of the heated pulse
PULSE_TOLERANCE = 1e-9

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


def _group_states(points: Sequence[MeasurementPoint]) -> dict[tuple, list[int]]:
    """Point indices per prepared state (r, theta, n_bar), in first-seen order."""
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(points):
        groups.setdefault((p.r, p.theta, p.n_bar), []).append(i)
    return groups


def analytic_chi_grid(points: Sequence[MeasurementPoint], n: int,
                      cutoff: int = fockspace.DEFAULT_CUTOFF) -> np.ndarray:
    """Reference chi per point (`charfunc.chi_reference`), one call per state."""
    out = np.empty(len(points), dtype=complex)
    for (r, theta, n_bar), idx in _group_states(points).items():
        xis = np.array([points[i].xi for i in idx])
        out[idx] = charfunc.chi_reference(xis, charfunc.SqueezeSpec(n=n, r=r, theta=theta),
                                          n_bar, cutoff)
    return out


# ---------------------------------------------------------------------------
# Protocol simulation
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
        # negated comparisons, so that NaN fails every check
        for name in ("omega_eta", "ramp_time", "prep_hold", "idle_time", "heating_rate",
                     "prep_area"):
            value = getattr(self, name)
            bound = "positive" if name in ("omega_eta", "prep_area") else "non-negative"
            if not (value > 0 if bound == "positive" else value >= 0):
                raise InvalidParameterError(f"{name} must be {bound}, got {value}")
        if not self.cutoff >= 2:
            raise InvalidParameterError(f"cutoff must be at least 2, got {self.cutoff}")

    @property
    def prep_duration(self) -> float:
        return self.prep_hold + 2.0 * self.ramp_time

    @property
    def prep_area(self) -> float:
        # trapezoid envelope: each linear ramp contributes half its length
        return self.prep_hold + self.ramp_time


def _pulse_area(t: np.ndarray, ramp: float, hold: float) -> np.ndarray:
    """Area under the trapezoid envelope 0 -> 1 -> 0 from 0 to t (any ramp >= 0)."""
    up = np.clip(t, 0.0, ramp)
    flat = np.clip(t - ramp, 0.0, hold)
    down = np.clip(t - ramp - hold, 0.0, ramp)
    scale = 2.0 * ramp if ramp > 0 else 1.0   # up = down = 0 for a square pulse
    return (up**2 + 2.0 * ramp * down - down**2) / scale + flat


def _strang_pulse(x: np.ndarray, n: int, zeta: complex, config: ProtocolConfig,
                  n_steps: int) -> np.ndarray:
    """Heated squeezing pulse as n_steps Strang steps H(tau/2) U_k H(tau/2).

    U_k is the exact pulse unitary over step k, from the exact envelope
    area of the step; H is `fockspace.heating_flow`, and the two half steps
    between consecutive U_k run as one.
    """
    w, v = fockspace.squeeze_eigh(n, zeta, config.cutoff)
    edges = np.linspace(0.0, config.prep_duration, n_steps + 1)
    areas = np.diff(_pulse_area(edges, config.ramp_time, config.prep_hold)) / config.prep_area
    step = config.heating_rate * config.prep_duration / n_steps
    x = fockspace.heating_flow(x, 0.5 * step)
    for k, area in enumerate(areas, 1):
        u = (v * np.exp(-1j * area * w)) @ v.conj().T
        x = fockspace.heating_flow(u @ x @ u.conj().T, 0.5 * step if k == n_steps else step)
    return x


def prepare_state(n: int, r: float, theta: float, n_bar: float,
                  config: ProtocolConfig) -> np.ndarray:
    """Idle slot plus squeezing pulse on a thermal state, heating included.

    The idle slot, and at r = 0 the whole preparation, leaves a thermal
    state at the grown occupation.  Without heating the pulse Hamiltonian
    commutes with itself at all times, so the pulse is exactly
    S_n(r e^{i theta}) from `fockspace.squeeze_unitary`, at any r.  The
    heated pulse is `_strang_pulse` at 8, 16, 32, ... steps until
    max|rho_N - rho_2N| / 3 <= PULSE_TOLERANCE, returning rho_2N; both of
    its flows are CPTP, so the result is a density matrix.  Emits a
    TruncationWarning when the prepared state leans on the top Fock levels.
    """
    cutoff = config.cutoff
    zeta = complex(charfunc.SqueezeSpec(n=n, r=r, theta=theta).zeta)
    if r == 0:
        n_grown = n_bar + config.heating_rate * (config.idle_time + config.prep_duration)
        x = fockspace.thermal_state(n_grown, cutoff)
    elif config.heating_rate == 0:
        s = fockspace.squeeze_unitary(n, zeta, cutoff)
        x = s @ fockspace.thermal_state(n_bar, cutoff) @ s.conj().T
    else:
        x0 = fockspace.thermal_state(n_bar + config.heating_rate * config.idle_time, cutoff)
        x = _strang_pulse(x0, n, zeta, config, 8)
        for n_steps in (2**k for k in range(4, 13)):  # 16, 32, ..., 4096 steps
            coarse, x = x, _strang_pulse(x0, n, zeta, config, n_steps)
            if np.max(np.abs(x - coarse)) / 3.0 <= PULSE_TOLERANCE:
                break
        else:
            raise AccuracyError(f"heated pulse not within {PULSE_TOLERANCE} at {n_steps} steps")
    tail = fockspace.tail_population(x)
    if tail > fockspace.TAIL_TOLERANCE:
        warnings.warn(f"truncation guard tripped on a prepared state (r = {r}, "
                      f"tail population {tail:.2e})", TruncationWarning, stacklevel=2)
    return x


def probe_coherences(rho_b: np.ndarray, config: ProtocolConfig,
                     dphi: float, xi_magnitudes: Sequence[float]) -> np.ndarray:
    """chi-hat at the given |xi| along one drive direction.

    Tr(rho_b D(xi)) from `fockspace.weyl_expectation`, times the heating
    factor exp(-gamma |xi|^2 T / 3) of a probe of duration T = |xi| / omega_eta.
    """
    mags = np.asarray(xi_magnitudes, dtype=float)
    chi = fockspace.weyl_expectation(rho_b, mags * np.exp(1j * dphi))
    return chi * np.exp(-config.heating_rate * mags**3 / (3.0 * config.omega_eta))


def simulate_chi_grid(points: Sequence[MeasurementPoint], n: int,
                      config: ProtocolConfig, jobs: int = 1) -> np.ndarray:
    """Protocol chi-hat over a grid, one state preparation per (r, theta, n_bar).

    Each prepared state is probed once per drive direction arg(xi) of its
    points.  ``jobs`` > 1 fans the independent preparations out over worker
    threads (BLAS releases the GIL during the matmuls).
    """
    out = np.empty(len(points), dtype=complex)

    def run_state(key_idx):
        (r, theta, n_bar), idx = key_idx
        rho_b = prepare_state(n, r, theta, n_bar, config)
        rays: dict[float, list[int]] = {}
        for i in idx:
            rays.setdefault(round(float(np.angle(points[i].xi)), 12), []).append(i)
        for dphi, ray in rays.items():
            out[ray] = probe_coherences(rho_b, config, dphi, [abs(points[i].xi) for i in ray])

    items = list(_group_states(points).items())
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
    forms / Fock numerics, which carry no heating (a config with
    heating_rate > 0 raises ConfigError), or 'protocol' for the
    protocol simulation.  Precomputed ``chi_values`` short-circuit
    either source.
    The RNG stream of each record depends only on (seed, point index,
    basis), so results are independent of evaluation order.
    """
    if len(points) == 0:
        raise DatasetError("measurement grid is empty")
    bases = bases_for_order(n)
    if chi_values is not None:
        chis = np.asarray(chi_values, dtype=complex)
    elif chi_source == "analytic":
        if config is not None and config.heating_rate > 0:
            raise ConfigError("the analytic chi source has no heating model; "
                              "use --source protocol for heating_rate > 0")
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
