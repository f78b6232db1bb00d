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


def born_probabilities(chi):
    """(p_x(+1), p_y(+1)) = ((1 + Re chi)/2, (1 + Im chi)/2), elementwise.

    |chi| may exceed 1 by roundoff up to 1e-6, and such a chi is scaled
    back onto the unit circle.  A component within 1e-12 of zero is taken
    as exactly zero, so p is exactly 0.5 there: numpy's binomial draws
    n - B(n, 1 - p) when p > 0.5, and the sign of a roundoff-level
    component would otherwise pick the draw.
    """
    chi = np.asarray(chi, dtype=complex)
    re, im = chi.real, chi.imag
    mod = np.hypot(re, im)
    if np.any(mod > 1.0 + 1e-6):
        raise InvalidChiError(f"|chi| = {np.max(mod):.8f} exceeds 1 beyond tolerance")
    # real and imaginary parts divide separately, which is exactly what
    # complex / float does for a scale with no imaginary part
    scale = np.where(mod > 1.0, mod, 1.0)
    re, im = (np.where(np.abs(c) <= 1e-12, 0.0, c / scale) for c in (re, im))
    return 0.5 * (1.0 + re), 0.5 * (1.0 + im)


def record_seed_sequence(master_seed: int, point_index: int, basis: str) -> np.random.SeedSequence:
    """Independent stream per (master seed, point, basis); schedule-free.

    This defines every record's stream; `record_state_words` computes its
    PCG64 seed words for a whole dataset at once.
    """
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=(point_index, BASIS_CODES[basis]))


# Constants of numpy's SeedSequence pool hash (M. O'Neill's seed_seq mix)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _hasher(init: int, mult: int):
    """numpy's hashmix: each call xors in the running constant, steps it and multiplies."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        prev, const = const, const * mult & _MASK32
        value = (value ^ prev) * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def record_state_words(master_seed: int, point_indices: np.ndarray,
                       codes: np.ndarray) -> np.ndarray:
    """(m, 4) uint64: `record_seed_sequence(master_seed, i, basis).generate_state(4, np.uint64)`
    for every key (point_indices[k], codes[k]), in one pass of uint32 array arithmetic.

    The entropy is the seed as little-endian 32-bit words, which a seed
    below 2**64 fills or zero-pads to exactly the 4-word pool, then the
    index word and the basis-code word of the spawn key.  The seed words
    fill and mix the pool once; the two key words are mixed into it as arrays.
    """
    if not 0 <= master_seed < 2**64:
        raise InvalidParameterError(f"seed must lie in [0, 2**64), got {master_seed}")
    hashmix = _hasher(_INIT_A, _MULT_A)
    seed_words = np.array([master_seed & _MASK32, master_seed >> 32, 0, 0], dtype=np.uint32)
    pool = [hashmix(seed_words[k:k + 1]) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for key_word in (np.asarray(point_indices, dtype=np.uint32),
                     np.asarray(codes, dtype=np.uint32)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(key_word))
    # generate_state cycles the pool for 8 uint32 words, read as 4 little-endian uint64
    outmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([outmix(pool[k % _POOL_SIZE]) for k in range(8)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _draw_counts(seed: int, chis: np.ndarray, bases: Sequence[str],
                 shots: list[int]) -> tuple[list[int], list[int]]:
    """(+1 counts, CSV seed words) of the records, basis-major: every point
    in the first basis, then every point in the next.

    Record k draws B(shots[k], p) from Generator(PCG64) seeded with its
    `record_state_words` row, which is its `record_seed_sequence` stream.
    """
    p_x, p_y = born_probabilities(chis)
    p_plus = np.concatenate([p_x if basis == "x" else p_y for basis in bases])
    outside = ~((p_plus >= 0.0) & (p_plus <= 1.0))  # NaN included
    if outside.any():
        raise InvalidParameterError(f"probability {p_plus[outside][0]} outside [0, 1]")
    words = record_state_words(seed, np.tile(np.arange(len(chis)), len(bases)),
                               np.repeat([BASIS_CODES[b] for b in bases], len(chis)))
    # numpy.random loads here, not with this module: commands that never
    # sample do not pay its import time and memory
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """Hands PCG64 one record's precomputed generate_state(4, np.uint64) words."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    counts = [int(Generator(PCG64(StateWords(state))).binomial(n, p))
              for state, n, p in zip(words, shots, p_plus.tolist(), strict=True)]
    return counts, words[:, 0].tolist()


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

    if chis.shape != (len(points),):
        raise InvalidParameterError(f"{chis.shape} chi values for {len(points)} points")
    alloc = allocate_shots(len(points) * len(bases), total_shots).tolist()
    counts, seeds = _draw_counts(seed, chis, bases, alloc)
    keys = ((basis, point) for basis in bases for point in points)
    return [ShotRecord(point=point, basis=basis, shots=shots, plus_count=count, seed=word)
            for (basis, point), shots, count, word in zip(keys, alloc, counts, seeds, strict=True)]


def _fmt(value: float) -> str:
    return np.format_float_positional(value, precision=12, unique=False,
                                      fractional=False, trim="-")


def _fmt_column(values) -> list[str]:
    """`_fmt` of every value, formatting each distinct float once.

    Floats are told apart by their bits: -0.0 == 0.0, but `_fmt` writes
    them as "-0" and "0".
    """
    bits = np.fromiter(values, dtype=float).view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    texts = dict(zip(distinct, map(_fmt, np.array(distinct, dtype=np.int64).view(float))))
    return list(map(texts.__getitem__, bits))


def dataset_to_csv(records: Sequence[ShotRecord], stream) -> None:
    points = [rec.point for rec in records]
    floats = [_fmt_column(p.xi.real for p in points), _fmt_column(p.xi.imag for p in points),
              _fmt_column(p.r for p in points), _fmt_column(p.theta for p in points),
              _fmt_column(p.n_bar for p in points)]
    writer = csv.writer(stream)
    writer.writerow(CSV_FIELDS)
    writer.writerows(zip(*floats, (rec.basis for rec in records), (rec.shots for rec in records),
                         (rec.plus_count for rec in records), (rec.seed for rec in records)))


def dataset_to_string(records: Sequence[ShotRecord]) -> str:
    buf = io.StringIO()
    dataset_to_csv(records, buf)
    return buf.getvalue()


def dataset_from_csv(stream) -> list[ShotRecord]:
    """The records of a dataset CSV with the `CSV_FIELDS` header.

    Every row must hold exactly one cell per field; blank lines are
    skipped.  A malformed row raises a DatasetError that names its line.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CSV_FIELDS:
        raise DatasetError(f"dataset header {header} does not match {CSV_FIELDS}")
    records = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(CSV_FIELDS):
                raise ValueError(f"{len(row)} cells where the header has {len(CSV_FIELDS)}")
            re_xi, im_xi, r, theta, n_bar = map(float, row[:5])
            if not all(map(math.isfinite, (re_xi, im_xi, r, theta, n_bar))):
                raise ValueError("non-finite value")
            point = MeasurementPoint(xi=complex(re_xi, im_xi), r=r, theta=theta, n_bar=n_bar)
            records.append(ShotRecord(point=point, basis=row[5], shots=int(row[6]),
                                      plus_count=int(row[7]), seed=int(row[8])))
        except (ValueError, DatasetError) as exc:
            raise DatasetError(f"malformed dataset row on line {reader.line_num} "
                               f"{row}: {exc}") from exc
    if not records:
        raise DatasetError("dataset contains no records")
    return records
