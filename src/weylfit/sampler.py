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
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import charfunc, fockspace, series
from .errors import (AccuracyError, DatasetError, InvalidChiError, InvalidParameterError,
                     UnsupportedOrderError)

OMEGA_ETA_DEFAULT = 2.0 * np.pi * 4.7e3      # phase-space displacement rate, rad/s

# Bound on the step-doubling error estimate max|rho_N - rho_2N| / 3 of the heated pulse
PULSE_TOLERANCE = 1e-9

BASIS_CODES = {"x": 0, "y": 1}
BASES = tuple(BASIS_CODES)  # the basis of each code

CSV_FIELDS = ["re_xi", "im_xi", "r", "theta", "n_B", "basis", "shots", "plus_count", "seed"]

# Rows parsed from a CSV, or turned into per-row objects, together: bounds
# the row text and Python objects held at once
_ROW_BLOCK = 512


@dataclass(frozen=True)
class MeasurementPoint:
    """One experimental configuration at which shots are taken; one row of a
    `Design`, which checks it."""

    xi: complex
    r: float
    theta: float = 0.0
    n_bar: float = 0.0


@dataclass(frozen=True)
class ShotRecord:
    """Raw measurement unit: a point, a Pauli basis, and a +1 outcome count;
    one row of a `Dataset`, which checks it."""

    point: MeasurementPoint
    basis: str
    shots: int
    plus_count: int
    seed: int


def _column(values, n: int, dtype) -> np.ndarray:
    """``values`` as a new 1-D array of n entries; a scalar fills the column."""
    col = np.array(values, dtype=dtype)
    if col.ndim == 0:
        return np.full(n, col)
    if col.shape != (n,):
        raise InvalidParameterError(f"a column of shape {col.shape} for {n} rows")
    return col


class Design:
    """A measurement design as columns, one entry per point: xi (complex),
    r, theta and n_bar.

    The constructor checks every row at once: each value is finite, and r
    and n_bar are non-negative.  Iterating a design builds its
    `MeasurementPoint`s on demand.
    """

    __slots__ = ("xi", "r", "theta", "n_bar")

    def __init__(self, xi, r, theta=0.0, n_bar=0.0):
        self.xi = np.array(xi, dtype=complex, ndmin=1)
        if self.xi.ndim != 1:
            raise InvalidParameterError(f"design xi must be 1-D, got shape {self.xi.shape}")
        n = len(self.xi)
        self.r, self.theta, self.n_bar = (_column(v, n, float) for v in (r, theta, n_bar))
        for name in self.__slots__:
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidParameterError(f"design {name} has a non-finite value")
        if np.any(self.r < 0):
            raise InvalidParameterError("squeezing amplitude must be non-negative")
        if np.any(self.n_bar < 0):
            raise InvalidParameterError("mean occupation must be non-negative")

    @classmethod
    def of(cls, points: Design | Sequence[MeasurementPoint]) -> Design:
        """``points`` as a Design: itself if it is one, else its points' columns."""
        if isinstance(points, Design):
            return points
        points = list(points)
        return cls([p.xi for p in points], [p.r for p in points], [p.theta for p in points],
                   [p.n_bar for p in points])

    def select(self, rows) -> Design:
        """The design of the given rows (an index array, a boolean mask or a slice), as
        new arrays gathered once: rows of a checked design need no new check."""
        if isinstance(rows, slice):
            rows = np.arange(len(self))[rows]
        design = object.__new__(Design)
        for name in self.__slots__:
            setattr(design, name, getattr(self, name)[rows])
        return design

    def __len__(self) -> int:
        return len(self.xi)

    def __iter__(self):
        for start in range(0, len(self), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            yield from map(MeasurementPoint, self.xi[rows].tolist(), self.r[rows].tolist(),
                           self.theta[rows].tolist(), self.n_bar[rows].tolist())

    def __eq__(self, other):
        if not isinstance(other, Design):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in self.__slots__)


class Dataset:
    """Shot records as columns: a `Design` with one point per record, and
    each record's basis code (`BASIS_CODES`), shots, +1 count and seed (the
    seed of the dataset that drew it).

    The constructor checks every row at once: a known basis code, at least
    one shot, and a +1 count in [0, shots].  Iterating a dataset builds its
    `ShotRecord`s on demand.
    """

    __slots__ = ("points", "basis", "shots", "plus_count", "seed")

    def __init__(self, points: Design, basis, shots, plus_count, seed):
        n = len(points)
        self.points = points
        self.basis, self.shots, self.plus_count = (_column(v, n, np.int64)
                                                   for v in (basis, shots, plus_count))
        self.seed = _column(seed, n, np.uint64)
        if not np.all((self.basis >= 0) & (self.basis < len(BASES))):
            raise DatasetError(f"basis codes must be one of {BASIS_CODES}")
        if not np.all((self.plus_count >= 0) & (self.plus_count <= self.shots)):
            raise DatasetError("plus_count must lie in [0, shots]")
        if np.any(self.shots < 1):
            raise DatasetError("shots must be at least 1")

    @property
    def frequency(self) -> np.ndarray:
        return self.plus_count / self.shots

    def __len__(self) -> int:
        return len(self.basis)

    def __iter__(self):
        for start in range(0, len(self), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            yield from map(ShotRecord, self.points.select(rows),
                           [BASES[c] for c in self.basis[rows].tolist()],
                           self.shots[rows].tolist(), self.plus_count[rows].tolist(),
                           self.seed[rows].tolist())

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.points == other.points and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in self.__slots__[1:])


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


def _group_states(design: Design) -> list[tuple[tuple[float, float, float], np.ndarray]]:
    """Each prepared state (r, theta, n_bar) of a design, in sorted order, with
    the ascending indices of its points.

    One stable `np.lexsort`: `np.unique` would also page in about 0.4 MB
    of numpy's sort code on its first call.
    """
    columns = (design.r, design.theta, design.n_bar)
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    return [(tuple(float(c[idx[0]]) for c in columns), idx)
            for idx in np.split(order, np.flatnonzero(starts))[1:]]


def _per_state(design: Design, chi_of_state, jobs: int = 1) -> np.ndarray:
    """chi per point: ``chi_of_state(r, theta, n_bar, xis)`` once per prepared state, at
    all of its points; ``jobs`` > 1 runs the states on that many worker threads."""
    out = np.empty(len(design), dtype=complex)

    def run_state(item):
        (r, theta, n_bar), idx = item
        out[idx] = chi_of_state(r, theta, n_bar, design.xi[idx])

    items = _group_states(design)
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run_state, items))
    else:
        list(map(run_state, items))
    return out


def analytic_chi_grid(points: Design | Sequence[MeasurementPoint], n: int,
                      cutoff: int = fockspace.DEFAULT_CUTOFF) -> np.ndarray:
    """Reference chi per point (`charfunc.chi_reference`): one call per state, or at order 2
    per occupation, since a design's rows pass the `SqueezeSpec` checks by construction."""
    design = Design.of(points)
    if n == 2:
        out = np.empty(len(design), dtype=complex)
        for n_bar in set(design.n_bar.tolist()):
            rows = design.n_bar == n_bar
            out[rows] = charfunc.chi_squeezed_rows(design.xi[rows], design.r[rows],
                                                   design.theta[rows] % charfunc.TWO_PI, n_bar)
        return out
    return _per_state(design, lambda r, theta, n_bar, xis: charfunc.chi_reference(
        xis, charfunc.SqueezeSpec(n=n, r=r, theta=theta), n_bar, cutoff))


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


def _strang_pulse(x: np.ndarray, eigh: tuple[np.ndarray, np.ndarray], config: ProtocolConfig,
                  n_steps: int) -> np.ndarray:
    """Heated squeezing pulse as n_steps Strang steps H(tau/2) U_k H(tau/2).

    U_k is the exact pulse unitary over step k, from the pulse's ``eigh``
    (`fockspace.squeeze_eigh`) and the step's envelope area; H is
    `fockspace.heating_flow`, and the two half steps between consecutive
    U_k run as one.
    """
    w, v = eigh
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
    heated pulse is `_strang_pulse` at 8, 16, 32, ... steps of one
    `fockspace.squeeze_eigh` until max|rho_N - rho_2N| / 3 <= PULSE_TOLERANCE,
    returning rho_2N; both of its flows are CPTP, so the result is a density matrix.
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
        eigh = fockspace.squeeze_eigh(n, zeta, cutoff)
        x = _strang_pulse(x0, eigh, config, 8)
        for n_steps in (2**k for k in range(4, 13)):  # 16, 32, ..., 4096 steps
            coarse, x = x, _strang_pulse(x0, eigh, config, n_steps)
            if np.max(np.abs(x - coarse)) / 3.0 <= PULSE_TOLERANCE:
                break
        else:
            raise AccuracyError(f"heated pulse not within {PULSE_TOLERANCE} at {n_steps} steps")
    return x


def probe_coherences(rho_b: np.ndarray, config: ProtocolConfig,
                     dphis: np.ndarray, xi_magnitudes: Sequence[float]) -> np.ndarray:
    """chi-hat at the given drive directions dphis and magnitudes |xi|, point by point.

    Tr(rho_b D(xi)) from `fockspace.weyl_expectation`, times the heating
    factor exp(-gamma |xi|^2 T / 3) of a probe of duration T = |xi| / omega_eta.
    `fockspace.truncation_guard` warns when rho_b leans on the top Fock
    levels or some |xi|^2 exceeds cutoff/10, as on the Fock numerics.
    """
    mags = np.asarray(xi_magnitudes, dtype=float)
    xis = mags * np.exp(1j * dphis)
    fockspace.truncation_guard(rho_b, xis)
    chi = fockspace.weyl_expectation(rho_b, xis)
    return chi * np.exp(-config.heating_rate * mags**3 / (3.0 * config.omega_eta))


def simulate_chi_grid(points: Design | Sequence[MeasurementPoint], n: int,
                      config: ProtocolConfig, jobs: int = 1) -> np.ndarray:
    """Protocol chi-hat over a grid, one state preparation per (r, theta, n_bar).

    Each prepared state is probed once, at all of its points.  ``jobs`` > 1
    fans the independent preparations out over worker threads (BLAS
    releases the GIL during the matmuls).
    """
    def probe_state(r, theta, n_bar, xis):
        rho_b = prepare_state(n, r, theta, n_bar, config)
        return probe_coherences(rho_b, config, np.angle(xis), np.abs(xis))

    return _per_state(Design.of(points), probe_state, jobs)


# ---------------------------------------------------------------------------
# Dataset generation and persistence
# ---------------------------------------------------------------------------


def bases_for_order(n: int) -> tuple[str, ...]:
    """Measurement bases carrying information: x only for n=2, x and y for n=3."""
    if n not in series.PARTS:
        raise UnsupportedOrderError(f"no measurement bases for order {n}")
    return tuple(basis for basis, *_ in series.PARTS[n])


def generate_dataset(points: Design | Sequence[MeasurementPoint], chis: np.ndarray,
                     total_shots: int, n: int, seed: int) -> Dataset:
    """Draw a full shot dataset over the measurement grid from one chi per point.

    The records run basis-major: every point in the first basis, then every
    point in the next.  All their +1 counts come from one numpy stream,
    ``default_rng(SeedSequence(seed))``, in record order, and every
    record's seed cell holds ``seed``.  The counts are drawn once every chi
    is known, so they do not depend on how the chi were computed.
    """
    points = Design.of(points)
    if len(points) == 0:
        raise DatasetError("measurement grid is empty")
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must lie in [0, 2**64), got {seed}")
    bases = bases_for_order(n)
    chis = np.asarray(chis, dtype=complex)
    if chis.shape != (len(points),):
        raise InvalidParameterError(f"{chis.shape} chi values for {len(points)} points")
    rows = np.tile(np.arange(len(points)), len(bases))
    codes = np.repeat([BASIS_CODES[b] for b in bases], len(points))
    alloc = allocate_shots(len(rows), total_shots)
    p_plus = np.stack(born_probabilities(chis))[codes, rows]
    outside = ~((p_plus >= 0.0) & (p_plus <= 1.0))  # NaN included
    if outside.any():
        raise InvalidParameterError(f"probability {p_plus[outside][0]} outside [0, 1]")
    # numpy.random loads here, not with this module: commands that never
    # sample do not pay its import time and memory
    from numpy.random import SeedSequence, default_rng

    counts = default_rng(SeedSequence(seed)).binomial(alloc, p_plus)
    return Dataset(points.select(rows), codes, alloc, counts, seed)


def _fmt(value: float) -> str:
    return np.format_float_positional(value, precision=12, unique=False,
                                      fractional=False, trim="-")


# Rows formatted together by `format_rows`; bounds the text a CSV holds in memory
_FORMAT_BLOCK = 4096


def format_rows(*columns):
    """Rows of the CSV texts of equal-length float columns, as tuples of str.

    Every CSV float is written by `_fmt`.  Rows are formatted a block at a
    time, and each distinct float of a block once.  Floats are told apart
    by their bits: -0.0 == 0.0, but `_fmt` writes them as "-0" and "0".
    """
    for start in range(0, len(columns[0]), _FORMAT_BLOCK):
        bits = [np.asarray(c[start : start + _FORMAT_BLOCK], dtype=float).view(np.int64).tolist()
                for c in columns]
        distinct = list(dict.fromkeys(itertools.chain(*bits)))
        texts = dict(zip(distinct, map(_fmt, np.array(distinct, dtype=np.int64).view(float))))
        yield from zip(*(map(texts.__getitem__, column) for column in bits))


def dataset_to_csv(records: Dataset, stream) -> None:
    points = records.points
    floats = format_rows(points.xi.real, points.xi.imag, points.r, points.theta, points.n_bar)
    writer = csv.writer(stream)
    writer.writerow(CSV_FIELDS)
    writer.writerows(row + rest for row, rest in zip(
        floats, zip([BASES[c] for c in records.basis.tolist()], records.shots.tolist(),
                    records.plus_count.tolist(), records.seed.tolist())))


def dataset_to_string(records: Dataset) -> str:
    buf = io.StringIO()
    dataset_to_csv(records, buf)
    return buf.getvalue()


# What a bad cell or row raises while a dataset is parsed and checked
_ROW_ERRORS = (ValueError, OverflowError, DatasetError, InvalidParameterError)


def _parse_rows(rows: list[list[str]]) -> Dataset:
    """The dataset of CSV rows, parsed and checked column by column.

    Raises one of `_ROW_ERRORS` if any row is bad, though not always for
    the earliest bad row.
    """
    widths = set(map(len, rows)) - {len(CSV_FIELDS)}
    if widths:
        raise ValueError(f"{widths.pop()} cells where the header has {len(CSV_FIELDS)}")
    n = len(rows)
    cols = list(zip(*rows))
    re_xi, im_xi, r, theta, n_bar = (np.fromiter(map(float, c), float, n) for c in cols[:5])
    xi = np.empty(n, dtype=complex)
    xi.real, xi.imag = re_xi, im_xi
    points = Design(xi, r, theta, n_bar)
    shots, plus_count = (np.fromiter(map(int, c), np.int64, n) for c in cols[6:8])
    try:
        seed = np.fromiter(map(int, cols[8]), np.uint64, n)
    except OverflowError:
        raise DatasetError("seed must lie in [0, 2**64)") from None
    codes = list(map(BASIS_CODES.get, cols[5]))
    if None in codes:
        raise DatasetError(f"basis must be 'x' or 'y', got {cols[5][codes.index(None)]!r}")
    return Dataset(points, codes, shots, plus_count, seed)


def _parse_block(numbered: list[tuple[int, list[str]]]) -> Dataset:
    """`_parse_rows` of (line number, row) pairs; a bad row raises a
    DatasetError that names the earliest one and its line."""
    try:
        return _parse_rows([row for _, row in numbered])
    except _ROW_ERRORS:
        # every check is per row, so some row fails on its own: name the earliest
        for line, row in numbered:
            try:
                _parse_rows([row])
            except _ROW_ERRORS as exc:
                raise DatasetError(f"malformed dataset row on line {line} {row}: {exc}") from exc
        raise


def dataset_from_csv(stream) -> Dataset:
    """The dataset of a CSV with the `CSV_FIELDS` header.

    Every row must hold exactly one cell per field; blank lines are
    skipped.  Each cell parses as `float` or `int` parses it, every value
    must be finite, each row must pass the checks of `Design` and
    `Dataset`, and a seed must lie in [0, 2**64).  The rows are parsed and
    checked as columns, `_ROW_BLOCK` rows at a time; a malformed row raises
    a DatasetError that names the earliest bad row and its line, and
    undecodable bytes or an over-long field one that names the lines read.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader, None)
        if header != CSV_FIELDS:
            raise DatasetError(f"dataset header {header} does not match {CSV_FIELDS}")
        numbered = ((reader.line_num, row) for row in reader if row)
        blocks = []
        while block := list(itertools.islice(numbered, _ROW_BLOCK)):
            blocks.append(_parse_block(block))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"unreadable dataset after {reader.line_num} lines: {exc}") from exc
    if not blocks:
        raise DatasetError("dataset contains no records")
    points = Design(*(np.concatenate([getattr(b.points, k) for b in blocks])
                      for k in Design.__slots__))
    return Dataset(points, *(np.concatenate([getattr(b, k) for b in blocks])
                             for k in Dataset.__slots__[1:]))
