"""Property tests: CSV round-trip, shot allocation, model bounds, typed
errors on non-finite input, heated prepared states that are density
matrices, and Tr(rho D(xi)) on Hermitian rho."""

import csv
import io
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dataset_from_records, record_seed_sequence
from weylfit import config
from weylfit import fockspace as fs
from weylfit import sampler as sp
from weylfit import series as dg
from weylfit.errors import DatasetError, TruncationWarning

PROPERTY = settings(max_examples=60, deadline=None)


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def shot_records(draw):
    point = sp.MeasurementPoint(xi=complex(draw(reals(-10.0, 10.0)), draw(reals(-10.0, 10.0))),
                                r=draw(reals(0.0, 2.0)), theta=draw(reals(0.0, 6.3)),
                                n_bar=draw(reals(0.0, 5.0)))
    shots = draw(st.integers(1, 10**7))
    return sp.ShotRecord(point=point, basis=draw(st.sampled_from(["x", "y"])), shots=shots,
                         plus_count=draw(st.integers(0, shots)),
                         seed=draw(st.integers(0, 2**64 - 1)))


def as_tuple(rec):
    p = rec.point
    return (p.xi, p.r, p.theta, p.n_bar, rec.basis, rec.shots, rec.plus_count, rec.seed)


@PROPERTY
@given(st.lists(shot_records(), min_size=1, max_size=20))
def test_csv_round_trip_is_exact_at_twelve_digits(records):
    # one write rounds every float to 12 significant digits; from then on
    # write and read are exact inverses, and rewriting reproduces the file
    text = sp.dataset_to_string(dataset_from_records(records))
    once = sp.dataset_from_csv(io.StringIO(text))
    for orig, back in zip(records, once):
        assert as_tuple(back)[4:] == as_tuple(orig)[4:]
        np.testing.assert_allclose(np.array(as_tuple(back)[:4], dtype=complex),
                                   np.array(as_tuple(orig)[:4], dtype=complex),
                                   rtol=1e-11, atol=1e-300)
    rewritten = sp.dataset_to_string(once)
    assert rewritten == text
    twice = sp.dataset_from_csv(io.StringIO(rewritten))
    assert [as_tuple(r) for r in twice] == [as_tuple(r) for r in once]


@PROPERTY
@given(st.lists(shot_records(), min_size=1, max_size=20))
def test_csv_floats_are_written_as_fmt_writes_them(records):
    # the writer formats each distinct float once; signed zeros stay apart
    text = sp.dataset_to_string(dataset_from_records(records))
    rows = list(csv.reader(io.StringIO(text)))[1:]
    points = [rec.point for rec in records]
    assert [row[:5] for row in rows] == [[sp._fmt(v) for v in (p.xi.real, p.xi.imag, p.r,
                                                                p.theta, p.n_bar)]
                                         for p in points]


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
       st.sampled_from(["x", "y"]))
def test_record_words_are_the_seed_sequence_state(seed, indices, basis):
    words = sp.record_state_words(seed, indices, [sp.BASIS_CODES[basis]] * len(indices))
    np.testing.assert_array_equal(
        words, [record_seed_sequence(seed, i, basis).generate_state(4, np.uint64)
                for i in indices])


@PROPERTY
@given(st.integers(1, 5000), st.integers(0, 10**9))
def test_allocation_preserves_total_with_a_shot_everywhere(n_points, extra):
    total = n_points + extra
    alloc = sp.allocate_shots(n_points, total)
    assert len(alloc) == n_points
    assert int(alloc.sum()) == total
    assert alloc.min() >= 1
    assert alloc.max() - alloc.min() <= 1


xis = st.builds(complex, reals(-5.0, 5.0), reals(-5.0, 5.0))


@PROPERTY
@given(st.lists(reals(-100.0, 100.0), min_size=3, max_size=3), st.lists(xis, min_size=1, max_size=8),
       reals(0.0, 1.0), reals(0.0, 6.3), reals(0.0, 2.0), reals(-0.3, 0.3))
def test_order2_model_is_bounded_by_one(theta, xi, r, phase, n_bar, c_h):
    vals = dg.eval_model(2, np.array(theta), np.array(xi), r, phase, n_bar=n_bar, c_h=c_h)
    assert np.all(np.abs(vals) <= 1.0)


@PROPERTY
@given(st.lists(st.builds(complex, reals(-100.0, 100.0), reals(-100.0, 100.0)),
                min_size=4, max_size=4),
       st.lists(xis, min_size=1, max_size=8), reals(0.0, 1.0), reals(0.0, 6.3))
def test_order3_model_parts_lie_in_the_unit_interval(theta, xi, r, phase):
    vals = dg.eval_model(3, np.array(theta), np.array(xi), r, phase)
    for part in (vals.real, vals.imag):
        assert np.all((part >= -1.0) & (part <= 1.0))


@PROPERTY
@given(st.sampled_from(sp.CSV_FIELDS[:5]),
       st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity"]),
       shot_records())
def test_non_finite_csv_field_raises_dataset_error(field, value, record):
    header, row = sp.dataset_to_string(dataset_from_records([record])).splitlines()
    cells = row.split(",")
    cells[sp.CSV_FIELDS.index(field)] = value
    with pytest.raises(DatasetError):
        sp.dataset_from_csv(io.StringIO(header + "\n" + ",".join(cells) + "\n"))


@PROPERTY
@given(st.sampled_from([2, 3]), reals(0.01, 0.6), reals(0.0, 6.3), reals(1.0, 1000.0))
def test_heated_prepared_state_is_a_density_matrix(n, r, theta, rate):
    # both flows of the split pulse are CPTP maps on the truncated space
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        rho = sp.prepare_state(n, r, theta, 0.1,
                               sp.ProtocolConfig(cutoff=30, heating_rate=rate))
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


@PROPERTY
@given(st.integers(2, 16), st.integers(0, 2**32 - 1),
       st.lists(st.builds(complex, reals(-3.0, 3.0), reals(-3.0, 3.0)), min_size=1, max_size=12))
def test_weyl_expectation_is_the_trace_against_displacement(cutoff, seed, xis):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
    rho = g + g.conj().T  # Hermitian, not necessarily a state
    expected = [np.trace(rho @ fs.displacement(x, cutoff)) for x in xis]
    scale = np.abs(rho).sum()
    np.testing.assert_allclose(fs.weyl_expectation(rho, xis), expected, rtol=0, atol=1e-13 * scale)


def test_readme_config_block_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert yaml.safe_load(block) == config.DEFAULTS
