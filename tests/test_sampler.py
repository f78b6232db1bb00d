import csv
import hashlib
import io
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import (STEP_RULE, LindbladSpec, born_probabilities_scalar, dataset_from_records,
                     dense_probe_chi, evolve_lindblad, one_stream_dataset, sample_shots)
from weylfit import charfunc as cf
from weylfit import estimator as est
from weylfit import fockspace as fs
from weylfit import sampler as sp
from weylfit.errors import (AccuracyError, DatasetError, InvalidChiError,
                            InvalidParameterError, TruncationWarning, UnsupportedOrderError)


class TestBornProbabilities:
    def test_reference_values(self):
        assert sp.born_probabilities(1.0 + 0j) == pytest.approx((1.0, 0.5))
        assert sp.born_probabilities(0.0j) == pytest.approx((0.5, 0.5))
        assert sp.born_probabilities(-1j) == pytest.approx((0.5, 0.0))

    def test_clamps_roundoff_excess(self):
        p_x, p_y = sp.born_probabilities(1.0 + 1e-8 + 0j)
        assert p_x == pytest.approx(1.0)
        assert 0.0 <= p_y <= 1.0

    def test_rejects_unphysical_chi(self):
        with pytest.raises(InvalidChiError):
            sp.born_probabilities(1.1 + 0j)
        with pytest.raises(InvalidChiError):
            sp.born_probabilities(np.array([0.5, 1.1j, 0.2]))

    def test_array_pass_matches_the_scalar_rule(self):
        # moduli above 1 by roundoff are renormalised; components within
        # 1e-12 of zero, of either sign, snap to p = 0.5 exactly
        rng = np.random.default_rng(3)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 400))
        chis = np.concatenate([rng.uniform(0, 1, 400) * phase,
                               (1.0 + rng.uniform(0, 1e-6, 400)) * phase,
                               [1.0 + 5e-13j, -1e-12 + 0.3j, 0.7 - 0.0j, -0.0 + 2e-12j]])
        p_x, p_y = sp.born_probabilities(chis)
        want = np.array([born_probabilities_scalar(c) for c in chis])
        np.testing.assert_array_equal(p_x, want[:, 0])
        np.testing.assert_array_equal(p_y, want[:, 1])


class TestSampleShots:
    def test_degenerate_probabilities(self):
        assert sample_shots(1.0, 50, 1) == 50
        assert sample_shots(0.0, 50, 1) == 0

    def test_deterministic_for_fixed_seed(self):
        assert sample_shots(0.37, 1000, 99) == sample_shots(0.37, 1000, 99)

    def test_binomial_spread(self):
        # binomial std of the relative frequency: sqrt(p(1-p)/N) = 5e-4
        counts = [sample_shots(0.5, 10**6, seed) for seed in range(1000)]
        spread = np.std(np.array(counts) / 1e6, ddof=1)
        assert spread == pytest.approx(5e-4, rel=0.1)

    def test_mean_tracks_probability(self):
        # consistency within 3 binomial standard deviations
        n, p, m = 4000, 0.3141, 400
        counts = np.array([sample_shots(p, n, 10_000 + k) for k in range(m)])
        se = np.sqrt(p * (1 - p) / (n * m))
        assert abs(counts.mean() / n - p) <= 3 * se


class TestAllocation:
    def test_equal_allocation_preserves_total(self):
        alloc = sp.allocate_shots(3900, 1_600_000)
        assert alloc.sum() == 1_600_000
        assert alloc.min() == 410
        assert alloc.max() == 411
        assert (alloc[: 1_600_000 - 410 * 3900] == 411).all()

    def test_single_point(self):
        assert sp.allocate_shots(1, 77).tolist() == [77]

    def test_empty_grid_rejected(self):
        with pytest.raises(DatasetError):
            sp.allocate_shots(0, 100)


class TestGenerateDataset:
    def test_sure_outcome(self):
        points = [sp.MeasurementPoint(xi=0j, r=0.0)]
        records = sp.generate_dataset(points, sp.analytic_chi_grid(points, 2), 100, 2, seed=5)
        assert records.plus_count.tolist() == [100]  # chi = 1 at the origin

    def test_reproducible_and_schedule_free(self):
        # the counts depend only on the seed and the chi values, so the
        # one-stream oracle re-draws every record one at a time
        points = [sp.MeasurementPoint(xi=complex(re, im), r=r)
                  for r in (0.1, 0.3) for re in (0.2, 0.6, 1.0) for im in (-0.4, 0.0, 0.5)]
        for n in (2, 3):
            chis = sp.analytic_chi_grid(points, n)
            a = sp.generate_dataset(points, chis, 30_011, n, seed=42)
            assert a == sp.generate_dataset(points, chis, 30_011, n, seed=42)
            assert {r.basis for r in a} == set(sp.bases_for_order(n))
            assert a == one_stream_dataset(points, 30_011, n, 42, chis)

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_the_one_stream_oracle(self, n, seed):
        # every record in basis-major order from one Generator, and the
        # dataset's seed in every seed cell
        design = sp.Design(np.linspace(0.1, 1.5, 40) * np.exp(0.3j), np.repeat([0.0, 0.4], 20))
        chis = sp.analytic_chi_grid(design, n)
        records = sp.generate_dataset(design, chis, 80_003, n, seed)
        assert records == one_stream_dataset(design, 80_003, n, seed, chis)
        assert records.seed.tolist() == [seed] * len(records)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        points = [sp.MeasurementPoint(xi=0.3 + 0j, r=0.1)]
        with pytest.raises(InvalidParameterError, match="seed"):
            sp.generate_dataset(points, [0.5], 100, 2, seed=seed)

    @pytest.mark.parametrize("chis, message", [([0.5, 0.5], "chi values for 3 points"),
                                               ([0.5, np.nan, 0.5], "probability nan")],
                             ids=["short", "nan"])
    def test_bad_chi_values_are_rejected(self, chis, message):
        points = [sp.MeasurementPoint(xi=0.3 + 0j, r=0.1)] * 3
        with pytest.raises(InvalidParameterError, match=message):
            sp.generate_dataset(points, np.array(chis), 300, 2, seed=1)

    @pytest.mark.parametrize("im_chi", [2e-16, 1e-15])
    def test_roundoff_sign_does_not_pick_the_draw(self, im_chi):
        # Im chi = +-2e-16 is p_y = 0.5 +- 1e-16, on either side of the
        # p > 0.5 branch of numpy's binomial
        points = [sp.MeasurementPoint(xi=0.3 + 0.2j, r=0.0)] * 4
        up, down = (sp.generate_dataset(points, np.full(4, 0.4 + sign * im_chi * 1j), 40_000, 3,
                                        seed=7)
                    for sign in (1, -1))
        assert up == down

    def test_basis_coverage_by_order(self):
        points = [sp.MeasurementPoint(xi=0.3 + 0.1j, r=0.2)]
        rec2 = sp.generate_dataset(points, sp.analytic_chi_grid(points, 2), 100, 2, seed=1)
        rec3 = sp.generate_dataset(points, sp.analytic_chi_grid(points, 3), 100, 3, seed=1)
        assert {r.basis for r in rec2} == {"x"}
        assert {r.basis for r in rec3} == {"x", "y"}
        assert sum(r.shots for r in rec3) == 100

    def test_empty_grid_rejected(self):
        with pytest.raises(DatasetError):
            sp.generate_dataset([], [], 100, 2, seed=0)

    @pytest.mark.parametrize("call", [
        lambda: sp.generate_dataset(sp.Design([0.5, 1.0], 0.1), [0.5, 0.5], 100, 4, 1),
        lambda: sp.bases_for_order(5)], ids=["generate_dataset", "bases_for_order"])
    def test_order_without_bases_is_refused(self, call):
        # a bare KeyError used to escape
        with pytest.raises(UnsupportedOrderError, match="no measurement bases for order"):
            call()

    def test_fig3_grid_shape(self):
        from weylfit import estimator as est

        points = est.build_grid(2.0, 0.78, 0.02, 0.02)
        assert len(points) == 3900


class TestCsvRoundTrip:
    def test_header_and_roundtrip(self):
        points = [sp.MeasurementPoint(xi=0.5 + 0.25j, r=0.3, theta=0.1, n_bar=0.2)]
        records = sp.generate_dataset(points, sp.analytic_chi_grid(points, 3), 250, 3, seed=9)
        text = sp.dataset_to_string(records)
        assert text.splitlines()[0] == "re_xi,im_xi,r,theta,n_B,basis,shots,plus_count,seed"
        back = sp.dataset_from_csv(io.StringIO(text))
        assert len(back) == len(records)
        for orig, loaded in zip(records, back):
            assert loaded.plus_count == orig.plus_count
            assert loaded.shots == orig.shots
            assert loaded.basis == orig.basis
            assert loaded.point.xi == pytest.approx(orig.point.xi, abs=1e-10)

    def test_signed_zero_is_written_as_fmt_writes_it(self):
        points = [sp.MeasurementPoint(xi=complex(0.5, im), r=0.3) for im in (0.0, -0.0, 0.0)]
        records = sp.generate_dataset(points, np.full(3, 0.5), 300, 2, seed=2)
        rows = list(csv.reader(io.StringIO(sp.dataset_to_string(records))))[1:]
        assert [row[1] for row in rows] == ["0", "-0", "0"] == [sp._fmt(p.xi.imag) for p in points]

    def test_format_rows_writes_each_value_as_fmt_across_blocks(self):
        # 6000 rows span two formatting blocks; signed zeros share one block
        values = np.tile([0.0, -0.0, 1.5, 1e-300, np.inf, 0.1 + 0.2], 1000)
        rows = list(sp.format_rows(values, values[::-1]))
        assert rows == [(sp._fmt(a), sp._fmt(b)) for a, b in zip(values, values[::-1])]

    def test_bad_header_rejected(self):
        with pytest.raises(DatasetError):
            sp.dataset_from_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_zero_shot_row_rejected(self):
        text = ("re_xi,im_xi,r,theta,n_B,basis,shots,plus_count,seed\n"
                "0.5,0.,0.1,0.,0.,x,0,0,7\n")
        with pytest.raises(DatasetError):
            sp.dataset_from_csv(io.StringIO(text))

    @pytest.mark.parametrize("field", ["re_xi", "im_xi", "r", "theta", "n_B"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, field, value):
        row = {"re_xi": "0.5", "im_xi": "0.", "r": "0.1", "theta": "0.", "n_B": "0.",
               "basis": "x", "shots": "10", "plus_count": "4", "seed": "7"}
        row[field] = value
        text = ",".join(sp.CSV_FIELDS) + "\n" + ",".join(row[k] for k in sp.CSV_FIELDS) + "\n"
        with pytest.raises(DatasetError, match="non-finite"):
            sp.dataset_from_csv(io.StringIO(text))


GOOD_ROW = {"re_xi": "0.5", "im_xi": "0.", "r": "0.1", "theta": "0.", "n_B": "0.",
            "basis": "x", "shots": "10", "plus_count": "4", "seed": "7"}


def dataset_text(*rows):
    """A dataset CSV of GOOD_ROW with each row's cells overridden."""
    lines = [",".join(sp.CSV_FIELDS)]
    lines += [",".join({**GOOD_ROW, **row}[k] for k in sp.CSV_FIELDS) for row in rows]
    return "\n".join(lines) + "\n"


class TestCsvRejections:
    @pytest.mark.parametrize("cells, message", [
        ({"basis": "z"}, "basis must be 'x' or 'y', got 'z'"),
        ({"plus_count": "-1"}, "plus_count must lie in"),
        ({"plus_count": "11"}, "plus_count must lie in"),
        ({"shots": "0", "plus_count": "0"}, "shots must be at least 1"),
        ({"r": "-0.1"}, "squeezing amplitude must be non-negative"),
        ({"n_B": "-0.1"}, "mean occupation must be non-negative"),
        ({"shots": "10.0"}, "invalid literal for int"),
        ({"seed": "-1"}, "seed must lie in"),
        ({"seed": str(2**64)}, "seed must lie in"),
    ], ids=["basis", "plus-count-negative", "plus-count-above-shots", "zero-shots",
            "negative-r", "negative-n_B", "non-integer-shots", "seed-negative", "seed-65-bits"])
    def test_bad_row_names_its_line(self, cells, message):
        text = dataset_text({}, {}, cells, {})
        with pytest.raises(DatasetError, match=f"line 4 .*: {message}"):
            sp.dataset_from_csv(io.StringIO(text))

    def test_largest_seed_is_accepted(self):
        dataset = sp.dataset_from_csv(io.StringIO(dataset_text({"seed": str(2**64 - 1)})))
        assert dataset.seed.tolist() == [2**64 - 1]

    def test_earliest_bad_row_is_named(self):
        # the seed is checked after the floats, but its row comes first in the file
        text = dataset_text({}, {"seed": "-1"}, {"r": "x"}, {"basis": "z"})
        with pytest.raises(DatasetError, match="line 3 .*seed must lie in"):
            sp.dataset_from_csv(io.StringIO(text))

    def test_blank_lines_keep_line_numbers(self):
        header, *rows = dataset_text({}, {}, {"basis": "z"}).splitlines()
        text = "\n".join([header, "", rows[0], rows[1], "", rows[2]]) + "\n"
        with pytest.raises(DatasetError, match="line 6 "):
            sp.dataset_from_csv(io.StringIO(text))

    @pytest.mark.parametrize("cell", [" 4 ", "+4", "4_0", "0x4", "4.", "", "٤"])
    def test_integer_cells_parse_as_int_does(self, cell):
        # each cell is accepted exactly when int() accepts it
        text = dataset_text({"shots": "100", "plus_count": cell})
        try:
            want = int(cell)
        except ValueError:
            with pytest.raises(DatasetError, match="line 2 "):
                sp.dataset_from_csv(io.StringIO(text))
        else:
            assert sp.dataset_from_csv(io.StringIO(text)).plus_count.tolist() == [want]

    @pytest.mark.parametrize("cell", [" 0.25 ", "2.5e-1", "1_0.5", ".5", "0x1", "", "٠.٥"])
    def test_float_cells_parse_as_float_does(self, cell):
        text = dataset_text({"r": cell})
        try:
            want = float(cell)
        except ValueError:
            with pytest.raises(DatasetError, match="line 2 "):
                sp.dataset_from_csv(io.StringIO(text))
        else:
            assert sp.dataset_from_csv(io.StringIO(text)).points.r.tolist() == [want]


class TestColumns:
    def test_design_checks_rows_as_measurement_point_does(self):
        # a bad row is refused by its message whether it comes as a column of a
        # Design or as a MeasurementPoint joining one through Design.of
        for column, value, message in (("r", -0.1, "squeezing amplitude must be non-negative"),
                                       ("n_bar", -0.1, "mean occupation must be non-negative"),
                                       ("r", np.nan, "design r has a non-finite value")):
            with pytest.raises(InvalidParameterError, match=message) as columnar:
                sp.Design([0.1, 0.2], **{"r": 0.1, column: [0.1, value]})
            points = [sp.MeasurementPoint(xi=0.2, r=0.1),
                      sp.MeasurementPoint(xi=0.2, **{"r": 0.1, column: value})]
            with pytest.raises(InvalidParameterError, match=message) as single:
                sp.Design.of(points)
            assert str(columnar.value) == str(single.value)

    @pytest.mark.parametrize("column", ["xi", "r", "theta", "n_bar"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_design_rejects_a_non_finite_value(self, column, value):
        columns = {"xi": [0.5, 0.5], "r": 0.1, "theta": 0.0, "n_bar": 0.0}
        columns[column] = [0.5, complex(0.5, value) if column == "xi" else value]
        with pytest.raises(InvalidParameterError, match=f"design {column} has a non-finite value"):
            sp.Design(**columns)

    @pytest.mark.parametrize("counts, message", [
        ({"plus_count": -1}, "plus_count must lie in"),
        ({"plus_count": 11}, "plus_count must lie in"),
        ({"shots": 0, "plus_count": 0}, "shots must be at least 1")],
        ids=["plus-count-negative", "plus-count-above-shots", "zero-shots"])
    def test_dataset_checks_every_row(self, counts, message):
        fields = {"shots": 10, "plus_count": 4, **counts}
        with pytest.raises(DatasetError, match=message):
            sp.Dataset(sp.Design([0.5, 0.5], 0.1), [0, 1], [10, fields["shots"]],
                       [4, fields["plus_count"]], 7)

    def test_dataset_rejects_an_unknown_basis_code(self):
        with pytest.raises(DatasetError, match="basis codes"):
            sp.Dataset(sp.Design([0.5, 0.5], 0.1), [0, 2], 10, 4, 7)

    def test_records_round_trip_through_columns(self):
        points = [sp.MeasurementPoint(xi=complex(0.5, im), r=0.3, theta=0.2, n_bar=0.1)
                  for im in (0.25, -0.0)]
        records = [sp.ShotRecord(points[k % 2], "xy"[k // 2], 10 + k, k, 2**64 - 1 - k)
                   for k in range(4)]
        dataset = dataset_from_records(records)
        assert list(dataset) == records
        assert list(dataset.points) == [r.point for r in records]
        assert dataset != dataset_from_records(records[::-1])
        np.testing.assert_array_equal(dataset.frequency,
                                      [r.plus_count / r.shots for r in records])

    @pytest.mark.parametrize("rows", [np.array([3, 0, 3]), np.arange(5) % 2 == 1, slice(1, 4)],
                             ids=["indices", "mask", "slice"])
    def test_select_is_an_independent_copy_of_its_rows(self, rows):
        design = sp.Design(np.arange(5) + 0.5j, np.linspace(0.1, 0.5, 5), 0.2, 0.1)
        picked = design.select(rows)
        want = sp.Design(design.xi[rows], design.r[rows], design.theta[rows], design.n_bar[rows])
        assert picked == want
        for name in sp.Design.__slots__:
            column = getattr(picked, name)
            assert column.dtype == getattr(want, name).dtype
            column[:] = 9
        assert design == sp.Design(np.arange(5) + 0.5j, np.linspace(0.1, 0.5, 5), 0.2, 0.1)

    def test_design_of_a_design_is_itself(self):
        design = est.build_grid(0.4, 0.2, 0.2, 0.1)
        assert sp.Design.of(design) is design
        assert sp.Design.of(list(design)) == design

    def test_states_group_by_r_theta_and_n_bar(self):
        design = sp.Design(np.arange(6), [0.2, 0.1, 0.2, 0.1, 0.2, 0.2],
                           [0.0, 0.0, 0.0, 0.0, 0.5, 0.0], [0.1] * 6)
        groups = [(key, idx.tolist()) for key, idx in sp._group_states(design)]
        assert groups == [((0.1, 0.0, 0.1), [1, 3]), ((0.2, 0.0, 0.1), [0, 2, 5]),
                          ((0.2, 0.5, 0.1), [4])]


def protocol_chi(point, n, cfg):
    """chi-hat at a single point from the protocol simulation."""
    return complex(sp.simulate_chi_grid([point], n, cfg)[0])


class TestAnalyticChiGrid:
    @staticmethod
    def per_state_chi(design):
        """The order-2 chi of one `chi_squeezed_exact` call per (r, theta, n_bar) state."""
        states = {}
        for i, state in enumerate(zip(design.r.tolist(), design.theta.tolist(),
                                      design.n_bar.tolist())):
            states.setdefault(state, []).append(i)
        out = np.empty(len(design), dtype=complex)
        for (r, theta, n_bar), rows in states.items():
            out[rows] = cf.chi_squeezed_exact(design.xi[rows], cf.SqueezeSpec(2, r, theta), n_bar)
        return out

    @pytest.mark.parametrize("n_bar", [0.0, 0.1, 0.5, "mixed"])
    def test_order2_closed_form_pass_is_bitwise_the_per_state_calls(self, n_bar):
        # n_B = 0.5 raises to the power 2.0, which numpy squares for a scalar exponent
        rng = np.random.default_rng(11)
        m = 3000
        occupations = rng.choice([0.0, 0.1, 0.5, 2.0], m) if n_bar == "mixed" else n_bar
        design = sp.Design(rng.normal(size=m) * 1.5 + 1j * rng.normal(size=m),
                           rng.choice(np.linspace(0.0, 1.4, 30), m),
                           rng.choice(np.linspace(-9.0, 9.0, 25), m), occupations)
        chi = sp.analytic_chi_grid(design, 2)
        assert chi.dtype == complex
        assert chi.tobytes() == self.per_state_chi(design).tobytes()

    def test_order2_takes_one_closed_form_call_per_occupation(self, monkeypatch):
        calls, rows = [], cf.chi_squeezed_rows
        monkeypatch.setattr(cf, "chi_squeezed_rows",
                            lambda xi, *args: calls.append(len(xi)) or rows(xi, *args))
        design = est.build_grid(2.4, 0.9, 0.02, 0.02, n_bar=0.1)
        sp.analytic_chi_grid(design, 2)
        assert calls == [len(design)] == [5400]
        sp.analytic_chi_grid(sp.Design(np.ones(4), 0.2, n_bar=[0.0, 0.1, 0.1, 0.0]), 2)
        assert sorted(calls[1:]) == [2, 2]

    def test_overflowing_row_names_its_squeezing(self):
        design = sp.Design([0.5, 0.5, 0.5], [0.2, 800.0, 0.3])
        with pytest.raises(InvalidParameterError, match="r = 800.0 overflows"):
            sp.analytic_chi_grid(design, 2)


class TestProtocol:
    def test_vacuum_probe_matches_gaussian(self):
        cfg = sp.ProtocolConfig(cutoff=60)
        point = sp.MeasurementPoint(xi=1.0 + 0j, r=0.0)
        chi = protocol_chi(point, 2, cfg)
        assert chi.real == pytest.approx(np.exp(-0.5), abs=1e-3)
        assert abs(chi.imag) <= 1e-8

    def test_squeezed_probe_matches_closed_form(self):
        cfg = sp.ProtocolConfig(cutoff=100)
        spec = cf.SqueezeSpec(2, 0.25, 0.0)
        for x in (0.5, 1.2, 2.0):
            point = sp.MeasurementPoint(xi=complex(x), r=0.25)
            chi = protocol_chi(point, 2, cfg)
            assert abs(chi - cf.chi_squeezed_exact(x, spec)) <= 1e-3

    def test_complex_direction_probe(self):
        cfg = sp.ProtocolConfig(cutoff=80)
        spec = cf.SqueezeSpec(2, 0.2, 0.0)
        xi = 0.7 * np.exp(0.8j)
        point = sp.MeasurementPoint(xi=xi, r=0.2)
        chi = protocol_chi(point, 2, cfg)
        assert abs(chi - cf.chi_squeezed_exact(xi, spec)) <= 1e-3

    def test_nonzero_squeeze_phase(self):
        cfg = sp.ProtocolConfig(cutoff=80)
        spec = cf.SqueezeSpec(2, 0.2, 0.7)
        point = sp.MeasurementPoint(xi=0.5 + 0.5j, r=0.2, theta=0.7)
        chi = protocol_chi(point, 2, cfg)
        assert abs(chi - cf.chi_squeezed_exact(point.xi, spec)) <= 1e-3

    def test_block_path_equals_full_master_equation(self):
        cfg = sp.ProtocolConfig(cutoff=40, heating_rate=200.0,
                                prep_hold=60e-6, idle_time=50e-6)
        point = sp.MeasurementPoint(xi=0.8 + 0j, r=0.15, n_bar=0.1)
        fast = protocol_chi(point, 2, cfg)
        full = dense_probe_chi(point, 2, cfg)
        assert abs(fast - full) <= 1e-9

    @pytest.mark.parametrize("n, cfg, point", [
        (3, sp.ProtocolConfig(cutoff=40, heating_rate=200.0, prep_hold=60e-6, idle_time=50e-6),
         sp.MeasurementPoint(xi=0.6 + 0.5j, r=0.15, theta=0.4, n_bar=0.1)),
        (2, sp.ProtocolConfig(cutoff=30, omega_eta=2 * sp.OMEGA_ETA_DEFAULT, heating_rate=300.0),
         sp.MeasurementPoint(xi=1.0 + 0j, r=0.0)),
    ], ids=["heated-order3-complex-xi", "non-default-omega-eta"])
    def test_exact_probe_equals_full_master_equation(self, n, cfg, point):
        fast = protocol_chi(point, n, cfg)
        full = dense_probe_chi(point, n, cfg)
        assert abs(fast - full) <= 1e-9

    @pytest.mark.parametrize("n, r", [(2, 0.65), (3, 0.25)])
    def test_exact_pulse_matches_integrated_pulse(self, n, r):
        # a vanishing heating rate takes the heated (split) branch; this
        # pins vartheta = pi/2 - theta to zeta = r e^{i theta}
        integrated, exact = (
            sp.prepare_state(n, r, 0.7, 0.1, sp.ProtocolConfig(cutoff=40, heating_rate=rate))
            for rate in (1e-9, 0.0))
        assert np.max(np.abs(integrated - exact)) <= 1e-7

    def test_exact_pulse_matches_closed_form_on_a_ray(self):
        cfg = sp.ProtocolConfig(cutoff=100)
        xis = np.linspace(0.05, 2.0, 40) * np.exp(0.4j)
        points = [sp.MeasurementPoint(xi=xi, r=0.78, theta=0.7, n_bar=0.1) for xi in xis]
        chi = sp.simulate_chi_grid(points, 2, cfg)
        exact = cf.chi_squeezed_exact(xis, cf.SqueezeSpec(2, 0.78, 0.7), 0.1)
        assert np.max(np.abs(chi - exact)) <= 1e-9

    def test_squeezing_above_one_is_accepted(self):
        # the |zeta| <= 1 range of `generalized_squeeze` does not bind the
        # protocol; at cutoff 100 only the tail guard speaks (tail 1.2e-8)
        point = sp.MeasurementPoint(xi=0.8 + 0.3j, r=1.2, theta=0.7)
        with pytest.warns(TruncationWarning, match="prepared state"):
            chi = protocol_chi(point, 2, sp.ProtocolConfig(cutoff=100))
        assert abs(chi - cf.chi_squeezed_exact(point.xi, cf.SqueezeSpec(2, 1.2, 0.7))) <= 1e-6
        with pytest.raises(InvalidParameterError):
            fs.generalized_squeeze(2, 1.2, 100)

    def test_trisqueezed_protocol_matches_numeric(self):
        cfg = sp.ProtocolConfig(cutoff=100)
        spec = cf.SqueezeSpec(3, 0.2, 0.0)
        rho = fs.thermal_state(0.0, 100)
        xi = 0.9 + 0.4j
        point = sp.MeasurementPoint(xi=xi, r=0.2)
        chi = protocol_chi(point, 3, cfg)
        assert abs(chi - cf.chi_numeric_grid(rho, spec, np.array([xi]))[0]) <= 1e-3

    def test_thermal_initial_state(self):
        cfg = sp.ProtocolConfig(cutoff=80)
        spec = cf.SqueezeSpec(2, 0.15, 0.0)
        point = sp.MeasurementPoint(xi=0.9 + 0j, r=0.15, n_bar=0.2)
        chi = protocol_chi(point, 2, cfg)
        assert abs(chi - cf.chi_squeezed_exact(0.9, spec, 0.2)) <= 1e-3

    def test_grid_batching_matches_single_points(self):
        cfg = sp.ProtocolConfig(cutoff=60)
        points = [sp.MeasurementPoint(xi=complex(x), r=0.2) for x in (0.4, 0.8, 1.2)]
        grid = sp.simulate_chi_grid(points, 2, cfg)
        singles = [protocol_chi(p, 2, cfg) for p in points]
        np.testing.assert_allclose(grid, singles, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::weylfit.errors.TruncationWarning")
    def test_unheated_order3_grid_matches_the_analytic_grid(self):
        # without heating both paths take Tr(S rho S^dag D(xi)) on the same truncated state
        points = est.build_grid_complex(1.7, 1.7, 0.78)
        chi = sp.simulate_chi_grid(points, 3, sp.ProtocolConfig())
        assert np.max(np.abs(chi - sp.analytic_chi_grid(points, 3))) <= 1e-14

    def test_each_prepared_state_is_probed_once(self, monkeypatch):
        calls = []
        weyl_expectation = fs.weyl_expectation
        monkeypatch.setattr(fs, "weyl_expectation",
                            lambda rho, xis: calls.append(len(xis)) or weyl_expectation(rho, xis))
        points = [sp.MeasurementPoint(xi=x * np.exp(1j * phi), r=r)
                  for r in (0.1, 0.2) for phi in (0.0, 0.5, 1.0) for x in (0.3, 0.9)]
        sp.simulate_chi_grid(points, 2, sp.ProtocolConfig(cutoff=40))
        assert calls == [6, 6]

    def test_heating_dephases_the_probe(self):
        quiet = sp.ProtocolConfig(cutoff=60)
        noisy = sp.ProtocolConfig(cutoff=60, heating_rate=300.0)
        point = sp.MeasurementPoint(xi=1.5 + 0j, r=0.0, n_bar=0.1)
        chi_q = protocol_chi(point, 2, quiet)
        chi_n = protocol_chi(point, 2, noisy)
        assert chi_n.real < chi_q.real

    def test_flagged_preparation_warns(self):
        # an r = 0.78 squeezed vacuum overflows the top tenth of a 20-level space
        cfg = sp.ProtocolConfig(cutoff=20)
        points = [sp.MeasurementPoint(xi=complex(x), r=0.78) for x in (0.3, 0.6)]
        with pytest.warns(TruncationWarning, match="prepared state"):
            sp.simulate_chi_grid(points, 2, cfg)

    def test_flagged_preparation_warns_at_a_single_point(self):
        cfg = sp.ProtocolConfig(cutoff=20)
        with pytest.warns(TruncationWarning, match="prepared state"):
            protocol_chi(sp.MeasurementPoint(xi=0.3 + 0j, r=0.78), 2, cfg)

    def test_both_chi_paths_flag_a_large_displacement(self):
        # |xi|^2 = 4 exceeds cutoff/10 = 3 on a state whose tail holds 6e-16:
        # the displacement half of the guard trips on both chi sources, and
        # neither chi moves (digest of both arrays, equal before the guard was shared)
        points = sp.Design(np.linspace(0.2, 2.0, 10), 0.1)
        for chi_grid in (lambda: sp.analytic_chi_grid(points, 3, 30),
                         lambda: sp.simulate_chi_grid(points, 3, sp.ProtocolConfig(cutoff=30))):
            with pytest.warns(TruncationWarning, match=r"prepared state .* = 4\.00\)"):
                chi = chi_grid()
            assert hashlib.sha256(chi.tobytes()).hexdigest() == (
                "0ccc98f3bc4c06bb5e1a27758a3b5a04a278027c6cd4047e093bded341fbaeb3")

    def test_worker_threads_do_not_change_results(self):
        # the heated config has the threads share the cached propagators
        points = [sp.MeasurementPoint(xi=complex(x), r=r)
                  for r in (0.1, 0.2) for x in (0.3, 0.9)]
        for rate in (0.0, 300.0):
            cfg = sp.ProtocolConfig(cutoff=40, heating_rate=rate)
            serial = sp.simulate_chi_grid(points, 2, cfg, jobs=1)
            threaded = sp.simulate_chi_grid(points, 2, cfg, jobs=4)
            np.testing.assert_array_equal(serial, threaded)

    def test_protocol_dataset_source(self):
        cfg = sp.ProtocolConfig(cutoff=40)
        points = [sp.MeasurementPoint(xi=complex(x), r=0.1) for x in (0.4, 0.8)]
        chis = sp.simulate_chi_grid(points, 2, cfg)
        records = sp.generate_dataset(points, chis, 2000, 2, seed=3)
        assert sum(r.shots for r in records) == 2000
        # frequencies track the simulated coherences
        p_plus = sp.born_probabilities(chis)[0]
        bound = 4 * np.sqrt(p_plus * (1 - p_plus) / records.shots) + 1e-3
        assert np.all(np.abs(records.frequency - p_plus) <= bound)


def pulse_segments(cfg):
    """Edges of the ramp-up, hold and ramp-down segments of the pulse."""
    ramp, hold = cfg.ramp_time, cfg.prep_hold
    return list(zip([0.0, ramp, ramp + hold], [ramp, ramp + hold, 2 * ramp + hold]))


def envelope(cfg):
    ramp, end = cfg.ramp_time, cfg.prep_duration
    return (lambda t: min(1.0, t / ramp, (end - t) / ramp)) if ramp > 0 else (lambda t: 1.0)


class TestHeatedPulse:
    """The split-step heated pulse against two independent oracles."""

    @pytest.mark.filterwarnings("ignore::weylfit.errors.TruncationWarning")
    @pytest.mark.parametrize("n, r, shape", [(2, 0.65, {}), (3, 0.25, {}),
                                             (2, 0.65, {"ramp_time": 0.0})],
                             ids=["order2", "order3", "square-pulse"])
    def test_matches_dense_master_equation(self, n, r, shape):
        # RK4 on the dense Lindblad equation at a tenth of its step rule,
        # segment by segment so that no step straddles a kink of g(t)
        cfg = sp.ProtocolConfig(cutoff=40, heating_rate=300.0, **shape)
        theta = 0.7
        vartheta = 0.5 * np.pi - theta
        omega_n = r / (math.factorial(n) * cfg.prep_area)
        a = fs.annihilation(40)
        an = np.linalg.matrix_power(a, n)
        h0 = omega_n * (np.exp(1j * vartheta) * an + np.exp(-1j * vartheta) * an.conj().T)
        spec = LindbladSpec(hamiltonian=((h0, envelope(cfg)),),
                            jumps=((a, 300.0), (a.conj().T, 300.0)))
        dt = STEP_RULE / (10 * spec.norm_bound(np.array([cfg.ramp_time])))
        rho = fs.thermal_state(0.1 + 300.0 * cfg.idle_time, 40)
        for span in pulse_segments(cfg):
            rho = evolve_lindblad(rho, spec, span, dt)
        split = sp.prepare_state(n, r, theta, 0.1, cfg)
        assert np.max(np.abs(split - rho)) <= 5e-9

    def test_one_eigendecomposition_per_heated_state(self, monkeypatch):
        # every step-doubling round exponentiates the same pulse generator
        calls = []
        squeeze_eigh = fs.squeeze_eigh
        monkeypatch.setattr(fs, "squeeze_eigh",
                            lambda *args: calls.append(args) or squeeze_eigh(*args))
        cfg = sp.ProtocolConfig(cutoff=24, heating_rate=300.0)
        points = [sp.MeasurementPoint(xi=complex(x), r=r) for r in (0.1, 0.2) for x in (0.3, 0.6)]
        sp.simulate_chi_grid(points, 2, cfg)
        assert calls == [(2, 0.1, 24), (2, 0.2, 24)]

    def test_unconverged_pulse_raises_accuracy_error(self, monkeypatch):
        monkeypatch.setattr(sp, "PULSE_TOLERANCE", 0.0)
        with pytest.raises(AccuracyError, match="4096 steps"):
            sp.prepare_state(2, 0.3, 0.0, 0.1, sp.ProtocolConfig(cutoff=16, heating_rate=300.0))

    @pytest.mark.parametrize("r_target", [0.1, 0.78])
    def test_order2_chi_matches_gaussian_moments(self, r_target):
        # at order 2 every stage is Gaussian: N = <a^dag a>, M = <a^2> obey
        # d(N+1/2)/dt = -4c Im(e^{i vth} M) + gamma, dM/dt = -4ic e^{-i vth} (N+1/2)
        gamma, n_bar = 300.0, 0.1
        cfg = sp.ProtocolConfig(cutoff=100, heating_rate=gamma)
        points = [p for p in est.build_grid(2.0, 0.78, 0.02, 0.02, n_bar=n_bar)
                  if abs(p.r - r_target) < 1e-9]
        r = points[0].r
        omega_2, g = r / (2 * cfg.prep_area), envelope(cfg)
        phase = np.exp(0.5j * np.pi)  # e^{i vartheta} at theta = 0

        def moments(t, y):
            c, m = omega_2 * g(t), complex(y[1], y[2])
            dm = -4j * c * np.conj(phase) * y[0]
            return [-4 * c * (phase * m).imag + gamma, dm.real, dm.imag]

        y = [n_bar + gamma * cfg.idle_time + 0.5, 0.0, 0.0]
        for span in pulse_segments(cfg):
            y = solve_ivp(moments, span, y, method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
        xis = np.array([p.xi for p in points])
        exact = (np.exp(-y[0] * np.abs(xis) ** 2 + (np.conj(xis) ** 2 * complex(y[1], y[2])).real)
                 * np.exp(-gamma * np.abs(xis) ** 3 / (3 * cfg.omega_eta)))
        chi = sp.simulate_chi_grid(points, 2, cfg)
        assert np.max(np.abs(chi - exact)) <= 1e-8


class TestMeasurementPoint:
    def test_rejects_negative_r(self):
        # the row is plain; the Design it joins refuses it
        with pytest.raises(InvalidParameterError, match="squeezing amplitude must be non-negative"):
            sp.Design.of([sp.MeasurementPoint(xi=0j, r=-0.1)])
