import io

import numpy as np
import pytest

from weylfit import charfunc as cf
from weylfit import fockspace as fs
from weylfit import sampler as sp
from weylfit.errors import DatasetError, InvalidChiError, InvalidParameterError, TruncationWarning


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


class TestSampleShots:
    def test_degenerate_probabilities(self):
        assert sp.sample_shots(1.0, 50, 1) == 50
        assert sp.sample_shots(0.0, 50, 1) == 0

    def test_deterministic_for_fixed_seed(self):
        assert sp.sample_shots(0.37, 1000, 99) == sp.sample_shots(0.37, 1000, 99)

    def test_binomial_spread(self):
        # binomial std of the relative frequency: sqrt(p(1-p)/N) = 5e-4
        counts = [sp.sample_shots(0.5, 10**6, seed) for seed in range(1000)]
        spread = np.std(np.array(counts) / 1e6, ddof=1)
        assert spread == pytest.approx(5e-4, rel=0.1)

    def test_mean_tracks_probability(self):
        # consistency within 3 binomial standard deviations
        n, p, m = 4000, 0.3141, 400
        counts = np.array([sp.sample_shots(p, n, 10_000 + k) for k in range(m)])
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
        records = sp.generate_dataset(points, 100, 2, seed=5)
        assert len(records) == 1
        assert records[0].plus_count == 100  # chi = 1 at the origin

    def test_reproducible_and_schedule_free(self):
        points = [sp.MeasurementPoint(xi=complex(x), r=0.1) for x in (0.2, 0.6, 1.0)]
        a = sp.generate_dataset(points, 3000, 2, seed=42)
        b = sp.generate_dataset(points, 3000, 2, seed=42)
        assert [r.plus_count for r in a] == [r.plus_count for r in b]
        # each record's count is fully determined by (seed, index, basis),
        # so it can be re-drawn in isolation from its derived stream
        chis = sp.analytic_chi_grid(points, 2, 100)
        for i, rec in enumerate(a):
            rng = np.random.default_rng(sp.record_seed_sequence(42, i, "x"))
            p_plus = sp.born_probabilities(chis[i])[0]
            assert rec.plus_count == sp.sample_shots(p_plus, rec.shots, rng)

    @pytest.mark.parametrize("im_chi", [2e-16, 1e-15])
    def test_roundoff_sign_does_not_pick_the_draw(self, im_chi):
        # Im chi = +-2e-16 is p_y = 0.5 +- 1e-16, on either side of the
        # p > 0.5 branch of numpy's binomial
        points = [sp.MeasurementPoint(xi=0.3 + 0.2j, r=0.0)] * 4
        up, down = (sp.generate_dataset(points, 40_000, 3, seed=7,
                                        chi_values=np.full(4, 0.4 + sign * im_chi * 1j))
                    for sign in (1, -1))
        assert up == down

    def test_basis_coverage_by_order(self):
        points = [sp.MeasurementPoint(xi=0.3 + 0.1j, r=0.2)]
        rec2 = sp.generate_dataset(points, 100, 2, seed=1)
        rec3 = sp.generate_dataset(points, 100, 3, seed=1)
        assert {r.basis for r in rec2} == {"x"}
        assert {r.basis for r in rec3} == {"x", "y"}
        assert sum(r.shots for r in rec3) == 100

    def test_empty_grid_rejected(self):
        with pytest.raises(DatasetError):
            sp.generate_dataset([], 100, 2, seed=0)

    def test_fig3_grid_shape(self):
        from weylfit import estimator as est

        points = est.build_grid(2.0, 0.78, 0.02, 0.02)
        assert len(points) == 3900


class TestCsvRoundTrip:
    def test_header_and_roundtrip(self):
        points = [sp.MeasurementPoint(xi=0.5 + 0.25j, r=0.3, theta=0.1, n_bar=0.2)]
        records = sp.generate_dataset(points, 250, 3, seed=9)
        text = sp.dataset_to_string(records)
        assert text.splitlines()[0] == "re_xi,im_xi,r,theta,n_B,basis,shots,plus_count,seed"
        back = sp.dataset_from_csv(io.StringIO(text))
        assert len(back) == len(records)
        for orig, loaded in zip(records, back):
            assert loaded.plus_count == orig.plus_count
            assert loaded.shots == orig.shots
            assert loaded.basis == orig.basis
            assert loaded.point.xi == pytest.approx(orig.point.xi, abs=1e-10)

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


class TestProtocol:
    def test_vacuum_probe_matches_gaussian(self):
        cfg = sp.ProtocolConfig(cutoff=60)
        point = sp.MeasurementPoint(xi=1.0 + 0j, r=0.0)
        chi = sp.simulate_protocol(point, 2, cfg)
        assert chi.real == pytest.approx(np.exp(-0.5), abs=1e-3)
        assert abs(chi.imag) <= 1e-8

    def test_squeezed_probe_matches_closed_form(self):
        cfg = sp.ProtocolConfig(cutoff=100)
        spec = cf.SqueezeSpec(2, 0.25, 0.0)
        for x in (0.5, 1.2, 2.0):
            point = sp.MeasurementPoint(xi=complex(x), r=0.25)
            chi = sp.simulate_protocol(point, 2, cfg)
            assert abs(chi - cf.chi_squeezed_exact(x, spec)) <= 1e-3

    def test_complex_direction_probe(self):
        cfg = sp.ProtocolConfig(cutoff=80)
        spec = cf.SqueezeSpec(2, 0.2, 0.0)
        xi = 0.7 * np.exp(0.8j)
        point = sp.MeasurementPoint(xi=xi, r=0.2)
        chi = sp.simulate_protocol(point, 2, cfg)
        assert abs(chi - cf.chi_squeezed_exact(xi, spec)) <= 1e-3

    def test_nonzero_squeeze_phase(self):
        cfg = sp.ProtocolConfig(cutoff=80)
        spec = cf.SqueezeSpec(2, 0.2, 0.7)
        point = sp.MeasurementPoint(xi=0.5 + 0.5j, r=0.2, theta=0.7)
        chi = sp.simulate_protocol(point, 2, cfg)
        assert abs(chi - cf.chi_squeezed_exact(point.xi, spec)) <= 1e-3

    def test_block_path_equals_full_master_equation(self):
        cfg = sp.ProtocolConfig(cutoff=40, heating_rate=200.0,
                                prep_hold=60e-6, idle_time=50e-6)
        point = sp.MeasurementPoint(xi=0.8 + 0j, r=0.15, n_bar=0.1)
        fast = sp.simulate_protocol(point, 2, cfg)
        full = sp.simulate_protocol(point, 2, cfg, full_master_equation=True)
        assert abs(fast - full) <= 1e-9

    @pytest.mark.parametrize("n, cfg, point", [
        (3, sp.ProtocolConfig(cutoff=40, heating_rate=200.0, prep_hold=60e-6, idle_time=50e-6),
         sp.MeasurementPoint(xi=0.6 + 0.5j, r=0.15, theta=0.4, n_bar=0.1)),
        (2, sp.ProtocolConfig(cutoff=30, omega_eta=2 * sp.OMEGA_ETA_DEFAULT, heating_rate=300.0),
         sp.MeasurementPoint(xi=1.0 + 0j, r=0.0)),
    ], ids=["heated-order3-complex-xi", "non-default-omega-eta"])
    def test_exact_probe_equals_full_master_equation(self, n, cfg, point):
        fast = sp.simulate_protocol(point, n, cfg)
        full = sp.simulate_protocol(point, n, cfg, full_master_equation=True)
        assert abs(fast - full) <= 1e-9

    @pytest.mark.parametrize("n, r", [(2, 0.65), (3, 0.25)])
    def test_exact_pulse_matches_integrated_pulse(self, n, r):
        # a vanishing heating rate takes the RK4 branch; this pins
        # vartheta = pi/2 - theta to zeta = r e^{i theta}
        integrated, exact = (
            sp.prepare_state(n, r, 0.7, 0.1, sp.ProtocolConfig(cutoff=40, heating_rate=rate))
            for rate in (1e-9, 0.0))
        assert np.max(np.abs(integrated.matrix - exact.matrix)) <= 1e-7

    def test_exact_pulse_matches_closed_form_on_a_ray(self):
        cfg = sp.ProtocolConfig(cutoff=100)
        xis = np.linspace(0.05, 2.0, 40) * np.exp(0.4j)
        points = [sp.MeasurementPoint(xi=xi, r=0.78, theta=0.7, n_bar=0.1) for xi in xis]
        chi = sp.simulate_chi_grid(points, 2, cfg)
        exact = cf.chi_thermal_squeezed_exact(xis, cf.SqueezeSpec(2, 0.78, 0.7), 0.1)
        assert np.max(np.abs(chi - exact)) <= 1e-9

    def test_squeezing_above_one_is_accepted(self):
        # the |zeta| <= 1 range of `generalized_squeeze` does not bind the
        # protocol; at cutoff 100 only the tail guard speaks (tail 1.2e-8)
        point = sp.MeasurementPoint(xi=0.8 + 0.3j, r=1.2, theta=0.7)
        with pytest.warns(TruncationWarning, match="prepared state"):
            chi = sp.simulate_protocol(point, 2, sp.ProtocolConfig(cutoff=100))
        assert abs(chi - cf.chi_squeezed_exact(point.xi, cf.SqueezeSpec(2, 1.2, 0.7))) <= 1e-6
        with pytest.raises(InvalidParameterError):
            fs.generalized_squeeze(2, 1.2, 100)

    def test_trisqueezed_protocol_matches_numeric(self):
        cfg = sp.ProtocolConfig(cutoff=100)
        spec = cf.SqueezeSpec(3, 0.2, 0.0)
        rho = fs.vacuum_state(100).to_density()
        xi = 0.9 + 0.4j
        point = sp.MeasurementPoint(xi=xi, r=0.2)
        chi = sp.simulate_protocol(point, 3, cfg)
        assert abs(chi - cf.chi_numeric(rho, spec, xi)) <= 1e-3

    def test_thermal_initial_state(self):
        cfg = sp.ProtocolConfig(cutoff=80)
        spec = cf.SqueezeSpec(2, 0.15, 0.0)
        point = sp.MeasurementPoint(xi=0.9 + 0j, r=0.15, n_bar=0.2)
        chi = sp.simulate_protocol(point, 2, cfg)
        assert abs(chi - cf.chi_thermal_squeezed_exact(0.9, spec, 0.2)) <= 1e-3

    def test_grid_batching_matches_single_points(self):
        cfg = sp.ProtocolConfig(cutoff=60)
        points = [sp.MeasurementPoint(xi=complex(x), r=0.2) for x in (0.4, 0.8, 1.2)]
        grid = sp.simulate_chi_grid(points, 2, cfg)
        singles = [sp.simulate_protocol(p, 2, cfg) for p in points]
        np.testing.assert_allclose(grid, singles, atol=1e-12)

    def test_heating_dephases_the_probe(self):
        quiet = sp.ProtocolConfig(cutoff=60)
        noisy = sp.ProtocolConfig(cutoff=60, heating_rate=300.0)
        point = sp.MeasurementPoint(xi=1.5 + 0j, r=0.0, n_bar=0.1)
        chi_q = sp.simulate_protocol(point, 2, quiet)
        chi_n = sp.simulate_protocol(point, 2, noisy)
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
            sp.simulate_protocol(sp.MeasurementPoint(xi=0.3 + 0j, r=0.78), 2, cfg)

    def test_worker_threads_do_not_change_results(self):
        cfg = sp.ProtocolConfig(cutoff=40)
        points = [sp.MeasurementPoint(xi=complex(x), r=r)
                  for r in (0.1, 0.2) for x in (0.3, 0.9)]
        serial = sp.simulate_chi_grid(points, 2, cfg, jobs=1)
        threaded = sp.simulate_chi_grid(points, 2, cfg, jobs=4)
        np.testing.assert_array_equal(serial, threaded)

    def test_protocol_dataset_source(self):
        cfg = sp.ProtocolConfig(cutoff=40)
        points = [sp.MeasurementPoint(xi=complex(x), r=0.1) for x in (0.4, 0.8)]
        records = sp.generate_dataset(points, 2000, 2, seed=3,
                                      chi_source="protocol", config=cfg)
        assert sum(r.shots for r in records) == 2000
        # frequencies track the simulated coherences
        chis = sp.simulate_chi_grid(points, 2, cfg)
        for rec, chi in zip(records, chis):
            p_plus = sp.born_probabilities(chi)[0]
            assert abs(rec.frequency - p_plus) <= 4 * np.sqrt(p_plus * (1 - p_plus) / rec.shots) + 1e-3


class TestMeasurementPoint:
    def test_rejects_negative_r(self):
        with pytest.raises(InvalidParameterError):
            sp.MeasurementPoint(xi=0j, r=-0.1)
