import numpy as np
import pytest

from weylfit import series as dg
from weylfit.errors import InvalidParameterError, UnsupportedOrderError


def small_grid(n_angles=6, n_mags=6, max_mag=0.3):
    mags = np.linspace(0.02, max_mag, n_mags)
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    return (mags[None, :] * np.exp(1j * angles)[:, None]).ravel()


class TestBases:
    def test_order2_term_values(self):
        def f(j, xi, r, theta):
            return dg.basis_values(2, np.array([xi]), r, theta)[0, j]

        assert f(0, 1.0 + 0j, 1.0, 0.0) == pytest.approx(1.0)
        assert f(1, 1j, 0.5, 0.0) == pytest.approx(0.25)
        # Re{xi^2} = Re{i} = 0 at xi = e^{i pi/4}
        assert f(2, np.exp(1j * np.pi / 4), 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_order3_term_values(self):
        def f(j, xi, r, theta):
            return dg.basis_values(3, np.array([xi]), r, theta)[0, j]

        assert f(0, 0.7 + 0j, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert f(2, 1.0 + 1.0j, 1.0, 0.0) == pytest.approx(4.0)
        # xi = i: xi^3 = -i, Im = -1, squared = 1
        assert f(3, 1j, 1.0, 0.0) == pytest.approx(1.0)

    def test_terms_vanish_at_origin(self):
        for n in (2, 3):
            b = dg.basis_values(n, np.array([0.0 + 0j]), 0.7, 0.3)
            np.testing.assert_allclose(np.abs(b), 0.0, atol=1e-15)


class TestTruthCoefficients:
    def test_order2_values(self):
        np.testing.assert_allclose(dg.truth_coefficients(2).values,
                                   np.array([-1.0, -1.0, 0.5]), atol=1e-15)

    def test_order3_values(self):
        np.testing.assert_allclose(dg.truth_coefficients(3).values,
                                   np.array([-1j / 3, -0.5, 1 / 6, -1 / 18]), atol=1e-15)

    def test_thermal_scaling(self):
        vals = dg.truth_coefficients(2, 0.1).values
        np.testing.assert_allclose(vals, np.array([-1.2, -1.2, 0.72]), atol=1e-12)
        vals = dg.truth_coefficients(2, 0.3).values
        assert vals[0].real == pytest.approx(-1.6)

    def test_rejects_thermal_order3(self):
        with pytest.raises(UnsupportedOrderError):
            dg.truth_coefficients(3, 0.1)

    @pytest.mark.parametrize("n_bar", [-0.1, np.nan, np.inf])
    def test_rejects_occupation_outside_zero_to_infinity(self, n_bar):
        # at n_bar = nan the zero-temperature coefficients came back
        with pytest.raises(InvalidParameterError, match="finite"):
            dg.truth_coefficients(2, n_bar)

    def test_coefficient_vector_length_check(self):
        with pytest.raises(InvalidParameterError):
            dg.CoefficientVector(2, np.array([1.0, 2.0]))

    def test_coefficient_vector_refuses_unknown_order(self):
        with pytest.raises(UnsupportedOrderError):
            dg.CoefficientVector(7, np.zeros(4))


class TestEvalModel:
    def test_unit_at_origin(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            theta = rng.normal(size=3)
            assert dg.eval_model(2, theta, 0.0 + 0j, rng.uniform(0, 0.7)) == pytest.approx(1.0)

    def test_zero_theta_gives_free_part(self):
        xi = 0.4 + 0.2j
        n_bar = 0.2
        val = dg.eval_model(2, np.zeros(3), xi, 0.5, n_bar=n_bar)
        assert val == pytest.approx(np.exp(-0.5 * 1.4 * abs(xi) ** 2), rel=1e-12)

    def test_term_by_term_arithmetic(self):
        # independent evaluation of the truncated series at theta star
        val = dg.eval_model(2, dg.truth_coefficients(2), 0.1 + 0j, 0.1)
        expected = (1 - 0.1 * 0.01 - 0.01 * 0.01 + 0.5 * 0.01 * 0.0001) * np.exp(-0.005)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_theta_where_unclipped(self):
        rng = np.random.default_rng(7)
        xis = small_grid()
        t1 = rng.normal(scale=0.1, size=3)
        t2 = rng.normal(scale=0.1, size=3)
        chi0 = np.exp(-0.5 * np.abs(xis) ** 2)
        b = dg.basis_values(2, xis, 0.2, 0.0)
        unclipped = np.ones(len(xis), dtype=bool)
        for t in (t1, t2, t1 + t2):
            values = (1.0 + b @ t) * chi0
            unclipped &= (values > 0.0) & (values < 1.0)
        assert unclipped.any()
        lhs = (dg.eval_model(2, t1 + t2, xis, 0.2) - chi0)[unclipped]
        rhs = ((dg.eval_model(2, t1, xis, 0.2) - chi0)
               + (dg.eval_model(2, t2, xis, 0.2) - chi0))[unclipped]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_parity_order2_even(self):
        xis = small_grid(max_mag=1.5)
        theta = dg.truth_coefficients(2)
        np.testing.assert_allclose(dg.eval_model(2, theta, xis, 0.3),
                                   dg.eval_model(2, theta, -xis, 0.3), atol=1e-14)

    def test_parity_order3(self):
        xis = small_grid(max_mag=1.2)
        theta = dg.truth_coefficients(3)
        plus = dg.eval_model(3, theta, xis, 0.25)
        minus = dg.eval_model(3, theta, -xis, 0.25)
        np.testing.assert_allclose(np.real(minus), np.real(plus), atol=1e-14)
        np.testing.assert_allclose(np.imag(minus), -np.imag(plus), atol=1e-14)

    def test_clip_keeps_order2_in_unit_interval(self):
        xis = np.linspace(0.02, 2.0, 100).astype(complex)
        vals = dg.eval_model(2, dg.truth_coefficients(2), xis, 0.78)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # the series value does go negative on this slice, so the clip is active
        b = dg.basis_values(2, xis, 0.78, 0.0)
        bracket = 1.0 + np.real(b @ dg.truth_coefficients(2).values)
        assert bracket.min() < 0.0

    def test_clip_saturates_each_part_at_its_range(self):
        # large coefficients drive every part to both ends of its clip range
        xis = small_grid(n_angles=8, max_mag=1.5)
        vals2 = np.concatenate([dg.eval_model(2, np.array([s, 0.0, 0.0]), xis, 0.5)
                                for s in (-50.0, 50.0)])
        assert vals2.min() == 0.0 and vals2.max() == 1.0
        theta3 = np.array([50.0 + 50.0j, 0.0, 0.0, 0.0])
        vals3 = np.concatenate([dg.eval_model(3, s * theta3, xis, 0.5) for s in (-1.0, 1.0)])
        for part in (vals3.real, vals3.imag):
            assert part.min() == -1.0 and part.max() == 1.0

    def test_heating_substitution_moves_both_factors(self):
        xi, c_h, r = 0.8 + 0j, 0.05, 0.2
        xi_p = xi + c_h * xi**2
        direct = dg.eval_model(2, dg.truth_coefficients(2), xi_p, r)
        via_model = dg.eval_model(2, dg.truth_coefficients(2), xi, r, c_h=c_h)
        assert via_model == pytest.approx(direct, rel=1e-12)

    def test_thermal_model_consistency(self):
        # truncated thermal model tracks the exact squeezed thermal state
        for n_bar in (0.1, 0.3):
            for r in (0.02, 0.05):
                res = dg.truncation_residual(2, r, small_grid(), n_bar=n_bar)
                assert res <= 5e-3


class TestSeriesResidual:
    def test_exact_at_zero_r(self):
        assert dg.truncation_residual(2, 0.0, small_grid()) <= 1e-12

    def test_order2_small_amplitude_bound(self):
        assert dg.truncation_residual(2, 0.05, small_grid()) <= 1e-3

    def test_order3_small_amplitude_bound(self):
        assert dg.truncation_residual(3, 0.05, small_grid(n_angles=4, n_mags=4)) <= 2e-3
