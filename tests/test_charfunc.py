import numpy as np
import pytest

from weylfit import charfunc as cf
from weylfit import fockspace as fs
from weylfit.errors import TruncationWarning, UnsupportedOrderError

OMEGA_ETA = 2 * np.pi * 4.7e3


class TestClosedForms:
    def test_vacuum_values(self):
        assert cf.chi_vacuum(0.0) == pytest.approx(1.0)
        assert cf.chi_vacuum(1.0) == pytest.approx(np.exp(-0.5))
        assert cf.chi_vacuum(1.0 + 1.0j) == pytest.approx(np.exp(-1.0))

    def test_squeezed_reduces_to_vacuum_at_zero_r(self):
        spec = cf.SqueezeSpec(2, 0.0)
        xis = np.array([0.3, 0.5 + 0.2j, 1.0j])
        np.testing.assert_allclose(cf.chi_squeezed_exact(xis, spec),
                                   cf.chi_vacuum(xis), atol=1e-14)

    def test_squeezed_axis_values(self):
        r = 0.25
        spec = cf.SqueezeSpec(2, r, 0.0)
        # real axis contracts with e^{2r}, imaginary axis with e^{-2r}
        assert cf.chi_squeezed_exact(1.0, spec) == pytest.approx(np.exp(-np.exp(2 * r) / 2), rel=1e-12)
        assert cf.chi_squeezed_exact(1.0j, spec) == pytest.approx(np.exp(-np.exp(-2 * r) / 2), rel=1e-12)

    def test_squeezed_real_and_bounded(self):
        rng = np.random.default_rng(3)
        spec = cf.SqueezeSpec(2, 0.4, 1.1)
        xis = rng.normal(size=40) + 1j * rng.normal(size=40)
        vals = cf.chi_squeezed_exact(xis, spec)
        assert np.all(vals > 0) and np.all(vals <= 1.0 + 1e-12)

    def test_thermal_power_law(self):
        spec = cf.SqueezeSpec(2, 0.25, 0.0)
        xi = 0.5
        base = cf.chi_squeezed_exact(xi, spec)
        assert cf.chi_thermal_squeezed_exact(xi, spec, 0.1) == pytest.approx(base**1.2, rel=1e-12)

    def test_thermal_reduces_to_vacuum_form_at_zero_r(self):
        spec = cf.SqueezeSpec(2, 0.0)
        xi = 0.7 + 0.1j
        n_bar = 0.3
        expected = np.exp(-0.5 * (1 + 2 * n_bar) * abs(xi) ** 2)
        assert cf.chi_thermal_squeezed_exact(xi, spec, n_bar) == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_reject_other_orders(self):
        spec = cf.SqueezeSpec(3, 0.2)
        with pytest.raises(UnsupportedOrderError):
            cf.chi_squeezed_exact(0.5, spec)
        with pytest.raises(UnsupportedOrderError):
            cf.chi_thermal_squeezed_exact(0.5, spec, 0.1)


class TestChiNumeric:
    def test_vacuum_matches_gaussian(self):
        rho = fs.thermal_state(0.0, 60)
        spec = cf.SqueezeSpec(2, 0.0)
        val = cf.chi_numeric_grid(rho, spec, np.array([0.8]))[0]
        assert val.real == pytest.approx(np.exp(-0.32), abs=1e-10)
        assert abs(val.imag) <= 1e-12

    def test_matches_exact_on_grid(self):
        # exact closed form is the oracle on a 10x10 grid with |xi| <= 2
        spec = cf.SqueezeSpec(2, 0.25, 0.0)
        rho = fs.thermal_state(0.0, 100)
        axis = np.linspace(-1.4, 1.4, 10)
        re, im = np.meshgrid(axis, axis)
        xis = re + 1j * im
        num = cf.chi_numeric_grid(rho, spec, xis)
        exact = cf.chi_squeezed_exact(xis, spec)
        assert np.max(np.abs(num - exact)) <= 1e-8

    def test_thermal_squeezed_matches_exact(self):
        spec = cf.SqueezeSpec(2, 0.25, 0.0)
        rho = fs.thermal_state(0.1, 100)
        val = cf.chi_numeric_grid(rho, spec, np.array([0.5]))[0]
        expected = cf.chi_thermal_squeezed_exact(0.5, spec, 0.1)
        assert val.real == pytest.approx(expected, abs=1e-8)
        assert abs(val.imag) <= 1e-10

    def test_trisqueezed_parity(self):
        spec = cf.SqueezeSpec(3, 0.25, 0.0)
        rho = fs.thermal_state(0.0, 100)
        rng = np.random.default_rng(11)
        xis = rng.uniform(-1.2, 1.2, 12) + 1j * rng.uniform(-1.2, 1.2, 12)
        plus = cf.chi_numeric_grid(rho, spec, xis)
        minus = cf.chi_numeric_grid(rho, spec, -xis)
        np.testing.assert_allclose(np.real(minus), np.real(plus), atol=1e-10)
        np.testing.assert_allclose(np.imag(minus), -np.imag(plus), atol=1e-10)
        assert np.max(np.abs(np.imag(plus))) > 1e-3  # genuinely non-Gaussian

    def test_hermiticity_for_random_state(self):
        rng = np.random.default_rng(5)
        d = 40
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho_m = g @ g.conj().T
        rho = rho_m / np.trace(rho_m)
        spec = cf.SqueezeSpec(2, 0.15, 0.7)
        xis = rng.uniform(-0.8, 0.8, 10) + 1j * rng.uniform(-0.8, 0.8, 10)
        plus = cf.chi_numeric_grid(rho, spec, xis)
        minus = cf.chi_numeric_grid(rho, spec, -xis)
        np.testing.assert_allclose(minus, np.conj(plus), atol=1e-10)
        assert np.max(np.abs(plus)) <= 1.0 + 1e-8

    def test_truncation_warning_propagates(self):
        rho = fs.thermal_state(0.0, 20)
        spec = cf.SqueezeSpec(2, 0.0)
        with pytest.warns(TruncationWarning):
            cf.chi_numeric_grid(rho, spec, np.array([2.5]))

    def test_grid_path_warns_on_heavy_tail(self):
        # the order-3 r = 0.78 state of the reference grid puts ~5e-5 of its
        # population in the top tenth of a 100-level space
        rho = fs.thermal_state(0.0, 100)
        with pytest.warns(TruncationWarning, match="tail population"):
            cf.chi_numeric_grid(rho, cf.SqueezeSpec(3, 0.78), np.array([0.5, 1.0j]))

    def test_squeezing_above_one_meets_only_the_tail_guard(self):
        # as in the protocol, |zeta| > 1 is limited by the truncation tail
        # alone (tail 1.2e-8 at cutoff 100), not by a range check
        spec = cf.SqueezeSpec(2, 1.2, 0.7)
        xis = np.array([0.8 + 0.3j, -0.5j, 1.1])
        with pytest.warns(TruncationWarning, match="tail population"):
            num = cf.chi_numeric_grid(fs.thermal_state(0.0, 100), spec, xis)
        assert np.max(np.abs(num - cf.chi_squeezed_exact(xis, spec))) <= 1e-6


class TestHeating:
    def test_zero_heating_identity(self):
        assert cf.heated_xi_values(0.7 + 0.2j, 0.0) == 0.7 + 0.2j

    def test_quadratic_substitution(self):
        assert cf.heated_xi_values(1.0, 0.1) == pytest.approx(1.1)

    def test_heating_parameter_from_rate(self):
        # kappa t / 4 expressed through xi: c_h = kappa / (4 omega_eta) when
        # xi = omega_eta * t, so 300 quanta/s at the reference drive is tiny
        kappa = 300.0
        c_h = kappa / (4 * OMEGA_ETA)
        assert c_h == pytest.approx(0.00254, abs=2e-4)
