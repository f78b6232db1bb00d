import numpy as np
import pytest
import scipy.linalg

from oracles import STEP_RULE, InvalidStepError, LindbladSpec, evolve_lindblad, qubit_kron
from weylfit import fockspace as fs
from weylfit.errors import InvalidDimensionError, InvalidParameterError, UnsupportedOrderError


def fock(n, cutoff):
    return np.eye(cutoff, dtype=complex)[n]


def number(cutoff):
    return np.diag(np.arange(cutoff, dtype=complex))


class TestLadder:
    def test_annihilation_lowers_fock_one(self):
        out = fs.annihilation(3) @ fock(1, 3)
        np.testing.assert_allclose(out, fock(0, 3), atol=1e-15)

    def test_annihilation_kills_vacuum(self):
        out = fs.annihilation(3) @ fock(0, 3)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_number_operator_diagonal(self, n):
        a = fs.annihilation(4)
        num = a.conj().T @ a
        state = fock(n, 4)
        assert np.vdot(state, num @ state).real == pytest.approx(n, abs=1e-14)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(InvalidDimensionError):
            fs.annihilation(1)

    def test_commutator_identity_off_last_levels(self):
        a = fs.annihilation(30)
        comm = a @ a.conj().T - a.conj().T @ a
        dev = np.max(np.abs((comm - np.eye(30))[:29, :29]))
        assert dev <= 1e-14

    def test_commutator_ulp_scale_at_default_cutoff(self):
        # sqrt(n) is irrational; the squared entries carry roundoff of a
        # few ulp(n), so the absolute deviation grows linearly with cutoff
        d = fs.DEFAULT_CUTOFF
        a = fs.annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        dev = np.max(np.abs((comm - np.eye(d))[: d - 1, : d - 1]))
        assert dev <= 4 * d * np.finfo(float).eps


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        d = fs.displacement(0.0, 30)
        np.testing.assert_allclose(d, np.eye(30), atol=1e-12)

    def test_vacuum_overlap_matches_gaussian(self):
        d = fs.displacement(1.0, 100)
        assert d[0, 0].real == pytest.approx(np.exp(-0.5), abs=1e-10)
        assert abs(d[0, 0].imag) < 1e-12

    def test_inverse_composition(self):
        # matrix-product oracle: D(xi) D(-xi) must be the identity
        xi = 0.7 + 0.3j
        prod = fs.displacement(xi, 100) @ fs.displacement(-xi, 100)
        assert np.max(np.abs(prod - np.eye(100))) <= 1e-10

    @pytest.mark.parametrize("xi", [0.3, 1.0 - 0.5j, -1.4 + 0.9j, 2.0j])
    def test_unitarity_under_guard(self, xi):
        u = fs.displacement(xi, 100)
        dev = np.max(np.abs(u.conj().T @ u - np.eye(100)))
        assert dev <= 1e-9


class TestWeylExpectation:
    @pytest.mark.parametrize("cutoff", [30, 100])
    def test_matches_trace_against_displacement(self, cutoff):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T)
        # several directions, two points on one ray, both signs of the real axis, and 0
        xis = np.array([0.0, 0.7, 1.4, -1.3, 1.1j, -0.4 + 0.9j, 0.6 * np.exp(2.5j), 1.2 - 0.3j])
        expected = np.array([np.trace(rho @ fs.displacement(x, cutoff)) for x in xis])
        np.testing.assert_allclose(fs.weyl_expectation(rho, xis), expected, rtol=0, atol=1e-12)

    def test_keeps_the_shape_and_rejects_non_finite(self):
        rho = fs.thermal_state(0.2, 20)
        assert fs.weyl_expectation(rho, np.full((2, 3), 0.5j)).shape == (2, 3)
        with pytest.raises(InvalidParameterError):
            fs.weyl_expectation(rho, np.array([0.5, np.nan]))


class TestSqueeze:
    def test_zero_amplitude_is_identity(self):
        for n in (2, 3, 4):
            s = fs.generalized_squeeze(n, 0.0, 40)
            np.testing.assert_allclose(s, np.eye(40), atol=1e-12)

    def test_bogoliubov_relation_low_subspace(self):
        r = 0.25
        cutoff = 256
        s = fs.generalized_squeeze(2, r, cutoff)
        a = fs.annihilation(cutoff)
        lhs = s.conj().T @ a @ s
        rhs = a * np.cosh(r) - a.conj().T * np.sinh(r)
        half = cutoff // 2
        assert np.max(np.abs((lhs - rhs)[: half + 1, : half + 1])) <= 1e-8

    def test_trisqueeze_bundle_selection_rule(self):
        # Fock-space oracle: populations appear only at multiples of 3
        state = fs.generalized_squeeze(3, 0.25, 100) @ fock(0, 100)
        pops = np.abs(state) ** 2
        off_bundle = pops[np.arange(100) % 3 != 0]
        assert np.max(off_bundle) <= 1e-12
        assert pops[3] > 1e-4  # sanity: squeezing actually populated a bundle

    @pytest.mark.parametrize("n,zeta", [(2, 0.3), (3, 0.2 - 0.1j), (4, 0.15j)])
    def test_unitarity(self, n, zeta):
        u = fs.generalized_squeeze(n, zeta, 80)
        assert np.max(np.abs(u.conj().T @ u - np.eye(80))) <= 1e-9

    def test_rejects_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            fs.generalized_squeeze(5, 0.1, 40)

    def test_norm_preserved_after_unitary(self):
        state = fs.generalized_squeeze(2, 0.5, 120) @ fock(0, 120)
        assert abs(np.linalg.norm(state) ** 2 - 1.0) <= 1e-12


class TestThermalState:
    def test_zero_occupation_is_vacuum(self):
        rho = fs.thermal_state(0.0, 30)
        expected = np.zeros((30, 30))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_mean_occupation(self):
        rho = fs.thermal_state(0.1, 100)
        assert np.trace(number(100) @ rho).real == pytest.approx(0.1, abs=1e-8)

    def test_purity_closed_form(self):
        # purity of the geometric state: Tr rho^2 = 1 / (1 + 2 n_bar)
        rho = fs.thermal_state(0.3, 100)
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(1.0 / 1.6, abs=1e-6)

    def test_positivity_and_trace(self):
        rho = fs.thermal_state(0.25, 100)
        np.testing.assert_array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_rejects_hot_state_beyond_tail_guard(self):
        with pytest.raises(InvalidParameterError):
            fs.thermal_state(50.0, 100)

    def test_tail_population_sums_the_top_tenth(self):
        # geometric populations: the levels 90..99 carry q^90 (1 - q^10) / (1 - q^100)
        q = 0.5 / 1.5
        expected = q**90 * (1 - q**10) / (1 - q**100)
        assert fs.tail_population(fs.thermal_state(0.5, 100)) == pytest.approx(expected, rel=1e-9)
        assert fs.tail_population(fs.thermal_state(0.0, 100)) == 0.0


def _sigma_x():
    return np.array([[0, 1], [1, 0]], dtype=complex)


class TestHeatingFlow:
    def test_matches_liouvillian_exponential(self):
        # expm of the row-major superoperator of jumps A and A^dag at unit rate
        d = 12
        a = fs.annihilation(d)
        eye = np.eye(d)
        liouvillian = sum(np.kron(l, l.conj()) - 0.5 * np.kron(l.conj().T @ l, eye)
                          - 0.5 * np.kron(eye, (l.conj().T @ l).T) for l in (a, a.conj().T))
        rng = np.random.default_rng(3)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T)
        exact = (scipy.linalg.expm(0.37 * liouvillian) @ rho.ravel()).reshape(d, d)
        flowed = fs.heating_flow(rho, 0.37)
        assert np.max(np.abs(flowed - exact)) <= 1e-13
        assert abs(np.trace(flowed) - 1.0) <= 1e-13


class TestLindblad:
    def test_free_evolution_is_identity(self):
        cutoff = 20
        rho0 = fs.thermal_state(0.2, cutoff)
        spec = LindbladSpec(hamiltonian=((np.zeros((cutoff, cutoff), dtype=complex), None),))
        rho = evolve_lindblad(rho0, spec, (0.0, 1.0), 0.01)
        np.testing.assert_allclose(rho, rho0, atol=1e-12)

    def test_single_mode_decay_closed_form(self):
        # |1><1| under jump A at rate kappa decays as exp(-kappa t)
        cutoff = 10
        kappa = 2000.0
        t = 0.5 / kappa
        rho0 = np.outer(fock(1, cutoff), fock(1, cutoff))
        spec = LindbladSpec(
            hamiltonian=((np.zeros((cutoff, cutoff), dtype=complex), None),),
            jumps=((fs.annihilation(cutoff), kappa),),
        )
        rho = evolve_lindblad(rho0, spec, (0.0, t), t / 400)
        n_mean = np.trace(number(cutoff) @ rho).real
        assert n_mean == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_ramsey_coherence_reads_vacuum_gaussian(self):
        # spin-dependent force on |+> at half conditioning: after a time
        # with omega_eta * t = 1 the x coherence equals exp(-1/2)
        cutoff = 60
        omega_eta = 2 * np.pi * 4.7e3
        j0 = -1j * omega_eta
        a = fs.annihilation(cutoff)
        force = j0 * a.conj().T + np.conj(j0) * a
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        h = qubit_kron(sigma_z, -0.5 * force)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        rho0 = qubit_kron(plus, np.outer(fock(0, cutoff), fock(0, cutoff)))
        spec = LindbladSpec(hamiltonian=((h, None),))
        t = 1.0 / omega_eta
        dt = STEP_RULE / spec.norm_bound(np.array([0.0]))
        rho = evolve_lindblad(rho0, spec, (0.0, t), dt)
        sx = qubit_kron(_sigma_x(), np.eye(cutoff, dtype=complex))
        assert np.trace(sx @ rho).real == pytest.approx(np.exp(-0.5), abs=1e-4)

    def test_trace_conservation_with_heating(self):
        cutoff = 30
        a = fs.annihilation(cutoff)
        spec = LindbladSpec(
            hamiltonian=((number(cutoff), lambda t: 1e4 * min(t / 1e-4, 1.0)),),
            jumps=((a, 300.0), (a.conj().T, 300.0)),
        )
        rho0 = fs.thermal_state(0.1, cutoff)
        dt = STEP_RULE / spec.norm_bound(np.linspace(0, 1e-3, 50))
        rho = evolve_lindblad(rho0, spec, (0.0, 1e-3), dt)
        assert abs(np.trace(rho).real - 1.0) <= 1e-8

    def test_step_guard_rejects_coarse_step(self):
        cutoff = 10
        spec = LindbladSpec(hamiltonian=((number(cutoff), None),))
        rho0 = np.outer(fock(0, cutoff), fock(0, cutoff))
        with pytest.raises(InvalidStepError):
            evolve_lindblad(rho0, spec, (0.0, 1.0), 0.5)
