import numpy as np
import pytest

from weylfit import fockspace as fs
from weylfit.errors import (
    InvalidDimensionError,
    InvalidParameterError,
    InvalidStepError,
    UnsupportedOrderError,
)


class TestLadder:
    def test_annihilation_lowers_fock_one(self):
        a = fs.annihilation(3)
        one = fs.fock_state(1, 3)
        out = a.matrix @ one.amplitudes
        np.testing.assert_allclose(out, fs.fock_state(0, 3).amplitudes, atol=1e-15)

    def test_annihilation_kills_vacuum(self):
        a = fs.annihilation(3)
        out = a.matrix @ fs.vacuum_state(3).amplitudes
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_number_operator_diagonal(self, n):
        num = fs.number_operator(4).matrix
        state = fs.fock_state(n, 4).amplitudes
        assert np.vdot(state, num @ state).real == pytest.approx(n, abs=1e-14)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(InvalidDimensionError):
            fs.annihilation(1)

    def test_commutator_identity_off_last_levels(self):
        a = fs.annihilation(30).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        dev = np.max(np.abs((comm - np.eye(30))[:29, :29]))
        assert dev <= 1e-14

    def test_commutator_ulp_scale_at_default_cutoff(self):
        # sqrt(n) is irrational; the squared entries carry roundoff of a
        # few ulp(n), so the absolute deviation grows linearly with cutoff
        d = fs.DEFAULT_CUTOFF
        a = fs.annihilation(d).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        dev = np.max(np.abs((comm - np.eye(d))[: d - 1, : d - 1]))
        assert dev <= 4 * d * np.finfo(float).eps


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        d = fs.displacement(0.0, 30)
        np.testing.assert_allclose(d.matrix, np.eye(30), atol=1e-12)

    def test_vacuum_overlap_matches_gaussian(self):
        d = fs.displacement(1.0, 100)
        assert d.matrix[0, 0].real == pytest.approx(np.exp(-0.5), abs=1e-10)
        assert abs(d.matrix[0, 0].imag) < 1e-12

    def test_inverse_composition(self):
        # matrix-product oracle: D(xi) D(-xi) must be the identity
        xi = 0.7 + 0.3j
        prod = fs.displacement(xi, 100).matrix @ fs.displacement(-xi, 100).matrix
        assert np.max(np.abs(prod - np.eye(100))) <= 1e-10

    @pytest.mark.parametrize("xi", [0.3, 1.0 - 0.5j, -1.4 + 0.9j, 2.0j])
    def test_unitarity_under_guard(self, xi):
        u = fs.displacement(xi, 100)
        assert not u.truncation_flagged
        dev = np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(100)))
        assert dev <= 1e-9

    def test_guard_flags_large_displacement(self):
        u = fs.displacement(4.0, 100)
        assert u.truncation_flagged


class TestSqueeze:
    def test_zero_amplitude_is_identity(self):
        for n in (2, 3, 4):
            s = fs.generalized_squeeze(n, 0.0, 40)
            np.testing.assert_allclose(s.matrix, np.eye(40), atol=1e-12)

    def test_bogoliubov_relation_low_subspace(self):
        r = 0.25
        cutoff = 256
        s = fs.generalized_squeeze(2, r, cutoff).matrix
        a = fs.annihilation(cutoff).matrix
        lhs = s.conj().T @ a @ s
        rhs = a * np.cosh(r) - a.conj().T * np.sinh(r)
        half = cutoff // 2
        assert np.max(np.abs((lhs - rhs)[: half + 1, : half + 1])) <= 1e-8

    def test_trisqueeze_bundle_selection_rule(self):
        # Fock-space oracle: populations appear only at multiples of 3
        state = fs.apply_unitary(fs.generalized_squeeze(3, 0.25, 100),
                                 fs.vacuum_state(100))
        pops = np.abs(state.amplitudes) ** 2
        off_bundle = pops[np.arange(100) % 3 != 0]
        assert np.max(off_bundle) <= 1e-12
        assert pops[3] > 1e-4  # sanity: squeezing actually populated a bundle

    @pytest.mark.parametrize("n,zeta", [(2, 0.3), (3, 0.2 - 0.1j), (4, 0.15j)])
    def test_unitarity(self, n, zeta):
        u = fs.generalized_squeeze(n, zeta, 80).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(80))) <= 1e-9

    def test_rejects_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            fs.generalized_squeeze(5, 0.1, 40)

    def test_norm_preserved_after_unitary(self):
        state = fs.apply_unitary(fs.generalized_squeeze(2, 0.5, 120),
                                 fs.vacuum_state(120))
        assert abs(state.norm() ** 2 - 1.0) <= 1e-12


class TestThermalState:
    def test_zero_occupation_is_vacuum(self):
        rho = fs.thermal_state(0.0, 30)
        expected = np.zeros((30, 30))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_mean_occupation(self):
        rho = fs.thermal_state(0.1, 100)
        num = fs.number_operator(100).matrix
        assert rho.expectation(num).real == pytest.approx(0.1, abs=1e-8)

    def test_purity_closed_form(self):
        # purity of the geometric state: Tr rho^2 = 1 / (1 + 2 n_bar)
        rho = fs.thermal_state(0.3, 100)
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0 / 1.6, abs=1e-6)

    def test_positivity_and_trace(self):
        rho = fs.thermal_state(0.25, 100)
        np.testing.assert_array_equal(rho.matrix, rho.matrix.conj().T)
        assert abs(rho.trace() - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10

    def test_rejects_hot_state_beyond_tail_guard(self):
        with pytest.raises(InvalidParameterError):
            fs.thermal_state(50.0, 100)


def _sigma_x():
    return np.array([[0, 1], [1, 0]], dtype=complex)


class TestLindblad:
    def test_free_evolution_is_identity(self):
        cutoff = 20
        rho0 = fs.thermal_state(0.2, cutoff)
        spec = fs.LindbladSpec(hamiltonian=((fs.TruncatedOperator(cutoff, np.zeros((cutoff, cutoff), dtype=complex)), None),))
        rho = fs.evolve_lindblad(rho0, spec, (0.0, 1.0), 0.01)
        np.testing.assert_allclose(rho.matrix, rho0.matrix, atol=1e-12)

    def test_single_mode_decay_closed_form(self):
        # |1><1| under jump A at rate kappa decays as exp(-kappa t)
        cutoff = 10
        kappa = 2000.0
        t = 0.5 / kappa
        rho0 = fs.fock_state(1, cutoff).to_density()
        spec = fs.LindbladSpec(
            hamiltonian=((fs.TruncatedOperator(cutoff, np.zeros((cutoff, cutoff), dtype=complex)), None),),
            jumps=((fs.annihilation(cutoff), kappa),),
        )
        rho = fs.evolve_lindblad(rho0, spec, (0.0, t), t / 400)
        n_mean = rho.expectation(fs.number_operator(cutoff).matrix).real
        assert n_mean == pytest.approx(np.exp(-0.5), abs=1e-6)

    def test_ramsey_coherence_reads_vacuum_gaussian(self):
        # spin-dependent force on |+> at half conditioning: after a time
        # with omega_eta * t = 1 the x coherence equals exp(-1/2)
        cutoff = 60
        omega_eta = 2 * np.pi * 4.7e3
        j0 = -1j * omega_eta
        a = fs.annihilation(cutoff).matrix
        force = j0 * a.conj().T + np.conj(j0) * a
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        h = fs.qubit_kron(sigma_z, -0.5 * force)
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        rho0 = fs.DensityOperator(cutoff, fs.qubit_kron(plus, fs.vacuum_state(cutoff).to_density().matrix))
        spec = fs.LindbladSpec(hamiltonian=((fs.TruncatedOperator(cutoff, h), None),))
        t = 1.0 / omega_eta
        dt = fs.STEP_RULE / spec.norm_bound(np.array([0.0]))
        rho = fs.evolve_lindblad(rho0, spec, (0.0, t), dt)
        sx = fs.qubit_kron(_sigma_x(), np.eye(cutoff, dtype=complex))
        assert rho.expectation(sx).real == pytest.approx(np.exp(-0.5), abs=1e-4)

    def test_trace_conservation_with_heating(self):
        cutoff = 30
        a = fs.annihilation(cutoff)
        spec = fs.LindbladSpec(
            hamiltonian=((fs.number_operator(cutoff), lambda t: 1e4 * min(t / 1e-4, 1.0)),),
            jumps=((a, 300.0), (a.dag(), 300.0)),
        )
        rho0 = fs.thermal_state(0.1, cutoff)
        dt = fs.STEP_RULE / spec.norm_bound(np.linspace(0, 1e-3, 50))
        rho = fs.evolve_lindblad(rho0, spec, (0.0, 1e-3), dt)
        assert abs(rho.trace().real - 1.0) <= 1e-8

    def test_step_guard_rejects_coarse_step(self):
        cutoff = 10
        spec = fs.LindbladSpec(hamiltonian=((fs.number_operator(cutoff), None),))
        rho0 = fs.vacuum_state(cutoff).to_density()
        with pytest.raises(InvalidStepError):
            fs.evolve_lindblad(rho0, spec, (0.0, 1.0), 0.5)
