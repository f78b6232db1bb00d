import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oracles import dataset_from_records
from weylfit import series as dg
from weylfit import estimator as est
from weylfit import sampler as sp
from weylfit.errors import (
    DatasetError,
    InvalidParameterError,
    NonConvergenceError,
    RankDeficiencyError,
    UnsupportedOrderError,
)

TRUTH2 = np.array([-1.0, -1.0, 0.5])


def model_dataset(points, theta, total, seed, n=2, n_bar=0.0):
    """Shots drawn from the truncated model itself (well-specified case)."""
    chis = np.array([dg.eval_model(n, theta, p.xi, p.r, n_bar=n_bar) for p in points],
                    dtype=complex)
    return sp.generate_dataset(points, chis, total, n, seed)


class TestGrids:
    def test_fig3_grid_count(self):
        assert len(est.build_grid(2.0, 0.78, 0.02, 0.02)) == 3900

    def test_single_point_grid(self):
        points = est.build_grid(0.02, 0.02, 0.02, 0.02)
        assert len(points) == 1
        assert points.xi.tolist() == [pytest.approx(0.02)]

    def test_complex_grid_count(self):
        assert len(est.build_grid_complex(1.7, 1.7, 0.5, 10, 10, 3)) == 300

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(InvalidParameterError):
            est.build_grid(0.01, 0.78, 0.02, 0.02)
        with pytest.raises(InvalidParameterError):
            est.build_grid(1.0, 1.0, -0.1, 0.02)


class TestCosts:
    def test_ml_cost_bounded_below_by_entropy(self):
        # Gibbs inequality: the dataset entropy is the floor of the cost,
        # reached when the model matches the frequencies exactly
        points = est.build_grid(0.5, 0.2, 0.1, 0.1)
        theta = dg.truth_coefficients(2)
        shots = 1000
        records, freqs = [], []
        for p in points:
            chi = dg.eval_model(2, theta, p.xi, p.r)
            count = int(round(0.5 * (1 + chi) * shots))
            records.append(sp.ShotRecord(point=p, basis="x", shots=shots,
                                         plus_count=count, seed=0))
            freqs.append(count / shots)
        problem = est.FitProblem(est.ModelSpec(2), dataset_from_records(records), cost="ml")
        entropy = -shots * sum(
            f * np.log(max(f, 1e-300)) + (1 - f) * np.log(max(1 - f, 1e-300))
            for f in freqs
        )
        assert est.cost(theta, problem) == pytest.approx(entropy, rel=1e-4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            probe = np.real(theta.values) + rng.normal(scale=0.3, size=3)
            assert est.cost(probe, problem) >= entropy - 1e-9

    def test_ml_single_point_values(self):
        point = sp.MeasurementPoint(xi=0j, r=0.0)
        rec_sure = sp.ShotRecord(point=point, basis="x", shots=100, plus_count=100, seed=0)
        problem = est.FitProblem(est.ModelSpec(2), dataset_from_records([rec_sure]),
                                 cost="ml")
        # model predicts p = 1 exactly at xi = 0 for any theta
        assert est.cost(np.zeros(3), problem) == pytest.approx(0.0, abs=1e-6)

    def test_ml_mismatch_arithmetic(self):
        # f = 0.6 against p = 1/2: cost is 100 log 2
        point = sp.MeasurementPoint(xi=2.0 + 0j, r=0.5)
        rec = sp.ShotRecord(point=point, basis="x", shots=100, plus_count=60, seed=0)
        problem = est.FitProblem(est.ModelSpec(2), dataset_from_records([rec]), cost="ml")
        # at these values the clipped model saturates at 0, so p = 1/2
        theta = np.array([-10.0, -10.0, 0.0])
        assert est.cost(theta, problem) == pytest.approx(100 * np.log(2), rel=1e-10)

    def test_ls_zero_at_perfect_match(self):
        points = est.build_grid(0.4, 0.2, 0.2, 0.1)
        theta = dg.truth_coefficients(2)
        shots = 640
        records = []
        for p in points:
            chi = dg.eval_model(2, theta, p.xi, p.r)
            count = int(round(0.5 * (1 + chi) * shots))
            records.append(sp.ShotRecord(point=p, basis="x", shots=shots,
                                         plus_count=count, seed=0))
        problem = est.FitProblem(est.ModelSpec(2), dataset_from_records(records), cost="ls")
        fitted = est.minimize(problem)
        resid = est.cost(fitted.coefficients, problem)
        assert resid <= est.cost(theta, problem) + 1e-9

    def test_ls_single_residual_unit(self):
        point = sp.MeasurementPoint(xi=0.5 + 0j, r=0.1)
        theta = dg.truth_coefficients(2)
        chi = dg.eval_model(2, theta, point.xi, point.r)
        n = 1600
        p_model = 0.5 * (1 + chi)
        # choose a count whose frequency sits one sigma off the model
        f = p_model - np.sqrt(p_model * (1 - p_model) / n)
        count = int(round(f * n))
        rec = sp.ShotRecord(point=point, basis="x", shots=n, plus_count=count, seed=0)
        problem = est.FitProblem(est.ModelSpec(2), dataset_from_records([rec]), cost="ls")
        f_actual = count / n
        sigma2 = max(f_actual * (1 - f_actual) / n, 1 / (4 * n**2))
        expected = (p_model - f_actual) ** 2 / sigma2
        assert est.cost(theta, problem) == pytest.approx(expected, rel=1e-12)

    def test_ls_chi_square_statistic(self):
        # at theta star with the correct model, E[cost] ~ number of points;
        # stay away from saturated probabilities where the empirical
        # variance estimate misbehaves
        theta = dg.truth_coefficients(2)
        points = [p for p in est.build_grid(1.6, 0.3, 0.2, 0.1) if abs(p.xi) >= 0.6]
        chis = np.array([dg.eval_model(2, theta, p.xi, p.r) for p in points])
        costs = []
        for seed in range(60):
            records = sp.generate_dataset(points, chis, 2000 * len(points), 2, seed)
            problem = est.FitProblem(est.ModelSpec(2), records, cost="ls")
            costs.append(est.cost(theta, problem))
        assert np.mean(costs) == pytest.approx(len(points), rel=0.05)


class TestMinimize:
    def test_self_consistent_noiseless_recovery(self):
        points = est.build_grid(1.0, 0.3, 0.05, 0.05)
        theta = dg.truth_coefficients(2)
        alloc = sp.allocate_shots(len(points), 400_000)
        chis = np.array([dg.eval_model(2, theta, p.xi, p.r) for p in points])
        fit, _ = est.fit_exact_frequencies(points, est.ModelSpec(2), alloc,
                                           chi_values=chis, cost="ls")
        np.testing.assert_allclose(np.real(fit.values), TRUTH2, atol=1e-6)

    def test_sampled_recovery_close_to_truth(self):
        points = est.build_grid(2.0, 0.78, 0.1, 0.06)
        records = model_dataset(points, dg.truth_coefficients(2), 1_600_000, seed=3)
        report = est.minimize(est.FitProblem(est.ModelSpec(2), records, cost="ls"))
        assert np.max(np.abs(np.real(report.coefficients.values) - TRUTH2)) <= 0.1

    def test_ml_and_ls_agree_within_one_sigma(self):
        points = est.build_grid(2.0, 0.78, 0.1, 0.06)
        records = model_dataset(points, dg.truth_coefficients(2), 1_600_000, seed=17)
        rep_ls = est.minimize(est.FitProblem(est.ModelSpec(2), records, cost="ls"))
        rep_ml = est.minimize(est.FitProblem(est.ModelSpec(2), records, cost="ml"))
        gap = np.abs(np.real(rep_ls.coefficients.values - rep_ml.coefficients.values))
        assert np.all(gap <= rep_ls.std)

    def test_order3_separability(self):
        # the joint cost decomposes into independent Re (x) and Im (y) parts
        points = est.build_grid_complex(1.7, 1.7, 0.5, 5, 5, 3)
        theta = dg.truth_coefficients(3)
        records = model_dataset(points, theta, 200_000, seed=8, n=3)
        problem = est.FitProblem(est.ModelSpec(3), records, cost="ml")
        rng = np.random.default_rng(0)
        for _ in range(3):
            probe = rng.normal(size=4) + 1j * rng.normal(size=4)
            joint = est.cost(probe, problem)
            re_only = est.cost(np.real(probe) + 0j, problem)
            im_only = est.cost(1j * np.imag(probe), problem)
            base = est.cost(np.zeros(4), problem)
            assert joint == pytest.approx(re_only + im_only - base, rel=1e-9)

    def test_order3_noiseless_recovery(self):
        points = est.build_grid_complex(1.7, 1.7, 0.5, 6, 6, 3)
        theta = dg.truth_coefficients(3)
        chis = np.array([dg.eval_model(3, theta, p.xi, p.r) for p in points])
        fit, _ = est.fit_exact_frequencies(points, est.ModelSpec(3), 1000,
                                           chi_values=chis, cost="ls")
        np.testing.assert_allclose(fit.values, theta.values, atol=1e-8)

    @pytest.mark.parametrize("call", [
        lambda points: est.fit_exact_frequencies(points, est.ModelSpec(2), 1000),
        lambda points: sp.analytic_chi_grid(points, 2)],
        ids=["fit_exact_frequencies", "analytic_chi_grid"])
    def test_non_finite_xi_is_rejected(self, call):
        # a NaN xi used to fit to theta = (0, 0, 0), and to give a NaN chi
        points = [sp.MeasurementPoint(xi=complex(x), r=0.2) for x in (0.5, np.nan, 1.0)]
        with pytest.raises(InvalidParameterError, match="design xi has a non-finite value"):
            call(points)

    def test_fit_at_the_iteration_limit_raises_with_its_best_parameters(self, monkeypatch):
        def stuck(sub, x, cost):
            cost_val, grad, _ = est._cost_grad_curvature(sub, x, cost)
            return x, cost_val, grad, "max-iterations", est.NEWTON_MAX_ITER

        monkeypatch.setattr(est, "_newton", stuck)
        points = est.build_grid(1.0, 0.3, 0.1, 0.1)
        records = model_dataset(points, dg.truth_coefficients(2), 100_000, seed=2)
        with pytest.raises(NonConvergenceError, match="no convergence after 2 starts") as caught:
            est.minimize(est.FitProblem(est.ModelSpec(2), records))
        report = caught.value.report
        assert report["exit"] == "max-iterations"
        # of the two starts, zero and the exact coefficients, the lower-cost one is kept
        assert report["best_parameters"] == TRUTH2.tolist()

    def test_requires_matching_bases(self):
        points = [sp.MeasurementPoint(xi=0.5 + 0j, r=0.2)]
        records = sp.generate_dataset(points, sp.analytic_chi_grid(points, 2), 100, 2, seed=0)
        with pytest.raises(DatasetError):
            est.FitProblem(est.ModelSpec(3), records)

    def test_requires_matching_occupation(self):
        # n_B = 0.3 data under the default n_B = 0 model used to fit to
        # (-2.6, 0.1, 0.8) without complaint
        points = est.build_grid(1.0, 0.3, 0.1, 0.1, n_bar=0.3)
        records = sp.generate_dataset(points, sp.analytic_chi_grid(points, 2), 100_000, 2, seed=0)
        with pytest.raises(DatasetError, match="n_B"):
            est.FitProblem(est.ModelSpec(2), records)
        est.FitProblem(est.ModelSpec(2, 0.3), records)


ORACLE_DESIGNS = {
    # the protocol-o2 benchmark design (2 rays x 100 xi) and the 300-point order-3 grid
    "o2-two-rays": (2, lambda: est.build_grid(2.0, 0.78, 0.02, 0.39)),
    "o3-complex": (3, lambda: est.build_grid_complex(1.7, 1.7, 0.78)),
}


@pytest.fixture(scope="module")
def oracle_datasets():
    cache = {}

    def datasets(name):
        if name not in cache:
            n, grid = ORACLE_DESIGNS[name]
            points = grid()
            chi = sp.analytic_chi_grid(points, n)
            cache[name] = [sp.generate_dataset(points, chi, 1_600_000, n, seed)
                           for seed in range(100, 115)]
        return cache[name]

    return datasets


def scipy_warm_started_cost(sub, n_coeffs, cost):
    """Cost of the former solve: scipy TRF (LS) or L-BFGS-B (ML) from zero, then Newton."""
    x0, sigma = np.zeros(n_coeffs), np.sqrt(sub.sigma2())
    if cost == "ls":
        x = optimize.least_squares(lambda x: (sub.probability(x)[0] - sub.freq) / sigma,
                                   x0, jac=lambda x: sub.probability(x)[1] / sigma[:, None],
                                   method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-12,
                                   max_nfev=400).x
    else:
        def nll_and_grad(x):
            return est._cost_grad_curvature(sub, x, cost)[:2]

        x = optimize.minimize(nll_and_grad, x0, jac=True, method="L-BFGS-B",
                              options={"ftol": 1e-12, "gtol": 1e-9, "maxiter": 2000}).x
    return est._newton(sub, x, cost)[1]


# the order-3 grid leans on the cutoff at its largest |xi|, as in the benchmark
@pytest.mark.filterwarnings("ignore::weylfit.errors.TruncationWarning")
class TestNewtonAgainstScipy:
    @pytest.mark.parametrize("cost", ["ls", "ml"])
    @pytest.mark.parametrize("design", sorted(ORACLE_DESIGNS))
    def test_no_fit_ends_above_the_scipy_warm_start(self, oracle_datasets, design, cost):
        n = ORACLE_DESIGNS[design][0]
        model = est.ModelSpec(n)
        for records in oracle_datasets(design):
            problem = est.FitProblem(model, records, cost=cost)
            subs = problem.subproblems()
            _, _, diags = est._fit(model, subs, cost)
            for sub, diag in zip(subs, diags):
                assert diag["exit"] in ("gradient", "cost-stationary")
                assert diag["cost"] <= scipy_warm_started_cost(sub, model.n_coeffs, cost) + 1e-2


class TestFisher:
    def test_single_point_bernoulli(self):
        # one scalar direction, summed over the points i:
        # I_11 = sum_i N (dp_i/dc1)^2 / (p_i (1 - p_i))
        points = est.build_grid(1.0, 0.3, 0.2, 0.1)
        theta = dg.CoefficientVector(2, np.array([-1.0, 0.0, 0.0]))
        info = est.fisher_information(theta, points, 1000)
        b = dg.basis_values(2, points.xi, points.r, 0.0)
        chi0 = np.exp(-0.5 * np.abs(points.xi) ** 2)
        p = 0.5 * (1 + (1 + b @ theta.values.real) * chi0)
        expected_11 = np.sum(1000 * (0.5 * b[:, 0] * chi0) ** 2 / (p * (1 - p)))
        assert info[0, 0] == pytest.approx(float(expected_11), rel=1e-12)

    def test_linearity_in_shots(self):
        points = est.build_grid(1.0, 0.3, 0.2, 0.1)
        theta = dg.truth_coefficients(2)
        info1 = est.fisher_information(theta, points, 500)
        info2 = est.fisher_information(theta, points, 1000)
        np.testing.assert_allclose(info2, 2.0 * info1, rtol=1e-12)

    def test_rank_deficiency_detected(self):
        # a single point cannot identify three coefficients
        point = sp.MeasurementPoint(xi=0.5 + 0j, r=0.2)
        theta = dg.truth_coefficients(2)
        with pytest.raises(RankDeficiencyError):
            est.fisher_information(theta, [point], 1000)

    def test_covariance_matches_monte_carlo(self):
        # well-specified data from the model itself, so the asymptotic
        # covariance applies cleanly
        points = est.build_grid(2.0, 0.78, 0.05, 0.06)
        theta = dg.truth_coefficients(2)
        total = 1_600_000
        chis = np.array([dg.eval_model(2, theta, p.xi, p.r) for p in points])
        thetas, _ = est.monte_carlo_recovery(points, est.ModelSpec(2), total,
                                             repeats=120, seed=220, chi_values=chis)
        alloc = sp.allocate_shots(len(points), total)
        cov = np.linalg.inv(est.fisher_information(theta, points, alloc))
        ratio = np.real(thetas).std(axis=0, ddof=1) / np.sqrt(np.diag(cov))
        assert np.all((ratio > 0.7) & (ratio < 1.3))


class TestAsymptoticConsistency:
    def test_mean_estimate_converges_to_star_plus_bias(self):
        # over 200 datasets the ML mean lands on theta_star + bias within
        # 3 standard errors, at both shot budgets
        points = est.build_grid(1.0, 0.3, 0.02, 0.02)
        chis = sp.analytic_chi_grid(points, 2, 100)
        theta_star = dg.truth_coefficients(2)
        for total in (1_600_000, 6_400_000):
            alloc = sp.allocate_shots(len(points), total)
            bias = np.real(est.systematic_bias(theta_star, points, alloc))
            thetas, _ = est.monte_carlo_recovery(points, est.ModelSpec(2), total,
                                                 repeats=200, seed=777,
                                                 chi_values=chis, cost="ml")
            mean = np.real(thetas).mean(axis=0)
            se = np.real(thetas).std(axis=0, ddof=1) / np.sqrt(200)
            gap = np.abs(mean - (TRUTH2 + bias))
            assert np.all(gap <= 3.0 * se)


class TestSystematicBias:
    def test_zero_in_well_specified_limit(self):
        # data generated by the model itself leaves no bias to propagate
        points = est.build_grid(0.3, 0.05, 0.05, 0.01)
        theta = dg.truth_coefficients(2)
        bias = est.systematic_bias(theta, points, 1000)
        # at r <= 0.05 and |xi| <= 0.3 the truncation gap is ~1e-6, and the
        # weakly identified c2/c3 directions amplify it; c1 stays tight
        assert abs(bias[0]) <= 1e-3

    def test_matches_infinite_shot_fit(self):
        points = est.build_grid(1.0, 0.3, 0.02, 0.02)
        alloc = sp.allocate_shots(len(points), 1_600_000)
        theta_star = dg.truth_coefficients(2)
        bias = est.systematic_bias(theta_star, points, alloc)
        for cost in ("ml", "ls"):
            fit, _ = est.fit_exact_frequencies(points, est.ModelSpec(2), alloc, cost=cost)
            resid = np.abs(np.real(fit.values) - (TRUTH2 + np.real(bias)))
            assert resid.max() <= 1e-3

    def test_c1_bias_shrinks_with_the_grid(self):
        big = est.build_grid(2.0, 0.78, 0.04, 0.04)
        small = est.build_grid(0.3, 0.05, 0.03, 0.01)
        theta = dg.truth_coefficients(2)
        bias_big = est.systematic_bias(theta, big, 400)
        bias_small = est.systematic_bias(theta, small, 400)
        assert abs(bias_small[0]) < abs(bias_big[0])


def reference_sweep(xi_maxes, r_maxes, total, d_xi, d_r, n_bar=0.0):
    """`rmse_sweep` cell by cell, from the public per-design functions."""
    theta = dg.truth_coefficients(2, n_bar)
    out = np.empty((len(r_maxes), len(xi_maxes)))
    for i, r_max in enumerate(r_maxes):
        for j, xi_max in enumerate(xi_maxes):
            points = est.build_grid(xi_max, r_max, d_xi, d_r, n_bar=n_bar)
            alloc = sp.allocate_shots(len(points), total)
            try:
                info = est.fisher_information(theta, points, alloc)
            except RankDeficiencyError:
                out[i, j] = np.inf
                continue
            bias = est.systematic_bias(theta, points, alloc)
            out[i, j] = math.sqrt(float(np.mean(np.abs(bias) ** 2 + np.diag(np.linalg.inv(info)))))
    return out


class TestSweep:
    @pytest.mark.parametrize("xi_maxes, r_maxes, total, d_xi, d_r, n_bar", [
        # unsorted maxima, a maximum off the lattice, an odd total, single-r cells
        ([2.4, 0.61, 1.0], [0.9, 0.02, 0.3], 1_600_001, 0.02, 0.02, 0.0),
        ([0.6, 2.0], [0.3, 0.78], 1_600_000, 0.02, 0.02, 0.1),
        ([0.6, 1.0, 2.0], [0.78], 1_600_000, 0.02, 0.39, 0.0),
    ], ids=["unsorted-offlattice-odd", "thermal", "protocol-rays"])
    def test_lattice_sweep_equals_per_cell_designs(self, xi_maxes, r_maxes, total,
                                                   d_xi, d_r, n_bar):
        result = est.rmse_sweep(xi_maxes, r_maxes, total, d_xi=d_xi, d_r=d_r, n_bar=n_bar)
        expected = reference_sweep(xi_maxes, r_maxes, total, d_xi, d_r, n_bar)
        assert np.array_equal(result.rmse, expected)

    @settings(max_examples=20, deadline=None)
    @given(d_xi=st.floats(0.05, 0.4), d_r=st.floats(0.02, 0.4),
           xi_steps=st.lists(st.floats(1.0, 8.0), min_size=1, max_size=3),
           r_steps=st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3),
           total=st.integers(100, 1_000_000))
    def test_lattice_sweep_equals_per_cell_designs_property(self, d_xi, d_r, xi_steps,
                                                            r_steps, total):
        xi_maxes = [d_xi * s for s in xi_steps]
        r_maxes = [d_r * s for s in r_steps]
        result = est.rmse_sweep(xi_maxes, r_maxes, total, d_xi=d_xi, d_r=d_r)
        assert np.array_equal(result.rmse, reference_sweep(xi_maxes, r_maxes, total, d_xi, d_r))

    @pytest.mark.parametrize("xi_maxes, r_maxes, d_xi, d_r", [
        ([0.01, 1.0], [0.5], 0.02, 0.02),
        ([1.0], [0.5, 0.01], 0.02, 0.02),
        ([1.0], [0.5], 0.0, 0.02),
    ])
    def test_cell_below_one_spacing_is_rejected(self, xi_maxes, r_maxes, d_xi, d_r):
        with pytest.raises(InvalidParameterError):
            est.rmse_sweep(xi_maxes, r_maxes, 100_000, d_xi=d_xi, d_r=d_r)

    def test_small_grid_dominated_by_stochastic_error(self):
        result = est.rmse_sweep([0.3, 2.0], [0.02, 0.78], 100_000,
                                d_xi=0.05, d_r=0.02)
        # a single-r design cannot separate c1 from c2 at all, and the
        # richest design beats every degenerate one
        assert np.isinf(result.rmse[0, 0])
        assert result.rmse[0, 0] > result.rmse[-1, -1]
        assert (result.best_xi_max, result.best_r_max) == (2.0, 0.78)

    def test_monotone_in_shot_budget(self):
        lean = est.rmse_sweep([2.0], [0.78], 200_000, d_xi=0.05, d_r=0.05)
        rich = est.rmse_sweep([2.0], [0.78], 3_200_000, d_xi=0.05, d_r=0.05)
        assert rich.rmse[0, 0] < lean.rmse[0, 0]

    def test_minimum_sits_at_reference_design(self):
        # interior optimum of the bias/variance trade-off at 1.6M shots
        result = est.rmse_sweep([1.0, 1.4, 1.8, 2.0, 2.4],
                                [0.3, 0.5, 0.7, 0.78, 0.9], 1_600_000)
        assert (result.best_xi_max, result.best_r_max) == (2.0, 0.78)
        assert result.best_rmse <= 0.1


class TestZeroNoiseExtrapolation:
    @staticmethod
    def _report(values, stds, n_bar=0.0):
        model = est.ModelSpec(2, 0.0)
        return est.EstimationReport(
            model=model,
            coefficients=dg.CoefficientVector(2, np.asarray(values, dtype=complex)),
            covariance=np.diag(np.asarray(stds) ** 2),
            std=np.asarray(stds, dtype=float),
        )

    def test_affine_inputs_reproduced_exactly(self):
        n_bars = [0.1, 0.2, 0.3]
        reports = [self._report([1 + 2 * nb, -1 - 2 * nb, 0.5], [0.01, 0.01, 0.01])
                   for nb in n_bars]
        out = est.zero_noise_extrapolate(reports, n_bars, degree=2)
        np.testing.assert_allclose(np.real(out.coefficients.values),
                                   [1.0, -1.0, 0.5], atol=1e-10)

    def test_variance_strictly_inflated(self):
        n_bars = [0.1, 0.2, 0.3]
        reports = [self._report([1.0, 1.0, 1.0], [0.02, 0.03, 0.01]) for _ in n_bars]
        out = est.zero_noise_extrapolate(reports, n_bars, degree=2)
        np.testing.assert_allclose(np.real(out.coefficients.values), 1.0, atol=1e-10)
        for rep in reports:
            assert np.all(out.std > rep.std)
        # Lagrange weights (3, -3, 1): variance factor 19
        assert out.std[2] == pytest.approx(np.sqrt(19) * 0.01, rel=1e-9)

    def test_needs_enough_points(self):
        reports = [self._report([1, 1, 1], [0.1, 0.1, 0.1])] * 2
        with pytest.raises(InvalidParameterError):
            est.zero_noise_extrapolate(reports, [0.1, 0.2], degree=2)


class TestThermalAndHeating:
    def test_thermal_fit_recovers_scaled_coefficients(self):
        points = est.build_grid(1.46, 0.3, 0.05, 0.05, n_bar=0.1)
        model = est.ModelSpec(2, 0.1)
        theta = dg.truth_coefficients(2, 0.1)
        records = model_dataset(points, theta, 1_600_000, seed=12, n_bar=0.1)
        report = est.minimize(est.FitProblem(model, records, cost="ls"))
        # well-specified data: the estimate sits within a few stochastic sigma
        gap = np.abs(np.real(report.coefficients.values) - np.array([-1.2, -1.2, 0.72]))
        assert np.all(gap <= 3.0 * report.std)

    def test_thermal_fit_rejects_order3(self):
        with pytest.raises(UnsupportedOrderError):
            est.ModelSpec(3, 0.1)

    def test_heated_fit_recovers_injected_distortion(self):
        # generate data from the heated model itself with known c_h
        points = est.build_grid(2.0, 0.78, 0.1, 0.08, n_bar=0.1)
        c_h_true = 0.08
        theta = dg.truth_coefficients(2, 0.1)
        chis = np.array([dg.eval_model(2, theta, p.xi, p.r, n_bar=0.1, c_h=c_h_true)
                         for p in points], dtype=complex)
        records = sp.generate_dataset(points, chis, 1_600_000, 2, seed=21)
        report = est.minimize(
            est.FitProblem(est.ModelSpec(2, 0.1, heating=True), records, cost="ls"))
        assert report.c_h == pytest.approx(c_h_true, abs=0.02)
        np.testing.assert_allclose(np.real(report.coefficients.values),
                                   [-1.2, -1.2, 0.72], atol=0.15)

    def test_zero_heating_data_yields_small_ch(self):
        points = est.build_grid(2.0, 0.78, 0.1, 0.08, n_bar=0.1)
        records = sp.generate_dataset(points, sp.analytic_chi_grid(points, 2), 1_600_000, 2,
                                      seed=31)
        report = est.minimize(
            est.FitProblem(est.ModelSpec(2, 0.1, heating=True), records, cost="ls"))
        assert abs(report.c_h) <= 0.03
        condition = report.diagnostics["fisher_condition"]
        assert np.isfinite(condition) and condition >= 1.0


class TestReportRows:
    def test_rows_cover_all_coefficients(self):
        points = est.build_grid(1.0, 0.3, 0.1, 0.1)
        records = model_dataset(points, dg.truth_coefficients(2), 100_000, seed=2)
        report = est.minimize(est.FitProblem(est.ModelSpec(2), records))
        rows = est.report_rows(report)
        assert [row["name"] for row in rows] == ["c1", "c2", "c3"]
        assert all(np.isfinite(row["std"]) for row in rows)
