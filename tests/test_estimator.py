import inspect
import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oracles import dataset_from_records, newton_reference
from weylfit import cli
from weylfit import series as dg
from weylfit import estimator as est
from weylfit import sampler as sp
from weylfit.errors import (
    DatasetError,
    InvalidParameterError,
    NonConvergenceError,
    RankDeficiencyError,
    TruncationWarning,
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

    def test_each_part_fits_the_rows_of_its_basis_in_dataset_order(self):
        # x and y rows interleave: each part gets its own basis's rows, in order
        xi = np.array([0.1, 0.2 + 0.1j, 0.3, 0.4 - 0.2j, 0.5j, 0.6])
        codes = [0, 1, 1, 0, 1, 0]
        shots = [10, 20, 30, 40, 50, 60]
        plus = [1, 2, 3, 4, 5, 6]
        dataset = sp.Dataset(sp.Design(xi, np.arange(6) / 10), codes, shots, plus, 7)
        subs = est.FitProblem(est.ModelSpec(3), dataset).subproblems()
        assert [sub.part for sub in subs] == [0, 1]
        for sub, rows in zip(subs, ([0, 3, 5], [1, 2, 4])):
            assert sub.design == sp.Design(xi[rows], np.array(rows) / 10)
            np.testing.assert_array_equal(sub.shots, np.take(shots, rows))
            np.testing.assert_array_equal(sub.freq, np.take(plus, rows) / np.take(shots, rows))

    @pytest.mark.parametrize("call", [
        lambda points, data: est.minimize(est.FitProblem(est.ModelSpec(2), data, cost="LS")),
        lambda points, data: est.cost(TRUTH2, est.FitProblem(est.ModelSpec(2), data, cost="LS")),
        lambda points, data: est.fit_exact_frequencies(points, est.ModelSpec(2), 1000,
                                                       cost="LS"),
        lambda points, data: est.monte_carlo_recovery(points, est.ModelSpec(2), 100_000, 1, 1,
                                                      cost="LS")],
        ids=["minimize", "cost", "fit_exact_frequencies", "monte_carlo_recovery"])
    def test_unknown_cost_is_refused(self, call):
        # any cost but "ls" used to fit ML without complaint
        points = est.build_grid(1.0, 0.3, 0.1, 0.1)
        records = model_dataset(points, dg.truth_coefficients(2), 100_000, seed=2)
        with pytest.raises(InvalidParameterError, match="cost must be 'ls' or 'ml', got 'LS'"):
            call(points, records)

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


NEWTON_DESIGNS = {
    # (order, n_B, heated, design): the 3900-point reference grid, the protocol-o2
    # two rays, criterion 7's thermal grid, the 300-point order-3 grid, and a heated
    # model, whose terms move with c_h and so are never built ahead
    "o2-3900": (2, 0.0, False, lambda: est.build_grid(2.0, 0.78, 0.02, 0.02)),
    "o2-two-rays": (2, 0.0, False, lambda: est.build_grid(2.0, 0.78, 0.02, 0.39)),
    "o2-thermal": (2, 0.1, False, lambda: est.build_grid(1.46, 0.3, 0.02, 0.02, n_bar=0.1)),
    "o3-complex": (3, 0.0, False, lambda: est.build_grid_complex(1.7, 1.7, 0.78)),
    "o2-heated": (2, 0.0, True, lambda: est.build_grid(2.0, 0.78, 0.02, 0.39)),
}


@pytest.fixture(scope="module")
def newton_starts():
    """(design, shots, dataset, cost, part, start) -> (subproblem, start point) of every
    Newton run below: 3 datasets per design and shot budget, drawn as
    `monte_carlo_recovery` draws them, with both costs and both starts of `_fit`."""
    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # the order-3 grid's largest |xi|
        for name, (n, n_bar, heated, grid) in NEWTON_DESIGNS.items():
            model, points = est.ModelSpec(n, n_bar, heated), grid()
            bases = sp.bases_for_order(n)
            centers = est._pack_theta(model, np.real(dg.truth_coefficients(n, n_bar).values))
            for total in (1_600_000, 400_000):
                alloc = sp.allocate_shots(len(points) * len(bases), total).reshape(len(bases), -1)
                exact = est._exact_subproblems(model, points, dict(zip(bases, alloc)))
                for seed in range(3):
                    rng = np.random.default_rng(np.random.SeedSequence(34, spawn_key=(seed,)))
                    subs = [replace(sub, freq=rng.binomial(sub.shots, sub.freq) / sub.shots)
                            for sub in exact]
                    for cost, (part, (sub, center)) in itertools.product(
                            ("ls", "ml"), enumerate(zip(subs, centers))):
                        runs[name, total, seed, cost, part, "zero"] = sub, np.zeros_like(center)
                        if center.any():
                            runs[name, total, seed, cost, part, "center"] = sub, center
    return runs


@pytest.fixture(scope="module")
def newton_outcomes(newton_starts):
    """Each run's (x, cost, gradient, exit, accepted steps) from `_newton` and from
    the full-evaluation reference loop, as bytes where they are arrays."""
    def outcome(fit):
        x, cost_val, grad, reason, steps = fit
        return x.tobytes(), float(cost_val).hex(), grad.tobytes(), reason, steps

    return {key: (outcome(est._newton(sub, x0, key[3])),
                  outcome(newton_reference(sub, x0, key[3])))
            for key, (sub, x0) in newton_starts.items()}


class TestNewtonAgainstReference:
    """`_newton` scores trials by their cost alone and stops the damping ladder once
    a step no longer moves x; every fit must still be the full-evaluation loop's."""

    @pytest.mark.parametrize("design", sorted(NEWTON_DESIGNS))
    def test_every_run_is_bitwise_the_reference_loops(self, newton_outcomes, design):
        runs = {key: pair for key, pair in newton_outcomes.items() if key[0] == design}
        assert len(runs) >= 24
        assert [key for key, (new, ref) in runs.items() if new != ref] == []

    def test_a_fifth_of_the_runs_exercise_the_ladder_exit(self, newton_outcomes):
        exits = [new[3] for new, _ in newton_outcomes.values()]
        assert set(exits) == {"gradient", "cost-stationary"}
        assert exits.count("cost-stationary") >= 0.2 * len(exits)

    @pytest.mark.parametrize("design", ["o2-3900", "o2-heated"])
    def test_the_jacobian_is_built_once_per_accepted_step(self, newton_starts, monkeypatch,
                                                          design):
        calls, part_model = [], dg.part_model
        signature = inspect.signature(part_model)

        def counting(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments.get("jacobian", True))
            return part_model(*args, **kwargs)

        monkeypatch.setattr(dg, "part_model", counting)
        for key, (sub, x0) in newton_starts.items():
            if key[0] == design:
                calls.clear()
                *_, reason, steps = est._newton(sub, x0, key[3])
                assert calls.count(True) == steps + 1, key
                if reason == "cost-stationary":
                    # the last ladder's cost-only trials: it ends once the step vanishes
                    assert calls[::-1].index(True) < 30, key


class TestProtocolOutlier:
    """The protocol-o2 session whose ML c2 sits 5.27 sigma from the infinite-shot
    fit (bench seed 96 of a 600-session scan): the fit, not the solver, is off."""

    @pytest.mark.parametrize("cost", ["ls", "ml"])
    def test_kept_fit_is_the_best_of_forty_perturbed_starts(self, tmp_path, cost):
        config = tmp_path / "config.yaml"
        config.write_text(json.dumps({"grid": {"d_r": 0.39}}))  # JSON is YAML
        assert cli.run(["--config", str(config), "--seed", "1694833989", "--out", str(tmp_path),
                        "simulate", "--source", "protocol"]) == 0
        with open(tmp_path / "dataset.csv", newline="") as fh:
            problem = est.FitProblem(est.ModelSpec(2), sp.dataset_from_csv(fh), cost=cost)
        kept = est.minimize(problem).diagnostics["parts"][0]["cost"]
        (sub,) = problem.subproblems()
        center = np.real(dg.truth_coefficients(2).values)
        rng = np.random.default_rng(0)
        best = min(est._newton(sub, center + rng.normal(size=3), cost)[1] for _ in range(40))
        assert kept <= best * (1.0 + 1e-12)


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

    def test_allocation_of_the_wrong_length_is_rejected(self):
        points = est.build_grid(1.0, 0.3, 0.2, 0.1)
        with pytest.raises(InvalidParameterError, match="shot allocation length"):
            est.fisher_information(dg.truth_coefficients(2), points,
                                   np.full(len(points) - 1, 1000))

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


class TestMonteCarloRecovery:
    def test_sign_of_a_roundoff_chi_does_not_pick_the_draw(self):
        # chi = +-1e-15 is p = 0.5 either way; the binomial draw must not see the sign
        points = est.build_grid(2.0, 0.78, 0.1, 0.1)
        chis = sp.analytic_chi_grid(points, 2)
        thetas = []
        for sign in (1.0, -1.0):
            chis[[3, 40, 80, 120, 150]] = sign * 1e-15
            thetas.append(est.monte_carlo_recovery(points, est.ModelSpec(2), 400_000,
                                                   repeats=2, seed=5, chi_values=chis)[0])
        assert np.array_equal(thetas[0], thetas[1])

    def test_heated_fits_recover_c_h(self):
        points = est.build_grid(2.0, 0.78, 0.1, 0.1, n_bar=0.1)
        theta = dg.truth_coefficients(2, 0.1)
        chis = np.array([dg.eval_model(2, theta, p.xi, p.r, n_bar=0.1, c_h=0.05)
                         for p in points], dtype=complex)
        _, c_hs = est.monte_carlo_recovery(points, est.ModelSpec(2, 0.1, heating=True),
                                           400_000, repeats=8, seed=3, chi_values=chis)
        assert c_hs.shape == (8,)
        assert np.all(np.isfinite(c_hs))
        # 8 repeats of spread about 0.009: the mean sits within 0.01 of the truth
        assert abs(float(np.mean(c_hs)) - 0.05) <= 0.01

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("cost", ["ls", "ml"])
    def test_each_repeat_fits_the_counts_of_its_own_stream(self, n, cost):
        # repeat m draws every part's counts in part order from child stream m of the seed
        points = (est.build_grid(1.0, 0.3, 0.1, 0.1) if n == 2
                  else est.build_grid_complex(1.0, 1.0, 0.3, 4, 4, 3))
        model, total, seed = est.ModelSpec(n), 300_001, 12
        bases = sp.bases_for_order(n)
        alloc = sp.allocate_shots(len(points) * len(bases), total).reshape(len(bases), -1)
        probs = sp.born_probabilities(sp.analytic_chi_grid(points, n))
        records = sp.Design(*(np.tile(getattr(points, k), len(bases))
                              for k in ("xi", "r", "theta", "n_bar")))
        codes = np.repeat([sp.BASIS_CODES[b] for b in bases], len(points))
        thetas, _ = est.monte_carlo_recovery(points, model, total, 3, seed, cost=cost)
        for m in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
            counts = np.concatenate([rng.binomial(alloc[k], probs[k]) for k in range(len(bases))])
            dataset = sp.Dataset(records, codes, alloc.ravel(), counts, np.zeros(len(counts)))
            report = est.minimize(est.FitProblem(model, dataset, cost))
            assert np.array_equal(report.coefficients.values, thetas[m])


    @pytest.mark.parametrize("repeats, seed", [(-1, 1), (2, -3)])
    def test_negative_repeats_or_seed_is_refused(self, repeats, seed):
        points = est.build_grid(0.3, 0.2, 0.1, 0.1)
        with pytest.raises(InvalidParameterError, match="must be non-negative"):
            est.monte_carlo_recovery(points, est.ModelSpec(2), 10_000, repeats, seed)


class TestExactFrequencies:
    @pytest.mark.parametrize("chi_of", [lambda chis: chis[:-1], lambda chis: chis[:, None]],
                             ids=["short", "column"])
    @pytest.mark.parametrize("call", [
        lambda points, chis: est.fit_exact_frequencies(points, est.ModelSpec(2), 1000,
                                                       chi_values=chis),
        lambda points, chis: est.monte_carlo_recovery(points, est.ModelSpec(2), 100_000, 2, 1,
                                                      chi_values=chis)],
        ids=["fit_exact_frequencies", "monte_carlo_recovery"])
    def test_chi_of_another_shape_than_the_grid_is_refused(self, call, chi_of):
        points = est.build_grid(0.8, 0.3, 0.2, 0.1)
        chis = sp.analytic_chi_grid(points, 2)
        with pytest.raises(InvalidParameterError, match="does not match grid"):
            call(points, chi_of(chis))

    @pytest.mark.parametrize("call", [
        lambda: est.fit_exact_frequencies([], est.ModelSpec(2), 100),
        lambda: est.fisher_information(dg.truth_coefficients(2), [], 100),
        lambda: est.systematic_bias(dg.truth_coefficients(2), [], 100)],
        ids=["fit_exact_frequencies", "fisher_information", "systematic_bias"])
    def test_empty_design_is_refused(self, call):
        with pytest.raises(DatasetError, match="at least one measurement row"):
            call()


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


# `weylfit sweep`'s default --xi-max-list and --r-max-list
SWEEP_XI_MAXES = [0.6, 1.0, 1.4, 1.8, 2.0, 2.4]
SWEEP_R_MAXES = [0.1, 0.3, 0.5, 0.7, 0.78, 0.9]


class TestSweep:
    @pytest.mark.parametrize("xi_maxes, r_maxes, total, d_xi, d_r, n_bar", [
        # unsorted maxima, a maximum off the lattice, an odd total, single-r cells
        ([2.4, 0.61, 1.0], [0.9, 0.02, 0.3], 1_600_001, 0.02, 0.02, 0.0),
        ([0.6, 2.0], [0.3, 0.78], 1_600_000, 0.02, 0.02, 0.1),
        ([0.6, 1.0, 2.0], [0.78], 1_600_000, 0.02, 0.39, 0.0),
        # the benchmark's sweeps: the CLI's default 6x6 lists, and the protocol rays
        (SWEEP_XI_MAXES, SWEEP_R_MAXES, 1_600_000, 0.02, 0.02, 0.0),
        (SWEEP_XI_MAXES, SWEEP_R_MAXES, 1_600_000, 0.02, 0.02, 0.1),
        (SWEEP_XI_MAXES, [0.78], 1_600_000, 0.02, 0.39, 0.0),
        # every cell single-r, so every one rank-deficient: no finite cell in the batch
        ([0.6, 2.4], [0.02, 0.029], 1_600_000, 0.02, 0.02, 0.0),
    ], ids=["unsorted-offlattice-odd", "thermal", "protocol-rays", "default-6x6",
            "default-6x6-thermal", "protocol-o2", "all-single-r"])
    def test_lattice_sweep_equals_per_cell_designs(self, xi_maxes, r_maxes, total,
                                                   d_xi, d_r, n_bar):
        rmse = est.rmse_sweep(xi_maxes, r_maxes, total, d_xi=d_xi, d_r=d_r, n_bar=n_bar)
        expected = reference_sweep(xi_maxes, r_maxes, total, d_xi, d_r, n_bar)
        assert np.array_equal(rmse, expected)

    def test_model_is_evaluated_once_on_the_lattice(self, monkeypatch):
        # every cell is scored from one evaluation of p and dp on the whole lattice
        calls, part_model = [], dg.part_model
        monkeypatch.setattr(dg, "part_model",
                            lambda *args, **kwargs: calls.append(1) or part_model(*args, **kwargs))
        rmse = est.rmse_sweep(SWEEP_XI_MAXES, SWEEP_R_MAXES, 1_600_000)
        assert rmse.shape == (6, 6) and np.isfinite(rmse).all()
        assert len(calls) == 1

    @settings(max_examples=20, deadline=None)
    @given(d_xi=st.floats(0.05, 0.4), d_r=st.floats(0.02, 0.4),
           xi_steps=st.lists(st.floats(1.0, 8.0), min_size=1, max_size=3),
           r_steps=st.lists(st.floats(1.0, 6.0), min_size=1, max_size=3),
           total=st.integers(100, 1_000_000))
    def test_lattice_sweep_equals_per_cell_designs_property(self, d_xi, d_r, xi_steps,
                                                            r_steps, total):
        xi_maxes = [d_xi * s for s in xi_steps]
        r_maxes = [d_r * s for s in r_steps]
        rmse = est.rmse_sweep(xi_maxes, r_maxes, total, d_xi=d_xi, d_r=d_r)
        assert np.array_equal(rmse, reference_sweep(xi_maxes, r_maxes, total, d_xi, d_r))

    @pytest.mark.parametrize("xi_maxes, r_maxes, d_xi, d_r", [
        ([0.01, 1.0], [0.5], 0.02, 0.02),
        ([1.0], [0.5, 0.01], 0.02, 0.02),
        ([1.0], [0.5], 0.0, 0.02),
    ])
    def test_cell_below_one_spacing_is_rejected(self, xi_maxes, r_maxes, d_xi, d_r):
        with pytest.raises(InvalidParameterError):
            est.rmse_sweep(xi_maxes, r_maxes, 100_000, d_xi=d_xi, d_r=d_r)

    @pytest.mark.parametrize("xi_maxes, r_maxes", [([], [0.3]), ([1.0], [])])
    def test_empty_list_of_maxima_is_rejected(self, xi_maxes, r_maxes):
        with pytest.raises(InvalidParameterError, match="at least one"):
            est.rmse_sweep(xi_maxes, r_maxes, 1000)

    def test_small_grid_dominated_by_stochastic_error(self):
        rmse = est.rmse_sweep([0.3, 2.0], [0.02, 0.78], 100_000, d_xi=0.05, d_r=0.02)
        # a single-r design cannot separate c1 from c2 at all, and the
        # richest design beats every degenerate one
        assert np.isinf(rmse[0, 0])
        assert rmse[0, 0] > rmse[-1, -1]
        assert np.argmin(rmse) == rmse.size - 1  # (xi_max, r_max) = (2.0, 0.78)

    def test_monotone_in_shot_budget(self):
        lean = est.rmse_sweep([2.0], [0.78], 200_000, d_xi=0.05, d_r=0.05)
        rich = est.rmse_sweep([2.0], [0.78], 3_200_000, d_xi=0.05, d_r=0.05)
        assert rich[0, 0] < lean[0, 0]

    def test_minimum_sits_at_reference_design(self):
        # interior optimum of the bias/variance trade-off at 1.6M shots
        rmse = est.rmse_sweep([1.0, 1.4, 1.8, 2.0, 2.4], [0.3, 0.5, 0.7, 0.78, 0.9], 1_600_000)
        # rows run over r_max, columns over xi_max
        assert np.unravel_index(np.argmin(rmse), rmse.shape) == (3, 3)  # r 0.78, xi 2.0
        assert rmse.min() <= 0.1


class TestZeroNoiseExtrapolation:
    @staticmethod
    def _report(values, stds, n_bar=0.0):
        model = est.ModelSpec(2, 0.0)
        return est.EstimationReport(
            model=model,
            coefficients=dg.CoefficientVector(2, np.asarray(values, dtype=complex)),
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

    @pytest.mark.parametrize("bad", ["coefficient", "std", "occupation"])
    def test_non_finite_input_is_refused(self, bad):
        n_bars = [0.1, 0.2, np.nan if bad == "occupation" else 0.3]
        reports = [self._report([1.0, np.nan if bad == "coefficient" else 1.0, 1.0],
                                [0.1, np.nan if bad == "std" else 0.1, 0.1]) for _ in n_bars]
        with pytest.raises(InvalidParameterError, match="finite"):
            est.zero_noise_extrapolate(reports, n_bars, degree=2)

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

    @pytest.mark.parametrize("n_bar", [np.nan, np.inf])
    def test_model_rejects_non_finite_occupation(self, n_bar):
        with pytest.raises(InvalidParameterError):
            est.ModelSpec(2, n_bar)

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
