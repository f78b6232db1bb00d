"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""

import time

import numpy as np
import pytest

from weylfit import cli
from weylfit import series as dg
from weylfit import estimator as est
from weylfit import sampler as sp

TRUTH2 = np.array([-1.0, -1.0, 0.5])
TRUTH2_THERMAL = np.array([-1.2, -1.2, 0.72])
TOTAL_SHOTS = 1_600_000


def report_line(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def small_series_grid():
    mags = np.linspace(0.02, 0.3, 8)
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    return (mags[None, :] * np.exp(1j * angles)[:, None]).ravel()


@pytest.fixture(scope="module")
def fig3_points():
    return est.build_grid(2.0, 0.78, 0.02, 0.02)


@pytest.fixture(scope="module")
def fig3_chis(fig3_points):
    return sp.analytic_chi_grid(fig3_points, 2, 100)


@pytest.fixture(scope="module")
def repeats_1p6m(fig3_points, fig3_chis):
    thetas, _ = est.monte_carlo_recovery(fig3_points, est.ModelSpec(2), TOTAL_SHOTS,
                                         repeats=200, seed=102, chi_values=fig3_chis)
    return thetas


def test_criterion_01_series_agreement_n2():
    start = time.time()
    worst = max(dg.truncation_residual(2, r, small_series_grid())
                for r in (0.01, 0.02, 0.03, 0.04, 0.05))
    elapsed = time.time() - start
    ok = worst <= 1e-3 and elapsed < 1.0
    report_line(1, ok, f"order-2 series residual {worst:.2e} (tol 1e-3), {elapsed:.2f}s")


def test_criterion_02_series_agreement_n3():
    start = time.time()
    worst = max(dg.truncation_residual(3, r, small_series_grid(), cutoff=100)
                for r in (0.01, 0.03, 0.05))
    elapsed = time.time() - start
    ok = worst <= 2e-3 and elapsed < 30.0
    report_line(2, ok, f"order-3 series residual {worst:.2e} (tol 2e-3), {elapsed:.1f}s")


def test_criterion_03_fig3_recovery(fig3_points, fig3_chis):
    start = time.time()
    thetas, _ = est.monte_carlo_recovery(fig3_points, est.ModelSpec(2), TOTAL_SHOTS,
                                         repeats=50, seed=33, chi_values=fig3_chis)
    mean_err = np.abs(np.real(thetas) - TRUTH2).mean(axis=0)
    elapsed = time.time() - start
    ok = bool(np.all(mean_err <= 0.1)) and elapsed < 600.0
    report_line(3, ok, f"mean |error| per coefficient {np.round(mean_err, 4)} "
                       f"(tol 0.1), {elapsed:.0f}s")


def test_criterion_04_shot_scaling(fig3_points, fig3_chis, repeats_1p6m):
    thetas_small, _ = est.monte_carlo_recovery(fig3_points, est.ModelSpec(2),
                                               TOTAL_SHOTS // 4, repeats=200,
                                               seed=101, chi_values=fig3_chis)
    ratio = (np.real(thetas_small[:, 1]).std(ddof=1)
             / np.real(repeats_1p6m[:, 1]).std(ddof=1))
    ok = 1.6 <= ratio <= 2.4
    report_line(4, ok, f"c2 std ratio at N vs 4N = {ratio:.3f} (band 2.0 +- 0.4)")


def test_criterion_05_fisher_consistency(fig3_points, repeats_1p6m):
    alloc = sp.allocate_shots(len(fig3_points), TOTAL_SHOTS)
    cov = np.linalg.inv(est.fisher_information(dg.truth_coefficients(2),
                                               fig3_points, alloc))
    predicted = np.sqrt(np.diag(cov))
    observed = np.real(repeats_1p6m).std(axis=0, ddof=1)
    ratio = observed / predicted
    ok = bool(np.all((ratio >= 0.7) & (ratio <= 1.3)))
    report_line(5, ok, f"MC/Fisher std ratios {np.round(ratio, 3)} (band 0.7-1.3)")


def test_criterion_06_infinite_shot_bias():
    points = est.build_grid(1.0, 0.3, 0.02, 0.02)
    alloc = sp.allocate_shots(len(points), TOTAL_SHOTS)
    theta_star = dg.truth_coefficients(2)
    bias = est.systematic_bias(theta_star, points, alloc)
    worst = 0.0
    for cost in ("ml", "ls"):
        fit, _ = est.fit_exact_frequencies(points, est.ModelSpec(2), alloc, cost=cost)
        gap = np.abs(np.real(fit.values) - (TRUTH2 + np.real(bias)))
        worst = max(worst, float(gap.max()))
    ok = worst <= 1e-3
    report_line(6, ok, f"infinite-shot fit vs theta_star + I^-1 F dp: "
                       f"max gap {worst:.2e} (tol 1e-3, bias {np.round(np.real(bias), 3)})")


def test_criterion_07_thermal_recovery():
    points = est.build_grid(1.46, 0.3, 0.02, 0.02, n_bar=0.1)
    chis = sp.analytic_chi_grid(points, 2, 100)
    thetas, _ = est.monte_carlo_recovery(points, est.ModelSpec(2, 0.1), TOTAL_SHOTS,
                                         repeats=24, seed=7, chi_values=chis)
    mean_fit = np.real(thetas).mean(axis=0)
    err = np.abs(mean_fit - TRUTH2_THERMAL)
    ok = bool(np.all(err <= 0.15))
    report_line(7, ok, f"thermal estimates {np.round(mean_fit, 3)} vs "
                       f"(-1.2, -1.2, 0.72): errors {np.round(err, 3)} (tol 0.15)")


def test_criterion_08_zero_noise_extrapolation():
    n_bars = [0.1, 0.2, 0.3]
    per_run = TOTAL_SHOTS // 3
    model0 = est.ModelSpec(2, 0.0)
    reports = []
    for nb in n_bars:
        points = est.build_grid(2.0, 0.78, 0.02, 0.02, n_bar=nb)
        chis = sp.analytic_chi_grid(points, 2, 100)
        thetas, _ = est.monte_carlo_recovery(points, model0, per_run, repeats=16,
                                             seed=500 + int(nb * 10), chi_values=chis)
        mean_fit = thetas.mean(axis=0)
        alloc = sp.allocate_shots(len(points), per_run)
        cov = np.linalg.inv(est.fisher_information(
            dg.CoefficientVector(2, mean_fit), points, alloc))
        reports.append(est.EstimationReport(
            model=model0,
            coefficients=dg.CoefficientVector(2, mean_fit),
            std=np.sqrt(np.diag(cov)),
        ))
    naive = reports[0]
    extrap = est.zero_noise_extrapolate(reports, n_bars, degree=2)
    naive_bias = np.abs(np.real(naive.coefficients.values) - TRUTH2)
    zne_bias = np.abs(np.real(extrap.coefficients.values) - TRUTH2)
    bias_ok = zne_bias[0] < naive_bias[0] and zne_bias[1] < naive_bias[1]
    var_ok = bool(np.all(extrap.std > np.max([r.std for r in reports], axis=0)))
    ok = bias_ok and var_ok
    report_line(8, ok, f"|bias| c1,c2: naive {np.round(naive_bias[:2], 3)} -> "
                       f"extrapolated {np.round(zne_bias[:2], 3)}; "
                       f"variance inflated: {var_ok}")


def test_criterion_09_protocol_fidelity(fig3_points, fig3_chis):
    start = time.time()
    config = sp.ProtocolConfig(cutoff=100, heating_rate=0.0)
    chis_protocol = sp.simulate_chi_grid(fig3_points, 2, config)
    gap = float(np.max(np.abs(chis_protocol - fig3_chis)))
    elapsed = time.time() - start
    ok = gap <= 1e-3
    report_line(9, ok, f"master-equation vs analytic chi: uniform gap {gap:.2e} "
                       f"(tol 1e-3) over {len(fig3_points)} points, {elapsed:.0f}s")


def test_criterion_10_heating_mitigation():
    start = time.time()
    points = est.build_grid(2.0, 0.78, 0.02, 0.02, n_bar=0.1)
    config = sp.ProtocolConfig(cutoff=100, heating_rate=300.0)
    chis = sp.simulate_chi_grid(points, 2, config)
    plain_err, heated_err, c_hs = [], [], []
    for seed in (11, 202, 4096):
        records = sp.generate_dataset(points, chis, TOTAL_SHOTS, 2, seed=seed)
        plain = est.minimize(est.FitProblem(est.ModelSpec(2, 0.1), records, cost="ls"))
        heated = est.minimize(
            est.FitProblem(est.ModelSpec(2, 0.1, heating=True), records, cost="ls"))
        plain_err.append(abs(plain.coefficients.values[1].real - TRUTH2_THERMAL[1]))
        heated_err.append(abs(heated.coefficients.values[1].real - TRUTH2_THERMAL[1]))
        c_hs.append(heated.c_h)
    plain_c2 = float(np.mean(plain_err))
    heated_c2 = float(np.mean(heated_err))
    c_h = float(np.mean(c_hs))
    elapsed = time.time() - start
    reduction_ok = heated_c2 <= 0.5 * plain_c2
    c_h_ok = abs(c_h - 0.088) <= 0.3 * 0.088
    ok = reduction_ok and c_h_ok and elapsed < 1800.0
    report_line(10, ok, f"c2 error {plain_c2:.3f} -> {heated_c2:.3f} "
                        f"({plain_c2 / max(heated_c2, 1e-12):.1f}x reduction, need >= 2x); "
                        f"c_h {c_h:.4f} vs 0.088 +- 30%; {elapsed:.0f}s")


def test_criterion_11_invariant_suite(capsys):
    start = time.time()
    code = cli.run(["validate"])
    elapsed = time.time() - start
    output = capsys.readouterr().out
    print(output)
    ok = code == 0 and elapsed < 120.0
    report_line(11, ok, f"validate exit code {code}, {elapsed:.0f}s (cap 120s)")
