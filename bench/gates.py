"""Seed-independent correctness gates on CLI outputs, and the chi oracles.

Each check returns a list of problems; an empty list means the gate passed.
The gates read the CSV files the CLI writes; the order-2 accuracy reference
and the oracles call public weylfit functions (`estimator.fit_exact_frequencies`,
`sampler.simulate_chi_grid`) on closed-form chi values.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import yaml

# Allowed |c - limit| in units of the report's std, per fit cost.  The
# report's std is the inverse-Fisher (ML) std for either cost.  In 150
# draws on the 3900-point design, ML fits stayed within 3.7 std of their
# infinite-shot limit.  Weighted LS fits, whose weights are the empirical
# binomial variances, sat 2.2 std off theirs on average and reached 5.6 std;
# on the 200-point protocol design they spread 1.6 times the reported std.
# So LS gets a wider band.
SIGMAS = {"ml": 5.0, "ls": 8.0}
ORACLE_TOL = 1e-6


def theta_star(n: int) -> list[complex]:
    """Exact series coefficients of the squeezed vacuum at order n."""
    return {2: [-1.0, -1.0, 0.5], 3: [-1j / 3.0, -0.5, 1.0 / 6.0, -1.0 / 18.0]}[n]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(row: dict, keys) -> bool:
    try:
        return all(math.isfinite(float(row[k])) for k in keys)
    except (KeyError, TypeError, ValueError):
        return False


def check_dataset(path: Path, rows: int, total_shots: int) -> list[str]:
    records = _rows(path)
    problems = []
    if len(records) != rows:
        problems.append(f"dataset has {len(records)} rows, expected {rows}")
    shots = sum(int(r["shots"]) for r in records)
    if shots != total_shots:
        problems.append(f"dataset shots sum to {shots}, expected {total_shots}")
    return problems


def check_report(path: Path, n: int, accuracy: str, sigmas: float,
                 limit: list[complex] | None = None) -> list[str]:
    """Every value finite, and every coefficient within `sigmas` std of its prediction.

    accuracy "limit": |c - limit| <= sigmas std, where `limit` is the fit of
    the same design at exact frequencies (order 2); "modulus": |c - theta*|
    <= |bias_sys| + sigmas std, for a bias reported as a modulus (order 3).
    """
    rows = _rows(path)
    keys = ("re", "im", "std", "bias_sys", "mse")
    problems = [f"{r['name']}: non-finite value" for r in rows if not _finite(r, keys)]
    truth = theta_star(n)
    if problems or len(rows) != len(truth):
        return problems or [f"report has {len(rows)} coefficients, expected {len(truth)}"]
    for k, (row, exact) in enumerate(zip(rows, truth)):
        c = complex(float(row["re"]), float(row["im"]))
        std, bias = float(row["std"]), float(row["bias_sys"])
        if accuracy == "limit":
            gap, allowed = abs(c - limit[k]), sigmas * std
        else:
            gap, allowed = abs(c - exact), abs(bias) + sigmas * std
        if not gap <= allowed:
            problems.append(f"{row['name']}: |gap| {gap:.3g} > {allowed:.3g}")
    return problems


def infinite_shot_fit(dataset: Path, n: int, cost: str) -> list[complex]:
    """The fit, with the given cost, of a dataset's design at exact frequencies.

    Its chi values are the closed forms (`sampler.analytic_chi_grid`), so it
    is the point a healthy fit of that design scatters around.
    """
    import numpy as np
    from weylfit import estimator, sampler

    with open(dataset, newline="") as fh:
        records = sampler.dataset_from_csv(fh)
    bases = sampler.bases_for_order(n)
    points = [r.point for r in records if r.basis == bases[0]]
    shots = {b: np.array([r.shots for r in records if r.basis == b]) for b in bases}
    theta, _ = estimator.fit_exact_frequencies(points, estimator.ModelSpec(n), shots, cost=cost)
    return [complex(v) for v in theta.values]


def bias_gap(path: Path, n: int, limit: list[complex]) -> list[float]:
    """(limit - theta* - bias_sys) / std per coefficient of a report.

    How far the report's linearised bias misses its own infinite-shot fit;
    printed in the run record, not gated.
    """
    rows = _rows(path)
    return [abs(lim - exact - float(r["bias_sys"])) / float(r["std"])
            for r, exact, lim in zip(rows, theta_star(n), limit)]


def check_sweep(path: Path, cells: int) -> list[str]:
    rows = _rows(path)
    problems = [] if len(rows) == cells else [f"sweep has {len(rows)} cells, expected {cells}"]
    problems += [f"sweep cell {r}: non-finite" for r in rows
                 if not _finite(r, ("xi_max", "r_max", "rmse"))]
    return problems


def fit_parts(meta_path: Path) -> list[dict]:
    """The per-subproblem fit diagnostics (starts, iterations, exit) of a report."""
    meta = yaml.safe_load(meta_path.read_text()) or {}
    return list((meta.get("diagnostics") or {}).get("parts") or [])


def chi_oracles() -> list[tuple[str, float]]:
    """Largest |chi - reference| of two protocol rays against closed forms.

    A heating-free ray at r = 0.78 against the squeezed-vacuum chi, and a
    heated r = 0 ray against exp(-(1+2 n_eff)|xi|^2/2) exp(-gamma |xi|^2 T/3)
    with n_eff = n_bar + gamma (idle + prep) and T = |xi| / omega_eta.
    """
    import numpy as np
    from weylfit import charfunc, sampler

    mags = np.linspace(0.2, 2.0, 10)
    cfg = sampler.ProtocolConfig()
    points = [sampler.MeasurementPoint(xi=complex(m), r=0.78) for m in mags]
    chi = sampler.simulate_chi_grid(points, 2, cfg)
    exact = charfunc.chi_squeezed_exact(mags.astype(complex), charfunc.SqueezeSpec(n=2, r=0.78))
    gaps = [("squeezed-r0.78", float(np.max(np.abs(chi - exact))))]

    gamma, n_bar = 300.0, 0.1
    cfg = sampler.ProtocolConfig(heating_rate=gamma)
    points = [sampler.MeasurementPoint(xi=complex(m), r=0.0, n_bar=n_bar) for m in mags]
    chi = sampler.simulate_chi_grid(points, 2, cfg)
    n_eff = n_bar + gamma * (cfg.idle_time + cfg.prep_duration)
    probe_t = mags / cfg.omega_eta
    exact = np.exp(-(1 + 2 * n_eff) * mags**2 / 2) * np.exp(-gamma * mags**2 * probe_t / 3)
    gaps.append(("heated-r0", float(np.max(np.abs(chi - exact)))))
    return gaps
