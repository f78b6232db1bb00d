"""Command-line front end.

Subcommands: charfunc, simulate, estimate, sweep, extrapolate, validate.
Every run writes its fully resolved config next to the outputs; exit codes
are 0 (success), 1 (validation failure), 2 (bad input), 3 (I/O error).
"""

from __future__ import annotations

import argparse
import atexit
import csv
import dataclasses
import gc
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from . import charfunc, config as config_mod, estimator, fockspace, sampler, series
from .errors import ConfigError, DatasetError, WeylfitError

# charfunc's largest lattice: the order-3 chi takes about 0.5 s per default
# 201 x 201 lattice on a 2-core x86_64 host, so about 12 s at this limit
CHARFUNC_MAX_POINTS = 1_000_000


@contextmanager
def _atomic_open(path: Path):
    """A text stream that becomes path only once it has been written whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        yield fh
    tmp.replace(path)


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _write_resolved(cfg: config_mod.RunConfig, stem: str) -> None:
    """Persist the fully resolved config next to a command's outputs."""
    _atomic_write(cfg.out_dir / f"{stem}.config.yaml", config_mod.resolved_yaml(cfg))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_list(text: str, option: str) -> list[float]:
    """The finite numbers of a comma-separated list option; ConfigError otherwise."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} must be a comma-separated list of numbers, "
                          f"got {text!r}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{option} values must be finite, got {text!r}")
    return values


def _grid_points(cfg: config_mod.RunConfig) -> sampler.Design:
    """The config's grid; one with more records than shots is refused before it is built."""
    g, m, count = cfg.grid, cfg.model, estimator.axis_count
    shape = ((count(g["xi_max"], g["d_xi"]), count(g["r_max"], g["d_r"])) if m["n"] == 2
             else (g["n_re"], g["n_im"], g["n_r"]))
    records = math.prod(shape) * len(sampler.bases_for_order(m["n"]))
    if min(shape) >= 1 and records > cfg.shots["total"]:  # else the builder refuses the axis
        raise ConfigError(f"a grid of {records} records needs at least one shot per record, "
                          f"but shots.total is {cfg.shots['total']}")
    if m["n"] == 2:
        return estimator.build_grid(g["xi_max"], g["r_max"], g["d_xi"], g["d_r"],
                                    n_bar=m["n_B"])
    return estimator.build_grid_complex(g["re_xi_max"], g["im_xi_max"], g["r_max"],
                                        n_re=g["n_re"], n_im=g["n_im"], n_r=g["n_r"],
                                        n_bar=m["n_B"])


def _save_report(report: estimator.EstimationReport, path: Path, extra_meta: dict) -> None:
    """The report CSV and its ``.meta.yaml``: model, rmse, diagnostics and `extra_meta`."""
    rows = estimator.report_rows(report)
    header = ["name", "re", "im", "std", "bias_sys", "mse"]
    _write_csv(path, header, ([r[h] for h in header] for r in rows))
    meta = {
        "model": {"n": report.model.n, "n_B": report.model.n_bar,
                  "heating": report.model.heating},
        "rmse": report.rmse,
        "diagnostics": report.diagnostics,
        **extra_meta,
    }
    _atomic_write(path.with_suffix(".meta.yaml"), yaml.safe_dump(meta, sort_keys=True))


def _load_report(path: Path) -> tuple[estimator.EstimationReport, float]:
    """A report CSV with its ``.meta.yaml``, and the occupation its data was taken at.

    The occupation is the sidecar's ``data_n_B``, else its ``model.n_B``.
    Malformed content raises DatasetError naming the report.
    """
    try:
        meta = yaml.safe_load(path.with_suffix(".meta.yaml").read_text())
        model = estimator.ModelSpec(int(meta["model"]["n"]), float(meta["model"]["n_B"]),
                                    bool(meta["model"]["heating"]))
        data_n_bar = float(meta.get("data_n_B", model.n_bar))
        values, stds, c_h = [], [], None
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["name"] == "c_h":
                    c_h = float(row["re"])
                else:
                    values.append(complex(float(row["re"]), float(row["im"])))
                    stds.append(float(row["std"]))
        coeffs = series.CoefficientVector(model.n, np.array(values), n_bar=model.n_bar)
    except (WeylfitError, yaml.YAMLError, csv.Error, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise DatasetError(f"malformed report {path}: {exc!r}") from exc
    return estimator.EstimationReport(model, coeffs, np.array(stds), c_h=c_h), data_n_bar


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _refuse_heating(cfg: config_mod.RunConfig, command: str, keys: tuple[str, ...]) -> None:
    """ConfigError naming the first of `keys` that asks an unheated command for heating."""
    values = {"protocol.heating_rate": cfg.protocol.heating_rate,
              "model.heating": cfg.model["heating"]}
    for key in keys:
        if values[key]:
            raise ConfigError(f"{command} has no heating model, so it cannot honour "
                              f"{key} = {values[key]}")


def cmd_charfunc(cfg: config_mod.RunConfig, args) -> int:
    _refuse_heating(cfg, "charfunc", ("protocol.heating_rate",))
    n = cfg.model["n"]
    spec = charfunc.SqueezeSpec(n=n, r=args.r, theta=args.theta)
    g = cfg.grid
    if not g["xi_max"] >= 0:
        raise ConfigError(f"charfunc needs grid.xi_max >= 0, got {g['xi_max']}")
    k = estimator.axis_count(g["xi_max"], g["d_xi"])
    if (2 * k + 1) ** 2 > CHARFUNC_MAX_POINTS:
        raise ConfigError(f"charfunc lattice of {(2 * k + 1) ** 2} points exceeds the limit "
                          f"of {CHARFUNC_MAX_POINTS} points; raise grid.d_xi or lower grid.xi_max")
    axis = g["d_xi"] * np.arange(-k, k + 1)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    xis = re + 1j * im
    chi = np.asarray(charfunc.chi_reference(xis, spec, cfg.model["n_B"], cfg.protocol.cutoff),
                     dtype=complex)
    out = cfg.out_dir / "charfunc.csv"
    xis, chi = xis.ravel(), chi.ravel()
    _write_csv(out, ["re_xi", "im_xi", "re_chi", "im_chi"],
               sampler.format_rows(xis.real, xis.imag, chi.real, chi.imag))
    _write_resolved(cfg, "charfunc")
    print(f"wrote {out}")
    return 0


def cmd_simulate(cfg: config_mod.RunConfig, args) -> int:
    points, n = _grid_points(cfg), cfg.model["n"]
    if args.source == "protocol":
        chis = sampler.simulate_chi_grid(points, n, cfg.protocol, jobs=args.jobs)
    elif cfg.protocol.heating_rate:
        raise ConfigError("the analytic chi source has no heating model; "
                          "use --source protocol for heating_rate > 0")
    else:
        chis = sampler.analytic_chi_grid(points, n, cfg.protocol.cutoff)
    dataset = sampler.generate_dataset(points, chis, cfg.shots["total"], n, cfg.seed)
    out = cfg.out_dir / "dataset.csv"
    _atomic_write(out, sampler.dataset_to_string(dataset))
    _write_resolved(cfg, "dataset")
    print(f"wrote {out} ({len(dataset)} records, {int(dataset.shots.sum())} shots)")
    return 0


def cmd_estimate(cfg: config_mod.RunConfig, args) -> int:
    with open(args.dataset, newline="") as fh:
        dataset = sampler.dataset_from_csv(fh)
    model = estimator.ModelSpec(cfg.model["n"], cfg.model["n_B"], cfg.model["heating"])
    report = estimator.minimize(estimator.FitProblem(model, dataset, cost=args.cost),
                                cfg.protocol.cutoff)
    out = cfg.out_dir / "report.csv"
    _save_report(report, out, {"dataset": str(args.dataset)})
    _write_resolved(cfg, "report")
    print(f"wrote {out}")
    for row in estimator.report_rows(report):
        print(f"  {row['name']}: {row['re']:+.6f}{row['im']:+.6f}j (std {row['std']:.2e})")
    return 0


def cmd_sweep(cfg: config_mod.RunConfig, args) -> int:
    _refuse_heating(cfg, "sweep", ("protocol.heating_rate", "model.heating"))
    xi_maxes = _float_list(args.xi_max_list, "--xi-max-list")
    r_maxes = _float_list(args.r_max_list, "--r-max-list")
    rmse = estimator.rmse_sweep(xi_maxes, r_maxes, cfg.shots["total"],
                                d_xi=cfg.grid["d_xi"], d_r=cfg.grid["d_r"],
                                n_bar=cfg.model["n_B"])
    out = cfg.out_dir / "rmse_sweep.csv"
    # rows run over r_max, then xi_max
    _write_csv(out, ["xi_max", "r_max", "rmse"],
               sampler.format_rows(np.tile(xi_maxes, len(r_maxes)),
                                   np.repeat(r_maxes, len(xi_maxes)), rmse.ravel()))
    _write_resolved(cfg, "rmse_sweep")
    print(f"wrote {out}")
    n_xi, n_r = (estimator.axis_count(max(v), cfg.grid[k])
                 for v, k in ((xi_maxes, "d_xi"), (r_maxes, "d_r")))
    deficient = int(np.count_nonzero(np.isinf(rmse)))
    print(f"{rmse.size} designs, {deficient} rank-deficient, on a "
          f"{n_xi} x {n_r} (xi x r) lattice of {n_xi * n_r} points")
    i, j = np.unravel_index(np.argmin(rmse), rmse.shape)
    if np.isfinite(rmse[i, j]):
        print(f"minimum rmse {rmse[i, j]:.4f} at xi_max={xi_maxes[j]}, r_max={r_maxes[i]}")
    else:
        print("no design in the sweep has a finite rmse")
    return 0


def cmd_extrapolate(cfg: config_mod.RunConfig, args) -> int:
    reports, n_bars = [], []
    for path in args.reports:
        rep, data_n_bar = _load_report(Path(path))
        if rep.model.heating or rep.c_h is not None:
            raise DatasetError(f"report {path} is a heated fit with a c_h row; extrapolation "
                               "has no heating model and would drop c_h")
        reports.append(rep)
        n_bars.append(data_n_bar)
    if args.n_bars:
        n_bars = _float_list(args.n_bars, "--n-bars")
    extrapolated = estimator.zero_noise_extrapolate(reports, n_bars, degree=args.degree)
    out = cfg.out_dir / "report_extrapolated.csv"
    _save_report(extrapolated, out, {"inputs": list(args.reports), "n_bars": n_bars})
    _write_resolved(cfg, "report_extrapolated")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_checks(cfg: config_mod.RunConfig):
    cutoff = cfg.protocol.cutoff
    vacuum = fockspace.thermal_state(0.0, cutoff)
    rng = np.random.default_rng(17)
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    def unitarity():
        worst = 0.0
        for n, zeta in ((2, 0.25), (3, 0.2 + 0.1j)):
            u = fockspace.squeeze_unitary(n, complex(zeta), cutoff)
            worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(cutoff)))))
        return worst <= 1e-9, f"max unitarity deviation {worst:.2e} (tol 1e-9)"

    def commutator():
        # strict 1e-14 bound checked at d=30; sqrt-roundoff makes the
        # absolute deviation scale like d*eps at larger cutoffs
        d = 30
        a = fockspace.annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        dev = float(np.max(np.abs((comm - np.eye(d))[: d - 1, : d - 1])))
        return dev <= 1e-14, f"ladder commutator deviation {dev:.2e} (tol 1e-14)"

    def trace_preservation():
        # the heating of the reference sequence: 300 quanta/s over a millisecond
        rho = fockspace.heating_flow(fockspace.thermal_state(0.2, cutoff), 300.0 * 1e-3)
        drift = abs(np.trace(rho).real - 1.0)
        return drift <= 1e-8, f"trace drift {drift:.2e} (tol 1e-8)"

    def truncation():
        xi = 1.0
        err = abs(fockspace.weyl_expectation(vacuum, xi).real - np.exp(-0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            flagged = fockspace.truncation_guard(vacuum, xi)
        ok = err <= 1e-6 and not flagged
        return ok, f"<0|D(1)|0> error {err:.2e} (tol 1e-6), guard flag {flagged}"

    def chi_agreement():
        spec = charfunc.SqueezeSpec(n=2, r=0.25, theta=0.0)
        xis = (rng.uniform(-1.5, 1.5, 24) + 1j * rng.uniform(-1.5, 1.5, 24))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            num = charfunc.chi_numeric_grid(vacuum, spec, xis)
        exact = charfunc.chi_squeezed_exact(xis, spec)
        gap = float(np.max(np.abs(num - exact)))
        return gap <= 1e-6, f"numeric-vs-exact gap {gap:.2e} (tol 1e-6)"

    def chi_hermiticity():
        g = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
        rho_m = g @ g.conj().T
        rho = rho_m / np.trace(rho_m)
        spec = charfunc.SqueezeSpec(n=3, r=0.2, theta=0.3)
        xis = rng.uniform(-1.0, 1.0, 8) + 1j * rng.uniform(-1.0, 1.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plus = charfunc.chi_numeric_grid(rho, spec, xis)
            minus = charfunc.chi_numeric_grid(rho, spec, -xis)
        dev = float(np.max(np.abs(minus - np.conj(plus))))
        bound = float(np.max(np.abs(plus)))
        ok = dev <= 1e-10 and bound <= 1 + 1e-8
        return ok, f"hermiticity deviation {dev:.2e} (tol 1e-10), max |chi| {bound:.6f}"

    def bundle_rule():
        pops = np.abs(fockspace.squeeze_unitary(3, 0.25 + 0j, cutoff)[:, 0]) ** 2  # S_3 |0>
        mask = np.arange(cutoff) % 3 != 0
        leak = float(np.max(pops[mask]))
        return leak <= 1e-12, f"off-bundle population {leak:.2e} (tol 1e-12)"

    def parity_n3():
        spec = charfunc.SqueezeSpec(n=3, r=0.25, theta=0.0)
        xis = rng.uniform(-1.2, 1.2, 8) + 1j * rng.uniform(-1.2, 1.2, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plus = charfunc.chi_numeric_grid(vacuum, spec, xis)
            minus = charfunc.chi_numeric_grid(vacuum, spec, -xis)
        dev_re = float(np.max(np.abs(np.real(minus) - np.real(plus))))
        dev_im = float(np.max(np.abs(np.imag(minus) + np.imag(plus))))
        ok = max(dev_re, dev_im) <= 1e-10
        return ok, f"parity deviations re {dev_re:.2e}, im {dev_im:.2e} (tol 1e-10)"

    def series_n2():
        xis = np.linspace(0.02, 0.3, 8)[None, :] * np.exp(1j * np.linspace(0, np.pi, 5))[:, None]
        worst = max(series.truncation_residual(2, r, xis) for r in (0.01, 0.03, 0.05))
        return worst <= 1e-3, f"order-2 series residual {worst:.2e} (tol 1e-3)"

    def series_n3():
        xis = np.linspace(0.05, 0.3, 5)[None, :] * np.exp(1j * np.linspace(0.2, 2.8, 4))[:, None]
        worst = max(series.truncation_residual(3, r, xis, cutoff=cutoff) for r in (0.02, 0.05))
        return worst <= 2e-3, f"order-3 series residual {worst:.2e} (tol 2e-3)"

    def protocol_analytic():
        # the analytic source serves only the unheated state
        pcfg = dataclasses.replace(cfg.protocol, heating_rate=0.0)
        worst = 0.0
        for r in (0.1, 0.25):
            points = sampler.Design([0.5, 1.0, 1.5], r)
            chis = sampler.simulate_chi_grid(points, 2, pcfg)
            exact = sampler.analytic_chi_grid(points, 2, pcfg.cutoff)
            worst = max(worst, float(np.max(np.abs(chis - exact))))
        return worst <= 1e-3, f"protocol-vs-analytic gap {worst:.2e} (tol 1e-3)"

    def fisher_mc():
        points = estimator.build_grid(2.0, 0.78, 0.1, 0.1)
        total = 400_000
        theta_star = series.truth_coefficients(2)
        thetas, _ = estimator.monte_carlo_recovery(points, estimator.ModelSpec(2),
                                                   total, repeats=60, seed=424242)
        alloc = sampler.allocate_shots(len(points), total)
        cov = np.linalg.inv(estimator.fisher_information(theta_star, points, alloc))
        predicted = np.sqrt(np.diag(cov))
        observed = np.std(np.real(thetas), axis=0, ddof=1)
        ratio = observed / predicted
        ok = bool(np.all((ratio > 0.7) & (ratio < 1.3)))
        return ok, f"MC/Fisher std ratios {np.round(ratio, 3)} (band 0.7-1.3)"

    check("fock-unitarity", unitarity)
    check("fock-commutator", commutator)
    check("fock-trace-preservation", trace_preservation)
    check("fock-truncation", truncation)
    check("chi-agreement", chi_agreement)
    check("chi-hermiticity-bounded", chi_hermiticity)
    check("bundle-selection-rule", bundle_rule)
    check("parity-n3", parity_n3)
    check("series-residual-n2", series_n2)
    check("series-residual-n3", series_n3)
    check("protocol-vs-analytic", protocol_analytic)
    check("fisher-vs-monte-carlo", fisher_mc)
    return checks


def cmd_validate(cfg: config_mod.RunConfig, args) -> int:
    if args.dataset is not None:
        with open(args.dataset, newline="") as fh:
            sampler.dataset_from_csv(fh)
        print(f"dataset {args.dataset}: OK")

    failures = 0
    for name, fn in _validate_checks(cfg):
        try:
            ok, detail = fn()
        except WeylfitError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {name}: {detail}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weylfit",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=str, default=None, help="YAML config path")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed override")
    parser.add_argument("--out", type=str, default=None, help="output directory override")
    parser.add_argument("--jobs", type=int, default=1, help="worker-thread cap (at least 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("charfunc", help="characteristic-function grid to CSV")
    p.add_argument("--r", type=float, default=0.25)
    p.add_argument("--theta", type=float, default=0.0)

    p = sub.add_parser("simulate", help="generate a shot dataset")
    p.add_argument("--source", choices=("analytic", "protocol"), default="analytic")

    p = sub.add_parser("estimate", help="fit coefficients to a dataset")
    p.add_argument("dataset", type=str)
    p.add_argument("--cost", choices=("ls", "ml"), default="ls")

    p = sub.add_parser("sweep", help="expected-error sweep over grid designs")
    p.add_argument("--xi-max-list", type=str, default="0.6,1.0,1.4,1.8,2.0,2.4")
    p.add_argument("--r-max-list", type=str, default="0.1,0.3,0.5,0.7,0.78,0.9")

    p = sub.add_parser("extrapolate", help="zero-noise extrapolation of reports")
    p.add_argument("reports", nargs="+", type=str)
    p.add_argument("--n-bars", type=str, default=None)
    p.add_argument("--degree", type=int, default=2)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.add_argument("--dataset", type=str, default=None)

    return parser


COMMANDS = {
    "charfunc": cmd_charfunc,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "sweep": cmd_sweep,
    "extrapolate": cmd_extrapolate,
    "validate": cmd_validate,
}


def run(argv: list[str] | None = None) -> int:
    # At exit the interpreter's final collections walk every object numpy,
    # PyYAML and weylfit loaded, a large share of a short command's time.
    # Freezing them first skips that walk; every output is closed before a
    # command returns, and the hook does nothing until exit, so in-process
    # callers keep normal collection.  Re-registering keeps one hook per
    # process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        overrides = {}
        if args.seed is not None:
            overrides["rng"] = {"seed": args.seed}
        if args.out is not None:
            overrides["output"] = {"directory": args.out}
        cfg = config_mod.load_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args)
    except WeylfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
