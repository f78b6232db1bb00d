"""Metric declarations of the weylfit benchmark and the statistics behind them.

`END_TO_END` and `PER_LAYER` are the source of truth for `BENCHMARK.json`
(a self-test keeps the two in step).  Every per-layer metric names the
end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass

ALL = "all workloads"
PROTOCOL = "protocol-o2"
REFERENCE = "analytic-o2 and order3-fock"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    about: str = ""  # end-to-end: what is timed; per-layer: what it should move


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "per CLI process: interpreter start until weylfit is imported"),
    Metric("simulate_s", "s", "lower", 0.25, "wall time of the simulate command"),
    Metric("estimate_s", "s", "lower", 0.25, "the session's estimate commands, summed"),
    Metric("sweep_s", "s", "lower", 0.25, "wall time of the sweep command"),
    Metric("session_s", "s", "lower", 0.25, "all commands of a session, set-up excluded"),
    Metric("session_s.tail", "s", "lower", 0.25,
           "highest percentile of session_s with at least ten samples beyond it"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, "largest RSS among a session's processes"),
)

PER_LAYER = (
    Metric("sampler.prepare_state.self_s", "s", "lower", about=f"simulate_s on {PROTOCOL}"),
    Metric("sampler.prepare_state.calls", "count", "lower", about=f"simulate_s on {PROTOCOL}"),
    Metric("sampler.probe_coherences.self_s", "s", "lower", about=f"simulate_s on {PROTOCOL}"),
    Metric("sampler.probe_coherences.snapshots", "count", "lower",
           about=f"simulate_s on {PROTOCOL}"),
    Metric("sampler.simulate_chi_grid.self_s", "s", "lower", about=f"simulate_s on {PROTOCOL}"),
    Metric("sampler.analytic_chi_grid.self_s", "s", "lower",
           about=f"simulate_s and estimate_s on {REFERENCE}"),
    Metric("sampler.analytic_chi_grid.points", "count", "lower",
           about=f"simulate_s and estimate_s on {REFERENCE}"),
    Metric("sampler.generate_dataset.self_s", "s", "lower", about="simulate_s on analytic-o2"),
    Metric("sampler.generate_dataset.records", "count", "lower", about="simulate_s on analytic-o2"),
    Metric("sampler.csv_write.self_s", "s", "lower", about="simulate_s on analytic-o2"),
    Metric("sampler.csv_read.self_s", "s", "lower", about="estimate_s on analytic-o2"),
    Metric("sampler.csv.bytes", "B", "lower", about="simulate_s and estimate_s on analytic-o2"),
    Metric("charfunc.chi_numeric_grid.self_s", "s", "lower",
           about="simulate_s and estimate_s on order3-fock"),
    Metric("charfunc.chi_numeric_grid.points", "count", "lower",
           about="simulate_s and estimate_s on order3-fock"),
    Metric("charfunc.chi_squeezed_exact.self_s", "s", "lower",
           about="simulate_s on analytic-o2 (expected small)"),
    Metric("charfunc.displacements_per_point", "ratio", "lower",
           about="simulate_s and estimate_s on order3-fock"),
    Metric("fockspace.displacement.self_s", "s", "lower", about="order3-fock"),
    Metric("fockspace.displacement.calls", "count", "lower", about="order3-fock"),
    Metric("fockspace.generalized_squeeze.self_s", "s", "lower", about="order3-fock"),
    Metric("fockspace.generalized_squeeze.calls", "count", "lower", about="order3-fock"),
    Metric("estimator.minimize.self_s", "s", "lower",
           about=f"estimate_s on {REFERENCE}"),
    Metric("estimator.minimize.calls", "count", "lower",
           about=f"estimate_s on {REFERENCE}"),
    Metric("estimator.fit.starts_per_part", "ratio", "lower",
           about=f"estimate_s on {ALL}; 1.0 means the multistart never fired"),
    Metric("estimator.fit.iterations", "count", "lower", about=f"estimate_s on {ALL}"),
    Metric("estimator.fit.exit.cost-stationary", "count", "higher", about=f"estimate_s on {ALL}"),
    Metric("estimator.fit.exit.gradient", "count", "higher", about=f"estimate_s on {ALL}"),
    Metric("estimator.fit.exit.max-iterations", "count", "lower", about=f"estimate_s on {ALL}"),
    Metric("estimator.fit.exit.other", "count", "lower", about=f"estimate_s on {ALL}"),
    Metric("estimator.fisher_information.self_s", "s", "lower",
           about=f"estimate_s on {REFERENCE}"),
    Metric("estimator.fisher_information.calls", "count", "lower",
           about=f"estimate_s on {REFERENCE}"),
    Metric("estimator.systematic_bias.self_s", "s", "lower", about=f"estimate_s on {REFERENCE}"),
    Metric("estimator.rmse_sweep.self_s", "s", "lower", about="sweep_s on analytic-o2"),
    Metric("estimator.rmse_sweep.cells", "count", "lower", about="sweep_s on analytic-o2"),
    Metric("fockspace.self_s", "s", "lower", about=f"session_s on {ALL}"),
    Metric("charfunc.self_s", "s", "lower", about=f"session_s on {ALL}"),
    Metric("series.self_s", "s", "lower",
           about=f"session_s on {ALL}; about 0 while no CLI path calls series"),
    Metric("sampler.self_s", "s", "lower", about=f"session_s on {ALL}"),
    Metric("estimator.self_s", "s", "lower", about=f"session_s on {ALL}"),
    Metric("config.self_s", "s", "lower", about=f"session_s on {ALL}; YAML config I/O"),
    Metric("cli.self_s", "s", "lower",
           about=f"session_s on {ALL}; glue, report writing and process exit"),
    Metric("trace.session_s", "s", "lower", about="session_s with tracing on"),
    Metric("trace.overhead_s", "s", "lower", about="traced session_s minus untraced session_s"),
)

MODULES = ("fockspace", "charfunc", "series", "sampler", "estimator", "config", "cli")
EXIT_REASONS = ("cost-stationary", "gradient", "max-iterations")

# Layer names that stand for more than one function span.
SPAN_ALIASES = {
    "sampler.csv_write": ("sampler.dataset_to_string", "sampler.dataset_to_csv"),
    "sampler.csv_read": ("sampler.dataset_from_csv",),
}

# Counters recorded where the work happens: function span -> (metric, count).
# Each count gets the call's bound arguments and its result.
COUNTERS = {
    "sampler.probe_coherences": ("sampler.probe_coherences.snapshots",
                                 lambda args, result: len(args["xi_magnitudes"])),
    "sampler.analytic_chi_grid": ("sampler.analytic_chi_grid.points",
                                  lambda args, result: len(args["points"])),
    "sampler.generate_dataset": ("sampler.generate_dataset.records",
                                 lambda args, result: len(result)),
    "sampler.dataset_to_string": ("sampler.csv.bytes",
                                  lambda args, result: len(result.encode())),
    "sampler.dataset_from_csv": ("sampler.csv.bytes",
                                 lambda args, result: os.path.getsize(args["stream"].name)),
    "charfunc.chi_numeric_grid": ("charfunc.chi_numeric_grid.points",
                                  lambda args, result: int(result.size)),
    "estimator.rmse_sweep": ("estimator.rmse_sweep.cells",
                             lambda args, result: len(args["xi_maxes"]) * len(args["r_maxes"])),
}


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no percentile
    has ten beyond it, so the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100
    p = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100.0))  # nearest-rank percentile
    return float(ordered[rank - 1]), p
