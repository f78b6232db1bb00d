"""The benchmark reads weylfit by name and by output format; both must hold.

A traced benchmark run reports a per-layer metric only for a function that
`bench/spans.install` wraps under the metric's name, and a counter only
while its function still takes the argument the counter reads.  A renamed
function or parameter drops the metric silently, so these tests pin the
names on the real modules.  The benchmark's gates read the files the CLI
writes, so a small real session is also fed through every gate.
"""

import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import pytest

from weylfit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


metrics, spans, gates = load("metrics"), load("spans"), load("gates")


def named_functions():
    """Every function span a per-layer metric, a span alias or a counter reads."""
    names = set(metrics.COUNTERS)
    counted = {metric for metric, _ in metrics.COUNTERS.values()}
    for m in metrics.PER_LAYER:
        layer, _, stat = m.name.rpartition(".")
        if stat in ("self_s", "calls") and layer not in metrics.MODULES and m.name not in counted:
            names.update(metrics.SPAN_ALIASES.get(layer, (layer,)))
    for aliases in metrics.SPAN_ALIASES.values():
        names.update(aliases)
    return names


@pytest.fixture
def installed():
    """The span names `spans.install` wraps on the weylfit modules, which are restored after."""
    modules = {short: importlib.import_module(f"weylfit.{short}") for short in metrics.MODULES}
    saved = {module: {attr: value for attr, value in vars(module).items()
                      if inspect.isfunction(value)} for module in modules.values()}
    try:
        yield spans.install(spans.Recorder("contract"), modules, metrics.COUNTERS), modules
    finally:
        for module, namespace in saved.items():
            for attr, value in namespace.items():
                setattr(module, attr, value)


def test_every_named_function_is_wrapped(installed):
    wrapped, _ = installed
    assert "fockspace.displacement" in named_functions()
    assert sorted(named_functions() - set(wrapped)) == []


def test_every_counter_argument_is_a_parameter(installed):
    _, modules = installed
    for name, (_, count) in metrics.COUNTERS.items():
        short, attr = name.split(".")
        parameters = inspect.signature(getattr(modules[short], attr)).parameters
        # a counter reads its arguments as args["<parameter>"]: the string constants of its code
        read = [c for c in count.__code__.co_consts if isinstance(c, str)]
        assert [p for p in read if p not in parameters] == [], name


SHOTS = 400_000
# (config, order, dataset rows, accuracy mode of gates.check_report), as the benchmark's
# workloads pair them, on designs small enough for a unit test
SESSIONS = {
    "order2": ({"model": {"n": 2}, "grid": {"xi_max": 1.0, "r_max": 0.3, "d_xi": 0.1, "d_r": 0.1}},
               2, 30, "limit"),
    "order3": ({"model": {"n": 3}, "grid": {"n_re": 4, "n_im": 4}}, 3, 96, "modulus"),
}


@pytest.mark.filterwarnings("ignore::weylfit.errors.TruncationWarning")
@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_gates_read_a_real_session(tmp_path, name):
    config, n, rows, accuracy = SESSIONS[name]
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps({**config, "shots": {"total": SHOTS}}))  # JSON is YAML
    out = tmp_path / "session"
    base = ["--config", str(config_path), "--seed", "7", "--out", str(out), "--jobs", "1"]
    dataset = out / "dataset.csv"

    assert cli.run([*base, "simulate"]) == 0
    assert gates.check_dataset(dataset, rows, SHOTS) == []
    for cost in ("ls", "ml"):
        assert cli.run([*base, "estimate", str(dataset), "--cost", cost]) == 0
        limit = None
        if accuracy == "limit":
            limit = gates.infinite_shot_fit(dataset, n, cost)
            assert all(math.isfinite(gap) for gap in gates.bias_gap(out / "report.csv", n, limit))
        assert gates.check_report(out / "report.csv", n, accuracy, gates.SIGMAS[cost], limit) == []
        # the traced run sums starts and iterations, and matches exit against reason names
        parts = gates.fit_parts(out / "report.meta.yaml")
        assert len(parts) == n - 1
        for part in parts:
            assert type(part["starts"]) is int and type(part["iterations"]) is int
            assert part["exit"] in metrics.EXIT_REASONS
    assert cli.run([*base, "sweep", "--xi-max-list", "0.6,1.0", "--r-max-list", "0.2,0.3"]) == 0
    assert gates.check_sweep(out / "rmse_sweep.csv", 4) == []
