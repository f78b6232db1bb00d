"""The benchmark's per-layer metrics name weylfit functions; each named one must exist.

A traced benchmark run reports a per-layer metric only for a function that
`bench/spans.install` wraps under the metric's name, and a counter only
while its function still takes the argument the counter reads.  A renamed
function or parameter drops the metric silently, so this test pins the
names on the real modules.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


metrics, spans = load("metrics"), load("spans")


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
