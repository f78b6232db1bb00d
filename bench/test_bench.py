"""Self-tests of the benchmark: span arithmetic, gates and metric names.

    python3 -m pytest -q bench
"""

import json
import math
import re
import threading
import types
from pathlib import Path

import pytest

import gates
import metrics
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_the_union_of_children():
    tree = [
        [0, "cli.command", 0.0, 10.0, None, "s"],
        [1, "sampler.generate_dataset", 1.0, 6.0, 0, "s"],
        [2, "sampler.analytic_chi_grid", 1.5, 3.0, 1, "s"],
        [3, "charfunc.chi_squeezed_exact", 2.0, 2.5, 2, "s"],
        [4, "estimator.minimize", 7.0, 9.0, 0, "s"],
        # overlapping children (two threads) are counted once
        [5, "sampler.prepare_state", 4.0, 5.0, 1, "s"],
        [6, "sampler.prepare_state", 4.5, 5.5, 1, "s"],
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 0.5, 4: 2.0, 5: 1.0, 6: 1.0})
    # without overlap, self times partition the root exactly
    assert sum(spans.self_times(tree[:6]).values()) == pytest.approx(10.0)


SOURCE = """
def work(points):
    return [helper() for _ in points]

def helper():
    return 1

def _private():
    return 2
"""


def test_install_traces_intra_module_calls_and_counts():
    mod = types.ModuleType("weylfit.sampler")
    exec(SOURCE, mod.__dict__)
    recorder = spans.Recorder("s0")
    counters = {"sampler.work": ("sampler.work.points", lambda a, r: len(a["points"])),
                "sampler.helper": ("sampler.helper.gone", lambda a, r: len(a["missing"]))}
    names = spans.install(recorder, {"sampler": mod}, counters)
    assert names == ["sampler.helper", "sampler.work"]
    assert mod._private() == 2 and not recorder.spans
    assert mod.work([1, 2, 3]) == [1, 1, 1]
    assert [s[1] for s in recorder.spans] == ["sampler.work"] + ["sampler.helper"] * 3
    assert all(s[4] == recorder.spans[0][0] for s in recorder.spans[1:])
    assert recorder.counts == {"sampler.work.points": 3}
    assert recorder.broken == {"sampler.helper.gone"}


def test_parent_stack_is_per_thread():
    recorder = spans.Recorder("s1")
    inner = recorder.wrap("m.inner", lambda: None)
    threads = []

    def body():
        inner()
        threads.append(threading.Thread(target=inner))
        threads[0].start()

    recorder.wrap("m.outer", body)()
    threads[0].join(timeout=5)
    assert not threads[0].is_alive()
    outer, same_thread, other_thread = recorder.spans
    assert outer[4] is None and same_thread[4] == outer[0]
    assert other_thread[4] is None  # another thread starts its own root
    assert all(s[5] == "s1" for s in recorder.spans)


BIAS = [0.04, -0.004, 0.03]


def _report(path: Path, shift_sigmas: float = 0.0) -> Path:
    truth = gates.theta_star(2)
    std = [0.014, 0.027, 0.006]
    lines = ["name,re,im,std,bias_sys,mse"]
    for k, (t, b, s) in enumerate(zip(truth, BIAS, std)):
        c = t.real + b + (shift_sigmas * s if k == 2 else 0.0)
        lines.append(f"c{k + 1},{c!r},0.0,{s!r},{b!r},{b * b + s * s!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_report_gate_rejects_a_six_sigma_shift(tmp_path):
    limit = [t + b for t, b in zip(gates.theta_star(2), BIAS)]
    ml, ls = gates.SIGMAS["ml"], gates.SIGMAS["ls"]
    assert gates.check_report(_report(tmp_path / "ok.csv", 4.9), 2, "limit", ml, limit) == []
    problems = gates.check_report(_report(tmp_path / "bad.csv", 6.0), 2, "limit", ml, limit)
    assert len(problems) == 1 and problems[0].startswith("c3")
    # the wider LS band rejects a shift beyond it
    assert gates.check_report(_report(tmp_path / "ls.csv", ls + 1.0), 2, "limit", ls, limit)
    # the modulus gate (order 3) allows |bias_sys| on top of the std band
    assert gates.check_report(_report(tmp_path / "m.csv", 4.9), 2, "modulus", ml) == []
    assert gates.check_report(_report(tmp_path / "m11.csv", 11.0), 2, "modulus", ml)


def test_bias_gap_is_in_units_of_std(tmp_path):
    limit = [t + b + 0.012 for t, b in zip(gates.theta_star(2), BIAS)]
    gaps = gates.bias_gap(_report(tmp_path / "r.csv"), 2, limit)
    assert gaps == pytest.approx([0.012 / 0.014, 0.012 / 0.027, 2.0])


def test_report_gate_rejects_non_finite_values(tmp_path):
    path = _report(tmp_path / "r.csv")
    path.write_text(path.read_text().replace("0.0,", "nan,", 1))
    assert gates.check_report(path, 2, "modulus", 5.0) == ["c1: non-finite value"]


def _dataset(path: Path, rows: int, total: int) -> Path:
    lines = ["re_xi,im_xi,r,theta,n_B,basis,shots,plus_count,seed"]
    per_row = [total // rows + (1 if k < total % rows else 0) for k in range(rows)]
    lines += [f"0.1,0,0.1,0,0,x,{n},{n // 2},{k}" for k, n in enumerate(per_row)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_dataset_gate_rejects_one_shot_short(tmp_path):
    assert gates.check_dataset(_dataset(tmp_path / "ok.csv", 7, 1000), 7, 1000) == []
    problems = gates.check_dataset(_dataset(tmp_path / "bad.csv", 7, 999), 7, 1000)
    assert problems == ["dataset shots sum to 999, expected 1000"]
    assert gates.check_dataset(_dataset(tmp_path / "rows.csv", 6, 1000), 7, 1000)


def test_truth_table_matches_the_package():
    series = pytest.importorskip("weylfit.series")
    for n in (2, 3):
        expected = series.truth_coefficients(n).values
        assert [complex(v) for v in expected] == pytest.approx(gates.theta_star(n))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100)
    for n in (11, 20, 37, 100, 1000):
        value, p = metrics.tail([float(k) for k in range(n)])
        assert n - 1 - value >= 10  # ten samples strictly beyond
        assert p < 100


def _fake_session(traced: bool) -> run.Session:
    record = {"imported": 0.0, "wrapped": ["sampler.generate_dataset", "fockspace.displacement",
                                           "charfunc.chi_numeric_grid"],
              "counts": {"charfunc.chi_numeric_grid.points": 6}, "broken": [],
              "spans": [[0, "sampler.generate_dataset", 0.1, 0.5, None, "x"],
                        [1, "charfunc.chi_numeric_grid", 0.2, 0.3, 0, "x"],
                        [2, "fockspace.displacement", 0.21, 0.22, 1, "x"],
                        [3, "fockspace.displacement", 0.23, 0.24, 1, "x"]]}
    session = run.Session("x", traced, complete=True)
    for kind in ("simulate", "estimate", "sweep"):
        session.commands.append(run.Command(kind, 0.5, 1.0, 90.0, record))
    session.fit_parts = [{"starts": 1, "iterations": 5, "exit": reason}
                         for reason in metrics.EXIT_REASONS + ("surprise",)]
    return session


def test_emitted_names_are_valid_and_declared(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    sessions = [_fake_session(False), _fake_session(True)]
    e2e, _ = run.end_to_end(sessions[:1])
    layers, _ = run.per_layer(sessions, tmp_path / "spans.json")
    assert set(e2e) == {m.name for m in metrics.END_TO_END}
    assert layers["charfunc.displacements_per_point"] == pytest.approx(2 / 6)
    assert layers["estimator.fit.exit.other"] == 1
    # the module self times account for the whole traced session
    module_sum = sum(layers[f"{m}.self_s"] for m in metrics.MODULES)
    assert module_sum == pytest.approx(layers["trace.session_s"])
    # functions that were not wrapped (deleted from the package) are dropped
    assert "sampler.prepare_state.self_s" not in layers
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert name in declared, name
    assert all(math.isfinite(v) for v in list(e2e.values()) + list(layers.values()))


def test_benchmark_json_matches_the_declarations():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark["command"] == ["python3", "bench/run.py"]
    assert benchmark["paths"] == ["bench"]
    assert benchmark["workloads"] == [{"name": k, "why": w.why} for k, w in run.WORKLOADS.items()]
    assert benchmark["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert benchmark["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    setup = benchmark["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["bound"] == max(
        m["bound"] for m in benchmark["end_to_end"])
    for m in metrics.PER_LAYER:
        assert m.about, f"{m.name} names no end-to-end metric it should move"
