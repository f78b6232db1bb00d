import csv
import gc
import hashlib
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from weylfit import cli, config, estimator, sampler
from weylfit.errors import IdentifiabilityWarning, TruncationWarning


def set_csv_cells(path, rows, column, value):
    """Set ``column`` of the given data rows (1 is the first after the header)."""
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    for row in rows:
        table[row][table[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)


def write_config(path, **overrides):
    base = {
        "model": {"n": 2, "n_B": 0.0},
        "grid": {"xi_max": 1.0, "r_max": 0.3, "d_xi": 0.1, "d_r": 0.1},
        "shots": {"total": 60_000},
        "protocol": {"cutoff": 60},
        "rng": {"seed": 123},
        "output": {"directory": str(path.parent / "out")},
    }
    for section, entries in overrides.items():
        base.setdefault(section, {}).update(entries)
    path.write_text(yaml.safe_dump(base))
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_writes_dataset_and_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "simulate"]) == 0
        out = tmp_path / "out"
        assert (out / "dataset.csv").exists()
        resolved = yaml.safe_load((out / "dataset.config.yaml").read_text())
        assert resolved["shots"]["total"] == 60_000
        assert resolved["protocol"]["omega_eta"] > 0  # defaults expanded

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        cli.run(["--config", str(cfg), "simulate"])
        first = file_hash(tmp_path / "out" / "dataset.csv")
        cli.run(["--config", str(cfg), "simulate"])
        assert file_hash(tmp_path / "out" / "dataset.csv") == first

    def test_config_sidecar_reproduces_the_dataset(self, tmp_path):
        # dataset.config.yaml is the whole recipe, --seed override included
        cfg = write_config(tmp_path / "run.yaml")
        out = tmp_path / "out"
        assert cli.run(["--config", str(cfg), "--seed", "5", "simulate"]) == 0
        assert cli.run(["--config", str(out / "dataset.config.yaml"),
                        "--out", str(tmp_path / "again"), "simulate"]) == 0
        assert (tmp_path / "again" / "dataset.csv").read_bytes() == (
            out / "dataset.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        cli.run(["--config", str(cfg), "simulate"])
        first = file_hash(tmp_path / "out" / "dataset.csv")
        cli.run(["--config", str(cfg), "--seed", "999", "simulate"])
        assert file_hash(tmp_path / "out" / "dataset.csv") != first

    def test_order3_squeezing_above_one_runs_on_both_sources(self, tmp_path):
        # both chi sources take r = 1.2; only the truncation tail guard warns
        cfg = write_config(tmp_path / "run.yaml", model={"n": 3},
                           grid={"r_max": 1.2, "n_re": 4, "n_im": 4},
                           protocol={"cutoff": 100})
        dataset = tmp_path / "out" / "dataset.csv"
        with pytest.warns(TruncationWarning):
            assert cli.run(["--config", str(cfg), "simulate"]) == 0
            assert cli.run(["--config", str(cfg), "simulate", "--source", "protocol"]) == 0
            assert cli.run(["--config", str(cfg), "estimate", str(dataset)]) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_heated_analytic_source_is_input_error(self, tmp_path, capsys, n):
        # the closed forms carry no heating, so a heated config needs the protocol
        cfg = write_config(tmp_path / "run.yaml", model={"n": n},
                           protocol={"heating_rate": 300.0})
        assert cli.run(["--config", str(cfg), "simulate"]) == 2
        assert "--source protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("section, entries", [
        ("protocol", {"omega_eta": "abc"}),
        ("model", {"n_B": "abc"}),
        ("grid", {"d_r": "abc"}),
        ("shots", {"total": "abc"}),
        ("shots", {"total": 1.6e6}),
        ("model", {"n_B": True}),
        ("model", {"n_B": float("nan")}),
        ("protocol", {"ramp_time": float("inf")}),
        ("protocol", {"omega_eta": -5.0}),
        ("protocol", {"ramp_time": -1.0e-5, "prep_hold": 0.0}),
        ("protocol", {"ramp_time": 0.0, "prep_hold": 0.0}),
        ("protocol", {"heating_rate": 10**400}),
        ("model", {"n_B": 10**400}),
        ("shots", {"total": 10**30}),
        ("shots", {"total": 2**63}),
    ], ids=["omega_eta-text", "n_B-text", "d_r-text", "total-text", "total-float", "n_B-bool",
            "n_B-nan", "ramp_time-inf", "omega_eta-negative", "ramp_time-negative",
            "zero-pulse-area", "heating_rate-beyond-float", "n_B-beyond-float",
            "total-beyond-int64", "total-2**63"])
    def test_bad_config_value_is_input_error(self, tmp_path, capsys, section, entries):
        cfg = write_config(tmp_path / "run.yaml", **{section: entries})
        assert cli.run(["--config", str(cfg), "simulate"]) == 2
        assert section in capsys.readouterr().err

    def test_shot_total_takes_every_int64_count(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path / "run.yaml",
                                              shots={"total": 2**63 - 1}))
        assert cfg.shots["total"] == 2**63 - 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_input_error(self, tmp_path, capsys, jobs):
        # refused before any work: no output directory is made
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "--jobs", jobs, "simulate",
                        "--source", "protocol"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_outside_64_bits_is_input_error(self, tmp_path, capsys, seed, where):
        cfg = write_config(tmp_path / "run.yaml", rng={"seed": seed if where == "config" else 1})
        flag = ["--seed", str(seed)] if where == "flag" else []
        assert cli.run(["--config", str(cfg), *flag, "simulate"]) == 2
        assert "rng.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("simulate", {"model": {"n": 3}, "grid": {"n_re": 10**30}}),
        ("simulate", {"grid": {"d_xi": 1.0e-320}}),
        ("sweep", {"grid": {"d_xi": 1.0e-320}}),
        ("charfunc", {"grid": {"d_xi": 1.0e-320}}),
        ("simulate", {"grid": {"d_xi": 1.0e-9}}),
        ("sweep", {"grid": {"d_xi": 1.0e-9}}),
        ("charfunc", {"grid": {"d_xi": 1.0e-9}}),
    ], ids=["simulate-n_re-10**30", "simulate-d_xi-1e-320", "sweep-d_xi-1e-320",
            "charfunc-d_xi-1e-320", "simulate-d_xi-1e-9", "sweep-d_xi-1e-9",
            "charfunc-d_xi-1e-9"])
    def test_grid_that_cannot_be_built_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                      command, overrides):
        # refused from the axis counts alone, before any grid builder runs
        def build(*args, **kwargs):
            raise AssertionError("a grid was built")

        for name in ("grid_axes", "build_grid", "build_grid_complex"):
            monkeypatch.setattr(estimator, name, build)
        monkeypatch.setattr(np, "arange", build)  # charfunc's lattice axis
        cfg = write_config(tmp_path / "run.yaml", **overrides)
        assert cli.run(["--config", str(cfg), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"model": {"n": 3}, "grid": {"n_re": -2000, "n_im": -1000}}, "one point per axis"),
        ({"grid": {"xi_max": -1000.0, "r_max": -300.0}}, "reach at least one spacing"),
    ], ids=["two-negative-counts", "two-negative-maxima"])
    def test_grid_without_points_is_refused_by_its_axes(self, tmp_path, capsys, overrides,
                                                        message):
        # two negative point counts multiply to a positive record count; the
        # shot budget is not what such a grid lacks
        cfg = write_config(tmp_path / "run.yaml", **overrides)
        assert cli.run(["--config", str(cfg), "simulate"]) == 2
        assert message in capsys.readouterr().err

    def test_jobs_do_not_change_the_dataset(self, tmp_path):
        # the counts are drawn from one stream once every chi is known
        cfg = write_config(tmp_path / "run.yaml",
                           grid={"xi_max": 0.4, "r_max": 0.3, "d_xi": 0.2, "d_r": 0.1})
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs-{jobs}"
            assert cli.run(["--config", str(cfg), "--jobs", jobs, "--out", str(out),
                            "simulate", "--source", "protocol"]) == 0
            written.append((out / "dataset.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("overrides, source, digest", [
        ({}, "analytic", "4c7d5f4ace647c218669e648b239ea2ebe784e613c4f4d66cd4e84e6e6f7e74a"),
        ({"model": {"n": 3}}, "analytic",
         "80f717a51e52b306de711e6c4cfcd017ab5895decfe9368495a09c485b185ca9"),
        ({"grid": {"d_r": 0.39}}, "protocol",
         "b7981bc45d09c3c7d82b05e5e51a1ef7d0406757475094f9ffdaddd6baddc08e"),
    ], ids=["order2", "order3", "protocol"])
    def test_seed_7_dataset_is_pinned(self, tmp_path, overrides, source, digest):
        # the three reference designs at their defaults: any change to the
        # chi values, the shot split, the dataset stream or the CSV format shows here
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert cli.run(["--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "out"),
                            "simulate", "--source", source]) == 0
        assert file_hash(tmp_path / "out" / "dataset.csv") == digest

    def test_integer_for_a_float_key_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", model={"n_B": 0}, protocol={"idle_time": 0})
        assert cli.run(["--config", str(cfg), "simulate"]) == 0

    @pytest.mark.parametrize("ramp_time, n_b", [("4e-5", "1e-1"), ("4.0e-5", "1.0e-1")])
    def test_exponent_floats_load_with_or_without_a_dot(self, tmp_path, ramp_time, n_b):
        # YAML 1.1 reads 4e-5 as a string; configs follow YAML 1.2 floats
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"model: {{n_B: {n_b}}}\nprotocol: {{ramp_time: {ramp_time}}}\n"
                       "grid: {xi_max: 0.5, r_max: 0.2, d_xi: 0.1, d_r: 0.1}\n")
        loaded = config.load_config(cfg)
        assert loaded.protocol.ramp_time == 4e-5 and loaded.model["n_B"] == 0.1
        assert cli.run(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == 0

    @pytest.mark.parametrize("overrides, command, digest", [
        ({}, ["charfunc"], "7d0ed392aadb1e5c07b276d332c2e88183bac75f8362a9ff78de02a7ca214718"),
        ({"grid": {"xi_max": 0.2, "r_max": 0.1, "d_xi": 0.1, "d_r": 0.1},
          "protocol": {"heating_rate": 300, "idle_time": 0, "omega_eta": 30000}},
         ["simulate", "--source", "protocol"],
         "60245b97434d7766d1e5d9bcfe43a6a3e0b3e6e7bef9679ca1c14c513f9e6211"),
    ], ids=["default", "integer-floats"])
    def test_sidecar_loads_back_to_the_config_that_wrote_it(self, tmp_path, monkeypatch,
                                                           overrides, command, digest):
        # the sidecar keeps each value as the config gave it: heating_rate 300 stays 300
        monkeypatch.chdir(tmp_path)
        Path("run.yaml").write_text(yaml.safe_dump(overrides))
        written = config.load_config("run.yaml")
        assert cli.run(["--config", "run.yaml", *command]) == 0
        sidecar = next(Path("out").glob("*.config.yaml"))
        assert config.load_config(sidecar) == written
        assert file_hash(sidecar) == digest

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        doc = yaml.safe_load(cfg.read_text())
        doc["model"]["typo"] = 1
        cfg.write_text(yaml.safe_dump(doc))
        assert cli.run(["--config", str(cfg), "simulate"]) == 2


class TestEstimate:
    def test_round_trip_recovers_coefficients(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           grid={"xi_max": 2.0, "r_max": 0.78, "d_xi": 0.1, "d_r": 0.06},
                           shots={"total": 1_600_000})
        cli.run(["--config", str(cfg), "simulate"])
        assert cli.run(["--config", str(cfg), "estimate",
                        str(tmp_path / "out" / "dataset.csv")]) == 0
        with open(tmp_path / "out" / "report.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}
        assert set(rows) == {"c1", "c2", "c3"}
        fitted = np.array([float(rows[f"c{j}"]["re"]) for j in (1, 2, 3)])
        assert np.max(np.abs(fitted - np.array([-1.0, -1.0, 0.5]))) <= 0.15
        meta = yaml.safe_load((tmp_path / "out" / "report.meta.yaml").read_text())
        assert meta["model"]["n"] == 2
        condition = meta["diagnostics"]["fisher_condition"]
        assert np.isfinite(condition) and condition >= 1.0

    @pytest.mark.parametrize("heated", [True, False], ids=["heated", "unheated"])
    def test_unidentifiable_design_warns_and_is_flagged(self, tmp_path, heated):
        # the two-ray protocol design: heated, its ML fit sits at c = (-3.95, 0.00, 3.28)
        # against a truth near (-1.2, -1.2, 0.72), at Fisher condition 26464; unheated it reads 87
        cfg = write_config(tmp_path / "run.yaml",
                           model={"n_B": 0.1, "heating": True} if heated else {},
                           grid={"xi_max": 2.0, "r_max": 0.78, "d_xi": 0.02, "d_r": 0.39},
                           shots={"total": 1_600_000}, rng={"seed": 7},
                           protocol={"heating_rate": 300.0 if heated else 0.0})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            assert cli.run(["--config", str(cfg), "simulate", "--source", "protocol"]) == 0
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(["--config", str(cfg), "estimate", str(out / "dataset.csv"),
                            "--cost", "ml"]) == 0
        warned = [w for w in caught if issubclass(w.category, IdentifiabilityWarning)]
        assert len(warned) == heated
        diagnostics = yaml.safe_load((out / "report.meta.yaml").read_text())["diagnostics"]
        assert diagnostics["identifiable"] is not heated
        assert (diagnostics["fisher_condition"] > estimator.MAX_FISHER_CONDITION) is heated

    def test_overflowing_squeezing_is_input_error(self, tmp_path, capsys):
        # at r = 800 cosh r overflows: the bias must not be written as nan
        cfg = write_config(tmp_path / "run.yaml", rng={"seed": 7})
        out = tmp_path / "out"
        assert cli.run(["--config", str(cfg), "simulate"]) == 0
        set_csv_cells(out / "dataset.csv", (1, 2), "r", "800")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IdentifiabilityWarning)  # the fit runs first
            assert cli.run(["--config", str(cfg), "estimate", str(out / "dataset.csv")]) == 2
        assert "r = 800" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_report_sidecar_states_each_fact_once(self, tmp_path):
        # the config lives in report.config.yaml alone, and estimate draws no random numbers
        cfg = write_config(tmp_path / "run.yaml")
        out = tmp_path / "out"
        assert cli.run(["--config", str(cfg), "simulate"]) == 0
        assert cli.run(["--config", str(cfg), "estimate", str(out / "dataset.csv")]) == 0
        meta = yaml.safe_load((out / "report.meta.yaml").read_text())
        assert set(meta) == {"model", "rmse", "diagnostics", "dataset"}
        assert meta["model"] == {"n": 2, "n_B": 0.0, "heating": False}
        [part] = meta["diagnostics"]["parts"]  # one x-basis part, as bench/gates.py reads it
        assert {"starts", "iterations", "exit"} <= set(part)
        resolved = yaml.safe_load((out / "report.config.yaml").read_text())
        assert resolved["rng"]["seed"] == 123

    def test_model_refuses_data_of_another_order(self, tmp_path, capsys):
        # an order-2 model would otherwise fit the x rows of the order-3 grid alone
        data_cfg = write_config(tmp_path / "o3.yaml", model={"n": 3},
                                grid={"n_re": 4, "n_im": 4})
        assert cli.run(["--config", str(data_cfg), "simulate"]) == 0
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "estimate",
                        str(tmp_path / "out" / "dataset.csv")]) == 2
        assert "model order 2 fits bases ['x'] only" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_non_convergence_is_input_error(self, tmp_path, capsys, monkeypatch):
        def stuck(sub, x, cost):
            cost_val, grad, _ = estimator._cost_grad_curvature(sub, x, cost)
            return x, cost_val, grad, "max-iterations", estimator.NEWTON_MAX_ITER

        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "simulate"]) == 0
        monkeypatch.setattr(estimator, "_newton", stuck)
        assert cli.run(["--config", str(cfg), "estimate",
                        str(tmp_path / "out" / "dataset.csv")]) == 2
        assert "no convergence" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_missing_dataset_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "estimate",
                        str(tmp_path / "nope.csv")]) == 3

    def test_malformed_dataset_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert cli.run(["--config", str(cfg), "estimate", str(bad)]) == 2

    def test_non_finite_dataset_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml")
        cli.run(["--config", str(cfg), "simulate"])
        lines = (tmp_path / "out" / "dataset.csv").read_text().splitlines()
        lines[1] = "nan" + lines[1][lines[1].index(","):]
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.run(["--config", str(cfg), "estimate", str(bad)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.1,0,0.02", "0.1,0,0.02,0,0,x,100,50,7,extra"],
                             ids=["short", "long"])
    def test_row_of_the_wrong_width_is_input_error(self, tmp_path, capsys, row):
        cfg = write_config(tmp_path / "run.yaml")
        cli.run(["--config", str(cfg), "simulate"])
        lines = (tmp_path / "out" / "dataset.csv").read_text().splitlines()
        lines[2] = row
        bad = tmp_path / "width.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert cli.run(["--config", str(cfg), "estimate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "cells where the header has 9" in err


    @staticmethod
    def report_values(path):
        with open(path, newline="") as fh:
            return np.array([[float(row[k]) for k in ("re", "im", "std", "bias_sys", "mse")]
                             for row in csv.DictReader(fh)])

    def test_order3_bias_pairs_each_basis_with_its_own_rows(self, tmp_path):
        # 60_060 shots over 96 records leave the first 60 with one more shot,
        # so the y rows carry unequal shots and shuffling them moves the pairing
        cfg = write_config(tmp_path / "run.yaml", model={"n": 3}, grid={"n_re": 4, "n_im": 4},
                           shots={"total": 60_060})
        out = tmp_path / "out"
        assert cli.run(["--config", str(cfg), "simulate"]) == 0
        header, *rows = (out / "dataset.csv").read_text().splitlines()
        x_rows = [row for row in rows if row.split(",")[5] == "x"]
        y_rows = [row for row in rows if row.split(",")[5] == "y"]
        assert len({row.split(",")[6] for row in y_rows}) == 2
        shuffled = [y_rows[k] for k in np.random.default_rng(1).permutation(len(y_rows))]
        reports = []
        for name, body in [("original", rows), ("shuffled", x_rows + shuffled),
                           ("one-y-row-fewer", x_rows + y_rows[:-1])]:
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join([header, *body]) + "\n")
            assert cli.run(["--config", str(cfg), "estimate", str(path)]) == 0
            reports.append(self.report_values(out / "report.csv"))
            if name == "shuffled":
                np.testing.assert_allclose(reports[1], reports[0], rtol=0, atol=1e-12)
        assert np.all(np.isfinite(reports[2]))

    @pytest.mark.parametrize("overrides, source, digests", [
        ({}, "analytic", ("2298b07aa5dec806c1df58d4a7f5510d40caf48b74e32fd664c0e869f05b487a",
                          "d50ddcc8127fa44f08e22cf6bc14b0e169e1eb992bc026fab5d5791e60dc37eb")),
        ({"model": {"n": 3}}, "analytic",
         ("25e7aeb53ac403ca0e67c61fa80289d98f07e18c68d1a58db3fdf6c0e61ccd70",
          "473ba8610a73f26d0f55dc3e473c48dc1458786c9f33f5171c2f0d98611d1576")),
        ({"grid": {"d_r": 0.39}}, "protocol",
         ("70bee6bb6fba1f893eb2f58ddeb0e9456a5346f5068ec8ba220f6a716847d5ca",
          "c9beb33df08bdbdf8ccc7095a3c87b4f26cf06de34e9f6991636ebba336c478c")),
    ], ids=["order2", "order3", "protocol"])
    def test_seed_7_reports_are_pinned(self, tmp_path, overrides, source, digests):
        # the --cost ls and ml reports of the pinned seed-7 datasets; run with
        # one BLAS thread, as the order-3 reports change in the last digit with
        # the thread count
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(overrides))
        base = ["--config", str(cfg), "--seed", "7", "--out", str(tmp_path / "out")]
        commands = [[*base, "simulate", "--source", source]]
        commands += [[*base, "estimate", str(tmp_path / "out" / "dataset.csv"), "--cost", cost]
                     for cost in ("ls", "ml")]
        script = ("import hashlib, pathlib, warnings, weylfit.cli\n"
                  "warnings.simplefilter('ignore')\n"
                  f"for argv in {commands!r}:\n"
                  "    assert weylfit.cli.run(argv) == 0\n"
                  f"    report = pathlib.Path({str(tmp_path / 'out' / 'report.csv')!r})\n"
                  "    if 'estimate' in argv:\n"
                  "        print('digest', hashlib.sha256(report.read_bytes()).hexdigest())\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        found = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("digest")]
        assert tuple(found) == digests


class TestCharfunc:
    def test_order2_grid_is_real(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           grid={"xi_max": 1.2, "r_max": 0.3, "d_xi": 0.2, "d_r": 0.1})
        assert cli.run(["--config", str(cfg), "charfunc", "--r", "0.25"]) == 0
        with open(tmp_path / "out" / "charfunc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        im = np.array([float(r["im_chi"]) for r in rows])
        assert np.max(np.abs(im)) <= 1e-10

    def test_zero_squeezing_matches_gaussian(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           grid={"xi_max": 1.0, "r_max": 0.3, "d_xi": 0.25, "d_r": 0.1})
        cli.run(["--config", str(cfg), "charfunc", "--r", "0.0"])
        with open(tmp_path / "out" / "charfunc.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                xi2 = float(row["re_xi"]) ** 2 + float(row["im_xi"]) ** 2
                assert float(row["re_chi"]) == pytest.approx(np.exp(-xi2 / 2), abs=1e-9)

    def test_order3_imaginary_part_is_odd(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml",
                           model={"n": 3},
                           grid={"xi_max": 0.9, "r_max": 0.3, "d_xi": 0.3, "d_r": 0.1})
        cli.run(["--config", str(cfg), "charfunc", "--r", "0.25"])
        table = {}
        with open(tmp_path / "out" / "charfunc.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (round(float(row["re_xi"]), 9), round(float(row["im_xi"]), 9))
                table[key] = complex(float(row["re_chi"]), float(row["im_chi"]))
        for (x, y), chi in table.items():
            mirrored = table[(round(-x, 9), round(-y, 9))]
            assert mirrored.imag == pytest.approx(-chi.imag, abs=1e-10)
            assert mirrored.real == pytest.approx(chi.real, abs=1e-10)

    @pytest.mark.parametrize("option", ["--r", "--theta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_squeezing_is_input_error(self, tmp_path, capsys, option, value):
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "charfunc", option, value]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "charfunc.csv").exists()

    def test_overflowing_squeezing_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "charfunc", "--r", "800"]) == 2
        assert "r = 800" in capsys.readouterr().err
        assert not (tmp_path / "out" / "charfunc.csv").exists()

    @pytest.mark.parametrize("xi_max, d_xi, axis", [
        (1.0, 0.3, [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]),
        (2.0, 0.02, 0.02 * np.arange(-100, 101)),
    ], ids=["off-lattice-max", "default"])
    def test_axis_is_the_square_of_the_spacing_multiples(self, tmp_path, xi_max, d_xi, axis):
        # the axis holds d_xi * k for |k| <= round(xi_max / d_xi), zero written as 0
        cfg = write_config(tmp_path / "run.yaml", grid={"xi_max": xi_max, "d_xi": d_xi})
        assert cli.run(["--config", str(cfg), "charfunc", "--r", "0.25"]) == 0
        with open(tmp_path / "out" / "charfunc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [sampler._fmt(v) for v in axis]
        assert [row["re_xi"] for row in rows[:: len(axis)]] == expected
        assert [row["im_xi"] for row in rows[: len(axis)]] == expected
        assert expected[len(axis) // 2] == "0"

    def test_negative_xi_max_is_input_error(self, tmp_path, capsys):
        # the axis -xi_max..xi_max is empty, so the CSV held only its header
        cfg = write_config(tmp_path / "run.yaml", grid={"xi_max": -0.5})
        assert cli.run(["--config", str(cfg), "charfunc", "--r", "0.25"]) == 2
        assert "xi_max" in capsys.readouterr().err
        assert not (tmp_path / "out" / "charfunc.csv").exists()


@pytest.mark.parametrize("args", [("charfunc", "--r", "0.25"),
                                  ("sweep", "--xi-max-list", "1.0,2.0", "--r-max-list", "0.3,0.78"),
                                  ("simulate",)],
                         ids=["charfunc", "sweep", "simulate"])
def test_csv_values_are_written_as_fmt_writes_each_one(tmp_path, monkeypatch, args):
    cfg = write_config(tmp_path / "run.yaml", model={"n": 3 if args[0] == "charfunc" else 2},
                       grid={"xi_max": 0.9, "r_max": 0.3, "d_xi": 0.1, "d_r": 0.1})
    texts = []
    for out in ("columns", "per-value"):
        assert cli.run(["--config", str(cfg), "--out", str(tmp_path / out), *args]) == 0
        texts.append(next((tmp_path / out).glob("*.csv")).read_bytes())
        monkeypatch.setattr(sampler, "format_rows", lambda *columns: zip(
            *([sampler._fmt(v) for v in column] for column in columns)))
    assert texts[0] == texts[1]


class TestSweepAndExtrapolate:
    def test_sweep_writes_surface(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml",
                           grid={"xi_max": 2.0, "r_max": 0.78, "d_xi": 0.1, "d_r": 0.06},
                           shots={"total": 400_000})
        code = cli.run(["--config", str(cfg), "sweep",
                        "--xi-max-list", "1.0,2.0", "--r-max-list", "0.3,0.78"])
        assert code == 0
        with open(tmp_path / "out" / "rmse_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(float(r["rmse"]) > 0 for r in rows)
        out = capsys.readouterr().out
        assert "4 designs, 0 rank-deficient, on a 20 x 13 (xi x r) lattice of 260 points" in out
        assert "minimum rmse" in out

    def test_sweep_without_a_finite_design_says_so(self, tmp_path, capsys):
        code = cli.run(["--out", str(tmp_path), "sweep", "--r-max-list", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "6 designs, 6 rank-deficient" in out
        assert "no design in the sweep has a finite rmse" in out
        assert "minimum rmse" not in out
        with open(tmp_path / "rmse_sweep.csv", newline="") as fh:
            assert [r["rmse"] for r in csv.DictReader(fh)] == ["inf"] * 6

    def test_sweep_cell_below_one_spacing_is_input_error(self, tmp_path, capsys):
        code = cli.run(["--out", str(tmp_path), "sweep", "--xi-max-list", "0.01,1.0"])
        assert code == 2
        assert "at least one spacing" in capsys.readouterr().err

    def test_sweep_refuses_a_shot_total_beyond_int64(self, tmp_path, capsys):
        # the shot allocation holds int64 counts
        cfg = write_config(tmp_path / "run.yaml", shots={"total": 10**30})
        assert cli.run(["--config", str(cfg), "sweep"]) == 2
        assert "shots.total" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, entries, key", [
        ("sweep", "protocol", {"heating_rate": 300.0}, "protocol.heating_rate"),
        ("sweep", "model", {"heating": True}, "model.heating"),
        ("charfunc", "protocol", {"heating_rate": 300.0}, "protocol.heating_rate"),
    ], ids=["sweep-heating-rate", "sweep-heated-model", "charfunc-heating-rate"])
    def test_unheated_command_refuses_heating(self, tmp_path, capsys, command, section,
                                              entries, key):
        # sweep and charfunc score unheated states, so a heating key would be ignored
        cfg = write_config(tmp_path / "run.yaml", **{section: entries})
        assert cli.run(["--config", str(cfg), command]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def affine_reports(tmp_path, heated=False, orders=(2, 2, 2)):
        from weylfit import series as dg
        from weylfit import estimator as est

        paths = []
        for nb, n in zip((0.1, 0.2, 0.3), orders):
            values = np.array([1 + 2 * nb, -1 - 2 * nb, 0.5, 0.25][: 1 + n], dtype=complex)
            report = est.EstimationReport(
                model=est.ModelSpec(n, 0.0, heating=heated),
                coefficients=dg.CoefficientVector(n, values),
                std=np.full(1 + n, 1e-2),
                c_h=0.05 * nb if heated else None,
                c_h_std=1e-2 if heated else None,
            )
            path = tmp_path / f"rep{int(nb * 10)}.csv"
            cli._save_report(report, path, {"data_n_B": nb})
            paths.append(str(path))
        return paths

    def test_extrapolate_affine_reports(self, tmp_path):
        paths = self.affine_reports(tmp_path)
        code = cli.run(["--out", str(tmp_path), "extrapolate", *paths])
        assert code == 0
        with open(tmp_path / "report_extrapolated.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}
        assert float(rows["c1"]["re"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows["c2"]["re"]) == pytest.approx(-1.0, abs=1e-9)
        assert float(rows["c1"]["std"]) > 1e-2  # propagated variance inflated

    def test_n_bars_override_the_recorded_occupations(self, tmp_path):
        # recorded at 0.1, 0.2, 0.3, the affine values 1 + 2 nb and -1 - 2 nb
        # read at 0.0, 0.1, 0.2 extrapolate to their value at nb = 0.1
        paths = self.affine_reports(tmp_path)
        assert cli.run(["--out", str(tmp_path), "extrapolate", *paths,
                        "--n-bars", "0,0.1,0.2"]) == 0
        with open(tmp_path / "report_extrapolated.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}
        assert float(rows["c1"]["re"]) == pytest.approx(1.2, abs=1e-9)
        assert float(rows["c2"]["re"]) == pytest.approx(-1.2, abs=1e-9)
        meta = yaml.safe_load((tmp_path / "report_extrapolated.meta.yaml").read_text())
        assert meta["n_bars"] == [0.0, 0.1, 0.2]

    def test_extrapolated_report_records_zero_occupation(self, tmp_path):
        # the extrapolate config's own model.n_B says nothing about the result
        cfg = write_config(tmp_path / "run.yaml", model={"n_B": 0.2},
                           output={"directory": str(tmp_path)})
        paths = self.affine_reports(tmp_path)
        assert cli.run(["--config", str(cfg), "extrapolate", *paths]) == 0
        _, n_bar = cli._load_report(tmp_path / "report_extrapolated.csv")
        assert n_bar == 0.0

    def test_extrapolate_refuses_heated_reports(self, tmp_path, capsys):
        # zero-noise extrapolation has no c_h, so a heated report's c_h row would be dropped
        paths = self.affine_reports(tmp_path, heated=True)
        assert cli.run(["--out", str(tmp_path), "extrapolate", *paths]) == 2
        err = capsys.readouterr().err
        assert paths[0] in err and "c_h" in err
        assert not (tmp_path / "report_extrapolated.csv").exists()

    @pytest.mark.parametrize("option, orders, message", [
        (["--degree", "-1"], (2, 2, 2), "degree must be non-negative"),
        ([], (2, 3, 2), "reports of different model orders"),
    ], ids=["negative-degree", "mixed-orders"])
    def test_unfittable_extrapolation_is_input_error(self, tmp_path, capsys, option, orders,
                                                      message):
        paths = self.affine_reports(tmp_path, orders=orders)
        assert cli.run(["--out", str(tmp_path), "extrapolate", *paths, *option]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report_extrapolated.csv").exists()

    @pytest.mark.parametrize("meta, row", [
        (yaml.safe_dump({"data_n_B": 0.1}), "c1,1.0,0.0,0.01,,"),
        ("model: [n: 2\n", "c1,1.0,0.0,0.01,,"),
        (yaml.safe_dump({"model": {"n": 2, "n_B": 0.0, "heating": False}}), "c1,one,0.0,0.01,,"),
        (yaml.safe_dump({"model": {"n": 2, "n_B": 0.0, "heating": False}}),
         "c1,1.0,0.0,0.01,,"),
    ], ids=["meta-without-model", "meta-not-yaml", "non-numeric-field", "too-few-coefficients"])
    def test_malformed_report_is_input_error(self, tmp_path, capsys, meta, row):
        path = tmp_path / "rep.csv"
        path.write_text("name,re,im,std,bias_sys,mse\n" + row + "\n")
        path.with_suffix(".meta.yaml").write_text(meta)
        code = cli.run(["--out", str(tmp_path), "extrapolate", *[str(path)] * 3])
        assert code == 2
        assert f"malformed report {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["model-n_B", "data_n_B", "re", "std"])
    def test_non_finite_report_is_input_error(self, tmp_path, capsys, field):
        # a nan occupation, coefficient or std must not become a nan report
        paths = self.affine_reports(tmp_path)
        meta_path = Path(paths[1]).with_suffix(".meta.yaml")
        meta = yaml.safe_load(meta_path.read_text())
        if field == "model-n_B":
            meta["model"]["n_B"] = float("nan")
        elif field == "data_n_B":
            meta["data_n_B"] = float("nan")
        else:
            set_csv_cells(Path(paths[1]), (1,), field, "nan")
        meta_path.write_text(yaml.safe_dump(meta))
        assert cli.run(["--out", str(tmp_path), "extrapolate", *paths]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "report_extrapolated.csv").exists()


    @pytest.mark.parametrize("command, option, value", [
        ("sweep", "--xi-max-list", "abc"),
        ("sweep", "--xi-max-list", "nan"),
        ("sweep", "--r-max-list", "0.3,inf"),
        ("extrapolate", "--n-bars", "0.1,x,0.3"),
        ("extrapolate", "--n-bars", "0.1,nan,0.3"),
    ])
    def test_bad_list_option_is_input_error(self, tmp_path, capsys, command, option, value):
        paths = self.affine_reports(tmp_path) if command == "extrapolate" else []
        code = cli.run(["--out", str(tmp_path), command, *paths, option, value])
        assert code == 2
        assert option in capsys.readouterr().err


CHECKS = ["fock-unitarity", "fock-commutator", "fock-trace-preservation", "fock-truncation",
          "chi-agreement", "chi-hermiticity-bounded", "bundle-selection-rule", "parity-n3",
          "series-residual-n2", "series-residual-n3", "protocol-vs-analytic",
          "fisher-vs-monte-carlo"]


def check_statuses(output):
    """{check name: PASS or FAIL}, in the order `validate` printed them."""
    statuses = {}
    for line in output.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            statuses[rest.split(":")[0]] = status
    return statuses


class TestValidate:
    def test_default_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "validate"]) == 0
        statuses = check_statuses(capsys.readouterr().out)
        assert list(statuses) == CHECKS
        assert set(statuses.values()) == {"PASS"}

    def test_low_cutoff_fails_named_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", protocol={"cutoff": 5})
        assert cli.run(["--config", str(cfg), "validate"]) == 1
        output = capsys.readouterr().out
        assert "FAIL fock-truncation" in output
        assert "FAIL chi-agreement" in output
        failed = [name for name, status in check_statuses(output).items() if status == "FAIL"]
        assert failed == ["fock-trace-preservation", "fock-truncation", "chi-agreement",
                          "protocol-vs-analytic"]

    def test_protocol_check_holds_on_a_heated_config(self, tmp_path):
        # the analytic source has no heating, so the check compares unheated states
        cfg = config.load_config(write_config(tmp_path / "run.yaml",
                                              protocol={"heating_rate": 300.0}))
        ok, detail = dict(cli._validate_checks(cfg))["protocol-vs-analytic"]()
        assert ok, detail

    def test_valid_dataset_passes_and_checks_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml")
        good = tmp_path / "good.csv"
        good.write_text("re_xi,im_xi,r,theta,n_B,basis,shots,plus_count,seed\n"
                        "0.5,0.,0.1,0.,0.,x,10,4,7\n")
        assert cli.run(["--config", str(cfg), "validate", "--dataset", str(good)]) == 0
        output = capsys.readouterr().out
        assert f"dataset {good}: OK" in output.splitlines()
        statuses = check_statuses(output)
        assert list(statuses) == CHECKS
        assert set(statuses.values()) == {"PASS"}

    def test_zero_shot_dataset_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        bad = tmp_path / "zero.csv"
        bad.write_text("re_xi,im_xi,r,theta,n_B,basis,shots,plus_count,seed\n"
                       "0.5,0.,0.1,0.,0.,x,0,0,7\n")
        assert cli.run(["--config", str(cfg), "validate",
                        "--dataset", str(bad)]) == 2


def test_module_entry_point_runs_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "weylfit", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "simulate" in done.stdout


def test_subprocess_commands_match_in_process_runs(tmp_path, capsys):
    # a process that ran a command freezes its objects at exit rather than
    # collecting them: exit codes, printed lines and output files must still
    # be those of the same command run in process
    out = tmp_path / "out"
    cfg = str(write_config(tmp_path / "run.yaml", output={"directory": str(out / "o2")}))
    low = str(write_config(tmp_path / "low.yaml", protocol={"cutoff": 5}))
    o3 = str(write_config(tmp_path / "o3.yaml", model={"n": 3},
                          grid={"r_max": 1.2, "n_re": 4, "n_im": 4}, protocol={"cutoff": 100},
                          output={"directory": str(out / "o3")}))
    dataset, report = str(out / "o2" / "dataset.csv"), str(out / "ls" / "report.csv")
    runs = {
        "simulate": (["--config", cfg, "simulate"], 0),
        "estimate-ls": (["--config", cfg, "--out", str(out / "ls"), "estimate", dataset], 0),
        "estimate-ml": (["--config", cfg, "--out", str(out / "ml"), "estimate", dataset,
                         "--cost", "ml"], 0),
        "sweep": (["--config", cfg, "sweep", "--xi-max-list", "0.5,1.0",
                   "--r-max-list", "0.2,0.3"], 0),
        "charfunc": (["--config", cfg, "charfunc"], 0),
        "extrapolate": (["--config", cfg, "--out", str(out / "zne"), "extrapolate",
                         *[report] * 3, "--n-bars", "0.0,0.1,0.2"], 0),
        "validate-low-cutoff": (["--config", low, "validate"], 1),
        "sweep-bad-list": (["--config", cfg, "sweep", "--xi-max-list", "0.5,x"], 2),
        "estimate-missing": (["--config", cfg, "estimate", str(tmp_path / "none.csv")], 3),
        "simulate-warns": (["--config", o3, "simulate"], 0),
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def written():
        return {path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    child = {}
    for name, (argv, _) in runs.items():
        done = subprocess.run([sys.executable, "-m", "weylfit", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        child[name] = (done.returncode, done.stdout, done.stderr)
    child_files = written()
    shutil.rmtree(out)

    capsys.readouterr()
    warned = set()
    for name, (argv, code) in runs.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            assert cli.run(argv) == code, name
        printed = capsys.readouterr()
        child_code, child_out, child_err = child[name]
        assert child_code == code, (name, child_err)
        assert child_out == printed.out, name
        if caught:
            # the child prints each warning whole, with its source line
            warned.add(name)
            assert printed.err == "" and child_err.endswith("\n"), name
            for w in caught:
                assert f"{w.category.__name__}: {w.message}\n" in child_err, name
        else:
            assert child_err == printed.err, name
    assert "simulate-warns" in warned
    assert written() == child_files
    assert {path.parts[0] for path in child_files} == {"o2", "o3", "ls", "ml", "zne"}


def test_in_process_runs_keep_normal_collection(tmp_path):
    # the exit hook does nothing until the interpreter exits
    argv = ["--config", str(write_config(tmp_path / "run.yaml")), "sweep",
            "--xi-max-list", "0.5", "--r-max-list", "0.2"]
    assert [cli.run(argv), cli.run(argv)] == [0, 0]
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


def test_a_process_that_ran_commands_freezes_its_objects_once_at_exit(tmp_path):
    argv = ["--config", str(write_config(tmp_path / "run.yaml")), "sweep",
            "--xi-max-list", "0.5", "--r-max-list", "0.2"]
    # exit hooks run last-registered first, so the script's own hook runs
    # after the one `run` registers through the counting gc.freeze
    script = ("import atexit, gc, weylfit.cli\n"
              "calls, freeze = [], gc.freeze\n"
              "gc.freeze = lambda: calls.append(freeze())\n"
              "atexit.register(lambda: print('hook calls', len(calls), gc.get_freeze_count() > 0))\n"
              f"codes = [weylfit.cli.run({argv!r}) for _ in range(2)]\n"
              "print(codes, len(calls), gc.get_freeze_count())\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["[0, 0] 0 0", "hook calls 1 True"]


def test_bad_input_exits_2_with_one_error_line_and_no_traceback(tmp_path):
    # exit 1 belongs to a failed validate; unreadable bytes are bad input too
    configs = {"unclosed-flow": b"model: {n: 2\n",
               "python-tag": b"model: !!python/object:os.system {}\n",
               "not-utf8": b"model:\n  n: \xff\xfe\n"}
    header = ",".join(sampler.CSV_FIELDS) + "\n"
    long_row = '"' + "9" * 200_000 + '",0,0.1,0,0,x,10,5,1\n'  # over the csv field limit
    datasets = {"not-utf8": (header + "0.1,0,0.1,0,0,x,10,5,1\n").encode() + b"0.1,\xff\n",
                "over-long-field": (header + long_row).encode()}
    cfg = write_config(tmp_path / "cfg.yaml")
    runs = {}
    for name, text in configs.items():
        path = tmp_path / f"{name}.yaml"
        path.write_bytes(text)
        runs[f"config-{name}"] = ["--config", str(path), "validate"]
    for name, text in datasets.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text)
        runs[f"estimate-{name}"] = ["--config", str(cfg), "estimate", str(path)]
        runs[f"validate-{name}"] = ["--config", str(cfg), "validate", "--dataset", str(path)]
    report = tmp_path / "rep.csv"
    report.write_text("name,re,im,std,bias_sys,mse\nc1,1.0,0.0,0.01,,\n")
    report.with_suffix(".meta.yaml").write_text("model: [n: 2\n")
    runs["extrapolate-meta-not-yaml"] = ["--config", str(cfg), "extrapolate", *[str(report)] * 3]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outcomes = {}
    for name, argv in runs.items():
        done = subprocess.run([sys.executable, "-m", "weylfit", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
        outcomes[name] = (done.returncode, len(errors), "Traceback" in done.stderr)
    assert outcomes == dict.fromkeys(runs, (2, 1, False))


def test_estimate_and_sweep_never_load_numpy_random(tmp_path):
    # numpy.random costs about 6 MB of peak RSS; only sampling commands import it
    commands = []
    for n in (2, 3):
        cfg = write_config(tmp_path / f"o{n}.yaml", model={"n": n}, grid={"n_re": 4, "n_im": 4},
                           output={"directory": str(tmp_path / f"o{n}")})
        assert cli.run(["--config", str(cfg), "simulate"]) == 0
        dataset = str(tmp_path / f"o{n}" / "dataset.csv")
        commands += [["--config", str(cfg), "estimate", dataset, "--cost", cost]
                     for cost in ("ls", "ml")]
        commands.append(["--config", str(cfg), "sweep", "--xi-max-list", "0.5,1.0",
                         "--r-max-list", "0.2,0.3"])
    script = ("import sys, weylfit.cli\n"
              f"codes = [weylfit.cli.run(argv) for argv in {commands!r}]\n"
              "print(codes, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"


def test_simulate_and_estimate_never_build_per_row_objects(tmp_path):
    # datasets stay columnar from the grid through the CSV to the fit; and
    # numpy.ma, which a plain np.unique imports, costs about 20 ms a command
    commands = []
    for n in (2, 3):
        cfg = write_config(tmp_path / f"o{n}.yaml", model={"n": n}, grid={"n_re": 4, "n_im": 4},
                           output={"directory": str(tmp_path / f"o{n}")})
        dataset = str(tmp_path / f"o{n}" / "dataset.csv")
        for source in ("analytic", "protocol"):
            commands.append(["--config", str(cfg), "simulate", "--source", source])
            commands += [["--config", str(cfg), "estimate", dataset, "--cost", cost]
                         for cost in ("ls", "ml")]
    script = ("import sys, weylfit.cli\n"
              "from weylfit import sampler\n"
              "built = []\n"
              "for cls in (sampler.MeasurementPoint, sampler.ShotRecord):\n"
              "    def hooked(self, *args, _init=cls.__init__, **kwargs):\n"
              "        built.append(type(self).__name__)\n"
              "        _init(self, *args, **kwargs)\n"
              "    cls.__init__ = hooked\n"
              "list(sampler.Dataset(sampler.Design([0.5], 0.1), 0, 10, 4, 7))\n"
              "assert built == ['MeasurementPoint', 'ShotRecord'], built\n"
              "built.clear()\n"
              f"codes = [weylfit.cli.run(argv) for argv in {commands!r}]\n"
              "print(codes, built, sorted(m for m in sys.modules if m.split('.')[:2] == "
              "['numpy', 'ma']))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(commands)} [] []"


def test_cli_never_loads_scipy(tmp_path):
    # scipy is a test-time oracle only; no command may import it
    heated = write_config(tmp_path / "heated.yaml", grid={"xi_max": 0.2, "r_max": 0.1},
                          protocol={"cutoff": 30, "heating_rate": 300.0})
    commands = [["--config", str(heated), "simulate", "--source", "protocol"]]
    dataset = str(tmp_path / "out" / "dataset.csv")
    for n in (2, 3):
        cfg = write_config(tmp_path / f"o{n}.yaml", model={"n": n}, grid={"n_re": 4, "n_im": 4})
        commands += [["--config", str(cfg), "simulate"],
                     ["--config", str(cfg), "estimate", dataset, "--cost", "ml"],
                     ["--config", str(cfg), "sweep", "--xi-max-list", "0.5,1.0",
                      "--r-max-list", "0.2,0.3"]]
    script = ("import sys, weylfit.cli\n"
              f"codes = [weylfit.cli.run(argv) for argv in {commands!r}]\n"
              "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"
