import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from weylfit import cli


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

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        cli.run(["--config", str(cfg), "simulate"])
        first = file_hash(tmp_path / "out" / "dataset.csv")
        cli.run(["--config", str(cfg), "--seed", "999", "simulate"])
        assert file_hash(tmp_path / "out" / "dataset.csv") != first

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


class TestSweepAndExtrapolate:
    def test_sweep_writes_surface(self, tmp_path):
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

    @staticmethod
    def affine_reports(tmp_path):
        from weylfit import config as config_mod
        from weylfit import series as dg
        from weylfit import estimator as est

        cfg = config_mod.load_config(None, {"output": {"directory": str(tmp_path)}})
        paths = []
        for nb in (0.1, 0.2, 0.3):
            values = np.array([1 + 2 * nb, -1 - 2 * nb, 0.5], dtype=complex)
            report = est.EstimationReport(
                model=est.ModelSpec(2, 0.0),
                coefficients=dg.CoefficientVector(2, values),
                covariance=np.eye(3) * 1e-4,
                std=np.full(3, 1e-2),
            )
            path = tmp_path / f"rep{int(nb * 10)}.csv"
            cli._save_report(report, cfg, path, extra_meta={"data_n_B": nb})
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

    @pytest.mark.parametrize("meta, row", [
        (yaml.safe_dump({"data_n_B": 0.1}), "c1,1.0,0.0,0.01,,"),
        ("model: [n: 2\n", "c1,1.0,0.0,0.01,,"),
        (yaml.safe_dump({"model": {"n": 2, "n_B": 0.0, "heating": False}}), "c1,one,0.0,0.01,,"),
        (yaml.safe_dump({"model": {"n": 2, "n_B": 0.0, "heating": False}, "config": 3}),
         "c1,1.0,0.0,0.01,,"),
    ], ids=["meta-without-model", "meta-not-yaml", "non-numeric-field", "config-not-a-mapping"])
    def test_malformed_report_is_input_error(self, tmp_path, capsys, meta, row):
        path = tmp_path / "rep.csv"
        path.write_text("name,re,im,std,bias_sys,mse\n" + row + "\n")
        path.with_suffix(".meta.yaml").write_text(meta)
        code = cli.run(["--out", str(tmp_path), "extrapolate", *[str(path)] * 3])
        assert code == 2
        assert "malformed report" in capsys.readouterr().err


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


class TestValidate:
    def test_default_checks_pass(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml")
        assert cli.run(["--config", str(cfg), "validate"]) == 0

    def test_low_cutoff_fails_named_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.yaml", protocol={"cutoff": 5})
        assert cli.run(["--config", str(cfg), "validate"]) == 1
        output = capsys.readouterr().out
        assert "FAIL fock-truncation" in output
        assert "FAIL chi-agreement" in output

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
