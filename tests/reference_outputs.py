"""Reference outputs of the CLI: what every command writes and prints at seed 7.

    PYTHONPATH=src python tests/reference_outputs.py

rewrites `reference_outputs.json` next to this file.  Each case is one
config: the three benchmark workloads of `bench/run.py` (read from its
`WORKLOADS`, not copied), two small heated protocol designs and one
thermal sweep.  A workload case runs its benchmark session (`simulate`,
both `estimate` costs, `sweep`), then `charfunc` and `validate
--dataset`; a heated case runs `simulate --source protocol --jobs 2`;
the thermal case runs `sweep` alone.  Every command runs in
process through `cli.run`, from the case's own directory with relative
paths, into its own output directory, so no file or line holds the
directory the run used.  The manifest keeps each command's exit code,
its stdout and stderr lines, and the sha256 of each file it wrote.  A
warning is kept as its source file, category and message, without the
line number.  The Tier-1 test `test_reference_outputs.py` compares a
fresh run with the committed manifest; a change that moves an output on
purpose rewrites the manifest and names each moved entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the order-3 reports move in the last digit with threads

import yaml  # noqa: E402

from weylfit import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "reference_outputs.json"
BENCH = HERE.parent / "bench"
PACKAGE = Path(cli.__file__).resolve().parent
SEED = 7

# The order-3 charfunc reads chi by Fock-space numerics at every lattice
# point: about 0.5 s at the default spacing on a 2-core x86_64 host, and
# 0.03 s on the 41 x 41 lattice of this one
ORDER3_CHARFUNC_GRID = {"d_xi": 0.1}

HEATED = {
    "heated-o2": {"model": {"n": 2, "n_B": 0.1},
                  "grid": {"xi_max": 0.6, "r_max": 0.4, "d_xi": 0.2, "d_r": 0.2},
                  "shots": {"total": 60_000},
                  "protocol": {"heating_rate": 300.0, "cutoff": 40}},
    "heated-o3": {"model": {"n": 3, "n_B": 0.1},
                  "grid": {"re_xi_max": 0.8, "im_xi_max": 0.8, "r_max": 0.2,
                           "n_re": 3, "n_im": 3, "n_r": 3},
                  "shots": {"total": 60_000},
                  "protocol": {"heating_rate": 300.0, "cutoff": 40}},
}


# A thermal sweep off the default maxima, whose r_max 0.02 row is single-r
# (every design in it rank-deficient, so inf)
THERMAL_SWEEP = ({"model": {"n": 2, "n_B": 0.1}},
                 ["sweep", "--xi-max-list", "0.4,1.2,2.2", "--r-max-list", "0.02,0.44,0.8"])


def bench_workloads() -> dict:
    """`bench/run.py`'s `WORKLOADS`, loaded from its file with `bench/` on the path."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module.WORKLOADS


def cases() -> dict[str, tuple[dict, list[tuple[str, dict, list[str]]]]]:
    """Each case's config and its (step, config overrides, command argv) list, in run order."""
    out = {}
    for name, workload in bench_workloads().items():
        steps = [(f"estimate-{args[-1]}", {}, ["estimate", "out/simulate/dataset.csv", *args])
                 if kind == "estimate" else (kind, {}, [kind, *args])
                 for kind, args in workload.commands]
        charfunc_grid = ORDER3_CHARFUNC_GRID if workload.n == 3 else {}
        steps += [("charfunc", {"grid": charfunc_grid} if charfunc_grid else {}, ["charfunc"]),
                  ("validate", {}, ["validate", "--dataset", "out/simulate/dataset.csv"])]
        out[name] = (workload.config, steps)
    for name, config in HEATED.items():
        out[name] = (config, [("simulate", {}, ["--jobs", "2", "simulate",
                                                "--source", "protocol"])])
    config, argv = THERMAL_SWEEP
    out["thermal-sweep"] = (config, [("sweep", {}, argv)])
    return out


def _merged(config: dict, overrides: dict) -> dict:
    merged = {section: dict(entries) for section, entries in config.items()}
    for section, entries in overrides.items():
        merged.setdefault(section, {}).update(entries)
    return merged


def _warning_line(w: warnings.WarningMessage) -> str:
    path = Path(w.filename).resolve()
    source = (path.relative_to(PACKAGE.parent).as_posix() if path.is_relative_to(PACKAGE.parent)
              else path.name)
    return f"{source}: {w.category.__name__}: {w.message}"


def run_step(config: dict, argv: list[str], step: str) -> dict:
    """One in-process command from the current directory, as its manifest entry."""
    config_path, out = Path(f"{step}.yaml"), f"out/{step}"
    config_path.write_text(yaml.safe_dump(config))
    argv = ["--config", str(config_path), "--seed", str(SEED), "--out", out, *argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.run(argv)
    files = sorted(Path(out).iterdir()) if Path(out).is_dir() else []
    return {"argv": " ".join(argv), "exit": code,
            "stdout": stdout.getvalue().splitlines(),
            "stderr": stderr.getvalue().splitlines() + [_warning_line(w) for w in caught],
            "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}}


def collect(workdir: Path) -> dict:
    """The manifest of a fresh run of every case under ``workdir``."""
    manifest = {}
    cwd = Path.cwd()
    try:
        for name, (config, steps) in cases().items():
            case_dir = workdir / name
            case_dir.mkdir(parents=True)
            os.chdir(case_dir)
            manifest[name] = {step: run_step(_merged(config, over), argv, step)
                              for step, over, argv in steps}
    finally:
        os.chdir(cwd)
    return manifest


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = collect(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
