"""weylfit benchmark: timed closed-loop sessions of real CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs sessions back to back for
about S seconds (closed loop: the next starts when the last has ended, and
only if it should end within S).  Each session gets its own dataset seed,
derived from N, and runs its commands one after another, each in a fresh
Python process with `--jobs 1` and one BLAS thread, so at most two threads
are busy.  Every output is checked by the gates in `gates.py`; a session
that fails a gate counts as failed but, as its commands ran, is still
timed.  The chi oracles run once per run, untimed.  The run record and
every metric are printed by name with their unit; the last line is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced sessions (same seed within a pair) and reports the per-layer
metrics: span self times of every public function of every weylfit
module, counters, fit diagnostics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gates
import metrics
from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BLAS_THREADS = 1
BLAS_ENV = {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
TOTAL_SHOTS = 1_600_000
RUN_LIMIT_S = 165.0  # a command still running this long after start is killed


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict
    commands: tuple  # (kind, extra args) in session order
    rows: int  # dataset rows
    n: int  # series order
    accuracy: str  # gates.check_report accuracy mode: "limit" or "modulus"
    cells: int  # sweep cells


REFERENCE_SESSION = (("simulate", ()), ("estimate", ("--cost", "ls")),
                     ("estimate", ("--cost", "ml")), ("sweep", ()))

# Every session ends with a sweep so that every workload reports sweep_s.
# The protocol session fits with both costs too: each fit takes about 0.1 s,
# and with four sessions a run a single one varied by 20% from run to run.
# The protocol lattice has two rays, and a single-ray design has no finite
# rmse, so its sweep varies xi_max at r_max = 0.78 only.
WORKLOADS = {
    "analytic-o2": Workload(
        "3900-point order-2 reference grid: sampling, CSV I/O, LS and ML fits, "
        "Fisher/bias and the 6x6 sweep; bypasses every protocol optimisation",
        {}, REFERENCE_SESSION, 3900, 2, "limit", 36),
    "order3-fock": Workload(
        "300-point order-3 complex grid: the only path where chi_numeric_grid and the "
        "eigh-built Fock unitaries dominate",
        {"model": {"n": 3}}, REFERENCE_SESSION, 600, 3, "modulus", 36),
    "protocol-o2": Workload(
        "master-equation protocol on 2 rays x 100 xi, heating off: state preparation "
        "and probe integration dominate simulate",
        {"grid": {"d_r": 0.39}},  # r in {0.39, 0.78}, 100 xi each: 200 points
        (("simulate", ("--source", "protocol")), *REFERENCE_SESSION[1:3],
         ("sweep", ("--r-max-list", "0.78"))), 200, 2, "limit", 6),
}


@dataclass
class Command:
    kind: str
    setup_s: float
    wall_s: float  # weylfit imported until the process was reaped
    rss_mb: float
    record: dict


@dataclass
class Session:
    id: str
    traced: bool
    commands: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    fit_parts: list = field(default_factory=list)
    complete: bool = False  # every command exited 0

    @property
    def seconds(self) -> float:
        return sum(c.wall_s for c in self.commands)

    def wall(self, kind: str) -> float:
        return sum(c.wall_s for c in self.commands if c.kind == kind)


class Client:
    """Runs the sessions of one workload from a single closed-loop client."""

    def __init__(self, name: str, seed: int, started: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.started = started
        self.work = ROOT / ".bench_work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.yaml"
        self.config_path.write_text(json.dumps(self.workload.config))  # JSON is YAML
        self.env = dict(os.environ, **BLAS_ENV)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
        # per fit cost: the infinite-shot fit of the design, and how far the
        # report's bias_sys misses it (in std), from the first report
        self.limits: dict[str, list[complex]] = {}
        self.bias_gaps: dict[str, list[float]] = {}

    def warm_up(self) -> None:
        """Byte-compile weylfit once, so that no timed process pays for it."""
        subprocess.run([sys.executable, "-c", "import weylfit.cli"], cwd=ROOT, env=self.env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)

    def _spawn(self, kind: str, args: list[str], session_id: str,
               traced: bool) -> tuple[Command | None, str]:
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), str(record_path), session_id,
                "1" if traced else "0", "--", *args]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(self.work / "stderr.txt", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = None
        if proc.returncode != 0 or record is None:
            tail = (self.work / "stderr.txt").read_text().strip().splitlines()[-3:]
            return None, f"{kind}: exit {proc.returncode} {' | '.join(tail)}"
        return Command(kind, record["imported"] - spawned, reaped - record["imported"],
                       usage.ru_maxrss / 1024.0, record), ""

    def _base(self, session_seed: int) -> list[str]:
        return ["--config", str(self.config_path), "--seed", str(session_seed),
                "--out", str(self.work / "session"), "--jobs", "1"]

    def session(self, index: int, traced: bool) -> Session:
        w = self.workload
        out = self.work / "session"
        shutil.rmtree(out, ignore_errors=True)
        session_seed = random.Random(f"{self.seed}:{index}").randrange(1, 2**31)
        session = Session(f"{self.name}/{index}/{'traced' if traced else 'untraced'}", traced)
        for kind, extra in w.commands:
            args = [*self._base(session_seed), kind]
            if kind == "estimate":
                args.append(str(out / "dataset.csv"))
            args.extend(extra)
            command, problem = self._spawn(kind, args, session.id, traced)
            if command is None:
                session.problems.append(problem)
                return session
            session.commands.append(command)
            # a failed gate fails the session, but its commands still ran
            # to completion, so the session goes on and is timed
            try:
                session.problems += [f"{kind}: {p}" for p in self._gate(kind, extra, out)]
                if kind == "estimate":
                    session.fit_parts += gates.fit_parts(out / "report.meta.yaml")
            except Exception as exc:  # unreadable output, or the program under test raised
                session.problems.append(f"{kind}: gate raised {type(exc).__name__}: {exc}")
        session.complete = True
        return session

    def _gate(self, kind: str, extra: tuple, out: Path) -> list[str]:
        w = self.workload
        if kind == "simulate":
            return gates.check_dataset(out / "dataset.csv", w.rows, TOTAL_SHOTS)
        if kind == "estimate":
            cost = extra[extra.index("--cost") + 1] if "--cost" in extra else "ls"
            limit = None
            if w.accuracy == "limit":
                # the design is the same in every session: fit it once, untimed
                if cost not in self.limits:
                    self.limits[cost] = gates.infinite_shot_fit(out / "dataset.csv", w.n, cost)
                    self.bias_gaps[cost] = gates.bias_gap(out / "report.csv", w.n,
                                                          self.limits[cost])
                limit = self.limits[cost]
            return gates.check_report(out / "report.csv", w.n, w.accuracy,
                                      gates.SIGMAS[cost], limit)
        return gates.check_sweep(out / "rmse_sweep.csv", w.cells)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def end_to_end(sessions: list[Session]) -> tuple[dict, dict]:
    """End-to-end metric values and, for the run record, their sample counts."""
    setups = [c.setup_s for s in sessions for c in s.commands]
    totals = [s.seconds for s in sessions]
    tail, pct = metrics.tail(totals)
    samples = {
        "setup_s": setups,
        "simulate_s": [s.wall("simulate") for s in sessions],
        "estimate_s": [s.wall("estimate") for s in sessions],
        "sweep_s": [s.wall("sweep") for s in sessions],
        "session_s": totals,
        "peak_rss_mb": [max(c.rss_mb for c in s.commands) for s in sessions],
    }
    values = {k: metrics.median(v) for k, v in samples.items()}
    values["session_s.tail"] = tail
    counts = {k: f"median of {len(v)}" for k, v in samples.items()}
    counts["session_s.tail"] = (f"p{pct} of {len(totals)}"
                                + (" (the maximum: fewer than 11 samples)" if pct == 100 else ""))
    return values, counts


def _session_spans(session: Session, first_id: int) -> list[list]:
    """All spans of a traced session, each command under a `cli.command` root.

    The root runs from the import of weylfit to the reaping of the process,
    so the spans of a session account for all of its session_s.
    """
    out, next_id = [], first_id
    for command in session.commands:
        start = command.record["imported"]
        root = [next_id, "cli.command", start, start + command.wall_s, None, session.id]
        out.append(root)
        offset = next_id + 1
        for span in command.record["spans"]:
            parent = root[0] if span[4] is None else span[4] + offset
            out.append([span[0] + offset, span[1], span[2], span[3], parent, span[5]])
        next_id = offset + len(command.record["spans"])
    return out


def layer_values(session: Session, spans: list[list]) -> dict[str, float]:
    wrapped = {name for c in session.commands for name in c.record["wrapped"]}
    broken = {name for c in session.commands for name in c.record["broken"]}
    counts: dict[str, float] = {}
    for c in session.commands:
        for k, v in c.record["counts"].items():
            counts[k] = counts.get(k, 0) + v
    selfs = self_times(spans)
    self_s, calls, module_s = {}, {}, {}
    for span in spans:
        name = span[1]
        self_s[name] = self_s.get(name, 0.0) + selfs[span[0]]
        calls[name] = calls.get(name, 0) + 1
        module = name.split(".")[0]
        module_s[module] = module_s.get(module, 0.0) + selfs[span[0]]

    counter_sources: dict[str, list[str]] = {}
    for fn, (metric, _) in metrics.COUNTERS.items():
        counter_sources.setdefault(metric, []).append(fn)

    values = {}
    for m in metrics.PER_LAYER:
        layer, _, stat = m.name.rpartition(".")
        if m.name in counter_sources:
            if m.name not in broken and any(f in wrapped for f in counter_sources[m.name]):
                values[m.name] = counts.get(m.name, 0)
        elif layer in metrics.MODULES and stat == "self_s":
            values[m.name] = module_s.get(layer, 0.0)
        elif stat in ("self_s", "calls"):
            fns = metrics.SPAN_ALIASES.get(layer, (layer,))
            if any(f in wrapped for f in fns):
                table = self_s if stat == "self_s" else calls
                values[m.name] = sum(table.get(f, 0) for f in fns)

    if "fockspace.displacement" in wrapped and "charfunc.chi_numeric_grid.points" in values:
        points = values["charfunc.chi_numeric_grid.points"]
        values["charfunc.displacements_per_point"] = (
            calls.get("fockspace.displacement", 0) / points if points else 0.0)
    parts = session.fit_parts
    if parts:
        values["estimator.fit.starts_per_part"] = sum(p.get("starts", 0) for p in parts) / len(parts)
        values["estimator.fit.iterations"] = sum(p.get("iterations", 0) for p in parts)
        exits = [p.get("exit") for p in parts]
        for reason in metrics.EXIT_REASONS:
            values[f"estimator.fit.exit.{reason}"] = exits.count(reason)
        values["estimator.fit.exit.other"] = sum(e not in metrics.EXIT_REASONS for e in exits)
    return values


def per_layer(sessions: list[Session], spans_path: Path) -> tuple[dict, dict]:
    untraced = [s for s in sessions if not s.traced]
    traced = [s for s in sessions if s.traced]
    all_spans, per_session = [], []
    for s in traced:
        spans = _session_spans(s, len(all_spans))
        all_spans += spans
        per_session.append(layer_values(s, spans))
    spans_path.write_text(json.dumps(
        {"fields": ["id", "name", "start", "end", "parent", "session"], "spans": all_spans}))
    values, counts = {}, {}
    for m in metrics.PER_LAYER:
        samples = [v[m.name] for v in per_session if m.name in v]
        if samples:
            values[m.name] = metrics.median(samples)
            counts[m.name] = f"median of {len(samples)} traced sessions"
    traced_s = metrics.median([s.seconds for s in traced])
    values["trace.session_s"] = traced_s
    values["trace.overhead_s"] = traced_s - metrics.median([s.seconds for s in untraced])
    counts["trace.session_s"] = f"median of {len(traced)} traced sessions"
    counts["trace.overhead_s"] = f"{len(traced)} traced minus {len(untraced)} untraced sessions"
    module_sum = sum(values.get(f"{m}.self_s", 0.0) for m in metrics.MODULES)
    counts["trace.session_s"] += f"; module self times sum to {module_sum:.6f} s"
    return values, counts


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _versions() -> str:
    found = {}
    for pkg in ("numpy", "scipy", "pyyaml"):
        try:
            found[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            found[pkg] = "missing"
    blas = "unknown"
    if "numpy" in sys.modules:  # imported by the oracles
        try:
            deps = sys.modules["numpy"].show_config(mode="dicts")["Build Dependencies"]
            blas = f"{deps['blas']['name']} {deps['blas']['version']}"
        except (TypeError, KeyError, AttributeError):
            pass
    return (f"python={platform.python_version()} numpy={found['numpy']} "
            f"scipy={found['scipy']} pyyaml={found['pyyaml']} blas={blas}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="weylfit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "weylfit" / "cli.py").is_file():
        print(f"error: no weylfit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # for the gates and oracles, which run in this process
    sys.path.insert(0, str(ROOT / "src"))

    client = Client(args.workload, args.seed, started)
    client.warm_up()
    sessions: list[Session] = []
    window = time.monotonic()
    index, elapsed, last = 0, 0.0, 0.0
    # start a round only if it should end within the window (the first
    # always runs), so a run lasts about --seconds however long a session is
    while index == 0 or (elapsed + last <= args.seconds
                         and time.monotonic() - started < RUN_LIMIT_S / 2):
        # a traced run alternates which side of each pair runs first
        pair = (False, True) if index % 2 == 0 else (True, False)
        for traced in (pair if args.trace else (False,)):
            sessions.append(client.session(index, traced))
        index += 1
        last = time.monotonic() - window - elapsed
        elapsed += last

    oracle_problems = []
    try:
        oracles = gates.chi_oracles()
    except Exception as exc:  # any failure of the program under test fails the run
        oracles, oracle_problems = [], [f"chi oracles raised {type(exc).__name__}: {exc}"]
    oracle_problems += [f"oracle {name}: gap {gap:.3g} > {gates.ORACLE_TOL:g}"
                        for name, gap in oracles if not gap <= gates.ORACLE_TOL]

    failed = [s for s in sessions if s.problems]
    timed = [s for s in sessions if s.complete]
    print(f"# weylfit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} why: {client.workload.why}")
    print(f"# host: nproc={os.cpu_count()} blas_threads={BLAS_THREADS} {_versions()} "
          f"commit={_commit()}")
    print(f"# sessions: attempted={len(sessions)} failed={len(failed)} "
          f"failed_ratio={len(failed) / len(sessions):.4f} measured={elapsed:.2f} s "
          f"commands/session={len(client.workload.commands)}")
    for name, gap in oracles:
        print(f"# oracle {name}: max |chi - closed form| {gap:.3e} (tol {gates.ORACLE_TOL:g})")
    for cost, gaps in client.bias_gaps.items():
        print(f"# error budget, --cost {cost}: bias_sys misses the infinite-shot fit by "
              f"{', '.join(f'{g:.2f}' for g in gaps)} std (not gated; accuracy gate "
              f"|c - infinite-shot fit| <= {gates.SIGMAS[cost]:g} std)")
    for s in failed:
        print(f"# FAILED session: {'; '.join(s.problems)}")
    for problem in oracle_problems:
        print(f"# FAILED {problem}")

    values, counts = {}, {}
    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    if args.trace and any(s.traced for s in timed) and any(not s.traced for s in timed):
        values, counts = per_layer(timed, client.work / "spans.json")
    elif not args.trace and timed:
        values, counts = end_to_end(timed)
    for m in declared:
        if m.name in values:
            print(f"{m.name} = {values[m.name]:.6g} {m.unit}  [{counts[m.name]}]  ({m.about})")
    result = {
        "correct": not failed and not oracle_problems,
        "attempted": len(sessions),
        "failed": len(failed),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared if m.name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
