#!/usr/bin/env python3
"""Benchmark for the pgfold command line tool.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload hdl-91 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every pgfold command runs in a fresh child process and
is timed from outside; the peak resident memory of each child is read from
its own ``wait4`` record.  With ``--trace 1`` the same commands are replayed
in this process through ``pgfold.cli.main`` with span recorders around each
layer, and the per-layer self times are reported; the spans are written to
``.bench_out/`` when the run ends.  Every command's output is checked
independently of pgfold's own checks.  The last line of standard output is
one JSON object with the result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import bench_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_PER_REPETITION = 2
CHILD_TIMEOUT_S = 150.0
MIB = 1024.0  # ru_maxrss is in KiB on Linux


@dataclass(frozen=True)
class Workload:
    geometry: tuple[int, int, int]  # n, p, s of P(n, GF(p^s))
    synth: tuple[str, ...]
    verify: tuple[str, ...] | None
    iterations: int = 1

    def commands(self) -> list[tuple[str, tuple[str, ...]]]:
        commands = [("synth", self.synth)]
        if self.verify is not None:
            commands.append(("verify", self.verify))
        return commands


def _run_workload(geometry: str, options: str, iterations: int) -> Workload:
    n, p, s = (int(v) for v in geometry.split(","))
    return Workload(
        geometry=(n, p, s),
        synth=("run", "--geometry", geometry, *options.split(), "--iterations", str(iterations)),
        verify=("verify", "--iterations", str(iterations)),
        iterations=iterations,
    )


def _build_workload(geometry: str) -> Workload:
    n, p, s = (int(v) for v in geometry.split(","))
    return Workload(geometry=(n, p, s), synth=("build-pg", "--geometry", geometry), verify=None)


# Every workload is deterministic: --seed is recorded but changes no input.
WORKLOADS = {
    "hdl-91": _run_workload(
        "2,3,2", "--q 7 --emit csv,json,hdl --design-option 1 --pipeline none", 1
    ),
    "expand-307": _run_workload(
        "2,17,1", "--alpha auto --emit csv,json --design-option 2 --pipeline graph", 8
    ),
    "geometry-1057": _build_workload("2,2,5"),
    # Smoke paths through the same harness at P(3, GF(2)), J = 15.
    "smoke-15": _run_workload("3,2,1", "--q 3 --emit csv,json,hdl", 2),
    "smoke-pg-15": _build_workload("3,2,1"),
}

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "synth_peak_rss_mb": "MiB",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "artifact_bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# independent output checks


def geometry_sizes(geometry: tuple[int, int, int]) -> tuple[int, int, int]:
    """Closed forms for P(n, GF(p^s)): points J, points per hyperplane
    (the node degree) and the Singer difference-set multiplicity lambda."""
    n, p, s = geometry
    q = p**s
    points = (q ** (n + 1) - 1) // (q - 1)
    degree = (q**n - 1) // (q - 1)
    multiplicity = (q ** (n - 1) - 1) // (q - 1)
    return points, degree, multiplicity


def check_difference_set(graph: dict, geometry: tuple[int, int, int]) -> list[str]:
    """The real offsets must form a (J, k, lambda) difference set: every
    nonzero residue mod J arises exactly lambda times as a difference.  For
    a plane lambda is 1, a perfect difference set."""
    points, degree, multiplicity = geometry_sizes(geometry)
    order = graph.get("real_J", graph["J"])
    offsets = graph.get("real_base_offsets", graph["base_offsets"])
    if order != points or len(set(offsets)) != degree:
        return [f"graph has J={order} and {len(set(offsets))} offsets, "
                f"expected J={points} and {degree}"]
    counts = [0] * order
    for a in offsets:
        for b in offsets:
            counts[(a - b) % order] += 1
    wrong = [r for r in range(1, order) if counts[r] != multiplicity]
    if wrong:
        r = wrong[0]
        return [f"residue {r} arises {counts[r]} times as a difference, expected {multiplicity}"]
    return []


def expected_tokens(workload: Workload, iterations: int) -> int:
    """Real tokens each side's consumers receive over ``iterations``."""
    points, degree, _ = geometry_sizes(workload.geometry)
    return points * degree * iterations


def check_tokens(real_tokens: dict, expected: int, where: str) -> list[str]:
    got = {side: real_tokens.get(side) for side in ("row", "col")}
    if got != {"row": expected, "col": expected}:
        return [f"{where}: real tokens {got}, expected {expected} per side"]
    return []


def _verify_tokens(stdout: str) -> dict:
    # verify prints "dataflow equivalence: ok (ROW+COL real tokens)".
    for line in stdout.splitlines():
        if line.startswith("dataflow equivalence:") and "(" in line:
            try:
                row, col = line.split("(", 1)[1].split()[0].split("+")
                return {"row": int(row), "col": int(col)}
            except ValueError:
                return {}
    return {}


def check_command_output(workload: Workload, role: str, stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if workload.verify is None:
        points, degree, _ = geometry_sizes(workload.geometry)
        if f"order {points}, degree {degree}" not in last:
            return [f"{role}: unexpected output {last!r}"]
        return []
    expected = f"{workload.synth[0] if role == 'synth' else 'verify'}: PASS"
    if last != expected:
        return [f"{role}: last line {last!r}, expected {expected!r}"]
    if role == "verify":
        return check_tokens(
            _verify_tokens(stdout),
            expected_tokens(workload, workload.iterations),
            "verify output",
        )
    return []


def check_artifacts(workload: Workload, run_dir: Path) -> list[str]:
    """Checks on what the synthesis command left in ``run_dir``."""
    try:
        graph = json.loads((run_dir / "graph.json").read_text(encoding="utf-8"))
        problems = check_difference_set(graph, workload.geometry)
        if workload.verify is not None:
            report = json.loads((run_dir / "sim_report.json").read_text(encoding="utf-8"))
            problems += check_tokens(
                report["real_tokens"],
                expected_tokens(workload, workload.iterations),
                "sim_report.json",
            )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable artifacts in {run_dir.name}: {exc}"]
    return problems


def snapshot(run_dir: Path) -> dict[str, bytes]:
    """The bytes that must repeat exactly across repetitions: the manifest
    of a run directory, or every file build-pg writes."""
    manifest = run_dir / "manifest.json"
    if manifest.is_file():
        return {"manifest.json": manifest.read_bytes()}
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.is_file()}


def check_synth(
    workload: Workload, run_dir: Path, reference: dict | None, rep: int
) -> tuple[list[str], dict]:
    """Artifact checks after a synthesis command, and the output snapshot
    every later repetition in this invocation must match byte for byte."""
    problems = check_artifacts(workload, run_dir)
    current = snapshot(run_dir) if run_dir.is_dir() else {}
    if reference is not None and current != reference:
        problems.append(f"repetition {rep}: output differs from repetition 0")
    return problems, current if reference is None else reference


def directory_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# child processes


def scratch_tmp(work: Path) -> Path:
    """Temporary directory for pgfold (``verify`` re-derives into one), kept
    inside the run's work directory."""
    tmp = work / "tmp"
    tmp.mkdir(exist_ok=True)
    return tmp


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(scratch_tmp(work))
    return env


def run_child(argv: list[str], log_dir: Path) -> tuple[float, float, int, str, str]:
    """Run one child to completion: wall seconds, own peak RSS in MiB,
    exit code, standard output and standard error."""
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env(log_dir), file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    stdout, stderr = (
        path.read_text(encoding="utf-8", errors="replace") for path in (out_path, err_path)
    )
    return wall, usage.ru_maxrss / MIB, code, stdout, stderr


def exit_problems(role: str, code: int, stderr: str) -> list[str]:
    if code == 0:
        return []
    last = stderr.strip().splitlines()[-1:] or ["no message"]
    return [f"{role} exited with {code}: {last[0]}"]


def check_import(work: Path) -> None:
    """Fail unless a child imports pgfold from this checkout.  The first
    import also compiles the bytecode cache, so it is not timed."""
    probe = [sys.executable, "-c", "import pgfold; print(pgfold.__file__)"]
    _, _, code, stdout, _ = run_child(probe, work)
    located = Path(stdout.strip() or ".").resolve()
    if code != 0 or SRC not in located.parents:
        raise BenchError(f"pgfold does not import from {SRC}")


def setup_time(work: Path) -> float:
    """Wall time of a fresh interpreter running ``import pgfold``."""
    return run_child([sys.executable, "-c", "import pgfold"], work)[0]


def pgfold_argv(args: tuple[str, ...], run_dir: Path) -> list[str]:
    return [*args, "--out", str(run_dir)]


# ---------------------------------------------------------------------------
# runs


class Tally:
    """Attempted and failed commands, with the reasons for failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def _keep_going(start: float, rep_start: float, seconds: float) -> bool:
    now = time.perf_counter()
    return now + (now - rep_start) <= start + seconds


def run_untraced(workload: Workload, work: Path, seconds: float, tally: Tally) -> dict:
    check_import(work)
    setup: list[float] = []
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END if name != "setup_s"}
    reference = None
    start = time.perf_counter()
    rep = 0
    while True:
        rep_start = time.perf_counter()
        # Set-up samples are spread over the whole run, like the commands.
        setup += [setup_time(work) for _ in range(SETUP_PER_REPETITION)]
        run_dir = work / f"rep{rep}"
        total = peak = 0.0
        for role, args in workload.commands():
            argv = [sys.executable, "-m", "pgfold", *pgfold_argv(args, run_dir)]
            wall, rss, code, stdout, stderr = run_child(argv, work)
            problems = exit_problems(role, code, stderr)
            problems += check_command_output(workload, role, stdout)
            if role == "synth":
                synth_problems, reference = check_synth(workload, run_dir, reference, rep)
                problems += synth_problems
                samples["synth_s"].append(wall)
                samples["synth_peak_rss_mb"].append(rss)
                samples["artifact_bytes"].append(
                    directory_bytes(run_dir) if run_dir.is_dir() else 0
                )
            tally.record(problems)
            total += wall
            peak = max(peak, rss)
        samples["total_s"].append(total)
        samples["peak_rss_mb"].append(peak)
        shutil.rmtree(run_dir, ignore_errors=True)
        rep += 1
        if not _keep_going(start, rep_start, seconds):
            break
    # Command times report the fastest repetition, the one other load on the
    # host disturbed least (see NOTES.md); memory and bytes the median.
    values = {name: statistics.median(v) for name, v in samples.items()}
    values.update({name: min(samples[name]) for name in ("synth_s", "total_s")})
    values["setup_s"] = statistics.median(setup)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a crash
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _import_pgfold():
    sys.path.insert(0, str(SRC))
    import pgfold.cli

    if SRC not in Path(pgfold.cli.__file__).resolve().parents:
        raise BenchError(f"pgfold does not import from {SRC}")
    return pgfold.cli


def layer_metric_names() -> list[str]:
    names = []
    for role in ("synth", "verify"):
        names += [f"{role}.{m}" for m in bench_trace.LAYER_METRICS]
        names += [f"{role}.command_s", f"{role}.trace_overhead_s"]
    return names


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("sim_cycles"):
        return "cycles"
    return "count"


def run_traced(
    workload: Workload, work: Path, seconds: float, tally: Tally, trace_path: Path
) -> dict:
    cli = _import_pgfold()
    samples: dict[str, list[float]] = {name: [] for name in layer_metric_names()}
    traces = []
    reference = None
    start = time.perf_counter()
    rep = 0
    while True:
        rep_start = time.perf_counter()
        run_dir = work / f"rep{rep}"
        for role, args in workload.commands():
            # A fresh CLI process starts with empty caches; so does the replay.
            bench_trace.clear_caches()
            recorder = bench_trace.Recorder()
            with bench_trace.patched(recorder), recorder.span(bench_trace.ROOT):
                code, stdout, stderr = _call_cli(cli, pgfold_argv(args, run_dir))
            problems = exit_problems(role, code, stderr)
            problems += check_command_output(workload, role, stdout)
            metrics, accounting = bench_trace.layer_metrics(recorder)
            problems += accounting
            for span in recorder.spans:
                if span.name == "simulator.simulate" and span.attrs:
                    problems += check_tokens(
                        span.attrs["real_tokens"],
                        expected_tokens(workload, span.attrs["iterations"]),
                        f"{role} replay",
                    )
            if role == "synth":
                synth_problems, reference = check_synth(workload, run_dir, reference, rep)
                problems += synth_problems
            tally.record(problems)
            metrics["command_s"] = recorder.spans[0].duration
            metrics["trace_overhead_s"] = recorder.overhead_s
            for name, value in metrics.items():
                samples[f"{role}.{name}"].append(value)
            traces.append({"rep": rep, "role": role, "argv": list(args), **recorder.to_json_dict()})
        shutil.rmtree(run_dir, ignore_errors=True)
        rep += 1
        if not _keep_going(start, rep_start, seconds):
            break
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"commands": traces}, indent=1) + "\n", encoding="utf-8")
    return {
        name: {"value": statistics.median(v) if v else 0, "unit": layer_unit(name)}
        for name, v in samples.items()
    }


def run_benchmark(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path = WORK,
    out: Path = OUT,
) -> dict:
    """One benchmark run; returns the result object."""
    if not (SRC / "pgfold" / "__init__.py").is_file():
        raise BenchError(f"no pgfold sources under {SRC}")
    workload = WORKLOADS[workload_name]
    run_work = work / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(run_work, ignore_errors=True)
    run_work.mkdir(parents=True)
    tally = Tally()
    try:
        if trace:
            trace_path = out / f"trace-{workload_name}-seed{seed}.json"
            saved_tempdir = tempfile.tempdir
            tempfile.tempdir = str(scratch_tmp(run_work))
            try:
                metrics = run_traced(workload, run_work, seconds, tally, trace_path)
            finally:
                tempfile.tempdir = saved_tempdir
        else:
            metrics = run_untraced(workload, run_work, seconds, tally)
    finally:
        shutil.rmtree(run_work, ignore_errors=True)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "failures": tally.failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded; inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed} (inputs do not depend on it)")
    for failure in result.pop("failures"):
        print(f"FAILED: {failure}")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
